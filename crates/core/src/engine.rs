//! The early-termination evaluation engine.
//!
//! [`EtEngine::evaluate`] simulates one distance comparison exactly as the
//! NDP distance-computing unit performs it: 64 B lines of the transformed
//! layout arrive one by one, the conservative lower bound is refined after
//! each line, and the comparison aborts as soon as the bound reaches the
//! threshold. The returned [`EvalCost`] reports how many lines were
//! actually fetched — the quantity the system simulator charges to DRAM.
//!
//! The engine guarantees **no accuracy loss**: a comparison is pruned only
//! when the mathematical lower bound proves the vector is out of bounds,
//! and in-bound results always end with the exact distance (re-checking an
//! uncompressed backup when common-prefix elimination dropped outlier
//! bits).

use std::ops::Range;

use ansmet_vecdata::Dataset;

use crate::encode::to_sortable;
use crate::kernel::{dispatch, element, missing_mask, Bound, Elem};
use crate::observe::{EtObserver, NoopEtObserver};
use crate::prefix::PrefixSpec;
use crate::schedule::{FetchSchedule, LinePlan};

/// Early-termination configuration: the fetch schedule plus optional
/// common-prefix elimination.
#[derive(Debug, Clone, PartialEq)]
pub struct EtConfig {
    /// Fetch schedule (defines the transformed layout).
    pub schedule: FetchSchedule,
    /// Common-prefix elimination spec; `None` disables it.
    pub prefix: Option<PrefixSpec>,
    /// Re-check uncompressed backups of outlier vectors for in-bound
    /// results (the paper's default, preserving exact accuracy).
    pub backup_recheck: bool,
}

impl EtConfig {
    /// Config without prefix elimination.
    pub fn new(schedule: FetchSchedule) -> Self {
        EtConfig {
            schedule,
            prefix: None,
            backup_recheck: true,
        }
    }

    /// Config with prefix elimination.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's prefix length disagrees with the spec.
    pub fn with_prefix(schedule: FetchSchedule, prefix: PrefixSpec) -> Self {
        assert_eq!(
            schedule.prefix_len(),
            prefix.len(),
            "schedule and prefix spec disagree on the eliminated length"
        );
        EtConfig {
            schedule,
            prefix: Some(prefix),
            backup_recheck: true,
        }
    }

    /// Disable the backup re-check (trades accuracy for fewer accesses,
    /// Table 5(b)).
    pub fn without_backup(mut self) -> Self {
        self.backup_recheck = false;
        self
    }
}

/// Cost and outcome of one early-terminating distance comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalCost {
    /// Transformed-layout 64 B lines fetched.
    pub lines: usize,
    /// Extra natural-layout lines fetched for the backup re-check.
    pub backup_lines: usize,
    /// Whether the comparison terminated on a lower bound (no exact
    /// distance computed; the vector is certainly ≥ threshold).
    pub pruned: bool,
    /// Exact distance, when computed.
    pub distance: Option<f32>,
    /// The final lower bound, reported when `backup_recheck` is disabled
    /// and the exact distance is unavailable (accuracy-loss mode).
    pub approx_distance: Option<f32>,
    /// The lower bound in force when the evaluation stopped (equals the
    /// exact distance after a complete, exact fetch). Hosts aggregate
    /// these across sub-vector ranks to decide soundly (§5.3).
    pub final_bound: f64,
}

impl EvalCost {
    /// All 64 B lines charged to memory for this comparison.
    pub fn total_lines(&self) -> usize {
        self.lines + self.backup_lines
    }

    /// The distance the search should use (exact when available,
    /// otherwise the approximate bound).
    pub fn effective_distance(&self) -> Option<f32> {
        self.distance.or(self.approx_distance)
    }
}

/// Reusable buffers for [`EtEngine`] evaluations.
///
/// One comparison needs a per-dimension contribution array and (for
/// sub-vector ranges) a line plan of the sub-range. Allocating them per
/// comparison dominates the replay's host time; threading one scratch
/// through a query's thousands of evaluations amortizes the cost to zero.
#[derive(Debug, Default)]
pub struct EtScratch {
    /// Per-dimension lower-bound contributions (f64, as in the engine).
    contribs: Vec<f64>,
    /// Sub-range line plan buffer.
    subplan: Vec<LinePlan>,
}

impl EtScratch {
    /// Create an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Blocked 4-accumulator f64 sum (keeps independent addition chains).
fn sum4(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut it = xs.chunks_exact(4);
    for c in &mut it {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    let tail: f64 = it.remainder().iter().sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Per-vector format class under prefix elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VectorClass {
    /// No prefix elimination configured.
    Plain,
    /// Prefix applies to every element (normal format, Fig. 4b).
    Normal,
    /// Vector contains outlier elements (outlier format, Fig. 4c).
    Outlier,
}

/// The early-termination evaluation engine for one dataset + config.
///
/// The engine keeps no per-element data: each comparison decodes element
/// intervals straight from [`Dataset::raw_vector`] as its lines arrive.
/// Building one costs the line plan plus, under prefix elimination, one
/// class byte per vector.
#[derive(Debug)]
pub struct EtEngine<'a> {
    data: &'a Dataset,
    cfg: EtConfig,
    /// Full-vector line plan.
    plan: Vec<LinePlan>,
    /// Cumulative payload bits per schedule step (hoisted out of the
    /// per-comparison hot path).
    cumulative: Vec<u32>,
    /// Per-vector format class; empty without prefix elimination, where
    /// every vector is [`VectorClass::Plain`].
    classes: Vec<VectorClass>,
}

impl<'a> EtEngine<'a> {
    /// Build the engine (precomputes the line plan and, under prefix
    /// elimination, each vector's format class).
    pub fn new(data: &'a Dataset, cfg: EtConfig) -> Self {
        let dtype = data.dtype();
        let classes = match &cfg.prefix {
            Some(spec) if !spec.is_disabled() => (0..data.len())
                .map(|id| {
                    let outlier =
                        data.raw_vector(id).iter().enumerate().any(|(d, &raw)| {
                            spec.matched_len(d, to_sortable(dtype, raw)) < spec.len()
                        });
                    if outlier {
                        VectorClass::Outlier
                    } else {
                        VectorClass::Normal
                    }
                })
                .collect(),
            _ => Vec::new(),
        };
        let plan = cfg.schedule.line_plan(data.dim());
        let cumulative = cfg.schedule.cumulative_bits();
        EtEngine {
            data,
            cfg,
            plan,
            cumulative,
            classes,
        }
    }

    /// The dataset under evaluation.
    pub fn dataset(&self) -> &Dataset {
        self.data
    }

    /// The active configuration.
    pub fn config(&self) -> &EtConfig {
        &self.cfg
    }

    /// Lines of a full transformed-vector fetch.
    pub fn full_lines(&self) -> usize {
        self.plan.len()
    }

    /// Lines of one vector in the natural (untransformed) layout.
    pub fn natural_lines(&self) -> usize {
        self.data.vector_lines()
    }

    fn class(&self, id: usize) -> VectorClass {
        if self.classes.is_empty() {
            VectorClass::Plain
        } else {
            self.classes[id]
        }
    }

    /// Known prefix length of every element of a plain or normal vector
    /// after `payload_bits` of its stored payload have been fetched.
    fn uniform_known(&self, class: VectorClass, payload_bits: u32, bits: u32) -> u32 {
        match (class, &self.cfg.prefix) {
            (VectorClass::Normal, Some(prefix)) => (prefix.len() + payload_bits).min(bits),
            _ => payload_bits.min(bits),
        }
    }

    /// Evaluate one comparison over the full vector.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the dataset dimensionality
    /// (a programming error at this level; use [`EtEngine::evaluate_range`]
    /// for the fallible form).
    pub fn evaluate(&self, id: usize, query: &[f32], threshold: f32) -> EvalCost {
        self.evaluate_with(id, query, threshold, &mut EtScratch::new())
    }

    /// [`EtEngine::evaluate`] reusing caller-provided scratch buffers
    /// (the allocation-free hot path).
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the dataset dimensionality.
    pub fn evaluate_with(
        &self,
        id: usize,
        query: &[f32],
        threshold: f32,
        scratch: &mut EtScratch,
    ) -> EvalCost {
        self.evaluate_range_with(id, query, 0..self.data.dim(), threshold, scratch)
            .expect("full-range evaluation is in bounds")
    }

    /// [`EtEngine::evaluate_with`] reporting termination outcomes to
    /// `obs` (see [`EtObserver`]).
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the dataset dimensionality.
    pub fn evaluate_obs<O: EtObserver>(
        &self,
        id: usize,
        query: &[f32],
        threshold: f32,
        scratch: &mut EtScratch,
        obs: &mut O,
    ) -> EvalCost {
        self.evaluate_range_obs(id, query, 0..self.data.dim(), threshold, scratch, obs)
            .expect("full-range evaluation is in bounds")
    }

    /// Evaluate one comparison restricted to the dimension sub-range
    /// `dims` (vertical partitioning: the rank holding these dimensions
    /// can only bound its local contribution, §5.3).
    ///
    /// # Errors
    ///
    /// Rejects an out-of-range `dims` or a query whose length differs
    /// from the dataset dimensionality.
    pub fn evaluate_range(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        threshold: f32,
    ) -> Result<EvalCost, crate::EtError> {
        self.evaluate_range_with(id, query, dims, threshold, &mut EtScratch::new())
    }

    /// [`EtEngine::evaluate_range`] reusing caller-provided scratch
    /// buffers (the allocation-free hot path).
    ///
    /// # Errors
    ///
    /// Rejects an out-of-range `dims` or a query whose length differs
    /// from the dataset dimensionality.
    pub fn evaluate_range_with(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        threshold: f32,
        scratch: &mut EtScratch,
    ) -> Result<EvalCost, crate::EtError> {
        self.evaluate_range_obs(id, query, dims, threshold, scratch, &mut NoopEtObserver)
    }

    /// [`EtEngine::evaluate_range_with`] reporting termination outcomes
    /// to `obs` (see [`EtObserver`]). The observer is called exactly at
    /// the decision points — bound-exceeded aborts and backup re-checks
    /// — and never affects the returned [`EvalCost`].
    ///
    /// # Errors
    ///
    /// Rejects an out-of-range `dims` or a query whose length differs
    /// from the dataset dimensionality.
    pub fn evaluate_range_obs<O: EtObserver>(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        threshold: f32,
        scratch: &mut EtScratch,
        obs: &mut O,
    ) -> Result<EvalCost, crate::EtError> {
        let dim = self.data.dim();
        if query.len() != dim {
            return Err(crate::EtError::QueryDimMismatch {
                expected: dim,
                got: query.len(),
            });
        }
        if dims.end > dim {
            return Err(crate::EtError::RangeOutOfBounds { end: dims.end, dim });
        }
        // A reversed range is empty.
        let dims = dims.start.min(dims.end)..dims.end;
        Ok(dispatch!(self.data.dtype(), self.data.metric(), E, M => {
            self.evaluate_kernel::<E, M, O>(id, query, dims, threshold, scratch, obs)
        }))
    }

    /// One comparison, monomorphized for the dataset's element type and
    /// metric (see [`crate::kernel`]).
    fn evaluate_kernel<E: Elem, M: Bound, O: EtObserver>(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        threshold: f32,
        scratch: &mut EtScratch,
        obs: &mut O,
    ) -> EvalCost {
        let sub = dims.len();
        let full = sub == self.data.dim();
        let class = self.class(id);
        let outlier_spec = match class {
            VectorClass::Outlier => self.cfg.prefix.as_ref(),
            _ => None,
        };
        let raw = &self.data.raw_vector(id)[dims.clone()];
        let query_sub = &query[dims.clone()];
        let EtScratch { contribs, subplan } = scratch;

        // Line plan: the transformed layout of the sub-vector only.
        let plan: &[LinePlan] = if full {
            &self.plan
        } else {
            self.cfg.schedule.line_plan_into(sub, subplan);
            subplan
        };

        // Initial contributions with zero payload fetched. Unbounded
        // dimensions (−∞, e.g. unfetched FP32 under inner product) are
        // counted separately so incremental updates stay well-defined.
        contribs.clear();
        contribs.resize(sub, 0.0);
        let mut unbounded = match outlier_spec {
            Some(spec) => init_contribs::<E, M>(raw, query_sub, contribs, |j, s| {
                missing_mask(E::BITS, outlier_known(spec, dims.start + j, s, 0, E::BITS))
            }),
            None => {
                let ones = missing_mask(E::BITS, self.uniform_known(class, 0, E::BITS));
                init_contribs::<E, M>(raw, query_sub, contribs, |_, _| ones)
            }
        };
        // Blocked 4-wide reduction of the finite contributions.
        let mut finite_sum = if unbounded == 0 {
            sum4(contribs)
        } else {
            contribs
                .iter()
                .filter(|&&c| c != f64::NEG_INFINITY)
                .sum::<f64>()
        };
        let bound_of = |unbounded: usize, finite_sum: f64| {
            if unbounded > 0 {
                f64::NEG_INFINITY
            } else {
                finite_sum
            }
        };
        let mut bound = bound_of(unbounded, finite_sum);
        if bound >= threshold as f64 {
            obs.terminated(0, plan.len());
            return EvalCost {
                lines: 0,
                backup_lines: 0,
                pruned: true,
                distance: None,
                approx_distance: None,
                final_bound: bound,
            };
        }

        // Fetch line by line, refining each covered dimension's interval
        // and accumulating bound deltas in four independent f64 chains.
        let mut lines = 0usize;
        for lp in plan.iter() {
            lines += 1;
            let payload = self.cumulative[lp.step];
            let covered = lp.dim_start..lp.dim_end;
            finite_sum += match outlier_spec {
                Some(spec) => {
                    refine::<E, M>(raw, query_sub, contribs, covered, &mut unbounded, |j, s| {
                        missing_mask(
                            E::BITS,
                            outlier_known(spec, dims.start + j, s, payload, E::BITS),
                        )
                    })
                }
                None => {
                    let ones = missing_mask(E::BITS, self.uniform_known(class, payload, E::BITS));
                    refine::<E, M>(raw, query_sub, contribs, covered, &mut unbounded, |_, _| {
                        ones
                    })
                }
            };
            bound = bound_of(unbounded, finite_sum);
            if bound >= threshold as f64 && lines < plan.len() {
                obs.terminated(lines, plan.len());
                return EvalCost {
                    lines,
                    backup_lines: 0,
                    pruned: true,
                    distance: None,
                    approx_distance: None,
                    final_bound: bound,
                };
            }
        }

        // Fully fetched.
        if full && class != VectorClass::Outlier {
            // The compressed form reconstructs the exact vector.
            let distance = self.data.distance_to(id, query);
            return EvalCost {
                lines,
                backup_lines: 0,
                pruned: false,
                distance: Some(distance),
                approx_distance: None,
                final_bound: distance as f64,
            };
        }
        if full {
            // Outlier vector: dropped bits → only a bound is known.
            if bound >= threshold as f64 {
                // Certainly out of bounds; no backup needed.
                obs.terminated(lines, plan.len());
                return EvalCost {
                    lines,
                    backup_lines: 0,
                    pruned: true,
                    distance: None,
                    approx_distance: None,
                    final_bound: bound,
                };
            }
            if self.cfg.backup_recheck {
                obs.backup_recheck(self.natural_lines());
                let distance = self.data.distance_to(id, query);
                return EvalCost {
                    lines,
                    backup_lines: self.natural_lines(),
                    pruned: false,
                    distance: Some(distance),
                    approx_distance: None,
                    final_bound: bound,
                };
            }
            return EvalCost {
                lines,
                backup_lines: 0,
                pruned: false,
                distance: None,
                approx_distance: Some(bound as f32),
                final_bound: bound,
            };
        }
        // Sub-vector evaluation: report the local partial contribution.
        let partial: f64 = self.data.vector(id)[dims]
            .iter()
            .zip(query_sub)
            .map(|(&v, &q)| M::contribution(v, v, q))
            .sum();
        EvalCost {
            lines,
            backup_lines: 0,
            pruned: false,
            distance: None,
            approx_distance: Some(partial as f32),
            final_bound: partial,
        }
    }
}

/// Known prefix length of element `d` (sortable pattern `s`) of an
/// outlier-format vector after `payload_bits` of its stored payload have
/// been fetched.
#[inline]
fn outlier_known(spec: &PrefixSpec, d: usize, s: u32, payload_bits: u32, bits: u32) -> u32 {
    let m = spec.matched_len(d, s);
    if m == spec.len() {
        // Normal element inside an outlier vector: one 01Elm flag bit
        // precedes the payload.
        (spec.len() + payload_bits.saturating_sub(1)).min(bits)
    } else {
        // Outlier element: metadata precedes payload; stored bits resume
        // at the mismatch position. The lowest bits are dropped (the
        // interval stays conservative).
        let meta = spec.outlier_meta_bits();
        let payload_cap = (bits - spec.len()).saturating_sub(meta);
        let usable = payload_bits.saturating_sub(meta).min(payload_cap);
        (m + usable).min(bits)
    }
}

/// Set every contribution of a sub-vector from its unknown-bit masks
/// (`mask(j, sortable)` for sub-range dimension `j`); returns how many
/// are unbounded.
#[inline(always)]
fn init_contribs<E: Elem, M: Bound>(
    raw: &[u32],
    query: &[f32],
    contribs: &mut [f64],
    mask: impl Fn(usize, u32) -> u32,
) -> usize {
    let mut unbounded = 0;
    for (j, ((&r, &q), slot)) in raw.iter().zip(query).zip(contribs.iter_mut()).enumerate() {
        let s = E::sortable(r);
        let c = element::<E, M>(s, mask(j, s), q);
        *slot = c;
        if c == f64::NEG_INFINITY {
            unbounded += 1;
        }
    }
    unbounded
}

/// Refine sub-range dimensions `covered` to their new unknown-bit masks
/// and return the change of the finite sum, accumulated in four
/// independent chains (dimension `j` feeds chain `j & 3`).
#[inline(always)]
fn refine<E: Elem, M: Bound>(
    raw: &[u32],
    query: &[f32],
    contribs: &mut [f64],
    covered: Range<usize>,
    unbounded: &mut usize,
    mask: impl Fn(usize, u32) -> u32,
) -> f64 {
    let mut delta = [0.0f64; 4];
    let dims = raw[covered.clone()]
        .iter()
        .zip(&query[covered.clone()])
        .zip(&mut contribs[covered.clone()]);
    for (j, ((&r, &q), slot)) in covered.zip(dims) {
        let s = E::sortable(r);
        let c = element::<E, M>(s, mask(j, s), q);
        let old = std::mem::replace(slot, c);
        if old == f64::NEG_INFINITY {
            if c != f64::NEG_INFINITY {
                *unbounded -= 1;
                delta[j & 3] += c;
            }
        } else {
            delta[j & 3] += c - old;
        }
    }
    (delta[0] + delta[1]) + (delta[2] + delta[3])
}

/// A [`DistanceOracle`](ansmet_index::DistanceOracle) backed by the
/// engine, proving end-to-end that early termination changes no search
/// result.
#[derive(Debug)]
pub struct EtOracle<'a> {
    engine: &'a EtEngine<'a>,
    scratch: EtScratch,
    comparisons: u64,
    /// Transformed-layout lines fetched so far.
    pub lines: u64,
    /// Backup lines fetched so far.
    pub backup_lines: u64,
    /// Comparisons pruned by early termination.
    pub pruned: u64,
}

impl<'a> EtOracle<'a> {
    /// Wrap an engine as a search oracle.
    pub fn new(engine: &'a EtEngine<'a>) -> Self {
        EtOracle {
            engine,
            scratch: EtScratch::new(),
            comparisons: 0,
            lines: 0,
            backup_lines: 0,
            pruned: 0,
        }
    }

    /// Lines a non-terminating design would have fetched for the same
    /// comparisons.
    pub fn baseline_lines(&self) -> u64 {
        self.comparisons * self.engine.full_lines() as u64
    }
}

impl ansmet_index::DistanceOracle for EtOracle<'_> {
    fn evaluate(
        &mut self,
        id: usize,
        query: &[f32],
        threshold: f32,
    ) -> ansmet_index::DistanceOutcome {
        self.comparisons += 1;
        let cost = self
            .engine
            .evaluate_with(id, query, threshold, &mut self.scratch);
        self.lines += cost.lines as u64;
        self.backup_lines += cost.backup_lines as u64;
        if cost.pruned {
            self.pruned += 1;
            ansmet_index::DistanceOutcome::Pruned
        } else {
            match cost.effective_distance() {
                Some(d) => ansmet_index::DistanceOutcome::Exact(d),
                None => ansmet_index::DistanceOutcome::Pruned,
            }
        }
    }

    fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_vecdata::{ElemType, Metric, SynthSpec};

    fn engine_for(data: &Dataset, n: u32) -> EtEngine<'_> {
        EtEngine::new(data, EtConfig::new(FetchSchedule::uniform(data.dtype(), n)))
    }

    #[test]
    fn infinite_threshold_fetches_everything() {
        let (data, queries) = SynthSpec::sift().scaled(50, 1).generate();
        let e = engine_for(&data, 4);
        let c = e.evaluate(0, &queries[0], f32::INFINITY);
        assert!(!c.pruned);
        assert_eq!(c.lines, e.full_lines());
        assert_eq!(c.distance, Some(data.distance_to(0, &queries[0])));
    }

    #[test]
    fn tight_threshold_prunes_early() {
        let (data, queries) = SynthSpec::sift().scaled(50, 1).generate();
        let e = engine_for(&data, 4);
        // Threshold of ~0 prunes everything quickly (unless distance is 0).
        let d = data.distance_to(7, &queries[0]);
        if d > 1.0 {
            let c = e.evaluate(7, &queries[0], 1.0);
            assert!(c.pruned);
            assert!(c.lines < e.full_lines());
            assert!(c.distance.is_none());
        }
    }

    #[test]
    fn pruning_is_sound() {
        // Whenever the engine prunes, the true distance is ≥ threshold.
        let (data, queries) = SynthSpec::deep().scaled(200, 4).generate();
        let e = engine_for(&data, 8);
        for q in &queries {
            for id in 0..data.len() {
                let d = data.distance_to(id, q);
                let thr = d * 0.8;
                let c = e.evaluate(id, q, thr);
                if c.pruned {
                    assert!(d >= thr, "pruned although {d} < {thr}");
                }
            }
        }
    }

    #[test]
    fn in_bound_results_are_exact() {
        let (data, queries) = SynthSpec::spacev().scaled(100, 2).generate();
        let e = engine_for(&data, 4);
        for q in &queries {
            for id in 0..20 {
                let d = data.distance_to(id, q);
                let c = e.evaluate(id, q, d * 2.0 + 1.0);
                if !c.pruned {
                    assert_eq!(c.distance, Some(d));
                }
            }
        }
    }

    #[test]
    fn fewer_lines_with_tighter_threshold() {
        let (data, queries) = SynthSpec::gist().scaled(60, 2).generate();
        let e = engine_for(&data, 8);
        let q = &queries[0];
        let d = data.distance_to(30, q);
        let loose = e.evaluate(30, q, d * 4.0);
        let tight = e.evaluate(30, q, d * 0.5);
        assert!(tight.lines <= loose.lines);
    }

    #[test]
    fn prefix_elimination_reduces_lines() {
        let (data, _queries) = SynthSpec::gist().scaled(150, 2).generate();
        let ids: Vec<usize> = (0..100).collect();
        let spec = PrefixSpec::choose(&data, &ids, 0.001);
        if spec.is_empty() {
            return; // dataset had no common prefix this seed
        }
        let plain = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 8)),
        );
        let sched = FetchSchedule::uniform_after_prefix(data.dtype(), spec.len(), 8);
        let opt = EtEngine::new(&data, EtConfig::with_prefix(sched, spec));
        assert!(opt.full_lines() <= plain.full_lines());
    }

    #[test]
    fn outlier_vector_triggers_backup_when_in_bound() {
        // Craft: dim prefix comes from constant data; one vector is an
        // outlier; querying near it keeps it in-bound → backup fetch.
        let mut values = vec![70.0f32; 64 * 4];
        values[4 * 4] = 200.0; // vector 4, dim 0 outlier
        let data = Dataset::from_values("o", ElemType::U8, Metric::L2, 4, values);
        let ids: Vec<usize> = (0..64).collect();
        let spec = PrefixSpec::choose(&data, &ids, 0.01);
        assert!(!spec.is_empty());
        assert!(spec.vector_has_outlier(&data, 4));
        let sched = FetchSchedule::uniform_after_prefix(data.dtype(), spec.len(), 4);
        let e = EtEngine::new(&data, EtConfig::with_prefix(sched, spec));
        let q = vec![200.0, 70.0, 70.0, 70.0];
        let c = e.evaluate(4, &q, f32::INFINITY);
        assert!(!c.pruned);
        assert_eq!(c.backup_lines, e.natural_lines());
        assert_eq!(c.distance, Some(data.distance_to(4, &q)));
        // A normal vector needs no backup.
        let c0 = e.evaluate(0, &q, f32::INFINITY);
        assert_eq!(c0.backup_lines, 0);
    }

    #[test]
    fn no_backup_mode_returns_bound() {
        let mut values = vec![70.0f32; 64 * 4];
        values[4 * 4] = 200.0;
        let data = Dataset::from_values("o", ElemType::U8, Metric::L2, 4, values);
        let ids: Vec<usize> = (0..64).collect();
        let spec = PrefixSpec::choose(&data, &ids, 0.01);
        let sched = FetchSchedule::uniform_after_prefix(data.dtype(), spec.len(), 4);
        let e = EtEngine::new(&data, EtConfig::with_prefix(sched, spec).without_backup());
        let q = vec![200.0, 70.0, 70.0, 70.0];
        let c = e.evaluate(4, &q, f32::INFINITY);
        assert!(!c.pruned);
        assert_eq!(c.backup_lines, 0);
        let true_d = data.distance_to(4, &q);
        let approx = c.approx_distance.expect("bound reported");
        assert!(approx <= true_d);
    }

    #[test]
    fn subvector_evaluation_conservative() {
        let (data, queries) = SynthSpec::gist().scaled(40, 1).generate();
        let e = engine_for(&data, 8);
        let q = &queries[0];
        let full_d = data.distance_to(5, q) as f64;
        // Split 960 dims into 4 sub-vectors; partial contributions sum to
        // the full distance.
        let mut sum = 0.0f64;
        for part in 0..4 {
            let r = part * 240..(part + 1) * 240;
            let c = e.evaluate_range(5, q, r, f32::INFINITY).expect("in range");
            sum += c.approx_distance.expect("partial sum") as f64;
        }
        assert!((sum - full_d).abs() / full_d.max(1.0) < 1e-3);
    }

    #[test]
    fn et_oracle_preserves_search_results() {
        use ansmet_index::{DistanceOracle, ExactOracle, Hnsw, HnswParams};
        let (data, queries) = SynthSpec::deep().scaled(400, 4).generate();
        let hnsw = Hnsw::build(&data, HnswParams::quick());
        let e = engine_for(&data, 8);
        for q in &queries {
            let mut exact = ExactOracle::new(&data);
            let mut et = EtOracle::new(&e);
            let r1 = hnsw.search(q, 10, 60, &mut exact);
            let r2 = hnsw.search(q, 10, 60, &mut et);
            assert_eq!(r1.ids(), r2.ids(), "ET changed the search result");
            assert_eq!(exact.comparisons(), et.comparisons());
            // And ET must actually save fetches.
            assert!(et.lines < et.baseline_lines());
            assert!(et.pruned > 0);
        }
    }

    #[test]
    fn bit_serial_wastes_lines_on_narrow_vectors() {
        let (data, queries) = SynthSpec::sift().scaled(60, 1).generate();
        let bitset = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::bit_serial(data.dtype())),
        );
        // Full fetch: 8 lines vs 2 natural lines (paper §7.1 NDP-BitET).
        assert_eq!(bitset.full_lines(), 8);
        assert_eq!(bitset.natural_lines(), 2);
        let c = bitset.evaluate(0, &queries[0], f32::INFINITY);
        assert_eq!(c.lines, 8);
    }

    #[test]
    fn dim_et_cannot_prune_fp32_ip() {
        // Paper: partial-dimension-only ET yields no stable bound for IP.
        let (data, queries) = SynthSpec::glove().scaled(80, 2).generate();
        let e = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::full_width(data.dtype())),
        );
        for q in &queries {
            for id in 0..20 {
                let d = data.distance_to(id, q);
                let c = e.evaluate(id, q, d - 0.1 * d.abs().max(1.0));
                // May only terminate at the very last line (full info).
                assert!(
                    c.lines >= e.full_lines()
                        || c.lines == 0
                        || !c.pruned
                        || c.lines == e.full_lines()
                );
                if c.pruned && c.lines > 0 {
                    assert_eq!(c.lines, e.full_lines());
                }
            }
        }
    }

    #[test]
    fn observer_reports_termination_and_backup() {
        #[derive(Default)]
        struct Probe {
            terminated: Vec<(usize, usize)>,
            backups: Vec<usize>,
        }
        impl EtObserver for Probe {
            fn terminated(&mut self, lines: usize, planned: usize) {
                self.terminated.push((lines, planned));
            }
            fn backup_recheck(&mut self, lines: usize) {
                self.backups.push(lines);
            }
        }

        // Early termination on a tight threshold reports (lines, planned).
        let (data, queries) = SynthSpec::sift().scaled(50, 1).generate();
        let e = engine_for(&data, 4);
        let d = data.distance_to(7, &queries[0]);
        if d > 1.0 {
            let mut probe = Probe::default();
            let c = e.evaluate_obs(7, &queries[0], 1.0, &mut EtScratch::new(), &mut probe);
            assert!(c.pruned);
            assert_eq!(probe.terminated, vec![(c.lines, e.full_lines())]);
            assert!(probe.backups.is_empty());
        }
        // An observed run returns the same cost as the plain run.
        let plain = e.evaluate(7, &queries[0], f32::INFINITY);
        let mut probe = Probe::default();
        let obs = e.evaluate_obs(
            7,
            &queries[0],
            f32::INFINITY,
            &mut EtScratch::new(),
            &mut probe,
        );
        assert_eq!(plain, obs);
        assert!(probe.terminated.is_empty(), "full fetch never terminates");

        // An in-bound outlier reports the backup re-check.
        let mut values = vec![70.0f32; 64 * 4];
        values[4 * 4] = 200.0;
        let data = Dataset::from_values("o", ElemType::U8, Metric::L2, 4, values);
        let ids: Vec<usize> = (0..64).collect();
        let spec = PrefixSpec::choose(&data, &ids, 0.01);
        let sched = FetchSchedule::uniform_after_prefix(data.dtype(), spec.len(), 4);
        let e = EtEngine::new(&data, EtConfig::with_prefix(sched, spec));
        let q = vec![200.0, 70.0, 70.0, 70.0];
        let mut probe = Probe::default();
        let c = e.evaluate_obs(4, &q, f32::INFINITY, &mut EtScratch::new(), &mut probe);
        assert_eq!(c.backup_lines, e.natural_lines());
        assert_eq!(probe.backups, vec![e.natural_lines()]);
    }

    #[test]
    fn zero_line_prune_with_prefix_knowledge() {
        // With prefix elimination the on-chip prefix alone can prove a
        // vector out of bounds before fetching anything.
        let values: Vec<f32> = vec![200.0; 40];
        let data = Dataset::from_values("z", ElemType::U8, Metric::L2, 4, values);
        let ids: Vec<usize> = (0..10).collect();
        let spec = PrefixSpec::choose(&data, &ids, 0.0);
        assert!(!spec.is_empty());
        let sched = FetchSchedule::uniform_after_prefix(data.dtype(), spec.len(), 4);
        let e = EtEngine::new(&data, EtConfig::with_prefix(sched, spec));
        // Query at 0: prefix already proves distance ≥ threshold.
        let c = e.evaluate(0, &[0.0; 4], 100.0);
        assert!(c.pruned);
        assert_eq!(c.lines, 0);
    }
}
