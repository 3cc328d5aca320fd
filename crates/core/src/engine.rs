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
//!
//! A caller that walks many comparisons of one query prepares the query
//! once ([`EtEngine::prepare`]) and evaluates through the [`EtQuery`]: the
//! bound with no payload fetched is then computed once per query instead
//! of once per comparison, for every vector that shares it.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use ansmet_vecdata::Dataset;

use crate::encode::to_sortable;
use crate::error::EtError;
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

    /// A comparison pruned after `lines` lines at lower bound `bound`.
    fn pruned(lines: usize, bound: f64) -> Self {
        EvalCost {
            lines,
            backup_lines: 0,
            pruned: true,
            distance: None,
            approx_distance: None,
            final_bound: bound,
        }
    }
}

static ET_EVALUATIONS: AtomicU64 = AtomicU64::new(0);
static ET_BOUNDS: AtomicU64 = AtomicU64::new(0);

/// Comparisons the engine walked since process start: one per evaluation,
/// and one per two-threshold evaluation
/// ([`EtEngine::evaluate_pair_with`]), which walks once. Each
/// [`EtScratch`] (and each [`EtQuery`], which owns one) adds its tally
/// when it is dropped, so the shared total is touched once per scratch,
/// not once per comparison of a caller that reuses one.
pub fn et_evaluations() -> u64 {
    ET_EVALUATIONS.load(Ordering::Relaxed)
}

/// Lower bounds the engine computed since process start: each bound with
/// no payload fetched that a walk computed from its vector's elements or
/// that [`EtEngine::prepare`] computed for a query, and each line a walk
/// refined. A walk that starts from a prepared query's contributions
/// computes no bound for that start. Tallied like [`et_evaluations`].
pub fn et_bounds() -> u64 {
    ET_BOUNDS.load(Ordering::Relaxed)
}

/// Comparisons walked and bounds computed through one scratch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    evaluations: u64,
    bounds: u64,
}

/// Reusable buffers for [`EtEngine`] evaluations.
///
/// One comparison needs per-dimension contribution arrays and (for
/// sub-vector ranges) a line plan of the sub-range. Allocating them per
/// comparison dominates the replay's host time; threading one scratch
/// through a query's thousands of evaluations amortizes the cost to zero.
/// The scratch also tallies the work of the walks it serves
/// ([`et_evaluations`], [`et_bounds`]).
#[derive(Debug, Default)]
pub struct EtScratch {
    /// Per-dimension lower-bound contributions (f64, as in the engine).
    contribs: Vec<f64>,
    /// A line's refined contributions before they replace `contribs`
    /// (the lane-blocked loop).
    fresh: Vec<f64>,
    /// Sub-range line plan buffer.
    subplan: Vec<LinePlan>,
    /// Work not yet added to the process-wide totals.
    tally: Tally,
}

impl EtScratch {
    /// Create an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Drop for EtScratch {
    fn drop(&mut self) {
        let Tally {
            evaluations,
            bounds,
        } = self.tally;
        if evaluations > 0 || bounds > 0 {
            ET_EVALUATIONS.fetch_add(evaluations, Ordering::Relaxed);
            ET_BOUNDS.fetch_add(bounds, Ordering::Relaxed);
        }
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

/// A bound as its two running parts: the sum of the finite contributions
/// and the count of −∞ ones.
#[derive(Debug, Default, Clone, Copy)]
struct Sums {
    finite: f64,
    unbounded: usize,
}

impl Sums {
    /// The parts of a walk's first bound over `contribs`: `sum4` when
    /// every contribution is finite, otherwise the finite ones in
    /// dimension order. A metric that is never unbounded skips the count.
    fn of<M: Bound>(contribs: &[f64]) -> Sums {
        let unbounded = if M::NEVER_UNBOUNDED {
            0
        } else {
            contribs.iter().filter(|&&c| c == f64::NEG_INFINITY).count()
        };
        let finite = if unbounded == 0 {
            sum4(contribs)
        } else {
            contribs
                .iter()
                .filter(|&&c| c != f64::NEG_INFINITY)
                .sum::<f64>()
        };
        Sums { finite, unbounded }
    }

    fn bound(self) -> f64 {
        if self.unbounded > 0 {
            f64::NEG_INFINITY
        } else {
            self.finite
        }
    }
}

/// What every plain or normal-format comparison of one query starts from:
/// each dimension's contribution with no payload fetched, and their sums
/// over the full vector.
#[derive(Debug)]
struct Start {
    contribs: Vec<f64>,
    full: Sums,
}

impl Start {
    /// The start of a walk over `dims` (`full` when that is the whole
    /// vector, whose sums are stored).
    fn over(&self, dims: Range<usize>, full: bool) -> Prepared<'_> {
        Prepared {
            contribs: &self.contribs[dims],
            sums: full.then_some(self.full),
        }
    }
}

/// A walk's prepared start: its sub-range's no-payload contributions and,
/// over the full vector, their sums.
#[derive(Debug, Clone, Copy)]
struct Prepared<'p> {
    contribs: &'p [f64],
    sums: Option<Sums>,
}

impl Prepared<'_> {
    /// Copy the contributions into a walk's `contribs` and return their
    /// sums: stored for the full vector, otherwise summed over the
    /// sub-range exactly as a walk computing them would.
    #[inline(always)]
    fn start<M: Bound>(self, contribs: &mut [f64]) -> Sums {
        contribs.copy_from_slice(self.contribs);
        self.sums.unwrap_or_else(|| Sums::of::<M>(self.contribs))
    }
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

    /// [`EtEngine::evaluate_with`] at two thresholds from one walk of the
    /// comparison's bound sequence: returns exactly what
    /// `evaluate_with(id, query, thresholds[0], _)` and
    /// `evaluate_with(id, query, thresholds[1], _)` return, in order.
    ///
    /// The bounds a comparison passes through do not depend on the
    /// threshold, only where it stops does, so one walk that runs until
    /// both thresholds have pruned (or every line has arrived) prices
    /// both. It costs as much as the longer of the two evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the dataset dimensionality.
    pub fn evaluate_pair_with(
        &self,
        id: usize,
        query: &[f32],
        thresholds: [f32; 2],
        scratch: &mut EtScratch,
    ) -> [EvalCost; 2] {
        let dims = self
            .checked(query, 0..self.data.dim())
            .expect("full-range evaluation is in bounds");
        dispatch!(self.data.dtype(), self.data.metric(), E, M => {
            self.evaluate_pair_kernel::<E, M>(id, query, dims, thresholds, None, scratch)
        })
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
        let dims = self.checked(query, dims)?;
        Ok(dispatch!(self.data.dtype(), self.data.metric(), E, M => {
            self.evaluate_kernel::<E, M, O>(id, query, dims, threshold, None, scratch, obs)
        }))
    }

    /// Prepare `query` for many comparisons (see [`EtQuery`]).
    ///
    /// # Errors
    ///
    /// Rejects a query whose length differs from the dataset
    /// dimensionality, as [`EtEngine::evaluate_range`] does.
    pub fn prepare<'q>(&self, query: &'q [f32]) -> Result<EtQuery<'_, 'q>, EtError> {
        self.checked(query, 0..self.data.dim())?;
        let start = dispatch!(self.data.dtype(), self.data.metric(), E, M => {
            self.start::<E, M>(query)
        });
        let mut scratch = EtScratch::new();
        scratch.tally.bounds += 1;
        Ok(EtQuery {
            engine: self,
            query,
            start,
            scratch,
        })
    }

    /// The no-payload contributions every plain or normal-format vector
    /// shares for `query`. A plain vector knows no bit of an element, a
    /// normal-format vector exactly its dimension's common prefix, so an
    /// element's interval is the same for every such vector: the kernel
    /// reads only the known bits of the sortable pattern, here the
    /// dimension's prefix (or nothing).
    fn start<E: Elem, M: Bound>(&self, query: &[f32]) -> Start {
        let (prefix, shared): (u32, &[u32]) = match &self.cfg.prefix {
            Some(spec) if !self.classes.is_empty() => (spec.len(), spec.dim_prefixes()),
            _ => (0, &[]),
        };
        let ones = uniform_ones::<E>(prefix, 0);
        let contribs: Vec<f64> = query
            .iter()
            .enumerate()
            .map(|(d, &q)| {
                let s = if prefix == 0 {
                    0
                } else {
                    shared[d] << (E::BITS - prefix)
                };
                element::<E, M>(s, ones, q)
            })
            .collect();
        let full = Sums::of::<M>(&contribs);
        Start { contribs, full }
    }

    /// Validate a query and sub-range; a reversed range is empty.
    fn checked(&self, query: &[f32], dims: Range<usize>) -> Result<Range<usize>, EtError> {
        let dim = self.data.dim();
        if query.len() != dim {
            return Err(EtError::QueryDimMismatch {
                expected: dim,
                got: query.len(),
            });
        }
        if dims.end > dim {
            return Err(EtError::RangeOutOfBounds { end: dims.end, dim });
        }
        Ok(dims.start.min(dims.end)..dims.end)
    }

    /// One comparison, monomorphized for the dataset's element type and
    /// metric (see [`crate::kernel`]), starting from `prepared` when the
    /// query was prepared.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_kernel<E: Elem, M: Bound, O: EtObserver>(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        threshold: f32,
        prepared: Option<&Start>,
        scratch: &mut EtScratch,
        obs: &mut O,
    ) -> EvalCost {
        let class = self.class(id);
        let walk = self.walk::<E, M, 1>(
            id,
            query,
            dims.clone(),
            class,
            prepared,
            scratch,
            [threshold],
        );
        if let [Some((lines, bound))] = walk.pruned {
            obs.terminated(lines, walk.planned);
            return EvalCost::pruned(lines, bound);
        }
        self.complete::<M, O, 1>(id, query, dims, class, &walk, threshold, obs)
    }

    /// Two thresholds of one comparison from one walk (see
    /// [`EtEngine::evaluate_pair_with`]).
    fn evaluate_pair_kernel<E: Elem, M: Bound>(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        thresholds: [f32; 2],
        prepared: Option<&Start>,
        scratch: &mut EtScratch,
    ) -> [EvalCost; 2] {
        let class = self.class(id);
        let walk = self.walk::<E, M, 2>(
            id,
            query,
            dims.clone(),
            class,
            prepared,
            scratch,
            thresholds,
        );
        let cost = |i: usize| match walk.pruned[i] {
            Some((lines, bound)) => EvalCost::pruned(lines, bound),
            None => self.complete::<M, _, 2>(
                id,
                query,
                dims.clone(),
                class,
                &walk,
                thresholds[i],
                &mut NoopEtObserver,
            ),
        };
        let first = cost(0);
        // Only an outlier vector's completion depends on the threshold.
        let second = if walk.pruned == [None; 2] && class != VectorClass::Outlier {
            first
        } else {
            cost(1)
        };
        [first, second]
    }

    /// Walk comparison `id`'s bound sequence over `dims` at
    /// `thresholds` (see [`walk_lines`]). Plain and normal-format vectors
    /// start from the query's `prepared` contributions when there are
    /// any, and take the lane-blocked loop when no contribution can be −∞
    /// ([`Bound::NEVER_UNBOUNDED`]); outlier vectors, whose elements know
    /// different bit counts, and the rest take the per-element loop. Only
    /// a full-vector outlier comparison reads the bound after its last
    /// line ([`EtEngine::complete`]).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn walk<E: Elem, M: Bound, const N: usize>(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        class: VectorClass,
        prepared: Option<&Start>,
        scratch: &mut EtScratch,
        thresholds: [f32; N],
    ) -> Walk<N> {
        let sub = dims.len();
        let full = sub == self.data.dim();
        let raw = &self.data.raw_vector(id)[dims.clone()];
        let query = &query[dims.clone()];
        let EtScratch {
            contribs,
            fresh,
            subplan,
            tally,
        } = scratch;

        // Line plan: the transformed layout of the sub-vector only.
        let plan: &[LinePlan] = if full {
            &self.plan
        } else {
            self.cfg.schedule.line_plan_into(sub, subplan);
            subplan
        };
        // A walk's start overwrites every contribution: only the length
        // matters here.
        contribs.resize(sub, 0.0);
        let lines = Lines {
            plan,
            cumulative: &self.cumulative,
            last_bound: false,
        };
        let prefix = match (class, &self.cfg.prefix) {
            (VectorClass::Outlier, Some(spec)) => {
                let offset = dims.start;
                let elements = PerElement::new(raw, query, contribs, |payload| {
                    move |j, s| {
                        missing_mask(
                            E::BITS,
                            outlier_known(spec, offset + j, s, payload, E::BITS),
                        )
                    }
                });
                let lines = Lines {
                    last_bound: full,
                    ..lines
                };
                return walk_lines::<E, M, _, N>(elements, None, lines, thresholds, tally);
            }
            (VectorClass::Normal, Some(spec)) => spec.len(),
            _ => 0,
        };
        let prepared = prepared.map(|start| start.over(dims, full));
        if M::NEVER_UNBOUNDED {
            if fresh.len() < sub {
                fresh.resize(sub, 0.0);
            }
            let lanes = Lanes {
                raw,
                query,
                contribs,
                fresh,
                prefix,
                sum: 0.0,
            };
            walk_lines::<E, M, _, N>(lanes, prepared, lines, thresholds, tally)
        } else {
            let elements = PerElement::new(raw, query, contribs, |payload| {
                let ones = uniform_ones::<E>(prefix, payload);
                move |_, _| ones
            });
            walk_lines::<E, M, _, N>(elements, prepared, lines, thresholds, tally)
        }
    }

    /// The outcome at `threshold` of a comparison whose walk fetched
    /// every line without pruning.
    #[allow(clippy::too_many_arguments)]
    fn complete<M: Bound, O: EtObserver, const N: usize>(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        class: VectorClass,
        walk: &Walk<N>,
        threshold: f32,
        obs: &mut O,
    ) -> EvalCost {
        let &Walk {
            lines,
            planned,
            bound,
            ..
        } = walk;
        let full = dims.len() == self.data.dim();
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
                obs.terminated(lines, planned);
                return EvalCost::pruned(lines, bound);
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
        let partial: f64 = self.data.vector(id)[dims.clone()]
            .iter()
            .zip(&query[dims])
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

/// A query prepared for one engine ([`EtEngine::prepare`]), for a caller
/// that walks many comparisons of the query.
///
/// With no payload fetched, a plain vector knows no bit of any element
/// and a normal-format vector knows exactly its dimension's common prefix,
/// so each element's interval, and its contribution to the bound, depends
/// on the query coordinate alone. The prepared query computes those
/// contributions and their bound once. Every plain or normal-format
/// comparison then starts its walk from a copy of them; an outlier vector,
/// whose elements each know a different bit count, still starts from its
/// own elements. Each evaluation returns exactly what the matching
/// query-slice call on the engine returns, and makes the same observer
/// calls: the prepared values are the ones that call computes, from the
/// same inputs, summed in the same order.
///
/// The prepared query also owns the scratch its walks reuse, and it
/// borrows the query it serves: it holds one `f64` per dimension.
#[derive(Debug)]
pub struct EtQuery<'e, 'q> {
    engine: &'e EtEngine<'e>,
    query: &'q [f32],
    start: Start,
    scratch: EtScratch,
}

impl<'e, 'q> EtQuery<'e, 'q> {
    /// The engine the query was prepared for.
    pub fn engine(&self) -> &'e EtEngine<'e> {
        self.engine
    }

    /// Whether `query` is the served query, bit for bit: oracles that
    /// take a query per comparison check it in debug builds.
    pub fn serves(&self, query: &[f32]) -> bool {
        query.len() == self.query.len()
            && query
                .iter()
                .zip(self.query)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// [`EtEngine::evaluate_with`] for the served query.
    pub fn evaluate(&mut self, id: usize, threshold: f32) -> EvalCost {
        self.evaluate_obs(id, threshold, &mut NoopEtObserver)
    }

    /// [`EtEngine::evaluate_obs`] for the served query.
    pub fn evaluate_obs<O: EtObserver>(
        &mut self,
        id: usize,
        threshold: f32,
        obs: &mut O,
    ) -> EvalCost {
        self.evaluate_range_obs(id, 0..self.query.len(), threshold, obs)
            .expect("full-range evaluation is in bounds")
    }

    /// [`EtEngine::evaluate_pair_with`] for the served query.
    pub fn evaluate_pair(&mut self, id: usize, thresholds: [f32; 2]) -> [EvalCost; 2] {
        let EtQuery {
            engine,
            query,
            start,
            scratch,
        } = self;
        dispatch!(engine.data.dtype(), engine.data.metric(), E, M => {
            engine.evaluate_pair_kernel::<E, M>(id, query, 0..query.len(), thresholds, Some(start), scratch)
        })
    }

    /// [`EtEngine::evaluate_range_obs`] for the served query.
    ///
    /// # Errors
    ///
    /// Rejects an out-of-range `dims`.
    pub fn evaluate_range_obs<O: EtObserver>(
        &mut self,
        id: usize,
        dims: Range<usize>,
        threshold: f32,
        obs: &mut O,
    ) -> Result<EvalCost, EtError> {
        let EtQuery {
            engine,
            query,
            start,
            scratch,
        } = self;
        let dims = engine.checked(query, dims)?;
        Ok(
            dispatch!(engine.data.dtype(), engine.data.metric(), E, M => {
                engine.evaluate_kernel::<E, M, O>(id, query, dims, threshold, Some(start), scratch, obs)
            }),
        )
    }
}

/// Where a walk over a comparison's bound sequence ended.
#[derive(Debug, Clone, Copy)]
struct Walk<const N: usize> {
    /// Lines fetched.
    lines: usize,
    /// Lines in the (sub-)vector's plan.
    planned: usize,
    /// The last bound the walk computed: after a complete fetch, the
    /// bound after the last line only where [`Lines::last_bound`] asked
    /// for it.
    bound: f64,
    /// Per threshold, the lines fetched and the bound when it first
    /// pruned.
    pruned: [Option<(usize, f64)>; N],
}

/// Whether the bound after `lines` of `planned` lines prunes at
/// `threshold`. With nothing fetched it always may; afterwards only
/// before the last line, since a complete fetch is settled by
/// [`EtEngine::complete`].
#[inline(always)]
fn prunes(threshold: f32, lines: usize, planned: usize, bound: f64) -> bool {
    bound >= threshold as f64 && (lines == 0 || lines < planned)
}

/// A comparison's per-dimension contributions and their running bound.
trait Contributions {
    /// Set every contribution with no payload fetched, copying the
    /// query's `prepared` ones or computing them; return the bound.
    fn init<E: Elem, M: Bound>(&mut self, prepared: Option<Prepared<'_>>) -> f64;

    /// Refine sub-range dimensions `covered` to `payload` fetched bits;
    /// return the new bound.
    fn refine<E: Elem, M: Bound>(&mut self, covered: Range<usize>, payload: u32) -> f64;
}

/// The lines a walk fetches.
#[derive(Debug, Clone, Copy)]
struct Lines<'p> {
    /// The (sub-)vector's line plan.
    plan: &'p [LinePlan],
    /// Cumulative payload bits per schedule step.
    cumulative: &'p [u32],
    /// Whether anything reads the bound after the last line. No threshold
    /// prunes there ([`prunes`]), and a complete fetch is settled by the
    /// exact distance or the sub-range's partial sum, except for a
    /// full-vector outlier comparison, whose dropped bits leave only that
    /// bound ([`EtEngine::complete`]).
    last_bound: bool,
}

/// The one loop every evaluation runs: the bound with nothing fetched,
/// then after each line, until every threshold has pruned or every line
/// has arrived. The last line is fetched either way, but refined only
/// when its bound is read. `tally` counts the walk and each bound it
/// computes.
#[inline(always)]
fn walk_lines<E: Elem, M: Bound, C: Contributions, const N: usize>(
    mut contribs: C,
    prepared: Option<Prepared<'_>>,
    lines: Lines<'_>,
    thresholds: [f32; N],
    tally: &mut Tally,
) -> Walk<N> {
    tally.evaluations += 1;
    tally.bounds += u64::from(prepared.is_none());
    let mut walk = Walk {
        lines: 0,
        planned: lines.plan.len(),
        bound: contribs.init::<E, M>(prepared),
        pruned: [None; N],
    };
    loop {
        for (&threshold, at) in thresholds.iter().zip(&mut walk.pruned) {
            if at.is_none() && prunes(threshold, walk.lines, walk.planned, walk.bound) {
                *at = Some((walk.lines, walk.bound));
            }
        }
        if walk.lines == walk.planned || walk.pruned.iter().all(Option::is_some) {
            return walk;
        }
        let lp = &lines.plan[walk.lines];
        walk.lines += 1;
        if walk.lines < walk.planned || lines.last_bound {
            let payload = lines.cumulative[lp.step];
            walk.bound = contribs.refine::<E, M>(lp.dim_start..lp.dim_end, payload);
            tally.bounds += 1;
        }
    }
}

/// Unknown-bit mask of every element of a plain (`prefix` 0) or
/// normal-format vector after `payload` bits of its stored payload have
/// been fetched.
#[inline(always)]
fn uniform_ones<E: Elem>(prefix: u32, payload: u32) -> u32 {
    missing_mask(E::BITS, (prefix + payload).min(E::BITS))
}

/// Every element's contribution at unknown-bit mask `ones`: a plain map,
/// which the compiler vectorizes.
#[inline(always)]
fn contributions<E: Elem, M: Bound>(raw: &[u32], query: &[f32], ones: u32, out: &mut [f64]) {
    for ((&r, &q), c) in raw.iter().zip(query).zip(out) {
        *c = element::<E, M>(E::sortable(r), ones, q);
    }
}

/// The lane-blocked loop: a plain or normal-format vector whose
/// contributions are never −∞ ([`Bound::NEVER_UNBOUNDED`]). Every
/// element of a line shares one mask and the bound is the plain sum, so
/// the loop keeps no −∞ bookkeeping: a line's contributions are one
/// vectorized map, and their changes add up four dimensions at a time.
struct Lanes<'s> {
    raw: &'s [u32],
    query: &'s [f32],
    contribs: &'s mut [f64],
    /// At least as long as the longest line.
    fresh: &'s mut [f64],
    /// Bits every element knows before any payload (the normal format's
    /// shared prefix; 0 for plain vectors).
    prefix: u32,
    sum: f64,
}

impl Contributions for Lanes<'_> {
    #[inline(always)]
    fn init<E: Elem, M: Bound>(&mut self, prepared: Option<Prepared<'_>>) -> f64 {
        self.sum = match prepared {
            Some(p) => p.start::<M>(self.contribs).finite,
            None => {
                let ones = uniform_ones::<E>(self.prefix, 0);
                contributions::<E, M>(self.raw, self.query, ones, self.contribs);
                sum4(self.contribs)
            }
        };
        self.sum
    }

    /// Lane `l` carries the dimensions `covered.start + l` (mod 4) in
    /// order, which are exactly chain `(covered.start + l) & 3` of the
    /// per-element loop, so every addition happens in the same order.
    #[inline(always)]
    fn refine<E: Elem, M: Bound>(&mut self, covered: Range<usize>, payload: u32) -> f64 {
        let ones = uniform_ones::<E>(self.prefix, payload);
        let first = covered.start;
        let fresh = &mut self.fresh[..covered.len()];
        contributions::<E, M>(
            &self.raw[covered.clone()],
            &self.query[covered.clone()],
            ones,
            fresh,
        );
        let (fresh4, fresh_tail) = fresh.as_chunks::<4>();
        let (old4, old_tail) = self.contribs[covered].as_chunks_mut::<4>();
        let mut lanes = [0.0f64; 4];
        for (new, old) in fresh4.iter().zip(old4) {
            for l in 0..4 {
                lanes[l] += new[l] - old[l];
            }
            *old = *new;
        }
        for (lane, (new, old)) in lanes.iter_mut().zip(fresh_tail.iter().zip(old_tail)) {
            *lane += new - *old;
            *old = *new;
        }
        let mut delta = [0.0f64; 4];
        for (l, lane) in lanes.into_iter().enumerate() {
            delta[(first + l) & 3] = lane;
        }
        self.sum += (delta[0] + delta[1]) + (delta[2] + delta[3]);
        self.sum
    }
}

/// The per-element loop: outlier vectors, whose elements know different
/// bit counts, and contributions that can be −∞, which are counted
/// separately so incremental updates of the finite sum stay well defined.
struct PerElement<'s, K> {
    raw: &'s [u32],
    query: &'s [f32],
    contribs: &'s mut [f64],
    /// After `payload` bits, the unknown-bit mask of sub-range dimension
    /// `j` (sortable pattern `s`) is `mask(payload)(j, s)`; the outer call
    /// runs once per line.
    mask: K,
    sums: Sums,
}

impl<'s, K> PerElement<'s, K> {
    fn new(raw: &'s [u32], query: &'s [f32], contribs: &'s mut [f64], mask: K) -> Self {
        PerElement {
            raw,
            query,
            contribs,
            mask,
            sums: Sums::default(),
        }
    }
}

impl<K: Fn(u32) -> L, L: Fn(usize, u32) -> u32> Contributions for PerElement<'_, K> {
    #[inline(always)]
    fn init<E: Elem, M: Bound>(&mut self, prepared: Option<Prepared<'_>>) -> f64 {
        self.sums = match prepared {
            Some(p) => p.start::<M>(self.contribs),
            None => {
                let mask = (self.mask)(0);
                let dims = self
                    .raw
                    .iter()
                    .zip(self.query)
                    .zip(self.contribs.iter_mut());
                for (j, ((&r, &q), slot)) in dims.enumerate() {
                    let s = E::sortable(r);
                    *slot = element::<E, M>(s, mask(j, s), q);
                }
                Sums::of::<M>(self.contribs)
            }
        };
        self.sums.bound()
    }

    /// Accumulates the changes in four independent chains (dimension `j`
    /// feeds chain `j & 3`).
    #[inline(always)]
    fn refine<E: Elem, M: Bound>(&mut self, covered: Range<usize>, payload: u32) -> f64 {
        let mask = (self.mask)(payload);
        let mut unbounded = self.sums.unbounded;
        let mut delta = [0.0f64; 4];
        let dims = self.raw[covered.clone()]
            .iter()
            .zip(&self.query[covered.clone()])
            .zip(&mut self.contribs[covered.clone()]);
        for (j, ((&r, &q), slot)) in covered.zip(dims) {
            let s = E::sortable(r);
            let c = element::<E, M>(s, mask(j, s), q);
            let old = std::mem::replace(slot, c);
            if old == f64::NEG_INFINITY {
                if c != f64::NEG_INFINITY {
                    unbounded -= 1;
                    delta[j & 3] += c;
                }
            } else {
                delta[j & 3] += c - old;
            }
        }
        self.sums.unbounded = unbounded;
        self.sums.finite += (delta[0] + delta[1]) + (delta[2] + delta[3]);
        self.sums.bound()
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

/// A [`DistanceOracle`](ansmet_index::DistanceOracle) backed by the
/// engine for one query, proving end-to-end that early termination
/// changes no search result.
#[derive(Debug)]
pub struct EtOracle<'a> {
    query: EtQuery<'a, 'a>,
    comparisons: u64,
    /// Transformed-layout lines fetched so far.
    pub lines: u64,
    /// Backup lines fetched so far.
    pub backup_lines: u64,
    /// Comparisons pruned by early termination.
    pub pruned: u64,
}

impl<'a> EtOracle<'a> {
    /// Wrap an engine as the search oracle of `query`, which it prepares
    /// once ([`EtEngine::prepare`]). The oracle compares stored vectors
    /// against that query only.
    ///
    /// # Errors
    ///
    /// Rejects a query whose length differs from the dataset
    /// dimensionality.
    pub fn new(engine: &'a EtEngine<'a>, query: &'a [f32]) -> Result<Self, EtError> {
        Ok(EtOracle {
            query: engine.prepare(query)?,
            comparisons: 0,
            lines: 0,
            backup_lines: 0,
            pruned: 0,
        })
    }

    /// Lines a non-terminating design would have fetched for the same
    /// comparisons.
    pub fn baseline_lines(&self) -> u64 {
        self.comparisons * self.query.engine().full_lines() as u64
    }
}

impl ansmet_index::DistanceOracle for EtOracle<'_> {
    fn evaluate(
        &mut self,
        id: usize,
        query: &[f32],
        threshold: f32,
    ) -> ansmet_index::DistanceOutcome {
        debug_assert!(self.query.serves(query), "the oracle serves one query");
        self.comparisons += 1;
        let cost = self.query.evaluate(id, threshold);
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
            let mut et = EtOracle::new(&e, q).expect("query matches the data");
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
