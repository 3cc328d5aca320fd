//! The per-element reference path the engine's kernel must reproduce.
//!
//! [`ReferenceEngine`] evaluates a comparison the direct way: a sortable
//! copy of the dataset, the known prefix per element from
//! `known_prefix_for`, [`ValueInterval::from_prefix`] and
//! [`DistanceBounder::contribution`]. The differential properties below
//! require [`EtEngine`] to return the same [`EvalCost`] field for field
//! (floats compared by their bits) and to make the same observer calls,
//! over every element type, metric, prefix mode, range shape and a set of
//! boundary thresholds. A third property requires
//! [`EtEngine::evaluate_pair_with`] to return exactly what two
//! [`EtEngine::evaluate_with`] calls return. Both properties also run
//! every evaluation through a prepared query ([`EtEngine::prepare`]),
//! which must return the same, and the fixed cases below pin what a walk
//! computes on its last line and the typed error of a wrong-length query.

use std::ops::Range;

use ansmet_vecdata::Dataset;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{sum4, EtConfig, EtEngine, EtScratch, EvalCost, Tally, VectorClass};
use crate::bound::DistanceBounder;
use crate::encode::{from_sortable, to_sortable};
use crate::error::EtError;
use crate::interval::ValueInterval;
use crate::observe::EtObserver;
use crate::prefix::PrefixSpec;
use crate::schedule::{FetchSchedule, LinePlan};
use ansmet_vecdata::{ElemType, Metric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Plain,
    Normal,
    Outlier,
}

/// The per-element evaluation path, over a sortable copy of the data.
struct ReferenceEngine<'a> {
    data: &'a Dataset,
    cfg: EtConfig,
    bounder: DistanceBounder,
    sortable: Vec<u32>,
    plan: Vec<LinePlan>,
    cumulative: Vec<u32>,
    class: Vec<Class>,
    matched: Vec<u32>,
}

impl<'a> ReferenceEngine<'a> {
    fn new(data: &'a Dataset, cfg: EtConfig) -> Self {
        let dtype = data.dtype();
        let (dim, n) = (data.dim(), data.len());
        let sortable: Vec<u32> = (0..n)
            .flat_map(|i| data.raw_vector(i).iter().map(|&r| to_sortable(dtype, r)))
            .collect();
        let (class, matched) = match &cfg.prefix {
            Some(spec) if !spec.is_disabled() => {
                let matched: Vec<u32> = (0..n * dim)
                    .map(|e| spec.matched_len(e % dim, sortable[e]))
                    .collect();
                let class = matched
                    .chunks(dim)
                    .map(|m| {
                        if m.iter().any(|&m| m < spec.len()) {
                            Class::Outlier
                        } else {
                            Class::Normal
                        }
                    })
                    .collect();
                (class, matched)
            }
            _ => (vec![Class::Plain; n], Vec::new()),
        };
        ReferenceEngine {
            data,
            plan: cfg.schedule.line_plan(dim),
            cumulative: cfg.schedule.cumulative_bits(),
            bounder: DistanceBounder::new(data.metric()),
            cfg,
            sortable,
            class,
            matched,
        }
    }

    fn known_prefix_for(&self, class: Class, id: usize, d: usize, payload_bits: u32) -> u32 {
        let bits = self.data.dtype().bits();
        match class {
            Class::Plain => payload_bits.min(bits),
            Class::Normal => {
                let prefix = self.cfg.prefix.as_ref().expect("normal implies prefix");
                (prefix.len() + payload_bits).min(bits)
            }
            Class::Outlier => {
                let prefix = self.cfg.prefix.as_ref().expect("outlier implies prefix");
                let m = self.matched[id * self.data.dim() + d];
                let meta = prefix.outlier_meta_bits();
                if m == prefix.len() {
                    (prefix.len() + payload_bits.saturating_sub(1)).min(bits)
                } else {
                    let payload_cap = (bits - prefix.len()).saturating_sub(meta);
                    let usable = payload_bits.saturating_sub(meta).min(payload_cap);
                    (m + usable).min(bits)
                }
            }
        }
    }

    fn contribution(&self, id: usize, d: usize, known: u32, q: f32) -> f64 {
        let dtype = self.data.dtype();
        let s = self.sortable[id * self.data.dim() + d];
        let prefix = if known == 0 {
            0
        } else {
            s >> (dtype.bits() - known)
        };
        self.bounder
            .contribution(ValueInterval::from_prefix(dtype, prefix, known), q)
    }

    fn evaluate<O: EtObserver>(
        &self,
        id: usize,
        query: &[f32],
        dims: Range<usize>,
        threshold: f32,
        obs: &mut O,
    ) -> EvalCost {
        let sub = dims.len();
        let full = sub == self.data.dim();
        let class = self.class[id];
        let plan = if full {
            self.plan.clone()
        } else {
            self.cfg.schedule.line_plan(sub)
        };
        let mut contribs = vec![0.0; sub];
        let mut unbounded = 0usize;
        for (j, d) in dims.clone().enumerate() {
            let known = self.known_prefix_for(class, id, d, 0);
            contribs[j] = self.contribution(id, d, known, query[d]);
            if contribs[j] == f64::NEG_INFINITY {
                unbounded += 1;
            }
        }
        let mut finite_sum = if unbounded == 0 {
            sum4(&contribs)
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
        let pruned_at = |lines: usize, bound: f64| EvalCost {
            lines,
            backup_lines: 0,
            pruned: true,
            distance: None,
            approx_distance: None,
            final_bound: bound,
        };
        let mut bound = bound_of(unbounded, finite_sum);
        if bound >= threshold as f64 {
            obs.terminated(0, plan.len());
            return pruned_at(0, bound);
        }
        let mut lines = 0usize;
        for lp in &plan {
            lines += 1;
            let payload_after = self.cumulative[lp.step];
            let mut delta = [0.0f64; 4];
            for j in lp.dim_start..lp.dim_end {
                let d = dims.start + j;
                let known = self.known_prefix_for(class, id, d, payload_after);
                let c = self.contribution(id, d, known, query[d]);
                let old = contribs[j];
                contribs[j] = c;
                if old == f64::NEG_INFINITY {
                    if c != f64::NEG_INFINITY {
                        unbounded -= 1;
                        delta[j & 3] += c;
                    }
                } else {
                    delta[j & 3] += c - old;
                }
            }
            finite_sum += (delta[0] + delta[1]) + (delta[2] + delta[3]);
            bound = bound_of(unbounded, finite_sum);
            if bound >= threshold as f64 && lines < plan.len() {
                obs.terminated(lines, plan.len());
                return pruned_at(lines, bound);
            }
        }
        if full && class != Class::Outlier {
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
            if bound >= threshold as f64 {
                obs.terminated(lines, plan.len());
                return pruned_at(lines, bound);
            }
            let natural = self.data.vector_lines();
            if self.cfg.backup_recheck {
                obs.backup_recheck(natural);
                return EvalCost {
                    lines,
                    backup_lines: natural,
                    pruned: false,
                    distance: Some(self.data.distance_to(id, query)),
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
        let partial: f64 = dims
            .map(|d| {
                self.bounder
                    .contribution(ValueInterval::exact(self.data.vector(id)[d]), query[d])
            })
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

/// The per-call-`Vec` implementation of
/// [`first_termination_position`](crate::analysis::first_termination_position).
fn reference_first_termination(
    data: &Dataset,
    id: usize,
    query: &[f32],
    threshold: f32,
) -> Option<u32> {
    let dtype = data.dtype();
    let bits = dtype.bits();
    let bounder = DistanceBounder::new(data.metric());
    let sortable: Vec<u32> = data
        .raw_vector(id)
        .iter()
        .map(|&r| to_sortable(dtype, r))
        .collect();
    let bound_at = |p: u32| -> f64 {
        sortable
            .iter()
            .zip(query)
            .map(|(&s, &q)| {
                let prefix = if p == 0 { 0 } else { s >> (bits - p) };
                bounder.contribution(ValueInterval::from_prefix(dtype, prefix, p), q)
            })
            .sum()
    };
    if bound_at(bits) < threshold as f64 {
        return None;
    }
    let (mut lo, mut hi) = (0u32, bits);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if bound_at(mid) >= threshold as f64 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

/// Observer calls in order.
#[derive(Debug, Default, PartialEq)]
struct Calls(Vec<(usize, usize)>);

impl EtObserver for Calls {
    fn terminated(&mut self, lines: usize, planned: usize) {
        self.0.push((lines, planned));
    }
    fn backup_recheck(&mut self, lines: usize) {
        self.0.push((lines, usize::MAX));
    }
}

/// An [`EvalCost`] with its floats as bit patterns.
fn cost_bits(c: &EvalCost) -> (usize, usize, bool, Option<u32>, Option<u32>, u64) {
    (
        c.lines,
        c.backup_lines,
        c.pruned,
        c.distance.map(f32::to_bits),
        c.approx_distance.map(f32::to_bits),
        c.final_bound.to_bits(),
    )
}

const DTYPES: [ElemType; 5] = [
    ElemType::U8,
    ElemType::I8,
    ElemType::F32,
    ElemType::F16,
    ElemType::Bf16,
];
const METRICS: [Metric; 2] = [Metric::L2, Metric::Ip];

/// A dataset whose elements share a per-dimension sortable prefix of
/// `shared` bits, except in outlier vectors, where a few elements take
/// arbitrary finite patterns. Returns the data and the shared prefixes.
fn clustered(
    rng: &mut SmallRng,
    dtype: ElemType,
    metric: Metric,
    n: usize,
    dim: usize,
    shared: u32,
) -> (Dataset, Vec<u32>) {
    let bits = dtype.bits();
    let finite = |s: u32| dtype.decode(from_sortable(dtype, s)).is_finite();
    let centers: Vec<u32> = (0..dim)
        .map(|_| {
            let v = match dtype {
                ElemType::U8 => rng.gen_range(0.0f32..256.0),
                ElemType::I8 => rng.gen_range(-128.0f32..128.0),
                _ => rng.gen_range(-4.0f32..4.0),
            };
            to_sortable(dtype, dtype.encode(v))
        })
        .collect();
    let low = crate::kernel::missing_mask(bits, shared);
    let mut raw = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let outlier_vector = rng.gen_bool(0.5);
        for &c in &centers {
            let mut s = (c & !low) | (rng.gen_range(0u32..=u32::MAX) & low);
            if outlier_vector && rng.gen_bool(0.3) {
                s = rng.gen_range(0u32..=u32::MAX) >> (32 - bits);
            }
            if !finite(s) {
                s = c;
            }
            raw.push(from_sortable(dtype, s));
        }
    }
    let prefixes = centers.iter().map(|&c| c >> (bits - shared)).collect();
    (Dataset::from_raw("diff", dtype, metric, dim, raw), prefixes)
}

/// Query coordinates near the data, exactly on stored values, or zero.
fn query_for(rng: &mut SmallRng, data: &Dataset) -> Vec<f32> {
    let base = rng.gen_range(0..data.len());
    data.vector(base)
        .iter()
        .map(|&v| match rng.gen_range(0u32..4) {
            0 => v,
            1 => 0.0,
            2 => v + rng.gen_range(-2.0f32..2.0),
            _ => rng.gen_range(-300.0f32..300.0),
        })
        .collect()
}

/// The fetch schedule of one case after a `prefix`-bit elimination.
fn schedule_for(dtype: ElemType, prefix: u32, shape: u32, width: u32) -> FetchSchedule {
    let left = dtype.bits() - prefix;
    let n = 1 + width % left;
    match shape {
        0 => FetchSchedule::uniform_after_prefix(dtype, prefix, n),
        1 => FetchSchedule::dual(dtype, prefix, n, 1 + width % 3, 1 + (width / 7) % left),
        _ if prefix == 0 => FetchSchedule::full_width(dtype),
        _ => FetchSchedule::uniform_after_prefix(dtype, prefix, 1),
    }
}

/// Every threshold a case checks for a comparison whose exact distance
/// (or sub-range partial) is `d`.
fn thresholds(d: f32) -> [f32; 5] {
    [0.0, d, d.next_up(), d * 0.5, f32::INFINITY]
}

/// The prefix modes of one case: none, outlier-aware prefix, and prefix
/// without backup.
fn configs(
    dtype: ElemType,
    shared: u32,
    prefixes: Vec<u32>,
    shape: u32,
    width: u32,
) -> [EtConfig; 3] {
    let spec = PrefixSpec::from_parts(dtype, shared, prefixes);
    let prefixed = EtConfig::with_prefix(schedule_for(dtype, shared, shape, width), spec);
    [
        EtConfig::new(schedule_for(dtype, 0, shape, width)),
        prefixed.clone(),
        prefixed.without_backup(),
    ]
}

/// One differential case: every element type, metric, prefix mode
/// (none, outlier-aware prefix, prefix without backup), range shape (full,
/// sub-range) and threshold, for every vector of a generated dataset.
fn check_kernel(
    seed: u64,
    n: usize,
    dim: usize,
    shape: u32,
    width: u32,
    shared_pick: u32,
) -> Result<(), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for dtype in DTYPES {
        for metric in METRICS {
            let shared = 1 + shared_pick % (dtype.bits() - 1);
            let (data, prefixes) = clustered(&mut rng, dtype, metric, n, dim, shared);
            let query = query_for(&mut rng, &data);
            let lo = rng.gen_range(0..dim);
            let hi = rng.gen_range(lo + 1..=dim);
            for cfg in configs(dtype, shared, prefixes, shape, width) {
                let engine = EtEngine::new(&data, cfg.clone());
                let reference = ReferenceEngine::new(&data, cfg);
                let mut scratch = EtScratch::new();
                let mut prepared = engine.prepare(&query).expect("query matches the data");
                for (id, dims) in (0..data.len()).flat_map(|id| [(id, 0..dim), (id, lo..hi)]) {
                    let partial: f64 = data.vector(id)[dims.clone()]
                        .iter()
                        .zip(&query[dims.clone()])
                        .map(|(&v, &q)| reference.bounder.contribution(ValueInterval::exact(v), q))
                        .sum();
                    let distance = data.distance_to(id, &query);
                    for threshold in thresholds(distance)
                        .into_iter()
                        .chain(thresholds(partial as f32))
                    {
                        let mut got_calls = Calls::default();
                        let got = engine
                            .evaluate_range_obs(
                                id,
                                &query,
                                dims.clone(),
                                threshold,
                                &mut scratch,
                                &mut got_calls,
                            )
                            .expect("dims in range");
                        let mut want_calls = Calls::default();
                        let want = reference.evaluate(
                            id,
                            &query,
                            dims.clone(),
                            threshold,
                            &mut want_calls,
                        );
                        prop_assert_eq!(
                            cost_bits(&got),
                            cost_bits(&want),
                            "{:?}/{:?} id {} dims {:?} threshold {} prefix {:?}",
                            dtype,
                            metric,
                            id,
                            dims,
                            threshold,
                            engine.config().prefix
                        );
                        prop_assert_eq!(&got_calls, &want_calls);
                        let mut prepared_calls = Calls::default();
                        let via_prepared = prepared
                            .evaluate_range_obs(id, dims.clone(), threshold, &mut prepared_calls)
                            .expect("dims in range");
                        prop_assert_eq!(
                            cost_bits(&via_prepared),
                            cost_bits(&want),
                            "prepared {:?}/{:?} id {} dims {:?} threshold {} prefix {:?}",
                            dtype,
                            metric,
                            id,
                            dims,
                            threshold,
                            engine.config().prefix
                        );
                        prop_assert_eq!(&prepared_calls, &want_calls);
                    }
                }
            }
        }
    }
    Ok(())
}

/// [`EtEngine::evaluate_pair_with`] against two
/// [`EtEngine::evaluate_with`] calls, for every element type, metric and
/// prefix mode, and every ordered pair of boundary thresholds (ties and
/// reversed pairs included); a prepared query's pair and single
/// evaluations must return the same.
fn check_pair(
    seed: u64,
    n: usize,
    dim: usize,
    shape: u32,
    width: u32,
    shared_pick: u32,
) -> Result<(), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for dtype in DTYPES {
        for metric in METRICS {
            let shared = 1 + shared_pick % (dtype.bits() - 1);
            let (data, prefixes) = clustered(&mut rng, dtype, metric, n, dim, shared);
            let query = query_for(&mut rng, &data);
            for cfg in configs(dtype, shared, prefixes, shape, width) {
                let engine = EtEngine::new(&data, cfg);
                let mut scratch = EtScratch::new();
                let mut prepared = engine.prepare(&query).expect("query matches the data");
                for id in 0..data.len() {
                    let all = thresholds(data.distance_to(id, &query));
                    for pair in all.into_iter().flat_map(|a| all.map(|b| [a, b])) {
                        let want = pair.map(|t| engine.evaluate_with(id, &query, t, &mut scratch));
                        let got = [
                            engine.evaluate_pair_with(id, &query, pair, &mut scratch),
                            prepared.evaluate_pair(id, pair),
                            pair.map(|t| prepared.evaluate(id, t)),
                        ];
                        for (path, got) in ["slice pair", "prepared pair", "prepared"]
                            .into_iter()
                            .zip(got)
                        {
                            prop_assert_eq!(
                                got.map(|c| cost_bits(&c)),
                                want.map(|c| cost_bits(&c)),
                                "{} {:?}/{:?} id {} thresholds {:?} prefix {:?}",
                                path,
                                dtype,
                                metric,
                                id,
                                pair,
                                engine.config().prefix
                            );
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// [`first_termination_position`](crate::analysis::first_termination_position)
/// against its reference for every element type and metric.
fn check_first_termination(
    seed: u64,
    n: usize,
    dim: usize,
    shared_pick: u32,
) -> Result<(), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for dtype in DTYPES {
        for metric in METRICS {
            let shared = 1 + shared_pick % (dtype.bits() - 1);
            let (data, _) = clustered(&mut rng, dtype, metric, n, dim, shared);
            let query = query_for(&mut rng, &data);
            for id in 0..data.len() {
                for threshold in thresholds(data.distance_to(id, &query)) {
                    prop_assert_eq!(
                        crate::analysis::first_termination_position(&data, id, &query, threshold),
                        reference_first_termination(&data, id, &query, threshold),
                        "{:?}/{:?} id {} threshold {}",
                        dtype,
                        metric,
                        id,
                        threshold
                    );
                }
            }
        }
    }
    Ok(())
}

/// A vector of each class that completes on its last line, under L2 and
/// IP: every path returns the reference's cost, and the walk computes a
/// bound per line except the last, which only a full-vector outlier
/// comparison reads. A prepared query computes no-payload bounds once.
#[test]
fn last_line_bound_is_computed_only_where_it_is_read() {
    let mut rng = SmallRng::seed_from_u64(0x1a57);
    for metric in METRICS {
        let (data, prefixes) = clustered(&mut rng, ElemType::F32, metric, 12, 40, 8);
        let query = query_for(&mut rng, &data);
        let [plain, prefixed, _] = configs(ElemType::F32, 8, prefixes, 0, 7);
        for (cfg, class) in [
            (plain, VectorClass::Plain),
            (prefixed.clone(), VectorClass::Normal),
            (prefixed.clone(), VectorClass::Outlier),
            (prefixed.without_backup(), VectorClass::Outlier),
        ] {
            let engine = EtEngine::new(&data, cfg.clone());
            let reference = ReferenceEngine::new(&data, cfg);
            let planned = engine.full_lines() as u64;
            assert!(planned >= 2, "the case needs a line before the last");
            let id = (0..data.len())
                .find(|&id| engine.class(id) == class)
                .expect("the data holds a vector of each class");
            let want = reference.evaluate(
                id,
                &query,
                0..data.dim(),
                f32::INFINITY,
                &mut Calls::default(),
            );
            assert!(!want.pruned && want.lines as u64 == planned);
            // An outlier computes its own start and every line's bound;
            // the others skip the last line's.
            let walked = if class == VectorClass::Outlier {
                1 + planned
            } else {
                planned
            };

            let mut scratch = EtScratch::new();
            let got = engine.evaluate_with(id, &query, f32::INFINITY, &mut scratch);
            assert_eq!(cost_bits(&got), cost_bits(&want), "{metric:?} {class:?}");
            let tally = std::mem::take(&mut scratch.tally);
            assert_eq!(
                tally,
                Tally {
                    evaluations: 1,
                    bounds: walked,
                },
                "{metric:?} {class:?} query-slice walk"
            );

            let mut prepared = engine.prepare(&query).expect("query matches the data");
            let got = prepared.evaluate(id, f32::INFINITY);
            assert_eq!(cost_bits(&got), cost_bits(&want), "{metric:?} {class:?}");
            // The prepared start counts once; only an outlier computes its own.
            let prepared_walk = if class == VectorClass::Outlier {
                walked
            } else {
                walked - 1
            };
            let tally = std::mem::take(&mut prepared.scratch.tally);
            assert_eq!(
                tally,
                Tally {
                    evaluations: 1,
                    bounds: 1 + prepared_walk,
                },
                "{metric:?} {class:?} prepared walk"
            );
        }
    }
}

/// A query whose length differs from the dataset's is rejected with the
/// typed error the query-slice calls return.
#[test]
fn prepare_rejects_a_wrong_length_query() {
    let mut rng = SmallRng::seed_from_u64(7);
    let (data, _) = clustered(&mut rng, ElemType::U8, Metric::L2, 3, 9, 2);
    let engine = EtEngine::new(
        &data,
        EtConfig::new(FetchSchedule::full_width(ElemType::U8)),
    );
    for len in [0, 8, 10] {
        let query = vec![1.0; len];
        let want = EtError::QueryDimMismatch {
            expected: 9,
            got: len,
        };
        assert_eq!(engine.prepare(&query).unwrap_err(), want);
        assert_eq!(engine.evaluate_range(0, &query, 0..9, 1.0), Err(want));
        assert_eq!(
            crate::EtOracle::new(&engine, &query).unwrap_err(),
            want,
            "the oracle prepares its query"
        );
    }
}

proptest! {
    fn kernel_matches_the_per_element_reference(
        seed in 0u64..u64::MAX,
        n in 2usize..7,
        dim in 1usize..70,
        shape in 0u32..3,
        width in 0u32..64,
        shared_pick in 0u32..64,
    ) {
        check_kernel(seed, n, dim, shape, width, shared_pick)?;
    }

    fn pair_matches_two_single_evaluations(
        seed in 0u64..u64::MAX,
        n in 2usize..7,
        dim in 1usize..70,
        shape in 0u32..3,
        width in 0u32..64,
        shared_pick in 0u32..64,
    ) {
        check_pair(seed, n, dim, shape, width, shared_pick)?;
    }

    fn first_termination_matches_its_reference(
        seed in 0u64..u64::MAX,
        n in 2usize..8,
        dim in 1usize..70,
        shared_pick in 0u32..64,
    ) {
        check_first_termination(seed, n, dim, shared_pick)?;
    }
}
