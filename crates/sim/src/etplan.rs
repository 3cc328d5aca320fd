//! Shared evaluation of one comparison across sub-vector chunks: local
//! early termination against proportional threshold shares, host-side
//! aggregation of partial bounds, and the residual round that preserves
//! exact accuracy (§5.3). Used by the timing replay and by the empirical
//! layout selection so both see identical fetch behavior.

use ansmet_core::{EtObserver, EtQuery};

/// Per-chunk line counts and the sound rejection verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiEval {
    /// Lines fetched per chunk (same order as the input chunks).
    pub lines: Vec<usize>,
    /// Natural-layout backup lines (outlier re-check; charged once).
    pub backup_lines: usize,
    /// Whether the comparison was soundly rejected on bounds alone.
    pub pruned: bool,
    /// Whether a residual round was needed (an extra host round-trip:
    /// the host re-offloads to locally-terminated ranks and re-polls).
    pub resumed: bool,
}

impl MultiEval {
    /// Total lines across chunks plus backups.
    pub fn total_lines(&self) -> usize {
        self.lines.iter().sum::<usize>() + self.backup_lines
    }
}

/// Evaluate vector `id` against the prepared query `et` split into
/// `chunks` of dimensions.
///
/// Each chunk terminates locally against `threshold × |chunk| / dim`; the
/// summed bounds decide rejection soundly. Chunks whose local bound
/// stopped short resume once with the residual threshold slack; a
/// numerical corner case falls back to the full fetch. Per-chunk
/// termination outcomes are reported to `obs` (see [`EtObserver`]); the
/// observer never affects the result.
///
/// # Panics
///
/// Panics if chunks are empty or out of range.
pub fn evaluate_chunked_obs<O: EtObserver>(
    et: &mut EtQuery<'_, '_>,
    id: usize,
    chunks: &[std::ops::Range<usize>],
    threshold: f32,
    obs: &mut O,
) -> MultiEval {
    assert!(!chunks.is_empty(), "need at least one chunk");
    let engine = et.engine();
    let dim = engine.dataset().dim();
    if chunks.len() == 1 && chunks[0] == (0..dim) {
        let c = et.evaluate_obs(id, threshold, obs);
        return MultiEval {
            lines: vec![c.lines],
            backup_lines: c.backup_lines,
            pruned: c.pruned,
            resumed: false,
        };
    }

    struct Local {
        lines: usize,
        stopped: bool,
        bound: f64,
        dims: std::ops::Range<usize>,
    }
    let mut bounds_sum = 0.0f64;
    let mut local: Vec<Local> = Vec::with_capacity(chunks.len());
    for dims in chunks {
        let share = threshold * (dims.len() as f32 / dim as f32);
        let c = et
            .evaluate_range_obs(id, dims.clone(), share, obs)
            .expect("planner chunks are in range");
        bounds_sum += c.final_bound;
        local.push(Local {
            lines: c.lines,
            stopped: c.pruned,
            bound: c.final_bound,
            dims: dims.clone(),
        });
    }
    let mut pruned = false;
    let mut resumed = false;
    if local.iter().any(|l| l.stopped) {
        if bounds_sum < threshold as f64 {
            resumed = true;
            // Residual round: each stopped chunk resumes with the slack
            // the other chunks' returned bounds leave it.
            let old_sum = bounds_sum;
            for l in local.iter_mut().filter(|l| l.stopped) {
                let residual = (threshold as f64 - (old_sum - l.bound)) as f32;
                let c = et
                    .evaluate_range_obs(id, l.dims.clone(), residual, obs)
                    .expect("planner chunks are in range");
                bounds_sum += c.final_bound - l.bound;
                l.bound = c.final_bound;
                l.lines = l.lines.max(c.lines);
                l.stopped = c.pruned;
            }
        }
        if local.iter().any(|l| l.stopped) {
            if bounds_sum >= threshold as f64 {
                pruned = true;
            } else {
                // Numerical corner: complete the fetch.
                for l in local.iter_mut().filter(|l| l.stopped) {
                    l.lines = engine.config().schedule.total_lines(l.dims.len());
                    l.stopped = false;
                }
            }
        }
    }
    MultiEval {
        lines: local.iter().map(|l| l.lines).collect(),
        backup_lines: 0,
        pruned,
        resumed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_core::{EtConfig, EtEngine, FetchSchedule, NoopEtObserver};
    use ansmet_vecdata::SynthSpec;

    #[test]
    fn chunked_rejection_is_sound() {
        let (data, queries) = SynthSpec::gist().scaled(120, 2).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 8)),
        );
        let chunks: Vec<std::ops::Range<usize>> = (0..4).map(|i| i * 240..(i + 1) * 240).collect();
        for q in &queries {
            let mut et = engine.prepare(q).expect("query matches the data");
            for id in 0..40 {
                let d = data.distance_to(id, q);
                let m = evaluate_chunked_obs(&mut et, id, &chunks, d * 0.7, &mut NoopEtObserver);
                if m.pruned {
                    assert!(d >= d * 0.7);
                } else {
                    // Unpruned comparisons under a sub-distance threshold
                    // must have fetched everything.
                    assert_eq!(
                        m.lines.iter().sum::<usize>(),
                        engine.config().schedule.total_lines(240) * 4
                    );
                }
            }
        }
    }

    #[test]
    fn single_chunk_matches_whole_vector() {
        let (data, queries) = SynthSpec::sift().scaled(100, 1).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 4)),
        );
        let dim = data.dim();
        #[allow(clippy::single_range_in_vec_init)] // one whole-vector chunk is the point
        let chunks = [0..dim];
        let mut et = engine.prepare(&queries[0]).expect("query matches the data");
        let m = evaluate_chunked_obs(&mut et, 5, &chunks, f32::INFINITY, &mut NoopEtObserver);
        let c = engine.evaluate(5, &queries[0], f32::INFINITY);
        assert_eq!(m.lines[0], c.lines);
        assert_eq!(m.pruned, c.pruned);
    }

    #[test]
    fn rejected_chunked_saves_lines() {
        let (data, queries) = SynthSpec::gist().scaled(120, 2).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 8)),
        );
        let chunks: Vec<std::ops::Range<usize>> = (0..4).map(|i| i * 240..(i + 1) * 240).collect();
        let q = &queries[0];
        let full = engine.config().schedule.total_lines(240) * 4;
        let mut saved = false;
        let mut et = engine.prepare(q).expect("query matches the data");
        for id in 0..60 {
            let d = data.distance_to(id, q);
            let m = evaluate_chunked_obs(&mut et, id, &chunks, d * 0.5, &mut NoopEtObserver);
            if m.pruned && m.total_lines() < full {
                saved = true;
            }
        }
        assert!(saved, "no chunked comparison saved lines");
    }
}
