//! Churn-aware early-termination oracle.
//!
//! [`FreshEtOracle`] wraps an [`EtEngine`] exactly like
//! [`EtOracle`](ansmet_core::EtOracle), with one addition: ids flagged
//! *conservative* by the [`MutableIndex`](crate::MutableIndex) bypass
//! the transformed layout entirely and are answered with an exact
//! distance at natural full-fetch cost. A vector is conservative when
//! the layout-optimizer artifacts (common-prefix tables, dual-
//! granularity fetch plan, outlier backups) were planned before it
//! existed — its prefix/outlier assumptions have not been re-validated,
//! so the only sound move is the full fetch. The epoch manager clears
//! the flag once re-validation proves the frozen format covers the
//! vector (see [`LayoutArtifacts::revalidate`](crate::LayoutArtifacts)).
//!
//! Because both the conservative and the engine path return *exact*
//! distances for accepted candidates (ET is lossless), searches through
//! this oracle are bit-identical to exact searches — the flag only moves
//! cost, never results.
//!
//! One oracle serves one read: it prepares the read's query once
//! ([`EtEngine::prepare`]) and evaluates every comparison through it.

use ansmet_core::{EtEngine, EtError, EtQuery};
use ansmet_index::{DistanceOracle, DistanceOutcome};

/// ET oracle for one query that serves non-revalidated ids with a
/// conservative exact full fetch.
#[derive(Debug)]
pub struct FreshEtOracle<'a> {
    query: EtQuery<'a, 'a>,
    conservative: &'a [bool],
    comparisons: u64,
    /// Transformed-layout lines fetched so far (conservative fetches
    /// count their natural-layout lines here too).
    pub lines: u64,
    /// Backup lines fetched so far.
    pub backup_lines: u64,
    /// Comparisons pruned by early termination.
    pub pruned: u64,
    /// Comparisons served via the conservative full-fetch path.
    pub conservative_fetches: u64,
}

impl<'a> FreshEtOracle<'a> {
    /// Wrap `engine` as the oracle of `query`, with per-id conservative
    /// flags (one per dataset vector, typically
    /// [`MutableIndex::conservative_flags`](crate::MutableIndex::conservative_flags)).
    ///
    /// # Errors
    ///
    /// Rejects a query whose length differs from the dataset
    /// dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if the flag slice and the engine's dataset disagree on
    /// length.
    pub fn new(
        engine: &'a EtEngine<'a>,
        conservative: &'a [bool],
        query: &'a [f32],
    ) -> Result<Self, EtError> {
        assert_eq!(
            conservative.len(),
            engine.dataset().len(),
            "conservative flags cover {} ids, dataset has {}",
            conservative.len(),
            engine.dataset().len()
        );
        Ok(FreshEtOracle {
            query: engine.prepare(query)?,
            conservative,
            comparisons: 0,
            lines: 0,
            backup_lines: 0,
            pruned: 0,
            conservative_fetches: 0,
        })
    }

    /// Lines a non-terminating design would have fetched for the same
    /// comparisons.
    pub fn baseline_lines(&self) -> u64 {
        self.comparisons * self.query.engine().full_lines() as u64
    }
}

impl DistanceOracle for FreshEtOracle<'_> {
    fn evaluate(&mut self, id: usize, query: &[f32], threshold: f32) -> DistanceOutcome {
        debug_assert!(self.query.serves(query), "the oracle serves one query");
        self.comparisons += 1;
        if self.conservative[id] {
            let engine = self.query.engine();
            self.conservative_fetches += 1;
            self.lines += engine.natural_lines() as u64;
            return DistanceOutcome::Exact(engine.dataset().distance_to(id, query));
        }
        let cost = self.query.evaluate(id, threshold);
        self.lines += cost.lines as u64;
        self.backup_lines += cost.backup_lines as u64;
        if cost.pruned {
            self.pruned += 1;
            DistanceOutcome::Pruned
        } else {
            match cost.effective_distance() {
                Some(d) => DistanceOutcome::Exact(d),
                None => DistanceOutcome::Pruned,
            }
        }
    }

    fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_core::{EtConfig, FetchSchedule};
    use ansmet_vecdata::SynthSpec;

    #[test]
    fn conservative_ids_cost_full_fetch_but_stay_exact() {
        let (data, queries) = SynthSpec::sift().scaled(60, 2).generate();
        let cfg = EtConfig::new(FetchSchedule::simple_heuristic(data.dtype()));
        let engine = EtEngine::new(&data, cfg);
        let mut flags = vec![false; data.len()];
        flags[5] = true;
        let mut oracle =
            FreshEtOracle::new(&engine, &flags, &queries[0]).expect("query matches the data");
        // Conservative id: exact distance regardless of threshold.
        let out = oracle.evaluate(5, &queries[0], 0.0);
        assert_eq!(
            out,
            DistanceOutcome::Exact(data.distance_to(5, &queries[0]))
        );
        assert_eq!(oracle.conservative_fetches, 1);
        assert_eq!(oracle.lines, engine.natural_lines() as u64);
        // Regular id under an infinite threshold: exact as well.
        let out = oracle.evaluate(6, &queries[0], f32::INFINITY);
        assert_eq!(
            out,
            DistanceOutcome::Exact(data.distance_to(6, &queries[0]))
        );
        assert_eq!(oracle.comparisons(), 2);
    }

    #[test]
    #[should_panic(expected = "conservative flags cover")]
    fn flag_shape_is_checked() {
        let (data, queries) = SynthSpec::sift().scaled(10, 1).generate();
        let cfg = EtConfig::new(FetchSchedule::simple_heuristic(data.dtype()));
        let engine = EtEngine::new(&data, cfg);
        let flags = vec![false; 3];
        let _ = FreshEtOracle::new(&engine, &flags, &queries[0]);
    }
}
