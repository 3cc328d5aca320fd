//! The frozen ANSMET layout plan, and its re-validation against a
//! mutated dataset.
//!
//! The layout optimizer chooses three artifacts at plan time: a
//! common-prefix spec (outlier-aware, per-dimension), a fetch schedule
//! over the residual bits, and a hot-vector replica set (the upper-layer
//! HNSW nodes every rank group mirrors). All three bake in assumptions
//! about the data distribution *at plan time*. Under churn those
//! assumptions rot:
//!
//! * A fresh insert may not fit the frozen prefix format — and even if
//!   it is an outlier, no uncompressed backup slot was provisioned for
//!   it in the outlier region. Until re-validation, such vectors are
//!   served **conservatively** (exact natural-layout fetch, see
//!   [`FreshEtOracle`](crate::FreshEtOracle)), which keeps every ET
//!   bound trivially correct.
//! * The hot set shifts as upper-layer nodes are inserted or unlinked;
//!   replica sets must be diffed and re-shipped.
//!
//! [`LayoutArtifacts::revalidate`] runs at every epoch: it admits
//! conservative vectors that the frozen format *does* cover, keeps the
//! rest conservative, and — when the conservative share exceeds the
//! configured headroom — re-plans prefix and schedule from the live data
//! so efficiency recovers.

use ansmet_core::{EtConfig, FetchSchedule, PrefixSpec};
use ansmet_ndp::ReplicaSet;

use crate::mutable::MutableIndex;

/// Largest deterministic sample used when (re-)choosing the prefix spec.
const PLAN_SAMPLE_CAP: usize = 256;

/// The frozen layout plan: prefix spec, fetch schedule, replica set.
#[derive(Debug, Clone)]
pub struct LayoutArtifacts {
    /// Fetch schedule over the residual (post-prefix) bits.
    pub schedule: FetchSchedule,
    /// Common-prefix elimination spec chosen at plan time.
    pub prefix: PrefixSpec,
    /// Hot-vector replica set (upper-layer HNSW nodes).
    pub replicas: ReplicaSet,
    /// Outlier budget handed to the prefix chooser at (re-)plan time.
    pub outlier_budget_frac: f64,
}

/// What one re-validation pass decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevalidationReport {
    /// Conservative flags examined.
    pub checked: usize,
    /// Vectors admitted to the transformed layout (flag cleared).
    pub admitted: usize,
    /// Vectors kept conservative (outliers without a provisioned
    /// backup slot under the frozen format).
    pub kept_conservative: usize,
    /// Whether the prefix/schedule pair was re-planned from live data.
    pub replanned: bool,
    /// Live vectors that are outliers under the (possibly old) prefix.
    pub outlier_frac: f64,
    /// Replica ids newly added by the refresh.
    pub replicas_added: usize,
    /// Replica ids dropped by the refresh.
    pub replicas_removed: usize,
}

impl std::fmt::Display for RevalidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "revalidated {} vectors: {} admitted, {} kept conservative{}; \
             outlier share {:.2}%; replicas +{}/-{}",
            self.checked,
            self.admitted,
            self.kept_conservative,
            if self.replanned { ", re-planned" } else { "" },
            self.outlier_frac * 100.0,
            self.replicas_added,
            self.replicas_removed,
        )
    }
}

impl LayoutArtifacts {
    /// Plan the layout artifacts from the index's current live data: a
    /// prefix spec over a deterministic live sample, a fetch schedule
    /// over the residual bits (the paper's chunk heuristic), and the
    /// hot-vector replica set.
    pub fn plan(index: &MutableIndex, outlier_budget_frac: f64) -> Self {
        let sample = plan_sample(index);
        let prefix = PrefixSpec::choose(index.data(), &sample, outlier_budget_frac);
        let schedule = schedule_for(&prefix, index);
        LayoutArtifacts {
            schedule,
            prefix,
            replicas: replica_plan(index),
            outlier_budget_frac,
        }
    }

    /// The ET config this plan induces (what the engine is built from).
    pub fn et_config(&self) -> EtConfig {
        if self.prefix.is_disabled() {
            EtConfig::new(self.schedule.clone())
        } else {
            EtConfig::with_prefix(self.schedule.clone(), self.prefix.clone())
        }
    }

    /// Re-validate the plan against the mutated index.
    ///
    /// Per conservative id: dead ids are dropped; ids the frozen prefix
    /// format covers (no outlier dimensions) are admitted; outliers stay
    /// conservative — their backup slot was never provisioned. When the
    /// still-conservative share of the live set exceeds `headroom`, the
    /// prefix and schedule are re-planned from live data and everything
    /// is admitted. Finally the replica set is refreshed and diffed.
    pub fn revalidate(&mut self, index: &mut MutableIndex, headroom: f64) -> RevalidationReport {
        assert!(
            (0.0..=1.0).contains(&headroom),
            "headroom is a fraction of the live set"
        );
        let live = index.live_ids();
        let mut checked = 0usize;
        let mut admitted = 0usize;
        let mut kept = 0usize;
        for id in 0..index.len() {
            if !index.conservative[id] {
                continue;
            }
            checked += 1;
            if !index.is_live(id) {
                // Dead: the flag no longer matters, retire it.
                index.conservative[id] = false;
            } else if self.prefix.is_disabled() || !self.prefix.vector_has_outlier(index.data(), id)
            {
                index.conservative[id] = false;
                admitted += 1;
            } else {
                kept += 1;
            }
        }
        let outliers = if self.prefix.is_disabled() {
            0
        } else {
            self.prefix.outlier_vector_count(index.data(), &live)
        };
        let outlier_frac = outliers as f64 / live.len().max(1) as f64;
        let replanned = kept as f64 > headroom * live.len() as f64;
        if replanned {
            let sample = plan_sample(index);
            self.prefix = PrefixSpec::choose(index.data(), &sample, self.outlier_budget_frac);
            self.schedule = schedule_for(&self.prefix, index);
            // The re-plan re-lays every live vector out (outlier backups
            // included), so nothing stays conservative.
            for &id in &live {
                index.conservative[id] = false;
            }
            admitted += kept;
            kept = 0;
        }
        let fresh = replica_plan(index);
        let (added, removed) = self.replicas.diff(&fresh);
        self.replicas = fresh;
        RevalidationReport {
            checked,
            admitted,
            kept_conservative: kept,
            replanned,
            outlier_frac,
            replicas_added: added.len(),
            replicas_removed: removed.len(),
        }
    }
}

/// Deterministic live-id sample for prefix planning: every live id when
/// small, otherwise a fixed-stride subsample capped at
/// [`PLAN_SAMPLE_CAP`].
fn plan_sample(index: &MutableIndex) -> Vec<usize> {
    let live = index.live_ids();
    if live.len() <= PLAN_SAMPLE_CAP {
        return live;
    }
    let stride = live.len().div_ceil(PLAN_SAMPLE_CAP);
    live.into_iter().step_by(stride).collect()
}

/// The paper's chunk heuristic over the residual bits: 8-bit steps for
/// floats, 4-bit for integers, after the eliminated prefix.
fn schedule_for(prefix: &PrefixSpec, index: &MutableIndex) -> FetchSchedule {
    let dtype = index.data().dtype();
    if prefix.is_disabled() {
        FetchSchedule::simple_heuristic(dtype)
    } else {
        let n = if dtype.is_float() { 8 } else { 4 };
        FetchSchedule::uniform_after_prefix(dtype, prefix.len(), n)
    }
}

/// The hot-vector replica set: live upper-layer HNSW nodes (what every
/// rank group mirrors so greedy descent never crosses groups).
fn replica_plan(index: &MutableIndex) -> ReplicaSet {
    ReplicaSet::new(
        index
            .hnsw()
            .nodes_at_or_above_layer(1)
            .into_iter()
            .filter(|&id| index.is_live(id)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_index::HnswParams;
    use ansmet_vecdata::SynthSpec;

    fn churned_index(n: usize, held_out: usize) -> (MutableIndex, Vec<Vec<f32>>) {
        let (data, _) = SynthSpec::sift().scaled(n, 1).generate();
        let pending: Vec<Vec<f32>> = (n - held_out..n).map(|i| data.vector(i).to_vec()).collect();
        let base = ansmet_vecdata::Dataset::from_values(
            "t",
            data.dtype(),
            data.metric(),
            data.dim(),
            (0..n - held_out)
                .flat_map(|i| data.vector(i).to_vec())
                .collect(),
        );
        (
            MutableIndex::build_hnsw(base, HnswParams::quick(), 5),
            pending,
        )
    }

    #[test]
    fn plan_config_is_engine_compatible() {
        let (idx, _) = churned_index(300, 0);
        let layout = LayoutArtifacts::plan(&idx, 0.01);
        let cfg = layout.et_config();
        // Building an engine from the induced config must not panic and
        // must agree on the schedule.
        let engine = ansmet_core::EtEngine::new(idx.data(), cfg);
        assert_eq!(engine.config().schedule, layout.schedule);
    }

    #[test]
    fn revalidation_admits_covered_inserts() {
        let (mut idx, pending) = churned_index(400, 40);
        let mut layout = LayoutArtifacts::plan(&idx, 0.01);
        for v in &pending {
            idx.insert(v);
        }
        assert_eq!(idx.conservative_count(), 40);
        let report = layout.revalidate(&mut idx, 1.0);
        assert_eq!(report.checked, 40);
        assert_eq!(report.admitted + report.kept_conservative, 40);
        assert!(
            !report.replanned,
            "headroom 1.0 must never trigger a re-plan"
        );
        assert_eq!(idx.conservative_count(), report.kept_conservative);
        // Second pass: admitted vectors are no longer checked.
        let again = layout.revalidate(&mut idx, 1.0);
        assert_eq!(again.checked, report.kept_conservative);
    }

    #[test]
    fn zero_headroom_forces_a_replan_when_outliers_persist() {
        let (mut idx, pending) = churned_index(400, 40);
        let mut layout = LayoutArtifacts::plan(&idx, 0.01);
        for v in &pending {
            idx.insert(v);
        }
        let report = layout.revalidate(&mut idx, 0.0);
        if report.kept_conservative > 0 {
            panic!("a re-plan must clear every conservative flag");
        }
        // Either everything fit the frozen format, or a re-plan fired;
        // both ways no conservative vector survives a zero headroom.
        assert_eq!(idx.conservative_count(), 0);
    }

    #[test]
    fn replica_refresh_tracks_upper_layer_changes() {
        let (mut idx, pending) = churned_index(400, 60);
        let mut layout = LayoutArtifacts::plan(&idx, 0.01);
        let before = layout.replicas.sorted_ids();
        for v in &pending {
            idx.insert(v);
        }
        let report = layout.revalidate(&mut idx, 1.0);
        let after = layout.replicas.sorted_ids();
        // Streaming 60 inserts at the build level distribution promotes
        // ~1/ln(16) of them above layer 0 in expectation; the diff
        // accounting must match the set difference exactly.
        let added = after.iter().filter(|id| !before.contains(id)).count();
        let removed = before.iter().filter(|id| !after.contains(id)).count();
        assert_eq!(report.replicas_added, added);
        assert_eq!(report.replicas_removed, removed);
    }

    #[test]
    fn display_is_stable() {
        let r = RevalidationReport {
            checked: 12,
            admitted: 10,
            kept_conservative: 2,
            replanned: false,
            outlier_frac: 0.008,
            replicas_added: 3,
            replicas_removed: 1,
        };
        assert_eq!(
            r.to_string(),
            "revalidated 12 vectors: 10 admitted, 2 kept conservative; \
             outlier share 0.80%; replicas +3/-1"
        );
    }
}
