//! Epoch manager: periodic compaction + layout re-validation with a
//! deterministic pause-cost model.
//!
//! Freshness work is batched into *epochs* on the serving clock: every
//! `interval_cycles` the manager stops the (simulated) device, purges
//! tombstones, re-validates the layout artifacts against the mutated
//! data, and ships replica diffs. The pause is charged in integer cycles
//! from fixed per-unit costs, so compaction pressure shows up as
//! measurable tail latency in the churn report — and the whole schedule
//! is bit-reproducible.

use crate::mutable::MutableIndex;
use crate::revalidate::{LayoutArtifacts, RevalidationReport};

/// Fixed cost of entering/leaving an epoch (quiesce + barrier).
pub const EPOCH_BASE_CYCLES: u64 = 4_096;
/// Cycles to unlink one tombstoned graph node.
pub const COMPACT_PURGE_CYCLES: u64 = 1_024;
/// Cycles to re-validate one live vector against the layout plan.
pub const REVALIDATE_CYCLES_PER_VECTOR: u64 = 12;
/// Cycles to ship one replica add/remove to a rank group.
pub const REPLICA_SHIP_CYCLES: u64 = 320;

/// Epoch cadence and re-validation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochConfig {
    /// Cycles between epoch starts on the serving clock.
    pub interval_cycles: u64,
    /// Largest tolerated share of the live set served conservatively;
    /// above it, re-validation re-plans the prefix and schedule.
    pub conservative_headroom: f64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            interval_cycles: 2_000_000,
            conservative_headroom: 0.02,
        }
    }
}

/// What one epoch did, and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// 1-based epoch number.
    pub epoch: u64,
    /// Tombstoned vectors the compaction unlinked from the graph.
    pub purged: usize,
    /// Re-validation outcome.
    pub revalidated: RevalidationReport,
    /// Modeled stop-the-device pause, in cycles.
    pub pause_cycles: u64,
}

impl std::fmt::Display for EpochReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {}: purged {}, paused {} cycles; {}",
            self.epoch, self.purged, self.pause_cycles, self.revalidated,
        )
    }
}

/// Drives compaction + re-validation epochs.
#[derive(Debug, Clone)]
pub struct EpochManager {
    cfg: EpochConfig,
    epoch: u64,
}

impl EpochManager {
    /// Manager with no epochs run yet.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval.
    pub fn new(cfg: EpochConfig) -> Self {
        assert!(cfg.interval_cycles > 0, "epoch interval must be positive");
        EpochManager { cfg, epoch: 0 }
    }

    /// Resume at a saved epoch count (snapshot restore).
    pub fn resume(cfg: EpochConfig, epochs_run: u64) -> Self {
        let mut m = Self::new(cfg);
        m.epoch = epochs_run;
        m
    }

    /// The active config.
    pub fn config(&self) -> &EpochConfig {
        &self.cfg
    }

    /// Epochs completed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epoch
    }

    /// When the next epoch should fire, given the current clock.
    pub fn next_wake(&self, now: u64) -> u64 {
        now + self.cfg.interval_cycles
    }

    /// Run one epoch: compact the index, re-validate the layout, and
    /// charge the modeled pause.
    pub fn run_epoch(
        &mut self,
        index: &mut MutableIndex,
        layout: &mut LayoutArtifacts,
    ) -> EpochReport {
        let purged = index.compact();
        let revalidated = layout.revalidate(index, self.cfg.conservative_headroom);
        let pause_cycles = EPOCH_BASE_CYCLES
            + purged as u64 * COMPACT_PURGE_CYCLES
            + index.live_len() as u64 * REVALIDATE_CYCLES_PER_VECTOR
            + (revalidated.replicas_added + revalidated.replicas_removed) as u64
                * REPLICA_SHIP_CYCLES;
        self.epoch += 1;
        EpochReport {
            epoch: self.epoch,
            purged,
            revalidated,
            pause_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_index::HnswParams;
    use ansmet_vecdata::SynthSpec;

    #[test]
    fn epoch_compacts_and_charges_a_pause() {
        let (data, _) = SynthSpec::sift().scaled(300, 1).generate();
        let mut idx = MutableIndex::build_hnsw(data, HnswParams::quick(), 9);
        let mut layout = LayoutArtifacts::plan(&idx, 0.01);
        let mut mgr = EpochManager::new(EpochConfig::default());
        for id in [5, 17, 200] {
            idx.delete(id);
        }
        let r = mgr.run_epoch(&mut idx, &mut layout);
        assert_eq!(r.epoch, 1);
        assert_eq!(r.purged, 3);
        assert!(
            r.pause_cycles
                >= EPOCH_BASE_CYCLES
                    + 3 * COMPACT_PURGE_CYCLES
                    + idx.live_len() as u64 * REVALIDATE_CYCLES_PER_VECTOR,
            "pause must cover purge + scan costs"
        );
        assert_eq!(idx.pending_dead(), 0);
        assert_eq!(mgr.epochs_run(), 1);
        // Deterministic: the same mutation sequence costs the same pause.
        let (data2, _) = SynthSpec::sift().scaled(300, 1).generate();
        let mut idx2 = MutableIndex::build_hnsw(data2, HnswParams::quick(), 9);
        let mut layout2 = LayoutArtifacts::plan(&idx2, 0.01);
        let mut mgr2 = EpochManager::new(EpochConfig::default());
        for id in [5, 17, 200] {
            idx2.delete(id);
        }
        assert_eq!(mgr2.run_epoch(&mut idx2, &mut layout2), r);
    }

    #[test]
    fn pause_is_the_sum_of_its_unit_costs() {
        let (data, _) = SynthSpec::sift().scaled(200, 1).generate();
        let mut idx = MutableIndex::build_hnsw(data, HnswParams::quick(), 9);
        let mut layout = LayoutArtifacts::plan(&idx, 0.01);
        let mut mgr = EpochManager::new(EpochConfig::default());
        // A quiet epoch purges nothing; the second purges four nodes.
        for deleted in [0, 4] {
            for id in 0..deleted {
                idx.delete(10 * id + 1);
            }
            let r = mgr.run_epoch(&mut idx, &mut layout);
            let shipped = r.revalidated.replicas_added + r.revalidated.replicas_removed;
            assert_eq!(r.purged, deleted);
            assert_eq!(
                r.pause_cycles,
                EPOCH_BASE_CYCLES
                    + deleted as u64 * COMPACT_PURGE_CYCLES
                    + idx.live_len() as u64 * REVALIDATE_CYCLES_PER_VECTOR
                    + shipped as u64 * REPLICA_SHIP_CYCLES
            );
        }
    }

    #[test]
    fn resume_continues_the_epoch_count() {
        let mgr = EpochManager::resume(EpochConfig::default(), 7);
        assert_eq!(mgr.epochs_run(), 7);
        assert_eq!(
            mgr.next_wake(100),
            100 + EpochConfig::default().interval_cycles
        );
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        EpochManager::new(EpochConfig {
            interval_cycles: 0,
            conservative_headroom: 0.1,
        });
    }
}
