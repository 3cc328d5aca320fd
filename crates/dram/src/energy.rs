//! DRAM energy model.
//!
//! Energy is derived from per-rank command counts plus a background term,
//! in the spirit of the Micron DRAM power model used by Ramulator 2.0.
//! Absolute constants are representative DDR5 values; the evaluation uses
//! them only for *relative* comparisons between designs, as in the paper.

/// Per-event energy constants (nanojoules / milliwatts).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Energy of one ACT + its eventual PRE (row open/close), nJ.
    pub act_pre_nj: f64,
    /// Energy of one 64 B read burst including I/O, nJ.
    pub read_nj: f64,
    /// Energy of one 64 B write burst including I/O, nJ.
    pub write_nj: f64,
    /// Energy of one all-bank refresh, nJ.
    pub refresh_nj: f64,
    /// Background (standby) power per rank, mW.
    pub background_mw_per_rank: f64,
}

impl EnergyModel {
    /// Representative DDR5 constants.
    pub fn ddr5() -> Self {
        EnergyModel {
            act_pre_nj: 1.8,
            read_nj: 4.0,
            write_nj: 4.2,
            refresh_nj: 25.0,
            background_mw_per_rank: 45.0,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::ddr5()
    }
}

/// Computed energy breakdown, all in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyCounters {
    /// Activate/precharge energy.
    pub act_pre_nj: f64,
    /// Read burst energy.
    pub read_nj: f64,
    /// Write burst energy.
    pub write_nj: f64,
    /// Refresh energy.
    pub refresh_nj: f64,
    /// Background/standby energy.
    pub background_nj: f64,
}

impl EnergyCounters {
    /// Total DRAM energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.act_pre_nj + self.read_nj + self.write_nj + self.refresh_nj + self.background_nj
    }
}

impl EnergyModel {
    /// Compute energy from per-rank `(acts, pres, reads, writes, refreshes)`
    /// counters over `elapsed_cycles` at `cycle_ns` per cycle.
    pub fn compute(
        &self,
        rank_counts: &[(u64, u64, u64, u64, u64)],
        elapsed_cycles: u64,
        cycle_ns: f64,
    ) -> EnergyCounters {
        let mut c = EnergyCounters::default();
        for &(acts, _pres, reads, writes, refreshes) in rank_counts {
            c.act_pre_nj += acts as f64 * self.act_pre_nj;
            c.read_nj += reads as f64 * self.read_nj;
            c.write_nj += writes as f64 * self.write_nj;
            c.refresh_nj += refreshes as f64 * self.refresh_nj;
        }
        let seconds = elapsed_cycles as f64 * cycle_ns * 1e-9;
        // mW × s = µJ = 1e3 nJ.
        c.background_nj = self.background_mw_per_rank * rank_counts.len() as f64 * seconds * 1e6;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_activity_has_only_background() {
        let m = EnergyModel::ddr5();
        let c = m.compute(&[(0, 0, 0, 0, 0); 4], 2_400_000, 0.41667);
        assert_eq!(c.act_pre_nj, 0.0);
        assert!(c.background_nj > 0.0);
        // 4 ranks × 45 mW × 1 ms = 180 µJ = 1.8e5 nJ.
        assert!((c.background_nj - 1.8e5).abs() / 1.8e5 < 0.01);
    }

    #[test]
    fn command_energy_scales_linearly() {
        let m = EnergyModel::ddr5();
        let a = m.compute(&[(10, 10, 100, 0, 0)], 0, 0.41667);
        let b = m.compute(&[(20, 20, 200, 0, 0)], 0, 0.41667);
        assert!((b.total_nj() - 2.0 * a.total_nj()).abs() < 1e-9);
    }

    #[test]
    fn reads_cost_less_than_writes() {
        let m = EnergyModel::ddr5();
        let r = m.compute(&[(0, 0, 100, 0, 0)], 0, 0.4);
        let w = m.compute(&[(0, 0, 0, 100, 0)], 0, 0.4);
        assert!(w.total_nj() > r.total_nj());
    }
}
