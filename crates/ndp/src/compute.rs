//! The distance computing unit (Fig. 5d): 16 lanes of up-to-32-bit
//! multipliers and adders at 1.2 GHz in the DIMM buffer chip.

/// Timing/area model of one distance computing unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeUnit {
    /// Parallel multiply/add lanes (paper: 16).
    pub lanes: u32,
    /// Clock in MHz (paper: 1200).
    pub clock_mhz: u64,
    /// Pipeline depth for the reduce/compare stage.
    pub reduce_cycles: u64,
    /// Power when active, mW (paper: 300 mW).
    pub active_mw: f64,
    /// Area in mm² (paper: 0.06 mm² per NDP unit at 22 nm).
    pub area_mm2: f64,
}

impl Default for ComputeUnit {
    fn default() -> Self {
        ComputeUnit {
            lanes: 16,
            clock_mhz: 1200,
            reduce_cycles: 4,
            active_mw: 300.0,
            area_mm2: 0.06,
        }
    }
}

impl ComputeUnit {
    /// NDP-clock cycles to process the elements carried by one 64 B fetch
    /// (bound refinement: one subtract/multiply per element plus the
    /// tree reduce).
    pub fn cycles_per_line(&self, elements_in_line: usize) -> u64 {
        (elements_in_line as u64).div_ceil(self.lanes as u64) + self.reduce_cycles
    }

    /// Convert NDP cycles to DRAM command-clock cycles (the simulator's
    /// time base) for a memory clock of `mem_clock_mhz`.
    pub fn to_mem_cycles(&self, ndp_cycles: u64, mem_clock_mhz: u64) -> u64 {
        (ndp_cycles * mem_clock_mhz).div_ceil(self.clock_mhz)
    }

    /// Energy of processing `lines` fetches, in nanojoules.
    pub fn energy_nj(&self, lines: u64, elements_per_line: usize) -> f64 {
        let cycles: u64 = lines * self.cycles_per_line(elements_per_line);
        let seconds = cycles as f64 / (self.clock_mhz as f64 * 1e6);
        self.active_mw * seconds * 1e6 // mW × s = µJ = 1e6 nJ... (mW·s = µJ)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_latency_scales_with_elements() {
        let c = ComputeUnit::default();
        // 16 FP32 elements per 64 B line: one pass + reduce.
        assert_eq!(c.cycles_per_line(16), 1 + c.reduce_cycles);
        // 64 UINT8 elements: four passes.
        assert_eq!(c.cycles_per_line(64), 4 + c.reduce_cycles);
    }

    #[test]
    fn clock_domain_conversion() {
        let c = ComputeUnit::default();
        // 1.2 GHz NDP vs 2.4 GHz memory clock: 2 mem cycles per NDP cycle.
        assert_eq!(c.to_mem_cycles(5, 2400), 10);
    }

    #[test]
    fn default_matches_the_paper_unit() {
        let c = ComputeUnit::default();
        let paper = (16, 1200, 300.0, 0.06);
        assert_eq!((c.lanes, c.clock_mhz, c.active_mw, c.area_mm2), paper);
    }

    #[test]
    fn partial_passes_round_up() {
        let c = ComputeUnit::default();
        assert_eq!(c.cycles_per_line(0), c.reduce_cycles);
        assert_eq!(c.cycles_per_line(1), 1 + c.reduce_cycles);
        assert_eq!(c.cycles_per_line(17), 2 + c.reduce_cycles);
        let narrow = ComputeUnit { lanes: 4, ..c };
        assert_eq!(narrow.cycles_per_line(16), 4 + c.reduce_cycles);
    }

    #[test]
    fn clock_conversion_rounds_up() {
        let c = ComputeUnit::default();
        // One 1.2 GHz NDP cycle is 1.33 cycles of a 1.6 GHz memory clock.
        assert_eq!(c.to_mem_cycles(1, 1600), 2);
        assert_eq!(c.to_mem_cycles(3, 1600), 4);
        assert_eq!(c.to_mem_cycles(0, 2400), 0);
        assert_eq!(c.to_mem_cycles(7, 1200), 7, "same clock is the identity");
    }

    #[test]
    fn energy_matches_hand_computation() {
        // One FP32 line: 1 pass + 4 reduce = 5 cycles at 1.2 GHz, 4.17 ns;
        // at 300 mW that is 1.25 nJ.
        let c = ComputeUnit::default();
        assert!((c.energy_nj(1, 16) - 1.25).abs() < 1e-9);
        assert_eq!(c.energy_nj(0, 16), 0.0);
    }

    #[test]
    fn energy_positive_and_linear() {
        let c = ComputeUnit::default();
        let e1 = c.energy_nj(100, 16);
        let e2 = c.energy_nj(200, 16);
        assert!(e1 > 0.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }
}
