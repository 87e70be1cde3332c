//! Simulation statistics.

/// What the timing simulator measures — in particular the three quantities
/// the scale-model methodology consumes: [`SimStats::ipc`],
/// [`SimStats::mpki`], and [`SimStats::f_mem`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total execution cycles.
    pub cycles: u64,
    /// Warp instructions issued.
    pub warp_instrs: u64,
    /// Thread instructions executed (warp instructions × 32).
    pub thread_instrs: u64,
    /// LLC accesses (loads, stores and atomics reaching the LLC).
    pub llc_accesses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// L1 accesses (cached loads).
    pub l1_accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// DRAM bytes moved (reads + write-backs).
    pub dram_bytes: u64,
    /// Sum over SMs of cycles in which the SM had live warps but could not
    /// issue because every live warp was waiting on memory.
    pub mem_stall_sm_cycles: u64,
    /// Sum over SMs of cycles in which the SM had no work (empty CTA
    /// slots while other SMs still executed) — the imbalance tail.
    pub idle_sm_cycles: u64,
    /// Sum over SMs of all cycles (== `cycles * n_sms`).
    pub total_sm_cycles: u64,
    /// CTAs executed.
    pub ctas_executed: u64,
    /// Kernels executed.
    pub kernels_executed: u64,
    /// Wall-clock seconds the simulation itself took (for speedup studies).
    pub sim_wall_seconds: f64,
    /// Cycle at which 10% of the expected warp instructions had issued.
    pub cycle_at_10pct: u64,
    /// Cycle at which 90% of the expected warp instructions had issued.
    pub cycle_at_90pct: u64,
    /// Warp instructions issued inside the 10%-90% window.
    pub warp_instrs_window: u64,
    /// Cycles spent in each kernel, in launch order (kernel barriers make
    /// this well defined). Used by sampling-based estimators.
    pub kernel_cycles: Vec<u64>,
}

impl SimStats {
    /// Instructions per cycle, in thread instructions (the paper's IPC).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instrs as f64 / self.cycles as f64
        }
    }

    /// Sustained IPC: thread instructions per cycle measured between the
    /// 10% and 90% instruction milestones, excluding the pipeline-fill
    /// ramp and the final drain. The model workloads are ~1000x shorter
    /// than the paper's (DESIGN.md §5), which inflates those boundary
    /// artefacts relative to a real run; the sustained window restores
    /// steady-state rates. Falls back to [`SimStats::ipc`] when the
    /// window is degenerate.
    pub fn sustained_ipc(&self) -> f64 {
        if self.cycle_at_90pct > self.cycle_at_10pct && self.warp_instrs_window > 0 {
            (self.warp_instrs_window * 32) as f64
                / (self.cycle_at_90pct - self.cycle_at_10pct) as f64
        } else {
            self.ipc()
        }
    }

    /// LLC misses per thousand thread instructions (the paper's MPKI).
    pub fn mpki(&self) -> f64 {
        if self.thread_instrs == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / self.thread_instrs as f64
        }
    }

    /// The fraction of time an SM is unable to issue because all its warps
    /// wait for memory — `f_mem` of Equation (3).
    pub fn f_mem(&self) -> f64 {
        if self.total_sm_cycles == 0 {
            0.0
        } else {
            self.mem_stall_sm_cycles as f64 / self.total_sm_cycles as f64
        }
    }

    /// Fraction of SM cycles lost to having no CTA to run (imbalance).
    pub fn f_idle(&self) -> f64 {
        if self.total_sm_cycles == 0 {
            0.0
        } else {
            self.idle_sm_cycles as f64 / self.total_sm_cycles as f64
        }
    }

    /// L1 miss rate over L1 accesses; 0 if none.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_accesses as f64
        }
    }

    /// Simulated cycles per wall-clock second — the simulator's own speed,
    /// for perf tracking; 0 if wall-clock time was not recorded.
    pub fn sim_cycles_per_second(&self) -> f64 {
        if self.sim_wall_seconds > 0.0 {
            self.cycles as f64 / self.sim_wall_seconds
        } else {
            0.0
        }
    }

    /// Asserts that `self` and `other` agree on every *simulated* quantity,
    /// ignoring host-side wall-clock measurements (`sim_wall_seconds`).
    ///
    /// This is the determinism contract of the engine: two runs of the same
    /// (configuration, workload) pair must satisfy it.
    ///
    /// # Panics
    ///
    /// Panics with the name of the first differing field.
    pub fn assert_deterministic_eq(&self, other: &Self) {
        // Exhaustive destructuring (no `..`): adding a SimStats field
        // without deciding whether determinism covers it fails to compile.
        let Self {
            cycles: _,
            warp_instrs: _,
            thread_instrs: _,
            llc_accesses: _,
            llc_misses: _,
            l1_accesses: _,
            l1_misses: _,
            dram_bytes: _,
            mem_stall_sm_cycles: _,
            idle_sm_cycles: _,
            total_sm_cycles: _,
            ctas_executed: _,
            kernels_executed: _,
            sim_wall_seconds: _,
            cycle_at_10pct: _,
            cycle_at_90pct: _,
            warp_instrs_window: _,
            kernel_cycles: _,
        } = self;
        macro_rules! check {
            ($($field:ident),+ $(,)?) => {
                $(assert_eq!(
                    self.$field, other.$field,
                    concat!("SimStats::", stringify!($field), " differs"),
                );)+
            };
        }
        check!(
            cycles,
            warp_instrs,
            thread_instrs,
            llc_accesses,
            llc_misses,
            l1_accesses,
            l1_misses,
            dram_bytes,
            mem_stall_sm_cycles,
            idle_sm_cycles,
            total_sm_cycles,
            ctas_executed,
            kernels_executed,
            cycle_at_10pct,
            cycle_at_90pct,
            warp_instrs_window,
            kernel_cycles,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = SimStats {
            cycles: 1000,
            warp_instrs: 500,
            thread_instrs: 16_000,
            llc_accesses: 100,
            llc_misses: 40,
            l1_accesses: 200,
            l1_misses: 100,
            mem_stall_sm_cycles: 3_000,
            idle_sm_cycles: 1_000,
            total_sm_cycles: 8_000,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 16.0);
        assert_eq!(s.sustained_ipc(), 16.0); // degenerate window falls back
        assert_eq!(s.mpki(), 2.5);
        assert_eq!(s.f_mem(), 0.375);
        assert_eq!(s.f_idle(), 0.125);
        assert_eq!(s.l1_miss_rate(), 0.5);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mpki(), 0.0);
        assert_eq!(s.f_mem(), 0.0);
        assert_eq!(s.f_idle(), 0.0);
        assert_eq!(s.l1_miss_rate(), 0.0);
    }
}
