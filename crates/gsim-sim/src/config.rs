//! GPU system configurations and proportional scale-model derivation.

use gsim_trace::MemScale;

/// The system sizes used as scale models throughout the paper (Table I).
pub const SCALE_MODEL_SMS: [u32; 2] = [8, 16];

/// The target system sizes studied in the paper (Table I).
pub const TARGET_SMS: [u32; 3] = [32, 64, 128];

/// A complete (monolithic or per-chiplet) GPU configuration.
///
/// Capacities (`l1_bytes`, `llc_bytes_total`) are stored in *model units* —
/// already divided by the [`MemScale`] memory miniature — while bandwidths,
/// latencies and clock are full-size (see DESIGN.md §5). Construct paper
/// systems with [`GpuConfig::paper_target`] / [`GpuConfig::baseline_128sm`]
/// and derive scale models with [`GpuConfig::scaled_to`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub n_sms: u32,
    /// SM clock in GHz (Table III: 1.0; Table V: 1.7).
    pub sm_clock_ghz: f64,
    /// Resident warps per SM (Table III: 48); at most 64, the width of an
    /// SM's ready set.
    pub warps_per_sm: u32,
    /// Resident threads per SM (Table III: 1,536).
    pub max_threads_per_sm: u32,
    /// L1 capacity per SM in model-unit bytes (paper: 48 KB).
    pub l1_bytes: u64,
    /// L1 associativity (Table III: 6).
    pub l1_ways: u32,
    /// L1 MSHR entries (Table III: 384).
    pub l1_mshrs: u32,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// Cache-line size in bytes (128 throughout).
    pub line_bytes: u32,
    /// Total shared LLC capacity in model-unit bytes.
    pub llc_bytes_total: u64,
    /// Number of address-hashed LLC slices.
    pub llc_slices: u32,
    /// LLC associativity (64 per Table I/III).
    pub llc_ways: u32,
    /// LLC access latency in cycles.
    pub llc_latency: u32,
    /// NoC bisection bandwidth in GB/s.
    pub noc_gbs: f64,
    /// Fixed NoC traversal latency per direction, cycles.
    pub noc_hop_latency: u32,
    /// DRAM bandwidth per memory controller in GB/s (145 per Table I).
    pub dram_gbs_per_mc: f64,
    /// Number of memory controllers.
    pub n_mcs: u32,
    /// DRAM access latency in cycles (beyond queueing).
    pub dram_latency: u32,
    /// Banks per memory controller for the row-buffer-aware DRAM model;
    /// 0 (the default) selects the flat bandwidth model the paper-level
    /// studies use.
    pub dram_banks_per_mc: u32,
    /// Accepted and ignored: the engine is single-threaded (DESIGN.md
    /// §10), and independent simulations run side by side on
    /// `gsim-runner` instead. The field stays only because the frozen
    /// `benchmark/src/sim.rs` assigns it; retire it with the next
    /// benchmark PR.
    pub sim_threads: u32,
    /// The memory miniature this config was built with.
    pub mem_scale: MemScale,
}

impl GpuConfig {
    /// The paper's 128-SM baseline target system (Table III / Table I top
    /// row): 34 MB LLC over 64 slices, 2.7 TB/s crossbar bisection,
    /// 2.32 TB/s DRAM over 16 MCs of 145 GB/s.
    pub const fn baseline_128sm(scale: MemScale) -> Self {
        Self {
            n_sms: 128,
            sm_clock_ghz: 1.0,
            warps_per_sm: 48,
            max_threads_per_sm: 1536,
            l1_bytes: scale.to_model_bytes(48 * 1024),
            l1_ways: 6,
            l1_mshrs: 384,
            l1_latency: 25,
            line_bytes: 128,
            llc_bytes_total: scale.to_model_bytes(34 * 1024 * 1024),
            llc_slices: 64,
            llc_ways: 64,
            llc_latency: 50,
            noc_gbs: 2696.0,
            noc_hop_latency: 12,
            dram_gbs_per_mc: 145.0,
            n_mcs: 16,
            dram_latency: 150,
            dram_banks_per_mc: 0,
            sim_threads: 1,
            mem_scale: scale,
        }
    }

    /// Derives a proportionally scaled configuration with `n_sms` SMs
    /// (Section II / Table I): shared resources — LLC capacity and slices,
    /// NoC bisection bandwidth, memory-controller count — scale by
    /// `n_sms / self.n_sms`, while every per-SM resource (L1, warp count,
    /// clock, latencies, per-MC bandwidth) is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `n_sms` is zero.
    pub fn scaled_to(&self, n_sms: u32) -> Self {
        assert!(n_sms > 0, "system needs at least one SM");
        let f = f64::from(n_sms) / f64::from(self.n_sms);
        Self {
            n_sms,
            llc_bytes_total: ((self.llc_bytes_total as f64 * f) as u64).max(1),
            llc_slices: ((f64::from(self.llc_slices) * f).round() as u32).max(1),
            noc_gbs: self.noc_gbs * f,
            n_mcs: ((f64::from(self.n_mcs) * f).round() as u32).max(1),
            ..self.clone()
        }
    }

    /// The paper's target / scale-model system of `n_sms` SMs, derived
    /// from the 128-SM baseline by proportional scaling (Table I).
    ///
    /// # Example
    ///
    /// ```
    /// use gsim_sim::GpuConfig;
    /// use gsim_trace::MemScale;
    ///
    /// let cfg = GpuConfig::paper_target(8, MemScale::full());
    /// assert_eq!(cfg.n_mcs, 1); // Table I: 8-SM model has 1 MC
    /// assert_eq!(cfg.llc_bytes_total, 2_228_224); // 2.125 MB
    /// ```
    pub fn paper_target(n_sms: u32, scale: MemScale) -> Self {
        Self::baseline_128sm(scale).scaled_to(n_sms)
    }

    /// The largest [`MemScale`] divisor that still builds a machine: the
    /// full-size L1 in lines. Past it the L1 holds less than one line.
    pub const fn max_mem_scale() -> u32 {
        let full = Self::baseline_128sm(MemScale::full());
        (full.l1_bytes / full.line_bytes as u64) as u32
    }

    /// LLC capacity in *paper-unit* bytes (for reporting).
    pub fn llc_paper_bytes(&self) -> u64 {
        self.mem_scale.to_paper_bytes(self.llc_bytes_total)
    }

    /// Total DRAM bandwidth in GB/s.
    pub fn dram_gbs_total(&self) -> f64 {
        self.dram_gbs_per_mc * f64::from(self.n_mcs)
    }

    /// Resident CTAs an SM can hold for a CTA of `threads_per_cta` threads
    /// (bounded by both the thread budget and the warp budget).
    pub fn ctas_per_sm(&self, threads_per_cta: u32) -> u32 {
        let warps_per_cta = threads_per_cta.div_ceil(32);
        let by_threads = self.max_threads_per_sm / threads_per_cta.max(1);
        let by_warps = self.warps_per_sm / warps_per_cta.max(1);
        by_threads.min(by_warps).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_rows() -> Vec<(u32, f64, u32, f64, u32)> {
        // (#SMs, LLC MB, slices, DRAM GB/s, MCs) — Table I with exact
        // proportional halving (the published NoC/DRAM cells contain two
        // transcription glitches; proportionality is the stated rule).
        vec![
            (128, 34.0, 64, 2320.0, 16),
            (64, 17.0, 32, 1160.0, 8),
            (32, 8.5, 16, 580.0, 4),
            (16, 4.25, 8, 290.0, 2),
            (8, 2.125, 4, 145.0, 1),
        ]
    }

    #[test]
    fn proportional_scaling_reproduces_table_1() {
        for (sms, llc_mb, slices, dram, mcs) in table1_rows() {
            let cfg = GpuConfig::paper_target(sms, MemScale::full());
            assert_eq!(cfg.n_sms, sms);
            assert_eq!(
                cfg.llc_bytes_total,
                (llc_mb * 1024.0 * 1024.0) as u64,
                "{sms}-SM LLC"
            );
            assert_eq!(cfg.llc_slices, slices, "{sms}-SM slices");
            assert!((cfg.dram_gbs_total() - dram).abs() < 1e-9, "{sms}-SM DRAM");
            assert_eq!(cfg.n_mcs, mcs, "{sms}-SM MCs");
        }
    }

    #[test]
    fn noc_scales_proportionally() {
        let c128 = GpuConfig::paper_target(128, MemScale::full());
        let c16 = GpuConfig::paper_target(16, MemScale::full());
        assert!((c16.noc_gbs - c128.noc_gbs / 8.0).abs() < 1e-9);
    }

    #[test]
    fn per_sm_resources_are_invariant() {
        let scale = MemScale::default();
        let big = GpuConfig::paper_target(128, scale);
        let small = GpuConfig::paper_target(8, scale);
        assert_eq!(big.l1_bytes, small.l1_bytes);
        assert_eq!(big.warps_per_sm, small.warps_per_sm);
        assert_eq!(big.sm_clock_ghz, small.sm_clock_ghz);
        assert_eq!(big.dram_gbs_per_mc, small.dram_gbs_per_mc);
        assert_eq!(big.l1_latency, small.l1_latency);
    }

    #[test]
    fn mem_scale_shrinks_capacities_only() {
        let full = GpuConfig::paper_target(128, MemScale::full());
        let mini = GpuConfig::paper_target(128, MemScale::new(8));
        assert_eq!(mini.llc_bytes_total * 8, full.llc_bytes_total);
        assert_eq!(mini.l1_bytes * 8, full.l1_bytes);
        assert_eq!(mini.noc_gbs, full.noc_gbs);
        assert_eq!(mini.n_mcs, full.n_mcs);
        assert_eq!(mini.llc_paper_bytes(), full.llc_bytes_total);
    }

    #[test]
    fn max_mem_scale_leaves_the_l1_one_line() {
        let max = GpuConfig::max_mem_scale();
        assert_eq!(max, 384);
        let cfg = GpuConfig::paper_target(8, MemScale::new(max));
        assert_eq!(cfg.l1_bytes, u64::from(cfg.line_bytes));
    }

    #[test]
    fn ctas_per_sm_honours_both_budgets() {
        let cfg = GpuConfig::paper_target(8, MemScale::default());
        assert_eq!(cfg.ctas_per_sm(256), 6); // 1536/256
        assert_eq!(cfg.ctas_per_sm(1024), 1);
        assert_eq!(cfg.ctas_per_sm(32), 48); // bounded by 48 warps
    }

    #[test]
    fn sim_threads_is_inert() {
        // benchmark/src/sim.rs still assigns the field (1 for its timed
        // runs, 2 for its twin check); any value must give the same run.
        use gsim_trace::{Kernel, PatternKind, PatternSpec, Workload};
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 10_000).compute_per_mem(1.5);
        let wl = Workload::new("t", 9, vec![Kernel::new("k", 24, 256, spec)]);
        let run = |sim_threads| {
            let cfg = GpuConfig {
                sim_threads,
                ..GpuConfig::paper_target(8, MemScale::default())
            };
            crate::Simulator::new(cfg, &wl).run()
        };
        run(1).assert_deterministic_eq(&run(7));
    }

    #[test]
    fn scale_model_and_target_constants() {
        assert_eq!(SCALE_MODEL_SMS, [8, 16]);
        assert_eq!(TARGET_SMS, [32, 64, 128]);
    }
}
