//! Kernels, grids, and workloads.

use std::sync::Arc;

use crate::pattern::{PatternSpec, SpecStream, StreamCtx, StreamShared};
use crate::THREADS_PER_WARP;

/// One GPU kernel launch: a grid of CTAs, each a fixed number of threads,
/// all running the same access pattern. Kernels of a [`Workload`] execute
/// back-to-back with an implicit barrier in between, as on a real GPU
/// stream — small grids in the sequence are what starve large GPUs and
/// produce the paper's sub-linear "workload–architecture imbalance".
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    n_ctas: u32,
    threads_per_cta: u32,
    /// The spec and what its streams derive from it and the grid, shared
    /// by every stream (and every clone) of this kernel.
    shared: Arc<StreamShared>,
}

impl Kernel {
    /// Creates a kernel launching `n_ctas` CTAs of `threads_per_cta`
    /// threads running `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty, `threads_per_cta` is 0 or > 1024
    /// (the CUDA limit), or `spec` is `Tiled` with empty tiles.
    pub fn new(
        name: impl Into<String>,
        n_ctas: u32,
        threads_per_cta: u32,
        spec: PatternSpec,
    ) -> Self {
        assert!(n_ctas > 0, "grid must have at least one CTA");
        assert!(
            (1..=1024).contains(&threads_per_cta),
            "threads per CTA must be in 1..=1024, got {threads_per_cta}"
        );
        let total_warps = u64::from(n_ctas) * u64::from(threads_per_cta.div_ceil(THREADS_PER_WARP));
        Self {
            name: name.into(),
            n_ctas,
            threads_per_cta,
            shared: Arc::new(StreamShared::new(spec, total_warps)),
        }
    }

    /// Kernel name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of CTAs in the grid.
    pub fn n_ctas(&self) -> u32 {
        self.n_ctas
    }

    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> u32 {
        self.threads_per_cta
    }

    /// Warps per CTA (threads rounded up to whole warps).
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(THREADS_PER_WARP)
    }

    /// Total warps in the grid.
    pub fn total_warps(&self) -> u64 {
        u64::from(self.n_ctas) * u64::from(self.warps_per_cta())
    }

    /// The access pattern.
    pub fn spec(&self) -> &PatternSpec {
        &self.shared.spec
    }

    /// Stream context for warp `warp` of CTA `cta` in kernel `kernel_idx`
    /// of `workload`.
    pub fn stream_ctx(
        &self,
        workload: &Workload,
        kernel_idx: usize,
        cta: u32,
        warp: u32,
    ) -> StreamCtx {
        let global_warp = u64::from(cta) * u64::from(self.warps_per_cta()) + u64::from(warp);
        StreamCtx {
            global_warp,
            total_warps: self.total_warps(),
            seed: mix_seed(workload.seed(), kernel_idx as u64, global_warp),
        }
    }

    /// Creates the deterministic instruction stream for one warp.
    ///
    /// # Panics
    ///
    /// Panics if `cta` or `warp` is outside the grid.
    pub fn warp_stream(
        &self,
        workload: &Workload,
        kernel_idx: usize,
        cta: u32,
        warp: u32,
    ) -> SpecStream {
        assert!(
            cta < self.n_ctas,
            "CTA {cta} outside grid of {}",
            self.n_ctas
        );
        assert!(
            warp < self.warps_per_cta(),
            "warp {warp} outside CTA of {} warps",
            self.warps_per_cta()
        );
        let ctx = self.stream_ctx(workload, kernel_idx, cta, warp);
        SpecStream::new(Arc::clone(&self.shared), ctx.global_warp, ctx.seed)
    }

    /// Approximate warp instructions the whole kernel executes.
    pub fn approx_warp_instrs(&self, workload: &Workload, kernel_idx: usize) -> u64 {
        // All warps of a kernel execute the same op count for a given grid,
        // so sample warp 0.
        let ctx = self.stream_ctx(workload, kernel_idx, 0, 0);
        self.spec()
            .warp_instrs_for(&ctx)
            .saturating_mul(self.total_warps())
    }
}

/// SplitMix64-style seed mixing for per-warp determinism.
fn mix_seed(seed: u64, kernel: u64, global_warp: u64) -> u64 {
    let mut z = seed
        .wrapping_add(kernel.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(global_warp.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A complete workload: an ordered kernel sequence plus reporting metadata
/// (the paper-units footprint and instruction count shown in Tables II/IV).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    seed: u64,
    kernels: Vec<Kernel>,
    footprint_mb_paper: f64,
    paper_minsns: f64,
}

impl Workload {
    /// Creates a workload from a kernel sequence.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn new(name: impl Into<String>, seed: u64, kernels: Vec<Kernel>) -> Self {
        assert!(!kernels.is_empty(), "workload needs at least one kernel");
        Self {
            name: name.into(),
            seed,
            kernels,
            footprint_mb_paper: 0.0,
            paper_minsns: 0.0,
        }
    }

    /// Attaches the paper-units footprint (MB) for reporting.
    pub fn with_footprint_mb(mut self, mb: f64) -> Self {
        self.footprint_mb_paper = mb;
        self
    }

    /// Attaches the paper-units instruction count (millions) for reporting.
    pub fn with_paper_minsns(mut self, m: f64) -> Self {
        self.paper_minsns = m;
        self
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Base RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The kernel sequence.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Footprint in paper units (MB), as published in Tables II/IV.
    pub fn footprint_mb_paper(&self) -> f64 {
        self.footprint_mb_paper
    }

    /// Dynamic instructions in paper units (millions).
    pub fn paper_minsns(&self) -> f64 {
        self.paper_minsns
    }

    /// Total CTAs across all kernels.
    pub fn total_ctas(&self) -> u64 {
        self.kernels.iter().map(|k| u64::from(k.n_ctas())).sum()
    }

    /// Approximate total warp instructions over all kernels, saturating
    /// at `u64::MAX`.
    pub fn approx_warp_instrs(&self) -> u64 {
        self.kernels
            .iter()
            .enumerate()
            .map(|(i, k)| k.approx_warp_instrs(self, i))
            .fold(0, u64::saturating_add)
    }

    /// Approximate total thread instructions (warp instructions × 32).
    pub fn approx_thread_instrs(&self) -> u64 {
        self.approx_warp_instrs() * u64::from(THREADS_PER_WARP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{PatternKind, WarpStream};

    fn demo() -> Workload {
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 2 }, 1024).compute_per_mem(1.0);
        Workload::new("demo", 7, vec![Kernel::new("k0", 8, 256, spec)])
            .with_footprint_mb(33.0)
            .with_paper_minsns(10_270.0)
    }

    #[test]
    fn warps_per_cta_rounds_up() {
        let spec = PatternSpec::new(PatternKind::Streaming, 64);
        let k = Kernel::new("k", 4, 100, spec);
        assert_eq!(k.warps_per_cta(), 4); // ceil(100/32)
        assert_eq!(k.total_warps(), 16);
    }

    #[test]
    fn different_warps_get_different_seeds() {
        let wl = demo();
        let k = &wl.kernels()[0];
        let a = k.stream_ctx(&wl, 0, 0, 0);
        let b = k.stream_ctx(&wl, 0, 0, 1);
        let c = k.stream_ctx(&wl, 0, 1, 0);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
        assert_ne!(b.seed, c.seed);
    }

    #[test]
    fn same_workload_same_stream() {
        let wl = demo();
        let k = &wl.kernels()[0];
        let collect = |cta, warp| {
            let mut s = k.warp_stream(&wl, 0, cta, warp);
            std::iter::from_fn(move || s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(collect(3, 2), collect(3, 2));
        assert_ne!(collect(3, 2), collect(3, 3));
    }

    #[test]
    fn metadata_is_preserved() {
        let wl = demo();
        assert_eq!(wl.footprint_mb_paper(), 33.0);
        assert_eq!(wl.paper_minsns(), 10_270.0);
        assert_eq!(wl.total_ctas(), 8);
        assert!(wl.approx_warp_instrs() > 0);
        assert_eq!(wl.approx_thread_instrs(), wl.approx_warp_instrs() * 32);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn rejects_out_of_grid_cta() {
        let wl = demo();
        let _ = wl.kernels()[0].warp_stream(&wl, 0, 99, 0);
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn rejects_empty_workload() {
        let _ = Workload::new("empty", 0, vec![]);
    }
}
