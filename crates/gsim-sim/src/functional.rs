//! Functional simulation for miss-rate-curve collection.
//!
//! Section V.A: miss-rate curves must come from *functional* simulation —
//! a pass over the workload's address stream — because that is orders of
//! magnitude faster than detailed timing simulation, and the curve is a
//! one-time cost reused for every target-system prediction.
//!
//! This module holds the one collector. It samples the stream twice and
//! reads every capacity from one stack-distance pass:
//!
//! * **CTA stride:** at most [`MAX_CTAS_PER_KERNEL`] CTAs per kernel are
//!   generated, evenly strided through the grid; each capacity is read at
//!   `capacity × cta_rate` to compensate.
//! * **SHARDS:** a [`LineRouter`] keeps [`LINE_RATE`] of the distinct-line
//!   hash space and routes the kept lines across [`N_SHARDS`] spatial
//!   shards, each with its own exact [`TreeStack`]; the rescaled shard
//!   histograms merge in ascending shard order.
//!
//! The curve models a fully-associative LRU LLC fed by every line of every
//! memory operation, warp by warp: it sees neither the L1 filter nor the
//! warp interleave nor set conflicts. The forecast reads it only through
//! its cliff, which the sampled curve places where the exact replay of
//! each capacity did (DESIGN.md §14).

use std::time::Instant;

use gsim_mem::mrc::{DistanceEngine, LineRouter, MissRateCurve, StackDistanceHistogram, TreeStack};
use gsim_trace::{WarpStream, WorkloadModel, THREADS_PER_WARP};

use crate::config::GpuConfig;
use crate::TimedOut;

/// CTA-stride sampling: at most this many CTAs per kernel are generated.
pub const MAX_CTAS_PER_KERNEL: u32 = 64;

/// Spatial line-sampling keep rate (SHARDS).
pub const LINE_RATE: f64 = 0.25;

/// Spatial shards the kept lines are routed across.
pub const N_SHARDS: u32 = 8;

/// Initial time-axis slots of each shard's tree. All the trees are live
/// at once, so they start small enough to stay cache-resident together
/// and grow by compaction (distances are exact either way). The axis
/// itself is cheap (64 Ki slots are 12 KiB of rank bitmap and counts);
/// what this bounds is each tree's line map, which starts with room for
/// half the axis: with [`TreeStack::new`]'s 64 Ki slots the eight maps
/// measured 20 % slower end to end and 3.5× the peak RSS.
const SHARD_TREE_SLOTS: usize = 1 << 10;

/// Ops generated between two looks at the clock. One request can ask for
/// a single warp of millions of ops, so the deadline is checked by work
/// done, not by position in the grid; 1 Ki ops is tens of microseconds.
const DEADLINE_CHECK_OPS: u32 = 1 << 10;

/// Totals of the sampled stream, the inputs of the compute-intensity
/// gate. The gate uses only their ratio, in which the sampling rates
/// cancel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectStats {
    /// Thread instructions generated.
    pub thread_instrs: u64,
    /// Line accesses (every line of every memory operation).
    pub line_accesses: u64,
}

impl CollectStats {
    /// Raw memory traffic per thread instruction, in bytes: line accesses
    /// times the line size over instructions. Sampling-rate-free because
    /// both counters are measured on the same (sub)stream.
    pub fn intensity_bytes_per_instr(&self, line_bytes: u32) -> f64 {
        if self.thread_instrs == 0 {
            return 0.0;
        }
        self.line_accesses as f64 * f64::from(line_bytes) / self.thread_instrs as f64
    }
}

/// One collection: the curve at each configuration's LLC capacity plus
/// the stream totals it was measured from.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalCurve {
    /// LLC misses per thousand thread instructions, in input config order.
    pub mpki: Vec<f64>,
    /// Totals of the sampled stream.
    pub stats: CollectStats,
}

/// CTA-stride sampling of one kernel's grid: `(stride, n_slots)`, where
/// slot `i` generates CTA `i * stride`.
fn sampled_slots(n_ctas: u32) -> (u32, u32) {
    let stride = n_ctas.div_ceil(MAX_CTAS_PER_KERNEL).max(1);
    (stride, n_ctas.div_ceil(stride))
}

/// Collects a workload's miss-rate curve over the LLC capacities of
/// `configs` in one streaming pass on the calling thread: kernel →
/// sampled CTA → warp → op → route → record on that shard's tree. No line
/// is stored and the workload is never cloned.
///
/// **Deterministic by construction**: sampling decisions are pure
/// functions of CTA index and line address, and every shard sees its
/// lines in stream order. The reading at one capacity does not depend on
/// the other configurations, so a curve over a sub-ladder equals the
/// full ladder's at the shared sizes.
///
/// # Errors
///
/// Returns [`TimedOut`] — and no partial result — once
/// `deadline` has passed: checked before the first op and every 1 Ki
/// ops after it.
///
/// # Panics
///
/// Panics if `configs` is empty.
pub fn collect_curve<W: WorkloadModel>(
    wl: &W,
    configs: &[GpuConfig],
    deadline: Option<Instant>,
) -> Result<FunctionalCurve, TimedOut> {
    assert!(!configs.is_empty(), "need at least one configuration");
    let router = LineRouter::new(N_SHARDS, LINE_RATE);
    let mut trees: Vec<TreeStack> = (0..N_SHARDS)
        .map(|_| TreeStack::with_capacity(SHARD_TREE_SLOTS))
        .collect();
    let mut stats = CollectStats {
        thread_instrs: 0,
        line_accesses: 0,
    };
    let (mut sampled_ctas, mut total_ctas) = (0u64, 0u64);
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    if expired() {
        return Err(TimedOut);
    }
    let mut ops_to_check = DEADLINE_CHECK_OPS;
    for kernel in 0..wl.n_kernels() {
        let (n_ctas, _) = wl.grid(kernel);
        let (stride, n_slots) = sampled_slots(n_ctas);
        total_ctas += u64::from(n_ctas);
        sampled_ctas += u64::from(n_slots);
        let warps = wl.warps_per_cta(kernel);
        for slot in 0..n_slots {
            for w in 0..warps {
                let mut stream = wl.warp_stream(kernel, slot * stride, w);
                while let Some(op) = stream.next_op() {
                    ops_to_check -= 1;
                    if ops_to_check == 0 {
                        if expired() {
                            return Err(TimedOut);
                        }
                        ops_to_check = DEADLINE_CHECK_OPS;
                    }
                    stats.thread_instrs += op.warp_instrs() * u64::from(THREADS_PER_WARP);
                    let Some(access) = op.mem() else { continue };
                    for line in access.lines() {
                        stats.line_accesses += 1;
                        if let Some(s) = router.route(line) {
                            trees[s as usize].record(line);
                        }
                    }
                }
            }
        }
    }
    let hists: Vec<StackDistanceHistogram> = trees.into_iter().map(TreeStack::finish).collect();
    Ok(finish(
        &router,
        &hists,
        stats,
        (sampled_ctas, total_ctas),
        configs,
    ))
}

/// Merges the per-shard histograms (ascending shard order) and reads the
/// curve out at every config's capacity. CTA sampling is compensated by
/// evaluating each capacity at `capacity × cta_rate`.
fn finish(
    router: &LineRouter,
    hists: &[StackDistanceHistogram],
    stats: CollectStats,
    (sampled_ctas, total_ctas): (u64, u64),
    configs: &[GpuConfig],
) -> FunctionalCurve {
    let cta_rate = if total_ctas == 0 {
        1.0
    } else {
        sampled_ctas as f64 / total_ctas as f64
    };
    let capacities: Vec<u64> = configs
        .iter()
        .map(|c| {
            let capacity_lines = c.llc_bytes_total / u64::from(c.line_bytes);
            ((capacity_lines as f64 * cta_rate).round() as u64).max(1)
        })
        .collect();
    let misses = router.merge(hists).misses_at_each(&capacities);
    let kinsns = stats.thread_instrs as f64 / 1e3;
    let mpki = misses
        .into_iter()
        .map(|m| if kinsns > 0.0 { m / kinsns } else { 0.0 })
        .collect();
    FunctionalCurve { mpki, stats }
}

/// Collects a workload's miss-rate curve over the LLC capacities of
/// `configs` (typically the scale models and candidate targets) — the
/// one-time cost of the paper's Figure 3 workflow. [`collect_curve`]
/// without a deadline, keyed by capacity.
///
/// # Example
///
/// ```
/// use gsim_sim::{collect_mrc, GpuConfig};
/// use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};
///
/// let spec = PatternSpec::new(PatternKind::GlobalSweep { passes: 3 }, 3000);
/// let wl = Workload::new("demo", 5, vec![Kernel::new("k", 96, 256, spec)]);
/// let configs: Vec<GpuConfig> = [8u32, 16, 32]
///     .iter()
///     .map(|&s| GpuConfig::paper_target(s, MemScale::default()))
///     .collect();
/// let mrc = collect_mrc(&wl, &configs);
/// assert_eq!(mrc.len(), 3);
/// ```
///
/// # Panics
///
/// Panics if `configs` is empty.
pub fn collect_mrc<W: WorkloadModel>(wl: &W, configs: &[GpuConfig]) -> MissRateCurve {
    let Ok(curve) = collect_curve(wl, configs, None) else {
        unreachable!("no deadline to pass")
    };
    configs
        .iter()
        .map(|c| c.llc_bytes_total)
        .zip(curve.mpki)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_mem::mrc::NaiveStack;
    use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

    fn configs() -> Vec<GpuConfig> {
        [8u32, 16, 32, 64, 128]
            .iter()
            .map(|&s| GpuConfig::paper_target(s, MemScale::default()))
            .collect()
    }

    /// Misses of a fully-associative LRU cache of each capacity over
    /// every line of every CTA, from the quadratic reference stack: the
    /// curve the sampled pass estimates.
    fn exact_misses(wl: &Workload, configs: &[GpuConfig]) -> Vec<f64> {
        let mut stack = NaiveStack::new();
        for kernel in 0..wl.n_kernels() {
            let (n_ctas, _) = wl.grid(kernel);
            for cta in 0..n_ctas {
                for w in 0..wl.warps_per_cta(kernel) {
                    let mut stream = wl.warp_stream(kernel, cta, w);
                    while let Some(op) = stream.next_op() {
                        if let Some(access) = op.mem() {
                            stack.record_all(access.lines());
                        }
                    }
                }
            }
        }
        let hist = stack.finish();
        configs
            .iter()
            .map(|c| hist.misses_at(c.llc_bytes_total / u64::from(c.line_bytes)))
            .collect()
    }

    #[test]
    fn cliff_appears_where_the_working_set_fits() {
        // A 6000-line working set re-swept across kernel launches:
        // thrashes the 8/16-SM LLCs (2176/4352 lines), fits from the
        // 32-SM LLC (8704 lines) up.
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 6_000).compute_per_mem(1.0);
        let kernel = Kernel::new("k", 192, 256, spec);
        let wl = Workload::new("cliff", 2, vec![kernel; 6]);
        let mrc = collect_mrc(&wl, &configs());
        let pts = mrc.points();
        assert_eq!(pts.len(), 5);
        // 6000 lines fit the 32-SM LLC (8704 lines) but not the 16-SM one.
        assert!(
            pts[1].mpki > 2.0 * pts[2].mpki.max(0.01),
            "expected a cliff between {} and {}",
            pts[1].mpki,
            pts[2].mpki
        );
        // The exact stack over every CTA puts it in the same place.
        let exact = exact_misses(&wl, &configs());
        assert!(exact[1] > 2.0 * exact[2], "exact {exact:?}");
    }

    #[test]
    fn flat_curve_for_oversized_footprint() {
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 400_000).compute_per_mem(1.0);
        let kernel = Kernel::new("k", 768, 256, spec);
        let wl = Workload::new("flat", 3, vec![kernel; 2]);
        let mrc = collect_mrc(&wl, &configs());
        let pts = mrc.points();
        let ratio = pts[0].mpki / pts[4].mpki.max(1e-9);
        assert!(
            ratio < 1.5,
            "footprint >> LLC should give a flat curve, got ratio {ratio}"
        );
    }

    #[test]
    fn mpki_is_monotonically_non_increasing() {
        let spec = PatternSpec::new(
            PatternKind::WorkingSetMix {
                levels: vec![(0.5, 0.05), (0.3, 0.3), (0.2, 1.0)],
            },
            30_000,
        )
        .mem_ops_per_warp(40);
        let wl = Workload::new("mix", 4, vec![Kernel::new("k", 384, 256, spec)]);
        let mrc = collect_mrc(&wl, &configs());
        for w in mrc.points().windows(2) {
            assert!(
                w[1].mpki <= w[0].mpki,
                "MPKI should not grow with capacity: {:?}",
                mrc.points()
            );
        }
    }

    #[test]
    fn traced_replay_yields_bit_identical_mrc() {
        // A trace round-trip preserves streams exactly, so the functional
        // pass must produce the same curve to the last bit — the property
        // the serve layer's trace-driven predictions rely on.
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 2 }, 3_000).compute_per_mem(1.0);
        let wl = Workload::new("t", 6, vec![Kernel::new("k", 96, 256, spec)]);
        let mut bytes = Vec::new();
        gsim_trace::write_trace(&wl, &mut bytes).expect("write");
        let traced = gsim_trace::TracedWorkload::read(&bytes[..]).expect("read");
        let cfgs = configs();
        let a = collect_mrc(&wl, &cfgs);
        let b = collect_mrc(&traced, &cfgs);
        assert_eq!(a.points().len(), b.points().len());
        for (x, y) in a.points().iter().zip(b.points()) {
            assert_eq!(x.capacity_bytes, y.capacity_bytes);
            assert_eq!(x.mpki.to_bits(), y.mpki.to_bits());
        }
    }

    #[test]
    fn replay_counts_instructions() {
        // 48 CTAs, under the stride's 64: every CTA is generated.
        let spec = PatternSpec::new(PatternKind::Streaming, 1_000).compute_per_mem(2.0);
        let wl = Workload::new("cnt", 5, vec![Kernel::new("k", 48, 256, spec)]);
        let cfg = GpuConfig::paper_target(8, MemScale::default());
        let curve = collect_curve(&wl, &[cfg], None).unwrap();
        assert_eq!(curve.stats.thread_instrs, wl.approx_thread_instrs());
        assert!(curve.stats.line_accesses > 0);
    }
}
