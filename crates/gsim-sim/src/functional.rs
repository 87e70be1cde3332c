//! Functional simulation for miss-rate-curve collection.
//!
//! Section V.A: miss-rate curves must come from *functional* simulation —
//! a replay of the workload's address stream — because that is orders of
//! magnitude faster than detailed timing simulation, and the curve is a
//! one-time cost reused for every target-system prediction.
//!
//! Like the GPU cache model of Nugteren et al. [49], the collector models
//! the thread-level parallelism that shapes GPU reuse distances: resident
//! CTAs are scheduled round-robin onto SMs, all resident warps advance one
//! operation per round, loads filter through their SM's L1, and the
//! post-L1 stream feeds [`gsim_mem::mrc::CapacityReplay`], which counts
//! the misses of a set-associative sliced LLC at every candidate capacity
//! exactly while looking each line up once.

use gsim_mem::mrc::{CapacityReplay, MissRateCurve};
use gsim_mem::{Cache, CacheGeometry};
use gsim_trace::{MemSpace, Op, WarpStream, WorkloadModel, THREADS_PER_WARP};

use crate::config::GpuConfig;

/// Functional replay of a workload through L1s and multi-capacity LLCs.
#[derive(Debug)]
pub struct FunctionalReplay {
    replay: CapacityReplay,
    thread_instrs: u64,
    mem_thread_instrs: u64,
    line_accesses: u64,
    llc_accesses: u64,
}

impl FunctionalReplay {
    /// Replays the whole workload (synthetic or trace-driven) through an
    /// LLC at the capacity of each of `configs`, with the L1s, occupancy
    /// and SM count of the largest (by SM count) setting the interleave.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn collect<W: WorkloadModel>(wl: &W, configs: &[GpuConfig]) -> Self {
        let biggest = configs
            .iter()
            .max_by_key(|c| c.n_sms)
            .expect("need at least one configuration");
        let caps: Vec<(u64, u32)> = configs
            .iter()
            .map(|c| (c.llc_bytes_total, c.llc_slices))
            .collect();
        let mut replay = Self {
            replay: CapacityReplay::new(&caps, biggest.llc_ways, biggest.line_bytes),
            thread_instrs: 0,
            mem_thread_instrs: 0,
            line_accesses: 0,
            llc_accesses: 0,
        };
        replay.run(wl, biggest);
        replay
    }

    fn run<W: WorkloadModel>(&mut self, wl: &W, cfg: &GpuConfig) {
        // Per-SM L1s and resident warp streams (flattened CTA slots),
        // allocated once: every kernel starts with cold L1s and ends with
        // no resident warp.
        let l1_geom = CacheGeometry::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes);
        let mut l1s = vec![Cache::new(l1_geom); cfg.n_sms as usize];
        let mut resident: Vec<Vec<(u32, W::Stream)>> = (0..cfg.n_sms).map(|_| Vec::new()).collect();
        let mut cta_live: Vec<u32> = Vec::new();
        for kidx in 0..wl.n_kernels() {
            let (n_ctas, threads_per_cta) = wl.grid(kidx);
            let warps_per_cta = wl.warps_per_cta(kidx);
            let slots = (cfg.ctas_per_sm(threads_per_cta) * warps_per_cta) as usize;
            let mut next_cta: u32 = 0;
            l1s.iter_mut().for_each(Cache::reset);
            cta_live.clear();
            cta_live.resize(n_ctas as usize, warps_per_cta);
            // Pulls CTAs onto an SM while it has free slots; returns
            // whether any arrived.
            let mut fill = |slot: &mut Vec<(u32, W::Stream)>| {
                let before = slot.len();
                while slot.len() < slots && next_cta < n_ctas {
                    slot.extend(
                        (0..warps_per_cta).map(|w| (next_cta, wl.warp_stream(kidx, next_cta, w))),
                    );
                    next_cta += 1;
                }
                slot.len() > before
            };
            for slot in &mut resident {
                fill(slot);
            }
            // Round-robin advance: one op per resident warp per round.
            let mut live = true;
            while live {
                live = false;
                for (slot, l1) in resident.iter_mut().zip(&mut l1s) {
                    let mut i = 0;
                    while i < slot.len() {
                        let (cta, stream) = &mut slot[i];
                        match stream.next_op() {
                            Some(op) => {
                                live = true;
                                self.thread_instrs +=
                                    op.warp_instrs() * u64::from(THREADS_PER_WARP);
                                self.process(l1, &op);
                                i += 1;
                            }
                            None => {
                                let cta = *cta as usize;
                                slot.swap_remove(i);
                                cta_live[cta] -= 1;
                                // A CTA's last warp frees its slots.
                                live |= cta_live[cta] == 0 && fill(slot);
                            }
                        }
                    }
                }
            }
        }
    }

    fn process(&mut self, l1: &mut Cache, op: &Op) {
        let Some(access) = op.mem() else { return };
        self.mem_thread_instrs += op.warp_instrs() * u64::from(THREADS_PER_WARP);
        for line in access.lines() {
            self.line_accesses += 1;
            match (op, access.space) {
                (Op::Load(_), MemSpace::Global) => {
                    if l1.access(line, false).is_miss() {
                        self.llc_accesses += 1;
                        self.replay.access(line, false);
                    }
                }
                (Op::Store(_), _) => {
                    // Write-through, no-write-allocate.
                    self.llc_accesses += 1;
                    self.replay.access(line, true);
                }
                _ => {
                    // Atomics and bypassing loads skip the L1.
                    self.llc_accesses += 1;
                    self.replay.access(line, false);
                }
            }
        }
    }

    /// Thread instructions replayed.
    pub fn thread_instrs(&self) -> u64 {
        self.thread_instrs
    }

    /// Memory thread instructions replayed (loads/stores/atomics).
    pub fn mem_thread_instrs(&self) -> u64 {
        self.mem_thread_instrs
    }

    /// Pre-L1 line accesses replayed (every line of every memory
    /// operation, before L1 filtering) — the raw traffic a compute-
    /// intensity gate wants.
    pub fn line_accesses(&self) -> u64 {
        self.line_accesses
    }

    /// Post-L1 LLC accesses replayed.
    pub fn llc_accesses(&self) -> u64 {
        self.llc_accesses
    }

    /// The miss-rate curve (model-unit capacities → MPKI).
    pub fn curve(&self) -> MissRateCurve {
        let mpki = self.replay.mpki(self.thread_instrs);
        MissRateCurve::from_pairs(
            self.replay
                .capacities()
                .iter()
                .copied()
                .zip(mpki.iter().copied()),
        )
    }
}

/// Collects a workload's miss-rate curve over the LLC capacities of
/// `configs` (typically the scale models and candidate targets), using the
/// largest config's parallelism for the interleave — the one-time cost of
/// the paper's Figure 3 workflow.
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
pub fn collect_mrc<W: WorkloadModel>(wl: &W, configs: &[GpuConfig]) -> MissRateCurve {
    FunctionalReplay::collect(wl, configs).curve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

    fn configs() -> Vec<GpuConfig> {
        [8u32, 16, 32, 64, 128]
            .iter()
            .map(|&s| GpuConfig::paper_target(s, MemScale::default()))
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
                w[1].mpki <= w[0].mpki * 1.05,
                "MPKI should not grow with capacity: {:?}",
                mrc.points()
            );
        }
    }

    #[test]
    fn traced_replay_yields_bit_identical_mrc() {
        // A trace round-trip preserves streams exactly, so the functional
        // replay must produce the same curve to the last bit — the
        // property the serve layer's trace-driven predictions rely on.
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
        let spec = PatternSpec::new(PatternKind::Streaming, 1_000).compute_per_mem(2.0);
        let wl = Workload::new("cnt", 5, vec![Kernel::new("k", 48, 256, spec)]);
        let cfg = GpuConfig::paper_target(8, MemScale::default());
        let r = FunctionalReplay::collect(&wl, &[cfg]);
        assert_eq!(r.thread_instrs(), wl.approx_thread_instrs());
        assert!(r.llc_accesses() > 0);
    }
}
