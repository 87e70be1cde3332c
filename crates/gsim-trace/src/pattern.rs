//! Access-pattern families and the deterministic warp-stream generator.

use std::sync::Arc;

use gsim_rng::Rng64;

use crate::op::{MemAccess, MemSpace, Op};

/// Line-address offset of the shared "hot" region (atomically updated
/// frontier counters, tree roots, …), kept disjoint from workload data.
pub const HOT_REGION_BASE: u64 = 1 << 40;

/// A stream of warp-level operations.
///
/// Streams are created per (kernel, CTA, warp) and are deterministic: the
/// same workload seed always yields the same trace, which keeps simulator
/// runs reproducible and lets the functional miss-rate-curve collector see
/// exactly the traffic the timing simulator sees.
pub trait WarpStream {
    /// Produces the next operation, or `None` when the warp has retired.
    fn next_op(&mut self) -> Option<Op>;
}

/// How a warp walks memory. See the crate docs for which benchmark families
/// map to which kind.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternKind {
    /// The grid collectively sweeps the whole footprint once per pass, each
    /// warp walking an interleaved stride-`total_warps` slice. Reuse exists
    /// only *across* passes, with an LLC-level reuse distance of about the
    /// footprint — a flat miss-rate curve below the footprint and a sharp
    /// cliff once the LLC holds it (dct, fwt, pf, at, …).
    GlobalSweep {
        /// Number of passes over the footprint.
        passes: u32,
    },
    /// Single cold pass over the footprint: (almost) zero data reuse, as
    /// the paper describes for ht.
    Streaming,
    /// Random accesses over a mixture of nested working-set levels, giving
    /// a gradually declining miss-rate curve (bfs, sr, gr).
    WorkingSetMix {
        /// `(weight, fraction_of_footprint)` levels; weights are
        /// normalised internally. Fractions above 1.0 model streaming
        /// regions larger than the nominal footprint that never fit any
        /// cache of interest.
        levels: Vec<(f64, f64)>,
    },
    /// Warp-private tiles re-swept `reuses` times before moving on —
    /// blocked/tiling kernels whose reuse is captured close to the SM
    /// (gemm, 2mm).
    Tiled {
        /// Lines per tile.
        tile_lines: u64,
        /// Times each tile is re-walked.
        reuses: u32,
    },
    /// Uniformly random (pointer-chasing) accesses over the footprint
    /// (btree traversals).
    PointerChase,
}

/// Shared hot-data behaviour layered on a base pattern: with probability
/// `prob` a memory op becomes an L1-bypassing atomic on one of `hot_lines`
/// lines shared by *all* CTAs. Because a line lives in exactly one LLC
/// slice, a small hot set makes ever more SMs camp on the same few slices
/// as the system scales — the paper's second sub-linear mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedHotSpec {
    /// Probability that a memory op targets the hot region.
    pub prob: f64,
    /// Number of distinct hot lines.
    pub hot_lines: u64,
}

/// Full description of a kernel's memory behaviour.
///
/// Built with a fluent builder:
///
/// ```
/// use gsim_trace::{PatternKind, PatternSpec};
///
/// let spec = PatternSpec::new(PatternKind::PointerChase, 1 << 20)
///     .mem_ops_per_warp(128)
///     .compute_per_mem(1.5)
///     .divergence(4);
/// assert_eq!(spec.footprint_lines(), 1 << 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSpec {
    kind: PatternKind,
    footprint_lines: u64,
    mem_ops_per_warp: u32,
    compute_per_mem: f64,
    write_frac: f64,
    divergence: u8,
    shared_hot: Option<SharedHotSpec>,
    tail_compute: u32,
}

impl PatternSpec {
    /// Creates a spec for `kind` over a footprint of `footprint_lines`
    /// 128 B lines, with defaults: 64 memory ops per warp (where the kind
    /// does not derive its own count), 2 compute instructions per memory
    /// op, no stores, fully coalesced, no shared hot set.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_lines` is zero.
    pub fn new(kind: PatternKind, footprint_lines: u64) -> Self {
        assert!(footprint_lines > 0, "footprint must be non-empty");
        Self {
            kind,
            footprint_lines,
            mem_ops_per_warp: 64,
            compute_per_mem: 2.0,
            write_frac: 0.0,
            divergence: 1,
            shared_hot: None,
            tail_compute: 0,
        }
    }

    /// Sets the number of memory ops per warp (ignored by
    /// [`PatternKind::GlobalSweep`] and [`PatternKind::Streaming`], which
    /// derive it from footprint coverage).
    pub fn mem_ops_per_warp(mut self, n: u32) -> Self {
        self.mem_ops_per_warp = n;
        self
    }

    /// Sets the arithmetic intensity: compute instructions interleaved per
    /// memory op (fractional values are realised exactly on average via an
    /// accumulator).
    pub fn compute_per_mem(mut self, r: f64) -> Self {
        assert!(r >= 0.0, "compute/mem ratio must be non-negative");
        self.compute_per_mem = r;
        self
    }

    /// Sets the fraction of memory ops that are stores.
    pub fn write_frac(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "write fraction must be in [0,1]");
        self.write_frac = f;
        self
    }

    /// Sets the number of 128 B transactions per memory op (memory
    /// divergence), clamped to `1..=32`.
    pub fn divergence(mut self, txns: u8) -> Self {
        self.divergence = txns.clamp(1, 32);
        self
    }

    /// Layers a shared hot set (see [`SharedHotSpec`]) on the base pattern.
    pub fn shared_hot(mut self, prob: f64, hot_lines: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0,1]");
        assert!(hot_lines > 0, "hot set must be non-empty");
        self.shared_hot = Some(SharedHotSpec { prob, hot_lines });
        self
    }

    /// Adds a compute-only epilogue of `n` instructions per warp (used for
    /// workloads whose instruction volume dwarfs their memory traffic).
    pub fn tail_compute(mut self, n: u32) -> Self {
        self.tail_compute = n;
        self
    }

    /// The pattern kind.
    pub fn kind(&self) -> &PatternKind {
        &self.kind
    }

    /// Footprint in 128 B lines.
    pub fn footprint_lines(&self) -> u64 {
        self.footprint_lines
    }

    /// The shared hot set, if configured.
    pub fn hot(&self) -> Option<SharedHotSpec> {
        self.shared_hot
    }

    /// `(lines of the footprint per warp, memory ops per warp)` in a grid
    /// of `total_warps` warps.
    fn per_warp(&self, total_warps: u64) -> (u64, u64) {
        let lines = self.footprint_lines.div_ceil(total_warps.max(1)).max(1);
        let ops = match &self.kind {
            PatternKind::GlobalSweep { passes } => lines * u64::from(*passes),
            PatternKind::Streaming => lines,
            _ => u64::from(self.mem_ops_per_warp),
        };
        (lines, ops)
    }

    /// Memory ops a warp with context `ctx` will execute.
    pub fn mem_ops_for(&self, ctx: &StreamCtx) -> u64 {
        self.per_warp(ctx.total_warps).1
    }

    /// Approximate warp instructions a warp with context `ctx` executes
    /// (memory ops + interleaved compute + epilogue), saturating at
    /// `u64::MAX` for an absurd compute ratio.
    pub fn warp_instrs_for(&self, ctx: &StreamCtx) -> u64 {
        let m = self.mem_ops_for(ctx);
        m.saturating_add((m as f64 * self.compute_per_mem) as u64)
            .saturating_add(u64::from(self.tail_compute))
    }
}

/// Placement of a warp within its kernel's grid, used to partition work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCtx {
    /// Index of this warp across the whole grid (CTA-major).
    pub global_warp: u64,
    /// Total warps in the grid.
    pub total_warps: u64,
    /// Per-stream RNG seed (derived from workload seed, kernel, CTA, warp).
    pub seed: u64,
}

/// The address sequence of a kind that wraps around its lines as the op
/// number `i` grows, as the strides of a cursor: an add and a compare per
/// op where the closed form (beside each kind in [`StreamShared::new`])
/// divides two to five times. Warp `g` starts at `origin = g * origin_mul
/// % footprint` with `off = 0`. An op lands on `(origin + off) %
/// footprint`; `off` then moves `step` around `off_mod`, and after every
/// `tile` ops either goes `rewind` further, which is back to where the
/// tile began, to walk it again (`reuses` walks in all) or stays, at the
/// next tile.
#[derive(Debug, PartialEq)]
struct Walk {
    origin_mul: u64,
    step: u64,
    off_mod: u64,
    tile: u64,
    reuses: u32,
    rewind: u64,
}

/// What every warp stream of one kernel reads and none writes: the spec
/// and what follows from it and the grid alone. Built once per
/// [`Kernel`](crate::Kernel) and shared by its streams, so creating a
/// stream allocates nothing and a stream is only its own cursor.
#[derive(Debug, PartialEq)]
pub(crate) struct StreamShared {
    pub(crate) spec: PatternSpec,
    total_warps: u64,
    mem_ops_total: u64,
    /// `None` for the kinds that do not wrap.
    walk: Option<Walk>,
    /// Normalised cumulative level weights for `WorkingSetMix`.
    mix_cdf: Vec<(f64, u64)>,
}

impl StreamShared {
    /// # Panics
    ///
    /// Panics on a `Tiled` spec with empty tiles.
    pub(crate) fn new(spec: PatternSpec, total_warps: u64) -> Self {
        let (lpw, mem_ops_total) = spec.per_warp(total_warps);
        let (fp, mut mix_cdf) = (spec.footprint_lines, Vec::new());
        let walk = match &spec.kind {
            // (g + (i % lpw) * total_warps) % fp: a "tile" is one pass.
            PatternKind::GlobalSweep { .. } => {
                let step = total_warps % fp;
                let pass = u128::from(lpw) * u128::from(step) % u128::from(fp);
                Some(Walk {
                    origin_mul: 1,
                    step,
                    off_mod: fp,
                    tile: lpw,
                    reuses: u32::MAX,
                    rewind: fp - pass as u64,
                })
            }
            // (g * lpw % fp + (tile * tile_lines + i % tile_lines) % lpw) % fp
            // with tile = i / (tile_lines * reuses).
            PatternKind::Tiled { tile_lines, reuses } => {
                assert!(*tile_lines > 0, "tiles must be non-empty");
                Some(Walk {
                    origin_mul: lpw,
                    step: 1,
                    off_mod: lpw,
                    tile: *tile_lines,
                    reuses: *reuses,
                    rewind: lpw - tile_lines % lpw,
                })
            }
            PatternKind::WorkingSetMix { levels } => {
                let total: f64 = levels.iter().map(|(w, _)| w).sum();
                let mut acc = 0.0;
                mix_cdf.extend(levels.iter().map(|&(w, frac)| {
                    acc += w / total;
                    (acc, ((fp as f64 * frac) as u64).max(1))
                }));
                None
            }
            PatternKind::Streaming | PatternKind::PointerChase => None,
        };
        Self {
            total_warps: total_warps.max(1),
            mem_ops_total,
            walk,
            mix_cdf,
            spec,
        }
    }
}

#[derive(Debug)]
enum Phase {
    ComputeBeforeMem,
    Mem,
    Tail,
    Done,
}

/// `a + b` reduced below `n`, for `a < n` and `b <= n`.
#[inline]
fn add_mod(a: u64, b: u64, n: u64) -> u64 {
    let sum = a + b;
    sum - u64::from(sum >= n) * n
}

/// The deterministic generator realising a [`PatternSpec`] for one warp.
#[derive(Debug)]
pub struct SpecStream {
    shared: Arc<StreamShared>,
    rng: Rng64,
    /// The cursor of the kind's [`Walk`] (`at` counts the ops of the
    /// tile, `rep` the walks over it); without one, `origin` is the
    /// warp's index in the grid.
    origin: u64,
    off: u64,
    at: u64,
    rep: u32,
    tail_left: u32,
    mem_ops_left: u64,
    compute_acc: f64,
    phase: Phase,
}

impl SpecStream {
    /// Creates the stream of warp `global_warp` of the grid `shared` was
    /// built for.
    pub(crate) fn new(shared: Arc<StreamShared>, global_warp: u64, seed: u64) -> Self {
        let fp = shared.spec.footprint_lines;
        let to_origin = |w: &Walk| global_warp * w.origin_mul % fp;
        Self {
            rng: Rng64::seed_from_u64(seed),
            origin: shared.walk.as_ref().map_or(global_warp, to_origin),
            off: 0,
            at: 0,
            rep: 0,
            tail_left: shared.spec.tail_compute,
            mem_ops_left: shared.mem_ops_total,
            compute_acc: 0.0,
            phase: Phase::ComputeBeforeMem,
            shared,
        }
    }

    /// The line the kind's address sequence gives this op. The kinds
    /// indexed by op number count every op, also the hot ones that go
    /// elsewhere; the random kinds draw only when asked (`hot` unset).
    #[inline]
    fn base_line(&mut self, hot: bool) -> u64 {
        let sh = &*self.shared;
        let fp = sh.spec.footprint_lines;
        let Some(w) = &sh.walk else {
            return match sh.spec.kind {
                // g + i * total_warps
                PatternKind::Streaming => {
                    self.origin + (sh.mem_ops_total - self.mem_ops_left) * sh.total_warps
                }
                _ if hot => 0,
                PatternKind::WorkingSetMix { .. } => {
                    let u = self.rng.next_f64();
                    let level = sh.mix_cdf.iter().find(|&&(cdf, _)| u <= cdf);
                    self.rng.gen_range(0, level.map_or(fp, |&(_, lines)| lines))
                }
                _ => self.rng.gen_range(0, fp),
            };
        };
        let here = add_mod(self.origin, self.off, fp);
        self.off = add_mod(self.off, w.step, w.off_mod);
        self.at += 1;
        if self.at == w.tile {
            (self.at, self.rep) = (0, self.rep + 1);
            if self.rep < w.reuses {
                self.off = add_mod(self.off, w.rewind, w.off_mod);
            } else {
                self.rep = 0;
            }
        }
        here
    }

    #[inline]
    fn mem_op(&mut self) -> Op {
        let spec = &self.shared.spec;
        if let Some(hot) = spec.shared_hot {
            if self.rng.gen_bool(hot.prob) {
                self.base_line(true);
                // Log-uniform rank selection: the hottest line draws
                // ~ln2/ln(H) of the atomic traffic, the next octave half
                // of that, and so on — so the owning LLC slices saturate
                // one octave at a time as the system scales, giving the
                // smooth sub-linear camping decay of real shared data
                // (tree roots, frontier counters) instead of a sharp
                // saturation threshold.
                let u = self.rng.next_f64();
                let rank = (hot.hot_lines as f64).powf(u) as u64;
                let line = HOT_REGION_BASE + (rank - 1).min(hot.hot_lines - 1);
                return Op::Atomic(MemAccess {
                    line_addr: line,
                    txns: 1,
                    txn_stride_lines: 0,
                    space: MemSpace::BypassL1,
                });
            }
        }
        let (divergence, write_frac) = (spec.divergence, spec.write_frac);
        let line = self.base_line(false);
        let txns = if divergence > 1 {
            // Divergence varies per op between half and full configured width.
            self.rng
                .gen_range_inclusive(u64::from((divergence / 2).max(1)), u64::from(divergence))
                as u8
        } else {
            1
        };
        let stride = if txns > 1 {
            self.rng.gen_range_inclusive(1, 97) as u32
        } else {
            0
        };
        let access = MemAccess {
            line_addr: line,
            txns,
            txn_stride_lines: stride,
            space: MemSpace::Global,
        };
        if write_frac > 0.0 && self.rng.gen_bool(write_frac) {
            Op::Store(access)
        } else {
            Op::Load(access)
        }
    }
}

impl WarpStream for SpecStream {
    // Called once per op from the engine and the fast path, both in other
    // crates: without `#[inline]` each op is a real call whose
    // `Option<Op>` comes back through memory (DESIGN.md §10).
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        loop {
            match self.phase {
                Phase::ComputeBeforeMem => {
                    if self.mem_ops_left == 0 {
                        self.phase = Phase::Tail;
                        continue;
                    }
                    self.phase = Phase::Mem;
                    self.compute_acc += self.shared.spec.compute_per_mem;
                    let n = self.compute_acc as u16;
                    if n > 0 {
                        self.compute_acc -= f64::from(n);
                        return Some(Op::Compute { n });
                    }
                }
                Phase::Mem => {
                    let op = self.mem_op();
                    self.mem_ops_left -= 1;
                    self.phase = Phase::ComputeBeforeMem;
                    return Some(op);
                }
                Phase::Tail => {
                    if self.tail_left == 0 {
                        self.phase = Phase::Done;
                        return None;
                    }
                    let n = self.tail_left.min(u32::from(u16::MAX)) as u16;
                    self.tail_left -= u32::from(n);
                    return Some(Op::Compute { n });
                }
                Phase::Done => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(g: u64, total: u64) -> StreamCtx {
        StreamCtx {
            global_warp: g,
            total_warps: total,
            seed: 12345 + g,
        }
    }

    fn drain(spec: &PatternSpec, c: StreamCtx) -> Vec<Op> {
        let shared = Arc::new(StreamShared::new(spec.clone(), c.total_warps));
        let mut s = SpecStream::new(shared, c.global_warp, c.seed);
        std::iter::from_fn(move || s.next_op()).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let spec = PatternSpec::new(PatternKind::PointerChase, 4096).mem_ops_per_warp(50);
        let a = drain(&spec, ctx(3, 16));
        let b = drain(&spec, ctx(3, 16));
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn global_sweep_covers_footprint_exactly() {
        // 4 warps over 16 lines, 1 pass: union of accesses = all lines.
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 16).compute_per_mem(0.0);
        let mut seen = std::collections::HashSet::new();
        for g in 0..4 {
            for op in drain(&spec, ctx(g, 4)) {
                if let Some(m) = op.mem() {
                    seen.extend(m.lines());
                }
            }
        }
        assert_eq!(seen.len(), 16);
        assert_eq!(*seen.iter().max().unwrap(), 15);
    }

    #[test]
    fn global_sweep_passes_multiply_ops() {
        let c = ctx(0, 4);
        let one = PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 16);
        let four = PatternSpec::new(PatternKind::GlobalSweep { passes: 4 }, 16);
        assert_eq!(one.mem_ops_for(&c), 4);
        assert_eq!(four.mem_ops_for(&c), 16);
    }

    #[test]
    fn streaming_never_revisits_lines() {
        let spec = PatternSpec::new(PatternKind::Streaming, 64).compute_per_mem(0.0);
        let mut seen = std::collections::HashSet::new();
        for g in 0..4 {
            for op in drain(&spec, ctx(g, 4)) {
                if let Some(m) = op.mem() {
                    assert!(seen.insert(m.line_addr), "line revisited");
                }
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn compute_ratio_is_realised_on_average() {
        let spec = PatternSpec::new(PatternKind::PointerChase, 1024)
            .mem_ops_per_warp(1000)
            .compute_per_mem(1.5);
        let ops = drain(&spec, ctx(0, 1));
        let compute: u64 = ops
            .iter()
            .filter_map(|o| match o {
                Op::Compute { n } => Some(u64::from(*n)),
                _ => None,
            })
            .sum();
        let mem = ops.iter().filter(|o| o.mem().is_some()).count() as u64;
        assert_eq!(mem, 1000);
        assert_eq!(compute, 1500, "accumulator realises 1.5 exactly per 1000");
    }

    #[test]
    fn working_set_mix_respects_levels() {
        let spec = PatternSpec::new(
            PatternKind::WorkingSetMix {
                levels: vec![(0.7, 0.01), (0.3, 1.0)],
            },
            10_000,
        )
        .mem_ops_per_warp(2000)
        .compute_per_mem(0.0);
        let ops = drain(&spec, ctx(0, 1));
        let small = ops
            .iter()
            .filter_map(Op::mem)
            .filter(|m| m.line_addr < 100)
            .count();
        let frac = small as f64 / 2000.0;
        assert!(
            (0.6..0.85).contains(&frac),
            "~70% of accesses in the hot level, got {frac}"
        );
    }

    #[test]
    fn tiled_pattern_reuses_within_tile() {
        let spec = PatternSpec::new(
            PatternKind::Tiled {
                tile_lines: 4,
                reuses: 3,
            },
            1 << 20,
        )
        .mem_ops_per_warp(24)
        .compute_per_mem(0.0);
        let ops = drain(&spec, ctx(0, 1));
        let lines: Vec<u64> = ops
            .iter()
            .filter_map(|o| o.mem().map(|m| m.line_addr))
            .collect();
        // First 12 ops walk tile 0 three times.
        assert_eq!(&lines[0..4], &lines[4..8]);
        assert_eq!(&lines[0..4], &lines[8..12]);
        // Next 12 walk a different tile.
        assert_ne!(&lines[0..4], &lines[12..16]);
    }

    #[test]
    fn shared_hot_emits_atomics_in_hot_region() {
        let spec = PatternSpec::new(PatternKind::PointerChase, 1024)
            .mem_ops_per_warp(500)
            .shared_hot(0.3, 8);
        let ops = drain(&spec, ctx(0, 1));
        let atomics: Vec<&MemAccess> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Atomic(m) => Some(m),
                _ => None,
            })
            .collect();
        let frac = atomics.len() as f64 / 500.0;
        assert!((0.2..0.4).contains(&frac), "atomic fraction {frac}");
        for m in atomics {
            assert!(m.line_addr >= HOT_REGION_BASE);
            assert!(m.line_addr < HOT_REGION_BASE + 8);
            assert_eq!(m.space, MemSpace::BypassL1);
        }
    }

    #[test]
    fn write_frac_produces_stores() {
        let spec = PatternSpec::new(PatternKind::PointerChase, 1024)
            .mem_ops_per_warp(500)
            .write_frac(0.25);
        let ops = drain(&spec, ctx(0, 1));
        let stores = ops.iter().filter(|o| matches!(o, Op::Store(_))).count();
        let frac = stores as f64 / 500.0;
        assert!((0.15..0.35).contains(&frac), "store fraction {frac}");
    }

    #[test]
    fn divergence_widens_accesses() {
        let spec = PatternSpec::new(PatternKind::PointerChase, 1024)
            .mem_ops_per_warp(100)
            .divergence(8);
        let ops = drain(&spec, ctx(0, 1));
        let avg_txns: f64 = ops
            .iter()
            .filter_map(Op::mem)
            .map(|m| f64::from(m.txns))
            .sum::<f64>()
            / 100.0;
        assert!(avg_txns > 4.0, "average transactions {avg_txns}");
    }

    #[test]
    fn tail_compute_appends_epilogue() {
        let spec = PatternSpec::new(PatternKind::Streaming, 4)
            .compute_per_mem(0.0)
            .tail_compute(100_000);
        let ops = drain(&spec, ctx(0, 4));
        let total: u64 = ops.iter().map(Op::warp_instrs).sum();
        assert_eq!(total, 1 + 100_000);
        assert!(matches!(ops.last(), Some(Op::Compute { .. })));
    }
}
