//! Per-SM state and the per-SM half of a cycle (phase A).
//!
//! Everything in this module touches exactly one SM: the warp contexts,
//! the GTO scheduler queues, the L1 tag store and the MSHR file. An SM's
//! phase A reads and writes only its own [`Sm`], and stages everything
//! that needs the *shared* memory system for the flush (DESIGN.md §10).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use gsim_mem::{Cache, CacheGeometry, Mshr};
use gsim_trace::{MemSpace, Op, WarpStream};

use super::memsys::ReqKind;
use crate::config::GpuConfig;

/// The per-SM configuration slice phase A needs.
#[derive(Debug, Clone, Copy)]
pub(super) struct LaneParams {
    pub l1_latency: u64,
}

impl LaneParams {
    pub(super) fn from_cfg(cfg: &GpuConfig) -> Self {
        Self {
            l1_latency: u64::from(cfg.l1_latency),
        }
    }
}

/// How the flush must apply one staged line request to the shared
/// memory system.
#[derive(Debug, Clone, Copy)]
pub(super) enum LineKind {
    /// A cached global load that missed the L1: request at `now + l1_lat`,
    /// then register the fill with this SM's MSHR file.
    MissLoad,
    /// A write-through store: fire-and-forget at `now + l1_lat`.
    Store,
    /// An L1-bypassing access (atomics, non-global loads): request at
    /// `now` and wait for the response.
    Direct(ReqKind),
}

/// One cache line the issuing warp sends into the shared memory system.
#[derive(Debug, Clone, Copy)]
pub(super) struct LineReq {
    pub line: u64,
    pub kind: LineKind,
}

/// The memory instruction (at most one per SM per cycle) staged by phase
/// A for resolution in the flush.
#[derive(Debug, Clone, Copy)]
pub(super) struct MemIssue {
    /// The issuing warp; the flush re-queues it once its wake cycle is known.
    pub warp: u32,
    /// Wake lower bound from per-SM effects alone (L1 hits, `now + 1`).
    pub base_wake: u64,
    /// Whether the warp blocks until the response (loads/atomics) or
    /// continues immediately (stores).
    pub blocks: bool,
}

/// Everything one SM's phase A hands to the window for one cycle, except
/// the staged line requests: those go straight into the window's request
/// arena, so a cycle's hand-off is a small value and allocates nothing.
#[derive(Debug, Default)]
pub(super) struct LaneOut {
    /// Did this SM issue an instruction this cycle?
    pub issued: bool,
    /// L1 lookups performed.
    pub l1_accesses: u32,
    /// L1 misses taken.
    pub l1_misses: u32,
    /// CTAs that fully retired on this SM this cycle.
    pub completed_ctas: u32,
    /// The staged memory instruction, if one issued.
    pub mem: Option<MemIssue>,
}

/// Bits of a wake-heap key that hold the warp slot.
const WARP_BITS: u32 = 16;

pub(super) struct WarpCtx<S> {
    pub stream: S,
    pub cta: u32,
    pub age: u64,
}

pub(super) struct Sm<S> {
    pub l1: Cache,
    pub mshr: Mshr,
    pub warps: Vec<Option<WarpCtx<S>>>,
    /// Ready warp indices sorted by age descending (back = oldest, so the
    /// GTO fallback pick is a `pop`). The last-issued warp is never kept
    /// here — see `greedy_stashed`.
    pub ready: Vec<u32>,
    /// Parked warps, earliest wake-up first, as `wake << WARP_BITS | warp`:
    /// ordered as the pair is, in half the bytes to sift.
    blocked: BinaryHeap<Reverse<u64>>,
    pub last_issued: Option<u32>,
    /// True when `last_issued` is ready to issue again; it is parked
    /// outside `ready`. GTO re-picks it first regardless of age, so keeping
    /// it out of the sorted vector skips an insert/search/remove round-trip
    /// per greedy instruction — the issue phase's hot path.
    pub greedy_stashed: bool,
    /// The greedy warp is issuing a batch of compute instructions, one
    /// per cycle, in every cycle before this one. GTO keeps picking it
    /// whatever wakes up or is dispatched meanwhile, so those cycles are
    /// fully determined: the window counts them as issued without
    /// stepping the SM (wake-ups due meanwhile drain, age-sorted as ever,
    /// at the first cycle that is stepped again).
    pub busy_until: u64,
    pub free_slots: Vec<u32>,
    /// CTA id -> warps still running, for resident CTAs.
    pub cta_remaining: HashMap<u32, u32>,
    pub live_warps: u32,
    pub chiplet: u32,
}

impl<S> Sm<S> {
    pub(super) fn new(cfg: &GpuConfig, chiplet: u32) -> Self {
        let n = cfg.warps_per_sm;
        assert!(n <= 1 << WARP_BITS, "{n} warp slots exceed a wake key");
        Self {
            l1: Cache::new(CacheGeometry::new(
                cfg.l1_bytes,
                cfg.l1_ways,
                cfg.line_bytes,
            )),
            mshr: Mshr::new(cfg.l1_mshrs as usize),
            warps: (0..n).map(|_| None).collect(),
            ready: Vec::with_capacity(n as usize),
            blocked: BinaryHeap::with_capacity(n as usize),
            last_issued: None,
            greedy_stashed: false,
            busy_until: 0,
            free_slots: (0..n).rev().collect(),
            cta_remaining: HashMap::new(),
            live_warps: 0,
            chiplet,
        }
    }

    pub(super) fn insert_ready(&mut self, warp: u32) {
        if self.last_issued == Some(warp) {
            self.greedy_stashed = true;
            return;
        }
        let age = self.warps[warp as usize].as_ref().expect("live warp").age;
        let pos = self
            .ready
            .partition_point(|&w| self.warps[w as usize].as_ref().expect("live").age > age);
        self.ready.insert(pos, warp);
    }

    /// Parks `warp` until cycle `wake`.
    pub(super) fn park(&mut self, warp: u32, wake: u64) {
        self.blocked
            .push(Reverse(wake << WARP_BITS | u64::from(warp)));
    }

    /// The earliest wake-up among the parked warps.
    pub(super) fn next_wake(&self) -> Option<u64> {
        self.blocked.peek().map(|&Reverse(key)| key >> WARP_BITS)
    }

    /// Whether any warp could issue next cycle without a wake-up.
    pub(super) fn has_ready(&self) -> bool {
        !self.ready.is_empty() || self.greedy_stashed
    }

    /// Greedy-Then-Oldest: keep issuing the last-issued warp while it is
    /// ready; otherwise pick the oldest ready warp.
    fn pick(&mut self) -> Option<u32> {
        if self.greedy_stashed {
            self.greedy_stashed = false;
            return self.last_issued;
        }
        self.ready.pop()
    }

    /// The per-SM half of warp retirement: releases the slot and the CTA
    /// bookkeeping this SM owns. Returns whether the warp's CTA completed,
    /// for the flush to turn into dispatches and kernel advances.
    fn retire_local(&mut self, warp: u32) -> bool {
        let ctx = self.warps[warp as usize]
            .take()
            .expect("retiring a live warp");
        self.free_slots.push(warp);
        self.live_warps -= 1;
        if self.last_issued == Some(warp) {
            self.last_issued = None;
            self.greedy_stashed = false;
        }
        let remaining = self
            .cta_remaining
            .get_mut(&ctx.cta)
            .expect("warp belongs to a resident CTA");
        *remaining -= 1;
        let cta_done = *remaining == 0;
        if cta_done {
            self.cta_remaining.remove(&ctx.cta);
        }
        cta_done
    }
}

impl<S: WarpStream> Sm<S> {
    /// One SM's share of a cycle: drain due wake-ups, then try to issue
    /// one instruction. Touches only this SM; line requests of a staged
    /// memory instruction are appended to `reqs`.
    ///
    /// Forced into `run_window`, its one caller, together with
    /// `stage_mem`: this is the engine's innermost loop, and whether the
    /// compiler inlines it on its own depends on codegen-unit placement.
    /// As a call, every stalled SM's `LaneOut` goes through memory, which
    /// cost the simulator workloads of `benchmark/` 2–7 % of their wall.
    #[inline(always)]
    pub(super) fn phase_a(&mut self, now: u64, p: &LaneParams, reqs: &mut Vec<LineReq>) -> LaneOut {
        let mut out = LaneOut::default();
        // Wake phase.
        while let Some(&Reverse(key)) = self.blocked.peek() {
            if key >> WARP_BITS > now {
                break;
            }
            self.blocked.pop();
            self.insert_ready(key as u32 & ((1 << WARP_BITS) - 1));
        }
        // Issue phase.
        while let Some(warp) = self.pick() {
            let ctx = self.warps[warp as usize]
                .as_mut()
                .expect("picked live warp");
            match ctx.stream.next_op() {
                None => {
                    // Warp retired; pick another warp this same cycle.
                    out.completed_ctas += u32::from(self.retire_local(warp));
                    continue;
                }
                Some(Op::Compute { n }) => {
                    // One instruction now, the rest of the batch in the
                    // following cycles; then the warp is ready again.
                    self.busy_until = now + u64::from(n);
                    self.greedy_stashed = true;
                }
                Some(op) => self.stage_mem(warp, now, &op, p, &mut out, reqs),
            }
            self.last_issued = Some(warp);
            out.issued = true;
            break;
        }
        out
    }

    /// The per-SM part of issuing one memory op: L1 lookups and MSHR
    /// probes now; every line that needs the shared memory system is
    /// staged for the flush, which re-queues the issuing warp once its
    /// wake cycle is known.
    #[inline(always)]
    fn stage_mem(
        &mut self,
        warp: u32,
        now: u64,
        op: &Op,
        p: &LaneParams,
        out: &mut LaneOut,
        reqs: &mut Vec<LineReq>,
    ) {
        let access = op.mem().expect("memory op");
        let kind = match op {
            Op::Load(_) => ReqKind::Load,
            Op::Store(_) => ReqKind::Store,
            Op::Atomic(_) => ReqKind::Atomic,
            Op::Compute { .. } => unreachable!("compute is not a memory op"),
        };
        let mut base_wake = now + 1;
        for line in access.lines() {
            match (kind, access.space) {
                (ReqKind::Load, MemSpace::Global) => {
                    // L1 lookup (write-through caches: loads only).
                    out.l1_accesses += 1;
                    let t0 = now + p.l1_latency;
                    if self.l1.access(line, false).is_hit() {
                        let ready = match self.mshr.pending_fill(line) {
                            Some(fill) if fill > now => fill,
                            _ => t0,
                        };
                        base_wake = base_wake.max(ready);
                    } else {
                        out.l1_misses += 1;
                        reqs.push(LineReq {
                            line,
                            kind: LineKind::MissLoad,
                        });
                    }
                }
                (ReqKind::Store, _) => {
                    // Write-through, no-write-allocate: straight to the LLC.
                    reqs.push(LineReq {
                        line,
                        kind: LineKind::Store,
                    });
                }
                _ => {
                    // Atomics (and any bypassing access) skip the L1.
                    reqs.push(LineReq {
                        line,
                        kind: LineKind::Direct(kind),
                    });
                }
            }
        }
        out.mem = Some(MemIssue {
            warp,
            base_wake,
            blocks: op.blocks_warp(),
        });
    }
}
