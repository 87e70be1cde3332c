//! Per-SM state and the per-SM half of a cycle (phase A).
//!
//! Everything in this module touches exactly one SM: the warp contexts,
//! the GTO scheduler queues, the L1 tag store and the MSHR file. An SM's
//! phase A reads and writes only its own [`Sm`], and stages everything
//! that needs the *shared* memory system for the flush (DESIGN.md §10).

use gsim_mem::{Cache, CacheGeometry, LineMap, Mshr};
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

/// Warp slots per SM the ready set (one bit per slot) can hold.
const MAX_WARPS: u32 = u64::BITS;

struct WarpCtx<S> {
    stream: S,
    cta: u32,
}

pub(super) struct Sm<S> {
    pub l1: Cache,
    pub mshr: Mshr,
    warps: Vec<Option<WarpCtx<S>>>,
    /// Live warp slots in dispatch order, which is GTO's age order: a
    /// slot's index here, its rank, is how many live warps are older.
    order: Vec<u32>,
    /// `rank[slot]`: the live slot's index in `order`.
    rank: Vec<u8>,
    /// The ready warps, bit `r` for the warp of rank `r`, so GTO's oldest
    /// ready warp is the lowest set bit. The last-issued warp is never
    /// kept here — see `greedy_stashed`.
    ready: u64,
    pub last_issued: Option<u32>,
    /// True when `last_issued` is ready to issue again; it is parked
    /// outside `ready`. GTO re-picks it first regardless of age, so keeping
    /// it out of the ready set skips a set/clear round-trip per greedy
    /// instruction — the issue phase's hot path.
    pub greedy_stashed: bool,
    /// The greedy warp is issuing a batch of compute instructions, one
    /// per cycle, in every cycle before this one. GTO keeps picking it
    /// whatever wakes up or is dispatched meanwhile, so those cycles are
    /// fully determined: the engine counts them as issued without
    /// stepping the SM. Warps that wake meanwhile join the ready set at
    /// their wake cycle, which leaves the same state at the next step as
    /// joining it then would.
    pub busy_until: u64,
    pub free_slots: Vec<u32>,
    /// CTA id -> warps still running, for resident CTAs.
    pub cta_remaining: LineMap<u32, u32>,
    pub chiplet: u32,
}

impl<S> Sm<S> {
    pub(super) fn new(cfg: &GpuConfig, chiplet: u32) -> Self {
        let n = cfg.warps_per_sm;
        assert!(n <= MAX_WARPS, "an SM holds at most {MAX_WARPS} warps");
        Self {
            l1: Cache::new(CacheGeometry::new(
                cfg.l1_bytes,
                cfg.l1_ways,
                cfg.line_bytes,
            )),
            mshr: Mshr::new(cfg.l1_mshrs as usize),
            warps: (0..n).map(|_| None).collect(),
            order: Vec::with_capacity(n as usize),
            rank: vec![0; n as usize],
            ready: 0,
            last_issued: None,
            greedy_stashed: false,
            busy_until: 0,
            free_slots: (0..n).rev().collect(),
            cta_remaining: LineMap::default(),
            chiplet,
        }
    }

    /// Warps resident on this SM.
    pub(super) fn live_warps(&self) -> u32 {
        self.order.len() as u32
    }

    /// Places a newly dispatched warp in a free slot as the youngest,
    /// ready to issue.
    pub(super) fn admit(&mut self, stream: S, cta: u32) {
        let slot = self.free_slots.pop().expect("checked free slots");
        self.warps[slot as usize] = Some(WarpCtx { stream, cta });
        self.rank[slot as usize] = self.order.len() as u8;
        self.order.push(slot);
        self.insert_ready(slot);
    }

    pub(super) fn insert_ready(&mut self, warp: u32) {
        if self.last_issued == Some(warp) {
            self.greedy_stashed = true;
            return;
        }
        self.ready |= 1 << self.rank[warp as usize];
    }

    /// Whether any warp could issue next cycle without a wake-up.
    pub(super) fn has_ready(&self) -> bool {
        self.greedy_stashed || self.ready != 0
    }

    /// Greedy-Then-Oldest: keep issuing the last-issued warp while it is
    /// ready; otherwise pick the oldest ready warp.
    fn pick(&mut self) -> Option<u32> {
        if self.greedy_stashed {
            self.greedy_stashed = false;
            return self.last_issued;
        }
        if self.ready == 0 {
            return None;
        }
        let r = self.ready.trailing_zeros();
        self.ready &= self.ready - 1;
        Some(self.order[r as usize])
    }

    /// The per-SM half of warp retirement: releases the slot and the CTA
    /// bookkeeping this SM owns. Returns whether the warp's CTA completed,
    /// for the flush to turn into dispatches and kernel advances.
    fn retire_local(&mut self, warp: u32) -> bool {
        let ctx = self.warps[warp as usize]
            .take()
            .expect("retiring a live warp");
        self.free_slots.push(warp);
        // Every younger warp's rank drops by one, its ready bit with it;
        // the retiring warp's own bit is clear, as it was just picked.
        let r = usize::from(self.rank[warp as usize]);
        debug_assert_eq!(self.ready >> r & 1, 0, "a retiring warp is not ready");
        self.order.remove(r);
        for &w in &self.order[r..] {
            self.rank[w as usize] -= 1;
        }
        let older = (1u64 << r) - 1;
        self.ready = (self.ready & older) | ((self.ready >> 1) & !older);
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
    /// One SM's share of a cycle: try to issue one instruction. Touches
    /// only this SM; line requests of a staged memory instruction are
    /// appended to `reqs`.
    ///
    /// Forced into `EngineCore::step`, its one caller, together with
    /// `stage_mem`: this is the engine's innermost loop, and whether the
    /// compiler inlines it on its own depends on codegen-unit placement.
    /// As a call, every step's `LaneOut` goes through memory, which
    /// cost the simulator workloads of `benchmark/` 2–7 % of their wall.
    #[inline(always)]
    pub(super) fn phase_a(&mut self, now: u64, p: &LaneParams, reqs: &mut Vec<LineReq>) -> LaneOut {
        let mut out = LaneOut::default();
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
                        let ready = self.mshr.fill_in_flight(line, now).unwrap_or(t0);
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

#[cfg(test)]
mod tests {
    use super::super::calendar::Calendar;
    use super::*;
    use gsim_rng::Rng64;
    use gsim_trace::{MemAccess, MemScale};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A warp of random ops over a small footprint — compute batches,
    /// loads, stores, atomics — then retirement.
    #[derive(Clone)]
    struct RandomWarp {
        rng: Rng64,
        ops_left: u32,
    }

    impl WarpStream for RandomWarp {
        fn next_op(&mut self) -> Option<Op> {
            self.ops_left = self.ops_left.checked_sub(1)?;
            let access = MemAccess::coalesced(self.rng.gen_range(0, 2048));
            Some(match self.rng.gen_range(0, 8) {
                0..=2 => Op::Compute {
                    n: self.rng.gen_range(1, 6) as u16,
                },
                3 => Op::Store(access),
                4 => Op::Atomic(access),
                _ => Op::Load(access),
            })
        }
    }

    /// GTO over the ready queue the bit set replaced: slots sorted by
    /// dispatch age, oldest at the back. Schedules like `phase_a` (wake
    /// drain, greedy stash, retire and pick again) over its own copy of
    /// every warp's stream.
    #[derive(Default)]
    struct SortedGto {
        streams: Vec<Option<RandomWarp>>,
        age: Vec<u64>,
        ready: Vec<u32>,
        blocked: BinaryHeap<Reverse<(u64, u32)>>,
        free_slots: Vec<u32>,
        last_issued: Option<u32>,
        greedy_stashed: bool,
        busy_until: u64,
    }

    impl SortedGto {
        fn new(n: u32) -> Self {
            Self {
                streams: vec![None; n as usize],
                age: vec![0; n as usize],
                free_slots: (0..n).rev().collect(),
                ..Self::default()
            }
        }

        fn admit(&mut self, stream: RandomWarp, age: u64) {
            let slot = self.free_slots.pop().expect("free slot");
            self.streams[slot as usize] = Some(stream);
            self.age[slot as usize] = age;
            self.insert_ready(slot);
        }

        fn insert_ready(&mut self, warp: u32) {
            if self.last_issued == Some(warp) {
                self.greedy_stashed = true;
                return;
            }
            let age = self.age[warp as usize];
            let pos = self.ready.partition_point(|&w| self.age[w as usize] > age);
            self.ready.insert(pos, warp);
        }

        /// Drains due wake-ups and issues; returns the issuing warp and
        /// its op.
        fn step(&mut self, now: u64) -> Option<(u32, Op)> {
            while let Some(&Reverse((wake, warp))) = self.blocked.peek() {
                if wake > now {
                    break;
                }
                self.blocked.pop();
                self.insert_ready(warp);
            }
            loop {
                let warp = if self.greedy_stashed {
                    self.greedy_stashed = false;
                    self.last_issued?
                } else {
                    self.ready.pop()?
                };
                let stream = self.streams[warp as usize].as_mut().expect("live");
                let Some(op) = stream.next_op() else {
                    self.streams[warp as usize] = None;
                    self.free_slots.push(warp);
                    if self.last_issued == Some(warp) {
                        self.last_issued = None;
                    }
                    continue;
                };
                if let Op::Compute { n } = op {
                    self.busy_until = now + u64::from(n);
                    self.greedy_stashed = true;
                }
                self.last_issued = Some(warp);
                return Some((warp, op));
            }
        }
    }

    /// Drives an `Sm` the way the engine does — wake-ups delivered by a
    /// calendar at their cycle, phase A outside compute batches — with
    /// random dispatch, memory latencies and time jumps, beside the
    /// sorted-queue reference, which drains a wake heap of its own when it
    /// steps; every step must issue the same warp.
    fn assert_matches_sorted_gto(seed: u64) {
        const STEPS: u32 = 12_000;
        let mut cfg = GpuConfig::paper_target(8, MemScale::default());
        cfg.warps_per_sm = MAX_WARPS;
        let p = LaneParams::from_cfg(&cfg);
        let mut sm = Sm::new(&cfg, 0);
        let mut cal = Calendar::new(MAX_WARPS as usize);
        let mut undrained = 0u64;
        let mut gto = SortedGto::new(MAX_WARPS);
        let mut rng = Rng64::seed_from_u64(seed);
        let (mut now, mut age, mut cta) = (0u64, 0u64, 0u32);
        let (mut picks, mut admitted, mut most_live) = (0u32, 0u32, 0u32);
        let mut reqs = Vec::new();
        for step in 0..STEPS {
            // CTAs of 1–8 warps now and then; a burst every 1000 steps
            // fills every free slot.
            let burst = step % 1000 < 10;
            while burst || rng.gen_bool(0.05) {
                let free = sm.free_slots.len() as u32;
                let warps = if burst {
                    free.min(8)
                } else {
                    rng.gen_range(1, 9) as u32
                };
                if warps == 0 || warps > free {
                    break;
                }
                for _ in 0..warps {
                    // Other SMs draw ages from the same counter meanwhile.
                    age += rng.gen_range(1, 4);
                    let warp = RandomWarp {
                        rng: Rng64::seed_from_u64(rng.next_u64()),
                        ops_left: rng.gen_range(1, 16) as u32,
                    };
                    gto.admit(warp.clone(), age);
                    sm.admit(warp, cta);
                }
                sm.cta_remaining.insert(cta, warps);
                cta += 1;
                admitted += warps;
            }
            most_live = most_live.max(sm.live_warps());
            // Every cycle up to now, as the engine drains every cycle
            // that holds an event.
            while undrained <= now {
                cal.drain(undrained, |warp| sm.insert_ready(warp));
                undrained += 1;
            }
            if now >= sm.busy_until {
                reqs.clear();
                let out = sm.phase_a(now, &p, &mut reqs);
                let want = gto.step(now);
                let got = out.issued.then(|| sm.last_issued.expect("issued"));
                assert_eq!(got, want.map(|(w, _)| w), "seed {seed}, step {step}");
                assert_eq!(sm.free_slots, gto.free_slots, "seed {seed}, step {step}");
                assert_eq!(sm.busy_until, gto.busy_until);
                picks += u32::from(out.issued);
                match want {
                    Some((warp, op)) if op.mem().is_some() => {
                        let mi = out.mem.expect("memory op staged");
                        assert_eq!((mi.warp, mi.blocks), (warp, op.blocks_warp()));
                        if mi.blocks {
                            // The flush's part: a random memory latency.
                            let wake = mi.base_wake.max(now + rng.gen_range(1, 300));
                            cal.push(warp, wake);
                            gto.blocked.push(Reverse((wake, warp)));
                        } else {
                            sm.insert_ready(warp);
                            gto.insert_ready(warp);
                        }
                    }
                    _ => assert!(out.mem.is_none()),
                }
                assert_eq!(cal.next(), gto.blocked.peek().map(|r| r.0 .0));
            }
            assert_eq!(sm.has_ready(), gto.greedy_stashed || !gto.ready.is_empty());
            // The next cycle, or — as the flush does when nothing can
            // issue — the next wake-up; now and then further still.
            now += 1;
            if !sm.has_ready() && now >= sm.busy_until {
                now = now.max(cal.next().unwrap_or(now));
            }
            if rng.gen_bool(0.02) {
                now += rng.gen_range(1, 100);
            }
        }
        let retired = admitted - sm.live_warps();
        assert_eq!(
            most_live, MAX_WARPS,
            "seed {seed}: no step filled every slot"
        );
        assert!(
            picks > STEPS / 2 && retired > 500,
            "seed {seed}: {picks} picks, {retired} retirements"
        );
    }

    #[test]
    fn ready_set_picks_as_the_age_sorted_queue_did() {
        for seed in [1, 2, 3, 0x5eed] {
            assert_matches_sorted_gto(seed);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 warps")]
    fn more_warps_than_the_ready_set_holds_are_rejected() {
        let mut cfg = GpuConfig::paper_target(8, MemScale::default());
        cfg.warps_per_sm = 65;
        let _ = Sm::<RandomWarp>::new(&cfg, 0);
    }
}
