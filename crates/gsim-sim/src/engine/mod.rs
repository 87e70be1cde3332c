//! The cycle-level simulation engine.
//!
//! One engine serves both monolithic GPUs and multi-chiplet (MCM) GPUs: a
//! monolithic GPU is a single chip(let) whose memory system is divided
//! into owner partitions (slice groups + their memory controllers); an
//! MCM GPU has those partitions per chiplet plus an inter-chiplet network
//! and first-touch page placement.
//!
//! The engine is single-threaded and advances one cycle at a time
//! (DESIGN.md §10). Every pending wake-up of a parked warp and every end
//! of a compute batch sits in one [`Calendar`]. Within a cycle:
//!
//! * **Phase A**: the cycle's calendar events are delivered; then each
//!   *due* SM — one with a warp to issue and not inside a compute batch —
//!   in ascending order picks a warp and issues, buffering an event record
//!   ([`WinRec`]) if it staged shared-memory work or completed a CTA.
//!   Phase A of one SM touches only that SM. Every other SM would issue
//!   nothing new, so it is not visited.
//! * **Flush**: one walk over the records in ascending SM order. Per
//!   record: CTA completions (dispatch, kernel sequencing), then per line
//!   request first-touch page placement, the owner partition's LLC /
//!   DRAM / crossbar share, the inter-chiplet legs and the issuing SM's
//!   MSHR file; then the warp's wake-up. The walk ends with the
//!   control-flow decision: the next cycle, a jump to the next calendar
//!   event when no SM is due, or the end.
//!
//! Parallelism lives one level up: independent simulations run side by
//! side, on `gsim-runner` in a sweep and on the service's request
//! thread and one scoped thread beside it in a predict.

mod calendar;
mod memsys;
mod sm;

use std::time::Instant;

use crate::noc::ChipletInterconnect;
use gsim_mem::{ceil_u64, LineMap, MshrOutcome};
use gsim_trace::{Workload, WorkloadModel};

use crate::chiplet::ChipletConfig;
use crate::config::GpuConfig;
use crate::stats::SimStats;
use crate::TimedOut;
use calendar::Calendar;
use memsys::{build_shards, ApplyParams, MemShard, ReqKind, ShardMap};
use sm::{LaneParams, LineKind, LineReq, MemIssue, Sm};

/// Low bits of a calendar id that hold a wake-up's warp slot: the id of
/// warp `w` of SM `s` is `s << SLOT_BITS | w` (an SM holds at most 64
/// warps), and the end of SM `s`'s compute batch is `(n_sms << SLOT_BITS)
/// + s`.
const SLOT_BITS: u32 = 6;

/// Simulated work between two looks at the clock in
/// [`Simulator::run_until`]: a cycle counts one, plus one per SM it
/// steps. A stepped SM issues at most one warp instruction and its line
/// requests, so the interval is bounded by work, not by the machine's
/// size: past a deadline, runs of Table II benchmarks returned within
/// 0.6 ms at 8 and 64 SMs and 4 ms at 1,024 (which includes freeing the
/// larger machine), against 2 ms and 10 ms at 16 Ki.
const DEADLINE_CHECK_WORK: u32 = 1 << 12;

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// The flush's verdict on how the simulation proceeds.
enum CycleOutcome {
    /// Continue at this cycle (the next one, or a jump target).
    Advance(u64),
    /// The simulation is over; the final cycle count is attached.
    Done(u64),
}

/// One SM's buffered phase-A output for a cycle that produced events (a
/// staged memory instruction and/or completed CTAs). Pure-compute and
/// idle cycles leave no record.
struct WinRec {
    sm: u32,
    completed: u32,
    mem: Option<MemIssue>,
    /// The staged line requests: `WindowOut::reqs[req_start..req_end]`.
    req_start: u32,
    req_end: u32,
}

/// Everything phase A hands to the flush for one cycle. Reused across
/// cycles so the steady state allocates nothing.
#[derive(Default)]
struct WindowOut {
    /// Event records, ascending SM by construction.
    recs: Vec<WinRec>,
    /// The cycle's request arena: every record's line requests, in
    /// record order, addressed by range.
    reqs: Vec<LineReq>,
    /// SMs that issued this cycle.
    issued: u32,
}

impl WindowOut {
    fn reqs_of(&self, rec: &WinRec) -> &[LineReq] {
        &self.reqs[rec.req_start as usize..rec.req_end as usize]
    }
}

/// Everything the engine owns *besides* the per-SM lanes and the memory
/// partitions: configuration, interconnect, kernel sequencing and
/// statistics. Kept apart from them so the flush can borrow all three
/// mutably at once.
struct EngineCore<'wl, W: WorkloadModel> {
    cfg: GpuConfig,
    wl: &'wl W,
    map: ShardMap,
    n_chiplets: u32,
    icn: Option<ChipletInterconnect>,
    page_owner: LineMap<u32>,
    page_shift: u32,
    // kernel sequencing
    kernel_idx: usize,
    next_cta: u32,
    ctas_in_flight: u32,
    /// Instruction milestones bounding the sustained-IPC window.
    milestone_10: u64,
    milestone_90: u64,
    /// Cycle at which the current kernel started (for per-kernel cycles).
    kernel_start_cycle: u64,
    stats: SimStats,
    // the calendar and the due set
    cal: Calendar,
    /// Bit `i % 64` of word `i / 64`: SM `i` is due — it has a warp to
    /// issue and is not inside a compute batch.
    due: Vec<u64>,
    /// SMs inside a compute batch: each issues every cycle, unstepped,
    /// until its batch-end event.
    n_busy: u32,
    /// SMs with a resident warp.
    n_live: u32,
}

/// The GPU timing simulator.
///
/// Create one per (configuration, workload) pair and call
/// [`Simulator::run`], or [`Simulator::run_until`] to stop at a
/// deadline; the simulator is deterministic for a given workload seed.
pub struct Simulator<'wl, W: WorkloadModel = Workload> {
    core: EngineCore<'wl, W>,
    sms: Vec<Sm<W::Stream>>,
    mem: Vec<MemShard>,
}

impl<'wl, W: WorkloadModel> Simulator<'wl, W> {
    /// Creates a monolithic-GPU simulation of `wl` on `cfg`. `wl` may be
    /// a synthetic [`Workload`] or a recorded
    /// [`TracedWorkload`](gsim_trace::TracedWorkload).
    pub fn new(cfg: GpuConfig, wl: &'wl W) -> Self {
        let sms = (0..cfg.n_sms).map(|_| Sm::new(&cfg, 0)).collect();
        let map = ShardMap::new(&cfg);
        let mem = build_shards(&cfg, map, 1);
        Self {
            core: EngineCore::new(cfg, wl, map, 1),
            sms,
            mem,
        }
    }

    /// Creates a multi-chiplet simulation of `wl` on `mcm` (Section VII.D):
    /// per-chiplet memory partitions, first-touch page placement, and a
    /// bandwidth-limited inter-chiplet network for remote accesses.
    pub fn new_mcm(mcm: &ChipletConfig, wl: &'wl W) -> Self {
        let per = &mcm.chiplet;
        let n_chiplets = mcm.n_chiplets;
        let total_sms = per.n_sms * n_chiplets;
        let sms = (0..total_sms)
            .map(|i| Sm::new(per, i / per.n_sms))
            .collect();
        let map = ShardMap::new(per);
        let mem = build_shards(per, map, n_chiplets);
        let mut cfg = per.clone();
        cfg.n_sms = total_sms;
        let mut core = EngineCore::new(cfg, wl, map, n_chiplets);
        core.icn = Some(ChipletInterconnect::from_gbs(
            n_chiplets,
            mcm.interchiplet_gbs_per_chiplet,
            per.sm_clock_ghz,
            mcm.interchiplet_latency,
        ));
        core.page_shift = mcm.page_lines.trailing_zeros();
        Self { core, sms, mem }
    }

    /// The effective configuration (for MCM runs, the per-chiplet config
    /// with `n_sms` set to the system total).
    pub fn config(&self) -> &GpuConfig {
        &self.core.cfg
    }

    /// Runs the workload to completion and returns the statistics.
    pub fn run(self) -> SimStats {
        let Ok(stats) = self.run_until(None) else {
            unreachable!("no deadline to pass")
        };
        stats
    }

    /// [`run`](Self::run), unless `deadline` passes first.
    ///
    /// # Errors
    ///
    /// Returns [`TimedOut`] — and no statistics — once `deadline` has
    /// passed: checked before the first cycle and then every 4 Ki units
    /// of simulated work (a cycle, plus one per SM it steps), so the run
    /// stops within milliseconds of the deadline at any SM count.
    pub fn run_until(self, deadline: Option<Instant>) -> Result<SimStats, TimedOut> {
        let wall = Instant::now();
        if deadline.is_some_and(|d| wall >= d) {
            return Err(TimedOut);
        }
        let Self {
            mut core,
            mut sms,
            mut mem,
        } = self;
        let params = LaneParams::from_cfg(&core.cfg);
        let ap = core.apply_params();
        let mut out = WindowOut::default();
        core.dispatch_round_robin(&mut sms, 0);
        let mut now = 0u64;
        let mut work_to_check = DEADLINE_CHECK_WORK;
        loop {
            let stepped = core.step(&mut sms, now, &params, &mut out);
            if let Some(d) = deadline {
                work_to_check = work_to_check.saturating_sub(stepped + 1);
                if work_to_check == 0 {
                    if Instant::now() >= d {
                        return Err(TimedOut);
                    }
                    work_to_check = DEADLINE_CHECK_WORK;
                }
            }
            match core.flush(&mut sms, &mut out, &mut mem, &ap, now) {
                CycleOutcome::Advance(t) => now = t,
                CycleOutcome::Done(t) => {
                    now = t;
                    break;
                }
            }
        }
        let mut stats = core.finish(now, sms.len(), &mem);
        stats.sim_wall_seconds = wall.elapsed().as_secs_f64();
        Ok(stats)
    }
}

impl<'wl, W: WorkloadModel> EngineCore<'wl, W> {
    /// A machine of `cfg.n_sms` SMs before its first dispatch, without an
    /// inter-chiplet network.
    fn new(cfg: GpuConfig, wl: &'wl W, map: ShardMap, n_chiplets: u32) -> Self {
        let n_sms = cfg.n_sms as usize;
        Self {
            map,
            n_chiplets,
            icn: None,
            page_owner: LineMap::default(),
            page_shift: 5,
            kernel_idx: 0,
            next_cta: 0,
            ctas_in_flight: 0,
            milestone_10: wl.approx_warp_instrs() / 10,
            milestone_90: wl.approx_warp_instrs() * 9 / 10,
            kernel_start_cycle: 0,
            stats: SimStats::default(),
            cal: Calendar::new((n_sms << SLOT_BITS) + n_sms),
            due: vec![0; n_sms.div_ceil(64)],
            n_busy: 0,
            n_live: 0,
            cfg,
            wl,
        }
    }

    /// `(n_ctas, threads_per_cta)` of the kernel currently dispatching.
    fn cur_grid(&self) -> (u32, u32) {
        self.wl.grid(self.kernel_idx)
    }

    /// Dispatches CTAs of the current kernel round-robin across all SMs
    /// (Table III: round-robin CTA scheduling), used at kernel launch; the
    /// warps can issue from cycle `from`.
    fn dispatch_round_robin(&mut self, sms: &mut [Sm<W::Stream>], from: u64) {
        loop {
            let mut progress = false;
            for (i, sm) in sms.iter_mut().enumerate() {
                if self.try_dispatch_one(sm, i, from) {
                    progress = true;
                }
            }
            if !progress {
                return;
            }
        }
    }

    /// Dispatches at most one CTA of the current kernel onto `sm`, SM
    /// `i`, whose warps can issue from cycle `from`; returns whether one
    /// was placed.
    ///
    /// Once per CTA, not per cycle, so it stays out of the cycle loop:
    /// where the compiler inlined it there, `sim_membound_64sm` read
    /// 5–9 % slower in rotations of the same sources with and without
    /// this attribute.
    #[inline(never)]
    fn try_dispatch_one(&mut self, sm: &mut Sm<W::Stream>, i: usize, from: u64) -> bool {
        let kernel_idx = self.kernel_idx;
        if kernel_idx >= self.wl.n_kernels() {
            return false;
        }
        let (n_ctas, threads_per_cta) = self.cur_grid();
        let warps_per_cta = self.wl.warps_per_cta(kernel_idx);
        let max_ctas = self.cfg.ctas_per_sm(threads_per_cta);
        if self.next_cta >= n_ctas
            || sm.cta_remaining.len() >= max_ctas as usize
            || (sm.free_slots.len() as u32) < warps_per_cta
        {
            return false;
        }
        let cta = self.next_cta;
        self.next_cta += 1;
        self.ctas_in_flight += 1;
        self.n_live += u32::from(sm.live_warps() == 0);
        for w in 0..warps_per_cta {
            sm.admit(self.wl.warp_stream(kernel_idx, cta, w), cta);
        }
        sm.cta_remaining.insert(cta, warps_per_cta);
        // An SM inside a compute batch becomes due at its batch end.
        if sm.busy_until <= from {
            set_bit(&mut self.due, i);
        }
        true
    }

    /// Global bookkeeping for one CTA that completed on `sm_idx` at
    /// `now`: backfill dispatch, and advance the kernel sequence when the
    /// grid has drained.
    fn on_cta_completed(&mut self, sms: &mut [Sm<W::Stream>], sm_idx: usize, now: u64) {
        self.ctas_in_flight -= 1;
        self.stats.ctas_executed += 1;
        self.try_dispatch_one(&mut sms[sm_idx], sm_idx, now + 1);
        if self.ctas_in_flight == 0 && self.next_cta >= self.cur_grid().0 {
            // Kernel barrier reached: move to the next kernel.
            self.stats.kernels_executed += 1;
            self.stats.kernel_cycles.push(now - self.kernel_start_cycle);
            self.kernel_start_cycle = now;
            self.kernel_idx += 1;
            self.next_cta = 0;
            if self.kernel_idx < self.wl.n_kernels() {
                self.dispatch_round_robin(sms, now + 1);
            }
        }
    }

    fn apply_params(&self) -> ApplyParams {
        ApplyParams {
            llc_latency: f64::from(self.cfg.llc_latency),
            line_bytes: self.cfg.line_bytes,
            crossing_latency: self
                .icn
                .as_ref()
                .map_or(0.0, |i| f64::from(i.crossing_latency())),
        }
    }

    /// Chiplet owning `line` (first-touch page placement for MCM; always
    /// 0 for monolithic GPUs).
    fn owner_of(&mut self, line: u64, toucher: u32) -> u32 {
        if self.n_chiplets == 1 {
            return 0;
        }
        let page = line >> self.page_shift;
        *self.page_owner.entry(page).or_insert(toucher)
    }

    /// Sends one staged line request through the shared memory system:
    /// first-touch placement, the owner partition, and — for a remote
    /// owner — the inter-chiplet legs (egress of the owner, ingress of
    /// the requester). Returns the cycle the response reaches the SM.
    fn resolve_req(
        &mut self,
        mem: &mut [MemShard],
        ap: &ApplyParams,
        sm_chiplet: u32,
        now: u64,
        req: &LineReq,
    ) -> u64 {
        let l1_lat = u64::from(self.cfg.l1_latency);
        let (t0, kind) = match req.kind {
            LineKind::MissLoad => (now + l1_lat, ReqKind::Load),
            LineKind::Store => (now + l1_lat, ReqKind::Store),
            LineKind::Direct(kind) => (now, kind),
        };
        let owner = self.owner_of(req.line, sm_chiplet);
        let remote = owner != sm_chiplet;
        let (sub, local_slice) = self.map.route(req.line);
        let shard = &mut mem[(owner * self.map.per_chiplet + sub) as usize];
        let r = shard.apply_one(ap, t0, req.line, local_slice, kind, remote);
        let mut done = r.local_done;
        if remote {
            let icn = self.icn.as_mut().expect("remote access implies MCM");
            done = done.max(icn.traverse(r.data_at_llc, owner, sm_chiplet, r.payload));
        }
        ceil_u64(done).max(t0 + 1)
    }

    /// Phase A of cycle `now`: delivers the cycle's calendar events, steps
    /// every due SM in ascending order — buffering its events into `out`
    /// and keeping the due set, the calendar and the busy and live counts
    /// current — and accounts the cycle. Returns the number of SMs it
    /// stepped.
    ///
    /// An SM that is not due is not stepped, as it would issue nothing
    /// new: inside a compute batch it issues the batch's next instruction
    /// whatever wakes meanwhile, and otherwise it has no warp to issue.
    fn step(
        &mut self,
        sms: &mut [Sm<W::Stream>],
        now: u64,
        params: &LaneParams,
        out: &mut WindowOut,
    ) -> u32 {
        debug_assert!(out.recs.is_empty(), "flush must drain records");
        let batch_ids = (sms.len() as u32) << SLOT_BITS;
        let (due, n_busy) = (&mut self.due, &mut self.n_busy);
        self.cal.drain(now, |id| {
            // Ready bits commute, so a wake-up may land inside a batch.
            let i = if id < batch_ids {
                let sm = &mut sms[(id >> SLOT_BITS) as usize];
                sm.insert_ready(id & ((1 << SLOT_BITS) - 1));
                if now < sm.busy_until {
                    return;
                }
                id >> SLOT_BITS
            } else {
                *n_busy -= 1;
                id - batch_ids
            };
            set_bit(due, i as usize);
        });
        let mut issued = self.n_busy;
        let mut started = 0;
        let mut stepped = 0;
        for word in 0..self.due.len() {
            let mut bits = self.due[word];
            while bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                stepped += 1;
                let sm = &mut sms[i];
                let req_start = out.reqs.len() as u32;
                let lane = sm.phase_a(now, params, &mut out.reqs);
                issued += u32::from(lane.issued);
                self.n_live -= u32::from(sm.live_warps() == 0);
                if let Some(mi) = lane.mem {
                    // Non-blocking issuers (stores) continue immediately.
                    if !mi.blocks {
                        sm.insert_ready(mi.warp);
                    }
                }
                let in_batch = sm.busy_until > now + 1;
                if in_batch {
                    started += 1;
                    self.cal.push(batch_ids + i as u32, sm.busy_until);
                }
                if in_batch || !sm.has_ready() {
                    self.due[word] &= !(1 << (i % 64));
                }
                if lane.mem.is_none() && lane.completed_ctas == 0 {
                    continue;
                }
                self.stats.l1_accesses += u64::from(lane.l1_accesses);
                self.stats.l1_misses += u64::from(lane.l1_misses);
                out.recs.push(WinRec {
                    sm: i as u32,
                    completed: lane.completed_ctas,
                    mem: lane.mem,
                    req_start,
                    req_end: out.reqs.len() as u32,
                });
            }
        }
        self.n_busy += started;
        out.issued = issued;
        self.account(now, 1, issued);
        stepped
    }

    /// The flush of cycle `now`: one walk over the cycle's records in
    /// ascending SM order. Per record, CTA completions drive dispatch and
    /// kernel sequencing; then each line request of the staged memory
    /// instruction is resolved against the shared memory system and
    /// registered with the issuing SM's MSHR file, and the warp is parked
    /// until its wake cycle. Every piece of ordered state (page owners,
    /// each partition, the inter-chiplet network, each MSHR file) sees
    /// its requests in global (SM, request) order. Ends with the decision
    /// on how the simulation proceeds.
    fn flush(
        &mut self,
        sms: &mut [Sm<W::Stream>],
        out: &mut WindowOut,
        mem: &mut [MemShard],
        ap: &ApplyParams,
        now: u64,
    ) -> CycleOutcome {
        for rec in &out.recs {
            let sm_idx = rec.sm as usize;
            for _ in 0..rec.completed {
                self.on_cta_completed(sms, sm_idx, now);
            }
            let Some(mi) = rec.mem else { continue };
            let sm = &mut sms[sm_idx];
            let mut wake = mi.base_wake;
            for req in out.reqs_of(rec) {
                let done = self.resolve_req(mem, ap, sm.chiplet, now, req);
                match req.kind {
                    LineKind::MissLoad => {
                        if sm.mshr.is_full() {
                            sm.mshr.complete_up_to(now);
                        }
                        match sm.mshr.register(req.line, done) {
                            MshrOutcome::Allocated | MshrOutcome::Full => {
                                wake = wake.max(done);
                            }
                            MshrOutcome::Merged(f) => {
                                // A merge cannot be slower than a re-fetch.
                                wake = wake.max(f.min(done));
                            }
                        }
                    }
                    // Stores are fire-and-forget: the request was charged
                    // (including the inter-chiplet legs), the warp was
                    // already re-queued in phase A.
                    LineKind::Store => {}
                    LineKind::Direct(_) => {
                        wake = wake.max(done);
                    }
                }
            }
            if mi.blocks {
                self.cal.push((rec.sm << SLOT_BITS) | mi.warp, wake);
            }
        }
        out.recs.clear();
        out.reqs.clear();

        // Control flow.
        let end = now + 1;
        if self.kernel_idx >= self.wl.n_kernels() {
            return CycleOutcome::Done(end);
        }
        if self.due.iter().any(|&w| w != 0) {
            return CycleOutcome::Advance(end);
        }
        // No SM can issue anything new before the next event: jump to it.
        let Some(next) = self.cal.next() else {
            // Nothing due, nothing pending: the machine has drained. The
            // last cycle that issued is followed by one that does not.
            return if out.issued > 0 {
                CycleOutcome::Advance(end)
            } else {
                CycleOutcome::Done(now)
            };
        };
        if next > end {
            self.account(end, next - end, self.n_busy);
        }
        CycleOutcome::Advance(next)
    }

    /// Accounts `dt` cycles from `from` in each of which `issued` SMs
    /// issue one warp instruction, the other resident SMs stall and the
    /// rest sit idle, and places a sustained-IPC milestone crossed on the
    /// way at the cycle that crosses it. Once per stepped cycle, and once
    /// per jump over quiet cycles, where only busy SMs issue.
    fn account(&mut self, from: u64, dt: u64, issued: u32) {
        let s = &mut self.stats;
        let before = s.warp_instrs;
        s.warp_instrs += dt * u64::from(issued);
        s.mem_stall_sm_cycles += dt * u64::from(self.n_live - issued);
        s.idle_sm_cycles += dt * u64::from(self.cfg.n_sms - self.n_live);
        // The end of the first cycle whose issue reaches `m`.
        let reached = |m: u64| {
            from + if before >= m {
                1
            } else {
                (m - before).div_ceil(u64::from(issued))
            }
        };
        if s.cycle_at_10pct == 0 && s.warp_instrs >= self.milestone_10 {
            s.cycle_at_10pct = reached(self.milestone_10);
        }
        if s.cycle_at_90pct == 0 && s.warp_instrs >= self.milestone_90 {
            s.cycle_at_90pct = reached(self.milestone_90);
            s.warp_instrs_window =
                before + (s.cycle_at_90pct - from) * u64::from(issued) - self.milestone_10;
        }
    }

    /// Seals the statistics once the last cycle has run, harvesting the
    /// per-partition counters (order-free sums).
    fn finish(mut self, now: u64, n_sms: usize, mem: &[MemShard]) -> SimStats {
        for shard in mem {
            self.stats.llc_accesses += shard.llc_accesses;
            self.stats.llc_misses += shard.llc_misses;
            self.stats.dram_bytes += shard.dram_bytes;
        }
        self.stats.cycles = now;
        self.stats.total_sm_cycles = now * n_sms as u64;
        self.stats.thread_instrs = self.stats.warp_instrs * 32;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::{Kernel, MemScale, Op, PatternKind, PatternSpec, WarpStream};

    fn small_cfg(n_sms: u32) -> GpuConfig {
        GpuConfig::paper_target(n_sms, MemScale::default())
    }

    fn sweep_workload(footprint_lines: u64, passes: u32, ctas: u32) -> Workload {
        let spec = PatternSpec::new(PatternKind::GlobalSweep { passes }, footprint_lines)
            .compute_per_mem(1.5);
        Workload::new("t", 9, vec![Kernel::new("k", ctas, 256, spec)])
    }

    /// The jump's bulk accounting of quiet cycles against the flush's
    /// accounting one cycle at a time, on random states: `issued` SMs
    /// (busy ones; possibly none) issue each cycle, the other resident SMs
    /// stall, the rest idle, and a milestone — random, or crossed at the
    /// first or the last quiet cycle — is placed at its crossing.
    #[test]
    fn quiet_cycles_account_as_one_cycle_at_a_time() {
        use gsim_rng::Rng64;
        let wl = sweep_workload(1_000, 1, 8);
        let mut core = Simulator::new(small_cfg(64), &wl).core;
        let mut rng = Rng64::seed_from_u64(0x9e7);
        let (mut at_first, mut at_last) = (0u32, 0u32);
        for case in 0..20_000 {
            core.n_live = rng.gen_range(0, 65) as u32;
            let issued = rng.gen_range(0, u64::from(core.n_live) + 1) as u32;
            let dt = if rng.gen_bool(0.2) {
                1
            } else {
                rng.gen_range(2, 400)
            };
            let from = rng.gen_range(1, 1 << 30);
            let before = rng.gen_range(0, 20_000);
            let milestone = |rng: &mut Rng64| match rng.gen_range(0, 4) {
                0 => before + u64::from(issued),
                1 => before + (dt - 1) * u64::from(issued) + 1,
                _ => rng.gen_range(0, 40_000),
            };
            core.milestone_10 = milestone(&mut rng);
            core.milestone_90 = core.milestone_10.max(milestone(&mut rng));
            // A milestone already passed was placed when it was crossed.
            let placed = |m: u64| if before >= m { from } else { 0 };
            core.stats = SimStats {
                warp_instrs: before,
                cycle_at_10pct: placed(core.milestone_10),
                cycle_at_90pct: placed(core.milestone_90),
                ..SimStats::default()
            };
            let mut want = core.stats.clone();
            for c in from..from + dt {
                want.warp_instrs += u64::from(issued);
                want.mem_stall_sm_cycles += u64::from(core.n_live - issued);
                want.idle_sm_cycles += u64::from(64 - core.n_live);
                for (m, at) in [
                    (core.milestone_10, &mut want.cycle_at_10pct),
                    (core.milestone_90, &mut want.cycle_at_90pct),
                ] {
                    if *at == 0 && want.warp_instrs >= m {
                        *at = c + 1;
                        at_first += u32::from(c == from && dt > 1);
                        at_last += u32::from(c == from + dt - 1 && dt > 1);
                    }
                }
                if want.cycle_at_90pct == c + 1 {
                    want.warp_instrs_window = want.warp_instrs - core.milestone_10;
                }
            }
            core.account(from, dt, issued);
            assert_eq!(
                core.stats, want,
                "case {case}: {dt} cycles from {from}, {issued} issuing"
            );
        }
        assert!(
            at_first > 100 && at_last > 100,
            "{at_first} first, {at_last} last"
        );
    }

    #[test]
    fn compute_only_workload_reaches_full_issue_rate() {
        let spec = PatternSpec::new(PatternKind::Streaming, 1)
            .compute_per_mem(0.0)
            .tail_compute(5_000);
        let wl = Workload::new("c", 1, vec![Kernel::new("k", 96, 256, spec)]);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        // 8 SMs x 1 warp instr/cycle = up to 256 thread IPC.
        assert!(
            stats.ipc() > 0.9 * 256.0,
            "compute-bound IPC {} should approach 256",
            stats.ipc()
        );
        assert!(stats.f_mem() < 0.05);
    }

    #[test]
    fn memory_bound_workload_stalls() {
        let wl = sweep_workload(200_000, 2, 96);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert!(stats.f_mem() > 0.2, "f_mem {} too low", stats.f_mem());
        assert!(stats.mpki() > 1.0, "MPKI {}", stats.mpki());
        assert!(stats.ipc() < 200.0);
    }

    #[test]
    fn a_passed_deadline_times_out_before_the_first_cycle() {
        let wl = sweep_workload(10_000, 2, 48);
        let passed = Instant::now();
        let got = Simulator::new(small_cfg(8), &wl).run_until(Some(passed));
        assert_eq!(got.err(), Some(TimedOut));
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = sweep_workload(20_000, 2, 48);
        let a = Simulator::new(small_cfg(8), &wl).run();
        let b = Simulator::new(small_cfg(8), &wl).run();
        a.assert_deterministic_eq(&b);
    }

    #[test]
    fn all_instructions_are_executed() {
        let wl = sweep_workload(10_000, 2, 48);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert_eq!(stats.warp_instrs, wl.approx_warp_instrs());
        assert_eq!(stats.ctas_executed, 48);
        assert_eq!(stats.kernels_executed, 1);
    }

    #[test]
    fn fitting_working_set_is_faster_than_thrashing() {
        // Same instruction volume; one footprint fits the 8-SM LLC
        // (2.125 MB / 8 = 2176 lines), one does not.
        let fits = sweep_workload(1_500, 8, 48);
        let thrash = sweep_workload(60_000, 8, 48);
        let f = Simulator::new(small_cfg(8), &fits).run();
        let t = Simulator::new(small_cfg(8), &thrash).run();
        assert!(
            f.ipc() > 1.5 * t.ipc() * (f.warp_instrs as f64 / t.warp_instrs as f64).min(1.0),
            "fitting {} vs thrashing {}",
            f.ipc(),
            t.ipc()
        );
        assert!(f.mpki() < t.mpki() / 2.0);
    }

    #[test]
    fn more_sms_with_proportional_resources_scale_throughput() {
        let wl = sweep_workload(60_000, 3, 768);
        let s8 = Simulator::new(small_cfg(8), &wl).run();
        let s16 = Simulator::new(small_cfg(16), &wl).run();
        let speedup = s16.ipc() / s8.ipc();
        assert!(
            (1.5..2.5).contains(&speedup),
            "8->16 SM speedup {speedup} should be ~2 for a pre-cliff sweep"
        );
    }

    #[test]
    fn too_few_ctas_leave_sms_idle() {
        // 4 CTAs round-robin onto an 8-SM machine: half the SMs idle.
        let wl = sweep_workload(20_000, 4, 4);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert!(stats.f_idle() > 0.3, "f_idle {}", stats.f_idle());
    }

    #[test]
    fn round_robin_spreads_small_grids() {
        // 8 CTAs on 8 SMs: one per SM, so no SM sits idle.
        let wl = sweep_workload(20_000, 4, 8);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert!(stats.f_idle() < 0.15, "f_idle {}", stats.f_idle());
    }

    #[test]
    fn tiny_mid_kernel_does_not_end_the_run() {
        // Regression: a kernel smaller than one SM's slot budget used to
        // strand its freshly dispatched warps when the previous kernel's
        // last warp retired mid-issue-phase, ending the simulation early.
        let spec = || PatternSpec::new(PatternKind::Streaming, 5_000).compute_per_mem(1.0);
        let wl = Workload::new(
            "seq",
            3,
            vec![
                Kernel::new("big1", 96, 256, spec()),
                Kernel::new("tiny", 4, 256, spec()),
                Kernel::new("big2", 96, 256, spec()),
            ],
        );
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert_eq!(stats.kernels_executed, 3);
        assert_eq!(stats.ctas_executed, 196);
        assert_eq!(stats.warp_instrs, wl.approx_warp_instrs());
    }

    #[test]
    fn trace_replay_is_cycle_identical_to_execution_driven() {
        // The trace-driven front-end (Accel-Sim's mode of operation) must
        // reproduce the execution-driven run exactly.
        let wl = sweep_workload(10_000, 2, 48);
        let mut bytes = Vec::new();
        gsim_trace::write_trace(&wl, &mut bytes).expect("trace serialises");
        let traced = gsim_trace::TracedWorkload::read(&bytes[..]).expect("trace loads");
        let a = Simulator::new(small_cfg(8), &wl).run();
        let b = Simulator::new(small_cfg(8), &traced).run();
        a.assert_deterministic_eq(&b);
    }

    #[test]
    fn banked_dram_punishes_random_traffic_more_than_streams() {
        let mut banked_cfg = small_cfg(8);
        banked_cfg.dram_banks_per_mc = 16;
        let stream = sweep_workload(60_000, 2, 96);
        let random = {
            let spec = PatternSpec::new(PatternKind::PointerChase, 60_000)
                .mem_ops_per_warp(40)
                .compute_per_mem(1.5);
            Workload::new("rnd", 5, vec![Kernel::new("k", 96, 256, spec)])
        };
        let slowdown = |wl: &Workload| {
            let flat = Simulator::new(small_cfg(8), wl).run().ipc();
            let banked = Simulator::new(banked_cfg.clone(), wl).run().ipc();
            flat / banked
        };
        let s_stream = slowdown(&stream);
        let s_random = slowdown(&random);
        assert!(
            s_random > s_stream,
            "row-buffer locality must matter: stream x{s_stream:.2} vs random x{s_random:.2}"
        );
    }

    #[test]
    fn mcm_simulation_runs_and_scales_with_chiplets() {
        use crate::chiplet::ChipletConfig;
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 60_000).compute_per_mem(2.0);
        let kernel = Kernel::new("k", 1536, 256, spec);
        let wl2 = Workload::new("m2", 11, vec![kernel.clone()]);
        let mcm2 = ChipletConfig::paper_mcm(2, MemScale::default());
        let mcm4 = ChipletConfig::paper_mcm(4, MemScale::default());
        let s2 = Simulator::new_mcm(&mcm2, &wl2).run();
        let s4 = Simulator::new_mcm(&mcm4, &wl2).run();
        assert_eq!(s2.warp_instrs, wl2.approx_warp_instrs());
        assert!(
            s4.ipc() > 1.3 * s2.ipc(),
            "more chiplets must help: {} -> {}",
            s2.ipc(),
            s4.ipc()
        );
    }

    #[test]
    fn mcm_is_deterministic() {
        use crate::chiplet::ChipletConfig;
        let spec = PatternSpec::new(PatternKind::PointerChase, 20_000)
            .mem_ops_per_warp(10)
            .compute_per_mem(1.0);
        let wl = Workload::new("m", 12, vec![Kernel::new("k", 512, 256, spec)]);
        let mcm = ChipletConfig::paper_mcm(2, MemScale::default());
        let a = Simulator::new_mcm(&mcm, &wl).run();
        let b = Simulator::new_mcm(&mcm, &wl).run();
        a.assert_deterministic_eq(&b);
    }

    #[test]
    fn monolithic_beats_equal_size_mcm_on_shared_data() {
        // Remote first-touch traffic through the 900 GB/s inter-chiplet
        // links must cost something relative to a monolithic chip with
        // the same SM count and aggregate resources.
        use crate::chiplet::ChipletConfig;
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 120_000).compute_per_mem(1.0);
        let kernel = Kernel::new("k", 1536, 256, spec);
        let wl = Workload::new("mono-vs-mcm", 13, vec![kernel.clone(), kernel]);
        let mcm = ChipletConfig::paper_mcm(2, MemScale::default());
        let mono = GpuConfig {
            n_sms: 128,
            sm_clock_ghz: mcm.chiplet.sm_clock_ghz,
            llc_bytes_total: mcm.chiplet.llc_bytes_total * 2,
            llc_slices: mcm.chiplet.llc_slices * 2,
            noc_gbs: mcm.chiplet.noc_gbs * 2.0,
            n_mcs: mcm.chiplet.n_mcs * 2,
            ..GpuConfig::paper_target(128, MemScale::default())
        };
        let s_mcm = Simulator::new_mcm(&mcm, &wl).run();
        let s_mono = Simulator::new(mono, &wl).run();
        assert!(
            s_mono.ipc() > s_mcm.ipc(),
            "inter-chiplet crossing must cost: mono {} vs mcm {}",
            s_mono.ipc(),
            s_mcm.ipc()
        );
    }

    #[test]
    fn kernels_execute_sequentially() {
        let spec = || PatternSpec::new(PatternKind::Streaming, 5_000).compute_per_mem(1.0);
        let wl = Workload::new(
            "seq",
            3,
            vec![
                Kernel::new("k0", 48, 256, spec()),
                Kernel::new("k1", 48, 256, spec()),
            ],
        );
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert_eq!(stats.kernels_executed, 2);
        assert_eq!(stats.ctas_executed, 96);
    }

    /// One warp of one CTA running a fixed list of ops.
    struct OneWarp(Vec<Op>);

    struct Ops(std::vec::IntoIter<Op>);

    impl WarpStream for Ops {
        fn next_op(&mut self) -> Option<Op> {
            self.0.next()
        }
    }

    impl WorkloadModel for OneWarp {
        type Stream = Ops;
        fn name(&self) -> &str {
            "one-warp"
        }
        fn n_kernels(&self) -> usize {
            1
        }
        fn grid(&self, _: usize) -> (u32, u32) {
            (1, 32)
        }
        fn warp_stream(&self, _: usize, _: u32, _: u32) -> Self::Stream {
            Ops(self.0.clone().into_iter())
        }
        fn approx_warp_instrs(&self) -> u64 {
            self.0.len() as u64
        }
    }

    /// Pins a known defect, the stale MSHR merge (DESIGN.md §10, "A stale
    /// MSHR entry answers a re-load"): entries are released only when the
    /// file is full, so a load that misses the L1 after its line's fill
    /// landed merges into the completed entry and waits for nothing, though
    /// its request was charged to the LLC. Here one warp loads line `x`,
    /// evicts it from its L1 set with `ways` more loads, and loads `x`
    /// again: the re-load costs one cycle where an LLC hit costs at least
    /// `llc_latency`. The fix moves digests; it flips this test on purpose.
    #[test]
    fn reload_after_l1_eviction_merges_into_the_completed_fill() {
        use gsim_mem::CacheGeometry;
        use gsim_trace::MemAccess;
        let cfg = small_cfg(1);
        let l1 = CacheGeometry::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes);
        let x = 1_000;
        let load = |line| Op::Load(MemAccess::coalesced(line));
        let evict: Vec<Op> = (1..=u64::from(l1.ways()))
            .map(|k| load(x + k * u64::from(l1.sets())))
            .collect();
        let without = OneWarp([vec![load(x)], evict.clone()].concat());
        let with = OneWarp([vec![load(x)], evict, vec![load(x)]].concat());
        let base = Simulator::new(cfg.clone(), &without).run();
        let stats = Simulator::new(cfg.clone(), &with).run();
        // The re-load missed the L1 and reached the LLC, where `x` hit ...
        assert_eq!(stats.l1_misses, base.l1_misses + 1);
        assert_eq!(stats.llc_accesses, base.llc_accesses + 1);
        assert_eq!(stats.llc_misses, base.llc_misses);
        // ... yet the warp did not wait for it, while every cold load did.
        assert!(base.cycles >= base.l1_misses * u64::from(cfg.llc_latency));
        assert_eq!(stats.cycles, base.cycles + 1, "the stale merge is gone");
    }
}
