//! The intra-simulation thread pool: SMs *and* memory partitions sharded
//! across worker threads.
//!
//! Each cycle runs in up to two parallel epochs (DESIGN.md §15): first
//! the workers (plus the main thread) run phase A on disjoint
//! SM shards; then, if the main thread's serial route pass put anything
//! into the partition mailboxes, the workers apply their *memory* shards
//! in parallel while the main thread applies its own; the main thread
//! finishes with the serial merge pass. A lightweight epoch barrier —
//! one release and one gather per epoch — synchronises the handoffs;
//! the mutexes are uncontended by construction (a worker locks its slot
//! only between "go" and "done", the main thread only after every
//! "done").

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use gsim_trace::WorkloadModel;

use super::memsys::{MemShard, ShardSet};
use super::sm::{LaneParams, Sm};
use super::{run_window, CycleOutcome, EngineCore, FlushScratch, SmPool, WindowOut};
use crate::stats::SimStats;

/// Spin briefly, then politely: a phase-A epoch is microseconds long, so
/// the common case resolves within the spin budget; on oversubscribed
/// hosts the yield keeps waiters from starving the workers they wait for.
fn spin_wait(mut ready: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        spins += 1;
        if spins < 128 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Shared coordination state between the main thread and the workers.
struct Control {
    /// Epoch counter; the main thread bumps it to release the workers.
    epoch: AtomicU64,
    /// What the released epoch runs: a memory apply, or else phase A.
    /// Published before each release.
    apply: AtomicBool,
    /// Cumulative per-worker completions; epoch * n_workers when an
    /// epoch's parallel work has fully finished.
    done: AtomicU64,
    /// The cycle to run, published before each phase-A release.
    now: AtomicU64,
    /// Tells released workers to exit instead of running an epoch.
    stop: AtomicBool,
    /// Set (via drop guard) by any worker that panics, so the main thread
    /// stops coordinating and lets the scope propagate the panic.
    failed: AtomicBool,
}

/// Sets `failed` if its thread unwinds; armed for a worker's whole life.
struct PanicSentinel<'a>(&'a AtomicBool);

impl Drop for PanicSentinel<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// One execution context's SM shard and its phase-A output buffer. Slot 0
/// belongs to the main thread; slots `1..threads` to the workers.
struct SmSlot<S> {
    sms: Vec<Sm<S>>,
    out: WindowOut,
}

/// All SMs during a flush: every slot's SM slice, re-locked by the main
/// thread. Global SM index `i` lives in slot `i / chunk` at offset
/// `i % chunk` (slots hold contiguous ascending SM ranges).
struct SlicePool<'a, S> {
    chunk: usize,
    total: usize,
    parts: Vec<&'a mut [Sm<S>]>,
}

impl<S> SmPool<S> for SlicePool<'_, S> {
    fn n_sms(&self) -> usize {
        self.total
    }

    fn sm_mut(&mut self, idx: usize) -> &mut Sm<S> {
        &mut self.parts[idx / self.chunk][idx % self.chunk]
    }
}

/// All memory shards during a flush: every owner group's guard, re-locked
/// by the main thread. Global shard id `m` lives in group `m % stride` at
/// offset `m / stride` (round-robin ownership balances partitions across
/// execution contexts).
struct GroupedShards<'a, 'g> {
    groups: &'a mut [MutexGuard<'g, Vec<MemShard>>],
    stride: usize,
}

impl ShardSet for GroupedShards<'_, '_> {
    fn shard_mut(&mut self, id: usize) -> &mut MemShard {
        &mut self.groups[id % self.stride][id / self.stride]
    }
}

/// Runs the prepared simulation with SMs and memory partitions sharded
/// over `threads` execution contexts (the calling thread plus
/// `threads - 1` workers). Bit-identical to the serial path for any
/// `threads`.
pub(super) fn run_sharded<W: WorkloadModel>(
    mut core: EngineCore<'_, W>,
    sms: Vec<Sm<W::Stream>>,
    mem: Vec<MemShard>,
    threads: usize,
) -> SimStats
where
    W::Stream: Send,
{
    let n_sms = sms.len();
    let n_shards = mem.len();
    let chunk = n_sms.div_ceil(threads);

    // Contiguous ascending SM shards, one slot per execution context.
    let mut slots: Vec<Mutex<SmSlot<W::Stream>>> = Vec::with_capacity(threads);
    let mut iter = sms.into_iter();
    for _ in 0..threads {
        let shard: Vec<Sm<W::Stream>> = iter.by_ref().take(chunk).collect();
        slots.push(Mutex::new(SmSlot {
            sms: shard,
            out: WindowOut::default(),
        }));
    }

    // Memory partitions round-robined over the same contexts: global
    // shard id m lives in group m % threads at offset m / threads.
    let mut groups: Vec<Vec<MemShard>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, shard) in mem.into_iter().enumerate() {
        groups[i % threads].push(shard);
    }
    let mem_groups: Vec<Mutex<Vec<MemShard>>> = groups.into_iter().map(Mutex::new).collect();

    let params = LaneParams::from_cfg(&core.cfg);
    let ap = core.apply_params();
    let n_workers = (threads - 1) as u64;
    let ctrl = Control {
        epoch: AtomicU64::new(0),
        apply: AtomicBool::new(false),
        done: AtomicU64::new(0),
        now: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        failed: AtomicBool::new(false),
    };

    let mut scratch = FlushScratch::default();
    let mut final_now = 0u64;
    std::thread::scope(|scope| {
        for t in 1..threads {
            let slot = &slots[t];
            let group = &mem_groups[t];
            let ctrl = &ctrl;
            let params = &params;
            let base_sm = (t * chunk) as u32;
            scope.spawn(move || {
                let _sentinel = PanicSentinel(&ctrl.failed);
                let mut seen = 0u64;
                loop {
                    spin_wait(|| ctrl.epoch.load(Ordering::Acquire) > seen);
                    seen += 1;
                    if ctrl.stop.load(Ordering::Acquire) {
                        break;
                    }
                    if !ctrl.apply.load(Ordering::Relaxed) {
                        // Phase A over this worker's SM shard.
                        let now = ctrl.now.load(Ordering::Relaxed);
                        let mut slot = slot.lock().expect("worker SM slot");
                        let s = &mut *slot;
                        run_window(&mut s.sms, base_sm, now, params, &mut s.out);
                    } else {
                        // Apply this worker's memory partitions.
                        let mut shards = group.lock().expect("worker mem group");
                        for shard in shards.iter_mut() {
                            shard.apply(&ap);
                        }
                    }
                    ctrl.done.fetch_add(1, Ordering::Release);
                }
            });
        }

        let mut now = 0u64;
        let mut epoch = 0u64;
        'sim: loop {
            // Phase-A epoch: release the workers, run our own shard.
            epoch += 1;
            ctrl.now.store(now, Ordering::Relaxed);
            ctrl.apply.store(false, Ordering::Relaxed);
            ctrl.epoch.store(epoch, Ordering::Release);
            {
                let mut slot = slots[0].lock().expect("main SM slot");
                let s = &mut *slot;
                run_window(&mut s.sms, 0, now, &params, &mut s.out);
            }
            spin_wait(|| {
                ctrl.done.load(Ordering::Acquire) >= epoch * n_workers
                    || ctrl.failed.load(Ordering::Acquire)
            });
            if ctrl.failed.load(Ordering::Acquire) {
                break 'sim;
            }

            // Flush: serial route, parallel apply, serial merge.
            let outcome = {
                let mut slot_guards: Vec<MutexGuard<'_, SmSlot<W::Stream>>> = slots
                    .iter()
                    .map(|m| m.lock().expect("flush SM slot"))
                    .collect();
                let mut parts = Vec::with_capacity(threads);
                let mut outs: Vec<&mut WindowOut> = Vec::with_capacity(threads);
                for g in slot_guards.iter_mut() {
                    let s = &mut **g;
                    parts.push(&mut s.sms[..]);
                    outs.push(&mut s.out);
                }
                let mut pool = SlicePool {
                    chunk,
                    total: n_sms,
                    parts,
                };
                let routed = {
                    let mut mg: Vec<MutexGuard<'_, Vec<MemShard>>> = mem_groups
                        .iter()
                        .map(|m| m.lock().expect("route mem group"))
                        .collect();
                    let mut set = GroupedShards {
                        groups: &mut mg,
                        stride: threads,
                    };
                    core.flush_route(&mut pool, &mut outs, &mut set, now, &mut scratch)
                };

                // Apply epoch, unless the cycle routed nothing: workers
                // take their groups, we take ours.
                if routed {
                    epoch += 1;
                    ctrl.apply.store(true, Ordering::Relaxed);
                    ctrl.epoch.store(epoch, Ordering::Release);
                    {
                        let mut shards = mem_groups[0].lock().expect("main mem group");
                        for shard in shards.iter_mut() {
                            shard.apply(&ap);
                        }
                    }
                    spin_wait(|| {
                        ctrl.done.load(Ordering::Acquire) >= epoch * n_workers
                            || ctrl.failed.load(Ordering::Acquire)
                    });
                    if ctrl.failed.load(Ordering::Acquire) {
                        break 'sim;
                    }
                }

                let mut mg: Vec<MutexGuard<'_, Vec<MemShard>>> = mem_groups
                    .iter()
                    .map(|m| m.lock().expect("merge mem group"))
                    .collect();
                let mut set = GroupedShards {
                    groups: &mut mg,
                    stride: threads,
                };
                core.flush_merge(&mut pool, &mut outs, &mut set, now, &scratch)
            };
            match outcome {
                CycleOutcome::Advance(t) => now = t,
                CycleOutcome::Done(t) => {
                    now = t;
                    break;
                }
            }
        }
        final_now = now;
        ctrl.stop.store(true, Ordering::Release);
        ctrl.epoch.store(epoch + 1, Ordering::Release);
    });

    // Reassemble the shard set in global id order for the final harvest.
    let mut group_iters: Vec<_> = mem_groups
        .into_iter()
        .map(|m| m.into_inner().expect("mem group intact").into_iter())
        .collect();
    let mem: Vec<MemShard> = (0..n_shards)
        .map(|id| group_iters[id % threads].next().expect("shard accounted"))
        .collect();
    core.finish(final_now, n_sms, &mem)
}
