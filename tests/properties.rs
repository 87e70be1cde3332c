//! Cross-crate randomized property tests on the invariants the
//! methodology relies on. Cases are generated with the in-tree
//! [`gsim_rng`] PRNG; the `ext-tests` feature multiplies the case count
//! for heavier offline soak runs.

use gpu_scale_model::core::{
    percent_error, LinearRegression, LogRegression, PowerLawRegression, Proportional,
    ScaleModelInputs, ScaleModelPredictor, ScalingPredictor, SizedMrc,
};
use gpu_scale_model::mem::mrc::{DistanceEngine, NaiveStack, TreeStack};
use gpu_scale_model::mem::{
    slice_for_line, AccessResult, BankedDramModel, Cache, CacheGeometry, DramModel, DramTiming,
    EvictedLine, Mshr, MshrOutcome, SlicedLlc,
};
use gpu_scale_model::sim::{GpuConfig, Simulator};
use gpu_scale_model::trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};
use gsim_rng::Rng64;
use std::collections::HashMap;

/// Per-property case count; `--features ext-tests` multiplies it 8x.
fn cases(default: usize) -> usize {
    if cfg!(feature = "ext-tests") {
        default * 8
    } else {
        default
    }
}

fn f64_in(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn vec_u64(rng: &mut Rng64, max_value: u64, min_len: u64, max_len: u64) -> Vec<u64> {
    let len = rng.gen_range(min_len, max_len);
    (0..len).map(|_| rng.gen_range(0, max_value)).collect()
}

/// The tree-accelerated stack-distance engine is exactly equivalent to
/// the naive Mattson stack on arbitrary traces.
#[test]
fn tree_stack_equals_naive_stack() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0001);
    for _ in 0..cases(64) {
        let trace = vec_u64(&mut rng, 200, 1, 400);
        let caps = vec_u64(&mut rng, 300, 1, 8);
        let mut tree = TreeStack::with_capacity(16); // force compactions
        let mut naive = NaiveStack::new();
        tree.record_all(trace.iter().copied());
        naive.record_all(trace.iter().copied());
        let (ht, hn) = (tree.finish(), naive.finish());
        for c in caps {
            assert_eq!(ht.misses_at(c), hn.misses_at(c));
        }
    }
}

/// Misses are monotonically non-increasing in cache capacity.
#[test]
fn stack_distance_misses_are_monotone() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0002);
    for _ in 0..cases(64) {
        let trace = vec_u64(&mut rng, 500, 1, 500);
        let mut e = TreeStack::new();
        e.record_all(trace.iter().copied());
        let h = e.finish();
        let mut prev = f64::INFINITY;
        for c in [0u64, 1, 2, 4, 8, 16, 64, 256, 1024] {
            let m = h.misses_at(c);
            assert!(m <= prev);
            prev = m;
        }
    }
}

/// An LRU cache at least as large as the number of distinct lines takes
/// only cold misses.
#[test]
fn cache_with_capacity_for_everything_only_misses_cold() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0003);
    for _ in 0..cases(64) {
        let trace = vec_u64(&mut rng, 64, 1, 300);
        let distinct = trace.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        let mut cache = Cache::new(CacheGeometry::from_sets(1, 64, 128));
        for &l in &trace {
            cache.access(l, false);
        }
        assert_eq!(cache.misses(), distinct);
    }
}

/// Proportional prediction and power-law prediction coincide when the
/// scale models scale exactly ideally.
#[test]
fn power_law_reduces_to_proportional_on_ideal_scaling() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0004);
    for _ in 0..cases(64) {
        let ipc = f64_in(&mut rng, 1.0, 10_000.0);
        let target = [32u32, 64, 128][rng.gen_range(0, 3) as usize];
        let prop_m = Proportional::fit(8, ipc, 16, 2.0 * ipc).unwrap();
        let power = PowerLawRegression::fit(8, ipc, 16, 2.0 * ipc).unwrap();
        let t = f64::from(target);
        assert!((prop_m.predict(t) - power.predict(t)).abs() / prop_m.predict(t) < 1e-9);
    }
}

/// With C = 1 and no cliff, the scale-model prediction equals
/// proportional scaling for any doubling target.
#[test]
fn scale_model_with_ideal_correction_is_proportional() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0005);
    for _ in 0..cases(64) {
        let ipc = f64_in(&mut rng, 1.0, 10_000.0);
        let steps = rng.gen_range(1, 4) as u32;
        let p = ScaleModelPredictor::new(ScaleModelInputs::new(8, ipc, 16, 2.0 * ipc)).unwrap();
        let target = 16u32 << steps;
        let expected = 2.0 * ipc * f64::from(target) / 16.0;
        assert!((p.predict(f64::from(target)) - expected).abs() < 1e-6);
    }
}

/// All two-point fits interpolate their own observations.
#[test]
fn fits_pass_through_observations() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0006);
    for _ in 0..cases(64) {
        let ipc_s = f64_in(&mut rng, 1.0, 1_000.0);
        let ratio = f64_in(&mut rng, 1.05, 2.5);
        let ipc_l = ipc_s * ratio;
        let lin = LinearRegression::fit(8, ipc_s, 16, ipc_l).unwrap();
        let pow = PowerLawRegression::fit(8, ipc_s, 16, ipc_l).unwrap();
        assert!((lin.predict(8.0) - ipc_s).abs() < 1e-6);
        assert!((lin.predict(16.0) - ipc_l).abs() < 1e-6);
        assert!((pow.predict(8.0) - ipc_s).abs() / ipc_s < 1e-9);
        assert!((pow.predict(16.0) - ipc_l).abs() / ipc_l < 1e-9);
        // Log regression is a one-parameter least-squares fit: it need not
        // interpolate, but it must stay between a half and the double of
        // the observations at those points.
        let log = LogRegression::fit(8, ipc_s, 16, ipc_l).unwrap();
        assert!(log.predict(8.0) > 0.25 * ipc_s && log.predict(8.0) < 2.0 * ipc_s);
    }
}

/// Percent error is symmetric in magnitude around the measurement and
/// zero only for exact predictions.
#[test]
fn percent_error_properties() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0007);
    for _ in 0..cases(64) {
        let real = f64_in(&mut rng, 0.001, 1e6);
        let delta = f64_in(&mut rng, 0.0, 2.0);
        assert_eq!(percent_error(real, real), 0.0);
        let e_hi = percent_error(real * (1.0 + delta), real);
        assert!((e_hi - delta * 100.0).abs() < 1e-6);
    }
}

/// A cliff is detected iff some doubling drops MPKI by more than 2x
/// (above the noise floor).
#[test]
fn cliff_detection_matches_definition() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0008);
    for _ in 0..cases(64) {
        let mpki: Vec<f64> = (0..5).map(|_| f64_in(&mut rng, 0.2, 20.0)).collect();
        let sizes = [8u32, 16, 32, 64, 128];
        let mrc = SizedMrc::new(sizes.iter().copied().zip(mpki.iter().copied()));
        let manual = mpki.windows(2).any(|w| w[1] < w[0] / 2.0);
        assert_eq!(gpu_scale_model::core::detect_cliff(&mrc).is_some(), manual);
    }
}

/// The obvious model of [`Cache`]: per set, a `Vec` of `(line, dirty)`
/// kept most-recently-used first. The packed tag store must be
/// indistinguishable from it.
struct NaiveCache {
    ways: usize,
    sets: Vec<Vec<(u64, bool)>>,
    hits: u64,
    misses: u64,
    evictions: u64,
    dirty_evictions: u64,
}

impl NaiveCache {
    fn new(sets: u32, ways: u32) -> Self {
        Self {
            ways: ways as usize,
            sets: vec![Vec::new(); sets as usize],
            hits: 0,
            misses: 0,
            evictions: 0,
            dirty_evictions: 0,
        }
    }

    fn set_mut(&mut self, line: u64) -> &mut Vec<(u64, bool)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn access(&mut self, line: u64, is_write: bool) -> AccessResult {
        let ways = self.ways;
        let set = self.set_mut(line);
        if let Some(pos) = set.iter().position(|e| e.0 == line) {
            let (line, dirty) = set.remove(pos);
            set.insert(0, (line, dirty || is_write));
            self.hits += 1;
            return AccessResult::Hit;
        }
        self.misses += 1;
        let mut evicted = None;
        if self.set_mut(line).len() == ways {
            let (line_addr, dirty) = self.set_mut(line).remove(ways - 1);
            self.evictions += 1;
            self.dirty_evictions += u64::from(dirty);
            evicted = Some(EvictedLine { line_addr, dirty });
        }
        self.set_mut(line).insert(0, (line, is_write));
        AccessResult::Miss(evicted)
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_mut(line);
        let pos = set.iter().position(|e| e.0 == line)?;
        Some(set.remove(pos).1)
    }

    fn reset(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        (self.hits, self.misses, self.evictions, self.dirty_evictions) = (0, 0, 0, 0);
    }
}

/// Drives a [`Cache`] and the naive model with one random stream of
/// accesses, invalidations, probes and resets: same hit/miss, same
/// evicted line, same counters, same residency — at the associativities
/// the configurations use and at one way, over a few sets and at the two
/// real geometries (the paper's L1 and LLC slice).
fn cache_matches_naive_model(seed: u64, ops: usize) {
    let mut rng = Rng64::seed_from_u64(seed);
    for (sets, ways) in [(0u32, 1u32), (0, 6), (0, 64), (64, 6), (64, 64)] {
        let few = [1u32, 3, 8][rng.gen_range(0, 3) as usize];
        let sets = if sets == 0 { few } else { sets };
        // Long enough to fill every set and evict from it.
        let ops = ops.max(3 * (sets * ways) as usize);
        let mut real = Cache::new(CacheGeometry::from_sets(sets, ways, 128));
        let mut naive = NaiveCache::new(sets, ways);
        // Enough distinct lines to overflow the sets, few enough to
        // re-hit; drawn from a wide range so tags and fingerprints vary.
        let universe: Vec<u64> = (0..sets * ways * 2 + 3)
            .map(|_| rng.gen_range(0, 1 << 40))
            .collect();
        let pick = |rng: &mut Rng64| universe[rng.gen_range(0, universe.len() as u64) as usize];
        for _ in 0..ops {
            let line = pick(&mut rng);
            match rng.gen_range(0, 1000) {
                0..=1 => {
                    real.reset();
                    naive.reset();
                }
                2..=80 => assert_eq!(real.invalidate(line), naive.invalidate(line)),
                _ => {
                    let is_write = rng.gen_range(0, 4) == 0;
                    assert_eq!(
                        real.access(line, is_write),
                        naive.access(line, is_write),
                        "{sets}x{ways} line {line}"
                    );
                }
            }
            let probe = pick(&mut rng);
            assert_eq!(
                real.contains(probe),
                naive.sets[(probe % u64::from(sets)) as usize]
                    .iter()
                    .any(|e| e.0 == probe)
            );
            assert_eq!(
                (
                    real.hits(),
                    real.misses(),
                    real.evictions(),
                    real.dirty_evictions()
                ),
                (
                    naive.hits,
                    naive.misses,
                    naive.evictions,
                    naive.dirty_evictions
                )
            );
        }
        let resident: usize = naive.sets.iter().map(Vec::len).sum();
        assert_eq!(real.resident_lines(), resident as u64);
    }
}

#[test]
fn cache_is_indistinguishable_from_the_naive_model() {
    for seed in 0..8 {
        cache_matches_naive_model(0x5eed_000c + seed, 2_000);
    }
}

/// The long soak of the differential test above.
#[cfg(feature = "ext-tests")]
#[test]
fn cache_is_indistinguishable_from_the_naive_model_soak() {
    for seed in 0..16 {
        cache_matches_naive_model(0x5eed_1000 + seed, 200_000);
    }
}

/// Every index of the per-line path — cache set, LLC slice, memory
/// controller — takes a mask when its divisor is a power of two and a
/// division otherwise; both must be the plain `%` of the definition, at
/// the paper's power-of-two machines and at odd ones (3, 6, 12, 24).
#[test]
fn line_indices_equal_their_modulo_definitions() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0010);
    for n in [1u32, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 133, 1024] {
        let geom = CacheGeometry::from_sets(n, 4, 128);
        let dram = DramModel::new(n, 145.0, 1.0, 100);
        let banked = BankedDramModel::new(n, 16, 145.0, 1.0, DramTiming::default());
        for _ in 0..cases(2_000) {
            let line = rng.next_u64() >> rng.gen_range(0, 64);
            let hash = |l: u64| (l.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % u64::from(n);
            assert_eq!(u64::from(geom.set_index(line)), line % u64::from(n));
            assert_eq!(u64::from(slice_for_line(line, n)), hash(line));
            assert_eq!(u64::from(dram.mc_of(line)), hash(line >> 3));
            assert_eq!(u64::from(banked.mc_of(line)), hash(line >> 3));
        }
    }
}

/// The fill words of an LLC partition time its hits exactly as a
/// `HashMap<line, latest fill>` that never forgets would: a hit entering
/// before the fill that brought its line in waits for that fill, and the
/// word holds that fill whatever came between. Requests enter the way the
/// timing engine sends them: loads and stores an L1 latency after their
/// issue cycle, atomics (which bypass the L1) at it, so entry times step
/// back by up to an L1 latency; now and then the clock jumps past every
/// fill. The partition is small, so lines are evicted and refilled.
#[test]
fn llc_fill_words_match_latest_fill_map() {
    const L1_LATENCY: u64 = 25;
    let mut rng = Rng64::seed_from_u64(0x5eed_000d);
    let mut llc = SlicedLlc::partition(16 * 1024, 3, 8, 128);
    let mut latest: HashMap<u64, u64> = HashMap::new();
    let (mut clock, mut hits, mut waits) = (0u64, 0u64, 0u64);
    for step in 0..cases(60_000) {
        clock += rng.gen_range(0, 3);
        if step % 20_000 == 19_999 {
            clock += 5_000; // every fill has landed
        }
        let line = rng.gen_range(0, 1_500);
        let (t0, is_write) = match rng.gen_range(0, 3) {
            0 => (clock + L1_LATENCY, false), // load
            1 => (clock + L1_LATENCY, true),  // store
            _ => (clock, false),              // atomic
        };
        let (result, fill_at) = llc.access_in_slice((line % 3) as u32, line, is_write);
        if result.is_hit() {
            let expected = latest[&line];
            assert_eq!(*fill_at, expected, "step {step}");
            let wait = (*fill_at > t0).then_some(*fill_at);
            assert_eq!(wait, (expected > t0).then_some(expected), "step {step}");
            hits += 1;
            waits += u64::from(wait.is_some());
        } else {
            let fill = t0 + rng.gen_range(1, 2_000);
            *fill_at = fill;
            latest.insert(line, fill);
        }
    }
    // Both answers of a hit occur often.
    assert!(
        hits > waits && waits > hits / 10,
        "{waits} waits of {hits} hits"
    );
}

/// [`Mshr`] is observably a capacity-bounded `HashMap<line, fill_done>`
/// whose landed fills are released only by a miss that finds it full:
/// merges return the primary's time (landed or not), a full file rejects
/// new lines but still merges, and a fill is in flight until it lands.
/// Fills up to 400 cycles ahead land before the file fills again, so most
/// releases empty it; up to 20 k ahead most releases keep most entries.
#[test]
fn mshr_matches_hash_map_model() {
    let mut rng = Rng64::seed_from_u64(0x5eed_000e);
    for (capacity, ahead) in [(1usize, 400), (7, 400), (384, 400), (384, 20_000)] {
        let mut real = Mshr::new(capacity);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for now in 0..cases(20_000) as u64 {
            let line = rng.gen_range(0, capacity as u64 * 3 + 2);
            if rng.gen_range(0, 10) < 2 {
                let expected = model.get(&line).copied().filter(|&d| d > now);
                assert_eq!(real.fill_in_flight(line, now), expected);
                continue;
            }
            if model.len() >= capacity {
                model.retain(|_, d| *d > now);
            }
            let done = now + rng.gen_range(1, ahead);
            let expected = if let Some(&primary) = model.get(&line) {
                MshrOutcome::Merged(primary)
            } else if model.len() >= capacity {
                MshrOutcome::Full
            } else {
                model.insert(line, done);
                MshrOutcome::Allocated
            };
            assert_eq!(real.register(line, done, now), expected);
        }
    }
}

/// The simulator is deterministic: identical runs give identical
/// statistics (modulo wall-clock time).
#[test]
fn simulator_is_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0009);
    // Timing simulations are slower; fewer cases.
    for _ in 0..cases(8) {
        let seed = rng.gen_range(0, 1000);
        let ctas = rng.gen_range(24, 96) as u32;
        let spec = PatternSpec::new(PatternKind::PointerChase, 2_000)
            .mem_ops_per_warp(16)
            .compute_per_mem(1.0);
        let wl = Workload::new("prop", seed, vec![Kernel::new("k", ctas, 256, spec)]);
        let cfg = GpuConfig::paper_target(8, MemScale::new(32));
        let a = Simulator::new(cfg.clone(), &wl).run();
        let b = Simulator::new(cfg, &wl).run();
        a.assert_deterministic_eq(&b);
    }
}

/// Randomized strong form of the engine's determinism contract
/// (DESIGN.md §10): over random machine shapes (SM count, memory
/// partitions), random multi-kernel workloads and random access
/// patterns, a second run gives bit-identical statistics and every
/// instruction, CTA and kernel of the grid is executed exactly once.
/// Much heavier than the fixed-config engine tests, so it runs only in
/// the `ext-tests` soak tier.
#[cfg(feature = "ext-tests")]
#[test]
fn engine_repeats_and_conserves_work_on_random_machines() {
    let mut rng = Rng64::seed_from_u64(0x5eed_000b);
    for _ in 0..cases(2) {
        let seed = rng.gen_range(0, 1 << 20);
        let sms = [8u32, 16, 32, 64][rng.gen_range(0, 4) as usize];
        // Partitions per chip are min(8, llc_slices, n_mcs): 1 to 8 here.
        let n_mcs = [1u32, 2, 4, 8][rng.gen_range(0, 4) as usize];
        let llc_slices = [3u32, 4, 16, 32][rng.gen_range(0, 4) as usize];
        let kernels = (0..rng.gen_range(1, 4))
            .map(|i| {
                let kind = match rng.gen_range(0, 4) {
                    0 => PatternKind::GlobalSweep {
                        passes: rng.gen_range(1, 3) as u32,
                    },
                    1 => PatternKind::Streaming,
                    2 => PatternKind::PointerChase,
                    _ => PatternKind::WorkingSetMix {
                        levels: vec![(1.0, 0.25), (1.0, f64_in(&mut rng, 0.5, 1.5))],
                    },
                };
                let spec = PatternSpec::new(kind, rng.gen_range(1_000, 6_000))
                    .mem_ops_per_warp(rng.gen_range(4, 24) as u32)
                    .compute_per_mem(f64_in(&mut rng, 0.5, 4.0));
                Kernel::new(format!("k{i}"), rng.gen_range(16, 128) as u32, 256, spec)
            })
            .collect();
        let wl = Workload::new("rand", seed, kernels);
        let mut cfg = GpuConfig::paper_target(sms, MemScale::new(32));
        cfg.n_mcs = n_mcs;
        cfg.llc_slices = llc_slices;
        let st = Simulator::new(cfg.clone(), &wl).run();
        st.assert_deterministic_eq(&Simulator::new(cfg, &wl).run());
        assert_eq!(st.warp_instrs, wl.approx_warp_instrs());
        assert_eq!(st.ctas_executed, wl.total_ctas());
        assert_eq!(st.kernels_executed, wl.kernels().len() as u64);
    }
}

/// Every issued instruction is accounted: IPC x cycles equals the
/// instruction total, and stall + issue accounting covers all SM-cycles.
#[test]
fn instruction_and_cycle_accounting_is_exact() {
    let mut rng = Rng64::seed_from_u64(0x5eed_000a);
    for _ in 0..cases(8) {
        let seed = rng.gen_range(0, 1000);
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 4_096).compute_per_mem(2.0);
        let wl = Workload::new("acct", seed, vec![Kernel::new("k", 48, 256, spec)]);
        let cfg = GpuConfig::paper_target(8, MemScale::new(32));
        let st = Simulator::new(cfg, &wl).run();
        assert_eq!(st.warp_instrs, wl.approx_warp_instrs());
        assert_eq!(st.thread_instrs, st.warp_instrs * 32);
        assert_eq!(st.total_sm_cycles, st.cycles * 8);
        assert!(st.mem_stall_sm_cycles + st.idle_sm_cycles <= st.total_sm_cycles);
    }
}
