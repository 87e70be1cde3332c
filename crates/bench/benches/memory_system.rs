//! Memory-substrate micro-benchmarks: cache lookups at the two
//! associativities the configurations use, MSHR traffic, and the
//! bandwidth-server models — these dominate the simulator's inner loop.

use gsim_bench::tinybench::Group;
use gsim_mem::{Cache, CacheGeometry, DramModel, FillTracker, Mshr, SlicedLlc};
use gsim_noc::Crossbar;
use gsim_rng::Rng64;

const N: u64 = 100_000;

fn addresses(footprint: u64) -> Vec<u64> {
    let mut rng = Rng64::seed_from_u64(7);
    (0..N).map(|_| rng.gen_range(0, footprint)).collect()
}

fn cache_accesses() {
    let addrs = addresses(100_000);
    let g = Group::new("cache_access").throughput(N);
    {
        let mut cache = Cache::new(CacheGeometry::new(48 * 1024, 6, 128));
        g.bench("l1_6way", || {
            for &a in &addrs {
                cache.access(a, false);
            }
        });
    }
    {
        // The compute-bound regime: a working set the L1 holds, so every
        // access finds its line in a six-way set and makes it the newest.
        // Beside `llc_64way_streaming_miss` this keeps a tag store tuned
        // for wide sets honest about narrow ones.
        let mut cache = Cache::new(CacheGeometry::new(48 * 1024, 6, 128));
        let resident = addresses(256);
        g.bench("l1_6way_hit", || {
            for &a in &resident {
                cache.access(a, false);
            }
        });
    }
    {
        let mut cache = Cache::new(CacheGeometry::new(512 * 1024, 64, 128));
        g.bench("llc_slice_64way", || {
            for &a in &addrs {
                cache.access(a, false);
            }
        });
    }
    {
        // The memory-bound regime: a stream that never re-touches a line,
        // so every access looks a full 64-way set over, evicts the way at
        // the old end of its recency list and relinks it at the new end.
        let mut cache = Cache::new(CacheGeometry::new(512 * 1024, 64, 128));
        let mut next = 0u64;
        g.bench("llc_64way_streaming_miss", || {
            for _ in 0..N {
                cache.access(next, false);
                next += 1;
            }
        });
    }
    {
        let mut llc = SlicedLlc::new(34 * 1024 * 1024 / 8, 64, 64, 128);
        g.bench("sliced_llc_64_slices", || {
            for &a in &addrs {
                llc.access(a, false);
            }
        });
    }
}

fn mshr_traffic() {
    let addrs = addresses(1_000);
    let g = Group::new("mshr").throughput(N);
    g.bench("register_merge_complete", || {
        let mut m = Mshr::new(384);
        for (i, &a) in addrs.iter().enumerate() {
            let now = i as u64;
            if m.is_full() {
                m.complete_up_to(now);
            }
            let _ = m.register(a, now + 300);
        }
    });
    // The engine's merge pass on a streaming workload: every line is new,
    // so the file fills, retires what has landed, and allocates again.
    g.bench("mshr_register_full", || {
        let mut m = Mshr::new(384);
        for now in 0..N {
            if m.is_full() {
                m.complete_up_to(now);
            }
            let _ = m.register(now, now + 300);
        }
    });
}

fn fill_tracking() {
    let g = Group::new("fill_tracker").throughput(N);
    // One memory partition's share of an LLC-miss stream: insert the fill,
    // then probe a line requested a little earlier (still in flight).
    g.bench("fill_tracker_insert_probe", || {
        let mut t = FillTracker::new();
        let mut in_flight = 0u64;
        for now in 0..N {
            t.insert(now, now + 400, now);
            in_flight += u64::from(t.fill_after(now.saturating_sub(64), now).is_some());
        }
        std::hint::black_box(in_flight);
    });
}

fn bandwidth_servers() {
    let addrs = addresses(1 << 30);
    let g = Group::new("bandwidth_models").throughput(N);
    g.bench("dram_16mc", || {
        let mut d = DramModel::new(16, 145.0, 1.0, 150);
        for (i, &a) in addrs.iter().enumerate() {
            d.read(i as u64, a, 128);
        }
    });
    g.bench("crossbar", || {
        let mut x = Crossbar::from_gbs(2696.0, 1.0, 12);
        for i in 0..N {
            x.traverse(i as f64, 64);
        }
    });
}

fn main() {
    cache_accesses();
    mshr_traffic();
    fill_tracking();
    bandwidth_servers();
}
