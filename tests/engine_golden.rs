//! Pinned `SimStats` of the timing engine.
//!
//! The engine's host-side optimisations (compute batches that are not
//! stepped, the rank-byte tag store, the multiply-hashed fill/MSHR maps,
//! the request arena, the one-walk flush) must leave every simulated
//! quantity bit-identical. The determinism tests compare the engine with
//! *itself* (run to run); this test compares it with digests recorded at
//! the commit before those optimisations landed, so behavioural drift
//! fails tier-1 without depending on `benchmark/`.
//!
//! After a *deliberate* model change, run the test, and paste the table
//! it prints on failure over [`GOLDEN`].

use gpu_scale_model::sim::{ChipletConfig, GpuConfig, SimStats, Simulator};
use gpu_scale_model::trace::suite::strong_benchmark;
use gpu_scale_model::trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

/// Coarse memory miniature: keeps the debug-profile test in seconds.
fn scale() -> MemScale {
    MemScale::new(32)
}

/// Every deterministic `SimStats` field (`sim_wall_seconds` excluded).
/// The destructuring is exhaustive so a new field fails to compile here
/// until the digest accounts for it.
fn digest(stats: &SimStats) -> String {
    let SimStats {
        cycles,
        warp_instrs,
        thread_instrs,
        llc_accesses,
        llc_misses,
        l1_accesses,
        l1_misses,
        dram_bytes,
        mem_stall_sm_cycles,
        idle_sm_cycles,
        total_sm_cycles,
        ctas_executed,
        kernels_executed,
        sim_wall_seconds: _,
        cycle_at_10pct,
        cycle_at_90pct,
        warp_instrs_window,
        kernel_cycles,
    } = stats;
    format!(
        "{cycles} {warp_instrs} {thread_instrs} {llc_accesses} {llc_misses} {l1_accesses} \
         {l1_misses} {dram_bytes} {mem_stall_sm_cycles} {idle_sm_cycles} {total_sm_cycles} \
         {ctas_executed} {kernels_executed} {cycle_at_10pct} {cycle_at_90pct} \
         {warp_instrs_window} {kernel_cycles:?}"
    )
}

fn table2(abbr: &str) -> Workload {
    strong_benchmark(abbr, scale())
        .unwrap_or_else(|| panic!("Table II has no benchmark {abbr}"))
        .workload
}

fn cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for abbr in ["dct", "as", "bfs", "gemm"] {
        let wl = table2(abbr);
        for sms in [8u32, 64] {
            let stats = Simulator::new(GpuConfig::paper_target(sms, scale()), &wl).run();
            out.push((format!("{abbr}@{sms}"), digest(&stats)));
        }
    }

    let chase = PatternSpec::new(PatternKind::PointerChase, 20_000)
        .mem_ops_per_warp(10)
        .compute_per_mem(1.0);
    let mcm_wl = Workload::new("m", 12, vec![Kernel::new("k", 512, 256, chase)]);
    let mcm = ChipletConfig::paper_mcm(2, MemScale::default());
    let stats = Simulator::new_mcm(&mcm, &mcm_wl).run();
    out.push(("mcm2-chase".to_string(), digest(&stats)));

    // A kernel smaller than one SM's slot budget between two big ones:
    // the dispatch / kernel-advance path of the flush.
    let stream = || PatternSpec::new(PatternKind::Streaming, 5_000).compute_per_mem(1.0);
    let seq = Workload::new(
        "seq",
        3,
        vec![
            Kernel::new("big1", 96, 256, stream()),
            Kernel::new("tiny", 4, 256, stream()),
            Kernel::new("big2", 96, 256, stream()),
        ],
    );
    let stats = Simulator::new(GpuConfig::paper_target(8, MemScale::default()), &seq).run();
    out.push(("multi-kernel@8".to_string(), digest(&stats)));
    out
}

/// `(case, digest)` recorded at commit 18a5eb7 (before those
/// optimisations), field order as in [`digest`].
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("dct@8", "49201 196608 6291456 49143 48074 44272 44263 6771840 195581 1419 393608 6144 8 4644 44120 157287 [6179, 6156, 6165, 6138, 6156, 6147, 6131, 6128]"),
    ("dct@64", "7743 196608 6291456 49144 48074 44272 44264 6727040 226101 72843 495552 6144 8 498 6989 157300 [965, 998, 994, 996, 992, 993, 973, 831]"),
    ("as@8", "123242 405504 12976128 135168 135168 135168 135168 17301504 572389 8043 985936 8448 11 12245 110532 324405 [11273, 11160, 11215, 11192, 11200, 11178, 11210, 11203, 11212, 11197, 11201]"),
    ("as@64", "13544 405504 12976128 135168 78142 135168 135168 10002176 417243 44069 866816 8448 11 1671 11957 324419 [1612, 1070, 1081, 1324, 1215, 1026, 1228, 1293, 1113, 1255, 1326]"),
    ("bfs@8", "345706 2304000 73728000 452751 294308 454025 445976 37671424 433290 28358 2765648 2400 9 35429 307025 1843202 [6203, 103062, 6296, 6260, 102779, 6008, 6058, 102779, 6260]"),
    ("bfs@64", "83626 2304000 73728000 452702 205862 454025 445927 26350336 1190109 1857955 5352064 2400 9 9587 70154 1843241 [6174, 16360, 5606, 6037, 15971, 5452, 5800, 16468, 5757]"),
    ("gemm@8", "203058 1622016 51904512 11981 6144 147456 11981 786432 1747 701 1624464 768 1 20276 182477 1297615 [203057]"),
    ("gemm@64", "25908 1622016 51904512 9435 3225 147456 9435 412800 15236 20860 1658112 768 1 2535 22810 1297639 [25907]"),
    ("mcm2-chase", "4317 81920 2621440 40860 17364 40960 40860 2222592 446265 24391 552576 512 1 64 3262 65540 [4316]"),
    ("multi-kernel@8", "49556 31552 1009664 15776 15717 15776 15776 2011776 206441 158455 396448 196 3 1307 47825 25241 [4997, 39596, 4962]"),
];

#[test]
fn simstats_match_the_pinned_digests() {
    let got = cases();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((n, d), (gn, gd))| n == gn && d == gd);
    if !same {
        let table: String = got
            .iter()
            .map(|(n, d)| format!("    ({n:?}, {d:?}),\n"))
            .collect();
        let drifted: Vec<&str> = got
            .iter()
            .filter(|(n, d)| !GOLDEN.iter().any(|(gn, gd)| gn == n && gd == d))
            .map(|(n, _)| n.as_str())
            .collect();
        panic!("SimStats drifted from the pinned digests on {drifted:?}; measured table:\n{table}");
    }
}
