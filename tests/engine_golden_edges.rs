//! Pinned `SimStats` for the engine paths `engine_golden.rs` does not
//! reach.
//!
//! * A DRAM-starved machine, whose warps park tens of thousands of
//!   cycles ahead — past the span of the engine's timing wheel, so its
//!   wake-ups go through the wheel's overflow heap.
//! * The same machine with the banked (row-buffer-aware) DRAM model.
//! * Two-kernel compute-only grids, whose sustained-IPC milestones fall
//!   inside stretches where every resident SM is inside a compute batch,
//!   so they are placed by the engine's bulk accounting of quiet cycles.
//!
//! The digests were recorded at the commit before the timing wheel
//! replaced the per-SM wake heaps. After a *deliberate* model change,
//! run the test, and paste the table it prints on failure over
//! [`GOLDEN`].

use gpu_scale_model::sim::{GpuConfig, SimStats, Simulator};
use gpu_scale_model::trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

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

/// An 8-SM machine with one 2 GB/s memory controller: every resident
/// warp queues behind the others' misses, ~64 cycles per line.
fn dram_starved(banks: u32) -> GpuConfig {
    let mut cfg = GpuConfig::paper_target(8, MemScale::new(32));
    cfg.dram_gbs_per_mc = 2.0;
    cfg.dram_banks_per_mc = banks;
    cfg
}

/// A grid that fills every warp slot of the 8-SM machine with pointer
/// chases over a footprint ~37× its LLC.
fn chase() -> Workload {
    let spec = PatternSpec::new(PatternKind::PointerChase, 20_000)
        .mem_ops_per_warp(6)
        .compute_per_mem(1.0);
    Workload::new("starved", 21, vec![Kernel::new("chase", 64, 256, spec)])
}

/// A short kernel then a long one, both almost pure compute (an L1-sized
/// footprint, 7.5 compute instructions per memory op, then a tail of
/// `tail` instructions per warp), with grids that do not divide evenly
/// over `sms` SMs.
fn compute_grid(sms: u32) -> Workload {
    let spec = |tail| {
        PatternSpec::new(PatternKind::PointerChase, 64)
            .mem_ops_per_warp(2)
            .compute_per_mem(7.5)
            .tail_compute(tail)
    };
    Workload::new(
        "compute",
        23,
        vec![
            Kernel::new("short", 3 * sms + 1, 128, spec(31)),
            Kernel::new("long", 2 * sms + 3, 64, spec(12_345)),
        ],
    )
}

fn cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let wl = chase();
    for (name, banks) in [("dram-starved@8", 0), ("dram-starved-banked@8", 16)] {
        let stats = Simulator::new(dram_starved(banks), &wl).run();
        out.push((name.to_string(), digest(&stats)));
    }
    for sms in [8u32, 16, 64] {
        let wl = compute_grid(sms);
        let stats = Simulator::new(GpuConfig::paper_target(sms, MemScale::new(32)), &wl).run();
        out.push((format!("compute-2k@{sms}"), digest(&stats)));
    }
    out
}

/// `(case, digest)` recorded at commit f59c84d, field order as in
/// [`digest`].
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("dram-starved@8", "191804 6144 196608 3071 2993 3072 3071 383104 1515608 12680 1534432 64 1 77 164796 4915 [191803]"),
    ("dram-starved-banked@8", "199614 6144 196608 3071 2993 3072 3071 383104 1577608 13160 1596912 64 1 77 171646 4915 [199613]"),
    ("compute-2k@8", "75199 474556 15185792 232 63 276 232 8064 2655 124381 601592 44 2 6349 59362 379646 [966, 74232]"),
    ("compute-2k@16", "75311 874748 27991936 438 64 532 438 8192 5095 325133 1204976 84 2 5937 49705 699806 [997, 74313]"),
    ("compute-2k@64", "75229 3275900 104828800 1792 64 2068 1792 8192 18575 1520181 4814656 324 2 5491 46469 2620737 [898, 74330]"),
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
