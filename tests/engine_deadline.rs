//! A deadline that holds changes nothing: `Simulator::run_until` with a
//! deadline far in the future returns the `SimStats` of `run()` on every
//! case `engine_golden.rs` pins — the same workloads, machines and MCM
//! configuration, rebuilt here so the pinned file stays untouched.

use std::time::{Duration, Instant};

use gpu_scale_model::sim::{ChipletConfig, GpuConfig, Simulator};
use gpu_scale_model::trace::suite::strong_benchmark;
use gpu_scale_model::trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

/// The golden cases' coarse memory miniature.
fn scale() -> MemScale {
    MemScale::new(32)
}

/// Runs `sim()` to completion twice, once under a deadline an hour away,
/// and requires the same statistics.
fn same_under_a_far_deadline<'wl>(name: &str, sim: impl Fn() -> Simulator<'wl>) {
    let far = Instant::now() + Duration::from_secs(3600);
    let bounded = sim()
        .run_until(Some(far))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    bounded.assert_deterministic_eq(&sim().run());
}

#[test]
fn a_far_deadline_leaves_every_golden_case_unchanged() {
    for abbr in ["dct", "as", "bfs", "gemm"] {
        let wl = strong_benchmark(abbr, scale())
            .unwrap_or_else(|| panic!("Table II has no benchmark {abbr}"))
            .workload;
        for sms in [8u32, 64] {
            let cfg = GpuConfig::paper_target(sms, scale());
            same_under_a_far_deadline(&format!("{abbr}@{sms}"), || {
                Simulator::new(cfg.clone(), &wl)
            });
        }
    }

    let chase = PatternSpec::new(PatternKind::PointerChase, 20_000)
        .mem_ops_per_warp(10)
        .compute_per_mem(1.0);
    let mcm_wl = Workload::new("m", 12, vec![Kernel::new("k", 512, 256, chase)]);
    let mcm = ChipletConfig::paper_mcm(2, MemScale::default());
    same_under_a_far_deadline("mcm2-chase", || Simulator::new_mcm(&mcm, &mcm_wl));

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
    let cfg = GpuConfig::paper_target(8, MemScale::default());
    same_under_a_far_deadline("multi-kernel@8", || Simulator::new(cfg.clone(), &seq));
}
