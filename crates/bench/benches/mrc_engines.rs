//! Miss-rate-curve collection cost.
//!
//! Section V.A claims MRCs come "at least two orders of magnitude faster"
//! than detailed simulation. This bench compares, on the same workload:
//! the detailed timing simulation, the functional replay collector, and
//! the single-pass stack-distance engines (exact tree and SHARDS-sampled).
//!
//! Results also land in `BENCH_mrc_engines.json` at the repo root; set
//! `GSIM_BENCH_FAST=1` for a smoke-test-sized run (CI).

use std::cell::Cell;

use gsim_bench::tinybench::{fast_mode, Group, JsonReport};
use gsim_core::plan::{
    collect_sampled_inline, synthesize_observation, Fit, PlanWorkload, SampledCollectConfig,
};
use gsim_mem::mrc::{DistanceEngine, NaiveStack, ShardsStack, TreeStack};
use gsim_sim::{collect_mrc, GpuConfig, Simulator};
use gsim_trace::suite::strong_benchmark;
use gsim_trace::{MemScale, WarpStream};

fn scale() -> MemScale {
    MemScale::new(32)
}

fn samples() -> usize {
    if fast_mode() {
        3
    } else {
        10
    }
}

fn gather_lines(limit_ctas: u32) -> Vec<u64> {
    let bench = strong_benchmark("bfs", scale()).expect("bfs exists");
    let wl = &bench.workload;
    let mut lines = Vec::new();
    for (kidx, kernel) in wl.kernels().iter().enumerate() {
        for cta in 0..kernel.n_ctas().min(limit_ctas) {
            for warp in 0..kernel.warps_per_cta() {
                let mut s = kernel.warp_stream(wl, kidx, cta, warp);
                while let Some(op) = s.next_op() {
                    if let Some(m) = op.mem() {
                        lines.extend(m.lines());
                    }
                }
            }
        }
    }
    lines
}

fn detailed_simulation(rep: &mut JsonReport) {
    let bench = strong_benchmark("bfs", scale()).expect("bfs exists");
    let sms = if fast_mode() { 8 } else { 128 };
    let cfg = GpuConfig::paper_target(sms, scale());
    let g = Group::new("mrc_vs_detailed").samples(samples());
    let cycles = Cell::new(0u64);
    let name = format!("detailed_timing_sim_{sms}sm");
    if let Some(median) = g.bench(&name, || {
        let st = Simulator::new(cfg.clone(), &bench.workload).run();
        cycles.set(st.cycles);
        st
    }) {
        rep.record(
            format!("mrc_vs_detailed/{name}"),
            median,
            Some(cycles.get()),
        );
    }
    let configs: Vec<GpuConfig> = [8u32, 16, 32, 64, 128]
        .iter()
        .map(|&s| GpuConfig::paper_target(s, scale()))
        .collect();
    if let Some(median) = g.bench("functional_replay_5_capacities", || {
        collect_mrc(&bench.workload, &configs)
    }) {
        rep.record(
            "mrc_vs_detailed/functional_replay_5_capacities",
            median,
            None,
        );
    }
}

fn stack_engines(rep: &mut JsonReport) {
    let lines = gather_lines(if fast_mode() { 8 } else { 64 });
    let g = Group::new("stack_distance")
        .samples(samples())
        .throughput(lines.len() as u64);
    if let Some(median) = g.bench("tree_exact", || {
        let mut e = TreeStack::with_capacity(lines.len());
        e.record_all(lines.iter().copied());
        e.finish()
    }) {
        rep.record("stack_distance/tree_exact", median, None);
    }
    if let Some(median) = g.bench("shards_10pct", || {
        let mut e = ShardsStack::new(0.1);
        e.record_all(lines.iter().copied());
        e.finish()
    }) {
        rep.record("stack_distance/shards_10pct", median, None);
    }

    // The quadratic reference implementation, on a small prefix only.
    let small = &lines[..lines.len().min(20_000)];
    let g = Group::new("stack_distance_reference").samples(samples());
    if let Some(median) = g.bench("naive_20k", || {
        let mut e = NaiveStack::new();
        e.record_all(small.iter().copied());
        e.finish()
    }) {
        rep.record("stack_distance_reference/naive_20k", median, None);
    }
}

/// Per-stage latency of the staged collect→fit→predict plan (DESIGN.md
/// §14) on bfs, a memory-bound workload the gate answers functionally.
/// The two `identity_*` records price the two ways of naming the
/// workload for a stage-cache key; `stage_collect` is the streaming
/// sampled collection (a fan-out over pool jobs up to PR 13).
/// `fast_path_end_to_end` is the whole cache-miss fast path as the
/// service pays it — recipe identity, collection, fit, forecast — the
/// millisecond-class claim lives or dies on this record.
fn predict_stages(rep: &mut JsonReport) {
    let bench = strong_benchmark("bfs", scale()).expect("bfs exists");
    let wl = PlanWorkload::Synthetic(bench.workload.clone());
    let sizes = [8u32, 16, 32, 64, 128];
    let configs: Vec<GpuConfig> = sizes
        .iter()
        .map(|&s| GpuConfig::paper_target(s, scale()))
        .collect();
    let scfg = SampledCollectConfig::default();
    let targets = [32u32, 64, 128];

    let g = Group::new("predict_stages").samples(samples());
    if let Some(median) = g.bench("identity_recipe", || wl.stage_identity()) {
        rep.record("predict_stages/identity_recipe", median, None);
    }
    if let Some(median) = g.bench("identity_content", || wl.semantic_hash()) {
        rep.record("predict_stages/identity_content", median, None);
    }
    if let Some(median) = g.bench("stage_collect", || {
        collect_sampled_inline(&wl, &configs, &scfg, None).expect("sampled collect")
    }) {
        rep.record("predict_stages/stage_collect", median, None);
    }

    let collected = collect_sampled_inline(&wl, &configs, &scfg, None).expect("sampled collect");
    let mrc = collected.sized_mrc();
    let (small_cfg, large_cfg) = (&configs[0], &configs[1]);
    if let Some(median) = g.bench("stage_fit", || {
        Fit::new(
            synthesize_observation(&collected, small_cfg),
            synthesize_observation(&collected, large_cfg),
            Some(&mrc),
        )
        .expect("fit")
    }) {
        rep.record("predict_stages/stage_fit", median, None);
    }

    let fit = Fit::new(
        synthesize_observation(&collected, small_cfg),
        synthesize_observation(&collected, large_cfg),
        Some(&mrc),
    )
    .expect("fit");
    if let Some(median) = g.bench("stage_predict", || {
        fit.forecast(&targets).expect("forecast")
    }) {
        rep.record("predict_stages/stage_predict", median, None);
    }

    if let Some(median) = g.bench("fast_path_end_to_end", || {
        let identity = wl.stage_identity();
        let collected =
            collect_sampled_inline(&wl, &configs, &scfg, None).expect("sampled collect");
        let mrc = collected.sized_mrc();
        let fit = Fit::new(
            synthesize_observation(&collected, small_cfg),
            synthesize_observation(&collected, large_cfg),
            Some(&mrc),
        )
        .expect("fit");
        (identity, fit.forecast(&targets).expect("forecast"))
    }) {
        rep.record("predict_stages/fast_path_end_to_end", median, None);
    }
}

fn main() {
    let mut rep = JsonReport::for_target("mrc_engines");
    detailed_simulation(&mut rep);
    stack_engines(&mut rep);
    predict_stages(&mut rep);
    rep.write();
}
