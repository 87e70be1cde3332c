//! Timing-simulator cost: what scale-model simulation saves, and what
//! intra-simulation parallelism buys on top.
//!
//! Benchmarks the detailed simulator on scale models vs target systems
//! under both strong scaling (same workload everywhere — little saving,
//! footnote 1 of the paper) and weak scaling (input grows with the target
//! — the Figure 7 speedups come from exactly this gap), plus a 64-SM
//! memory-bound workload as a strong-scaling family over `sim_threads`
//! 1/2/4/8 (the sharded engine's headline case; results are
//! bit-identical, only wall time moves).
//!
//! Results also land in `BENCH_simulator.json` at the repo root; set
//! `GSIM_BENCH_FAST=1` for a smoke-test-sized run (CI).

use std::cell::Cell;
use std::time::Duration;

use gsim_bench::tinybench::{fast_mode, Group, JsonReport};
use gsim_multigpu::{Placement, SystemConfig, SystemSim, Tenant};
use gsim_sim::{GpuConfig, Simulator};
use gsim_trace::suite::strong_benchmark;
use gsim_trace::weak::weak_benchmark;
use gsim_trace::{DagParams, Kernel, MemScale, PatternKind, PatternSpec, Workload};

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

fn sm_sizes() -> &'static [u32] {
    if fast_mode() {
        &[8]
    } else {
        &[8, 16, 128]
    }
}

/// Times one simulator configuration and records it in the JSON report
/// with its deterministic cycle count (for the cycles/sec rate). Pass
/// the family's `t1` median to get a `speedup_vs_t1` in the record;
/// returns this run's median so the caller can seed that baseline.
fn bench_sim(
    g: &Group,
    rep: &mut JsonReport,
    id: &str,
    name: &str,
    cfg: &GpuConfig,
    wl: &Workload,
    t1_median: Option<Duration>,
) -> Option<Duration> {
    let cycles = Cell::new(0u64);
    let median = g.bench(name, || {
        let st = Simulator::new(cfg.clone(), wl).run();
        cycles.set(st.cycles);
        st
    })?;
    let speedup = t1_median
        .filter(|_| !median.is_zero())
        .map(|t1| t1.as_secs_f64() / median.as_secs_f64());
    rep.record_scaled(
        id,
        median,
        cfg.sim_threads.max(1),
        Some(cycles.get()),
        speedup,
    );
    Some(median)
}

fn strong_scaling_cost(rep: &mut JsonReport) {
    let bench = strong_benchmark("pf", scale()).expect("pf exists");
    let g = Group::new("simulate_strong_pf").samples(samples());
    for &sms in sm_sizes() {
        let cfg = GpuConfig::paper_target(sms, scale());
        let id = format!("simulate_strong_pf/{sms}");
        bench_sim(&g, rep, &id, &sms.to_string(), &cfg, &bench.workload, None);
    }
}

fn weak_scaling_cost(rep: &mut JsonReport) {
    let bench = weak_benchmark("va", scale()).expect("va exists");
    let g = Group::new("simulate_weak_va").samples(samples());
    for &sms in sm_sizes() {
        let wl = bench.workload_for_sms(sms);
        let cfg = GpuConfig::paper_target(sms, scale());
        let id = format!("simulate_weak_va/{sms}");
        bench_sim(&g, rep, &id, &sms.to_string(), &cfg, &wl, None);
    }
}

/// The sharded-engine case: a 64-SM target on an LLC-overflowing global
/// sweep (memory-bound, so cycles are plentiful and phase A dominates),
/// as a strong-scaling family over 1/2/4/8 intra-simulation threads
/// (each record past `t1` carries its `speedup_vs_t1`).
fn parallel_64sm_membound(rep: &mut JsonReport) {
    let sc = scale();
    let passes = if fast_mode() { 1 } else { 3 };
    let spec = PatternSpec::new(
        PatternKind::GlobalSweep { passes },
        sc.mb_to_model_lines(48.0),
    )
    .compute_per_mem(1.0);
    let wl = Workload::new(
        "membound64",
        6464,
        vec![Kernel::new("sweep", 2048, 256, spec)],
    );
    let g = Group::new("parallel_64sm_membound").samples(samples());
    let mut t1 = None;
    for threads in [1u32, 2, 4, 8] {
        let mut cfg = GpuConfig::paper_target(64, sc);
        cfg.sim_threads = threads;
        let id = format!("parallel_64sm_membound/t{threads}");
        let baseline = if threads == 1 { None } else { t1 };
        let median = bench_sim(&g, rep, &id, &format!("t{threads}"), &cfg, &wl, baseline);
        if threads == 1 {
            t1 = median;
        }
    }
}

/// The multi-GPU system model (DESIGN.md §16) as a strong-scaling family
/// over the GPU count: the same two-tenant DAG mix on 2/4/8 GPUs of
/// 8 SMs each (each record past the 2-GPU baseline carries its speedup),
/// plus one 4-GPU run under read replication so placement-policy cost is
/// diffable too.
fn multigpu_strong_scaling(rep: &mut JsonReport) {
    let sc = scale();
    let params = DagParams {
        n_kernels: if fast_mode() { 3 } else { 6 },
        max_ctas: if fast_mode() { 24 } else { 64 },
        min_footprint_lines: 1 << 10,
        max_footprint_lines: 1 << 13,
        ..DagParams::default()
    };
    let tenants: Vec<Tenant> = (0..2)
        .map(|i| Tenant::generate(format!("tenant{i}"), 8800 + i, &params))
        .collect();
    let g = Group::new("multigpu_strong").samples(samples());
    let run = |cfg: &SystemConfig| SystemSim::new(cfg.clone(), &tenants).run();
    let mut g2 = None;
    for n_gpus in [2u32, 4, 8] {
        let cfg = SystemConfig::paper_node(n_gpus, 8, sc);
        let cycles = Cell::new(0u64);
        let Some(median) = g.bench(&format!("g{n_gpus}"), || {
            let report = run(&cfg);
            cycles.set(report.stats.cycles);
            report
        }) else {
            continue;
        };
        let speedup = g2
            .filter(|_| n_gpus > 2 && !median.is_zero())
            .map(|base: Duration| base.as_secs_f64() / median.as_secs_f64());
        rep.record_multigpu(
            format!("multigpu_strong/g{n_gpus}"),
            median,
            1,
            n_gpus,
            cfg.placement.as_str(),
            Some(cycles.get()),
            speedup,
        );
        if n_gpus == 2 {
            g2 = Some(median);
        }
    }
    let mut cfg = SystemConfig::paper_node(4, 8, sc);
    cfg.placement = Placement::ReadReplicate;
    let cycles = Cell::new(0u64);
    if let Some(median) = g.bench("g4_replicate", || {
        let report = run(&cfg);
        cycles.set(report.stats.cycles);
        report
    }) {
        rep.record_multigpu(
            "multigpu_strong/g4_replicate",
            median,
            1,
            4,
            cfg.placement.as_str(),
            Some(cycles.get()),
            None,
        );
    }
}

fn main() {
    let mut rep = JsonReport::for_target("simulator");
    strong_scaling_cost(&mut rep);
    weak_scaling_cost(&mut rep);
    parallel_64sm_membound(&mut rep);
    multigpu_strong_scaling(&mut rep);
    rep.write();
}
