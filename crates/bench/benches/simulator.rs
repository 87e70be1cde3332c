//! Timing-simulator cost: what scale-model simulation saves.
//!
//! Benchmarks the detailed simulator on scale models vs target systems
//! under both strong scaling (same workload everywhere — little saving,
//! footnote 1 of the paper) and weak scaling (input grows with the target
//! — the Figure 7 speedups come from exactly this gap), plus a 64-SM
//! memory-bound workload (the engine's slow case) and the multi-GPU
//! system model as a strong-scaling family over the GPU count.
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
/// with its deterministic cycle count (for the cycles/sec rate).
fn bench_sim(
    g: &Group,
    rep: &mut JsonReport,
    id: &str,
    name: &str,
    cfg: &GpuConfig,
    wl: &Workload,
) {
    let cycles = Cell::new(0u64);
    if let Some(median) = g.bench(name, || {
        let st = Simulator::new(cfg.clone(), wl).run();
        cycles.set(st.cycles);
        st
    }) {
        rep.record(id, median, Some(cycles.get()));
    }
}

fn strong_scaling_cost(rep: &mut JsonReport) {
    let bench = strong_benchmark("pf", scale()).expect("pf exists");
    let g = Group::new("simulate_strong_pf").samples(samples());
    for &sms in sm_sizes() {
        let cfg = GpuConfig::paper_target(sms, scale());
        let id = format!("simulate_strong_pf/{sms}");
        bench_sim(&g, rep, &id, &sms.to_string(), &cfg, &bench.workload);
    }
}

fn weak_scaling_cost(rep: &mut JsonReport) {
    let bench = weak_benchmark("va", scale()).expect("va exists");
    let g = Group::new("simulate_weak_va").samples(samples());
    for &sms in sm_sizes() {
        let wl = bench.workload_for_sms(sms);
        let cfg = GpuConfig::paper_target(sms, scale());
        let id = format!("simulate_weak_va/{sms}");
        bench_sim(&g, rep, &id, &sms.to_string(), &cfg, &wl);
    }
}

/// The engine's slow case: a 64-SM target on an LLC-overflowing global
/// sweep (memory-bound, so cycles are plentiful and most SMs stall).
/// The record keeps the name it had as the serial member of the removed
/// thread-scaling family, minus the thread suffix.
fn membound_64sm(rep: &mut JsonReport) {
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
    let cfg = GpuConfig::paper_target(64, sc);
    bench_sim(&g, rep, "parallel_64sm_membound", "64", &cfg, &wl);
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
    membound_64sm(&mut rep);
    multigpu_strong_scaling(&mut rep);
    rep.write();
}
