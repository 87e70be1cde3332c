//! The two simulator workloads: `sim_membound_64sm` and
//! `sim_compute_scalemodel`. Same call (`Simulator::new(..).run()`),
//! opposite regimes.

use std::collections::BTreeMap;
use std::time::Instant;

use gsim_mem::mrc::{DistanceEngine, ShardsStack, TreeStack};
use gsim_sim::{collect_mrc, GpuConfig, SimStats, Simulator};
use gsim_trace::suite::strong_benchmark;
use gsim_trace::{MemScale, Op, WarpStream, Workload, WorkloadModel};

use crate::golden::{golden_path, simstats_digest, Golden, Verdict, GOLDEN_SEED};
use crate::harness::{
    guarded, host_factor, repeated_setup, timed, timed_passes, RunCfg, Yardstick,
};
use crate::inputs::{compute_member, membound_member};
use crate::result::{peak_rss_mb, RunResult};
use crate::spans::{self, Recorder, PROBE_OP};
use crate::stats::{column_medians, median, min_median_max};

/// Line accesses the MRC engines are timed on, at most.
const MRC_LINE_CAP: usize = 1 << 21;

/// One workload of the set with what it declares about itself.
struct Member {
    name: String,
    wl: Workload,
    declared: Declared,
}

/// What draining every warp stream of a workload, with no simulator
/// attached, says about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declared {
    /// `Op`s generated.
    pub warp_ops: u64,
    /// Warp instructions those ops stand for.
    pub warp_instrs: u64,
    /// FNV-1a over every op: the identity of the input.
    pub fingerprint: u64,
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Drains every warp stream of `wl`, optionally collecting the line
/// addresses of its memory ops (up to `lines_cap`).
pub fn drain(wl: &Workload, mut lines: Option<(&mut Vec<u64>, usize)>) -> Declared {
    let mut d = Declared {
        warp_ops: 0,
        warp_instrs: 0,
        fingerprint: 0xcbf2_9ce4_8422_2325,
    };
    for kernel in 0..wl.n_kernels() {
        let (n_ctas, _) = wl.grid(kernel);
        for cta in 0..n_ctas {
            for warp in 0..wl.warps_per_cta(kernel) {
                let mut stream = WorkloadModel::warp_stream(wl, kernel, cta, warp);
                while let Some(op) = stream.next_op() {
                    d.warp_ops += 1;
                    d.warp_instrs += op.warp_instrs();
                    let (tag, access) = match &op {
                        Op::Compute { n } => (u64::from(*n) << 8, None),
                        Op::Load(a) => (1, Some(a)),
                        Op::Store(a) => (2, Some(a)),
                        Op::Atomic(a) => (3, Some(a)),
                    };
                    d.fingerprint = fnv(d.fingerprint, tag);
                    if let Some(a) = access {
                        d.fingerprint = fnv(d.fingerprint, a.line_addr);
                        d.fingerprint = fnv(
                            d.fingerprint,
                            u64::from(a.txns) << 32 | u64::from(a.txn_stride_lines),
                        );
                        if let Some((out, cap)) = lines.as_mut() {
                            out.extend(a.lines().take(cap.saturating_sub(out.len())));
                        }
                    }
                }
            }
        }
    }
    d
}

/// The set a simulator workload runs: members × configurations.
struct SimSet {
    members: Vec<Member>,
    cfgs: Vec<GpuConfig>,
    /// Seconds spent building the members (gsim-trace), of the set-up.
    build_s: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Membound,
    Compute,
}

fn build_set(kind: Kind, cfg: &RunCfg) -> SimSet {
    let (abbrs, sizes, scale): (&[&str], &[u32], MemScale) = match kind {
        // Full-size memory (divisor 1); smoke mode shrinks it 16-fold.
        Kind::Membound => (
            &["dct", "fwt", "va", "as", "st"],
            &[64],
            MemScale::new(if cfg.smoke { 16 } else { 1 }),
        ),
        Kind::Compute => (
            &["gemm", "2mm", "res50", "res34", "ht"],
            &[8, 16],
            MemScale::default(),
        ),
    };
    let (mut workloads, build_s) = timed(|| {
        let mut wls: Vec<Workload> = abbrs
            .iter()
            .map(|abbr| {
                strong_benchmark(abbr, scale)
                    .unwrap_or_else(|| panic!("Table II has no benchmark {abbr}"))
                    .workload
            })
            .collect();
        wls.push(match kind {
            Kind::Membound if !cfg.smoke => membound_member(cfg.seed),
            // The smoke set keeps the compute member: it is small at any scale.
            _ => compute_member(cfg.seed),
        });
        wls
    });
    let members = workloads
        .drain(..)
        .map(|wl| Member {
            name: WorkloadModel::name(&wl).to_string(),
            declared: drain(&wl, None),
            wl,
        })
        .collect();
    let cfgs = sizes
        .iter()
        .map(|&sms| {
            let mut c = GpuConfig::paper_target(sms, scale);
            c.sim_threads = 1;
            c
        })
        .collect();
    SimSet {
        members,
        cfgs,
        build_s,
    }
}

/// One simulator run: wall seconds of `new` and of `run`, and the stats.
struct OpOut {
    new_s: f64,
    run_s: f64,
    stats: SimStats,
}

fn run_op(
    member: &Member,
    cfg: &GpuConfig,
    rec: &Recorder,
    parent: u32,
    op: u64,
) -> Result<OpOut, String> {
    guarded(|| {
        let t0 = Instant::now();
        let sim = rec.span("gsim-sim.new", parent, op, |_| {
            Simulator::new(cfg.clone(), &member.wl)
        });
        let new_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let stats = rec.span("gsim-sim.run", parent, op, |_| sim.run());
        OpOut {
            new_s,
            run_s: t1.elapsed().as_secs_f64(),
            stats,
        }
    })
}

/// Whether two stats agree on every simulated quantity; the first
/// differing field otherwise.
fn same_stats(a: &SimStats, b: &SimStats) -> Result<(), String> {
    guarded(|| a.assert_deterministic_eq(b))
}

/// Reference stats per op index, from the first run of that op.
type Refs = Vec<Option<SimStats>>;

/// Host-speed-adjusted `(new_s, run_s)` of every op of every complete
/// pass: `[pass][op]`. A pass in which an operation failed is left out of
/// the timings.
type Rows = Vec<Vec<(f64, f64)>>;

/// Per op, the median `new + run` over the passes.
fn median_ops(rows: &Rows) -> Vec<f64> {
    let totals: Vec<Vec<f64>> = rows
        .iter()
        .map(|row| row.iter().map(|(n, r)| n + r).collect())
        .collect();
    column_medians(&totals)
}

/// One pass: every member on every configuration, checked against the
/// member's declared grid and against the first run of the same op, the
/// yardstick read between the runs. Returns the raw seconds the runs took.
fn pass(
    set: &SimSet,
    rec: &Recorder,
    yard: &Yardstick,
    pass_idx: u64,
    refs: &mut Refs,
    rows: &mut Rows,
    result: &mut RunResult,
) -> f64 {
    let root = rec.enter("bench.pass", 0, pass_idx);
    let mut row = Vec::new();
    let mut raw_s = 0.0;
    let mut idx = 0usize;
    let mut before = yard.read();
    for member in &set.members {
        for cfg in &set.cfgs {
            let op_id = pass_idx * 1000 + idx as u64;
            let label = format!("{}@{}sm pass {pass_idx}", member.name, cfg.n_sms);
            result.attempted += 1;
            let open = rec.enter("bench.op", root.id, op_id);
            let out = run_op(member, cfg, rec, open.id, op_id);
            rec.exit(open);
            let after = yard.read();
            let factor = host_factor(before, after);
            before = after;
            match out {
                Err(why) => result.fail(format!("{label}: panicked: {why}")),
                Ok(o) => {
                    raw_s += o.new_s + o.run_s;
                    let adjusted = (o.new_s / factor, o.run_s / factor);
                    let s = &o.stats;
                    let d = &member.declared;
                    if s.thread_instrs != d.warp_instrs * 32
                        || s.ctas_executed != member.wl.total_ctas()
                        || s.kernels_executed != member.wl.kernels().len() as u64
                    {
                        result.fail(format!(
                            "{label}: executed {} thread instrs / {} CTAs / {} kernels, the grid declares {} / {} / {}",
                            s.thread_instrs,
                            s.ctas_executed,
                            s.kernels_executed,
                            d.warp_instrs * 32,
                            member.wl.total_ctas(),
                            member.wl.kernels().len()
                        ));
                    } else if let Some(first) = refs.get(idx).and_then(Option::as_ref) {
                        match same_stats(first, s) {
                            Ok(()) => row.push(adjusted),
                            Err(why) => {
                                result.fail(format!("{label}: repeat is not deterministic: {why}"));
                            }
                        }
                    } else {
                        row.push(adjusted);
                    }
                    if refs.len() <= idx {
                        refs.resize(idx + 1, None);
                    }
                    refs[idx].get_or_insert_with(|| o.stats.clone());
                }
            }
            idx += 1;
        }
    }
    rec.exit(root);
    if row.len() == idx {
        rows.push(row);
    }
    raw_s
}

/// Golden keys and digests of the reference stats, in op order.
fn golden_entries(workload: &str, set: &SimSet, refs: &Refs) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut idx = 0;
    for member in &set.members {
        for cfg in &set.cfgs {
            if let Some(Some(stats)) = refs.get(idx) {
                out.insert(
                    format!("{workload}/{}@{}sm", member.name, cfg.n_sms),
                    simstats_digest(stats),
                );
            }
            idx += 1;
        }
    }
    out
}

/// Checks (or, with `--bless`, rewrites) this workload's golden entries;
/// returns how many runs equal their golden digest.
fn golden_step(cfg: &RunCfg, set: &SimSet, refs: &Refs, result: &mut RunResult) -> u64 {
    if cfg.smoke {
        return 0; // shrunken inputs have no golden
    }
    let path = golden_path(&cfg.bench_dir);
    let mut golden = match Golden::load(&path) {
        Ok(g) => g,
        Err(why) => {
            result.violate(why);
            return 0;
        }
    };
    let entries = golden_entries(&cfg.workload, set, refs);
    if cfg.bless {
        match golden.bless(&path, &cfg.workload, entries.clone()) {
            Ok(()) => result.notes.push(format!(
                "blessed {} golden entries into {}",
                entries.len(),
                path.display()
            )),
            Err(why) => result.violate(why),
        }
        return entries.len() as u64;
    }
    let mut matched = 0;
    let mut mismatched = 0;
    for (key, digest) in &entries {
        match golden.check(key, digest) {
            Verdict::Match => matched += 1,
            Verdict::Mismatch => mismatched += 1,
            Verdict::Absent => {}
        }
    }
    result.notes.push(format!(
        "golden: {matched} of {} runs match, {mismatched} differ, {} not covered (golden holds seed {GOLDEN_SEED})",
        entries.len(),
        entries.len() - matched - mismatched
    ));
    matched as u64
}

/// Sets the `gsim-sim` and `gsim-mem` metrics that follow from the stats
/// of one pass's simulator runs and the seconds their `new` and `run`
/// calls took.
pub fn set_engine_metrics<'a>(
    result: &mut RunResult,
    stats: impl IntoIterator<Item = &'a SimStats>,
    new_s: f64,
    engine_s: f64,
) {
    let mut runs = 0u64;
    let mut sum = SimStats::default();
    for s in stats {
        runs += 1;
        sum.cycles += s.cycles;
        sum.thread_instrs += s.thread_instrs;
        sum.total_sm_cycles += s.total_sm_cycles;
        sum.mem_stall_sm_cycles += s.mem_stall_sm_cycles;
        sum.idle_sm_cycles += s.idle_sm_cycles;
        sum.llc_accesses += s.llc_accesses;
        sum.llc_misses += s.llc_misses;
        sum.l1_accesses += s.l1_accesses;
        sum.l1_misses += s.l1_misses;
        sum.dram_bytes += s.dram_bytes;
    }
    result.set("gsim-sim.new_s", new_s);
    result.set("gsim-sim.engine_s", engine_s);
    result.set("gsim-sim.runs", runs as f64);
    result.set("gsim-sim.sim_cycles", sum.cycles as f64);
    result.set("gsim-sim.thread_instrs", sum.thread_instrs as f64);
    result.set("gsim-sim.total_sm_cycles", sum.total_sm_cycles as f64);
    if sum.total_sm_cycles > 0 {
        result.set(
            "gsim-sim.stalled_sm_cycle_share",
            (sum.mem_stall_sm_cycles + sum.idle_sm_cycles) as f64 / sum.total_sm_cycles as f64,
        );
        if engine_s > 0.0 {
            result.set(
                "gsim-sim.ns_per_sm_cycle",
                engine_s * 1e9 / sum.total_sm_cycles as f64,
            );
            result.set(
                "gsim-sim.minstr_per_s",
                sum.thread_instrs as f64 / 1e6 / engine_s,
            );
            result.set("gsim-sim.mcycles_per_s", sum.cycles as f64 / 1e6 / engine_s);
        }
    }
    result.set("gsim-mem.llc_accesses", sum.llc_accesses as f64);
    result.set("gsim-mem.llc_misses", sum.llc_misses as f64);
    if sum.l1_accesses > 0 {
        result.set(
            "gsim-mem.l1_miss_ratio",
            sum.l1_misses as f64 / sum.l1_accesses as f64,
        );
    }
    result.set("gsim-mem.dram_bytes", sum.dram_bytes as f64);
}

/// Sets what timing the exact stack-distance engine on `lines` line
/// accesses gave.
pub fn set_mrc_tree_metrics(result: &mut RunResult, tree_s: f64, lines: usize) {
    result.set("gsim-mem.mrc_tree_s", tree_s);
    result.set("gsim-mem.mrc_lines", lines as f64);
    if lines > 0 {
        result.set(
            "gsim-mem.mrc_tree_ns_per_access",
            tree_s * 1e9 / lines as f64,
        );
    }
}

/// Runs `sim_membound_64sm` or `sim_compute_scalemodel`.
pub fn run(cfg: &RunCfg) -> RunResult {
    let kind = if cfg.workload == "sim_membound_64sm" {
        Kind::Membound
    } else {
        Kind::Compute
    };
    let mut result = RunResult::default();
    let yard = Yardstick::new();
    let (set, setup_s) = repeated_setup(cfg, &yard, || build_set(kind, cfg), drop);
    let rec = Recorder::new(cfg.trace);
    let off = Recorder::new(false);
    let mut refs = Refs::new();
    let mut rows = Rows::new();

    if !cfg.trace {
        let mut rss = 0.0;
        // Three passes at least: the later ones are the determinism
        // repeat, and a median of three drops a slow pass where the mean
        // of two keeps it (runs of ~4 s passes used to flip between two
        // and three with the host's speed, which alone spread wall_s 7 %).
        let walls = timed_passes(cfg, if cfg.smoke { 1 } else { 3 }, |i| {
            let wall = pass(&set, &off, &yard, i, &mut refs, &mut rows, &mut result);
            if i == 0 {
                rss = peak_rss_mb();
            }
            wall
        });
        golden_step(cfg, &set, &refs, &mut result);
        let ops = median_ops(&rows);
        result.set("setup_s", setup_s);
        result.set("wall_s", ops.iter().sum());
        result.set("op_p50_ms", median(&ops) * 1e3);
        result.set("peak_rss_mb", rss);
        result.notes.push(format!(
            "{} passes of {} simulator runs (raw pass wall {}); wall_s sums, and op_p50_ms is the median of, each run's median host-speed-adjusted time over the passes",
            walls.len(),
            ops.len(),
            min_median_max(&walls)
        ));
        result.notes.push(yard.summary());
        return result;
    }

    // Traced run: untraced and traced passes alternate, so the tracing
    // overhead compares like with like; layer metrics come from the
    // traced passes only.
    let mut untraced_rows = Rows::new();
    let walls = timed_passes(cfg, 1, |pair| {
        let untraced = pass(
            &set,
            &off,
            &yard,
            2 * pair,
            &mut refs,
            &mut untraced_rows,
            &mut result,
        );
        let traced = pass(
            &set,
            &rec,
            &yard,
            2 * pair + 1,
            &mut refs,
            &mut rows,
            &mut result,
        );
        // The clock counts both passes of the pair.
        untraced + traced
    });
    let matched = golden_step(cfg, &set, &refs, &mut result);

    let probe_t0 = Instant::now();
    let probes = rec.enter("bench.probes", 0, PROBE_OP);
    // gsim-trace alone: every warp stream drained, no simulator attached.
    let mut warp_ops = 0;
    let mut lines: Vec<u64> = Vec::new();
    for (i, member) in set.members.iter().enumerate() {
        let d = rec.span("gsim-trace.stream_drain", probes.id, PROBE_OP, |_| {
            drain(&member.wl, (i == 0).then_some((&mut lines, MRC_LINE_CAP)))
        });
        warp_ops += d.warp_ops;
        if d != member.declared {
            result.fail(format!(
                "{}: a second drain generated another stream",
                member.name
            ));
        }
    }
    let first = &set.members[0];
    // gsim-sim's functional collector on the first member.
    let curve = rec.span("gsim-sim.collect_mrc", probes.id, PROBE_OP, |_| {
        collect_mrc(&first.wl, &set.cfgs)
    });
    if curve.len() != set.cfgs.len() {
        result.fail("collect_mrc returned a curve of another length");
    }
    // gsim-mem's stack-distance engines on the first member's own lines.
    rec.span("gsim-mem.mrc_tree", probes.id, PROBE_OP, |_| {
        let mut e = TreeStack::with_capacity(lines.len());
        e.record_all(lines.iter().copied());
        std::hint::black_box(e.finish());
    });
    rec.span("gsim-mem.mrc_shards", probes.id, PROBE_OP, |_| {
        let mut e = ShardsStack::new(0.1);
        e.record_all(lines.iter().copied());
        std::hint::black_box(e.finish());
    });
    // The sim_threads = 2 twin of the first op: same stats, other wall.
    let ops = median_ops(&rows);
    let mut twin_cfg = set.cfgs[0].clone();
    twin_cfg.sim_threads = 2;
    result.attempted += 1;
    let before = yard.read();
    let twin_open = rec.enter("bench.t2_twin", probes.id, PROBE_OP);
    let twin = run_op(first, &twin_cfg, &rec, twin_open.id, PROBE_OP);
    rec.exit(twin_open);
    let twin_factor = host_factor(before, yard.read());
    let mut t2_ratio = 0.0;
    match (&twin, refs.first().and_then(Option::as_ref)) {
        (Ok(t2), Some(t1)) => {
            if let Err(why) = same_stats(t1, &t2.stats) {
                result.fail(format!(
                    "{}: sim_threads = 2 twin differs: {why}",
                    first.name
                ));
            }
            if let Some(t1_s) = ops.first() {
                t2_ratio = (t2.new_s + t2.run_s) / twin_factor / t1_s;
            }
        }
        (Err(why), _) => result.fail(format!(
            "{}: sim_threads = 2 twin panicked: {why}",
            first.name
        )),
        (Ok(_), None) => {}
    }
    rec.exit(probes);
    let probe_s = probe_t0.elapsed().as_secs_f64();

    let all = rec.snapshot();
    let totals = spans::totals_by_name(&all);
    // One pass's worth of every count (each pass runs the same list, and
    // every repeat was checked equal), and of every time: per run, the
    // median over the traced passes of its host-speed-adjusted seconds.
    let news: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| r.iter().map(|t| t.0).collect())
        .collect();
    let runs: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| r.iter().map(|t| t.1).collect())
        .collect();
    let new_s: f64 = column_medians(&news).iter().sum();
    let engine_s: f64 = column_medians(&runs).iter().sum();
    let untraced: f64 = median_ops(&untraced_rows).iter().sum();
    let traced: f64 = ops.iter().sum();
    result.set("gsim-trace.build_s", set.build_s);
    result.set(
        "gsim-trace.stream_drain_s",
        spans::total_s(&totals, "gsim-trace.stream_drain"),
    );
    result.set("gsim-trace.warp_ops", warp_ops as f64);
    set_engine_metrics(&mut result, refs.iter().flatten(), new_s, engine_s);
    result.set(
        "gsim-sim.functional_s",
        spans::total_s(&totals, "gsim-sim.collect_mrc"),
    );
    result.set("gsim-sim.t2_wall_ratio", t2_ratio);
    result.set("gsim-sim.simstats_golden_match", matched as f64);
    set_mrc_tree_metrics(
        &mut result,
        spans::total_s(&totals, "gsim-mem.mrc_tree"),
        lines.len(),
    );
    result.set(
        "gsim-mem.mrc_shards_s",
        spans::total_s(&totals, "gsim-mem.mrc_shards"),
    );
    if untraced > 0.0 {
        result.set(
            "bench.trace_overhead_pct",
            (traced - untraced) / untraced * 100.0,
        );
    }
    result.set("bench.spans", all.len() as f64);
    result.set("bench.passes", rows.len() as f64);
    result.set("bench.wall_s_untraced", untraced);
    result.set("bench.wall_s_traced", traced);
    result.set("bench.probe_s", probe_s);
    result.set("bench.peak_rss_mb", peak_rss_mb());
    result.notes.push(format!(
        "{} pairs of an untraced and a traced pass; engine_s + new_s = {:.1} % of the traced pass; probe times are raw seconds",
        walls.len(),
        (engine_s + new_s) / traced * 100.0
    ));
    result.notes.push(yard.summary());
    crate::write_trace(cfg, &all, &mut result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draining_twice_gives_the_same_declaration_and_lines() {
        let wl = compute_member(1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let da = drain(&wl, Some((&mut a, 1000)));
        let db = drain(&wl, Some((&mut b, usize::MAX)));
        assert_eq!(da, db);
        assert_eq!(a.len(), 1000);
        assert_eq!(a[..], b[..1000]);
        assert!(da.warp_ops > 0 && da.warp_instrs >= da.warp_ops);
        assert_ne!(drain(&compute_member(2), None).fingerprint, da.fingerprint);
    }
}
