//! `gsim repro`: regenerates every table and figure of the paper's
//! evaluation (see the `gsim` binary for the flags).
//!
//! Strong-scaling simulations are run once and shared by table2/fig1/
//! fig2/fig4/fig5/appendix; weak by table4/fig6/fig7; MCM by fig8. The
//! benchmark sweeps run on a gsim-runner worker pool: one job per
//! benchmark, failures recorded per job and summarised at the end
//! instead of tearing the run down.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use gsim_core::experiment::{
    aggregate_error, reanalyze, speedups, speedups_in, BenchmarkOutcome, McmExperiment,
    StrongScalingExperiment, WeakScalingExperiment, METHODS,
};
use gsim_core::parallel::{collect, SweepFailure};
use gsim_core::report::{ipc, pct, ratio, TextTable};
use gsim_runner::Runner;
use gsim_sim::{ChipletConfig, GpuConfig};
use gsim_trace::suite::strong_suite;
use gsim_trace::weak::weak_suite;
use gsim_trace::MemScale;

/// Every section `gsim repro` regenerates; no sections means all.
pub const SECTIONS: [&str; 14] = [
    "table1", "table2", "table3", "table4", "table5", "fig1", "fig2", "fig4a", "fig4b", "fig5",
    "fig6", "fig7", "fig8", "appendix",
];

/// Formats bytes as MB with the paper's precision.
fn mb(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / (1024.0 * 1024.0))
}

/// Prints a suite's aggregate simulation throughput (simulated cycles per
/// wall-clock second; wall time is summed over jobs, so the rate is
/// per-worker rather than end-to-end) and its mean wall-clock speed-ups
/// over both scale models, which only `--threads 1` keeps free of
/// contention between jobs.
fn report_sim_rate(label: &str, outcomes: &[BenchmarkOutcome]) {
    let (mut cycles, mut secs) = (0u64, 0.0f64);
    for m in outcomes.iter().flat_map(|o| &o.measured) {
        cycles += m.cycles;
        secs += m.sim_seconds;
    }
    if secs > 0.0 {
        eprintln!(
            "[repro] {label}: {cycles} simulated cycles in {secs:.2} s of simulator time \
             ({:.0} cycles/sec)",
            cycles as f64 / secs
        );
        let wall = mean_speedups(outcomes, |o| speedups_in(o, |m| m.sim_seconds));
        let wall: Vec<String> = wall
            .iter()
            .map(|(n, s)| format!("{s:.2}x at {n}"))
            .collect();
        eprintln!("[repro] {label}: wall-clock speed-up {}", wall.join(", "));
    }
}

/// Each target rung's mean over `outcomes` of `speedups` ([`speedups`]
/// or a [`speedups_in`]).
fn mean_speedups(
    outcomes: &[BenchmarkOutcome],
    speedups: impl Fn(&BenchmarkOutcome) -> Vec<(u32, f64)>,
) -> Vec<(u32, f64)> {
    let all: Vec<Vec<(u32, f64)>> = outcomes.iter().map(speedups).collect();
    let n = all.len() as f64;
    let rung = |i: usize| (all[0][i].0, all.iter().map(|s| s[i].1).sum::<f64>() / n);
    (0..all.first().map_or(0, Vec::len)).map(rung).collect()
}

/// Regenerates `sections` (names from [`SECTIONS`]) at memory miniature
/// `scale`, running the sweeps on `runner`. Each section is printed to
/// stdout and, when `out` is given, also written to `<out>/<section>.txt`.
///
/// Returns whether every sweep job succeeded; a failed job's rows are
/// missing from the tables and the failures are summarised on stderr.
///
/// # Errors
///
/// Returns an error if a section cannot be written under `out`.
pub fn run(
    scale: MemScale,
    runner: &Runner,
    sections: &[String],
    out: Option<&Path>,
) -> io::Result<bool> {
    let want = |s: &str| sections.iter().any(|w| w == s);
    if let Some(dir) = out {
        fs::create_dir_all(dir)?;
    }
    // Prints section `name` and writes it under `out`, if it was asked for.
    let emit = |name: &str, content: &dyn Fn() -> String| -> io::Result<()> {
        if !want(name) {
            return Ok(());
        }
        let content = content();
        println!("{content}");
        match out {
            Some(dir) => fs::write(dir.join(format!("{name}.txt")), &content),
            None => Ok(()),
        }
    };
    let mut failures: Vec<SweepFailure> = Vec::new();

    emit("table1", &|| table1(scale))?;
    emit("table3", &|| table3(scale))?;
    emit("table5", &|| table5(scale))?;

    let strong_needed = [
        "table2", "fig1", "fig2", "fig4a", "fig4b", "fig5", "appendix",
    ]
    .iter()
    .any(|s| want(s));
    if strong_needed {
        eprintln!(
            "[repro] running strong-scaling suite ({scale}) on {} thread(s) ...",
            runner.threads()
        );
        let suite = strong_suite(scale);
        let exp = StrongScalingExperiment::new(scale);
        let run = collect(runner.run("strong", exp.jobs(&suite)));
        failures.extend(run.failures.iter().cloned());
        let outcomes = run.outcomes;
        report_sim_rate("strong-scaling suite", &outcomes);
        emit("table2", &|| table2(scale, &outcomes))?;
        emit("fig1", &|| fig1(&outcomes))?;
        emit("fig2", &|| fig2(scale, &outcomes))?;
        emit("fig4a", &|| fig4(&outcomes, 128, "Figure 4a"))?;
        emit("fig4b", &|| fig4(&outcomes, 64, "Figure 4b"))?;
        emit("fig5", &|| fig5(&outcomes))?;
        emit("appendix", &|| appendix(&outcomes))?;
    }

    let weak_needed = ["table4", "fig6", "fig7"].iter().any(|s| want(s));
    if weak_needed {
        eprintln!(
            "[repro] running weak-scaling suite ({scale}) on {} thread(s) ...",
            runner.threads()
        );
        let suite = weak_suite(scale);
        let exp = WeakScalingExperiment::new(scale);
        let run = collect(runner.run("weak", exp.jobs(&suite)));
        failures.extend(run.failures.iter().cloned());
        let outcomes = run.outcomes;
        report_sim_rate("weak-scaling suite", &outcomes);
        emit("table4", &|| table4(scale))?;
        emit("fig6", &|| fig6(&outcomes))?;
        emit("fig7", &|| fig7(&outcomes))?;
    }

    if want("fig8") {
        eprintln!(
            "[repro] running multi-chiplet case study ({scale}) on {} thread(s) ...",
            runner.threads()
        );
        let suite = weak_suite(scale);
        let exp = McmExperiment::new(scale);
        let run = collect(runner.run("mcm", exp.jobs(&suite)));
        failures.extend(run.failures.iter().cloned());
        report_sim_rate("mcm suite", &run.outcomes);
        emit("fig8", &|| fig8(&run.outcomes))?;
    }

    if !failures.is_empty() {
        eprintln!("[repro] {} job(s) failed:", failures.len());
        for f in &failures {
            eprintln!("[repro]   {f}");
        }
        eprintln!("[repro] affected rows are missing from the emitted tables");
    }
    Ok(failures.is_empty())
}

/// A per-benchmark error table's header: the `lead` columns, one column
/// per method in [`METHODS`] order, then the `tail` columns.
fn error_table(lead: &[&str], tail: &[&str]) -> TextTable {
    TextTable::new([lead, &METHODS[..], tail].concat())
}

/// `o`'s error at `target` for each method, in [`METHODS`] order (blank
/// where the method predicts nothing there).
fn error_cells(o: &BenchmarkOutcome, target: u32) -> impl Iterator<Item = String> + '_ {
    METHODS.into_iter().map(move |m| {
        o.method(m)
            .and_then(|mo| mo.at(target))
            .map(|p| pct(p.error_pct))
            .unwrap_or_default()
    })
}

/// The avg/max error table of every method over `outcomes` at `targets`
/// (errors summed target by target).
fn error_summary(outcomes: &[BenchmarkOutcome], targets: &[u32]) -> TextTable {
    let mut t = TextTable::new(vec!["method", "avg error (%)", "max error (%)"]);
    for m in METHODS {
        if let Some((avg, max)) = aggregate_error(outcomes, m, targets) {
            t.row(vec![m.into(), pct(avg), pct(max)]);
        }
    }
    t
}

fn table1(scale: MemScale) -> String {
    let mut t = TextTable::new(vec![
        "role",
        "#SMs",
        "LLC (MB)",
        "slices",
        "NoC BW (GB/s)",
        "DRAM (GB/s)",
        "MCs",
        "GB/s per MC",
    ]);
    for (role, sms) in [
        ("target", 128u32),
        ("target", 64),
        ("target", 32),
        ("scale model", 16),
        ("scale model", 8),
    ] {
        let c = GpuConfig::paper_target(sms, scale);
        t.row(vec![
            role.into(),
            sms.to_string(),
            mb(c.llc_paper_bytes()),
            c.llc_slices.to_string(),
            format!("{:.1}", c.noc_gbs),
            format!("{:.0}", c.dram_gbs_total()),
            c.n_mcs.to_string(),
            format!("{:.0}", c.dram_gbs_per_mc),
        ]);
    }
    format!(
        "Table I: scale models derived by proportional resource scaling\n\
         (capacities shown in paper units; the simulator runs a {scale})\n\n{}",
        t.render()
    )
}

fn table2(scale: MemScale, outcomes: &[BenchmarkOutcome]) -> String {
    let suite = strong_suite(scale);
    let mut t = TextTable::new(vec![
        "abbr",
        "benchmark",
        "suite",
        "CTA sizes (paper)",
        "footprint (MB)",
        "#insns (M, paper)",
        "expected",
        "measured",
    ]);
    let mut agree = 0;
    let mut rows = 0;
    for b in &suite {
        // A benchmark whose job failed has no outcome; its row is dropped.
        let Some(o) = outcomes.iter().find(|o| o.abbr == b.abbr) else {
            continue;
        };
        rows += 1;
        if o.measured_class == b.expected {
            agree += 1;
        }
        t.row(vec![
            b.abbr.into(),
            b.full_name.into(),
            b.origin.into(),
            b.cta_sizes_paper.into(),
            format!("{:.1}", b.workload.footprint_mb_paper()),
            format!("{:.0}", b.workload.paper_minsns()),
            b.expected.to_string(),
            o.measured_class.to_string(),
        ]);
    }
    format!(
        "Table II: strong-scaling benchmarks and their scaling behaviour\n\
         (measured class from simulated IPC over 8..128 SMs; {agree}/{rows} match the paper)\n\n{}",
        t.render()
    )
}

fn table3(scale: MemScale) -> String {
    let c = GpuConfig::baseline_128sm(scale);
    let mut t = TextTable::new(vec!["parameter", "value"]);
    t.row(vec![
        "SM clock".into(),
        format!("{:.1} GHz", c.sm_clock_ghz),
    ]);
    t.row(vec![
        "threads per SM".into(),
        format!(
            "{} warps/SM, 32 threads/warp, {} threads/SM",
            c.warps_per_sm, c.max_threads_per_sm
        ),
    ]);
    t.row(vec!["CTA scheduling".into(), "round-robin".into()]);
    t.row(vec![
        "warp scheduling".into(),
        "greedy-then-oldest (GTO)".into(),
    ]);
    t.row(vec![
        "L1 per SM".into(),
        format!(
            "{} KB, {}-way, LRU, {} MSHRs",
            scale.to_paper_bytes(c.l1_bytes) / 1024,
            c.l1_ways,
            c.l1_mshrs
        ),
    ]);
    t.row(vec![
        "LLC".into(),
        format!(
            "{} MB total, {} slices, {}-way per slice",
            mb(c.llc_paper_bytes()),
            c.llc_slices,
            c.llc_ways
        ),
    ]);
    t.row(vec![
        "DRAM bandwidth".into(),
        format!("{:.2} TB/s", c.dram_gbs_total() / 1000.0),
    ]);
    t.row(vec![
        "NoC".into(),
        format!("crossbar, {:.1} TB/s bisection", c.noc_gbs / 1000.0),
    ]);
    format!("Table III: baseline 128-SM target system\n\n{}", t.render())
}

fn table4(scale: MemScale) -> String {
    let mut t = TextTable::new(vec![
        "bench",
        "MCM",
        "CTAs (paper)",
        "footprint (MB)",
        "#insns (M)",
        "expected",
    ]);
    for b in weak_suite(scale) {
        for r in &b.rows {
            t.row(vec![
                b.abbr.into(),
                if r.mcm { "x".into() } else { "".into() },
                r.ctas_paper.to_string(),
                format!("{:.2}", r.footprint_mb),
                format!("{:.1}", r.minsns),
                b.expected.to_string(),
            ]);
        }
    }
    format!(
        "Table IV: weak-scaling benchmark configurations (five inputs per\n\
         benchmark matched to 8/16/32/64/128 SMs)\n\n{}",
        t.render()
    )
}

fn table5(scale: MemScale) -> String {
    let m = ChipletConfig::paper_mcm(16, scale);
    let c = &m.chiplet;
    let mut t = TextTable::new(vec!["parameter", "value"]);
    t.row(vec!["#SMs/chiplet".into(), c.n_sms.to_string()]);
    t.row(vec![
        "SM clock".into(),
        format!("{:.1} GHz", c.sm_clock_ghz),
    ]);
    t.row(vec!["CTA scheduling".into(), "distributed".into()]);
    t.row(vec!["page allocation".into(), "first-touch".into()]);
    t.row(vec![
        "LLC".into(),
        format!(
            "{} MB per chiplet, {} slices, {}-way per slice",
            mb(scale.to_paper_bytes(c.llc_bytes_total)),
            c.llc_slices,
            c.llc_ways
        ),
    ]);
    t.row(vec![
        "intra-chiplet NoC".into(),
        format!("crossbar, {:.1} TB/s", c.noc_gbs / 1000.0),
    ]);
    t.row(vec![
        "inter-chiplet NoC".into(),
        format!(
            "fly topology, {:.0} GB/s per chiplet",
            m.interchiplet_gbs_per_chiplet
        ),
    ]);
    t.row(vec![
        "memory".into(),
        format!(
            "{} memory controllers, {:.1} TB/s per chiplet",
            c.n_mcs,
            c.dram_gbs_total() / 1000.0
        ),
    ]);
    format!(
        "Table V: the simulated 16-chiplet target system (16 x {} SMs = {} SMs)\n\n{}",
        c.n_sms,
        m.total_sms(),
        t.render()
    )
}

fn fig1(outcomes: &[BenchmarkOutcome]) -> String {
    let mut out = String::from(
        "Figure 1: IPC vs system size under strong scaling (dct super-linear,\n\
         bfs sub-linear, pf linear), with the linear-scaling reference\n\n",
    );
    for abbr in ["dct", "bfs", "pf"] {
        let Some(o) = outcomes.iter().find(|o| o.abbr == abbr) else {
            continue;
        };
        let base = o.measured[0].ipc / f64::from(o.measured[0].size);
        let mut t = TextTable::new(vec!["#SMs", "real IPC", "linear scaling"]);
        for m in &o.measured {
            t.row(vec![
                m.size.to_string(),
                ipc(m.ipc),
                ipc(base * f64::from(m.size)),
            ]);
        }
        let _ = writeln!(out, "[{abbr}]\n{}", t.render());
    }
    out
}

fn fig2(scale: MemScale, outcomes: &[BenchmarkOutcome]) -> String {
    let mut out = String::from(
        "Figure 2: miss-rate curves (LLC MPKI vs capacity) under strong scaling:\n\
         sharp cliff (dct), gradual decrease (bfs), flat (pf)\n\n",
    );
    for abbr in ["dct", "bfs", "pf"] {
        let Some(o) = outcomes.iter().find(|o| o.abbr == abbr) else {
            continue;
        };
        let mrc = o.mrc.as_ref().expect("strong outcomes carry an MRC");
        let mut t = TextTable::new(vec!["LLC (MB, paper units)", "MPKI"]);
        for &(size, mpki) in mrc.points() {
            let cap = GpuConfig::paper_target(size, scale).llc_paper_bytes();
            t.row(vec![mb(cap), format!("{mpki:.2}")]);
        }
        let _ = writeln!(out, "[{abbr}]\n{}", t.render());
    }
    out
}

fn fig4(outcomes: &[BenchmarkOutcome], target: u32, title: &str) -> String {
    let mut t = error_table(&["bench", "class"], &[]);
    for o in outcomes {
        let mut row = vec![o.abbr.clone(), o.expected.to_string()];
        row.extend(error_cells(o, target));
        t.row(row);
    }
    format!(
        "{title}: IPC prediction error (%) under strong scaling, {target}-SM target\n\
         (8-SM and 16-SM scale models)\n\n{}\n{}",
        t.render(),
        error_summary(outcomes, &[target]).render()
    )
}

fn fig5(outcomes: &[BenchmarkOutcome]) -> String {
    let picks = [
        "dct", "fwt", "as", "lu", // super-linear row
        "bfs", "gr", "sr", "btree", // sub-linear row
        "pf", "ht", "at", "gemm", // linear row
    ];
    let mut out = String::from(
        "Figure 5: performance vs system size under strong scaling: real IPC\n\
         and the predicted curves of each method\n\n",
    );
    for abbr in picks {
        let Some(o) = outcomes.iter().find(|o| o.abbr == abbr) else {
            continue;
        };
        let mut t = TextTable::new(vec![
            "#SMs",
            "real",
            "proportional",
            "scale-model",
            "linear",
            "power-law",
        ]);
        for m in &o.measured {
            let mut row = vec![m.size.to_string(), ipc(m.ipc)];
            for method in ["proportional", "scale-model", "linear", "power-law"] {
                let cell = o
                    .method(method)
                    .and_then(|mo| mo.at(m.size))
                    .map(|p| ipc(p.predicted))
                    .unwrap_or_else(|| ipc(m.ipc)); // scale-model sizes anchor the curves
                row.push(cell);
            }
            t.row(row);
        }
        let _ = writeln!(out, "[{abbr}] ({})\n{}", o.expected, t.render());
    }
    out
}

fn fig6(outcomes: &[BenchmarkOutcome]) -> String {
    let mut t = error_table(&["bench", "target"], &[]);
    let targets = [32u32, 64, 128];
    for o in outcomes {
        for target in targets {
            let mut row = vec![o.abbr.clone(), target.to_string()];
            row.extend(error_cells(o, target));
            t.row(row);
        }
    }
    format!(
        "Figure 6: IPC prediction error (%) under weak scaling for the 32-, 64-\n\
         and 128-SM targets (8/16-SM scale models with scaled inputs)\n\n{}\n{}",
        t.render(),
        error_summary(outcomes, &targets).render()
    )
}

fn fig7(outcomes: &[BenchmarkOutcome]) -> String {
    let mut t = TextTable::new(vec!["bench", "32 SMs", "64 SMs", "128 SMs"]);
    let rows = outcomes.iter().map(|o| (o.abbr.clone(), speedups(o)));
    for (label, s) in rows.chain([("avg".into(), mean_speedups(outcomes, speedups))]) {
        t.row([vec![label], s.iter().map(|&(_, s)| ratio(s)).collect()].concat());
    }
    format!(
        "Figure 7: simulation-time speedup of scale-model simulation under weak\n\
         scaling (simulated SM-cycles of the target / of both 8- and 16-SM models)\n\n{}",
        t.render()
    )
}

fn fig8(outcomes: &[BenchmarkOutcome]) -> String {
    let mut t = error_table(&["bench"], &["sim speedup"]);
    for o in outcomes {
        let mut row = vec![o.abbr.clone()];
        row.extend(error_cells(o, 16));
        row.push(
            speedups(o)
                .first()
                .map(|&(_, s)| ratio(s))
                .unwrap_or_default(),
        );
        t.row(row);
    }
    format!(
        "Figure 8: multi-chiplet IPC prediction error (%) for the 16-chiplet\n\
         target (4- and 8-chiplet scale models, 64 SMs per chiplet)\n\n{}\n{}",
        t.render(),
        error_summary(outcomes, &[16]).render()
    )
}

fn appendix(outcomes: &[BenchmarkOutcome]) -> String {
    let redone: Vec<BenchmarkOutcome> = outcomes
        .iter()
        .filter_map(|o| reanalyze(o, 16, 32).ok())
        .collect();
    let mut out = String::from(
        "Artifact appendix: 16-SM and 32-SM scale models predicting the 64-\n\
         and 128-SM targets (errors are higher than with 8/16-SM models, as\n\
         the paper reports during artifact evaluation)\n\n",
    );
    for target in [64u32, 128] {
        let t = error_summary(&redone, &[target]).render();
        let _ = writeln!(out, "[{target}-SM target]\n{t}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mb_formatting() {
        assert_eq!(mb(34 * 1024 * 1024), "34.000");
        assert_eq!(mb(2_228_224), "2.125");
    }
}
