//! `repro_strong`: the strong-scaling experiment over all 21 Table II
//! benchmarks on a `gsim-runner` pool — the `repro` surface, and the only
//! workload that yields prediction accuracy.
//!
//! Table II is fixed, so the seed shapes nothing here; the run is the
//! same for every seed.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gsim_core::experiment::{BenchmarkOutcome, StrongScalingExperiment, METHODS};
use gsim_core::oneshot::Observation;
use gsim_core::plan::{collect_replay, Fit};
use gsim_core::{classify_scaling, percent_error};
use gsim_runner::{Event, EventSink, Job, Runner, RunnerConfig};
use gsim_sim::{GpuConfig, SimStats, Simulator};
use gsim_trace::suite::{strong_suite, StrongBenchmark};
use gsim_trace::MemScale;

use crate::golden::{golden_path, Golden, Verdict};
use crate::harness::{
    guarded, host_factor, repeated_setup, timed, timed_passes, RunCfg, Yardstick,
};
use crate::result::{peak_rss_mb, RunResult};
use crate::sim::{drain, set_engine_metrics, Declared};
use crate::spans::{self, Recorder};
use crate::stats::{column_medians, median, min_median_max};

/// Workers of the runner pool: one. With two, the jobs share the host's
/// two hardware threads and what a job takes depends on which job runs
/// beside it, which the scheduler decides anew every pass; the yardstick
/// read on a worker cannot see that. Measured over 10 runs, `wall_s`
/// moved by 17 % on two workers (interquartile distance over median).
/// One worker runs the jobs in suite order with the yardstick read
/// between them on an otherwise idle machine, like the simulator
/// workloads.
const POOL_THREADS: usize = 1;

/// The target the fidelity figures are taken at (Figure 4a).
const TARGET: u32 = 128;
/// Fidelity may sit this many points of mean error above its golden
/// before the run counts as incorrect.
const ERR_SLACK_POINTS: f64 = 0.1;

/// Start and end of one runner job, stamped by the sink on receipt, with
/// the yardstick read on the worker just before and just after it.
#[derive(Debug, Clone, Copy, Default)]
struct JobTimes {
    start: Option<(Instant, f64)>,
    end: Option<(Instant, f64)>,
}

/// The benchmark-owned [`EventSink`]: job start/finish times per sweep.
/// The runner calls it on the worker thread at each job boundary, which
/// is where the yardstick can be read without a third thread competing
/// for the two hardware threads the pool keeps busy.
#[derive(Debug)]
struct JobLog {
    yard: Arc<Yardstick>,
    inner: Mutex<(Option<Instant>, Vec<JobTimes>)>,
}

/// What one sweep's events add up to.
#[derive(Debug, Clone, Default)]
struct SweepTimes {
    /// Raw wall seconds of each job, in job order.
    job_s: Vec<f64>,
    /// The same, host-speed-adjusted by the readings around each job.
    adjusted_job_s: Vec<f64>,
    /// Seconds each job waited in the pool before a worker took it.
    queue_wait_s: f64,
}

impl SweepTimes {
    /// How much slower than the reference the host ran over the sweep:
    /// the jobs' raw time over their adjusted time.
    fn host_factor(&self) -> f64 {
        let adjusted: f64 = self.adjusted_job_s.iter().sum();
        if adjusted > 0.0 {
            self.job_s.iter().sum::<f64>() / adjusted
        } else {
            1.0
        }
    }
}

impl JobLog {
    fn new(yard: Arc<Yardstick>) -> Self {
        Self {
            yard,
            inner: Mutex::new((None, Vec::new())),
        }
    }

    /// Forgets the previous sweep and returns what it recorded.
    fn take(&self) -> SweepTimes {
        let mut inner = self.inner.lock().expect("the log is only pushed to");
        let (sweep_start, jobs) = std::mem::take(&mut *inner);
        let mut out = SweepTimes::default();
        for j in jobs {
            if let (Some((s, y_before)), Some((e, y_after))) = (j.start, j.end) {
                let raw = e.duration_since(s).as_secs_f64();
                out.job_s.push(raw);
                out.adjusted_job_s
                    .push(raw / host_factor(y_before, y_after));
                if let Some(t0) = sweep_start {
                    out.queue_wait_s += s.duration_since(t0).as_secs_f64();
                }
            }
        }
        out
    }
}

impl EventSink for JobLog {
    fn on_event(&self, event: &Event<'_>) {
        match *event {
            Event::SweepStarted { jobs, .. } => {
                *self.inner.lock().expect("the log is only pushed to") =
                    (Some(Instant::now()), vec![JobTimes::default(); jobs]);
            }
            // The reading lies outside the stamped interval. A retried
            // job keeps its first start and its last end.
            Event::JobStarted { index, .. } => {
                let reading = self.yard.read();
                let now = Instant::now();
                let mut inner = self.inner.lock().expect("the log is only pushed to");
                if let Some(j) = inner.1.get_mut(index) {
                    j.start.get_or_insert((now, reading));
                }
            }
            Event::JobFinished { index, .. } => {
                let now = Instant::now();
                let reading = self.yard.read();
                let mut inner = self.inner.lock().expect("the log is only pushed to");
                if let Some(j) = inner.1.get_mut(index) {
                    j.end = Some((now, reading));
                }
            }
            Event::SweepFinished { .. } => {}
        }
    }
}

/// What set-up builds.
struct Setup {
    scale: MemScale,
    suite: Vec<StrongBenchmark>,
    declared: Vec<Declared>,
    runner: Runner,
    log: Arc<JobLog>,
    build_s: f64,
    drain_s: f64,
}

fn setup(cfg: &RunCfg, yard: &Arc<Yardstick>) -> Setup {
    // The paper-reproduction miniature (divisor 8); smoke mode uses the
    // coarse divisor the repository's own fast tests use.
    let scale = if cfg.smoke {
        MemScale::new(32)
    } else {
        MemScale::default()
    };
    let (mut suite, build_s) = timed(|| strong_suite(scale));
    if cfg.smoke {
        suite.truncate(4);
    }
    let (declared, drain_s) = timed(|| suite.iter().map(|b| drain(&b.workload, None)).collect());
    let log = Arc::new(JobLog::new(Arc::clone(yard)));
    let mut runner = Runner::new(RunnerConfig {
        threads: POOL_THREADS,
        timeout: None,
        retry_once: false,
    });
    runner.add_sink(Arc::clone(&log) as Arc<dyn EventSink>);
    Setup {
        scale,
        suite,
        declared,
        runner,
        log,
        build_s,
        drain_s,
    }
}

/// Accuracy of one pass's predictions.
#[derive(Debug, Clone, PartialEq)]
struct Fidelity {
    /// Mean abs % IPC error at the 128-SM target, per method in
    /// [`METHODS`] order.
    err_mean_pct: Vec<f64>,
    /// Largest scale-model error at the target.
    scale_model_err_max_pct: f64,
    /// Benchmarks whose measured scaling class is Table II's.
    classes_correct: u64,
}

impl Fidelity {
    fn scale_model_err_mean_pct(&self) -> f64 {
        *self.err_mean_pct.last().expect("five methods")
    }
}

/// `errs[b][m]`: error of method `m` on benchmark `b` at the target.
fn fidelity_of(errs: &[Vec<f64>], classes_correct: u64) -> Fidelity {
    let n = errs.len().max(1) as f64;
    let err_mean_pct = (0..METHODS.len())
        .map(|m| errs.iter().map(|e| e[m]).sum::<f64>() / n)
        .collect();
    Fidelity {
        err_mean_pct,
        scale_model_err_max_pct: errs
            .iter()
            .map(|e| e[METHODS.len() - 1])
            .fold(0.0, f64::max),
        classes_correct,
    }
}

fn fidelity_of_outcomes(outcomes: &[BenchmarkOutcome]) -> Result<Fidelity, String> {
    let mut errs = Vec::new();
    for o in outcomes {
        let row: Option<Vec<f64>> = METHODS
            .iter()
            .map(|m| {
                o.method(m)
                    .and_then(|mo| mo.at(TARGET))
                    .map(|p| p.error_pct)
            })
            .collect();
        errs.push(row.ok_or_else(|| format!("{}: no prediction at {TARGET} SMs", o.abbr))?);
    }
    let classes = outcomes
        .iter()
        .filter(|o| o.measured_class == o.expected)
        .count();
    Ok(fidelity_of(&errs, classes as u64))
}

/// The outcome with its wall-clock fields zeroed, for comparisons.
fn deterministic(mut o: BenchmarkOutcome) -> BenchmarkOutcome {
    for m in &mut o.measured {
        m.sim_seconds = 0.0;
    }
    o
}

/// One untraced pass: the suite through `run_suite_on`. Pushes the
/// host-speed-adjusted job times and returns the adjusted wall.
fn untraced_pass(
    s: &Setup,
    exp: &StrongScalingExperiment,
    reference: &mut Option<Vec<BenchmarkOutcome>>,
    job_s: &mut Vec<Vec<f64>>,
    result: &mut RunResult,
) -> f64 {
    let t0 = Instant::now();
    let run = guarded(|| exp.run_suite_on(&s.suite, "repro_strong", &s.runner));
    let raw = t0.elapsed().as_secs_f64();
    let sweep = s.log.take();
    let factor = sweep.host_factor();
    result.attempted += s.suite.len() as u64;
    job_s.push(sweep.adjusted_job_s);
    match run {
        Err(why) => {
            for _ in &s.suite {
                result.fail(format!("run_suite_on panicked: {why}"));
            }
        }
        Ok(run) => {
            for f in &run.failures {
                result.fail(format!("experiment job {f}"));
            }
            let outcomes: Vec<BenchmarkOutcome> =
                run.outcomes.into_iter().map(deterministic).collect();
            match reference {
                None => *reference = Some(outcomes),
                Some(first) => {
                    for (a, b) in first.iter().zip(&outcomes) {
                        if a != b {
                            result.fail(format!("{}: repeat is not deterministic", b.abbr));
                        }
                    }
                }
            }
        }
    }
    raw / factor
}

/// Golden entries of the measured points and the fidelity figures.
fn golden_entries(outcomes: &[BenchmarkOutcome], fid: &Fidelity) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for o in outcomes {
        for m in &o.measured {
            out.insert(
                format!("repro_strong/{}@{}sm", o.abbr, m.size),
                format!(
                    "cycles={} ipc={:?} mpki={:?} f_mem={:?} f_idle={:?}",
                    m.cycles, m.ipc, m.mpki, m.f_mem, m.f_idle
                ),
            );
        }
    }
    out.insert(
        "repro_strong/fidelity.scale_model_err_mean_pct".to_string(),
        format!("{:?}", fid.scale_model_err_mean_pct()),
    );
    out.insert(
        "repro_strong/fidelity.classes_correct".to_string(),
        fid.classes_correct.to_string(),
    );
    out
}

/// Checks fidelity against its golden (the accuracy gate) and the
/// measured points against theirs; returns the number of matching runs.
fn golden_step(
    cfg: &RunCfg,
    outcomes: &[BenchmarkOutcome],
    fid: &Fidelity,
    result: &mut RunResult,
) -> u64 {
    if cfg.smoke {
        return 0;
    }
    let path = golden_path(&cfg.bench_dir);
    let mut golden = match Golden::load(&path) {
        Ok(g) => g,
        Err(why) => {
            result.violate(why);
            return 0;
        }
    };
    let entries = golden_entries(outcomes, fid);
    if cfg.bless {
        let n = entries.len();
        match golden.bless(&path, "repro_strong", entries) {
            Ok(()) => result.notes.push(format!(
                "blessed {n} golden entries into {}",
                path.display()
            )),
            Err(why) => result.violate(why),
        }
        return 0;
    }
    // The accuracy gate: a change may improve fidelity, never worsen it
    // beyond the slack without re-blessing.
    if let Some(g) = golden.get_f64("repro_strong/fidelity.scale_model_err_mean_pct") {
        if fid.scale_model_err_mean_pct() > g + ERR_SLACK_POINTS {
            result.violate(format!(
                "scale-model mean error {:.3} % is more than {ERR_SLACK_POINTS} points above its golden {g:.3} %",
                fid.scale_model_err_mean_pct()
            ));
        }
    }
    if let Some(g) = golden.get_f64("repro_strong/fidelity.classes_correct") {
        if (fid.classes_correct as f64) < g {
            result.violate(format!(
                "{} of {} scaling classes match Table II, the golden has {g}",
                fid.classes_correct,
                outcomes.len()
            ));
        }
    }
    let (mut matched, mut mismatched) = (0u64, 0u64);
    for (key, digest) in entries.iter().filter(|(k, _)| k.contains('@')) {
        match golden.check(key, digest) {
            Verdict::Match => matched += 1,
            Verdict::Mismatch => mismatched += 1,
            Verdict::Absent => {}
        }
    }
    result.notes.push(format!(
        "golden: {matched} simulated points match, {mismatched} differ"
    ));
    matched
}

/// What one decomposed experiment job returns.
struct Decomposed {
    abbr: &'static str,
    /// Stats per ladder size.
    stats: Vec<(u32, SimStats)>,
    /// Error per method at the target, [`METHODS`] order.
    errs: Vec<f64>,
    class_ok: bool,
    /// Seconds in the 8- and 16-SM simulations.
    scale_model_sim_s: f64,
}

/// The strong pipeline of one benchmark through the public pieces
/// `StrongScalingExperiment::run_benchmark` is made of, a span around
/// each call into a layer.
fn decomposed_job(
    bench: &StrongBenchmark,
    scale: MemScale,
    rec: &Recorder,
    parent: u32,
    op: u64,
) -> Result<Decomposed, String> {
    let root = rec.enter("gsim-core.experiment", parent, op);
    let sizes = StrongScalingExperiment::new(scale).sizes().to_vec();
    let configs: Vec<GpuConfig> = sizes
        .iter()
        .map(|&s| GpuConfig::paper_target(s, scale))
        .collect();
    let mut stats = Vec::new();
    let mut scale_model_sim_s = 0.0;
    for cfg in &configs {
        let t0 = Instant::now();
        let sim = rec.span("gsim-sim.new", root.id, op, |_| {
            Simulator::new(cfg.clone(), &bench.workload)
        });
        let st = rec.span("gsim-sim.run", root.id, op, |_| sim.run());
        if cfg.n_sms <= 16 {
            scale_model_sim_s += t0.elapsed().as_secs_f64();
        }
        stats.push((cfg.n_sms, st));
    }
    let mrc = rec.span("gsim-core.collect_replay", root.id, op, |_| {
        collect_replay(&bench.workload, &configs).sized_mrc()
    });
    let obs = |size: u32| {
        let st = &stats
            .iter()
            .find(|(s, _)| *s == size)
            .expect("ladder size")
            .1;
        (st.sustained_ipc(), st.f_mem())
    };
    let ((ipc_s, _), (ipc_l, f_mem_l)) = (obs(8), obs(16));
    let fit = rec
        .span("gsim-core.fit", root.id, op, |_| {
            Fit::new(
                Observation {
                    size: 8,
                    ipc: ipc_s,
                    f_mem: 0.0,
                },
                Observation {
                    size: 16,
                    ipc: ipc_l,
                    f_mem: f_mem_l,
                },
                Some(&mrc),
            )
        })
        .map_err(|e| format!("{}: fit failed: {e}", bench.abbr))?;
    let forecast = rec
        .span("gsim-core.forecast", root.id, op, |_| {
            fit.forecast(&[32, 64, TARGET])
        })
        .map_err(|e| format!("{}: forecast failed: {e}", bench.abbr))?;
    let real = obs(TARGET).0;
    let at_target = forecast
        .targets
        .iter()
        .find(|t| t.target == TARGET)
        .ok_or_else(|| format!("{}: no forecast at {TARGET}", bench.abbr))?;
    let errs = METHODS
        .iter()
        .map(|m| {
            at_target
                .method(m)
                .map(|p| percent_error(p, real))
                .ok_or_else(|| format!("{}: method {m} missing", bench.abbr))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let points: Vec<(u32, f64)> = stats
        .iter()
        .map(|(s, st)| (*s, st.sustained_ipc()))
        .collect();
    let class_ok = classify_scaling(&points) == bench.expected;
    rec.exit(root);
    Ok(Decomposed {
        abbr: bench.abbr,
        stats,
        errs,
        class_ok,
        scale_model_sim_s,
    })
}

/// Runs `repro_strong`.
pub fn run(cfg: &RunCfg) -> RunResult {
    let mut result = RunResult::default();
    let yard = Arc::new(Yardstick::new());
    let (s, setup_s) = repeated_setup(cfg, &yard, || setup(cfg, &yard), drop);
    let exp = StrongScalingExperiment::new(s.scale);
    let mut reference: Option<Vec<BenchmarkOutcome>> = None;
    let mut job_s = Vec::new();

    if !cfg.trace {
        let mut rss = 0.0;
        let walls = timed_passes(cfg, 1, |i| {
            let wall = untraced_pass(&s, &exp, &mut reference, &mut job_s, &mut result);
            if i == 0 {
                rss = peak_rss_mb();
            }
            wall
        });
        check_fidelity(cfg, reference.as_deref(), &mut result);
        result.set("setup_s", setup_s);
        result.set("wall_s", median(&walls));
        result.set("op_p50_ms", median(&column_medians(&job_s)) * 1e3);
        result.set("peak_rss_mb", rss);
        result.notes.push(format!(
            "{} passes of {} experiment jobs on {} runner threads (adjusted pass wall {}); wall_s is the median host-speed-adjusted pass, op_p50_ms the median over the jobs of each one's median adjusted time",
            walls.len(),
            s.suite.len(),
            s.runner.threads(),
            min_median_max(&walls)
        ));
        result.notes.push(yard.summary());
        return result;
    }

    let rec = Arc::new(Recorder::new(true));
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_raw_walls = Vec::new();
    let mut sweeps: Vec<SweepTimes> = Vec::new();
    let mut decomposed: Vec<Decomposed> = Vec::new();
    timed_passes(cfg, 1, |pair| {
        let untraced = untraced_pass(&s, &exp, &mut reference, &mut job_s, &mut result);
        let t0 = Instant::now();
        let root = rec.enter("bench.pass", 0, pair);
        let jobs: Vec<Job<Result<Decomposed, String>>> = s
            .suite
            .iter()
            .enumerate()
            .map(|(i, bench)| {
                let (bench, rec, scale) = (bench.clone(), Arc::clone(&rec), s.scale);
                let op = pair * 1000 + i as u64;
                Job::new(bench.abbr, move || {
                    decomposed_job(&bench, scale, &rec, root.id, op)
                })
            })
            .collect();
        let reports = rec.span("gsim-runner.run", root.id, pair, |_| {
            s.runner.run("repro_strong-decomposed", jobs)
        });
        rec.exit(root);
        let traced_raw = t0.elapsed().as_secs_f64();
        let sweep = s.log.take();
        let traced = traced_raw / sweep.host_factor();
        traced_raw_walls.push(traced_raw);
        sweeps.push(sweep);
        result.attempted += reports.len() as u64;
        decomposed.clear();
        for report in reports {
            let name = report.name.clone();
            let failure = report.failure();
            match report.into_ok() {
                Some(Ok(d)) => decomposed.push(d),
                Some(Err(why)) => result.fail(why),
                None => result.fail(format!("{name}: {}", failure.unwrap_or_default())),
            }
        }
        untraced_walls.push(untraced);
        traced_walls.push(traced);
        untraced + traced
    });
    let (matched, fid) = check_fidelity(cfg, reference.as_deref(), &mut result);

    // The decomposed pipeline must be the experiment's: same simulated
    // points, same errors.
    let errs: Vec<Vec<f64>> = decomposed.iter().map(|d| d.errs.clone()).collect();
    let classes = decomposed.iter().filter(|d| d.class_ok).count() as u64;
    let dfid = fidelity_of(&errs, classes);
    if let Some(f) = &fid {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        if !f
            .err_mean_pct
            .iter()
            .zip(&dfid.err_mean_pct)
            .all(|(a, b)| close(*a, *b))
            || f.classes_correct != dfid.classes_correct
        {
            result.fail(format!(
                "the decomposed pipeline's fidelity {dfid:?} is not run_suite_on's {f:?}"
            ));
        }
    }
    if let Some(outcomes) = reference.as_deref() {
        for d in &decomposed {
            let same = outcomes.iter().find(|o| o.abbr == d.abbr).is_some_and(|o| {
                d.stats
                    .iter()
                    .all(|(size, st)| o.measured_at(*size).is_some_and(|m| m.cycles == st.cycles))
            });
            if !same {
                result.fail(format!(
                    "{}: decomposed cycles differ from run_suite_on's",
                    d.abbr
                ));
            }
        }
    }

    let all = rec.snapshot();
    let totals = spans::totals_by_name(&all);
    let t = |name: &str| spans::total_s(&totals, name);
    let passes = traced_walls.len() as f64;
    // Times are per traced pass (spans cover all of them, counts the last).
    let engine_s = t("gsim-sim.run") / passes;
    let experiment_s = t("gsim-core.experiment") / passes;
    let predict_s =
        (t("gsim-core.collect_replay") + t("gsim-core.fit") + t("gsim-core.forecast")) / passes;
    let scale_model_sim_s: f64 = decomposed.iter().map(|d| d.scale_model_sim_s).sum();
    result.set("gsim-trace.build_s", s.build_s);
    result.set("gsim-trace.stream_drain_s", s.drain_s);
    result.set(
        "gsim-trace.warp_ops",
        s.declared.iter().map(|d| d.warp_ops).sum::<u64>() as f64,
    );
    set_engine_metrics(
        &mut result,
        decomposed.iter().flat_map(|d| &d.stats).map(|(_, st)| st),
        t("gsim-sim.new") / passes,
        engine_s,
    );
    result.set("gsim-sim.simstats_golden_match", matched as f64);
    result.set(
        "gsim-core.collect_replay_s",
        t("gsim-core.collect_replay") / passes,
    );
    result.set("gsim-core.fit_s", t("gsim-core.fit") / passes);
    result.set("gsim-core.forecast_s", t("gsim-core.forecast") / passes);
    result.set("gsim-core.experiment_s", experiment_s);
    if experiment_s > 0.0 {
        result.set(
            "gsim-core.scale_model_sim_share",
            scale_model_sim_s / experiment_s,
        );
        result.set("gsim-core.predict_share", predict_s / experiment_s);
    }
    for (m, err) in METHODS.iter().zip(&dfid.err_mean_pct) {
        let name = match *m {
            "logarithmic" => "gsim-core.err_mean_pct.logarithmic",
            "proportional" => "gsim-core.err_mean_pct.proportional",
            "linear" => "gsim-core.err_mean_pct.linear",
            "power-law" => "gsim-core.err_mean_pct.power-law",
            _ => "gsim-core.scale_model_err_mean_pct",
        };
        result.set(name, *err);
    }
    result.set(
        "gsim-core.scale_model_err_max_pct",
        dfid.scale_model_err_max_pct,
    );
    result.set("gsim-core.classes_correct", dfid.classes_correct as f64);
    if let Some(last) = sweeps.last() {
        let busy: f64 = last.job_s.iter().sum();
        // Raw against raw: the sink stamps wall-clock times.
        let wall = traced_raw_walls.last().copied().unwrap_or(0.0);
        result.set("gsim-runner.jobs", last.job_s.len() as f64);
        result.set("gsim-runner.job_busy_s", busy);
        result.set("gsim-runner.queue_wait_s", last.queue_wait_s);
        if wall > 0.0 {
            result.set(
                "gsim-runner.utilisation",
                busy / (s.runner.threads() as f64 * wall),
            );
        }
    }
    let untraced = median(&untraced_walls);
    let traced = median(&traced_walls);
    result.set(
        "bench.trace_overhead_pct",
        (traced - untraced) / untraced * 100.0,
    );
    result.set("bench.spans", all.len() as f64);
    result.set("bench.passes", passes);
    result.set("bench.wall_s_untraced", untraced);
    result.set("bench.wall_s_traced", traced);
    result.set("bench.peak_rss_mb", peak_rss_mb());
    result.notes.push(
        "layer times taken from spans are raw seconds per traced pass; the pass walls are host-speed-adjusted".to_string(),
    );
    result.notes.push(yard.summary());
    crate::write_trace(cfg, &all, &mut result);
    result
}

/// Computes the fidelity of the reference outcomes, notes it, and runs
/// the golden step; returns the golden matches and the fidelity.
fn check_fidelity(
    cfg: &RunCfg,
    reference: Option<&[BenchmarkOutcome]>,
    result: &mut RunResult,
) -> (u64, Option<Fidelity>) {
    let Some(outcomes) = reference else {
        return (0, None);
    };
    match fidelity_of_outcomes(outcomes) {
        Err(why) => {
            result.fail(why);
            (0, None)
        }
        Ok(fid) => {
            result.notes.push(format!(
                "fidelity at {TARGET} SMs: scale-model mean error {:.2} % (max {:.1} %), {} of {} scaling classes match Table II",
                fid.scale_model_err_mean_pct(),
                fid.scale_model_err_max_pct,
                fid.classes_correct,
                outcomes.len()
            ));
            let matched = golden_step(cfg, outcomes, &fid, result);
            (matched, Some(fid))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_log_measures_busy_time_and_queue_wait() {
        let log = JobLog::new(Arc::new(Yardstick::new()));
        log.on_event(&Event::SweepStarted {
            label: "s",
            jobs: 2,
            threads: 1,
        });
        for index in 0..2 {
            log.on_event(&Event::JobStarted {
                label: "s",
                index,
                name: "j",
                attempt: 1,
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
            log.on_event(&Event::JobFinished {
                label: "s",
                index,
                name: "j",
                attempt: 1,
                outcome: "ok",
                millis: 2,
            });
        }
        let times = log.take();
        assert_eq!(times.job_s.len(), 2);
        assert_eq!(times.adjusted_job_s.len(), 2);
        assert!(times.job_s.iter().all(|&s| s >= 0.002));
        assert!(times.host_factor() > 0.0);
        // The second job waited for the first.
        assert!(times.queue_wait_s >= 0.002);
        assert!(log.take().job_s.is_empty());
    }

    #[test]
    fn fidelity_is_the_mean_over_benchmarks_per_method() {
        let errs = vec![
            vec![80.0, 40.0, 30.0, 20.0, 2.0],
            vec![60.0, 20.0, 10.0, 0.0, 4.0],
        ];
        let f = fidelity_of(&errs, 2);
        assert_eq!(f.err_mean_pct, [70.0, 30.0, 20.0, 10.0, 3.0]);
        assert_eq!(f.scale_model_err_mean_pct(), 3.0);
        assert_eq!(f.scale_model_err_max_pct, 4.0);
    }
}
