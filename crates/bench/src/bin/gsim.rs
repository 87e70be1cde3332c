//! `gsim` — the command-line front end to the GPU timing simulator and
//! the scale-model method. Run it with no arguments for the synopsis,
//! rendered from `VERBS`: every verb, its arguments and the flags it
//! reads. Any other flag or number of arguments exits 2.
//!
//! `run` simulates one input on one machine (the `--sms`-SM paper target
//! or the `--chiplets`-chiplet MCM): a recorded trace, named by file or
//! by the 16-hex ref of a stored one, or a benchmark — its Table IV
//! chiplet input under `--chiplets`, its Table IV input at `--sms` under
//! `--weak`, else its Table II input. `mrc` collects the same inputs'
//! miss-rate curve over the 8–128-SM ladder without the timing
//! simulator: the curve a predict embeds, with regions and cliff. `sweep` simulates a
//! benchmark on the whole ladder on a worker pool; `--threads`
//! parallelises across jobs, one simulation always runs on one thread.
//!
//! `trace` manages the content-addressed trace store (`--store`, default
//! `./tracestore`). Decode failures exit 3 (not a trace), 4 (unsupported
//! version), 5 (corrupt), 6 (over `--max-trace-mb`) or 1 (I/O).
//!
//! `predict` prints the body an in-process `gsim serve` answers to
//! `POST /v1/predict` with `{"workload", "targets", "mem_scale": --scale,
//! "path"}` (DESIGN.md §14); a `400` exits 2. `serve` runs that service
//! until `POST /v1/shutdown` or stdin EOF; its knobs and `--fault-plan`
//! are DESIGN.md §13's.
//!
//! `fit` is the artifact appendix's prediction tool (`scaleModel.py`):
//! from the IPCs of two scale models (`--size` SMs, default 8, and twice
//! that) and one MPKI per doubling from the smaller on, it prints every
//! method's prediction and a text graph of performance versus size.
//! `--f-mem`, the larger model's memory-stall fraction, is needed only
//! for a cliff past the scale models. `repro` prints the paper's tables
//! and figures (`-o DIR` also writes `DIR/<section>.txt`).

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;

use gsim_core::experiment::METHODS;
use gsim_core::{detect_cliff, Fit, Observation, PlanWorkload, SizedMrc};
use gsim_runner::{ProgressReporter, Runner, RunnerConfig};
use gsim_sim::{ChipletConfig, GpuConfig, SimStats, Simulator};
use gsim_trace::suite::{strong_benchmark, strong_suite, StrongBenchmark};
use gsim_trace::weak::{weak_benchmark, weak_suite, WeakBenchmark};
use gsim_trace::{
    MemScale, TraceLimits, TraceReadError, TraceReader, TracedWorkload, Workload, WorkloadModel,
    SM_LADDER,
};
use gsim_tracestore::{StoreConfig, StoreError, TraceStore};

/// One leaf verb's synopsis: its words after `gsim`, its positional
/// arguments (`<required>`, `[repeated...]`) and, bracketed, each flag it
/// reads (`[--flag VALUE]`, or a bare switch). `usage` prints these rows
/// and `parse` accepts exactly the flags and argument counts they show.
struct Verb(&'static str);

const VERBS: &[Verb] = &[
    Verb("list"),
    Verb(
        "run <benchmark|FILE|REF> [--sms N] [--chiplets C] [--scale D] [--banked-dram BANKS] \
         [--weak] [--store DIR] [--max-trace-mb N]",
    ),
    Verb("sweep <benchmark> [--scale D] [--threads N] [--weak]"),
    Verb("mrc <benchmark|FILE|REF> [--scale D] [--store DIR] [--max-trace-mb N]"),
    Verb("trace record <benchmark> [-o FILE] [--scale D] [--weak] [--sms N]"),
    Verb("trace ingest <FILE> [--store DIR] [--max-trace-mb N]"),
    Verb("trace info <FILE|REF> [--store DIR] [--max-trace-mb N]"),
    Verb("trace ls [--store DIR]"),
    Verb("predict <benchmark> [targets...] [--scale D] [--threads N] [--path auto|fast|full]"),
    Verb("fit <ipc_small> <ipc_large> <mpki...> [--size N] [--f-mem F]"),
    Verb("repro [SECTION...] [--scale D] [--threads N] [--metrics FILE] [-o DIR]"),
    Verb(
        "serve [--addr HOST:PORT] [--threads N] [--cache-dir DIR] [--store DIR] \
         [--max-inflight-predicts N] [--fault-plan SPEC]",
    ),
];

impl Verb {
    /// The verb's words: its synopsis up to the first argument or flag.
    fn words(&self) -> impl Iterator<Item = &'static str> {
        self.0.split(' ').take_while(|w| !w.starts_with(['<', '[']))
    }

    fn name(&self) -> String {
        self.words().collect::<Vec<_>>().join(" ")
    }

    fn reads(&self, flag: &str) -> bool {
        let names = self.0.split(' ').filter_map(|w| w.strip_prefix('['));
        names.map(|w| w.trim_end_matches(']')).any(|w| w == flag)
    }

    /// Whether `n` positional arguments fit: one per `<...>`, more only
    /// where a `...` repeats.
    fn takes(&self, n: usize) -> bool {
        let args = self.0.split(" [-").next().unwrap_or_default();
        let required = args.matches('<').count();
        n == required || (n > required && args.contains("..."))
    }
}

fn usage() -> ! {
    eprintln!("usage:");
    for verb in VERBS {
        eprintln!("  gsim {}", verb.0);
    }
    exit(2)
}

/// Prints `why` and `verb`'s synopsis, then exits 2.
fn misuse(verb: &Verb, why: &str) -> ! {
    eprintln!("{why}\nusage: gsim {}", verb.0);
    exit(2)
}

/// The largest machine `run` simulates, in SMs. Memory grows with it: a
/// `run pf` peaks near 0.7 GB at 2^16 SMs and 11 GB at 2^20.
const MAX_SMS: u32 = 1 << 16;
/// The largest worker-thread or DRAM-bank count a flag takes.
const MAX_COUNT: u32 = 1024;
/// `run`'s machine when neither `--sms` nor `--chiplets` is given.
const DEFAULT_SMS: u32 = 32;

// Flag values: each helper consumes one from the argument iterator and,
// on garbage, prints a one-line message and exits 2.

type ArgIter<'a> = std::slice::Iter<'a, String>;

/// The flag's value, parsed and accepted by `ok`; `what` names its shape.
fn flag_value<T: std::str::FromStr>(
    it: &mut ArgIter<'_>,
    name: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .filter(ok)
        .unwrap_or_else(|| {
            eprintln!("{name} takes {what}");
            exit(2)
        })
}

/// A string value; `what` names the expected shape.
fn flag_str(it: &mut ArgIter<'_>, name: &str, what: &str) -> String {
    flag_value(it, name, what, |_| true)
}

/// A non-negative integer (rejects garbage and negatives via u32 parse).
fn flag_u32(it: &mut ArgIter<'_>, name: &str) -> u32 {
    flag_value(it, name, "an integer", |_| true)
}

/// An integer in `min..=max`; `why` explains the upper bound.
fn flag_u32_in(it: &mut ArgIter<'_>, name: &str, min: u32, max: u32, why: &str) -> u32 {
    let v = flag_u32(it, name);
    if v < min {
        eprintln!("{name} must be >= {min}");
        exit(2)
    }
    if v > max {
        eprintln!("{name} must be <= {max}{why}");
        exit(2)
    }
    v
}

#[derive(Default)]
struct Flags {
    sms: Option<u32>,
    chiplets: Option<u32>,
    scale: MemScale,
    banked_dram: u32,
    threads: Option<usize>,
    weak: bool,
    addr: String,
    cache_dir: Option<String>,
    store: Option<String>,
    max_trace_mb: u64,
    output: Option<String>,
    max_inflight_predicts: usize,
    path: String,
    fault_plan: Option<String>,
    // gsim fit
    size: u32,
    f_mem: Option<f64>,
    // gsim repro
    metrics: Option<String>,
    positional: Vec<String>,
}

/// Parses `verb`'s arguments: exits 2 on a flag `verb` does not read, a
/// bad flag value, or a positional count its synopsis rules out.
fn parse(verb: &Verb, args: &[String]) -> Flags {
    let mut f = Flags {
        addr: "127.0.0.1:8191".to_string(),
        path: "auto".to_string(),
        size: 8,
        ..Flags::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            f.positional.push(a.clone());
            continue;
        }
        let flag = if a == "--output" { "-o" } else { a.as_str() };
        if !verb.reads(flag) {
            misuse(verb, &format!("unknown flag {a} for gsim {}", verb.name()))
        }
        let it = &mut it;
        match flag {
            "--sms" => f.sms = Some(flag_u32_in(it, flag, 1, MAX_SMS, "")),
            "--chiplets" => {
                let per = ChipletConfig::paper_mcm(1, MemScale::default()).total_sms();
                let why = format!(": {per} SMs each, at most {MAX_SMS} SMs");
                f.chiplets = Some(flag_u32_in(it, flag, 1, MAX_SMS / per, &why))
            }
            "--scale" => {
                let max = GpuConfig::max_mem_scale();
                let d = flag_u32_in(it, flag, 1, max, ": the L1 must hold a line");
                f.scale = MemScale::new(d)
            }
            "--banked-dram" => f.banked_dram = flag_u32_in(it, flag, 0, MAX_COUNT, ""),
            "--threads" => f.threads = Some(flag_u32_in(it, flag, 0, MAX_COUNT, "") as usize),
            "--weak" => f.weak = true,
            "--addr" => f.addr = flag_str(it, flag, "HOST:PORT"),
            "--cache-dir" => f.cache_dir = Some(flag_str(it, flag, "a directory")),
            "--store" => f.store = Some(flag_str(it, flag, "a directory")),
            "--max-trace-mb" => f.max_trace_mb = u64::from(flag_u32_in(it, flag, 1, u32::MAX, "")),
            "-o" => f.output = Some(flag_str(it, a, "a path")),
            "--max-inflight-predicts" => f.max_inflight_predicts = flag_u32(it, flag) as usize,
            "--path" => {
                let paths = ["auto", "fast", "full"];
                let what = format!("one of: {}", paths.join(", "));
                f.path = flag_value(it, flag, &what, |p: &String| paths.contains(&p.as_str()))
            }
            "--fault-plan" => {
                f.fault_plan = Some(flag_str(it, flag, "a spec, e.g. seed=42,http_delay_p=0.05"))
            }
            "--size" => f.size = flag_u32_in(it, flag, 1, u32::MAX, ""),
            "--f-mem" => {
                let fraction = |g: &f64| (0.0..1.0).contains(g);
                f.f_mem = Some(flag_value(it, flag, "a fraction in [0,1)", fraction))
            }
            "--metrics" => f.metrics = Some(flag_str(it, flag, "a file path")),
            _ => unreachable!("{flag} is in VERBS but has no parser"),
        }
    }
    if !verb.takes(f.positional.len()) {
        misuse(
            verb,
            &format!("wrong number of arguments to gsim {}", verb.name()),
        )
    }
    f
}

/// The Table II benchmark `name`, or exit 2.
fn strong(name: &str, scale: MemScale) -> StrongBenchmark {
    strong_benchmark(name, scale).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name}; try `gsim list`");
        exit(2)
    })
}

/// The Table IV benchmark `name`, or exit 2.
fn weak(name: &str, scale: MemScale) -> WeakBenchmark {
    weak_benchmark(name, scale).unwrap_or_else(|| {
        eprintln!("unknown weak benchmark {name}; try `gsim list`");
        exit(2)
    })
}

/// Benchmark `name` as `run` and `trace record` read it: its Table IV
/// input for `--chiplets` chiplets, or under `--weak` for `--sms` SMs;
/// else its Table II input.
fn workload(f: &Flags, name: &str) -> Workload {
    if let Some(chiplets) = f.chiplets {
        weak(name, f.scale).workload_for_chiplets(chiplets)
    } else if f.weak {
        weak(name, f.scale)
            .workload_for_sms(f.sms.unwrap_or(DEFAULT_SMS))
            .unwrap_or_else(|| {
                eprintln!("--weak takes --sms in {SM_LADDER:?} (the Table IV inputs)");
                exit(2)
            })
    } else {
        strong(name, f.scale).workload
    }
}

/// The trace file `target` names — a file, or a 16-hex-digit ref that
/// resolves through the store — or `None` for anything else.
fn trace_file(f: &Flags, target: &str) -> Option<PathBuf> {
    if Path::new(target).exists() {
        return Some(target.into());
    }
    if target.len() != 16 || !target.chars().all(|c| c.is_ascii_hexdigit()) {
        return None;
    }
    let path = open_store(f).blob_path(&target.to_ascii_lowercase());
    Some(path.unwrap_or_else(|| {
        eprintln!("no trace {target} in store");
        exit(1)
    }))
}

/// The input `run` and `mrc` take, with the label they print: a recorded
/// trace (see [`trace_file`]), else a benchmark (see [`workload`]).
fn input(f: &Flags) -> (String, PlanWorkload) {
    let target = &f.positional[0];
    let Some(path) = trace_file(f, target) else {
        return (target.clone(), PlanWorkload::Synthetic(workload(f, target)));
    };
    if f.weak {
        eprintln!("--weak takes a benchmark, not a trace");
        exit(2)
    }
    let file = File::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", path.display());
        exit(1)
    });
    let traced = TracedWorkload::read_with_limits(file, trace_limits(f))
        .unwrap_or_else(|e| trace_exit(&format!("bad trace {}", path.display()), &e));
    let label = format!("trace {}", traced.name());
    (label, PlanWorkload::Traced(Arc::new(traced)))
}

fn print_stats(label: &str, st: &SimStats) {
    println!("{label}:");
    println!("  cycles            {:>14}", st.cycles);
    println!("  thread instrs     {:>14}", st.thread_instrs);
    println!("  IPC               {:>14.1}", st.ipc());
    println!("  sustained IPC     {:>14.1}", st.sustained_ipc());
    println!("  LLC accesses      {:>14}", st.llc_accesses);
    println!("  LLC MPKI          {:>14.2}", st.mpki());
    println!("  L1 miss rate      {:>14.2}", st.l1_miss_rate());
    println!("  f_mem             {:>14.2}", st.f_mem());
    println!("  f_idle            {:>14.2}", st.f_idle());
    println!("  DRAM bytes        {:>14}", st.dram_bytes);
    println!(
        "  CTAs / kernels    {:>9} / {:<4}",
        st.ctas_executed, st.kernels_executed
    );
    println!("  simulated in      {:>12.2} s", st.sim_wall_seconds);
    println!("  sim cycles/sec    {:>14.0}", st.sim_cycles_per_second());
}

/// `gsim run`: one simulation of [`input`] on the `--sms` paper target or
/// the `--chiplets` MCM.
fn cmd_run(f: &Flags) {
    if f.chiplets.is_some() && (f.sms.is_some() || f.weak) {
        eprintln!("--chiplets takes neither --sms nor --weak");
        exit(2)
    }
    let (label, wl) = input(f);
    let (machine, st) = match &wl {
        PlanWorkload::Synthetic(wl) => simulate(f, wl),
        PlanWorkload::Traced(wl) => simulate(f, &**wl),
    };
    print_stats(&format!("{label} on {machine} ({})", f.scale), &st);
}

/// `run`'s simulation, monomorphic in the workload so that its streams
/// inline into the engine; returns the machine's name with the stats.
fn simulate<W: WorkloadModel>(f: &Flags, wl: &W) -> (String, SimStats) {
    match f.chiplets {
        Some(chiplets) => {
            let mut mcm = ChipletConfig::paper_mcm(chiplets, f.scale);
            mcm.chiplet.dram_banks_per_mc = f.banked_dram;
            let machine = format!("{chiplets} chiplets = {} SMs", mcm.total_sms());
            (machine, Simulator::new_mcm(&mcm, wl).run())
        }
        None => {
            let sms = f.sms.unwrap_or(DEFAULT_SMS);
            let mut cfg = GpuConfig::paper_target(sms, f.scale);
            cfg.dram_banks_per_mc = f.banked_dram;
            (format!("{sms} SMs"), Simulator::new(cfg, wl).run())
        }
    }
}

/// `gsim mrc`: the functionally collected miss-rate curve of [`input`]
/// over the ladder, with region labels and the cliff.
fn cmd_mrc(f: &Flags) {
    let (label, wl) = input(f);
    let configs: Vec<GpuConfig> = SM_LADDER
        .iter()
        .map(|&z| GpuConfig::paper_target(z, f.scale))
        .collect();
    let mrc = SizedMrc::new(wl.collect(&configs, None).expect("no deadline").points);
    println!("{label} miss-rate curve:");
    for ((size, region), cfg) in mrc.regions().iter().zip(&configs) {
        println!(
            "  {:>3} SMs  {:>7.3} MB  MPKI {:>7.2}   {:?}",
            size,
            cfg.llc_paper_bytes() as f64 / (1024.0 * 1024.0),
            mrc.mpki_at(*size).expect("sampled"),
            region
        );
    }
    match detect_cliff(&mrc) {
        Some(i) => println!(
            "cliff between {} and {} SMs",
            mrc.points()[i].0,
            mrc.points()[i + 1].0
        ),
        None => println!("no cliff detected"),
    }
}

/// Exit code for a trace decode failure. Each failure class gets its own
/// code so scripts (and the CI smoke job) can distinguish "you fed me a
/// PNG" from "this trace is truncated".
fn trace_exit(context: &str, e: &TraceReadError) -> ! {
    eprintln!("{context}: {e}");
    exit(match e {
        TraceReadError::NotATrace => 3,
        TraceReadError::UnsupportedVersion(_) => 4,
        TraceReadError::Corrupt(_) => 5,
        TraceReadError::TooLarge(_) => 6,
        TraceReadError::Io(_) => 1,
    })
}

/// Decode limits honouring `--max-trace-mb`.
fn trace_limits(f: &Flags) -> TraceLimits {
    let limits = TraceLimits::default();
    if f.max_trace_mb == 0 {
        limits
    } else {
        limits.with_max_file_bytes(f.max_trace_mb * 1024 * 1024)
    }
}

/// Opens the content-addressed trace store at `--store` (default
/// `./tracestore`).
fn open_store(f: &Flags) -> TraceStore {
    let root = f.store.clone().unwrap_or_else(|| "tracestore".to_string());
    TraceStore::open(
        root.clone(),
        StoreConfig {
            limits: trace_limits(f),
            ..StoreConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot open trace store {root}: {e}");
        exit(1)
    })
}

/// `gsim trace record`: a suite benchmark to a v2 trace file.
fn cmd_trace_record(f: &Flags) {
    let name = &f.positional[0];
    let wl = workload(f, name);
    let out = f.output.clone().unwrap_or_else(|| format!("{name}.gstr"));
    let file = File::create(&out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        exit(1)
    });
    let bytes = gsim_trace::write_trace(&wl, file).unwrap_or_else(|e| {
        eprintln!("trace write failed: {e}");
        exit(1)
    });
    println!(
        "wrote {out}: v2 format, {bytes} bytes, ref {:016x}",
        gsim_trace::semantic_hash_of(&wl)
    );
}

/// `gsim trace ingest`: validate a trace file and store it.
fn cmd_trace_ingest(f: &Flags) {
    let path = &f.positional[0];
    match open_store(f).ingest_file(Path::new(path)) {
        Ok((meta, dedup)) => println!(
            "{} {} ({} warps, {} warp instrs, {} bytes){}",
            meta.trace_ref,
            meta.name,
            meta.total_warps,
            meta.total_warp_instrs,
            meta.bytes,
            if dedup { "  [already stored]" } else { "" }
        ),
        Err(StoreError::Invalid(e)) => trace_exit(&format!("cannot ingest {path}"), &e),
        Err(e) => {
            eprintln!("cannot ingest {path}: {e}");
            exit(1)
        }
    }
}

/// `gsim trace info`: stream a trace file (or a stored ref) and print
/// its metadata.
fn cmd_trace_info(f: &Flags) {
    let target = &f.positional[0];
    let path = trace_file(f, target).unwrap_or_else(|| target.into());
    let file = File::open(&path).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", path.display());
        exit(1)
    });
    let mut reader = TraceReader::with_limits(file, trace_limits(f))
        .unwrap_or_else(|e| trace_exit(&format!("bad trace {}", path.display()), &e));
    let name = reader.name().to_string();
    let kernels = reader.kernels().to_vec();
    // Stream the whole file for totals and the content hash; the
    // decoder holds one chunk at a time.
    loop {
        match reader.next_warp() {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => trace_exit(&format!("bad trace {}", path.display()), &e),
        }
    }
    let st = reader.stats().expect("stats after full pass");
    println!("trace {} (v2 format)", path.display());
    println!("  name              {name}");
    println!("  ref               {:016x}", st.semantic_hash);
    println!("  kernels           {}", kernels.len());
    for k in &kernels {
        println!(
            "    {:<20} {:>6} CTAs x {:>4} threads",
            k.name, k.n_ctas, k.threads_per_cta
        );
    }
    println!("  warps             {}", st.total_warps);
    println!("  ops               {}", st.total_ops);
    println!("  warp instrs       {}", st.total_warp_instrs);
    println!("  bytes             {}", st.bytes_read);
    println!("  peak decode buf   {}", st.peak_buffer_bytes);
}

/// `gsim trace ls`: the stored traces.
fn cmd_trace_ls(f: &Flags) {
    let traces = open_store(f).list();
    if traces.is_empty() {
        println!("trace store is empty");
    }
    for m in traces {
        println!(
            "{} {:<16} {:>3} kernels {:>9} warps {:>12} warp instrs {:>10} bytes",
            m.trace_ref, m.name, m.n_kernels, m.total_warps, m.total_warp_instrs, m.bytes
        );
    }
}

/// `gsim predict`: one `/v1/predict` request answered by an in-process
/// [`gsim_serve::PredictService`], its body printed verbatim.
fn cmd_predict(f: &Flags) {
    use gsim_json::{obj, Json};
    use gsim_serve::{PredictService, Request, ServeConfig, ShutdownFlag};

    let name = &f.positional[0];
    let mut targets: Vec<Json> = f.positional[1..]
        .iter()
        .map(|t| {
            Json::from(t.parse::<u32>().unwrap_or_else(|_| {
                eprintln!("bad target {t}: targets are SM counts");
                exit(2)
            }))
        })
        .collect();
    if targets.is_empty() {
        targets = [32u32, 64, 128].map(Json::from).to_vec();
    }
    let body = obj([
        ("workload", Json::from(name.as_str())),
        ("targets", Json::Arr(targets)),
        ("mem_scale", Json::from(f.scale.divisor())),
        ("path", Json::from(f.path.as_str())),
    ])
    .render();
    let service = PredictService::new(
        ServeConfig {
            runner_threads: f.threads.unwrap_or(0),
            ..ServeConfig::default()
        },
        ShutdownFlag::new(),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot start prediction service: {e}");
        exit(1)
    });
    let resp = service.handle(&Request {
        method: "POST".into(),
        path: "/v1/predict".into(),
        headers: Vec::new(),
        body: body.into_bytes(),
    });
    // Dropped before any exit: that removes the service's scratch store.
    drop(service);
    if resp.status != 200 {
        eprintln!(
            "predict failed ({}): {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        );
        exit(if resp.status == 400 { 2 } else { 1 })
    }
    if let Err(e) = std::io::stdout().write_all(&resp.body) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("cannot write the prediction: {e}");
        }
        exit(1)
    }
}

/// `gsim fit`: the artifact's report — (1) the measured scale models,
/// (2) every method's predicted IPC per target, (3) a text graph of
/// performance versus system size.
fn cmd_fit(f: &Flags) {
    let finite = |v: &String| v.parse().ok().filter(|x: &f64| x.is_finite());
    let values: Vec<f64> = f
        .positional
        .iter()
        .map(|v| {
            finite(v).unwrap_or_else(|| {
                eprintln!("not a finite number: {v}");
                exit(2)
            })
        })
        .collect();
    let (ipc_s, ipc_l, mpki) = (values[0], values[1], &values[2..]);
    // One size per MPKI value, doubling from --size; the larger scale
    // model is the second size even when there is one value.
    let n = mpki.len().max(2);
    let mut sizes: Vec<u32> = std::iter::successors(Some(f.size), |z| z.checked_mul(2))
        .take(n)
        .collect();
    if sizes.len() < n {
        eprintln!("--size {}: its doublings pass {}", f.size, u32::MAX);
        exit(2)
    }
    let (s, l) = (sizes[0], sizes[1]);
    sizes.truncate(mpki.len());
    let mrc = SizedMrc::new(sizes.iter().copied().zip(mpki.iter().copied()));

    println!("(1) measured scale models:");
    println!("    {s:>4} SMs: IPC {ipc_s:10.2}");
    println!("    {l:>4} SMs: IPC {ipc_l:10.2}");
    let cliff = detect_cliff(&mrc).map(|i| (mrc.points()[i].0, mrc.points()[i + 1].0));
    match cliff {
        Some((lo, hi)) => println!("    miss-rate cliff detected between {lo} and {hi} SMs"),
        None => println!("    no miss-rate cliff: the whole range is pre-cliff"),
    }

    // `f_mem` is read only where a doubling past the scale models
    // crosses the cliff.
    let f_mem = f.f_mem.unwrap_or_else(|| {
        if cliff.is_some_and(|(_, hi)| hi > l) {
            eprintln!(
                "the curve contains a cliff: pass --f-mem <fraction>, the fraction \
                 of cycles the largest scale model could not fetch because all \
                 warps waited on memory"
            );
            exit(2)
        }
        0.0
    });
    let observe = |size, ipc| Observation { size, ipc, f_mem };
    let fit = Fit::new(observe(s, ipc_s), observe(l, ipc_l), Some(&mrc)).unwrap_or_else(|e| {
        eprintln!("invalid inputs: {e}");
        exit(2)
    });
    let targets: Vec<u32> = sizes.iter().copied().filter(|&z| z > l).collect();
    let forecast = fit.forecast(&targets).unwrap_or_else(|e| {
        eprintln!("invalid inputs: {e}");
        exit(2)
    });
    // The artifact's method order: scale-model first, logarithmic last.
    let mut order: Vec<usize> = (0..METHODS.len()).collect();
    order.swap(0, 4);
    // (name, predictions at each target, values for the text graph:
    // scale-model sizes show the measurements, targets the prediction)
    let methods: Vec<(&str, Vec<f64>, Vec<f64>)> = order
        .into_iter()
        .map(|i| {
            let at = |t: usize| forecast.targets[t].by_method[i].predicted_ipc;
            let target_preds = (0..targets.len()).map(at).collect();
            let graph = sizes
                .iter()
                .map(|&z| {
                    if z == s {
                        ipc_s
                    } else if z <= l {
                        ipc_l
                    } else {
                        at(targets.iter().position(|&t| t == z).expect("a target"))
                    }
                })
                .collect();
            (METHODS[i], target_preds, graph)
        })
        .collect();

    println!("\n(2) predicted IPC per target system:");
    print!("    {:>13}", "size");
    for &t in &targets {
        print!("  {t:>10}");
    }
    println!();
    for (name, target_preds, _) in &methods {
        print!("    {name:>13}");
        for p in target_preds {
            print!("  {p:>10.2}");
        }
        println!();
    }

    // (3) text graph: IPC vs size, one column per method, bar-scaled.
    println!("\n(3) performance vs system size (each row scaled to its maximum):");
    let max_ipc = methods
        .iter()
        .flat_map(|(_, _, graph)| graph.iter().copied())
        .fold(ipc_l, f64::max);
    for (i, &z) in sizes.iter().enumerate() {
        print!("    {z:>4} SMs ");
        for (_, _, graph) in &methods {
            let bars = ((graph[i] / max_ipc) * 20.0).round().max(0.0) as usize;
            print!(" |{:<20}", "#".repeat(bars.min(20)));
        }
        println!();
    }
    print!("             ");
    for (name, _, _) in &methods {
        print!("  {name:<20}");
    }
    println!();
}

/// The sweep worker pool, `--threads` wide, reporting progress on stderr.
fn runner(f: &Flags) -> Runner {
    Runner::new(RunnerConfig {
        threads: f.threads.unwrap_or(0),
        ..RunnerConfig::default()
    })
    .with_sink(ProgressReporter::new())
}

/// `gsim sweep`: one simulation job per ladder size, on the worker pool.
fn cmd_sweep(f: &Flags) {
    let name = &f.positional[0];
    let jobs = SM_LADDER
        .iter()
        .map(|&sms| {
            let wl = if f.weak {
                weak(name, f.scale)
                    .workload_for_sms(sms)
                    .expect("a Table IV size")
            } else {
                strong(name, f.scale).workload
            };
            (format!("{name}@{sms}sm"), (sms, wl))
        })
        .collect();
    let scale = f.scale;
    let reports = runner(f).map(&format!("sweep-{name}"), jobs, move |(sms, wl)| {
        Simulator::new(GpuConfig::paper_target(*sms, scale), wl).run()
    });
    let kind = if f.weak {
        "weak-scaling"
    } else {
        "strong-scaling"
    };
    println!("{name} {kind} sweep over the size ladder ({}):", f.scale);
    println!(
        "  {:>5}  {:>12}  {:>10}  {:>7}  {:>7}",
        "#SMs", "cycles", "IPC", "MPKI", "f_mem"
    );
    let mut failed = false;
    for (report, &sms) in reports.iter().zip(&SM_LADDER) {
        match report.ok() {
            Some(st) => println!(
                "  {:>5}  {:>12}  {:>10.1}  {:>7.2}  {:>7.2}",
                sms,
                st.cycles,
                st.sustained_ipc(),
                st.mpki(),
                st.f_mem()
            ),
            None => {
                failed = true;
                println!(
                    "  {:>5}  {}",
                    sms,
                    report.failure().unwrap_or_else(|| "failed".into())
                );
            }
        }
    }
    if failed {
        exit(1);
    }
}

/// `gsim repro`: the paper's tables and figures.
fn cmd_repro(f: &Flags) {
    use gsim_bench::repro::{self, SECTIONS};
    use gsim_runner::{EventSink, JsonlSink};

    if let Some(bad) = f
        .positional
        .iter()
        .find(|s| !SECTIONS.contains(&s.as_str()))
    {
        eprintln!("unknown section {bad}; sections: {}", SECTIONS.join(" "));
        exit(2)
    }
    let sections = if f.positional.is_empty() {
        SECTIONS.map(String::from).to_vec()
    } else {
        f.positional.clone()
    };
    let mut runner = runner(f);
    if let Some(path) = &f.metrics {
        let sink = JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create metrics file {path}: {e}");
            exit(2)
        });
        runner.add_sink(Arc::new(sink) as Arc<dyn EventSink>);
    }
    let out = f.output.as_deref().map(Path::new);
    match repro::run(f.scale, &runner, &sections, out) {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => {
            eprintln!("cannot write results: {e}");
            exit(1)
        }
    }
}

fn main() {
    // A stdout closed early (`gsim list | head -1`) ends any verb with
    // exit 1 and nothing on stderr: `print!` panics on the broken pipe,
    // and this hook exits before the panic is reported.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| match info.payload_as_str() {
        Some(m) if m.starts_with("failed printing to stdout: Broken pipe") => exit(1),
        _ => report(info),
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb = VERBS
        .iter()
        .find(|v| args.iter().take(v.words().count()).eq(v.words()))
        .unwrap_or_else(|| usage());
    let f = parse(verb, &args[verb.words().count()..]);
    match verb.name().as_str() {
        "list" => {
            let scale = MemScale::default();
            println!("strong-scaling benchmarks (Table II):");
            for b in strong_suite(scale) {
                println!(
                    "  {:>6}  {:<38} {:>8.1} MB  {}",
                    b.abbr,
                    b.full_name,
                    b.workload.footprint_mb_paper(),
                    b.expected
                );
            }
            println!("\nweak-scaling benchmarks (Table IV):");
            for b in weak_suite(scale) {
                println!("  {:>6}  {}", b.abbr, b.expected);
            }
        }
        "run" => cmd_run(&f),
        "sweep" => cmd_sweep(&f),
        "mrc" => cmd_mrc(&f),
        "trace record" => cmd_trace_record(&f),
        "trace ingest" => cmd_trace_ingest(&f),
        "trace info" => cmd_trace_info(&f),
        "trace ls" => cmd_trace_ls(&f),
        "predict" => cmd_predict(&f),
        "fit" => cmd_fit(&f),
        "repro" => cmd_repro(&f),
        "serve" => {
            use std::net::ToSocketAddrs;

            use gsim_serve::{PredictService, ServeConfig, Server, ServerConfig, ShutdownFlag};

            // Flag validation failures mirror the usage() style: message + exit 2.
            let threads = match f.threads {
                Some(0) => {
                    eprintln!("--threads must be >= 1");
                    exit(2)
                }
                Some(n) => n,
                None => 4,
            };
            if f.addr
                .to_socket_addrs()
                .map_or(true, |mut it| it.next().is_none())
            {
                eprintln!("--addr takes HOST:PORT, got {:?}", f.addr);
                exit(2)
            }
            // Install the fault-injection plan before the service opens
            // any store.
            if let Some(spec) = &f.fault_plan {
                let plan = gsim_faults::FaultPlan::parse(spec).unwrap_or_else(|e| {
                    eprintln!("--fault-plan: {e}");
                    exit(2)
                });
                gsim_faults::install(plan);
            }
            if let Some(inj) = gsim_faults::active() {
                eprintln!("gsim-serve: fault injection ACTIVE: {:?}", inj.plan());
            }
            let shutdown = ShutdownFlag::new();
            let service = PredictService::new(
                ServeConfig {
                    cache_dir: f.cache_dir.clone().map(Into::into),
                    trace_store_dir: f.store.clone().map(Into::into),
                    max_inflight_predicts: f.max_inflight_predicts,
                    ..ServeConfig::default()
                },
                shutdown.clone(),
            )
            .unwrap_or_else(|e| {
                eprintln!("cannot start prediction service: {e}");
                exit(1)
            });
            let server = Server::bind(
                &f.addr,
                ServerConfig {
                    threads,
                    ..ServerConfig::default()
                },
                shutdown.clone(),
            )
            .unwrap_or_else(|e| {
                eprintln!("cannot bind {}: {e}", f.addr);
                exit(1)
            });
            match server.local_addr() {
                Ok(local) => println!("gsim-serve listening on {local}"),
                Err(_) => println!("gsim-serve listening on {}", f.addr),
            }
            // Without signal handling (no unsafe, no deps) the shutdown paths
            // are `POST /v1/shutdown` and stdin reaching EOF — the latter lets
            // a parent process stop us by closing our stdin.
            {
                let shutdown = shutdown.clone();
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
                    shutdown.trigger();
                });
            }
            if let Err(e) = server.serve(Arc::new(move |req| service.handle(req))) {
                eprintln!("server error: {e}");
                exit(1)
            }
            println!("gsim-serve shut down cleanly");
        }
        _ => unreachable!("every verb in VERBS has an arm"),
    }
}
