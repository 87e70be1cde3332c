//! `gsim` — the command-line front end to the GPU timing simulator and
//! the scale-model method.
//!
//! ```text
//! gsim list
//! gsim run <benchmark> [--sms N] [--scale D] [--banked-dram BANKS] [--weak]
//! gsim sweep <benchmark> [--scale D] [--threads N] [--weak]
//! gsim mcm <benchmark> [--chiplets C] [--scale D]
//! gsim mrc <benchmark> [--scale D]
//! gsim trace record <benchmark> [-o FILE] [--scale D] [--weak --sms N]
//! gsim trace ingest <file> [--store DIR] [--max-trace-mb N]
//! gsim trace info <file|ref> [--store DIR] [--mrc] [--max-trace-mb N]
//! gsim trace ls [--store DIR]
//! gsim trace-run <file> [--sms N] [--scale D]
//! gsim predict <benchmark> [targets...] [--scale D] [--threads N]
//!              [--path auto|fast|full]
//! gsim fit [--size N] [--f-mem F] <ipc_small> <ipc_large> <mpki...>
//! gsim repro [SECTION...] [--scale D] [--threads N] [--metrics FILE] [-o DIR]
//! gsim serve [--addr HOST:PORT] [--threads N] [--cache-dir DIR] [--store DIR]
//!            [--runner-threads N] [--default-deadline-ms N]
//!            [--max-inflight-predicts N] [--max-inflight-cheap N]
//!            [--drain-grace-ms N] [--fault-plan SPEC]
//! ```
//!
//! Every subcommand is parsed by one flag table; a flag a subcommand does
//! not use is accepted and ignored, an unknown one exits 2.
//!
//! `run` simulates a Table II benchmark (or, with `--weak`, the Table IV
//! input matched to `--sms`); `sweep` simulates the whole 8–128-SM size
//! ladder on a gsim-runner worker pool; `trace-run` replays a recorded
//! trace; `mrc` prints the functional miss-rate curve with region labels;
//! `serve` runs the gsim-serve HTTP prediction service until
//! `POST /v1/shutdown` arrives or stdin reaches EOF.
//!
//! `trace` manages the content-addressed trace store (default
//! `./tracestore`, override with `--store`): `record` captures a suite
//! benchmark to a v2 `.gstr` file, `ingest` validates and stores a trace
//! under its content hash, `info` streams a file (or a stored `ref`)
//! printing its metadata — with `--mrc`, also the exact 8–128-SM
//! miss-rate curve a full-path predict to 128 SMs embeds, replayed
//! without the timing simulator — and `ls` lists the
//! store. Trace decode failures map to distinct exit codes: 3 = not a
//! trace, 4 = unsupported version, 5 = corrupt, 6 = over the size limit
//! (`--max-trace-mb`), 1 = I/O.
//!
//! `predict` asks an in-process prediction service the `/v1/predict`
//! question `{"workload", "targets", "mem_scale": --scale, "path"}` and
//! prints the response body exactly as `gsim serve` would send it
//! (DESIGN.md §14): the same gate, ladder, fit and bytes. A `400` verdict
//! exits 2, any other failure 1.
//!
//! `fit` is the artifact appendix's prediction tool (`scaleModel.py`):
//! from the two scale models' IPCs (the larger twice the size of the
//! smaller, `--size`, default 8) and a miss-rate curve — one MPKI per
//! doubling from the smaller model on, so five values predict 32, 64 and
//! 128 — it prints the measurements, every method's prediction per
//! target, and a text graph of performance versus size. `--f-mem` (the
//! larger model's memory-stall fraction) is needed only when the curve
//! has a cliff past the scale models.
//!
//! `repro` regenerates the paper's tables and figures (no sections = all)
//! on stdout; with `-o DIR` each section is also written to
//! `DIR/<section>.txt`. `--metrics FILE` appends one JSON line per sweep
//! job event.
//!
//! `--threads` parallelises *across* sweep jobs (under `serve` it sizes
//! the HTTP worker pool, under `predict` the runner pool); one simulation
//! always runs on one thread (DESIGN.md §10).
//!
//! `serve`'s overload knobs (DESIGN.md §13): `--default-deadline-ms`
//! bounds every predict unless the request's `X-Gsim-Deadline-Ms` header
//! overrides it; `--max-inflight-predicts` / `--max-inflight-cheap` are
//! the per-class admission budgets (shed with 429 + `Retry-After`
//! beyond them); `--drain-grace-ms` bounds the shutdown
//! drain. `--fault-plan SPEC` (or the `GSIM_FAULTS` env var; the flag
//! wins) installs a deterministic fault-injection plan, e.g.
//! `seed=42,http_delay_p=0.05,job_panic_p=0.02` — see `gsim-faults`.

use std::fs::File;
use std::io::Write as _;
use std::process::exit;

use gsim_core::experiment::METHODS;
use gsim_core::{collect_replay, detect_cliff, Fit, Observation, SizedMrc};
use gsim_runner::{ProgressReporter, Runner, RunnerConfig};
use gsim_sim::{collect_mrc, ChipletConfig, GpuConfig, SimStats, Simulator};
use gsim_trace::suite::{strong_benchmark, strong_suite, StrongBenchmark};
use gsim_trace::weak::{weak_benchmark, weak_suite, WeakBenchmark, WEAK_SM_SIZES};
use gsim_trace::{
    MemScale, TraceLimits, TraceReadError, TraceReader, TracedWorkload, Workload, WorkloadModel,
};
use gsim_tracestore::{StoreConfig, StoreError, TraceStore};

fn usage() -> ! {
    eprintln!(
        "usage:\n  gsim list\n  gsim run <benchmark> [--sms N] [--scale D] \
         [--banked-dram BANKS] [--weak]\n  gsim sweep <benchmark> [--scale D] \
         [--threads N] [--weak]\n  \
         gsim mcm <benchmark> [--chiplets C] [--scale D]\n  \
         gsim mrc <benchmark> [--scale D]\n  \
         gsim trace record <benchmark> [-o FILE] [--scale D] [--weak --sms N]\n  \
         gsim trace ingest <file> [--store DIR] [--max-trace-mb N]\n  \
         gsim trace info <file|ref> [--store DIR] [--mrc] [--max-trace-mb N]\n  \
         gsim trace ls [--store DIR]\n  \
         gsim trace-run <file> [--sms N] [--scale D]\n  \
         gsim predict <benchmark> [targets...] [--scale D] [--threads N] \
         [--path auto|fast|full]\n  \
         gsim fit [--size N] [--f-mem F] <ipc_small> <ipc_large> <mpki...>\n  \
         gsim repro [SECTION...] [--scale D] [--threads N] [--metrics FILE] [-o DIR]\n  \
         gsim serve [--addr HOST:PORT] [--threads N] [--cache-dir DIR] [--store DIR] \
         [--runner-threads N] [--default-deadline-ms N] [--max-inflight-predicts N] \
         [--max-inflight-cheap N] [--drain-grace-ms N] [--fault-plan SPEC]"
    );
    exit(2)
}

// ---------------------------------------------------------------------
// Shared usage-style flag validation. Every helper consumes the flag's
// value from the argument iterator and, on garbage, prints a one-line
// message and exits 2 — so subcommands never copy-paste the pattern.

type ArgIter<'a> = std::slice::Iter<'a, String>;

/// The flag's value as a string; `what` names the expected shape.
fn flag_str(it: &mut ArgIter<'_>, name: &str, what: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("{name} takes {what}");
        exit(2)
    })
}

/// A non-negative integer (rejects garbage and negatives via u32 parse).
fn flag_u32(it: &mut ArgIter<'_>, name: &str) -> u32 {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{name} takes an integer");
        exit(2)
    })
}

/// An integer with a lower bound.
fn flag_u32_min(it: &mut ArgIter<'_>, name: &str, min: u32) -> u32 {
    let v = flag_u32(it, name);
    if v < min {
        eprintln!("{name} must be >= {min}");
        exit(2)
    }
    v
}

/// A float accepted by `ok`; `hint` names the expected shape.
fn flag_f64(it: &mut ArgIter<'_>, name: &str, hint: &str, ok: impl Fn(f64) -> bool) -> f64 {
    it.next()
        .and_then(|v| v.parse().ok())
        .filter(|g: &f64| ok(*g))
        .unwrap_or_else(|| {
            eprintln!("{name} takes {hint}");
            exit(2)
        })
}

/// One of a fixed set of spellings.
fn flag_choice(it: &mut ArgIter<'_>, name: &str, options: &[&str]) -> String {
    match it.next().map(String::as_str) {
        Some(v) if options.contains(&v) => v.to_string(),
        _ => {
            eprintln!("{name} takes one of: {}", options.join(", "));
            exit(2)
        }
    }
}

struct Flags {
    sms: u32,
    chiplets: u32,
    scale: MemScale,
    banked_dram: u32,
    threads: Option<usize>,
    runner_threads: usize,
    weak: bool,
    addr: String,
    cache_dir: Option<String>,
    store: Option<String>,
    max_trace_mb: u64,
    mrc: bool,
    output: Option<String>,
    default_deadline_ms: u64,
    max_inflight_predicts: usize,
    max_inflight_cheap: usize,
    drain_grace_ms: u64,
    path: String,
    fault_plan: Option<String>,
    // gsim fit
    size: u32,
    f_mem: Option<f64>,
    // gsim repro
    metrics: Option<String>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Flags {
    let mut f = Flags {
        sms: 32,
        chiplets: 4,
        scale: MemScale::default(),
        banked_dram: 0,
        threads: None,
        runner_threads: 0,
        weak: false,
        addr: "127.0.0.1:8191".to_string(),
        cache_dir: None,
        store: None,
        max_trace_mb: 0,
        mrc: false,
        output: None,
        default_deadline_ms: 0,
        max_inflight_predicts: 0,
        max_inflight_cheap: 0,
        drain_grace_ms: 5000,
        path: "auto".to_string(),
        fault_plan: None,
        size: 8,
        f_mem: None,
        metrics: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sms" => f.sms = flag_u32_min(&mut it, "--sms", 1),
            "--chiplets" => f.chiplets = flag_u32_min(&mut it, "--chiplets", 1),
            "--scale" => {
                let d = flag_u32_min(&mut it, "--scale", 1);
                let max = GpuConfig::max_mem_scale();
                if d > max {
                    eprintln!("--scale must be <= {max}: the L1 must hold a line");
                    exit(2)
                }
                f.scale = MemScale::new(d)
            }
            "--banked-dram" => f.banked_dram = flag_u32(&mut it, "--banked-dram"),
            "--threads" => f.threads = Some(flag_u32(&mut it, "--threads") as usize),
            "--runner-threads" => f.runner_threads = flag_u32(&mut it, "--runner-threads") as usize,
            "--weak" => f.weak = true,
            "--addr" => f.addr = flag_str(&mut it, "--addr", "HOST:PORT"),
            "--cache-dir" => f.cache_dir = Some(flag_str(&mut it, "--cache-dir", "a directory")),
            "--store" => f.store = Some(flag_str(&mut it, "--store", "a directory")),
            "--max-trace-mb" => {
                f.max_trace_mb = u64::from(flag_u32_min(&mut it, "--max-trace-mb", 1))
            }
            "--mrc" => f.mrc = true,
            "-o" | "--output" => f.output = it.next().cloned(),
            "--default-deadline-ms" => {
                f.default_deadline_ms = u64::from(flag_u32(&mut it, "--default-deadline-ms"))
            }
            "--max-inflight-predicts" => {
                f.max_inflight_predicts = flag_u32(&mut it, "--max-inflight-predicts") as usize;
            }
            "--max-inflight-cheap" => {
                f.max_inflight_cheap = flag_u32(&mut it, "--max-inflight-cheap") as usize
            }
            "--drain-grace-ms" => {
                f.drain_grace_ms = u64::from(flag_u32(&mut it, "--drain-grace-ms"))
            }
            "--path" => f.path = flag_choice(&mut it, "--path", &["auto", "fast", "full"]),
            "--fault-plan" => {
                f.fault_plan = Some(flag_str(
                    &mut it,
                    "--fault-plan",
                    "a spec, e.g. seed=42,http_delay_p=0.05",
                ))
            }
            "--size" => f.size = flag_u32_min(&mut it, "--size", 1),
            "--f-mem" => {
                f.f_mem = Some(flag_f64(&mut it, "--f-mem", "a fraction in [0,1)", |g| {
                    (0.0..1.0).contains(&g)
                }))
            }
            "--metrics" => f.metrics = Some(flag_str(&mut it, "--metrics", "a file path")),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                usage()
            }
            other => f.positional.push(other.to_string()),
        }
    }
    f
}

/// The first positional argument: a benchmark or a file (usage if none).
fn first_arg(f: &Flags) -> &str {
    f.positional.first().unwrap_or_else(|| usage())
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

/// The workload `run` and `trace record` take: benchmark `name` of
/// Table II, or with `--weak` its Table IV input matched to `--sms`.
fn workload(f: &Flags, name: &str) -> Workload {
    if f.weak {
        weak(name, f.scale)
            .workload_for_sms(f.sms)
            .unwrap_or_else(|| {
                eprintln!("--weak takes --sms in {WEAK_SM_SIZES:?} (the Table IV inputs)");
                exit(2)
            })
    } else {
        strong(name, f.scale).workload
    }
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

/// `gsim trace <record|ingest|info|ls>`.
fn cmd_trace(f: &Flags) {
    let sub = f.positional.first().map(String::as_str);
    match sub {
        Some("record") => {
            let Some(name) = f.positional.get(1) else {
                eprintln!("trace record takes a benchmark name");
                exit(2)
            };
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
        Some("ingest") => {
            let Some(path) = f.positional.get(1) else {
                eprintln!("trace ingest takes a trace file");
                exit(2)
            };
            let store = open_store(f);
            match store.ingest_file(std::path::Path::new(path)) {
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
        Some("info") => {
            let Some(target) = f.positional.get(1) else {
                eprintln!("trace info takes a trace file or a stored ref");
                exit(2)
            };
            // A bare 16-hex-digit name that is not a file resolves
            // through the store.
            let path = if !std::path::Path::new(target).exists()
                && target.len() == 16
                && target.chars().all(|c| c.is_ascii_hexdigit())
            {
                open_store(f)
                    .blob_path(&target.to_ascii_lowercase())
                    .unwrap_or_else(|| {
                        eprintln!("no trace {target} in store");
                        exit(1)
                    })
            } else {
                std::path::PathBuf::from(target)
            };
            let file = File::open(&path).unwrap_or_else(|e| {
                eprintln!("cannot open {}: {e}", path.display());
                exit(1)
            });
            let mut reader = TraceReader::with_limits(file, trace_limits(f))
                .unwrap_or_else(|e| trace_exit(&format!("bad trace {}", path.display()), &e));
            let version = reader.version();
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
            println!("trace {} (v{version} format)", path.display());
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
            if f.mrc {
                let sizes = [8u32, 16, 32, 64, 128];
                let configs: Vec<GpuConfig> = sizes
                    .iter()
                    .map(|&z| GpuConfig::paper_target(z, f.scale))
                    .collect();
                let file = File::open(&path).unwrap_or_else(|e| {
                    eprintln!("cannot reopen {}: {e}", path.display());
                    exit(1)
                });
                let traced = TracedWorkload::read_with_limits(file, trace_limits(f))
                    .unwrap_or_else(|e| trace_exit(&format!("bad trace {}", path.display()), &e));
                println!("  miss-rate curve (functional replay, no timing sim):");
                for (size, mpki) in collect_replay(&traced, &configs).points {
                    println!("    {size:>3} SMs  MPKI {mpki:>7.2}");
                }
            }
        }
        Some("ls") => {
            let store = open_store(f);
            let traces = store.list();
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
        _ => {
            eprintln!("trace takes a subcommand: record, ingest, info, ls");
            exit(2)
        }
    }
}

/// `gsim predict`: one `/v1/predict` request answered by an in-process
/// [`gsim_serve::PredictService`], its body printed verbatim.
fn cmd_predict(f: &Flags) {
    use gsim_json::{obj, Json};
    use gsim_serve::{PredictService, Request, ServeConfig, ShutdownFlag};

    let name = first_arg(f);
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
        ("workload", Json::from(name)),
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
        eprintln!("cannot write the prediction: {e}");
        exit(1)
    }
}

/// `gsim fit`: the artifact's report — (1) the measured scale models,
/// (2) every method's predicted IPC per target, (3) a text graph of
/// performance versus system size.
fn cmd_fit(f: &Flags) {
    let values: Vec<f64> = f
        .positional
        .iter()
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("not a number: {v}");
                exit(2)
            })
        })
        .collect();
    let (ipc_s, ipc_l, mpki) = match values[..] {
        [s, l, ref mpki @ ..] if !mpki.is_empty() => (s, l, mpki),
        _ => {
            eprintln!("need <ipc_small> <ipc_large> and at least one MPKI value");
            exit(2)
        }
    };
    let s = f.size;
    let l = s * 2;
    let sizes: Vec<u32> = (0..mpki.len() as u32).map(|i| s << i).collect();
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

/// `gsim repro`: the paper's tables and figures.
fn cmd_repro(f: &Flags) {
    use std::sync::Arc;

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
    let mut runner = Runner::new(RunnerConfig {
        threads: f.threads.unwrap_or(0),
        ..RunnerConfig::default()
    })
    .with_sink(ProgressReporter::new());
    if let Some(path) = &f.metrics {
        let sink = JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create metrics file {path}: {e}");
            exit(2)
        });
        runner.add_sink(Arc::new(sink) as Arc<dyn EventSink>);
    }
    let out = f.output.as_deref().map(std::path::Path::new);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let f = parse(&args[1..]);
    match cmd.as_str() {
        "list" => {
            println!("strong-scaling benchmarks (Table II):");
            for b in strong_suite(f.scale) {
                println!(
                    "  {:>6}  {:<38} {:>8.1} MB  {}",
                    b.abbr,
                    b.full_name,
                    b.workload.footprint_mb_paper(),
                    b.expected
                );
            }
            println!("\nweak-scaling benchmarks (Table IV):");
            for b in weak_suite(f.scale) {
                println!("  {:>6}  {}", b.abbr, b.expected);
            }
        }
        "run" => {
            let name = first_arg(&f);
            let wl = workload(&f, name);
            let mut cfg = GpuConfig::paper_target(f.sms, f.scale);
            cfg.dram_banks_per_mc = f.banked_dram;
            let st = Simulator::new(cfg, &wl).run();
            print_stats(&format!("{name} on {} SMs ({})", f.sms, f.scale), &st);
        }
        "sweep" => {
            let name = first_arg(&f);
            // One simulation job per system size, run on the worker pool.
            let workload_for: Box<dyn Fn(u32) -> Workload + Send + Sync> = if f.weak {
                let bench = weak(name, f.scale);
                Box::new(move |sms| bench.workload_for_sms(sms).expect("a Table IV size"))
            } else {
                let bench = strong(name, f.scale);
                Box::new(move |_| bench.workload.clone())
            };
            let scale = f.scale;
            let sizes = [8u32, 16, 32, 64, 128];
            let runner = Runner::new(RunnerConfig {
                threads: f.threads.unwrap_or(0),
                ..RunnerConfig::default()
            })
            .with_sink(ProgressReporter::new());
            let reports = runner.map(
                &format!("sweep-{name}"),
                sizes
                    .iter()
                    .map(|&z| (format!("{name}@{z}sm"), z))
                    .collect(),
                move |&sms: &u32| {
                    let cfg = GpuConfig::paper_target(sms, scale);
                    Simulator::new(cfg, &workload_for(sms)).run()
                },
            );
            println!(
                "{name} {} sweep over the size ladder ({}):",
                if f.weak {
                    "weak-scaling"
                } else {
                    "strong-scaling"
                },
                f.scale
            );
            println!(
                "  {:>5}  {:>12}  {:>10}  {:>7}  {:>7}",
                "#SMs", "cycles", "IPC", "MPKI", "f_mem"
            );
            let mut failed = false;
            for (report, &sms) in reports.iter().zip(&sizes) {
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
        "mcm" => {
            let name = first_arg(&f);
            let wl = weak(name, f.scale).workload_for_chiplets(f.chiplets);
            let mcm = ChipletConfig::paper_mcm(f.chiplets, f.scale);
            let st = Simulator::new_mcm(&mcm, &wl).run();
            print_stats(
                &format!(
                    "{name} on {} chiplets = {} SMs ({})",
                    f.chiplets,
                    mcm.total_sms(),
                    f.scale
                ),
                &st,
            );
        }
        "mrc" => {
            let name = first_arg(&f);
            let bench = strong(name, f.scale);
            let sizes = [8u32, 16, 32, 64, 128];
            let configs: Vec<GpuConfig> = sizes
                .iter()
                .map(|&z| GpuConfig::paper_target(z, f.scale))
                .collect();
            let curve = collect_mrc(&bench.workload, &configs);
            let mrc = SizedMrc::new(sizes.iter().zip(curve.points()).map(|(&z, p)| (z, p.mpki)));
            println!("{name} miss-rate curve:");
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
        "trace" => cmd_trace(&f),
        "trace-run" => {
            let path = first_arg(&f);
            let file = File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                exit(1)
            });
            let traced = TracedWorkload::read_with_limits(file, trace_limits(&f))
                .unwrap_or_else(|e| trace_exit(&format!("bad trace {path}"), &e));
            let mut cfg = GpuConfig::paper_target(f.sms, f.scale);
            cfg.dram_banks_per_mc = f.banked_dram;
            let st = Simulator::new(cfg, &traced).run();
            print_stats(
                &format!("trace {} on {} SMs ({})", traced.name(), f.sms, f.scale),
                &st,
            );
        }
        "predict" => cmd_predict(&f),
        "fit" => cmd_fit(&f),
        "repro" => cmd_repro(&f),
        "serve" => {
            use std::net::ToSocketAddrs;
            use std::sync::Arc;

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
            // any store: the flag wins over the GSIM_FAULTS env var.
            match &f.fault_plan {
                Some(spec) => match gsim_faults::FaultPlan::parse(spec) {
                    Ok(plan) => {
                        gsim_faults::install(plan);
                    }
                    Err(e) => {
                        eprintln!("--fault-plan: {e}");
                        exit(2)
                    }
                },
                None => {
                    if let Err(e) = gsim_faults::install_from_env() {
                        eprintln!("{}: {e}", gsim_faults::ENV_VAR);
                        exit(2)
                    }
                }
            }
            if let Some(inj) = gsim_faults::active() {
                eprintln!("gsim-serve: fault injection ACTIVE: {:?}", inj.plan());
            }
            let shutdown = ShutdownFlag::new();
            let service = PredictService::new(
                ServeConfig {
                    runner_threads: f.runner_threads,
                    cache_dir: f.cache_dir.clone().map(Into::into),
                    trace_store_dir: f.store.clone().map(Into::into),
                    default_deadline_ms: f.default_deadline_ms,
                    max_inflight_predicts: f.max_inflight_predicts,
                    max_inflight_cheap: f.max_inflight_cheap,
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
                    drain_grace: std::time::Duration::from_millis(f.drain_grace_ms),
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
        _ => usage(),
    }
}
