//! End-to-end checks of the `gsim` front end: `run`, removed flags and
//! surfaces, the `trace` store workflow, `fit`, `repro` and `predict`,
//! and a fuzz slice over every verb's flags.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn gsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsim"))
        .args(args)
        .output()
        .expect("spawn gsim")
}

/// Extracts the simulated-cycle count from `gsim run` output.
fn cycles_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.trim_start().starts_with("cycles"))
        .expect("gsim prints a cycles line")
        .to_string()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gsim-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn gsim_trace_record_ingest_info_roundtrip() {
    let dir = fresh_dir("trace-roundtrip");
    let v2 = dir.join("gemm.gstr");
    let store = dir.join("store");
    let s = |p: &PathBuf| p.to_str().unwrap().to_string();

    // `record` writes the one trace format; a file in any other version
    // (the unframed version 1 included) is refused with exit 4, see
    // `gsim_trace_failures_map_to_distinct_exit_codes`.
    let rec = gsim(&["trace", "record", "gemm", "-o", &s(&v2), "--scale", "64"]);
    assert!(rec.status.success(), "record failed: {rec:?}");
    let trace_ref = stdout_of(&rec)
        .split("ref ")
        .nth(1)
        .expect("record prints a ref")
        .trim()
        .to_string();
    assert_eq!(trace_ref.len(), 16, "{trace_ref:?}");

    // Ingest the file; ingesting it again deduplicates.
    let ing = gsim(&["trace", "ingest", &s(&v2), "--store", &s(&store)]);
    assert!(ing.status.success(), "ingest failed: {ing:?}");
    assert!(stdout_of(&ing).starts_with(&trace_ref), "{ing:?}");
    let dup = gsim(&["trace", "ingest", &s(&v2), "--store", &s(&store)]);
    assert!(dup.status.success(), "dedup ingest failed: {dup:?}");
    assert!(stdout_of(&dup).contains("already stored"), "{dup:?}");

    // `info` streams the file; `info <ref>` resolves through the store.
    let info = gsim(&["trace", "info", &s(&v2)]);
    assert!(info.status.success(), "info failed: {info:?}");
    let text = stdout_of(&info);
    assert!(text.contains(&trace_ref), "{text}");
    assert!(text.contains("v2 format"), "{text}");
    assert!(text.contains("warps"), "{text}");
    let by_ref = gsim(&["trace", "info", &trace_ref, "--store", &s(&store)]);
    assert!(by_ref.status.success(), "info by ref failed: {by_ref:?}");
    assert!(stdout_of(&by_ref).contains(&trace_ref));

    // `ls` shows the single stored entry.
    let ls = gsim(&["trace", "ls", "--store", &s(&store)]);
    assert!(ls.status.success(), "ls failed: {ls:?}");
    assert!(stdout_of(&ls).contains(&trace_ref), "{ls:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gsim_mrc_and_run_of_a_trace_match_its_benchmark() {
    // A recorded trace replays to the curve of the workload it records
    // (the curve a full-path predict of the trace embeds) and simulates
    // to the same cycle count.
    let dir = fresh_dir("trace-as-benchmark");
    let file = dir.join("gemm.gstr");
    let path = file.to_str().unwrap();
    let rec = gsim(&["trace", "record", "gemm", "-o", path, "--scale", "64"]);
    assert!(rec.status.success(), "record failed: {rec:?}");
    let from_trace = gsim(&["mrc", path, "--scale", "64"]);
    assert!(from_trace.status.success(), "mrc failed: {from_trace:?}");
    let from_bench = gsim(&["mrc", "gemm", "--scale", "64"]);
    assert!(from_bench.status.success(), "mrc failed: {from_bench:?}");
    let body = |out: &Output| stdout_of(out).split_once('\n').unwrap().1.to_string();
    assert_eq!(stdout_of(&from_trace).lines().count(), 7);
    assert_eq!(body(&from_trace), body(&from_bench));

    let run = |input: &str| gsim(&["run", input, "--sms", "16", "--scale", "64"]);
    assert_eq!(cycles_line(&run(path)), cycles_line(&run("gemm")));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gsim_trace_failures_map_to_distinct_exit_codes() {
    let dir = fresh_dir("trace-exits");
    let s = |p: &PathBuf| p.to_str().unwrap().to_string();

    // Not a trace at all.
    let bad = dir.join("bad.gstr");
    std::fs::write(&bad, b"definitely not a trace").unwrap();
    assert_eq!(gsim(&["trace", "info", &s(&bad)]).status.code(), Some(3));

    // Unknown version byte after a valid magic.
    let ver = dir.join("ver.gstr");
    std::fs::write(&ver, b"GSTR\x09").unwrap();
    assert_eq!(gsim(&["trace", "info", &s(&ver)]).status.code(), Some(4));

    // A real trace, truncated mid-stream.
    let good = dir.join("gemm.gstr");
    let rec = gsim(&["trace", "record", "gemm", "-o", &s(&good), "--scale", "64"]);
    assert!(rec.status.success(), "record failed: {rec:?}");
    let bytes = std::fs::read(&good).unwrap();
    // The same trace relabelled as version 1, the unframed format earlier
    // builds wrote, is refused as an unknown version.
    let v1 = dir.join("v1.gstr");
    let mut relabelled = bytes.clone();
    relabelled[4] = 1;
    std::fs::write(&v1, &relabelled).unwrap();
    assert_eq!(gsim(&["trace", "info", &s(&v1)]).status.code(), Some(4));
    let trunc = dir.join("trunc.gstr");
    std::fs::write(&trunc, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(gsim(&["trace", "info", &s(&trunc)]).status.code(), Some(5));

    // Over the configured size budget (the gemm trace is < 1 MiB, so
    // record the larger pf workload).
    let big = dir.join("pf.gstr");
    let rec = gsim(&["trace", "record", "pf", "-o", &s(&big), "--scale", "64"]);
    assert!(rec.status.success(), "record failed: {rec:?}");
    assert!(std::fs::metadata(&big).unwrap().len() > 1024 * 1024);
    assert_eq!(
        gsim(&["trace", "info", &s(&big), "--max-trace-mb", "1"])
            .status
            .code(),
        Some(6)
    );

    // Ingest surfaces the same codes.
    let store = dir.join("store");
    assert_eq!(
        gsim(&["trace", "ingest", &s(&bad), "--store", &s(&store)])
            .status
            .code(),
        Some(3)
    );
    assert_eq!(
        gsim(&["trace", "ingest", &s(&v1), "--store", &s(&store)])
            .status
            .code(),
        Some(4)
    );

    // Usage errors stay on the usual exit 2.
    assert_eq!(gsim(&["trace", "frobnicate"]).status.code(), Some(2));
    assert_eq!(gsim(&["trace", "record"]).status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gsim_run_is_deterministic_and_reports_throughput() {
    // A small scale model on the coarsest miniature keeps this fast.
    let args = ["run", "pf", "--sms", "8", "--scale", "64"];
    let first = gsim(&args);
    assert!(first.status.success(), "run failed: {first:?}");
    assert_eq!(cycles_line(&first), cycles_line(&gsim(&args)));
    let stdout = stdout_of(&first);
    assert!(
        stdout.contains("sim cycles/sec"),
        "summary should report simulation throughput: {stdout}"
    );
}

#[test]
fn removed_relaxed_sync_flag_is_unknown() {
    // Spelt in two halves so a grep for the removed flag finds nothing.
    let flag = concat!("--sync", "-slack");
    for cmd in [
        &["run", "dct"][..],
        &["repro"],
        &["fit", "10.0", "20.0", "5.0"],
    ] {
        let args: Vec<&str> = cmd.iter().copied().chain([flag, "4"]).collect();
        let out = gsim(&args);
        assert_eq!(out.status.code(), Some(2), "gsim {args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    }
}

#[test]
fn removed_intra_simulation_thread_flags_are_unknown() {
    // Spelt in halves so a grep for the removed flags finds nothing.
    let threads = concat!("--sim", "-threads");
    let assert_det = concat!("--assert", "-determinism");
    let trace = "no-such-file.gstr";
    let gsim_cases: [(&[&str], &[&str]); 6] = [
        (&["run", "pf"], &[threads, assert_det]),
        (&["sweep", "pf"], &[threads]),
        (&["run", "va", "--chiplets", "4"], &[threads, assert_det]),
        (&["run", trace], &[threads, assert_det]),
        (&["repro", "table1"], &[threads]),
        (&["fit", "10.0", "20.0", "5.0", "5.0"], &[threads]),
    ];
    for (cmd, flags) in gsim_cases {
        for flag in flags {
            let args: Vec<&str> = cmd.iter().copied().chain([*flag, "2"]).collect();
            let out = gsim(&args);
            assert_eq!(out.status.code(), Some(2), "gsim {args:?}: {out:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
        }
    }
}

#[test]
fn removed_surfaces_exit_2() {
    // Spelt in halves so a grep for the removed surfaces finds nothing.
    for args in [
        &["repro", concat!("--inject", "-panic"), "bfs", "table1"][..],
        &["trace", "record", "gemm", concat!("--for", "mat"), "1"],
        &[concat!("trace", "-dump"), "gemm", "-o", "unused.gstr"],
        // `run` and `mrc` took over these three.
        &[concat!("m", "cm"), "va", "--chiplets", "4"],
        &[concat!("trace", "-run"), "no-such-file.gstr"],
        &["trace", "info", "no-such-file.gstr", concat!("--m", "rc")],
        // Serve settings nothing turned: one admission budget, deadlines
        // from the request header only, a fixed drain grace.
        &["serve", concat!("--max-inflight", "-cheap"), "1"],
        &["serve", concat!("--default", "-deadline-ms"), "1"],
        &["serve", concat!("--drain", "-grace-ms"), "1"],
    ] {
        let out = gsim(args);
        assert_eq!(out.status.code(), Some(2), "gsim {args:?}: {out:?}");
    }
    // The beyond-paper studies are no longer repro sections.
    for section in ["ablations", "multicliff", "sampling"] {
        let out = gsim(&["repro", section]);
        assert_eq!(out.status.code(), Some(2), "gsim repro {section}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with(&format!("unknown section {section}")),
            "{out:?}"
        );
    }
}

#[test]
fn out_of_range_sizes_exit_2() {
    for args in [
        &["run", "pf", "--scale", "0"][..],
        &["sweep", "pf", "--scale", "0"],
        &["run", "pf", "--sms", "0"],
        &["run", "va", "--chiplets", "0"],
        &["predict", "bfs", "0"],
        &["run", "va", "--weak", "--sms", "3"],
        &["run", "pf", "--sms", "1", "--scale", "385"],
        &["trace", "record", "gemm", "-o"],
        &["repro", "table1", "--output"],
    ] {
        let out = gsim(args);
        assert_eq!(out.status.code(), Some(2), "gsim {args:?}: {out:?}");
    }
    // Sizes past what the machine or a u32 holds name their limit.
    for (args, limit) in [
        (&["run", "pf", "--sms", "4000000000"][..], "65536"),
        (&["run", "va", "--chiplets", "4000000000"], "1024"),
        (
            &["fit", "--size", "4000000000", "10", "20", "5", "5"],
            "4294967295",
        ),
        (
            &["fit", "--size", "2147483648", "10", "20", "5", "5"],
            "4294967295",
        ),
    ] {
        let out = gsim(args);
        assert_eq!(out.status.code(), Some(2), "gsim {args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(limit),
            "{out:?}"
        );
    }
    // The coarsest miniature whose L1 still holds a line.
    let out = gsim(&["run", "pf", "--sms", "1", "--scale", "384"]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn removed_multi_gpu_surface_is_unknown() {
    // Spelt in halves so a grep for the removed subcommand finds nothing.
    let out = gsim(&[concat!("multi", "gpu")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
    for flag in [
        "--gpus",
        "--topology",
        "--placement",
        "--link-gbs",
        "--link-latency",
        "--tenants",
        "--dag-kernels",
        "--seed",
        "--sharing",
        "--page-lines",
        "--validate",
        "--smoke",
    ] {
        let out = gsim(&["run", "pf", flag, "4"]);
        assert_eq!(out.status.code(), Some(2), "gsim run pf {flag} 4: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    }
}

#[test]
fn removed_serve_knobs_are_unknown() {
    // Spelt in halves so a grep for the removed flags finds nothing.
    let degrade = concat!("--degrade", "-threshold");
    let gate = concat!("--fast-path", "-gate");
    // The service runs its two scale models itself, side by side when
    // the host has more than one CPU.
    let pool = concat!("--runner", "-threads");
    for args in [
        &["serve", degrade, "1"][..],
        &["serve", gate, "2"],
        &["serve", pool, "2"],
        &["predict", "bfs", gate, "2"],
    ] {
        let out = gsim(args);
        assert_eq!(out.status.code(), Some(2), "gsim {args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    }
}

/// One row of the synopsis `gsim` prints: the verb's words, fillers for
/// its arguments, and each flag it reads with whether it takes a value.
struct Verb {
    words: Vec<String>,
    args: Vec<String>,
    flags: Vec<(String, bool)>,
}

/// The verb table, read from `gsim`'s own usage text.
fn verbs() -> Vec<Verb> {
    let out = gsim(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let usage = String::from_utf8_lossy(&out.stderr).to_string();
    let rows = usage.lines().filter_map(|l| l.trim().strip_prefix("gsim "));
    rows.map(|row| {
        let tokens: Vec<&str> = row.split(' ').collect();
        let words = tokens.iter().take_while(|t| !t.starts_with(['<', '[']));
        let flags = tokens.iter().filter_map(|t| t.strip_prefix("[-"));
        // A filler for every required argument, or one stray argument
        // where none is required: either way gsim stops before it
        // simulates, serves or writes anything.
        let required = tokens.iter().filter(|t| t.starts_with('<')).count();
        Verb {
            words: words.map(|w| w.to_string()).collect(),
            args: vec!["no-such-input".to_string(); required.max(1)],
            flags: flags
                .map(|f| (format!("-{}", f.trim_end_matches(']')), !f.ends_with(']')))
                .collect(),
        }
    })
    .collect()
}

/// Runs gsim from `cwd` with `args` and no stdin; fails the test if it
/// outlives a fixed bound.
fn gsim_bounded(args: &[String], cwd: &Path) -> Output {
    const BOUND: Duration = Duration::from_secs(20);
    let mut child = Command::new(env!("CARGO_BIN_EXE_gsim"))
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gsim");
    let start = Instant::now();
    while child.try_wait().expect("poll gsim").is_none() {
        if start.elapsed() > BOUND {
            let _ = child.kill();
            panic!("gsim {args:?} ran past {BOUND:?}");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    child.wait_with_output().expect("gsim output")
}

#[test]
fn every_verb_rejects_the_flags_it_does_not_read() {
    let verbs = verbs();
    assert_eq!(verbs.len(), 12);
    let flags: BTreeSet<&str> = verbs
        .iter()
        .flat_map(|v| v.flags.iter().map(|(f, _)| f.as_str()))
        .collect();
    assert_eq!(flags.len(), 17, "{flags:?}");
    let pairs: usize = verbs.iter().map(|v| v.flags.len()).sum();
    assert!(pairs <= 42, "{pairs} (verb, flag) pairs");
    let cwd = fresh_dir("unread-flags");
    for verb in &verbs {
        let name = verb.words.join(" ");
        for flag in flags
            .iter()
            .filter(|f| !verb.flags.iter().any(|(g, _)| g == *f))
        {
            let args = [&verb.words[..], &verb.args, &[flag.to_string(), "1".into()]].concat();
            let out = gsim_bounded(&args, &cwd);
            assert_eq!(out.status.code(), Some(2), "gsim {args:?}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.starts_with(&format!("unknown flag {flag} for gsim {name}\n")),
                "{stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn flag_values_never_panic_or_hang() {
    let cwd = fresh_dir("flag-values");
    for verb in verbs() {
        for (flag, _) in verb.flags.iter().filter(|(_, takes_value)| *takes_value) {
            for value in [None, Some("abc"), Some("-1"), Some("18446744073709551616")] {
                let mut args = [&verb.words[..], &verb.args].concat();
                args.extend([flag.clone()].into_iter().chain(value.map(String::from)));
                let out = gsim_bounded(&args, &cwd);
                assert!(
                    matches!(out.status.code(), Some(0..=2)),
                    "gsim {args:?}: {out:?}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn a_closed_stdout_ends_quietly() {
    // The read end is closed before gsim starts, so its first write
    // fails with a broken pipe every time.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_gsim"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("spawn gsim");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The artifact tool's report, byte for byte, with and without a cliff
/// on the curve.
#[test]
fn scale_model_predict_output_is_pinned() {
    let cliff = gsim(&[
        "fit", "--size", "8", "--f-mem", "0.5", "120", "236", "8.0", "8.0", "7.9", "7.8", "0.6",
    ]);
    assert!(cliff.status.success(), "{cliff:?}");
    assert_eq!(
        stdout_of(&cliff),
        "\
(1) measured scale models:
       8 SMs: IPC     120.00
      16 SMs: IPC     236.00
    miss-rate cliff detected between 64 and 128 SMs

(2) predicted IPC per target system:
             size          32          64         128
      scale-model      464.13      897.58     3590.33
     proportional      472.00      944.00     1888.00
           linear      468.00      932.00     1860.00
        power-law      464.13      912.80     1795.16
      logarithmic      260.80      312.96      365.12

(3) performance vs system size (each row scaled to its maximum):
       8 SMs  |#                    |#                    |#                    |#                    |#                   
      16 SMs  |#                    |#                    |#                    |#                    |#                   
      32 SMs  |###                  |###                  |###                  |###                  |#                   
      64 SMs  |#####                |#####                |#####                |#####                |##                  
     128 SMs  |#################### |###########          |##########           |##########           |##                  
               scale-model           proportional          linear                power-law             logarithmic         
"
    );
    // Without --f-mem a cliff past the scale models cannot be crossed.
    let no_f_mem = gsim(&["fit", "120", "236", "8.0", "8.0", "7.9", "7.8", "0.6"]);
    assert_eq!(no_f_mem.status.code(), Some(2), "{no_f_mem:?}");
    assert!(
        String::from_utf8_lossy(&no_f_mem.stderr).contains(
            "the curve contains a cliff: pass --f-mem <fraction>, the fraction of cycles \
             the largest scale model could not fetch because all warps waited on memory"
        ),
        "{no_f_mem:?}"
    );
    let flat = gsim(&["fit", "100", "190", "10.0", "10.0", "10.0", "9.8", "9.5"]);
    assert!(flat.status.success(), "{flat:?}");
    assert_eq!(
        stdout_of(&flat),
        "\
(1) measured scale models:
       8 SMs: IPC     100.00
      16 SMs: IPC     190.00
    no miss-rate cliff: the whole range is pre-cliff

(2) predicted IPC per target system:
             size          32          64         128
      scale-model      361.00      651.61     1061.47
     proportional      380.00      760.00     1520.00
           linear      370.00      730.00     1450.00
        power-law      361.00      685.90     1303.21
      logarithmic      212.00      254.40      296.80

(3) performance vs system size (each row scaled to its maximum):
       8 SMs  |#                    |#                    |#                    |#                    |#                   
      16 SMs  |###                  |###                  |###                  |###                  |###                 
      32 SMs  |#####                |#####                |#####                |#####                |###                 
      64 SMs  |#########            |##########           |##########           |#########            |###                 
     128 SMs  |##############       |#################### |###################  |#################    |####                
               scale-model           proportional          linear                power-law             logarithmic         
"
    );
}

/// `gsim repro` prints its sections and writes them to disk only under
/// `-o DIR`.
#[test]
fn gsim_repro_writes_files_only_where_asked() {
    let cwd = fresh_dir("repro-cwd");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_gsim"))
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("spawn gsim")
    };
    let printed = run(&["repro", "table1", "--scale", "64"]);
    assert!(printed.status.success(), "{printed:?}");
    assert!(stdout_of(&printed).starts_with("Table I:"), "{printed:?}");
    assert_eq!(std::fs::read_dir(&cwd).unwrap().count(), 0, "stdout only");

    let written = run(&["repro", "table1", "--scale", "64", "-o", "out"]);
    assert!(written.status.success(), "{written:?}");
    assert_eq!(stdout_of(&written), stdout_of(&printed));
    let file = std::fs::read_to_string(cwd.join("out").join("table1.txt")).unwrap();
    assert_eq!(format!("{file}\n"), stdout_of(&printed));
    let _ = std::fs::remove_dir_all(&cwd);
}

/// `gsim predict` is `POST /v1/predict` answered in process: its stdout
/// is the service's body, byte for byte, on either path.
#[test]
fn gsim_predict_prints_the_service_body() {
    use gsim_serve::{PredictService, Request, ServeConfig, ShutdownFlag};

    let store = fresh_dir("predict-vs-serve");
    let service = PredictService::new(
        ServeConfig {
            trace_store_dir: Some(store.clone()),
            ..ServeConfig::default()
        },
        ShutdownFlag::new(),
    )
    .expect("service starts");
    for name in ["gemm", "bfs"] {
        for path in ["auto", "full"] {
            let out = gsim(&["predict", name, "--path", path, "--scale", "32"]);
            assert!(out.status.success(), "{out:?}");
            let body = format!(
                r#"{{"workload": "{name}", "targets": [32, 64, 128], "mem_scale": 32, "path": "{path}"}}"#
            );
            let resp = service.handle(&Request {
                method: "POST".into(),
                path: "/v1/predict".into(),
                headers: Vec::new(),
                body: body.into_bytes(),
            });
            assert_eq!(resp.status, 200);
            assert!(
                out.stdout == resp.body,
                "{name} {path}:\n{}\n{}",
                stdout_of(&out),
                String::from_utf8_lossy(&resp.body)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&store);
}
