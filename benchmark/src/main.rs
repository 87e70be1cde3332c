//! The benchmark of the GPU scale-model simulation workspace.
//!
//! Six workloads, each run in its own process; end-to-end metrics from
//! untraced runs, per-layer metrics from traced runs. `run.sh` builds and
//! starts this program; README.md says what is measured and why.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, result object on the last line
//! run.sh [--workload NAME] [--seed N] [--runs K] [--vary-seed] [--trace] [--smoke] [--bless] [--label L]
//!                                                            a result set under out/
//! run.sh compare A.json B.json                               two result sets against the bounds
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod golden;
mod harness;
mod inputs;
mod metrics;
mod repro;
mod result;
mod serve;
mod set;
mod sim;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::RunCfg;
use result::RunResult;
use set::SetCfg;

/// Seconds a run measures when the command line does not say.
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--bless]
      one run of one workload; the last line of standard output is the result object
  run.sh [--workload NAME] [--seed N] [--runs K] [--vary-seed] [--trace] [--smoke] [--bless] [--label L]
      every workload (or NAME) in its own process, stored as out/results-L.json
  run.sh compare A.json B.json
      one row per (end-to-end metric, workload): medians, quartiles, verdict
workloads: sim_membound_64sm sim_compute_scalemodel repro_strong serve_miss_fast serve_miss_full serve_hit";

/// Spans a trace file lists at most; the per-name totals cover them all.
const TRACE_FILE_SPANS: usize = 100_000;

/// Writes the spans of a traced run to `out/trace-<workload>.json`.
pub(crate) fn write_trace(cfg: &RunCfg, spans: &[spans::Span], result: &mut RunResult) {
    let path = cfg.out_dir().join(format!("trace-{}.json", cfg.workload));
    let doc = spans::trace_json(&cfg.workload, cfg.seed, spans, TRACE_FILE_SPANS);
    let written = std::fs::create_dir_all(cfg.out_dir())
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"));
    match written {
        Ok(()) => result.notes.push(format!(
            "{} spans recorded, the first {} listed in {}",
            spans.len(),
            spans.len().min(TRACE_FILE_SPANS),
            path.display()
        )),
        Err(e) => result.violate(format!("cannot write {}: {e}", path.display())),
    }
}

/// The command line, parsed.
#[derive(Debug, Default)]
struct Args {
    bench_dir: Option<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `--trace` with its value; a bare `--trace` is `Some(true)`.
    trace: Option<bool>,
    smoke: bool,
    bless: bool,
    runs: Option<usize>,
    vary_seed: bool,
    label: Option<String>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} takes a value"))
        };
        match a.as_str() {
            "--bench-dir" => args.bench_dir = Some(PathBuf::from(value("--bench-dir")?)),
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                );
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // The driver passes 0 or 1; by hand the flag alone means 1.
                args.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--vary-seed" => args.vary_seed = true,
            "--runs" => {
                let n: usize = value("--runs")?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?;
                if !(1..=100).contains(&n) {
                    return Err("--runs must be in 1..=100".into());
                }
                args.runs = Some(n);
            }
            "--label" => {
                let l = value("--label")?;
                if l.is_empty()
                    || !l
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
                {
                    return Err("--label takes letters, digits, - and _".into());
                }
                args.label = Some(l);
            }
            "compare" => {
                let a = PathBuf::from(value("compare")?);
                let b = PathBuf::from(value("compare")?);
                args.compare = Some((a, b));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_one(cfg: &RunCfg) -> ExitCode {
    let result = match cfg.workload.as_str() {
        "sim_membound_64sm" | "sim_compute_scalemodel" => sim::run(cfg),
        "repro_strong" => repro::run(cfg),
        "serve_miss_fast" | "serve_miss_full" | "serve_hit" => serve::run(cfg),
        other => {
            eprintln!("no workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if result.attempted == 0 {
        eprintln!("{}: no operation was attempted", cfg.workload);
        return ExitCode::FAILURE;
    }
    result.print_table(&cfg.workload, cfg.trace);
    // The driver reads this line; nothing may follow it.
    println!("{}", result.to_json(cfg.trace).render());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("{why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match set::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::from(2)
            }
        };
    }
    let bench_dir = args
        .bench_dir
        .clone()
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf());
    let seed = args.seed.unwrap_or(golden::GOLDEN_SEED);
    if args.bless && seed != golden::GOLDEN_SEED {
        eprintln!(
            "--bless regenerates the seed-{} golden; run it with that seed",
            golden::GOLDEN_SEED
        );
        return ExitCode::from(2);
    }
    // `--seconds` marks the driver's form: exactly one run of one workload.
    if let (Some(seconds), Some(workload)) = (args.seconds, &args.workload) {
        if args.runs.is_none() && !args.vary_seed && args.label.is_none() {
            return run_one(&RunCfg {
                workload: workload.clone(),
                seed,
                seconds,
                trace: args.trace.unwrap_or(false),
                smoke: args.smoke,
                bless: args.bless,
                bench_dir,
            });
        }
    }
    let cfg = SetCfg {
        workload: args.workload.clone(),
        seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        runs: args.runs.unwrap_or(1),
        vary_seed: args.vary_seed,
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
        bless: args.bless,
        label: args
            .label
            .clone()
            .unwrap_or_else(|| if args.smoke { "smoke" } else { "latest" }.to_string()),
        bench_dir,
    };
    match set::run_set(&cfg) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("at least one run was not correct");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_form_parses() {
        let a = parse("--workload serve_hit --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_hit"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(7), Some(10.0), Some(false))
        );
        let a = parse("--workload serve_hit --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.trace, Some(true));
    }

    #[test]
    fn trace_is_also_a_bare_flag() {
        let a = parse("--trace --smoke --seed 2").unwrap();
        assert_eq!((a.trace, a.smoke, a.seed), (Some(true), true, Some(2)));
        let a = parse("--seed 2 --trace").unwrap();
        assert_eq!(a.trace, Some(true));
        assert_eq!(
            parse("--runs 3 --vary-seed --label base").unwrap().runs,
            Some(3)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--runs 0").is_err());
        assert!(parse("--label ../x").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("compare a.json").is_err());
        let a = parse("compare a.json b.json").unwrap();
        assert_eq!(
            a.compare,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
    }
}
