//! Result sets: running every workload in its own process, storing what
//! they print, and comparing two stored sets.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use gsim_json::{obj, Json};

use crate::metrics::{Better, MetricDef, END_TO_END, EXACT_LAYER_METRICS, PER_LAYER, WORKLOADS};
use crate::result::{format_value, nproc};
use crate::stats::{quartiles, spread};

const SCHEMA: &str = "gsim-benchmark-results-v1";

/// What `run.sh` without `--seconds` was asked to do.
#[derive(Debug, Clone)]
pub struct SetCfg {
    /// Only this workload (all six otherwise).
    pub workload: Option<String>,
    /// Seed of the first run.
    pub seed: u64,
    /// Seconds each run measures.
    pub seconds: f64,
    /// Untraced runs per workload.
    pub runs: usize,
    /// Run `i` uses seed `seed + i` (the driver's spread check).
    pub vary_seed: bool,
    /// Also one traced run per workload.
    pub trace: bool,
    /// Smoke mode.
    pub smoke: bool,
    /// Re-bless the golden file (seed 1 only).
    pub bless: bool,
    /// Name of the result file under `out/`.
    pub label: String,
    /// The benchmark's directory.
    pub bench_dir: PathBuf,
}

/// One child run as stored in a result set.
#[derive(Debug, Clone, PartialEq)]
struct StoredRun {
    seed: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl StoredRun {
    fn from_line(seed: u64, line: &str) -> Result<Self, String> {
        let doc = gsim_json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line has no metrics")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            seed,
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("no correct")?,
            attempted: doc
                .get("attempted")
                .and_then(Json::as_u64)
                .ok_or("no attempted")?,
            failed: doc
                .get("failed")
                .and_then(Json::as_u64)
                .ok_or("no failed")?,
            metrics,
        })
    }

    fn to_json(&self) -> Json {
        obj([
            ("seed", Json::from(self.seed)),
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Option<Self> {
        Some(Self {
            seed: doc.get("seed")?.as_u64()?,
            correct: doc.get("correct")?.as_bool()?,
            attempted: doc.get("attempted")?.as_u64()?,
            failed: doc.get("failed")?.as_u64()?,
            metrics: doc
                .get("metrics")?
                .as_obj()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// The runs of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
struct WorkloadRuns {
    untraced: Vec<StoredRun>,
    traced: Vec<StoredRun>,
}

/// A stored result set: one commit, one host, some runs per workload.
#[derive(Debug, Clone, PartialEq)]
struct ResultSet {
    commit: String,
    nproc: usize,
    /// Fewer hardware threads than the pools want: timings are not
    /// comparable and print as unresolved, never as numbers.
    oversubscribed: bool,
    seed: u64,
    seconds: f64,
    runs: usize,
    smoke: bool,
    workloads: BTreeMap<String, WorkloadRuns>,
}

impl ResultSet {
    fn to_json(&self) -> Json {
        let runs_json =
            |runs: &[StoredRun]| Json::Arr(runs.iter().map(StoredRun::to_json).collect());
        obj([
            ("schema", Json::from(SCHEMA)),
            ("commit", Json::from(self.commit.as_str())),
            ("nproc", Json::from(self.nproc)),
            ("oversubscribed", Json::from(self.oversubscribed)),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("runs", Json::from(self.runs)),
            ("smoke", Json::from(self.smoke)),
            (
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|(name, w)| {
                            (
                                name.clone(),
                                obj([
                                    ("untraced", runs_json(&w.untraced)),
                                    ("traced", runs_json(&w.traced)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Option<Self> {
        if doc.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        let runs_of = |w: &Json, key: &str| -> Option<Vec<StoredRun>> {
            w.get(key)?
                .as_arr()?
                .iter()
                .map(StoredRun::from_json)
                .collect()
        };
        Some(Self {
            commit: doc.get("commit")?.as_str()?.to_string(),
            nproc: doc.get("nproc")?.as_u64()? as usize,
            oversubscribed: doc.get("oversubscribed")?.as_bool()?,
            seed: doc.get("seed")?.as_u64()?,
            seconds: doc.get("seconds")?.as_f64()?,
            runs: doc.get("runs")?.as_u64()? as usize,
            smoke: doc.get("smoke")?.as_bool()?,
            workloads: doc
                .get("workloads")?
                .as_obj()?
                .iter()
                .map(|(name, w)| {
                    Some((
                        name.clone(),
                        WorkloadRuns {
                            untraced: runs_of(w, "untraced")?,
                            traced: runs_of(w, "traced")?,
                        },
                    ))
                })
                .collect::<Option<_>>()?,
        })
    }

    fn load(path: &Path) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = gsim_json::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&doc).ok_or_else(|| format!("{}: not a {SCHEMA} file", path.display()))
    }
}

/// The commit of the checkout, where git can tell.
fn commit_of(bench_dir: &Path) -> String {
    Command::new("git")
        .arg("-C")
        .arg(bench_dir)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Runs one workload once in a child process of this same program and
/// parses the last line it prints.
fn child_run(cfg: &SetCfg, workload: &str, seed: u64, traced: bool) -> Result<StoredRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--bench-dir")
        .arg(&cfg.bench_dir)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if cfg.bless {
        cmd.arg("--bless");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: the child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: the child printed nothing"))?;
    StoredRun::from_line(seed, line)
}

fn values(runs: &[StoredRun], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Prints every metric of a set by name: median, quartiles, spread, unit.
fn print_set(set: &ResultSet) {
    println!(
        "# commit {} · nproc {} · seed {} · {} s per run · {} untraced run(s) per workload{}{}",
        set.commit,
        set.nproc,
        set.seed,
        set.seconds,
        set.runs,
        if set.smoke {
            " · SMOKE: timings claim nothing"
        } else {
            ""
        },
        if set.oversubscribed {
            " · OVERSUBSCRIBED: timings unresolved"
        } else {
            ""
        },
    );
    for (name, w) in &set.workloads {
        let ops: u64 = w
            .untraced
            .iter()
            .chain(&w.traced)
            .map(|r| r.attempted)
            .sum();
        let failed: u64 = w.untraced.iter().chain(&w.traced).map(|r| r.failed).sum();
        let correct = w.untraced.iter().chain(&w.traced).all(|r| r.correct);
        println!("\n## {name}: {ops} operations attempted, {failed} failed, correct: {correct}");
        println!(
            "{:<42} {:>14} {:>14} {:>14} {:>8}  unit",
            "metric", "median", "q1", "q3", "spread"
        );
        let rows = END_TO_END
            .iter()
            .map(|d| (d, &w.untraced))
            .chain(PER_LAYER.iter().map(|d| (d, &w.traced)));
        for (def, runs) in rows {
            let v = values(runs, def.name);
            if v.is_empty() {
                continue;
            }
            let [q1, q2, q3] = quartiles(&v);
            let timing = matches!(def.unit, "s" | "ms" | "us" | "ns" | "1/s" | "1e6/s");
            if set.oversubscribed && timing {
                println!(
                    "{:<42} {:>14} {:>14} {:>14} {:>8}  {}",
                    def.name, "unresolved", "-", "-", "-", def.unit
                );
                continue;
            }
            println!(
                "{:<42} {:>14} {:>14} {:>14} {:>7.1}%  {}",
                def.name,
                format_value(q2),
                format_value(q1),
                format_value(q3),
                spread(&v) * 100.0,
                def.unit
            );
        }
    }
}

/// Runs the set, stores it under `out/results-<label>.json`, prints it.
/// Returns whether every run was correct.
pub fn run_set(cfg: &SetCfg) -> Result<bool, String> {
    let names: Vec<&str> = match &cfg.workload {
        Some(w) => vec![WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n == w)
            .ok_or_else(|| format!("no workload {w}"))?],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut set = ResultSet {
        commit: commit_of(&cfg.bench_dir),
        nproc: nproc(),
        oversubscribed: nproc() < 2,
        seed: cfg.seed,
        seconds: cfg.seconds,
        runs: cfg.runs,
        smoke: cfg.smoke,
        workloads: BTreeMap::new(),
    };
    for name in names {
        let mut w = WorkloadRuns::default();
        for i in 0..cfg.runs {
            let seed = if cfg.vary_seed {
                cfg.seed + i as u64
            } else {
                cfg.seed
            };
            eprintln!(
                "[set] {name} seed {seed} untraced run {}/{}",
                i + 1,
                cfg.runs
            );
            w.untraced.push(child_run(cfg, name, seed, false)?);
        }
        if cfg.trace {
            eprintln!("[set] {name} seed {} traced run", cfg.seed);
            w.traced.push(child_run(cfg, name, cfg.seed, true)?);
        }
        set.workloads.insert(name.to_string(), w);
    }
    let out_dir = cfg.bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("results-{}.json", cfg.label));
    std::fs::write(&path, set.to_json().render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    print_set(&set);
    println!("\n# result set written to {}", path.display());
    Ok(set
        .workloads
        .values()
        .all(|w| w.untraced.iter().chain(&w.traced).all(|r| r.correct)))
}

/// How one (metric, workload) pair of set B stands against set A.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Standing {
    WithinBound,
    Regressed,
    /// A set's own spread exceeds the bound, or the host was oversubscribed.
    Unresolved,
}

/// Share by which `b` is worse than `a` (negative when better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn standing(def: &MetricDef, a: &[f64], b: &[f64], oversubscribed: bool) -> Standing {
    let bound = def.bound.unwrap_or(0.0);
    if oversubscribed || spread(a) > bound || spread(b) > bound {
        Standing::Unresolved
    } else if worsening(def, quartiles(a)[1], quartiles(b)[1]) > bound {
        Standing::Regressed
    } else {
        Standing::WithinBound
    }
}

/// `compare A B`: one row per (end-to-end metric, workload) with each
/// side's median and quartiles and a verdict, then the exact layer
/// counts and the failure counts. Returns whether nothing regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (ResultSet::load(a_path)?, ResultSet::load(b_path)?);
    println!(
        "# A: {} commit {} nproc {} seed {} ({} runs) | B: {} commit {} nproc {} seed {} ({} runs)",
        a_path.display(),
        a.commit,
        a.nproc,
        a.seed,
        a.runs,
        b_path.display(),
        b.commit,
        b.nproc,
        b.seed,
        b.runs,
    );
    let oversubscribed = a.oversubscribed || b.oversubscribed;
    if a.smoke || b.smoke {
        println!("# a smoke set claims no timings: every verdict below is void");
    }
    println!(
        "{:<24} {:<12} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    let mut ok = true;
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            println!("{name:<24} missing from B");
            ok = false;
            continue;
        };
        for def in &END_TO_END {
            let (va, vb) = (
                values(&wa.untraced, def.name),
                values(&wb.untraced, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = standing(def, &va, &vb, oversubscribed);
            ok &= verdict != Standing::Regressed;
            let side = |v: &[f64]| {
                if oversubscribed {
                    "unresolved".to_string()
                } else {
                    let [q1, q2, q3] = quartiles(v);
                    format!(
                        "{} [{}, {}]",
                        format_value(q2),
                        format_value(q1),
                        format_value(q3)
                    )
                }
            };
            println!(
                "{:<24} {:<12} {:>30} {:>30} {:>7.1}% {:>5.0}%  {}",
                name,
                def.name,
                side(&va),
                side(&vb),
                worsening(def, quartiles(&va)[1], quartiles(&vb)[1]) * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Standing::WithinBound => "within bound",
                    Standing::Regressed => "REGRESSED",
                    Standing::Unresolved => "unresolved (spread exceeds the bound)",
                }
            );
        }
        // Counts that must repeat bit for bit between two builds.
        if let (Some(ta), Some(tb)) = (wa.traced.first(), wb.traced.first()) {
            let differing: Vec<String> = EXACT_LAYER_METRICS
                .iter()
                .filter_map(|m| {
                    let (x, y) = (ta.metrics.get(*m)?, tb.metrics.get(*m)?);
                    (x != y).then(|| format!("{m}: {x} vs {y}"))
                })
                .collect();
            if differing.is_empty() {
                println!("{name:<24} exact layer counts identical");
            } else {
                ok = false;
                println!(
                    "{name:<24} EXACT LAYER COUNTS DIFFER: {}",
                    differing.join("; ")
                );
            }
        }
        let failed = |w: &WorkloadRuns| -> u64 {
            w.untraced.iter().chain(&w.traced).map(|r| r.failed).sum()
        };
        let (fa, fb) = (failed(wa), failed(wb));
        if fa + fb > 0 {
            ok &= fb <= fa;
            println!("{name:<24} failed operations: A {fa}, B {fb}");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = &MetricDef {
            name: "time",
            unit: "s",
            better: Better::Lower,
            bound: Some(0.10),
        };
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            standing(wall, &steady, &[10.5, 10.6, 10.4, 10.5], false),
            Standing::WithinBound
        );
        assert_eq!(
            standing(wall, &steady, &[11.5, 11.6, 11.4, 11.5], false),
            Standing::Regressed
        );
        assert_eq!(
            standing(wall, &steady, &[8.0, 8.1, 7.9, 8.0], false),
            Standing::WithinBound
        );
        // A set whose own quartiles are 20 % apart resolves nothing.
        assert_eq!(
            standing(wall, &steady, &[9.0, 11.0, 10.0, 12.0], false),
            Standing::Unresolved
        );
        assert_eq!(standing(wall, &steady, &steady, true), Standing::Unresolved);
        let rate = &MetricDef {
            name: "rate",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(0.10),
        };
        assert_eq!(
            standing(rate, &steady, &[8.5, 8.6, 8.4, 8.5], false),
            Standing::Regressed
        );
        assert_eq!(
            standing(rate, &steady, &[12.0, 12.1, 11.9, 12.0], false),
            Standing::WithinBound
        );
        assert!((worsening(rate, 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert!((worsening(wall, 10.0, 8.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn result_sets_round_trip_through_json() {
        let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#;
        let run = StoredRun::from_line(3, line).unwrap();
        assert_eq!(
            (run.seed, run.attempted, run.metrics["wall_s"]),
            (3, 12, 1.5)
        );
        let set = ResultSet {
            commit: "abc".into(),
            nproc: 2,
            oversubscribed: false,
            seed: 3,
            seconds: 10.0,
            runs: 1,
            smoke: false,
            workloads: BTreeMap::from([(
                "serve_hit".to_string(),
                WorkloadRuns {
                    untraced: vec![run.clone()],
                    traced: vec![run],
                },
            )]),
        };
        let text = set.to_json().render();
        let back = ResultSet::from_json(&gsim_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, set);
        assert!(StoredRun::from_line(1, r#"{"correct":true}"#).is_err());
    }
}
