//! A tiny dependency-free micro-benchmark harness.
//!
//! The bench targets (`cargo bench`) used to be Criterion benches; this
//! module replaces them with an in-tree harness so the workspace builds
//! with no external crates. It keeps the parts that matter for our use:
//! warmup, batch-size calibration so fast functions are timed over
//! batches rather than single calls, several samples with min/median/mean
//! reporting, and optional element throughput.
//!
//! Filtering works like Criterion's: `cargo bench -- <substring>` runs
//! only benchmarks whose `group/name` id contains the substring.
//!
//! Besides the human-readable lines, a bench target can collect its
//! results into a [`JsonReport`] and write a `BENCH_<name>.json` file at
//! the repo root, so successive runs can be diffed for regressions
//! (`make bench` refreshes them). Setting `GSIM_BENCH_FAST=1` asks bench
//! targets for a smoke-test-sized run — fewer samples on shrunk inputs —
//! for CI, where only the harness and the JSON schema are under test.

use std::hint::black_box as std_black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Re-exported optimizer barrier; wrap inputs/outputs you do not want
/// folded away.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How long a calibrated batch should roughly take.
const TARGET_BATCH: Duration = Duration::from_millis(20);
/// Upper bound on iterations per batch (guards degenerate calibration).
const MAX_BATCH: u64 = 1 << 22;

/// A named group of benchmarks, mirroring Criterion's `benchmark_group`.
pub struct Group {
    name: String,
    samples: usize,
    throughput: Option<u64>,
    filter: Option<String>,
}

impl Group {
    /// Starts a group; the CLI filter (first non-flag argument after
    /// `--`) is captured from the process arguments.
    pub fn new(name: impl Into<String>) -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        Self {
            name: name.into(),
            samples: 10,
            throughput: None,
            filter,
        }
    }

    /// Sets the number of timed samples per benchmark (default 10).
    #[must_use]
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(2);
        self
    }

    /// Declares that one iteration processes `elements` items; the report
    /// then includes a throughput column.
    #[must_use]
    pub fn throughput(mut self, elements: u64) -> Self {
        self.throughput = Some(elements);
        self
    }

    /// Times `f`, printing one summary line. Returns the median
    /// per-iteration time for programmatic use.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Option<Duration> {
        let id = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return None;
            }
        }

        // Warmup + batch calibration: grow the batch until it takes long
        // enough for the clock to resolve it well.
        let mut batch: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let took = t0.elapsed();
            if took >= TARGET_BATCH || batch >= MAX_BATCH {
                break;
            }
            batch = if took.is_zero() {
                batch * 64
            } else {
                let scale = TARGET_BATCH.as_secs_f64() / took.as_secs_f64();
                ((batch as f64 * scale * 1.2) as u64).clamp(batch + 1, MAX_BATCH)
            };
        }

        let mut per_iter: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t0.elapsed() / u32::try_from(batch).unwrap_or(u32::MAX)
            })
            .collect();
        per_iter.sort();

        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<Duration>() / self.samples as u32;
        let rate = self
            .throughput
            .map(|n| {
                let eps = n as f64 / median.as_secs_f64();
                format!("  {:>10.2} Melem/s", eps / 1e6)
            })
            .unwrap_or_default();
        println!(
            "{id:<44} min {:>12}  median {:>12}  mean {:>12}{rate}",
            fmt_duration(min),
            fmt_duration(median),
            fmt_duration(mean),
        );
        Some(median)
    }
}

/// Whether `GSIM_BENCH_FAST` asks for a smoke-test-sized run (CI): bench
/// targets should cut sample counts and shrink inputs so the whole target
/// finishes in seconds. Timings from fast runs are not comparable to full
/// runs; only the emitted JSON's shape is.
pub fn fast_mode() -> bool {
    std::env::var_os("GSIM_BENCH_FAST").is_some_and(|v| !v.is_empty() && v != "0")
}

/// One benchmark's distilled result inside a [`JsonReport`].
#[derive(Debug, Clone)]
pub struct Record {
    /// The `group/name` benchmark id.
    pub name: String,
    /// Median wall time of one iteration, in nanoseconds.
    pub median_ns: u128,
    /// Wall-time speedup relative to the first member of this record's
    /// strong-scaling family (`median_first / median_this`); `None` for
    /// records outside a family.
    pub speedup_vs_t1: Option<f64>,
    /// Simulated cycles per wall-clock second, for simulator benches
    /// (`None` for benches that do not run the timing simulator).
    pub cycles_per_second: Option<f64>,
    /// GPUs the measured run simulated (1 = single-package runs).
    pub n_gpus: u32,
    /// Page-placement policy of a multi-GPU run (`None` for
    /// single-package runs).
    pub placement: Option<String>,
}

/// Collects [`Record`]s and writes them as `BENCH_<target>.json` at the
/// repo root. The format is a stable, diffable schema:
///
/// ```json
/// {
///   "schema": "gsim-tinybench-v1",
///   "fast_mode": false,
///   "host_logical_cpus": 8,
///   "records": [
///     {"name": "g/g4", "median_ns": 12,
///      "speedup_vs_t1": 1.8, "cycles_per_second": 3.1e6,
///      "n_gpus": 4, "placement": "interleave"}
///   ]
/// }
/// ```
///
/// `host_logical_cpus` records the machine the numbers came from —
/// timings from hosts with different logical-CPU counts are not
/// comparable, and the field makes such diffs self-explaining.
pub struct JsonReport {
    path: PathBuf,
    records: Vec<Record>,
}

impl JsonReport {
    /// A report that will land at `<repo root>/BENCH_<target>.json`.
    pub fn for_target(target: &str) -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("bench crate sits two levels under the repo root");
        Self {
            path: root.join(format!("BENCH_{target}.json")),
            records: Vec::new(),
        }
    }

    /// Adds one result. `cycles` (the deterministic simulated-cycle count
    /// of one iteration) turns into a cycles-per-second rate.
    pub fn record(&mut self, name: impl Into<String>, median: Duration, cycles: Option<u64>) {
        self.push(name, median, cycles, None, 1, None);
    }

    /// Adds one multi-GPU system result: like [`JsonReport::record`] but
    /// carrying the system shape (GPU count and placement policy) so
    /// strong-scaling families over GPUs are diffable by identity, and,
    /// past the family's first member, its speedup over that member.
    pub fn record_multigpu(
        &mut self,
        name: impl Into<String>,
        median: Duration,
        n_gpus: u32,
        placement: &str,
        cycles: Option<u64>,
        speedup_vs_t1: Option<f64>,
    ) {
        self.push(
            name,
            median,
            cycles,
            speedup_vs_t1,
            n_gpus,
            Some(placement.to_string()),
        );
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        median: Duration,
        cycles: Option<u64>,
        speedup_vs_t1: Option<f64>,
        n_gpus: u32,
        placement: Option<String>,
    ) {
        let secs = median.as_secs_f64();
        self.records.push(Record {
            name: name.into(),
            median_ns: median.as_nanos(),
            speedup_vs_t1: speedup_vs_t1.filter(|s| s.is_finite()),
            cycles_per_second: cycles.filter(|_| secs > 0.0).map(|c| c as f64 / secs),
            n_gpus,
            placement,
        });
    }

    /// The JSON document (pretty-printed by hand; string escaping via
    /// the shared `gsim-json` implementation).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"gsim-tinybench-v1\",\n");
        out.push_str(&format!("  \"fast_mode\": {},\n", fast_mode()));
        out.push_str(&format!(
            "  \"host_logical_cpus\": {},\n",
            host_logical_cpus()
        ));
        out.push_str("  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"median_ns\": {}, \
                 \"speedup_vs_t1\": {}, \"cycles_per_second\": {}, \
                 \"n_gpus\": {}, \"placement\": {}}}",
                gsim_json::json_string(&r.name),
                r.median_ns,
                match r.speedup_vs_t1 {
                    Some(s) if s.is_finite() => format!("{s:.3}"),
                    _ => "null".into(),
                },
                match r.cycles_per_second {
                    Some(c) if c.is_finite() => format!("{c:.1}"),
                    _ => "null".into(),
                },
                r.n_gpus,
                r.placement
                    .as_deref()
                    .map_or_else(|| "null".into(), gsim_json::json_string),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the report; prints where it went. Call once at target exit.
    /// Skipped when a CLI filter deselected every benchmark, so partial
    /// runs never clobber a full report.
    pub fn write(&self) {
        if self.records.is_empty() {
            return;
        }
        std::fs::write(&self.path, self.render())
            .unwrap_or_else(|e| panic!("write {}: {e}", self.path.display()));
        println!("wrote {}", self.path.display());
    }
}

/// Logical CPUs on the host running the bench (0 when the platform
/// cannot report it — never silently wrong, always present).
pub fn host_logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use gsim_json::Json;

    use super::*;

    #[test]
    fn bench_returns_a_sane_median() {
        let g = Group::new("test").samples(3);
        let median = g
            .bench("spin", || {
                let mut acc = 0u64;
                for i in 0..100u64 {
                    acc = acc.wrapping_add(black_box(i));
                }
                acc
            })
            .expect("no filter set in tests");
        assert!(median < Duration::from_millis(100));
    }

    #[test]
    fn json_report_renders_schema() {
        let mut rep = JsonReport::for_target("test");
        rep.record("g/serial", Duration::from_micros(3), Some(6_000));
        rep.record("g/\"odd\"", Duration::from_nanos(0), Some(1));
        rep.record("g/no_sim", Duration::from_millis(1), None);
        let json = rep.render();
        assert!(json.contains("\"schema\": \"gsim-tinybench-v1\""));
        // The whole document is valid JSON and records the host size.
        let doc = gsim_json::parse(&json).expect("report is valid JSON");
        let cpus = doc.get("host_logical_cpus").unwrap().as_u64().unwrap();
        assert_eq!(cpus, host_logical_cpus() as u64);
        // 6000 cycles in 3 us = 2e9 cycles/sec.
        assert!(json.contains("\"cycles_per_second\": 2000000000.0"));
        // Records outside a scaling family carry no speedup.
        for (i, rec) in doc
            .get("records")
            .and_then(gsim_json::Json::as_arr)
            .unwrap()
            .iter()
            .enumerate()
        {
            assert!(
                matches!(rec.get("speedup_vs_t1"), Some(Json::Null)),
                "record {i}"
            );
        }
        assert!(json.contains("\"median_ns\": 3000,"));
        // Zero-duration medians cannot produce a rate.
        assert!(json.contains("\\\"odd\\\""));
        assert!(json.contains("\"median_ns\": 0,"));
        assert!(json.matches("\"cycles_per_second\": null").count() >= 1);
        // Non-simulator benches carry no rate either.
        assert!(json.contains("\"name\": \"g/no_sim\""));
        assert_eq!(json.matches("\"cycles_per_second\": null").count(), 2);
    }

    #[test]
    fn multigpu_records_carry_the_system_shape() {
        let mut rep = JsonReport::for_target("test");
        rep.record("g/single", Duration::from_micros(3), Some(6_000));
        rep.record_multigpu(
            "g/g4",
            Duration::from_micros(4),
            4,
            "interleave",
            Some(8_000),
            Some(2.5),
        );
        let json = rep.render();
        let doc = gsim_json::parse(&json).expect("report is valid JSON");
        let records = doc
            .get("records")
            .and_then(gsim_json::Json::as_arr)
            .unwrap();
        // Single-package records keep the single-GPU identity.
        assert_eq!(records[0].get("n_gpus").unwrap().as_u64(), Some(1));
        assert!(matches!(records[0].get("placement"), Some(Json::Null)));
        // Multi-GPU records carry the system shape.
        assert_eq!(records[1].get("n_gpus").unwrap().as_u64(), Some(4));
        assert_eq!(
            records[1].get("placement").and_then(Json::as_str),
            Some("interleave")
        );
        assert!(json.contains("\"speedup_vs_t1\": 2.500,"));
    }

    #[test]
    fn empty_reports_are_not_written() {
        // A filtered-out run must not clobber BENCH_*.json with `[]`.
        let rep = JsonReport::for_target("nonexistent-target");
        rep.write();
        assert!(!rep.path.exists());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_500)), "1.50 us");
        assert_eq!(fmt_duration(Duration::from_millis(2)), "2.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.000 s");
    }
}
