//! What one run of one workload produces, and how it is printed.

use std::collections::BTreeMap;

use gsim_json::{obj, Json};

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};

/// The outcome of one run (one workload, one seed, traced or not).
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted: simulator runs, experiment jobs, requests.
    pub attempted: u64,
    /// Operations that failed (README.md lists the failure rules).
    pub failed: u64,
    /// Checks beyond single operations that did not hold (a hit ratio
    /// that is not 1.0 or 0.0, a fidelity figure worse than its golden).
    pub violations: Vec<String>,
    /// Measured values by metric name. An untraced run fills the
    /// end-to-end names, a traced run the per-layer names it reaches.
    pub values: BTreeMap<&'static str, f64>,
    /// Lines for the human reader (golden mismatches, sample counts).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::lookup(name).is_some(),
            "metric {name} is not in the tables"
        );
        self.values.insert(name, value);
    }

    /// Records one failed operation with the reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        eprintln!("FAILED OPERATION: {why}");
        self.notes.push(format!("failed operation: {why}"));
    }

    /// Records a violated run-level check.
    pub fn violate(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("CHECK VIOLATED: {why}");
        self.violations.push(why);
    }

    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn metrics_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let value = self.values.get(d.name).copied().unwrap_or(0.0);
                    (
                        d.name.to_string(),
                        obj([("value", Json::from(value)), ("unit", Json::from(d.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The object the driver reads from the last line of standard output.
    pub fn to_json(&self, traced: bool) -> Json {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics_json(defs)),
        ])
    }

    /// Every metric of this run by name, with its unit, one per line.
    pub fn print_table(&self, workload: &str, traced: bool) {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        println!(
            "# {workload}: {} run, {} operations attempted, {} failed",
            if traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for d in defs {
            let value = self.values.get(d.name).copied().unwrap_or(0.0);
            println!("{:<40} {:>18} {}", d.name, format_value(value), d.unit);
        }
        for note in &self.notes {
            println!("# {note}");
        }
    }
}

/// Six significant digits for reading; the JSON line keeps every digit.
pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runner threads, HTTP workers and client connections are each this
/// many: two where the host has them.
pub fn pool_threads() -> usize {
    nproc().min(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut r = RunResult {
            attempted: 12,
            ..RunResult::default()
        };
        r.set("wall_s", 1.25);
        for traced in [false, true] {
            let doc = r.to_json(traced);
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let n = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(doc.get("metrics").unwrap().as_obj().unwrap().len(), n);
        }
        let line = r.to_json(false).render();
        assert!(
            line.contains(r#""wall_s":{"value":1.25,"unit":"s"}"#),
            "{line}"
        );
        assert!(!line.contains('\n'));
        assert!(r.correct());
        r.violate("hit ratio");
        assert!(!r.correct());
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(21.0), "21");
        assert_eq!(format_value(1.234_567_89), "1.23457");
        assert_eq!(format_value(0.001_234_567), "0.00123457");
        assert_eq!(format_value(123_456.789), "123457");
    }

    #[test]
    fn rss_and_nproc_are_positive_on_linux() {
        assert!(nproc() >= 1);
        assert!((1..=2).contains(&pool_threads()));
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
