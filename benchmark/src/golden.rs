//! Golden simulated statistics (`golden/simstats-seed1.json`).
//!
//! A speed-only change must leave every simulated statistic identical.
//! The golden file holds, per simulator run of the seed-1 inputs, a
//! digest of every deterministic `SimStats` field (`sim_wall_seconds`
//! left out), plus the fidelity figures of `repro_strong`. A mismatch is
//! printed loudly and lowers `gsim-sim.simstats_golden_match`, but it is
//! not a failed operation: a deliberate model fix re-blesses the file
//! (`run.sh --bless`) instead of looking like a crash.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gsim_json::{json_string, Json};
use gsim_sim::SimStats;

const SCHEMA: &str = "gsim-benchmark-golden-v1";

/// The seed whose inputs the golden file describes.
pub const GOLDEN_SEED: u64 = 1;

/// Every deterministic field of `stats`, in declaration order.
pub fn simstats_digest(stats: &SimStats) -> String {
    // Exhaustive destructuring: a new SimStats field fails to compile
    // here until the digest (and so the golden file) accounts for it.
    let SimStats {
        cycles,
        warp_instrs,
        thread_instrs,
        llc_accesses,
        llc_misses,
        l1_accesses,
        l1_misses,
        dram_bytes,
        mem_stall_sm_cycles,
        idle_sm_cycles,
        total_sm_cycles,
        ctas_executed,
        kernels_executed,
        sim_wall_seconds: _,
        cycle_at_10pct,
        cycle_at_90pct,
        warp_instrs_window,
        kernel_cycles,
    } = stats;
    let kernels: Vec<String> = kernel_cycles.iter().map(u64::to_string).collect();
    format!(
        "cycles={cycles} warp_instrs={warp_instrs} thread_instrs={thread_instrs} \
         llc_accesses={llc_accesses} llc_misses={llc_misses} l1_accesses={l1_accesses} \
         l1_misses={l1_misses} dram_bytes={dram_bytes} mem_stall_sm_cycles={mem_stall_sm_cycles} \
         idle_sm_cycles={idle_sm_cycles} total_sm_cycles={total_sm_cycles} \
         ctas_executed={ctas_executed} kernels_executed={kernels_executed} \
         cycle_at_10pct={cycle_at_10pct} cycle_at_90pct={cycle_at_90pct} \
         warp_instrs_window={warp_instrs_window} kernel_cycles={}",
        kernels.join(",")
    )
}

/// How a measured digest relates to the golden file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the golden entry.
    Match,
    /// The golden file has another value for this key.
    Mismatch,
    /// The golden file has no entry (another seed's synthetic member).
    Absent,
}

/// The golden file, as a flat `key → digest` map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    entries: BTreeMap<String, String>,
}

/// Where the golden file lives under the benchmark directory.
pub fn golden_path(bench_dir: &Path) -> PathBuf {
    bench_dir.join("golden").join("simstats-seed1.json")
}

impl Golden {
    /// Loads the golden file; an absent file is an empty golden.
    ///
    /// # Errors
    ///
    /// Returns a message if the file exists but cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self, String> {
        let raw = match std::fs::read_to_string(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Self::default()),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let doc = gsim_json::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{}: schema is not {SCHEMA}", path.display()));
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{}: no entries object", path.display()))?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("{}: entry {k} is not a string", path.display()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { entries })
    }

    /// The golden value of `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// The golden value of `key` as a number.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    /// Compares a measured digest with the golden entry of `key`,
    /// printing both on a mismatch.
    pub fn check(&self, key: &str, measured: &str) -> Verdict {
        match self.get(key) {
            None => Verdict::Absent,
            Some(golden) if golden == measured => Verdict::Match,
            Some(golden) => {
                eprintln!(
                    "GOLDEN MISMATCH {key}\n  golden:   {golden}\n  measured: {measured}\n  \
                     (a deliberate model change re-blesses with `benchmark/run.sh --bless`)"
                );
                Verdict::Mismatch
            }
        }
    }

    /// Replaces every entry of `workload` (keys `<workload>/…`) with
    /// `fresh` and writes the file, one entry per line.
    ///
    /// # Errors
    ///
    /// Returns a message if the file cannot be written.
    pub fn bless(
        &mut self,
        path: &Path,
        workload: &str,
        fresh: BTreeMap<String, String>,
    ) -> Result<(), String> {
        let prefix = format!("{workload}/");
        self.entries.retain(|k, _| !k.starts_with(&prefix));
        self.entries.extend(fresh);
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {},", json_string(SCHEMA));
        let _ = writeln!(out, "  \"seed\": {GOLDEN_SEED},");
        let _ = writeln!(out, "  \"entries\": {{");
        let n = self.entries.len();
        for (i, (k, v)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(out, "    {}: {}{comma}", json_string(k), json_string(v));
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_simulated_fields_and_ignores_wall_clock() {
        let a = SimStats {
            cycles: 10,
            kernel_cycles: vec![4, 6],
            sim_wall_seconds: 1.0,
            ..SimStats::default()
        };
        let b = SimStats {
            sim_wall_seconds: 2.0,
            ..a.clone()
        };
        assert_eq!(simstats_digest(&a), simstats_digest(&b));
        assert!(simstats_digest(&a).contains("cycles=10 "));
        assert!(simstats_digest(&a).ends_with("kernel_cycles=4,6"));
        let c = SimStats {
            dram_bytes: 1,
            ..a.clone()
        };
        assert_ne!(simstats_digest(&a), simstats_digest(&c));
    }

    #[test]
    fn bless_replaces_one_workload_and_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("gsim-benchmark-golden-{}", std::process::id()));
        let path = dir.join("g.json");
        let mut g = Golden::default();
        g.bless(
            &path,
            "a",
            BTreeMap::from([("a/x@8".to_string(), "cycles=1".to_string())]),
        )
        .unwrap();
        g.bless(
            &path,
            "b",
            BTreeMap::from([("b/fidelity.err".to_string(), "7.25".to_string())]),
        )
        .unwrap();
        g.bless(
            &path,
            "a",
            BTreeMap::from([("a/y@8".to_string(), "cycles=2".to_string())]),
        )
        .unwrap();
        let loaded = Golden::load(&path).unwrap();
        assert_eq!(loaded, g);
        assert_eq!(loaded.get("a/x@8"), None);
        assert_eq!(loaded.check("a/y@8", "cycles=2"), Verdict::Match);
        assert_eq!(loaded.check("a/y@8", "cycles=3"), Verdict::Mismatch);
        assert_eq!(loaded.check("a/z@8", "cycles=3"), Verdict::Absent);
        assert_eq!(loaded.get_f64("b/fidelity.err"), Some(7.25));
        assert_eq!(
            Golden::load(&dir.join("absent.json")).unwrap(),
            Golden::default()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
