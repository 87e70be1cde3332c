//! The names of the benchmark: workloads, end-to-end metrics, per-layer
//! metrics. `../BENCHMARK.json` states the same lists for the driver; a
//! unit test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, errors).
    Lower,
    /// Larger is better (rates, hit ratios).
    Higher,
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name; per-layer names are `<crate>.<name>`.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before `compare` calls it a regression. Only end-to-end metrics
    /// have one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The six workloads and why each exists (one line each; README.md has
/// the inputs and counts).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sim_membound_64sm",
        "64-SM timing sims of dct/fwt/va/as/st + 1 seeded sweep at full memory size (f_mem ~0.5): gsim-mem/gsim-noc and stepping of stalled SMs dominate; the paper's main subject and today's slow case",
    ),
    (
        "sim_compute_scalemodel",
        "8/16-SM sims of gemm/2mm/res50/res34/ht + 1 seeded tiled pattern (f_mem ~0): warp issue and gsim-trace op generation dominate, memory idles; a memory-system gain predicts no change here",
    ),
    (
        "repro_strong",
        "StrongScalingExperiment over all 21 Table II benchmarks on a one-worker gsim-runner pool: the repro surface, every layer in the paper's proportions, the only workload that yields accuracy",
    ),
    (
        "serve_miss_fast",
        "closed loop, 2 keep-alive clients, every /v1/predict body a distinct seeded memory-bound pattern on path auto: the functional fast path (parse, key, collect_sampled, fit, render), no timing sim",
    ),
    (
        "serve_miss_full",
        "same harness, distinct seeded compute-bound patterns pinned to path full: two scale-model timing sims plus replay MRC as runner jobs per request; the expensive miss",
    ),
    (
        "serve_hit",
        "same harness, 64 bodies warmed in set-up then drawn by the seeded RNG: HTTP, gsim-json, canonicalisation, key and LRU lookup are the whole cost; heavier keying or locking shows here as a loss",
    ),
];

/// What a user of the system sees; every untraced run reports all of them.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.15),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Single-layer metrics; every traced run reports all of them, 0 where
/// the workload does not reach the layer.
pub const PER_LAYER: [MetricDef; 74] = [
    layer("gsim-trace.build_s", "s", Lower),
    layer("gsim-trace.stream_drain_s", "s", Lower),
    layer("gsim-trace.warp_ops", "count", Lower),
    layer("gsim-sim.new_s", "s", Lower),
    layer("gsim-sim.engine_s", "s", Lower),
    layer("gsim-sim.runs", "count", Lower),
    layer("gsim-sim.sim_cycles", "count", Lower),
    layer("gsim-sim.thread_instrs", "count", Lower),
    layer("gsim-sim.total_sm_cycles", "count", Lower),
    layer("gsim-sim.ns_per_sm_cycle", "ns", Lower),
    layer("gsim-sim.stalled_sm_cycle_share", "ratio", Lower),
    layer("gsim-sim.minstr_per_s", "1e6/s", Higher),
    layer("gsim-sim.mcycles_per_s", "1e6/s", Higher),
    layer("gsim-sim.functional_s", "s", Lower),
    layer("gsim-sim.t2_wall_ratio", "ratio", Lower),
    layer("gsim-sim.simstats_golden_match", "count", Higher),
    layer("gsim-mem.llc_accesses", "count", Lower),
    layer("gsim-mem.llc_misses", "count", Lower),
    layer("gsim-mem.l1_miss_ratio", "ratio", Lower),
    layer("gsim-mem.dram_bytes", "bytes", Lower),
    layer("gsim-mem.mrc_tree_s", "s", Lower),
    layer("gsim-mem.mrc_shards_s", "s", Lower),
    layer("gsim-mem.mrc_lines", "count", Lower),
    layer("gsim-mem.mrc_tree_ns_per_access", "ns", Lower),
    layer("gsim-core.collect_replay_s", "s", Lower),
    layer("gsim-core.collect_sampled_s", "s", Lower),
    layer("gsim-core.fit_s", "s", Lower),
    layer("gsim-core.forecast_s", "s", Lower),
    layer("gsim-core.experiment_s", "s", Lower),
    layer("gsim-core.scale_model_sim_share", "ratio", Lower),
    layer("gsim-core.predict_share", "ratio", Lower),
    layer("gsim-core.err_mean_pct.logarithmic", "%", Lower),
    layer("gsim-core.err_mean_pct.proportional", "%", Lower),
    layer("gsim-core.err_mean_pct.linear", "%", Lower),
    layer("gsim-core.err_mean_pct.power-law", "%", Lower),
    layer("gsim-core.scale_model_err_mean_pct", "%", Lower),
    layer("gsim-core.scale_model_err_max_pct", "%", Lower),
    layer("gsim-core.classes_correct", "count", Higher),
    layer("gsim-core.fast_vs_full_err_mean_pct", "%", Lower),
    layer("gsim-runner.jobs", "count", Lower),
    layer("gsim-runner.job_busy_s", "s", Lower),
    layer("gsim-runner.queue_wait_s", "s", Lower),
    layer("gsim-runner.utilisation", "ratio", Higher),
    layer("gsim-serve.predict_p50_ms", "ms", Lower),
    layer("gsim-serve.predict_rps", "1/s", Higher),
    layer("gsim-serve.handle_p50_us", "us", Lower),
    layer("gsim-serve.http_overhead_p50_us", "us", Lower),
    layer("gsim-serve.latency_tail_ms", "ms", Lower),
    layer("gsim-serve.tail_percentile", "%", Higher),
    layer("gsim-serve.cache_hits", "count", Higher),
    layer("gsim-serve.cache_misses", "count", Lower),
    layer("gsim-serve.hit_ratio", "ratio", Higher),
    layer("gsim-serve.coalesced", "count", Lower),
    layer("gsim-serve.fast_path", "count", Higher),
    layer("gsim-serve.escalated", "count", Lower),
    layer("gsim-serve.stage_collect_hits", "count", Higher),
    layer("gsim-serve.timing_sims_started", "count", Lower),
    layer("gsim-serve.collects_started", "count", Lower),
    layer("gsim-serve.shed", "count", Lower),
    layer("gsim-serve.stage_collect_p50_us", "us", Lower),
    layer("gsim-serve.stage_fit_p50_us", "us", Lower),
    layer("gsim-serve.stage_predict_p50_us", "us", Lower),
    layer("gsim-serve.body_bytes", "bytes", Lower),
    layer("gsim-json.parse_s", "s", Lower),
    layer("gsim-json.render_s", "s", Lower),
    layer("gsim-json.bytes", "bytes", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.verify_s", "s", Lower),
    layer("bench.spans", "count", Lower),
    layer("bench.passes", "count", Higher),
    layer("bench.wall_s_untraced", "s", Lower),
    layer("bench.wall_s_traced", "s", Lower),
    layer("bench.probe_s", "s", Lower),
    layer("bench.peak_rss_mb", "MB", Lower),
];

/// Per-layer counts that repeat bit for bit between two runs of one
/// commit and seed; `compare` requires them identical, and a speed-only
/// change must leave them so.
pub const EXACT_LAYER_METRICS: [&str; 21] = [
    "gsim-trace.warp_ops",
    "gsim-sim.runs",
    "gsim-sim.sim_cycles",
    "gsim-sim.thread_instrs",
    "gsim-sim.total_sm_cycles",
    "gsim-sim.stalled_sm_cycle_share",
    "gsim-sim.simstats_golden_match",
    "gsim-mem.llc_accesses",
    "gsim-mem.llc_misses",
    "gsim-mem.l1_miss_ratio",
    "gsim-mem.dram_bytes",
    "gsim-mem.mrc_lines",
    "gsim-core.err_mean_pct.logarithmic",
    "gsim-core.err_mean_pct.proportional",
    "gsim-core.err_mean_pct.linear",
    "gsim-core.err_mean_pct.power-law",
    "gsim-core.scale_model_err_mean_pct",
    "gsim-core.scale_model_err_max_pct",
    "gsim-core.classes_correct",
    "gsim-core.fast_vs_full_err_mean_pct",
    "gsim-json.bytes",
];

/// The metric named `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_json::Json;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = lookup("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(PER_LAYER.len() <= 128);
        for name in EXACT_LAYER_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no list {key}"))
    }

    fn text<'a>(item: &'a Json, key: &str) -> &'a str {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {item:?}"))
    }

    #[test]
    fn benchmark_json_agrees_with_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = gsim_json::parse(&raw).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<(&str, &str)> = list(&doc, "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(&doc, key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (item, def) in listed.iter().zip(table) {
                assert_eq!(text(item, "name"), def.name);
                assert_eq!(text(item, "unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(text(item, "better"), better, "{}", def.name);
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }
}
