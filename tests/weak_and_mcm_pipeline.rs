//! End-to-end weak-scaling and multi-chiplet pipeline tests.

use gpu_scale_model::core::experiment::{speedups, McmExperiment, WeakScalingExperiment};
use gpu_scale_model::trace::weak::{weak_benchmark, weak_suite};
use gpu_scale_model::trace::MemScale;

fn scale() -> MemScale {
    MemScale::new(32)
}

#[test]
fn weak_linear_benchmark_predicts_tightly_without_an_mrc() {
    let bench = weak_benchmark("va", scale()).expect("va exists");
    let out = WeakScalingExperiment::new(scale())
        .run_benchmark(&bench)
        .expect("pipeline runs");
    assert!(out.mrc.is_none(), "weak scaling needs no MRC");
    let sm = out.method("scale-model").unwrap().at(128).unwrap();
    assert!(
        sm.error_pct < 12.0,
        "weak va scale-model error {}",
        sm.error_pct
    );
}

#[test]
fn weak_sub_linear_benchmark_beats_proportional() {
    let bench = weak_benchmark("bfs", scale()).expect("bfs exists");
    let out = WeakScalingExperiment::new(scale())
        .run_benchmark(&bench)
        .expect("pipeline runs");
    let err = |m: &str| out.method(m).unwrap().at(128).unwrap().error_pct;
    assert!(
        err("scale-model") < err("proportional"),
        "scale-model {:.1}% vs proportional {:.1}%",
        err("scale-model"),
        err("proportional")
    );
}

#[test]
fn weak_scaling_speedup_grows_with_target_size() {
    let bench = weak_benchmark("bp", scale()).expect("bp exists");
    let run = || {
        WeakScalingExperiment::new(scale())
            .run_benchmark(&bench)
            .expect("pipeline runs")
    };
    let out = run();
    // Simulated SM-cycles, not wall-clock: a second run agrees exactly.
    assert_eq!(speedups(&out), speedups(&run()));
    let s: Vec<f64> = speedups(&out).iter().map(|&(_, v)| v).collect();
    assert_eq!(s.len(), 3);
    assert!(
        s[0] < s[1] && s[1] < s[2],
        "speedup must grow with target size: {s:?}"
    );
    assert!(s[2] > 2.0, "128-SM speedup should be substantial: {s:?}");
}

#[test]
fn mcm_pipeline_predicts_16_chiplets_from_4_and_8() {
    let bench = weak_benchmark("va", scale()).expect("va exists");
    let out = McmExperiment::new(scale())
        .run_benchmark(&bench)
        .expect("pipeline runs");
    assert_eq!(out.measured.len(), 3);
    assert_eq!(
        out.measured.iter().map(|m| m.size).collect::<Vec<_>>(),
        vec![4, 8, 16]
    );
    let sm = out.method("scale-model").unwrap().at(16).unwrap();
    assert!(
        sm.error_pct < 15.0,
        "MCM scale-model error {} out of band",
        sm.error_pct
    );
    // Bigger chiplet counts must be faster in absolute terms.
    let ipc: Vec<f64> = out.measured.iter().map(|m| m.ipc).collect();
    assert!(ipc[0] < ipc[1] && ipc[1] < ipc[2], "IPC must grow: {ipc:?}");
}

#[test]
fn mcm_study_covers_exactly_the_papers_five_benchmarks() {
    let jobs = McmExperiment::new(scale()).jobs(&weak_suite(scale()));
    let names: Vec<&str> = jobs.iter().map(|j| j.name()).collect();
    assert_eq!(names, vec!["bfs", "bs", "as", "bp", "va"]);
}
