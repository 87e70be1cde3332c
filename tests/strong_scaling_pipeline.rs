//! End-to-end strong-scaling pipeline tests: one representative benchmark
//! per scaling class runs through simulation, miss-rate-curve collection
//! and all five predictors, and the scale-model method must beat the
//! baselines where the paper says it does.
//!
//! A coarser 1/32 memory miniature keeps these tests fast; the full 1/8
//! runs live in `gsim repro`.

use gpu_scale_model::core::experiment::StrongScalingExperiment;
use gpu_scale_model::trace::suite::{strong_benchmark, ScalingClass};
use gpu_scale_model::trace::MemScale;

fn scale() -> MemScale {
    MemScale::new(32)
}

#[test]
fn super_linear_benchmark_shows_cliff_and_scale_model_wins() {
    let bench = strong_benchmark("lu", scale()).expect("lu exists");
    let out = StrongScalingExperiment::new(scale())
        .run_benchmark(&bench)
        .expect("pipeline runs");

    assert_eq!(out.measured_class, ScalingClass::SuperLinear);
    assert!(out.cliff_at.is_some(), "lu must exhibit a miss-rate cliff");

    let err = |m: &str| out.method(m).unwrap().at(128).unwrap().error_pct;
    let sm = err("scale-model");
    assert!(sm < 35.0, "scale-model error {sm} out of band");
    for baseline in ["proportional", "linear", "power-law", "logarithmic"] {
        assert!(
            sm < err(baseline),
            "scale-model ({sm:.1}%) must beat {baseline} ({:.1}%) on a cliff",
            err(baseline)
        );
    }
}

#[test]
fn dct_cliff_is_detected_and_classified() {
    // dct's cliff position is calibrated for the default 1/8 miniature;
    // at this coarser test scale we only require the qualitative signals.
    let bench = strong_benchmark("dct", scale()).expect("dct exists");
    let out = StrongScalingExperiment::new(scale())
        .run_benchmark(&bench)
        .expect("pipeline runs");
    assert_eq!(out.measured_class, ScalingClass::SuperLinear);
    assert!(out.cliff_at.is_some(), "dct must exhibit a miss-rate cliff");
    let err = |m: &str| out.method(m).unwrap().at(128).unwrap().error_pct;
    assert!(err("scale-model") < err("logarithmic"));
}

#[test]
fn sub_linear_benchmark_is_tracked_only_by_the_scale_model() {
    let bench = strong_benchmark("bfs", scale()).expect("bfs exists");
    let out = StrongScalingExperiment::new(scale())
        .run_benchmark(&bench)
        .expect("pipeline runs");

    assert_eq!(out.measured_class, ScalingClass::SubLinear);
    assert_eq!(out.cliff_at, None, "bfs has a gradual curve, no cliff");
    // Idle (imbalance) fraction must grow with system size.
    let idle_small = out.measured_at(8).unwrap().f_idle;
    let idle_big = out.measured_at(128).unwrap().f_idle;
    assert!(
        idle_big > idle_small + 0.1,
        "imbalance must grow: {idle_small} -> {idle_big}"
    );

    let err = |m: &str| out.method(m).unwrap().at(128).unwrap().error_pct;
    assert!(err("scale-model") < 35.0);
    assert!(
        err("proportional") > 2.0 * err("scale-model"),
        "proportional must be far too optimistic on bfs"
    );
    assert!(err("power-law") > err("scale-model"));
}

#[test]
fn linear_benchmark_is_predicted_well_by_everything_but_log() {
    let bench = strong_benchmark("pf", scale()).expect("pf exists");
    let out = StrongScalingExperiment::new(scale())
        .run_benchmark(&bench)
        .expect("pipeline runs");

    assert_eq!(out.measured_class, ScalingClass::Linear);
    let err = |m: &str| out.method(m).unwrap().at(128).unwrap().error_pct;
    for m in ["scale-model", "proportional", "linear", "power-law"] {
        assert!(
            err(m) < 12.0,
            "{m} should be accurate on pf, got {}",
            err(m)
        );
    }
    assert!(
        err("logarithmic") > 50.0,
        "log regression must saturate badly on linear scaling"
    );
}

#[test]
fn mrc_is_monotone_and_covers_all_sizes() {
    let bench = strong_benchmark("bfs", scale()).expect("bfs exists");
    let out = StrongScalingExperiment::new(scale())
        .run_benchmark(&bench)
        .expect("pipeline runs");
    let mrc = out.mrc.as_ref().expect("strong runs carry an MRC");
    assert_eq!(mrc.points().len(), 5);
    for w in mrc.points().windows(2) {
        assert!(
            w[1].1 <= w[0].1 * 1.05,
            "MPKI must not grow with capacity: {:?}",
            mrc.points()
        );
    }
}

#[test]
fn alternative_scale_models_still_rank_methods_correctly() {
    // The artifact-appendix variant: 16+32-SM models predicting 128.
    let bench = strong_benchmark("lu", scale()).expect("lu exists");
    let exp = StrongScalingExperiment::new(scale()).with_scale_models(16, 32);
    let out = exp.run_benchmark(&bench).expect("pipeline runs");
    let err = |m: &str| out.method(m).unwrap().at(128).unwrap().error_pct;
    assert!(
        err("scale-model") < err("logarithmic"),
        "scale-model must beat log regression with 16/32 models too"
    );
    // 64 is now a target as well.
    assert!(out.method("scale-model").unwrap().at(64).is_some());
}
