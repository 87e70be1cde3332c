//! GPU scale-model simulation: the paper's prediction methodology.
//!
//! This crate implements the core contribution of *GPU Scale-Model
//! Simulation* (HPCA 2024): predicting the performance of a large target
//! GPU from the measured performance of two small, proportionally
//! scaled-down *scale models*, plus the workload's miss-rate curve —
//! without ever simulating the target.
//!
//! * [`ScaleModelPredictor`] — the per-workload model of Section V.C:
//!   the correction factor `C` of Eq. (1), pre-cliff extrapolation
//!   (Eq. 2), the memory-stall boost across a miss-rate-curve cliff
//!   (Eq. 3), and post-cliff extrapolation (Eq. 4).
//! * [`cliff`] — miss-rate-curve region analysis (pre-cliff / cliff /
//!   post-cliff) with the paper's ">2× drop per capacity doubling" rule.
//! * [`predictor`] — the four baselines the paper compares against:
//!   proportional scaling, linear regression, power-law regression and
//!   logarithmic regression, all behind the [`ScalingPredictor`] trait.
//! * [`experiment`] — the end-to-end pipeline driving the `gsim-sim`
//!   timing simulator and functional MRC collector to regenerate the
//!   paper's evaluation: the strong, weak and multi-chiplet studies each
//!   simulate their size ladder and share one fit-and-compare routine and
//!   one outcome type (Figures 4–8); [`parallel`] runs them on a worker
//!   pool.
//! * [`classify`] — measured scaling-class detection (linear /
//!   sub-linear / super-linear), used to reproduce Table II's rightmost
//!   column.
//!
//! # Example
//!
//! ```
//! use gsim_core::{ScaleModelInputs, ScaleModelPredictor, ScalingPredictor};
//!
//! // Scale models: 8 SMs at IPC 120, 16 SMs at IPC 236 (C = 0.983);
//! // the miss-rate curve is flat (pre-cliff everywhere).
//! let inputs = ScaleModelInputs::new(8, 120.0, 16, 236.0)
//!     .with_mrc([(8, 10.0), (16, 10.0), (32, 10.0), (64, 10.0), (128, 10.0)])
//!     .with_f_mem(0.5);
//! let p = ScaleModelPredictor::new(inputs).unwrap();
//! let ipc_128 = p.predict(128.0);
//! assert!((ipc_128 - 236.0 * 8.0 * 0.983f64.powi(7)).abs() / ipc_128 < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod cliff;
pub mod experiment;
pub mod oneshot;
pub mod parallel;
pub mod plan;
pub mod predictor;
pub mod report;
mod scale_model;

mod error;

pub use classify::classify_scaling;
pub use cliff::{detect_cliff, Region, SizedMrc};
pub use error::ModelError;
pub use oneshot::{Forecast, Observation, TargetForecast};
pub use parallel::{SuiteRun, SweepFailure};
pub use plan::{
    collect_replay, collect_sampled, collect_sampled_inline, synthesize_observation,
    CollectFailure, CollectStats, Collected, Fit, PlanWorkload, SampledCollectConfig,
};
pub use predictor::{
    LinearRegression, LogRegression, PowerLawRegression, Proportional, ScalingPredictor,
};
pub use scale_model::{ScaleModelInputs, ScaleModelPredictor};

/// Percent error of a prediction against a measurement:
/// `|pred − real| / real × 100`.
///
/// # Example
///
/// ```
/// assert_eq!(gsim_core::percent_error(110.0, 100.0), 10.0);
/// ```
pub fn percent_error(predicted: f64, real: f64) -> f64 {
    if real == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((predicted - real) / real).abs() * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_error_basics() {
        assert_eq!(percent_error(90.0, 100.0), 10.0);
        assert_eq!(percent_error(0.0, 0.0), 0.0);
        assert!(percent_error(1.0, 0.0).is_infinite());
    }
}
