//! One-shot prediction: the input and output types of a prediction made
//! without ground truth.
//!
//! The [`experiment`](crate::experiment) pipelines are built for the
//! paper's evaluation: they simulate the *target* systems too, because
//! the whole point there is comparing predictions against ground truth.
//! A consumer that just wants an answer — "how fast would this workload
//! run on a 128-SM GPU?", the `gsim-serve` HTTP service's entire job —
//! has only the scale-model [`Observation`]s and must not be forced
//! through a pipeline that simulates what it is trying to avoid
//! simulating. It builds a [`Fit`](crate::plan::Fit) from them and asks
//! it for a [`Forecast`]; the experiment pipelines evaluate theirs
//! through the same [`Fit::forecast`](crate::plan::Fit::forecast), so
//! the two cannot drift apart.

/// One simulated scale-model observation, as a prediction input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// System size (SMs, or chiplets for MCM predictions).
    pub size: u32,
    /// Measured sustained IPC.
    pub ipc: f64,
    /// Measured memory-stall fraction (`f_mem` of Eq. 3). Only the larger
    /// scale model's value is consulted, and only across a cliff.
    pub f_mem: f64,
}

/// One method's prediction at one target size.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodPrediction {
    /// Method name ("scale-model", "proportional", …).
    pub method: &'static str,
    /// Predicted IPC at the target.
    pub predicted_ipc: f64,
}

/// All methods' predictions at one target size.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetForecast {
    /// Target system size.
    pub target: u32,
    /// One entry per method, in [`METHODS`](crate::experiment::METHODS)
    /// order.
    pub by_method: Vec<MethodPrediction>,
}

impl TargetForecast {
    /// The prediction of `method`, if present.
    pub fn method(&self, method: &str) -> Option<f64> {
        self.by_method
            .iter()
            .find(|p| p.method == method)
            .map(|p| p.predicted_ipc)
    }
}

/// The complete output of a one-shot prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// The correction factor `C` of Eq. (1) measured between the scale
    /// models.
    pub correction_factor: f64,
    /// First size past the detected miss-rate-curve cliff, if any.
    pub cliff_at: Option<u32>,
    /// One forecast per requested target, in request order.
    pub targets: Vec<TargetForecast>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cliff::SizedMrc;
    use crate::error::ModelError;
    use crate::plan::Fit;

    fn obs(size: u32, ipc: f64, f_mem: f64) -> Observation {
        Observation { size, ipc, f_mem }
    }

    fn forecast(
        small: Observation,
        large: Observation,
        mrc: Option<&SizedMrc>,
        targets: &[u32],
    ) -> Result<Forecast, ModelError> {
        Fit::new(small, large, mrc)?.forecast(targets)
    }

    #[test]
    fn forecast_matches_direct_predictors() {
        let mrc = SizedMrc::new([(8, 10.0), (16, 10.0), (32, 10.0), (64, 9.8), (128, 9.5)]);
        let f = forecast(
            obs(8, 100.0, 0.3),
            obs(16, 190.0, 0.4),
            Some(&mrc),
            &[32, 64, 128],
        )
        .unwrap();
        assert_eq!(f.targets.len(), 3);
        assert!((f.correction_factor - 0.95).abs() < 1e-12);
        assert_eq!(f.cliff_at, None);
        let at128 = &f.targets[2];
        assert_eq!(at128.target, 128);
        // Five methods, scale-model equal to the checked standalone path.
        assert_eq!(at128.by_method.len(), 5);
        let expected_sm = 190.0 * 8.0 * 0.95f64.powi(7);
        assert!((at128.method("scale-model").unwrap() - expected_sm).abs() < 1e-9);
        let expected_prop = 190.0 * 128.0 / 16.0;
        assert!((at128.method("proportional").unwrap() - expected_prop).abs() < 1e-9);
    }

    #[test]
    fn weak_scaling_needs_no_mrc() {
        let f = forecast(obs(8, 100.0, 0.2), obs(16, 196.0, 0.2), None, &[128]).unwrap();
        let expected = 196.0 * 8.0 * 0.98f64.powi(7);
        assert!((f.targets[0].method("scale-model").unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn cliff_crossing_uses_f_mem() {
        let mrc = SizedMrc::new([(8, 8.0), (16, 8.0), (32, 8.0), (64, 8.0), (128, 0.4)]);
        let f = forecast(obs(8, 100.0, 0.3), obs(16, 190.0, 0.5), Some(&mrc), &[128]).unwrap();
        assert_eq!(f.cliff_at, Some(128));
        let expected = 190.0 * (2.0 * 0.95) * (2.0 * 0.95f64.powi(2)) * (2.0 / 0.5);
        assert!((f.targets[0].method("scale-model").unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn bad_targets_are_errors_not_panics() {
        let err = forecast(obs(8, 100.0, 0.2), obs(16, 190.0, 0.2), None, &[48]);
        assert!(matches!(err, Err(ModelError::TargetNotDoubling { .. })));
        let mrc = SizedMrc::new([(8, 8.0), (16, 8.0)]);
        let err = forecast(obs(8, 100.0, 0.2), obs(16, 190.0, 0.2), Some(&mrc), &[64]);
        assert!(matches!(err, Err(ModelError::MrcDoesNotCover { .. })));
    }

    #[test]
    fn degenerate_observations_are_rejected() {
        assert!(forecast(obs(16, 100.0, 0.2), obs(8, 190.0, 0.2), None, &[32]).is_err());
        assert!(forecast(obs(8, 0.0, 0.2), obs(16, 190.0, 0.2), None, &[32]).is_err());
    }
}
