//! Baseline scaling predictors (Section VII's comparison points).
//!
//! All baselines are fit on the same information the scale-model method
//! uses: the two scale-model observations `(S, IPC_S)` and `(L, IPC_L)`.
//! The paper evaluates four of them:
//!
//! * [`Proportional`] — performance is `S×` higher on an `S×` bigger
//!   system.
//! * [`LinearRegression`] — `y = a·x + b` through the two points.
//! * [`PowerLawRegression`] — `y = a·x^b` through the two points.
//! * [`LogRegression`] — `y = a·log2(x)`, least-squares over the two
//!   points; this is what prior CPU scale-model work proposed and is the
//!   least accurate for GPUs.

use crate::error::ModelError;

/// A performance extrapolation model over system size.
///
/// Implementations are immutable once fit; [`predict`] may be called for
/// any positive size.
///
/// [`predict`]: ScalingPredictor::predict
pub trait ScalingPredictor {
    /// Short name used in reports ("proportional", "power-law", …).
    fn name(&self) -> &'static str;

    /// Predicted IPC at system size `size`.
    fn predict(&self, size: f64) -> f64;
}

fn check_obs(s: u32, ipc_s: f64, l: u32, ipc_l: f64) -> Result<(), ModelError> {
    if s == 0 || l == 0 || s >= l {
        return Err(ModelError::InvalidScaleModels { small: s, large: l });
    }
    for v in [ipc_s, ipc_l] {
        if !(v.is_finite() && v > 0.0) {
            return Err(ModelError::InvalidIpc(v));
        }
    }
    Ok(())
}

/// Proportional scaling: `IPC(T) = IPC_L × T / L` (the paper's "naive
/// approach that assumes performance increases proportionally with system
/// size").
#[derive(Debug, Clone, PartialEq)]
pub struct Proportional {
    large: f64,
    ipc_large: f64,
}

impl Proportional {
    /// Fits on the largest scale model.
    ///
    /// # Errors
    ///
    /// Returns an error if the observations are invalid.
    pub fn fit(s: u32, ipc_s: f64, l: u32, ipc_l: f64) -> Result<Self, ModelError> {
        check_obs(s, ipc_s, l, ipc_l)?;
        Ok(Self {
            large: f64::from(l),
            ipc_large: ipc_l,
        })
    }
}

impl ScalingPredictor for Proportional {
    fn name(&self) -> &'static str {
        "proportional"
    }

    fn predict(&self, size: f64) -> f64 {
        self.ipc_large * size / self.large
    }
}

/// Linear regression `y = a·x + b` through the two scale-model points.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    a: f64,
    b: f64,
}

impl LinearRegression {
    /// Fits the line through both observations.
    ///
    /// # Errors
    ///
    /// Returns an error if the observations are invalid.
    pub fn fit(s: u32, ipc_s: f64, l: u32, ipc_l: f64) -> Result<Self, ModelError> {
        check_obs(s, ipc_s, l, ipc_l)?;
        let (xs, xl) = (f64::from(s), f64::from(l));
        let a = (ipc_l - ipc_s) / (xl - xs);
        let b = ipc_s - a * xs;
        Ok(Self { a, b })
    }
}

impl ScalingPredictor for LinearRegression {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn predict(&self, size: f64) -> f64 {
        self.a * size + self.b
    }
}

/// Power-law regression `y = a·x^b` through the two scale-model points
/// (the most accurate baseline in the paper, still poor on cliffs).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLawRegression {
    a: f64,
    b: f64,
}

impl PowerLawRegression {
    /// Fits the power law through both observations.
    ///
    /// # Errors
    ///
    /// Returns an error if the observations are invalid.
    pub fn fit(s: u32, ipc_s: f64, l: u32, ipc_l: f64) -> Result<Self, ModelError> {
        check_obs(s, ipc_s, l, ipc_l)?;
        let b = (ipc_l / ipc_s).ln() / (f64::from(l) / f64::from(s)).ln();
        let a = ipc_s / f64::from(s).powf(b);
        Ok(Self { a, b })
    }
}

impl ScalingPredictor for PowerLawRegression {
    fn name(&self) -> &'static str {
        "power-law"
    }

    fn predict(&self, size: f64) -> f64 {
        self.a * size.powf(self.b)
    }
}

/// Logarithmic regression `y = a·log2(x)`, least-squares over the two
/// points — the model prior CPU scale-model work found best \[46\], and the
/// paper's worst GPU baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRegression {
    a: f64,
}

impl LogRegression {
    /// Least-squares fit of the single coefficient `a`.
    ///
    /// # Errors
    ///
    /// Returns an error if the observations are invalid or both sizes are
    /// 1 (log2(1) = 0 carries no information).
    pub fn fit(s: u32, ipc_s: f64, l: u32, ipc_l: f64) -> Result<Self, ModelError> {
        check_obs(s, ipc_s, l, ipc_l)?;
        let (xs, xl) = (f64::from(s).log2(), f64::from(l).log2());
        let denom = xs * xs + xl * xl;
        if denom == 0.0 {
            return Err(ModelError::InvalidScaleModels { small: s, large: l });
        }
        Ok(Self {
            a: (ipc_s * xs + ipc_l * xl) / denom,
        })
    }
}

impl ScalingPredictor for LogRegression {
    fn name(&self) -> &'static str {
        "logarithmic"
    }

    fn predict(&self, size: f64) -> f64 {
        self.a * size.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u32 = 8;
    const L: u32 = 16;

    #[test]
    fn proportional_matches_definition() {
        let p = Proportional::fit(S, 100.0, L, 200.0).unwrap();
        assert_eq!(p.predict(128.0), 1600.0);
        assert_eq!(p.name(), "proportional");
    }

    #[test]
    fn linear_passes_through_both_points() {
        let p = LinearRegression::fit(S, 100.0, L, 180.0).unwrap();
        assert!((p.predict(8.0) - 100.0).abs() < 1e-9);
        assert!((p.predict(16.0) - 180.0).abs() < 1e-9);
        // Sub-linear observations extrapolate below proportional.
        assert!(p.predict(128.0) < 1600.0);
        // Slope 10, intercept 20.
        assert!((p.predict(1.0) - p.predict(0.0) - 10.0).abs() < 1e-9);
        assert!((p.predict(0.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn power_law_passes_through_both_points() {
        let p = PowerLawRegression::fit(S, 100.0, L, 180.0).unwrap();
        assert!((p.predict(8.0) - 100.0).abs() < 1e-6);
        assert!((p.predict(16.0) - 180.0).abs() < 1e-6);
        // Exponent log2(1.8): every doubling multiplies IPC by 1.8.
        assert!((p.predict(256.0) / p.predict(128.0) - 1.8).abs() < 1e-9);
    }

    #[test]
    fn power_law_with_exact_doubling_is_proportional() {
        let p = PowerLawRegression::fit(S, 100.0, L, 200.0).unwrap();
        assert!((p.predict(3.0) / p.predict(1.0) - 3.0).abs() < 1e-12);
        assert!((p.predict(128.0) - 1600.0).abs() < 1e-6);
    }

    #[test]
    fn log_regression_grossly_underpredicts_linear_scaling() {
        // The paper's point: log2(x) saturates, so a linearly scaling
        // workload is underpredicted by ~60-70% at 128 SMs.
        let p = LogRegression::fit(S, 100.0, L, 200.0).unwrap();
        let pred = p.predict(128.0);
        assert!(
            pred < 0.5 * 1600.0,
            "log regression should saturate: {pred}"
        );
    }

    #[test]
    fn log_regression_least_squares() {
        // With xs=3, xl=4: a = (3*y1 + 4*y2) / 25.
        let p = LogRegression::fit(S, 100.0, L, 200.0).unwrap();
        // log2(2) = 1, so predicting at 2 reads the coefficient.
        assert!((p.predict(2.0) - (300.0 + 800.0) / 25.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(Proportional::fit(8, 100.0, 8, 200.0).is_err());
        assert!(Proportional::fit(16, 100.0, 8, 200.0).is_err());
        assert!(LinearRegression::fit(8, -1.0, 16, 200.0).is_err());
        assert!(PowerLawRegression::fit(8, 100.0, 16, f64::NAN).is_err());
        assert!(LogRegression::fit(0, 100.0, 16, 200.0).is_err());
    }
}
