//! The GPU scale-model predictor (Section V.C, Equations 1–4).

use crate::cliff::{detect_cliff, SizedMrc};
use crate::error::ModelError;
use crate::predictor::ScalingPredictor;

/// Everything the scale-model predictor consumes (the paper's Figure 3
/// workflow): the two scale-model performance observations, the miss-rate
/// curve (strong scaling only), and — if a cliff must be crossed — the
/// memory-stall fraction of the largest scale model.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleModelInputs {
    small_size: u32,
    small_ipc: f64,
    large_size: u32,
    large_ipc: f64,
    mrc: Option<SizedMrc>,
    f_mem_large: Option<f64>,
}

impl ScaleModelInputs {
    /// Observations of the two scale models: sizes (SMs or chiplets) and
    /// measured IPC.
    pub fn new(small_size: u32, small_ipc: f64, large_size: u32, large_ipc: f64) -> Self {
        Self {
            small_size,
            small_ipc,
            large_size,
            large_ipc,
            mrc: None,
            f_mem_large: None,
        }
    }

    /// Attaches the miss-rate curve, indexed by system size (required for
    /// strong scaling; omit under weak scaling, where there is no cliff).
    pub fn with_mrc<I: IntoIterator<Item = (u32, f64)>>(mut self, points: I) -> Self {
        self.mrc = Some(SizedMrc::new(points));
        self
    }

    /// Attaches a pre-built [`SizedMrc`].
    pub fn with_sized_mrc(mut self, mrc: SizedMrc) -> Self {
        self.mrc = Some(mrc);
        self
    }

    /// Attaches the fraction of cycles the largest scale model's SMs
    /// could not issue because all warps waited on memory — `f_mem` of
    /// Eq. (3). Only consulted when a cliff must be crossed.
    pub fn with_f_mem(mut self, f_mem: f64) -> Self {
        self.f_mem_large = Some(f_mem);
        self
    }
}

/// The paper's per-workload scale-model predictor.
///
/// Prediction walks from the largest scale model `L` to the target `T` in
/// capacity doublings:
///
/// * in the **pre-cliff** and **post-cliff** regions (Eqs. 2 and 4) the
///   correction factor `C` of Eq. (1) — measured *per unit of relative
///   scale* between the two scale models — compounds with the relative
///   scale: `IPC(T) = IPC(anchor) × T/A × C^(T/A − 1)` where `A` is the
///   anchor (the largest scale model, or the first post-cliff size for
///   Eq. 4). For one doubling this is exactly `2 × C`, the relation the
///   scale models themselves exhibit; for larger targets the deviation
///   from ideal scaling keeps compounding, which is what lets the model
///   track the steadily *worsening* sub-linear trends (bfs-style
///   workload-architecture imbalance) that a fixed per-doubling ratio —
///   i.e. power-law regression — fundamentally cannot (Section VII.B.2);
/// * the doubling that **crosses the cliff** instead multiplies IPC by
///   `2 × 1/(1 − f_mem)` — the stall time that the newly fitting working
///   set eliminates (Eq. 3) — and re-anchors the correction.
///
/// Without a miss-rate curve (weak scaling) every step is pre-cliff,
/// which is Eq. (2).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleModelPredictor {
    inputs: ScaleModelInputs,
    correction: f64,
    cliff_hi_size: Option<u32>,
}

impl ScaleModelPredictor {
    /// Builds the predictor, computing the correction factor `C` of
    /// Eq. (1) and locating the cliff (if any) on the miss-rate curve.
    ///
    /// # Errors
    ///
    /// Returns an error if the observations are inconsistent, or a cliff
    /// exists beyond the scale models but no `f_mem` was provided.
    pub fn new(inputs: ScaleModelInputs) -> Result<Self, ModelError> {
        let (s, l) = (inputs.small_size, inputs.large_size);
        if s == 0 || l == 0 || s >= l {
            return Err(ModelError::InvalidScaleModels { small: s, large: l });
        }
        for v in [inputs.small_ipc, inputs.large_ipc] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ModelError::InvalidIpc(v));
            }
        }
        // Eq. (1): C = (IPC_L / IPC_S) / (L / S).
        let correction = (inputs.large_ipc / inputs.small_ipc) / (f64::from(l) / f64::from(s));
        let cliff_hi_size = match &inputs.mrc {
            Some(mrc) => detect_cliff(mrc).map(|i| mrc.points()[i + 1].0),
            None => None,
        };
        if let Some(hi) = cliff_hi_size {
            if hi > inputs.large_size && inputs.f_mem_large.is_none() {
                return Err(ModelError::MissingFMem);
            }
        }
        Ok(Self {
            inputs,
            correction,
            cliff_hi_size,
        })
    }

    /// The correction factor `C` of Eq. (1): >1 means the scale models
    /// already scale super-linearly, <1 sub-linearly.
    pub fn correction_factor(&self) -> f64 {
        self.correction
    }

    /// The first system size past the detected cliff, if any.
    pub fn cliff_at(&self) -> Option<u32> {
        self.cliff_hi_size
    }

    /// Predicts IPC at integer size `target`, validating that it is the
    /// largest scale model times a power of two and that the miss-rate
    /// curve covers it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TargetNotDoubling`] or
    /// [`ModelError::MrcDoesNotCover`] accordingly.
    pub fn predict_checked(&self, target: u32) -> Result<f64, ModelError> {
        let l = self.inputs.large_size;
        let mut steps = 0u32;
        let mut size = l;
        while size < target {
            size *= 2;
            steps += 1;
        }
        if size != target {
            return Err(ModelError::TargetNotDoubling { large: l, target });
        }
        if let Some(mrc) = &self.inputs.mrc {
            if steps > 0 {
                mrc.ensure_covers(target)?;
            }
        }
        let mut ipc = self.inputs.large_ipc;
        let mut size = l;
        // Doublings since the current anchor: the j-th doubling after an
        // anchor contributes 2 × C^(2^(j-1)), so k doublings accumulate
        // (T/A) × C^(T/A - 1).
        let mut since_anchor = 0u32;
        for _ in 0..steps {
            let next = size * 2;
            let crosses_cliff = self.cliff_hi_size == Some(next);
            ipc *= if crosses_cliff {
                // Eq. (3): the memory-stall fraction measured on the
                // largest scale model is eliminated past the cliff; the
                // post-cliff region re-anchors here (Eq. 4).
                since_anchor = 0;
                let f_mem = self
                    .inputs
                    .f_mem_large
                    .expect("checked at construction")
                    .clamp(0.0, 0.99);
                2.0 / (1.0 - f_mem)
            } else {
                // Eqs. (2)/(4): steady regions compound the per-unit-scale
                // correction.
                since_anchor += 1;
                2.0 * self.correction.powi(1 << (since_anchor - 1))
            };
            size = next;
        }
        Ok(ipc)
    }
}

impl ScalingPredictor for ScaleModelPredictor {
    fn name(&self) -> &'static str {
        "scale-model"
    }

    /// Predicts IPC at `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not the largest scale model times a power of
    /// two, or the miss-rate curve does not cover it — use
    /// [`ScaleModelPredictor::predict_checked`] for a fallible variant.
    fn predict(&self, size: f64) -> f64 {
        let target = size.round() as u32;
        self.predict_checked(target)
            .unwrap_or_else(|e| panic!("scale-model prediction failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_mrc() -> Vec<(u32, f64)> {
        vec![(8, 10.0), (16, 10.0), (32, 10.0), (64, 9.8), (128, 9.5)]
    }

    #[test]
    fn correction_factor_matches_eq_1() {
        // IPC 100 -> 190 over a 2x scale difference: C = 0.95.
        let p = ScaleModelPredictor::new(
            ScaleModelInputs::new(8, 100.0, 16, 190.0).with_mrc(flat_mrc()),
        )
        .unwrap();
        assert!((p.correction_factor() - 0.95).abs() < 1e-12);
        assert_eq!(p.cliff_at(), None);
    }

    #[test]
    fn pre_cliff_prediction_is_eq_2() {
        let p = ScaleModelPredictor::new(
            ScaleModelInputs::new(8, 100.0, 16, 190.0).with_mrc(flat_mrc()),
        )
        .unwrap();
        // Eq. (2): IPC_T = IPC_L * (T/L) * C^(T/L - 1).
        let expected = 190.0 * 8.0 * 0.95f64.powi(7);
        assert!((p.predict(128.0) - expected).abs() < 1e-9);
        // Identity: predicting the largest scale model returns it.
        assert_eq!(p.predict(16.0), 190.0);
    }

    #[test]
    fn weak_scaling_needs_no_mrc() {
        let p = ScaleModelPredictor::new(ScaleModelInputs::new(8, 100.0, 16, 196.0)).unwrap();
        let expected = 196.0 * 8.0 * 0.98f64.powi(7);
        assert!((p.predict(128.0) - expected).abs() < 1e-9);
    }

    #[test]
    fn cliff_crossing_applies_eq_3() {
        let mrc = vec![(8, 8.0), (16, 8.0), (32, 8.0), (64, 8.0), (128, 0.4)];
        let p = ScaleModelPredictor::new(
            ScaleModelInputs::new(8, 100.0, 16, 190.0)
                .with_mrc(mrc)
                .with_f_mem(0.5),
        )
        .unwrap();
        assert_eq!(p.cliff_at(), Some(128));
        // Two pre-cliff doublings (compounding correction) then the cliff.
        let expected = 190.0 * (2.0 * 0.95) * (2.0 * 0.95f64.powi(2)) * (2.0 / 0.5);
        assert!((p.predict(128.0) - expected).abs() < 1e-9);
        // Pre-cliff targets are unaffected by the later cliff.
        let expected_64 = 190.0 * (2.0 * 0.95) * (2.0 * 0.95f64.powi(2));
        assert!((p.predict(64.0) - expected_64).abs() < 1e-9);
    }

    #[test]
    fn post_cliff_prediction_is_eq_4() {
        // Cliff between 32 and 64; 128 is post-cliff.
        let mrc = vec![(8, 8.0), (16, 8.0), (32, 8.0), (64, 0.4), (128, 0.4)];
        let p = ScaleModelPredictor::new(
            ScaleModelInputs::new(8, 100.0, 16, 190.0)
                .with_mrc(mrc)
                .with_f_mem(0.5),
        )
        .unwrap();
        let ipc_64 = 190.0 * (2.0 * 0.95) * (2.0 / 0.5); // cliff at 64
        let expected_128 = ipc_64 * 2.0 * 0.95; // Eq. (4): re-anchored at K=64
        assert!((p.predict(128.0) - expected_128).abs() < 1e-9);
    }

    #[test]
    fn cliff_beyond_models_requires_f_mem() {
        let mrc = vec![(8, 8.0), (16, 8.0), (32, 8.0), (64, 8.0), (128, 0.4)];
        let err =
            ScaleModelPredictor::new(ScaleModelInputs::new(8, 100.0, 16, 190.0).with_mrc(mrc))
                .unwrap_err();
        assert_eq!(err, ModelError::MissingFMem);
    }

    #[test]
    fn invalid_targets_are_reported() {
        let p = ScaleModelPredictor::new(
            ScaleModelInputs::new(8, 100.0, 16, 190.0).with_mrc(flat_mrc()),
        )
        .unwrap();
        assert!(matches!(
            p.predict_checked(48),
            Err(ModelError::TargetNotDoubling { .. })
        ));
        assert!(matches!(
            p.predict_checked(256),
            Err(ModelError::MrcDoesNotCover { target: 256 })
        ));
    }

    #[test]
    fn super_linear_models_carry_their_momentum() {
        // C > 1: the scale models already scale super-linearly.
        let p = ScaleModelPredictor::new(ScaleModelInputs::new(8, 100.0, 16, 220.0)).unwrap();
        assert!(p.correction_factor() > 1.0);
        assert!(p.predict(32.0) > 440.0);
    }

    #[test]
    fn rejects_bad_observations() {
        assert!(ScaleModelPredictor::new(ScaleModelInputs::new(16, 1.0, 8, 1.0)).is_err());
        assert!(ScaleModelPredictor::new(ScaleModelInputs::new(8, 0.0, 16, 1.0)).is_err());
    }
}
