//! One-shot prediction: the input and output types of a prediction made
//! without ground truth, plus the streamed-trace miss-rate curve.
//!
//! The [`experiment`](crate::experiment) pipelines are built for the
//! paper's evaluation: they simulate the *target* systems too, because
//! the whole point there is comparing predictions against ground truth.
//! A consumer that just wants an answer — "how fast would this workload
//! run on a 128-SM GPU?", the `gsim-serve` HTTP service's entire job —
//! has only the scale-model [`Observation`]s and must not be forced
//! through a pipeline that simulates what it is trying to avoid
//! simulating. It builds a [`Fit`](crate::plan::Fit) from them and asks
//! it for a [`Forecast`]; the experiment pipelines build their
//! predictors through the same `Fit`, so the two cannot drift apart.

use std::io::Read;

use gsim_mem::mrc::{DistanceEngine, TreeStack};
use gsim_sim::GpuConfig;
use gsim_trace::{Op, TraceLimits, TraceReadError, TraceReader};

use crate::cliff::SizedMrc;
use crate::predictor::ScalingPredictor;

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

/// A named, boxed predictor, as the experiment pipelines carry them
/// (see [`Fit::predictors`](crate::plan::Fit::predictors)).
pub type NamedPredictor = (&'static str, Box<dyn ScalingPredictor>);

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

/// The output of [`mrc_from_trace`]: a per-size miss-rate curve plus the
/// streaming totals it was derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMrc {
    /// MPKI at each configuration's LLC capacity, keyed by SM count.
    pub mrc: SizedMrc,
    /// Warp instructions in the trace.
    pub total_warp_instrs: u64,
    /// Line-level memory accesses recorded into the engine.
    pub line_accesses: u64,
    /// Content identity of the trace (see
    /// [`gsim_trace::semantic_hash_of`]).
    pub semantic_hash: u64,
    /// Peak decoder buffer occupancy — bounded by the trace chunk size.
    pub peak_buffer_bytes: usize,
}

/// Collects a miss-rate curve **directly from a streamed trace** via the
/// single-pass stack-distance engine — no timing simulation, no
/// materialised workload, memory bounded by the trace chunk size.
///
/// This is the millisecond fast path for memory-bound workloads
/// (ROADMAP's staged hot path): one pass over the file yields the MPKI at
/// *every* candidate LLC capacity at once, because the stack-distance
/// histogram is capacity-oblivious. Predictors that need timing fits (the
/// IPC observations of Eq. 1) still escalate to the 8/16-SM scale-model
/// simulations — but capacity screening, cliff detection, and
/// `gsim trace info --mrc` need only this.
///
/// Compared to the functional replay
/// ([`gsim_sim::collect_mrc`]), the stream is consumed in file order
/// (warp-major) without L1 filtering or the round-robin resident-warp
/// interleave, so the curve is an approximation of the replayed one —
/// cliff positions agree, absolute MPKI can differ. Byte-exact prediction
/// paths use the functional replay; this path is for screening and
/// interactive inspection.
///
/// # Errors
///
/// Returns any [`TraceReadError`] from the streaming decoder.
///
/// # Panics
///
/// Panics if `configs` is empty.
pub fn mrc_from_trace<R: Read>(
    input: R,
    limits: TraceLimits,
    configs: &[GpuConfig],
) -> Result<TraceMrc, TraceReadError> {
    assert!(!configs.is_empty(), "need at least one configuration");
    let mut reader = TraceReader::with_limits(input, limits)?;
    let mut engine = TreeStack::new();
    let mut line_accesses = 0u64;
    while let Some(warp) = reader.next_warp()? {
        for op in &warp.ops {
            let Some(access) = op.mem() else { continue };
            // Stores are write-through no-write-allocate: they consume
            // bandwidth but do not create reuse, matching the functional
            // replay's LLC write handling as closely as a single pass can.
            if matches!(op, Op::Store(_)) {
                continue;
            }
            for line in access.lines() {
                engine.record(line);
                line_accesses += 1;
            }
        }
    }
    let stats = *reader.stats().expect("fully streamed");
    let hist = engine.finish();
    let kinsns = (stats.total_warp_instrs * u64::from(gsim_trace::THREADS_PER_WARP)) as f64 / 1e3;
    let points = configs.iter().map(|cfg| {
        let capacity_lines = cfg.llc_bytes_total / u64::from(cfg.line_bytes);
        let mpki = if kinsns > 0.0 {
            hist.misses_at(capacity_lines) / kinsns
        } else {
            0.0
        };
        (cfg.n_sms, mpki)
    });
    Ok(TraceMrc {
        mrc: SizedMrc::new(points),
        total_warp_instrs: stats.total_warp_instrs,
        line_accesses,
        semantic_hash: stats.semantic_hash,
        peak_buffer_bytes: stats.peak_buffer_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelError;
    use crate::plan::Fit;
    use gsim_trace::{write_trace, Kernel, MemScale, PatternKind, PatternSpec, Workload};

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

    #[test]
    fn trace_mrc_streams_without_timing_simulation() {
        // A re-swept working set that fits the larger LLCs: the streamed
        // stack-distance curve must fall with capacity and show the cliff.
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 6_000).compute_per_mem(1.0);
        let kernel = Kernel::new("k", 64, 256, spec);
        let wl = Workload::new("cliff", 2, vec![kernel; 4]);
        let mut bytes = Vec::new();
        write_trace(&wl, &mut bytes).expect("write");
        let configs: Vec<GpuConfig> = [8u32, 16, 32, 64]
            .iter()
            .map(|&s| GpuConfig::paper_target(s, MemScale::default()))
            .collect();
        let out =
            mrc_from_trace(&bytes[..], TraceLimits::default(), &configs).expect("streamed mrc");
        assert_eq!(out.total_warp_instrs, wl.approx_warp_instrs());
        assert_eq!(out.semantic_hash, gsim_trace::semantic_hash_of(&wl));
        assert!(out.line_accesses > 0);
        let pts = out.mrc.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].0, 8);
        // 6000 lines thrash the 8-SM LLC but fit the 32-SM one.
        assert!(
            pts[0].1 > 2.0 * pts[2].1.max(0.01),
            "expected a capacity cliff, got {pts:?}"
        );
        // Memory stays bounded by the chunk size, not the trace size.
        assert!(
            out.peak_buffer_bytes < 4 * 1024 * 1024,
            "peak buffer {} too large",
            out.peak_buffer_bytes
        );
    }
}
