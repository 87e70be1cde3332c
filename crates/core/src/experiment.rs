//! The end-to-end pipeline reproducing the paper's evaluation.
//!
//! The Figure 3 workflow is one method, applied by three studies to
//! three size ladders. Each study only simulates its ladder with the
//! detailed timing simulator; one routine then fits the five methods to
//! the two scale models (and the functional miss-rate curve, when the
//! study has one), forecasts every larger rung, classifies the measured
//! curve and compares each prediction with the simulated target. Every
//! study returns the same [`BenchmarkOutcome`]:
//!
//! * [`StrongScalingExperiment`] — 8–128 SMs, one workload, with the
//!   miss-rate curve: Figures 1, 2, 4, 5 and Table II.
//! * [`WeakScalingExperiment`] — 8–128 SMs, the Table IV inputs:
//!   Figure 6, and Figure 7 through [`speedups`].
//! * [`McmExperiment`] — 4, 8 and 16 chiplets: Figure 8 (Table V).
//!
//! [`reanalyze`] runs the same routine on an outcome with other scale
//! models (the artifact appendix), without simulating again.

use gsim_sim::{ChipletConfig, GpuConfig, Simulator};
use gsim_trace::suite::{ScalingClass, StrongBenchmark};
use gsim_trace::weak::WeakBenchmark;
use gsim_trace::{MemScale, SM_LADDER};

use crate::classify::classify_scaling;
use crate::cliff::SizedMrc;
use crate::error::ModelError;
use crate::oneshot::Observation;
use crate::percent_error;
use crate::plan::Fit;

/// One simulated system point.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPoint {
    /// System size (SMs, or chiplets for MCM).
    pub size: u32,
    /// Measured IPC (thread instructions per cycle).
    pub ipc: f64,
    /// Measured LLC MPKI.
    pub mpki: f64,
    /// Memory-stall fraction (Eq. 3's `f_mem`).
    pub f_mem: f64,
    /// Idle (no-CTA) fraction.
    pub f_idle: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Wall-clock seconds the simulation took.
    pub sim_seconds: f64,
}

/// One prediction for one target size by one method.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetPrediction {
    /// Target system size.
    pub target: u32,
    /// Predicted IPC.
    pub predicted: f64,
    /// Ground-truth IPC from simulating the target.
    pub real: f64,
    /// `|predicted − real| / real × 100`.
    pub error_pct: f64,
}

/// All predictions of one method for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodOutcome {
    /// Method name ("scale-model", "proportional", …).
    pub method: &'static str,
    /// One entry per target size.
    pub by_target: Vec<TargetPrediction>,
}

impl MethodOutcome {
    /// The prediction for `target`, if present.
    pub fn at(&self, target: u32) -> Option<&TargetPrediction> {
        self.by_target.iter().find(|p| p.target == target)
    }
}

/// Everything measured and predicted for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkOutcome {
    /// Benchmark abbreviation.
    pub abbr: String,
    /// The paper's expected scaling class.
    pub expected: ScalingClass,
    /// Class measured from the simulated IPC curve.
    pub measured_class: ScalingClass,
    /// Simulated points, smallest size first.
    pub measured: Vec<MeasuredPoint>,
    /// Functional miss-rate curve by system size (empty for weak/MCM).
    pub mrc: Option<SizedMrc>,
    /// First size past the detected cliff, if any.
    pub cliff_at: Option<u32>,
    /// Predictions of all five methods.
    pub methods: Vec<MethodOutcome>,
}

impl BenchmarkOutcome {
    /// The measured point at `size`, if simulated.
    pub fn measured_at(&self, size: u32) -> Option<&MeasuredPoint> {
        self.measured.iter().find(|m| m.size == size)
    }

    /// The outcome of `method`, if present.
    pub fn method(&self, method: &str) -> Option<&MethodOutcome> {
        self.methods.iter().find(|m| m.method == method)
    }
}

/// The names of the five methods, in the paper's Figure 4 order.
pub const METHODS: [&str; 5] = [
    "logarithmic",
    "proportional",
    "linear",
    "power-law",
    "scale-model",
];

fn measure(stats: &gsim_sim::SimStats, size: u32) -> MeasuredPoint {
    MeasuredPoint {
        size,
        ipc: stats.sustained_ipc(),
        mpki: stats.mpki(),
        f_mem: stats.f_mem(),
        f_idle: stats.f_idle(),
        cycles: stats.cycles,
        sim_seconds: stats.sim_wall_seconds,
    }
}

/// Evaluates the Figure 3 method on one benchmark's simulated ladder:
/// fits [`Fit`] to the scale models at `small` and `large` (and the
/// miss-rate curve, if there is one), forecasts every larger rung,
/// classifies the measured curve, and compares each prediction with the
/// simulated IPC. Every study and [`reanalyze`] end here.
fn evaluate(
    abbr: &str,
    expected: ScalingClass,
    measured: Vec<MeasuredPoint>,
    mrc: Option<SizedMrc>,
    (small, large): (u32, u32),
) -> Result<BenchmarkOutcome, ModelError> {
    let obs = |size: u32| {
        let m = measured
            .iter()
            .find(|m| m.size == size)
            .ok_or(ModelError::InvalidScaleModels { small, large })?;
        Ok::<_, ModelError>(Observation {
            size,
            ipc: m.ipc,
            f_mem: m.f_mem,
        })
    };
    let fit = Fit::new(obs(small)?, obs(large)?, mrc.as_ref())?;
    let targets: Vec<(u32, f64)> = measured
        .iter()
        .filter(|m| m.size > large)
        .map(|m| (m.size, m.ipc))
        .collect();
    let points: Vec<(u32, f64)> = measured.iter().map(|m| (m.size, m.ipc)).collect();
    Ok(BenchmarkOutcome {
        abbr: abbr.to_string(),
        expected,
        measured_class: classify_scaling(&points),
        cliff_at: fit.scale_model().cliff_at(),
        methods: method_outcomes(&fit, &targets)?,
        measured,
        mrc,
    })
}

/// Evaluates the five methods of `fit` at each `(target, real IPC)`, in
/// [`METHODS`] order, through [`Fit::forecast`] — the path the service
/// takes too.
fn method_outcomes(fit: &Fit, targets: &[(u32, f64)]) -> Result<Vec<MethodOutcome>, ModelError> {
    let sizes: Vec<u32> = targets.iter().map(|&(t, _)| t).collect();
    let forecast = fit.forecast(&sizes)?;
    Ok(METHODS
        .iter()
        .enumerate()
        .map(|(i, &method)| MethodOutcome {
            method,
            by_target: forecast
                .targets
                .iter()
                .zip(targets)
                .map(|(at, &(target, real))| {
                    let predicted = at.by_method[i].predicted_ipc;
                    TargetPrediction {
                        target,
                        predicted,
                        real,
                        error_pct: percent_error(predicted, real),
                    }
                })
                .collect(),
        })
        .collect())
}

/// Figure 7's simulation-time speedups: for each target rung, the
/// simulated SM-cycles (`cycles × size`; for MCM the 64 SMs per chiplet
/// cancel) of the target over those of both scale models (the first two
/// rungs), as `(target size, speedup)`. Unlike wall-clock seconds, they
/// depend only on the code and the inputs (DESIGN.md §15).
pub fn speedups(outcome: &BenchmarkOutcome) -> Vec<(u32, f64)> {
    speedups_in(outcome, |m| m.cycles as f64 * f64::from(m.size))
}

/// [`speedups`] in another `cost` per simulation, e.g. `sim_seconds`.
pub fn speedups_in(o: &BenchmarkOutcome, cost: impl Fn(&MeasuredPoint) -> f64) -> Vec<(u32, f64)> {
    let [small, large, targets @ ..] = o.measured.as_slice() else {
        return Vec::new();
    };
    let model_cost = (cost(small) + cost(large)).max(1e-9);
    targets
        .iter()
        .map(|m| (m.size, cost(m) / model_cost))
        .collect()
}

/// The strong-scaling pipeline (Sections VII.A/VII.B): fixed workload,
/// scale models of 8 and 16 SMs, targets of 32/64/128 SMs.
#[derive(Debug, Clone)]
pub struct StrongScalingExperiment {
    scale: MemScale,
}

impl StrongScalingExperiment {
    /// The paper's setup: sizes 8–128, scale models 8 and 16.
    pub fn new(scale: MemScale) -> Self {
        Self { scale }
    }

    /// The simulated size ladder.
    pub fn sizes(&self) -> &[u32] {
        &SM_LADDER
    }

    /// Runs the full pipeline for one benchmark.
    ///
    /// # Errors
    ///
    /// Returns an error if a predictor cannot be built (degenerate
    /// observations).
    pub fn run_benchmark(&self, bench: &StrongBenchmark) -> Result<BenchmarkOutcome, ModelError> {
        let configs: Vec<GpuConfig> = SM_LADDER
            .iter()
            .map(|&s| GpuConfig::paper_target(s, self.scale))
            .collect();
        // Detailed simulation of every size (targets are the ground truth;
        // scale models are the predictor inputs).
        let measured = configs
            .iter()
            .map(|cfg| {
                measure(
                    &Simulator::new(cfg.clone(), &bench.workload).run(),
                    cfg.n_sms,
                )
            })
            .collect();
        // Stage 1: functional miss-rate curve over the same capacities,
        // via the shared staged-plan collector.
        let mrc = crate::plan::collect_replay(&bench.workload, &configs).sized_mrc();
        evaluate(bench.abbr, bench.expected, measured, Some(mrc), (8, 16))
    }
}

/// The weak-scaling pipeline (Section VII.C): the workload input grows
/// with the system; no miss-rate curve is needed (no cliff exists).
#[derive(Debug, Clone)]
pub struct WeakScalingExperiment {
    scale: MemScale,
}

impl WeakScalingExperiment {
    /// The paper's setup (8/16-SM scale models, 32/64/128-SM targets).
    pub fn new(scale: MemScale) -> Self {
        Self { scale }
    }

    /// Runs the pipeline for one weak-scalable benchmark.
    ///
    /// # Errors
    ///
    /// Returns an error if a predictor cannot be built.
    pub fn run_benchmark(&self, bench: &WeakBenchmark) -> Result<BenchmarkOutcome, ModelError> {
        let measured = SM_LADDER
            .iter()
            .enumerate()
            .map(|(row, &s)| {
                let wl = bench.workload_for_row(row);
                let cfg = GpuConfig::paper_target(s, self.scale);
                measure(&Simulator::new(cfg, &wl).run(), s)
            })
            .collect();
        evaluate(bench.abbr, bench.expected, measured, None, (8, 16))
    }
}

/// The multi-chiplet pipeline (Section VII.D): 4- and 8-chiplet scale
/// models predicting the 16-chiplet target, weak-scaling workloads.
/// btree sits out, as in the paper: [`McmExperiment::jobs`] leaves it out.
#[derive(Debug, Clone)]
pub struct McmExperiment {
    scale: MemScale,
}

impl McmExperiment {
    /// The paper's setup: 4 and 8 chiplets predicting 16.
    pub fn new(scale: MemScale) -> Self {
        Self { scale }
    }

    /// Runs the pipeline for one benchmark.
    ///
    /// # Errors
    ///
    /// Returns an error if a predictor cannot be built.
    pub fn run_benchmark(&self, bench: &WeakBenchmark) -> Result<BenchmarkOutcome, ModelError> {
        let measured = [4, 8, 16]
            .into_iter()
            .map(|c| {
                let wl = bench.workload_for_chiplets(c);
                let mcm = ChipletConfig::paper_mcm(c, self.scale);
                measure(&Simulator::new_mcm(&mcm, &wl).run(), c)
            })
            .collect();
        evaluate(bench.abbr, bench.expected, measured, None, (4, 8))
    }
}

/// Re-derives all predictions of an outcome using different scale-model
/// sizes, without re-simulating anything — the measured points and the
/// miss-rate curve already contain every input. This is how the artifact
/// appendix evaluates 16+32-SM scale models predicting 64/128.
///
/// # Errors
///
/// Returns an error if `small`/`large` were not simulated or a predictor
/// cannot be built.
pub fn reanalyze(
    outcome: &BenchmarkOutcome,
    small: u32,
    large: u32,
) -> Result<BenchmarkOutcome, ModelError> {
    evaluate(
        &outcome.abbr,
        outcome.expected,
        outcome.measured.clone(),
        outcome.mrc.clone(),
        (small, large),
    )
}

/// Average and maximum error of `method` over `outcomes` at `targets`,
/// summed target by target in the order given.
pub fn aggregate_error(
    outcomes: &[BenchmarkOutcome],
    method: &str,
    targets: &[u32],
) -> Option<(f64, f64)> {
    let errors: Vec<f64> = targets
        .iter()
        .flat_map(|&target| {
            outcomes
                .iter()
                .filter_map(move |o| o.method(method)?.at(target).map(|p| p.error_pct))
        })
        .collect();
    if errors.is_empty() {
        return None;
    }
    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    let max = errors.iter().copied().fold(0.0, f64::max);
    Some((avg, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::suite::strong_benchmark;
    use gsim_trace::weak::weak_benchmark;

    // A coarser miniature keeps the experiment-pipeline tests quick; the
    // full divisor-8 runs live in the integration suite and `gsim repro`.
    fn fast_scale() -> MemScale {
        MemScale::new(32)
    }

    #[test]
    fn strong_pipeline_runs_and_beats_baselines_on_a_cliff() {
        let bench = strong_benchmark("lu", fast_scale()).expect("lu exists");
        let exp = StrongScalingExperiment::new(fast_scale());
        let out = exp.run_benchmark(&bench).expect("pipeline runs");
        assert_eq!(out.measured.len(), 5);
        assert_eq!(out.methods.len(), 5);
        assert_eq!(out.measured_class, ScalingClass::SuperLinear);
        assert!(out.cliff_at.is_some(), "lu must show a cliff");
        let sm = out.method("scale-model").unwrap().at(128).unwrap();
        let prop = out.method("proportional").unwrap().at(128).unwrap();
        let log = out.method("logarithmic").unwrap().at(128).unwrap();
        assert!(
            sm.error_pct < prop.error_pct,
            "scale-model {} vs proportional {}",
            sm.error_pct,
            prop.error_pct
        );
        assert!(sm.error_pct < log.error_pct);
    }

    #[test]
    fn weak_pipeline_reports_speedups() {
        let bench = weak_benchmark("va", fast_scale()).expect("va exists");
        let exp = WeakScalingExperiment::new(fast_scale());
        let out = exp.run_benchmark(&bench).expect("pipeline runs");
        assert_eq!(out.measured.len(), 5);
        let speedups = speedups(&out);
        assert_eq!(speedups.len(), 3);
        // Bigger targets must yield bigger simulation-time speedups.
        let s: Vec<f64> = speedups.iter().map(|&(_, v)| v).collect();
        assert!(s[2] > s[0], "speedup should grow with target size: {s:?}");
        let sm = out.method("scale-model").unwrap().at(128).unwrap();
        assert!(
            sm.error_pct < 25.0,
            "weak va scale-model error {}",
            sm.error_pct
        );
    }

    #[test]
    fn reanalyze_with_the_same_scale_models_reproduces_the_outcome() {
        let bench = strong_benchmark("pf", fast_scale()).unwrap();
        let out = StrongScalingExperiment::new(fast_scale())
            .run_benchmark(&bench)
            .unwrap();
        assert_eq!(reanalyze(&out, 8, 16).unwrap(), out);
        assert!(matches!(
            reanalyze(&out, 8, 24),
            Err(ModelError::InvalidScaleModels {
                small: 8,
                large: 24
            })
        ));
    }

    #[test]
    fn aggregate_error_summarises() {
        let bench = strong_benchmark("gemm", fast_scale()).unwrap();
        let exp = StrongScalingExperiment::new(fast_scale());
        let outcomes = vec![exp.run_benchmark(&bench).unwrap()];
        let (avg, max) = aggregate_error(&outcomes, "scale-model", &[64]).unwrap();
        assert!(avg <= max);
        assert!(aggregate_error(&outcomes, "nope", &[64]).is_none());
    }
}
