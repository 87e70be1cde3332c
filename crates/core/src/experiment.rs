//! End-to-end experiment pipelines reproducing the paper's evaluation.
//!
//! Each pipeline follows the Figure 3 workflow: simulate the scale models
//! with the detailed timing simulator, collect the miss-rate curve with
//! the (much faster) functional collector, build the per-workload
//! predictors, and compare their target-system predictions against
//! ground-truth simulations of the targets:
//!
//! * [`StrongScalingExperiment`] — Figures 1, 2, 4, 5 and Table II.
//! * [`WeakScalingExperiment`] — Figures 6 and 7.
//! * [`McmExperiment`] — Figure 8 (multi-chiplet GPUs, Table V).

use gsim_sim::{ChipletConfig, GpuConfig, Simulator};
use gsim_trace::suite::{ScalingClass, StrongBenchmark};
use gsim_trace::weak::WeakBenchmark;
use gsim_trace::MemScale;

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

/// A measured scale model as a [`Fit`] input.
fn observation(m: &MeasuredPoint) -> Observation {
    Observation {
        size: m.size,
        ipc: m.ipc,
        f_mem: m.f_mem,
    }
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

/// The strong-scaling pipeline (Sections VII.A/VII.B): fixed workload,
/// scale models of 8 and 16 SMs, targets of 32/64/128 SMs.
#[derive(Debug, Clone)]
pub struct StrongScalingExperiment {
    scale: MemScale,
    sizes: Vec<u32>,
    model_sizes: (u32, u32),
}

impl StrongScalingExperiment {
    /// The paper's setup: sizes 8–128, scale models 8 and 16.
    pub fn new(scale: MemScale) -> Self {
        Self {
            scale,
            sizes: vec![8, 16, 32, 64, 128],
            model_sizes: (8, 16),
        }
    }

    /// Uses different scale-model sizes (the artifact appendix evaluates
    /// 16 + 32 predicting 64/128).
    ///
    /// # Panics
    ///
    /// Panics if the sizes are not both in the simulated ladder.
    pub fn with_scale_models(mut self, small: u32, large: u32) -> Self {
        assert!(
            self.sizes.contains(&small) && self.sizes.contains(&large) && small < large,
            "scale models must be simulated sizes with small < large"
        );
        self.model_sizes = (small, large);
        self
    }

    /// The simulated size ladder.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Runs the full pipeline for one benchmark.
    ///
    /// # Errors
    ///
    /// Returns an error if a predictor cannot be built (degenerate
    /// observations).
    pub fn run_benchmark(&self, bench: &StrongBenchmark) -> Result<BenchmarkOutcome, ModelError> {
        let configs: Vec<GpuConfig> = self
            .sizes
            .iter()
            .map(|&s| GpuConfig::paper_target(s, self.scale))
            .collect();
        // Detailed simulation of every size (targets are the ground truth;
        // scale models are the predictor inputs).
        let measured: Vec<MeasuredPoint> = configs
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
        let (s, l) = self.model_sizes;
        let obs = |size: u32| {
            measured
                .iter()
                .find(|m| m.size == size)
                .expect("scale model size is simulated")
        };
        // Stage 2: the shared fit (also the source of cliff detection).
        let fit = Fit::new(observation(obs(s)), observation(obs(l)), Some(&mrc))?;
        let cliff_at = fit.scale_model().cliff_at();
        let targets: Vec<(u32, f64)> = measured
            .iter()
            .filter(|m| m.size > l)
            .map(|m| (m.size, m.ipc))
            .collect();
        let points: Vec<(u32, f64)> = measured.iter().map(|m| (m.size, m.ipc)).collect();
        Ok(BenchmarkOutcome {
            abbr: bench.abbr.to_string(),
            expected: bench.expected,
            measured_class: classify_scaling(&points),
            measured,
            mrc: Some(mrc),
            cliff_at,
            methods: method_outcomes(&fit, &targets)?,
        })
    }

    /// Runs the pipeline for every benchmark in `suite`.
    ///
    /// # Errors
    ///
    /// Propagates the first benchmark failure.
    pub fn run_suite(
        &self,
        suite: &[StrongBenchmark],
    ) -> Result<Vec<BenchmarkOutcome>, ModelError> {
        suite.iter().map(|b| self.run_benchmark(b)).collect()
    }
}

/// Weak-scaling outcome: includes the simulation-time speedups of
/// Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct WeakOutcome {
    /// The per-benchmark predictions and measurements.
    pub outcome: BenchmarkOutcome,
    /// `(target size, speedup)`: time to simulate the target input on the
    /// target system divided by the time to simulate both scale models.
    pub speedups: Vec<(u32, f64)>,
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
    pub fn run_benchmark(&self, bench: &WeakBenchmark) -> Result<WeakOutcome, ModelError> {
        let sizes = gsim_trace::weak::WEAK_SM_SIZES;
        let measured: Vec<MeasuredPoint> = sizes
            .iter()
            .enumerate()
            .map(|(row, &s)| {
                let wl = bench.workload_for_row(row);
                let cfg = GpuConfig::paper_target(s, self.scale);
                measure(&Simulator::new(cfg, &wl).run(), s)
            })
            .collect();
        let l = measured[1].size;
        let fit = Fit::new(observation(&measured[0]), observation(&measured[1]), None)?;
        let targets: Vec<(u32, f64)> = measured
            .iter()
            .filter(|m| m.size > l)
            .map(|m| (m.size, m.ipc))
            .collect();
        let model_cost = measured[0].sim_seconds + measured[1].sim_seconds;
        let speedups = measured
            .iter()
            .filter(|m| m.size > l)
            .map(|m| (m.size, m.sim_seconds / model_cost.max(1e-9)))
            .collect();
        let points: Vec<(u32, f64)> = measured.iter().map(|m| (m.size, m.ipc)).collect();
        Ok(WeakOutcome {
            outcome: BenchmarkOutcome {
                abbr: bench.abbr.to_string(),
                expected: bench.expected,
                measured_class: classify_scaling(&points),
                measured,
                mrc: None,
                cliff_at: None,
                methods: method_outcomes(&fit, &targets)?,
            },
            speedups,
        })
    }
}

/// The multi-chiplet pipeline (Section VII.D): 4- and 8-chiplet scale
/// models predicting the 16-chiplet target, weak-scaling workloads.
#[derive(Debug, Clone)]
pub struct McmExperiment {
    scale: MemScale,
    chiplet_counts: [u32; 3],
}

impl McmExperiment {
    /// The paper's setup: 4 and 8 chiplets predicting 16.
    pub fn new(scale: MemScale) -> Self {
        Self {
            scale,
            chiplet_counts: [4, 8, 16],
        }
    }

    /// Runs the pipeline for one benchmark; returns `None` if the
    /// benchmark is excluded from the MCM study (btree).
    ///
    /// # Errors
    ///
    /// Returns an error if a predictor cannot be built.
    pub fn run_benchmark(&self, bench: &WeakBenchmark) -> Result<Option<WeakOutcome>, ModelError> {
        if bench.mcm_rows().is_none() {
            return Ok(None);
        }
        let measured: Vec<MeasuredPoint> = self
            .chiplet_counts
            .iter()
            .map(|&c| {
                let wl = bench.workload_for_chiplets(c);
                let mcm = ChipletConfig::paper_mcm(c, self.scale);
                measure(&Simulator::new_mcm(&mcm, &wl).run(), c)
            })
            .collect();
        let fit = Fit::new(observation(&measured[0]), observation(&measured[1]), None)?;
        let target = self.chiplet_counts[2];
        let real = measured[2].ipc;
        let model_cost = measured[0].sim_seconds + measured[1].sim_seconds;
        let speedups = vec![(target, measured[2].sim_seconds / model_cost.max(1e-9))];
        let points: Vec<(u32, f64)> = measured.iter().map(|m| (m.size, m.ipc)).collect();
        Ok(Some(WeakOutcome {
            outcome: BenchmarkOutcome {
                abbr: bench.abbr.to_string(),
                expected: bench.expected,
                measured_class: classify_scaling(&points),
                measured,
                mrc: None,
                cliff_at: None,
                methods: method_outcomes(&fit, &[(target, real)])?,
            },
            speedups,
        }))
    }
}

/// Re-derives all predictions of a strong-scaling outcome using different
/// scale-model sizes, without re-simulating anything — the measured points
/// and the miss-rate curve already contain every input. This is how the
/// artifact appendix evaluates 16+32-SM scale models predicting 64/128.
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
    let obs = |size: u32| {
        outcome
            .measured_at(size)
            .ok_or(ModelError::InvalidScaleModels { small, large })
    };
    let fit = Fit::new(
        observation(obs(small)?),
        observation(obs(large)?),
        outcome.mrc.as_ref(),
    )?;
    let targets: Vec<(u32, f64)> = outcome
        .measured
        .iter()
        .filter(|m| m.size > large)
        .map(|m| (m.size, m.ipc))
        .collect();
    Ok(BenchmarkOutcome {
        methods: method_outcomes(&fit, &targets)?,
        ..outcome.clone()
    })
}

/// Average and maximum error of `method` over `outcomes` at `target`.
pub fn aggregate_error(
    outcomes: &[BenchmarkOutcome],
    method: &str,
    target: u32,
) -> Option<(f64, f64)> {
    let errors: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.method(method)?.at(target).map(|p| p.error_pct))
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
        assert_eq!(out.outcome.measured.len(), 5);
        assert_eq!(out.speedups.len(), 3);
        // Bigger targets must yield bigger simulation-time speedups.
        let s: Vec<f64> = out.speedups.iter().map(|&(_, v)| v).collect();
        assert!(s[2] > s[0], "speedup should grow with target size: {s:?}");
        let sm = out.outcome.method("scale-model").unwrap().at(128).unwrap();
        assert!(
            sm.error_pct < 25.0,
            "weak va scale-model error {}",
            sm.error_pct
        );
    }

    #[test]
    fn mcm_pipeline_skips_btree() {
        let exp = McmExperiment::new(fast_scale());
        let btree = weak_benchmark("btree", fast_scale()).unwrap();
        assert!(exp.run_benchmark(&btree).unwrap().is_none());
    }

    #[test]
    fn aggregate_error_summarises() {
        let bench = strong_benchmark("gemm", fast_scale()).unwrap();
        let exp = StrongScalingExperiment::new(fast_scale());
        let outcomes = vec![exp.run_benchmark(&bench).unwrap()];
        let (avg, max) = aggregate_error(&outcomes, "scale-model", 64).unwrap();
        assert!(avg <= max);
        assert!(aggregate_error(&outcomes, "nope", 64).is_none());
    }
}
