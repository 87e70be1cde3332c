//! Running experiment suites on a [`gsim_runner`] worker pool.
//!
//! Each benchmark's pipeline (simulate every size, collect the MRC, fit
//! the predictors) is independent of every other benchmark's, so a suite
//! is embarrassingly parallel at benchmark granularity. The helpers here
//! turn a suite into [`Job`]s — one builder behind the three studies'
//! `jobs` methods — and fold the pool's ordered reports back into
//! outcomes in suite order, plus an explicit record of anything that
//! failed instead of a panic tearing down the whole sweep.

use gsim_runner::{Job, JobReport, Runner};
use gsim_trace::suite::StrongBenchmark;
use gsim_trace::weak::WeakBenchmark;

use crate::error::ModelError;
use crate::experiment::{
    BenchmarkOutcome, McmExperiment, StrongScalingExperiment, WeakScalingExperiment,
};

/// One benchmark that did not produce an outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure {
    /// The benchmark's abbreviation (the job name).
    pub abbr: String,
    /// What happened: a model error, a panic message, or a timeout.
    pub reason: String,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.abbr, self.reason)
    }
}

/// The aggregated result of a suite sweep: outcomes in suite order
/// (failed benchmarks simply absent), failures listed separately.
#[derive(Debug, Clone)]
pub struct SuiteRun<T> {
    /// Successful outcomes, in suite (submission) order.
    pub outcomes: Vec<T>,
    /// Benchmarks that errored, panicked, or timed out.
    pub failures: Vec<SweepFailure>,
}

impl<T> SuiteRun<T> {
    /// Whether every benchmark produced an outcome.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A sweep job: one benchmark through its study's pipeline.
pub type OutcomeJob = Job<Result<BenchmarkOutcome, ModelError>>;

/// Folds ordered job reports into a [`SuiteRun`]. Public so callers that
/// run the job vector on their own runner (`gsim repro`) can still
/// aggregate the standard way.
pub fn collect<T>(reports: Vec<JobReport<Result<T, ModelError>>>) -> SuiteRun<T> {
    let mut run = SuiteRun {
        outcomes: Vec::with_capacity(reports.len()),
        failures: Vec::new(),
    };
    for report in reports {
        let failure = report.failure();
        match report.status {
            gsim_runner::JobStatus::Done(Ok(outcome)) => run.outcomes.push(outcome),
            gsim_runner::JobStatus::Done(Err(e)) => run.failures.push(SweepFailure {
                abbr: report.name,
                reason: e.to_string(),
            }),
            _ => run.failures.push(SweepFailure {
                abbr: report.name,
                reason: failure.unwrap_or_else(|| "unknown failure".to_string()),
            }),
        }
    }
    run
}

/// One job per `(abbr, benchmark)`, named by the abbreviation, each
/// running `run` on its own copy of `exp`.
fn jobs<E, B>(
    exp: &E,
    suite: impl Iterator<Item = (&'static str, B)>,
    run: fn(&E, &B) -> Result<BenchmarkOutcome, ModelError>,
) -> Vec<OutcomeJob>
where
    E: Clone + Send + Sync + 'static,
    B: Send + Sync + 'static,
{
    suite
        .map(|(abbr, bench)| {
            let exp = exp.clone();
            Job::new(abbr, move || run(&exp, &bench))
        })
        .collect()
}

impl StrongScalingExperiment {
    /// One job per benchmark, each running the full strong pipeline.
    pub fn jobs(&self, suite: &[StrongBenchmark]) -> Vec<OutcomeJob> {
        jobs(
            self,
            suite.iter().map(|b| (b.abbr, b.clone())),
            Self::run_benchmark,
        )
    }

    /// Runs the whole suite on `runner`. Outcomes come back in suite
    /// order whatever the thread count.
    pub fn run_suite_on(
        &self,
        suite: &[StrongBenchmark],
        label: &str,
        runner: &Runner,
    ) -> SuiteRun<BenchmarkOutcome> {
        collect(runner.run(label, self.jobs(suite)))
    }
}

impl WeakScalingExperiment {
    /// One job per benchmark, each running the full weak pipeline.
    pub fn jobs(&self, suite: &[WeakBenchmark]) -> Vec<OutcomeJob> {
        jobs(
            self,
            suite.iter().map(|b| (b.abbr, b.clone())),
            Self::run_benchmark,
        )
    }
}

impl McmExperiment {
    /// One job per benchmark of the MCM study: benchmarks without MCM
    /// rows (btree) get no job.
    pub fn jobs(&self, suite: &[WeakBenchmark]) -> Vec<OutcomeJob> {
        jobs(
            self,
            suite
                .iter()
                .filter(|b| b.mcm_rows().is_some())
                .map(|b| (b.abbr, b.clone())),
            Self::run_benchmark,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_runner::RunnerConfig;
    use gsim_trace::weak::weak_suite;
    use gsim_trace::MemScale;

    fn runner(threads: usize) -> Runner {
        Runner::new(RunnerConfig {
            threads,
            ..RunnerConfig::default()
        })
    }

    #[test]
    fn mcm_exclusions_are_not_failures() {
        let scale = MemScale::new(32);
        // btree is excluded from the MCM study, so it gets no job: no
        // outcome, but no failure either.
        let suite: Vec<WeakBenchmark> = weak_suite(scale)
            .into_iter()
            .filter(|b| b.abbr == "btree")
            .collect();
        assert_eq!(suite.len(), 1);
        let exp = McmExperiment::new(scale);
        let run = collect(runner(2).run("test-mcm", exp.jobs(&suite)));
        assert!(run.is_complete(), "failures: {:?}", run.failures);
        assert!(run.outcomes.is_empty());
    }

    #[test]
    fn collect_separates_outcomes_errors_and_panics() {
        let jobs: Vec<Job<Result<u32, ModelError>>> = vec![
            Job::new("good", || Ok(1)),
            Job::new("model-error", || {
                Err(ModelError::InvalidScaleModels { small: 8, large: 8 })
            }),
            Job::new("bomb", || panic!("injected")),
        ];
        let run = collect(runner(2).run("collect", jobs));
        assert_eq!(run.outcomes, vec![1]);
        assert_eq!(run.failures.len(), 2);
        assert_eq!(run.failures[0].abbr, "model-error");
        assert_eq!(run.failures[1].abbr, "bomb");
        assert!(run.failures[1].reason.contains("injected"));
        assert!(!run.is_complete());
    }
}
