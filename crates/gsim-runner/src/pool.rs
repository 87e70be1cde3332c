//! The worker pool: one shared run queue.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::events::{Event, EventSink};
use crate::job::{Job, JobReport, JobStatus};

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads. `0` resolves to the machine's available
    /// parallelism.
    pub threads: usize,
    /// Accepted and ignored: every job runs to its end. The field stays
    /// only because the frozen `benchmark/src/{serve,repro}.rs` assigns
    /// it (like `GpuConfig::sim_threads`); retire it when the benchmark
    /// next changes.
    pub timeout: Option<Duration>,
    /// Retry a panicked job once before recording it as failed.
    pub retry_once: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            timeout: None,
            retry_once: true,
        }
    }
}

impl RunnerConfig {
    /// The actual worker count `threads == 0` resolves to.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Has no fields and changes nothing. The type stays only because the
/// frozen `benchmark/src/serve.rs` passes `RunOverrides::default()` in
/// `gsim_core::plan::collect_sampled`'s ignored pool argument; retire it
/// when the benchmark next changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOverrides;

/// A configured sweep executor. Cheap to build; reusable across sweeps.
pub struct Runner {
    cfg: RunnerConfig,
    sinks: Vec<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("cfg", &self.cfg)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// Everything a worker thread shares with its peers.
struct Shared<T> {
    jobs: Vec<Job<T>>,
    /// The run queue: the index of the next job to hand out. A free
    /// worker takes it; past the last job the sweep is drained.
    next: AtomicUsize,
    sinks: Vec<Arc<dyn EventSink>>,
    label: String,
    retry_once: bool,
}

impl<T> Shared<T> {
    fn emit(&self, event: &Event<'_>) {
        for sink in &self.sinks {
            sink.on_event(event);
        }
    }
}

impl Runner {
    /// Creates a runner with no sinks attached.
    pub fn new(cfg: RunnerConfig) -> Self {
        Self {
            cfg,
            sinks: Vec::new(),
        }
    }

    /// The worker count sweeps will use.
    pub fn threads(&self) -> usize {
        self.cfg.resolved_threads()
    }

    /// Attaches an event sink (builder style).
    #[must_use]
    pub fn with_sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.sinks.push(Arc::new(sink));
        self
    }

    /// Attaches an already-shared event sink.
    pub fn add_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Executes `jobs` and returns one report per job, **sorted by
    /// submission index** regardless of completion order.
    ///
    /// Workers take jobs from one shared queue in submission order, each
    /// free worker the next one, so a slow job holds up only its own
    /// worker. The calling thread only aggregates.
    pub fn run<T: Send + 'static>(&self, label: &str, jobs: Vec<Job<T>>) -> Vec<JobReport<T>> {
        let n = jobs.len();
        let threads = self.cfg.resolved_threads().min(n.max(1));
        let start = Instant::now();

        let shared = Arc::new(Shared {
            jobs,
            next: AtomicUsize::new(0),
            sinks: self.sinks.clone(),
            label: label.to_string(),
            retry_once: self.cfg.retry_once,
        });

        shared.emit(&Event::SweepStarted {
            label,
            jobs: n,
            threads,
        });

        let (tx, rx) = mpsc::channel::<JobReport<T>>();
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("gsim-runner-{worker}"))
                .spawn(move || worker_loop(&shared, &tx))
                .expect("spawn worker thread");
            handles.push(handle);
        }
        drop(tx);

        let mut slots: Vec<Option<JobReport<T>>> = (0..n).map(|_| None).collect();
        while let Ok(report) = rx.recv() {
            let idx = report.index;
            slots[idx] = Some(report);
        }
        for handle in handles {
            let _ = handle.join();
        }

        let reports: Vec<JobReport<T>> = slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.unwrap_or_else(|| JobReport {
                    index: idx,
                    name: shared.jobs[idx].name().to_string(),
                    attempts: 0,
                    duration: Duration::ZERO,
                    status: JobStatus::Panicked("worker thread died".to_string()),
                })
            })
            .collect();

        let failed = reports.iter().filter(|r| r.is_failed()).count();
        shared.emit(&Event::SweepFinished {
            label,
            completed: n - failed,
            failed,
            millis: start.elapsed().as_millis(),
        });
        reports
    }

    /// Convenience: one job per `(name, item)` pair, all applying `f`.
    /// Equivalent to a serial `items.map(f)` with the pool underneath.
    pub fn map<I, T, F>(&self, label: &str, items: Vec<(String, I)>, f: F) -> Vec<JobReport<T>>
    where
        I: Send + Sync + 'static,
        T: Send + 'static,
        F: Fn(&I) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let jobs = items
            .into_iter()
            .map(|(name, item)| {
                let f = Arc::clone(&f);
                Job::new(name, move || f(&item))
            })
            .collect();
        self.run(label, jobs)
    }
}

/// Takes the next job index off the run queue; `None` once every job has
/// been handed out.
fn next_index<T>(shared: &Shared<T>) -> Option<usize> {
    // Relaxed: the cursor publishes no data (the jobs were shared before
    // any worker started), and `fetch_add` alone hands out each index once.
    let idx = shared.next.fetch_add(1, Ordering::Relaxed);
    (idx < shared.jobs.len()).then_some(idx)
}

fn worker_loop<T: Send + 'static>(shared: &Arc<Shared<T>>, tx: &mpsc::Sender<JobReport<T>>) {
    while let Some(idx) = next_index(shared) {
        let report = execute(idx, shared);
        if tx.send(report).is_err() {
            return; // aggregator is gone; nothing useful left to do
        }
    }
}

/// Runs job `idx` under the failure policy: catch panics, retry once.
fn execute<T: Send + 'static>(idx: usize, shared: &Shared<T>) -> JobReport<T> {
    let max_attempts = if shared.retry_once { 2 } else { 1 };
    let mut attempt = 1;
    loop {
        shared.emit(&Event::JobStarted {
            label: &shared.label,
            index: idx,
            name: shared.jobs[idx].name(),
            attempt,
        });
        let t0 = Instant::now();
        let status = wrap_panic(catch_unwind(AssertUnwindSafe(|| shared.jobs[idx].run())));
        let duration = t0.elapsed();
        shared.emit(&Event::JobFinished {
            label: &shared.label,
            index: idx,
            name: shared.jobs[idx].name(),
            attempt,
            outcome: status.label(),
            millis: duration.as_millis(),
        });
        if matches!(status, JobStatus::Done(_)) || attempt >= max_attempts {
            return JobReport {
                index: idx,
                name: shared.jobs[idx].name().to_string(),
                attempts: attempt,
                duration,
                status,
            };
        }
        attempt += 1;
    }
}

fn wrap_panic<T>(result: Result<T, Box<dyn std::any::Any + Send>>) -> JobStatus<T> {
    match result {
        Ok(v) => JobStatus::Done(v),
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            JobStatus::Panicked(msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Runner {
        Runner::new(RunnerConfig {
            threads: 4,
            ..RunnerConfig::default()
        })
    }

    #[test]
    fn empty_sweep_returns_no_reports() {
        let reports: Vec<JobReport<u32>> = quiet().run("empty", Vec::new());
        assert!(reports.is_empty());
    }

    #[test]
    fn reports_come_back_in_submission_order() {
        let jobs: Vec<Job<usize>> = (0..64)
            .map(|i| {
                Job::new(format!("j{i}"), move || {
                    // Earlier jobs sleep longer: completion order is the
                    // reverse of submission order.
                    std::thread::sleep(Duration::from_millis((64 - i) as u64 / 8));
                    i
                })
            })
            .collect();
        let reports = quiet().run("order", jobs);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.ok(), Some(&i));
            assert_eq!(r.attempts, 1);
        }
    }

    #[test]
    fn config_resolves_explicit_threads() {
        let cfg = RunnerConfig {
            threads: 3,
            ..RunnerConfig::default()
        };
        assert_eq!(cfg.resolved_threads(), 3);
        let auto = RunnerConfig::default();
        assert!(auto.resolved_threads() >= 1);
    }

    #[test]
    fn map_applies_shared_function() {
        let items: Vec<(String, u64)> = (0..10u64).map(|i| (format!("i{i}"), i)).collect();
        let reports = quiet().map("map", items, |&i| i * 3);
        let values: Vec<u64> = reports.into_iter().filter_map(JobReport::into_ok).collect();
        assert_eq!(values, (0..10u64).map(|i| i * 3).collect::<Vec<_>>());
    }
}
