//! The work-stealing worker pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::events::{Event, EventSink};
use crate::job::{Job, JobReport, JobStatus};

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads. `0` resolves to the machine's available
    /// parallelism.
    pub threads: usize,
    /// Per-job wall-clock timeout. When set, each job attempt runs on a
    /// sacrificial thread so an overrunning job can be abandoned (the
    /// thread is detached — standard library threads cannot be killed).
    /// `None` runs jobs directly on the workers.
    pub timeout: Option<Duration>,
    /// Retry a panicked or timed-out job once before recording it as
    /// failed.
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

/// Per-run overrides of the pool's failure policy, for callers whose
/// budget varies per sweep (a request deadline) while the pool itself is
/// long-lived and shared.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOverrides {
    /// An absolute deadline for the whole run, on top of the pool's
    /// per-job timeout: no attempt waits past it, and a job dequeued after
    /// it is reported [`JobStatus::TimedOut`] without being started. A run
    /// with a deadline never retries, whatever [`RunnerConfig::retry_once`]
    /// says: a retry would double the worst-case wall time, and a job that
    /// timed out against the deadline once will again.
    pub deadline: Option<Instant>,
}

impl RunOverrides {
    /// Overrides with the absolute deadline `at`.
    pub fn deadline(at: Instant) -> Self {
        Self { deadline: Some(at) }
    }
}

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
    /// One deque per worker; a worker pops its own from the front and
    /// steals from peers' backs.
    deques: Vec<Mutex<VecDeque<usize>>>,
    sinks: Vec<Arc<dyn EventSink>>,
    label: String,
    timeout: Option<Duration>,
    deadline: Option<Instant>,
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
    /// Jobs are dealt round-robin onto per-worker deques; idle workers
    /// steal from the back of their peers', so an unlucky deal behind a
    /// slow job cannot serialise the sweep. The calling thread only
    /// aggregates.
    pub fn run<T: Send + 'static>(&self, label: &str, jobs: Vec<Job<T>>) -> Vec<JobReport<T>> {
        self.run_with(label, jobs, RunOverrides::default())
    }

    /// [`run`](Self::run) with this sweep's failure policy adjusted by
    /// `overrides` — the pool, sinks, and scheduling are unchanged.
    pub fn run_with<T: Send + 'static>(
        &self,
        label: &str,
        jobs: Vec<Job<T>>,
        overrides: RunOverrides,
    ) -> Vec<JobReport<T>> {
        let n = jobs.len();
        let threads = self.cfg.resolved_threads().min(n.max(1));
        let start = Instant::now();

        let mut deques: Vec<Mutex<VecDeque<usize>>> = Vec::with_capacity(threads);
        for _ in 0..threads {
            deques.push(Mutex::new(VecDeque::new()));
        }
        for idx in 0..n {
            deques[idx % threads]
                .lock()
                .expect("fresh deque lock")
                .push_back(idx);
        }
        let shared = Arc::new(Shared {
            jobs,
            deques,
            sinks: self.sinks.clone(),
            label: label.to_string(),
            timeout: self.cfg.timeout,
            deadline: overrides.deadline,
            retry_once: self.cfg.retry_once && overrides.deadline.is_none(),
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
                .spawn(move || worker_loop(worker, &shared, &tx))
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

/// Takes the next job index: own deque front first, then steal from the
/// back of each peer. Returns `None` only when every deque is empty —
/// jobs are never re-enqueued, so that means the sweep is drained.
fn next_index<T>(worker: usize, shared: &Shared<T>) -> Option<usize> {
    if let Some(idx) = shared.deques[worker]
        .lock()
        .expect("deque lock")
        .pop_front()
    {
        return Some(idx);
    }
    let n = shared.deques.len();
    for off in 1..n {
        let victim = (worker + off) % n;
        if let Some(idx) = shared.deques[victim].lock().expect("deque lock").pop_back() {
            return Some(idx);
        }
    }
    None
}

fn worker_loop<T: Send + 'static>(
    worker: usize,
    shared: &Arc<Shared<T>>,
    tx: &mpsc::Sender<JobReport<T>>,
) {
    while let Some(idx) = next_index(worker, shared) {
        let report = execute(idx, shared);
        if tx.send(report).is_err() {
            return; // aggregator is gone; nothing useful left to do
        }
    }
}

/// Runs job `idx` under the failure policy: catch panics, enforce the
/// timeout and the deadline, retry once. An attempt that would start at
/// or past the deadline is not started.
fn execute<T: Send + 'static>(idx: usize, shared: &Arc<Shared<T>>) -> JobReport<T> {
    let max_attempts = if shared.retry_once { 2 } else { 1 };
    let mut attempt = 1;
    loop {
        if shared.deadline.is_some_and(|d| Instant::now() >= d) {
            return JobReport {
                index: idx,
                name: shared.jobs[idx].name().to_string(),
                attempts: attempt - 1,
                duration: Duration::ZERO,
                status: JobStatus::TimedOut,
            };
        }
        shared.emit(&Event::JobStarted {
            label: &shared.label,
            index: idx,
            name: shared.jobs[idx].name(),
            attempt,
        });
        let t0 = Instant::now();
        let status = run_attempt(idx, shared);
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

fn run_attempt<T: Send + 'static>(idx: usize, shared: &Arc<Shared<T>>) -> JobStatus<T> {
    let per_job = shared.timeout.map(|t| Instant::now() + t);
    match per_job.into_iter().chain(shared.deadline).min() {
        None => wrap_panic(catch_unwind(AssertUnwindSafe(|| shared.jobs[idx].run()))),
        Some(until) => {
            // A sacrificial thread makes the attempt abandonable: on
            // timeout the zombie keeps running detached (it holds its own
            // Arc on the shared state) while the worker moves on.
            let (tx, rx) = mpsc::channel();
            let shared = Arc::clone(shared);
            let spawned = std::thread::Builder::new()
                .name(format!("gsim-runner-job-{idx}"))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| shared.jobs[idx].run()));
                    let _ = tx.send(result);
                });
            match spawned {
                Err(e) => JobStatus::Panicked(format!("could not spawn job thread: {e}")),
                Ok(_) => match rx.recv_timeout(until.saturating_duration_since(Instant::now())) {
                    Ok(result) => wrap_panic(result),
                    Err(mpsc::RecvTimeoutError::Timeout) => JobStatus::TimedOut,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        JobStatus::Panicked("job thread vanished".to_string())
                    }
                },
            }
        }
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
    fn run_overrides_replace_timeout_and_retry_for_one_run() {
        // Pool configured with no timeout and retries on.
        let runner = quiet();

        // Deadline overrides: a slow job times out and is NOT retried.
        let slow = vec![Job::new("slow", || {
            std::thread::sleep(Duration::from_millis(400));
            1u32
        })];
        let reports = runner.run_with(
            "deadline",
            slow,
            RunOverrides::deadline(Instant::now() + Duration::from_millis(20)),
        );
        assert!(matches!(reports[0].status, JobStatus::TimedOut));
        assert_eq!(reports[0].attempts, 1, "deadline run must not retry");

        // The same runner afterwards still uses its own config: no
        // timeout, retry once.
        let flaky_runs = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let counter = Arc::clone(&flaky_runs);
        let flaky = vec![Job::new("flaky", move || {
            if counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                panic!("first attempt fails");
            }
            7u32
        })];
        let reports = runner.run("after", flaky);
        assert_eq!(reports[0].ok(), Some(&7));
        assert_eq!(reports[0].attempts, 2, "config retry_once still applies");
    }

    #[test]
    fn a_job_dequeued_after_the_deadline_never_starts() {
        // One worker: job 2 queues behind job 1, which returns only once
        // the deadline has passed. The deadline is absolute, so job 2 gets
        // no budget of its own and is never started.
        let runner = Runner::new(RunnerConfig {
            threads: 1,
            ..RunnerConfig::default()
        });
        let deadline = Instant::now() + Duration::from_millis(20);
        let started = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let counter = Arc::clone(&started);
        let jobs = vec![
            Job::new("past-the-deadline", move || {
                while Instant::now() <= deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                1u32
            }),
            Job::new("queued", move || {
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                2u32
            }),
        ];
        let reports = runner.run_with("absolute", jobs, RunOverrides::deadline(deadline));
        assert!(matches!(reports[1].status, JobStatus::TimedOut));
        assert_eq!(reports[1].attempts, 0);
        assert_eq!(started.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn map_applies_shared_function() {
        let items: Vec<(String, u64)> = (0..10u64).map(|i| (format!("i{i}"), i)).collect();
        let reports = quiet().map("map", items, |&i| i * 3);
        let values: Vec<u64> = reports.into_iter().filter_map(JobReport::into_ok).collect();
        assert_eq!(values, (0..10u64).map(|i| i * 3).collect::<Vec<_>>());
    }
}
