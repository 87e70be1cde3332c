//! Parallel sweep execution for the scale-model experiment pipelines.
//!
//! Every figure and table of the paper is a *sweep*: many independent
//! simulation/prediction units of work (21 benchmarks × five system sizes
//! × miss-rate-curve probes). This crate runs such sweeps on a
//! work-stealing `std::thread` pool while preserving the one property the
//! repro pipeline depends on: **parallel output is indistinguishable from
//! serial output**. It has no dependencies outside `std`.
//!
//! # The model
//!
//! * [`Job`] — one named, re-invocable unit of work (a closure returning
//!   the unit's result). Re-invocability is what allows the retry-once
//!   failure policy.
//! * [`Runner`] — a configured pool ([`RunnerConfig`]: thread count,
//!   per-job wall-clock timeout, retry policy). [`Runner::run`] executes a
//!   batch of jobs and returns one [`JobReport`] per job **ordered by job
//!   index**, independent of completion order.
//! * [`EventSink`] — observability: the runner streams
//!   started/finished/sweep events to any number of sinks.
//!   [`ProgressReporter`] renders them on stderr; [`JsonlSink`] appends
//!   one JSON object per event to a writer (the structured metrics file).
//! * [`handle`] — [`Promise`]/[`JobHandle`] pairs: one producer, many
//!   blocked waiters sharing the published result. The building block
//!   services (gsim-serve's single-flight request deduplication) layer on
//!   top of the pool.
//!
//! # Failure policy
//!
//! A job that panics is caught (`catch_unwind`); a job that exceeds the
//! configured timeout is abandoned on a sacrificial thread. Either way the
//! job is retried once (if [`RunnerConfig::retry_once`] is set, the
//! default) and, failing again, recorded as [`JobStatus::Panicked`] or
//! [`JobStatus::TimedOut`] in its report — the sweep itself always runs
//! to completion; one pathological configuration cannot kill a night of
//! results. A run may also carry an absolute deadline
//! ([`RunOverrides::deadline`]): no attempt waits past it, a job still
//! queued when it passes is reported timed out without starting, and no
//! job of that run is retried.
//!
//! # Determinism
//!
//! Reports come back sorted by submission index and carry the job's value
//! verbatim, so any aggregation that is deterministic over a serial loop
//! is byte-identical over the pool (wall-clock fields excepted, which
//! differ even between two serial runs).
//!
//! ```
//! use gsim_runner::{Job, Runner, RunnerConfig};
//!
//! let runner = Runner::new(RunnerConfig {
//!     threads: 4,
//!     ..RunnerConfig::default()
//! });
//! let jobs: Vec<Job<u64>> = (0..16u64)
//!     .map(|i| Job::new(format!("square-{i}"), move || i * i))
//!     .collect();
//! let reports = runner.run("demo", jobs);
//! let squares: Vec<u64> = reports.into_iter().filter_map(|r| r.into_ok()).collect();
//! assert_eq!(squares, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod handle;
pub mod job;
pub mod pool;

pub use events::{Event, EventSink, JsonlSink, ProgressReporter};
pub use handle::{job_handle, Abandoned, JobHandle, Promise};
pub use job::{Job, JobReport, JobStatus};
pub use pool::{RunOverrides, Runner, RunnerConfig};
