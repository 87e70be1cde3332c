//! gsim-serve: an HTTP prediction service over the scale-model pipeline.
//!
//! The experiment crates answer *"how accurate is the method?"* by
//! simulating targets and comparing. This crate answers the question the
//! method exists for: *"how fast would this workload run on a GPU I
//! cannot afford to simulate?"* — as a long-lived local service. A
//! `POST /v1/predict` names a workload (a Table II / Table IV benchmark
//! or a synthetic [`PatternSpec`](gsim_trace::PatternSpec) description),
//! the target size, and optionally the scale-model sizes and memory
//! miniature. Every request with a miss-rate curve runs one sampled
//! functional collection on its own thread. A memory-bound workload is
//! answered from it alone (the fast path, no timing simulation); any
//! other also simulates the two small scale models on a
//! [`gsim_runner`] pool. Either way the [`gsim_core::plan::Fit`] predictors
//! turn that into a JSON report.
//!
//! Repeated questions are cheap, and a miss always does its own work:
//!
//! * **Content-addressed caching** ([`cache`]), the service's only
//!   cache: the response is keyed by a hash of everything it depends
//!   on — normalized request *and* every field of the derived GPU
//!   configs — held in an in-memory LRU with optional on-disk JSONL
//!   persistence that survives restarts. A second, in-memory-only index
//!   from the exact request body bytes to that key answers a
//!   byte-identical repeat without parsing it. Nothing a miss computes
//!   on the way to its body is kept.
//! * **Single-flight deduplication** ([`singleflight`]): N concurrent
//!   identical requests cost one computation; followers block on the
//!   leader's [`gsim_runner::JobHandle`] and receive the identical body.
//!
//! A dependency-free HTTP server ([`http`]) carries it: `std::net`
//! accept loop, bounded workers, strict limits, keep-alive, cooperative
//! shutdown. The whole workspace builds offline; so does its service.
//!
//! Under load the service has one story ([`overload`], DESIGN.md §13):
//! one predict admission budget sheds excess predicts with `429` +
//! `Retry-After`, a request's `X-Gsim-Deadline-Ms` propagates into the
//! runner and cuts an over-budget predict off with `504` — never a late
//! `200` — and shutdown drains within a fixed five-second grace. There
//! is no third answer shape: a `200` always carries `predictions`.
//! A deterministic fault-injection plan ([`gsim_faults`])
//! exercises all of it in the chaos harness (`scripts/chaos_smoke.sh`).
//!
//! `GET /metrics` ([`metrics`]) exposes request counts, cache hit/miss,
//! in-flight gauges and latency quantiles from an in-tree histogram.
//! DESIGN.md §11 documents the threading model and cache-key derivation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod metrics;
pub mod overload;
pub mod service;
pub mod singleflight;

pub use cache::{fnv1a, ResultCache};
pub use http::{Handler, Request, Response, Server, ServerConfig, ShutdownFlag};
pub use metrics::{Histogram, Metrics, RunnerJobCounter};
pub use overload::{retry_after_secs, AdmissionGate, Permit};
pub use service::{ApiError, PredictService, ServeConfig};
pub use singleflight::{Role, SingleFlight};
