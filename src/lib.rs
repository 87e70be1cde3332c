//! GPU scale-model simulation: predict large-GPU performance from small
//! scale models, reproducing the HPCA 2024 paper of the same name.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`trace`] — synthetic GPU workload substrate (the paper's Table II/IV
//!   benchmarks as deterministic trace generators).
//! * [`mem`] — cache hierarchy, DRAM bandwidth model, and miss-rate-curve
//!   collection engines.
//! * [`noc`] — on-chip crossbar and inter-chiplet network models (the
//!   simulator's `gsim_sim::noc`).
//! * [`sim`] — the cycle-level GPU timing simulator (Accel-Sim substitute)
//!   with proportional scale-model configuration derivation.
//! * [`core`] — the paper's contribution: the scale-model prediction
//!   methodology, baseline predictors, and the experiment pipeline.
//! * [`runner`] — dependency-free parallel sweep execution: a worker pool
//!   with one shared run queue, per-job panic isolation, timeouts,
//!   deterministic result ordering, and pluggable metrics/progress sinks.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end flow: simulate the 8-SM
//! and 16-SM scale models of a workload, collect its miss-rate curve, and
//! predict 128-SM performance without ever simulating the 128-SM target.

#![forbid(unsafe_code)]

pub use gsim_core as core;
pub use gsim_mem as mem;
pub use gsim_runner as runner;
pub use gsim_sim as sim;
pub use gsim_sim::noc;
pub use gsim_trace as trace;
