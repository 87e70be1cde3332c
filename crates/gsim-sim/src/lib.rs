//! A cycle-level GPU timing simulator for scale-model studies.
//!
//! This crate stands in for Accel-Sim \[39\], the detailed simulator the
//! paper uses to collect scale-model performance profiles. It models the
//! parts of a modern GPU whose *sharing* drives the paper's scaling
//! phenomena:
//!
//! * SMs issuing one warp instruction per cycle from up to 48 resident
//!   warps under Greedy-Then-Oldest (GTO) scheduling, with round-robin CTA
//!   dispatch (Table III);
//! * per-SM L1 caches with MSHR merge, write-through/no-write-allocate;
//! * a crossbar NoC charged at its bisection bandwidth ([`noc`]);
//! * a shared, sliced LLC with per-slice ports (hot shared lines camp on
//!   their slice, the paper's sub-linear congestion mechanism);
//! * a multi-controller DRAM bandwidth model;
//! * an optional multi-chiplet organisation with first-touch page
//!   placement and a bandwidth-limited inter-chiplet network (Table V).
//!
//! The simulator reports exactly the quantities the scale-model
//! methodology consumes: IPC (thread instructions per cycle), LLC MPKI,
//! and the memory-stall fraction `f_mem` of Equation (3).
//!
//! # Example
//!
//! ```
//! use gsim_sim::{GpuConfig, Simulator};
//! use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};
//!
//! let spec = PatternSpec::new(PatternKind::GlobalSweep { passes: 2 }, 4096);
//! let wl = Workload::new("demo", 1, vec![Kernel::new("k", 96, 256, spec)]);
//! let cfg = GpuConfig::paper_target(8, MemScale::default());
//! let stats = Simulator::new(cfg, &wl).run();
//! assert!(stats.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chiplet;
mod config;
mod crossbar;
mod engine;
mod functional;
mod link;
pub mod noc;
mod stats;

pub use chiplet::ChipletConfig;
pub use config::GpuConfig;
pub use engine::Simulator;
pub use functional::{
    collect_curve, collect_mrc, CollectFailure, CollectStats, FunctionalCurve, LINE_RATE,
    MAX_CTAS_PER_KERNEL, N_SHARDS,
};
pub use stats::SimStats;
