//! Synthetic GPU workload substrate for scale-model simulation.
//!
//! The paper evaluates its methodology on 21 CUDA benchmarks (Rodinia,
//! Polybench, Parboil, CUDA SDK, MLPerf — Tables II and IV) traced through
//! Accel-Sim. Neither the traces nor the GPUs that produced them are
//! available here, so this crate recreates each benchmark as a
//! *deterministic synthetic workload* parameterised by the characteristics
//! the paper publishes — memory footprint, CTA grid sizes, instruction
//! volume — plus an access-pattern family chosen to match the described
//! behaviour (sharp miss-rate cliff for dct/fwt, gradual curve for bfs,
//! flat curve for pf, near-zero reuse for ht, compute-bound gemm, …).
//!
//! The important property is that the three scaling regimes the paper
//! identifies *emerge* from first principles when these workloads run on
//! the timing simulator:
//!
//! * **linear** — compute-bound kernels, or footprints far exceeding every
//!   LLC capacity of interest;
//! * **super-linear** — reused working sets that fit the target's LLC but
//!   not the scale models' (the miss-rate-curve *cliff*);
//! * **sub-linear** — kernel sequences with too few CTAs to fill large
//!   GPUs (workload–architecture imbalance), or hot shared lines that camp
//!   on LLC slices.
//!
//! # Structure
//!
//! A [`Workload`] is a sequence of [`Kernel`]s (kernels are separated by
//! implicit barriers, as on a real GPU stream). Each kernel launches a grid
//! of CTAs; each warp of each CTA yields a deterministic instruction stream
//! ([`WarpStream`]) of [`Op`]s generated from the kernel's [`PatternSpec`].
//!
//! ```
//! use gsim_trace::{PatternKind, PatternSpec, Kernel, Workload, WarpStream};
//!
//! let spec = PatternSpec::new(PatternKind::GlobalSweep { passes: 4 }, 1 << 16)
//!     .mem_ops_per_warp(64)
//!     .compute_per_mem(2.0);
//! let kernel = Kernel::new("sweep", 96, 256, spec);
//! let wl = Workload::new("demo", 42, vec![kernel]);
//! let mut stream = wl.kernels()[0].warp_stream(&wl, 0, 0, 0);
//! assert!(stream.next_op().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod model;
mod op;
mod pattern;
mod scale;
pub mod suite;
pub mod tracefile;
pub mod weak;

pub use kernel::{Kernel, Workload};
pub use model::WorkloadModel;
pub use op::{MemAccess, MemSpace, Op};
pub use pattern::{PatternKind, PatternSpec, SharedHotSpec, SpecStream, StreamCtx, WarpStream};
pub use scale::MemScale;
pub use tracefile::{
    semantic_hash_of, write_trace, KernelMeta, TraceLimits, TraceReadError, TraceReader,
    TraceStats, TraceStream, TracedWarp, TracedWorkload,
};

/// The paper's system-size ladder in SMs (Table I): the 8- and 16-SM
/// scale models, then the 32-, 64- and 128-SM targets. Table IV's five
/// weak-scaling inputs match these sizes row by row.
pub const SM_LADDER: [u32; 5] = [8, 16, 32, 64, 128];

/// Threads per warp, fixed at 32 throughout the paper (Table III).
pub const THREADS_PER_WARP: u32 = 32;
