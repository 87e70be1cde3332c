//! GPU memory-hierarchy substrate for scale-model simulation.
//!
//! This crate implements the cache and memory models that the GPU timing
//! simulator (`gsim-sim`) and the scale-model prediction methodology build on:
//!
//! * [`Cache`] — a set-associative, LRU, write-back tag store used for the
//!   per-SM L1 caches and for each last-level-cache (LLC) slice.
//! * [`SlicedLlc`] — a shared LLC made of address-hashed slices, matching the
//!   organisation the paper assumes (a cache line lives in exactly one slice,
//!   selected by its address; all SMs can access all slices).
//! * [`Mshr`] — miss-status holding registers that merge concurrent misses to
//!   the same line.
//! * [`DramModel`] — a multi-controller main-memory bandwidth model
//!   (one queueing server per memory controller).
//! * [`mrc`] — miss-rate-curve collection engines: an exact Mattson stack
//!   algorithm (naive and O(log n) tree-accelerated variants) and its
//!   SHARDS-style spatially sampled, sharded approximation.
//!
//! Miss-rate curves (LLC misses per thousand instructions as a function of
//! LLC capacity) are one of the two inputs of GPU scale-model simulation; the
//! engines in [`mrc`] collect them from a functional address trace instead
//! of a detailed timing simulation, as the paper requires.
//!
//! # Example
//!
//! ```
//! use gsim_mem::{Cache, CacheGeometry};
//!
//! // A 48 KB, 6-way L1 with 128 B lines, as in the paper's Table III.
//! let geom = CacheGeometry::new(48 * 1024, 6, 128);
//! let mut l1 = Cache::new(geom);
//! assert!(l1.access(0x1000, false).is_miss());
//! assert!(l1.access(0x1000, false).is_hit());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod banked;
mod cache;
mod dram;
mod geometry;
mod linehash;
mod mshr;
mod slice;

pub mod mrc;

pub use banked::{BankedDramModel, BankedDramStats, DramTiming};
pub use cache::{AccessResult, Cache, EvictedLine};
pub use dram::{DramModel, DramStats};
pub use geometry::{ceil_u64, CacheGeometry};
pub use linehash::{LineHasher, LineMap};
pub use mshr::{Mshr, MshrOutcome};
pub use slice::{slice_for_line, SlicedLlc};

/// Number of bytes in a cache line used throughout the paper's configuration
/// (Table I: 128 B cachelines).
pub const LINE_BYTES: u64 = 128;

/// Log2 of [`LINE_BYTES`]; byte addresses are converted to line addresses by
/// shifting right by this amount.
pub const LINE_SHIFT: u32 = 7;
