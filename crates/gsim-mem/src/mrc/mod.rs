//! Miss-rate-curve (MRC) collection engines.
//!
//! GPU scale-model simulation needs, for each workload, the number of LLC
//! misses per thousand instructions (MPKI) as a function of LLC capacity —
//! the *miss rate curve* of the paper's Figure 2. Section V.A stresses that
//! these curves can be obtained from a functional address trace orders of
//! magnitude faster than detailed timing simulation. This module provides
//! one stack-distance algorithm and its test oracle:
//!
//! * [`NaiveStack`] — the textbook Mattson LRU stack, O(n) per access.
//!   Only used as a reference implementation in tests.
//! * [`TreeStack`] — the same exact reuse distances computed on a rank
//!   bitmap with a Fenwick tree over its words, in O(log n) per access
//!   (Conte et al.'s single-pass approach).
//! * [`LineRouter`] ([`parallel`]) — SHARDS-style spatially-hashed
//!   sampling that also routes the kept lines across disjoint spatial
//!   shards, one [`TreeStack`] each, and merges the rescaled per-shard
//!   histograms deterministically. This is what the miss-rate-curve
//!   collector in `gsim-sim` runs.
//! * [`ShardsStack`] — the same sampling as a single [`DistanceEngine`]:
//!   one router shard over one tree.
//!
//! Every engine produces a [`StackDistanceHistogram`], which converts to a
//! [`MissRateCurve`] for any set of capacities. A stack distance models a
//! fully-associative LRU cache: set conflicts and the L1 filter are not in
//! the curve.

mod curve;
mod histogram;
mod naive;
pub mod parallel;
mod shards;
mod tree;

pub use curve::{MissRateCurve, MrcPoint};
pub use histogram::StackDistanceHistogram;
pub use naive::NaiveStack;
pub use parallel::LineRouter;
pub use shards::ShardsStack;
pub use tree::TreeStack;

/// A single-pass reuse-distance engine.
///
/// Feed it the line-address stream of a workload via [`record`], then call
/// [`finish`] to obtain the stack-distance histogram from which a miss-rate
/// curve for *any* capacity can be derived.
///
/// [`record`]: DistanceEngine::record
/// [`finish`]: DistanceEngine::finish
pub trait DistanceEngine {
    /// Records one access to `line_addr` (a line address, i.e. the byte
    /// address shifted right by the line-size log2).
    fn record(&mut self, line_addr: u64);

    /// Consumes the engine and returns the accumulated histogram.
    fn finish(self) -> StackDistanceHistogram;

    /// Records every address in an iterator.
    fn record_all<I: IntoIterator<Item = u64>>(&mut self, lines: I)
    where
        Self: Sized,
    {
        for l in lines {
            self.record(l);
        }
    }
}
