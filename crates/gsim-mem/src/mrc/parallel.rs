//! Parallel sharded stack-distance collection.
//!
//! The SHARDS observation (see [`ShardsStack`](super::ShardsStack)) —
//! spatially-hashed sampling at rate `R` shrinks stack distances by `R` in
//! expectation — also yields a *parallel decomposition*: route each line
//! to one of `N` disjoint spatial shards, compute an exact stack-distance
//! histogram per shard independently (each shard is itself a spatial
//! sample at rate `keep_rate / N`), then rescale and merge. Shard
//! histograms commute under addition, so the merge is deterministic as
//! long as callers combine them in ascending shard order — which lets a
//! thread pool collect the shards concurrently without any effect on the
//! result. This is the shard-parallel approach of "Parallelizing a modern
//! GPU simulator" (arXiv 2502.14691) applied to MRC collection.
//!
//! The router also folds in SHARDS sampling proper: with `keep_rate < 1`
//! only that fraction of the distinct-line hash space is kept at all, so
//! the per-shard tree work shrinks by another constant factor.

use super::histogram::StackDistanceHistogram;

/// Modulus for the sampling decision (matches
/// [`ShardsStack`](super::ShardsStack)).
const SAMPLE_MOD: u64 = 1 << 24;

/// Deterministically routes line addresses to spatial shards, dropping
/// `1 - keep_rate` of the distinct-line hash space on the way.
///
/// All accesses to one line land in the same shard (or are all dropped):
/// the decision depends only on the line address, which is what makes
/// per-shard stack distances meaningful.
#[derive(Debug, Clone)]
pub struct LineRouter {
    threshold: u64,
    n_shards: u32,
}

impl LineRouter {
    /// Creates a router over `n_shards` shards keeping `keep_rate` of the
    /// distinct-line space.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero or `keep_rate` is not in `(0, 1]`.
    pub fn new(n_shards: u32, keep_rate: f64) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert!(
            keep_rate > 0.0 && keep_rate <= 1.0,
            "keep_rate must be in (0, 1]"
        );
        Self {
            threshold: ((keep_rate * SAMPLE_MOD as f64).round() as u64).max(1),
            n_shards,
        }
    }

    /// Number of shards lines are routed across.
    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// The keep rate actually realised by the integer threshold.
    pub fn keep_rate(&self) -> f64 {
        self.threshold as f64 / SAMPLE_MOD as f64
    }

    /// The shard of `line_addr`, or `None` when the line is sampled out.
    /// Purely a function of the address — deterministic everywhere.
    #[inline]
    pub fn route(&self, line_addr: u64) -> Option<u32> {
        // The same multiplicative mix ShardsStack uses; the low 24 bits
        // decide sampling, higher bits pick the shard so the two choices
        // stay independent.
        let mut h = line_addr.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        if h % SAMPLE_MOD >= self.threshold {
            return None;
        }
        Some(((h >> 24) % u64::from(self.n_shards)) as u32)
    }

    /// Reconstructs the full-stream histogram estimate from the per-shard
    /// histograms this router produced. `shards` must be supplied **in
    /// ascending shard order** and contain exactly
    /// [`n_shards`](Self::n_shards) entries; with a fixed order the
    /// floating-point merge is deterministic regardless of how (or how
    /// concurrently) the shards were collected.
    ///
    /// Each shard is a spatial sample at rate `keep_rate / n_shards`, so
    /// distances scale up by `n_shards / keep_rate` and each access
    /// weighs `1 / keep_rate` (mass dropped by sampling, not by
    /// sharding, must be re-added).
    ///
    /// # Panics
    ///
    /// Panics if the shard count does not match.
    pub fn merge(&self, shards: &[StackDistanceHistogram]) -> StackDistanceHistogram {
        assert_eq!(
            shards.len(),
            self.n_shards as usize,
            "one histogram per shard, in shard order"
        );
        let keep = self.keep_rate();
        let distance_scale = f64::from(self.n_shards) / keep;
        let weight_scale = 1.0 / keep;
        // Sized once, zeroed by the allocator: every shard folds into it.
        let len = shards.iter().map(|h| h.rescaled_len(distance_scale)).max();
        let mut merged = StackDistanceHistogram::with_len(len.unwrap_or(0));
        for hist in shards {
            merged.merge_rescaled(hist, distance_scale, weight_scale);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DistanceEngine, TreeStack};
    use super::*;

    /// A deterministic pseudo-stream with heavy reuse: four sweeps over
    /// `n` lines.
    fn sweep_stream(n: u64, passes: u32) -> Vec<u64> {
        (0..passes)
            .flat_map(|_| (0..n).map(|l| l.wrapping_mul(2654435761) % n))
            .collect()
    }

    fn exact_misses(lines: &[u64], capacity: u64) -> f64 {
        let mut t = TreeStack::new();
        t.record_all(lines.iter().copied());
        t.finish().misses_at(capacity)
    }

    fn sharded_misses(lines: &[u64], router: &LineRouter, capacity: u64) -> f64 {
        let mut trees: Vec<TreeStack> = (0..router.n_shards()).map(|_| TreeStack::new()).collect();
        for &l in lines {
            if let Some(s) = router.route(l) {
                trees[s as usize].record(l);
            }
        }
        let hists: Vec<_> = trees.into_iter().map(TreeStack::finish).collect();
        router.merge(&hists).misses_at(capacity)
    }

    #[test]
    fn routing_is_spatial_and_total_at_rate_one() {
        let router = LineRouter::new(4, 1.0);
        for l in 0..10_000u64 {
            let a = router.route(l);
            assert!(a.is_some(), "keep_rate 1.0 drops nothing");
            assert_eq!(a, router.route(l), "same line, same shard");
            assert!(a.unwrap() < 4);
        }
        // All shards get used.
        let mut seen = [false; 4];
        for l in 0..64u64 {
            seen[router.route(l).unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sharded_estimate_tracks_exact_histogram() {
        let lines = sweep_stream(4_000, 4);
        let router = LineRouter::new(8, 1.0);
        for capacity in [500u64, 2_000, 5_000] {
            let exact = exact_misses(&lines, capacity);
            let est = sharded_misses(&lines, &router, capacity);
            let err = (est - exact).abs() / exact.max(1.0);
            assert!(
                err < 0.15,
                "capacity {capacity}: exact {exact}, sharded {est} (err {err})"
            );
        }
    }

    #[test]
    fn sampling_rescales_total_mass() {
        let lines = sweep_stream(4_000, 4);
        let router = LineRouter::new(4, 0.25);
        let mut trees: Vec<TreeStack> = (0..4).map(|_| TreeStack::new()).collect();
        for &l in &lines {
            if let Some(s) = router.route(l) {
                trees[s as usize].record(l);
            }
        }
        let hists: Vec<_> = trees.into_iter().map(TreeStack::finish).collect();
        let merged = router.merge(&hists);
        let err = (merged.total_accesses() - lines.len() as f64).abs() / lines.len() as f64;
        assert!(
            err < 0.15,
            "mass {} vs {} accesses",
            merged.total_accesses(),
            lines.len()
        );
    }

    #[test]
    fn merge_order_is_the_contract() {
        // Same shard histograms, same order → bit-identical merge, no
        // matter how the shards were produced.
        let lines = sweep_stream(1_000, 3);
        let router = LineRouter::new(3, 0.5);
        let collect = || {
            let mut trees: Vec<TreeStack> = (0..3).map(|_| TreeStack::new()).collect();
            for &l in &lines {
                if let Some(s) = router.route(l) {
                    trees[s as usize].record(l);
                }
            }
            let hists: Vec<_> = trees.into_iter().map(TreeStack::finish).collect();
            router.merge(&hists)
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    #[should_panic(expected = "one histogram per shard")]
    fn merge_rejects_wrong_shard_count() {
        LineRouter::new(4, 1.0).merge(&[StackDistanceHistogram::new()]);
    }
}
