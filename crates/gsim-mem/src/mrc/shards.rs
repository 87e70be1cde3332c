//! SHARDS-style sampled reuse-distance analysis.
//!
//! SHARDS (spatially hashed approximate reuse distance sampling) observes
//! that if lines are sampled by a uniform hash with rate `R`, the stack
//! distance of an access in the *sampled* stream is, in expectation, `R`
//! times its true distance — so scaling sampled distances by `1/R` and
//! weighting each sample by `1/R` reconstructs the full histogram from a
//! small fraction of the trace. This is the same family of statistical
//! MRC techniques the paper cites (Berg & Hagersten's StatCache/StatStack,
//! Eklov's StatStack) for collecting miss-rate curves cheaply.

use super::histogram::StackDistanceHistogram;
use super::parallel::LineRouter;
use super::tree::TreeStack;
use super::DistanceEngine;

/// Approximate reuse-distance engine with spatial sampling rate `rate`
/// (e.g. `0.01` analyses ~1 % of distinct lines): a one-shard
/// [`LineRouter`] in front of one [`TreeStack`], finished by the router's
/// rescaling merge.
///
/// # Example
///
/// ```
/// use gsim_mem::mrc::{DistanceEngine, ShardsStack};
///
/// let mut e = ShardsStack::new(0.5);
/// for pass in 0..4 { for l in 0..1000u64 { e.record(l); } }
/// let h = e.finish();
/// // Roughly 4000 total accesses are reconstructed from ~2000 samples.
/// assert!((h.total_accesses() - 4000.0).abs() < 800.0);
/// ```
#[derive(Debug, Clone)]
pub struct ShardsStack {
    router: LineRouter,
    inner: TreeStack,
}

impl ShardsStack {
    /// Creates an engine with the given sampling `rate` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]`.
    pub fn new(rate: f64) -> Self {
        Self {
            router: LineRouter::new(1, rate),
            inner: TreeStack::new(),
        }
    }

    /// The configured sampling rate actually realised by the integer
    /// threshold.
    pub fn effective_rate(&self) -> f64 {
        self.router.keep_rate()
    }
}

impl DistanceEngine for ShardsStack {
    fn record(&mut self, line_addr: u64) {
        // Only the line address decides, so all accesses to a line are
        // consistently kept or dropped (spatial sampling), which SHARDS
        // requires.
        if self.router.route(line_addr).is_some() {
            self.inner.record(line_addr);
        }
    }

    /// Rescales each sampled distance `d` to `d / rate` with weight
    /// `1 / rate`, in one pass over the sampled histogram.
    fn finish(self) -> StackDistanceHistogram {
        self.router.merge(&[self.inner.finish()])
    }
}

#[cfg(test)]
mod tests {
    use super::super::naive::NaiveStack;
    use super::*;
    use gsim_rng::Rng64;

    #[test]
    fn rate_one_matches_exact() {
        let trace = [1u64, 2, 3, 1, 2, 3, 4, 1];
        let mut s = ShardsStack::new(1.0);
        let mut n = NaiveStack::new();
        s.record_all(trace);
        n.record_all(trace);
        let (hs, hn) = (s.finish(), n.finish());
        for cap in [0u64, 1, 2, 3, 4, 10] {
            assert_eq!(hs.misses_at(cap), hn.misses_at(cap));
        }
    }

    #[test]
    fn sampled_curve_tracks_exact_curve() {
        let mut rng = Rng64::seed_from_u64(7);
        // Zipf-ish mixture over 16k lines.
        let trace: Vec<u64> = (0..400_000)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0, 800)
                } else {
                    rng.gen_range(0, 16_000)
                }
            })
            .collect();
        let mut exact = TreeStack::new();
        let mut approx = ShardsStack::new(0.25);
        exact.record_all(trace.iter().copied());
        approx.record_all(trace.iter().copied());
        let (he, ha) = (exact.finish(), approx.finish());
        for cap in [256u64, 1024, 4096, 16_384] {
            let e = he.miss_rate_at(cap);
            let a = ha.miss_rate_at(cap);
            assert!(
                (e - a).abs() < 0.08,
                "capacity {cap}: exact {e:.3} vs sampled {a:.3}"
            );
        }
    }

    #[test]
    fn sampling_reduces_analyzed_accesses() {
        let mut s = ShardsStack::new(0.05);
        for l in 0..100_000u64 {
            s.record(l % 10_000);
        }
        // The sampled stream's accesses, undone from the 1/R weighting.
        let r = s.effective_rate();
        let observed = s.finish().total_accesses() * r / 100_000.0;
        assert!(
            (0.01..0.12).contains(&observed),
            "observed sampling rate {observed}"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn rejects_zero_rate() {
        let _ = ShardsStack::new(0.0);
    }
}
