//! Miss-rate-curve regions: pre-cliff, cliff, post-cliff.
//!
//! Section V.C: the prediction model distinguishes three regions of the
//! miss-rate curve. The *cliff* "marks a disproportional drop in the miss
//! rate curve, i.e., the miss rate reduces by more than 2× when doubling
//! cache size"; everything below is *pre-cliff*, everything above is
//! *post-cliff* (mostly cold misses). The paper observes at most one cliff
//! per workload, which this module assumes as well: the *first* drop
//! exceeding the threshold is the cliff.

use crate::error::ModelError;

/// The factor by which MPKI must drop across one capacity doubling to be
/// called a cliff (Section V.C: "more than 2×").
pub const CLIFF_DROP_FACTOR: f64 = 2.0;

/// MPKI values that are effectively "no traffic"; drops between two
/// near-zero samples are noise, not cliffs.
const MPKI_NOISE_FLOOR: f64 = 0.05;

/// A miss-rate curve indexed by *system size* (number of SMs or chiplets)
/// rather than raw capacity: because the scale models derive their LLC
/// capacity proportionally from the system size, the two axes are
/// interchangeable, and size is what Equations (2)–(4) reason in.
///
/// Sizes must be stored in increasing order and double from one entry to
/// the next (the paper's Table I ladder: 8, 16, 32, 64, 128).
#[derive(Debug, Clone, PartialEq)]
pub struct SizedMrc {
    points: Vec<(u32, f64)>,
}

impl SizedMrc {
    /// Builds a curve from `(size, mpki)` pairs; sorts by size.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not strictly doubling once sorted, or any MPKI
    /// is negative / non-finite.
    pub fn new<I: IntoIterator<Item = (u32, f64)>>(points: I) -> Self {
        let mut points: Vec<(u32, f64)> = points.into_iter().collect();
        points.sort_by_key(|&(s, _)| s);
        for w in points.windows(2) {
            assert_eq!(
                w[1].0,
                w[0].0 * 2,
                "sizes must double along the curve: {} then {}",
                w[0].0,
                w[1].0
            );
        }
        for &(s, m) in &points {
            assert!(
                m.is_finite() && m >= 0.0,
                "MPKI at size {s} must be finite and non-negative, got {m}"
            );
        }
        Self { points }
    }

    /// The `(size, mpki)` samples, in increasing size order.
    pub fn points(&self) -> &[(u32, f64)] {
        &self.points
    }

    /// MPKI at `size`, if sampled.
    pub fn mpki_at(&self, size: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(s, _)| s == size)
            .map(|&(_, m)| m)
    }

    /// The region each sampled size falls in. Before the cliff step:
    /// [`Region::PreCliff`]; the first size after the drop:
    /// [`Region::Cliff`] (the crossing); later sizes:
    /// [`Region::PostCliff`]. Without a cliff everything is pre-cliff.
    pub fn regions(&self) -> Vec<(u32, Region)> {
        let cliff = detect_cliff(self);
        self.points
            .iter()
            .enumerate()
            .map(|(i, &(s, _))| {
                let region = match cliff {
                    None => Region::PreCliff,
                    Some(c) if i <= c => Region::PreCliff,
                    Some(c) if i == c + 1 => Region::Cliff,
                    _ => Region::PostCliff,
                };
                (s, region)
            })
            .collect()
    }

    /// Validates that the curve covers `target`; convenience for model
    /// construction.
    pub fn ensure_covers(&self, target: u32) -> Result<(), ModelError> {
        if self.mpki_at(target).is_some() {
            Ok(())
        } else {
            Err(ModelError::MrcDoesNotCover { target })
        }
    }
}

/// Which of the paper's three miss-rate-curve regions a system size
/// belongs to (Section V.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The curve evolves at a steady pace: extrapolate with Eq. (2).
    PreCliff,
    /// The first size past the disproportional drop: apply the
    /// memory-stall boost of Eq. (3).
    Cliff,
    /// Beyond the cliff, the curve is flat again: extrapolate from the
    /// smallest post-cliff size with Eq. (4).
    PostCliff,
}

/// Finds the cliff: the first index `i` such that MPKI drops by more than
/// [`CLIFF_DROP_FACTOR`] from `points[i]` to `points[i+1]`. Returns `None`
/// for a steadily evolving curve. Drops within the noise floor (both
/// samples effectively zero) are ignored.
///
/// # Example
///
/// ```
/// use gsim_core::{detect_cliff, SizedMrc};
///
/// let mrc = SizedMrc::new([(8, 8.0), (16, 7.8), (32, 7.5), (64, 7.4), (128, 0.6)]);
/// assert_eq!(detect_cliff(&mrc), Some(3)); // cliff between 64 and 128
/// ```
pub fn detect_cliff(mrc: &SizedMrc) -> Option<usize> {
    mrc.points.windows(2).position(|w| {
        let (_, before) = w[0];
        let (_, after) = w[1];
        before > MPKI_NOISE_FLOOR && after < before / CLIFF_DROP_FACTOR
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_curve_has_no_cliff() {
        let mrc = SizedMrc::new([(8, 10.0), (16, 10.0), (32, 9.8), (64, 9.5), (128, 9.7)]);
        assert_eq!(detect_cliff(&mrc), None);
        assert!(mrc.regions().iter().all(|&(_, r)| r == Region::PreCliff));
    }

    #[test]
    fn gradual_decline_is_not_a_cliff() {
        // bfs-style curve: ratios stay below 2x per doubling.
        let mrc = SizedMrc::new([(8, 8.0), (16, 6.5), (32, 5.0), (64, 3.8), (128, 2.4)]);
        assert_eq!(detect_cliff(&mrc), None);
    }

    #[test]
    fn sharp_drop_is_a_cliff() {
        let mrc = SizedMrc::new([(8, 8.0), (16, 8.0), (32, 8.0), (64, 7.5), (128, 0.5)]);
        assert_eq!(detect_cliff(&mrc), Some(3));
        let regions = mrc.regions();
        assert_eq!(regions[3], (64, Region::PreCliff));
        assert_eq!(regions[4], (128, Region::Cliff));
    }

    #[test]
    fn early_cliff_has_post_cliff_region() {
        // lu-style: cliff between 32 and 64.
        let mrc = SizedMrc::new([(8, 7.5), (16, 7.5), (32, 7.5), (64, 0.6), (128, 0.6)]);
        assert_eq!(detect_cliff(&mrc), Some(2));
        let regions = mrc.regions();
        assert_eq!(regions[2].1, Region::PreCliff);
        assert_eq!(regions[3].1, Region::Cliff);
        assert_eq!(regions[4].1, Region::PostCliff);
        // The cliff step is from 32 to 64 SMs.
        assert_eq!((regions[2].0, regions[3].0), (32, 64));
    }

    #[test]
    fn exactly_two_x_is_not_a_cliff() {
        // "more than 2x": a drop of exactly 2x stays pre-cliff.
        let mrc = SizedMrc::new([(8, 8.0), (16, 4.0)]);
        assert_eq!(detect_cliff(&mrc), None);
    }

    #[test]
    fn noise_floor_drops_are_ignored() {
        let mrc = SizedMrc::new([(8, 0.04), (16, 0.01)]);
        assert_eq!(detect_cliff(&mrc), None);
    }

    #[test]
    fn lookup_and_coverage() {
        let mrc = SizedMrc::new([(16, 5.0), (8, 6.0)]);
        assert_eq!(mrc.mpki_at(8), Some(6.0));
        assert_eq!(mrc.mpki_at(64), None);
        assert!(mrc.ensure_covers(16).is_ok());
        assert!(mrc.ensure_covers(64).is_err());
    }

    #[test]
    #[should_panic(expected = "sizes must double")]
    fn rejects_non_doubling_sizes() {
        let _ = SizedMrc::new([(8, 1.0), (24, 1.0)]);
    }
}
