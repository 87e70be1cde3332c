//! The sliced, shared last-level cache.
//!
//! The paper's LLC is a shared cache physically distributed over slices:
//! every SM can access every slice, and a cache line is stored in exactly one
//! slice determined by its address (Section IV.3). Because of this, CTAs on
//! different SMs touching the same shared data "camp" in front of the slice
//! that owns it — one of the two mechanisms behind sub-linear scaling.

use crate::cache::{AccessResult, Cache};
use crate::geometry::{rem, CacheGeometry};

/// Maps a line address to its owning slice.
///
/// A multiplicative hash decorrelates slice selection from set indexing so
/// strided traffic spreads over slices the way real memory-side hashes do.
#[inline]
pub fn slice_for_line(line_addr: u64, n_slices: u32) -> u32 {
    debug_assert!(n_slices > 0);
    // Fibonacci hashing on the line address.
    let h = line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rem(h >> 32, n_slices) as u32
}

/// One memory partition's share of a shared LLC: `n_slices` slices, each
/// an independent set-associative [`Cache`], addressed by a slice index
/// the caller derives from the global [`slice_for_line`] hash.
///
/// Every way also carries a *fill word*, the cycle at which the fill that
/// brought its line in completes, for the timing simulator's in-flight
/// fills ([`SlicedLlc::access_in_slice`]).
///
/// # Example
///
/// ```
/// use gsim_mem::{slice_for_line, SlicedLlc};
///
/// // The paper's 8-SM scale model: 2.125 MB over 2 slices (Table I),
/// // all in one partition.
/// let mut llc = SlicedLlc::partition(2_228_224 / 2, 2, 64, 128);
/// let line = 42;
/// let slice = slice_for_line(line, 2);
/// assert!(llc.access_in_slice(slice, line, false).0.is_miss());
/// assert!(llc.access_in_slice(slice, line, false).0.is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct SlicedLlc {
    slices: Vec<Cache>,
    /// The fill word of every way, slice-major.
    fills: Vec<u64>,
    /// Ways per slice: a slice's stride in `fills`.
    slice_lines: usize,
}

impl SlicedLlc {
    /// Builds one memory partition's share of a larger LLC: `n_slices`
    /// slices of exactly `slice_bytes` each. The caller owns the
    /// address-to-slice mapping (typically the global hash of the full LLC
    /// restricted to the slices this partition owns).
    ///
    /// # Panics
    ///
    /// Panics if `n_slices` is zero or a slice is smaller than one line.
    pub fn partition(slice_bytes: u64, n_slices: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(n_slices > 0, "LLC partition needs at least one slice");
        let geom = CacheGeometry::new(slice_bytes, ways, line_bytes);
        let slice_lines = geom.lines() as usize;
        Self {
            slices: vec![Cache::new(geom); n_slices as usize],
            fills: vec![0; slice_lines * n_slices as usize],
            slice_lines,
        }
    }

    /// Accesses `line_addr` in `slice`, where the slice index comes from
    /// an external hash ([`slice_for_line`] of the full LLC).
    ///
    /// Also returns the fill word of the way the line now occupies. On a
    /// miss the caller writes the cycle at which the line's fill
    /// completes; on a hit it reads it back, since that is the fill that
    /// brought the line in (a line's way and word are its own while it is
    /// resident). A request entering before that cycle waits for the fill.
    ///
    /// # Example
    ///
    /// ```
    /// use gsim_mem::SlicedLlc;
    ///
    /// let mut llc = SlicedLlc::partition(64 * 1024, 2, 16, 128);
    /// let (result, fill_at) = llc.access_in_slice(1, 7, false);
    /// assert!(result.is_miss());
    /// *fill_at = 300; // the fill lands at cycle 300
    /// let (result, fill_at) = llc.access_in_slice(1, 7, false);
    /// assert!(result.is_hit());
    /// assert_eq!(*fill_at, 300); // a hit entering before 300 waits for it
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `slice` is out of range.
    #[inline]
    pub fn access_in_slice(
        &mut self,
        slice: u32,
        line_addr: u64,
        is_write: bool,
    ) -> (AccessResult, &mut u64) {
        let s = slice as usize;
        let (result, way) = self.slices[s].access_way(line_addr, is_write);
        (result, &mut self.fills[s * self.slice_lines + way])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accesses `line` in the slice the global hash of an `n`-slice LLC
    /// gives it.
    fn access(llc: &mut SlicedLlc, n: u32, line: u64) -> AccessResult {
        llc.access_in_slice(slice_for_line(line, n), line, false).0
    }

    #[test]
    fn line_maps_to_stable_slice() {
        for l in 0..100u64 {
            assert_eq!(slice_for_line(l, 8), slice_for_line(l, 8));
            assert!(slice_for_line(l, 8) < 8);
        }
    }

    #[test]
    fn hash_spreads_sequential_lines() {
        let mut counts = [0u64; 8];
        for l in 0..8000u64 {
            counts[slice_for_line(l, 8) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (600..=1400).contains(&c),
                "slice {i} got {c} of 8000 sequential lines"
            );
        }
    }

    #[test]
    fn access_hits_after_fill() {
        let mut llc = SlicedLlc::partition(64 * 1024, 4, 16, 128);
        assert!(access(&mut llc, 4, 42).is_miss());
        assert!(access(&mut llc, 4, 42).is_hit());
    }

    #[test]
    fn fill_word_is_the_lines_latest_fill() {
        // One set of two ways per slice: a third line evicts the oldest.
        let mut llc = SlicedLlc::partition(256, 2, 2, 128);
        for (line, fill) in [(1, 100), (2, 200)] {
            let (r, word) = llc.access_in_slice(0, line, false);
            assert!(r.is_miss());
            *word = fill;
        }
        // The same line in the other slice has its own word.
        *llc.access_in_slice(1, 1, false).1 = 900;
        assert_eq!(*llc.access_in_slice(0, 1, true).1, 100);
        assert_eq!(*llc.access_in_slice(0, 2, false).1, 200);
        // Line 1 is now the oldest: 3 takes its way, and 1 comes back as
        // a miss whose caller writes a new word.
        let (r, word) = llc.access_in_slice(0, 3, false);
        assert_eq!(r.evicted().map(|e| (e.line_addr, e.dirty)), Some((1, true)));
        *word = 300;
        let (r, word) = llc.access_in_slice(0, 1, false);
        assert!(r.is_miss());
        *word = 400;
        assert_eq!(*llc.access_in_slice(0, 1, false).1, 400);
        assert_eq!(*llc.access_in_slice(0, 3, false).1, 300);
        assert_eq!(*llc.access_in_slice(1, 1, false).1, 900);
    }

    #[test]
    fn capacity_split_over_slices() {
        // Paper 128-SM LLC: 34 MB over 32 slices, 1.0625 MB (8704 lines)
        // each. Every slice holds exactly its share: lines 0..8704 fill
        // each of its sets to its 64 ways and all stay resident, and line
        // 8704 evicts.
        let slice_bytes = 34 * 1024 * 1024 / 32;
        let lines = slice_bytes / 128;
        let mut llc = SlicedLlc::partition(slice_bytes, 32, 64, 128);
        for slice in [0, 31] {
            for round in 0..2 {
                for l in 0..lines {
                    let r = llc.access_in_slice(slice, l, false).0;
                    assert_eq!(r.is_hit(), round == 1, "slice {slice} line {l}");
                }
            }
            let (r, _) = llc.access_in_slice(slice, lines, false);
            assert!(r.evicted().is_some(), "slice {slice} over capacity");
        }
    }

    #[test]
    fn hot_line_camps_on_one_slice() {
        let mut llc = SlicedLlc::partition(64 * 1024, 4, 16, 128);
        let mut per_slice = [0u64; 4];
        for _ in 0..1000 {
            per_slice[slice_for_line(7, 4) as usize] += 1;
            access(&mut llc, 4, 7);
        }
        assert_eq!(per_slice.iter().sum::<u64>(), 1000);
        assert_eq!(per_slice.iter().filter(|&&c| c > 0).count(), 1);
    }
}
