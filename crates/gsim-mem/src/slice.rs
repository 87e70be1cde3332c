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

/// A shared LLC organised as `n_slices` address-hashed slices, each an
/// independent set-associative [`Cache`].
///
/// Per-slice access counts are tracked so the timing simulator can model
/// slice-port contention (camping) and so tests can verify the hash spreads
/// load. Every way also carries a *fill word*, the cycle at which the fill
/// that brought its line in completes, for the timing simulator's
/// in-flight fills ([`SlicedLlc::access_in_slice`]).
///
/// # Example
///
/// ```
/// use gsim_mem::{CacheGeometry, SlicedLlc};
///
/// // The paper's 8-SM scale model: 2.125 MB over 2 slices (Table I).
/// let llc = SlicedLlc::new(2_228_224, 2, 64, 128);
/// assert_eq!(llc.n_slices(), 2);
/// assert!(llc.capacity_bytes() <= 2_228_224);
/// # let _ = CacheGeometry::new(1024, 2, 128);
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
    /// Builds an LLC of `total_bytes` split evenly over `n_slices` slices,
    /// each `ways`-way associative with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if `n_slices` is zero or a slice would be smaller than one line.
    pub fn new(total_bytes: u64, n_slices: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(n_slices > 0, "LLC needs at least one slice");
        let per_slice = total_bytes / u64::from(n_slices);
        Self::of_slices(CacheGeometry::new(per_slice, ways, line_bytes), n_slices)
    }

    /// Builds one memory partition's share of a larger LLC: `n_slices`
    /// slices of exactly `slice_bytes` each. Unlike [`SlicedLlc::new`],
    /// the caller owns the address-to-slice mapping (typically the global
    /// hash of the full LLC restricted to the slices this partition
    /// owns), so lookups must go through [`SlicedLlc::access_in_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `n_slices` is zero or a slice is smaller than one line.
    pub fn partition(slice_bytes: u64, n_slices: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(n_slices > 0, "LLC partition needs at least one slice");
        Self::of_slices(CacheGeometry::new(slice_bytes, ways, line_bytes), n_slices)
    }

    fn of_slices(geom: CacheGeometry, n_slices: u32) -> Self {
        let slice_lines = geom.lines() as usize;
        Self {
            slices: vec![Cache::new(geom); n_slices as usize],
            fills: vec![0; slice_lines * n_slices as usize],
            slice_lines,
        }
    }

    /// Number of slices.
    pub fn n_slices(&self) -> u32 {
        self.slices.len() as u32
    }

    /// Realised total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| s.geometry().capacity_bytes())
            .sum()
    }

    /// Slice index owning `line_addr`.
    #[inline]
    pub fn slice_of(&self, line_addr: u64) -> u32 {
        slice_for_line(line_addr, self.n_slices())
    }

    /// Accesses `line_addr` in its owning slice.
    pub fn access(&mut self, line_addr: u64, is_write: bool) -> AccessResult {
        let s = self.slice_of(line_addr) as usize;
        self.slices[s].access(line_addr, is_write)
    }

    /// Accesses `line_addr` in `slice`, where the slice index comes from
    /// an *external* hash (a [`SlicedLlc::partition`] of a larger LLC);
    /// no consistency with the built-in hash is assumed.
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

    /// Probes without updating LRU state.
    pub fn contains(&self, line_addr: u64) -> bool {
        let s = self.slice_of(line_addr) as usize;
        self.slices[s].contains(line_addr)
    }

    /// Total hits across slices.
    pub fn hits(&self) -> u64 {
        self.slices.iter().map(Cache::hits).sum()
    }

    /// Total misses across slices.
    pub fn misses(&self) -> u64 {
        self.slices.iter().map(Cache::misses).sum()
    }

    /// Total accesses across slices.
    pub fn accesses(&self) -> u64 {
        self.slices.iter().map(Cache::accesses).sum()
    }

    /// Total dirty evictions across slices (write-back DRAM traffic).
    pub fn dirty_evictions(&self) -> u64 {
        self.slices.iter().map(Cache::dirty_evictions).sum()
    }

    /// Per-slice access counts (for load-balance diagnostics).
    pub fn per_slice_accesses(&self) -> Vec<u64> {
        self.slices.iter().map(Cache::accesses).collect()
    }

    /// Empties all slices and resets statistics.
    pub fn reset(&mut self) {
        for s in &mut self.slices {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_maps_to_stable_slice() {
        let llc = SlicedLlc::new(1024 * 1024, 8, 16, 128);
        for l in 0..100u64 {
            assert_eq!(llc.slice_of(l), llc.slice_of(l));
            assert!(llc.slice_of(l) < 8);
        }
    }

    #[test]
    fn hash_spreads_sequential_lines() {
        let llc = SlicedLlc::new(1024 * 1024, 8, 16, 128);
        let mut counts = [0u64; 8];
        for l in 0..8000u64 {
            counts[llc.slice_of(l) as usize] += 1;
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
        let mut llc = SlicedLlc::new(256 * 1024, 4, 16, 128);
        assert!(llc.access(42, false).is_miss());
        assert!(llc.access(42, false).is_hit());
        assert_eq!(llc.hits(), 1);
        assert_eq!(llc.misses(), 1);
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
        // Paper 128-SM LLC: 34 MB over 32 slices.
        let total = 34 * 1024 * 1024;
        let llc = SlicedLlc::new(total, 32, 64, 128);
        assert_eq!(llc.capacity_bytes(), total); // divides exactly
        assert_eq!(llc.n_slices(), 32);
    }

    #[test]
    fn hot_line_camps_on_one_slice() {
        let mut llc = SlicedLlc::new(256 * 1024, 4, 16, 128);
        for _ in 0..1000 {
            llc.access(7, false);
        }
        let per = llc.per_slice_accesses();
        assert_eq!(per.iter().sum::<u64>(), 1000);
        assert_eq!(per.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn reset_clears_slices() {
        let mut llc = SlicedLlc::new(256 * 1024, 4, 16, 128);
        llc.access(1, true);
        llc.reset();
        assert_eq!(llc.accesses(), 0);
        assert!(llc.access(1, false).is_miss());
    }
}
