//! Set-associative, write-back, true-LRU tag-store cache model.

use std::ops::Range;

use crate::geometry::CacheGeometry;

/// A line evicted by a cache fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line address of the victim.
    pub line_addr: u64,
    /// Whether the victim was dirty (a write-back to the next level is
    /// required and consumes bandwidth there).
    pub dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; the set's LRU victim, if the
    /// set was full, is reported so the caller can model write-back traffic.
    Miss(Option<EvictedLine>),
}

impl AccessResult {
    /// Returns `true` for [`AccessResult::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }

    /// Returns `true` for [`AccessResult::Miss`].
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }

    /// The evicted victim line, if the access caused an eviction.
    pub fn evicted(&self) -> Option<EvictedLine> {
        match self {
            AccessResult::Hit => None,
            AccessResult::Miss(e) => *e,
        }
    }
}

/// A tag word: `line_addr << 2`, with bit 1 = dirty and bit 0 = valid.
const VALID: u64 = 1;
const DIRTY: u64 = 2;
/// An empty way. No valid entry equals it, and no lookup key matches it.
const INVALID: u64 = 0;
/// Line addresses must leave room for the two flag bits.
const MAX_LINE_ADDR: u64 = u64::MAX >> 2;
/// Ways and the order list's sentinel are numbered in a byte.
const MAX_WAYS: u32 = 255;

const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The tag word of a clean, valid `line_addr` — also the lookup key: a
/// way matches when it equals the key once its dirty bit is masked.
/// `None` for an address the tag word cannot hold (so cannot be resident).
#[inline]
fn key_of(line_addr: u64) -> Option<u64> {
    (line_addr <= MAX_LINE_ADDR).then_some(line_addr << 2 | VALID)
}

/// One-byte fingerprint of a line address; never 0, the fingerprint of
/// empty ways and padding.
#[inline]
fn fingerprint(line_addr: u64) -> u8 {
    ((line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).max(1)
}

/// Per 8-byte word of `bytes`, a mask with bit `8 * i + 7` set if byte
/// `i` equals `byte` (the classic zero-byte test on `word ^ pattern`).
/// The test can also flag bytes *above* a true match in the same word, so
/// the lowest flagged byte of a word is exact and the rest are candidates.
#[inline]
fn match_words(bytes: &[u8], byte: u8) -> impl Iterator<Item = u64> + '_ {
    let pattern = LOW_BITS * u64::from(byte);
    bytes.chunks_exact(8).map(move |w| {
        let x = u64::from_le_bytes(w.try_into().expect("chunk of 8")) ^ pattern;
        x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS
    })
}

/// The way holding `line_addr` in a set, if resident: tests the
/// fingerprints eight at a time and compares tags only where they match.
#[inline]
fn find(tags: &[u64], fingerprints: &[u8], line_addr: u64) -> Option<usize> {
    let key = key_of(line_addr)?;
    for (i, mut flagged) in match_words(fingerprints, fingerprint(line_addr)).enumerate() {
        while flagged != 0 {
            // A flagged byte may also be padding: no tag there.
            let way = 8 * i + (flagged.trailing_zeros() / 8) as usize;
            if tags.get(way).is_some_and(|t| t & !DIRTY == key) {
                return Some(way);
            }
            flagged &= flagged - 1;
        }
    }
    None
}

/// A set's recency order: a circular doubly linked list threaded through
/// the ways, newest first, closed by a sentinel numbered `ways` so that no
/// link is ever absent. `links` holds `next` and `prev` of every way, then
/// of the sentinel, whose `next` is the newest way and whose `prev` the
/// oldest. Empty ways sit at the old end.
struct Order<'a> {
    links: &'a mut [u8],
}

impl Order<'_> {
    fn next(&self, way: usize) -> usize {
        usize::from(self.links[2 * way])
    }

    fn prev(&self, way: usize) -> usize {
        usize::from(self.links[2 * way + 1])
    }

    fn link(&mut self, from: usize, to: usize) {
        self.links[2 * from] = to as u8;
        self.links[2 * to + 1] = from as u8;
    }

    /// Relinks `way` behind `after`: behind the sentinel it is the newest,
    /// behind the oldest way (the sentinel's `prev`) the oldest.
    #[inline]
    fn move_after(&mut self, way: usize, after: usize) {
        if way == after || self.prev(way) == after {
            return;
        }
        self.link(self.prev(way), self.next(way));
        let behind = self.next(after);
        self.link(after, way);
        self.link(way, behind);
    }
}

/// A set-associative cache with true LRU replacement (Table III) and
/// write-back, write-allocate semantics, modelled as a tag store (no data
/// payloads).
///
/// Used for the per-SM 48 KB 6-way L1 caches and, one instance per slice,
/// for the 64-way LLC slices of the paper's configurations.
///
/// A way is eleven bytes: its tag word, a fingerprint byte of the line it
/// holds, and its two links in the set's recency order, a doubly linked
/// list with the newest way first and the empty
/// ways last. A lookup tests the fingerprints eight at a time and
/// compares tags only where they match; a hit or a replacement relinks
/// one way, whatever the associativity, and the victim is the list's
/// last way.
///
/// # Example
///
/// ```
/// use gsim_mem::{Cache, CacheGeometry};
///
/// let mut c = Cache::new(CacheGeometry::from_sets(2, 2, 128));
/// assert!(c.access(0, false).is_miss());
/// assert!(c.access(0, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    /// `sets * ways` tag words, set-major.
    tags: Vec<u64>,
    /// Per set, `set_meta` bytes: the fingerprints, padded to
    /// `padded_ways` (whole 8-byte words) with bytes no lookup matches,
    /// then the links of the set's [`Order`].
    meta: Vec<u8>,
    padded_ways: usize,
    set_meta: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    dirty_evictions: u64,
}

impl Cache {
    /// Creates an empty LRU cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 255 ways.
    pub fn new(geom: CacheGeometry) -> Self {
        assert!(
            geom.ways() <= MAX_WAYS,
            "{} ways exceed the tag store's {MAX_WAYS}",
            geom.ways()
        );
        let (sets, ways) = (geom.sets() as usize, geom.ways() as usize);
        let padded_ways = ways.next_multiple_of(8);
        let set_meta = (padded_ways + 2 * (ways + 1)).next_multiple_of(8);
        let mut cache = Self {
            geom,
            tags: vec![INVALID; sets * ways],
            meta: vec![0; sets * set_meta],
            padded_ways,
            set_meta,
            hits: 0,
            misses: 0,
            evictions: 0,
            dirty_evictions: 0,
        };
        cache.reset();
        cache
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Where the set `line_addr` maps to lives in `tags` and in `meta`.
    #[inline]
    fn set_ranges(&self, line_addr: u64) -> (Range<usize>, Range<usize>) {
        let set = self.geom.set_index(line_addr) as usize;
        let (ways, meta) = (self.geom.ways() as usize, self.set_meta);
        (set * ways..(set + 1) * ways, set * meta..(set + 1) * meta)
    }

    /// The set `line_addr` maps to: the index of its first way, its tags,
    /// fingerprints and order.
    #[inline]
    fn set_mut(&mut self, line_addr: u64) -> (usize, &mut [u64], &mut [u8], Order<'_>) {
        let (tags, meta) = self.set_ranges(line_addr);
        let (fingerprints, links) = self.meta[meta].split_at_mut(self.padded_ways);
        (
            tags.start,
            &mut self.tags[tags],
            fingerprints,
            Order { links },
        )
    }

    /// Accesses `line_addr` (a line address, not a byte address), filling on
    /// miss. `is_write` marks the line dirty on hit or fill.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` needs more than 62 bits.
    pub fn access(&mut self, line_addr: u64, is_write: bool) -> AccessResult {
        self.access_way(line_addr, is_write).0
    }

    /// [`Cache::access`], also reporting the way it used: the line's index
    /// in `0..geometry().lines()`, which stays its index for as long as it
    /// is resident. A caller can keep per-line state beside the tags with it.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` needs more than 62 bits.
    #[inline]
    pub fn access_way(&mut self, line_addr: u64, is_write: bool) -> (AccessResult, usize) {
        let key = key_of(line_addr).unwrap_or_else(|| {
            panic!("line address {line_addr:#x} exceeds the tag store's 62 bits")
        });
        let dirty = if is_write { DIRTY } else { 0 };
        let (first, tags, fingerprints, mut order) = self.set_mut(line_addr);
        let ways = tags.len();
        if let Some(way) = find(tags, fingerprints, line_addr) {
            tags[way] |= dirty;
            order.move_after(way, ways);
            self.hits += 1;
            return (AccessResult::Hit, first + way);
        }

        // Miss: the victim is the oldest way. Empty ways come last, so it
        // is empty until the set is full.
        let victim = order.prev(ways);
        let old = std::mem::replace(&mut tags[victim], key | dirty);
        fingerprints[victim] = fingerprint(line_addr);
        order.move_after(victim, ways);
        let evicted = (old != INVALID).then_some(EvictedLine {
            line_addr: old >> 2,
            dirty: old & DIRTY != 0,
        });
        self.misses += 1;
        if let Some(e) = evicted {
            self.evictions += 1;
            self.dirty_evictions += u64::from(e.dirty);
        }
        (AccessResult::Miss(evicted), first + victim)
    }

    /// Probes for `line_addr` without updating LRU state or statistics.
    pub fn contains(&self, line_addr: u64) -> bool {
        let (tags, meta) = self.set_ranges(line_addr);
        let fingerprints = &self.meta[meta][..self.padded_ways];
        find(&self.tags[tags], fingerprints, line_addr).is_some()
    }

    /// Invalidates `line_addr` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let (_, tags, fingerprints, mut order) = self.set_mut(line_addr);
        let way = find(tags, fingerprints, line_addr)?;
        let was_dirty = tags[way] & DIRTY != 0;
        tags[way] = INVALID;
        fingerprints[way] = 0;
        // The freed way becomes the oldest: the next to be filled.
        let oldest = order.prev(tags.len());
        order.move_after(way, oldest);
        Some(was_dirty)
    }

    /// Empties the cache and resets statistics.
    pub fn reset(&mut self) {
        self.tags.fill(INVALID);
        // Way 0 is the newest, the last way the oldest and first filled.
        let nodes = self.geom.ways() as usize + 1;
        for set in self.meta.chunks_exact_mut(self.set_meta) {
            let (fingerprints, links) = set.split_at_mut(self.padded_ways);
            fingerprints.fill(0);
            for node in 0..nodes {
                links[2 * node] = ((node + 1) % nodes) as u8;
                links[2 * node + 1] = ((node + nodes - 1) % nodes) as u8;
            }
        }
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.dirty_evictions = 0;
    }

    /// Number of hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of evictions of valid lines.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of evictions of dirty lines (write-back traffic).
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != INVALID).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 1 set, 2 ways for easy LRU reasoning.
        Cache::new(CacheGeometry::from_sets(1, 2, 128))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.access(1, false).is_miss());
        assert!(c.access(1, false).is_hit());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        c.access(1, false);
        c.access(2, false);
        // Touch 1 so 2 becomes LRU.
        c.access(1, false);
        let r = c.access(3, false);
        assert_eq!(
            r.evicted(),
            Some(EvictedLine {
                line_addr: 2,
                dirty: false
            })
        );
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn dirty_writeback_reported() {
        let mut c = small();
        c.access(1, true);
        c.access(2, false);
        let r = c.access(3, false); // evicts 1 (LRU), which is dirty
        assert_eq!(
            r.evicted(),
            Some(EvictedLine {
                line_addr: 1,
                dirty: true
            })
        );
        assert_eq!(c.dirty_evictions(), 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(1, false);
        c.access(1, true); // hit, marks dirty
        c.access(2, false);
        let r = c.access(3, false);
        assert!(r.evicted().expect("eviction").dirty);
    }

    #[test]
    fn fill_before_evict() {
        let mut c = small();
        assert_eq!(c.access(1, false).evicted(), None);
        assert_eq!(c.access(2, false).evicted(), None);
        assert!(c.access(3, false).evicted().is_some());
    }

    #[test]
    fn access_way_keeps_a_lines_way_while_resident() {
        // 2 sets of 2 ways: even lines in set 0 (ways 0-1), odd in set 1.
        let mut c = Cache::new(CacheGeometry::from_sets(2, 2, 128));
        let (r, a) = c.access_way(0, false);
        assert!(r.is_miss() && a < 2);
        let (_, b) = c.access_way(2, false);
        assert_eq!(a + b, 1);
        let (_, odd) = c.access_way(1, false);
        assert!((2..4).contains(&odd));
        assert_eq!(c.access_way(0, true), (AccessResult::Hit, a));
        // 2 is the oldest of set 0: line 4 takes its way.
        let (r, way) = c.access_way(4, false);
        assert_eq!(r.evicted().map(|e| e.line_addr), Some(2));
        assert_eq!(way, b);
        assert_eq!(c.access_way(0, false), (AccessResult::Hit, a));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(1, true);
        assert_eq!(c.invalidate(1), Some(true));
        assert!(!c.contains(1));
        assert_eq!(c.invalidate(1), None);
        // The freed way is reused without eviction.
        c.access(2, false);
        c.access(3, false);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn contains_does_not_perturb_lru() {
        let mut c = small();
        c.access(1, false);
        c.access(2, false); // MRU=2, LRU=1
        assert!(c.contains(1)); // must not promote 1
        let r = c.access(3, false);
        assert_eq!(r.evicted().expect("eviction").line_addr, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = small();
        c.access(1, true);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.resident_lines(), 0);
        assert!(c.access(1, false).is_miss());
    }

    #[test]
    fn working_set_within_capacity_has_only_cold_misses() {
        let geom = CacheGeometry::new(64 * 1024, 8, 128); // 512 lines
        let mut c = Cache::new(geom);
        let lines: Vec<u64> = (0..256).collect();
        for pass in 0..4 {
            for &l in &lines {
                let r = c.access(l, false);
                if pass > 0 {
                    assert!(r.is_hit(), "pass {pass} line {l} should hit");
                }
            }
        }
        assert_eq!(c.misses(), 256);
    }

    #[test]
    fn cyclic_sweep_larger_than_capacity_thrashes_lru() {
        // Classic LRU pathology: sweeping N+1 lines over an N-line
        // fully-associative cache misses every time.
        let geom = CacheGeometry::from_sets(1, 64, 128);
        let mut c = Cache::new(geom);
        for _ in 0..3 {
            for l in 0..65u64 {
                c.access(l, false);
            }
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 3 * 65);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = small();
        c.access(1, false);
        c.access(1, false);
        assert_eq!((c.misses(), c.accesses()), (1, 2));
    }
}
