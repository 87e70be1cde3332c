//! Exact single-pass reuse distances in O(log n) per access.
//!
//! This is the tree-accelerated formulation of the Mattson stack used by
//! single-pass MRC tools (Conte et al.): each line's most recent access is
//! marked at its (logical) time position in a Fenwick tree; the stack
//! distance of a new access to the line is the number of marks strictly
//! after its previous access, i.e. the number of *distinct* lines touched in
//! between. The time axis is compacted whenever it fills up, so the engine
//! handles arbitrarily long traces in O(u) memory for u unique lines.

use super::histogram::StackDistanceHistogram;
use super::DistanceEngine;
use crate::LineMap;

/// Time axis of [`TreeStack::new`].
const DEFAULT_SLOTS: usize = 1 << 16;

/// Longest time axis: slots are stored as `u32`.
const MAX_AXIS: u64 = 1 << 32;

#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at 0-based position `i`.
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based, inclusive).
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0u64;
        while i > 0 {
            s += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// The time axis after a compaction that keeps `marks` marks: at least
/// twice the marks, so half of it is free, rounded up to a power of two,
/// and never shorter than `current`.
///
/// # Panics
///
/// Panics when the axis would outgrow `u32` slots: past 2^31 unique
/// lines, a 16 GiB Fenwick tree.
fn grown_axis(current: usize, marks: usize) -> usize {
    let axis = current.max((marks * 2).max(16).next_power_of_two());
    assert!(
        axis as u64 <= MAX_AXIS,
        "{marks} unique lines outgrow u32 time slots"
    );
    axis
}

/// Exact reuse-distance engine with a Fenwick tree over logical time.
///
/// # Example
///
/// ```
/// use gsim_mem::mrc::{DistanceEngine, TreeStack};
///
/// let mut e = TreeStack::new();
/// e.record_all([1, 2, 3, 1]);
/// let h = e.finish();
/// assert_eq!(h.cold_accesses(), 3.0);
/// assert_eq!(h.misses_at(3), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct TreeStack {
    fenwick: Fenwick,
    /// line address -> time slot of its most recent access. Every line
    /// seen holds exactly one mark, so the map's length is the marks'
    /// total, and it never holds more entries than the axis has slots.
    last_slot: LineMap<u32>,
    /// Next free time slot.
    next_slot: usize,
    hist: StackDistanceHistogram,
}

impl Default for TreeStack {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeStack {
    /// Creates an engine with a small initial time axis (it grows/compacts
    /// automatically).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SLOTS)
    }

    /// Creates an engine with a pre-sized time axis; useful when the trace
    /// length is known to avoid early compactions. The line map starts
    /// with room for half the axis, the most marks a compaction keeps, up
    /// to half of [`TreeStack::new`]'s: an axis sized to a trace's length
    /// would otherwise size the map to the trace instead of its lines.
    ///
    /// # Panics
    ///
    /// Panics if `slots` exceeds 2^32.
    pub fn with_capacity(slots: usize) -> Self {
        let slots = grown_axis(slots, 0);
        Self {
            fenwick: Fenwick::new(slots),
            last_slot: LineMap::with_capacity_and_hasher(
                slots.min(DEFAULT_SLOTS) / 2,
                Default::default(),
            ),
            next_slot: 0,
            hist: StackDistanceHistogram::new(),
        }
    }

    /// Rebuilds the time axis, renumbering the surviving marks (one per
    /// unique line) densely in their slot order: a mark's new slot is its
    /// rank on the old axis, so no hash order reaches a result. Amortised
    /// cost is O(log n) per access because a compaction only happens after
    /// at least `capacity - unique` fresh accesses. Slots stay `u32`: see
    /// [`grown_axis`].
    fn compact(&mut self) {
        let marks = self.last_slot.len();
        for slot in self.last_slot.values_mut() {
            *slot = (self.fenwick.prefix(*slot as usize) - 1) as u32;
        }
        let axis = grown_axis(self.fenwick.len(), marks);
        self.fenwick = Fenwick::new(axis);
        for i in 0..marks {
            self.fenwick.add(i, 1);
        }
        self.next_slot = marks;
    }
}

impl DistanceEngine for TreeStack {
    fn record(&mut self, line_addr: u64) {
        if self.next_slot >= self.fenwick.len() {
            self.compact();
        }
        let now = self.next_slot;
        self.next_slot += 1;
        match self.last_slot.insert(line_addr, now as u32) {
            Some(prev) => {
                // Marks strictly after `prev`, which is itself marked: the
                // distinct lines touched in between. `now` is not marked
                // yet, so the map's length is the total.
                let distance = self.last_slot.len() as u64 - self.fenwick.prefix(prev as usize);
                self.hist.add(distance, 1.0);
                self.fenwick.add(prev as usize, -1);
            }
            None => self.hist.add_cold(1.0),
        }
        self.fenwick.add(now, 1);
    }

    fn finish(self) -> StackDistanceHistogram {
        self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::super::naive::NaiveStack;
    use super::*;
    use gsim_rng::Rng64;

    #[test]
    fn matches_naive_on_classic_sequence() {
        let trace = [10u64, 20, 30, 10, 20, 20, 40, 10];
        let mut t = TreeStack::new();
        let mut n = NaiveStack::new();
        t.record_all(trace);
        n.record_all(trace);
        assert_eq!(t.finish(), n.finish());
    }

    #[test]
    fn matches_naive_on_random_trace() {
        let mut rng = Rng64::seed_from_u64(42);
        let trace: Vec<u64> = (0..5000).map(|_| rng.gen_range(0, 500)).collect();
        let mut t = TreeStack::with_capacity(64); // force many compactions
        let mut n = NaiveStack::new();
        t.record_all(trace.iter().copied());
        n.record_all(trace.iter().copied());
        let (ht, hn) = (t.finish(), n.finish());
        for cap in [0u64, 1, 2, 10, 100, 499, 500, 1000] {
            assert_eq!(
                ht.misses_at(cap),
                hn.misses_at(cap),
                "mismatch at capacity {cap}"
            );
        }
    }

    #[test]
    fn compaction_preserves_unique_count() {
        let mut t = TreeStack::with_capacity(16);
        for i in 0..1000u64 {
            t.record(i % 37);
        }
        let h = t.finish();
        assert_eq!(h.cold_accesses(), 37.0);
        assert_eq!(h.total_accesses(), 1000.0);
    }

    #[test]
    fn cyclic_sweep_step_function() {
        let mut t = TreeStack::new();
        let footprint = 256u64;
        for _ in 0..4 {
            t.record_all(0..footprint);
        }
        let h = t.finish();
        // Fits exactly at `footprint` lines; thrashes at one less.
        assert_eq!(h.misses_at(footprint), footprint as f64);
        assert_eq!(h.misses_at(footprint - 1), 4.0 * footprint as f64);
    }

    /// The whole histogram, not a few capacities, on two reuse-heavy
    /// streams long enough for many compactions: a hot set plus a wide
    /// tail, and sweeps whose footprint grows and shrinks. Recorded one
    /// access at a time so the compactions can be counted.
    #[test]
    fn histogram_equals_naive_across_many_compactions() {
        let mut rng = Rng64::seed_from_u64(7);
        let skewed: Vec<u64> = (0..100_000)
            .map(|_| match rng.gen_range(0, 4) {
                0 => rng.gen_range(0, 1500),
                _ => rng.gen_range(0, 48),
            })
            .collect();
        let sweeps: Vec<u64> = (0..)
            .flat_map(|k: u64| 0..100 + k * 37 % 400)
            .take(100_000)
            .collect();
        for trace in [skewed, sweeps] {
            let mut t = TreeStack::with_capacity(16);
            let mut n = NaiveStack::new();
            let mut compactions = 0;
            for &line in &trace {
                let before = t.next_slot;
                t.record(line);
                n.record(line);
                compactions += usize::from(t.next_slot <= before);
            }
            assert!(compactions >= 20, "only {compactions} compactions");
            assert_eq!(t.finish(), n.finish());
        }
    }

    #[test]
    fn axis_reaches_the_u32_slot_bound_at_2_pow_31_lines() {
        assert_eq!(grown_axis(16, 1 << 31), 1 << 32);
        assert_eq!(grown_axis(1 << 20, 100), 1 << 20);
        assert_eq!(grown_axis(16, 1000), 2048);
    }

    #[test]
    #[should_panic(expected = "outgrow u32 time slots")]
    fn axis_past_the_u32_slot_bound_panics() {
        grown_axis(16, (1 << 31) + 1);
    }

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 1);
        f.add(3, 1);
        f.add(7, 1);
        assert_eq!(f.prefix(0), 1);
        assert_eq!(f.prefix(2), 1);
        assert_eq!(f.prefix(3), 2);
        assert_eq!(f.prefix(7), 3);
        f.add(3, -1);
        assert_eq!(f.prefix(7), 2);
    }
}
