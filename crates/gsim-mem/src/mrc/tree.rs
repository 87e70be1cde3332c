//! Exact single-pass reuse distances in O(log n) per access.
//!
//! This is the tree-accelerated formulation of the Mattson stack used by
//! single-pass MRC tools (Conte et al.): each line's most recent access is
//! marked at its (logical) time position on a rank axis; the stack
//! distance of a new access to the line is the number of marks strictly
//! after its previous access, i.e. the number of *distinct* lines touched in
//! between. The time axis is compacted whenever it fills up, so the engine
//! handles arbitrarily long traces in O(u) memory for u unique lines.
//!
//! The axis keeps one mark bit per slot in `u64` words and a Fenwick tree
//! over the words' mark counts, so a prefix count is one masked popcount
//! plus a walk over 64× fewer entries than slots, and [`TreeStack::new`]'s
//! 64 Ki slots take 12 KiB (8 KiB of bits, 4 KiB of counts). A
//! compaction renumbers every mark from one running rank per word and
//! builds the new axis already filled, in time linear in the axis.

use super::histogram::StackDistanceHistogram;
use super::DistanceEngine;
use crate::LineMap;

/// Time axis of [`TreeStack::new`].
const DEFAULT_SLOTS: usize = 1 << 16;

/// Longest time axis: slots are stored as `u32`.
const MAX_AXIS: u64 = 1 << 32;

/// Slots per word of the rank bitmap.
const WORD: usize = 64;

/// The time axis: one mark bit per slot, packed into words, and a Fenwick
/// tree over the words' mark counts.
#[derive(Debug, Clone)]
struct RankAxis {
    /// Bit `s % 64` of word `s / 64` is set when slot `s` is marked.
    words: Vec<u64>,
    /// 1-based Fenwick tree: entry `i` counts the marks of words
    /// `i - lowbit(i) .. i`. Entry 0 is unused.
    counts: Vec<u32>,
}

impl RankAxis {
    /// An axis of `slots` slots, a whole number of words, whose first
    /// `marks` slots are marked: the words and the counts are written
    /// directly, in time linear in the axis.
    fn filled(slots: usize, marks: usize) -> Self {
        debug_assert!(slots.is_multiple_of(WORD) && marks <= slots);
        let n = slots / WORD;
        let mut words = vec![0u64; n];
        let full = marks / WORD;
        words[..full].fill(u64::MAX);
        if !marks.is_multiple_of(WORD) {
            words[full] = (1 << (marks % WORD)) - 1;
        }
        // Marks in the first `w` words.
        let marks_below = |w: usize| (w * WORD).min(marks) as u32;
        let counts = (0..=n)
            .map(|i| marks_below(i) - marks_below(i - (i & i.wrapping_neg())))
            .collect();
        Self { words, counts }
    }

    fn len(&self) -> usize {
        self.words.len() * WORD
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        self.words[slot / WORD] |= 1 << (slot % WORD);
        self.add(slot / WORD, 1);
    }

    #[inline]
    fn unmark(&mut self, slot: usize) {
        self.words[slot / WORD] &= !(1 << (slot % WORD));
        self.add(slot / WORD, u32::MAX);
    }

    /// Adds `delta` (wrapping: `u32::MAX` is −1) to word `word`'s count.
    #[inline]
    fn add(&mut self, word: usize, delta: u32) {
        let mut i = word + 1;
        while i < self.counts.len() {
            self.counts[i] = self.counts[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Marks in slots `0..=slot`.
    #[inline]
    fn prefix(&self, slot: usize) -> u64 {
        let w = slot / WORD;
        let in_word = self.words[w] & (u64::MAX >> (WORD - 1 - slot % WORD));
        let mut s = u64::from(in_word.count_ones());
        let mut i = w;
        while i > 0 {
            s += u64::from(self.counts[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Marks before each word, in one pass over the words.
    fn word_ranks(&self) -> Vec<u32> {
        let mut rank = 0;
        self.words
            .iter()
            .map(|w| {
                let before = rank;
                rank += w.count_ones();
                before
            })
            .collect()
    }

    /// Marks strictly before `slot`, given [`RankAxis::word_ranks`].
    fn rank(&self, word_ranks: &[u32], slot: usize) -> u32 {
        let below = self.words[slot / WORD] & ((1 << (slot % WORD)) - 1);
        word_ranks[slot / WORD] + below.count_ones()
    }
}

/// The time axis after a compaction that keeps `marks` marks: at least
/// twice the marks, so half of it is free, rounded up to a power of two,
/// and never shorter than `current`; always whole words of the bitmap.
///
/// # Panics
///
/// Panics when the axis would outgrow `u32` slots: past 2^31 unique
/// lines.
fn grown_axis(current: usize, marks: usize) -> usize {
    let axis = current
        .next_multiple_of(WORD)
        .max((marks * 2).max(WORD).next_power_of_two());
    assert!(
        axis as u64 <= MAX_AXIS,
        "{marks} unique lines outgrow u32 time slots"
    );
    axis
}

/// Exact reuse-distance engine with a rank axis over logical time.
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
    axis: RankAxis,
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
    /// length is known to avoid early compactions. The axis is rounded up
    /// to a whole number of 64-slot words. The line map starts with room
    /// for half the axis, the most marks a compaction keeps, up to half of
    /// [`TreeStack::new`]'s: an axis sized to a trace's length would
    /// otherwise size the map to the trace instead of its lines.
    ///
    /// # Panics
    ///
    /// Panics if `slots` exceeds 2^32.
    pub fn with_capacity(slots: usize) -> Self {
        let slots = grown_axis(slots, 0);
        Self {
            axis: RankAxis::filled(slots, 0),
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
    /// rank on the old axis, so no hash order reaches a result. The ranks
    /// come from one running count per word plus one masked popcount per
    /// mark, and the new axis is built with its first `marks` slots
    /// marked, so a compaction is linear in the axis; it only happens
    /// after at least `capacity - unique` fresh accesses. Slots stay
    /// `u32`: see [`grown_axis`].
    fn compact(&mut self) {
        let marks = self.last_slot.len();
        let ranks = self.axis.word_ranks();
        for slot in self.last_slot.values_mut() {
            *slot = self.axis.rank(&ranks, *slot as usize);
        }
        self.axis = RankAxis::filled(grown_axis(self.axis.len(), marks), marks);
        self.next_slot = marks;
    }
}

impl DistanceEngine for TreeStack {
    fn record(&mut self, line_addr: u64) {
        if self.next_slot >= self.axis.len() {
            self.compact();
        }
        let now = self.next_slot;
        self.next_slot += 1;
        // One probe for a reuse: the slot is overwritten in place.
        if let Some(slot) = self.last_slot.get_mut(&line_addr) {
            let prev = std::mem::replace(slot, now as u32) as usize;
            // Marks strictly after `prev`, which is itself marked: the
            // distinct lines touched in between. `now` is not marked
            // yet, so the map's length is the total.
            let distance = self.last_slot.len() as u64 - self.axis.prefix(prev);
            self.hist.add(distance, 1.0);
            self.axis.unmark(prev);
        } else {
            self.last_slot.insert(line_addr, now as u32);
            self.hist.add_cold(1.0);
        }
        self.axis.mark(now);
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
        let mut a = RankAxis::filled(256, 0);
        for slot in [0, 3, 7, 64, 200] {
            a.mark(slot);
        }
        assert_eq!(a.prefix(0), 1);
        assert_eq!(a.prefix(2), 1);
        assert_eq!(a.prefix(3), 2);
        assert_eq!(a.prefix(7), 3);
        assert_eq!(a.prefix(63), 3);
        assert_eq!(a.prefix(64), 4);
        assert_eq!(a.prefix(255), 5);
        a.unmark(3);
        assert_eq!(a.prefix(7), 2);
        assert_eq!(a.prefix(255), 4);
    }

    /// Slot `i` of `marks` is 1 when marked: the axis's specification.
    fn assert_axis_is(a: &RankAxis, marks: &[u32]) {
        assert_eq!(a.len(), marks.len());
        let ranks = a.word_ranks();
        let mut before = 0;
        for (slot, &m) in marks.iter().enumerate() {
            assert_eq!(a.rank(&ranks, slot), before, "rank of slot {slot}");
            before += m;
            assert_eq!(a.prefix(slot), u64::from(before), "prefix of slot {slot}");
        }
    }

    /// Seeded marks, unmarks and prefix counts, most of them on the first
    /// and last two slots of a word, against a plain `Vec` of marks.
    #[test]
    fn rank_axis_matches_a_vec_of_marks() {
        let mut rng = Rng64::seed_from_u64(0xA715);
        for slots in [64usize, 128, 4096] {
            let mut a = RankAxis::filled(slots, 0);
            let mut marks = vec![0u32; slots];
            for step in 0..20_000 {
                let word = rng.gen_range(0, (slots / WORD) as u64) as usize;
                let offset = match rng.gen_range(0, 6) {
                    0 => 0,
                    1 => 1,
                    2 => WORD - 2,
                    3 => WORD - 1,
                    _ => rng.gen_range(0, WORD as u64) as usize,
                };
                let slot = word * WORD + offset;
                if rng.gen_range(0, 3) == 0 {
                    let want: u32 = marks[..=slot].iter().sum();
                    assert_eq!(
                        a.prefix(slot),
                        u64::from(want),
                        "{slots} slots, step {step}"
                    );
                } else if marks[slot] == 1 {
                    a.unmark(slot);
                    marks[slot] = 0;
                } else {
                    a.mark(slot);
                    marks[slot] = 1;
                }
            }
            assert_axis_is(&a, &marks);
        }
    }

    #[test]
    fn filled_axis_marks_exactly_its_prefix() {
        for (slots, filled) in [
            (64, 0),
            (64, 64),
            (128, 63),
            (128, 64),
            (4096, 1000),
            (4096, 2048),
        ] {
            let mut marks = vec![0u32; slots];
            marks[..filled].fill(1);
            assert_axis_is(&RankAxis::filled(slots, filled), &marks);
        }
    }

    /// Full histograms against the naive stack from the smallest axis, on
    /// a cyclic sweep of 128 lines, whose compactions keep whole words of
    /// marks (64, then 128), and on a random trace.
    #[test]
    fn compactions_from_the_smallest_axis_match_naive() {
        let mut rng = Rng64::seed_from_u64(0xC0FF);
        let random: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0, 300)).collect();
        let cyclic: Vec<u64> = (0..20_000).map(|i| i % 128).collect();
        for (trace, whole_words) in [(cyclic, true), (random, false)] {
            let mut t = TreeStack::with_capacity(16);
            let mut n = NaiveStack::new();
            let mut kept = Vec::new();
            for &line in &trace {
                if t.next_slot >= t.axis.len() {
                    kept.push(t.last_slot.len());
                }
                t.record(line);
                n.record(line);
            }
            assert!(kept.len() >= 10, "only {} compactions", kept.len());
            if whole_words {
                assert!(kept.iter().all(|m| m % WORD == 0), "{kept:?}");
            }
            assert_eq!(t.finish(), n.finish());
        }
    }

    #[test]
    fn axis_is_whole_words() {
        assert_eq!(TreeStack::with_capacity(16).axis.len(), 64);
        assert_eq!(TreeStack::with_capacity(100).axis.len(), 128);
        assert_eq!(grown_axis(100, 10), 128);
        assert_eq!(grown_axis(192, 100), 256);
    }
}
