//! Miss-status holding registers (MSHRs).
//!
//! The paper's L1 configuration (Table III) provides 384 MSHRs per SM.
//! An MSHR tracks an outstanding miss to one cache line; further misses to
//! the same line while the fill is in flight merge into the existing entry
//! instead of issuing duplicate memory traffic.

use std::collections::hash_map::Entry;

use crate::linehash::LineMap;

/// Outcome of registering a miss with the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss to this line: a new entry was allocated and a memory
    /// request must be sent.
    Allocated,
    /// A miss to a line that already has an entry; the new requester
    /// piggybacks on that fill. The fill completion time of the primary
    /// miss is returned.
    Merged(u64),
    /// No free MSHR entry: the requester must stall and retry. No entry
    /// was added.
    Full,
}

/// A fixed-capacity MSHR file keyed by line address.
///
/// Completion times are tracked in cycles so merged (secondary) misses can
/// reuse the primary miss's fill time. Entries are released lazily: only a
/// miss that finds the file full retires the fills that have landed by
/// then, so a landed entry may still answer a merge until that happens.
///
/// The capacity never throttles a load: the timing engine's flush handles
/// [`MshrOutcome::Full`] like [`MshrOutcome::Allocated`], waiting for its
/// own fill with no entry added and no stall. `Full` only bounds merges:
/// a miss that finds no free entry cannot be merged into later. Table
/// III's 384 entries per SM stay a printed value, not a limit on
/// outstanding fills.
///
/// The file keeps the footprint [`Mshr::new`] gave it. A release rebuilds
/// the table from the entries still in flight instead of erasing the
/// landed ones in place, which would leave tombstones behind and make the
/// table grow into twice its buckets.
///
/// # Example
///
/// ```
/// use gsim_mem::{Mshr, MshrOutcome};
///
/// let mut m = Mshr::new(1);
/// assert_eq!(m.register(7, 100, 0), MshrOutcome::Allocated);
/// assert_eq!(m.register(7, 150, 10), MshrOutcome::Merged(100));
/// assert_eq!(m.register(8, 150, 10), MshrOutcome::Full);
/// assert_eq!(m.fill_in_flight(7, 10), Some(100));
/// // At cycle 100 the fill of line 7 has landed: its entry is released.
/// assert_eq!(m.register(8, 220, 100), MshrOutcome::Allocated);
/// assert_eq!(m.fill_in_flight(7, 100), None);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    pending: LineMap<u64>,
    /// The entries a release keeps, reused from one release to the next.
    keep: Vec<(u64, u64)>,
    /// The latest fill time ever allocated: no fill is in flight at or
    /// after it.
    last_fill: u64,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        Self {
            capacity,
            pending: LineMap::with_capacity_and_hasher(capacity.min(1024), Default::default()),
            keep: Vec::new(),
            last_fill: 0,
        }
    }

    /// Registers, at cycle `now`, a miss to `line_addr` whose fill will
    /// complete at `fill_done` (cycles). A miss that finds the file full
    /// first releases every entry whose fill has landed (`<= now`). See
    /// [`MshrOutcome`].
    pub fn register(&mut self, line_addr: u64, fill_done: u64, now: u64) -> MshrOutcome {
        if self.is_full() {
            self.complete_up_to(now);
        }
        let full = self.is_full();
        match self.pending.entry(line_addr) {
            Entry::Occupied(e) => MshrOutcome::Merged(*e.get()),
            Entry::Vacant(_) if full => MshrOutcome::Full,
            Entry::Vacant(e) => {
                e.insert(fill_done);
                self.last_fill = self.last_fill.max(fill_done);
                MshrOutcome::Allocated
            }
        }
    }

    /// The completion time of `line_addr`'s fill if it is still in flight
    /// at cycle `now` (lands after `now`). While no fill can be in flight
    /// this answers without a probe.
    #[inline]
    pub fn fill_in_flight(&self, line_addr: u64, now: u64) -> Option<u64> {
        if self.last_fill <= now {
            return None;
        }
        self.pending_fill(line_addr).filter(|&done| done > now)
    }

    /// The probe itself stays a call from the engine: the early-out above
    /// is inlined into its caller, the table lookup is not.
    fn pending_fill(&self, line_addr: u64) -> Option<u64> {
        self.pending.get(&line_addr).copied()
    }

    fn is_full(&self) -> bool {
        self.pending.len() >= self.capacity
    }

    /// Releases every entry whose fill time is `<= now`. The table is
    /// cleared, which keeps its allocation and leaves no tombstone, and the
    /// entries still in flight go back in.
    fn complete_up_to(&mut self, now: u64) {
        self.keep.clear();
        self.keep.extend(
            self.pending
                .iter()
                .filter(|&(_, &done)| done > now)
                .map(|(&line, &done)| (line, done)),
        );
        if self.keep.len() < self.pending.len() {
            self.pending.clear();
            self.pending.extend(self.keep.iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_rng::Rng64;

    #[test]
    fn allocate_then_merge() {
        let mut m = Mshr::new(4);
        assert_eq!(m.register(1, 50, 0), MshrOutcome::Allocated);
        assert_eq!(m.register(1, 999, 1), MshrOutcome::Merged(50));
        assert_eq!(m.pending.len(), 1);
    }

    #[test]
    fn full_file_rejects_new_lines_but_still_merges() {
        let mut m = Mshr::new(2);
        assert_eq!(m.register(1, 10, 0), MshrOutcome::Allocated);
        assert_eq!(m.register(2, 20, 0), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.register(3, 30, 5), MshrOutcome::Full);
        assert_eq!(m.register(1, 99, 5), MshrOutcome::Merged(10));
        assert_eq!(m.pending.len(), 2);
    }

    #[test]
    fn complete_frees_entry() {
        let mut m = Mshr::new(1);
        assert_eq!(m.register(1, 10, 0), MshrOutcome::Allocated);
        assert_eq!(m.register(2, 20, 9), MshrOutcome::Full);
        // The fill has landed: the next miss releases its entry.
        assert_eq!(m.register(2, 20, 10), MshrOutcome::Allocated);
        assert_eq!(m.pending_fill(1), None);
    }

    #[test]
    fn complete_up_to_retires_finished_fills() {
        let mut m = Mshr::new(8);
        m.register(1, 10, 0);
        m.register(2, 20, 0);
        m.register(3, 30, 0);
        m.complete_up_to(20);
        assert_eq!(m.pending.len(), 1);
        assert_eq!(m.pending_fill(3), Some(30));
    }

    /// The engine's use — misses until the file is full, then a release on
    /// each miss that finds it so — with fills 200–600 cycles ahead, as on
    /// a memory-bound run. Erasing in place would leave tombstones and grow
    /// a 384-entry file's table from 448 slots to 896.
    #[test]
    fn the_table_keeps_the_capacity_it_was_built_with() {
        let mut rng = Rng64::seed_from_u64(0x5eed_0384);
        let mut m = Mshr::new(384);
        let built = m.pending.capacity();
        let mut now = 0;
        for _ in 0..100_000 {
            now += rng.gen_range(0, 20);
            let line = rng.gen_range(0, 1 << 20);
            m.register(line, now + rng.gen_range(200, 601), now);
            assert!(
                m.pending.capacity() <= built,
                "{} > {built}",
                m.pending.capacity()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }
}
