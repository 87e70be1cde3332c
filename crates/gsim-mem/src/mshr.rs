//! Miss-status holding registers (MSHRs).
//!
//! The paper's L1 configuration (Table III) provides 384 MSHRs per SM.
//! An MSHR tracks an outstanding miss to one cache line; further misses to
//! the same line while the fill is in flight merge into the existing entry
//! instead of issuing duplicate memory traffic.

use crate::linehash::LineMap;

/// Outcome of registering a miss with the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss to this line: a new entry was allocated and a memory
    /// request must be sent.
    Allocated,
    /// A miss to a line that already has an outstanding request; the new
    /// requester piggybacks on the in-flight fill. The fill completion time
    /// of the primary miss is returned.
    Merged(u64),
    /// No free MSHR entry: the requester must stall and retry. No state was
    /// modified.
    Full,
}

/// A fixed-capacity MSHR file keyed by line address.
///
/// Completion times are tracked in cycles so merged (secondary) misses can
/// reuse the primary miss's fill time.
///
/// # Example
///
/// ```
/// use gsim_mem::{Mshr, MshrOutcome};
///
/// let mut m = Mshr::new(2);
/// assert_eq!(m.register(7, 100), MshrOutcome::Allocated);
/// assert_eq!(m.register(7, 100), MshrOutcome::Merged(100));
/// m.complete(7);
/// assert_eq!(m.register(7, 120), MshrOutcome::Allocated);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    pending: LineMap<u64>,
    merges: u64,
    allocations: u64,
    full_stalls: u64,
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
            merges: 0,
            allocations: 0,
            full_stalls: 0,
        }
    }

    /// Registers a miss to `line_addr` whose fill will complete at
    /// `fill_done` (cycles). See [`MshrOutcome`].
    pub fn register(&mut self, line_addr: u64, fill_done: u64) -> MshrOutcome {
        if let Some(&done) = self.pending.get(&line_addr) {
            self.merges += 1;
            return MshrOutcome::Merged(done);
        }
        if self.pending.len() >= self.capacity {
            self.full_stalls += 1;
            return MshrOutcome::Full;
        }
        self.pending.insert(line_addr, fill_done);
        self.allocations += 1;
        MshrOutcome::Allocated
    }

    /// Looks up the completion time of an in-flight fill, if any.
    pub fn pending_fill(&self, line_addr: u64) -> Option<u64> {
        self.pending.get(&line_addr).copied()
    }

    /// Releases the entry for `line_addr` once its fill has completed.
    /// Returns `true` if an entry existed.
    pub fn complete(&mut self, line_addr: u64) -> bool {
        self.pending.remove(&line_addr).is_some()
    }

    /// Releases every entry whose fill time is `<= now`, returning how many
    /// were freed. This lets the simulator lazily retire fills.
    pub fn complete_up_to(&mut self, now: u64) -> usize {
        let before = self.pending.len();
        self.pending.retain(|_, done| *done > now);
        before - self.pending.len()
    }

    /// Number of in-flight entries.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Whether no entry is free.
    pub fn is_full(&self) -> bool {
        self.pending.len() >= self.capacity
    }

    /// Total primary-miss allocations.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total secondary misses merged into in-flight entries.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Times a requester found the file full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = Mshr::new(4);
        assert_eq!(m.register(1, 50), MshrOutcome::Allocated);
        assert_eq!(m.register(1, 999), MshrOutcome::Merged(50));
        assert_eq!(m.merges(), 1);
        assert_eq!(m.allocations(), 1);
        assert_eq!(m.in_flight(), 1);
    }

    #[test]
    fn full_file_rejects_new_lines_but_still_merges() {
        let mut m = Mshr::new(2);
        assert_eq!(m.register(1, 10), MshrOutcome::Allocated);
        assert_eq!(m.register(2, 20), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.register(3, 30), MshrOutcome::Full);
        assert_eq!(m.register(1, 99), MshrOutcome::Merged(10));
        assert_eq!(m.full_stalls(), 1);
    }

    #[test]
    fn complete_frees_entry() {
        let mut m = Mshr::new(1);
        m.register(1, 10);
        assert!(m.complete(1));
        assert!(!m.complete(1));
        assert_eq!(m.register(2, 20), MshrOutcome::Allocated);
    }

    #[test]
    fn complete_up_to_retires_finished_fills() {
        let mut m = Mshr::new(8);
        m.register(1, 10);
        m.register(2, 20);
        m.register(3, 30);
        assert_eq!(m.complete_up_to(20), 2);
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.pending_fill(3), Some(30));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }
}
