//! Tracking of in-flight LLC fills.
//!
//! The timing simulator keeps, per memory partition, the set of lines whose
//! DRAM fill has not yet landed in the LLC: a hit on such a line must wait
//! for the in-flight fill instead of completing at tag latency. The naive
//! representation (a `HashMap` probed on every LLC hit plus a periodic
//! `retain` rescan) sits on the simulator's hottest path; [`FillTracker`]
//! keeps the same observable behaviour while skipping the probe entirely
//! once every tracked fill has completed, and bounding the cost of stale
//! entries with an amortized purge that never rescans more than once per
//! doubling of the map.

use crate::linehash::LineMap;

/// Minimum purge threshold. Purging is invisible to probes: a landed fill
/// answers `None` whether or not it is still stored.
const MIN_PURGE_AT: usize = 8192;

/// In-flight fill completion times, keyed by line address.
///
/// Semantically a `HashMap<line, fill_done_cycle>` with two fast paths:
///
/// * **Empty-horizon probe skip** — the tracker remembers the maximum
///   `fill_done` ever inserted; once `now` passes it, every entry is stale,
///   so a probe clears the map and answers without hashing.
/// * **Amortized purge** — stale entries are evicted in bulk only when the
///   map doubles past a threshold, so the per-insert cost stays O(1)
///   amortized and no purge rescans a mostly-live map.
///
/// # Example
///
/// ```
/// use gsim_mem::FillTracker;
///
/// let mut t = FillTracker::new();
/// t.insert(7, 100, 50);
/// assert_eq!(t.fill_after(7, 60), Some(100)); // still in flight
/// assert_eq!(t.fill_after(7, 100), None); // landed exactly now
/// assert_eq!(t.fill_after(9, 60), None); // never requested
/// ```
#[derive(Debug, Clone, Default)]
pub struct FillTracker {
    map: LineMap<u64>,
    /// Latest fill completion time currently tracked; 0 when empty.
    max_done: u64,
    /// Purge the map when its length reaches this.
    purge_at: usize,
}

impl FillTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self {
            map: LineMap::default(),
            max_done: 0,
            purge_at: MIN_PURGE_AT,
        }
    }

    /// Completion time of the in-flight fill for `line`, if it is still
    /// strictly in the future at `now`.
    #[inline]
    pub fn fill_after(&mut self, line: u64, now: u64) -> Option<u64> {
        if now >= self.max_done {
            // Every tracked fill has landed; drop them all so subsequent
            // probes are a single branch.
            if !self.map.is_empty() {
                self.map.clear();
            }
            return None;
        }
        match self.map.get(&line) {
            Some(&done) if done > now => Some(done),
            _ => None,
        }
    }

    /// Records that `line`'s fill completes at `done`. `now` drives the
    /// amortized purge of entries that have already landed.
    #[inline]
    pub fn insert(&mut self, line: u64, done: u64, now: u64) {
        if self.map.len() >= self.purge_at {
            self.map.retain(|_, d| *d > now);
            self.purge_at = (self.map.len() * 2).max(MIN_PURGE_AT);
        }
        self.max_done = self.max_done.max(done);
        self.map.insert(line, done);
    }

    /// Number of tracked (possibly stale) entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entry is tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_before_and_after_fill() {
        let mut t = FillTracker::new();
        t.insert(1, 100, 0);
        assert_eq!(t.fill_after(1, 50), Some(100));
        assert_eq!(t.fill_after(1, 99), Some(100));
        assert_eq!(t.fill_after(1, 100), None);
        assert_eq!(t.fill_after(1, 150), None);
    }

    #[test]
    fn unknown_line_is_none() {
        let mut t = FillTracker::new();
        t.insert(1, 100, 0);
        assert_eq!(t.fill_after(2, 50), None);
    }

    #[test]
    fn horizon_pass_clears_map() {
        let mut t = FillTracker::new();
        t.insert(1, 100, 0);
        t.insert(2, 90, 0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.fill_after(3, 100), None);
        assert!(t.is_empty());
        // A later insert restarts tracking.
        t.insert(4, 200, 100);
        assert_eq!(t.fill_after(4, 150), Some(200));
    }

    #[test]
    fn reinsert_overwrites_completion_time() {
        let mut t = FillTracker::new();
        t.insert(1, 100, 0);
        t.insert(1, 300, 0);
        assert_eq!(t.fill_after(1, 200), Some(300));
    }

    #[test]
    fn purge_drops_stale_entries_only() {
        let mut t = FillTracker::new();
        // Fill past the purge threshold with stale entries...
        for l in 0..MIN_PURGE_AT as u64 {
            t.insert(l, 10, 0);
        }
        // ...then insert at a time past their completion: the purge fires.
        t.insert(u64::MAX, 1_000, 500);
        assert_eq!(t.len(), 1);
        assert_eq!(t.fill_after(u64::MAX, 600), Some(1_000));
    }
}
