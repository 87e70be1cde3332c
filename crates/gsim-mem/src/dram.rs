//! Main-memory bandwidth model.
//!
//! The paper's memory interface is a set of memory controllers (MCs), each
//! providing 145 GB/s (Table I); the scale models scale the MC count with
//! system size. We model each MC as a work-conserving queueing server with a
//! fixed service bandwidth: a request occupies its (address-hashed) MC for
//! `bytes / bytes_per_cycle` cycles starting no earlier than the MC's
//! previous completion, which yields queueing delay under load and an
//! aggregate-bandwidth ceiling, the first-order behaviour that matters for
//! scaling studies.

use crate::geometry::ceil_u64;
use crate::slice::slice_for_line;

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Total requests serviced.
    pub requests: u64,
    /// Total bytes transferred (reads + write-backs).
    pub bytes: u64,
    /// Sum over requests of queueing delay (cycles spent waiting for the MC).
    pub queue_cycles: f64,
}

impl DramStats {
    /// Mean queueing delay per request in cycles; 0 if no requests.
    pub fn mean_queue_cycles(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_cycles / self.requests as f64
        }
    }
}

/// A multi-controller DRAM bandwidth model.
///
/// # Example
///
/// ```
/// use gsim_mem::DramModel;
///
/// // One 145 GB/s controller at 1 GHz: 145 bytes per cycle.
/// let mut dram = DramModel::new(1, 145.0, 1.0, 100);
/// let done = dram.read(0, 0x40, 128);
/// assert!(done > 100); // latency plus service time
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    /// Per-MC time at which the controller becomes free, in cycles.
    next_free: Vec<f64>,
    /// Service bandwidth per MC, bytes per core cycle.
    bytes_per_cycle: f64,
    /// Fixed access latency (row access, on-package transit), cycles.
    latency: u32,
    stats: DramStats,
}

impl DramModel {
    /// Creates a model with `n_mcs` controllers of `gbs_per_mc` GB/s each,
    /// for a core clock of `clock_ghz`, and a fixed `latency` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n_mcs` is zero or bandwidth/clock are non-positive.
    pub fn new(n_mcs: u32, gbs_per_mc: f64, clock_ghz: f64, latency: u32) -> Self {
        assert!(n_mcs > 0, "need at least one memory controller");
        assert!(
            gbs_per_mc > 0.0 && clock_ghz > 0.0,
            "bandwidth and clock must be positive"
        );
        Self {
            next_free: vec![0.0; n_mcs as usize],
            bytes_per_cycle: gbs_per_mc / clock_ghz,
            latency,
            stats: DramStats::default(),
        }
    }

    /// Number of memory controllers.
    pub fn n_mcs(&self) -> u32 {
        self.next_free.len() as u32
    }

    /// The controller owning `line_addr`.
    #[inline]
    pub fn mc_of(&self, line_addr: u64) -> u32 {
        // Shift so that MC interleaving uses different address bits than
        // LLC-slice interleaving.
        slice_for_line(line_addr >> 3, self.n_mcs())
    }

    /// Issues a read of `bytes` for `line_addr` at time `now` (cycles);
    /// returns the completion time, including queueing and fixed latency.
    pub fn read(&mut self, now: u64, line_addr: u64, bytes: u32) -> u64 {
        ceil_u64(self.request(now as f64, line_addr, bytes))
    }

    /// Issues a write-back of `bytes`; write-backs consume bandwidth but the
    /// requester does not wait, so only the bandwidth occupancy matters.
    pub fn write_back(&mut self, now: u64, line_addr: u64, bytes: u32) {
        let _ = self.request(now as f64, line_addr, bytes);
    }

    fn request(&mut self, now: f64, line_addr: u64, bytes: u32) -> f64 {
        let mc = self.mc_of(line_addr) as usize;
        let start = self.next_free[mc].max(now);
        let service = f64::from(bytes) / self.bytes_per_cycle;
        self.next_free[mc] = start + service;
        self.stats.requests += 1;
        self.stats.bytes += u64::from(bytes);
        self.stats.queue_cycles += start - now;
        start + service + f64::from(self.latency)
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Resets queue state and statistics.
    pub fn reset(&mut self) {
        self.next_free.fill(0.0);
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_read_takes_latency_plus_service() {
        let mut d = DramModel::new(1, 128.0, 1.0, 100);
        // 128 bytes at 128 B/cycle = 1 cycle service.
        let done = d.read(10, 0, 128);
        assert_eq!(done, 111);
        assert_eq!(d.stats().requests, 1);
        assert_eq!(d.stats().bytes, 128);
    }

    #[test]
    fn back_to_back_reads_queue() {
        let mut d = DramModel::new(1, 128.0, 1.0, 0);
        let a = d.read(0, 0, 128);
        let b = d.read(0, 0, 128);
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert!(d.stats().queue_cycles > 0.0);
    }

    #[test]
    fn multiple_mcs_increase_parallel_bandwidth() {
        let mut d1 = DramModel::new(1, 128.0, 1.0, 0);
        let mut d4 = DramModel::new(4, 128.0, 1.0, 0);
        let mut last1 = 0;
        let mut last4 = 0;
        for l in 0..64u64 {
            last1 = last1.max(d1.read(0, l * 997, 128));
            last4 = last4.max(d4.read(0, l * 997, 128));
        }
        assert!(
            last4 < last1,
            "4 MCs ({last4}) should drain faster than 1 ({last1})"
        );
    }

    #[test]
    fn write_back_consumes_bandwidth() {
        let mut d = DramModel::new(1, 128.0, 1.0, 0);
        d.write_back(0, 0, 128);
        let done = d.read(0, 0, 128);
        assert_eq!(done, 2, "read queues behind the write-back");
    }

    #[test]
    fn mc_hash_spreads_lines() {
        let d = DramModel::new(8, 145.0, 1.0, 100);
        let mut counts = [0u64; 8];
        for l in 0..8000u64 {
            counts[d.mc_of(l * 8) as usize] += 1;
        }
        for &c in &counts {
            assert!((500..=1600).contains(&c), "unbalanced MC hash: {counts:?}");
        }
    }

    #[test]
    fn clock_scales_service_time() {
        // 145 GB/s at 1 GHz = 145 B/cycle; at 2 GHz cycles are shorter so
        // bytes-per-cycle halves and the same read takes twice the cycles.
        let mut d1 = DramModel::new(1, 145.0, 1.0, 0);
        let mut d2 = DramModel::new(1, 145.0, 2.0, 0);
        assert_eq!(d1.read(0, 0, 1450), 10);
        assert_eq!(d2.read(0, 0, 1450), 20);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut d = DramModel::new(2, 100.0, 1.0, 10);
        d.read(0, 0, 128);
        d.reset();
        assert_eq!(d.stats(), DramStats::default());
        // No queueing left over: the same read completes as on a new model.
        let fresh = DramModel::new(2, 100.0, 1.0, 10).read(0, 0, 128);
        assert_eq!(d.read(0, 0, 128), fresh);
    }
}
