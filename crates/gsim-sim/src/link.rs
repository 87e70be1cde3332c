//! A shared bandwidth-limited channel.

/// Statistics of a [`BandwidthLink`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Transfers served.
    pub transfers: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Accumulated queueing delay in cycles (time spent waiting for the
    /// channel, excluding service time).
    pub queue_cycles: f64,
}

impl LinkStats {
    /// Mean queueing delay per transfer; 0 if no transfers.
    pub fn mean_queue_cycles(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.queue_cycles / self.transfers as f64
        }
    }
}

/// A work-conserving channel with a fixed service bandwidth.
///
/// A transfer of `b` bytes submitted at time `t` starts at
/// `max(t, previous completion)` and occupies the channel for
/// `b / bytes_per_cycle` cycles. This first-order queueing model captures
/// exactly what the paper's scaling methodology depends on: a bandwidth
/// ceiling whose pressure is felt through growing latencies.
///
/// # Example
///
/// ```
/// use gsim_sim::noc::BandwidthLink;
///
/// let mut link = BandwidthLink::new(128.0); // 128 B/cycle
/// assert_eq!(link.transfer(0.0, 128), 1.0);
/// assert_eq!(link.transfer(0.0, 128), 2.0); // queues behind the first
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    bytes_per_cycle: f64,
    next_free: f64,
    stats: LinkStats,
}

impl BandwidthLink {
    /// Creates a link with a service rate of `bytes_per_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive and finite.
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle > 0.0 && bytes_per_cycle.is_finite(),
            "bandwidth must be positive and finite, got {bytes_per_cycle}"
        );
        Self {
            bytes_per_cycle,
            next_free: 0.0,
            stats: LinkStats::default(),
        }
    }

    /// Creates a link from a bandwidth in GB/s and a clock in GHz
    /// (GB/s ÷ GHz = bytes/cycle).
    pub fn from_gbs(gbs: f64, clock_ghz: f64) -> Self {
        assert!(clock_ghz > 0.0, "clock must be positive");
        Self::new(gbs / clock_ghz)
    }

    /// Service rate in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Submits a transfer of `bytes` at time `now` (cycles); returns the
    /// completion time.
    pub fn transfer(&mut self, now: f64, bytes: u32) -> f64 {
        let start = self.next_free.max(now);
        let done = start + f64::from(bytes) / self.bytes_per_cycle;
        self.next_free = done;
        self.stats.transfers += 1;
        self.stats.bytes += u64::from(bytes);
        self.stats.queue_cycles += start - now;
        done
    }

    /// Time at which the channel becomes free.
    pub fn next_free(&self) -> f64 {
        self.next_free
    }

    /// Utilisation over `elapsed_cycles`: fraction of time the channel was
    /// busy. Clamped to `[0, 1]`.
    pub fn utilization(&self, elapsed_cycles: f64) -> f64 {
        if elapsed_cycles <= 0.0 {
            return 0.0;
        }
        (self.stats.bytes as f64 / self.bytes_per_cycle / elapsed_cycles).clamp(0.0, 1.0)
    }

    /// Statistics so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Resets the queue and statistics.
    pub fn reset(&mut self) {
        self.next_free = 0.0;
        self.stats = LinkStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_bytes_over_bandwidth() {
        let mut l = BandwidthLink::new(64.0);
        assert_eq!(l.transfer(10.0, 128), 12.0);
    }

    #[test]
    fn queueing_accumulates() {
        let mut l = BandwidthLink::new(128.0);
        l.transfer(0.0, 1280); // busy until 10
        let done = l.transfer(2.0, 128);
        assert_eq!(done, 11.0);
        assert_eq!(l.stats().queue_cycles, 8.0);
        assert!(l.stats().mean_queue_cycles() > 0.0);
    }

    #[test]
    fn idle_gap_is_not_reclaimed() {
        let mut l = BandwidthLink::new(128.0);
        l.transfer(0.0, 128); // done at 1
        let done = l.transfer(100.0, 128);
        assert_eq!(done, 101.0, "work-conserving, no retroactive service");
    }

    #[test]
    fn from_gbs_converts_units() {
        let l = BandwidthLink::from_gbs(2700.0, 1.0);
        assert!((l.bytes_per_cycle() - 2700.0).abs() < 1e-9);
        let l = BandwidthLink::from_gbs(900.0, 1.7);
        assert!((l.bytes_per_cycle() - 529.411).abs() < 1e-2);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut l = BandwidthLink::new(100.0);
        l.transfer(0.0, 500); // 5 cycles busy
        assert!((l.utilization(10.0) - 0.5).abs() < 1e-12);
        assert_eq!(l.utilization(0.0), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut l = BandwidthLink::new(100.0);
        l.transfer(0.0, 1000);
        l.reset();
        assert_eq!(l.stats(), LinkStats::default());
        assert_eq!(l.next_free(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = BandwidthLink::new(0.0);
    }
}
