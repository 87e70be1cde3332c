//! The SM ↔ LLC crossbar.

use crate::link::{BandwidthLink, LinkStats};

/// A crossbar NoC characterised by its bisection bandwidth and a fixed
/// per-traversal latency, as in the paper's configurations (Table III:
/// crossbar, 2.7 TB/s).
///
/// Every request and response between the SMs and the LLC slices is charged
/// against the bisection-bandwidth channel; the completion time of a
/// traversal is the channel completion plus the hop latency. Under light
/// load a traversal costs just the hop latency plus its own serialisation
/// time; as offered load approaches the bisection bandwidth, queueing delay
/// grows without bound — which is precisely the congestion behaviour that
/// makes proportional resource scaling matter.
///
/// # Example
///
/// ```
/// use gsim_sim::noc::Crossbar;
///
/// let mut noc = Crossbar::from_gbs(2700.0, 1.0, 20);
/// let arrive = noc.traverse(0.0, 128);
/// assert!(arrive >= 20.0);
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    bisection: BandwidthLink,
    hop_latency: u32,
}

impl Crossbar {
    /// Creates a crossbar with `bytes_per_cycle` bisection bandwidth and a
    /// fixed `hop_latency` in cycles.
    pub fn new(bytes_per_cycle: f64, hop_latency: u32) -> Self {
        Self {
            bisection: BandwidthLink::new(bytes_per_cycle),
            hop_latency,
        }
    }

    /// Creates a crossbar from a bisection bandwidth in GB/s at `clock_ghz`.
    pub fn from_gbs(gbs: f64, clock_ghz: f64, hop_latency: u32) -> Self {
        Self {
            bisection: BandwidthLink::from_gbs(gbs, clock_ghz),
            hop_latency,
        }
    }

    /// Sends `bytes` across the crossbar at time `now`; returns the arrival
    /// time at the destination (queueing + serialisation + hop latency).
    pub fn traverse(&mut self, now: f64, bytes: u32) -> f64 {
        self.bisection.transfer(now, bytes) + f64::from(self.hop_latency)
    }

    /// Fixed traversal latency in cycles.
    pub fn hop_latency(&self) -> u32 {
        self.hop_latency
    }

    /// Bisection bandwidth in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bisection.bytes_per_cycle()
    }

    /// Channel statistics.
    pub fn stats(&self) -> LinkStats {
        self.bisection.stats()
    }

    /// Bisection utilisation over `elapsed_cycles`.
    pub fn utilization(&self, elapsed_cycles: f64) -> f64 {
        self.bisection.utilization(elapsed_cycles)
    }

    /// Resets queue state and statistics.
    pub fn reset(&mut self) {
        self.bisection.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traversal_includes_hop_latency() {
        let mut x = Crossbar::new(128.0, 20);
        assert_eq!(x.traverse(0.0, 128), 21.0);
    }

    #[test]
    fn congestion_grows_latency() {
        let mut x = Crossbar::new(128.0, 20);
        let mut last = 0.0;
        for _ in 0..100 {
            last = x.traverse(0.0, 128);
        }
        assert_eq!(last, 120.0, "100 serialised lines at 1 cycle each + hop");
        assert!(x.stats().mean_queue_cycles() > 10.0);
    }

    #[test]
    fn proportionally_scaled_crossbars_behave_identically_per_sm() {
        // An F-times smaller crossbar serving F-times less traffic sees the
        // same queueing — the premise of proportional resource scaling.
        let mut big = Crossbar::new(2700.0, 20);
        let mut small = Crossbar::new(2700.0 / 8.0, 20);
        let mut last_big = 0.0;
        let mut last_small = 0.0;
        for i in 0..800 {
            last_big = big.traverse(0.0, 128);
            if i % 8 == 0 {
                last_small = small.traverse(0.0, 128);
            }
        }
        let rel = (last_big - last_small).abs() / last_big;
        assert!(rel < 0.05, "relative completion gap {rel}");
    }
}
