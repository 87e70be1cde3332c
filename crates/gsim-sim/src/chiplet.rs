//! Multi-chip-module (MCM) GPU configuration (paper Table V) and its
//! inter-chiplet interconnect.

use gsim_trace::MemScale;

use crate::config::GpuConfig;
use crate::link::BandwidthLink;

/// Configuration of a multi-chiplet GPU: `n_chiplets` identical chiplets,
/// each described by a per-chiplet [`GpuConfig`], connected by a fly
/// topology giving every chiplet a fixed-bandwidth channel.
///
/// Following the paper's scale-model principle, the chiplet configuration
/// is fixed and only the chiplet *count* (and with it the inter-chiplet
/// network, aggregate memory bandwidth and SM count) scales with system
/// size.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipletConfig {
    /// Number of chiplets.
    pub n_chiplets: u32,
    /// Per-chiplet GPU configuration.
    pub chiplet: GpuConfig,
    /// Inter-chiplet channel bandwidth per chiplet, GB/s (Table V: 900).
    pub interchiplet_gbs_per_chiplet: f64,
    /// Chiplet-crossing latency in cycles.
    pub interchiplet_latency: u32,
    /// Page granularity for first-touch placement, in 128 B lines
    /// (32 lines = 4 KB pages). Must be a power of two.
    pub page_lines: u32,
}

impl ChipletConfig {
    /// The paper's MCM system (Table V) with `n_chiplets` chiplets:
    /// 64 SMs per chiplet at 1.7 GHz, 18 MB LLC over 64 slices per
    /// chiplet, 1.7 TB/s intra-chiplet crossbar, 900 GB/s per-chiplet
    /// inter-chiplet fly network, 8 MCs totalling 1.2 TB/s per chiplet,
    /// distributed CTA scheduling and first-touch page allocation.
    ///
    /// # Panics
    ///
    /// Panics if `n_chiplets` is zero.
    pub fn paper_mcm(n_chiplets: u32, scale: MemScale) -> Self {
        assert!(n_chiplets > 0, "need at least one chiplet");
        let chiplet = GpuConfig {
            n_sms: 64,
            sm_clock_ghz: 1.7,
            llc_bytes_total: scale.to_model_bytes(18 * 1024 * 1024),
            llc_slices: 64,
            noc_gbs: 1700.0,
            dram_gbs_per_mc: 150.0,
            n_mcs: 8,
            ..GpuConfig::baseline_128sm(scale)
        };
        Self {
            n_chiplets,
            chiplet,
            interchiplet_gbs_per_chiplet: 900.0,
            interchiplet_latency: 80,
            page_lines: 32,
        }
    }

    /// Total SMs across all chiplets.
    pub fn total_sms(&self) -> u32 {
        self.n_chiplets * self.chiplet.n_sms
    }

    /// Aggregate LLC capacity over all chiplets, model-unit bytes.
    pub fn llc_bytes_total(&self) -> u64 {
        self.chiplet.llc_bytes_total * u64::from(self.n_chiplets)
    }
}

/// The inter-chiplet network of the paper's MCM case study (Table V): a
/// "fly" topology giving each chiplet a dedicated ingress/egress channel of
/// 900 GB/s, plus a fixed chiplet-crossing latency.
///
/// A remote access from chiplet `src` to data homed on chiplet `dst`
/// occupies the egress channel of `src` and the ingress channel of `dst`
/// (modelled as one shared per-chiplet channel each way, which is what
/// bounds throughput in a fly/point-to-multipoint topology).
///
/// # Example
///
/// ```
/// use gsim_sim::noc::ChipletInterconnect;
///
/// let mut icn = ChipletInterconnect::from_gbs(4, 900.0, 1.7, 60);
/// let arrive = icn.traverse(0.0, 0, 2, 128);
/// assert!(arrive >= 60.0);
/// ```
#[derive(Debug, Clone)]
pub struct ChipletInterconnect {
    egress: Vec<BandwidthLink>,
    ingress: Vec<BandwidthLink>,
    crossing_latency: u32,
}

impl ChipletInterconnect {
    /// Creates an interconnect for `n_chiplets` chiplets with
    /// `bytes_per_cycle` per-chiplet channel bandwidth and a fixed
    /// `crossing_latency` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `n_chiplets` is zero.
    pub fn new(n_chiplets: u32, bytes_per_cycle: f64, crossing_latency: u32) -> Self {
        assert!(n_chiplets > 0, "need at least one chiplet");
        Self {
            egress: (0..n_chiplets)
                .map(|_| BandwidthLink::new(bytes_per_cycle))
                .collect(),
            ingress: (0..n_chiplets)
                .map(|_| BandwidthLink::new(bytes_per_cycle))
                .collect(),
            crossing_latency,
        }
    }

    /// Creates an interconnect from per-chiplet bandwidth in GB/s at
    /// `clock_ghz`.
    pub fn from_gbs(
        n_chiplets: u32,
        gbs_per_chiplet: f64,
        clock_ghz: f64,
        crossing_latency: u32,
    ) -> Self {
        Self::new(n_chiplets, gbs_per_chiplet / clock_ghz, crossing_latency)
    }

    /// Number of chiplets.
    pub fn n_chiplets(&self) -> u32 {
        self.egress.len() as u32
    }

    /// Fixed crossing latency in cycles.
    pub fn crossing_latency(&self) -> u32 {
        self.crossing_latency
    }

    /// Moves `bytes` from chiplet `src` to chiplet `dst` starting at `now`;
    /// returns the arrival time. A local transfer (`src == dst`) is free.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn traverse(&mut self, now: f64, src: u32, dst: u32, bytes: u32) -> f64 {
        if src == dst {
            return now;
        }
        let sent = self.egress[src as usize].transfer(now, bytes);
        let received = self.ingress[dst as usize].transfer(sent, bytes);
        received + f64::from(self.crossing_latency)
    }

    /// Total bytes crossed between chiplets (counted once, at egress).
    pub fn total_bytes(&self) -> u64 {
        self.egress.iter().map(|l| l.stats().bytes).sum()
    }

    /// Resets all channels.
    pub fn reset(&mut self) {
        for l in self.egress.iter_mut().chain(self.ingress.iter_mut()) {
            l.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_transfer_is_free() {
        let mut icn = ChipletInterconnect::new(4, 128.0, 60);
        assert_eq!(icn.traverse(5.0, 2, 2, 4096), 5.0);
        assert_eq!(icn.total_bytes(), 0);
    }

    #[test]
    fn remote_transfer_pays_latency_and_serialisation() {
        let mut icn = ChipletInterconnect::new(4, 128.0, 60);
        let t = icn.traverse(0.0, 0, 1, 128);
        assert_eq!(t, 62.0); // 1 cycle egress + 1 cycle ingress + 60
        assert_eq!(icn.total_bytes(), 128);
    }

    #[test]
    fn hot_home_chiplet_saturates_its_ingress() {
        let mut icn = ChipletInterconnect::new(4, 128.0, 0);
        let mut last = 0.0f64;
        // Chiplets 1..3 all push to chiplet 0.
        for i in 0..300u32 {
            let src = 1 + (i % 3);
            last = last.max(icn.traverse(0.0, src, 0, 128));
        }
        // 300 lines through one 1-line/cycle ingress ≈ 300 cycles.
        assert!(
            last >= 299.0,
            "ingress of the home chiplet is the bottleneck"
        );
    }

    #[test]
    fn disjoint_pairs_proceed_in_parallel() {
        let mut icn = ChipletInterconnect::new(4, 128.0, 0);
        let a = icn.traverse(0.0, 0, 1, 128);
        let b = icn.traverse(0.0, 2, 3, 128);
        assert_eq!(a, 2.0);
        assert_eq!(b, 2.0, "independent chiplet pairs do not contend");
    }

    #[test]
    #[should_panic(expected = "at least one chiplet")]
    fn rejects_zero_chiplets() {
        let _ = ChipletInterconnect::new(0, 128.0, 0);
    }

    #[test]
    fn table_5_values() {
        let mcm = ChipletConfig::paper_mcm(16, MemScale::full());
        assert_eq!(mcm.total_sms(), 1024); // 16 chiplets x 64 SMs
        assert_eq!(mcm.chiplet.sm_clock_ghz, 1.7);
        assert_eq!(mcm.chiplet.llc_bytes_total, 18 * 1024 * 1024);
        assert_eq!(mcm.chiplet.llc_slices, 64);
        assert!((mcm.chiplet.dram_gbs_total() - 1200.0).abs() < 1e-9);
        assert_eq!(mcm.interchiplet_gbs_per_chiplet, 900.0);
    }

    #[test]
    fn chiplet_scaling_keeps_chiplet_fixed() {
        let c16 = ChipletConfig::paper_mcm(16, MemScale::default());
        let c4 = ChipletConfig::paper_mcm(4, MemScale::default());
        assert_eq!(c4.chiplet, c16.chiplet);
        assert_eq!(c4.total_sms(), 256);
        assert_eq!(c4.llc_bytes_total() * 4, c16.llc_bytes_total());
    }

    #[test]
    fn page_lines_power_of_two() {
        let mcm = ChipletConfig::paper_mcm(4, MemScale::default());
        assert!(mcm.page_lines.is_power_of_two());
    }
}
