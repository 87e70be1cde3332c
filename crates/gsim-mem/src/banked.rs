//! Bank- and row-buffer-aware DRAM model.
//!
//! The flat [`DramModel`](crate::DramModel) treats each memory controller
//! as one bandwidth server — the first-order behaviour scaling studies
//! need. This model adds the second-order structure of real GDDR/HBM
//! channels: each controller owns a set of banks with open-row buffers;
//! a request to the open row pays only the CAS latency, while a row miss
//! pays precharge + activate + CAS and occupies the bank, and all data
//! bursts of a controller serialise on its shared data bus. Sequential
//! (row-friendly) streams therefore sustain near-peak bandwidth while
//! random traffic degrades — the usual ~2–3× gap.
//!
//! The timing simulator uses the flat model by default (set
//! `GpuConfig::dram_banks_per_mc`, or `gsim run --banked-dram BANKS`, to
//! enable this one).

use crate::geometry::ceil_u64;
use crate::slice::slice_for_line;

/// Statistics of a [`BankedDramModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BankedDramStats {
    /// Requests serviced.
    pub requests: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that had to precharge + activate.
    pub row_misses: u64,
}

impl BankedDramStats {
    /// Fraction of requests hitting an open row; 0 if no requests.
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    next_free: f64,
}

/// Per-controller timing parameters, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Column access latency (row already open).
    pub t_cas: u32,
    /// Row activate latency.
    pub t_rcd: u32,
    /// Precharge latency (closing a conflicting row).
    pub t_rp: u32,
}

impl Default for DramTiming {
    /// GDDR6-flavoured defaults at a 1 GHz core clock.
    fn default() -> Self {
        Self {
            t_cas: 20,
            t_rcd: 20,
            t_rp: 20,
        }
    }
}

/// A multi-controller DRAM model with banks and open-row buffers.
///
/// # Example
///
/// ```
/// use gsim_mem::{BankedDramModel, DramTiming};
///
/// let mut d = BankedDramModel::new(1, 16, 145.0, 1.0, DramTiming::default());
/// let first = d.read(0, 0, 128);   // row miss: activate + burst + cas
/// let again = d.read(1000, 1, 128); // same row: burst + cas only
/// assert!(again - 1000 < first);
/// # let _ = (first, again);
/// ```
#[derive(Debug, Clone)]
pub struct BankedDramModel {
    banks: Vec<Bank>,
    bus_free: Vec<f64>,
    n_mcs: u32,
    banks_per_mc: u32,
    bytes_per_cycle: f64,
    timing: DramTiming,
    /// Lines per DRAM row (2 KB rows of 128 B lines).
    lines_per_row: u64,
    stats: BankedDramStats,
}

impl BankedDramModel {
    /// Creates a model with `n_mcs` controllers of `banks_per_mc` banks
    /// and `gbs_per_mc` GB/s of data-bus bandwidth each, at `clock_ghz`.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or bandwidth/clock non-positive.
    pub fn new(
        n_mcs: u32,
        banks_per_mc: u32,
        gbs_per_mc: f64,
        clock_ghz: f64,
        timing: DramTiming,
    ) -> Self {
        assert!(n_mcs > 0 && banks_per_mc > 0, "need controllers and banks");
        assert!(
            gbs_per_mc > 0.0 && clock_ghz > 0.0,
            "bandwidth and clock must be positive"
        );
        Self {
            banks: vec![
                Bank {
                    open_row: None,
                    next_free: 0.0
                };
                (n_mcs * banks_per_mc) as usize
            ],
            bus_free: vec![0.0; n_mcs as usize],
            n_mcs,
            banks_per_mc,
            bytes_per_cycle: gbs_per_mc / clock_ghz,
            timing,
            lines_per_row: 16,
            stats: BankedDramStats::default(),
        }
    }

    /// The controller owning `line_addr` (same hash as the flat model).
    #[inline]
    pub fn mc_of(&self, line_addr: u64) -> u32 {
        slice_for_line(line_addr >> 3, self.n_mcs)
    }

    /// Returns `(controller, global bank index)` for a line.
    fn route(&self, line_addr: u64) -> (usize, usize) {
        let mc = self.mc_of(line_addr) as usize;
        let row = line_addr / self.lines_per_row;
        let bank = (row % u64::from(self.banks_per_mc)) as usize;
        (mc, mc * self.banks_per_mc as usize + bank)
    }

    /// Issues a read; returns the completion cycle.
    pub fn read(&mut self, now: u64, line_addr: u64, bytes: u32) -> u64 {
        ceil_u64(self.request(now as f64, line_addr, bytes))
    }

    /// Issues a write-back (fire-and-forget bandwidth/bank occupancy).
    pub fn write_back(&mut self, now: u64, line_addr: u64, bytes: u32) {
        let _ = self.request(now as f64, line_addr, bytes);
    }

    fn request(&mut self, now: f64, line_addr: u64, bytes: u32) -> f64 {
        let (mc, bank_idx) = self.route(line_addr);
        let row = line_addr / self.lines_per_row;
        let bank = &mut self.banks[bank_idx];
        let start = bank.next_free.max(now);
        // Activation work occupies the bank; the CAS column access is
        // pipelined (it adds latency to the completion but does not hold
        // the bank), so an open-row stream is purely bus-bound.
        let activate = if bank.open_row == Some(row) {
            self.stats.row_hits += 1;
            0.0
        } else {
            self.stats.row_misses += 1;
            let close = if bank.open_row.is_some() {
                f64::from(self.timing.t_rp)
            } else {
                0.0
            };
            bank.open_row = Some(row);
            close + f64::from(self.timing.t_rcd)
        };
        // Data burst serialises on the controller's shared bus.
        let burst = f64::from(bytes) / self.bytes_per_cycle;
        let data_start = (start + activate).max(self.bus_free[mc]);
        self.bus_free[mc] = data_start + burst;
        self.banks[bank_idx].next_free = data_start + burst;
        self.stats.requests += 1;
        self.stats.bytes += u64::from(bytes);
        data_start + burst + f64::from(self.timing.t_cas)
    }

    /// Statistics so far.
    pub fn stats(&self) -> BankedDramStats {
        self.stats
    }

    /// Resets rows, queues and statistics.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.open_row = None;
            b.next_free = 0.0;
        }
        self.bus_free.fill(0.0);
        self.stats = BankedDramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BankedDramModel {
        BankedDramModel::new(1, 16, 128.0, 1.0, DramTiming::default())
    }

    #[test]
    fn row_hit_is_cheaper_than_row_miss() {
        let mut d = model();
        let miss = d.read(0, 0, 128); // activate + burst + cas
        assert_eq!(miss, 20 + 1 + 20);
        // Second access to the same row, issued much later (bank free).
        let hit = d.read(1000, 1, 128) - 1000;
        assert_eq!(hit, 1 + 20);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = model();
        d.read(0, 0, 128); // opens row 0 of bank 0
                           // Row 16 (line 256) maps to bank 16%16=0 again: conflict.
        let conflict = d.read(1000, 256, 128) - 1000;
        assert_eq!(conflict, 20 + 20 + 1 + 20);
    }

    #[test]
    fn sequential_stream_sustains_near_peak_bandwidth() {
        let mut d = model();
        let mut done = 0;
        let n = 1024u64;
        for l in 0..n {
            done = d.read(0, l, 128);
        }
        // 1024 lines at 1 cycle/line bus time, row hits 15/16.
        let efficiency = n as f64 / done as f64;
        assert!(
            efficiency > 0.85,
            "sequential stream should be bus-bound, got {efficiency}"
        );
        assert!(d.stats().row_hit_rate() > 0.9);
    }

    #[test]
    fn random_traffic_degrades_bandwidth() {
        use gsim_rng::Rng64;
        let mut d = model();
        let mut rng = Rng64::seed_from_u64(3);
        let mut done = 0;
        let n = 1024u64;
        for _ in 0..n {
            done = d.read(0, rng.gen_range(0, 1_000_000), 128);
        }
        let efficiency = n as f64 / done as f64;
        assert!(
            efficiency < 0.6,
            "random traffic should be activate-bound, got {efficiency}"
        );
        assert!(d.stats().row_hit_rate() < 0.2);
    }

    #[test]
    fn banks_provide_parallelism() {
        let mut one = BankedDramModel::new(1, 1, 128.0, 1.0, DramTiming::default());
        let mut many = model();
        let mut t1 = 0;
        let mut t16 = 0;
        // 16 concurrent row misses to distinct rows.
        for r in 0..16u64 {
            let line = r * 16; // one per row -> distinct banks in `many`
            t1 = t1.max(one.read(0, line, 128));
            t16 = t16.max(many.read(0, line, 128));
        }
        assert!(
            t16 < t1 / 2,
            "bank parallelism should overlap activates: 1 bank {t1} vs 16 banks {t16}"
        );
    }

    #[test]
    fn reset_restores_state() {
        let mut d = model();
        d.read(0, 0, 128);
        d.reset();
        assert_eq!(d.stats(), BankedDramStats::default());
        assert_eq!(d.read(0, 0, 128), 41); // full row miss again
    }
}
