//! The memory-miniature scale factor.

use std::fmt;

/// Uniform down-scaling of all *capacities* (workload footprints, L1 and
/// LLC sizes) by a common divisor.
///
/// The paper runs benchmarks with up to 1.4 GB footprints for billions of
/// instructions on server farms; to make a full reproduction run on one
/// machine in minutes, this workspace shrinks every capacity by the same
/// factor (default 8) while keeping all *rates* (bandwidths, clock,
/// instruction mix) untouched. Because the prediction methodology operates
/// on intensive quantities — IPC, MPKI, the memory-stall fraction — and on
/// capacity *ratios* (does the working set fit the LLC at this scale?),
/// this rescaling preserves every qualitative conclusion; DESIGN.md §5
/// documents the substitution.
///
/// All tables and figures are still reported in paper units: use
/// [`MemScale::to_model_lines`] when building workloads/configs and
/// [`MemScale::to_paper_bytes`] when labelling output.
///
/// # Example
///
/// ```
/// use gsim_trace::MemScale;
///
/// let s = MemScale::default(); // divisor 8
/// let lines = s.mb_to_model_lines(33.0); // dct's 33 MB footprint
/// assert_eq!(lines, 33_792);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemScale {
    divisor: u32,
}

impl Default for MemScale {
    /// The divisor used throughout the reproduction: 8.
    fn default() -> Self {
        Self { divisor: 8 }
    }
}

impl MemScale {
    /// Creates a scale with an explicit divisor (1 = full size).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn new(divisor: u32) -> Self {
        assert!(divisor > 0, "divisor must be positive");
        Self { divisor }
    }

    /// Full-size (divisor 1) scale, for small unit-test workloads.
    pub const fn full() -> Self {
        Self { divisor: 1 }
    }

    /// The divisor.
    pub fn divisor(&self) -> u32 {
        self.divisor
    }

    /// Converts a paper-units byte capacity to model-units bytes.
    pub const fn to_model_bytes(&self, paper_bytes: u64) -> u64 {
        let bytes = paper_bytes / self.divisor as u64;
        if bytes == 0 {
            1
        } else {
            bytes
        }
    }

    /// Converts a model-units byte capacity back to paper-units bytes.
    pub fn to_paper_bytes(&self, model_bytes: u64) -> u64 {
        model_bytes * u64::from(self.divisor)
    }

    /// Converts a paper-units byte capacity to model-units 128 B lines.
    pub fn to_model_lines(&self, paper_bytes: u64) -> u64 {
        (self.to_model_bytes(paper_bytes) / 128).max(1)
    }

    /// Converts a paper-units capacity in MB to model-units lines.
    pub fn mb_to_model_lines(&self, paper_mb: f64) -> u64 {
        assert!(paper_mb > 0.0, "capacity must be positive");
        self.to_model_lines((paper_mb * 1024.0 * 1024.0) as u64)
    }
}

impl fmt::Display for MemScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "1/{} memory miniature", self.divisor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_divisor_is_eight() {
        assert_eq!(MemScale::default().divisor(), 8);
    }

    #[test]
    fn round_trips_bytes() {
        let s = MemScale::new(8);
        assert_eq!(s.to_model_bytes(34 * 1024 * 1024), 34 * 1024 * 1024 / 8);
        assert_eq!(s.to_paper_bytes(s.to_model_bytes(4096)), 4096);
    }

    #[test]
    fn full_scale_is_identity() {
        let s = MemScale::full();
        assert_eq!(s.to_model_bytes(1000), 1000);
        assert_eq!(s.to_model_lines(128 * 10), 10);
    }

    #[test]
    fn mb_conversion_matches_paper_numbers() {
        let s = MemScale::new(8);
        // dct: 33 MB -> 33 * 1024 * 1024 / 8 / 128 lines.
        assert_eq!(s.mb_to_model_lines(33.0), 33 * 1024 * 1024 / 8 / 128);
    }

    #[test]
    fn never_scales_to_zero() {
        let s = MemScale::new(1000);
        assert_eq!(s.to_model_bytes(10), 1);
        assert_eq!(s.to_model_lines(10), 1);
    }

    #[test]
    #[should_panic(expected = "divisor must be positive")]
    fn rejects_zero_divisor() {
        let _ = MemScale::new(0);
    }
}
