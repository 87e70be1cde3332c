//! Cache geometry: capacity, associativity, line size, and the derived
//! set count / index mapping.

use std::fmt;

/// Geometry of a set-associative cache.
///
/// The paper's caches are always described by capacity, associativity and a
/// 128 B line (Table I and Table III); the number of sets follows. Capacities
/// that are not an exact multiple of `ways * line_bytes` are rounded down to
/// the nearest whole number of sets (with a minimum of one set), mirroring
/// how simulators like Accel-Sim accept "34 MB total" style configurations.
///
/// # Example
///
/// ```
/// use gsim_mem::CacheGeometry;
///
/// let g = CacheGeometry::new(512 * 1024, 64, 128); // one paper LLC slice
/// assert_eq!(g.sets(), 64);
/// assert_eq!(g.capacity_bytes(), 512 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
    line_bytes: u32,
}

impl CacheGeometry {
    /// Creates a geometry for a cache of (at most) `capacity_bytes`,
    /// `ways`-way set-associative with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, `line_bytes` is zero or not a power of two,
    /// or `capacity_bytes` is smaller than one line.
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        assert!(
            capacity_bytes >= u64::from(line_bytes),
            "capacity {capacity_bytes} smaller than one {line_bytes} B line"
        );
        let way_bytes = u64::from(ways) * u64::from(line_bytes);
        let sets = (capacity_bytes / way_bytes).max(1);
        let sets = u32::try_from(sets).expect("set count exceeds u32");
        Self {
            sets,
            ways,
            line_bytes,
        }
    }

    /// Creates a geometry directly from a set count.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `line_bytes` is not a power of two.
    pub fn from_sets(sets: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(sets > 0 && ways > 0, "sets and ways must be non-zero");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        Self {
            sets,
            ways,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity (lines per set).
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total capacity in bytes actually realised by this geometry.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * u64::from(self.line_bytes)
    }

    /// Total number of lines the cache can hold.
    pub fn lines(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways)
    }

    /// Set index for a line address (byte address already shifted by the
    /// line size). Plain modulo indexing, as in real caches: consecutive
    /// lines spread perfectly evenly over the sets.
    #[inline]
    pub fn set_index(&self, line_addr: u64) -> u32 {
        rem(line_addr, self.sets) as u32
    }
}

/// `x % n`. Every index of the per-line path divides by a count fixed at
/// run time — sets, slices, controllers — that is a power of two on all
/// the paper's machines: those take the mask, the rest the division.
/// (`n & (n - 1)` because `is_power_of_two` is a population count, a
/// dozen instructions on the baseline x86-64 this builds for.)
#[inline]
pub(crate) fn rem(x: u64, n: u32) -> u64 {
    debug_assert!(n > 0);
    if n & n.wrapping_sub(1) == 0 {
        x & u64::from(n.wrapping_sub(1))
    } else {
        x % u64::from(n)
    }
}

/// `x.ceil() as u64` for every `f64` (NaN and negatives give 0, values
/// past `u64::MAX` saturate), without the call: `f64::ceil` is a libm
/// routine on the baseline x86-64 this builds for, and every memory
/// completion time passes through here.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cap = self.capacity_bytes();
        if cap >= 1024 * 1024 {
            write!(
                f,
                "{:.3} MB, {}-way, {} B lines",
                cap as f64 / (1024.0 * 1024.0),
                self.ways,
                self.line_bytes
            )
        } else {
            write!(
                f,
                "{} KB, {}-way, {} B lines",
                cap / 1024,
                self.ways,
                self.line_bytes
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_set_count_from_capacity() {
        let g = CacheGeometry::new(48 * 1024, 6, 128);
        assert_eq!(g.sets(), 64);
        assert_eq!(g.ways(), 6);
        assert_eq!(g.capacity_bytes(), 48 * 1024);
    }

    #[test]
    fn paper_llc_slice_geometry() {
        // Table I caption: 64-way, 64 sets, 128 B lines = 512 KB per slice.
        let g = CacheGeometry::from_sets(64, 64, 128);
        assert_eq!(g.capacity_bytes(), 512 * 1024);
        assert_eq!(g.lines(), 4096);
    }

    #[test]
    fn rounds_down_to_whole_sets() {
        // 100 KB with 6-way 128 B lines: way_bytes = 768, 102400/768 = 133 sets.
        let g = CacheGeometry::new(100 * 1024, 6, 128);
        assert_eq!(g.sets(), 133);
        assert!(g.capacity_bytes() <= 100 * 1024);
    }

    #[test]
    fn tiny_capacity_clamps_to_one_set() {
        let g = CacheGeometry::new(128, 4, 128);
        assert_eq!(g.sets(), 1);
        assert_eq!(g.ways(), 4);
    }

    #[test]
    fn set_index_in_range() {
        let g = CacheGeometry::new(2 * 1024 * 1024, 64, 128);
        for addr in [0u64, 1, 63, 64, 12345, u64::MAX >> 7] {
            assert!(g.set_index(addr) < g.sets());
        }
    }

    #[test]
    fn sequential_lines_spread_evenly_over_sets() {
        let g = CacheGeometry::from_sets(64, 4, 128);
        let mut counts = vec![0u32; 64];
        for i in 0..6400u64 {
            counts[g.set_index(i) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "modulo indexing is exact");
    }

    #[test]
    fn ceil_u64_equals_ceil_cast() {
        let edges = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.5,
            -0.5,
            1.0,
            1.5,
            -1.0,
            2f64.powi(52) + 0.5,
            2f64.powi(53) - 1.0,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64) - 2048.0,
            2f64.powi(64),
            2f64.powi(65),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in edges {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
        }
        let mut rng = gsim_rng::Rng64::seed_from_u64(0xce11);
        for _ in 0..1_000_000 {
            let bits = rng.next_u64();
            // Any bit pattern, and a value of every magnitude below 2^61
            // with a fractional part (random patterns are mostly huge or tiny).
            for x in [f64::from_bits(bits), (bits >> (bits % 64)) as f64 / 8.0] {
                assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e} ({:#x})", x.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        let _ = CacheGeometry::new(1024, 2, 100);
    }

    #[test]
    fn display_is_nonempty() {
        let g = CacheGeometry::new(48 * 1024, 6, 128);
        assert!(!format!("{g}").is_empty());
        let g = CacheGeometry::new(34 * 1024 * 1024, 64, 128);
        assert!(format!("{g}").contains("MB"));
    }
}
