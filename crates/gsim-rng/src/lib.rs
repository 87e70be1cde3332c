//! Small, deterministic, dependency-free PRNGs.
//!
//! The workspace needs random numbers in two places: the synthetic
//! workload generators (runtime) and randomized tests. Both must be
//! reproducible from a seed and must not pull in external crates (the
//! build has to succeed without network access), so this crate provides
//! the two classic generators those uses need:
//!
//! * [`SplitMix64`] — a tiny stateless-feeling stream generator, used to
//!   expand one `u64` seed into independent streams.
//! * [`Rng64`] — xoshiro256\*\*, seeded via SplitMix64 as its authors
//!   recommend; fast, 256-bit state, passes BigCrush. This is the
//!   workhorse generator.
//!
//! Sequences are stable: the same seed always yields the same stream, on
//! every platform, forever — simulator traces depend on it.
//!
//! ```
//! use gsim_rng::Rng64;
//!
//! let mut a = Rng64::seed_from_u64(42);
//! let mut b = Rng64::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.next_f64() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Sebastiano Vigna's SplitMix64: one multiply-xorshift round per output.
///
/// Used to derive per-stream seeds and to bootstrap [`Rng64`] state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Produces the next value in the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* (Blackman & Vigna), the general-purpose generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Seeds the generator by expanding `seed` through [`SplitMix64`],
    /// as the xoshiro reference implementation recommends.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Produces the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with the full 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniform integer in `[lo, hi)` via Lemire rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Lemire's multiply-shift with rejection of the biased zone.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        self.gen_range(lo, hi + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0, from the reference C code.
        let mut sm = SplitMix64::new(0);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // Stability check: these values must never change.
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
        assert_eq!(second, 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = Rng64::seed_from_u64(99);
        let mut b = Rng64::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from_u64(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng64::seed_from_u64(11);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.gen_range(10, 20);
            assert!((10..20).contains(&v));
            let w = r.gen_range_inclusive(1, 3);
            assert!((1..=3).contains(&w));
            seen_lo |= w == 1;
            seen_hi |= w == 3;
        }
        assert!(seen_lo && seen_hi);
        assert_eq!(r.gen_range(5, 6), 5, "singleton range");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng64::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((0.29..0.31).contains(&frac), "frac {frac}");
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut r = Rng64::seed_from_u64(17);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0, 8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }
}
