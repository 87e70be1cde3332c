//! Hashing for maps keyed by line address.
//!
//! [`FillTracker`](crate::FillTracker) and [`Mshr`](crate::Mshr) probe a
//! map once or twice per simulated memory instruction; with the standard
//! SipHash the hash alone costs more than the rest of the probe, so these
//! maps hash with one multiply. That gives up SipHash's protection
//! against keys crafted to collide, which matters little here: a hostile
//! trace can only slow down its own simulation, and the runner already
//! bounds that with a deadline. Nothing may depend on the iteration order
//! of these maps; both users only probe, insert, and `retain` by value.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by line address, hashed with [`LineHasher`].
pub(crate) type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Fibonacci hashing of one `u64` key. The high half of the product is
/// folded into the low half because the table takes its bucket index from
/// the low bits and its control byte from the top seven.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("line maps are keyed by u64");
    }

    #[inline]
    fn write_u64(&mut self, line_addr: u64) {
        let h = line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}
