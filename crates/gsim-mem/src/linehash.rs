//! Hashing for maps keyed by a simulated line address, page or id.
//!
//! Every map of the simulator and of the miss-rate-curve engines whose key
//! comes from the simulated program is probed once or more per simulated
//! access; with the standard SipHash the hash alone costs more than the
//! rest of the probe, so these maps hash with one multiply. The users:
//!
//! * [`Mshr`](crate::Mshr) — an SM's outstanding misses, probed on every
//!   L1 miss;
//! * [`TreeStack`](crate::mrc::TreeStack) — each line's last time slot,
//!   probed on every recorded access of the fast path's Stage 1;
//! * the timing engine's CTA table (warps still running per resident
//!   CTA), hit on every CTA dispatch and warp retirement;
//! * the timing engine's page owners (first-touch chiplet placement),
//!   hit on every line request of a multi-chiplet GPU.
//!
//! One multiply gives up SipHash's protection against keys crafted to
//! collide, which matters little here: a hostile trace can only slow down
//! its own simulation or collection, and the runner and the service bound
//! both with a deadline. Nothing may depend on the iteration order of
//! these maps: their users probe, insert and remove by key, `retain` by
//! value, or (`TreeStack`) renumber values by their own order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a simulated line address or page (or, with
/// `K = u32`, an id), hashed with [`LineHasher`].
pub type LineMap<V, K = u64> = HashMap<K, V, BuildHasherDefault<LineHasher>>;

/// Fibonacci hashing of one integer key. The high half of the product is
/// folded into the low half because the table takes its bucket index from
/// the low bits and its control byte from the top seven.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("line maps are keyed by u64 or u32");
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    #[inline]
    fn write_u64(&mut self, line_addr: u64) {
        let h = line_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}
