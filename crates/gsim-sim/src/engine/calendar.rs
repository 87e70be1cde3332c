//! The engine's calendar: one timing wheel for every pending event of the
//! machine — a parked warp's wake-up and the end of an SM's compute batch
//! (DESIGN.md §10).
//!
//! Events are `u32` ids below the count given to [`Calendar::new`]; an id
//! is pending at most once. The wheel covers the [`SLOTS`] cycles from the
//! last drained one, each slot an intrusive list threaded through `next`,
//! and an occupancy bitmap finds the next non-empty slot. An event further
//! ahead waits in a heap and moves into the wheel once the wheel's span
//! reaches it. The engine drains every cycle that holds an event, in
//! ascending order: each cycle it runs, and it jumps only to the cycle
//! [`Calendar::next`] names.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the wheel spans; a power of two. The longest wake-up on the
/// benchmark's inputs is 919 cycles, so the heap is a fallback for
/// machines like a DRAM-starved one.
const SLOTS: usize = 4096;
const MASK: usize = SLOTS - 1;
const WORDS: usize = SLOTS / 64;
/// The end of a slot's list.
const NIL: u32 = u32::MAX;

pub(super) struct Calendar {
    /// The first event of each slot's list.
    head: Vec<u32>,
    /// `next[id]`: the event after `id` in its slot's list.
    next: Vec<u32>,
    /// Bit `s % 64` of word `s / 64`: slot `s` holds an event.
    occupied: [u64; WORDS],
    /// Events at least `SLOTS` cycles past `cur`, earliest first. Each
    /// lies after every event in the wheel.
    far: BinaryHeap<Reverse<(u64, u32)>>,
    /// The last drained cycle; every pending event lies after it and
    /// every wheel event less than `SLOTS` cycles after it.
    cur: u64,
}

impl Calendar {
    /// An empty calendar for event ids `0..n_ids`.
    pub(super) fn new(n_ids: usize) -> Self {
        Self {
            head: vec![NIL; SLOTS],
            next: vec![NIL; n_ids],
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
            cur: 0,
        }
    }

    /// Schedules event `id` for cycle `at`, which lies after the last
    /// drained cycle.
    #[inline]
    pub(super) fn push(&mut self, id: u32, at: u64) {
        debug_assert!(
            at > self.cur,
            "event at {at} is not after cycle {}",
            self.cur
        );
        if at - self.cur < SLOTS as u64 {
            self.link(id, at);
        } else {
            self.far.push(Reverse((at, id)));
        }
    }

    #[inline]
    fn link(&mut self, id: u32, at: u64) {
        let s = at as usize & MASK;
        self.next[id as usize] = self.head[s];
        self.head[s] = id;
        self.occupied[s / 64] |= 1 << (s % 64);
    }

    /// Hands every event of cycle `now` to `f`, in no particular order.
    /// `now` must not lie past a pending event.
    #[inline]
    pub(super) fn drain(&mut self, now: u64, mut f: impl FnMut(u32)) {
        self.cur = now;
        while let Some(&Reverse((at, id))) = self.far.peek() {
            if at >= now + SLOTS as u64 {
                break;
            }
            debug_assert!(at >= now, "event at {at} skipped by a drain at {now}");
            self.far.pop();
            self.link(id, at);
        }
        let s = now as usize & MASK;
        let mut id = std::mem::replace(&mut self.head[s], NIL);
        self.occupied[s / 64] &= !(1 << (s % 64));
        while id != NIL {
            let next = self.next[id as usize];
            f(id);
            id = next;
        }
    }

    /// The cycle of the earliest pending event.
    pub(super) fn next(&self) -> Option<u64> {
        // The wheel's events lie in the `SLOTS - 1` cycles after `cur`, so
        // scanning the slots circularly from `cur + 1` meets them in order.
        let start = (self.cur as usize + 1) & MASK;
        let (w0, b0) = (start / 64, start % 64);
        // The first word from bit `b0` on, and its low bits again last.
        let slot = (0..=WORDS).find_map(|k| {
            let w = (w0 + k) % WORDS;
            let bits = self.occupied[w] & if k == 0 { !0 << b0 } else { !0 };
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        });
        match slot {
            Some(s) => Some(self.cur + 1 + (s.wrapping_sub(start) & MASK) as u64),
            None => self.far.peek().map(|&Reverse((at, _))| at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_rng::Rng64;

    const SPAN: u64 = SLOTS as u64;

    /// Pushes random ids with delays from 1 to 8× the wheel's span beside
    /// a `BinaryHeap` reference, draining every cycle or only the cycles
    /// `next` names. Every id must come out exactly at its cycle, and
    /// `next` must name the reference's earliest event. Long phases that
    /// keep at most two events pending leave only overflow events now and
    /// then.
    fn check_against_heap(seed: u64, every_cycle: bool) {
        const IDS: u32 = 512;
        const STEPS: u32 = 100_000;
        let mut cal = Calendar::new(IDS as usize);
        let mut want: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let mut free: Vec<u32> = (0..IDS).collect();
        let mut rng = Rng64::seed_from_u64(seed);
        let (mut got, mut due) = (Vec::new(), Vec::new());
        let (mut now, mut delivered, mut far_only, mut wrapped) = (0u64, 0u32, 0u32, 0u32);
        for step in 0..STEPS {
            let cap = if step % 50_000 < 10_000 { IDS } else { 2 };
            got.clear();
            cal.drain(now, |id| got.push(id));
            due.clear();
            while let Some(&Reverse((at, id))) = want.peek() {
                if at > now {
                    break;
                }
                assert_eq!(at, now, "seed {seed}: the calendar skipped cycle {at}");
                want.pop();
                due.push(id);
            }
            got.sort_unstable();
            due.sort_unstable();
            assert_eq!(got, due, "seed {seed}, cycle {now}");
            delivered += got.len() as u32;
            free.extend_from_slice(&got);
            while free.len() as u32 > IDS - cap && rng.gen_bool(0.4) {
                let id = free.swap_remove(rng.gen_range(0, free.len() as u64) as usize);
                let delay = match rng.gen_range(0, 4) {
                    // Either side of the wheel's edge.
                    0 => rng.gen_range(SPAN - 2, SPAN + 2),
                    1 => rng.gen_range(1, 8 * SPAN + 1),
                    _ => rng.gen_range(1, 64),
                };
                cal.push(id, now + delay);
                want.push(Reverse((now + delay, id)));
            }
            let next = cal.next();
            assert_eq!(
                next,
                want.peek().map(|r| r.0 .0),
                "seed {seed}, cycle {now}"
            );
            if let Some(t) = next {
                far_only += u32::from(cal.occupied == [0; WORDS]);
                wrapped += u32::from(t as usize & MASK < (now as usize + 1) & MASK);
            }
            now = match next {
                Some(t) if !every_cycle => t,
                // Nothing pending: anywhere past the wheel's edge.
                None if !every_cycle => now + rng.gen_range(1, 3 * SPAN),
                _ => now + 1,
            };
        }
        assert!(
            delivered > STEPS / 50 && far_only > 0 && wrapped > 0,
            "seed {seed}: {delivered} delivered, {far_only} overflow-only, {wrapped} wrapped"
        );
    }

    #[test]
    fn drains_every_event_at_its_cycle_like_a_heap() {
        for seed in [1, 2, 0xca1e] {
            check_against_heap(seed, true);
            check_against_heap(seed, false);
        }
    }
}
