//! Exact per-capacity cache replay through one shared tag store.
//!
//! Counts, for several sliced LLC configurations at once, exactly the
//! misses a [`SlicedLlc`](crate::SlicedLlc) of each would take, as the
//! paper's Figure 2 curves must agree with what the timing simulator sees.
//! A configuration *refines* another when its slice and set counts are
//! multiples of the other's. Both indices are residues, so every coarser
//! set is a union of finer sets and, by Mattson's inclusion property set
//! by set, a line resident at the coarser capacity is resident in its
//! finer set too. A *chain* of configurations, each refining the next,
//! therefore stores only its finest member's lines: a line is hashed and
//! searched once, and every member threads its own recency lists through
//! those ways.

use crate::cache::{find, fingerprint, key_of};
use crate::geometry::{rem, CacheGeometry};
use crate::slice::slice_for_line;

/// Nodes of one block: list links are 16-bit block-local numbers.
const MAX_BLOCK_NODES: usize = 1 << 16;

/// Replays accesses through several LLC configurations at once.
///
/// # Example
///
/// ```
/// use gsim_mem::mrc::CapacityReplay;
///
/// let caps = [(64 * 1024, 1), (128 * 1024, 2)];
/// let mut r = CapacityReplay::new(&caps, 16, 128);
/// for pass in 0..2 {
///     for line in 0..700u64 {
///         r.access(line, false);
///     }
/// }
/// let m = r.misses();
/// assert!(m[1] <= m[0], "bigger cache cannot miss more here");
/// ```
#[derive(Debug, Clone)]
pub struct CapacityReplay {
    capacities: Vec<u64>,
    misses: Vec<u64>,
    chains: Vec<Chain>,
}

impl CapacityReplay {
    /// Creates a replay over `(total_bytes, n_slices)` configurations, each
    /// `ways`-way associative with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or any configuration is invalid.
    pub fn new(configs: &[(u64, u32)], ways: u32, line_bytes: u32) -> Self {
        assert!(!configs.is_empty(), "need at least one capacity");
        assert!(ways < 1 << 16, "too many ways for 16-bit links");
        let shapes: Vec<Shape> = configs
            .iter()
            .map(|&(bytes, slices)| {
                assert!(slices > 0, "LLC needs at least one slice");
                let sets = CacheGeometry::new(bytes / u64::from(slices), ways, line_bytes).sets();
                Shape { slices, sets }
            })
            .collect();
        // Finest first: each member of a chain refines every later one,
        // its last (coarsest) member is the shape of its blocks, and a
        // configuration no chain's coarsest member refines founds one.
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(shapes[i].sets_total()));
        let mut chains: Vec<Vec<usize>> = Vec::new();
        for i in order {
            let joins = |members: &&mut Vec<usize>| {
                let (finest, coarsest) = (shapes[members[0]], shapes[members[members.len() - 1]]);
                coarsest.refines(shapes[i])
                    && finest.per(shapes[i]) * (ways as usize + 1) <= MAX_BLOCK_NODES
            };
            match chains.iter_mut().find(joins) {
                Some(members) => members.push(i),
                None => chains.push(vec![i]),
            }
        }
        Self {
            misses: vec![0; configs.len()],
            capacities: configs.iter().map(|&(b, _)| b).collect(),
            chains: chains
                .into_iter()
                .map(|members| Chain::new(members, &shapes, ways as usize))
                .collect(),
        }
    }

    /// Feeds one line access to every configuration. Writes allocate like
    /// reads, so `is_write` never changes a miss count.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr` needs more than 62 bits.
    pub fn access(&mut self, line_addr: u64, is_write: bool) {
        let _ = is_write;
        for chain in &mut self.chains {
            chain.access(line_addr, &mut self.misses);
        }
    }

    /// Nominal capacities in bytes, in construction order.
    pub fn capacities(&self) -> &[u64] {
        &self.capacities
    }

    /// Miss counts per configuration, in construction order.
    pub fn misses(&self) -> Vec<u64> {
        self.misses.clone()
    }

    /// MPKI per configuration given the total *instruction* count of the
    /// traced execution (thread instructions, per the paper's definition).
    pub fn mpki(&self, total_instructions: u64) -> Vec<f64> {
        let k = total_instructions as f64 / 1000.0;
        self.misses
            .iter()
            .map(|&m| if k > 0.0 { m as f64 / k } else { 0.0 })
            .collect()
    }
}

/// Slice and per-slice set counts of a configuration, or of a block.
#[derive(Debug, Clone, Copy)]
struct Shape {
    slices: u32,
    sets: u32,
}

impl Shape {
    fn sets_total(self) -> u64 {
        u64::from(self.slices) * u64::from(self.sets)
    }

    /// Whether every set of `coarse` is a union of sets of `self`.
    fn refines(self, coarse: Shape) -> bool {
        self.slices.is_multiple_of(coarse.slices) && self.sets.is_multiple_of(coarse.sets)
    }

    /// Sets of `self` per set of a shape it refines.
    fn per(self, coarse: Shape) -> usize {
        (self.sets_total() / coarse.sets_total()) as usize
    }
}

/// Configurations sharing one tag store, laid out in *blocks*: the finest
/// sets of one set of the coarsest member, so every member set lies inside
/// one block and its list links are block-local.
#[derive(Debug, Clone)]
struct Chain {
    /// Construction-order index of each member, finest first.
    members: Vec<usize>,
    finest: Shape,
    ways: usize,
    /// Per finest set, slice-major: its block, and its number there.
    place: Vec<(usize, usize)>,
    /// `lists[s * members + m]`: member `m`'s set holding a block's finest
    /// set `s`, numbered within the block.
    lists: Vec<u16>,
    /// One allocation per block, each well under the allocator's mmap
    /// threshold: freeing a mapped store-sized buffer after every replay
    /// raised glibc's threshold and left the timing simulations' buffers
    /// in its heaps (+2.5 MB, a third, of `serve_miss_full`'s peak RSS).
    blocks: Vec<Block>,
}

/// The ways of one block, then one list sentinel per member set.
#[derive(Debug, Clone)]
struct Block {
    /// Tag words of the block's finest sets, set-major.
    tags: Vec<u64>,
    /// Per finest set, its fingerprints padded to whole 8-byte words.
    fingerprints: Vec<u8>,
    /// Per member, per node: `[next, prev]` in that member's list, `next`
    /// towards older lines, or `[node, node]` while off the list.
    links: Vec<[u16; 2]>,
    /// `fill[j * members + m]`: lines member `m` holds in its set `j`.
    fill: Vec<u16>,
}

impl Chain {
    fn new(members: Vec<usize>, shapes: &[Shape], ways: usize) -> Self {
        let n = members.len();
        let (finest, block) = (shapes[members[0]], shapes[members[n - 1]]);
        let (bs, bt) = (block.slices as usize, block.sets as usize);
        let (block_sets, cols) = (finest.per(block), finest.sets as usize / bt);
        // A set's number in its block is `row * cols + col`, on each
        // member's own grid of rows and columns.
        let lists = (0..block_sets * n)
            .map(|i| {
                let (s, shape) = (i / n, shapes[members[i % n]]);
                let (rows_m, cols_m) = (shape.slices as usize / bs, shape.sets as usize / bt);
                (s / cols % rows_m * cols_m + s % cols % cols_m) as u16
            })
            .collect();
        let place = (0..finest.sets_total() as usize)
            .map(|g| (g / finest.sets as usize, g % finest.sets as usize))
            .map(|(s, t)| (s % bs * bt + t % bt, s / bs * cols + t / bt))
            .collect();
        let empty = Block {
            tags: vec![0; block_sets * ways],
            fingerprints: vec![0; block_sets * ways.next_multiple_of(8)],
            links: (0..n * block_sets * (ways + 1))
                .map(|i| [(i % (block_sets * (ways + 1))) as u16; 2])
                .collect(),
            fill: vec![0; block_sets * n],
        };
        let blocks = vec![empty; block.sets_total() as usize];
        Self {
            members,
            finest,
            ways,
            place,
            lists,
            blocks,
        }
    }

    #[inline]
    fn access(&mut self, line_addr: u64, misses: &mut [u64]) {
        let key = key_of(line_addr).expect("line address exceeds the tag store's 62 bits");
        let (n, ways, padded) = (self.members.len(), self.ways, self.ways.next_multiple_of(8));
        let slice = slice_for_line(line_addr, self.finest.slices) as usize;
        let set = slice * self.finest.sets as usize + rem(line_addr, self.finest.sets) as usize;
        let (block, set) = self.place[set];
        let b = &mut self.blocks[block];
        let (first, sentinels, nodes) = (set * ways, b.tags.len(), b.links.len() / n);
        let lists = &self.lists[set * n..][..n];
        let fingerprints = &mut b.fingerprints[set * padded..][..padded];
        let on_list = |list: &[[u16; 2]], node: usize| list[node] != [node as u16; 2];
        let found = find(&b.tags[first..][..ways], fingerprints, line_addr);
        let way = match found {
            Some(w) => first + w,
            // Member 0 is the finest configuration: its list holds this
            // set's ways, oldest last, and it fills them in order.
            None => {
                let held = usize::from(b.fill[set * n]);
                let way = if held < ways {
                    first + held
                } else {
                    usize::from(b.links[sentinels + set][1])
                };
                b.tags[way] = key;
                fingerprints[way - first] = fingerprint(line_addr);
                way
            }
        };
        for (m, &j) in lists.iter().enumerate() {
            let head = sentinels + usize::from(j);
            let list = &mut b.links[m * nodes..][..nodes];
            if found.is_some() && on_list(list, way) {
                if usize::from(list[way][1]) != head {
                    unlink(list, way);
                    push(list, way, head);
                }
                continue;
            }
            misses[self.members[m]] += 1;
            // A reused way's old line may still be on this list: inclusion
            // makes it the oldest line of a full set, so this miss evicts it.
            let held = &mut b.fill[usize::from(j) * n + m];
            let full = usize::from(*held) == ways;
            debug_assert!(!on_list(list, way) || full && usize::from(list[head][1]) == way);
            if full {
                unlink(list, usize::from(list[head][1]));
            } else {
                *held += 1;
            }
            push(list, way, head);
        }
    }
}

/// Takes `node` out of `list` (one member's links, see [`Block::links`]).
fn unlink(list: &mut [[u16; 2]], node: usize) {
    let [next, prev] = list[node];
    list[usize::from(prev)][0] = next;
    list[usize::from(next)][1] = prev;
    list[node] = [node as u16; 2];
}

/// Links `node` in as the newest line of the list headed by `head`.
fn push(list: &mut [[u16; 2]], node: usize, head: usize) {
    let newest = list[head][0];
    list[node] = [newest, head as u16];
    list[usize::from(newest)][1] = node as u16;
    list[head][0] = node as u16;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_capacity_catches_cyclic_reuse() {
        // 700 lines of footprint: thrashes a 512-line cache, fits 1024.
        let caps = [(512 * 128, 1), (1024 * 128, 1)];
        let mut r = CapacityReplay::new(&caps, 64, 128);
        for _ in 0..4 {
            for l in 0..700u64 {
                r.access(l, false);
            }
        }
        let m = r.misses();
        assert!(
            m[0] > 3 * m[1],
            "small cache should thrash: {m:?} (small vs large)"
        );
        assert_eq!(m[1], 700, "large cache takes only cold misses");
    }

    #[test]
    fn mpki_scales_with_instruction_count() {
        let mut r = CapacityReplay::new(&[(64 * 1024, 1)], 16, 128);
        for l in 0..1000u64 {
            r.access(l, false);
        }
        let mpki = r.mpki(1_000_000);
        assert!(
            (mpki[0] - 1.0).abs() < 1e-9,
            "1000 misses / 1000 kilo-instrs"
        );
        assert_eq!(r.mpki(0), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one capacity")]
    fn rejects_empty_config() {
        let _ = CapacityReplay::new(&[], 16, 128);
    }

    #[test]
    #[should_panic(expected = "16-bit links")]
    fn rejects_ways_its_links_cannot_number() {
        let _ = CapacityReplay::new(&[(1 << 24, 1)], 1 << 16, 128);
    }
}
