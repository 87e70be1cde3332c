//! The owner-partitioned memory system of a chip(let) and the request
//! path into it.
//!
//! The shared memory system of every chip(let) is divided into
//! `min(8, llc_slices, n_mcs)` fixed *partitions* ([`MemShard`]),
//! each owning a slice group (global slice `g` belongs to partition
//! `g % K`), the memory controllers interleaved onto it and a proportional
//! share of the crossbar bisection — the memory-partition structure of
//! real GPUs (DESIGN.md §10). The split is part of the simulated machine,
//! not of how the host runs it.
//!
//! The engine's flush resolves a cycle's requests one at a time in global
//! (SM, request) order; each goes to its owner partition's
//! [`MemShard::apply_one`], which touches only that partition's state.

use crate::noc::Crossbar;
use gsim_mem::{slice_for_line, BankedDramModel, DramModel, DramTiming, SlicedLlc};

use crate::config::GpuConfig;

/// Cycles an LLC slice port is occupied by a normal access (slices are
/// dual-banked: two accesses per cycle).
const SLICE_OCCUPANCY: f64 = 0.5;
/// Cycles an LLC slice port is occupied by an atomic read-modify-write:
/// the read-modify-write turnaround serialises at the slice, which is what
/// makes hot shared lines camp (Zhao et al.'s memory-side camping [65]).
const ATOMIC_OCCUPANCY: f64 = 8.0;
/// Effective fraction of a transfer charged against the bisection
/// bandwidth: under uniform traffic only ~half of the transfers cross the
/// bisection, and requests/responses ride separate physical networks, so a
/// 128 B data response consumes ~a quarter of its size in bisection
/// capacity. This keeps an LLC-resident working set serviceable at near
/// full issue rate — the property behind the paper's post-cliff
/// "no longer stalled waiting for memory" assumption (Section V.C.2).
const BISECTION_FRACTION: f64 = 0.25;
/// Response payload of an atomic (a word, not a line).
const ATOMIC_BYTES: u32 = 32;

/// Most owner partitions a chip(let)'s memory system divides into. Part of
/// the *simulated* machine: it fixes the line-to-partition interleaving
/// and each partition's crossbar share.
const MEM_SHARDS: u32 = 8;

impl GpuConfig {
    /// Owner partitions per chip(let): `min(8, llc_slices, n_mcs)`, each
    /// owning a slice group, its memory controllers and a proportional
    /// share of the crossbar bisection (DESIGN.md §10). Small scale
    /// models (one MC) collapse to a single partition.
    pub fn mem_partitions(&self) -> u32 {
        MEM_SHARDS.min(self.llc_slices).min(self.n_mcs)
    }
}

/// What kind of request enters the shared memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ReqKind {
    Load,
    Store,
    Atomic,
}

/// The DRAM backend: flat bandwidth server (default) or the banked
/// row-buffer model (`GpuConfig::dram_banks_per_mc > 0`).
pub(super) enum Dram {
    Flat(DramModel),
    Banked(BankedDramModel),
}

impl Dram {
    fn read(&mut self, now: u64, line: u64, bytes: u32) -> u64 {
        match self {
            Dram::Flat(d) => d.read(now, line, bytes),
            Dram::Banked(d) => d.read(now, line, bytes),
        }
    }

    fn write_back(&mut self, now: u64, line: u64, bytes: u32) {
        match self {
            Dram::Flat(d) => d.write_back(now, line, bytes),
            Dram::Banked(d) => d.write_back(now, line, bytes),
        }
    }
}

/// The fixed partitioning of a chip(let)'s memory system into owner
/// partitions. Identical for every chiplet of an MCM (they share one
/// per-chiplet configuration); global shard id = `chiplet * per_chiplet
/// + sub_shard`.
#[derive(Debug, Clone, Copy)]
pub(super) struct ShardMap {
    /// Partitions per chip(let): [`GpuConfig::mem_partitions`].
    pub per_chiplet: u32,
    /// Global LLC slices per chip(let) (the hash domain).
    pub llc_slices: u32,
}

impl ShardMap {
    pub(super) fn new(cfg: &GpuConfig) -> Self {
        Self {
            per_chiplet: cfg.mem_partitions(),
            llc_slices: cfg.llc_slices,
        }
    }

    /// `(sub_shard, local_slice)` of `line` within its owner chip(let).
    /// The *global* slice hash is unchanged from the unsharded model;
    /// partition `k` owns global slices `{k, k + K, k + 2K, ...}`.
    #[inline]
    pub(super) fn route(&self, line: u64) -> (u32, u32) {
        let (g, k) = (slice_for_line(line, self.llc_slices), self.per_chiplet);
        if k & (k - 1) == 0 {
            // A power of two (no population count: see `gsim_mem`'s `rem`).
            (g & (k - 1), g >> k.trailing_zeros())
        } else {
            (g % k, g / k)
        }
    }
}

/// A partition's answer for one request. `local_done` is the response
/// arrival over the partition's crossbar share; `data_at_llc` is when the
/// data left the LLC (the departure time of the inter-chiplet leg the
/// flush charges for a remote requester).
#[derive(Debug, Clone, Copy)]
pub(super) struct ApplyOut {
    pub local_done: f64,
    pub data_at_llc: f64,
    pub payload: u32,
}

/// The configuration slice [`MemShard::apply_one`] needs.
#[derive(Debug, Clone, Copy)]
pub(super) struct ApplyParams {
    pub llc_latency: f64,
    pub line_bytes: u32,
    pub crossing_latency: f64,
}

/// One memory partition: a slice group of the LLC, the memory controllers
/// interleaved onto it and a proportional share of the crossbar bisection.
pub(super) struct MemShard {
    pub noc: Crossbar,
    pub llc: SlicedLlc,
    pub slice_free: Vec<f64>,
    pub dram: Dram,
    // Order-free statistic deltas, harvested once at the end of the run.
    pub llc_accesses: u64,
    pub llc_misses: u64,
    pub dram_bytes: u64,
}

impl MemShard {
    /// Builds sub-shard `k` (of `map.per_chiplet`) of one chip(let).
    pub(super) fn new(cfg: &GpuConfig, map: ShardMap, k: u32) -> Self {
        let kk = map.per_chiplet;
        debug_assert!(k < kk);
        // Slice group {k, k+K, ...}: same per-slice capacity as the
        // unsharded LLC, local index g / K.
        let n_slices = (map.llc_slices - k).div_ceil(kk);
        let slice_bytes = cfg.llc_bytes_total / u64::from(cfg.llc_slices);
        let llc = SlicedLlc::partition(slice_bytes, n_slices, cfg.llc_ways, cfg.line_bytes);
        // Memory controllers interleaved round-robin across partitions;
        // within the partition, lines re-hash over the owned controllers
        // (the partition is the unit that pairs slices with channels).
        let n_mcs = (cfg.n_mcs - k).div_ceil(kk);
        let dram = if cfg.dram_banks_per_mc > 0 {
            Dram::Banked(BankedDramModel::new(
                n_mcs,
                cfg.dram_banks_per_mc,
                cfg.dram_gbs_per_mc,
                cfg.sm_clock_ghz,
                DramTiming::default(),
            ))
        } else {
            Dram::Flat(DramModel::new(
                n_mcs,
                cfg.dram_gbs_per_mc,
                cfg.sm_clock_ghz,
                cfg.dram_latency,
            ))
        };
        Self {
            noc: Crossbar::from_gbs(
                cfg.noc_gbs / f64::from(kk),
                cfg.sm_clock_ghz,
                cfg.noc_hop_latency,
            ),
            slice_free: vec![0.0; n_slices as usize],
            llc,
            dram,
            llc_accesses: 0,
            llc_misses: 0,
            dram_bytes: 0,
        }
    }

    /// Serves one request against this partition's state. `t0` is the
    /// cycle the request enters the memory system; `remote` says the
    /// requester sits on another chiplet than the owner (MCM).
    #[inline]
    pub(super) fn apply_one(
        &mut self,
        p: &ApplyParams,
        t0: u64,
        line: u64,
        local_slice: u32,
        kind: ReqKind,
        remote: bool,
    ) -> ApplyOut {
        // Request travel: crossbar hop (+ chiplet crossing if remote).
        let mut t = t0 as f64 + f64::from(self.noc.hop_latency());
        if remote {
            t += p.crossing_latency;
        }
        // Slice port (camping point).
        let occupancy = if kind == ReqKind::Atomic {
            ATOMIC_OCCUPANCY
        } else {
            SLICE_OCCUPANCY
        };
        let start = self.slice_free[local_slice as usize].max(t);
        self.slice_free[local_slice as usize] = start + occupancy;
        let tag_done = start + p.llc_latency;

        // Tag lookup with an eager fill. The way's fill word times the
        // line: a hit entering before the fill that brought it in waits
        // for that fill.
        let is_write = kind == ReqKind::Store;
        let (result, fill_at) = self.llc.access_in_slice(local_slice, line, is_write);
        self.llc_accesses += 1;
        let data_at_llc = if result.is_hit() {
            if *fill_at > t0 {
                *fill_at as f64
            } else {
                tag_done
            }
        } else {
            self.llc_misses += 1;
            if let Some(victim) = result.evicted() {
                if victim.dirty {
                    self.dram
                        .write_back(tag_done as u64, victim.line_addr, p.line_bytes);
                    self.dram_bytes += u64::from(p.line_bytes);
                }
            }
            let fill = self.dram.read(tag_done as u64, line, p.line_bytes);
            self.dram_bytes += u64::from(p.line_bytes);
            *fill_at = fill;
            fill as f64
        };

        // Response travel over this partition's bisection share.
        let payload = if kind == ReqKind::Atomic {
            ATOMIC_BYTES
        } else {
            p.line_bytes
        };
        let eff = ((f64::from(payload) * BISECTION_FRACTION) as u32).max(1);
        ApplyOut {
            local_done: self.noc.traverse(data_at_llc, eff),
            data_at_llc,
            payload,
        }
    }
}

/// Builds the full shard set of a system: `n_chiplets * map.per_chiplet`
/// shards, chiplet-major.
pub(super) fn build_shards(cfg: &GpuConfig, map: ShardMap, n_chiplets: u32) -> Vec<MemShard> {
    (0..n_chiplets)
        .flat_map(|_| (0..map.per_chiplet).map(|k| MemShard::new(cfg, map, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::MemScale;

    #[test]
    fn partition_count_is_min_of_8_slices_and_mcs() {
        // Table I: 8 SMs have 1 MC, 64 SMs have 8, 128 SMs have 16.
        let scale = MemScale::default();
        assert_eq!(GpuConfig::paper_target(8, scale).mem_partitions(), 1);
        assert_eq!(GpuConfig::paper_target(16, scale).mem_partitions(), 2);
        assert_eq!(GpuConfig::paper_target(64, scale).mem_partitions(), 8);
        assert_eq!(GpuConfig::paper_target(128, scale).mem_partitions(), 8);
        let few_slices = GpuConfig {
            llc_slices: 3,
            ..GpuConfig::paper_target(128, scale)
        };
        assert_eq!(few_slices.mem_partitions(), 3);
        assert_eq!(ShardMap::new(&few_slices).per_chiplet, 3);
    }

    /// A hit waits for the fill that brought its line in whenever it
    /// enters before that fill lands, whatever entered in between. Here a
    /// load enters past every fill, then an atomic, which bypasses the L1
    /// and so enters up to an L1 latency earlier than loads issued in the
    /// same cycle, enters one cycle before the first line's fill: it must
    /// get that fill, not the tag latency. (A tracker that forgot every
    /// fill once a request entered past the latest one answered the tag
    /// latency here.)
    #[test]
    fn hit_waits_for_its_ways_fill_whatever_entered_between() {
        let cfg = GpuConfig::paper_target(8, MemScale::default());
        let map = ShardMap::new(&cfg);
        assert_eq!(map.per_chiplet, 1);
        let mut shard = MemShard::new(&cfg, map, 0);
        let p = ApplyParams {
            llc_latency: f64::from(cfg.llc_latency),
            line_bytes: cfg.line_bytes,
            crossing_latency: 0.0,
        };
        let mut apply = |line: u64, t0: u64, kind: ReqKind| {
            let (_, slice) = map.route(line);
            shard.apply_one(&p, t0, line, slice, kind, false)
        };
        let fill_a = apply(10, 0, ReqKind::Load).data_at_llc;
        let fill_b = apply(11, 0, ReqKind::Load).data_at_llc;
        let latest = fill_a.max(fill_b) as u64;
        assert!(fill_a > 1.0);

        let past = apply(11, latest, ReqKind::Load);
        assert!(
            past.data_at_llc > latest as f64,
            "a landed fill is not waited for"
        );
        let early = apply(10, fill_a as u64 - 1, ReqKind::Atomic);
        assert_eq!(early.data_at_llc, fill_a);
        assert_eq!((shard.llc_accesses, shard.llc_misses), (4, 2));
    }

    #[test]
    fn route_is_the_slice_hash_split_by_partition_count() {
        // Power-of-two partition counts take a mask and a shift, the rest
        // divide: the paper's machines, odd slice counts, and the
        // three-partition machine above.
        let scale = MemScale::default();
        for (sms, llc_slices) in [
            (8, 2),
            (16, 4),
            (64, 32),
            (128, 64),
            (128, 3),
            (64, 6),
            (128, 12),
            (128, 24),
        ] {
            let cfg = GpuConfig {
                llc_slices,
                ..GpuConfig::paper_target(sms, scale)
            };
            let (map, k) = (ShardMap::new(&cfg), cfg.mem_partitions());
            for line in (0..50_000u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D) >> (i % 40)) {
                let g = slice_for_line(line, llc_slices);
                assert_eq!(map.route(line), (g % k, g / k), "{llc_slices} slices / {k}");
            }
        }
    }
}
