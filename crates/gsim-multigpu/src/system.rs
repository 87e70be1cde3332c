//! The multi-GPU system simulator: multi-tenant DAG scheduling over
//! per-GPU timing simulations and the inter-GPU fabric.

use std::time::Instant;

use gsim_sim::{SimStats, Simulator};
use gsim_trace::{DagParams, DagWorkload, Workload};

use crate::config::{Placement, SystemConfig};
use crate::fabric::{FabricStats, GpuFabric};
use crate::placement::PageMap;

/// One tenant: a named kernel-dependency DAG workload. Tenants address
/// disjoint data, so sharing between tenants is purely contention —
/// kernel slots and fabric bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    name: String,
    dag: DagWorkload,
}

impl Tenant {
    /// Wraps an explicit DAG workload.
    pub fn new(name: impl Into<String>, dag: DagWorkload) -> Self {
        Self {
            name: name.into(),
            dag,
        }
    }

    /// Generates a deterministic random tenant (see
    /// [`DagWorkload::generate`]).
    pub fn generate(name: impl Into<String>, seed: u64, params: &DagParams) -> Self {
        let name = name.into();
        let dag = DagWorkload::generate(name.clone(), seed, params);
        Self { name, dag }
    }

    /// Tenant name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's workload DAG.
    pub fn dag(&self) -> &DagWorkload {
        &self.dag
    }
}

/// Where and when one kernel ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpan {
    /// Tenant index.
    pub tenant: u32,
    /// Kernel index within the tenant's DAG.
    pub kernel: u32,
    /// GPU the kernel ran on.
    pub gpu: u32,
    /// Kernel slot within the GPU.
    pub slot: u32,
    /// System cycle the kernel started.
    pub start: u64,
    /// System cycle the kernel (and its remote traffic) completed.
    pub end: u64,
}

/// The output of a system run: aggregate [`SimStats`] under the engine's
/// determinism contract, plus system-level detail.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Aggregate statistics. Bit-identical from run to run — see
    /// [`SimStats::assert_deterministic_eq`].
    pub stats: SimStats,
    /// Inter-GPU fabric statistics.
    pub fabric: FabricStats,
    /// Every kernel execution, in dispatch order.
    pub spans: Vec<KernelSpan>,
    /// Per-GPU busy cycles (summed over the GPU's kernel slots).
    pub gpu_busy_cycles: Vec<u64>,
}

/// A configured multi-GPU simulation over a set of tenants.
///
/// Scheduling model (DESIGN.md §16): each GPU exposes `sharing` identical
/// kernel slots (MIG-style static partitions). A greedy deterministic list
/// scheduler repeatedly takes the ready kernel with the smallest
/// `(ready_time, tenant, kernel)` and places it on the slot with the
/// smallest `(start_time, gpu, slot)`. Kernel timing comes from a
/// single-kernel run of the existing per-GPU engine on the slot's
/// configuration; page placement then decides how much of the kernel's
/// DRAM traffic crosses the fabric, and the kernel completes when both
/// its compute and its remote transfers have finished.
///
/// Every step is fixed-order arithmetic over per-kernel simulations that
/// are themselves deterministic, so the aggregate [`SimStats`] inherit the
/// engine's determinism contract by construction.
#[derive(Debug, Clone)]
pub struct SystemSim<'a> {
    cfg: SystemConfig,
    tenants: &'a [Tenant],
}

impl<'a> SystemSim<'a> {
    /// Creates a system simulation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]) or `tenants` is empty.
    pub fn new(cfg: SystemConfig, tenants: &'a [Tenant]) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid system config: {e}");
        }
        assert!(!tenants.is_empty(), "system needs at least one tenant");
        Self { cfg, tenants }
    }

    /// Runs the system to completion.
    pub fn run(self) -> SystemReport {
        let wall_start = Instant::now();
        let cfg = &self.cfg;
        let slot_cfg = cfg.slot_config();
        let slot_sms = u64::from(slot_cfg.n_sms);
        let n_slots = (cfg.n_gpus * cfg.sharing) as usize;
        // Slot i serves GPU i / sharing; index order is (gpu, slot).
        let mut slot_free = vec![0u64; n_slots];
        let mut fabric = GpuFabric::new(cfg);
        let mut page_maps: Vec<PageMap> = (0..self.tenants.len())
            .map(|ti| PageMap::new(cfg.placement, cfg.n_gpus, ti as u32))
            .collect();

        let mut ends: Vec<Vec<Option<u64>>> = self
            .tenants
            .iter()
            .map(|t| vec![None; t.dag().n_kernels() as usize])
            .collect();
        let mut kernel_stats: Vec<Vec<Option<SimStats>>> = self
            .tenants
            .iter()
            .map(|t| vec![None; t.dag().n_kernels() as usize])
            .collect();
        let total_kernels: usize = ends.iter().map(Vec::len).sum();
        let mut spans: Vec<KernelSpan> = Vec::with_capacity(total_kernels);

        while spans.len() < total_kernels {
            // The ready kernel with the smallest (ready_time, tenant, kernel).
            let mut best: Option<(u64, usize, u32)> = None;
            for (ti, t) in self.tenants.iter().enumerate() {
                for k in 0..t.dag().n_kernels() {
                    if ends[ti][k as usize].is_some() {
                        continue;
                    }
                    let mut ready = 0u64;
                    let mut all_done = true;
                    for &p in t.dag().deps_of(k) {
                        match ends[ti][p as usize] {
                            Some(e) => ready = ready.max(e),
                            None => {
                                all_done = false;
                                break;
                            }
                        }
                    }
                    if all_done && best.is_none_or(|b| (ready, ti, k) < b) {
                        best = Some((ready, ti, k));
                    }
                }
            }
            let (ready, ti, k) = best.expect("a DAG always has a ready kernel");

            // The slot with the smallest (start, gpu, slot).
            let (si, start) = slot_free
                .iter()
                .enumerate()
                .map(|(i, &free)| (i, free.max(ready)))
                .min_by_key(|&(i, s)| (s, i))
                .expect("at least one slot");
            let gpu = si as u32 / cfg.sharing;

            let tenant = &self.tenants[ti];
            let kernel = tenant.dag().workload().kernels()[k as usize].clone();
            let seed = mix(tenant.dag().workload().seed(), ti as u64, u64::from(k));
            let solo = Workload::new(kernel.name().to_string(), seed, vec![kernel.clone()]);
            let kstats = Simulator::new(slot_cfg.clone(), &solo).run();

            let pages = kernel.spec().footprint_lines().div_ceil(cfg.page_lines);
            let share = page_maps[ti].touch(pages, gpu);
            let traffic_scale = match cfg.placement {
                Placement::ReadReplicate => kernel.spec().write_fraction().clamp(0.0, 1.0),
                _ => 1.0,
            };
            let mut finish = start + kstats.cycles;
            if share.touched > 0 {
                for &(owner, pgs) in &share.remote {
                    let bytes = (kstats.dram_bytes as f64
                        * (pgs as f64 / share.touched as f64)
                        * traffic_scale) as u64;
                    let arrival = fabric.transfer(start as f64, gpu, owner, bytes);
                    finish = finish.max(arrival.ceil() as u64);
                }
            }

            ends[ti][k as usize] = Some(finish);
            kernel_stats[ti][k as usize] = Some(kstats);
            slot_free[si] = finish;
            spans.push(KernelSpan {
                tenant: ti as u32,
                kernel: k,
                gpu,
                slot: si as u32 % cfg.sharing,
                start,
                end: finish,
            });
        }

        let makespan = spans.iter().map(|s| s.end).max().unwrap_or(0);
        let mut stats = SimStats {
            cycles: makespan,
            ..SimStats::default()
        };
        let mut gpu_busy = vec![0u64; cfg.n_gpus as usize];
        let mut busy_sm_cycles = 0u64;
        for s in &spans {
            gpu_busy[s.gpu as usize] += s.end - s.start;
            busy_sm_cycles += (s.end - s.start) * slot_sms;
        }
        for per_tenant in &kernel_stats {
            for ks in per_tenant.iter().flatten() {
                stats.warp_instrs += ks.warp_instrs;
                stats.thread_instrs += ks.thread_instrs;
                stats.llc_accesses += ks.llc_accesses;
                stats.llc_misses += ks.llc_misses;
                stats.l1_accesses += ks.l1_accesses;
                stats.l1_misses += ks.l1_misses;
                stats.dram_bytes += ks.dram_bytes;
                stats.mem_stall_sm_cycles += ks.mem_stall_sm_cycles;
                stats.ctas_executed += ks.ctas_executed;
                stats.kernels_executed += ks.kernels_executed;
            }
        }
        stats.total_sm_cycles = makespan * cfg.total_sms();
        stats.idle_sm_cycles = stats.total_sm_cycles.saturating_sub(busy_sm_cycles);
        // kernel_cycles in (tenant, kernel) order — well defined because
        // each (tenant, kernel) runs exactly once.
        for (ti, per_tenant) in ends.iter().enumerate() {
            for (k, e) in per_tenant.iter().enumerate() {
                let end = e.expect("all kernels scheduled");
                let start = spans
                    .iter()
                    .find(|s| s.tenant == ti as u32 && s.kernel == k as u32)
                    .expect("span recorded")
                    .start;
                stats.kernel_cycles.push(end - start);
            }
        }
        // Instruction milestones over the completion timeline.
        let mut timeline: Vec<(u64, u32, u32, u64)> = spans
            .iter()
            .map(|s| {
                let wi = kernel_stats[s.tenant as usize][s.kernel as usize]
                    .as_ref()
                    .expect("stats recorded")
                    .warp_instrs;
                (s.end, s.tenant, s.kernel, wi)
            })
            .collect();
        timeline.sort_unstable();
        let total_wi: u64 = timeline.iter().map(|&(_, _, _, wi)| wi).sum();
        let mut cum = 0u64;
        let mut cum_at_10 = 0u64;
        for &(end, _, _, wi) in &timeline {
            cum += wi;
            if stats.cycle_at_10pct == 0 && cum * 10 >= total_wi {
                stats.cycle_at_10pct = end;
                cum_at_10 = cum;
            }
            if stats.cycle_at_90pct == 0 && cum * 10 >= total_wi * 9 {
                stats.cycle_at_90pct = end;
                stats.warp_instrs_window = cum - cum_at_10;
            }
        }
        stats.sim_wall_seconds = wall_start.elapsed().as_secs_f64();

        SystemReport {
            stats,
            fabric: fabric.stats(),
            spans,
            gpu_busy_cycles: gpu_busy,
        }
    }
}

/// SplitMix64-style mixing so each (tenant, kernel) solo run gets a
/// distinct deterministic stream seed.
fn mix(seed: u64, tenant: u64, kernel: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(kernel.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use gsim_trace::MemScale;

    fn small_params() -> DagParams {
        DagParams {
            n_kernels: 4,
            max_ctas: 24,
            min_footprint_lines: 1 << 10,
            max_footprint_lines: 1 << 12,
            ..DagParams::default()
        }
    }

    fn base_cfg(n_gpus: u32) -> SystemConfig {
        SystemConfig::paper_node(n_gpus, 8, MemScale::default())
    }

    fn tenants(n: usize) -> Vec<Tenant> {
        (0..n)
            .map(|i| Tenant::generate(format!("tenant{i}"), 100 + i as u64, &small_params()))
            .collect()
    }

    #[test]
    fn dependencies_are_respected() {
        let ts = tenants(2);
        let report = SystemSim::new(base_cfg(2), &ts).run();
        for s in &report.spans {
            let dag = ts[s.tenant as usize].dag();
            for &p in dag.deps_of(s.kernel) {
                let pred = report
                    .spans
                    .iter()
                    .find(|o| o.tenant == s.tenant && o.kernel == p)
                    .expect("predecessor ran");
                assert!(
                    pred.end <= s.start,
                    "kernel {}:{} started at {} before dep {} ended at {}",
                    s.tenant,
                    s.kernel,
                    s.start,
                    p,
                    pred.end
                );
            }
        }
        assert_eq!(report.spans.len(), 8);
        assert_eq!(report.stats.kernel_cycles.len(), 8);
        assert_eq!(report.stats.kernels_executed, 8);
    }

    #[test]
    fn more_gpus_do_not_slow_independent_tenants() {
        let ts = tenants(4);
        let one = SystemSim::new(base_cfg(1), &ts).run();
        let four = SystemSim::new(base_cfg(4), &ts).run();
        assert!(
            four.stats.cycles < one.stats.cycles,
            "4 GPUs {} vs 1 GPU {}",
            four.stats.cycles,
            one.stats.cycles
        );
        // Same work was executed either way.
        assert_eq!(four.stats.thread_instrs, one.stats.thread_instrs);
        assert_eq!(four.stats.ctas_executed, one.stats.ctas_executed);
    }

    #[test]
    fn single_gpu_moves_no_fabric_bytes() {
        let ts = tenants(2);
        let report = SystemSim::new(base_cfg(1), &ts).run();
        assert_eq!(report.fabric.link_bytes, 0);
        assert_eq!(report.fabric.transfers, 0);
    }

    #[test]
    fn interleave_crosses_the_fabric_and_replication_crosses_less() {
        let ts = tenants(2);
        let mut cfg = base_cfg(4);
        cfg.placement = Placement::Interleave;
        let inter = SystemSim::new(cfg.clone(), &ts).run();
        assert!(inter.fabric.link_bytes > 0, "interleave must go remote");
        cfg.placement = Placement::ReadReplicate;
        let repl = SystemSim::new(cfg, &ts).run();
        assert!(
            repl.fabric.link_bytes < inter.fabric.link_bytes,
            "replication {} should move fewer bytes than interleave {}",
            repl.fabric.link_bytes,
            inter.fabric.link_bytes
        );
    }

    #[test]
    fn sharing_splits_gpus_into_slots() {
        let ts = tenants(2);
        let mut cfg = base_cfg(2);
        cfg.sharing = 2;
        let report = SystemSim::new(cfg, &ts).run();
        assert!(report.spans.iter().any(|s| s.slot == 1), "second slot used");
        assert_eq!(report.stats.kernels_executed, 8);
    }

    #[test]
    fn ring_and_full_topologies_both_run() {
        let ts = tenants(2);
        for topo in [Topology::Ring, Topology::FullyConnected] {
            let mut cfg = base_cfg(4);
            cfg.topology = topo;
            let report = SystemSim::new(cfg, &ts).run();
            assert!(report.stats.cycles > 0);
            assert!(report.stats.sustained_ipc() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "invalid system config")]
    fn rejects_invalid_config() {
        let ts = tenants(1);
        let _ = SystemSim::new(base_cfg(0), &ts);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn rejects_empty_tenants() {
        let _ = SystemSim::new(base_cfg(1), &[]);
    }
}
