//! Multi-GPU system model for scale-model simulation.
//!
//! The paper validates scale-model prediction within one GPU package; this
//! crate extends the machine model to systems of 2–16 GPUs in the
//! MGSim/MGMark direction (ROADMAP item 4): each GPU is a full
//! [`gsim_sim::GpuConfig`] simulated by the existing engine, and the
//! system layer adds
//!
//! * an **inter-GPU fabric** ([`GpuFabric`]) built from
//!   [`gsim_noc::BandwidthLink`]s in ring or fully-connected topologies;
//! * **page-granularity placement** ([`PageMap`]) — first-touch,
//!   round-robin interleave, or read replication — deciding which DRAM
//!   traffic crosses the fabric;
//! * a **multi-tenant scheduler** ([`SystemSim`]) admitting concurrent
//!   kernels from per-tenant dependency DAGs
//!   ([`gsim_trace::DagWorkload`]) onto MIG-style kernel slots;
//! * the **scale-model validation experiment**
//!   ([`validate_scaling`]): the five predictors fitted on small GPU
//!   counts forecast larger systems, ground-truthed by actual runs.
//!
//! Determinism contract: [`SystemSim::run`] produces aggregate
//! [`gsim_sim::SimStats`] that are bit-identical from run to run, because
//! per-kernel simulations are deterministic (the engine contract of
//! DESIGN.md §10) and every system-level step is arithmetic in a fixed
//! order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod fabric;
mod placement;
mod system;
mod validate;

pub use config::{Placement, SystemConfig, Topology};
pub use fabric::{FabricStats, GpuFabric};
pub use placement::{PageMap, PageShare};
pub use system::{KernelSpan, SystemReport, SystemSim, Tenant};
pub use validate::{validate_scaling, MethodResult, TargetResult, ValidationReport};

use gsim_sim::GpuConfig;

/// First-order fraction of a kernel's DRAM traffic that crosses the
/// fabric under `placement` on `n_gpus` GPUs: the remote page fraction
/// `(n-1)/n`, tempered by locality for first-touch and by the store share
/// for read replication.
pub fn remote_traffic_share(placement: Placement, n_gpus: u32, write_fraction: f64) -> f64 {
    if n_gpus <= 1 {
        return 0.0;
    }
    let remote_pages = f64::from(n_gpus - 1) / f64::from(n_gpus);
    match placement {
        Placement::Interleave => remote_pages,
        // First touch keeps a tenant's pages on the GPUs its kernels
        // actually run on; only migration between slots goes remote.
        Placement::FirstTouch => 0.25 * remote_pages,
        Placement::ReadReplicate => remote_pages * write_fraction.clamp(0.0, 1.0),
    }
}

/// First-order per-GPU efficiency multiplier in `(0, 1]` for scaling a
/// single-GPU IPC forecast to `n_gpus` GPUs, used by the serve fast path
/// (DESIGN.md §16).
///
/// Models only the fabric-bandwidth mechanism: the memory-stalled
/// fraction `f_mem` of the traffic competes for link bandwidth
/// `link_gbs` (divided by the mean hop count on a ring) against the
/// per-GPU DRAM bandwidth it would otherwise enjoy, so
/// `eff = 1 / (1 + f_mem · share · dram_gbs / eff_link_gbs)`.
pub fn scaling_efficiency(
    n_gpus: u32,
    placement: Placement,
    topology: Topology,
    gpu: &GpuConfig,
    link_gbs: f64,
    f_mem: f64,
    write_fraction: f64,
) -> f64 {
    if n_gpus <= 1 {
        return 1.0;
    }
    let share = remote_traffic_share(placement, n_gpus, write_fraction);
    let mean_hops = match topology {
        Topology::FullyConnected => 1.0,
        Topology::Ring => (f64::from(n_gpus) / 4.0).max(1.0),
    };
    let pressure = f_mem.clamp(0.0, 1.0) * share * gpu.dram_gbs_total() / (link_gbs / mean_hops);
    1.0 / (1.0 + pressure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::MemScale;

    #[test]
    fn remote_share_orders_policies() {
        let inter = remote_traffic_share(Placement::Interleave, 4, 0.2);
        let ft = remote_traffic_share(Placement::FirstTouch, 4, 0.2);
        let repl = remote_traffic_share(Placement::ReadReplicate, 4, 0.2);
        assert!(inter > ft && ft > repl, "{inter} > {ft} > {repl}");
        assert_eq!(remote_traffic_share(Placement::Interleave, 1, 0.2), 0.0);
    }

    #[test]
    fn efficiency_is_one_for_single_gpu_and_degrades_with_scale() {
        let gpu = GpuConfig::paper_target(16, MemScale::default());
        let e1 = scaling_efficiency(
            1,
            Placement::Interleave,
            Topology::Ring,
            &gpu,
            300.0,
            0.5,
            0.2,
        );
        assert_eq!(e1, 1.0);
        let e4 = scaling_efficiency(
            4,
            Placement::Interleave,
            Topology::Ring,
            &gpu,
            300.0,
            0.5,
            0.2,
        );
        let e8 = scaling_efficiency(
            8,
            Placement::Interleave,
            Topology::Ring,
            &gpu,
            300.0,
            0.5,
            0.2,
        );
        assert!(e4 < 1.0 && e8 < e4, "1.0 > {e4} > {e8}");
        // A fully connected fabric beats the ring at the same size.
        let full = scaling_efficiency(
            8,
            Placement::Interleave,
            Topology::FullyConnected,
            &gpu,
            300.0,
            0.5,
            0.2,
        );
        assert!(full > e8);
        // Compute-bound work (f_mem 0) is unaffected.
        let compute = scaling_efficiency(
            8,
            Placement::Interleave,
            Topology::Ring,
            &gpu,
            300.0,
            0.0,
            0.2,
        );
        assert_eq!(compute, 1.0);
    }
}
