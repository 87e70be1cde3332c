//! The multi-GPU determinism contract (DESIGN.md §16): aggregate
//! `SimStats` must be bit-identical from run to run for every
//! topology × placement combination, the same contract the single-package
//! engine honours (§10).

use gsim_multigpu::{Placement, SystemConfig, SystemSim, Tenant, Topology};
use gsim_trace::{DagParams, MemScale};

fn tenants() -> Vec<Tenant> {
    let params = DagParams {
        n_kernels: 4,
        max_ctas: 24,
        min_footprint_lines: 1 << 10,
        max_footprint_lines: 1 << 12,
        ..DagParams::default()
    };
    (0..2)
        .map(|i| Tenant::generate(format!("tenant{i}"), 7 + i, &params))
        .collect()
}

fn run(cfg: &SystemConfig, tenants: &[Tenant]) -> gsim_sim::SimStats {
    SystemSim::new(cfg.clone(), tenants).run().stats
}

#[test]
fn multi_gpu_stats_repeat_across_topologies_and_placements() {
    let ts = tenants();
    for topology in [Topology::Ring, Topology::FullyConnected] {
        for placement in [Placement::FirstTouch, Placement::Interleave] {
            let mut cfg = SystemConfig::paper_node(2, 8, MemScale::default());
            cfg.topology = topology;
            cfg.placement = placement;
            run(&cfg, &ts).assert_deterministic_eq(&run(&cfg, &ts));
        }
    }
}

#[test]
fn four_gpu_sharing_run_repeats() {
    let ts = tenants();
    let mut cfg = SystemConfig::paper_node(4, 8, MemScale::default());
    cfg.sharing = 2;
    cfg.placement = Placement::ReadReplicate;
    let first = run(&cfg, &ts);
    first.assert_deterministic_eq(&run(&cfg, &ts));
    assert!(first.cycles > 0);
}

/// Randomized soak: random tenant mixes and system shapes, each run
/// twice.
#[test]
#[cfg_attr(
    not(feature = "ext-tests"),
    ignore = "enable with --features ext-tests"
)]
fn randomized_system_determinism_soak() {
    use gsim_rng::Rng64;
    let mut rng = Rng64::seed_from_u64(0x5EED_50AC);
    for case in 0..10 {
        let params = DagParams {
            n_kernels: rng.gen_range_inclusive(2, 6) as u32,
            max_fanin: rng.gen_range_inclusive(1, 3) as u32,
            min_ctas: 8, // the default (16) can exceed the drawn maximum
            max_ctas: rng.gen_range_inclusive(8, 32) as u32,
            min_footprint_lines: 1 << 9,
            max_footprint_lines: 1 << rng.gen_range_inclusive(10, 13),
            ..DagParams::default()
        };
        let ts: Vec<Tenant> = (0..rng.gen_range_inclusive(1, 3))
            .map(|i| Tenant::generate(format!("s{case}t{i}"), rng.next_u64(), &params))
            .collect();
        let mut cfg =
            SystemConfig::paper_node(rng.gen_range_inclusive(2, 4) as u32, 8, MemScale::default());
        cfg.topology = if rng.gen_bool(0.5) {
            Topology::Ring
        } else {
            Topology::FullyConnected
        };
        cfg.placement = match rng.gen_range(0, 3) {
            0 => Placement::FirstTouch,
            1 => Placement::Interleave,
            _ => Placement::ReadReplicate,
        };
        run(&cfg, &ts).assert_deterministic_eq(&run(&cfg, &ts));
    }
}
