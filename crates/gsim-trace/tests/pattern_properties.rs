//! Randomized property tests on the workload substrate: every spec,
//! however configured, must yield deterministic, well-formed, correctly
//! counted streams that survive a trace-file round trip. Cases come from
//! the in-tree [`gsim_rng`] PRNG; the `ext-tests` feature multiplies the
//! case count.

use gsim_rng::Rng64;
use gsim_trace::{
    write_trace, Kernel, Op, PatternKind, PatternSpec, TracedWorkload, WarpStream, Workload,
    WorkloadModel,
};

fn cases(default: usize) -> usize {
    if cfg!(feature = "ext-tests") {
        default * 8
    } else {
        default
    }
}

fn f64_in(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn arb_kind(rng: &mut Rng64) -> PatternKind {
    match rng.gen_range(0, 5) {
        0 => PatternKind::GlobalSweep {
            passes: rng.gen_range(1, 4) as u32,
        },
        1 => PatternKind::Streaming,
        2 => PatternKind::PointerChase,
        3 => PatternKind::Tiled {
            tile_lines: rng.gen_range(1, 8),
            reuses: rng.gen_range(2, 16) as u32,
        },
        _ => {
            let n_levels = rng.gen_range(1, 4);
            let levels = (0..n_levels)
                .map(|_| (f64_in(rng, 0.05, 1.0), f64_in(rng, 0.01, 4.0)))
                .collect();
            PatternKind::WorkingSetMix { levels }
        }
    }
}

fn arb_spec(rng: &mut Rng64) -> PatternSpec {
    let kind = arb_kind(rng);
    let footprint = rng.gen_range(16, 5000);
    let mut spec = PatternSpec::new(kind, footprint)
        .mem_ops_per_warp(rng.gen_range(1, 40) as u32)
        .compute_per_mem(f64_in(rng, 0.0, 4.0))
        .write_frac(f64_in(rng, 0.0, 0.6))
        .divergence(rng.gen_range(1, 8) as u8)
        .tail_compute(rng.gen_range(0, 100) as u32);
    if rng.gen_bool(0.5) {
        spec = spec.shared_hot(f64_in(rng, 0.01, 0.3), rng.gen_range(1, 32));
    }
    spec
}

fn drain(wl: &Workload, kernel: usize, cta: u32, warp: u32) -> Vec<Op> {
    let mut s = WorkloadModel::warp_stream(wl, kernel, cta, warp);
    std::iter::from_fn(move || s.next_op()).collect()
}

/// Streams are deterministic and the instruction estimate is exact.
#[test]
fn streams_are_deterministic_and_counted() {
    let mut rng = Rng64::seed_from_u64(0x7ace_0001);
    for _ in 0..cases(48) {
        let spec = arb_spec(&mut rng);
        let seed = rng.gen_range(0, 10_000);
        let ctas = rng.gen_range(1, 12) as u32;
        let wl = Workload::new("p", seed, vec![Kernel::new("k", ctas, 256, spec)]);
        let a = drain(&wl, 0, 0, 0);
        let b = drain(&wl, 0, 0, 0);
        assert_eq!(&a, &b);
        // Exact instruction accounting across the whole grid.
        let mut total = 0u64;
        for cta in 0..ctas {
            for warp in 0..8 {
                total += drain(&wl, 0, cta, warp)
                    .iter()
                    .map(Op::warp_instrs)
                    .sum::<u64>();
            }
        }
        assert_eq!(total, wl.approx_warp_instrs());
    }
}

/// Ops are well-formed: batch sizes positive, transaction counts in
/// range, stores/atomics flagged consistently.
#[test]
fn ops_are_well_formed() {
    let mut rng = Rng64::seed_from_u64(0x7ace_0002);
    for _ in 0..cases(48) {
        let spec = arb_spec(&mut rng);
        let seed = rng.gen_range(0, 10_000);
        let wl = Workload::new("p", seed, vec![Kernel::new("k", 2, 256, spec)]);
        for op in drain(&wl, 0, 0, 0) {
            match op {
                Op::Compute { n } => assert!(n >= 1),
                Op::Load(m) | Op::Store(m) | Op::Atomic(m) => {
                    assert!((1..=32).contains(&m.txns));
                    if m.txns > 1 {
                        assert!(m.txn_stride_lines >= 1);
                    }
                }
            }
        }
    }
}

/// The binary trace format round-trips arbitrary workloads exactly.
#[test]
fn trace_roundtrip_is_lossless() {
    let mut rng = Rng64::seed_from_u64(0x7ace_0003);
    for _ in 0..cases(48) {
        let spec = arb_spec(&mut rng);
        let seed = rng.gen_range(0, 10_000);
        let ctas = rng.gen_range(1, 6) as u32;
        let wl = Workload::new("rt", seed, vec![Kernel::new("k", ctas, 128, spec)]);
        let mut bytes = Vec::new();
        write_trace(&wl, &mut bytes).expect("in-memory write");
        let traced = TracedWorkload::read(&bytes[..]).expect("own trace parses");
        assert_eq!(traced.n_kernels(), 1);
        assert_eq!(traced.grid(0), (ctas, 128));
        assert_eq!(traced.total_warp_instrs(), wl.approx_warp_instrs());
        for cta in 0..ctas {
            for warp in 0..4 {
                let orig = drain(&wl, 0, cta, warp);
                let mut s = traced.warp_stream(0, cta, warp);
                let replay: Vec<Op> = std::iter::from_fn(move || s.next_op()).collect();
                assert_eq!(&orig, &replay);
            }
        }
    }
}
