//! Randomized property tests on the workload substrate: every spec,
//! however configured, must yield deterministic, well-formed, correctly
//! counted streams that survive a trace-file round trip. Cases come from
//! the in-tree [`gsim_rng`] PRNG; the `ext-tests` feature multiplies the
//! case count.

use gsim_rng::Rng64;
use gsim_trace::{
    semantic_hash_of, write_trace, Kernel, Op, PatternKind, PatternSpec, TracedWorkload,
    WarpStream, Workload, WorkloadModel,
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

/// The recipe identity ignores labels and reporting metadata and reacts
/// to every single field the stream generator reads.
#[test]
fn recipe_hash_ignores_names_and_sees_every_generator_field() {
    let sweep = || PatternSpec::new(PatternKind::GlobalSweep { passes: 2 }, 4096);
    let chase = || {
        PatternSpec::new(PatternKind::PointerChase, 2048)
            .mem_ops_per_warp(20)
            .compute_per_mem(1.5)
            .write_frac(0.2)
            .divergence(4)
            .tail_compute(7)
            .shared_hot(0.1, 8)
    };
    let tiled =
        |tile_lines, reuses| PatternSpec::new(PatternKind::Tiled { tile_lines, reuses }, 2048);
    let mix = |levels: &[(f64, f64)]| {
        let levels = levels.to_vec();
        PatternSpec::new(PatternKind::WorkingSetMix { levels }, 2048)
    };
    let of = |seed, ctas, threads, specs: Vec<PatternSpec>| {
        let kernels = specs
            .into_iter()
            .map(|s| Kernel::new("k", ctas, threads, s))
            .collect();
        Workload::new("w", seed, kernels).recipe_hash()
    };
    let base = of(7, 12, 256, vec![sweep(), chase()]);

    let relabelled = Workload::new(
        "another-name",
        7,
        vec![
            Kernel::new("a", 12, 256, sweep()),
            Kernel::new("b", 12, 256, chase()),
        ],
    )
    .with_footprint_mb(33.0)
    .with_paper_minsns(10_270.0);
    assert_eq!(relabelled.recipe_hash(), base);

    let one = |spec: PatternSpec| of(7, 12, 256, vec![spec]);
    let changed = [
        ("seed", of(8, 12, 256, vec![sweep(), chase()])),
        ("n_ctas", of(7, 13, 256, vec![sweep(), chase()])),
        ("threads_per_cta", of(7, 12, 128, vec![sweep(), chase()])),
        ("kernel count", of(7, 12, 256, vec![sweep()])),
        ("kernel order", of(7, 12, 256, vec![chase(), sweep()])),
    ];
    for (what, hash) in changed {
        assert_ne!(hash, base, "{what} must change the recipe hash");
    }

    let chase_hash = one(chase());
    let chase_with = |edit: fn(PatternSpec) -> PatternSpec| one(edit(chase()));
    let spec_fields = [
        ("mem_ops_per_warp", chase_with(|s| s.mem_ops_per_warp(21))),
        ("compute_per_mem", chase_with(|s| s.compute_per_mem(1.25))),
        ("write_frac", chase_with(|s| s.write_frac(0.3))),
        ("divergence", chase_with(|s| s.divergence(5))),
        ("tail_compute", chase_with(|s| s.tail_compute(8))),
        ("shared_hot.prob", chase_with(|s| s.shared_hot(0.2, 8))),
        ("shared_hot.hot_lines", chase_with(|s| s.shared_hot(0.1, 9))),
        (
            "footprint_lines",
            one(PatternSpec::new(PatternKind::PointerChase, 2049)
                .mem_ops_per_warp(20)
                .compute_per_mem(1.5)
                .write_frac(0.2)
                .divergence(4)
                .tail_compute(7)
                .shared_hot(0.1, 8)),
        ),
        (
            "shared_hot presence",
            one(PatternSpec::new(PatternKind::PointerChase, 2048)
                .mem_ops_per_warp(20)
                .compute_per_mem(1.5)
                .write_frac(0.2)
                .divergence(4)
                .tail_compute(7)),
        ),
    ];
    for (what, hash) in spec_fields {
        assert_ne!(hash, chase_hash, "{what} must change the recipe hash");
    }

    // Every kind, and every payload field of the kinds that carry one.
    let plain = |kind| one(PatternSpec::new(kind, 2048));
    let kinds = [
        plain(PatternKind::GlobalSweep { passes: 1 }),
        plain(PatternKind::GlobalSweep { passes: 2 }),
        plain(PatternKind::Streaming),
        plain(PatternKind::PointerChase),
        one(tiled(4, 3)),
        one(tiled(5, 3)),
        one(tiled(4, 2)),
        one(mix(&[(0.5, 0.25)])),
        one(mix(&[(0.75, 0.25)])),
        one(mix(&[(0.5, 0.5)])),
        one(mix(&[(0.5, 0.25), (0.5, 0.25)])),
    ];
    for (i, a) in kinds.iter().enumerate() {
        for b in &kinds[i + 1..] {
            assert_ne!(a, b, "two pattern kinds share a recipe hash");
        }
    }
}

/// Soundness of the recipe identity as a cache key: workloads that share
/// a recipe hash generate the same instruction streams.
#[test]
fn equal_recipe_hashes_mean_equal_streams() {
    let mut rng = Rng64::seed_from_u64(0x7ace_0004);
    let mut seen: Vec<(u64, u64)> = Vec::new();
    for case in 0..cases(24) {
        let specs: Vec<PatternSpec> = (0..rng.gen_range(1, 4))
            .map(|_| arb_spec(&mut rng))
            .collect();
        let seed = rng.gen_range(0, 10_000);
        let ctas = rng.gen_range(1, 6) as u32;
        let build = |name: &str| {
            let kernels = specs
                .iter()
                .map(|s| Kernel::new(name, ctas, 128, s.clone()))
                .collect();
            Workload::new(name, seed, kernels).with_footprint_mb(case as f64)
        };
        let (a, b) = (build("a"), build("b"));
        assert_eq!(a.recipe_hash(), b.recipe_hash());
        assert_eq!(semantic_hash_of(&a), semantic_hash_of(&b));
        seen.push((a.recipe_hash(), semantic_hash_of(&a)));
    }
    for (i, (recipe, content)) in seen.iter().enumerate() {
        for (other_recipe, other_content) in &seen[i + 1..] {
            if recipe == other_recipe {
                assert_eq!(content, other_content, "a recipe hash named two streams");
            }
        }
    }
}
