//! Pins the synthetic instruction streams bit for bit.
//!
//! Every constant below was taken at the commit *before* the warp stream
//! was split into a shared per-kernel block and a small per-warp cursor
//! (and before `GlobalSweep`/`Tiled` stopped dividing per op), so a
//! change to the generator that moves any op of any warp fails here,
//! without running an engine. Never re-bless these to make a speed-up
//! pass: a stream that moves invalidates every simulator golden.

use gsim_trace::suite::strong_suite;
use gsim_trace::{
    semantic_hash_of, Kernel, MemScale, PatternKind, PatternSpec, SpecStream, Workload,
};

/// `(abbr, semantic_hash_of)` of the 21 Table II workloads at
/// `MemScale::default()`.
const TABLE2: [(&str, u64); 21] = [
    ("dct", 0x709b_59f3_08b4_4189),
    ("fwt", 0x1655_6f75_f28c_4a4e),
    ("bp", 0xa8a2_2bf7_644a_c794),
    ("va", 0x352d_04d8_7d26_534e),
    ("as", 0xf2a3_2549_d317_954e),
    ("lu", 0x0210_f50a_1a62_d91d),
    ("st", 0xc674_6efd_0ec6_2065),
    ("bfs", 0xad7f_1af9_7420_621e),
    ("unet", 0xddb0_740f_fc4e_cfdd),
    ("sr", 0xd5f8_41c8_2432_6a01),
    ("gr", 0x3184_ee36_9685_107e),
    ("btree", 0x77c3_456d_797b_8293),
    ("pf", 0x20e4_eb31_61f3_74a5),
    ("res50", 0x3966_4af0_c177_a9da),
    ("res34", 0x3346_4f98_d962_425a),
    ("ht", 0x4631_dc48_86a4_4b38),
    ("at", 0x2866_4fa0_7943_dd93),
    ("gemm", 0xcea8_c693_ca5e_c6dc),
    ("2mm", 0x8c30_168c_3faa_f205),
    ("lbm", 0x88d5_3ed0_0965_f2f3),
    ("bs", 0x7d41_3fd5_735d_e296),
];

/// `(name, semantic_hash_of)` of the seeded patterns of
/// [`patterns`], in order.
const PATTERNS: [(&str, u64); 14] = [
    ("global_sweep/plain", 0x54bf_8c22_505d_ad0a),
    ("global_sweep/decorated", 0x14cf_d42d_b446_8f6c),
    ("global_sweep/ragged", 0xefac_0ae6_8b4c_2c4a),
    ("global_sweep/more_warps_than_lines", 0x3250_e209_184e_2672),
    ("streaming/plain", 0x8959_f4d4_0146_aa0a),
    ("streaming/decorated", 0x6986_dcb2_c183_7015),
    ("working_set_mix/plain", 0xaf22_5c2e_2c39_2117),
    ("working_set_mix/decorated", 0x1d39_8e22_ef1d_d5ee),
    ("tiled/plain", 0x893a_717c_e78f_0e33),
    ("tiled/decorated", 0x56aa_6f0f_767d_d732),
    ("tiled/ragged", 0x8eea_9ab1_5d19_38eb),
    ("tiled/wrapping_region", 0xca8b_941c_006f_c1e4),
    ("pointer_chase/plain", 0x9f36_1534_e7f0_2e69),
    ("pointer_chase/decorated", 0xd207_8e8c_7f6c_d7b9),
];

/// Every optional behaviour at once: atomics on a shared hot set,
/// divergent multi-line ops, stores, a fractional compute ratio and a
/// compute epilogue longer than one `Op::Compute` batch.
fn decorated(spec: PatternSpec) -> PatternSpec {
    spec.shared_hot(0.15, 24)
        .divergence(6)
        .write_frac(0.3)
        .compute_per_mem(1.7)
        .tail_compute(70_000)
}

fn one_kernel(seed: u64, ctas: u32, threads: u32, spec: PatternSpec) -> Workload {
    Workload::new("p", seed, vec![Kernel::new("k", ctas, threads, spec)])
}

/// One seeded workload per [`PatternKind`], plain and decorated, plus the
/// shapes where the address arithmetic of the two position-indexed kinds
/// wraps: footprints that do not divide by the warp count, more warps
/// than lines, tiles that do not divide a warp's region, and a warp
/// region that straddles the end of the footprint.
fn patterns() -> Vec<(&'static str, Workload)> {
    let sweep = || PatternSpec::new(PatternKind::GlobalSweep { passes: 3 }, 40_000);
    let streaming = || PatternSpec::new(PatternKind::Streaming, 30_000);
    let mix = || {
        PatternSpec::new(
            PatternKind::WorkingSetMix {
                levels: vec![(0.5, 0.02), (0.3, 0.4), (0.2, 3.0)],
            },
            25_000,
        )
        .mem_ops_per_warp(48)
    };
    let tiled = || {
        PatternSpec::new(
            PatternKind::Tiled {
                tile_lines: 8,
                reuses: 4,
            },
            50_000,
        )
        .mem_ops_per_warp(100)
    };
    let chase = || PatternSpec::new(PatternKind::PointerChase, 20_000).mem_ops_per_warp(40);
    vec![
        ("global_sweep/plain", one_kernel(11, 64, 256, sweep())),
        (
            "global_sweep/decorated",
            one_kernel(12, 64, 256, decorated(sweep())),
        ),
        (
            "global_sweep/ragged",
            one_kernel(
                13,
                37,
                100,
                PatternSpec::new(PatternKind::GlobalSweep { passes: 5 }, 9_973),
            ),
        ),
        (
            "global_sweep/more_warps_than_lines",
            one_kernel(
                14,
                48,
                256,
                PatternSpec::new(PatternKind::GlobalSweep { passes: 7 }, 101),
            ),
        ),
        ("streaming/plain", one_kernel(21, 64, 256, streaming())),
        (
            "streaming/decorated",
            one_kernel(22, 64, 256, decorated(streaming())),
        ),
        ("working_set_mix/plain", one_kernel(31, 64, 256, mix())),
        (
            "working_set_mix/decorated",
            one_kernel(32, 64, 256, decorated(mix())),
        ),
        ("tiled/plain", one_kernel(41, 64, 256, tiled())),
        (
            "tiled/decorated",
            one_kernel(42, 64, 256, decorated(tiled())),
        ),
        (
            "tiled/ragged",
            one_kernel(
                43,
                29,
                96,
                PatternSpec::new(
                    PatternKind::Tiled {
                        tile_lines: 7,
                        reuses: 3,
                    },
                    9_973,
                )
                .mem_ops_per_warp(500),
            ),
        ),
        (
            "tiled/wrapping_region",
            one_kernel(
                44,
                40,
                256,
                PatternSpec::new(
                    PatternKind::Tiled {
                        tile_lines: 5,
                        reuses: 1,
                    },
                    61,
                )
                .mem_ops_per_warp(64),
            ),
        ),
        ("pointer_chase/plain", one_kernel(51, 64, 256, chase())),
        (
            "pointer_chase/decorated",
            one_kernel(52, 64, 256, decorated(chase())),
        ),
    ]
}

/// Compares `(name, workload)` pairs with a pinned table and reports
/// every row that moved, in the table's own syntax.
fn check<'a>(pinned: &[(&str, u64)], actual: impl Iterator<Item = (&'a str, &'a Workload)>) {
    let actual: Vec<(&str, u64)> = actual
        .map(|(name, wl)| (name, semantic_hash_of(wl)))
        .collect();
    let rows = |t: &[(&str, u64)]| {
        t.iter()
            .map(|(n, s)| format!("    (\"{n}\", {s:#018x}),\n"))
            .collect::<String>()
    };
    assert!(
        pinned == actual.as_slice(),
        "streams moved; generated now:\n{}",
        rows(&actual)
    );
}

#[test]
fn table2_streams_are_pinned() {
    let suite = strong_suite(MemScale::default());
    check(&TABLE2, suite.iter().map(|b| (b.abbr, &b.workload)));
}

#[test]
fn pattern_streams_are_pinned() {
    let patterns = patterns();
    check(&PATTERNS, patterns.iter().map(|(n, wl)| (*n, wl)));
}

/// A warp stream is its own cursor and nothing else: the spec and what
/// derives from it live once per kernel. 64 SMs x 64 warps of streams
/// stay inside a host L2.
#[test]
fn a_warp_stream_is_at_most_96_bytes() {
    assert!(std::mem::size_of::<SpecStream>() <= 96);
}
