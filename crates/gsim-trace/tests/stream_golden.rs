//! Pins the synthetic instruction streams bit for bit.
//!
//! Every constant below was taken at the commit *before* the warp stream
//! was split into a shared per-kernel block and a small per-warp cursor
//! (and before `GlobalSweep`/`Tiled` stopped dividing per op), so a
//! change to the generator that moves any op of any warp fails here,
//! without running an engine. Never re-bless these to make a speed-up
//! pass: a stream that moves invalidates every simulator golden and every
//! persisted cache entry keyed by recipe.

use gsim_trace::suite::strong_suite;
use gsim_trace::{
    semantic_hash_of, Kernel, MemScale, PatternKind, PatternSpec, SpecStream, Workload,
};

/// `(abbr, semantic_hash_of, recipe_hash)` of the 21 Table II workloads at
/// `MemScale::default()`.
const TABLE2: [(&str, u64, u64); 21] = [
    ("dct", 0x709b_59f3_08b4_4189, 0xca85_f2d4_3155_ad38),
    ("fwt", 0x1655_6f75_f28c_4a4e, 0x77a7_cf6b_e6c9_42dc),
    ("bp", 0xa8a2_2bf7_644a_c794, 0xcce2_dc82_0290_688a),
    ("va", 0x352d_04d8_7d26_534e, 0x499d_a39a_3619_872d),
    ("as", 0xf2a3_2549_d317_954e, 0xa532_749b_bac8_6464),
    ("lu", 0x0210_f50a_1a62_d91d, 0x387d_bcb3_aa0f_c633),
    ("st", 0xc674_6efd_0ec6_2065, 0x53ae_727f_37d5_995b),
    ("bfs", 0xad7f_1af9_7420_621e, 0xed52_1e01_dfc5_c590),
    ("unet", 0xddb0_740f_fc4e_cfdd, 0x2362_fa8a_ff99_8977),
    ("sr", 0xd5f8_41c8_2432_6a01, 0x6b5d_46e3_5173_d131),
    ("gr", 0x3184_ee36_9685_107e, 0xb769_0b79_6714_9849),
    ("btree", 0x77c3_456d_797b_8293, 0xf8e9_5eb7_8035_9335),
    ("pf", 0x20e4_eb31_61f3_74a5, 0xd09e_1eca_2bd3_2f76),
    ("res50", 0x3966_4af0_c177_a9da, 0x72bd_be74_d513_4616),
    ("res34", 0x3346_4f98_d962_425a, 0xb1ac_9f6c_ae84_af8e),
    ("ht", 0x4631_dc48_86a4_4b38, 0x7415_8d8a_3191_deb1),
    ("at", 0x2866_4fa0_7943_dd93, 0xea7b_394f_07be_490c),
    ("gemm", 0xcea8_c693_ca5e_c6dc, 0x44a9_e8bc_7eb9_f822),
    ("2mm", 0x8c30_168c_3faa_f205, 0x7601_9fb5_7ba5_9518),
    ("lbm", 0x88d5_3ed0_0965_f2f3, 0x1ca2_2146_7e49_ef4f),
    ("bs", 0x7d41_3fd5_735d_e296, 0x241d_7036_8dc3_7a92),
];

/// `(name, semantic_hash_of, recipe_hash)` of the seeded patterns of
/// [`patterns`], in order.
const PATTERNS: [(&str, u64, u64); 14] = [
    (
        "global_sweep/plain",
        0x54bf_8c22_505d_ad0a,
        0x1be7_8ae5_b9f9_8692,
    ),
    (
        "global_sweep/decorated",
        0x14cf_d42d_b446_8f6c,
        0x09f1_9fcb_6751_841d,
    ),
    (
        "global_sweep/ragged",
        0xefac_0ae6_8b4c_2c4a,
        0x9a48_cdb7_4ecc_8b3b,
    ),
    (
        "global_sweep/more_warps_than_lines",
        0x3250_e209_184e_2672,
        0x088b_e02c_c0d5_3796,
    ),
    (
        "streaming/plain",
        0x8959_f4d4_0146_aa0a,
        0xa7ea_d250_7ac1_2eb1,
    ),
    (
        "streaming/decorated",
        0x6986_dcb2_c183_7015,
        0xf204_0bef_ef70_c302,
    ),
    (
        "working_set_mix/plain",
        0xaf22_5c2e_2c39_2117,
        0xfa29_e69f_bcef_5028,
    ),
    (
        "working_set_mix/decorated",
        0x1d39_8e22_ef1d_d5ee,
        0x059d_3345_cf02_d4b3,
    ),
    ("tiled/plain", 0x893a_717c_e78f_0e33, 0x05d2_3ae5_27fe_83f9),
    (
        "tiled/decorated",
        0x56aa_6f0f_767d_d732,
        0x09fb_7bc3_db0e_6ed6,
    ),
    ("tiled/ragged", 0x8eea_9ab1_5d19_38eb, 0x6880_0fc9_22f5_e5b0),
    (
        "tiled/wrapping_region",
        0xca8b_941c_006f_c1e4,
        0xd101_8e86_3ab2_6ac0,
    ),
    (
        "pointer_chase/plain",
        0x9f36_1534_e7f0_2e69,
        0x4c8e_df23_2ac5_1a4b,
    ),
    (
        "pointer_chase/decorated",
        0xd207_8e8c_7f6c_d7b9,
        0xdcef_11b7_4af5_ad1c,
    ),
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
fn check<'a>(pinned: &[(&str, u64, u64)], actual: impl Iterator<Item = (&'a str, &'a Workload)>) {
    let actual: Vec<(&str, u64, u64)> = actual
        .map(|(name, wl)| (name, semantic_hash_of(wl), wl.recipe_hash()))
        .collect();
    let rows = |t: &[(&str, u64, u64)]| {
        t.iter()
            .map(|(n, s, r)| format!("    (\"{n}\", {s:#018x}, {r:#018x}),\n"))
            .collect::<String>()
    };
    assert!(
        pinned == actual.as_slice(),
        "streams or recipe identities moved; generated now:\n{}",
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
