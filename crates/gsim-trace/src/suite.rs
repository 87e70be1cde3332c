//! The strong-scaling benchmark suite (paper Table II).
//!
//! Each of the 21 benchmarks is recreated as a synthetic [`Workload`] whose
//! published characteristics (footprint, CTA grids, instruction volume) are
//! taken from Table II and whose access-pattern family is chosen to match
//! the behaviour the paper describes. Footprints are converted to model
//! units by the [`MemScale`] memory miniature; grid sizes are kept at
//! paper-comparable magnitudes (several waves of CTAs on the largest
//! target), and dynamic instruction counts are reduced roughly 1000× so a
//! full sweep runs in minutes (DESIGN.md §5).
//!
//! The `expected` classification is the paper's rightmost Table II column;
//! integration tests verify the timing simulator reproduces it.

use crate::kernel::{Kernel, Workload};
use crate::pattern::{PatternKind, PatternSpec};
use crate::scale::MemScale;

/// How a workload's performance scales with system size (paper Section IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingClass {
    /// Performance grows proportionally with system size.
    Linear,
    /// Performance grows slower than system size (imbalance or camping).
    SubLinear,
    /// Performance grows faster than system size (miss-rate-curve cliff).
    SuperLinear,
}

impl std::fmt::Display for ScalingClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalingClass::Linear => write!(f, "linear"),
            ScalingClass::SubLinear => write!(f, "sub-linear"),
            ScalingClass::SuperLinear => write!(f, "super-linear"),
        }
    }
}

/// A Table II benchmark: the synthetic workload plus its paper metadata.
#[derive(Debug, Clone)]
pub struct StrongBenchmark {
    /// Abbreviation used throughout the paper's figures (dct, bfs, pf, …).
    pub abbr: &'static str,
    /// Full benchmark name from Table II.
    pub full_name: &'static str,
    /// Originating suite.
    pub origin: &'static str,
    /// The paper's published CTA grid sizes, for Table II reporting.
    pub cta_sizes_paper: &'static str,
    /// The paper's scaling classification (Table II, rightmost column).
    pub expected: ScalingClass,
    /// The synthetic workload.
    pub workload: Workload,
}

/// Default threads per CTA (8 warps; 6 resident CTAs fill an SM's 48 warps).
pub const CTA_THREADS: u32 = 256;

fn mb(scale: MemScale, paper_mb: f64) -> u64 {
    scale.mb_to_model_lines(paper_mb)
}

/// One grid-wide pass over the footprint. Iterative benchmarks re-sweep
/// their data by *relaunching* the kernel (see [`repeat`]): reuse then
/// happens across kernel launches with an LLC-level reuse distance equal to
/// the full footprint, exactly like real iterative GPU applications —
/// per-warp looping would instead cap the reuse distance at the resident
/// wave's working set.
fn sweep(scale: MemScale, fp_mb: f64) -> PatternSpec {
    PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, mb(scale, fp_mb))
}

/// `passes` back-to-back launches of the same kernel.
fn repeat(kernel: Kernel, passes: u32) -> Vec<Kernel> {
    (0..passes).map(|_| kernel.clone()).collect()
}

fn stream(scale: MemScale, fp_mb: f64) -> PatternSpec {
    PatternSpec::new(PatternKind::Streaming, mb(scale, fp_mb))
}

fn mix(scale: MemScale, fp_mb: f64, levels: Vec<(f64, f64)>) -> PatternSpec {
    PatternSpec::new(PatternKind::WorkingSetMix { levels }, mb(scale, fp_mb))
}

/// Gradual miss-rate-curve levels: a nest of working sets spanning the
/// whole footprint plus a streaming tail that never fits any LLC, giving
/// the gently declining curve graph/irregular workloads exhibit (bfs in
/// Fig. 2). Fractions above 1.0 model cold streaming beyond the resident
/// working set.
fn gradual_levels() -> Vec<(f64, f64)> {
    vec![
        (0.30, 0.015),
        (0.12, 0.075),
        (0.05, 0.15),
        (0.05, 0.3),
        (0.05, 0.6),
        (0.05, 1.0),
        (0.05, 2.0),
        (0.33, 16.0),
    ]
}

fn k(name: &str, ctas: u32, spec: PatternSpec) -> Kernel {
    Kernel::new(name, ctas, CTA_THREADS, spec)
}

/// Builds the 21-benchmark strong-scaling suite of Table II.
///
/// # Example
///
/// ```
/// use gsim_trace::{suite::strong_suite, MemScale};
///
/// let suite = strong_suite(MemScale::default());
/// assert_eq!(suite.len(), 21);
/// assert!(suite.iter().any(|b| b.abbr == "dct"));
/// ```
pub fn strong_suite(scale: MemScale) -> Vec<StrongBenchmark> {
    STRONG_SUITE.iter().map(|(_, build)| build(scale)).collect()
}

/// Looks a benchmark up by abbreviation, building only that one.
pub fn strong_benchmark(abbr: &str, scale: MemScale) -> Option<StrongBenchmark> {
    STRONG_SUITE
        .iter()
        .find(|(a, _)| *a == abbr)
        .map(|(_, build)| build(scale))
}

/// Builds one Table II benchmark at a memory miniature.
type Builder = fn(MemScale) -> StrongBenchmark;

/// Table II in order: each benchmark's abbreviation and its builder.
const STRONG_SUITE: [(&str, Builder); 21] = [
    ("dct", dct),
    ("fwt", fwt),
    ("bp", bp),
    ("va", va),
    ("as", r#as),
    ("lu", lu),
    ("st", st),
    ("bfs", bfs),
    ("unet", unet),
    ("sr", sr),
    ("gr", gr),
    ("btree", btree),
    ("pf", pf),
    ("res50", res50),
    ("res34", res34),
    ("ht", ht),
    ("at", at),
    ("gemm", gemm),
    ("2mm", mm2),
    ("lbm", lbm),
    ("bs", bs),
];

// --- super-linear: reused working sets that fit the target LLC ---------

fn dct(scale: MemScale) -> StrongBenchmark {
    // Reused working set between the 17 MB (64-SM) and 34 MB (128-SM)
    // LLCs: the Figure 2 (left) cliff. The sweep covers ~23 MB of the
    // 33 MB footprint — the actively reused transform planes — which
    // leaves the set-imbalance margin a real cache needs to actually
    // hold a working set (a 33 MB set on a 34 MB LRU cache still
    // thrashes a fraction of its sets).
    let spec = sweep(scale, 23.4).compute_per_mem(3.0).write_frac(0.1);
    StrongBenchmark {
        abbr: "dct",
        full_name: "Discrete Cosine Transform",
        origin: "CUDA SDK",
        cta_sizes_paper: "2,304; 36,864; 512",
        expected: ScalingClass::SuperLinear,
        workload: Workload::new("dct", 101, repeat(k("dct8x8", 768, spec), 8))
            .with_footprint_mb(33.0)
            .with_paper_minsns(10_270.0),
    }
}

fn fwt(scale: MemScale) -> StrongBenchmark {
    // 67 MB footprint streamed once, with a ~30 MB reused transform core:
    // cliff appears only at the 34 MB 128-SM LLC.
    let cold = stream(scale, 33.0).compute_per_mem(2.8);
    let hot = sweep(scale, 23.0).compute_per_mem(2.8);
    StrongBenchmark {
        abbr: "fwt",
        full_name: "FastWalsh Transform",
        origin: "CUDA SDK",
        cta_sizes_paper: "8,192; 4,096; 128",
        expected: ScalingClass::SuperLinear,
        workload: Workload::new("fwt", 102, {
            let mut ks = vec![k("init", 768, cold)];
            ks.extend(repeat(k("walsh", 768, hot), 10));
            ks
        })
        .with_footprint_mb(67.1)
        .with_paper_minsns(4_163.0),
    }
}

fn bp(scale: MemScale) -> StrongBenchmark {
    // 18.8 MB fits only the 34 MB LLC: cliff at 128 SMs.
    let spec = sweep(scale, 18.8).compute_per_mem(3.0).write_frac(0.15);
    StrongBenchmark {
        abbr: "bp",
        full_name: "Back Propagation",
        origin: "Rodinia",
        cta_sizes_paper: "8,192",
        expected: ScalingClass::SuperLinear,
        workload: Workload::new("bp", 103, repeat(k("layerforward", 768, spec), 8))
            .with_footprint_mb(18.8)
            .with_paper_minsns(424.0),
    }
}

fn va(scale: MemScale) -> StrongBenchmark {
    // 50.3 MB footprint; the iterated vector core (~26 MB) is what fits
    // the target LLC and produces super-linear scaling.
    let cold = stream(scale, 25.0).compute_per_mem(2.6);
    let hot = sweep(scale, 24.0).compute_per_mem(2.6);
    StrongBenchmark {
        abbr: "va",
        full_name: "Vector Add",
        origin: "CUDA SDK",
        cta_sizes_paper: "16,384",
        expected: ScalingClass::SuperLinear,
        workload: Workload::new("va", 104, {
            let mut ks = vec![k("init", 768, cold)];
            ks.extend(repeat(k("vadd", 768, hot), 10));
            ks
        })
        .with_footprint_mb(50.3)
        .with_paper_minsns(92.0),
    }
}

fn r#as(scale: MemScale) -> StrongBenchmark {
    let cold = stream(scale, 30.0).compute_per_mem(2.4);
    let hot = sweep(scale, 25.0).compute_per_mem(2.4);
    StrongBenchmark {
        abbr: "as",
        full_name: "Async",
        origin: "CUDA SDK",
        cta_sizes_paper: "32,768",
        expected: ScalingClass::SuperLinear,
        workload: Workload::new("as", 105, {
            let mut ks = vec![k("copy", 768, cold)];
            ks.extend(repeat(k("async", 768, hot), 10));
            ks
        })
        .with_footprint_mb(67.1)
        .with_paper_minsns(218.0),
    }
}

fn lu(scale: MemScale) -> StrongBenchmark {
    // The reused ~11.5 MB decomposition core fits the 17 MB 64-SM LLC
    // (with set-imbalance margin) but not the 8.5 MB 32-SM one: the
    // earliest cliff in the suite, as the paper's 16.8 MB footprint
    // implies.
    let spec = sweep(scale, 11.5).compute_per_mem(3.2).write_frac(0.2);
    StrongBenchmark {
        abbr: "lu",
        full_name: "LU decomposition",
        origin: "Polybench",
        cta_sizes_paper: "16,384",
        expected: ScalingClass::SuperLinear,
        workload: Workload::new("lu", 106, repeat(k("lud", 768, spec), 12))
            .with_footprint_mb(16.8)
            .with_paper_minsns(146.0),
    }
}

fn st(scale: MemScale) -> StrongBenchmark {
    // Large streamed grid with a ~32 MB reused plane of the 3-D stencil.
    let cold = stream(scale, 33.0).compute_per_mem(3.0);
    let hot = sweep(scale, 24.5).compute_per_mem(3.0).write_frac(0.25);
    StrongBenchmark {
        abbr: "st",
        full_name: "Stencil",
        origin: "Parboil",
        cta_sizes_paper: "2,096",
        expected: ScalingClass::SuperLinear,
        workload: Workload::new("st", 107, {
            let mut ks = vec![k("sweep", 768, cold)];
            ks.extend(repeat(k("stencil", 768, hot), 10));
            ks
        })
        .with_footprint_mb(131.9)
        .with_paper_minsns(557.0),
    }
}

// --- sub-linear: imbalance and slice camping ----------------------------

fn bfs(scale: MemScale) -> StrongBenchmark {
    // Level-synchronous BFS: one kernel per frontier level. Small levels
    // cannot fill a large GPU — the paper's workload–architecture
    // imbalance. Divergent, atomic-heavy irregular accesses give the
    // gradual Figure 2 (middle) miss-rate curve.
    let frontier = |ctas: u32| {
        k(
            "frontier",
            ctas,
            mix(scale, 20.4, gradual_levels())
                .mem_ops_per_warp(24)
                .compute_per_mem(4.0)
                .divergence(1)
                .shared_hot(0.015, 16),
        )
    };
    // Tiny frontier levels bracketing each full-graph level: the tiny
    // kernels cannot fill even an 8-SM GPU, so imbalance bites from the
    // smallest scale model onward and worsens hyperbolically with size
    // (T ~ A/size + B), the paper's bfs trajectory (1.8x, 1.55x, 1.43x).
    let grids = [16, 768, 16, 16, 768, 16, 16, 768, 16];
    StrongBenchmark {
        abbr: "bfs",
        full_name: "Breadth-First Search",
        origin: "Rodinia",
        cta_sizes_paper: "1,024",
        expected: ScalingClass::SubLinear,
        workload: Workload::new("bfs", 108, grids.iter().map(|&g| frontier(g)).collect())
            .with_footprint_mb(20.4)
            .with_paper_minsns(257.0),
    }
}

fn unet(scale: MemScale) -> StrongBenchmark {
    // Encoder/decoder layer pyramid: grid sizes shrink toward the
    // bottleneck layers, starving large GPUs.
    let layer = |name: &str, ctas: u32| {
        k(
            name,
            ctas,
            mix(scale, 615.0, vec![(0.55, 0.002), (0.45, 4.0)])
                .mem_ops_per_warp(20)
                .compute_per_mem(4.0),
        )
    };
    let grids = [
        ("enc0", 768),
        ("enc1", 24),
        ("enc2", 768),
        ("bottleneck", 24),
        ("dec2", 768),
        ("dec1", 24),
        ("dec0", 768),
    ];
    StrongBenchmark {
        abbr: "unet",
        full_name: "3D-unet",
        origin: "MLPerf",
        cta_sizes_paper: "from 128 to 21,846",
        expected: ScalingClass::SubLinear,
        workload: Workload::new(
            "unet",
            109,
            grids.iter().map(|&(n, g)| layer(n, g)).collect(),
        )
        .with_footprint_mb(615.0)
        .with_paper_minsns(20_071.0),
    }
}

fn sr(scale: MemScale) -> StrongBenchmark {
    // Speckle-reducing anisotropic diffusion: big stencil kernels
    // interleaved with tiny reduction kernels.
    let big = || {
        k(
            "srad",
            768,
            mix(scale, 25.2, gradual_levels())
                .mem_ops_per_warp(20)
                .compute_per_mem(3.5)
                .divergence(1),
        )
    };
    let reduce = || {
        k(
            "reduce",
            8,
            mix(scale, 25.2, vec![(0.6, 0.01), (0.4, 8.0)])
                .mem_ops_per_warp(24)
                .compute_per_mem(3.5),
        )
    };
    StrongBenchmark {
        abbr: "sr",
        full_name: "Sradv2",
        origin: "Rodinia",
        cta_sizes_paper: "4,096",
        expected: ScalingClass::SubLinear,
        workload: Workload::new(
            "sr",
            110,
            vec![big(), reduce(), reduce(), big(), reduce(), reduce()],
        )
        .with_footprint_mb(25.2)
        .with_paper_minsns(661.0),
    }
}

fn gr(scale: MemScale) -> StrongBenchmark {
    // The paper's own kernel grids (4,096; 816; 1,536; 2,048): the odd-
    // sized grids leave waves partially empty on large machines.
    let grad = |name: &str, ctas: u32| {
        k(
            name,
            ctas,
            mix(scale, 46.1, gradual_levels())
                .mem_ops_per_warp(15)
                .compute_per_mem(3.5)
                .divergence(1)
                .shared_hot(0.01, 24),
        )
    };
    StrongBenchmark {
        abbr: "gr",
        full_name: "Gradient",
        origin: "CUDA SDK",
        cta_sizes_paper: "4,096; 816; 1,536; 2,048",
        expected: ScalingClass::SubLinear,
        workload: Workload::new(
            "gr",
            111,
            vec![
                grad("gx", 768),
                grad("gy", 8),
                grad("sobel", 8),
                grad("mag", 768),
                grad("dir", 8),
                grad("gx2", 768),
                grad("gy2", 8),
                grad("nms", 8),
                grad("hyst", 8),
                grad("trace", 8),
                grad("mag2", 768),
            ],
        )
        .with_footprint_mb(46.1)
        .with_paper_minsns(318.0),
    }
}

fn btree(scale: MemScale) -> StrongBenchmark {
    // B+tree traversals: divergent pointer chasing plus atomics on the few
    // lines of the top tree levels — LLC-slice camping grows with SM count
    // (the paper's shared-data-congestion mechanism).
    let lookup = |name: &str, ctas: u32| {
        k(
            name,
            ctas,
            mix(scale, 17.4, vec![(0.35, 0.004), (0.15, 0.08), (0.5, 16.0)])
                .mem_ops_per_warp(24)
                .compute_per_mem(3.0)
                .divergence(1)
                .shared_hot(0.02, 24),
        )
    };
    StrongBenchmark {
        abbr: "btree",
        full_name: "B+trees",
        origin: "Rodinia",
        cta_sizes_paper: "6,000; 10,000",
        expected: ScalingClass::SubLinear,
        workload: Workload::new(
            "btree",
            112,
            vec![
                lookup("init", 8),
                lookup("findK", 768),
                lookup("transfer", 8),
                lookup("transfer2", 8),
                lookup("findRangeK", 768),
                lookup("maintain", 8),
                lookup("maintain2", 8),
                lookup("findRangeK2", 768),
                lookup("teardown", 8),
            ],
        )
        .with_footprint_mb(17.4)
        .with_paper_minsns(670.0),
    }
}

// --- linear: compute-bound, or footprints beyond every LLC -------------

fn pf(scale: MemScale) -> StrongBenchmark {
    // 404 MB footprint dwarfs even the 34 MB target LLC: high, flat MPKI
    // and linear scaling under proportional resources (Fig. 2 right).
    let spec = sweep(scale, 404.1).compute_per_mem(2.0).write_frac(0.1);
    StrongBenchmark {
        abbr: "pf",
        full_name: "Path Finder",
        origin: "Rodinia",
        cta_sizes_paper: "4,630",
        expected: ScalingClass::Linear,
        workload: Workload::new("pf", 113, repeat(k("dynproc", 4608, spec), 2))
            .with_footprint_mb(404.1)
            .with_paper_minsns(4_037.0),
    }
}

fn res50(scale: MemScale) -> StrongBenchmark {
    // Compute-heavy convolutions streaming activations/weights far larger
    // than any LLC. (Modelled stream coverage is capped below the paper's
    // 1.4 GB; beyond "much larger than the LLC" extra coverage changes
    // nothing — DESIGN.md §5.)
    let spec = stream(scale, 200.0).compute_per_mem(6.0);
    StrongBenchmark {
        abbr: "res50",
        full_name: "Resnet50",
        origin: "MLPerf",
        cta_sizes_paper: "from 64 to 66,904",
        expected: ScalingClass::Linear,
        workload: Workload::new("res50", 114, vec![k("conv", 3072, spec)])
            .with_footprint_mb(1_388.1)
            .with_paper_minsns(85_067.0),
    }
}

fn res34(scale: MemScale) -> StrongBenchmark {
    let spec = stream(scale, 160.0).compute_per_mem(5.0);
    StrongBenchmark {
        abbr: "res34",
        full_name: "SSD-Resnet34",
        origin: "MLPerf",
        cta_sizes_paper: "from 32 to 306,383",
        expected: ScalingClass::Linear,
        workload: Workload::new("res34", 115, vec![k("conv", 3072, spec)])
            .with_footprint_mb(845.8)
            .with_paper_minsns(47_369.0),
    }
}

fn ht(scale: MemScale) -> StrongBenchmark {
    // 12.5 MB footprint smaller than the big LLCs, but almost zero reuse
    // (paper Section IV.2): fitting the cache buys nothing, scaling stays
    // linear. One cold pass plus a compute epilogue.
    let spec = stream(scale, 12.5).compute_per_mem(1.0).tail_compute(60);
    StrongBenchmark {
        abbr: "ht",
        full_name: "HotSpot",
        origin: "Rodinia",
        cta_sizes_paper: "7,396",
        expected: ScalingClass::Linear,
        workload: Workload::new("ht", 116, vec![k("hotspot", 3840, spec)])
            .with_footprint_mb(12.5)
            .with_paper_minsns(421.0),
    }
}

fn at(scale: MemScale) -> StrongBenchmark {
    let spec = sweep(scale, 100.0).compute_per_mem(1.0);
    StrongBenchmark {
        abbr: "at",
        full_name: "Aligned Types",
        origin: "CUDA SDK",
        cta_sizes_paper: "2,048",
        expected: ScalingClass::Linear,
        workload: Workload::new("at", 117, repeat(k("aligned", 3072, spec), 4))
            .with_footprint_mb(100.0)
            .with_paper_minsns(2_150.0),
    }
}

fn gemm(scale: MemScale) -> StrongBenchmark {
    // Blocked matrix multiply: tile reuse is captured next to the SM, and
    // arithmetic intensity dominates — memory is never the bottleneck, so
    // scaling is linear even though 12.6 MB would fit the big LLCs
    // (the paper's point that fitting is necessary but not sufficient).
    let spec = PatternSpec::new(
        PatternKind::Tiled {
            tile_lines: 4,
            reuses: 24,
        },
        mb(scale, 12.6),
    )
    .mem_ops_per_warp(24)
    .compute_per_mem(10.0);
    StrongBenchmark {
        abbr: "gemm",
        full_name: "Matrix-multiply C=alpha.A.B+beta.C",
        origin: "Polybench",
        cta_sizes_paper: "4,096",
        expected: ScalingClass::Linear,
        workload: Workload::new("gemm", 118, vec![k("gemm", 768, spec)])
            .with_footprint_mb(12.6)
            .with_paper_minsns(7_030.0),
    }
}

fn mm2(scale: MemScale) -> StrongBenchmark {
    let tile = |name: &str| {
        k(
            name,
            768,
            PatternSpec::new(
                PatternKind::Tiled {
                    tile_lines: 4,
                    reuses: 16,
                },
                mb(scale, 21.0),
            )
            .mem_ops_per_warp(16)
            .compute_per_mem(8.0),
        )
    };
    StrongBenchmark {
        abbr: "2mm",
        full_name: "2 Matrix Multiplications",
        origin: "Polybench",
        cta_sizes_paper: "8,192",
        expected: ScalingClass::Linear,
        workload: Workload::new("2mm", 119, vec![tile("mm1"), tile("mm2")])
            .with_footprint_mb(21.0)
            .with_paper_minsns(12_921.0),
    }
}

fn lbm(scale: MemScale) -> StrongBenchmark {
    let spec = sweep(scale, 359.4).compute_per_mem(1.2).write_frac(0.3);
    StrongBenchmark {
        abbr: "lbm",
        full_name: "Lattice-Boltzmann Method",
        origin: "Parboil",
        cta_sizes_paper: "18,000",
        expected: ScalingClass::Linear,
        workload: Workload::new("lbm", 120, repeat(k("stream-collide", 4608, spec), 2))
            .with_footprint_mb(359.4)
            .with_paper_minsns(553.0),
    }
}

fn bs(scale: MemScale) -> StrongBenchmark {
    let spec = sweep(scale, 80.1).compute_per_mem(3.0).write_frac(0.2);
    StrongBenchmark {
        abbr: "bs",
        full_name: "Black Scholes",
        origin: "CUDA SDK",
        cta_sizes_paper: "15,625",
        expected: ScalingClass::Linear,
        workload: Workload::new("bs", 121, repeat(k("blackscholes", 3072, spec), 3))
            .with_footprint_mb(80.1)
            .with_paper_minsns(863.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_21_benchmarks() {
        let suite = strong_suite(MemScale::default());
        assert_eq!(suite.len(), 21);
        let abbrs: Vec<&str> = suite.iter().map(|b| b.abbr).collect();
        for a in [
            "dct", "fwt", "bp", "va", "as", "lu", "st", "bfs", "unet", "sr", "gr", "btree", "pf",
            "res50", "res34", "ht", "at", "gemm", "2mm", "lbm", "bs",
        ] {
            assert!(abbrs.contains(&a), "missing {a}");
        }
    }

    #[test]
    fn classification_counts_match_table_2() {
        let suite = strong_suite(MemScale::default());
        let count = |c: ScalingClass| suite.iter().filter(|b| b.expected == c).count();
        assert_eq!(count(ScalingClass::SuperLinear), 7);
        assert_eq!(count(ScalingClass::SubLinear), 5);
        assert_eq!(count(ScalingClass::Linear), 9);
    }

    #[test]
    fn lookup_by_abbr() {
        let b = strong_benchmark("dct", MemScale::default()).expect("dct exists");
        assert_eq!(b.workload.footprint_mb_paper(), 33.0);
        assert!(strong_benchmark("nope", MemScale::default()).is_none());
    }

    #[test]
    fn lookup_builds_the_suites_entry() {
        let scale = MemScale::new(32);
        let meta = |b: &StrongBenchmark| (b.abbr, b.full_name, b.origin, b.cta_sizes_paper);
        for want in strong_suite(scale) {
            let got = strong_benchmark(want.abbr, scale).expect("every suite entry looks up");
            assert_eq!(meta(&got), meta(&want));
            assert_eq!(got.expected, want.expected, "{}", want.abbr);
            assert_eq!(
                crate::semantic_hash_of(&got.workload),
                crate::semantic_hash_of(&want.workload),
                "{}",
                want.abbr
            );
            assert_eq!(got.workload, want.workload, "{}", want.abbr);
        }
    }

    #[test]
    fn super_linear_working_sets_straddle_the_llc_range() {
        // The reused working set of every super-linear benchmark must lie
        // between the smallest scale-model LLC and the largest target LLC,
        // otherwise no cliff can appear in the studied range.
        let scale = MemScale::default();
        let llc_min = scale.mb_to_model_lines(2.125);
        let llc_max = scale.mb_to_model_lines(34.0);
        for b in strong_suite(scale) {
            if b.expected == ScalingClass::SuperLinear {
                let reused = b
                    .workload
                    .kernels()
                    .iter()
                    .filter(|k| matches!(k.spec().kind(), PatternKind::GlobalSweep { .. }))
                    .map(|k| k.spec().footprint_lines())
                    .max()
                    .expect("super-linear benchmark must have a reused sweep");
                assert!(
                    reused > llc_min && reused <= llc_max,
                    "{}: reused working set {} lines outside ({llc_min}, {llc_max}]",
                    b.abbr,
                    reused
                );
            }
        }
    }

    #[test]
    fn workload_sizes_are_tractable() {
        // The whole suite should stay within a laptop-scale instruction
        // budget (DESIGN.md §5): each benchmark 0.1M..8M warp instructions.
        for b in strong_suite(MemScale::default()) {
            let wi = b.workload.approx_warp_instrs();
            assert!(
                (100_000..8_000_000).contains(&wi),
                "{}: {} warp instructions outside budget",
                b.abbr,
                wi
            );
        }
    }

    #[test]
    fn footprints_report_paper_units() {
        for b in strong_suite(MemScale::default()) {
            assert!(b.workload.footprint_mb_paper() > 0.0, "{}", b.abbr);
            assert!(b.workload.paper_minsns() > 0.0, "{}", b.abbr);
        }
    }

    #[test]
    fn workloads_are_deterministic_across_builds() {
        let a = strong_benchmark("bfs", MemScale::default()).unwrap();
        let b = strong_benchmark("bfs", MemScale::default()).unwrap();
        assert_eq!(a.workload, b.workload);
    }
}
