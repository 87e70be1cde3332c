//! The weak-scaling benchmark suite (paper Table IV).
//!
//! Under weak scaling the workload grows with the system: the paper scales
//! six benchmarks' inputs so the work per SM stays constant, giving five
//! input sizes matched to the 8-, 16-, 32-, 64- and 128-SM systems. A
//! subset of rows (the `MCM` column of Table IV) is reused for the
//! multi-chiplet case study, where the same workloads are scaled to 4-, 8-
//! and 16-chiplet systems of 64 SMs each.
//!
//! Synthetic model workloads scale exactly like the paper's inputs: grid
//! sizes and footprints grow proportionally with the *scale factor*
//! (target size ÷ 8 SMs), while fixed-size components — bfs's small
//! frontier kernels, bs's shared reduction counters — stay fixed, which is
//! what makes those two benchmarks sub-linear under weak scaling.

use crate::kernel::{Kernel, Workload};
use crate::pattern::{PatternKind, PatternSpec};
use crate::scale::MemScale;
use crate::suite::{ScalingClass, CTA_THREADS};
use crate::SM_LADDER;

/// One row of Table IV: an input size matched to one system size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeakRow {
    /// CTA count published in Table IV.
    pub ctas_paper: u32,
    /// Footprint in MB published in Table IV.
    pub footprint_mb: f64,
    /// Simulated instructions (millions) published in Table IV.
    pub minsns: f64,
    /// Whether this row carries the MCM checkmark.
    pub mcm: bool,
}

/// Which of the six weak-scalable benchmarks this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WeakKind {
    Bfs,
    Bs,
    Btree,
    As,
    Bp,
    Va,
}

/// A Table IV benchmark: five scaled inputs plus the workload builder.
#[derive(Debug, Clone)]
pub struct WeakBenchmark {
    /// Abbreviation (bfs, bs, btree, as, bp, va).
    pub abbr: &'static str,
    /// The paper's weak-scaling classification (Table IV).
    pub expected: ScalingClass,
    /// The five input rows, smallest (8-SM) first.
    pub rows: [WeakRow; 5],
    kind: WeakKind,
    scale: MemScale,
}

impl WeakBenchmark {
    /// The workload for row `row` (0 = the 8-SM input).
    ///
    /// # Panics
    ///
    /// Panics if `row >= 5`.
    pub fn workload_for_row(&self, row: usize) -> Workload {
        assert!(row < 5, "Table IV has five rows");
        let factor = 1u64 << row;
        self.build(factor, self.rows[row].footprint_mb)
            .with_paper_minsns(self.rows[row].minsns)
    }

    /// The workload matched to an `n_sms`-SM system, or `None` unless
    /// `n_sms` is on [`SM_LADDER`].
    pub fn workload_for_sms(&self, n_sms: u32) -> Option<Workload> {
        let row = SM_LADDER.iter().position(|&s| s == n_sms)?;
        Some(self.workload_for_row(row))
    }

    /// The workload scaled to an `n_chiplets`-chiplet MCM system of 64 SMs
    /// per chiplet (Section VII.D): the scale factor relative to the 8-SM
    /// base is `64 * n_chiplets / 8`.
    ///
    /// # Panics
    ///
    /// Panics if `n_chiplets` is zero.
    pub fn workload_for_chiplets(&self, n_chiplets: u32) -> Workload {
        assert!(n_chiplets > 0, "need at least one chiplet");
        let factor = u64::from(n_chiplets) * 8;
        let fp_mb = self.rows[0].footprint_mb * factor as f64;
        self.build(factor, fp_mb)
    }

    /// Rows carrying the MCM checkmark, if this benchmark participates in
    /// the multi-chiplet case study (btree is excluded, as in the paper).
    pub fn mcm_rows(&self) -> Option<[usize; 3]> {
        if self.kind == WeakKind::Btree {
            return None;
        }
        let marked: Vec<usize> = self
            .rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.mcm)
            .map(|(i, _)| i)
            .collect();
        marked.try_into().ok()
    }

    /// This benchmark at memory miniature `scale`.
    fn at(&self, scale: MemScale) -> Self {
        Self {
            scale,
            ..self.clone()
        }
    }

    /// Builds the synthetic workload for an arbitrary scale `factor`
    /// (1 = the 8-SM base input) and footprint.
    fn build(&self, factor: u64, footprint_mb: f64) -> Workload {
        let s = self.scale;
        let fp = s.mb_to_model_lines(footprint_mb);
        let grid = |base: u64| u32::try_from(base * factor).expect("grid overflow");
        // Round a sweep footprint up to a whole number of lines per warp,
        // so every input size wraps identically (a fractional final wrap
        // would otherwise change the reuse composition between rows and
        // perturb the correction factor the predictor measures).
        let sweep_fp = |fp: u64, grid_ctas: u32| {
            let warps = u64::from(grid_ctas) * 8;
            fp.div_ceil(warps) * warps
        };
        let seed = 500 + self.kind as u64;
        let k =
            |name: &str, ctas: u32, spec: PatternSpec| Kernel::new(name, ctas, CTA_THREADS, spec);
        let wl = match self.kind {
            WeakKind::Bfs => {
                // Frontier pyramid: the big levels scale with the input,
                // the first/last levels stay tiny regardless of scale.
                let level = |ctas: u32| {
                    k(
                        "frontier",
                        ctas,
                        PatternSpec::new(
                            PatternKind::WorkingSetMix {
                                levels: vec![
                                    (0.30, 0.015),
                                    (0.12, 0.075),
                                    (0.05, 0.15),
                                    (0.05, 0.3),
                                    (0.05, 0.6),
                                    (0.05, 1.0),
                                    (0.05, 2.0),
                                    (0.33, 16.0),
                                ],
                            },
                            fp,
                        )
                        .mem_ops_per_warp(24)
                        .compute_per_mem(3.0)
                        .divergence(2)
                        .shared_hot(0.03, 16),
                    )
                };
                Workload::new(
                    "bfs-weak",
                    seed,
                    vec![
                        level(16),
                        level(grid(32)),
                        level(grid(128)),
                        level(grid(32)),
                        level(16),
                    ],
                )
            }
            WeakKind::Bs => {
                // Option pricing over a scaled array, with fixed shared
                // accumulation counters that camp on LLC slices. Reuse
                // happens across kernel relaunches, as in the strong suite.
                let ctas = grid(256);
                let spec =
                    PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, sweep_fp(fp, ctas))
                        .compute_per_mem(3.0)
                        .write_frac(0.2)
                        .shared_hot(0.03, 16);
                let kernel = k("blackscholes", ctas, spec);
                Workload::new(
                    "bs-weak",
                    seed,
                    vec![kernel.clone(), kernel.clone(), kernel],
                )
            }
            WeakKind::Btree => {
                // The tree grows with the input, so the top levels (the hot
                // set) grow too — camping pressure stays constant: linear.
                let hot_lines = 12 * factor;
                let lookup = |name: &str, base: u64| {
                    k(
                        name,
                        grid(base),
                        PatternSpec::new(PatternKind::PointerChase, fp)
                            .mem_ops_per_warp(30)
                            .compute_per_mem(1.0)
                            .divergence(6)
                            .shared_hot(0.05, hot_lines),
                    )
                };
                Workload::new(
                    "btree-weak",
                    seed,
                    vec![lookup("findK", 72), lookup("findRangeK", 120)],
                )
            }
            WeakKind::As => {
                let ctas = grid(256);
                let spec =
                    PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, sweep_fp(fp, ctas))
                        .compute_per_mem(0.8)
                        .write_frac(0.1);
                let kernel = k("async", ctas, spec);
                Workload::new("as-weak", seed, vec![kernel; 4])
            }
            WeakKind::Bp => {
                let ctas = grid(192);
                let spec =
                    PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, sweep_fp(fp, ctas))
                        .compute_per_mem(2.0)
                        .write_frac(0.15);
                let kernel = k("layerforward", ctas, spec);
                Workload::new("bp-weak", seed, vec![kernel; 6])
            }
            WeakKind::Va => {
                let ctas = grid(128);
                let spec =
                    PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, sweep_fp(fp, ctas))
                        .compute_per_mem(1.0)
                        .write_frac(0.33);
                let kernel = k("vadd", ctas, spec);
                Workload::new("va-weak", seed, vec![kernel; 4])
            }
        };
        wl.with_footprint_mb(footprint_mb)
    }
}

/// Builds the six-benchmark weak-scaling suite of Table IV.
///
/// # Example
///
/// ```
/// use gsim_trace::{weak::weak_suite, MemScale};
///
/// let suite = weak_suite(MemScale::default());
/// assert_eq!(suite.len(), 6);
/// let bfs = &suite[0];
/// let small = bfs.workload_for_sms(8).unwrap();
/// let big = bfs.workload_for_sms(128).unwrap();
/// assert!(big.total_ctas() > 10 * small.total_ctas());
/// assert!(bfs.workload_for_sms(48).is_none());
/// ```
pub fn weak_suite(scale: MemScale) -> Vec<WeakBenchmark> {
    WEAK_SUITE.iter().map(|b| b.at(scale)).collect()
}

/// Looks a weak benchmark up by abbreviation, building only that one.
pub fn weak_benchmark(abbr: &str, scale: MemScale) -> Option<WeakBenchmark> {
    WEAK_SUITE
        .iter()
        .find(|b| b.abbr == abbr)
        .map(|b| b.at(scale))
}

const fn row(ctas_paper: u32, footprint_mb: f64, minsns: f64, mcm: bool) -> WeakRow {
    WeakRow {
        ctas_paper,
        footprint_mb,
        minsns,
        mcm,
    }
}

/// Table IV in order, at full size: [`weak_suite`] and [`weak_benchmark`]
/// copy entries out at the memory miniature asked for.
const WEAK_SUITE: [WeakBenchmark; 6] = [
    WeakBenchmark {
        abbr: "bfs",
        expected: ScalingClass::SubLinear,
        // Table IV (first-row footprint follows the ×2 progression).
        rows: [
            row(128, 2.55, 30.0, false),
            row(256, 5.1, 61.0, false),
            row(512, 10.2, 128.0, true),
            row(1024, 20.4, 257.0, true),
            row(2046, 40.9, 549.0, true),
        ],
        kind: WeakKind::Bfs,
        scale: MemScale::full(),
    },
    WeakBenchmark {
        abbr: "bs",
        expected: ScalingClass::SubLinear,
        rows: [
            row(15_625, 40.0, 431.0, true),
            row(31_250, 80.0, 862.0, true),
            row(62_500, 160.0, 1_724.0, true),
            row(125_000, 320.0, 3_448.0, false),
            row(250_000, 640.0, 6_898.0, false),
        ],
        kind: WeakKind::Bs,
        scale: MemScale::full(),
    },
    WeakBenchmark {
        abbr: "btree",
        expected: ScalingClass::Linear,
        rows: [
            row(2_500, 4.3, 167.0, false),
            row(5_000, 8.7, 335.0, false),
            row(10_000, 17.4, 670.0, false),
            row(20_000, 34.7, 1_341.0, false),
            row(40_000, 69.4, 2_682.0, false),
        ],
        kind: WeakKind::Btree,
        scale: MemScale::full(),
    },
    WeakBenchmark {
        abbr: "as",
        expected: ScalingClass::Linear,
        rows: [
            row(2_048, 4.2, 13.5, false),
            row(4_096, 8.7, 27.0, false),
            row(8_192, 16.78, 54.0, true),
            row(16_384, 33.6, 109.0, true),
            row(32_768, 67.1, 218.0, true),
        ],
        kind: WeakKind::As,
        scale: MemScale::full(),
    },
    WeakBenchmark {
        abbr: "bp",
        expected: ScalingClass::Linear,
        // First-row footprint follows the ×2 progression of the
        // published larger rows.
        rows: [
            row(4_096, 9.4, 212.0, false),
            row(8_192, 18.9, 424.0, true),
            row(16_384, 37.7, 848.0, true),
            row(32_768, 75.5, 1_696.0, true),
            row(65_536, 151.0, 3_392.0, false),
        ],
        kind: WeakKind::Bp,
        scale: MemScale::full(),
    },
    WeakBenchmark {
        abbr: "va",
        expected: ScalingClass::Linear,
        rows: [
            row(1_024, 3.1, 5.8, false),
            row(2_048, 6.3, 11.5, false),
            row(4_096, 12.6, 23.0, true),
            row(8_196, 25.2, 46.0, true),
            row(16_384, 50.3, 92.0, true),
        ],
        kind: WeakKind::Va,
        scale: MemScale::full(),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_benchmarks_five_rows() {
        let suite = weak_suite(MemScale::default());
        assert_eq!(suite.len(), 6);
        for b in &suite {
            assert_eq!(b.rows.len(), 5);
            for w in b.rows.windows(2) {
                assert!(
                    w[1].footprint_mb > w[0].footprint_mb,
                    "{}: footprints must grow",
                    b.abbr
                );
            }
        }
    }

    #[test]
    fn work_scales_with_system_size() {
        for b in weak_suite(MemScale::default()) {
            let w8 = b.workload_for_sms(8).unwrap().approx_warp_instrs() as f64;
            let w128 = b.workload_for_sms(128).unwrap().approx_warp_instrs() as f64;
            let ratio = w128 / w8;
            assert!(
                (8.0..32.0).contains(&ratio),
                "{}: 128-SM input should be ~16x the 8-SM input, got {ratio:.1}x",
                b.abbr
            );
        }
    }

    #[test]
    fn bfs_small_kernels_stay_fixed() {
        let bfs = weak_benchmark("bfs", MemScale::default()).unwrap();
        for row in 0..5 {
            let wl = bfs.workload_for_row(row);
            assert_eq!(wl.kernels().first().unwrap().n_ctas(), 16);
            assert_eq!(wl.kernels().last().unwrap().n_ctas(), 16);
        }
    }

    #[test]
    fn mcm_rows_match_table_4() {
        let suite = weak_suite(MemScale::default());
        let get = |a: &str| suite.iter().find(|b| b.abbr == a).unwrap();
        assert_eq!(get("bfs").mcm_rows(), Some([2, 3, 4]));
        assert_eq!(get("bs").mcm_rows(), Some([0, 1, 2]));
        assert_eq!(get("btree").mcm_rows(), None, "excluded as in the paper");
        assert_eq!(get("as").mcm_rows(), Some([2, 3, 4]));
        assert_eq!(get("bp").mcm_rows(), Some([1, 2, 3]));
        assert_eq!(get("va").mcm_rows(), Some([2, 3, 4]));
    }

    #[test]
    fn chiplet_workloads_scale_with_chiplet_count() {
        let va = weak_benchmark("va", MemScale::default()).unwrap();
        let w4 = va.workload_for_chiplets(4);
        let w16 = va.workload_for_chiplets(16);
        assert_eq!(w16.total_ctas(), 4 * w4.total_ctas());
        assert!((w16.footprint_mb_paper() / w4.footprint_mb_paper() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn btree_hot_set_grows_with_input() {
        // The camping pressure must stay constant under weak scaling.
        let bt = weak_benchmark("btree", MemScale::default()).unwrap();
        let hot = |row: usize| {
            bt.workload_for_row(row).kernels()[0]
                .spec()
                .hot()
                .unwrap()
                .hot_lines
        };
        assert_eq!(hot(4), 16 * hot(0));
    }

    #[test]
    fn lookup_builds_the_suites_entry() {
        use crate::tracefile::semantic_hash_of;
        // The coarsest miniature keeps the hashed op streams short.
        let scale = MemScale::new(384);
        for want in weak_suite(scale) {
            let got = weak_benchmark(want.abbr, scale).unwrap();
            assert_eq!(got.abbr, want.abbr);
            assert_eq!(got.expected, want.expected, "{}", want.abbr);
            assert_eq!(got.rows, want.rows, "{}", want.abbr);
            for row in 0..5 {
                assert_eq!(
                    semantic_hash_of(&got.workload_for_row(row)),
                    semantic_hash_of(&want.workload_for_row(row)),
                    "{} row {row}",
                    want.abbr
                );
            }
        }
    }

    #[test]
    fn lookup_of_an_unknown_abbreviation_is_none() {
        for abbr in ["", "dct", "BFS", "bfs ", "va-weak"] {
            assert!(
                weak_benchmark(abbr, MemScale::default()).is_none(),
                "{abbr:?}"
            );
        }
    }

    #[test]
    fn rejects_unknown_system_size() {
        let va = weak_benchmark("va", MemScale::default()).unwrap();
        for n_sms in [0, 4, 48, 256] {
            assert!(va.workload_for_sms(n_sms).is_none(), "{n_sms} SMs");
        }
    }
}
