//! Seeded input generation.
//!
//! Everything a workload feeds the program is made here from the
//! benchmark seed: the synthetic member each simulator workload adds to
//! its Table II members, and the `/v1/predict` request bodies (and their
//! order) of the serve workloads. The program under test never sees the
//! seed, only these inputs.
//!
//! A seed changes *which* inputs are drawn, never *how much* work they
//! are: the synthetic members vary inside a narrow band, and every
//! seed's request list walks the same lattice of pattern shapes with a
//! few percent of jitter and its own order, so metrics of runs with
//! different seeds stay comparable (the driver's spread rule).

use std::collections::HashSet;

use gsim_json::{obj, Json};
use gsim_rng::Rng64;
use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

/// Threads per CTA of every generated pattern (8 warps).
const THREADS_PER_CTA: u32 = 256;

/// Mixes the benchmark seed with a per-purpose tag so the streams drawn
/// for different purposes are independent.
pub fn rng_for(seed: u64, tag: u64) -> Rng64 {
    Rng64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

fn pick(rng: &mut Rng64, lo: u64, hi: u64) -> u64 {
    rng.gen_range_inclusive(lo, hi)
}

/// The seeded member of `sim_membound_64sm`: a relaunched grid-wide sweep
/// over 46–50 MB at full memory size — far beyond the 64-SM system's
/// 17 MB LLC, so like dct/fwt/va/as/st it is DRAM-bound there.
pub fn membound_member(seed: u64) -> Workload {
    let mut rng = rng_for(seed, 0x6d65_6d62);
    let footprint_mb = 46.0 + pick(&mut rng, 0, 16) as f64 * 0.25;
    let write_frac = pick(&mut rng, 1, 3) as f64 / 20.0;
    let spec = PatternSpec::new(
        PatternKind::GlobalSweep { passes: 1 },
        MemScale::full().mb_to_model_lines(footprint_mb),
    )
    .compute_per_mem(2.5)
    .write_frac(write_frac);
    let kernel = Kernel::new("sweep", 768, THREADS_PER_CTA, spec);
    Workload::new(format!("sweep-s{seed}"), rng.next_u64(), vec![kernel; 4])
        .with_footprint_mb(footprint_mb)
}

/// The seeded member of `sim_compute_scalemodel`: warp-private tiles with
/// ~18 compute instructions per memory op, so issue bandwidth, not
/// memory, bounds it on the 8- and 16-SM scale models.
pub fn compute_member(seed: u64) -> Workload {
    let mut rng = rng_for(seed, 0x636f_6d70);
    let compute_per_mem = 17.5 + pick(&mut rng, 0, 4) as f64 * 0.25;
    let spec = PatternSpec::new(
        PatternKind::Tiled {
            tile_lines: 16,
            reuses: 4,
        },
        MemScale::default().mb_to_model_lines(4.0),
    )
    .mem_ops_per_warp(48)
    .compute_per_mem(compute_per_mem)
    // Which ops are stores is drawn from the workload seed, so every
    // benchmark seed gives another instruction stream.
    .write_frac(0.05);
    Workload::new(
        format!("tiled-s{seed}"),
        rng.next_u64(),
        vec![Kernel::new("tiled", 384, THREADS_PER_CTA, spec)],
    )
    .with_footprint_mb(4.0)
}

/// Which prediction path a generated request is meant for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Memory-bound: the compute-intensity gate answers it functionally.
    MemoryBound,
    /// Compute-bound: needs the two scale-model timing simulations.
    ComputeBound,
}

/// The inline `pattern` of one request. Holds exactly the fields the
/// request body spells out, so the body and the [`Workload`] the service
/// will build from it come from the same values.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternParams {
    kind: PatternKind,
    footprint_mb: f64,
    mem_ops_per_warp: u32,
    compute_per_mem: f64,
    write_frac: f64,
    divergence: u8,
    ctas: u32,
    seed: u32,
}

impl PatternParams {
    /// Pattern number `j` of `regime`. What a request costs is set by
    /// `j` alone — kind, footprint band, grid, intensity walk fixed
    /// lattices — so every seed's list holds the same mix of work; the
    /// seed adds a small jitter (a few percent of one request) that makes
    /// its bodies its own.
    fn draw(rng: &mut Rng64, regime: Regime, j: u64) -> Self {
        let jitter = |rng: &mut Rng64, n: u64| pick(rng, 0, n - 1);
        match regime {
            // At most 4 compute instructions per 128 B memory op keeps the
            // traffic at ≥ 0.8 B per thread instruction, above the
            // machine's 0.57 B balance point: the gate takes the fast path.
            Regime::MemoryBound => {
                let kind = match j % 4 {
                    0 => PatternKind::GlobalSweep {
                        passes: 1 + (j / 4 % 2) as u32,
                    },
                    1 => PatternKind::Streaming,
                    2 => PatternKind::PointerChase,
                    _ => PatternKind::WorkingSetMix {
                        levels: vec![
                            (0.5, (1 + j / 4 % 4) as f64 / 16.0),
                            (0.3, (5 + j / 16 % 8) as f64 / 16.0),
                            (0.2, (2 + j / 4 % 7) as f64),
                        ],
                    },
                };
                Self {
                    kind,
                    footprint_mb: 16.0 + (j * 5 % 32) as f64 + jitter(rng, 4) as f64 * 0.25,
                    mem_ops_per_warp: 32 + (j * 3 % 5) as u32 * 8,
                    compute_per_mem: 0.5 + (j % 8) as f64 * 0.5,
                    write_frac: (j % 4) as f64 / 20.0,
                    divergence: 1 + (j / 2 % 2) as u8,
                    ctas: 96 + (j * 7 % 12) as u32 * 8 + jitter(rng, 8) as u32,
                    seed: rng.next_u64() as u32,
                }
            }
            // ≥ 12 compute instructions per memory op is ≤ 0.31 B per
            // thread instruction, well under the balance point.
            Regime::ComputeBound => Self {
                kind: PatternKind::Tiled {
                    tile_lines: 8 + (j % 4) * 8,
                    reuses: 2 + (j / 4 % 3) as u32 * 2,
                },
                footprint_mb: 2.0 + (j % 5) as f64 + jitter(rng, 4) as f64 * 0.25,
                mem_ops_per_warp: 32 + (j % 3) as u32 * 8,
                compute_per_mem: 12.0 + (j % 6) as f64 * 2.0 + jitter(rng, 4) as f64 * 0.25,
                write_frac: (j % 3) as f64 / 20.0,
                divergence: 1,
                ctas: 112 + (j * 5 % 8) as u32 * 8 + jitter(rng, 8) as u32,
                seed: rng.next_u64() as u32,
            },
        }
    }

    /// What decides the instruction streams: two patterns equal here
    /// may share a semantic hash and would then hit the service's stage
    /// cache. Sweeps and streams derive their op count from the
    /// footprint and ignore `mem_ops_per_warp`; `seed` only matters to
    /// kinds that draw addresses, so it never counts.
    fn structure_key(&self) -> String {
        let Self {
            kind,
            footprint_mb,
            mem_ops_per_warp,
            compute_per_mem,
            write_frac,
            divergence,
            ctas,
            seed: _,
        } = self;
        let mem_ops = match kind {
            PatternKind::GlobalSweep { .. } | PatternKind::Streaming => 0,
            _ => *mem_ops_per_warp,
        };
        format!(
            "{kind:?}|{footprint_mb}|{mem_ops}|{compute_per_mem}|{write_frac}|{divergence}|{ctas}"
        )
    }

    fn pattern_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = Vec::new();
        match &self.kind {
            PatternKind::GlobalSweep { passes } => {
                fields.push(("kind", Json::from("global_sweep")));
                fields.push(("passes", Json::from(*passes)));
            }
            PatternKind::Streaming => fields.push(("kind", Json::from("streaming"))),
            PatternKind::PointerChase => fields.push(("kind", Json::from("pointer_chase"))),
            PatternKind::Tiled { tile_lines, reuses } => {
                fields.push(("kind", Json::from("tiled")));
                fields.push(("tile_lines", Json::from(*tile_lines)));
                fields.push(("reuses", Json::from(*reuses)));
            }
            PatternKind::WorkingSetMix { levels } => {
                fields.push(("kind", Json::from("working_set_mix")));
                fields.push((
                    "levels",
                    Json::Arr(
                        levels
                            .iter()
                            .map(|&(w, f)| Json::Arr(vec![Json::from(w), Json::from(f)]))
                            .collect(),
                    ),
                ));
            }
        }
        fields.extend([
            ("footprint_mb", Json::from(self.footprint_mb)),
            ("mem_ops_per_warp", Json::from(self.mem_ops_per_warp)),
            ("compute_per_mem", Json::from(self.compute_per_mem)),
            ("write_frac", Json::from(self.write_frac)),
            ("divergence", Json::from(u32::from(self.divergence))),
            ("ctas", Json::from(self.ctas)),
            ("threads_per_cta", Json::from(THREADS_PER_CTA)),
            ("seed", Json::from(self.seed)),
        ]);
        obj(fields)
    }

    /// The workload `/v1/predict` builds from this pattern at the default
    /// memory miniature (mirrors the service's documented pattern fields).
    pub fn workload(&self) -> Workload {
        let spec = PatternSpec::new(
            self.kind.clone(),
            MemScale::default().mb_to_model_lines(self.footprint_mb),
        )
        .mem_ops_per_warp(self.mem_ops_per_warp)
        .compute_per_mem(self.compute_per_mem)
        .write_frac(self.write_frac)
        .divergence(self.divergence);
        Workload::new(
            "pattern",
            u64::from(self.seed),
            vec![Kernel::new("pattern", self.ctas, THREADS_PER_CTA, spec)],
        )
        .with_footprint_mb(self.footprint_mb)
    }
}

/// One generated `/v1/predict` request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// The inline pattern.
    pub pattern: PatternParams,
    /// Requested target sizes.
    pub targets: Vec<u32>,
    /// The request body bytes.
    pub body: String,
}

/// The target sets requests choose from (all on the 8 → 128 ladder).
const TARGET_SETS: [&[u32]; 3] = [&[128], &[64, 128], &[32, 64, 128]];

/// Generates distinct `/v1/predict` requests, continuing one seeded stream
/// across calls: no two requests ever drawn from one generator share the
/// structure of their pattern, so each is a result- and stage-cache miss.
#[derive(Debug)]
pub struct RequestGen {
    rng: Rng64,
    regime: Regime,
    /// Patterns drawn so far: the next one is number `drawn`.
    drawn: u64,
    seen: HashSet<String>,
}

impl RequestGen {
    /// A generator of `regime` requests for benchmark seed `seed`.
    pub fn new(seed: u64, regime: Regime) -> Self {
        let tag = match regime {
            Regime::MemoryBound => 0x6661_7374,
            Regime::ComputeBound => 0x6675_6c6c,
        };
        Self {
            rng: rng_for(seed, tag),
            regime,
            drawn: 0,
            seen: HashSet::new(),
        }
    }

    /// The next `n` requests of the stream, in an order the seed shuffles.
    pub fn take(&mut self, n: usize) -> Vec<PredictRequest> {
        let path = match self.regime {
            Regime::MemoryBound => "auto",
            Regime::ComputeBound => "full",
        };
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            // A jitter that collides with an earlier pattern is redrawn.
            let pattern = PatternParams::draw(&mut self.rng, self.regime, self.drawn);
            if !self.seen.insert(pattern.structure_key()) {
                continue;
            }
            let targets = TARGET_SETS[(self.drawn % 3) as usize].to_vec();
            self.drawn += 1;
            let body = obj([
                ("pattern", pattern.pattern_json()),
                ("targets", Json::from(targets.clone())),
                ("path", Json::from(path)),
            ])
            .render();
            out.push(PredictRequest {
                pattern,
                targets,
                body,
            });
        }
        // Fisher–Yates: the seed decides the order of the list.
        for i in (1..out.len()).rev() {
            out.swap(i, pick(&mut self.rng, 0, i as u64) as usize);
        }
        out
    }
}

/// The order in which a `serve_hit` client draws from the warmed pool:
/// `n` indices below `pool`, from the stream of client `client`.
pub fn hit_order(seed: u64, client: usize, pool: usize, n: usize) -> Vec<usize> {
    let mut rng = rng_for(seed, 0x6869_7400 ^ ((client as u64) << 32));
    (0..n)
        .map(|_| rng.gen_range(0, pool as u64) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::semantic_hash_of;

    fn bodies(seed: u64, regime: Regime, n: usize) -> Vec<String> {
        RequestGen::new(seed, regime)
            .take(n)
            .into_iter()
            .map(|r| r.body)
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_bodies_and_order() {
        for regime in [Regime::MemoryBound, Regime::ComputeBound] {
            assert_eq!(bodies(1, regime, 60), bodies(1, regime, 60));
            // A second call continues the stream: nothing repeats.
            let mut gen = RequestGen::new(1, regime);
            let mut split: Vec<String> = gen.take(25).into_iter().map(|r| r.body).collect();
            split.extend(gen.take(35).into_iter().map(|r| r.body));
            let distinct: HashSet<&String> = split.iter().collect();
            assert_eq!(distinct.len(), 60);
        }
        assert_eq!(hit_order(1, 0, 64, 500), hit_order(1, 0, 64, 500));
        assert_eq!(membound_member(3), membound_member(3));
        assert_eq!(compute_member(3), compute_member(3));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        for regime in [Regime::MemoryBound, Regime::ComputeBound] {
            let (a, b) = (bodies(1, regime, 60), bodies(2, regime, 60));
            assert!(a.iter().all(|body| !b.contains(body)));
        }
        assert_ne!(hit_order(1, 0, 64, 500), hit_order(2, 0, 64, 500));
        assert_ne!(hit_order(1, 0, 64, 500), hit_order(1, 1, 64, 500));
        assert_ne!(membound_member(1), membound_member(2));
        assert_ne!(compute_member(1), compute_member(2));
    }

    #[test]
    fn every_miss_body_has_its_own_semantic_hash() {
        for regime in [Regime::MemoryBound, Regime::ComputeBound] {
            let reqs = RequestGen::new(2, regime).take(200);
            let hashes: HashSet<u64> = reqs
                .iter()
                .map(|r| semantic_hash_of(&r.pattern.workload()))
                .collect();
            assert_eq!(hashes.len(), reqs.len(), "{regime:?}");
            let distinct: HashSet<&str> = reqs.iter().map(|r| r.body.as_str()).collect();
            assert_eq!(distinct.len(), reqs.len());
        }
    }

    #[test]
    fn every_seed_draws_the_same_mix_of_work() {
        // What a request costs follows its instruction volume; over a
        // list the seeds must agree within a percent or two.
        for regime in [Regime::MemoryBound, Regime::ComputeBound] {
            let volume = |seed: u64| -> u64 {
                RequestGen::new(seed, regime)
                    .take(60)
                    .iter()
                    .map(|r| r.pattern.workload().approx_warp_instrs())
                    .sum()
            };
            let (a, b) = (volume(1) as f64, volume(2) as f64);
            assert!((a - b).abs() / a < 0.02, "{regime:?}: {a} vs {b}");
        }
    }

    #[test]
    fn bodies_are_valid_json_with_the_documented_fields() {
        for regime in [Regime::MemoryBound, Regime::ComputeBound] {
            for req in RequestGen::new(7, regime).take(20) {
                let doc = gsim_json::parse(&req.body).expect("body parses");
                let pattern = doc.get("pattern").expect("pattern field");
                assert!(pattern.get("kind").and_then(Json::as_str).is_some());
                assert_eq!(
                    pattern.get("footprint_mb").and_then(Json::as_f64),
                    Some(req.pattern.footprint_mb)
                );
                assert_eq!(
                    doc.get("targets").and_then(Json::as_arr).map(<[Json]>::len),
                    Some(req.targets.len())
                );
            }
        }
    }
}
