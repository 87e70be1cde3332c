//! The staged predict pipeline: **collect → fit → predict**.
//!
//! [`oneshot`](crate::oneshot) answers "how fast at 128 SMs?" from two
//! scale-model observations and a miss-rate curve, but says nothing about
//! how those inputs are produced. This module makes the production side
//! explicit, following Accel-Sim's decoupled front-end (arXiv 1810.07269):
//! separate the cheap functional *collection* of memory behaviour from the
//! expensive timing simulation, so consumers can cache, parallelise, and —
//! when the workload is memory-bound — skip the timing stage entirely.
//!
//! * **Stage 1 — collect** ([`collect_sampled_inline`]): one sampled
//!   stack-distance pass over the workload's line stream
//!   ([`gsim_sim::collect_curve`]) gives the miss-rate curve plus the
//!   stream statistics a compute-intensity gate needs. It runs on the
//!   caller's thread — generate, route, record — materialises nothing
//!   and gives up once its deadline passes. Both paths read their curve
//!   from it.
//! * **Stage 2 — fit** ([`Fit`]): the five predictor fits from the
//!   observations and curve. A [`Fit`] is a plain value — cloneable,
//!   comparable, cacheable.
//! * **Stage 3 — predict** ([`Fit::forecast`]): target evaluation.
//!   [`Fit`] is the one entry point to the fit/predict arithmetic: the
//!   service, the CLI and the experiment pipelines all call it directly.
//!
//! The **functional-first fast path** rests on the gate in
//! [`Collected::memory_pressure`]: a workload whose measured memory
//! traffic per instruction exceeds the machine's DRAM balance point is
//! answered from synthesized roofline observations
//! ([`synthesize_observation`]) plus the collected curve, with no timing
//! simulation at all. Compute-sensitive workloads escalate to the real
//! 8/16-SM simulations.
//!
//! [`oneshot`]: crate::oneshot

use std::sync::Arc;
use std::time::Instant;

use gsim_runner::{RunOverrides, Runner};
pub use gsim_sim::{CollectStats, TimedOut};
use gsim_sim::{FunctionalCurve, GpuConfig, SimStats, Simulator};
use gsim_trace::{TracedWorkload, Workload, WorkloadModel, THREADS_PER_WARP};

use crate::cliff::SizedMrc;
use crate::error::ModelError;
use crate::oneshot::{Forecast, MethodPrediction, Observation, TargetForecast};
use crate::predictor::{
    LinearRegression, LogRegression, PowerLawRegression, Proportional, ScalingPredictor,
};
use crate::scale_model::{ScaleModelInputs, ScaleModelPredictor};

/// A fixed workload a staged plan runs: synthetic (generated streams) or
/// trace-driven (replayed streams). Its methods match on the variant
/// once and then run the simulator or the collector monomorphic in
/// [`Workload`] or [`TracedWorkload`], whose `next_op` inlines into the
/// per-op loop; an enum stream would put one out-of-line call on every
/// op (DESIGN.md §14, "Measured and removed: the per-op workload
/// dispatch").
#[derive(Debug, Clone)]
pub enum PlanWorkload {
    /// A generated workload (benchmark suite entry or synthetic pattern).
    Synthetic(Workload),
    /// A recorded trace.
    Traced(Arc<TracedWorkload>),
}

impl PlanWorkload {
    /// Runs one timing simulation, which gives up once `deadline` passes.
    ///
    /// # Errors
    ///
    /// Returns [`TimedOut`] — and no statistics — once `deadline` has
    /// passed ([`Simulator::run_until`]).
    pub fn simulate(
        &self,
        cfg: GpuConfig,
        deadline: Option<Instant>,
    ) -> Result<SimStats, TimedOut> {
        match self {
            Self::Synthetic(wl) => Simulator::new(cfg, wl).run_until(deadline),
            Self::Traced(wl) => Simulator::new(cfg, &**wl).run_until(deadline),
        }
    }

    /// Stage 1 on this workload: [`collect_sampled_inline`], which gives
    /// up once `deadline` passes.
    ///
    /// # Errors
    ///
    /// Returns [`TimedOut`] — and no partial result — once `deadline`
    /// has passed.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn collect(
        &self,
        configs: &[GpuConfig],
        deadline: Option<Instant>,
    ) -> Result<Collected, TimedOut> {
        match self {
            Self::Synthetic(wl) => collect_sampled_inline(wl, configs, deadline),
            Self::Traced(wl) => collect_sampled_inline(&**wl, configs, deadline),
        }
    }
}

/// The machine's DRAM balance point in bytes per thread instruction: the
/// traffic intensity at which full-rate issue exactly saturates DRAM.
/// Under proportional scaling this is size-independent (both DRAM
/// bandwidth and issue width grow with the SM count), so one gate
/// threshold covers every ladder size.
pub fn machine_balance_bytes_per_instr(cfg: &GpuConfig) -> f64 {
    let issue_per_cycle = f64::from(cfg.n_sms) * f64::from(THREADS_PER_WARP);
    let bytes_per_cycle = cfg.dram_gbs_total() / cfg.sm_clock_ghz;
    bytes_per_cycle / issue_per_cycle
}

/// The compute-intensity gate's threshold, in multiples of the machine's
/// DRAM balance point (see [`Collected::takes_fast_path`]).
pub const MEMORY_BOUND_PRESSURE: f64 = 1.0;

/// The output of Stage 1: a per-size miss-rate curve plus the stream
/// statistics it was measured from.
#[derive(Debug, Clone, PartialEq)]
pub struct Collected {
    /// `(size, MPKI)` at each configuration's LLC capacity, in input
    /// config order.
    pub points: Vec<(u32, f64)>,
    /// Stream statistics for the gate.
    pub stats: CollectStats,
}

impl Collected {
    fn of(configs: &[GpuConfig], curve: FunctionalCurve) -> Self {
        Self {
            points: configs.iter().map(|c| c.n_sms).zip(curve.mpki).collect(),
            stats: curve.stats,
        }
    }

    /// The curve as a [`SizedMrc`] for the predictor fits.
    pub fn sized_mrc(&self) -> SizedMrc {
        SizedMrc::new(self.points.iter().copied())
    }

    /// MPKI at system size `size`, if collected.
    pub fn mpki_at(&self, size: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, m)| *m)
    }

    /// The compute-intensity gate: measured traffic intensity over the
    /// machine balance point. `>= threshold` (conventionally 1.0) means
    /// DRAM saturates before issue does — the workload is memory-bound
    /// and the fast path's roofline observations are trustworthy.
    pub fn memory_pressure(&self, cfg: &GpuConfig) -> f64 {
        let balance = machine_balance_bytes_per_instr(cfg);
        if balance <= 0.0 {
            return f64::INFINITY;
        }
        self.stats.intensity_bytes_per_instr(cfg.line_bytes) / balance
    }

    /// Whether the gate classifies the workload as memory-bound at
    /// `threshold` (see [`Collected::memory_pressure`]).
    pub fn is_memory_bound(&self, cfg: &GpuConfig, threshold: f64) -> bool {
        self.memory_pressure(cfg) >= threshold
    }

    /// The gate of an `"auto"` predict: memory-bound at
    /// [`MEMORY_BOUND_PRESSURE`] on the `large` scale model. Those
    /// workloads take the fast path; the rest escalate to timing sims.
    pub fn takes_fast_path(&self, large: &GpuConfig) -> bool {
        self.is_memory_bound(large, MEMORY_BOUND_PRESSURE)
    }
}

/// The sampled collector's tuning, kept as a type because the
/// repository's benchmark, which this crate may not edit, passes
/// `&SampledCollectConfig::default()`. It has no fields: the pass runs
/// at [`gsim_sim::MAX_CTAS_PER_KERNEL`] CTAs per kernel, keep rate
/// [`gsim_sim::LINE_RATE`] and [`gsim_sim::N_SHARDS`] shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampledCollectConfig;

/// Stage 1: the miss-rate curve at every configuration's LLC capacity
/// plus the gate statistics, from [`gsim_sim::collect_curve`]'s one
/// CTA- and SHARDS-sampled stack-distance pass on the calling thread.
/// This is what every prediction runs: a collection is milliseconds of
/// work, and fanning it out as pool jobs measured no faster on an idle
/// host and slower under concurrent requests.
///
/// The curve is an estimate (warp-major streams, no L1 filter, no
/// associativity): cliff positions and shape track an exact replay of
/// each capacity, absolute MPKI can deviate (DESIGN.md §14).
///
/// # Errors
///
/// Returns [`TimedOut`] — and no partial result — once
/// `deadline` has passed: checked before the first op and every 1 Ki
/// ops after it.
///
/// # Panics
///
/// Panics if `configs` is empty.
pub fn collect_sampled_inline<W: WorkloadModel>(
    wl: &W,
    configs: &[GpuConfig],
    deadline: Option<Instant>,
) -> Result<Collected, TimedOut> {
    gsim_sim::collect_curve(wl, configs, deadline).map(|curve| Collected::of(configs, curve))
}

/// [`collect_sampled_inline`] without a deadline, for the strong-scaling
/// study, which has none.
///
/// # Panics
///
/// Panics if `configs` is empty.
pub fn collect_replay<W: WorkloadModel>(wl: &W, configs: &[GpuConfig]) -> Collected {
    let Ok(collected) = collect_sampled_inline(wl, configs, None) else {
        unreachable!("no deadline to pass")
    };
    collected
}

/// [`collect_replay`] under the signature the repository's benchmark,
/// which this crate may not edit, calls: `cfg` has no fields and `pool`
/// is ignored.
///
/// # Errors
///
/// None in practice — there is no deadline to pass.
///
/// # Panics
///
/// Panics if `configs` is empty.
pub fn collect_sampled<W: WorkloadModel>(
    wl: &W,
    configs: &[GpuConfig],
    _cfg: &SampledCollectConfig,
    _pool: Option<(&Runner, RunOverrides)>,
) -> Result<Collected, TimedOut> {
    Ok(collect_replay(wl, configs))
}

/// Synthesizes a scale-model observation from Stage-1 statistics alone —
/// the fast path's replacement for a timing simulation.
///
/// Roofline model per thread instruction: issue takes
/// `1 / (n_sms × 32)` cycles, memory takes
/// `MPKI/1000 × line_bytes / DRAM-bytes-per-cycle`; execution runs at
/// whichever is slower, and `f_mem` is the fraction of the bottleneck
/// cycle not covered by issue. Exact for the bandwidth-saturated
/// workloads the gate admits; meaningless for compute-sensitive ones —
/// which is precisely what the gate screens out.
///
/// # Panics
///
/// Panics if the collected curve has no point at `cfg.n_sms`.
pub fn synthesize_observation(collected: &Collected, cfg: &GpuConfig) -> Observation {
    let mpki = collected
        .mpki_at(cfg.n_sms)
        .expect("collected curve must cover the observation size");
    let issue_cycles = 1.0 / (f64::from(cfg.n_sms) * f64::from(THREADS_PER_WARP));
    let bytes_per_cycle = cfg.dram_gbs_total() / cfg.sm_clock_ghz;
    let mem_cycles = mpki / 1000.0 * f64::from(cfg.line_bytes) / bytes_per_cycle;
    let bottleneck = issue_cycles.max(mem_cycles);
    let f_mem = if mem_cycles > issue_cycles {
        (mem_cycles - issue_cycles) / mem_cycles
    } else {
        0.0
    };
    Observation {
        size: cfg.n_sms,
        ipc: 1.0 / bottleneck,
        f_mem,
    }
}

/// Converts one timing simulation's stats into a prediction observation
/// (sustained IPC, `f_mem`) — the one place this conversion is defined.
pub fn observation_of(size: u32, stats: &SimStats) -> Observation {
    Observation {
        size,
        ipc: stats.sustained_ipc(),
        f_mem: stats.f_mem(),
    }
}

/// Stage 2: the five predictor fits as one cacheable value.
///
/// Holds the concretely typed predictors, so it is `Clone + PartialEq`.
/// Building one is about a microsecond — cheaper than hashing a cache key
/// for it, so consumers build it per prediction rather than store it.
#[derive(Debug, Clone, PartialEq)]
pub struct Fit {
    small: Observation,
    large: Observation,
    logarithmic: LogRegression,
    proportional: Proportional,
    linear: LinearRegression,
    power_law: PowerLawRegression,
    scale_model: ScaleModelPredictor,
}

impl Fit {
    /// Fits all five methods from the two scale-model observations and
    /// (for strong scaling) the miss-rate curve.
    ///
    /// # Errors
    ///
    /// Returns an error if the observations are degenerate (sizes not
    /// `small < large`, non-positive IPC) or a cliff lies beyond the
    /// scale models but no `f_mem` is usable.
    pub fn new(
        small: Observation,
        large: Observation,
        mrc: Option<&SizedMrc>,
    ) -> Result<Self, ModelError> {
        let (s, l) = (small.size, large.size);
        let (ipc_s, ipc_l) = (small.ipc, large.ipc);
        let logarithmic = LogRegression::fit(s, ipc_s, l, ipc_l)?;
        let proportional = Proportional::fit(s, ipc_s, l, ipc_l)?;
        let linear = LinearRegression::fit(s, ipc_s, l, ipc_l)?;
        let power_law = PowerLawRegression::fit(s, ipc_s, l, ipc_l)?;
        let mut inputs = ScaleModelInputs::new(s, ipc_s, l, ipc_l).with_f_mem(large.f_mem);
        if let Some(mrc) = mrc {
            inputs = inputs.with_sized_mrc(mrc.clone());
        }
        let scale_model = ScaleModelPredictor::new(inputs)?;
        Ok(Self {
            small,
            large,
            logarithmic,
            proportional,
            linear,
            power_law,
            scale_model,
        })
    }

    /// The small scale-model observation the fit was built from.
    pub fn small(&self) -> Observation {
        self.small
    }

    /// The large scale-model observation the fit was built from.
    pub fn large(&self) -> Observation {
        self.large
    }

    /// The concrete scale-model predictor (cliff detection, correction
    /// factor, checked prediction).
    pub fn scale_model(&self) -> &ScaleModelPredictor {
        &self.scale_model
    }

    /// Stage 3: evaluates every method at each of `targets`.
    ///
    /// # Errors
    ///
    /// Returns an error if a target is not the larger scale model times a
    /// power of two, or the miss-rate curve does not cover a target past
    /// the scale models.
    pub fn forecast(&self, targets: &[u32]) -> Result<Forecast, ModelError> {
        let mut forecasts = Vec::with_capacity(targets.len());
        for &target in targets {
            // Validate once through the checked path so a bad target
            // surfaces as an error instead of a panic inside `predict`.
            let checked = self.scale_model.predict_checked(target)?;
            let t = f64::from(target);
            let by_method = vec![
                MethodPrediction {
                    method: "logarithmic",
                    predicted_ipc: self.logarithmic.predict(t),
                },
                MethodPrediction {
                    method: "proportional",
                    predicted_ipc: self.proportional.predict(t),
                },
                MethodPrediction {
                    method: "linear",
                    predicted_ipc: self.linear.predict(t),
                },
                MethodPrediction {
                    method: "power-law",
                    predicted_ipc: self.power_law.predict(t),
                },
                MethodPrediction {
                    method: "scale-model",
                    predicted_ipc: checked,
                },
            ];
            forecasts.push(TargetForecast { target, by_method });
        }
        Ok(Forecast {
            correction_factor: self.scale_model.correction_factor(),
            cliff_at: self.scale_model.cliff_at(),
            targets: forecasts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_mem::mrc::{
        DistanceEngine, LineRouter, NaiveStack, StackDistanceHistogram, TreeStack,
    };
    use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, SpecStream, WarpStream};

    fn ladder(sizes: &[u32], scale: MemScale) -> Vec<GpuConfig> {
        sizes
            .iter()
            .map(|&s| GpuConfig::paper_target(s, scale))
            .collect()
    }

    fn membound_workload() -> Workload {
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 60_000).compute_per_mem(1.0);
        Workload::new("mem", 3, vec![Kernel::new("k", 256, 256, spec); 2])
    }

    fn compute_workload() -> Workload {
        let spec = PatternSpec::new(PatternKind::Streaming, 2_000).compute_per_mem(30.0);
        Workload::new("cmp", 3, vec![Kernel::new("k", 128, 256, spec)])
    }

    #[test]
    fn replay_collect_matches_collect_mrc() {
        let wl = membound_workload();
        let cfgs = ladder(&[8, 16, 32], MemScale::default());
        let collected = collect_replay(&wl, &cfgs);
        let reference = gsim_sim::collect_mrc(&wl, &cfgs);
        for ((size, mpki), p) in collected.points.iter().zip(reference.points()) {
            assert_eq!(
                *size,
                cfgs.iter()
                    .find(|c| c.llc_bytes_total == p.capacity_bytes)
                    .unwrap()
                    .n_sms
            );
            assert_eq!(mpki.to_bits(), p.mpki.to_bits());
        }
        assert_bit_identical(&collected, &collect_sampled_reference(&wl, &cfgs), "replay");
        let sampled = collect_sampled(&wl, &cfgs, &SampledCollectConfig, None).unwrap();
        assert_bit_identical(&collected, &sampled, "sampled");
        assert!(collected.stats.thread_instrs > 0);
        assert!(collected.stats.line_accesses > 0);
    }

    fn assert_bit_identical(a: &Collected, b: &Collected, what: &str) {
        assert_eq!(a.points.len(), b.points.len(), "{what}");
        for (p, q) in a.points.iter().zip(&b.points) {
            assert_eq!((p.0, p.1.to_bits()), (q.0, q.1.to_bits()), "{what}");
        }
        assert_eq!(a.stats, b.stats, "{what}");
    }

    /// The sampled collection written the slow, obvious way: drain the
    /// sampled stream, store every kept line per shard, then build one
    /// full-size tree per shard.
    fn collect_sampled_reference<W: WorkloadModel>(wl: &W, configs: &[GpuConfig]) -> Collected {
        let router = LineRouter::new(gsim_sim::N_SHARDS, gsim_sim::LINE_RATE);
        let mut shard_lines = vec![Vec::new(); gsim_sim::N_SHARDS as usize];
        let (mut thread_instrs, mut line_accesses) = (0u64, 0u64);
        let (mut sampled_ctas, mut total_ctas) = (0u64, 0u64);
        for kernel in 0..wl.n_kernels() {
            let (n_ctas, _) = wl.grid(kernel);
            let stride = n_ctas.div_ceil(gsim_sim::MAX_CTAS_PER_KERNEL).max(1);
            let n_slots = n_ctas.div_ceil(stride);
            total_ctas += u64::from(n_ctas);
            sampled_ctas += u64::from(n_slots);
            for slot in 0..n_slots {
                for w in 0..wl.warps_per_cta(kernel) {
                    let mut stream = wl.warp_stream(kernel, slot * stride, w);
                    while let Some(op) = stream.next_op() {
                        thread_instrs += op.warp_instrs() * u64::from(THREADS_PER_WARP);
                        let Some(access) = op.mem() else { continue };
                        for line in access.lines() {
                            line_accesses += 1;
                            if let Some(s) = router.route(line) {
                                shard_lines[s as usize].push(line);
                            }
                        }
                    }
                }
            }
        }
        let hists: Vec<StackDistanceHistogram> = shard_lines
            .into_iter()
            .map(|lines| {
                let mut tree = TreeStack::new();
                tree.record_all(lines);
                tree.finish()
            })
            .collect();
        let cta_rate = sampled_ctas as f64 / total_ctas as f64;
        let capacities: Vec<u64> = configs
            .iter()
            .map(|c| {
                let lines = c.llc_bytes_total / u64::from(c.line_bytes);
                ((lines as f64 * cta_rate).round() as u64).max(1)
            })
            .collect();
        let misses = router.merge(&hists).misses_at_each(&capacities);
        let kinsns = thread_instrs as f64 / 1e3;
        Collected {
            points: configs
                .iter()
                .zip(misses)
                .map(|(c, m)| (c.n_sms, m / kinsns))
                .collect(),
            stats: CollectStats {
                thread_instrs,
                line_accesses,
            },
        }
    }

    #[test]
    fn streaming_collection_matches_the_materialising_reference() {
        let scale = MemScale::default();
        let mut workloads: Vec<Workload> = gsim_trace::suite::strong_suite(scale)
            .into_iter()
            .map(|b| b.workload)
            .collect();
        assert_eq!(workloads.len(), 21);
        for i in 0..10u32 {
            let kind = match i % 5 {
                0 => PatternKind::GlobalSweep { passes: 1 + i % 3 },
                1 => PatternKind::Streaming,
                2 => PatternKind::PointerChase,
                3 => PatternKind::Tiled {
                    tile_lines: 4 + u64::from(i),
                    reuses: 3,
                },
                _ => PatternKind::WorkingSetMix {
                    levels: vec![(0.7, 0.1), (0.3, 1.0 + f64::from(i))],
                },
            };
            let spec = PatternSpec::new(kind, 3_000 + 7_919 * u64::from(i))
                .mem_ops_per_warp(16 + i)
                .compute_per_mem(f64::from(i) * 0.75)
                .write_frac(0.1)
                .divergence(1 + (i % 4) as u8)
                .shared_hot(0.05, 16);
            let kernels = vec![Kernel::new("k", 40 + 37 * i, 256, spec); 1 + (i % 3) as usize];
            workloads.push(Workload::new("seeded", u64::from(i), kernels));
        }
        let cfgs = ladder(&[8, 16, 32, 64, 128], scale);
        for wl in &workloads {
            let inline = collect_sampled_inline(wl, &cfgs, None).unwrap();
            let reference = collect_sampled_reference(wl, &cfgs);
            assert_bit_identical(&inline, &reference, WorkloadModel::name(wl));
        }
    }

    /// A workload whose streams must never be generated.
    struct Untouchable;

    impl WorkloadModel for Untouchable {
        type Stream = SpecStream;
        fn name(&self) -> &str {
            "untouchable"
        }
        fn n_kernels(&self) -> usize {
            3
        }
        fn grid(&self, _: usize) -> (u32, u32) {
            (64, 256)
        }
        fn warp_stream(&self, _: usize, _: u32, _: u32) -> SpecStream {
            panic!("an expired collection generated a warp")
        }
        fn approx_warp_instrs(&self) -> u64 {
            0
        }
    }

    #[test]
    fn an_expired_deadline_times_out_before_collecting() {
        let cfgs = ladder(&[8, 16], MemScale::default());
        let expired = Instant::now();
        assert_eq!(
            collect_sampled_inline(&Untouchable, &cfgs, Some(expired)),
            Err(TimedOut)
        );
        // A deadline that holds changes nothing about the result.
        let wl = membound_workload();
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        assert_eq!(
            collect_sampled_inline(&wl, &cfgs, Some(far)),
            collect_sampled_inline(&wl, &cfgs, None)
        );
    }

    #[test]
    fn a_deadline_that_passes_inside_one_kernel_stops_the_collection() {
        // One kernel, one long warp per CTA: seconds of replay with no
        // kernel boundary to stop at.
        let spec = PatternSpec::new(PatternKind::PointerChase, 50_000).mem_ops_per_warp(2_000_000);
        let wl = Workload::new("long", 1, vec![Kernel::new("k", 64, 32, spec)]);
        let cfgs = ladder(&[8, 16], MemScale::default());
        let started = Instant::now();
        let deadline = started + std::time::Duration::from_millis(20);
        assert_eq!(
            collect_sampled_inline(&wl, &cfgs, Some(deadline)),
            Err(TimedOut)
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn sampled_curve_tracks_replayed_shape() {
        // A working set that thrashes the small LLCs and fits the large
        // ones: the sampled pass and an exact stack over every CTA must
        // agree a cliff exists.
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 6_000).compute_per_mem(1.0);
        let wl = Workload::new("cliff", 2, vec![Kernel::new("k", 192, 256, spec); 6]);
        let cfgs = ladder(&[8, 16, 32, 64, 128], MemScale::default());
        let mut exact = NaiveStack::new();
        for kernel in 0..wl.n_kernels() {
            for cta in 0..wl.grid(kernel).0 {
                for w in 0..wl.warps_per_cta(kernel) {
                    let mut stream = wl.warp_stream(kernel, cta, w);
                    while let Some(op) = stream.next_op() {
                        exact.record_all(op.mem().into_iter().flat_map(|a| a.lines()));
                    }
                }
            }
        }
        let exact = exact.finish();
        let lines = |c: &GpuConfig| c.llc_bytes_total / u64::from(c.line_bytes);
        let exact_drop = exact.misses_at(lines(&cfgs[0])) / exact.misses_at(lines(&cfgs[4]));
        let sampled = collect_sampled_inline(&wl, &cfgs, None).unwrap();
        let drop = sampled.points[0].1 / sampled.points[4].1.max(1e-6);
        assert!(
            exact_drop > 2.0 && drop > 2.0,
            "both must see the cliff: exact {exact_drop} sampled {:?}",
            sampled.points
        );
    }

    #[test]
    fn a_sub_ladder_reads_the_full_ladders_curve() {
        // A full-path body prints the curve at its own ladder's sizes,
        // read from the collection over the whole ladder: each reading
        // must not depend on the other sizes asked for.
        let scale = MemScale::default();
        let sizes: Vec<u32> = (3..=20).map(|k| 1u32 << k).collect();
        let full = ladder(&sizes, scale);
        let sub = ladder(&[8, 16, 32, 64, 128], scale);
        for wl in [membound_workload(), compute_workload()] {
            let whole = collect_sampled_inline(&wl, &full, None).unwrap();
            let part = collect_sampled_inline(&wl, &sub, None).unwrap();
            assert_eq!(part.stats, whole.stats);
            for &(size, mpki) in &part.points {
                let at = whole.mpki_at(size).unwrap();
                assert_eq!(mpki.to_bits(), at.to_bits(), "size {size}");
            }
        }
    }

    #[test]
    fn gate_separates_memory_and_compute_bound() {
        let cfgs = ladder(&[8, 16], MemScale::default());
        let mem = collect_replay(&membound_workload(), &cfgs);
        let cmp = collect_replay(&compute_workload(), &cfgs);
        assert!(
            mem.takes_fast_path(&cfgs[1]),
            "sweep pressure {}",
            mem.memory_pressure(&cfgs[1])
        );
        assert!(
            !cmp.takes_fast_path(&cfgs[1]),
            "compute pressure {}",
            cmp.memory_pressure(&cfgs[1])
        );
        // Proportional scaling keeps the balance point size-independent.
        let b8 = machine_balance_bytes_per_instr(&cfgs[0]);
        let b16 = machine_balance_bytes_per_instr(&cfgs[1]);
        assert!((b8 - b16).abs() / b8 < 0.01, "balance {b8} vs {b16}");
    }

    #[test]
    fn gate_is_one_balance_point_at_the_large_scale_model() {
        let large = GpuConfig::paper_target(16, MemScale::default());
        let with_lines = |line_accesses| Collected {
            points: Vec::new(),
            stats: CollectStats {
                thread_instrs: 1 << 20,
                line_accesses,
            },
        };
        // 4640 lines of 128 B over 2^20 instructions is the 16-SM
        // model's balance point, 290 B/cycle over 512 issue slots.
        assert_eq!(MEMORY_BOUND_PRESSURE, 1.0);
        assert_eq!(with_lines(4640).memory_pressure(&large), 1.0);
        assert!(with_lines(4640).takes_fast_path(&large));
        assert!(!with_lines(4639).takes_fast_path(&large));
        // The gate reads the model it is given: half the DRAM bandwidth
        // halves the balance point.
        let narrow = GpuConfig { n_mcs: 1, ..large };
        assert!(with_lines(2320).takes_fast_path(&narrow));
    }

    #[test]
    fn synthesized_observations_fit_and_forecast() {
        let cfgs = ladder(&[8, 16, 32, 64, 128], MemScale::default());
        let collected = collect_replay(&membound_workload(), &cfgs);
        let small = synthesize_observation(&collected, &cfgs[0]);
        let large = synthesize_observation(&collected, &cfgs[1]);
        assert!(small.ipc > 0.0 && large.ipc >= small.ipc);
        assert!((0.0..1.0).contains(&large.f_mem));
        let mrc = collected.sized_mrc();
        let forecast = Fit::new(small, large, Some(&mrc))
            .unwrap()
            .forecast(&[32, 64, 128])
            .unwrap();
        assert_eq!(forecast.targets.len(), 3);
        for t in &forecast.targets {
            let sm = t.method("scale-model").unwrap();
            assert!(sm.is_finite() && sm > 0.0);
        }
    }

    #[test]
    fn traced_and_synthetic_plan_workloads_collect_identically() {
        let wl = membound_workload();
        let mut bytes = Vec::new();
        gsim_trace::write_trace(&wl, &mut bytes).expect("write");
        let traced = Arc::new(gsim_trace::TracedWorkload::read(&bytes[..]).expect("read"));
        assert_eq!(
            gsim_trace::semantic_hash_of(&wl),
            gsim_trace::semantic_hash_of(&*traced)
        );
        let cfgs = ladder(&[8, 16, 32], MemScale::default());
        let cfg = GpuConfig::paper_target(8, MemScale::default());
        // Each variant's one dispatch runs exactly what its inner
        // workload runs on its own.
        let synth = PlanWorkload::Synthetic(wl.clone());
        let a = synth.collect(&cfgs, None).unwrap();
        assert_bit_identical(&a, &collect_replay(&wl, &cfgs), "synthetic collect");
        let sim = synth.simulate(cfg.clone(), None).unwrap();
        sim.assert_deterministic_eq(&Simulator::new(cfg.clone(), &wl).run());
        let plan = PlanWorkload::Traced(Arc::clone(&traced));
        let b = plan.collect(&cfgs, None).unwrap();
        assert_bit_identical(&b, &collect_replay(&*traced, &cfgs), "traced collect");
        let replayed = plan.simulate(cfg.clone(), None).unwrap();
        replayed.assert_deterministic_eq(&Simulator::new(cfg, &*traced).run());
        assert_eq!(a, b, "a trace must collect exactly like its source");
        sim.assert_deterministic_eq(&replayed);
    }
}
