//! The prediction service: request normalization, content addressing,
//! single-flight computation, and the HTTP router.
//!
//! # Endpoints
//!
//! | Route               | Meaning                                        |
//! |---------------------|------------------------------------------------|
//! | `GET /healthz`      | liveness probe                                 |
//! | `GET /v1/workloads` | the Table II / Table IV workload catalog       |
//! | `POST /v1/predict`  | run scale models, predict the target           |
//! | `POST /v1/traces`   | upload a trace into the content-addressed store|
//! | `GET /v1/traces`    | list stored traces                             |
//! | `GET /metrics`      | counters, cache stats, latency quantiles       |
//! | `POST /v1/shutdown` | trigger cooperative shutdown                   |
//!
//! # Trace-driven prediction
//!
//! `POST /v1/traces` ingests a GSTR trace into a
//! [`gsim_tracestore::TraceStore`]; the returned `ref` is the trace's
//! *semantic hash* — a content address over the decoded instruction
//! streams, identical whatever the file's names or chunking. A file in
//! any other format version (such as the unframed version 1) is a 400. A predict
//! request may then name `trace_ref` instead of a workload or pattern.
//! A full-path trace predict runs one functional MRC collection and
//! exactly the two scale models, and its prediction equals its synthetic
//! twin's bit for bit.
//!
//! # The staged fast path
//!
//! A predict request may carry `"path": "auto" | "fast" | "full"`
//! (default `auto`). Every request with a miss-rate curve runs the
//! staged **collect → fit → predict** pipeline from [`gsim_core::plan`]:
//! a sampled Stage-1 collection — one streaming pass on the request's
//! own thread, no timing simulation — measures the miss-rate curve and the
//! workload's compute intensity in milliseconds. Unless forced onto the
//! full path, a memory-bound workload (measured pressure at or above
//! the machine's balance point) is then answered from
//! roofline-synthesized observations plus that curve — **zero timing
//! simulations** — while a compute-sensitive one escalates to the full
//! path, whose body is byte-identical to a forced-`full` request's. The
//! chosen path travels in the `X-Gsim-Path` response header (`fast` /
//! `full`). Either path ends in the same tail: two scale-model points
//! and a curve in, one `Fit`, one forecast, one rendered body out.
//!
//! # One cache
//!
//! The result cache is the only cache, with two ways in, both bounded by
//! the same capacity: by content key — the hash of the normalized
//! request — and by the exact body bytes of a request answered before,
//! which skips the parse, the normalization and the key. The bytes index
//! is never persisted, and it never holds a `trace_ref` body, whose
//! catalog check runs on every request. A miss always does its own work
//! — a collection, two timing simulations, or both — and
//! nothing it computes on the way is kept. A repeat workload with other
//! targets is a different request and computes again.
//!
//! # Determinism contract
//!
//! A prediction body contains only deterministic quantities (IPC, MPKI,
//! `f_mem`, cycles, model outputs) rendered through `gsim-json`'s
//! deterministic writer — never wall-clock measurements. Identical
//! requests therefore produce *byte-identical* bodies, which is what
//! makes content-addressed caching sound. Cache status travels in the
//! `X-Gsim-Cache` response header (`hit` / `miss` / `coalesced`), not
//! the body.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsim_core::oneshot::Observation;
use gsim_core::plan::{
    collect_sampled_inline, observation_of, synthesize_observation, Collected, Fit, PlanWorkload,
    TimedOut,
};
use gsim_json::{obj, Json};
use gsim_sim::GpuConfig;
use gsim_trace::suite::{strong_benchmark, strong_suite};
use gsim_trace::weak::{weak_benchmark, weak_suite};
use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload, SM_LADDER};
use gsim_tracestore::{StoreConfig, StoreError, StoreStats, TraceMeta, TraceStore};

use crate::cache::{fnv1a, ResultCache};
use crate::http::{Request, Response, ShutdownFlag};
use crate::metrics::Metrics;
use crate::overload::{retry_after_secs, AdmissionGate};
use crate::singleflight::{Role, SingleFlight};

/// Response-body schema tag.
const PREDICT_SCHEMA: &str = "gsim-serve-predict-v1";
/// Schema tag of the functional-first fast-path predict body.
const PREDICT_FAST_SCHEMA: &str = "gsim-serve-predict-fast-v1";
/// Per-request deadline header (milliseconds; absent or `0` means no
/// deadline).
const DEADLINE_HEADER: &str = "x-gsim-deadline-ms";
/// Largest accepted request body for `/v1/predict`.
const MAX_PREDICT_BYTES: usize = 64 * 1024;
/// Largest accepted target system size.
const MAX_TARGET_SMS: u32 = 1 << 20;
/// Largest accepted larger scale model. A full-path predict simulates
/// it, and a simulator's memory grows with its SM count (a 1 MB
/// streaming predict peaked at 26 MB of server RSS with a 1,024-SM model
/// and 139 MB with an 8,192-SM one); 1,024 leaves 32× headroom over the
/// paper's 4–32-SM scale models.
const MAX_SCALE_MODEL_SMS: u32 = 1024;
/// Largest accepted pattern workload in warp instructions — the product
/// the per-field caps leave unbounded (a 2^20 MB sweep). The largest
/// catalog input, Table IV `bs` at `mem_scale` 1, is 6.3·10^7; the
/// deadline tests' 64 Ki-CTA pointer chase is 6.4·10^9.
const MAX_PATTERN_WARP_INSTRS: u64 = 1 << 33;
/// Result-cache capacity in entries.
const CACHE_CAPACITY: usize = 256;

/// Service construction knobs.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// How a full-path predict runs its two scale-model simulations: `1`
    /// runs them one after the other on the request thread; any other
    /// count runs the larger on a scoped thread beside it; `0` (auto)
    /// does so when the host has more than one CPU.
    pub runner_threads: usize,
    /// Persistence directory for the result cache (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Root of the content-addressed trace store. `None` derives
    /// `<cache_dir>/tracestore`, or a temp directory of the service's own
    /// when there is no cache dir either (uploads then live as long as
    /// the service; the directory is removed when it is dropped).
    pub trace_store_dir: Option<PathBuf>,
    /// Concurrent `POST /v1/predict` requests admitted before shedding
    /// with 429 (0 = default 8).
    pub max_inflight_predicts: usize,
}

/// A client-visible error: HTTP status plus message. Cloneable so
/// single-flight followers can share the leader's failure.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Human-readable explanation, sent as `{"error": ...}`.
    pub message: String,
}

impl ApiError {
    fn bad(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> Self {
        Self {
            status: 500,
            message: message.into(),
        }
    }

    fn response(&self) -> Response {
        let body = obj([("error", Json::from(self.message.as_str()))]).render();
        Response::json(self.status, body)
    }
}

/// What one prediction flight publishes to its followers.
type Outcome = Result<Arc<String>, ApiError>;

/// The fully validated, normalized form of one predict request.
#[derive(Debug)]
struct Plan {
    /// Canonical content-address string: the normalized request, the
    /// digest of the ladder's derived configs and the requested path —
    /// `<normalized>|configs=<16 hex>|path=<mode>`.
    canonical: String,
    /// Normalized request document, echoed in the response.
    normalized: Json,
    /// Simulation inputs per scale model.
    kind: PlanKind,
    small: u32,
    large: u32,
    targets: Vec<u32>,
    scale: MemScale,
    /// The whole doubling ladder from `small` through the largest
    /// target — the MRC probe sizes.
    ladder: Vec<u32>,
    /// Which prediction path the request asked for.
    path: PathMode,
}

/// How a predict request wants its answer computed. Part of the content
/// address (`|path=…` suffix) but deliberately *not* of the normalized
/// echo, so an escalated `"auto"` body is byte-identical to a forced
/// `"full"` one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathMode {
    /// Gate on measured compute intensity: fast when memory-bound,
    /// escalate to timing simulations otherwise (the default).
    Auto,
    /// Force the functional-first fast path (rejected for plans without
    /// a miss-rate curve).
    Fast,
    /// Force the full timing-simulation path.
    Full,
}

impl PathMode {
    fn as_str(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Fast => "fast",
            Self::Full => "full",
        }
    }
}

#[derive(Debug)]
enum PlanKind {
    /// Fixed workload at every size; the miss-rate curve matters
    /// (strong-scaling benchmarks, synthetic patterns, and traces).
    WithMrc(PlanWorkload),
    /// Input grows with the machine; no MRC (weak scaling, Table IV).
    PerSize {
        small_wl: PlanWorkload,
        large_wl: PlanWorkload,
    },
    /// A stored trace, by reference: the catalog vouched for it when the
    /// request was parsed, and only a flight leader reads and decodes
    /// its blob ([`PredictService::compute`]) — a cache hit never does.
    Stored(String),
}

/// One scale model: the observation the predictors fit, plus what only
/// a timing simulation measures — `(mpki, cycles)`. A
/// roofline-synthesized point has no `timing` and its body row leaves
/// both columns out.
#[derive(Debug, Clone)]
struct SimPoint {
    obs: Observation,
    timing: Option<(f64, u64)>,
}

impl SimPoint {
    fn json(&self) -> Json {
        let (mpki, cycles) = self.timing.unzip();
        obj([
            ("size", Some(Json::from(self.obs.size))),
            ("ipc", Some(Json::from(self.obs.ipc))),
            ("mpki", mpki.map(Json::from)),
            ("f_mem", Some(Json::from(self.obs.f_mem))),
            ("cycles", cycles.map(Json::from)),
        ]
        .into_iter()
        .filter_map(|(k, v)| Some((k, v?))))
    }
}

/// What either path hands the shared tail ([`PredictService::finish`]).
struct Staged {
    schema: &'static str,
    /// Body fields between `request` and `scale_models`.
    head: Vec<(&'static str, Json)>,
    small: SimPoint,
    large: SimPoint,
    /// `(size, mpki)` points of the miss-rate curve; `None` for per-size
    /// (weak-scaling) plans.
    mrc: Option<Vec<(u32, f64)>>,
}

/// The shared prediction service. Construct once, share behind `Arc`
/// with the HTTP server's handler.
pub struct PredictService {
    /// Whether a full-path predict runs its two simulations side by side
    /// ([`ServeConfig::runner_threads`]).
    side_by_side: bool,
    cache: ResultCache,
    flights: SingleFlight<Outcome>,
    metrics: Arc<Metrics>,
    store: TraceStore,
    shutdown: ShutdownFlag,
    gate: AdmissionGate,
    /// The temp trace-store directory [`PredictService::new`] derived
    /// because the caller configured none; removed on drop.
    scratch_store: Option<PathBuf>,
}

impl Drop for PredictService {
    fn drop(&mut self) {
        if let Some(dir) = &self.scratch_store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl PredictService {
    /// Builds the service: cache (loading any persisted entries), trace
    /// store, metrics.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache or trace-store directory cannot be
    /// prepared.
    pub fn new(cfg: ServeConfig, shutdown: ShutdownFlag) -> std::io::Result<Arc<Self>> {
        let side_by_side = match cfg.runner_threads {
            0 => std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
            n => n > 1,
        };
        // One directory per service, so dropping one never pulls the
        // store from under another in the same process.
        static SCRATCH_STORES: AtomicU64 = AtomicU64::new(0);
        let (store_root, scratch_store) = match (&cfg.trace_store_dir, &cfg.cache_dir) {
            (Some(dir), _) => (dir.clone(), None),
            (None, Some(dir)) => (dir.join("tracestore"), None),
            (None, None) => {
                let dir = std::env::temp_dir().join(format!(
                    "gsim-serve-tracestore-{}-{}",
                    std::process::id(),
                    SCRATCH_STORES.fetch_add(1, Ordering::Relaxed)
                ));
                (dir.clone(), Some(dir))
            }
        };
        let store = TraceStore::open(store_root, StoreConfig::default())?;
        Ok(Arc::new(Self {
            side_by_side,
            cache: ResultCache::new(CACHE_CAPACITY, cfg.cache_dir)?,
            flights: SingleFlight::new(),
            metrics: Arc::new(Metrics::default()),
            store,
            shutdown,
            gate: AdmissionGate::new(match cfg.max_inflight_predicts {
                0 => 8,
                n => n,
            }),
            scratch_store,
        }))
    }

    /// The service's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The service's trace store (shared with `POST /v1/traces`).
    pub fn trace_store(&self) -> &TraceStore {
        &self.store
    }

    /// The HTTP router: the function handed to [`crate::http::Server`].
    pub fn handle(&self, req: &Request) -> Response {
        let started = Instant::now();
        self.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let resp = self.route(req);
        self.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.metrics.observe_latency(started.elapsed());
        resp
    }

    fn route(&self, req: &Request) -> Response {
        let bump = |c: &std::sync::atomic::AtomicU64| c.fetch_add(1, Ordering::Relaxed);
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                bump(&self.metrics.healthz);
                Response::json(200, obj([("status", Json::from("ok"))]).render())
            }
            ("GET", "/v1/workloads") => {
                bump(&self.metrics.workloads);
                Response::json(200, workloads_json().render())
            }
            ("POST", "/v1/predict") => {
                bump(&self.metrics.predict);
                self.predict(req)
            }
            ("POST", "/v1/traces") => {
                bump(&self.metrics.traces);
                self.trace_upload(&req.body)
            }
            ("GET", "/v1/traces") => {
                bump(&self.metrics.traces);
                self.trace_list()
            }
            ("GET", "/metrics") => {
                bump(&self.metrics.metrics);
                let store = store_stats_json(&self.store.stats());
                let doc = self
                    .metrics
                    .to_json(self.cache.len(), store, self.admission_json());
                Response::json(200, doc.render())
            }
            ("POST", "/v1/shutdown") => {
                bump(&self.metrics.shutdown);
                self.shutdown.trigger();
                Response::json(200, obj([("status", Json::from("shutting-down"))]).render())
            }
            (
                _,
                "/healthz" | "/v1/workloads" | "/v1/predict" | "/v1/traces" | "/metrics"
                | "/v1/shutdown",
            ) => {
                bump(&self.metrics.other);
                ApiError {
                    status: 405,
                    message: "method not allowed".into(),
                }
                .response()
            }
            _ => {
                bump(&self.metrics.other);
                ApiError {
                    status: 404,
                    message: "no such route".into(),
                }
                .response()
            }
        }
    }

    /// `POST /v1/traces`: validate and ingest a trace upload (raw GSTR
    /// bytes) into the content-addressed store, which keeps the bytes as
    /// sent.
    fn trace_upload(&self, body: &[u8]) -> Response {
        if body.is_empty() {
            return ApiError::bad("empty trace upload; send the raw .gstr bytes").response();
        }
        match self.store.ingest_bytes(body) {
            Ok((meta, dedup)) => {
                let mut doc = vec![("schema", Json::from("gsim-serve-trace-v1"))];
                doc.extend(trace_meta_fields(&meta));
                doc.push(("deduplicated", Json::from(dedup)));
                Response::json(200, obj(doc).render())
                    .with_header("X-Gsim-Trace", if dedup { "dedup" } else { "new" })
            }
            Err(StoreError::Invalid(e)) => ApiError::bad(format!("invalid trace: {e}")).response(),
            Err(e) => ApiError::internal(format!("trace store failure: {e}")).response(),
        }
    }

    /// `GET /v1/traces`: the stored-trace catalog, oldest first.
    fn trace_list(&self) -> Response {
        let traces: Vec<Json> = self
            .store
            .list()
            .iter()
            .map(|m| obj(trace_meta_fields(m)))
            .collect();
        let body = obj([
            ("schema", Json::from("gsim-serve-traces-v1")),
            ("traces", Json::Arr(traces)),
        ]);
        Response::json(200, body.render())
    }

    /// The `overload.admission` group of the `/metrics` document. The
    /// `_heavy` names predate the single budget; readers key on them.
    fn admission_json(&self) -> Json {
        obj([
            ("limit_heavy", Json::from(self.gate.limit())),
            ("inflight_heavy", Json::from(self.gate.inflight())),
        ])
    }

    /// The request's deadline instant from the `X-Gsim-Deadline-Ms`
    /// header; `None` when it is absent or `0`.
    fn deadline_of(req: &Request) -> Result<Option<Instant>, ApiError> {
        let Some(v) = req.header(DEADLINE_HEADER) else {
            return Ok(None);
        };
        let ms = v.trim().parse::<u64>().map_err(|_| {
            ApiError::bad("X-Gsim-Deadline-Ms must be an integer number of milliseconds")
        })?;
        Ok((ms > 0).then(|| Instant::now() + Duration::from_millis(ms)))
    }

    /// `POST /v1/predict`: admit (or shed); answer a body seen before
    /// from its bytes; else normalize, address, then hit the cache, join
    /// an identical in-flight computation, or lead a new one —
    /// abandoning work past its deadline.
    fn predict(&self, req: &Request) -> Response {
        let fail = || {
            self.metrics.predict_errors.fetch_add(1, Ordering::Relaxed);
        };
        let deadline = match Self::deadline_of(req) {
            Ok(d) => d,
            Err(e) => {
                fail();
                return e.response();
            }
        };
        let Some(_permit) = self.gate.try_admit() else {
            self.metrics.shed_heavy.fetch_add(1, Ordering::Relaxed);
            fail();
            return ApiError {
                status: 429,
                message: "predict budget exhausted; service is at capacity".into(),
            }
            .response()
            .with_header("Retry-After", self.retry_after().to_string());
        };
        if let Some(cached) = self.cache.get_by_body(&req.body) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return self.respond(Ok(cached), "hit");
        }
        let mut plan = match parse_request(&req.body, Some(&self.store)) {
            Ok(plan) => plan,
            Err(e) => {
                fail();
                return e.response();
            }
        };
        // A `trace_ref` body is never indexed by its bytes: its catalog
        // check and its trace count run on every request.
        let stored = matches!(plan.kind, PlanKind::Stored(_));
        if stored {
            self.metrics
                .predict_from_trace
                .fetch_add(1, Ordering::Relaxed);
        }
        let key = fnv1a(plan.canonical.as_bytes());
        let index = || {
            if !stored {
                self.cache.index_body(&req.body, key);
            }
        };
        if let Some(cached) = self.cache.get(key) {
            index();
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return self.respond(Ok(cached), "hit");
        }
        match self.flights.join(key) {
            Role::Leader(promise) => {
                self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                self.metrics.computations.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let outcome: Outcome = self.compute(&mut plan, deadline).map(Arc::new);
                if let Ok(body) = &outcome {
                    self.cache.put(key, &plan.canonical, Arc::clone(body));
                    index();
                }
                self.metrics.observe_heavy(started.elapsed());
                self.flights.publish(key, promise, outcome.clone());
                self.respond(outcome, "miss")
            }
            Role::Follower(handle) => {
                self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                // Followers inherit the leader's work but keep their own
                // deadline: stop waiting when it passes.
                let waited = match deadline {
                    Some(d) => handle.wait_timeout(d.saturating_duration_since(Instant::now())),
                    None => handle.wait().map(Some),
                };
                match waited {
                    Ok(Some(outcome)) => self.respond((*outcome).clone(), "coalesced"),
                    Ok(None) => {
                        fail();
                        self.deadline_exceeded().response()
                    }
                    Err(_) => {
                        fail();
                        ApiError::internal("prediction flight abandoned").response()
                    }
                }
            }
        }
    }

    fn respond(&self, outcome: Outcome, cache_status: &str) -> Response {
        match outcome {
            Ok(body) => {
                let path = path_of_body(&body);
                Response::json(200, body.as_bytes().to_vec())
                    .with_header("X-Gsim-Cache", cache_status)
                    .with_header("X-Gsim-Path", path)
            }
            Err(e) => {
                self.metrics.predict_errors.fetch_add(1, Ordering::Relaxed);
                let resp = e.response();
                if e.status == 503 {
                    // A transient failure: tell the client when a retry
                    // is likely to find a calmer pool.
                    resp.with_header("Retry-After", self.retry_after().to_string())
                } else {
                    resp
                }
            }
        }
    }

    /// Seconds a shed or failed predict should wait before retrying.
    fn retry_after(&self) -> u64 {
        retry_after_secs(self.metrics.heavy_p50_us(), self.gate.inflight())
    }

    /// Computes one prediction: the staged functional-first fast path
    /// when it applies, the timing-simulation path otherwise, and one
    /// shared fit → forecast → render tail behind both. A stored trace's
    /// blob is read and decoded here first, by the flight leader only.
    fn compute(&self, plan: &mut Plan, deadline: Option<Instant>) -> Result<String, ApiError> {
        if let PlanKind::Stored(trace_ref) = &plan.kind {
            let wl = self.store.load(trace_ref).map_err(|e| match e {
                StoreError::NotFound(_) => trace_not_found(trace_ref),
                e => ApiError::internal(format!("trace load failed: {e}")),
            })?;
            plan.kind = PlanKind::WithMrc(PlanWorkload::Traced(Arc::new(wl)));
        }
        let staged = match &plan.kind {
            PlanKind::WithMrc(wl) => {
                let collected = self.collect(plan, wl, deadline)?;
                match self.stage_fast(plan, &collected) {
                    Some(staged) => staged,
                    None => {
                        // A full body prints the curve at its own
                        // ladder's sizes.
                        let mrc = collected
                            .points
                            .into_iter()
                            .filter(|(size, _)| plan.ladder.contains(size))
                            .collect();
                        self.stage_full(plan, (wl, wl), Some(mrc), deadline)?
                    }
                }
            }
            PlanKind::PerSize { small_wl, large_wl } => {
                self.stage_full(plan, (small_wl, large_wl), None, deadline)?
            }
            PlanKind::Stored(_) => unreachable!("a stored trace was loaded above"),
        };
        self.finish(plan, staged)
    }

    /// Stage 1 of every plan with a miss-rate curve: the sampled
    /// collection over the whole ladder up to `MAX_TARGET_SMS`, whatever
    /// the targets (a fast body lists every point, and with the pass
    /// dominating the cost the extra readouts are nearly free). One
    /// streaming pass on this request's thread, checked against
    /// `deadline` every thousand ops, so it fails only by running out of
    /// time.
    fn collect(
        &self,
        plan: &Plan,
        wl: &PlanWorkload,
        deadline: Option<Instant>,
    ) -> Result<Collected, ApiError> {
        let configs: Vec<GpuConfig> = ladder(plan.small, MAX_TARGET_SMS)
            .into_iter()
            .map(|sms| GpuConfig::paper_target(sms, plan.scale))
            .collect();
        self.metrics
            .collects_started
            .fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let collected = collect_sampled_inline(wl, &configs, deadline)
            .map_err(|TimedOut| self.deadline_exceeded())?;
        Metrics::observe_stage(&self.metrics.stage_collect, started.elapsed());
        Ok(collected)
    }

    /// The fast path: plans not forced onto the full path consult the
    /// compute-intensity gate. Memory-bound workloads are answered from
    /// roofline observations synthesized from the collection;
    /// compute-sensitive ones (and forced-full plans) return `None` and
    /// escalate to [`Self::stage_full`].
    fn stage_fast(&self, plan: &Plan, collected: &Collected) -> Option<Staged> {
        if plan.path == PathMode::Full {
            return None;
        }
        let cfg_of = |sms: u32| GpuConfig::paper_target(sms, plan.scale);
        let large = cfg_of(plan.large);
        let pressure = collected.memory_pressure(&large);
        let fast = plan.path == PathMode::Fast || collected.takes_fast_path(&large);
        if !fast {
            // Compute matters: the roofline synthesis is not
            // trustworthy, escalate to the real simulations.
            self.metrics.escalated.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.metrics.fast_path.fetch_add(1, Ordering::Relaxed);
        let synthesize = |size: u32| SimPoint {
            obs: synthesize_observation(collected, &cfg_of(size)),
            timing: None,
        };
        Some(Staged {
            schema: PREDICT_FAST_SCHEMA,
            head: vec![
                ("fast_path", Json::from(true)),
                ("mrc_engine", Json::from("sampled")),
                ("memory_pressure", Json::from(pressure)),
                ("forced", Json::from(plan.path == PathMode::Fast)),
            ],
            small: synthesize(plan.small),
            large: synthesize(plan.large),
            mrc: Some(collected.points.clone()),
        })
    }

    /// The full path: the two scale-model simulations, with the curve
    /// the caller collected (`None` for per-size plans). The larger runs
    /// on a scoped thread beside this one, or after the smaller on this
    /// thread when the service runs them one after the other. Each
    /// simulation stops at `deadline` by itself, so nothing outlives the
    /// request.
    ///
    /// A simulation that timed out, or a result that arrives after the
    /// deadline, is a `504`. A panic in either is a `503` with
    /// `Retry-After` and no retry: a simulation is deterministic, so it
    /// would panic again. A panicking side-by-side simulation answers once
    /// its sibling has stopped too.
    fn stage_full(
        &self,
        plan: &Plan,
        (small_wl, large_wl): (&PlanWorkload, &PlanWorkload),
        mrc: Option<Vec<(u32, f64)>>,
        deadline: Option<Instant>,
    ) -> Result<Staged, ApiError> {
        let simulate = |sms: u32, wl: &PlanWorkload| {
            catch_unwind(AssertUnwindSafe(|| {
                if gsim_faults::active().is_some_and(|f| f.job_panic()) {
                    panic!("injected fault: scale-model simulation panic");
                }
                self.metrics
                    .timing_sims_started
                    .fetch_add(1, Ordering::Relaxed);
                let stats = wl.simulate(GpuConfig::paper_target(sms, plan.scale), deadline)?;
                Ok(SimPoint {
                    obs: observation_of(sms, &stats),
                    timing: Some((stats.mpki(), stats.cycles)),
                })
            }))
        };
        let settle = |sim: std::thread::Result<Result<SimPoint, TimedOut>>, sms: u32| match sim {
            Ok(Ok(point)) => Ok(point),
            Ok(Err(TimedOut)) => Err(self.deadline_exceeded()),
            Err(_) => Err(ApiError {
                status: 503,
                message: format!("scale-model simulation at {sms} SMs failed; retry later"),
            }),
        };
        let (small, large) = if self.side_by_side {
            let (small, large) = std::thread::scope(|s| {
                let large = s.spawn(|| simulate(plan.large, large_wl));
                (
                    simulate(plan.small, small_wl),
                    large.join().unwrap_or_else(Err),
                )
            });
            (settle(small, plan.small)?, settle(large, plan.large)?)
        } else {
            let small = settle(simulate(plan.small, small_wl), plan.small)?;
            (small, settle(simulate(plan.large, large_wl), plan.large)?)
        };
        // A simulation can finish a moment past the deadline: that
        // answer is still a 504, never a late 200.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(self.deadline_exceeded());
        }
        Ok(Staged {
            schema: PREDICT_SCHEMA,
            head: Vec::new(),
            small,
            large,
            mrc,
        })
    }

    /// The tail both paths share: fit the five predictors to the two
    /// scale-model points and the curve, evaluate the targets, render.
    /// Neither the fit nor the forecast is cached — each is about a
    /// microsecond, less than a key for it would cost to hash.
    fn finish(&self, plan: &Plan, staged: Staged) -> Result<String, ApiError> {
        let failed = |e| ApiError::bad(format!("prediction failed: {e}"));
        let started = Instant::now();
        let mrc = staged
            .mrc
            .as_ref()
            .map(|pts| gsim_core::SizedMrc::new(pts.iter().copied()));
        let fit = Fit::new(staged.small.obs, staged.large.obs, mrc.as_ref()).map_err(failed)?;
        Metrics::observe_stage(&self.metrics.stage_fit, started.elapsed());
        let started = Instant::now();
        let forecast = fit.forecast(&plan.targets).map_err(failed)?;
        Metrics::observe_stage(&self.metrics.stage_predict, started.elapsed());

        let mut body = vec![
            ("schema", Json::from(staged.schema)),
            ("request", plan.normalized.clone()),
        ];
        body.extend(staged.head);
        body.extend([
            (
                "scale_models",
                Json::Arr(vec![staged.small.json(), staged.large.json()]),
            ),
            (
                "mrc",
                Json::from(staged.mrc.map(|pts| {
                    Json::Arr(
                        pts.into_iter()
                            .map(|(s, m)| Json::Arr(vec![Json::from(s), Json::from(m)]))
                            .collect(),
                    )
                })),
            ),
            ("correction_factor", Json::from(forecast.correction_factor)),
            ("cliff_at", Json::from(forecast.cliff_at)),
            ("predictions", Json::Arr(predictions_json(&forecast))),
        ]);
        Ok(obj(body).render())
    }

    /// Counts one deadline miss and returns its `504`.
    fn deadline_exceeded(&self) -> ApiError {
        self.metrics
            .deadline_timeouts
            .fetch_add(1, Ordering::Relaxed);
        ApiError {
            status: 504,
            message: "deadline exceeded before the prediction completed".into(),
        }
    }
}

/// Renders forecast targets as prediction rows.
fn predictions_json(forecast: &gsim_core::Forecast) -> Vec<Json> {
    forecast
        .targets
        .iter()
        .map(|t| {
            obj([
                ("target", Json::from(t.target)),
                (
                    "ipc_by_method",
                    Json::Obj(
                        t.by_method
                            .iter()
                            .map(|m| (m.method.to_string(), Json::from(m.predicted_ipc)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect()
}

/// The `X-Gsim-Path` value of a response body, derived from its leading
/// schema tag — so cached and coalesced responses label their path
/// without carrying side-channel state.
fn path_of_body(body: &str) -> &'static str {
    if body.starts_with("{\"schema\":\"gsim-serve-predict-fast-v1\"") {
        "fast"
    } else {
        "full"
    }
}

/// The `GET /v1/workloads` catalog.
fn workloads_json() -> Json {
    let scale = MemScale::default();
    obj([
        ("schema", Json::from("gsim-serve-workloads-v1")),
        (
            "strong",
            Json::Arr(
                strong_suite(scale)
                    .iter()
                    .map(|b| {
                        obj([
                            ("abbr", Json::from(b.abbr)),
                            ("name", Json::from(b.full_name)),
                            ("footprint_mb", Json::from(b.workload.footprint_mb_paper())),
                            ("expected", Json::from(b.expected.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "weak",
            Json::Arr(
                weak_suite(scale)
                    .iter()
                    .map(|b| {
                        obj([
                            ("abbr", Json::from(b.abbr)),
                            ("expected", Json::from(b.expected.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The fields of one stored trace's catalog entry (shared by the upload
/// response and `GET /v1/traces`).
fn trace_meta_fields(m: &TraceMeta) -> Vec<(&'static str, Json)> {
    vec![
        ("ref", Json::from(m.trace_ref.as_str())),
        ("name", Json::from(m.name.as_str())),
        ("kernels", Json::from(m.n_kernels)),
        ("warps", Json::from(m.total_warps)),
        ("ops", Json::from(m.total_ops)),
        ("warp_instrs", Json::from(m.total_warp_instrs)),
        ("bytes", Json::from(m.bytes)),
    ]
}

/// The `trace_store` group of the `/metrics` document.
fn store_stats_json(s: &StoreStats) -> Json {
    obj([
        ("ingests", Json::from(s.ingests)),
        ("dedup_hits", Json::from(s.dedup_hits)),
        ("validation_failures", Json::from(s.validation_failures)),
        ("evictions", Json::from(s.evictions)),
        ("recovered", Json::from(s.recovered)),
        ("store_bytes", Json::from(s.store_bytes)),
        ("entries", Json::from(s.entries)),
    ])
}

// --- the request schema ------------------------------------------------

/// One field of a request object, declared once: the walk reads, checks,
/// defaults and echoes it from here, and README's request table is
/// rendered from it (`readme_table_is_the_schema`).
struct Field {
    name: &'static str,
    ty: Ty,
    absent: Absent,
    /// For a field only one pattern kind takes: that kind.
    only: Option<&'static str>,
    /// Rank in the normalized echo (table order within a rank); `None`
    /// never shows.
    echo: Option<u8>,
}

/// How a field's JSON value is read and normalized.
#[derive(Clone, Copy)]
enum Ty {
    /// A non-negative integer, bounded to `lo..=hi`.
    Int(u32, u32, Bound),
    /// A finite number, bounded to `lo..=hi` (`(lo, hi]` when rejected).
    Num(f64, f64, Bound),
    /// A string; the text says what it must be.
    Str(&'static str),
    OneOf(&'static [&'static str]),
    /// The pattern kind: one of these, deciding which `only` fields exist.
    Kind(&'static [&'static str]),
    /// Two integers.
    Pair,
    /// A non-empty array of integers.
    Ints,
    /// A non-empty array of positive `[weight, fraction]` pairs.
    Levels,
    /// An object read by its own table.
    Obj(&'static [Field]),
    /// An object the cross-field rules walk once they know it applies (a
    /// `pattern`, after exactly one workload source): the walk of the
    /// enclosing object leaves it unread.
    Later(&'static [Field]),
}

/// What a value outside its bound does: read as the nearer bound
/// (`Clamp`), read as `lo` below and fail above (`Cap`), or fail.
#[derive(Clone, Copy, PartialEq)]
enum Bound {
    Clamp,
    Cap,
    Reject,
}

/// What an absent field reads as: a 400 with this message, this JSON
/// text, or nothing (the cross-field rules decide).
#[derive(Clone, Copy)]
enum Absent {
    Required(&'static str),
    Is(&'static str),
    Optional,
}

use Absent::{Is, Optional, Required};
use Bound::{Cap, Clamp, Reject};
use Ty::{Int, Num};

#[rustfmt::skip]
const fn f(name: &'static str, ty: Ty, absent: Absent) -> Field {
    Field { name, ty, absent, only: None, echo: Some(0) }
}

#[rustfmt::skip]
impl Field {
    const fn only(self, kind: &'static str) -> Self { Self { only: Some(kind), ..self } }
    const fn echo(self, rank: Option<u8>) -> Self { Self { echo: rank, ..self } }
}

const U32: Ty = Int(0, u32::MAX, Clamp);
const AT_LEAST_1: Ty = Int(1, u32::MAX, Clamp);
#[rustfmt::skip]
const KINDS: &[&str] = &["global_sweep", "streaming", "working_set_mix", "tiled", "pointer_chase"];
const NEEDS_LEVELS: &str = "working_set_mix requires levels: [[weight, fraction], ...]";

/// A predict body, in read order: the order the unknown-field message
/// lists. Echo order: the workload's key, `suite`, `scale_models`,
/// `targets`, `mem_scale`.
#[rustfmt::skip]
const REQUEST: &[Field] = &[
    f("mem_scale", Int(1, GpuConfig::max_mem_scale(), Reject), Is("8")).echo(Some(4)),
    f("scale_models", Ty::Pair, Is("[8, 16]")).echo(Some(2)),
    f("target_sms", U32, Optional).echo(None),
    f("targets", Ty::Ints, Optional).echo(Some(3)),
    f("path", Ty::OneOf(&["auto", "fast", "full"]), Is("\"auto\"")).echo(None),
    f("workload", Ty::Str("a benchmark abbreviation"), Optional),
    f("suite", Ty::OneOf(&["strong", "weak"]), Optional).echo(Some(1)),
    f("pattern", Ty::Later(PATTERN), Optional),
    f("trace_ref", Ty::Str("a string"), Optional),
];

/// An inline synthetic pattern (`PatternSpec`). The defaults are pinned
/// here, not inherited from `PatternSpec`'s builder, so the request
/// semantics cannot drift under it. `passes`, `mem_ops_per_warp` and
/// `ctas` multiply a kernel's work without growing anything else a
/// request is billed for; every Table II/IV workload stays below a tenth
/// of each cap. A stream emits at most `u16::MAX` compute instructions
/// per memory op, so a larger `compute_per_mem` would name the same
/// stream under another address.
#[rustfmt::skip]
const PATTERN: &[Field] = &[
    f("kind", Ty::Kind(KINDS), Required("pattern.kind must be a string")),
    f("footprint_mb", Num(0.0, 1_048_576.0, Reject), Required("pattern.footprint_mb is required")),
    f("passes", Int(1, 64, Cap), Is("1")).only("global_sweep"),
    f("tile_lines", AT_LEAST_1, Required("tiled pattern requires tile_lines")).only("tiled"),
    f("reuses", AT_LEAST_1, Required("tiled pattern requires reuses")).only("tiled"),
    f("levels", Ty::Levels, Required(NEEDS_LEVELS)).only("working_set_mix"),
    f("mem_ops_per_warp", Int(1, 4096, Cap), Is("64")),
    f("compute_per_mem", Num(0.0, u16::MAX as f64, Cap), Is("2")),
    f("write_frac", Num(0.0, 1.0, Clamp), Is("0")),
    f("divergence", Int(1, 32, Clamp), Is("1")),
    f("tail_compute", U32, Is("0")),
    f("ctas", Int(1, 65_536, Cap), Is("1024")),
    f("threads_per_cta", Int(1, 1024, Reject), Is("256")),
    f("seed", U32, Is("42")),
    f("shared_hot", Ty::Obj(SHARED_HOT), Optional),
];

/// `pattern.shared_hot`: a hot set every warp hits with probability `prob`.
#[rustfmt::skip]
const SHARED_HOT: &[Field] = &[
    f("prob", Num(0.0, 1.0, Clamp), Required("shared_hot requires prob")),
    f("hot_lines", AT_LEAST_1, Required("shared_hot requires hot_lines")),
];

/// A field as messages name it: `mem_scale`, `pattern.ctas`,
/// `shared_hot.prob` — (object, field).
#[derive(Clone, Copy)]
struct At(&'static str, &'static str);

impl std::fmt::Display for At {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            "request" => f.write_str(self.1),
            object => write!(f, "{object}.{}", self.1),
        }
    }
}

/// One object after the walk: each field that applies, in table order,
/// with its normalized value when present or defaulted.
struct Walked(Vec<(&'static Field, Option<Json>)>);

impl Walked {
    fn get(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(f, _)| f.name == name)?.1.as_ref()
    }

    fn set(&mut self, name: &str, value: Json) {
        if let Some((_, v)) = self.0.iter_mut().find(|(f, _)| f.name == name) {
            *v = Some(value);
        }
    }

    /// The normalized echo: every echoed field with a value, by rank.
    fn echo(mut self) -> Json {
        self.0.retain(|(f, v)| f.echo.is_some() && v.is_some());
        self.0.sort_by_key(|(f, _)| f.echo);
        let shown = self.0.into_iter().filter_map(|(f, v)| Some((f.name, v?)));
        obj(shown)
    }
}

/// Reads `json` against `table`: each field that applies is checked and
/// normalized, or defaulted when absent, in table order; then a field the
/// table does not know is a 400 — a typo must fail loudly, not select a
/// default and poison the cache key space.
fn walk(json: &Json, object: &'static str, table: &'static [Field]) -> Result<Walked, ApiError> {
    let Json::Obj(members) = json else {
        return Err(ApiError::bad(format!("{object} must be a JSON object")));
    };
    let mut walked = Vec::with_capacity(table.len());
    let mut kind = None;
    for f in table {
        if f.only.is_some() && f.only != kind {
            continue;
        }
        let at = At(object, f.name);
        let value = match (members.iter().find(|(k, _)| k == f.name), f.absent) {
            (Some(_), _) if matches!(f.ty, Ty::Later(_)) => None,
            (Some((_, v)), _) => Some(read(v, f.ty, at)?),
            (None, Is(text)) => {
                let v = gsim_json::parse(text).expect("a schema default is JSON");
                Some(read(&v, f.ty, at)?)
            }
            (None, Required(message)) => return Err(ApiError::bad(message)),
            (None, Optional) => None,
        };
        if let (Ty::Kind(kinds), Some(v)) = (f.ty, &value) {
            kind = kinds.iter().copied().find(|k| v.as_str() == Some(k));
        }
        walked.push((f, value));
    }
    if let Some((k, _)) = members
        .iter()
        .find(|(k, _)| walked.iter().all(|(f, _)| f.name != k))
    {
        let known: Vec<&str> = walked.iter().map(|(f, _)| f.name).collect();
        return Err(ApiError::bad(format!(
            "unknown field {k:?} in {object}; known fields: {}",
            known.join(", ")
        )));
    }
    Ok(Walked(walked))
}

/// Reads one field's value as `ty`, normalized: bounds applied, a nested
/// object walked and echoed.
fn read(v: &Json, ty: Ty, at: At) -> Result<Json, ApiError> {
    let must_be = |what: &str| ApiError::bad(format!("{at} must be {what}"));
    let int = |v: &Json, at: &dyn std::fmt::Display| {
        let n = v.as_u64().and_then(|n| u32::try_from(n).ok());
        n.ok_or_else(|| ApiError::bad(format!("{at} must be a non-negative integer")))
    };
    let num = |v: &Json, at: &dyn std::fmt::Display| {
        let x = v.as_f64().filter(|x| x.is_finite());
        x.ok_or_else(|| ApiError::bad(format!("{at} must be a finite number")))
    };
    let (x, lo, hi, bound) = match ty {
        Int(lo, hi, bound) => (f64::from(int(v, &at)?), f64::from(lo), f64::from(hi), bound),
        Num(lo, hi, bound) => (num(v, &at)?, lo, hi, bound),
        Ty::Str(what) => return Ok(Json::from(v.as_str().ok_or_else(|| must_be(what))?)),
        Ty::OneOf(options) => match v.as_str() {
            Some(s) if options.contains(&s) => return Ok(Json::from(s)),
            _ => return Err(must_be(&one_of(options))),
        },
        Ty::Kind(kinds) => match v.as_str() {
            Some(s) if kinds.contains(&s) => return Ok(Json::from(s)),
            Some(s) => {
                let kinds = kinds.join(", ");
                return Err(ApiError::bad(format!(
                    "unknown {} kind {s:?}; one of {kinds}",
                    at.0
                )));
            }
            None => return Err(must_be("a string")),
        },
        Ty::Pair => match v.as_arr() {
            Some([a, b]) => {
                let pair = [
                    int(a, &format_args!("{at}[0]"))?,
                    int(b, &format_args!("{at}[1]"))?,
                ];
                return Ok(Json::from(pair.to_vec()));
            }
            _ => return Err(must_be("a two-element array, e.g. [8, 16]")),
        },
        Ty::Ints => match v.as_arr() {
            Some(items) if !items.is_empty() => {
                let ints = items.iter().map(|x| int(x, &format_args!("{at}[]")));
                return Ok(Json::from(ints.collect::<Result<Vec<u32>, _>>()?));
            }
            _ => return Err(must_be("a non-empty array")),
        },
        Ty::Levels => {
            let level = |l: &Json| match l.as_arr() {
                Some([w, frac]) => {
                    match (num(w, &"level weight")?, num(frac, &"level fraction")?) {
                        (w, frac) if w > 0.0 && frac > 0.0 => Ok(Json::from(vec![w, frac])),
                        _ => Err(ApiError::bad(
                            "level weights and fractions must be positive",
                        )),
                    }
                }
                _ => Err(ApiError::bad("each level must be [weight, fraction]")),
            };
            let levels = v.as_arr().ok_or_else(|| ApiError::bad(NEEDS_LEVELS))?;
            if levels.is_empty() {
                return Err(ApiError::bad("levels must be non-empty"));
            }
            return Ok(Json::Arr(
                levels.iter().map(level).collect::<Result<_, _>>()?,
            ));
        }
        Ty::Obj(table) | Ty::Later(table) => return Ok(walk(v, at.1, table)?.echo()),
    };
    // `int` picks the range notation: `lo..=hi`, or `(lo, hi]` for a number.
    let int = matches!(ty, Int(..));
    match bound {
        Clamp => Ok(Json::from(x.clamp(lo, hi))),
        Cap if x <= hi => Ok(Json::from(x.max(lo))),
        Reject if x <= hi && (x > lo || int && x == lo) => Ok(Json::from(x)),
        Cap => Err(must_be(&format!("at most {}", show(hi)))),
        Reject if int => Err(must_be(&format!("in {}..={}", show(lo), show(hi)))),
        Reject => Err(must_be(&format!("in ({}, {}]", show(lo), show(hi)))),
    }
}

/// A bound as messages print it: `2^20` rather than `1048576`.
fn show(x: f64) -> String {
    match x.log2() {
        e if x >= 1_048_576.0 && e.fract() == 0.0 => format!("2^{e}"),
        _ => x.to_string(),
    }
}

/// `"a" or "b"`; `"a", "b", or "c"`.
fn one_of(options: &[&str]) -> String {
    let quoted: Vec<String> = options.iter().map(|o| format!("{o:?}")).collect();
    match quoted.split_last() {
        Some((last, [one])) => format!("{one} or {last}"),
        Some((last, init)) => format!("{}, or {last}", init.join(", ")),
        None => String::new(),
    }
}

/// The doubling ladder from `small` up to the first rung at or past `top`.
fn ladder(small: u32, top: u32) -> Vec<u32> {
    std::iter::successors(Some(small), |&s| (s < top).then(|| s.saturating_mul(2))).collect()
}

/// A 400 as a `Result`, for the cross-field rules.
fn bad<T>(message: impl Into<String>) -> Result<T, ApiError> {
    Err(ApiError::bad(message))
}

fn parse_request(body: &[u8], store: Option<&TraceStore>) -> Result<Plan, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::bad("request body must be UTF-8 JSON"))?;
    let doc = gsim_json::parse_with_limits(text, gsim_json::DEFAULT_MAX_DEPTH, MAX_PREDICT_BYTES)
        .map_err(|e| ApiError::bad(format!("request body is not valid JSON: {e}")))?;
    let mut req = walk(&doc, "request", REQUEST)?;
    // Walked integers are in range.
    let int = |v: &Json| v.as_u64().map_or(0, |n| n as u32);
    let ints = |v: &Json| -> Vec<u32> { v.as_arr().unwrap_or_default().iter().map(int).collect() };

    let scale = MemScale::new(req.get("mem_scale").map_or(0, int));
    let [small, large] = req.get("scale_models").map(ints).unwrap_or_default()[..] else {
        unreachable!("scale_models defaults to a pair")
    };
    if small == 0 || small >= large {
        return bad("scale_models must satisfy 0 < small < large");
    }
    if large > MAX_SCALE_MODEL_SMS {
        return bad(format!(
            "scale_models: the larger scale model ({large}) must be at most {MAX_SCALE_MODEL_SMS}"
        ));
    }
    // One `target_sms` or an array `targets`; sorted + deduped so
    // equivalent requests share one cache entry.
    let mut targets = match (req.get("target_sms"), req.get("targets")) {
        (Some(_), Some(_)) => return bad("give either target_sms or targets, not both"),
        (None, None) => return bad("missing target_sms (or targets) field"),
        (Some(t), None) => vec![int(t)],
        (None, Some(ts)) => ints(ts),
    };
    targets.sort_unstable();
    targets.dedup();
    if let Some(t) = targets.iter().find(|&&t| t <= large || t > MAX_TARGET_SMS) {
        return bad(format!(
            "target {t} must exceed the larger scale model ({large}) and be at most {MAX_TARGET_SMS}"
        ));
    }
    // The doubling ladder small → max target; every named size must sit
    // on it (the predictor extrapolates per doubling).
    let ladder = ladder(small, *targets.last().expect("targets are non-empty"));
    let named = std::iter::once(("larger scale model", large));
    if let Some((what, value)) = named
        .chain(targets.iter().map(|&t| ("target", t)))
        .find(|(_, value)| !ladder.contains(value))
    {
        return bad(format!(
            "{what} {value} is not a power-of-two multiple of the smaller scale model ({small})"
        ));
    }

    // Workload: a suite benchmark, a synthetic pattern, or a stored trace.
    let suite = req.get("suite").and_then(Json::as_str);
    let mut pattern = None;
    let sources = (
        req.get("workload"),
        doc.get("pattern"),
        req.get("trace_ref"),
    );
    let (kind, suite) = match sources {
        (Some(abbr), None, None) if suite == Some("weak") => {
            let abbr = abbr.as_str().unwrap_or_default();
            let Some(bench) = weak_benchmark(abbr, scale) else {
                return bad(format!(
                    "unknown weak benchmark {abbr:?}; see GET /v1/workloads"
                ));
            };
            let input = |sms| match bench.workload_for_sms(sms) {
                Some(wl) => Ok(PlanWorkload::Synthetic(wl)),
                None => bad(format!(
                    "Table IV has weak-scaling inputs for {SM_LADDER:?} SMs, not {sms}"
                )),
            };
            let (small_wl, large_wl) = (input(small)?, input(large)?);
            (PlanKind::PerSize { small_wl, large_wl }, "weak")
        }
        (Some(abbr), None, None) => {
            let abbr = abbr.as_str().unwrap_or_default();
            let Some(bench) = strong_benchmark(abbr, scale) else {
                return bad(format!("unknown benchmark {abbr:?}; see GET /v1/workloads"));
            };
            (
                PlanKind::WithMrc(PlanWorkload::Synthetic(bench.workload)),
                "strong",
            )
        }
        (None, Some(_), None) | (None, None, Some(_)) if suite.is_some() => {
            let what = if sources.1.is_some() {
                "pattern"
            } else {
                "trace"
            };
            return bad(format!("suite does not apply to {what} requests"));
        }
        (None, Some(json), None) => {
            let walked = walk(json, "pattern", PATTERN)?.echo();
            let wl = pattern_workload(&walked, scale)?;
            pattern = Some(walked);
            (PlanKind::WithMrc(PlanWorkload::Synthetic(wl)), "pattern")
        }
        (None, None, Some(t)) => {
            let trace_ref = t.as_str().unwrap_or_default().to_ascii_lowercase();
            if trace_ref.len() != 16 || u64::from_str_radix(&trace_ref, 16).is_err() {
                return bad("trace_ref must be 16 hex digits (see POST /v1/traces)");
            }
            let Some(store) = store else {
                return Err(ApiError::internal("no trace store configured"));
            };
            // The catalog check only: the blob is read by a flight
            // leader, never by a cache hit.
            if store.get(&trace_ref).is_none() {
                return Err(trace_not_found(&trace_ref));
            }
            (PlanKind::Stored(trace_ref), "trace")
        }
        (None, None, None) => return bad("missing workload (or pattern, or trace_ref) field"),
        _ => return bad("give exactly one of workload, pattern, or trace_ref — not both"),
    };
    // The fast path fits predictors to a miss-rate curve; a per-size
    // (weak-scaling) plan has none, so forcing it is a contradiction.
    let path = match req.get("path").and_then(Json::as_str) {
        Some("fast") => PathMode::Fast,
        Some("full") => PathMode::Full,
        _ => PathMode::Auto,
    };
    if path == PathMode::Fast && matches!(kind, PlanKind::PerSize { .. }) {
        return bad(
            "path \"fast\" needs a miss-rate curve; weak-scaling plans must use \"auto\" or \"full\"",
        );
    }

    // The normalized request: every default filled in, so semantically
    // identical requests render identically.
    req.set("suite", Json::from(suite));
    req.set("targets", Json::from(targets.clone()));
    if let Some(pattern) = pattern {
        req.set("pattern", pattern);
    }
    if let PlanKind::Stored(trace_ref) = &kind {
        req.set("trace_ref", Json::from(trace_ref.as_str()));
    }
    let normalized = req.echo();

    // Content address: the normalized request plus one digest of every
    // field of every derived config on the ladder — a change to the
    // simulator's defaults must invalidate old cache entries. The
    // requested path changes what is computed (fast vs full bodies), so
    // it is part of the address — for every mode, including the default,
    // so the mode set can grow without aliasing old entries.
    let configs = ladder.iter().map(|&s| GpuConfig::paper_target(s, scale));
    let canonical = format!(
        "{}|configs={:016x}|path={}",
        normalized.render(),
        configs_digest(configs),
        path.as_str()
    );
    Ok(Plan {
        canonical,
        normalized,
        kind,
        small,
        large,
        targets,
        scale,
        ladder,
        path,
    })
}

/// The 404 for a trace reference the store does not hold.
fn trace_not_found(trace_ref: &str) -> ApiError {
    ApiError {
        status: 404,
        message: format!("no trace {trace_ref} in store; upload it via POST /v1/traces"),
    }
}

/// The one-kernel workload a walked `pattern` names; a 400 when its work
/// exceeds [`MAX_PATTERN_WARP_INSTRS`].
fn pattern_workload(p: &Json, scale: MemScale) -> Result<Workload, ApiError> {
    let num = |name: &str| p.get(name).and_then(Json::as_f64).unwrap_or_default();
    let int = |name: &str| num(name) as u32;
    let kind = match p.get("kind").and_then(Json::as_str) {
        Some("global_sweep") => PatternKind::GlobalSweep {
            passes: int("passes"),
        },
        Some("streaming") => PatternKind::Streaming,
        Some("tiled") => PatternKind::Tiled {
            tile_lines: u64::from(int("tile_lines")),
            reuses: int("reuses"),
        },
        Some("working_set_mix") => {
            let pair = |l: &Json| {
                Some((
                    l.as_arr()?.first()?.as_f64()?,
                    l.as_arr()?.get(1)?.as_f64()?,
                ))
            };
            let levels = p.get("levels").and_then(Json::as_arr).unwrap_or_default();
            PatternKind::WorkingSetMix {
                levels: levels.iter().filter_map(pair).collect(),
            }
        }
        // "pointer_chase": the walk admits no other kind.
        _ => PatternKind::PointerChase,
    };
    let footprint_mb = num("footprint_mb");
    let mut spec = PatternSpec::new(kind, scale.mb_to_model_lines(footprint_mb))
        .mem_ops_per_warp(int("mem_ops_per_warp"))
        .compute_per_mem(num("compute_per_mem"))
        .write_frac(num("write_frac"))
        .divergence(int("divergence") as u8)
        .tail_compute(int("tail_compute"));
    if let Some(hot) = p.get("shared_hot") {
        let of = |name| hot.get(name).and_then(Json::as_f64).unwrap_or_default();
        spec = spec.shared_hot(of("prob"), of("hot_lines") as u64);
    }
    let kernel = Kernel::new("pattern", int("ctas"), int("threads_per_cta"), spec);
    let workload = Workload::new("pattern", u64::from(int("seed")), vec![kernel])
        .with_footprint_mb(footprint_mb);
    match workload.approx_warp_instrs() {
        work if work > MAX_PATTERN_WARP_INSTRS => bad(format!(
            "pattern asks for {work} warp instructions; at most {} are accepted",
            show(MAX_PATTERN_WARP_INSTRS as f64)
        )),
        _ => Ok(workload),
    }
}

/// One FNV-1a digest over every field of every derived [`GpuConfig`] —
/// the config term of the content address. Each field enters as its
/// little-endian bytes (floats through `f64::to_bits`), so the digest is
/// stable across platforms and releases and a changed simulator default
/// changes it. Exhaustive destructuring: adding a config field without
/// folding it in here is a compile error.
fn configs_digest(configs: impl IntoIterator<Item = GpuConfig>) -> u64 {
    /// Bytes one config contributes: 15 `u32` words and 5 `u64` words.
    const CONFIG_BYTES: usize = 15 * 4 + 5 * 8;
    let configs = configs.into_iter();
    let mut bytes = Vec::with_capacity(configs.size_hint().0 * CONFIG_BYTES);
    for c in configs {
        let GpuConfig {
            n_sms,
            sm_clock_ghz,
            warps_per_sm,
            max_threads_per_sm,
            l1_bytes,
            l1_ways,
            l1_mshrs,
            l1_latency,
            line_bytes,
            llc_bytes_total,
            llc_slices,
            llc_ways,
            llc_latency,
            noc_gbs,
            noc_hop_latency,
            dram_gbs_per_mc,
            n_mcs,
            dram_latency,
            dram_banks_per_mc,
            sim_threads: _, // inert field (GpuConfig docs): never part of the key
            mem_scale,
        } = c;
        for word in [
            n_sms,
            warps_per_sm,
            max_threads_per_sm,
            l1_ways,
            l1_mshrs,
            l1_latency,
            line_bytes,
            llc_slices,
            llc_ways,
            llc_latency,
            noc_hop_latency,
            n_mcs,
            dram_latency,
            dram_banks_per_mc,
            mem_scale.divisor(),
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        for word in [
            l1_bytes,
            llc_bytes_total,
            sm_clock_ghz.to_bits(),
            noc_gbs.to_bits(),
            dram_gbs_per_mc.to_bits(),
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::semantic_hash_of;

    fn plan(body: &str) -> Result<Plan, ApiError> {
        parse_request(body.as_bytes(), None)
    }

    #[test]
    fn normalization_fills_defaults_and_sorts_targets() {
        let p = plan(r#"{"workload": "bfs", "targets": [128, 64, 128]}"#).unwrap();
        assert_eq!(p.small, 8);
        assert_eq!(p.large, 16);
        assert_eq!(p.targets, vec![64, 128]);
        assert_eq!(p.ladder, vec![8, 16, 32, 64, 128]);
        let rendered = p.normalized.render();
        assert!(rendered.contains("\"suite\":\"strong\""), "{rendered}");
        assert!(rendered.contains("\"mem_scale\":8"), "{rendered}");
    }

    #[test]
    fn equivalent_requests_share_one_canonical_form() {
        // Explicit defaults, reordered fields, duplicate targets — all
        // the same content address.
        let a = plan(r#"{"workload": "bfs", "target_sms": 128}"#).unwrap();
        let b = plan(
            r#"{"mem_scale": 8, "targets": [128], "scale_models": [8, 16],
                "suite": "strong", "workload": "bfs"}"#,
        )
        .unwrap();
        assert_eq!(a.canonical, b.canonical);
        // A different miniature is a different address.
        let c = plan(r#"{"workload": "bfs", "target_sms": 128, "mem_scale": 16}"#).unwrap();
        assert_ne!(a.canonical, c.canonical);
    }

    #[test]
    fn rejects_unknown_fields_and_bad_shapes() {
        assert!(plan(r#"{"workload": "bfs", "target_sms": 128, "tyop": 1}"#)
            .unwrap_err()
            .message
            .contains("unknown field"));
        assert!(plan(r#"{"workload": "nope", "target_sms": 128}"#)
            .unwrap_err()
            .message
            .contains("unknown benchmark"));
        assert!(plan(r#"{"workload": "bfs"}"#)
            .unwrap_err()
            .message
            .contains("target"));
        assert!(plan(r#"{"workload": "bfs", "target_sms": 100}"#)
            .unwrap_err()
            .message
            .contains("power-of-two"));
        assert!(plan(r#"not json"#).unwrap_err().message.contains("JSON"));
        assert!(plan(
            r#"{"workload": "va", "suite": "weak", "scale_models": [4, 8], "targets": [16]}"#
        )
        .unwrap_err()
        .message
        .contains("[8, 16, 32, 64, 128]"));
        // The larger scale model is capped whatever the path, so the
        // verdict does not depend on which path a body would take.
        for path in ["fast", "full"] {
            let ok = format!(
                r#"{{"workload": "dct", "scale_models": [8, 1024], "target_sms": 2048, "path": "{path}"}}"#
            );
            assert!(plan(&ok).is_ok(), "{path}");
            let err = plan(&format!(r#"{{"workload": "dct", "scale_models": [8, 524288], "target_sms": 1048576, "path": "{path}"}}"#))
                .unwrap_err();
            assert_eq!(err.status, 400);
            assert!(
                err.message.contains("scale_models") && err.message.contains("1024"),
                "{}",
                err.message
            );
        }
        assert!(plan(r#"{"workload": "bfs", "target_sms": 128, "mem_scale": 384}"#).is_ok());
        assert!(
            plan(r#"{"workload": "bfs", "target_sms": 128, "mem_scale": 385}"#)
                .unwrap_err()
                .message
                .contains("1..=384")
        );
        assert!(
            plan(r#"{"workload": "bfs", "pattern": {}, "target_sms": 128}"#)
                .unwrap_err()
                .message
                .contains("not both")
        );
    }

    #[test]
    fn pattern_requests_normalize_and_build_workloads() {
        let p = plan(
            r#"{"pattern": {"kind": "global_sweep", "footprint_mb": 4.0, "passes": 3},
                "target_sms": 64, "scale_models": [8, 16]}"#,
        )
        .unwrap();
        let PlanKind::WithMrc(PlanWorkload::Synthetic(wl)) = &p.kind else {
            panic!("patterns are strong-scaling plans");
        };
        assert_eq!(wl.kernels().len(), 1);
        let rendered = p.normalized.render();
        assert!(rendered.contains("\"passes\":3"), "{rendered}");
        assert!(rendered.contains("\"mem_ops_per_warp\":64"), "{rendered}");
        // Unknown pattern kinds fail loudly.
        assert!(
            plan(r#"{"pattern": {"kind": "zigzag", "footprint_mb": 1.0}, "target_sms": 64}"#)
                .unwrap_err()
                .message
                .contains("unknown pattern kind")
        );
    }

    #[test]
    fn weak_requests_build_per_size_workloads_without_mrc() {
        let p = plan(r#"{"workload": "vaw", "suite": "weak", "target_sms": 128}"#);
        // Use whatever the weak suite actually calls its first benchmark.
        let abbr = weak_suite(MemScale::default())[0].abbr;
        let p = match p {
            Ok(p) => p,
            Err(_) => plan(&format!(
                r#"{{"workload": "{abbr}", "suite": "weak", "target_sms": 128}}"#
            ))
            .unwrap(),
        };
        assert!(matches!(p.kind, PlanKind::PerSize { .. }));
    }

    #[test]
    fn trace_requests_validate_the_reference_and_resolve_via_the_store() {
        // Shape errors surface without touching any store.
        assert!(plan(r#"{"trace_ref": "xyz", "target_sms": 128}"#)
            .unwrap_err()
            .message
            .contains("16 hex digits"));
        assert!(
            plan(r#"{"trace_ref": "0011223344556677", "suite": "weak", "target_sms": 128}"#)
                .unwrap_err()
                .message
                .contains("does not apply")
        );
        assert!(
            plan(r#"{"trace_ref": "0011223344556677", "workload": "bfs", "target_sms": 128}"#)
                .unwrap_err()
                .message
                .contains("not both")
        );

        // A real store resolves the reference to the uploaded content; the
        // normalized form names it by its content address.
        let dir = std::env::temp_dir().join(format!(
            "gsim-serve-parse-trace-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir, StoreConfig::default()).expect("open store");
        let spec = PatternSpec::new(PatternKind::Streaming, 512);
        let wl = Workload::new("t", 9, vec![Kernel::new("k", 8, 128, spec)]);
        let mut bytes = Vec::new();
        gsim_trace::write_trace(&wl, &mut bytes).expect("write trace");
        let (meta, _) = store.ingest_bytes(&bytes).expect("ingest");

        let body = format!(
            r#"{{"trace_ref": "{}", "target_sms": 128}}"#,
            meta.trace_ref
        );
        let p = parse_request(body.as_bytes(), Some(&store)).expect("trace plan");
        let PlanKind::Stored(trace_ref) = &p.kind else {
            panic!("a trace_ref names a stored trace");
        };
        let traced = store.load(trace_ref).expect("the catalog's trace loads");
        assert_eq!(semantic_hash_of(&traced), semantic_hash_of(&wl));
        let rendered = p.normalized.render();
        assert!(rendered.contains(&format!("\"trace_ref\":\"{}\"", meta.trace_ref)));
        assert!(rendered.contains("\"suite\":\"trace\""), "{rendered}");

        // An unknown (but well-formed) reference is a 404.
        let miss = parse_request(
            br#"{"trace_ref": "00000000000000aa", "target_sms": 128}"#,
            Some(&store),
        )
        .unwrap_err();
        assert_eq!(miss.status, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn path_field_addresses_but_does_not_echo() {
        let auto = plan(r#"{"workload": "bfs", "target_sms": 128}"#).unwrap();
        assert_eq!(auto.path, PathMode::Auto);
        assert!(auto.canonical.ends_with("|path=auto"), "{}", auto.canonical);
        let full = plan(r#"{"workload": "bfs", "target_sms": 128, "path": "full"}"#).unwrap();
        assert_eq!(full.path, PathMode::Full);
        // Different address (what is computed differs)…
        assert_ne!(auto.canonical, full.canonical);
        // …but identical echo: an escalated auto body must be
        // byte-identical to a forced-full one.
        assert_eq!(auto.normalized.render(), full.normalized.render());
        assert!(!auto.normalized.render().contains("path"));

        assert!(
            plan(r#"{"workload": "bfs", "target_sms": 128, "path": "warp"}"#)
                .unwrap_err()
                .message
                .contains("path must be"),
        );
        let weak = weak_suite(MemScale::default())[0].abbr;
        let err = plan(&format!(
            r#"{{"workload": "{weak}", "suite": "weak", "target_sms": 128, "path": "fast"}}"#
        ))
        .unwrap_err();
        assert!(err.message.contains("miss-rate curve"), "{}", err.message);
    }

    #[test]
    fn body_paths_derive_from_schema_tags() {
        assert_eq!(
            path_of_body("{\"schema\":\"gsim-serve-predict-v1\",…"),
            "full"
        );
        assert_eq!(
            path_of_body("{\"schema\":\"gsim-serve-predict-fast-v1\",…"),
            "fast"
        );
    }

    #[test]
    fn config_digest_sees_every_field_and_the_scale() {
        let base = GpuConfig::paper_target(8, MemScale::default());
        let digest = |cfg: &GpuConfig| configs_digest([cfg.clone()]);
        let a = digest(&base);
        // Every field of the simulated machine moves the digest.
        type Perturb = fn(&mut GpuConfig);
        let perturbations: [(&str, Perturb); 20] = [
            ("n_sms", |c| c.n_sms += 1),
            ("sm_clock_ghz", |c| c.sm_clock_ghz *= 1.5),
            ("warps_per_sm", |c| c.warps_per_sm += 1),
            ("max_threads_per_sm", |c| c.max_threads_per_sm += 1),
            ("l1_bytes", |c| c.l1_bytes += 1),
            ("l1_ways", |c| c.l1_ways += 1),
            ("l1_mshrs", |c| c.l1_mshrs += 1),
            ("l1_latency", |c| c.l1_latency += 1),
            ("line_bytes", |c| c.line_bytes += 1),
            ("llc_bytes_total", |c| c.llc_bytes_total += 1),
            ("llc_slices", |c| c.llc_slices += 1),
            ("llc_ways", |c| c.llc_ways += 1),
            ("llc_latency", |c| c.llc_latency += 1),
            ("noc_gbs", |c| c.noc_gbs *= 1.5),
            ("noc_hop_latency", |c| c.noc_hop_latency += 1),
            ("dram_gbs_per_mc", |c| c.dram_gbs_per_mc *= 1.5),
            ("n_mcs", |c| c.n_mcs += 1),
            ("dram_latency", |c| c.dram_latency += 1),
            ("dram_banks_per_mc", |c| c.dram_banks_per_mc += 1),
            ("mem_scale", |c| c.mem_scale = MemScale::new(16)),
        ];
        for (field, perturb) in perturbations {
            let mut cfg = base.clone();
            perturb(&mut cfg);
            assert_ne!(a, digest(&cfg), "{field} does not reach the digest");
        }
        // A different miniature derives a different machine.
        assert_ne!(a, digest(&GpuConfig::paper_target(8, MemScale::new(16))));
        // Every rung counts, in ladder order.
        let b = GpuConfig::paper_target(16, MemScale::default());
        assert_ne!(configs_digest([base.clone(), b.clone()]), a);
        assert_ne!(
            configs_digest([base.clone(), b.clone()]),
            configs_digest([b, base.clone()])
        );
        // The inert thread-count field must NOT affect the address.
        let mut cfg = base.clone();
        cfg.sim_threads = 7;
        assert_eq!(a, digest(&cfg));

        // The canonical string ends in the digest and the path.
        let p = plan(r#"{"workload": "bfs", "targets": [32], "path": "fast"}"#).unwrap();
        let ladder = [8, 16, 32].map(|s| GpuConfig::paper_target(s, MemScale::default()));
        let suffix = format!("|configs={:016x}|path=fast", configs_digest(ladder));
        assert!(p.canonical.ends_with(&suffix), "{}", p.canonical);
        assert_eq!(p.canonical.matches('|').count(), 2, "{}", p.canonical);
    }

    #[test]
    fn a_trace_predict_hit_does_not_read_the_blob() {
        let svc = PredictService::new(ServeConfig::default(), ShutdownFlag::new()).unwrap();
        let plan = gsim_faults::FaultPlan::parse("store_read_delay_p=1,store_read_delay_ms=0")
            .expect("plan");
        let faults: &'static gsim_faults::Injector =
            Box::leak(Box::new(gsim_faults::Injector::new(plan)));
        svc.trace_store().set_faults(Some(faults));
        let post = |path: &str, body: Vec<u8>| {
            svc.handle(&Request {
                method: "POST".into(),
                path: path.into(),
                headers: Vec::new(),
                body,
            })
        };
        let spec = PatternSpec::new(PatternKind::Streaming, 512);
        let wl = Workload::new("t", 9, vec![Kernel::new("k", 8, 128, spec)]);
        let mut bytes = Vec::new();
        gsim_trace::write_trace(&wl, &mut bytes).expect("write trace");
        let (meta, _) = svc.trace_store().ingest_bytes(&bytes).expect("ingest");

        let body = format!(
            r#"{{"trace_ref": "{}", "target_sms": 32, "path": "fast"}}"#,
            meta.trace_ref
        );
        let first = post("/v1/predict", body.clone().into_bytes());
        let second = post("/v1/predict", body.clone().into_bytes());
        let third = post("/v1/predict", body.into_bytes());
        assert_eq!((first.status, second.status, third.status), (200, 200, 200));
        assert_eq!(first.body, second.body);
        assert_eq!(first.body, third.body);
        assert_eq!(header(&second, "X-Gsim-Cache"), Some("hit"));
        assert_eq!(header(&third, "X-Gsim-Cache"), Some("hit"));
        // One read, by the miss's flight leader; the hits only consulted
        // the catalog, never the bytes index. Every request counts as a
        // trace predict.
        assert_eq!(faults.injected(), vec![("store.read_delay", 1)]);
        assert_eq!(svc.metrics().predict_from_trace.load(Ordering::Relaxed), 3);
        assert_eq!(svc.cache.indexed_bodies(), 0);
    }

    // --- the bytes index -------------------------------------------------

    /// A memory-bound pattern the fast path answers in one small
    /// collection.
    const CHEAP: &str = r#"{"pattern": {"kind": "streaming", "footprint_mb": 1.0, "ctas": 8},
        "targets": [32], "path": "fast"}"#;

    fn predict(svc: &PredictService, body: &str) -> Response {
        svc.handle(&Request {
            method: "POST".into(),
            path: "/v1/predict".into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
    }

    fn header<'r>(resp: &'r Response, name: &str) -> Option<&'r str> {
        resp.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The response's headers but `X-Gsim-Cache`.
    fn headers_but_cache(resp: &Response) -> Vec<&(String, String)> {
        resp.headers
            .iter()
            .filter(|(k, _)| k != "X-Gsim-Cache")
            .collect()
    }

    fn count(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    #[test]
    fn a_repeat_is_answered_by_its_bytes_and_a_rewrite_by_its_key() {
        let svc = PredictService::new(ServeConfig::default(), ShutdownFlag::new()).unwrap();
        let rewritten = r#"{"targets":[32],"path":"fast",
            "pattern":{"ctas":8,"footprint_mb":1,"kind":"streaming"}}"#;
        let first = predict(&svc, CHEAP);
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        assert_eq!(svc.cache.indexed_bodies(), 1, "the miss indexes its bytes");
        assert!(svc.cache.get_by_body(CHEAP.as_bytes()).is_some());
        // The same bytes: found by the index, which does not grow.
        let repeat = predict(&svc, CHEAP);
        assert_eq!(svc.cache.indexed_bodies(), 1);
        // Other bytes, same content: found by the content key, and then
        // indexed; their own repeat goes through the index.
        let rewrite = predict(&svc, rewritten);
        assert_eq!(svc.cache.indexed_bodies(), 2);
        let rewrite_repeat = predict(&svc, rewritten);
        assert_eq!(svc.cache.indexed_bodies(), 2);
        for hit in [&repeat, &rewrite, &rewrite_repeat] {
            assert_eq!(hit.status, 200);
            assert_eq!(hit.body, first.body);
            assert_eq!(header(hit, "X-Gsim-Cache"), Some("hit"));
            assert_eq!(headers_but_cache(hit), headers_but_cache(&first));
        }
        let m = svc.metrics();
        assert_eq!(count(&m.computations), 1);
        assert_eq!(count(&m.cache_misses), 1);
        assert_eq!(count(&m.cache_hits), 3);
    }

    #[test]
    fn an_invalid_body_is_a_400_every_time() {
        let svc = PredictService::new(ServeConfig::default(), ShutdownFlag::new()).unwrap();
        assert_eq!(predict(&svc, CHEAP).status, 200);
        // A valid body with a tail, and a misspelt field: neither is
        // ever indexed, however often it comes.
        for bad in [format!("{CHEAP} x"), CHEAP.replace("ctas", "ctaz")] {
            let once = predict(&svc, &bad);
            let twice = predict(&svc, &bad);
            assert_eq!((once.status, twice.status), (400, 400), "{bad}");
            assert_eq!(once.body, twice.body);
        }
        assert_eq!(svc.cache.indexed_bodies(), 1);
        assert_eq!(count(&svc.metrics().predict_errors), 4);
        assert_eq!(count(&svc.metrics().cache_hits), 0);
    }

    #[test]
    fn the_bytes_index_holds_at_most_the_cache_capacity() {
        let svc = PredictService::new(ServeConfig::default(), ShutdownFlag::new()).unwrap();
        // Distinct bytes, one content: leading spaces.
        let body = |i: usize| format!("{}{CHEAP}", " ".repeat(i));
        let first = predict(&svc, &body(0));
        for i in 1..CACHE_CAPACITY + 10 {
            let hit = predict(&svc, &body(i));
            assert_eq!(hit.body, first.body);
        }
        assert_eq!(svc.cache.indexed_bodies(), CACHE_CAPACITY);
        // The least recently used bodies went; the newest stayed.
        assert!(svc.cache.get_by_body(body(0).as_bytes()).is_none());
        assert!(svc
            .cache
            .get_by_body(body(CACHE_CAPACITY + 9).as_bytes())
            .is_some());
        assert_eq!(count(&svc.metrics().computations), 1);
    }

    #[test]
    fn after_a_restart_a_repeat_is_a_hit_through_the_content_key() {
        let dir =
            std::env::temp_dir().join(format!("gsim-serve-bytes-index-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let first = {
            let svc = PredictService::new(cfg.clone(), ShutdownFlag::new()).unwrap();
            predict(&svc, CHEAP)
        };
        assert_eq!(header(&first, "X-Gsim-Cache"), Some("miss"));
        let svc = PredictService::new(cfg, ShutdownFlag::new()).unwrap();
        assert_eq!(
            svc.cache.indexed_bodies(),
            0,
            "the index is never persisted"
        );
        let again = predict(&svc, CHEAP);
        assert_eq!(header(&again, "X-Gsim-Cache"), Some("hit"));
        assert_eq!(again.body, first.body);
        assert_eq!(headers_but_cache(&again), headers_but_cache(&first));
        assert_eq!(svc.cache.indexed_bodies(), 1);
        assert_eq!(count(&svc.metrics().computations), 0);
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_a_derived_trace_store_is_removed_on_drop() {
        // Two services without directories get one store each, and
        // dropping one leaves the other's in place.
        let a = PredictService::new(ServeConfig::default(), ShutdownFlag::new()).unwrap();
        let b = PredictService::new(ServeConfig::default(), ShutdownFlag::new()).unwrap();
        let (dir_a, dir_b) = (
            a.scratch_store.clone().unwrap(),
            b.scratch_store.clone().unwrap(),
        );
        assert_ne!(dir_a, dir_b);
        assert!(dir_a.is_dir() && dir_b.is_dir());
        drop(a);
        assert!(!dir_a.exists());
        assert!(dir_b.is_dir());
        drop(b);
        assert!(!dir_b.exists());

        // A configured store, or one derived under a configured cache
        // dir, belongs to the caller and survives the service.
        let root = std::env::temp_dir().join(format!("gsim-serve-kept-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for cfg in [
            ServeConfig {
                trace_store_dir: Some(root.join("store")),
                ..ServeConfig::default()
            },
            ServeConfig {
                cache_dir: Some(root.join("cache")),
                ..ServeConfig::default()
            },
        ] {
            let svc = PredictService::new(cfg, ShutdownFlag::new()).unwrap();
            assert!(svc.scratch_store.is_none());
            drop(svc);
        }
        assert!(root.join("store").is_dir());
        assert!(root.join("cache").join("tracestore").is_dir());
        let _ = std::fs::remove_dir_all(&root);
    }

    // --- the request schema: README, satellites, fuzz slice -------------

    /// README's request table, rendered from the schema.
    fn readme_table() -> String {
        fn value(ty: Ty) -> String {
            let list = |o: &[&str], q: bool| {
                let fmt = |x: &&str| {
                    if q {
                        format!("`{x:?}`")
                    } else {
                        format!("`{x}`")
                    }
                };
                o.iter().map(fmt).collect::<Vec<_>>().join(", ")
            };
            let (lo_hi, what) = match ty {
                Ty::Int(lo, hi, b) => ((f64::from(lo), f64::from(hi), b), "integer"),
                Ty::Num(lo, hi, b) => ((lo, hi, b), "number"),
                Ty::Str(what) => return what.to_string(),
                Ty::OneOf(o) => return list(o, true),
                Ty::Kind(o) => return list(o, false),
                Ty::Pair => return format!("two integers, the larger ≤ {MAX_SCALE_MODEL_SMS}"),
                Ty::Ints => return "non-empty array of integers".into(),
                Ty::Levels => return "non-empty array of positive `[weight, fraction]`".into(),
                Ty::Obj(_) | Ty::Later(_) => return "object".into(),
            };
            let (lo, hi, bound) = lo_hi;
            let int = what == "integer";
            let (l, h) = (show(lo), show(hi));
            match bound {
                Bound::Clamp if int && hi == f64::from(u32::MAX) && lo == 0.0 => what.into(),
                Bound::Clamp if int && hi == f64::from(u32::MAX) => {
                    format!("{what}, below {l} reads as {l}")
                }
                Bound::Clamp if int => format!("{what}, clamped to {l}..={h}"),
                Bound::Clamp => format!("{what}, clamped to [{l}, {h}]"),
                Bound::Cap => format!("{what} ≤ {h}, below {l} reads as {l}"),
                Bound::Reject if int => format!("{what} in {l}..={h}"),
                Bound::Reject => format!("{what} in ({l}, {h}]"),
            }
        }
        fn rows(out: &mut String, prefix: &str, table: &[Field]) {
            for f in table {
                let name = format!("{prefix}{}", f.name);
                let only = f.only.map(|k| format!(" (`{k}`)")).unwrap_or_default();
                let absent = match f.absent {
                    Absent::Required(_) => "required".to_string(),
                    Absent::Is(text) => format!("`{text}`"),
                    Absent::Optional => "—".to_string(),
                };
                let echo = if f.echo.is_some() { "yes" } else { "no" };
                out.push_str(&format!(
                    "| `{name}`{only} | {} | {absent} | {echo} |\n",
                    value(f.ty)
                ));
                if let Ty::Obj(sub) | Ty::Later(sub) = f.ty {
                    rows(out, &format!("{name}."), sub);
                }
            }
        }
        let mut out = String::from("| field | value | when absent | echoed |\n|---|---|---|---|\n");
        rows(&mut out, "", REQUEST);
        out
    }

    #[test]
    fn readme_table_is_the_schema() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md");
        let table = readme_table();
        assert!(
            readme.contains(&table),
            "README's request table drifted from the schema; it reads:\n{table}"
        );
    }

    #[test]
    fn pattern_work_is_bounded() {
        // Each field in range, the product 1.6·10^12 warp instructions.
        let hostile = r#"{"pattern": {"kind": "global_sweep", "footprint_mb": 1048576, "passes": 64}, "target_sms": 32, "mem_scale": 1}"#;
        let err = plan(hostile).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(
            err.message.contains("pattern") && err.message.contains("2^33"),
            "{}",
            err.message
        );
        // Past u16::MAX compute instructions per memory op the stream no
        // longer changes, so the address must not either.
        let cpm = |c: &str| {
            plan(&format!(
                r#"{{"pattern": {{"kind": "streaming", "footprint_mb": 1, "ctas": 1, "compute_per_mem": {c}}}, "target_sms": 32}}"#
            ))
        };
        assert!(cpm("65535").is_ok());
        let err = cpm("1e300").unwrap_err();
        assert!(
            err.message
                .contains("pattern.compute_per_mem must be at most 65535"),
            "{}",
            err.message
        );
    }

    use gsim_rng::Rng64;

    /// An object's members, in the order a body spells them.
    type Members = Vec<(String, Json)>;

    fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
        items[rng.gen_range(0, items.len() as u64) as usize]
    }

    /// A value of `ty` inside its bound, small enough to build in
    /// microseconds.
    fn draw(rng: &mut Rng64, ty: Ty) -> Json {
        let quarter = |rng: &mut Rng64, lo: f64, hi: f64| {
            let steps = ((hi - lo).min(8.0) / 0.25) as u64;
            lo + 0.25 * rng.gen_range_inclusive(1, steps) as f64
        };
        match ty {
            Ty::Int(lo, hi, _) => {
                Json::from(lo + rng.gen_range_inclusive(0, u64::from((hi - lo).min(64))) as u32)
            }
            Ty::Num(lo, hi, _) => Json::from(quarter(rng, lo, hi)),
            Ty::OneOf(o) | Ty::Kind(o) => Json::from(pick(rng, o)),
            Ty::Levels => Json::Arr(
                (0..rng.gen_range_inclusive(1, 3))
                    .map(|_| Json::from(vec![quarter(rng, 0.0, 4.0), quarter(rng, 0.0, 1.0)]))
                    .collect(),
            ),
            Ty::Obj(t) | Ty::Later(t) => Json::Obj(draw_object(rng, t)),
            Ty::Str(_) | Ty::Pair | Ty::Ints => unreachable!("drawn by the cross-field rules"),
        }
    }

    /// An object drawn from `table`: every required field, the rest at
    /// even odds.
    fn draw_object(rng: &mut Rng64, table: &[Field]) -> Members {
        let mut kind = None;
        let mut out = Members::new();
        for f in table {
            if f.only.is_some() && f.only != kind {
                continue;
            }
            if matches!(f.absent, Absent::Required(_)) || rng.gen_bool(0.5) {
                let v = draw(rng, f.ty);
                if let Ty::Kind(kinds) = f.ty {
                    kind = kinds.iter().copied().find(|k| Some(*k) == v.as_str());
                }
                out.push((f.name.to_string(), v));
            }
        }
        out
    }

    /// A valid body: the cross-field rules by hand, every field value
    /// from the tables.
    fn valid_body(rng: &mut Rng64, trace_ref: &str, strong: &[&str], weak: &[&str]) -> Members {
        let mut m = Members::new();
        let mut put = |k: &str, v: Json| m.push((k.to_string(), v));
        let source = rng.gen_range(0, 4);
        let (small, large) = if source == 1 {
            pick(rng, &[(8, 16), (8, 32), (16, 32), (16, 64), (32, 128)])
        } else {
            pick(rng, &[(8, 16), (1, 2), (4, 16), (16, 32), (2, 8)])
        };
        if (small, large) != (8, 16) || rng.gen_bool(0.3) {
            put("scale_models", Json::from(vec![small, large]));
        }
        let mut targets: Vec<u32> = (1..=3)
            .map(|k| large << k)
            .filter(|_| rng.gen_bool(0.6))
            .collect();
        if targets.is_empty() {
            targets.push(large * 2);
        }
        if targets.len() == 1 && rng.gen_bool(0.5) {
            put("target_sms", Json::from(targets[0]));
        } else {
            put("targets", Json::from(targets));
        }
        if rng.gen_bool(0.4) {
            put("mem_scale", Json::from(rng.gen_range_inclusive(1, 384)));
        }
        if rng.gen_bool(0.5) {
            let paths: &[&str] = if source == 1 {
                &["auto", "full"]
            } else {
                &["auto", "fast", "full"]
            };
            put("path", Json::from(pick(rng, paths)));
        }
        match source {
            0 => {
                put("workload", Json::from(pick(rng, strong)));
                if rng.gen_bool(0.3) {
                    put("suite", Json::from("strong"));
                }
            }
            1 => {
                put("workload", Json::from(pick(rng, weak)));
                put("suite", Json::from("weak"));
            }
            2 => put("pattern", Json::Obj(draw_object(rng, PATTERN))),
            _ => put("trace_ref", Json::from(trace_ref)),
        }
        m
    }

    /// `m` with the member at `at` (a path through nested objects) set to
    /// `v`, appended when absent, or removed for `None`.
    fn edit(m: &Members, at: &[&str], v: Option<Json>) -> Members {
        let mut m = m.clone();
        let i = m.iter().position(|(k, _)| k == at[0]);
        match (at, i, v) {
            ([_], Some(i), Some(v)) => m[i].1 = v,
            ([_], Some(i), None) => drop(m.remove(i)),
            ([k], None, Some(v)) => m.push((k.to_string(), v)),
            ([_, rest @ ..], Some(i), v) if !rest.is_empty() => {
                if let Json::Obj(inner) = &m[i].1 {
                    m[i].1 = Json::Obj(edit(inner, rest, v));
                }
            }
            _ => {}
        }
        m
    }

    /// Every declared field of `m`, as (path, declaration).
    fn fields_of(m: &Members) -> Vec<(Vec<&'static str>, &'static Field)> {
        fn walk_into(
            m: &Members,
            t: &'static [Field],
            p: &[&'static str],
            out: &mut Vec<(Vec<&'static str>, &'static Field)>,
        ) {
            for (k, v) in m {
                let Some(f) = t.iter().find(|f| f.name == k) else {
                    continue;
                };
                let path = [p, &[f.name]].concat();
                if let (Ty::Obj(sub) | Ty::Later(sub), Json::Obj(inner)) = (f.ty, v) {
                    walk_into(inner, sub, &path, out);
                }
                out.push((path, f));
            }
        }
        let mut out = Vec::new();
        walk_into(m, REQUEST, &[], &mut out);
        out
    }

    fn render(m: &Members) -> Vec<u8> {
        Json::Obj(m.clone()).render().into_bytes()
    }

    /// What a generated body must give.
    #[derive(Debug)]
    enum Expect {
        /// Success, with the canonical string of every other body of
        /// this class.
        Same(usize),
        /// Success, with another canonical string than this class's.
        Differs(usize),
        /// This status, with a message naming this text.
        Fails(u16, String),
    }

    /// The schema-driven corpus: `n` valid bodies, each with its
    /// equivalent rewrites, its clamped twins, one distinct in-range
    /// variant and its one-field mutations.
    fn schema_cases(seed: u64, n: usize, trace_ref: &str) -> Vec<(Vec<u8>, Expect)> {
        let strong: Vec<&str> = strong_suite(MemScale::default())
            .iter()
            .map(|b| b.abbr)
            .collect();
        let weak: Vec<&str> = weak_suite(MemScale::default())
            .iter()
            .map(|b| b.abbr)
            .collect();
        let mut rng = Rng64::seed_from_u64(seed);
        let mut cases = Vec::new();
        let mut class = 0;
        let fails = |body: Members, status: u16, names: &str| {
            (render(&body), Expect::Fails(status, names.to_string()))
        };
        for _ in 0..n {
            let m = valid_body(&mut rng, trace_ref, &strong, &weak);
            let has = |k: &str| m.iter().any(|(n, _)| n == k);
            let pattern = m
                .iter()
                .find(|(k, _)| k == "pattern")
                .map(|(_, p)| p.clone());
            let kind = pattern
                .as_ref()
                .and_then(|p| p.get("kind")?.as_str().map(str::to_string));

            // Equivalent rewrites. Reordered fields, top level and pattern:
            let mut same = vec![m.clone()];
            let mut shuffled = m.clone();
            shuffle(&mut rng, &mut shuffled);
            if let Some((_, Json::Obj(inner))) = shuffled.iter_mut().find(|(k, _)| k == "pattern") {
                shuffle(&mut rng, inner);
            }
            same.push(shuffled);
            // every default spelt out, from the tables:
            let mut explicit = m.clone();
            for f in REQUEST {
                if let (Absent::Is(text), false) = (f.absent, has(f.name)) {
                    explicit = edit(&explicit, &[f.name], gsim_json::parse(text).ok());
                }
            }
            for f in PATTERN
                .iter()
                .filter(|f| f.only.is_none() || f.only == kind.as_deref())
            {
                if let (Absent::Is(text), Some(p)) = (f.absent, &pattern) {
                    if p.get(f.name).is_none() {
                        explicit =
                            edit(&explicit, &["pattern", f.name], gsim_json::parse(text).ok());
                    }
                }
            }
            same.push(explicit);
            // targets duplicated and reordered, or spelt the other way:
            match m.iter().find(|(k, _)| k.starts_with("target")) {
                Some((k, t)) if k == "target_sms" => {
                    let both = Json::Arr(vec![t.clone(), t.clone()]);
                    same.push(edit(
                        &edit(&m, &["target_sms"], None),
                        &["targets"],
                        Some(both),
                    ));
                }
                Some((_, Json::Arr(ts))) => {
                    let mut ts = ts.clone();
                    ts.reverse();
                    ts.push(ts[0].clone());
                    same.push(edit(&m, &["targets"], Some(Json::Arr(ts))));
                }
                _ => {}
            }
            // a trace ref in either case:
            if has("trace_ref") {
                let upper = Json::from(trace_ref.to_ascii_uppercase());
                same.push(edit(&m, &["trace_ref"], Some(upper)));
            }
            let base = class;
            cases.extend(same.iter().map(|body| (render(body), Expect::Same(base))));
            class += 1;

            // Values past a clamping bound read as the bound.
            for (path, f) in fields_of(&m) {
                let (lo, hi, bound, int) = match f.ty {
                    Ty::Int(lo, hi, b) => (f64::from(lo), f64::from(hi), b, true),
                    Ty::Num(lo, hi, b) => (lo, hi, b, false),
                    _ => continue,
                };
                let mut twins = Vec::new();
                if bound != Bound::Reject && (!int || lo >= 1.0) {
                    twins.push((lo, if int { 0.0 } else { lo - 0.5 }));
                }
                if bound == Bound::Clamp && hi < f64::from(u32::MAX) {
                    twins.push((hi, hi + if int { 8.0 } else { 0.5 }));
                }
                for (edge, past) in twins {
                    for v in [edge, past] {
                        cases.push((
                            render(&edit(&m, &path, Some(Json::from(v)))),
                            Expect::Same(class),
                        ));
                    }
                    class += 1;
                }
            }

            // A distinct in-range value is a distinct address.
            let numeric: Vec<_> = fields_of(&m)
                .into_iter()
                .filter(|(_, f)| {
                    matches!(f.ty, Ty::Int(..) | Ty::Num(..)) && f.name != "target_sms"
                })
                .collect();
            if !numeric.is_empty() {
                let (path, f) = &numeric[rng.gen_range(0, numeric.len() as u64) as usize];
                let at = At("request", f.name);
                let current = path[1..].iter().fold(
                    m.iter().find(|(k, _)| k == path[0]).map(|(_, v)| v),
                    |v, k| v?.get(k),
                );
                let current = current.map(|v| read(v, f.ty, at).ok());
                for _ in 0..8 {
                    let v = draw(&mut rng, f.ty);
                    if current != Some(read(&v, f.ty, at).ok()) {
                        cases.push((render(&edit(&m, path, Some(v))), Expect::Differs(base)));
                        break;
                    }
                }
            }

            // One-field mutations: a wrong type, a value past a
            // rejecting bound, a missing required field.
            for (path, f) in fields_of(&m) {
                let wrong = match f.ty {
                    Ty::Str(_) | Ty::OneOf(_) | Ty::Kind(_) => Json::from(7.0),
                    _ => Json::from("x"),
                };
                cases.push(fails(edit(&m, &path, Some(wrong)), 400, f.name));
                let past: Vec<Json> = match f.ty {
                    Ty::Int(lo, hi, b) => [
                        (b != Bound::Clamp).then(|| Json::from(f64::from(hi) + 1.0)),
                        (b == Bound::Reject && lo > 0).then(|| Json::from(0.0)),
                    ]
                    .into_iter()
                    .flatten()
                    .collect(),
                    Ty::Num(lo, hi, b) if b != Bound::Clamp => {
                        let below = (b == Bound::Reject).then(|| Json::from(lo));
                        [Some(Json::from(hi * 2.0)), below]
                            .into_iter()
                            .flatten()
                            .collect()
                    }
                    Ty::OneOf(_) | Ty::Kind(_) => vec![Json::from("bogus")],
                    _ => Vec::new(),
                };
                for v in past {
                    cases.push(fails(edit(&m, &path, Some(v)), 400, f.name));
                }
                if let Absent::Required(_) = f.absent {
                    cases.push(fails(edit(&m, &path, None), 400, f.name));
                }
            }
            // An unknown field in each object, and a field of another
            // pattern kind.
            let one = Some(Json::from(1.0));
            cases.push(fails(edit(&m, &["tyop"], one.clone()), 400, "tyop"));
            if let Some(p) = &pattern {
                cases.push(fails(
                    edit(&m, &["pattern", "tyop"], one.clone()),
                    400,
                    "tyop",
                ));
                if p.get("shared_hot").is_some() {
                    let at = ["pattern", "shared_hot", "tyop"];
                    cases.push(fails(edit(&m, &at, one.clone()), 400, "tyop"));
                }
                if kind.as_deref() != Some("global_sweep") {
                    cases.push(fails(
                        edit(&m, &["pattern", "passes"], one.clone()),
                        400,
                        "passes",
                    ));
                }
            }
            // Exclusive pairs: neither, or both.
            let source = ["workload", "pattern", "trace_ref"]
                .into_iter()
                .find(|k| has(k))
                .expect("a valid body names its workload");
            cases.push(fails(edit(&m, &[source], None), 400, "workload"));
            let (other, v) = match source {
                "workload" => ("trace_ref", Json::from(trace_ref)),
                _ => ("workload", Json::from("bfs")),
            };
            cases.push(fails(edit(&m, &[other], Some(v)), 400, "workload"));
            if source != "workload" {
                cases.push(fails(
                    edit(&m, &["suite"], Some(Json::from("strong"))),
                    400,
                    "suite",
                ));
            }
            // A larger scale model past its cap.
            let past_cap = Json::from(vec![8, MAX_SCALE_MODEL_SMS * 2]);
            cases.push(fails(
                edit(&m, &["scale_models"], Some(past_cap)),
                400,
                "scale_models",
            ));
            let (given, other, v) = match has("targets") {
                true => ("targets", "target_sms", Json::from(1024.0)),
                false => ("target_sms", "targets", Json::from(vec![1024u32])),
            };
            cases.push(fails(edit(&m, &[given], None), 400, "target_sms"));
            cases.push(fails(edit(&m, &[other], Some(v)), 400, "target_sms"));
            // A well-formed reference the store does not hold.
            if source == "trace_ref" {
                let absent = "00000000000000aa";
                cases.push(fails(
                    edit(&m, &["trace_ref"], Some(Json::from(absent))),
                    404,
                    absent,
                ));
            }
        }
        cases
    }

    fn shuffle(rng: &mut Rng64, members: &mut Members) {
        for i in (1..members.len()).rev() {
            members.swap(i, rng.gen_range_inclusive(0, i as u64) as usize);
        }
    }

    /// A store holding one trace, and its ref.
    fn one_trace_store(tag: &str) -> (TraceStore, String, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("gsim-serve-fuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir, StoreConfig::default()).expect("open store");
        let spec = PatternSpec::new(PatternKind::Streaming, 512);
        let wl = Workload::new("t", 9, vec![Kernel::new("k", 8, 128, spec)]);
        let mut bytes = Vec::new();
        gsim_trace::write_trace(&wl, &mut bytes).expect("write trace");
        let (meta, _) = store.ingest_bytes(&bytes).expect("ingest");
        (store, meta.trace_ref, dir)
    }

    #[test]
    fn fuzz_schema_bodies_keep_their_address_and_mutations_name_their_field() {
        let (store, trace_ref, dir) = one_trace_store("schema");
        let cases = schema_cases(0x5eed_0001, 300, &trace_ref);
        let mut canonical: Vec<String> = Vec::new();
        for (body, expect) in &cases {
            let text = String::from_utf8_lossy(body);
            let got = parse_request(body, Some(&store));
            match (expect, got) {
                (Expect::Same(class), Ok(plan)) => match canonical.get(*class) {
                    Some(c) => assert_eq!(c, &plan.canonical, "{text}"),
                    None => canonical.push(plan.canonical),
                },
                (Expect::Differs(class), Ok(plan)) => {
                    assert_ne!(canonical[*class], plan.canonical, "{text}");
                }
                (Expect::Fails(status, names), Err(e)) => {
                    assert_eq!(e.status, *status, "{text}: {}", e.message);
                    assert!(
                        e.message.contains(names.as_str()),
                        "{text}: {} names no {names}",
                        e.message
                    );
                }
                (expect, got) => panic!(
                    "{text}: expected {expect:?}, got {:?}",
                    got.map(|p| p.canonical)
                ),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_hostile_bytes_are_400s() {
        let (store, trace_ref, dir) = one_trace_store("hostile");
        let mut rng = Rng64::seed_from_u64(0x5eed_0002);
        let mut bodies: Vec<Vec<u8>> = Vec::new();
        for _ in 0..200 {
            let body = render(&valid_body(&mut rng, &trace_ref, &["bfs"], &["bfs"]));
            // A proper prefix of an object is never one.
            bodies.push(body[..rng.gen_range(0, body.len() as u64) as usize].to_vec());
            // A byte that is not UTF-8.
            let mut bad = body.clone();
            bad.insert(rng.gen_range(0, body.len() as u64) as usize, 0xff);
            bodies.push(bad);
            // Garbage.
            bodies.push(
                (0..rng.gen_range(0, 96))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
            );
        }
        for depth in [64, 65, 1_000, 60_000] {
            bodies.push(format!("{}{}", "[".repeat(depth), "]".repeat(depth)).into_bytes());
            bodies.push(
                format!(
                    r#"{{"workload": {}"bfs"{}, "target_sms": 32}}"#,
                    "[".repeat(depth),
                    "]".repeat(depth)
                )
                .into_bytes(),
            );
        }
        let pad = "a".repeat(MAX_PREDICT_BYTES);
        bodies
            .push(format!(r#"{{"workload": "bfs", "target_sms": 32, "x": "{pad}"}}"#).into_bytes());
        for body in &bodies {
            let err = parse_request(body, Some(&store))
                .err()
                .unwrap_or_else(|| panic!("{} parsed", String::from_utf8_lossy(body)));
            assert_eq!(err.status, 400, "{}", err.message);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
