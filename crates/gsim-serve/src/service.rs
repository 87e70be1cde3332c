//! The prediction service: request normalization, content addressing,
//! single-flight computation on the runner pool, and the HTTP router.
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
//! `POST /v1/traces` ingests a GSTR trace (format v1 or v2) into a
//! [`gsim_tracestore::TraceStore`]; the returned `ref` is the trace's
//! *semantic hash* — a content address over the decoded instruction
//! streams, identical for any encoding of the same workload. A predict
//! request may then name `trace_ref` instead of a workload or pattern.
//! A full-path trace predict runs exactly the two scale models plus the
//! functional MRC replay, and its prediction equals its synthetic twin's
//! bit for bit.
//!
//! # The staged fast path
//!
//! A predict request may carry `"path": "auto" | "fast" | "full"`
//! (default `auto`). Unless forced onto the full path, the service runs
//! the staged **collect → fit → predict** pipeline from
//! [`gsim_core::plan`]: a sampled Stage-1 collection — one streaming
//! pass on the request's own thread, no runner jobs — measures the
//! miss-rate curve and the workload's compute intensity in about a
//! millisecond; a memory-bound workload (measured pressure at or above
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
//! The result cache is the only cache: a miss always does its own work —
//! a collection, or two timing simulations plus the replay — and nothing
//! it computes on the way is kept. A repeat workload with other targets
//! is a different request and computes again.
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

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsim_core::oneshot::Observation;
use gsim_core::plan::{
    collect_replay, collect_sampled_inline, observation_of, synthesize_observation, CollectFailure,
    Fit, PlanWorkload, SampledCollectConfig,
};
use gsim_json::{obj, Json};
use gsim_runner::{Job, JobStatus, RunOverrides, Runner, RunnerConfig};
use gsim_sim::GpuConfig;
use gsim_trace::suite::{strong_benchmark, strong_suite};
use gsim_trace::weak::{weak_benchmark, weak_suite, WEAK_SM_SIZES};
use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};
use gsim_tracestore::{StoreConfig, StoreError, StoreStats, TraceMeta, TraceStore};

use crate::cache::{fnv1a, ResultCache};
use crate::http::{Request, Response, ShutdownFlag};
use crate::metrics::{Metrics, RunnerJobCounter};
use crate::overload::{retry_after_secs, AdmissionGate, EndpointClass};
use crate::singleflight::{Role, SingleFlight};

/// Response-body schema tag.
const PREDICT_SCHEMA: &str = "gsim-serve-predict-v1";
/// Schema tag of the functional-first fast-path predict body.
const PREDICT_FAST_SCHEMA: &str = "gsim-serve-predict-fast-v1";
/// Per-request deadline header (milliseconds; overrides the configured
/// default; `0` disables the deadline for this request).
const DEADLINE_HEADER: &str = "x-gsim-deadline-ms";
/// Largest accepted request body for `/v1/predict`.
const MAX_PREDICT_BYTES: usize = 64 * 1024;
/// Largest accepted target system size.
const MAX_TARGET_SMS: u32 = 1 << 20;
/// Largest accepted `pattern.passes`, `pattern.mem_ops_per_warp` and
/// `pattern.ctas`: the fields that multiply a kernel's work without
/// growing anything a request is otherwise billed for. Every workload of
/// Tables II/IV stays below a tenth of each.
const MAX_PATTERN_PASSES: u32 = 64;
const MAX_PATTERN_MEM_OPS_PER_WARP: u32 = 4096;
const MAX_PATTERN_CTAS: u32 = 65_536;

/// Service construction knobs.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Worker threads of the simulation runner pool (0 = auto).
    pub runner_threads: usize,
    /// In-memory cache capacity in entries (0 = default 256).
    pub cache_capacity: usize,
    /// Persistence directory for the result cache (`None` = memory only).
    pub cache_dir: Option<PathBuf>,
    /// Root of the content-addressed trace store. `None` derives
    /// `<cache_dir>/tracestore`, or a temp directory of the service's own
    /// when there is no cache dir either (uploads then live as long as
    /// the service; the directory is removed when it is dropped).
    pub trace_store_dir: Option<PathBuf>,
    /// Default predict deadline in milliseconds; `0` means none. A
    /// request's `X-Gsim-Deadline-Ms` header overrides it either way.
    pub default_deadline_ms: u64,
    /// Concurrent `POST /v1/predict` requests admitted before shedding
    /// with 429 (0 = default 8).
    pub max_inflight_predicts: usize,
    /// Concurrent cheap requests (catalogs, uploads, metrics) admitted
    /// before shedding (0 = default 64).
    pub max_inflight_cheap: usize,
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

/// What one runner job returns.
enum SimOut {
    Point(SimPoint),
    Mrc(Vec<(u32, f64)>),
}

/// The shared prediction service. Construct once, share behind `Arc`
/// with the HTTP server's handler.
pub struct PredictService {
    runner: Runner,
    cache: ResultCache,
    flights: SingleFlight<Outcome>,
    metrics: Arc<Metrics>,
    store: TraceStore,
    shutdown: ShutdownFlag,
    gate: AdmissionGate,
    default_deadline_ms: u64,
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
    /// Builds the service: runner pool, cache (loading any persisted
    /// entries), trace store, metrics.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache or trace-store directory cannot be
    /// prepared.
    pub fn new(cfg: ServeConfig, shutdown: ShutdownFlag) -> std::io::Result<Arc<Self>> {
        let metrics = Arc::new(Metrics::default());
        let runner = Runner::new(RunnerConfig {
            threads: cfg.runner_threads,
            timeout: None, // big simulations are legitimate, never kill them
            retry_once: true,
        })
        .with_sink(RunnerJobCounter(Arc::clone(&metrics)));
        // A zero knob means its default.
        let or_default = |knob: usize, default: usize| if knob == 0 { default } else { knob };
        let capacity = or_default(cfg.cache_capacity, 256);
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
            runner,
            cache: ResultCache::new(capacity, cfg.cache_dir)?,
            flights: SingleFlight::new(),
            metrics: Arc::clone(&metrics),
            store,
            shutdown,
            gate: AdmissionGate::new(
                or_default(cfg.max_inflight_cheap, 64),
                or_default(cfg.max_inflight_predicts, 8),
            ),
            default_deadline_ms: cfg.default_deadline_ms,
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
                self.cheap(|| Response::json(200, workloads_json().render()))
            }
            ("POST", "/v1/predict") => {
                bump(&self.metrics.predict);
                self.predict(req)
            }
            ("POST", "/v1/traces") => {
                bump(&self.metrics.traces);
                self.cheap(|| self.trace_upload(&req.body))
            }
            ("GET", "/v1/traces") => {
                bump(&self.metrics.traces);
                self.cheap(|| self.trace_list())
            }
            ("GET", "/metrics") => {
                bump(&self.metrics.metrics);
                self.cheap(|| {
                    let store = store_stats_json(&self.store.stats());
                    let doc = self
                        .metrics
                        .to_json(self.cache.len(), store, self.admission_json());
                    Response::json(200, doc.render())
                })
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
    /// bytes, v1 or v2) into the content-addressed store.
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

    /// Runs a cheap-class request under its admission budget, shedding
    /// with a one-second `Retry-After` when it is exhausted (cheap work
    /// clears in microseconds; one second is already generous).
    fn cheap(&self, f: impl FnOnce() -> Response) -> Response {
        match self.gate.try_admit(EndpointClass::Cheap) {
            Some(_permit) => f(),
            None => {
                self.metrics.shed_cheap.fetch_add(1, Ordering::Relaxed);
                shed_response(1, "request budget exhausted; retry shortly")
            }
        }
    }

    /// The `overload.admission` group of the `/metrics` document.
    fn admission_json(&self) -> Json {
        obj([
            (
                "limit_cheap",
                Json::from(self.gate.limit(EndpointClass::Cheap)),
            ),
            (
                "limit_heavy",
                Json::from(self.gate.limit(EndpointClass::Heavy)),
            ),
            (
                "inflight_cheap",
                Json::from(self.gate.inflight(EndpointClass::Cheap)),
            ),
            (
                "inflight_heavy",
                Json::from(self.gate.inflight(EndpointClass::Heavy)),
            ),
        ])
    }

    /// The request's deadline instant: the `X-Gsim-Deadline-Ms` header
    /// when present, else the configured default; `None` when disabled.
    fn deadline_of(&self, req: &Request) -> Result<Option<Instant>, ApiError> {
        let ms = match req.header(DEADLINE_HEADER) {
            Some(v) => v.trim().parse::<u64>().map_err(|_| {
                ApiError::bad("X-Gsim-Deadline-Ms must be an integer number of milliseconds")
            })?,
            None => self.default_deadline_ms,
        };
        Ok((ms > 0).then(|| Instant::now() + Duration::from_millis(ms)))
    }

    /// `POST /v1/predict`: admit (or shed), normalize, address, then hit
    /// the cache, join an identical in-flight computation, or lead a new
    /// one — abandoning work past its deadline.
    fn predict(&self, req: &Request) -> Response {
        let fail = || {
            self.metrics.predict_errors.fetch_add(1, Ordering::Relaxed);
        };
        let deadline = match self.deadline_of(req) {
            Ok(d) => d,
            Err(e) => {
                fail();
                return e.response();
            }
        };
        let Some(_permit) = self.gate.try_admit(EndpointClass::Heavy) else {
            self.metrics.shed_heavy.fetch_add(1, Ordering::Relaxed);
            fail();
            return shed_response(
                self.retry_after(),
                "predict budget exhausted; service is at capacity",
            );
        };
        let mut plan = match parse_request(&req.body, Some(&self.store)) {
            Ok(plan) => plan,
            Err(e) => {
                fail();
                return e.response();
            }
        };
        if matches!(plan.kind, PlanKind::Stored(_)) {
            self.metrics
                .predict_from_trace
                .fetch_add(1, Ordering::Relaxed);
        }
        let key = fnv1a(plan.canonical.as_bytes());
        if let Some(cached) = self.cache.get(key) {
            self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return self.respond(Ok(cached), "hit");
        }
        match self.flights.join(key) {
            Role::Leader(promise) => {
                self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                self.metrics.computations.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let outcome: Outcome = self.compute(&mut plan, key, deadline).map(Arc::new);
                if let Ok(body) = &outcome {
                    self.cache.put(key, &plan.canonical, Arc::clone(body));
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
        retry_after_secs(
            self.metrics.heavy_p50_us(),
            self.gate.inflight(EndpointClass::Heavy),
        )
    }

    /// Computes one prediction: the staged functional-first fast path
    /// when it applies, the timing-simulation path otherwise, and one
    /// shared fit → forecast → render tail behind both. A stored trace's
    /// blob is read and decoded here first, by the flight leader only.
    fn compute(
        &self,
        plan: &mut Plan,
        key: u64,
        deadline: Option<Instant>,
    ) -> Result<String, ApiError> {
        if let PlanKind::Stored(trace_ref) = &plan.kind {
            let wl = self.store.load(trace_ref).map_err(|e| match e {
                StoreError::NotFound(_) => trace_not_found(trace_ref),
                e => ApiError::internal(format!("trace load failed: {e}")),
            })?;
            plan.kind = PlanKind::WithMrc(PlanWorkload::Traced(Arc::new(wl)));
        }
        let staged = match self.stage_fast(plan, deadline)? {
            Some(staged) => staged,
            None => self.stage_full(plan, key, deadline)?,
        };
        self.finish(plan, staged)
    }

    /// The fast path: MRC-capable plans not forced onto the full path
    /// run the sampled Stage-1 collection and consult the
    /// compute-intensity gate. Memory-bound workloads are answered from
    /// roofline observations synthesized from the collection, in about
    /// a millisecond; compute-sensitive ones (and everything this path
    /// does not apply to) return `None` and escalate to
    /// [`Self::stage_full`].
    ///
    /// The collection is one streaming pass on this request's thread,
    /// checked against `deadline` every thousand ops — it never touches
    /// the runner pool.
    fn stage_fast(
        &self,
        plan: &Plan,
        deadline: Option<Instant>,
    ) -> Result<Option<Staged>, ApiError> {
        let PlanKind::WithMrc(wl) = &plan.kind else {
            return Ok(None);
        };
        if plan.path == PathMode::Full {
            return Ok(None);
        }
        let cfg_of = |sms: u32| GpuConfig::paper_target(sms, plan.scale);
        let configs: Vec<GpuConfig> = collect_ladder(plan).into_iter().map(cfg_of).collect();
        self.metrics
            .collects_started
            .fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let scfg = SampledCollectConfig::default();
        // No jobs, so nothing to crash: the pass fails only by running
        // out of time.
        let collected = collect_sampled_inline(wl, &configs, &scfg, deadline)
            .map_err(|CollectFailure::TimedOut| self.deadline_exceeded())?;
        Metrics::observe_stage(&self.metrics.stage_collect, started.elapsed());
        let large = cfg_of(plan.large);
        let pressure = collected.memory_pressure(&large);
        let fast = plan.path == PathMode::Fast || collected.takes_fast_path(&large);
        if !fast {
            // Compute matters: the roofline synthesis is not
            // trustworthy, escalate to the real simulations.
            self.metrics.escalated.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        self.metrics.fast_path.fetch_add(1, Ordering::Relaxed);
        let synthesize = |size: u32| SimPoint {
            obs: synthesize_observation(&collected, &cfg_of(size)),
            timing: None,
        };
        Ok(Some(Staged {
            schema: PREDICT_FAST_SCHEMA,
            head: vec![
                ("fast_path", Json::from(true)),
                ("mrc_engine", Json::from("sampled")),
                ("memory_pressure", Json::from(pressure)),
                ("forced", Json::from(plan.path == PathMode::Fast)),
            ],
            small: synthesize(plan.small),
            large: synthesize(plan.large),
            mrc: Some(collected.points),
        }))
    }

    /// The full path: the scale-model simulations (and, for MRC plans,
    /// the functional replay) as jobs on the runner pool. The `deadline`
    /// bounds the runner jobs; a run cut short — or one that finished,
    /// but late — maps to 504.
    fn stage_full(
        &self,
        plan: &Plan,
        key: u64,
        deadline: Option<Instant>,
    ) -> Result<Staged, ApiError> {
        let cfg_of = |sms: u32| GpuConfig::paper_target(sms, plan.scale);
        let sim_job = |sms: u32, wl: PlanWorkload| {
            let cfg = cfg_of(sms);
            let metrics = Arc::clone(&self.metrics);
            Job::new(format!("sim@{sms}sm"), move || {
                if gsim_faults::active().is_some_and(|f| f.job_panic()) {
                    panic!("injected fault: simulation job panic");
                }
                metrics.timing_sims_started.fetch_add(1, Ordering::Relaxed);
                let stats = wl.simulate(cfg.clone());
                SimOut::Point(SimPoint {
                    obs: observation_of(sms, &stats),
                    timing: Some((stats.mpki(), stats.cycles)),
                })
            })
        };
        let (small_wl, large_wl) = match &plan.kind {
            PlanKind::WithMrc(wl) => (wl, wl),
            PlanKind::PerSize { small_wl, large_wl } => (small_wl, large_wl),
            PlanKind::Stored(_) => unreachable!("compute loads a stored trace before staging"),
        };
        let mut jobs = vec![
            sim_job(plan.small, small_wl.clone()),
            sim_job(plan.large, large_wl.clone()),
        ];
        if let PlanKind::WithMrc(wl) = &plan.kind {
            // One workload at every size: the exact functional replay
            // over the request's ladder gives its miss-rate curve.
            let configs: Vec<GpuConfig> = plan.ladder.iter().copied().map(cfg_of).collect();
            let wl = wl.clone();
            jobs.push(Job::new("mrc", move || {
                SimOut::Mrc(collect_replay(&wl, &configs).points)
            }));
        }
        // A deadline-bound run does not retry: a retry would double the
        // worst-case wall time past the promise. A job dequeued after the
        // deadline is reported timed out and never started.
        let overrides = deadline.map_or_else(RunOverrides::default, RunOverrides::deadline);
        let reports = self
            .runner
            .run_with(&format!("predict-{key:016x}"), jobs, overrides);
        let (mut sims, mut mrc) = (Vec::new(), None);
        for report in reports {
            let name = report.name.clone();
            let timed_out = matches!(report.status, JobStatus::TimedOut);
            match report.into_ok() {
                Some(SimOut::Point(p)) => sims.push(p),
                Some(SimOut::Mrc(m)) => mrc = Some(m),
                None if timed_out => return Err(self.deadline_exceeded()),
                None => {
                    // Crashed even after the runner's retry: the failure
                    // is transient (a panic, an injected fault), not a
                    // verdict on the request.
                    return Err(ApiError {
                        status: 503,
                        message: format!("job {name} failed; retry later"),
                    });
                }
            }
        }
        // The runner abandons every attempt at the deadline, but a job
        // can still deliver its result a moment past it: that answer is
        // still a 504, never a late 200.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(self.deadline_exceeded());
        }
        // Reports come back in submission order: small, then large.
        let Ok([small, large]) = <[SimPoint; 2]>::try_from(sims) else {
            return Err(ApiError::internal("scale-model simulations missing"));
        };
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

/// A `429` with the computed `Retry-After`.
fn shed_response(retry_after_secs: u64, message: &str) -> Response {
    ApiError {
        status: 429,
        message: message.into(),
    }
    .response()
    .with_header("Retry-After", retry_after_secs.to_string())
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

/// The doubling ladder the sampled collect stage covers: all of it,
/// from the smaller scale model to [`MAX_TARGET_SMS`], regardless of
/// the request's targets — a fast body lists every one of its points.
/// The replay pass dominates the collection cost and the per-capacity
/// readout is a histogram query, so the extra points are nearly free.
fn collect_ladder(plan: &Plan) -> Vec<u32> {
    let mut ladder = vec![plan.small];
    let mut size = plan.small;
    while size < MAX_TARGET_SMS {
        size = size.saturating_mul(2);
        ladder.push(size);
    }
    ladder
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

// --- request parsing and normalization ---------------------------------

/// A strict field reader over one JSON object: every access is recorded
/// so unknown (misspelled) fields can be rejected — a typo must fail
/// loudly, not silently select a default and poison the cache key space.
struct Fields<'a> {
    obj: &'a [(String, Json)],
    known: Vec<&'static str>,
    context: &'static str,
}

impl<'a> Fields<'a> {
    fn new(json: &'a Json, context: &'static str) -> Result<Self, ApiError> {
        let Json::Obj(obj) = json else {
            return Err(ApiError::bad(format!("{context} must be a JSON object")));
        };
        Ok(Self {
            obj,
            known: Vec::new(),
            context,
        })
    }

    fn get(&mut self, name: &'static str) -> Option<&'a Json> {
        self.known.push(name);
        self.obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn finish(self) -> Result<(), ApiError> {
        for (k, _) in self.obj {
            if !self.known.contains(&k.as_str()) {
                return Err(ApiError::bad(format!(
                    "unknown field {k:?} in {}; known fields: {}",
                    self.context,
                    self.known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

fn as_u32(json: &Json, what: &str) -> Result<u32, ApiError> {
    json.as_u64()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| ApiError::bad(format!("{what} must be a non-negative integer")))
}

/// [`as_u32`], at least 1 (0 counts as 1) and at most `max`.
fn as_count(json: &Json, what: &str, max: u32) -> Result<u32, ApiError> {
    match as_u32(json, what)?.max(1) {
        n if n <= max => Ok(n),
        _ => Err(ApiError::bad(format!("{what} must be at most {max}"))),
    }
}

fn as_f64(json: &Json, what: &str) -> Result<f64, ApiError> {
    json.as_f64()
        .filter(|v| v.is_finite())
        .ok_or_else(|| ApiError::bad(format!("{what} must be a finite number")))
}

fn parse_request(body: &[u8], store: Option<&TraceStore>) -> Result<Plan, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::bad("request body must be UTF-8 JSON"))?;
    let doc = gsim_json::parse_with_limits(text, gsim_json::DEFAULT_MAX_DEPTH, MAX_PREDICT_BYTES)
        .map_err(|e| ApiError::bad(format!("request body is not valid JSON: {e}")))?;
    let mut fields = Fields::new(&doc, "request")?;

    // Memory miniature.
    let scale_divisor = match fields.get("mem_scale") {
        Some(v) => {
            let d = as_u32(v, "mem_scale")?;
            let max = GpuConfig::max_mem_scale();
            if !(1..=max).contains(&d) {
                return Err(ApiError::bad(format!("mem_scale must be in 1..={max}")));
            }
            d
        }
        None => MemScale::default().divisor(),
    };
    let scale = MemScale::new(scale_divisor);

    // Scale-model sizes.
    let (small, large) = match fields.get("scale_models") {
        Some(Json::Arr(arr)) if arr.len() == 2 => (
            as_u32(&arr[0], "scale_models[0]")?,
            as_u32(&arr[1], "scale_models[1]")?,
        ),
        Some(_) => {
            return Err(ApiError::bad(
                "scale_models must be a two-element array, e.g. [8, 16]",
            ))
        }
        None => (8, 16),
    };
    if small == 0 || small >= large {
        return Err(ApiError::bad("scale_models must satisfy 0 < small < large"));
    }

    // Targets: one `target_sms` or an array `targets`; sorted + deduped
    // so equivalent requests share one cache entry.
    let mut targets: Vec<u32> = match (fields.get("target_sms"), fields.get("targets")) {
        (Some(v), None) => vec![as_u32(v, "target_sms")?],
        (None, Some(Json::Arr(arr))) if !arr.is_empty() => arr
            .iter()
            .map(|v| as_u32(v, "targets[]"))
            .collect::<Result<_, _>>()?,
        (None, Some(_)) => {
            return Err(ApiError::bad("targets must be a non-empty array"));
        }
        (Some(_), Some(_)) => {
            return Err(ApiError::bad("give either target_sms or targets, not both"));
        }
        (None, None) => {
            return Err(ApiError::bad("missing target_sms (or targets) field"));
        }
    };
    targets.sort_unstable();
    targets.dedup();

    // Prediction path: gate automatically (default), or force one side.
    let path = match fields.get("path") {
        None => PathMode::Auto,
        Some(v) => match v.as_str() {
            Some("auto") => PathMode::Auto,
            Some("fast") => PathMode::Fast,
            Some("full") => PathMode::Full,
            _ => {
                return Err(ApiError::bad(
                    "path must be \"auto\", \"fast\", or \"full\"",
                ));
            }
        },
    };
    for &t in &targets {
        if t <= large || t > MAX_TARGET_SMS {
            return Err(ApiError::bad(format!(
                "target {t} must exceed the larger scale model ({large}) \
                 and be at most {MAX_TARGET_SMS}"
            )));
        }
    }

    // The doubling ladder smalls→max target; every named size must sit
    // on it (the predictor extrapolates per doubling).
    let max_target = *targets.last().expect("targets verified non-empty");
    let mut ladder = vec![small];
    let mut size = small;
    while size < max_target {
        size = size.saturating_mul(2);
        ladder.push(size);
    }
    for (what, value) in
        std::iter::once(("larger scale model", large)).chain(targets.iter().map(|&t| ("target", t)))
    {
        if !ladder.contains(&value) {
            return Err(ApiError::bad(format!(
                "{what} {value} is not a power-of-two multiple of the \
                 smaller scale model ({small})"
            )));
        }
    }

    // Workload: a suite benchmark, a synthetic pattern, or a stored trace.
    let workload_field = fields.get("workload").cloned();
    let suite_field = fields.get("suite").cloned();
    let pattern_field = fields.get("pattern").cloned();
    let trace_field = fields.get("trace_ref").cloned();
    let (kind, workload_json, suite_name) = match (workload_field, pattern_field, trace_field) {
        (Some(wl), None, None) => {
            let abbr = wl
                .as_str()
                .ok_or_else(|| ApiError::bad("workload must be a benchmark abbreviation"))?;
            let suite = match &suite_field {
                None => "strong",
                Some(s) => match s.as_str() {
                    Some(s @ ("strong" | "weak")) => s,
                    _ => {
                        return Err(ApiError::bad("suite must be \"strong\" or \"weak\""));
                    }
                },
            };
            let kind = if suite == "weak" {
                let bench = weak_benchmark(abbr, scale).ok_or_else(|| {
                    ApiError::bad(format!(
                        "unknown weak benchmark {abbr:?}; see GET /v1/workloads"
                    ))
                })?;
                let input = |sms| {
                    let wl = bench.workload_for_sms(sms).ok_or_else(|| {
                        ApiError::bad(format!(
                            "Table IV has weak-scaling inputs for {WEAK_SM_SIZES:?} SMs, not {sms}"
                        ))
                    })?;
                    Ok(PlanWorkload::Synthetic(wl))
                };
                PlanKind::PerSize {
                    small_wl: input(small)?,
                    large_wl: input(large)?,
                }
            } else {
                let bench = strong_benchmark(abbr, scale).ok_or_else(|| {
                    ApiError::bad(format!("unknown benchmark {abbr:?}; see GET /v1/workloads"))
                })?;
                PlanKind::WithMrc(PlanWorkload::Synthetic(bench.workload))
            };
            (kind, Json::from(abbr), suite.to_string())
        }
        (None, Some(pattern), None) => {
            if suite_field.is_some() {
                return Err(ApiError::bad("suite does not apply to pattern requests"));
            }
            let (workload, normalized) = parse_pattern(&pattern, scale)?;
            (
                PlanKind::WithMrc(PlanWorkload::Synthetic(workload)),
                normalized,
                "pattern".to_string(),
            )
        }
        (None, None, Some(t)) => {
            if suite_field.is_some() {
                return Err(ApiError::bad("suite does not apply to trace requests"));
            }
            let trace_ref = t
                .as_str()
                .ok_or_else(|| ApiError::bad("trace_ref must be a string"))?
                .to_ascii_lowercase();
            if trace_ref.len() != 16 || u64::from_str_radix(&trace_ref, 16).is_err() {
                return Err(ApiError::bad(
                    "trace_ref must be 16 hex digits (see POST /v1/traces)",
                ));
            }
            let Some(store) = store else {
                return Err(ApiError::internal("no trace store configured"));
            };
            // The catalog check only: the blob is read by a flight
            // leader, never by a cache hit.
            if store.get(&trace_ref).is_none() {
                return Err(trace_not_found(&trace_ref));
            }
            let json = Json::from(trace_ref.as_str());
            (PlanKind::Stored(trace_ref), json, "trace".to_string())
        }
        (None, None, None) => {
            return Err(ApiError::bad(
                "missing workload (or pattern, or trace_ref) field",
            ));
        }
        _ => {
            return Err(ApiError::bad(
                "give exactly one of workload, pattern, or trace_ref — not both",
            ));
        }
    };
    fields.finish()?;

    // The fast path fits predictors to a miss-rate curve; a per-size
    // (weak-scaling) plan has none, so forcing it is a contradiction.
    if path == PathMode::Fast && matches!(kind, PlanKind::PerSize { .. }) {
        return Err(ApiError::bad(
            "path \"fast\" needs a miss-rate curve; weak-scaling plans \
             must use \"auto\" or \"full\"",
        ));
    }

    // The normalized request: fixed field order, every default filled
    // in, so semantically identical requests render identically.
    let workload_key = match suite_name.as_str() {
        "pattern" => "pattern",
        "trace" => "trace_ref",
        _ => "workload",
    };
    let normalized = obj([
        (workload_key, workload_json),
        ("suite", Json::from(suite_name.as_str())),
        (
            "scale_models",
            Json::Arr(vec![Json::from(small), Json::from(large)]),
        ),
        (
            "targets",
            Json::Arr(targets.iter().map(|&t| Json::from(t)).collect()),
        ),
        ("mem_scale", Json::from(scale.divisor())),
    ]);

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

/// Parses a synthetic-pattern spec into a one-kernel workload, returning
/// it with its fully-defaulted normalized JSON. The defaults are pinned
/// *here* (not inherited from `PatternSpec`'s builder) so the service's
/// request semantics cannot drift under it.
fn parse_pattern(pattern: &Json, scale: MemScale) -> Result<(Workload, Json), ApiError> {
    let mut f = Fields::new(pattern, "pattern")?;
    let kind_name = f
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad("pattern.kind must be a string"))?
        .to_string();
    let footprint_mb = match f.get("footprint_mb") {
        Some(v) => as_f64(v, "pattern.footprint_mb")?,
        None => return Err(ApiError::bad("pattern.footprint_mb is required")),
    };
    if footprint_mb <= 0.0 || footprint_mb > 1024.0 * 1024.0 {
        return Err(ApiError::bad("pattern.footprint_mb must be in (0, 2^20]"));
    }

    let mut extra: Vec<(&'static str, Json)> = Vec::new();
    let kind = match kind_name.as_str() {
        "global_sweep" => {
            let passes = match f.get("passes") {
                Some(v) => as_count(v, "pattern.passes", MAX_PATTERN_PASSES)?,
                None => 1,
            };
            extra.push(("passes", Json::from(passes)));
            PatternKind::GlobalSweep { passes }
        }
        "streaming" => PatternKind::Streaming,
        "pointer_chase" => PatternKind::PointerChase,
        "tiled" => {
            let tile_lines = match f.get("tile_lines") {
                Some(v) => u64::from(as_u32(v, "pattern.tile_lines")?.max(1)),
                None => return Err(ApiError::bad("tiled pattern requires tile_lines")),
            };
            let reuses = match f.get("reuses") {
                Some(v) => as_u32(v, "pattern.reuses")?.max(1),
                None => return Err(ApiError::bad("tiled pattern requires reuses")),
            };
            extra.push(("tile_lines", Json::from(tile_lines)));
            extra.push(("reuses", Json::from(reuses)));
            PatternKind::Tiled { tile_lines, reuses }
        }
        "working_set_mix" => {
            let Some(Json::Arr(levels)) = f.get("levels") else {
                return Err(ApiError::bad(
                    "working_set_mix requires levels: [[weight, fraction], ...]",
                ));
            };
            let mut parsed = Vec::new();
            for level in levels {
                let Json::Arr(pair) = level else {
                    return Err(ApiError::bad("each level must be [weight, fraction]"));
                };
                let [w, frac] = pair.as_slice() else {
                    return Err(ApiError::bad("each level must be [weight, fraction]"));
                };
                let (w, frac) = (as_f64(w, "level weight")?, as_f64(frac, "level fraction")?);
                if w <= 0.0 || frac <= 0.0 {
                    return Err(ApiError::bad(
                        "level weights and fractions must be positive",
                    ));
                }
                parsed.push((w, frac));
            }
            if parsed.is_empty() {
                return Err(ApiError::bad("levels must be non-empty"));
            }
            extra.push((
                "levels",
                Json::Arr(
                    parsed
                        .iter()
                        .map(|&(w, frac)| Json::Arr(vec![Json::from(w), Json::from(frac)]))
                        .collect(),
                ),
            ));
            PatternKind::WorkingSetMix { levels: parsed }
        }
        other => {
            return Err(ApiError::bad(format!(
                "unknown pattern kind {other:?}; one of global_sweep, streaming, \
                 working_set_mix, tiled, pointer_chase"
            )));
        }
    };

    let num = |f: &mut Fields<'_>, name: &'static str, default: u32| -> Result<u32, ApiError> {
        match f.get(name) {
            Some(v) => as_u32(v, name),
            None => Ok(default),
        }
    };
    let mem_ops_per_warp = match f.get("mem_ops_per_warp") {
        Some(v) => as_count(v, "pattern.mem_ops_per_warp", MAX_PATTERN_MEM_OPS_PER_WARP)?,
        None => 64,
    };
    let compute_per_mem = match f.get("compute_per_mem") {
        Some(v) => as_f64(v, "pattern.compute_per_mem")?.max(0.0),
        None => 2.0,
    };
    let write_frac = match f.get("write_frac") {
        Some(v) => as_f64(v, "pattern.write_frac")?.clamp(0.0, 1.0),
        None => 0.0,
    };
    let divergence = num(&mut f, "divergence", 1)?.clamp(1, 32) as u8;
    let tail_compute = num(&mut f, "tail_compute", 0)?;
    let ctas = match f.get("ctas") {
        Some(v) => as_count(v, "pattern.ctas", MAX_PATTERN_CTAS)?,
        None => 1024,
    };
    let threads_per_cta = num(&mut f, "threads_per_cta", 256)?;
    if !(1..=1024).contains(&threads_per_cta) {
        return Err(ApiError::bad("threads_per_cta must be in 1..=1024"));
    }
    let seed = u64::from(num(&mut f, "seed", 42)?);
    let shared_hot = match f.get("shared_hot") {
        Some(spec) => {
            let mut hf = Fields::new(spec, "shared_hot")?;
            let prob = match hf.get("prob") {
                Some(v) => as_f64(v, "shared_hot.prob")?.clamp(0.0, 1.0),
                None => return Err(ApiError::bad("shared_hot requires prob")),
            };
            let hot_lines = match hf.get("hot_lines") {
                Some(v) => u64::from(as_u32(v, "shared_hot.hot_lines")?.max(1)),
                None => return Err(ApiError::bad("shared_hot requires hot_lines")),
            };
            hf.finish()?;
            Some((prob, hot_lines))
        }
        None => None,
    };
    f.finish()?;

    let mut spec = PatternSpec::new(kind, scale.mb_to_model_lines(footprint_mb))
        .mem_ops_per_warp(mem_ops_per_warp)
        .compute_per_mem(compute_per_mem)
        .write_frac(write_frac)
        .divergence(divergence)
        .tail_compute(tail_compute);
    if let Some((prob, hot_lines)) = shared_hot {
        spec = spec.shared_hot(prob, hot_lines);
    }
    let workload = Workload::new(
        "pattern",
        seed,
        vec![Kernel::new("pattern", ctas, threads_per_cta, spec)],
    )
    .with_footprint_mb(footprint_mb);

    let mut normalized: Vec<(&'static str, Json)> = vec![
        ("kind", Json::from(kind_name.as_str())),
        ("footprint_mb", Json::from(footprint_mb)),
    ];
    normalized.extend(extra);
    normalized.extend([
        ("mem_ops_per_warp", Json::from(mem_ops_per_warp)),
        ("compute_per_mem", Json::from(compute_per_mem)),
        ("write_frac", Json::from(write_frac)),
        ("divergence", Json::from(u32::from(divergence))),
        ("tail_compute", Json::from(tail_compute)),
        ("ctas", Json::from(ctas)),
        ("threads_per_cta", Json::from(threads_per_cta)),
        ("seed", Json::from(seed)),
    ]);
    if let Some((prob, hot_lines)) = shared_hot {
        normalized.push((
            "shared_hot",
            obj([
                ("prob", Json::from(prob)),
                ("hot_lines", Json::from(hot_lines)),
            ]),
        ));
    }
    Ok((workload, obj(normalized)))
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
        let second = post("/v1/predict", body.into_bytes());
        assert_eq!((first.status, second.status), (200, 200));
        assert_eq!(first.body, second.body);
        let cache = |r: &Response| r.headers.iter().find(|(k, _)| k == "X-Gsim-Cache").cloned();
        assert_eq!(cache(&second), Some(("X-Gsim-Cache".into(), "hit".into())));
        // One read, by the miss's flight leader; the hit only consulted
        // the catalog. Both requests count as trace predicts.
        assert_eq!(faults.injected(), vec![("store.read_delay", 1)]);
        assert_eq!(svc.metrics().predict_from_trace.load(Ordering::Relaxed), 2);
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
}
