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
//!
//! Because full-path predicts key their expensive intermediate results
//! (the two scale-model observations and the exact miss-rate curve) by
//! the same semantic hash in an in-memory *stage cache*, a full-path
//! trace predict whose content matches an already-predicted synthetic
//! workload reuses both stages and schedules **zero** timing
//! simulations; a cold trace predict runs exactly the two scale models
//! plus the functional MRC replay.
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
//! # Two identities, one per price class
//!
//! Every stage result that costs more than its key is cached under the
//! workload's identity plus the sizes and memory miniature that select
//! the GPU configs (within one process `GpuConfig::paper_target` is a
//! pure function of them), so repeat requests over the same workload
//! (different targets) skip the expensive stages. The fits and the
//! forecast are not cached: a microsecond each, less than hashing a key.
//! *Which* identity depends on what the entry saves:
//!
//! * The fast-path entry (`collects`) is keyed by
//!   [`PlanWorkload::stage_identity`]: a synthetic workload's *recipe*
//!   hash, O(kernels), or a trace's stored content hash. The semantic
//!   hash of a synthetic workload generates and hashes every op —
//!   1–25 ms to index a value that takes 0.1–2.5 ms to recompute — so the
//!   fast path never takes it (`predict.content_hashes` in `/metrics`
//!   counts the drains; a fast-path predict leaves it untouched). The
//!   price: a fast-path trace predict and its synthetic twin collect
//!   separately (same bytes out, no timing simulation either way).
//! * Full-path entries (`observations`, `mrcs`) keep the semantic hash:
//!   there it buys back two timing simulations, 10–100× its cost.
//!
//! All three maps are LRU-bounded at the result cache's capacity.
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

use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gsim_core::oneshot::Observation;
use gsim_core::plan::{
    collect_replay, collect_sampled_inline, observation_of, synthesize_observation, CollectFailure,
    Collected, Fit, PlanWorkload, SampledCollectConfig, StageIdentity,
};
use gsim_json::{obj, Json};
use gsim_runner::{Job, JobStatus, RunOverrides, Runner, RunnerConfig};
use gsim_sim::GpuConfig;
use gsim_trace::suite::{strong_benchmark, strong_suite};
use gsim_trace::weak::{weak_benchmark, weak_suite, WEAK_SM_SIZES};
use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};
use gsim_tracestore::{StoreConfig, StoreError, StoreStats, TraceMeta, TraceStore};

use crate::cache::{fnv1a, Lru, NegativeCache, ResultCache};
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
/// Capacity of the negative (400-verdict) cache.
const NEGATIVE_CACHE_CAPACITY: usize = 256;
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
    /// Canonical content-address string (normalized request + full
    /// derived config encodings).
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
    /// The workload's semantic hash, when already known at parse time
    /// (trace-driven plans: the trace reference *is* the hash).
    semantic: Option<u64>,
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
}

/// Deterministic intermediate results, each map LRU-bounded. Every stage
/// is a pure function of the workload's instruction streams and the GPU
/// configs, and within one process the configs are a pure function of
/// the sizes and the memory miniature — so the keys are typed tuples,
/// not config encodings. The full-path maps are keyed by *content*, so a
/// synthetic workload and a trace of it share entries — which is what
/// lets a trace-driven predict skip the timing simulator entirely when
/// the synthetic path already ran (and vice versa). The fast-path map is
/// keyed by the cheap [`StageIdentity`] (see the module docs).
struct StageCache {
    /// `(content hash, small, large, mem_scale)` → the two scale-model
    /// observations.
    observations: Stage<ContentKey, (SimPoint, SimPoint)>,
    /// `(content hash, small, max target, mem_scale)` → `(size, mpki)`
    /// miss-rate-curve points over the doubling ladder between the two.
    mrcs: Stage<ContentKey, Vec<(u32, f64)>>,
    /// `(identity, small, mem_scale)` → the sampled Stage-1 collection
    /// over [`collect_ladder`].
    collects: Stage<(StageIdentity, u32, u32), Collected>,
}

impl StageCache {
    fn new(capacity: usize) -> Self {
        Self {
            observations: Stage::new(capacity),
            mrcs: Stage::new(capacity),
            collects: Stage::new(capacity),
        }
    }
}

/// Full-path stage key: the workload's semantic hash, two sizes and the
/// memory-miniature divisor.
type ContentKey = (u64, u32, u32, u32);

/// One stage's shared map. Values are deterministic in the key, so
/// concurrent writers of one key store the same thing.
struct Stage<K, V>(Mutex<Lru<K, V>>);

impl<K: Hash + Eq + Clone, V: Clone> Stage<K, V> {
    fn new(capacity: usize) -> Self {
        Self(Mutex::new(Lru::new(capacity)))
    }

    /// The staged value, counted in `hits` when present.
    fn get(&self, key: &K, hits: &AtomicU64) -> Option<V> {
        let found = self.lock().get(key).cloned();
        if found.is_some() {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn put(&self, key: K, value: V) {
        self.lock().insert(key, value);
    }

    /// [`Stage::get`], or `compute` and stage its result. Nothing is
    /// staged when `compute` fails.
    fn get_or_compute(
        &self,
        key: K,
        hits: &AtomicU64,
        compute: impl FnOnce() -> Result<V, ApiError>,
    ) -> Result<V, ApiError> {
        if let Some(v) = self.get(&key, hits) {
            return Ok(v);
        }
        let value = compute()?;
        self.put(key, value.clone());
        Ok(value)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<K, V>> {
        self.0.lock().expect("stage cache poisoned")
    }
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
    negative: NegativeCache,
    flights: SingleFlight<Outcome>,
    metrics: Arc<Metrics>,
    store: TraceStore,
    stages: StageCache,
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
            negative: NegativeCache::new(NEGATIVE_CACHE_CAPACITY),
            flights: SingleFlight::new(),
            metrics: Arc::clone(&metrics),
            store,
            stages: StageCache::new(capacity),
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
        // Byte-identical bodies we already rejected with 400 skip the
        // parser. Keyed on raw bytes: only deterministic verdicts
        // (never 404 trace-not-found) are stored below.
        let nkey = fnv1a(&req.body);
        if let Some(message) = self.negative.get(nkey) {
            self.metrics.negative_hits.fetch_add(1, Ordering::Relaxed);
            fail();
            return ApiError::bad(message.as_str()).response();
        }
        let plan = match parse_request(&req.body, Some(&self.store)) {
            Ok(plan) => plan,
            Err(e) => {
                if e.status == 400 {
                    self.negative.put(nkey, &e.message);
                }
                fail();
                return e.response();
            }
        };
        if matches!(plan.kind, PlanKind::WithMrc(PlanWorkload::Traced(_))) {
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
                let outcome: Outcome = self.compute(&plan, key, deadline).map(Arc::new);
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
    /// shared fit → forecast → render tail behind both.
    fn compute(
        &self,
        plan: &Plan,
        key: u64,
        deadline: Option<Instant>,
    ) -> Result<String, ApiError> {
        let staged = match self.stage_fast(plan, deadline)? {
            Some(staged) => staged,
            None => self.stage_full(plan, key, deadline)?,
        };
        self.finish(plan, staged)
    }

    /// The fast path: MRC-capable plans not forced onto the full path
    /// run the sampled Stage-1 collection (stage-cached under the
    /// workload's cheap identity — the workload is never drained for a
    /// key here) and consult the compute-intensity gate. Memory-bound
    /// workloads are answered from roofline observations synthesized
    /// from the collection, in about a millisecond; compute-sensitive
    /// ones (and everything this path does not apply to) return `None`
    /// and escalate to [`Self::stage_full`].
    ///
    /// A collection miss is one streaming pass on this request's
    /// thread, checked against `deadline` every thousand ops — it never
    /// touches the runner pool.
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
        let collected = self.stages.collects.get_or_compute(
            (wl.stage_identity(), plan.small, plan.scale.divisor()),
            &self.metrics.stage_collect_hits,
            || {
                let configs: Vec<GpuConfig> =
                    collect_ladder(plan).into_iter().map(cfg_of).collect();
                self.metrics
                    .collects_started
                    .fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let scfg = SampledCollectConfig::default();
                let collected =
                    collect_sampled_inline(wl, &configs, &scfg, deadline).map_err(|e| {
                        // No jobs, so nothing to crash: the pass fails
                        // only by running out of time.
                        debug_assert_eq!(e, CollectFailure::TimedOut);
                        self.deadline_exceeded()
                    })?;
                Metrics::observe_stage(&self.metrics.stage_collect, started.elapsed());
                Ok(collected)
            },
        )?;
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
    /// the functional replay) as jobs on the runner pool.
    ///
    /// Strong-scaling plans first consult the [`StageCache`]: when both
    /// the observations and the miss-rate curve are cached under the
    /// workload's semantic hash, no jobs are scheduled at all — the
    /// path that makes a trace predict of an already-seen workload
    /// simulation-free. The `deadline` bounds the runner jobs; a run cut
    /// short — or one that finished, but late — maps to 504.
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
        let (small_wl, large_wl, keys) = match &plan.kind {
            // One workload at every size, and a miss-rate curve.
            PlanKind::WithMrc(wl) => {
                // The content hash: known for a trace, a full drain of a
                // synthetic workload. Worth it here — it is what lets a
                // trace and its synthetic twin share the timing sims.
                let sem = plan.semantic.unwrap_or_else(|| {
                    self.metrics.content_hashes.fetch_add(1, Ordering::Relaxed);
                    wl.semantic_hash()
                });
                let max_target = *plan.ladder.last().expect("ladder holds the scale models");
                let scale = plan.scale.divisor();
                let obs_key: ContentKey = (sem, plan.small, plan.large, scale);
                let mrc_key: ContentKey = (sem, plan.small, max_target, scale);
                (wl, wl, Some((obs_key, mrc_key)))
            }
            PlanKind::PerSize { small_wl, large_wl } => (small_wl, large_wl, None),
        };
        let mut points = keys.and_then(|(obs_key, _)| {
            self.stages
                .observations
                .get(&obs_key, &self.metrics.stage_obs_hits)
        });
        let mut mrc = keys
            .and_then(|(_, mrc_key)| self.stages.mrcs.get(&mrc_key, &self.metrics.stage_mrc_hits));
        let mut jobs = Vec::new();
        if points.is_none() {
            jobs.push(sim_job(plan.small, small_wl.clone()));
            jobs.push(sim_job(plan.large, large_wl.clone()));
        }
        if keys.is_some() && mrc.is_none() {
            // The exact functional replay over the request's ladder.
            let configs: Vec<GpuConfig> = plan.ladder.iter().copied().map(cfg_of).collect();
            let wl = small_wl.clone();
            jobs.push(Job::new("mrc", move || {
                SimOut::Mrc(collect_replay(&wl, &configs).points)
            }));
        }
        if !jobs.is_empty() {
            let overrides = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(self.deadline_exceeded());
                    }
                    // A deadline-bound run must not retry: a retry would
                    // double the worst-case wall time past the promise.
                    RunOverrides::deadline(left)
                }
                None => RunOverrides::default(),
            };
            let reports = self
                .runner
                .run_with(&format!("predict-{key:016x}"), jobs, overrides);
            let mut sims = Vec::new();
            for report in reports {
                let name = report.name.clone();
                let timed_out = matches!(report.status, JobStatus::TimedOut);
                match report.into_ok() {
                    Some(SimOut::Point(p)) => sims.push(p),
                    Some(SimOut::Mrc(m)) => mrc = Some(m),
                    None if timed_out => return Err(self.deadline_exceeded()),
                    None => {
                        // Crashed even after the runner's retry: the
                        // failure is transient (a panic, an injected
                        // fault), not a verdict on the request.
                        return Err(ApiError {
                            status: 503,
                            message: format!("job {name} failed; retry later"),
                        });
                    }
                }
            }
            // Reports come back in submission order: small, then large.
            if let Ok([small, large]) = <[SimPoint; 2]>::try_from(sims) {
                points = Some((small, large));
            }
            if let (Some((obs_key, mrc_key)), Some(observed)) = (keys, &points) {
                self.stages.observations.put(obs_key, observed.clone());
                if let Some(pts) = &mrc {
                    self.stages.mrcs.put(mrc_key, pts.clone());
                }
            }
            // The runner's timeout runs per job from the job's start, so
            // a job that queued behind a sibling can finish after the
            // request's deadline: what it computed is staged, the answer
            // is still a 504.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(self.deadline_exceeded());
            }
        }
        let Some((small, large)) = points else {
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
/// the request's targets. The replay pass dominates the collection
/// cost and the per-capacity readout is a histogram query, so one
/// collection serves every target set for the same content — a repeat
/// request with different targets must never re-collect.
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
    let mut semantic: Option<u64> = None;
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
            let hash = (trace_ref.len() == 16)
                .then(|| u64::from_str_radix(&trace_ref, 16).ok())
                .flatten()
                .ok_or_else(|| {
                    ApiError::bad("trace_ref must be 16 hex digits (see POST /v1/traces)")
                })?;
            let Some(store) = store else {
                return Err(ApiError::internal("no trace store configured"));
            };
            let wl = match store.load(&trace_ref) {
                Ok(wl) => wl,
                Err(StoreError::NotFound(_)) => {
                    return Err(ApiError {
                        status: 404,
                        message: format!(
                            "no trace {trace_ref} in store; upload it via POST /v1/traces"
                        ),
                    });
                }
                Err(e) => {
                    return Err(ApiError::internal(format!("trace load failed: {e}")));
                }
            };
            semantic = Some(hash);
            let json = Json::from(trace_ref.as_str());
            (
                PlanKind::WithMrc(PlanWorkload::Traced(Arc::new(wl))),
                json,
                "trace".to_string(),
            )
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

    // Content address: the normalized request plus every field of every
    // derived config on the ladder — a change to the simulator's
    // defaults must invalidate old cache entries.
    let mut canonical = normalized.render();
    for &s in &ladder {
        canonical.push('|');
        canonical.push_str(&encode_config(&GpuConfig::paper_target(s, scale)));
    }
    // The requested path changes what is computed (fast vs full bodies),
    // so it is part of the address — for every mode, including the
    // default, so the mode set can grow without aliasing old entries.
    canonical.push_str("|path=");
    canonical.push_str(path.as_str());

    Ok(Plan {
        canonical,
        normalized,
        kind,
        small,
        large,
        targets,
        scale,
        ladder,
        semantic,
        path,
    })
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

/// Spells out every field of a derived [`GpuConfig`] — an explicit
/// encoder, not `Debug`, so the canonical form is a deliberate contract:
/// adding a config field without extending this is a compile error.
fn encode_config(c: &GpuConfig) -> String {
    // Exhaustive destructuring: a new field breaks this build until the
    // encoding (and thereby cache invalidation) accounts for it.
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
        llc_policy,
        dram_banks_per_mc,
        sim_threads: _, // inert field (GpuConfig docs): never part of the key
        mem_scale,
    } = c;
    format!(
        "n_sms={n_sms};clock={sm_clock_ghz};warps={warps_per_sm};threads={max_threads_per_sm};\
         l1={l1_bytes}/{l1_ways}w/{l1_mshrs}m/{l1_latency}c;line={line_bytes};\
         llc={llc_bytes_total}/{llc_slices}s/{llc_ways}w/{llc_latency}c;\
         noc={noc_gbs}/{noc_hop_latency}c;dram={dram_gbs_per_mc}x{n_mcs}/{dram_latency}c;\
         policy={llc_policy:?};banks={dram_banks_per_mc};scale={}",
        mem_scale.divisor()
    )
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

        // A real store resolves the reference; the normalized form and the
        // plan's semantic hash are the content address itself.
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
        assert!(matches!(p.kind, PlanKind::WithMrc(PlanWorkload::Traced(_))));
        assert_eq!(p.semantic, Some(semantic_hash_of(&wl)));
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
    fn stage_caches_are_bounded_and_evict_least_recently_used() {
        const CAPACITY: usize = 4;
        let svc = PredictService::new(
            ServeConfig {
                cache_capacity: CAPACITY,
                ..ServeConfig::default()
            },
            ShutdownFlag::new(),
        )
        .expect("service starts");
        let predict = |footprint_mb: usize, target: u32| {
            let body = format!(
                r#"{{"pattern": {{"kind": "streaming", "footprint_mb": {footprint_mb}.0}}, "target_sms": {target}, "path": "fast"}}"#
            );
            let resp = svc.handle(&Request {
                method: "POST".into(),
                path: "/v1/predict".into(),
                headers: Vec::new(),
                body: body.into_bytes(),
            });
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        };
        let collects = || svc.metrics.collects_started.load(Ordering::Relaxed);
        let extra = 3;
        for footprint_mb in 1..=CAPACITY + extra {
            predict(footprint_mb, 64);
        }
        assert_eq!(collects(), (CAPACITY + extra) as u64);
        assert_eq!(svc.stages.collects.lock().len(), CAPACITY);

        // The newest workload is still staged: other targets, no collect.
        predict(CAPACITY + extra, 128);
        assert_eq!(collects(), (CAPACITY + extra) as u64);
        // The oldest was evicted: it collects again, within the bound.
        predict(1, 128);
        assert_eq!(collects(), (CAPACITY + extra) as u64 + 1);
        assert_eq!(svc.stages.collects.lock().len(), CAPACITY);
        assert_eq!(svc.metrics.content_hashes.load(Ordering::Relaxed), 0);
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
    fn config_encoding_is_exhaustive_and_scale_sensitive() {
        let a = encode_config(&GpuConfig::paper_target(8, MemScale::default()));
        let b = encode_config(&GpuConfig::paper_target(8, MemScale::new(16)));
        assert_ne!(a, b);
        assert!(a.contains("n_sms=8"));
        // The inert thread-count field must NOT affect the address.
        let mut cfg = GpuConfig::paper_target(8, MemScale::default());
        cfg.sim_threads = 7;
        assert_eq!(a, encode_config(&cfg));
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
