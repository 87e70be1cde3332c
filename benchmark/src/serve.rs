//! The three serve workloads: `serve_miss_fast`, `serve_miss_full`,
//! `serve_hit`. One harness — an in-process `PredictService` behind
//! `Server` on loopback, driven by keep-alive closed-loop clients (each
//! client sends its next request only after the reply to the last) —
//! and three traffic mixes that reach different layers.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gsim_core::plan::{
    collect_replay, collect_sampled, synthesize_observation, Fit, SampledCollectConfig,
};
use gsim_json::Json;
use gsim_mem::mrc::{DistanceEngine, TreeStack};
use gsim_runner::{RunOverrides, Runner, RunnerConfig};
use gsim_serve::{
    Handler, PredictService, Request, Response, ServeConfig, Server, ServerConfig, ShutdownFlag,
};
use gsim_sim::{GpuConfig, SimStats, Simulator};
use gsim_trace::suite::strong_suite;
use gsim_trace::MemScale;

use crate::harness::{guarded, host_factor, repeated_setup, timed_passes, RunCfg, Yardstick};
use crate::inputs::{hit_order, PredictRequest, Regime, RequestGen};
use crate::result::{peak_rss_mb, pool_threads, RunResult};
use crate::sim::{drain, set_engine_metrics, set_mrc_tree_metrics};
use crate::spans::{self, Recorder, PROBE_OP};
use crate::stats::{column_medians, median, min_median_max, percentile, tail_percentile};

/// Bodies in the `serve_hit` pool, all warmed during set-up.
const HIT_POOL: usize = 64;
/// Bodies the layer probes of a traced miss run replay (fast, full).
const PROBE_BODIES: (usize, usize) = (64, 8);
/// Line accesses the MRC engine is timed on, at most.
const MRC_LINE_CAP: usize = 1 << 20;
/// Direct `PredictService::handle` replays behind `handle_p50_us`.
const DIRECT_REPLAYS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    MissFast,
    MissFull,
    Hit,
}

impl Kind {
    /// Requests each client sends per pass. A pass is short so that a
    /// 10 s region repeats the identical list 20 times or more — what
    /// the fastest-observation estimates need; smoke mode divides by 50.
    fn requests_per_client(self, cfg: &RunCfg) -> usize {
        cfg.ops(match self {
            Kind::MissFast => 100,
            Kind::MissFull => 10,
            Kind::Hit => 2000,
        })
    }

    fn regime(self) -> Regime {
        match self {
            Kind::MissFull => Regime::ComputeBound,
            Kind::MissFast | Kind::Hit => Regime::MemoryBound,
        }
    }

    /// `X-Gsim-Path` every reply must carry.
    fn expected_path(self) -> &'static str {
        match self {
            Kind::MissFull => "full",
            Kind::MissFast | Kind::Hit => "fast",
        }
    }

    /// `X-Gsim-Cache` every timed reply must carry.
    fn expected_cache(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::MissFast | Kind::MissFull => "miss",
        }
    }
}

/// A reply as the client read it.
#[derive(Debug, Clone)]
struct Reply {
    status: u16,
    cache: String,
    path: String,
    body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads the whole reply; any transport error
    /// or truncated body is an `Err`.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        extra_headers: &str,
    ) -> Result<Reply, String> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{extra_headers}\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.stream
            .write_all(&req)
            .map_err(|e| format!("write: {e}"))?;
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| "reply head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1.1 "))
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| "malformed status line".to_string())?;
        let (mut length, mut cache, mut gsim_path) = (None, String::new(), String::new());
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-gsim-cache") {
                cache = value.to_string();
            } else if name.eq_ignore_ascii_case("x-gsim-path") {
                gsim_path = value.to_string();
            }
        }
        let length = length.ok_or_else(|| "reply has no Content-Length".to_string())?;
        let body_start = header_end + 4;
        while self.buf.len() < body_start + length {
            self.fill().map_err(|e| format!("truncated body ({e})"))?;
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Reply {
            status,
            cache,
            path: gsim_path,
            body,
        })
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

static SERVICE_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A fresh `PredictService` whose trace store lives under `out/`.
fn new_service(cfg: &RunCfg) -> Result<(Arc<PredictService>, ShutdownFlag, PathBuf), String> {
    let store = cfg.out_dir().join(format!(
        "tracestore-{}-{}",
        std::process::id(),
        SERVICE_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let shutdown = ShutdownFlag::new();
    let svc = PredictService::new(
        ServeConfig {
            runner_threads: pool_threads(),
            trace_store_dir: Some(store.clone()),
            ..ServeConfig::default()
        },
        shutdown.clone(),
    )
    .map_err(|e| format!("cannot start the service: {e}"))?;
    Ok((svc, shutdown, store))
}

/// The service behind its HTTP server, with the clients connected and
/// the fixed operation list of a pass.
struct Harness {
    shutdown: ShutdownFlag,
    server: Option<JoinHandle<std::io::Result<()>>>,
    store: PathBuf,
    clients: Vec<Client>,
    /// The distinct requests: every body of a miss workload, the warmed
    /// pool of `serve_hit`.
    requests: Vec<PredictRequest>,
    /// The operation list: client `c` sends `requests[plan[c][i]]` for
    /// `i = 0, 1, …`, the same in every pass.
    plan: Vec<Vec<usize>>,
    /// `serve_hit`: the body each pool member's miss returned, which
    /// every later hit must reproduce. Empty for the miss workloads.
    warm: Vec<Vec<u8>>,
}

impl Harness {
    fn start(kind: Kind, cfg: &RunCfg, rec: &Arc<Recorder>) -> Result<Self, String> {
        let (svc, shutdown, store) = new_service(cfg)?;
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                threads: pool_threads(),
                // One connection per client for the whole run.
                max_requests_per_conn: u32::MAX,
                ..ServerConfig::default()
            },
            shutdown.clone(),
        )
        .map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handler: Arc<Handler> = {
            let rec = Arc::clone(rec);
            // A traced request names its client span and operation; the
            // handler span then hangs below the client's.
            Arc::new(move |req: &Request| -> Response {
                match (req.header("x-bench-span"), req.header("x-bench-op")) {
                    (Some(span), Some(op)) if rec.enabled() => rec.span(
                        "gsim-serve.handle",
                        span.parse().unwrap_or(0),
                        op.parse().unwrap_or(0),
                        |_| svc.handle(req),
                    ),
                    _ => svc.handle(req),
                }
            })
        };
        let server = std::thread::Builder::new()
            .name("bench-http".into())
            .spawn(move || server.serve(handler))
            .map_err(|e| format!("cannot spawn the server thread: {e}"))?;
        let n = kind.requests_per_client(cfg);
        let n_clients = pool_threads();
        let mut gen = RequestGen::new(cfg.seed, kind.regime());
        let mut h = Self {
            shutdown,
            server: Some(server),
            store,
            clients: Vec::new(),
            requests: Vec::new(),
            plan: Vec::new(),
            warm: Vec::new(),
        };
        for _ in 0..n_clients {
            let mut client = Client::connect(addr)?;
            // Ready means a worker holds the connection: the accept loop
            // polls, and the first request would otherwise wait for it.
            let reply = client.request("GET", "/healthz", b"", "")?;
            if reply.status != 200 {
                return Err(format!("GET /healthz: status {}", reply.status));
            }
            h.clients.push(client);
        }
        if kind == Kind::Hit {
            // Warm the pool: one miss per body.
            h.requests = gen.take(HIT_POOL);
            for req in &h.requests {
                let reply = h.clients[0].request("POST", "/v1/predict", req.body.as_bytes(), "")?;
                if reply.status != 200 || reply.cache != "miss" {
                    return Err(format!(
                        "warming the pool: status {} cache {:?}",
                        reply.status, reply.cache
                    ));
                }
                h.warm.push(reply.body);
            }
            h.plan = (0..n_clients)
                .map(|c| hit_order(cfg.seed, c, HIT_POOL, n))
                .collect();
        } else {
            h.requests = gen.take(n * n_clients);
            h.plan = (0..n_clients)
                .map(|c| (c * n..(c + 1) * n).collect())
                .collect();
        }
        Ok(h)
    }

    /// Closes the clients, stops the server and waits for it to end.
    fn stop(mut self) {
        self.clients.clear();
        self.shutdown.trigger();
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }

    /// `GET /metrics`, on the first client's connection: every HTTP
    /// worker is held by a keep-alive client, so a further connection
    /// would wait for one of them to leave.
    fn metrics(&mut self) -> Result<Json, String> {
        let reply = self.clients[0].request("GET", "/metrics", b"", "")?;
        let text =
            String::from_utf8(reply.body).map_err(|_| "/metrics is not UTF-8".to_string())?;
        gsim_json::parse(&text).map_err(|e| format!("/metrics: {e}"))
    }
}

/// What one client brings back from a pass, in the order of its list.
#[derive(Default)]
struct ClientOut {
    /// Latency of every request, seconds; NaN where the request failed.
    latencies_s: Vec<f64>,
    /// Reply bodies of the miss workloads, kept for checking afterwards.
    bodies: Vec<Vec<u8>>,
    failures: Vec<String>,
    body_bytes: u64,
}

/// Runs one pass: client `c` sends its list in order, closed loop.
/// Returns the pass wall seconds and each client's results.
fn run_pass(kind: Kind, h: &mut Harness, rec: &Recorder, pass_idx: u64) -> (f64, Vec<ClientOut>) {
    let traced = rec.enabled();
    let (requests, warm) = (&h.requests, &h.warm);
    let root = rec.enter("bench.pass", 0, pass_idx);
    let t0 = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = h
            .clients
            .iter_mut()
            .zip(&h.plan)
            .enumerate()
            .map(|(c, (client, list))| {
                scope.spawn(move || {
                    let mut out = ClientOut::default();
                    let mut headers = String::new();
                    for (i, &r) in list.iter().enumerate() {
                        let op = pass_idx * 1_000_000 + (c * list.len() + i) as u64;
                        let open = rec.enter("client.request", root.id, op);
                        headers.clear();
                        if traced {
                            let _ = write!(
                                headers,
                                "X-Bench-Span: {}\r\nX-Bench-Op: {op}\r\n",
                                open.id
                            );
                        }
                        let t = Instant::now();
                        let reply = client.request(
                            "POST",
                            "/v1/predict",
                            requests[r].body.as_bytes(),
                            &headers,
                        );
                        let latency = t.elapsed().as_secs_f64();
                        rec.exit(open);
                        let failure = match reply {
                            Err(why) => Some(why),
                            Ok(reply) => {
                                out.body_bytes += reply.body.len() as u64;
                                if reply.status != 200
                                    || reply.cache != kind.expected_cache()
                                    || reply.path != kind.expected_path()
                                {
                                    Some(format!(
                                        "status {} cache {:?} path {:?}",
                                        reply.status, reply.cache, reply.path
                                    ))
                                } else if kind == Kind::Hit {
                                    (reply.body != warm[r]).then(|| {
                                        "hit body differs from the miss that warmed it".to_string()
                                    })
                                } else {
                                    out.bodies.push(reply.body);
                                    None
                                }
                            }
                        };
                        out.latencies_s
                            .push(if failure.is_some() { f64::NAN } else { latency });
                        out.failures
                            .extend(failure.map(|why| format!("request {op}: {why}")));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads catch their own errors"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    rec.exit(root);
    (wall, outs)
}

/// Checks a predict body: the schema tag, and a finite positive
/// scale-model IPC for every requested target.
fn check_body(req: &PredictRequest, body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = gsim_json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    if !doc
        .get("schema")
        .and_then(Json::as_str)
        .is_some_and(|s| s.starts_with("gsim-serve-predict-"))
    {
        return Err("body has no predict schema tag".to_string());
    }
    let predictions = doc
        .get("predictions")
        .and_then(Json::as_arr)
        .ok_or_else(|| "body has no predictions".to_string())?;
    for target in &req.targets {
        let ipc = predictions
            .iter()
            .find(|p| p.get("target").and_then(Json::as_u64) == Some(u64::from(*target)))
            .and_then(|p| p.get("ipc_by_method"))
            .and_then(|m| m.get("scale-model"))
            .and_then(Json::as_f64);
        if !ipc.is_some_and(|v| v.is_finite() && v > 0.0) {
            return Err(format!("no positive scale-model IPC for target {target}"));
        }
    }
    Ok(())
}

/// The scale-model IPC a predict body gives for `target`.
fn scale_model_ipc(body: &[u8], target: u32) -> Option<f64> {
    let doc = gsim_json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("predictions")?
        .as_arr()?
        .iter()
        .find(|p| p.get("target").and_then(Json::as_u64) == Some(u64::from(target)))?
        .get("ipc_by_method")?
        .get("scale-model")?
        .as_f64()
}

/// A number at a dotted path of the `/metrics` document; 0 when absent.
fn metric_at(doc: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// What the passes of one kind (untraced or traced) accumulate.
#[derive(Default)]
struct PassLog {
    /// Host-speed-adjusted wall seconds of every complete pass.
    walls: Vec<f64>,
    /// Raw wall seconds of the same passes, for the notes.
    raw_walls: Vec<f64>,
    /// `[pass][request]` adjusted latencies of every complete pass,
    /// seconds, in client-major list order: request `j` is the same in
    /// every pass.
    latencies_s: Vec<Vec<f64>>,
    /// `/metrics` before and after the first complete pass.
    counters: Option<(Json, Json)>,
    /// Requests and reply bodies of the first complete pass.
    first: Vec<(PredictRequest, Vec<u8>)>,
    body_bytes: u64,
    verify_s: f64,
}

/// One pass of the fixed operation list and everything checked around
/// it, outside its wall time: the counters the service kept over it, and
/// every reply body. A pass with a failed operation is left out of the
/// timings.
fn checked_pass(
    kind: Kind,
    h: &mut Harness,
    yard: &Yardstick,
    rec: &Recorder,
    pass_idx: u64,
    log: &mut PassLog,
    result: &mut RunResult,
) -> f64 {
    let before = h.metrics();
    // The yardstick is read while the service idles, either side of the pass.
    let y_before = yard.read();
    let (wall, outs) = run_pass(kind, h, rec, pass_idx);
    let factor = host_factor(y_before, yard.read());
    let after = h.metrics();
    let t0 = Instant::now();
    let failed_before = result.failed + result.violations.len() as u64;
    let requests: u64 = h.plan.iter().map(|l| l.len() as u64).sum();
    result.attempted += requests;
    match (&before, &after) {
        (Ok(b), Ok(a)) => check_counters(kind, b, a, requests, result),
        (Err(why), _) | (_, Err(why)) => result.violate(format!("GET /metrics: {why}")),
    }
    let mut latencies = Vec::new();
    let mut first = Vec::new();
    let mut body_bytes = 0;
    for (out, list) in outs.into_iter().zip(&h.plan) {
        for why in out.failures {
            result.fail(format!("pass {pass_idx}: {why}"));
        }
        latencies.extend(out.latencies_s.iter().map(|s| s / factor));
        body_bytes += out.body_bytes;
        if kind == Kind::Hit {
            first.extend(
                list.iter()
                    .map(|&r| (h.requests[r].clone(), h.warm[r].clone())),
            );
        } else if out.bodies.len() == list.len() {
            for (&r, body) in list.iter().zip(out.bodies) {
                if let Err(why) = check_body(&h.requests[r], &body) {
                    result.fail(format!("pass {pass_idx}: {why}"));
                }
                first.push((h.requests[r].clone(), body));
            }
        }
    }
    if result.failed + result.violations.len() as u64 == failed_before {
        if log.walls.is_empty() {
            log.first = first;
            log.body_bytes = body_bytes;
            if let (Ok(b), Ok(a)) = (before, after) {
                log.counters = Some((b, a));
            }
        }
        log.walls.push(wall / factor);
        log.raw_walls.push(wall);
        log.latencies_s.push(latencies);
    }
    log.verify_s += t0.elapsed().as_secs_f64();
    wall
}

/// `/metrics` deltas over the timed region, checked against what the
/// workload must look like from the service's side.
fn check_counters(kind: Kind, before: &Json, after: &Json, requests: u64, result: &mut RunResult) {
    let delta = |path: &str| metric_at(after, path) - metric_at(before, path);
    let (hits, misses) = (delta("predict.cache_hits"), delta("predict.cache_misses"));
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        -1.0
    };
    let want = if kind == Kind::Hit { 1.0 } else { 0.0 };
    if hit_ratio != want {
        result.violate(format!(
            "hit ratio over the timed region is {hit_ratio}, must be {want}"
        ));
    }
    if hits + misses != requests as f64 {
        result.violate(format!(
            "the service counted {} predicts, the clients sent {requests}",
            hits + misses
        ));
    }
    let sims = delta("timing_sims_started");
    let (want_sims, want_fast) = match kind {
        Kind::MissFast => (0.0, requests as f64),
        Kind::MissFull => (2.0 * requests as f64, 0.0),
        Kind::Hit => (0.0, 0.0),
    };
    if sims != want_sims || delta("predict.fast_path") != want_fast {
        result.violate(format!(
            "{sims} timing sims and {} fast-path answers over the timed region, expected {want_sims} and {want_fast}",
            delta("predict.fast_path")
        ));
    }
    let stray = delta("predict.coalesced")
        + delta("predict.stage_collect_hits")
        + delta("overload.shed_cheap")
        + delta("overload.shed_heavy");
    if stray != 0.0 {
        result.violate(format!(
            "{stray} coalesced, stage-cache-hit or shed requests: the bodies were not distinct or the service was over budget"
        ));
    }
}

fn set_counter_metrics(before: &Json, after: &Json, result: &mut RunResult) {
    let delta = |path: &str| metric_at(after, path) - metric_at(before, path);
    let (hits, misses) = (delta("predict.cache_hits"), delta("predict.cache_misses"));
    result.set("gsim-serve.cache_hits", hits);
    result.set("gsim-serve.cache_misses", misses);
    if hits + misses > 0.0 {
        result.set("gsim-serve.hit_ratio", hits / (hits + misses));
    }
    result.set("gsim-serve.coalesced", delta("predict.coalesced"));
    result.set("gsim-serve.fast_path", delta("predict.fast_path"));
    result.set("gsim-serve.escalated", delta("predict.escalated"));
    result.set(
        "gsim-serve.stage_collect_hits",
        delta("predict.stage_collect_hits"),
    );
    result.set(
        "gsim-serve.timing_sims_started",
        delta("timing_sims_started"),
    );
    result.set("gsim-serve.collects_started", delta("collects_started"));
    result.set(
        "gsim-serve.shed",
        delta("overload.shed_cheap") + delta("overload.shed_heavy"),
    );
    result.set(
        "gsim-serve.stage_collect_p50_us",
        metric_at(after, "stage_collect_us.p50"),
    );
    result.set(
        "gsim-serve.stage_fit_p50_us",
        metric_at(after, "stage_fit_us.p50"),
    );
    result.set(
        "gsim-serve.stage_predict_p50_us",
        metric_at(after, "stage_predict_us.p50"),
    );
    result.set("gsim-runner.jobs", delta("runner_jobs_started"));
}

fn predict_request(body: &[u8]) -> Request {
    Request {
        method: "POST".into(),
        path: "/v1/predict".into(),
        headers: vec![("content-type".into(), "application/json".into())],
        body: body.to_vec(),
    }
}

/// Replays `first` straight through `PredictService::handle` on a fresh
/// service, from as many threads as there were clients, and returns the
/// latencies in the order of `first`. Bodies must equal the ones HTTP
/// returned, byte for byte.
fn direct_replay(
    kind: Kind,
    svc: &PredictService,
    first: &[(PredictRequest, Vec<u8>)],
    rec: &Recorder,
    parent: u32,
    result: &mut RunResult,
) -> Vec<f64> {
    if kind == Kind::Hit {
        // Warm every distinct body once; the replay below then hits.
        let mut seen = std::collections::HashSet::new();
        for (req, _) in first {
            if seen.insert(req.body.as_str()) {
                svc.handle(&predict_request(req.body.as_bytes()));
            }
        }
    }
    let chunk = first.len().div_ceil(pool_threads()).max(1);
    let outs: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = first
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let (mut lat, mut bad) = (Vec::new(), Vec::new());
                    for (req, http_body) in part {
                        let request = predict_request(req.body.as_bytes());
                        let t = Instant::now();
                        let resp = rec.span("gsim-serve.handle", parent, PROBE_OP, |_| {
                            svc.handle(&request)
                        });
                        lat.push(t.elapsed().as_secs_f64());
                        if resp.status != 200 || resp.body != *http_body {
                            bad.push(format!(
                                "direct handle: status {} and a body {} the HTTP one",
                                resp.status,
                                if resp.body == *http_body {
                                    "equal to"
                                } else {
                                    "unlike"
                                }
                            ));
                        }
                    }
                    (lat, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay threads do not panic"))
            .collect()
    });
    let mut latencies = Vec::new();
    for (lat, bad) in outs {
        result.attempted += lat.len() as u64;
        latencies.extend(lat);
        for why in bad {
            result.fail(why);
        }
    }
    latencies
}

/// gsim-json alone: parse and render every request and reply body.
fn json_probe(
    first: &[(PredictRequest, Vec<u8>)],
    rec: &Recorder,
    parent: u32,
    result: &mut RunResult,
) {
    let texts: Vec<&str> = first
        .iter()
        .flat_map(|(req, body)| {
            [
                req.body.as_str(),
                std::str::from_utf8(body).unwrap_or("null"),
            ]
        })
        .collect();
    let docs: Vec<Json> = rec.span("gsim-json.parse", parent, PROBE_OP, |_| {
        texts
            .iter()
            .map(|t| gsim_json::parse(t).unwrap_or(Json::Null))
            .collect()
    });
    let rendered: usize = rec.span("gsim-json.render", parent, PROBE_OP, |_| {
        docs.iter()
            .map(|d| std::hint::black_box(d.render()).len())
            .sum()
    });
    result.set(
        "gsim-json.bytes",
        texts.iter().map(|t| t.len()).sum::<usize>() as f64,
    );
    if rendered == 0 {
        result.fail("gsim-json rendered nothing");
    }
}

/// The paper's 8 → 128 SM ladder at the default memory miniature, which
/// is what the generated requests ask about.
fn ladder() -> Vec<GpuConfig> {
    [8u32, 16, 32, 64, 128]
        .iter()
        .map(|&s| GpuConfig::paper_target(s, MemScale::default()))
        .collect()
}

/// The layers below a fast-path miss, on the first bodies' own
/// workloads: sampled collection on a runner pool, the fit, the forecast,
/// and the exact stack-distance engine on their line stream.
/// Returns how many line accesses the engine was timed on.
fn fast_layer_probe(
    first: &[(PredictRequest, Vec<u8>)],
    rec: &Recorder,
    parent: u32,
    result: &mut RunResult,
) -> usize {
    let configs = ladder();
    let runner = Runner::new(RunnerConfig {
        threads: pool_threads(),
        timeout: None,
        retry_once: false,
    });
    let mut lines = Vec::new();
    for (req, _) in first.iter().take(PROBE_BODIES.0) {
        let wl = req.pattern.workload();
        let collected = rec.span("gsim-core.collect_sampled", parent, PROBE_OP, |_| {
            collect_sampled(
                &wl,
                &configs,
                &SampledCollectConfig::default(),
                Some((&runner, RunOverrides::default())),
            )
        });
        let Ok(collected) = collected else {
            result.fail("collect_sampled failed on a request's workload");
            continue;
        };
        let fit = rec.span("gsim-core.fit", parent, PROBE_OP, |_| {
            Fit::new(
                synthesize_observation(&collected, &configs[0]),
                synthesize_observation(&collected, &configs[1]),
                Some(&collected.sized_mrc()),
            )
        });
        match fit {
            Err(e) => result.fail(format!("fit failed on a request's workload: {e}")),
            Ok(fit) => {
                let forecast = rec.span("gsim-core.forecast", parent, PROBE_OP, |_| {
                    fit.forecast(&req.targets)
                });
                if forecast.is_err() {
                    result.fail("forecast failed on a request's workload");
                }
            }
        }
        drain(&wl, Some((&mut lines, MRC_LINE_CAP)));
    }
    rec.span("gsim-mem.mrc_tree", parent, PROBE_OP, |_| {
        let mut e = TreeStack::with_capacity(lines.len());
        e.record_all(lines.iter().copied());
        std::hint::black_box(e.finish());
    });
    lines.len()
}

/// The layers below a full-path miss, on the first bodies' own
/// workloads: the two scale-model timing simulations and the replay MRC.
/// Returns the simulations' stats.
fn full_layer_probe(
    first: &[(PredictRequest, Vec<u8>)],
    rec: &Recorder,
    parent: u32,
) -> Vec<SimStats> {
    let configs = ladder();
    let mut stats = Vec::new();
    for (req, _) in first.iter().take(PROBE_BODIES.1) {
        let wl = req.pattern.workload();
        for cfg in &configs[..2] {
            let sim = rec.span("gsim-sim.new", parent, PROBE_OP, |_| {
                Simulator::new(cfg.clone(), &wl)
            });
            stats.push(rec.span("gsim-sim.run", parent, PROBE_OP, |_| sim.run()));
        }
        rec.span("gsim-core.collect_replay", parent, PROBE_OP, |_| {
            std::hint::black_box(collect_replay(&wl, &configs));
        });
    }
    stats
}

/// How far the fast path's 128-SM forecast sits from the full path's,
/// over the Table II benchmarks the gate calls memory-bound: both asked
/// of the service itself, `"path": "fast"` against `"path": "full"`.
fn fast_vs_full_probe(svc: &PredictService, rec: &Recorder, parent: u32, result: &mut RunResult) {
    let ladder = ladder();
    let mut errs = Vec::new();
    for bench in strong_suite(MemScale::default()) {
        let memory_bound = collect_sampled(
            &bench.workload,
            &ladder,
            &SampledCollectConfig::default(),
            None,
        )
        .is_ok_and(|c| c.is_memory_bound(&ladder[1], 1.0));
        if !memory_bound {
            continue;
        }
        let ask = |path: &str| {
            let body = format!(
                r#"{{"workload":"{}","targets":[128],"path":"{path}"}}"#,
                bench.abbr
            );
            result_of(rec, parent, svc, &body)
        };
        result.attempted += 2;
        match (ask("fast"), ask("full")) {
            (Some(fast), Some(full)) if full > 0.0 => errs.push((fast - full).abs() / full * 100.0),
            _ => result.fail(format!(
                "{}: fast or full predict gave no 128-SM forecast",
                bench.abbr
            )),
        }
    }
    if !errs.is_empty() {
        result.set(
            "gsim-core.fast_vs_full_err_mean_pct",
            errs.iter().sum::<f64>() / errs.len() as f64,
        );
        result.notes.push(format!(
            "fast_vs_full_err_mean_pct is over the {} Table II benchmarks the gate calls memory-bound",
            errs.len()
        ));
    }
}

fn result_of(rec: &Recorder, parent: u32, svc: &PredictService, body: &str) -> Option<f64> {
    let resp = rec.span("gsim-serve.handle", parent, PROBE_OP, |_| {
        svc.handle(&predict_request(body.as_bytes()))
    });
    (resp.status == 200)
        .then(|| scale_model_ipc(&resp.body, 128))
        .flatten()
}

/// Runs one of the serve workloads.
pub fn run(cfg: &RunCfg) -> RunResult {
    let kind = match cfg.workload.as_str() {
        "serve_miss_fast" => Kind::MissFast,
        "serve_miss_full" => Kind::MissFull,
        _ => Kind::Hit,
    };
    let mut result = RunResult::default();
    let rec = Arc::new(Recorder::new(cfg.trace));
    let off = Recorder::new(false);
    if let Err(e) = std::fs::create_dir_all(cfg.out_dir()) {
        result.violate(format!("cannot create {}: {e}", cfg.out_dir().display()));
        return result;
    }
    let yard = Yardstick::new();
    let (started, setup_s) = repeated_setup(
        cfg,
        &yard,
        || Harness::start(kind, cfg, &rec),
        |h| {
            if let Ok(h) = h {
                h.stop();
            }
        },
    );
    let mut h = match started {
        Ok(h) => h,
        Err(why) => {
            result.attempted = 1;
            result.fail(format!("set-up: {why}"));
            return result;
        }
    };
    let (mut untraced, mut traced) = (PassLog::default(), PassLog::default());
    let mut rss = 0.0;
    let mut used = false;
    // Every pass of a miss workload needs a service that has seen none of
    // its bodies: a fresh one, started outside the pass's wall time.
    let fresh = |h: &mut Harness, used: &mut bool, result: &mut RunResult| {
        if kind != Kind::Hit && std::mem::replace(used, true) {
            match Harness::start(kind, cfg, &rec) {
                Ok(new) => std::mem::replace(h, new).stop(),
                Err(why) => result.violate(format!("restarting the service: {why}")),
            }
        }
    };
    timed_passes(cfg, 1, |i| {
        let idx = if cfg.trace { 2 * i } else { i };
        fresh(&mut h, &mut used, &mut result);
        let mut wall = checked_pass(kind, &mut h, &yard, &off, idx, &mut untraced, &mut result);
        if i == 0 {
            rss = peak_rss_mb();
        }
        if cfg.trace {
            fresh(&mut h, &mut used, &mut result);
            wall += checked_pass(kind, &mut h, &yard, &rec, idx + 1, &mut traced, &mut result);
        }
        wall
    });
    // Medians over the passes of host-speed-adjusted times: of the pass
    // as a whole, and of every request of the list.
    let wall_s = median(&untraced.walls);
    let lat_ms: Vec<f64> = column_medians(&untraced.latencies_s)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let p50_ms = median(&lat_ms);

    if !cfg.trace {
        h.stop();
        result.set("setup_s", setup_s);
        result.set("wall_s", wall_s);
        result.set("op_p50_ms", p50_ms);
        result.set("peak_rss_mb", rss);
        result.notes.push(format!(
            "closed loop, {} keep-alive clients, {} HTTP workers, {} runner threads; {} passes of {} requests per client (raw pass wall {}); wall_s is the median host-speed-adjusted pass, op_p50_ms the median over the {} requests of each one's median adjusted latency",
            pool_threads(),
            pool_threads(),
            pool_threads(),
            untraced.walls.len(),
            kind.requests_per_client(cfg),
            min_median_max(&untraced.raw_walls),
            lat_ms.len()
        ));
        result.notes.push(yard.summary());
        return result;
    }

    // Probes, outside the timed region: the same bodies through the
    // layers one at a time.
    let probe_t0 = Instant::now();
    let probes = rec.enter("bench.probes", 0, PROBE_OP);
    let first = std::mem::take(&mut untraced.first);
    // Three replays, each on a service that has seen none of the bodies
    // (`serve_hit` warms its own), adjusted like the loopback latencies
    // they are subtracted from; per request, the median of the three.
    let mut replays: Vec<Vec<f64>> = Vec::new();
    for replay in 0..DIRECT_REPLAYS {
        match new_service(cfg) {
            Err(why) => result.violate(why),
            Ok((svc, _shutdown, store)) => {
                let before = yard.read();
                let direct =
                    guarded(|| direct_replay(kind, &svc, &first, &rec, probes.id, &mut result));
                let factor = host_factor(before, yard.read());
                match direct {
                    Ok(lat) => replays.push(lat.iter().map(|s| s / factor).collect()),
                    Err(why) => result.fail(format!("direct replay panicked: {why}")),
                }
                if kind == Kind::MissFast && replay == 0 && !cfg.smoke {
                    fast_vs_full_probe(&svc, &rec, probes.id, &mut result);
                }
                drop(svc);
                let _ = std::fs::remove_dir_all(store);
            }
        }
    }
    let handle_p50_us = median(&column_medians(&replays)) * 1e6;
    json_probe(&first, &rec, probes.id, &mut result);
    let (mut mrc_lines, mut sim_stats) = (0, Vec::new());
    match kind {
        Kind::MissFast => mrc_lines = fast_layer_probe(&first, &rec, probes.id, &mut result),
        Kind::MissFull => sim_stats = full_layer_probe(&first, &rec, probes.id),
        Kind::Hit => {}
    }
    rec.exit(probes);
    let probe_s = probe_t0.elapsed().as_secs_f64();
    h.stop();

    let all = rec.snapshot();
    let totals = spans::totals_by_name(&all);
    let t = |name: &str| spans::total_s(&totals, name);
    if let Some((b, a)) = &untraced.counters {
        set_counter_metrics(b, a, &mut result);
    }
    let tail = tail_percentile(lat_ms.len());
    result.set("gsim-serve.predict_p50_ms", p50_ms);
    if wall_s > 0.0 {
        result.set("gsim-serve.predict_rps", lat_ms.len() as f64 / wall_s);
    }
    result.set("gsim-serve.handle_p50_us", handle_p50_us);
    result.set(
        "gsim-serve.http_overhead_p50_us",
        p50_ms * 1e3 - handle_p50_us,
    );
    result.set("gsim-serve.latency_tail_ms", percentile(&lat_ms, tail));
    result.set("gsim-serve.tail_percentile", tail);
    result.set("gsim-serve.body_bytes", untraced.body_bytes as f64);
    result.set("gsim-json.parse_s", t("gsim-json.parse"));
    result.set("gsim-json.render_s", t("gsim-json.render"));
    result.set(
        "gsim-core.collect_sampled_s",
        t("gsim-core.collect_sampled"),
    );
    result.set("gsim-core.collect_replay_s", t("gsim-core.collect_replay"));
    result.set("gsim-core.fit_s", t("gsim-core.fit"));
    result.set("gsim-core.forecast_s", t("gsim-core.forecast"));
    set_engine_metrics(
        &mut result,
        &sim_stats,
        t("gsim-sim.new"),
        t("gsim-sim.run"),
    );
    set_mrc_tree_metrics(&mut result, t("gsim-mem.mrc_tree"), mrc_lines);
    let traced_wall = median(&traced.walls);
    if wall_s > 0.0 {
        result.set(
            "bench.trace_overhead_pct",
            (traced_wall - wall_s) / wall_s * 100.0,
        );
    }
    result.set("bench.verify_s", untraced.verify_s + traced.verify_s);
    result.set("bench.spans", all.len() as f64);
    result.set("bench.passes", traced.walls.len() as f64);
    result.set("bench.wall_s_untraced", wall_s);
    result.set("bench.wall_s_traced", traced_wall);
    result.set("bench.probe_s", probe_s);
    result.set("bench.peak_rss_mb", peak_rss_mb());
    result.notes.push(format!(
        "latency_tail_ms is p{tail} of the {} requests' median adjusted latencies; handle_p50_us is the median of {DIRECT_REPLAYS} direct replays of the same bodies on fresh services; the other probe times are raw seconds",
        lat_ms.len()
    ));
    result.notes.push(yard.summary());
    crate::write_trace(cfg, &all, &mut result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_paths_walk_nested_objects() {
        let doc =
            gsim_json::parse(r#"{"predict":{"cache_hits":3},"timing_sims_started":8}"#).unwrap();
        assert_eq!(metric_at(&doc, "predict.cache_hits"), 3.0);
        assert_eq!(metric_at(&doc, "timing_sims_started"), 8.0);
        assert_eq!(metric_at(&doc, "predict.absent"), 0.0);
    }

    #[test]
    fn body_check_wants_a_positive_ipc_per_target() {
        let req = RequestGen::new(1, Regime::MemoryBound).take(1).remove(0);
        let row = |t: u32, ipc: f64| {
            format!(r#"{{"target":{t},"ipc_by_method":{{"scale-model":{ipc}}}}}"#)
        };
        let rows: Vec<String> = req.targets.iter().map(|&t| row(t, 10.5)).collect();
        let good = format!(
            r#"{{"schema":"gsim-serve-predict-fast-v1","predictions":[{}]}}"#,
            rows.join(",")
        );
        assert_eq!(check_body(&req, good.as_bytes()), Ok(()));
        assert_eq!(scale_model_ipc(good.as_bytes(), req.targets[0]), Some(10.5));
        let zero = good.replace("10.5", "0");
        assert!(check_body(&req, zero.as_bytes()).is_err());
        assert!(check_body(&req, &good.as_bytes()[..good.len() / 2]).is_err());
        assert!(check_body(
            &req,
            br#"{"schema":"gsim-serve-predict-v1","predictions":[]}"#
        )
        .is_err());
    }
}
