//! End-to-end test of trace ingestion and trace-driven prediction.
//!
//! Drives the acceptance scenario of the tracestore design brief over
//! real HTTP sockets: a trace uploaded to `POST /v1/traces` deduplicates
//! by content, and a `POST /v1/predict` naming its `trace_ref` returns
//! the *same prediction, byte for byte,* as the equivalent synthetic
//! request. Every trace predict runs exactly its own two scale models,
//! whether or not the server has simulated the same content before.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use gsim_serve::{PredictService, ServeConfig, Server, ServerConfig, ShutdownFlag};
use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

struct RunningServer {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    join: JoinHandle<()>,
}

impl RunningServer {
    fn start(cache_dir: &Path) -> Self {
        let shutdown = ShutdownFlag::new();
        let service = PredictService::new(
            ServeConfig {
                runner_threads: 2,
                cache_dir: Some(cache_dir.to_path_buf()),
                ..ServeConfig::default()
            },
            shutdown.clone(),
        )
        .expect("service starts");
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                threads: 4,
                ..ServerConfig::default()
            },
            shutdown.clone(),
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let join = std::thread::spawn(move || {
            server
                .serve(Arc::new(move |req| service.handle(req)))
                .expect("serve loop")
        });
        Self {
            addr,
            shutdown,
            join,
        }
    }

    fn stop(self) {
        self.shutdown.trigger();
        self.join.join().expect("server thread");
    }
}

/// Minimal one-shot HTTP client for a binary body.
fn request_bytes(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).expect("send head");
    s.write_all(body).expect("send body");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let status: u16 = std::str::from_utf8(&raw[..header_end])
        .expect("utf8 head")
        .split("\r\n")
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (status, raw[header_end + 4..].to_vec())
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    request_bytes(addr, method, path, body.as_bytes())
}

fn json_of(body: &[u8]) -> gsim_json::Json {
    gsim_json::parse(std::str::from_utf8(body).expect("utf8 body")).expect("json body")
}

fn metrics(addr: SocketAddr) -> gsim_json::Json {
    let (status, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    json_of(&body)
}

fn metric(doc: &gsim_json::Json, group: &str, name: &str) -> u64 {
    doc.get(group)
        .and_then(|g| g.get(name))
        .and_then(gsim_json::Json::as_u64)
        .unwrap_or_else(|| panic!("missing metric {group}.{name} in {}", doc.render()))
}

fn top_metric(doc: &gsim_json::Json, name: &str) -> u64 {
    doc.get(name)
        .and_then(gsim_json::Json::as_u64)
        .unwrap_or_else(|| panic!("missing metric {name} in {}", doc.render()))
}

fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gsim-serve-trace-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

/// The pattern request used throughout: a seeded randomized working-set
/// mix — unlike the deterministic sweep kinds, its address streams (and
/// therefore its semantic hash) depend on the seed, letting the tests
/// build distinct trace contents on demand.
fn pattern_request(seed: u64) -> String {
    // Pinned to the full path: this file's assertions are about the
    // timing simulations, which the functional-first fast path skips.
    format!(
        r#"{{"pattern": {{"kind": "working_set_mix", "footprint_mb": 4.0,
            "levels": [[1.0, 0.5]], "ctas": 128, "seed": {seed}}},
            "targets": [32, 64], "path": "full"}}"#
    )
}

/// Rebuilds exactly the workload `parse_pattern` derives from
/// [`pattern_request`] with every other field defaulted — the contract
/// the bit-for-bit assertion below depends on.
fn pattern_workload(seed: u64) -> Workload {
    let scale = MemScale::default();
    let spec = PatternSpec::new(
        PatternKind::WorkingSetMix {
            levels: vec![(1.0, 0.5)],
        },
        scale.mb_to_model_lines(4.0),
    )
    .mem_ops_per_warp(64)
    .compute_per_mem(2.0)
    .write_frac(0.0)
    .divergence(1)
    .tail_compute(0);
    Workload::new(
        "pattern",
        seed,
        vec![Kernel::new("pattern", 128, 256, spec)],
    )
    .with_footprint_mb(4.0)
}

fn trace_of(wl: &Workload) -> Vec<u8> {
    let mut bytes = Vec::new();
    gsim_trace::write_trace(wl, &mut bytes).expect("write trace");
    bytes
}

/// The deterministic prediction subdocuments: everything except the
/// echoed request (which legitimately differs between a pattern request
/// and a trace_ref request).
fn prediction_fields(doc: &gsim_json::Json) -> String {
    [
        "scale_models",
        "mrc",
        "correction_factor",
        "cliff_at",
        "predictions",
    ]
    .iter()
    .map(|k| {
        doc.get(k)
            .unwrap_or_else(|| panic!("missing {k} in {}", doc.render()))
            .render()
    })
    .collect::<Vec<_>>()
    .join("|")
}

#[test]
fn trace_predict_matches_synthetic_bit_for_bit_with_its_own_two_sims() {
    let cache_dir = fresh_cache_dir("predict");
    let server = RunningServer::start(&cache_dir);
    let addr = server.addr;

    // --- Synthetic prediction first: one MRC collection + 2 timing sims.
    let synthetic_body = pattern_request(42);
    let (status, body) = request(addr, "POST", "/v1/predict", &synthetic_body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let synthetic = json_of(&body);
    let m = metrics(addr);
    assert_eq!(top_metric(&m, "timing_sims_started"), 2, "{}", m.render());

    // --- Upload the trace of the identical workload; re-upload dedupes.
    let wl = pattern_workload(42); // matches the synthetic request above
    let trace = trace_of(&wl);
    assert!(trace.len() > 64 * 1024, "want a multi-chunk trace");
    let (status, body) = request_bytes(addr, "POST", "/v1/traces", &trace);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let meta = json_of(&body);
    let trace_ref = meta
        .get("ref")
        .and_then(|r| r.as_str())
        .expect("ref")
        .to_string();
    assert_eq!(
        meta.get("deduplicated").and_then(gsim_json::Json::as_bool),
        Some(false)
    );
    let (status, body) = request_bytes(addr, "POST", "/v1/traces", &trace);
    assert_eq!(status, 200);
    assert_eq!(
        json_of(&body)
            .get("deduplicated")
            .and_then(gsim_json::Json::as_bool),
        Some(true),
        "identical upload must deduplicate"
    );

    // --- Predict from the trace: prediction is byte-identical, from its
    // own two timing simulations.
    let trace_body =
        format!(r#"{{"trace_ref": "{trace_ref}", "targets": [32, 64], "path": "full"}}"#);
    let (status, body) = request(addr, "POST", "/v1/predict", &trace_body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let traced = json_of(&body);
    assert_eq!(
        prediction_fields(&synthetic),
        prediction_fields(&traced),
        "trace-driven prediction must be byte-identical to the synthetic path"
    );
    let m = metrics(addr);
    assert_eq!(
        top_metric(&m, "timing_sims_started"),
        4,
        "a trace predict runs exactly the two scale models: {}",
        m.render()
    );
    assert_eq!(metric(&m, "predict", "from_trace"), 1, "{}", m.render());
    assert_eq!(metric(&m, "trace_store", "ingests"), 1, "{}", m.render());
    assert_eq!(metric(&m, "trace_store", "dedup_hits"), 1, "{}", m.render());
    assert_eq!(metric(&m, "trace_store", "entries"), 1, "{}", m.render());

    // --- A trace the server has never simulated: exactly 2 scale-model
    // sims (the MRC comes from the functional collection, not the timing
    // core).
    let cold = trace_of(&pattern_workload(7));
    let (status, body) = request_bytes(addr, "POST", "/v1/traces", &cold);
    assert_eq!(status, 200);
    let cold_ref = json_of(&body)
        .get("ref")
        .and_then(|r| r.as_str())
        .expect("ref")
        .to_string();
    assert_ne!(cold_ref, trace_ref, "different seed, different content");
    let (status, _) = request(
        addr,
        "POST",
        "/v1/predict",
        &format!(r#"{{"trace_ref": "{cold_ref}", "targets": [32, 64], "path": "full"}}"#),
    );
    assert_eq!(status, 200);
    let m = metrics(addr);
    assert_eq!(
        top_metric(&m, "timing_sims_started"),
        6,
        "a cold trace predict runs exactly the two scale models: {}",
        m.render()
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn trace_api_lists_rejects_and_reports() {
    let cache_dir = fresh_cache_dir("api");
    let server = RunningServer::start(&cache_dir);
    let addr = server.addr;

    // Garbage uploads are rejected and counted.
    let (status, body) = request_bytes(addr, "POST", "/v1/traces", b"not a trace");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("invalid trace"));
    let (status, _) = request_bytes(addr, "POST", "/v1/traces", b"");
    assert_eq!(status, 400);

    // A valid upload appears in the catalog with its metadata.
    let wl = pattern_workload(5);
    let (status, body) = request_bytes(addr, "POST", "/v1/traces", &trace_of(&wl));
    assert_eq!(status, 200);
    let meta = json_of(&body);
    let trace_ref = meta
        .get("ref")
        .and_then(|r| r.as_str())
        .expect("ref")
        .to_string();
    assert_eq!(
        meta.get("kernels").and_then(gsim_json::Json::as_u64),
        Some(1)
    );
    assert_eq!(
        meta.get("warps").and_then(gsim_json::Json::as_u64),
        Some(128 * 8),
        "{}",
        meta.render()
    );

    let (status, body) = request(addr, "GET", "/v1/traces", "");
    assert_eq!(status, 200);
    let listing = json_of(&body);
    let traces = listing.get("traces").expect("traces array");
    let gsim_json::Json::Arr(items) = traces else {
        panic!("traces must be an array: {}", listing.render())
    };
    assert_eq!(items.len(), 1);
    assert_eq!(
        items[0].get("ref").and_then(|r| r.as_str()),
        Some(trace_ref.as_str())
    );

    // Predicting an unknown reference is a 404, not a 400 or 500.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"trace_ref": "00000000000000ab", "targets": [32]}"#,
    );
    assert_eq!(status, 404);

    let m = metrics(addr);
    assert_eq!(
        metric(&m, "trace_store", "validation_failures"),
        1,
        "{}",
        m.render()
    );
    assert_eq!(metric(&m, "trace_store", "entries"), 1, "{}", m.render());
    assert!(
        metric(&m, "trace_store", "store_bytes") > 0,
        "{}",
        m.render()
    );
    assert_eq!(metric(&m, "requests", "traces"), 4, "{}", m.render());

    // The same trace relabelled as version 1, the unframed format earlier
    // builds wrote, is refused like any unknown version and stores nothing.
    let mut v1 = trace_of(&wl);
    v1[4] = 1;
    let (status, body) = request_bytes(addr, "POST", "/v1/traces", &v1);
    assert_eq!(status, 400);
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("unsupported trace version 1"), "{text}");
    let m = metrics(addr);
    assert_eq!(metric(&m, "trace_store", "validation_failures"), 2);
    assert_eq!(metric(&m, "trace_store", "entries"), 1);

    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
