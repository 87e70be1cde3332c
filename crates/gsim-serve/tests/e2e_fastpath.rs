//! End-to-end tests of the staged functional-first fast path over real
//! HTTP sockets: memory-bound `auto` predicts answer from the collected
//! curve without scheduling a single timing simulation, every result-cache
//! miss collects once on the request's own thread, compute-sensitive
//! workloads escalate to a body that is byte-identical to a forced-full
//! computation, a full body prints the fast path's curve at its own
//! sizes, every response names the path it took in `X-Gsim-Path`,
//! and the collection honours the request deadline. One in-process test
//! pins which Table II forecasts the fast path puts above the issue peak.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gsim_serve::{PredictService, Request, ServeConfig, Server, ServerConfig, ShutdownFlag};
use gsim_trace::suite::strong_suite;
use gsim_trace::MemScale;

struct RunningServer {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    join: JoinHandle<()>,
}

impl RunningServer {
    fn start(cfg: ServeConfig) -> Self {
        let shutdown = ShutdownFlag::new();
        let service = PredictService::new(cfg, shutdown.clone()).expect("service starts");
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), shutdown.clone())
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

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    request_with(addr, method, path, &[], body.as_bytes())
}

fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let extra: String = extra_headers
        .iter()
        .map(|(k, v)| format!("{k}: {v}\r\n"))
        .collect();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{extra}Content-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).expect("send head");
    s.write_all(body).expect("send body");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read response");
    let header_end = out
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&out[..header_end]).expect("utf8 head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, out[header_end + 4..].to_vec())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn metrics(addr: SocketAddr) -> gsim_json::Json {
    let (status, _, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    gsim_json::parse(std::str::from_utf8(&body).expect("utf8 metrics")).expect("metrics json")
}

fn metric_at(doc: &gsim_json::Json, path: &[&str]) -> u64 {
    let mut node = doc;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("missing metric {} in {}", path.join("."), doc.render()));
    }
    node.as_u64().unwrap_or_else(|| {
        panic!(
            "metric {} is not a counter: {}",
            path.join("."),
            doc.render()
        )
    })
}

#[test]
fn memory_bound_auto_predicts_answer_from_the_fast_path_without_timing_sims() {
    let server = RunningServer::start(ServeConfig::default());
    let addr = server.addr;

    // bfs is memory-bound (measured pressure well above the default
    // gate of 1.0), so the default `auto` path answers functionally.
    let body = r#"{"workload": "bfs", "targets": [32, 64]}"#;
    let (status, headers, first) = request(addr, "POST", "/v1/predict", body);
    assert_eq!(
        status,
        200,
        "fast predict failed: {}",
        String::from_utf8_lossy(&first)
    );
    assert_eq!(header(&headers, "x-gsim-cache"), Some("miss"));
    assert_eq!(header(&headers, "x-gsim-path"), Some("fast"));
    let text = std::str::from_utf8(&first).expect("utf8 body");
    assert!(
        text.contains("\"schema\":\"gsim-serve-predict-fast-v1\""),
        "{text}"
    );
    assert!(text.contains("\"fast_path\":true"), "{text}");
    assert!(text.contains("\"forced\":false"), "{text}");
    assert!(text.contains("\"predictions\""), "{text}");

    let m = metrics(addr);
    assert_eq!(
        metric_at(&m, &["predict", "fast_path"]),
        1,
        "{}",
        m.render()
    );
    assert_eq!(
        metric_at(&m, &["predict", "escalated"]),
        0,
        "{}",
        m.render()
    );
    assert_eq!(
        metric_at(&m, &["timing_sims_started"]),
        0,
        "the fast path must not schedule timing simulations: {}",
        m.render()
    );
    assert_eq!(metric_at(&m, &["collects_started"]), 1, "{}", m.render());

    // A byte-identical repeat is a result-cache hit that still reports
    // the path its cached body took.
    let (status, headers, again) = request(addr, "POST", "/v1/predict", body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-gsim-cache"), Some("hit"));
    assert_eq!(header(&headers, "x-gsim-path"), Some("fast"));
    assert_eq!(first, again, "cached fast bodies replay byte-identically");

    // Same content, different targets: a result-cache miss, so it
    // collects again — still zero timing sims.
    let other = r#"{"workload": "bfs", "targets": [128]}"#;
    let (status, headers, _) = request(addr, "POST", "/v1/predict", other);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-gsim-cache"), Some("miss"));
    assert_eq!(header(&headers, "x-gsim-path"), Some("fast"));
    let m = metrics(addr);
    assert_eq!(metric_at(&m, &["collects_started"]), 2, "{}", m.render());
    assert_eq!(metric_at(&m, &["timing_sims_started"]), 0, "{}", m.render());

    // Stage latencies were observed: a collection, a fit and a forecast
    // per computed prediction.
    assert!(
        metric_at(&m, &["stage_collect_us", "count"]) >= 2,
        "{}",
        m.render()
    );
    assert!(
        metric_at(&m, &["stage_fit_us", "count"]) >= 2,
        "{}",
        m.render()
    );
    assert!(
        metric_at(&m, &["stage_predict_us", "count"]) >= 2,
        "{}",
        m.render()
    );
    server.stop();
}

#[test]
fn forced_fast_after_auto_is_its_own_entry_and_collects_again() {
    let server = RunningServer::start(ServeConfig::default());
    let addr = server.addr;

    let (status, _, _) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload": "dct", "targets": [32]}"#,
    );
    assert_eq!(status, 200);

    // Forcing the fast path on the same content addresses a different
    // result-cache entry (the body records `forced`): a miss that runs
    // its own collection.
    let (status, headers, body) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload": "dct", "targets": [32], "path": "fast"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-gsim-cache"), Some("miss"));
    assert_eq!(header(&headers, "x-gsim-path"), Some("fast"));
    let text = std::str::from_utf8(&body).expect("utf8 body");
    assert!(text.contains("\"forced\":true"), "{text}");

    let m = metrics(addr);
    assert_eq!(metric_at(&m, &["collects_started"]), 2, "{}", m.render());
    assert_eq!(metric_at(&m, &["timing_sims_started"]), 0, "{}", m.render());
    server.stop();
}

#[test]
fn compute_bound_auto_escalates_to_bytes_identical_to_forced_full() {
    let server = RunningServer::start(ServeConfig::default());
    let addr = server.addr;

    // gemm's measured pressure sits below the gate: the collection runs
    // for the gate's sake, then the predict escalates to real sims.
    let (status, headers, escalated) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload": "gemm", "targets": [32, 64]}"#,
    );
    assert_eq!(
        status,
        200,
        "escalated predict failed: {}",
        String::from_utf8_lossy(&escalated)
    );
    assert_eq!(header(&headers, "x-gsim-path"), Some("full"));
    let text = std::str::from_utf8(&escalated).expect("utf8 body");
    assert!(
        text.contains("\"schema\":\"gsim-serve-predict-v1\""),
        "{text}"
    );
    assert!(!text.contains("\"fast_path\""), "{text}");

    let m = metrics(addr);
    assert_eq!(
        metric_at(&m, &["predict", "escalated"]),
        1,
        "{}",
        m.render()
    );
    assert_eq!(
        metric_at(&m, &["predict", "fast_path"]),
        0,
        "{}",
        m.render()
    );
    assert_eq!(
        metric_at(&m, &["timing_sims_started"]),
        2,
        "escalation runs the 8- and 16-SM sims: {}",
        m.render()
    );

    // The same content forced onto the full path addresses a different
    // result-cache entry, so this is a fresh computation — and its body
    // must be byte-identical to what the escalation produced.
    let (status, headers, forced) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload": "gemm", "targets": [32, 64], "path": "full"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-gsim-cache"), Some("miss"));
    assert_eq!(header(&headers, "x-gsim-path"), Some("full"));
    assert_eq!(
        escalated, forced,
        "escalated and forced-full bodies must match byte for byte"
    );
    server.stop();
}

#[test]
fn a_full_path_predict_collects_once_and_prints_the_fast_paths_curve() {
    let server = RunningServer::start(ServeConfig::default());
    let addr = server.addr;
    let predict = |body: &str| {
        let (status, headers, resp) = request(addr, "POST", "/v1/predict", body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
        assert_eq!(header(&headers, "x-gsim-cache"), Some("miss"));
        let path = header(&headers, "x-gsim-path").expect("path").to_string();
        (path, resp)
    };
    let counts = || {
        let m = metrics(addr);
        [
            metric_at(&m, &["runner_jobs_started"]),
            metric_at(&m, &["collects_started"]),
        ]
    };

    // gemm escalates: one collection for the gate and the curve, then
    // exactly the two scale-model sims on the pool.
    let (path, _) = predict(r#"{"workload": "gemm", "targets": [32, 64]}"#);
    assert_eq!(path, "full");
    assert_eq!(counts(), [2, 1], "escalated: [runner jobs, collections]");
    let (path, full) = predict(r#"{"workload": "gemm", "targets": [32, 64, 128], "path": "full"}"#);
    assert_eq!(path, "full");
    assert_eq!(counts(), [4, 2], "forced full: [runner jobs, collections]");
    let (path, fast) = predict(r#"{"workload": "gemm", "targets": [32, 64, 128], "path": "fast"}"#);
    assert_eq!(path, "fast");
    assert_eq!(counts(), [4, 3], "forced fast: no runner job");

    // The full body's curve is the fast body's at the full ladder's
    // sizes, bit for bit.
    let curve = |body: &[u8]| -> Vec<(u64, u64)> {
        let doc = gsim_json::parse(std::str::from_utf8(body).expect("utf8")).expect("json");
        doc.get("mrc")
            .and_then(|m| m.as_arr())
            .expect("mrc")
            .iter()
            .map(|p| {
                let p = p.as_arr().expect("point");
                let mpki = p[1].as_f64().expect("mpki");
                (p[0].as_u64().expect("size"), mpki.to_bits())
            })
            .collect()
    };
    let full = curve(&full);
    let sizes: Vec<u64> = full.iter().map(|&(size, _)| size).collect();
    assert_eq!(sizes, [8, 16, 32, 64, 128]);
    let fast: Vec<(u64, u64)> = curve(&fast)
        .into_iter()
        .filter(|(size, _)| sizes.contains(size))
        .collect();
    assert_eq!(full, fast);
    server.stop();
}

#[test]
fn a_fast_path_collection_runs_on_the_request_thread() {
    let server = RunningServer::start(ServeConfig::default());
    let addr = server.addr;

    // One memory-bound pattern, two target sets: two result-cache
    // misses, two collections, no runner job.
    let body = |targets: &str| {
        format!(
            r#"{{"pattern": {{"kind": "global_sweep", "footprint_mb": 48.0, "passes": 2,
                "compute_per_mem": 1.0}}, "targets": {targets}}}"#
        )
    };
    for targets in ["[32, 64]", "[128, 256]"] {
        let (status, headers, resp) = request(addr, "POST", "/v1/predict", &body(targets));
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
        assert_eq!(header(&headers, "x-gsim-cache"), Some("miss"));
        assert_eq!(header(&headers, "x-gsim-path"), Some("fast"));
    }
    let m = metrics(addr);
    assert_eq!(metric_at(&m, &["collects_started"]), 2, "{}", m.render());
    assert_eq!(
        metric_at(&m, &["runner_jobs_started"]),
        0,
        "a fast-path collection runs on the request thread: {}",
        m.render()
    );
    server.stop();
}

#[test]
fn a_fast_path_trace_predict_matches_its_synthetic_twin() {
    use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

    let server = RunningServer::start(ServeConfig::default());
    let addr = server.addr;

    // The workload `parse_pattern` builds for the request below.
    let spec = PatternSpec::new(
        PatternKind::WorkingSetMix {
            levels: vec![(1.0, 0.5)],
        },
        MemScale::default().mb_to_model_lines(4.0),
    )
    .mem_ops_per_warp(64)
    .compute_per_mem(2.0);
    let wl = Workload::new("pattern", 42, vec![Kernel::new("pattern", 128, 256, spec)]);
    let mut trace = Vec::new();
    gsim_trace::write_trace(&wl, &mut trace).expect("write trace");

    let synthetic = r#"{"pattern": {"kind": "working_set_mix", "footprint_mb": 4.0,
        "levels": [[1.0, 0.5]], "ctas": 128, "seed": 42}, "targets": [32, 64], "path": "fast"}"#;
    let (status, _, first) = request(addr, "POST", "/v1/predict", synthetic);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&first));

    let (status, _, meta) = request_with(addr, "POST", "/v1/traces", &[], &trace);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&meta));
    let meta = gsim_json::parse(std::str::from_utf8(&meta).expect("utf8")).expect("json");
    let trace_ref = meta.get("ref").and_then(|r| r.as_str()).expect("ref");
    let traced = format!(r#"{{"trace_ref": "{trace_ref}", "targets": [32, 64], "path": "fast"}}"#);
    let (status, headers, second) = request(addr, "POST", "/v1/predict", &traced);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&second));
    assert_eq!(header(&headers, "x-gsim-path"), Some("fast"));

    // Everything but the echoed request is byte-identical.
    let fields = |body: &[u8]| {
        let doc = gsim_json::parse(std::str::from_utf8(body).expect("utf8")).expect("json");
        [
            "memory_pressure",
            "scale_models",
            "mrc",
            "correction_factor",
            "cliff_at",
            "predictions",
        ]
        .map(|k| doc.get(k).expect("field").render())
        .join("|")
    };
    assert_eq!(fields(&first), fields(&second));

    // Each collected once; neither cost a timing sim.
    let m = metrics(addr);
    assert_eq!(metric_at(&m, &["collects_started"]), 2, "{}", m.render());
    assert_eq!(metric_at(&m, &["timing_sims_started"]), 0, "{}", m.render());
    server.stop();
}

#[test]
fn a_deadline_that_expires_during_the_collect_is_a_504() {
    let server = RunningServer::start(ServeConfig::default());
    let addr = server.addr;

    // One kernel of 64 Ki CTAs whose warps each chase 4096 pointers
    // (the most a body may ask for of either): seconds of collection even in a
    // release build, hundreds of times the deadline, and no kernel
    // boundary inside it to stop at.
    let body = r#"{"pattern": {"kind": "pointer_chase", "footprint_mb": 48.0,
        "ctas": 65536, "mem_ops_per_warp": 4096}, "targets": [32, 64], "path": "fast"}"#;
    for attempt in 1..=2u64 {
        let started = std::time::Instant::now();
        let (status, _, resp) = request_with(
            addr,
            "POST",
            "/v1/predict",
            &[("X-Gsim-Deadline-Ms", "20")],
            body.as_bytes(),
        );
        assert_eq!(status, 504, "{}", String::from_utf8_lossy(&resp));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "the collection must stop at the deadline, not at its end: {:?}",
            started.elapsed()
        );
        // The deadline expired inside the collection, and nothing
        // partial was kept: the retry collects again.
        let m = metrics(addr);
        for (path, want) in [
            (&["overload", "deadline_timeouts"][..], attempt),
            (&["collects_started"][..], attempt),
            (&["predict", "fast_path"][..], 0),
        ] {
            assert_eq!(metric_at(&m, path), want, "{path:?}: {}", m.render());
        }
    }
    server.stop();
}

#[test]
fn fast_path_forecasts_above_the_issue_peak_may_only_shrink() {
    // An SM issues at most 32 thread instructions per cycle, so a
    // forecast above `target × 32` IPC is impossible on the target. These
    // are the Table II pairs whose forced-fast scale-model forecast
    // exceeds it; a model fix may remove pairs, nothing may add one.
    let known: BTreeSet<(String, u64)> = [
        ("bfs", 64),
        ("bfs", 128),
        ("sr", 64),
        ("sr", 128),
        ("btree", 64),
        ("btree", 128),
        ("unet", 128),
    ]
    .into_iter()
    .map(|(w, t)| (w.to_string(), t))
    .collect();
    let svc =
        PredictService::new(ServeConfig::default(), ShutdownFlag::new()).expect("service starts");
    let mut above = BTreeSet::new();
    for bench in strong_suite(MemScale::default()) {
        let body = format!(
            r#"{{"workload": "{}", "targets": [32, 64, 128], "path": "fast"}}"#,
            bench.abbr
        );
        let resp = svc.handle(&Request {
            method: "POST".into(),
            path: "/v1/predict".into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        });
        let text = String::from_utf8_lossy(&resp.body);
        assert_eq!(resp.status, 200, "{}: {text}", bench.abbr);
        let doc = gsim_json::parse(&text).expect("predict json");
        for p in doc
            .get("predictions")
            .and_then(|p| p.as_arr())
            .expect("predictions")
        {
            let target = p.get("target").and_then(|t| t.as_u64()).expect("target");
            let ipc = p
                .get("ipc_by_method")
                .and_then(|m| m.get("scale-model"))
                .and_then(|v| v.as_f64())
                .expect("scale-model forecast");
            if ipc > target as f64 * 32.0 {
                above.insert((bench.abbr.to_string(), target));
            }
        }
    }
    assert_eq!(
        above, known,
        "fast-path forecasts above the issue peak (workload, target SMs): \
         this set may only shrink; drop a pair from `known` once a fix \
         brings it under the peak"
    );
}
