//! End-to-end test of the prediction service over real HTTP sockets.
//!
//! Drives the acceptance scenario from the service's design brief:
//! two concurrent identical `POST /v1/predict` requests must trigger
//! exactly one simulation run and return byte-identical bodies, and a
//! third request after a server restart with the same `--cache-dir`
//! must be served from the persisted cache.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use gsim_serve::{PredictService, ServeConfig, Server, ServerConfig, ShutdownFlag};

/// A cheap request: tiny streaming pattern, two targets. The 8/16-SM
/// scale models plus the MRC job finish in well under a second.
const PREDICT_BODY: &str =
    r#"{"pattern": {"kind": "streaming", "footprint_mb": 1.0}, "targets": [32, 64]}"#;

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

/// Minimal one-shot HTTP client: sends a `Connection: close` request and
/// returns (status, lowercased headers, body).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes()).expect("send");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = std::str::from_utf8(&raw[..header_end]).expect("utf8 head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, raw[header_end + 4..].to_vec())
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

fn metric(doc: &gsim_json::Json, group: &str, name: &str) -> u64 {
    doc.get(group)
        .and_then(|g| g.get(name))
        .and_then(gsim_json::Json::as_u64)
        .unwrap_or_else(|| panic!("missing metric {group}.{name} in {}", doc.render()))
}

fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gsim-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

#[test]
fn concurrent_predicts_run_once_and_cache_survives_restart() {
    let cache_dir = fresh_cache_dir("accept");

    // --- Phase 1: two concurrent identical requests, one simulation run.
    let server = RunningServer::start(&cache_dir);
    let addr = server.addr;
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                request(addr, "POST", "/v1/predict", PREDICT_BODY)
            })
        })
        .collect();
    let results: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();
    for (status, _, _) in &results {
        assert_eq!(*status, 200, "predict must succeed");
    }
    assert_eq!(
        results[0].2, results[1].2,
        "concurrent responses must be byte-identical"
    );

    let m = metrics(addr);
    assert_eq!(
        metric(&m, "predict", "computations"),
        1,
        "exactly one simulation run for identical concurrent requests: {}",
        m.render()
    );
    assert_eq!(metric(&m, "predict", "cache_misses"), 1, "{}", m.render());
    // The second request is either coalesced onto the in-flight leader or,
    // if the leader already finished, a plain cache hit — never a recompute.
    assert_eq!(
        metric(&m, "predict", "coalesced") + metric(&m, "predict", "cache_hits"),
        1,
        "{}",
        m.render()
    );

    let reference_body = results[0].2.clone();
    server.stop();

    // --- Phase 2: restart with the same cache dir; request is a disk hit.
    let server = RunningServer::start(&cache_dir);
    let (status, headers, body) = request(server.addr, "POST", "/v1/predict", PREDICT_BODY);
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "x-gsim-cache"),
        Some("hit"),
        "restarted server must serve from the persisted cache"
    );
    assert_eq!(
        body, reference_body,
        "cached body must be byte-identical across restarts"
    );
    let m = metrics(server.addr);
    assert_eq!(metric(&m, "predict", "computations"), 0, "{}", m.render());
    assert_eq!(metric(&m, "predict", "cache_hits"), 1, "{}", m.render());
    server.stop();

    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn full_api_surface_responds_over_http() {
    let cache_dir = fresh_cache_dir("surface");
    let server = RunningServer::start(&cache_dir);
    let addr = server.addr;

    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, br#"{"status":"ok"}"#);

    let (status, _, body) = request(addr, "GET", "/v1/workloads", "");
    assert_eq!(status, 200);
    let doc = gsim_json::parse(std::str::from_utf8(&body).unwrap()).expect("workloads json");
    assert!(
        doc.get("strong")
            .is_some_and(|s| matches!(s, gsim_json::Json::Arr(v) if !v.is_empty())),
        "{}",
        doc.render()
    );

    // Malformed request body: rejected with 400 and a JSON error.
    let (status, _, body) = request(addr, "POST", "/v1/predict", r#"{"workload": 7}"#);
    assert_eq!(status, 400);
    assert!(std::str::from_utf8(&body).unwrap().contains("error"));

    // Wrong method on a known path.
    let (status, _, _) = request(addr, "GET", "/v1/predict", "");
    assert_eq!(status, 405);

    // Shutdown endpoint stops the accept loop; the join below would hang
    // if the flag were not honoured.
    let (status, _, body) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(body, br#"{"status":"shutting-down"}"#);
    server
        .join
        .join()
        .expect("server thread exits after shutdown");

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// `passes`, `mem_ops_per_warp` and `ctas` multiply a kernel's work
/// without growing anything else a request is billed for, so they are
/// capped: a body past a cap is a 400 that names the field and its
/// limit, and costs no computation; a body at the cap is served.
#[test]
fn pattern_work_multipliers_are_capped() {
    let cache_dir = fresh_cache_dir("caps");
    let server = RunningServer::start(&cache_dir);
    let addr = server.addr;
    let sweep = |passes: u32| {
        format!(
            r#"{{"pattern": {{"kind": "global_sweep", "footprint_mb": 1.0, "passes": {passes}}}, "targets": [32]}}"#
        )
    };
    let chase = |ops: u32| {
        format!(
            r#"{{"pattern": {{"kind": "pointer_chase", "footprint_mb": 1.0, "ctas": 8, "mem_ops_per_warp": {ops}}}, "targets": [32]}}"#
        )
    };
    let grid = |ctas: u32| {
        format!(
            r#"{{"pattern": {{"kind": "streaming", "footprint_mb": 1.0, "ctas": {ctas}, "threads_per_cta": 32}}, "targets": [32], "path": "fast"}}"#
        )
    };
    for (over, field, limit) in [
        (grid(65_537), "pattern.ctas", "65536"),
        (grid(u32::MAX), "pattern.ctas", "65536"),
        (sweep(65), "pattern.passes", "64"),
        (sweep(u32::MAX), "pattern.passes", "64"),
        (chase(4097), "pattern.mem_ops_per_warp", "4096"),
        (chase(300_000), "pattern.mem_ops_per_warp", "4096"),
    ] {
        let (status, _, body) = request(addr, "POST", "/v1/predict", &over);
        let text = String::from_utf8_lossy(&body);
        assert_eq!(status, 400, "{over}: {text}");
        assert!(text.contains(field) && text.contains(limit), "{text}");
    }
    for at_cap in [sweep(64), chase(4096), grid(65_536)] {
        let (status, _, body) = request(addr, "POST", "/v1/predict", &at_cap);
        assert_eq!(status, 200, "{at_cap}: {}", String::from_utf8_lossy(&body));
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&cache_dir);
}
