//! Fault-injection e2e: a `gsim-faults` plan is installed process-wide,
//! so this test lives in its own binary — it must not share a process
//! with the clean-path e2e suites.
//!
//! With `job_panic_p=1.0` every simulation job attempt panics. The
//! contract under that worst case: the client sees a `503` with a
//! `Retry-After` header (never a hang, never a raw `500` from a worker
//! panic), the other endpoints keep answering, and `/metrics` reports the
//! injected faults so a chaos run is auditable.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use gsim_serve::{PredictService, ServeConfig, Server, ServerConfig, ShutdownFlag};

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(raw.as_bytes()).expect("send");
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

#[test]
fn injected_job_panics_surface_as_503_with_retry_after() {
    let plan = gsim_faults::FaultPlan::parse("seed=7,job_panic_p=1.0").expect("plan parses");
    assert!(gsim_faults::install(plan), "first install wins");

    let shutdown = ShutdownFlag::new();
    let service = PredictService::new(
        ServeConfig {
            runner_threads: 1,
            ..ServeConfig::default()
        },
        shutdown.clone(),
    )
    .expect("service starts");
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), shutdown.clone())
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let join = std::thread::spawn(move || {
        server
            .serve(Arc::new(move |req| service.handle(req)))
            .expect("serve loop")
    });

    // Pinned to the full path: the fault site is the timing-simulation
    // job, which an auto (fast-path) predict would never schedule.
    let body = r#"{"pattern": {"kind": "streaming", "footprint_mb": 1.0}, "target_sms": 64, "path": "full"}"#;
    let (status, headers, resp) = request(addr, "POST", "/v1/predict", body);
    assert_eq!(
        status,
        503,
        "a doomed simulation must fail closed: {}",
        String::from_utf8_lossy(&resp)
    );
    assert!(
        header(&headers, "retry-after").is_some(),
        "503 under faults still tells clients when to come back: {headers:?}"
    );

    // Cheap endpoints are unaffected by simulation-job chaos.
    let (status, _, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = gsim_json::parse(std::str::from_utf8(&body).expect("utf8")).expect("metrics json");
    let panics = doc
        .get("faults")
        .and_then(|f| f.get("job.panic"))
        .and_then(gsim_json::Json::as_u64)
        .unwrap_or(0);
    assert!(
        panics >= 1,
        "injected faults must be audited: {}",
        doc.render()
    );

    shutdown.trigger();
    join.join().expect("server thread");
}
