//! End-to-end tests of the overload behavior over real HTTP sockets:
//! admission control sheds with `429` + `Retry-After`, and deadlines cut
//! predicts off with `504` (never a late `200`).
//!
//! No fault plan is installed here — fault-injecting tests live in
//! `e2e_chaos.rs`, a separate binary, because a `gsim-faults` plan is
//! process-global and would leak into every test in this one.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gsim_serve::{PredictService, ServeConfig, Server, ServerConfig, ShutdownFlag};

/// A predict of 4 sweeps over `8 * scale` MB, pinned to the full path:
/// these tests are about timing-simulation saturation, which the
/// functional-first fast path would sidestep. Its cost grows with
/// `scale` (`passes` is capped); 1 is a few seconds in a debug build.
fn slow_body(scale: u32) -> String {
    format!(
        r#"{{"pattern": {{"kind": "global_sweep", "footprint_mb": {}.0, "passes": 4}}, "target_sms": 64, "path": "full"}}"#,
        8 * scale
    )
}

struct RunningServer {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    join: JoinHandle<()>,
}

impl RunningServer {
    fn start(cfg: ServeConfig) -> Self {
        let shutdown = ShutdownFlag::new();
        let service = PredictService::new(cfg, shutdown.clone()).expect("service starts");
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                threads: 8,
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

/// One-shot HTTP client with optional extra headers; returns
/// (status, lowercased headers, body).
fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (k, v) in extra_headers {
        raw.push_str(&format!("{k}: {v}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    s.write_all(raw.as_bytes()).expect("send");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read response");
    parse_response(&out)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    request_with(addr, method, path, &[], body)
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

/// Runs `probe` while a slow predict occupies the service, and returns
/// what it returned. "Occupies" is `occupied` holding on `/metrics` both
/// right before and right after the probe; the slow predict raises and
/// drops the watched gauge once each, so it held throughout. How long a
/// predict must be to outlast the probe depends on the build profile and
/// the host, so nothing is assumed: a predict that finished too early is
/// followed by one four times longer (a different body, so never a cache
/// hit), and its probe's result is dropped. `probe` gets the attempt
/// number, to give its own workloads distinct content across attempts
/// (an earlier probe that answered in time left its body in the result
/// cache).
fn while_occupied<T>(
    addr: SocketAddr,
    occupied: impl Fn(&gsim_json::Json) -> bool,
    probe: impl Fn(u32) -> T,
) -> T {
    for attempt in 0..10 {
        let body = slow_body(1 << (2 * attempt));
        let slow = std::thread::spawn(move || request(addr, "POST", "/v1/predict", &body));
        while !slow.is_finished() && !occupied(&metrics(addr)) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let out = probe(attempt);
        let held = occupied(&metrics(addr));
        // The admitted predict is unharmed by whatever the probe did.
        let (status, _, _) = slow.join().expect("slow predict thread");
        assert_eq!(status, 200, "the admitted predict must still succeed");
        if held {
            return out;
        }
    }
    panic!("no slow predict outlasted the probe");
}

fn inflight_heavy(doc: &gsim_json::Json) -> u64 {
    doc.get("overload")
        .and_then(|o| o.get("admission"))
        .and_then(|a| a.get("inflight_heavy"))
        .and_then(gsim_json::Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn over_budget_predicts_shed_with_429_and_retry_after() {
    let server = RunningServer::start(ServeConfig {
        runner_threads: 1,
        max_inflight_predicts: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr;

    // While a slow computation occupies the single predict slot,
    // everything else bounces immediately — distinct bodies so none of
    // them could coalesce onto the in-flight leader even in principle.
    let (shed_before, responses) = while_occupied(
        addr,
        |m| inflight_heavy(m) >= 1,
        |_| {
            let before = metric(&metrics(addr), "overload", "shed_heavy");
            let responses: Vec<_> = (1..=3)
                .map(|i| {
                    let body = format!(
                        r#"{{"pattern": {{"kind": "streaming", "footprint_mb": {i}.0}}, "target_sms": 64}}"#
                    );
                    request(addr, "POST", "/v1/predict", &body)
                })
                .collect();
            (before, responses)
        },
    );
    let mut shed = 0;
    for (status, headers, _) in &responses {
        assert_eq!(*status, 429, "over-budget predict must shed, not queue");
        let retry_after = header(headers, "retry-after")
            .unwrap_or_else(|| panic!("429 without Retry-After: {headers:?}"));
        let secs: u64 = retry_after
            .parse()
            .expect("Retry-After is integral seconds");
        assert!((1..=60).contains(&secs), "Retry-After {secs} out of range");
        shed += 1;
    }

    let m = metrics(addr);
    assert_eq!(
        metric(&m, "overload", "shed_heavy") - shed_before,
        shed,
        "shed counter must match the rejected requests: {}",
        m.render()
    );
    server.stop();
}

#[test]
fn deadline_header_cuts_predicts_off_with_504() {
    let server = RunningServer::start(ServeConfig {
        runner_threads: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr;

    let (status, _, body) = request_with(
        addr,
        "POST",
        "/v1/predict",
        &[("X-Gsim-Deadline-Ms", "1")],
        &slow_body(1),
    );
    assert_eq!(
        status,
        504,
        "a 1ms deadline must expire: {}",
        String::from_utf8_lossy(&body)
    );
    let m = metrics(addr);
    assert!(
        metric(&m, "predict", "deadline_timeouts") >= 1,
        "{}",
        m.render()
    );

    // A malformed deadline is the client's fault, not a timeout.
    let (status, _, _) = request_with(
        addr,
        "POST",
        "/v1/predict",
        &[("X-Gsim-Deadline-Ms", "soon")],
        &slow_body(1),
    );
    assert_eq!(status, 400);
    server.stop();
}

#[test]
fn a_full_path_predict_past_its_deadline_is_a_504_never_a_late_200() {
    let server = RunningServer::start(ServeConfig {
        runner_threads: 1,
        max_inflight_predicts: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr;

    // A full-path predict that needs far more than 20 ms (some 150 ms
    // in a release build on an idle host), sent while another one keeps
    // the host busy: the only answer is a 504.
    let (timeouts_before, body, (status, _, resp)) = while_occupied(
        addr,
        |m| inflight_heavy(m) >= 1,
        |attempt| {
            let before = metric(&metrics(addr), "overload", "deadline_timeouts");
            let body = format!(
                r#"{{"pattern": {{"kind": "global_sweep", "footprint_mb": 64.0, "passes": 4, "compute_per_mem": {}.0}}, "target_sms": 64, "path": "full"}}"#,
                attempt + 2
            );
            let response = request_with(
                addr,
                "POST",
                "/v1/predict",
                &[("X-Gsim-Deadline-Ms", "20")],
                &body,
            );
            (before, body, response)
        },
    );
    assert_eq!(
        status,
        504,
        "a predict past its deadline must not answer late: {}",
        String::from_utf8_lossy(&resp)
    );
    let m = metrics(addr);
    assert_eq!(
        metric(&m, "overload", "deadline_timeouts") - timeouts_before,
        1,
        "{}",
        m.render()
    );

    // Nothing was result-cached for it: once the service is calm, the
    // same request without a deadline computes the full answer.
    let (status, headers, resp) = request(addr, "POST", "/v1/predict", &body);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-gsim-cache"), Some("miss"));
    assert_eq!(header(&headers, "x-gsim-path"), Some("full"));
    let text = std::str::from_utf8(&resp).expect("utf8 body");
    assert!(text.contains("\"predictions\""), "{text}");
    server.stop();
}
