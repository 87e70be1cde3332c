//! `serve_bench` — seeded closed-loop load generator for gsim-serve.
//!
//! ```text
//! serve_bench --addr HOST:PORT [--duration-secs N] [--concurrency N]
//!             [--seed N] [--deadline-ms N] [-o FILE]
//! ```
//!
//! Drives a running `gsim serve` instance with a deterministic request
//! mix (mostly predicts over a small pool of bodies, plus metrics and
//! catalog reads and a slice of deliberately invalid predicts), one
//! fresh connection per request, and writes a `gsim-serve-bench-v1`
//! summary to stdout (or to `-o FILE`): sustained RPS, latency quantiles,
//! the full status breakdown, the shed rate, and how many `429`s arrived
//! without the promised `Retry-After` header (must be zero).
//!
//! Transport-level failures — refused/reset connections, mid-body
//! disconnects (as injected by `gsim-faults`), read timeouts — are
//! counted separately from HTTP statuses: a chaos run needs to tell "the
//! server answered 429" apart from "the connection died".
//!
//! The generator is *closed-loop*: each of `--concurrency` workers has
//! at most one request outstanding, so pointing more workers at the
//! service than its admission budget is exactly the "2× saturation"
//! overload the chaos harness wants.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gsim_json::{obj, Json};
use gsim_rng::SplitMix64;

struct Args {
    addr: String,
    duration: Duration,
    concurrency: usize,
    seed: u64,
    deadline_ms: Option<u64>,
    output: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_bench --addr HOST:PORT [--duration-secs N] [--concurrency N] \
         [--seed N] [--deadline-ms N] [-o FILE]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        duration: Duration::from_secs(10),
        concurrency: 16,
        seed: 42,
        deadline_ms: None,
        output: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} takes an integer");
                exit(2)
            })
        };
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => args.addr = v.clone(),
                None => usage(),
            },
            "--duration-secs" => args.duration = Duration::from_secs(num("--duration-secs").max(1)),
            "--concurrency" => args.concurrency = (num("--concurrency") as usize).max(1),
            "--seed" => args.seed = num("--seed"),
            "--deadline-ms" => args.deadline_ms = Some(num("--deadline-ms")),
            "-o" | "--output" => match it.next() {
                Some(v) => args.output = Some(v.clone()),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if args.addr.is_empty() {
        usage()
    }
    args
}

/// One worker's tallies, merged at the end.
#[derive(Default)]
struct Tally {
    /// status code → count.
    statuses: BTreeMap<u16, u64>,
    /// Connections that died before a status line arrived (refused,
    /// reset, timed out, truncated).
    transport_errors: u64,
    /// `429` responses missing the `Retry-After` header (contract
    /// violations; must stay zero).
    retry_after_missing: u64,
    /// Latency of every request that produced a status, in µs.
    latencies_us: Vec<u64>,
}

/// The deterministic request mix: `(method, path, body)` drawn from the
/// worker's seeded RNG. Roughly 70% valid predicts over a small body
/// pool (duplicates on purpose: they exercise the cache and
/// single-flight), 10% invalid predicts (negative-cache food), 10%
/// metrics reads, 10% catalog reads.
fn pick_request<'a>(
    rng: &mut SplitMix64,
    bodies: &'a [String],
    invalid: &'a [String],
) -> (&'static str, &'static str, Option<&'a str>) {
    let r = rng.next_u64() % 100;
    if r < 70 {
        let body = &bodies[(rng.next_u64() as usize) % bodies.len()];
        ("POST", "/v1/predict", Some(body.as_str()))
    } else if r < 80 {
        let body = &invalid[(rng.next_u64() as usize) % invalid.len()];
        ("POST", "/v1/predict", Some(body.as_str()))
    } else if r < 90 {
        ("GET", "/metrics", None)
    } else {
        ("GET", "/v1/workloads", None)
    }
}

/// Issues one request on a fresh connection, returning
/// `(status, has_retry_after)`; `Err(())` is a transport failure.
fn one_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    deadline_ms: Option<u64>,
) -> Result<(u16, bool), ()> {
    let stream = TcpStream::connect(addr).map_err(|_| ())?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: gsim\r\nConnection: close\r\n");
    if let Some(ms) = deadline_ms {
        req.push_str(&format!("X-Gsim-Deadline-Ms: {ms}\r\n"));
    }
    match body {
        Some(b) => {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            ));
        }
        None => req.push_str("\r\n"),
    }
    stream.write_all(req.as_bytes()).map_err(|_| ())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|_| ())?;
    // "HTTP/1.1 NNN ..." — anything shorter is a truncated response.
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or(())?;
    let Some((head, response_body)) = raw.split_once("\r\n\r\n") else {
        return Err(()); // injected mid-head disconnect
    };
    // A disconnect fault advertises the full length but sends half.
    let advertised: Option<usize> = head.lines().find_map(|l| {
        l.to_ascii_lowercase()
            .strip_prefix("content-length:")
            .and_then(|v| v.trim().parse().ok())
    });
    if advertised.is_some_and(|n| response_body.len() < n) {
        return Err(());
    }
    let has_retry_after = head
        .lines()
        .any(|l| l.to_ascii_lowercase().starts_with("retry-after:"));
    Ok((status, has_retry_after))
}

fn main() {
    let args = parse_args();
    // Valid predicts: small synthetic patterns pinned to the full path
    // (cheap enough to finish, heavy enough to occupy the pool — the
    // functional-first fast path would sidestep the saturation this
    // bench is about) plus one suite benchmark left on the default
    // `auto` path so the fast path sees chaos too. Duplicates across
    // workers are intentional.
    let bodies: Arc<Vec<String>> = Arc::new(
        [
            (2.0, 1u32, 64u32),
            (4.0, 2, 64),
            (8.0, 1, 128),
            (2.0, 3, 128),
        ]
        .iter()
        .map(|(fp, passes, target)| {
            format!(
                r#"{{"pattern": {{"kind": "global_sweep", "footprint_mb": {fp}, "passes": {passes}}}, "target_sms": {target}, "path": "full"}}"#
            )
        })
        .chain([r#"{"workload": "bfs", "target_sms": 64}"#.to_string()])
        .collect(),
    );
    let invalid: Arc<Vec<String>> = Arc::new(vec![
        r#"{"pattern": {"kind": "zigzag", "footprint_mb": 1.0}, "target_sms": 64}"#.to_string(),
        r#"{"workload": "bfs", "target_sms": 64, "tyop": 1}"#.to_string(),
    ]);

    let started = Instant::now();
    let stop_at = started + args.duration;
    let tallies: Arc<Mutex<Vec<Tally>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..args.concurrency)
        .map(|w| {
            let addr = args.addr.clone();
            let bodies = Arc::clone(&bodies);
            let invalid = Arc::clone(&invalid);
            let tallies = Arc::clone(&tallies);
            let deadline_ms = args.deadline_ms;
            let mut rng = SplitMix64::new(args.seed ^ (w as u64).wrapping_mul(0x9e37_79b9));
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                while Instant::now() < stop_at {
                    let (method, path, body) = pick_request(&mut rng, &bodies, &invalid);
                    let t0 = Instant::now();
                    match one_request(&addr, method, path, body, deadline_ms) {
                        Ok((status, has_retry_after)) => {
                            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                            tally.latencies_us.push(us);
                            *tally.statuses.entry(status).or_insert(0) += 1;
                            if status == 429 && !has_retry_after {
                                tally.retry_after_missing += 1;
                            }
                        }
                        Err(()) => tally.transport_errors += 1,
                    }
                }
                tallies.lock().expect("tally lock").push(tally);
            })
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    let elapsed = started.elapsed();

    // Merge.
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let (mut transport_errors, mut retry_after_missing) = (0u64, 0u64);
    for t in tallies.lock().expect("tally lock").iter() {
        for (&s, &n) in &t.statuses {
            *statuses.entry(s).or_insert(0) += n;
        }
        latencies.extend_from_slice(&t.latencies_us);
        transport_errors += t.transport_errors;
        retry_after_missing += t.retry_after_missing;
    }
    latencies.sort_unstable();
    let quantile = |q: f64| -> Option<u64> {
        if latencies.is_empty() {
            return None;
        }
        let rank = ((latencies.len() as f64) * q).ceil().max(1.0) as usize;
        Some(latencies[rank.min(latencies.len()) - 1])
    };
    let answered: u64 = statuses.values().sum();
    let total = answered + transport_errors;
    let shed: u64 = statuses.get(&429).copied().unwrap_or(0);
    let rps = answered as f64 / elapsed.as_secs_f64();
    let shed_rate = if answered > 0 {
        shed as f64 / answered as f64
    } else {
        0.0
    };

    let doc = obj([
        ("schema", Json::from("gsim-serve-bench-v1")),
        ("addr", Json::from(args.addr.as_str())),
        ("duration_secs", Json::from(elapsed.as_secs_f64())),
        ("concurrency", Json::from(args.concurrency)),
        ("seed", Json::from(args.seed)),
        (
            "deadline_ms",
            match args.deadline_ms {
                Some(ms) => Json::from(ms),
                None => Json::Null,
            },
        ),
        ("requests", Json::from(total)),
        ("answered", Json::from(answered)),
        (
            "by_status",
            obj(statuses
                .iter()
                .map(|(&s, &n)| (s.to_string(), Json::from(n)))),
        ),
        ("transport_errors", Json::from(transport_errors)),
        ("rps", Json::from(rps)),
        ("p50_us", Json::from(quantile(0.50))),
        ("p99_us", Json::from(quantile(0.99))),
        ("shed", Json::from(shed)),
        ("shed_rate", Json::from(shed_rate)),
        ("retry_after_missing", Json::from(retry_after_missing)),
    ]);
    let rendered = format!("{}\n", doc.render());
    match &args.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            }
        }
        None => print!("{rendered}"),
    }
    eprintln!(
        "serve_bench: {answered} answered ({transport_errors} transport errors) in {:.1}s \
         = {rps:.0} rps; shed {shed} ({:.1}%); p50 {} us, p99 {} us",
        elapsed.as_secs_f64(),
        100.0 * shed_rate,
        quantile(0.50).unwrap_or(0),
        quantile(0.99).unwrap_or(0),
    );
    // The bench itself enforces the one non-negotiable contract.
    if retry_after_missing > 0 {
        eprintln!("serve_bench: {retry_after_missing} 429s arrived without Retry-After");
        exit(1)
    }
}
