//! A minimal HTTP/1.1 server on `std::net`, sized for gsim-serve.
//!
//! Scope: exactly what a local prediction service needs and nothing
//! more — an accept loop feeding a bounded pool of worker threads,
//! strict request parsing with size and time limits, keep-alive, and a
//! cooperative shutdown flag. No TLS, no chunked bodies, no routing
//! DSL; the handler is one function from [`Request`] to [`Response`].
//!
//! # Shutdown
//!
//! The workspace forbids `unsafe`, so installing POSIX signal handlers
//! is off the table. Shutdown is therefore *cooperative*: anything
//! holding the server's [`ShutdownFlag`] (the `POST /v1/shutdown`
//! endpoint, the CLI's stdin watcher, a test) can trigger it; the
//! accept loop notices within one poll interval, stops accepting, and
//! joins the workers after they finish their in-flight connections.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the shutdown flag when idle.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Maximum bytes of request line + headers.
const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Most bytes one read of a request asks for.
const READ_CHUNK: usize = 4096;
/// Maximum request body size. Sized for `POST /v1/traces`: a v2 trace of
/// a suite-scale workload is a few MiB; predict bodies are tiny
/// regardless.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// How long shutdown waits for in-flight connections before detaching
/// any stragglers and returning anyway.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// A cooperative shutdown signal shared by the server, its handler, and
/// whoever supervises them (clone freely; all clones observe the same
/// flag).
#[derive(Clone, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, untriggered flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown. Idempotent.
    pub fn trigger(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_triggered(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method verb (`GET`, `POST`, …) as received.
    pub method: String,
    /// Request target, e.g. `/v1/predict` (query string not split off).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, …).
    pub status: u16,
    /// Extra headers; `Content-Length` and `Connection` are added by the
    /// server when writing.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response: sets `Content-Type: application/json`.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into(),
        }
    }

    /// Adds one header.
    #[must_use]
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Server tuning knobs; the defaults suit a local prediction service.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections (the bound on concurrency).
    pub threads: usize,
    /// Per-read socket timeout; a stalled client cannot pin a worker.
    pub read_timeout: Duration,
    /// Requests served on one keep-alive connection before closing.
    pub max_requests_per_conn: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            read_timeout: Duration::from_secs(10),
            max_requests_per_conn: 1000,
        }
    }
}

/// The handler type: pure function of the request. Cloned into every
/// worker thread via `Arc`.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// A bound listener plus its worker-pool configuration.
pub struct Server {
    listener: TcpListener,
    cfg: ServerConfig,
    shutdown: ShutdownFlag,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (bad address, port in use, …).
    pub fn bind(addr: &str, cfg: ServerConfig, shutdown: ShutdownFlag) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            cfg,
            shutdown,
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop until the shutdown flag triggers, then
    /// drains: stops accepting, lets in-flight connections finish, and
    /// joins the workers. If the drain takes longer than five seconds
    /// the stragglers are detached (their threads keep running until
    /// their current request completes, but `serve` returns so the
    /// process can exit on schedule).
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be polled.
    pub fn serve(self, handler: Arc<Handler>) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let live = Arc::new(AtomicUsize::new(self.cfg.threads.max(1)));

        let workers: Vec<_> = (0..self.cfg.threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let cfg = self.cfg.clone();
                let shutdown = self.shutdown.clone();
                let live = Arc::clone(&live);
                std::thread::Builder::new()
                    .name(format!("gsim-serve-{i}"))
                    .spawn(move || {
                        loop {
                            // Holding the lock only while receiving keeps the
                            // queue shared without serialising the handling.
                            let next = rx.lock().expect("worker queue poisoned").recv();
                            match next {
                                Ok(stream) => handle_connection(stream, &cfg, &handler, &shutdown),
                                Err(_) => break, // acceptor hung up: drain done
                            }
                        }
                        live.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn http worker")
            })
            .collect();

        while !self.shutdown.is_triggered() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        drop(tx); // workers exit once the queue drains
        let deadline = Instant::now() + DRAIN_GRACE;
        while live.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                // Grace exhausted: detach the stragglers. Keep-alive
                // connections close at the next request boundary (see
                // handle_connection), so this only abandons workers
                // stuck inside a single slow request or read.
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// Serves one connection: parse, handle, respond, repeat while
/// keep-alive applies. Any parse error produces one best-effort error
/// response and closes.
fn handle_connection(
    stream: TcpStream,
    cfg: &ServerConfig,
    handler: &Arc<Handler>,
    shutdown: &ShutdownFlag,
) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::new();
    let faults = gsim_faults::active();

    for served in 0..cfg.max_requests_per_conn {
        if served > 0 && shutdown.is_triggered() {
            // Close keep-alive connections at the request boundary so a
            // drain is not held hostage by an idle client's read_timeout.
            return;
        }
        if let Some(delay) = faults.and_then(|f| f.http_read_delay()) {
            std::thread::sleep(delay);
        }
        let req = match read_request(&mut stream, &mut buf, served == 0) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean EOF between requests
            Err(status) => {
                let body = format!("{{\"error\": {}}}", gsim_json::json_string(reason(status)));
                let _ = write_response(&mut stream, &Response::json(status, body), true);
                return;
            }
        };
        let close =
            shutdown.is_triggered() || served + 1 == cfg.max_requests_per_conn || wants_close(&req);
        let resp = handler(&req);
        if faults.is_some_and(|f| f.http_disconnect()) {
            // Injected mid-body disconnect: advertise the full length,
            // send half the body, and hang up.
            let _ = write_truncated(&mut stream, &resp);
            return;
        }
        if write_response(&mut stream, &resp, close).is_err() || close {
            return;
        }
    }
}

/// Writes a response head claiming the full `Content-Length` but only
/// half the body, then closes. Exists solely for fault injection: the
/// client observes a mid-body disconnect exactly as it would from a
/// crashed server.
fn write_truncated(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    for (k, v) in &resp.headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body[..resp.body.len() / 2])?;
    stream.flush()
}

fn wants_close(req: &Request) -> bool {
    req.header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// Reads one request from `stream`, keeping any bytes past it in `buf`
/// for the next call. `Ok(None)` means the peer closed before sending
/// anything (normal keep-alive termination, only reported when the
/// buffer is empty). `Err(status)` is the HTTP status to fail with.
///
/// `buf` never holds more than `MAX_HEADER_BYTES + MAX_BODY_BYTES`: the
/// header block must end within the first `MAX_HEADER_BYTES`, reads stop
/// there until it does, and the body is read up to its declared length
/// and no further.
fn read_request<R: Read>(
    stream: &mut R,
    buf: &mut Vec<u8>,
    first: bool,
) -> Result<Option<Request>, u16> {
    // Accumulate until the blank line ending the header block, scanning
    // each byte once.
    let mut scanned = 0;
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf[scanned..]) {
            break scanned + pos;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() >= MAX_HEADER_BYTES {
            return Err(413);
        }
        match fill(stream, buf, MAX_HEADER_BYTES) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(400) // truncated mid-request
                };
            }
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return if buf.is_empty() && !first {
                    Ok(None) // idle keep-alive connection: just close
                } else {
                    Err(408)
                };
            }
            Err(_) => return Err(400),
        }
    };

    let (method, path, headers) = {
        let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| 400u16)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(400u16)?;
        let mut parts = request_line.split(' ');
        let method = parts.next().filter(|m| !m.is_empty()).ok_or(400u16)?;
        let path = parts.next().filter(|p| p.starts_with('/')).ok_or(400u16)?;
        let version = parts.next().ok_or(400u16)?;
        if parts.next().is_some() || !version.starts_with("HTTP/1.") {
            return Err(400);
        }

        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line.split_once(':').ok_or(400u16)?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        (method.to_string(), path.to_string(), headers)
    };
    let header_of = |n: &str| {
        headers
            .iter()
            .find(|(k, _)| k == n)
            .map(|(_, v)| v.as_str())
    };
    if header_of("transfer-encoding").is_some() {
        return Err(501); // chunked and friends are out of scope
    }
    let content_length = content_length(&headers)?;
    if content_length > MAX_BODY_BYTES {
        return Err(413);
    }

    // Read the body: part may already sit in the buffer past the headers.
    let body_start = header_end + 4;
    let body_end = body_start + content_length;
    while buf.len() < body_end {
        match fill(stream, buf, body_end) {
            Ok(0) => return Err(400),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(408),
            Err(_) => return Err(400),
        }
    }
    let body = buf[body_start..body_end].to_vec();
    let request = Request {
        method,
        path,
        headers,
        body,
    };
    // Keep any pipelined bytes for the next request on this connection.
    buf.drain(..body_end);
    Ok(Some(request))
}

/// The declared body length: `0` without a `Content-Length`, else its
/// decimal digits. Repeated headers must agree; anything else is `400`.
fn content_length(headers: &[(String, String)]) -> Result<usize, u16> {
    let mut values = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let Some(value) = values.next() else {
        return Ok(0);
    };
    if values.any(|v| v != value) || value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit())
    {
        return Err(400);
    }
    // Digits only: an overflow is a length past any limit.
    Ok(value.parse().unwrap_or(usize::MAX))
}

/// One read from `stream` appended to `buf`, at most `READ_CHUNK` bytes
/// and never past `limit` bytes in all.
fn fill<R: Read>(stream: &mut R, buf: &mut Vec<u8>, limit: usize) -> io::Result<usize> {
    let start = buf.len();
    buf.resize(start + (limit - start).min(READ_CHUNK), 0);
    let got = stream.read(&mut buf[start..]);
    buf.truncate(start + got.as_ref().map_or(0, |&n| n));
    got
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn write_response(stream: &mut TcpStream, resp: &Response, close: bool) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {} {}\r\n", resp.status, reason(resp.status));
    for (k, v) in &resp.headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
    head.push_str(if close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    // One write: with TCP_NODELAY a separate head reaches the client
    // first, and whether its next read finds the body or blocks for it
    // is a race the scheduler decides (measured: 1.8 reads per reply).
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn start(
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> (SocketAddr, ShutdownFlag, std::thread::JoinHandle<()>) {
        let shutdown = ShutdownFlag::new();
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                threads: 2,
                read_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
            shutdown.clone(),
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let flag = shutdown.clone();
        let join = std::thread::spawn(move || server.serve(Arc::new(handler)).unwrap());
        (addr, flag, join)
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_and_shuts_down() {
        let (addr, shutdown, join) = start(|req| {
            Response::json(
                200,
                format!("{{\"path\": {}}}", gsim_json::json_string(&req.path)),
            )
        });
        let resp = roundtrip(
            addr,
            "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.ends_with("{\"path\": \"/healthz\"}"), "{resp}");
        shutdown.trigger();
        join.join().unwrap();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let (addr, shutdown, join) = start(|req| Response::json(200, req.body.clone()));
        let mut s = TcpStream::connect(addr).unwrap();
        for payload in ["one", "two"] {
            let raw = format!(
                "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{payload}",
                payload.len()
            );
            s.write_all(raw.as_bytes()).unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("HTTP/1.1 200"), "{line}");
            let mut len = 0usize;
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                    len = v.trim().parse().unwrap();
                }
                if h == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            assert_eq!(body, payload.as_bytes());
        }
        drop(s);
        shutdown.trigger();
        join.join().unwrap();
    }

    #[test]
    fn a_reply_arrives_whole_in_the_clients_first_read() {
        let body = "x".repeat(2000);
        let expect = body.clone();
        let (addr, shutdown, join) = start(move |_| Response::json(200, body.clone()));
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        // Head and body written apart reach a waiting client apart more
        // often than not; 200 replies in a row do not all win that race.
        for _ in 0..200 {
            s.write_all(b"GET /x HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut chunk = [0u8; 16 * 1024];
            let n = s.read(&mut chunk).unwrap();
            assert!(chunk[..n].ends_with(expect.as_bytes()), "first read: {n} B");
        }
        drop(s);
        shutdown.trigger();
        join.join().unwrap();
    }

    // --- fuzz slice: the request reader on hostile byte streams ---------

    use gsim_rng::Rng64;

    /// A byte stream handed out in reads of at most `chunk` bytes, then
    /// EOF; with `stalls`, an interruption or a timeout now and then.
    struct Hostile<'a> {
        bytes: &'a [u8],
        at: usize,
        chunk: u64,
        stalls: bool,
        rng: Rng64,
    }

    impl<'a> Hostile<'a> {
        fn new(bytes: &'a [u8], chunk: u64, stalls: bool, seed: u64) -> Self {
            Self {
                bytes,
                at: 0,
                chunk,
                stalls,
                rng: Rng64::seed_from_u64(seed),
            }
        }
    }

    impl Read for Hostile<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.stalls {
                match self.rng.gen_range(0, 64) {
                    0 => return Err(ErrorKind::Interrupted.into()),
                    1 => return Err(ErrorKind::WouldBlock.into()),
                    _ => {}
                }
            }
            let n = (self.bytes.len() - self.at)
                .min(out.len())
                .min(self.rng.gen_range_inclusive(1, self.chunk) as usize);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// A well-formed request with a body of `len` random bytes.
    fn request_bytes(rng: &mut Rng64, len: usize) -> Vec<u8> {
        let method = ["GET", "POST", "PUT"][rng.gen_range(0, 3) as usize];
        let mut out = format!("{method} /v1/predict HTTP/1.1\r\nHost: x\r\n");
        for i in 0..rng.gen_range(0, 4) as usize {
            out += &format!("X-Pad-{i}: {}\r\n", "p".repeat(i * 9));
        }
        out += &format!("Content-Length: {len}\r\n\r\n");
        let mut out = out.into_bytes();
        out.extend((0..len).map(|_| rng.next_u64() as u8));
        out
    }

    /// Inserts `line` after the request line of the first request.
    fn insert_header(s: &mut Vec<u8>, line: &[u8]) {
        let i = s.windows(2).position(|w| w == b"\r\n").map_or(0, |i| i + 2);
        s.splice(i..i, line.iter().copied());
    }

    /// One hostile stream: one to three pipelined requests, then one
    /// mutation.
    fn hostile_stream(rng: &mut Rng64) -> Vec<u8> {
        let mut s = Vec::new();
        for _ in 0..rng.gen_range(1, 4) {
            let len = rng.gen_range(0, 300) as usize;
            s.extend(request_bytes(rng, len));
        }
        let at = |rng: &mut Rng64, s: &[u8]| rng.gen_range(0, s.len() as u64) as usize;
        let lengths = [
            "",
            "-1",
            "+5",
            " 5",
            "5 5",
            "0x10",
            "1e3",
            "18446744073709551616",
            "16777217",
        ];
        match rng.gen_range(0, 9) {
            0 => {} // as generated
            1 => s.truncate(at(rng, &s)),
            2 => {
                let i = at(rng, &s);
                s[i] = rng.next_u64() as u8;
            }
            3 => {
                let i = at(rng, &s);
                let junk: Vec<u8> = (0..rng.gen_range(1, 64))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                s.splice(i..i, junk);
            }
            4 => {
                let v = lengths[rng.gen_range(0, lengths.len() as u64) as usize];
                let text = String::from_utf8_lossy(&s).replacen(
                    "Content-Length: ",
                    &format!("Content-Length: {v}"),
                    1,
                );
                s = text.into_bytes();
            }
            5 => {
                let lines: [&[u8]; 4] = [
                    b"Transfer-Encoding: chunked\r\n",
                    b"Content-Length: 7\r\n",
                    b"no colon here\r\n",
                    b"X-Bin: \xff\xfe\r\n",
                ];
                insert_header(&mut s, lines[rng.gen_range(0, 4) as usize]);
            }
            6 => {
                s = String::from_utf8_lossy(&s)
                    .replace("\r\n", "\n")
                    .into_bytes()
            }
            7 => {
                // A header block within a line's length of the limit.
                let pad = MAX_HEADER_BYTES - 128 + rng.gen_range(0, 256) as usize;
                insert_header(
                    &mut s,
                    format!("X-Long: {}\r\n", "l".repeat(pad)).as_bytes(),
                );
            }
            _ => {
                s = (0..rng.gen_range(0, 512))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
            }
        }
        s
    }

    /// Reads `stream` the way a connection does, checking every outcome;
    /// returns how many requests it read.
    fn read_all(stream: &mut Hostile<'_>) -> usize {
        let mut buf = Vec::new();
        let mut served = 0;
        loop {
            let (before, delivered) = (buf.len(), stream.at);
            let got = read_request(stream, &mut buf, served == 0);
            let peak = before + stream.at - delivered;
            assert!(
                peak <= MAX_HEADER_BYTES + MAX_BODY_BYTES,
                "buffered {peak} B"
            );
            match got {
                Ok(Some(req)) => {
                    let declared = req
                        .header("content-length")
                        .map_or(0, |v| v.parse().unwrap());
                    assert_eq!(req.body.len(), declared);
                    // The request was the stream's next bytes: its body
                    // ends right where what stays buffered begins.
                    let consumed = stream.at - buf.len();
                    assert!(stream.bytes[..consumed].ends_with(&req.body));
                    served += 1;
                }
                Ok(None) => {
                    assert!(buf.is_empty());
                    return served;
                }
                Err(status) => {
                    assert!([400, 408, 413, 501].contains(&status), "status {status}");
                    return served;
                }
            }
        }
    }

    #[test]
    fn fuzz_hostile_streams_never_panic_or_overbuffer() {
        let mut rng = Rng64::seed_from_u64(0x5eed_0007);
        let mut served = 0;
        for case in 0..600 {
            let bytes = hostile_stream(&mut rng);
            let chunk = [1, 3, 64, 4096][case % 4];
            let stalls = case % 3 == 0;
            served += read_all(&mut Hostile::new(&bytes, chunk, stalls, case as u64));
        }
        // Not all garbage: a good share of the streams was read.
        assert!(served > 300, "{served} requests read");
    }

    #[test]
    fn the_reader_holds_at_most_its_limits() {
        // The largest body behind the largest header block is read
        // whole; one more header byte is refused.
        let head = |pad: usize, len: usize| {
            let pad = "h".repeat(pad);
            format!("POST /v1/traces HTTP/1.1\r\nX: {pad}\r\nContent-Length: {len}\r\n\r\n")
        };
        let pad = MAX_HEADER_BYTES - head(0, MAX_BODY_BYTES).len();
        for (pad, read) in [(pad, 1), (pad + 1, 0)] {
            let mut s = head(pad, MAX_BODY_BYTES).into_bytes();
            s.resize(s.len() + MAX_BODY_BYTES, b'b');
            assert_eq!(read_all(&mut Hostile::new(&s, 4096, false, 1)), read);
        }
        // A longer body is refused before it is read.
        let s = head(0, MAX_BODY_BYTES + 1);
        let mut stream = Hostile::new(s.as_bytes(), 4096, false, 2);
        assert_eq!(
            read_request(&mut stream, &mut Vec::new(), true).unwrap_err(),
            413
        );
        // A header block without its end is refused at the limit, however
        // the bytes arrive.
        let endless = vec![b'a'; 4 * MAX_HEADER_BYTES];
        for chunk in [1, 4096] {
            let mut stream = Hostile::new(&endless, chunk, false, 3);
            let mut buf = Vec::new();
            assert_eq!(read_request(&mut stream, &mut buf, true).unwrap_err(), 413);
            assert_eq!(buf.len(), MAX_HEADER_BYTES);
        }
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        let (addr, shutdown, join) = start(|_| Response::json(200, "{}"));
        let resp = roundtrip(addr, "NONSENSE\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        // Claimed body larger than the limit is refused outright.
        let resp = roundtrip(
            addr,
            "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        let resp = roundtrip(
            addr,
            "POST /x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 501"), "{resp}");
        shutdown.trigger();
        join.join().unwrap();
    }
}
