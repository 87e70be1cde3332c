//! Observability: sweep/job lifecycle events and the built-in sinks.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One lifecycle event emitted by the pool.
///
/// Events are borrowed views — sinks that need to keep them must copy the
/// fields out.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A sweep began.
    SweepStarted {
        /// The sweep's label.
        label: &'a str,
        /// Number of jobs submitted.
        jobs: usize,
        /// Worker threads serving the sweep.
        threads: usize,
    },
    /// A job attempt began.
    JobStarted {
        /// The sweep's label.
        label: &'a str,
        /// Submission index of the job.
        index: usize,
        /// The job's name.
        name: &'a str,
        /// 1 for the first attempt, 2 for the retry.
        attempt: u32,
    },
    /// A job attempt ended.
    JobFinished {
        /// The sweep's label.
        label: &'a str,
        /// Submission index of the job.
        index: usize,
        /// The job's name.
        name: &'a str,
        /// 1 for the first attempt, 2 for the retry.
        attempt: u32,
        /// Outcome label: "ok", "panicked", or "timed-out".
        outcome: &'static str,
        /// Wall-clock milliseconds of this attempt.
        millis: u128,
    },
    /// A sweep ran out of work and all reports are in.
    SweepFinished {
        /// The sweep's label.
        label: &'a str,
        /// Jobs that produced a value.
        completed: usize,
        /// Jobs that panicked or timed out after all attempts.
        failed: usize,
        /// Wall-clock milliseconds of the whole sweep.
        millis: u128,
    },
}

/// A pluggable consumer of [`Event`]s.
///
/// Sinks are shared across worker threads; implementations synchronise
/// internally (the built-ins use a `Mutex`/atomics). Sinks must not
/// panic: they run on worker threads in the middle of a sweep.
pub trait EventSink: Send + Sync {
    /// Called for every event, from whichever thread produced it.
    fn on_event(&self, event: &Event<'_>);
}

/// Terminal progress: one stderr line per finished job plus sweep
/// banners, in the style of `gsim repro`'s `[repro] ...` notes.
#[derive(Debug, Default)]
pub struct ProgressReporter {
    done: AtomicUsize,
    total: AtomicUsize,
}

impl ProgressReporter {
    /// Creates the reporter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for ProgressReporter {
    fn on_event(&self, event: &Event<'_>) {
        match *event {
            Event::SweepStarted {
                label,
                jobs,
                threads,
            } => {
                self.done.store(0, Ordering::SeqCst);
                self.total.store(jobs, Ordering::SeqCst);
                eprintln!("[{label}] {jobs} jobs on {threads} thread(s)");
            }
            Event::JobStarted { .. } => {}
            Event::JobFinished {
                label,
                name,
                attempt,
                outcome,
                millis,
                ..
            } => {
                // Count a job once: its final attempt is the one that is
                // either ok or past the retry budget; intermediate failed
                // first attempts are reported but not counted.
                let retried = outcome != "ok" && attempt == 1;
                let done = if retried {
                    self.done.load(Ordering::SeqCst)
                } else {
                    self.done.fetch_add(1, Ordering::SeqCst) + 1
                };
                let total = self.total.load(Ordering::SeqCst);
                let note = if retried { ", retrying" } else { "" };
                eprintln!(
                    "[{label}] {done}/{total} {name} {outcome}{note} ({:.2}s)",
                    millis as f64 / 1000.0
                );
            }
            Event::SweepFinished {
                label,
                completed,
                failed,
                millis,
            } => {
                eprintln!(
                    "[{label}] done: {completed} ok, {failed} failed ({:.2}s)",
                    millis as f64 / 1000.0
                );
            }
        }
    }
}

/// Structured metrics: one JSON object per event, newline-delimited.
///
/// The schema (all events carry `"event"` and `"elapsed_ms"` since sink
/// creation):
///
/// ```json
/// {"event":"sweep_started","sweep":"strong","jobs":21,"threads":4,"elapsed_ms":0}
/// {"event":"job_started","sweep":"strong","index":0,"job":"dct","attempt":1,"elapsed_ms":1}
/// {"event":"job_finished","sweep":"strong","index":0,"job":"dct","attempt":1,
///  "outcome":"ok","duration_ms":5123,"elapsed_ms":5124}
/// {"event":"sweep_finished","sweep":"strong","completed":21,"failed":0,"elapsed_ms":99000}
/// ```
///
/// `outcome` is `"ok"`, `"panicked"`, or `"timed-out"`.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    t0: Instant,
}

impl JsonlSink {
    /// Wraps any writer (a `File`, a `Vec<u8>` in tests, …).
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        Self {
            out: Mutex::new(Box::new(writer)),
            t0: Instant::now(),
        }
    }

    /// Creates (truncating) a metrics file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(std::fs::File::create(path)?))
    }

    fn write_line(&self, line: &str) {
        if let Ok(mut out) = self.out.lock() {
            // Metrics are best-effort; a full disk must not kill a sweep.
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl EventSink for JsonlSink {
    fn on_event(&self, event: &Event<'_>) {
        let elapsed = self.t0.elapsed().as_millis();
        let line = match *event {
            Event::SweepStarted {
                label,
                jobs,
                threads,
            } => format!(
                r#"{{"event":"sweep_started","sweep":{},"jobs":{jobs},"threads":{threads},"elapsed_ms":{elapsed}}}"#,
                json_string(label)
            ),
            Event::JobStarted {
                label,
                index,
                name,
                attempt,
            } => format!(
                r#"{{"event":"job_started","sweep":{},"index":{index},"job":{},"attempt":{attempt},"elapsed_ms":{elapsed}}}"#,
                json_string(label),
                json_string(name)
            ),
            Event::JobFinished {
                label,
                index,
                name,
                attempt,
                outcome,
                millis,
            } => format!(
                r#"{{"event":"job_finished","sweep":{},"index":{index},"job":{},"attempt":{attempt},"outcome":"{outcome}","duration_ms":{millis},"elapsed_ms":{elapsed}}}"#,
                json_string(label),
                json_string(name)
            ),
            Event::SweepFinished {
                label,
                completed,
                failed,
                millis,
            } => format!(
                r#"{{"event":"sweep_finished","sweep":{},"completed":{completed},"failed":{failed},"duration_ms":{millis},"elapsed_ms":{elapsed}}}"#,
                json_string(label)
            ),
        };
        self.write_line(&line);
    }
}

/// Renders `s` as a JSON string literal (quotes included) — the shared
/// implementation from `gsim-json`, re-exported for existing callers.
pub use gsim_json::json_string;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A shared in-memory writer to observe JsonlSink output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_emits_one_object_per_event() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        sink.on_event(&Event::SweepStarted {
            label: "s",
            jobs: 2,
            threads: 1,
        });
        sink.on_event(&Event::JobFinished {
            label: "s",
            index: 0,
            name: "a \"quoted\" job",
            attempt: 1,
            outcome: "ok",
            millis: 5,
        });
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""event":"sweep_started""#));
        assert!(lines[0].contains(r#""jobs":2"#));
        assert!(lines[1].contains(r#""job":"a \"quoted\" job""#));
        assert!(lines[1].contains(r#""outcome":"ok""#));
        for l in &lines {
            gsim_json::parse(l).expect("every metrics line is valid JSON");
        }
    }
}
