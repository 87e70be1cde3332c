//! Failure-policy composition: a panic + retry-once interacting, and the
//! JSONL metrics stream they produce.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use gsim_runner::{Job, JsonlSink, Runner, RunnerConfig};

/// A shared in-memory writer to capture JsonlSink output across threads.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The composed policy: attempt 1 panics, attempt 2 returns — the job
/// must come back `Done` with `attempts == 2`, and the metrics stream
/// must show exactly the panicked attempt followed by the successful
/// retry, in order.
#[test]
fn panic_then_successful_retry_is_recorded_in_order() {
    let buf = SharedBuf::default();
    let runner = Runner::new(RunnerConfig {
        threads: 2,
        ..RunnerConfig::default()
    })
    .with_sink(JsonlSink::new(buf.clone()));

    let attempts = Arc::new(AtomicU32::new(0));
    let seen = Arc::clone(&attempts);
    let flaky = Job::new("flaky", move || {
        if seen.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("first attempt fails");
        }
        99u32
    });
    let steady = Job::new("steady", || 7u32);

    let reports = runner.run("policy", vec![flaky, steady]);

    // The flaky job recovered on its retry.
    assert_eq!(reports[0].name, "flaky");
    assert_eq!(reports[0].attempts, 2, "one panic, one successful retry");
    assert_eq!(reports[0].ok(), Some(&99));
    assert!(!reports[0].is_failed());
    // Its neighbour was untouched by the failure policy.
    assert_eq!(reports[1].ok(), Some(&7));
    assert_eq!(reports[1].attempts, 1);

    // Replay the JSONL stream: every line parses, and the flaky job's
    // events appear in exactly the order the policy executes them.
    let text = buf.text();
    let events: Vec<gsim_json::Json> = text
        .lines()
        .map(|l| gsim_json::parse(l).expect("metrics line is valid JSON"))
        .collect();
    let field = |e: &gsim_json::Json, k: &str| e.get(k).cloned();
    let flaky_events: Vec<(String, u64, Option<String>)> = events
        .iter()
        .filter(|e| {
            field(e, "job")
                .and_then(|j| j.as_str().map(String::from))
                .as_deref()
                == Some("flaky")
        })
        .map(|e| {
            (
                field(e, "event").unwrap().as_str().unwrap().to_string(),
                field(e, "attempt").unwrap().as_u64().unwrap(),
                field(e, "outcome").and_then(|o| o.as_str().map(String::from)),
            )
        })
        .collect();
    assert_eq!(
        flaky_events,
        vec![
            ("job_started".to_string(), 1, None),
            ("job_finished".to_string(), 1, Some("panicked".to_string())),
            ("job_started".to_string(), 2, None),
            ("job_finished".to_string(), 2, Some("ok".to_string())),
        ],
        "full stream:\n{text}"
    );

    // The sweep banner counts the job as completed, not failed.
    let finished = events
        .iter()
        .find(|e| field(e, "event").unwrap().as_str() == Some("sweep_finished"))
        .expect("sweep_finished event present");
    assert_eq!(finished.get("completed").unwrap().as_u64(), Some(2));
    assert_eq!(finished.get("failed").unwrap().as_u64(), Some(0));
}
