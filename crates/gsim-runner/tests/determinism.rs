//! Determinism and failure-isolation guarantees of the runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gsim_runner::{Job, JobStatus, Runner, RunnerConfig};

fn runner(threads: usize) -> Runner {
    Runner::new(RunnerConfig {
        threads,
        ..RunnerConfig::default()
    })
}

/// A deterministic but non-trivial workload: collatz step count.
fn collatz(mut n: u64) -> u64 {
    let mut steps = 0;
    while n != 1 {
        n = if n.is_multiple_of(2) {
            n / 2
        } else {
            3 * n + 1
        };
        steps += 1;
    }
    steps
}

fn collatz_jobs() -> Vec<Job<u64>> {
    (1..=200u64)
        .map(|n| Job::new(format!("collatz-{n}"), move || collatz(n)))
        .collect()
}

#[test]
fn one_thread_and_many_threads_aggregate_identically() {
    let serial = runner(1).run("serial", collatz_jobs());
    let parallel = runner(8).run("parallel", collatz_jobs());
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.name, p.name);
        assert_eq!(s.ok(), p.ok(), "value mismatch at {}", s.name);
    }
    // The aggregated value streams are byte-identical.
    let sv: Vec<u64> = serial.into_iter().filter_map(|r| r.into_ok()).collect();
    let pv: Vec<u64> = parallel.into_iter().filter_map(|r| r.into_ok()).collect();
    assert_eq!(sv, pv);
}

#[test]
fn panicking_job_is_recorded_without_aborting_the_sweep() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let a = Arc::clone(&attempts);
    let mut jobs: Vec<Job<u64>> = vec![
        Job::new("ok-before", || 1),
        Job::new("bomb", move || {
            a.fetch_add(1, Ordering::SeqCst);
            panic!("injected failure");
        }),
    ];
    jobs.push(Job::new("ok-after", || 3));

    let reports = runner(2).run("faulty", jobs);
    assert_eq!(reports.len(), 3);
    assert_eq!(reports[0].ok(), Some(&1));
    assert_eq!(reports[2].ok(), Some(&3));

    let bomb = &reports[1];
    assert!(bomb.is_failed());
    assert_eq!(bomb.attempts, 2, "failed job is retried once");
    assert_eq!(attempts.load(Ordering::SeqCst), 2);
    match &bomb.status {
        JobStatus::Panicked(msg) => assert!(msg.contains("injected failure")),
        other => panic!("expected Panicked, got {:?}", other.label()),
    }
}

#[test]
fn retry_can_be_disabled() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let a = Arc::clone(&attempts);
    let r = Runner::new(RunnerConfig {
        threads: 1,
        retry_once: false,
        ..RunnerConfig::default()
    });
    let reports = r.run(
        "no-retry",
        vec![Job::new("bomb", move || -> u64 {
            a.fetch_add(1, Ordering::SeqCst);
            panic!("once only");
        })],
    );
    assert_eq!(reports[0].attempts, 1);
    assert_eq!(attempts.load(Ordering::SeqCst), 1);
}

#[test]
fn retried_transient_failure_succeeds_on_second_attempt() {
    let tries = Arc::new(AtomicUsize::new(0));
    let t = Arc::clone(&tries);
    let reports = runner(1).run(
        "transient",
        vec![Job::new("flaky", move || {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt fails");
            }
            99u64
        })],
    );
    assert_eq!(reports[0].ok(), Some(&99));
    assert_eq!(reports[0].attempts, 2);
}
