//! What the workloads share: the run configuration, the pass loop, the
//! repeated set-up, and guarded operations.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::median;

/// How often a run sets up at least, so that `setup_s` is a median.
pub const SETUP_REPS: usize = 3;
/// A set-up cheaper than this many seconds in total is repeated further
/// (a sub-millisecond set-up needs more samples for a steady median) …
const SETUP_BUDGET_S: f64 = 0.25;
/// … up to this many times.
const SETUP_REPS_MAX: usize = 25;

/// Steps of one yardstick reading.
const YARD_STEPS: u32 = 1_000_000;
/// Entries of the yardstick's table: 512 KiB of `u32`, larger than an L1
/// and inside an L2, like the simulator's hot state.
const YARD_ENTRIES: usize = 128 * 1024;
/// Seconds one reading takes on the development host (2-vCPU Xeon
/// 2.1 GHz VM) in its quiet state. Only a scale: it makes adjusted times
/// read as seconds of that host; comparisons never depend on it.
pub const YARD_REF_S: f64 = 4.4e-3;

/// A fixed piece of work of the benchmark's own — a dependent walk
/// through a 512 KiB table with some integer mixing — read beside every
/// timed part to tell how fast the host is running at that moment.
///
/// The development host is a shared VM that flips, for tens of seconds at
/// a time, into a state where everything runs 15–25 % (at times 2×)
/// slower. A 10 s run can sit entirely inside such a state, so no
/// statistic of the run's own raw times can remove it; dividing each time
/// by the yardstick read just before and after it does (run-to-run spread
/// of a simulator run's median: 20 % raw, 3–4 % adjusted, measured over
/// 300 s). The yardstick is benchmark code: a change to the program
/// cannot move it.
#[derive(Debug)]
pub struct Yardstick {
    table: Vec<u32>,
    /// Every reading taken, seconds, for the run's notes. Behind a mutex
    /// because runner workers read the yardstick too (`repro_strong`).
    readings: std::sync::Mutex<Vec<f64>>,
}

impl Yardstick {
    /// Builds the table: one cycle through all entries, in a fixed
    /// pseudo-random order.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..YARD_ENTRIES as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Sattolo's algorithm: a single cycle, so the walk visits all of it.
        for i in (1..YARD_ENTRIES).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % i;
            table.swap(i, j);
        }
        Self {
            table,
            readings: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Seconds the fixed walk takes right now.
    pub fn read(&self) -> f64 {
        let t0 = Instant::now();
        let (mut i, mut acc) = (0usize, 0u64);
        for k in 0..YARD_STEPS {
            i = self.table[i] as usize;
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i as u64 ^ u64::from(k));
        }
        std::hint::black_box(acc);
        let s = t0.elapsed().as_secs_f64();
        self.readings
            .lock()
            .expect("a reading is pushed whole, so the list stays valid")
            .push(s);
        s
    }

    /// `min / median / max` of the readings so far, for the notes: the
    /// record of the host's state during the run.
    pub fn summary(&self) -> String {
        let r = self
            .readings
            .lock()
            .expect("a reading is pushed whole, so the list stays valid");
        format!(
            "yardstick {} readings, {} (reference {YARD_REF_S} s)",
            r.len(),
            crate::stats::min_median_max(&r)
        )
    }
}

/// How much slower than the reference the host ran across a timed part,
/// from the yardstick readings just before and just after it. A raw time
/// divided by this is the time the part would have taken at reference
/// speed.
pub fn host_factor(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / YARD_REF_S
}

/// One run's configuration, from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed: shapes the synthetic members and the serve bodies.
    pub seed: u64,
    /// How long the timed region measures, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Smoke mode: one pass over shrunken inputs; validates the result
    /// schema and the failure rules, claims no timing.
    pub smoke: bool,
    /// Regenerate this workload's golden entries instead of checking them.
    pub bless: bool,
    /// The benchmark's directory (`golden/`, `out/`).
    pub bench_dir: PathBuf,
}

impl RunCfg {
    /// Scratch and output directory, inside the checkout.
    pub fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }

    /// Divides an operation count for smoke mode (÷ 50, at least 2).
    pub fn ops(&self, full: usize) -> usize {
        if self.smoke {
            (full / 50).max(2)
        } else {
            full
        }
    }
}

/// Runs passes of a fixed operation list until `cfg.seconds` have been
/// measured and at least `min_passes` are done (smoke mode: exactly
/// `min_passes`). `pass(i)` returns the wall seconds of pass `i`. Both
/// sides of a comparison execute the same list per pass; only the number
/// of passes follows the clock.
pub fn timed_passes(cfg: &RunCfg, min_passes: usize, mut pass: impl FnMut(u64) -> f64) -> Vec<f64> {
    let mut walls = Vec::new();
    loop {
        walls.push(pass(walls.len() as u64));
        let measured: f64 = walls.iter().sum();
        let enough = walls.len() >= min_passes;
        if enough && (cfg.smoke || measured >= cfg.seconds) {
            return walls;
        }
    }
}

/// Sets up at least [`SETUP_REPS`] times (once in smoke mode), and on
/// while the set-ups so far took under [`SETUP_BUDGET_S`] together,
/// tearing down all but the last; returns the last set-up with the
/// median of the host-speed-adjusted seconds. `teardown` is outside the
/// timing.
pub fn repeated_setup<T>(
    cfg: &RunCfg,
    yard: &Yardstick,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut raw_total = 0.0;
    let mut adjusted = Vec::new();
    let mut last = None;
    let mut before = yard.read();
    loop {
        if let Some(prev) = last.take() {
            teardown(prev);
            before = yard.read();
        }
        let t0 = Instant::now();
        let made = setup();
        let raw = t0.elapsed().as_secs_f64();
        let after = yard.read();
        raw_total += raw;
        adjusted.push(raw / host_factor(before, after));
        last = Some(made);
        let cheap = raw_total < SETUP_BUDGET_S && adjusted.len() < SETUP_REPS_MAX;
        if cfg.smoke || (adjusted.len() >= SETUP_REPS && !cheap) {
            break;
        }
    }
    (last.expect("at least one set-up ran"), median(&adjusted))
}

/// Runs one operation, turning a panic into an error message: a panic is
/// a failed operation, not the end of the run.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    })
}

/// Seconds `f` takes, with its value.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seconds: f64, smoke: bool) -> RunCfg {
        RunCfg {
            workload: "w".into(),
            seed: 1,
            seconds,
            trace: false,
            smoke,
            bless: false,
            bench_dir: PathBuf::from("."),
        }
    }

    #[test]
    fn passes_follow_the_clock_but_never_fall_below_the_minimum() {
        // Each pass reports 4 s: 10 s need three.
        assert_eq!(timed_passes(&cfg(10.0, false), 1, |_| 4.0).len(), 3);
        // One long pass already covers the time, the minimum still holds.
        assert_eq!(timed_passes(&cfg(1.0, false), 2, |_| 5.0).len(), 2);
        // Smoke mode ignores the clock.
        assert_eq!(timed_passes(&cfg(10.0, true), 1, |_| 0.1).len(), 1);
        let mut seen = Vec::new();
        timed_passes(&cfg(3.0, false), 1, |i| {
            seen.push(i);
            1.0
        });
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn setup_repeats_and_tears_down_all_but_the_last() {
        let mut made = 0;
        let mut torn = Vec::new();
        let yard = Yardstick::new();
        let (last, secs) = repeated_setup(
            &cfg(1.0, false),
            &yard,
            || {
                made += 1;
                made
            },
            |t| torn.push(t),
        );
        // An instant set-up repeats up to the cap.
        assert_eq!((made, last), (SETUP_REPS_MAX, SETUP_REPS_MAX));
        assert_eq!(torn, (1..SETUP_REPS_MAX).collect::<Vec<_>>());
        assert!(secs >= 0.0);
        // One that uses the budget stops at the minimum.
        let mut slow = 0;
        repeated_setup(
            &cfg(1.0, false),
            &yard,
            || {
                slow += 1;
                std::thread::sleep(std::time::Duration::from_secs_f64(SETUP_BUDGET_S / 2.0));
            },
            drop,
        );
        assert_eq!(slow, SETUP_REPS);
        assert_eq!(cfg(1.0, true).ops(1500), 30);
        assert_eq!(cfg(1.0, true).ops(60), 2);
        assert_eq!(cfg(1.0, false).ops(1500), 1500);
    }

    #[test]
    fn the_yardstick_walks_its_whole_table_and_scales_times() {
        let yard = Yardstick::new();
        // One cycle: following the table from 0 returns to 0 only after
        // every entry.
        let (mut i, mut steps) = (0usize, 0usize);
        loop {
            i = yard.table[i] as usize;
            steps += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(steps, YARD_ENTRIES);
        assert!(yard.read() > 0.0);
        assert!(yard.summary().starts_with("yardstick 1 readings"));
        // A host running at half the reference speed doubles every time.
        assert_eq!(host_factor(2.0 * YARD_REF_S, 2.0 * YARD_REF_S), 2.0);
        assert_eq!(host_factor(YARD_REF_S, YARD_REF_S), 1.0);
    }

    #[test]
    fn a_panic_is_an_error_not_an_abort() {
        assert_eq!(guarded(|| 3), Ok(3));
        let err = guarded(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err, "boom 7");
    }
}
