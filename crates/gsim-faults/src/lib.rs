//! Deterministic fault injection for the serve stack.
//!
//! A [`FaultPlan`] is a seeded description of *which faults to inject
//! where*: delayed socket reads and mid-body disconnects in the HTTP
//! layer, panics in scale-model simulations, delayed reads and short
//! writes in the trace store. The plan is installed once per process (from `gsim
//! serve --fault-plan`) and queried at
//! each injection *site* by name; every query is a pure function of
//! `(seed, site, per-site sequence number)`, so a given plan replays the
//! same fault sequence at every site on every run — which is what lets
//! the chaos harness (`scripts/chaos_smoke.sh`) assert exact service
//! behavior under faults instead of eyeballing flakes.
//!
//! # Spec grammar
//!
//! A plan is a comma-separated list of `key=value` pairs:
//!
//! ```text
//! seed=42,http_delay_p=0.05,http_delay_ms=20,http_disconnect_p=0.02,
//! job_panic_p=0.05,store_read_delay_p=0.1,store_read_delay_ms=5,
//! store_short_write_p=0.5
//! ```
//!
//! Probabilities (`*_p`) are in `[0, 1]` and delays (`*_ms`) at most
//! [`MAX_DELAY_MS`]; unknown keys are errors (a typo must not silently
//! disable the chaos run). An empty spec is a valid plan that injects
//! nothing.
//!
//! # Determinism
//!
//! Each site keeps an atomic sequence counter; decision `n` at site `s`
//! hashes `(seed, s, n)` through [`SplitMix64`].
//! Within one site the fault sequence is therefore fixed; across sites
//! it is independent. (Which *request* hits fault `n` still depends on
//! scheduling — the guarantee is a fixed fault density and pattern per
//! site, not a fixed request↔fault pairing.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use gsim_rng::SplitMix64;

/// Largest accepted injected delay, in milliseconds. A delay is a
/// `sleep` on the request's path, so an unbounded one is a hang, not a
/// fault; a minute is past every timeout the harnesses use.
pub const MAX_DELAY_MS: u64 = 60_000;

/// A seeded fault-injection plan. All probabilities default to zero: a
/// default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-site decision stream.
    pub seed: u64,
    /// Probability of delaying an HTTP request read.
    pub http_delay_p: f64,
    /// Delay applied when an HTTP read is chosen for delay.
    pub http_delay_ms: u64,
    /// Probability of disconnecting mid-body while writing an HTTP
    /// response.
    pub http_disconnect_p: f64,
    /// Probability that a scale-model simulation panics.
    pub job_panic_p: f64,
    /// Probability of delaying a trace-store blob read.
    pub store_read_delay_p: f64,
    /// Delay applied when a store read is chosen for delay.
    pub store_read_delay_ms: u64,
    /// Probability that a trace-store blob write is cut short (the
    /// write fails after persisting a prefix, as a crash would).
    pub store_short_write_p: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            http_delay_p: 0.0,
            http_delay_ms: 10,
            http_disconnect_p: 0.0,
            job_panic_p: 0.0,
            store_read_delay_p: 0.0,
            store_read_delay_ms: 5,
            store_short_write_p: 0.0,
        }
    }
}

/// A malformed plan spec (unknown key, unparsable value, probability or
/// delay out of range).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl FaultPlan {
    /// Parses a `key=value,key=value` spec. The empty string is a valid
    /// no-op plan.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on unknown keys, unparsable values,
    /// probabilities outside `[0, 1]`, or delays above [`MAX_DELAY_MS`].
    pub fn parse(spec: &str) -> Result<Self, ParseError> {
        let mut plan = Self::default();
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| ParseError(format!("{pair:?} is not key=value")))?;
            let prob = || -> Result<f64, ParseError> {
                let p: f64 = value
                    .parse()
                    .map_err(|_| ParseError(format!("{key} takes a number, got {value:?}")))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(ParseError(format!("{key} must be in [0, 1], got {value}")));
                }
                Ok(p)
            };
            let int = || -> Result<u64, ParseError> {
                value
                    .parse()
                    .map_err(|_| ParseError(format!("{key} takes an integer, got {value:?}")))
            };
            let delay = || -> Result<u64, ParseError> {
                let ms = int()?;
                if ms > MAX_DELAY_MS {
                    return Err(ParseError(format!(
                        "{key} must be at most {MAX_DELAY_MS} ms, got {ms}"
                    )));
                }
                Ok(ms)
            };
            match key.trim() {
                "seed" => plan.seed = int()?,
                "http_delay_p" => plan.http_delay_p = prob()?,
                "http_delay_ms" => plan.http_delay_ms = delay()?,
                "http_disconnect_p" => plan.http_disconnect_p = prob()?,
                "job_panic_p" => plan.job_panic_p = prob()?,
                "store_read_delay_p" => plan.store_read_delay_p = prob()?,
                "store_read_delay_ms" => plan.store_read_delay_ms = delay()?,
                "store_short_write_p" => plan.store_short_write_p = prob()?,
                other => return Err(ParseError(format!("unknown key {other:?}"))),
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.http_delay_p > 0.0
            || self.http_disconnect_p > 0.0
            || self.job_panic_p > 0.0
            || self.store_read_delay_p > 0.0
            || self.store_short_write_p > 0.0
    }
}

/// One decision stream: a site name, its sequence counter, and the
/// injected-fault tally.
struct Site {
    next: AtomicU64,
    injected: AtomicU64,
}

/// An installed plan plus its per-site decision state.
pub struct Injector {
    plan: FaultPlan,
    sites: Mutex<HashMap<&'static str, &'static Site>>,
}

/// FNV-1a 64-bit, used to fold the site name into the decision seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Injector {
    /// Creates a standalone injector. Most code uses the process-wide
    /// one ([`install`] + [`active`]); a standalone instance is for
    /// tests and harnesses that must not leak faults into the rest of
    /// the process.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            sites: Mutex::new(HashMap::new()),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn site(&self, name: &'static str) -> &'static Site {
        let mut sites = self.sites.lock().expect("fault site registry");
        sites.entry(name).or_insert_with(|| {
            // Sites are named by string literals at a handful of call
            // sites; leaking one registry entry per site per process is
            // the cost of lock-free decisions afterwards.
            Box::leak(Box::new(Site {
                next: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            }))
        })
    }

    /// Decision `n` of `site`: true with probability `p`, deterministic
    /// in `(seed, site, n)`.
    fn decide(&self, name: &'static str, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let site = self.site(name);
        let n = site.next.fetch_add(1, Ordering::Relaxed);
        let mut sm = SplitMix64::new(self.plan.seed ^ fnv1a(name.as_bytes()).wrapping_add(n));
        // 53 uniform bits -> [0, 1).
        let u = (sm.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let hit = u < p;
        if hit {
            site.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Should this HTTP request read be delayed? Returns the delay.
    pub fn http_read_delay(&self) -> Option<Duration> {
        self.decide("http.read_delay", self.plan.http_delay_p)
            .then(|| Duration::from_millis(self.plan.http_delay_ms))
    }

    /// Should this HTTP response be cut off mid-body?
    pub fn http_disconnect(&self) -> bool {
        self.decide("http.disconnect", self.plan.http_disconnect_p)
    }

    /// Should this scale-model simulation panic?
    pub fn job_panic(&self) -> bool {
        self.decide("job.panic", self.plan.job_panic_p)
    }

    /// Should this trace-store read be delayed? Returns the delay.
    pub fn store_read_delay(&self) -> Option<Duration> {
        self.decide("store.read_delay", self.plan.store_read_delay_p)
            .then(|| Duration::from_millis(self.plan.store_read_delay_ms))
    }

    /// Should this trace-store write of `len` bytes be cut short?
    /// Returns the number of bytes to actually persist (always < `len`).
    pub fn store_short_write(&self, len: usize) -> Option<usize> {
        (len > 0 && self.decide("store.short_write", self.plan.store_short_write_p))
            .then_some(len / 2)
    }

    /// Injected-fault tallies per site, sorted by site name — the
    /// `faults` group of the serve `/metrics` document.
    pub fn injected(&self) -> Vec<(&'static str, u64)> {
        let sites = self.sites.lock().expect("fault site registry");
        let mut out: Vec<(&'static str, u64)> = sites
            .iter()
            .map(|(&name, site)| (name, site.injected.load(Ordering::Relaxed)))
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }
}

static GLOBAL: OnceLock<Injector> = OnceLock::new();

/// Installs `plan` as the process-wide injector. The first install wins;
/// later calls are ignored (and return `false`).
pub fn install(plan: FaultPlan) -> bool {
    GLOBAL.set(Injector::new(plan)).is_ok()
}

/// The process-wide injector, when a plan with any active fault is
/// installed. Injection sites call this on their hot path; `None` (the
/// production case) costs one atomic load.
pub fn active() -> Option<&'static Injector> {
    GLOBAL.get().filter(|inj| inj.plan.is_active())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let plan = FaultPlan::parse(
            "seed=7, http_delay_p=0.25, http_delay_ms=3, http_disconnect_p=0.5,\
             job_panic_p=0.1, store_read_delay_p=1.0, store_read_delay_ms=2,\
             store_short_write_p=0.75",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.http_delay_ms, 3);
        assert!((plan.http_disconnect_p - 0.5).abs() < 1e-12);
        assert!(plan.is_active());

        assert!(FaultPlan::parse("").unwrap() == FaultPlan::default());
        assert!(!FaultPlan::parse("seed=9").unwrap().is_active());
        assert!(FaultPlan::parse("job_panic_p=1.5").is_err());
        assert!(FaultPlan::parse("jop_panic_p=0.5").is_err());
        assert!(FaultPlan::parse("seed").is_err());

        // A delay is a sleep: past the bound it is refused, naming it.
        let max = format!("http_delay_ms={MAX_DELAY_MS}");
        assert_eq!(FaultPlan::parse(&max).unwrap().http_delay_ms, MAX_DELAY_MS);
        for spec in [
            "http_delay_ms=18446744073709551615",
            "store_read_delay_ms=60001",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err().to_string();
            assert!(err.contains("at most 60000 ms"), "{spec}: {err}");
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_site() {
        let plan = FaultPlan {
            seed: 42,
            job_panic_p: 0.5,
            ..FaultPlan::default()
        };
        let a = Injector::new(plan.clone());
        let b = Injector::new(plan.clone());
        let seq_a: Vec<bool> = (0..64).map(|_| a.job_panic()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.job_panic()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same sequence");
        assert!(seq_a.iter().any(|&x| x) && seq_a.iter().any(|&x| !x));

        let c = Injector::new(FaultPlan { seed: 43, ..plan });
        let seq_c: Vec<bool> = (0..64).map(|_| c.job_panic()).collect();
        assert_ne!(seq_a, seq_c, "different seed, different sequence");
    }

    #[test]
    fn probability_extremes_and_tallies() {
        let never = Injector::new(FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        });
        assert!((0..32).all(|_| !never.http_disconnect()));
        assert!(never.injected().iter().all(|&(_, n)| n == 0));

        let always = Injector::new(FaultPlan {
            seed: 1,
            http_disconnect_p: 1.0,
            store_short_write_p: 1.0,
            ..FaultPlan::default()
        });
        assert!((0..32).all(|_| always.http_disconnect()));
        assert_eq!(always.store_short_write(100), Some(50));
        assert_eq!(always.store_short_write(0), None, "empty write never cut");
        let tallies = always.injected();
        assert!(tallies
            .iter()
            .any(|&(name, n)| name == "http.disconnect" && n == 32));
    }

    #[test]
    fn default_plan_is_inert() {
        assert!(!FaultPlan::default().is_active());
    }
}
