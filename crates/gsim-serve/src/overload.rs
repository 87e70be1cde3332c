//! Admission control and load-shed policy.
//!
//! The HTTP worker pool bounds *connections*; this module bounds how many
//! of them may be inside `POST /v1/predict`, the one endpoint that can
//! schedule timing simulations. An [`AdmissionGate`] holds that in-flight
//! budget. A predict that does not fit is *shed* with
//! `429 Too Many Requests` and a `Retry-After` computed from the observed
//! p50 predict service time ([`retry_after_secs`]), instead of queueing
//! unboundedly behind work that cannot finish any sooner.
//!
//! Every other endpoint is answered directly. The worker count already
//! bounds how many of them run at once, so `/metrics` stays reachable
//! under saturation only while the predict budget is below the worker
//! count: a worker is left over for it.

use std::sync::atomic::{AtomicI64, Ordering};

/// The predict in-flight budget with RAII accounting.
pub struct AdmissionGate {
    limit: i64,
    inflight: AtomicI64,
}

/// Proof of admission; dropping it releases the slot. Hold it for the
/// request's whole lifetime — including time spent blocked as a
/// single-flight follower, which still pins an HTTP worker.
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl AdmissionGate {
    /// A gate admitting at most `limit` concurrent requests (clamped to
    /// at least 1).
    pub fn new(limit: usize) -> Self {
        Self {
            limit: i64::try_from(limit.max(1)).unwrap_or(i64::MAX),
            inflight: AtomicI64::new(0),
        }
    }

    /// Admits the request if the budget has room, returning the permit
    /// to hold for the request's duration; `None` means shed it.
    pub fn try_admit(&self) -> Option<Permit<'_>> {
        // Optimistic increment: cheaper than a CAS loop and the
        // overshoot window is bounded by the caller count.
        if self.inflight.fetch_add(1, Ordering::AcqRel) >= self.limit {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(Permit { gate: self })
    }

    /// Currently admitted requests.
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// The budget.
    pub fn limit(&self) -> i64 {
        self.limit
    }
}

/// `Retry-After` seconds for a shed request: roughly how long until a
/// predict slot frees up, estimated as the observed p50 service time
/// times the queue position a retry would face. Clamped to `[1, 60]` so
/// a cold histogram still backs clients off and a pathological p50
/// cannot tell them to go away for an hour.
pub fn retry_after_secs(p50_us: Option<u64>, inflight: i64) -> u64 {
    let p50_us = p50_us.unwrap_or(0);
    let queued = inflight.max(0) as u64 + 1;
    let secs = (p50_us.saturating_mul(queued)).div_ceil(1_000_000);
    secs.clamp(1, 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_to_the_limit_and_releases_on_drop() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_admit().expect("first");
        let b = gate.try_admit().expect("second");
        assert!(gate.try_admit().is_none(), "over budget");
        assert_eq!(gate.inflight(), 2);
        drop(b);
        assert_eq!(gate.inflight(), 1);
        // A freed slot is immediately admittable again (the permit here
        // is a temporary, released as soon as the assert finishes).
        assert!(gate.try_admit().is_some());
        drop(a);
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn zero_limits_clamp_to_one() {
        let gate = AdmissionGate::new(0);
        assert_eq!(gate.limit(), 1);
        assert!(gate.try_admit().is_some());
    }

    #[test]
    fn retry_after_scales_with_load_and_clamps() {
        // Cold histogram: still at least one second.
        assert_eq!(retry_after_secs(None, 0), 1);
        // 2s p50, 3 ahead of you → 8 seconds.
        assert_eq!(retry_after_secs(Some(2_000_000), 3), 8);
        // Sub-second service times round up, never to zero.
        assert_eq!(retry_after_secs(Some(100), 0), 1);
        // Pathological p50 cannot push clients out for an hour.
        assert_eq!(retry_after_secs(Some(u64::MAX), 10), 60);
    }
}
