//! Service counters and an in-tree latency histogram.
//!
//! Everything is cheap enough to update on every request: plain atomics
//! for counters, one mutex-guarded fixed-size histogram for latency.
//! [`Metrics::to_json`] renders the `GET /metrics` document
//! (`gsim-serve-metrics-v1`).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use gsim_json::{obj, Json};

/// Log-scale latency histogram: bucket `i` counts observations in
/// `[2^i, 2^(i+1))` microseconds, the last bucket is open-ended. 32
/// buckets cover a microsecond to over an hour.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [u64; 32],
    count: u64,
    sum_us: u128,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros();
        let idx = (128 - u128::leading_zeros(us.max(1)) - 1).min(31) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us += us;
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate quantile (`q` in 0..=1) in microseconds: the upper
    /// edge of the bucket holding the q-th observation. `None` when
    /// empty.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(if i >= 63 { u64::MAX } else { 1u64 << (i + 1) });
            }
        }
        None
    }

    /// Mean in microseconds (`None` when empty).
    pub fn mean_us(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_us as f64 / self.count as f64)
    }
}

/// All counters the service exports. One instance per service, shared
/// (`Arc`) with the handler and `GET /metrics`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `GET /healthz` requests served.
    pub healthz: AtomicU64,
    /// `GET /v1/workloads` requests served.
    pub workloads: AtomicU64,
    /// `POST /v1/predict` requests served (any outcome).
    pub predict: AtomicU64,
    /// `POST /v1/traces` and `GET /v1/traces` requests served.
    pub traces: AtomicU64,
    /// `GET /metrics` requests served.
    pub metrics: AtomicU64,
    /// `POST /v1/shutdown` requests served.
    pub shutdown: AtomicU64,
    /// Requests to any unknown route or wrong method.
    pub other: AtomicU64,
    /// Predict requests answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Predict requests that missed the cache.
    pub cache_misses: AtomicU64,
    /// Predict misses that piggybacked on an in-flight identical
    /// computation (single-flight followers).
    pub coalesced: AtomicU64,
    /// Prediction computations actually executed (single-flight leaders:
    /// the number of times simulations were scheduled).
    pub computations: AtomicU64,
    /// Predict requests rejected with a client error.
    pub predict_errors: AtomicU64,
    /// Predict requests that named a `trace_ref` (any outcome).
    pub predict_from_trace: AtomicU64,
    /// Predict computations answered by the functional-first fast path
    /// (synthesized observations, zero timing simulations).
    pub fast_path: AtomicU64,
    /// Auto-path predict computations the compute-intensity gate
    /// escalated to the full timing-simulation path.
    pub escalated: AtomicU64,
    /// Stage-1 miss-rate-curve collections executed (one per computed
    /// plan with a curve, whatever its path).
    pub collects_started: AtomicU64,
    /// Detailed timing simulations actually started: two per full-path
    /// computation, none on the fast path.
    pub timing_sims_started: AtomicU64,
    /// Predict requests shed with 429 by the admission gate.
    pub shed_heavy: AtomicU64,
    /// Predict requests that hit their deadline and were answered 504.
    pub deadline_timeouts: AtomicU64,
    /// Requests currently inside the handler.
    pub in_flight: AtomicI64,
    /// Per-request wall latency, all endpoints.
    pub latency: Mutex<Histogram>,
    /// Wall latency of predict leaders only (cache misses that computed);
    /// its p50 prices the `Retry-After` on shed responses.
    pub heavy_latency: Mutex<Histogram>,
    /// Wall latency of the Stage-1 sampled collections.
    pub stage_collect: Mutex<Histogram>,
    /// Wall latency of the Stage-2 predictor fits (every computed
    /// prediction, either path).
    pub stage_fit: Mutex<Histogram>,
    /// Wall latency of the Stage-3 target evaluation (likewise).
    pub stage_predict: Mutex<Histogram>,
}

impl Metrics {
    /// Records one finished request's latency.
    pub fn observe_latency(&self, latency: Duration) {
        self.latency
            .lock()
            .expect("latency histogram poisoned")
            .record(latency);
    }

    /// Records one predict leader's full computation latency.
    pub fn observe_heavy(&self, latency: Duration) {
        self.heavy_latency
            .lock()
            .expect("heavy latency histogram poisoned")
            .record(latency);
    }

    /// Records one executed stage's wall latency into a per-stage
    /// histogram (one of [`Metrics::stage_collect`] /
    /// [`Metrics::stage_fit`] / [`Metrics::stage_predict`]).
    pub fn observe_stage(hist: &Mutex<Histogram>, latency: Duration) {
        hist.lock()
            .expect("stage histogram poisoned")
            .record(latency);
    }

    /// The observed p50 of predict-leader latency (`None` until the
    /// first computation finishes).
    pub fn heavy_p50_us(&self) -> Option<u64> {
        self.heavy_latency
            .lock()
            .expect("heavy latency histogram poisoned")
            .quantile_us(0.50)
    }

    /// Renders the `/metrics` document, each counter once.
    /// `cache_entries` comes from the cache and `trace_store` from the
    /// trace store (they own those counts); pass `Json::Null` when no store is attached. `admission`
    /// is the gate's limits/in-flight snapshot (or `Json::Null` when the
    /// caller has no gate, e.g. unit tests).
    pub fn to_json(&self, cache_entries: usize, trace_store: Json, admission: Json) -> Json {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        obj([
            ("schema", Json::from("gsim-serve-metrics-v1")),
            (
                "requests",
                obj([
                    ("healthz", Json::from(get(&self.healthz))),
                    ("workloads", Json::from(get(&self.workloads))),
                    ("predict", Json::from(get(&self.predict))),
                    ("traces", Json::from(get(&self.traces))),
                    ("metrics", Json::from(get(&self.metrics))),
                    ("shutdown", Json::from(get(&self.shutdown))),
                    ("other", Json::from(get(&self.other))),
                ]),
            ),
            (
                "predict",
                obj([
                    ("cache_hits", Json::from(get(&self.cache_hits))),
                    ("cache_misses", Json::from(get(&self.cache_misses))),
                    ("coalesced", Json::from(get(&self.coalesced))),
                    ("computations", Json::from(get(&self.computations))),
                    ("errors", Json::from(get(&self.predict_errors))),
                    ("from_trace", Json::from(get(&self.predict_from_trace))),
                    ("fast_path", Json::from(get(&self.fast_path))),
                    ("escalated", Json::from(get(&self.escalated))),
                ]),
            ),
            (
                "overload",
                obj([
                    ("shed_heavy", Json::from(get(&self.shed_heavy))),
                    (
                        "deadline_timeouts",
                        Json::from(get(&self.deadline_timeouts)),
                    ),
                    ("admission", admission),
                ]),
            ),
            ("cache", obj([("entries", Json::from(cache_entries))])),
            ("faults", faults_json()),
            ("trace_store", trace_store),
            (
                "timing_sims_started",
                Json::from(get(&self.timing_sims_started)),
            ),
            ("collects_started", Json::from(get(&self.collects_started))),
            (
                "in_flight",
                Json::from(self.in_flight.load(Ordering::Relaxed)),
            ),
            ("latency_us", quantiles_json(&self.latency)),
            ("heavy_latency_us", quantiles_json(&self.heavy_latency)),
            ("stage_collect_us", quantiles_json(&self.stage_collect)),
            ("stage_fit_us", quantiles_json(&self.stage_fit)),
            ("stage_predict_us", quantiles_json(&self.stage_predict)),
        ])
    }
}

/// Renders one latency histogram's quantile group.
fn quantiles_json(hist: &Mutex<Histogram>) -> Json {
    let h = hist.lock().expect("latency histogram poisoned");
    obj([
        ("count", Json::from(h.count())),
        ("p50", Json::from(h.quantile_us(0.50))),
        ("p99", Json::from(h.quantile_us(0.99))),
        ("mean", Json::from(h.mean_us())),
    ])
}

/// Per-site injected-fault tallies from the process-global
/// [`gsim_faults`] plan; `Json::Null` when no plan is installed. Lets
/// the chaos harness confirm faults actually fired at the advertised
/// density rather than silently validating a calm run.
fn faults_json() -> Json {
    match gsim_faults::active() {
        None => Json::Null,
        Some(inj) => obj(inj
            .injected()
            .into_iter()
            .map(|(site, n)| (site, Json::from(n)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket [64, 128)
        }
        h.record(Duration::from_millis(50)); // an outlier
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.5), Some(128));
        // p99 still sits in the common bucket; p100 sees the outlier.
        assert_eq!(h.quantile_us(0.99), Some(128));
        assert!(h.quantile_us(1.0).unwrap() >= 50_000);
        let mean = h.mean_us().unwrap();
        assert!(mean > 100.0 && mean < 1000.0, "{mean}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.mean_us(), None);
    }

    #[test]
    fn metrics_document_shape() {
        let m = Metrics::default();
        m.predict.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.observe_latency(Duration::from_micros(10));
        m.shed_heavy.fetch_add(4, Ordering::Relaxed);
        m.observe_heavy(Duration::from_millis(3));
        let doc = m.to_json(7, Json::Null, Json::Null);
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("gsim-serve-metrics-v1")
        );
        let predict = doc.get("predict").unwrap();
        assert_eq!(predict.get("cache_hits").unwrap().as_u64(), Some(2));
        let overload = doc.get("overload").unwrap();
        assert_eq!(overload.get("shed_heavy").unwrap().as_u64(), Some(4));
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("entries").unwrap().as_u64(), Some(7));
        let lat = doc.get("latency_us").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(1));
        let heavy = doc.get("heavy_latency_us").unwrap();
        assert_eq!(heavy.get("count").unwrap().as_u64(), Some(1));
        assert!(m.heavy_p50_us().unwrap() >= 3_000);
        assert_eq!(predict.get("fast_path").unwrap().as_u64(), Some(0));
        assert_eq!(predict.get("escalated").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("collects_started").unwrap().as_u64(), Some(0));
        Metrics::observe_stage(&m.stage_collect, Duration::from_micros(700));
        let doc = m.to_json(7, Json::Null, Json::Null);
        let stage = doc.get("stage_collect_us").unwrap();
        assert_eq!(stage.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(
            doc.get("stage_fit_us")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        // The key set is pinned: the benchmark reads counters by dotted
        // path and takes an absent key for 0, so a renamed counter would
        // silently weaken its checks.
        fn keys(group: &Json) -> Vec<&str> {
            match group {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }
        assert_eq!(
            keys(&doc),
            [
                "schema",
                "requests",
                "predict",
                "overload",
                "cache",
                "faults",
                "trace_store",
                "timing_sims_started",
                "collects_started",
                "in_flight",
                "latency_us",
                "heavy_latency_us",
                "stage_collect_us",
                "stage_fit_us",
                "stage_predict_us",
            ]
        );
        assert_eq!(
            keys(predict),
            [
                "cache_hits",
                "cache_misses",
                "coalesced",
                "computations",
                "errors",
                "from_trace",
                "fast_path",
                "escalated",
            ]
        );
        assert_eq!(
            keys(overload),
            ["shed_heavy", "deadline_timeouts", "admission"]
        );
        assert_eq!(keys(cache), ["entries"]);
        // Round-trips through the parser.
        gsim_json::parse(&doc.render()).unwrap();
    }
}
