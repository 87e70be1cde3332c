//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into a
//! layer of the program: name, start, end, the span that caused it, and
//! an operation id shared by every span of one simulator run, experiment
//! job or request. They are kept in memory and written out once, when the
//! traced run ends. A disabled recorder (every untraced run) takes no
//! timestamps and stores nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gsim_json::{obj, Json};

/// Operation id of the spans recorded outside the passes (the probes of
/// a traced run).
pub const PROBE_OP: u64 = 999_999_999;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Operation id shared by all spans of one operation.
    pub op: u64,
    /// `<layer>.<call>`, e.g. `gsim-sim.run`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The span's id (0 when the recorder is disabled), to pass as the
    /// parent of spans it causes.
    pub id: u32,
    parent: u32,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

/// Lists a recorder spreads its spans over, so that the client and server
/// threads of a serve workload rarely wait for one another to record.
const SHARDS: usize = 8;

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU32,
    /// A span goes to list `id % SHARDS`.
    spans: [Mutex<Vec<Span>>; SHARDS],
}

impl Recorder {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span caused by span `parent` (0 for none).
    pub fn enter(&self, name: &'static str, parent: u32, op: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                op,
                name,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span.
    pub fn exit(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans[span.id as usize % SHARDS]
            .lock()
            .expect("a span is pushed whole, so the list stays valid")
            .push(span);
    }

    /// Runs `f` inside a span and returns its value.
    pub fn span<R>(&self, name: &'static str, parent: u32, op: u64, f: impl FnOnce(u32) -> R) -> R {
        let open = self.enter(name, parent, op);
        let out = f(open.id);
        self.exit(open);
        out
    }

    /// Every span recorded so far, in order of completion.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .spans
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect("a span is pushed whole, so the list stays valid")
                    .clone()
            })
            .collect();
        all.sort_by_key(|s| (s.end_ns, s.id));
        all
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover. Children running in parallel overlap, so
/// the covered part is the union of their intervals, clipped to the
/// parent's. Returns `(span id, self ns)` in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<(u32, u64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per span name: how many spans, their total duration and their total
/// self time, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

/// Aggregates spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, (_, self_ns)) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_s += span.duration_ns() as f64 / 1e9;
        t.self_s += self_ns as f64 / 1e9;
    }
    out
}

/// Total duration in seconds of the spans named `name`.
pub fn total_s(totals: &BTreeMap<&'static str, NameTotals>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_s)
}

/// The trace document written to `out/trace-<workload>.json`: totals by
/// name over every span, and the first `list_at_most` spans themselves
/// (a `serve_hit` run records more than half a million).
pub fn trace_json(workload: &str, seed: u64, spans: &[Span], list_at_most: usize) -> Json {
    let by_name = totals_by_name(spans);
    obj([
        ("schema", Json::from("gsim-benchmark-trace-v1")),
        ("workload", Json::from(workload)),
        ("seed", Json::from(seed)),
        ("time_unit", Json::from("ns since the recorder started")),
        ("spans_recorded", Json::from(spans.len())),
        (
            "by_name",
            Json::Obj(
                by_name
                    .iter()
                    .map(|(name, t)| {
                        (
                            (*name).to_string(),
                            obj([
                                ("count", Json::from(t.count)),
                                ("total_s", Json::from(t.total_s)),
                                ("self_s", Json::from(t.self_s)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .take(list_at_most)
                    .map(|s| {
                        obj([
                            ("id", Json::from(s.id)),
                            ("parent", Json::from(s.parent)),
                            ("op", Json::from(s.op)),
                            ("name", Json::from(s.name)),
                            ("start", Json::from(s.start_ns)),
                            ("end", Json::from(s.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t.span",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Sequential children: 10..30 and 40..50.
            span(2, 1, 10, 30),
            span(3, 1, 40, 50),
            // A grandchild takes nothing more from the root.
            span(4, 2, 12, 20),
        ];
        let st: BTreeMap<u32, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(st[&1], 100 - 20 - 10);
        assert_eq!(st[&2], 20 - 8);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 8);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span(1, 0, 100, 200),
            // Two parallel jobs overlapping in 120..150.
            span(2, 1, 110, 150),
            span(3, 1, 120, 170),
            // A child that outlives its parent is clipped to it.
            span(4, 1, 190, 260),
            // A child wholly inside another adds nothing.
            span(5, 1, 130, 140),
        ];
        let st: BTreeMap<u32, u64> = self_times(&spans).into_iter().collect();
        // Covered: 110..170 and 190..200.
        assert_eq!(st[&1], 100 - 60 - 10);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = Recorder::new(false);
        let v = rec.span("t.span", 0, 1, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn enabled_recorder_links_parent_and_op() {
        let rec = Recorder::new(true);
        rec.span("t.outer", 0, 9, |outer| {
            rec.span("t.inner", outer, 9, |_| ());
        });
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "t.inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "t.outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.op, outer.op), (9, 9));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["t.outer"].count, 1);
        assert!(totals["t.outer"].self_s <= totals["t.outer"].total_s);
        let doc = trace_json("w", 1, &spans, 1);
        assert_eq!(doc.get("spans_recorded").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("by_name").and_then(Json::as_obj).map(<[_]>::len),
            Some(2)
        );
    }
}
