//! The fault-plan parser's fuzz slice: seeded hostile specs — raw bytes,
//! huge, negative and non-finite values, repeated `=`, empty pairs,
//! unicode keys and values, spliced valid pairs — never panic. Every spec
//! parses to a plan or a [`ParseError`], and every plan it accepts has
//! its probabilities in `[0, 1]` and its delays within [`MAX_DELAY_MS`].
//! Fixed seeds; well under a second in a debug build.

use gsim_faults::{FaultPlan, ParseError, MAX_DELAY_MS};
use gsim_rng::Rng64;

const KEYS: &[&str] = &[
    "seed",
    "http_delay_p",
    "http_delay_ms",
    "http_disconnect_p",
    "job_panic_p",
    "store_read_delay_p",
    "store_read_delay_ms",
    "store_short_write_p",
    "",
    " seed ",
    "SEED",
    "séed",
    "job_panic_p\u{0}",
    "😀",
    "http_delay_ms=",
];

const VALUES: &[&str] = &[
    "0",
    "1",
    "0.5",
    "1.0",
    "1.5",
    "-0",
    "-1",
    "-0.0",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "1e309",
    "-1e309",
    "1e-400",
    "60000",
    "60001",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "0x10",
    "+5",
    " 7 ",
    "",
    "=",
    "==",
    "1=2",
    "é",
    "½",
    "٣",
    "\u{ffff}",
];

fn pick<'a>(rng: &mut Rng64, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0, from.len() as u64) as usize]
}

/// A spec of up to eight pairs, each drawn from the hostile pieces: a
/// pair, an empty pair, a bare word, a pair with extra `=`, or raw
/// bytes read as (lossy) UTF-8.
fn hostile_spec(rng: &mut Rng64) -> String {
    let mut parts = Vec::new();
    for _ in 0..rng.gen_range_inclusive(0, 8) {
        let part = match rng.gen_range(0, 6) {
            0 | 1 => format!("{}={}", pick(rng, KEYS), pick(rng, VALUES)),
            2 => String::new(),
            3 => pick(rng, KEYS).to_string(),
            4 => format!("{}=={}", pick(rng, KEYS), pick(rng, VALUES)),
            _ => {
                let bytes: Vec<u8> = (0..rng.gen_range(0, 24))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                String::from_utf8_lossy(&bytes).into_owned()
            }
        };
        parts.push(part);
    }
    let sep = if rng.gen_bool(0.8) { "," } else { ", " };
    parts.join(sep)
}

/// What every outcome must satisfy.
fn check(spec: &str, got: &Result<FaultPlan, ParseError>) {
    match got {
        Ok(plan) => {
            for (name, p) in [
                ("http_delay_p", plan.http_delay_p),
                ("http_disconnect_p", plan.http_disconnect_p),
                ("job_panic_p", plan.job_panic_p),
                ("store_read_delay_p", plan.store_read_delay_p),
                ("store_short_write_p", plan.store_short_write_p),
            ] {
                assert!((0.0..=1.0).contains(&p), "{spec:?}: {name} = {p}");
            }
            for (name, ms) in [
                ("http_delay_ms", plan.http_delay_ms),
                ("store_read_delay_ms", plan.store_read_delay_ms),
            ] {
                assert!(ms <= MAX_DELAY_MS, "{spec:?}: {name} = {ms}");
            }
        }
        Err(e) => assert!(
            e.to_string().len() > "invalid fault plan: ".len(),
            "{spec:?}: empty message"
        ),
    }
}

#[test]
fn fuzz_hostile_specs_parse_or_fail_cleanly() {
    let mut rng = Rng64::seed_from_u64(0xfa17_0001);
    let (mut accepted, mut refused) = (0u32, 0u32);
    for _ in 0..5_000 {
        let spec = hostile_spec(&mut rng);
        let got = FaultPlan::parse(&spec);
        check(&spec, &got);
        if got.is_ok() {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    // The corpus reaches both outcomes, so the checks above ran on each.
    assert!(
        accepted > 100 && refused > 100,
        "{accepted} ok, {refused} refused"
    );
}

#[test]
fn fuzz_every_key_with_every_value() {
    for key in KEYS {
        for value in VALUES {
            let spec = format!("{key}={value}");
            check(&spec, &FaultPlan::parse(&spec));
        }
    }
}
