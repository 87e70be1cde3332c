//! The parser's fuzz slice: seeded hostile inputs — truncations, flipped
//! and inserted characters, nesting around the depth limit, inputs around
//! a small size limit, numbers past `f64`'s range, bad escapes, lone
//! surrogates and long strings — never panic, every error points inside
//! its input, the two limits are reported as limits, and random documents
//! survive render → parse unchanged. Fixed seeds; well under a second in
//! a debug build.

use gsim_json::{parse, parse_with_limits, Json, ParseError, DEFAULT_MAX_BYTES, DEFAULT_MAX_DEPTH};
use gsim_rng::Rng64;

/// Characters a hostile input is made of: JSON's own punctuation, escape
/// letters, digits and signs, whitespace, controls and multi-byte chars.
const HOSTILE: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', '\\', 'u', 'n', 't', 'f', 'e', 'E', '.', '-', '+', '0', '1',
    '9', 'a', 'D', 'F', ' ', '\t', '\n', '\r', '\u{0}', '\u{1f}', '\u{7f}', 'é', '\u{2028}',
    '\u{ffff}', '😀',
];

fn pick<T: Copy>(rng: &mut Rng64, from: &[T]) -> T {
    from[rng.gen_range(0, from.len() as u64) as usize]
}

fn random_string(rng: &mut Rng64, max_len: u64) -> String {
    (0..rng.gen_range(0, max_len + 1))
        .map(|_| {
            if rng.gen_bool(0.5) {
                pick(rng, HOSTILE)
            } else {
                char::from(rng.gen_range(0x20, 0x7f) as u8)
            }
        })
        .collect()
}

/// A finite number: small integers, integers near 2^53, fractions, and
/// arbitrary finite bit patterns (subnormals and huge values included).
fn random_number(rng: &mut Rng64) -> f64 {
    match rng.gen_range(0, 4) {
        0 => rng.gen_range(0, 1_000) as f64 - 500.0,
        1 => (rng.gen_range(0, 1 << 20) as f64 + 9.007e15) * pick(rng, &[1.0, -1.0]),
        2 => rng.next_f64() * 1e6 - 5e5,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn random_doc(rng: &mut Rng64, depth: u32) -> Json {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    match rng.gen_range(0, if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng, 12)),
        4 => Json::Arr(
            (0..rng.gen_range(0, 5))
                .map(|_| random_doc(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0, 5))
                .map(|_| (random_string(rng, 6), random_doc(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// What every outcome must satisfy: an error points inside the input and
/// says something; a value renders to text that parses back to the same
/// text (a number past `f64`'s range parsed to an infinity, which
/// renders as `null`, so the fixed point is the rendering, not the value).
fn check(input: &str, result: &Result<Json, ParseError>) {
    match result {
        Err(e) => {
            assert!(e.offset <= input.len(), "{e} past the end of {input:?}");
            assert!(!e.message.is_empty(), "empty message for {input:?}");
        }
        Ok(v) => {
            let text = v.render();
            let again = parse(&text).unwrap_or_else(|e| panic!("{text:?} from {input:?}: {e}"));
            assert_eq!(
                again.render(),
                text,
                "render of {input:?} is not a fixed point"
            );
        }
    }
}

fn mutate(rng: &mut Rng64, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    match rng.gen_range(0, 4) {
        0 => chars.truncate(rng.gen_range(0, chars.len() as u64 + 1) as usize),
        1 if !chars.is_empty() => {
            for _ in 0..rng.gen_range(1, 4) {
                let at = rng.gen_range(0, chars.len() as u64) as usize;
                chars[at] = pick(rng, HOSTILE);
            }
        }
        2 => {
            for _ in 0..rng.gen_range(1, 4) {
                let at = rng.gen_range(0, chars.len() as u64 + 1) as usize;
                chars.insert(at, pick(rng, HOSTILE));
            }
        }
        _ => chars = random_string(rng, 24).chars().collect(),
    }
    chars.into_iter().collect()
}

#[test]
fn random_documents_survive_render_then_parse() {
    let mut rng = Rng64::seed_from_u64(0x0150_F022);
    for _ in 0..400 {
        let doc = random_doc(&mut rng, 5);
        let text = doc.render();
        assert_eq!(parse(&text).as_ref(), Ok(&doc), "{text}");
    }
}

#[test]
fn mutated_documents_parse_or_fail_cleanly() {
    let mut rng = Rng64::seed_from_u64(0x0150_F023);
    for _ in 0..300 {
        let text = random_doc(&mut rng, 4).render();
        for _ in 0..10 {
            let input = mutate(&mut rng, &text);
            check(&input, &parse(&input));
        }
    }
}

#[test]
fn nesting_is_refused_past_the_depth_limit_and_only_there() {
    let mut rng = Rng64::seed_from_u64(0x0150_F024);
    let nest = |rng: &mut Rng64, levels: usize| {
        let (mut open, mut close) = (String::new(), Vec::new());
        for _ in 0..levels {
            if rng.gen_bool(0.5) {
                open.push('[');
                close.push(']');
            } else {
                open.push_str("{\"k\":");
                close.push('}');
            }
        }
        let close: String = close.into_iter().rev().collect();
        format!("{open}1{close}")
    };
    for levels in [DEFAULT_MAX_DEPTH - 1, DEFAULT_MAX_DEPTH] {
        let input = nest(&mut rng, levels);
        assert!(parse(&input).is_ok(), "{levels} levels");
    }
    for levels in [DEFAULT_MAX_DEPTH + 1, DEFAULT_MAX_DEPTH + 2, 100_000] {
        let input = nest(&mut rng, levels);
        let e = parse(&input).unwrap_err();
        assert!(e.message.contains("nesting"), "{levels} levels: {e}");
        // Unclosed nesting past the limit is refused for its depth too.
        let open = &input[..input.find('1').unwrap()];
        let e = parse(open).unwrap_err();
        assert!(e.message.contains("nesting"), "{levels} open levels: {e}");
    }
    for max_depth in 0..8 {
        let ok = nest(&mut rng, max_depth);
        let result = parse_with_limits(&ok, max_depth, DEFAULT_MAX_BYTES);
        assert!(result.is_ok(), "depth {max_depth}: {result:?}");
        check(&ok, &result);
        let deep = nest(&mut rng, max_depth + 1);
        let e = parse_with_limits(&deep, max_depth, DEFAULT_MAX_BYTES).unwrap_err();
        assert!(e.message.contains("nesting"), "depth {max_depth}: {e}");
    }
}

#[test]
fn inputs_past_the_size_limit_are_refused_as_such() {
    const MAX: usize = 24;
    let mut rng = Rng64::seed_from_u64(0x0150_F025);
    let (mut at_or_under, mut over) = (0, 0);
    for _ in 0..400 {
        let doc = random_doc(&mut rng, 2);
        let mut input = doc.render();
        if rng.gen_bool(0.3) {
            input = mutate(&mut rng, &input);
        }
        let limited = parse_with_limits(&input, DEFAULT_MAX_DEPTH, MAX);
        check(&input, &limited);
        if input.len() > MAX {
            over += 1;
            let e = limited.unwrap_err();
            assert!(e.message.contains("limit"), "{} bytes: {e}", input.len());
            assert_eq!(e.offset, 0);
        } else {
            at_or_under += 1;
            assert_eq!(limited, parse(&input), "{input:?}");
        }
    }
    assert!(
        at_or_under > 50 && over > 50,
        "{at_or_under} fit, {over} did not"
    );
    let exact = format!("\"{}\"", "x".repeat(MAX - 2));
    assert!(parse_with_limits(&exact, DEFAULT_MAX_DEPTH, MAX).is_ok());
    let e = parse_with_limits(&format!("{exact} "), DEFAULT_MAX_DEPTH, MAX).unwrap_err();
    assert!(e.message.contains("limit"), "{e}");
}

#[test]
fn numbers_past_f64_parse_and_non_json_numbers_do_not() {
    let huge = "9".repeat(400);
    let tiny = format!("0.{}1", "0".repeat(400));
    for input in [
        "1e400",
        "-1e400",
        "1e-400",
        "1E+99999999999999999999",
        &huge,
        &tiny,
    ] {
        let result = parse(input);
        assert!(result.is_ok(), "{input}: {result:?}");
        check(input, &result);
    }
    assert_eq!(parse("1e400"), Ok(Json::Num(f64::INFINITY)));
    assert_eq!(parse("1e-400"), Ok(Json::Num(0.0)));
    for input in [
        "-", "01", "-01", "00", "1.", "-.5", "1.e3", "1e", "1e+", "1E-", "+1", ".5", "--1",
    ] {
        let result = parse(input);
        assert!(result.is_err(), "{input} is not JSON: {result:?}");
        check(input, &result);
    }
    for input in [
        "0",
        "-0",
        "0.5",
        "-0.0e-0",
        "10",
        "1E5",
        "1e+5",
        "123.456e-7",
    ] {
        assert!(parse(input).is_ok(), "{input}");
    }
}

#[test]
fn bad_escapes_and_lone_surrogates_are_errors() {
    for input in [
        r#""\x""#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#""\u+123""#,
        r#""\u-123""#,
        r#""\"#,
        r#""\u"#,
        r#""\ud800""#,
        r#""\udc00""#,
        r#""\ud800\u0041""#,
        r#""\ud800x""#,
        r#""\ud800\""#,
        r#""\ud800\ud800""#,
        "\"\\u00é9\"",
    ] {
        let result = parse(input);
        assert!(result.is_err(), "{input}: {result:?}");
        check(input, &result);
    }
    assert_eq!(
        parse(r#""\ud83d\ude00\u00e9\/""#),
        Ok(Json::Str("😀é/".into()))
    );
}

#[test]
fn long_strings_survive_render_then_parse() {
    let mut rng = Rng64::seed_from_u64(0x0150_F026);
    let long = random_string(&mut rng, 1 << 17);
    let doc = Json::Arr(vec![
        Json::Str(long.clone()),
        Json::Obj(vec![(long, Json::Null)]),
    ]);
    let text = doc.render();
    assert_eq!(parse(&text), Ok(doc));
    let cut = text.char_indices().nth(text.chars().count() / 2).unwrap().0;
    check(&text[..cut], &parse(&text[..cut]));
}
