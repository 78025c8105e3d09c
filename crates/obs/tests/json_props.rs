//! Fuzz suite for the [`icd_obs::json`] parser, the decoder behind
//! `icdiag check-metrics` and `icdiag benchdiff`:
//!
//! * arbitrary text and byte mutations of a valid document give a value
//!   or a typed [`JsonError`](icd_obs::json::JsonError) whose offset lies
//!   inside the input — never a panic;
//! * [`json::write_string`] followed by [`json::parse`] round-trips every
//!   string;
//! * nesting is bounded at [`MAX_DEPTH`]: a million `[` is an error, not
//!   a stack overflow, and a document exactly at the bound parses.

#![allow(clippy::unwrap_used, clippy::panic)] // test code

use icd_obs::json::{self, Value, MAX_DEPTH};
use proptest::prelude::*;

/// JSON's structural, literal, number and escape characters.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 'n', 't', 'r', 'f', 'b', 'a', 'l', 's', 'e', '0',
    '1', '9', 'A', '-', '+', '.', 'E', ' ', '\n', '/',
];

/// A valid document shaped like the ones the workspace writes: a
/// metrics entry, a span forest and a string with every escape.
const DOCUMENT: &str = r#"{ "counters": { "batch.datalogs": { "value": 8, "stability": "stable" } },
  "trace": [ { "name": "batch.front", "attrs": { "datalog": 0 }, "thread": 1,
    "start_us": 12, "duration_us": 345, "children": [ { "name": "flow.sanitize" } ] } ],
  "ratio": -1.5e-3, "ok": true, "none": null, "text": "a\"b\\c\/d\n\té\u0001" }"#;

/// JSON's own alphabet half the time, any Unicode scalar value
/// otherwise.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')),
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..96).prop_map(|chars| chars.into_iter().collect())
}

/// Parses `text`; an error must point inside it.
fn parse_checked(text: &str) -> Result<(), String> {
    if let Err(e) = json::parse(text) {
        prop_assert!(
            e.offset <= text.len(),
            "offset {} past the end of {} bytes ({e})",
            e.offset,
            text.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_gives_a_value_or_an_error(text in arb_text()) {
        parse_checked(&text)?;
    }

    /// Overwrites, inserts or deletes a few bytes of [`DOCUMENT`]; byte
    /// sequences that are no longer UTF-8 become U+FFFD.
    #[test]
    fn mutated_documents_give_a_value_or_an_error(
        edits in prop::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 1..6),
    ) {
        let mut bytes = DOCUMENT.as_bytes().to_vec();
        for (op, at, byte) in edits {
            let at = at % bytes.len();
            match op {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        parse_checked(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn written_strings_parse_back(text in arb_text()) {
        let mut out = String::new();
        json::write_string(&mut out, &text);
        prop_assert_eq!(json::parse(&out), Ok(Value::Str(text)));
    }
}

#[test]
fn the_fixed_document_parses() {
    let doc = json::parse(DOCUMENT).unwrap();
    assert_eq!(
        doc.get("text").and_then(Value::as_str),
        Some("a\"b\\c/d\n\t\u{e9}\u{1}")
    );
}

#[test]
fn a_million_open_brackets_is_an_error_at_the_first_too_deep_one() {
    let err = json::parse(&"[".repeat(1_000_000)).unwrap_err();
    assert_eq!(err.offset, MAX_DEPTH);
    assert!(err.message.contains("nesting"), "{err}");
    let err = json::parse(&"{\"a\":".repeat(1_000_000)).unwrap_err();
    assert_eq!(err.offset, 5 * MAX_DEPTH);
}

#[test]
fn nesting_exactly_at_the_bound_parses() {
    let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    json::parse(&at_bound).unwrap();
    let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
    json::parse(&objects).unwrap();
    let past = format!("[{at_bound}]");
    assert_eq!(json::parse(&past).unwrap_err().offset, MAX_DEPTH);
}

#[test]
fn a_unicode_escape_takes_exactly_four_hex_digits() {
    assert_eq!(json::parse(r#""\u0041""#), Ok(Value::Str("A".into())));
    for bad in [
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u 041""#,
        r#""\u004""#,
        r#""\u00g1""#,
    ] {
        assert!(json::parse(bad).is_err(), "{bad} parsed");
    }
}
