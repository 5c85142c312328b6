//! Property tests for the string codec of [`axi4mlir_support::json`]:
//! any string — multi-byte characters, every escape the writer emits,
//! raw control characters — survives `to_json_string` → `parse`
//! unchanged, alone and as an object key and member. Below them, the
//! [`Members`] reader every wire decoder goes through: typed members,
//! and errors that name the member.

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// One character, biased toward the ones the codec treats specially:
/// the short escapes, `\u00XX` control characters, and multi-byte
/// UTF-8 of every length.
fn arb_char() -> BoxedStrategy<char> {
    let specials: Vec<char> =
        "\"\\/\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}éΩ日\u{fffd}\u{ffff}😀🚀\u{10ffff}"
            .chars()
            .collect();
    prop_oneof![
        select(specials),
        (0u32..0x80).prop_map(|c| char::from_u32(c).expect("ASCII is a scalar value")),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')),
    ]
    .boxed()
}

fn arb_string() -> BoxedStrategy<String> {
    vec(arb_char(), 0..48).prop_map(|chars| chars.into_iter().collect()).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip_through_the_codec(text in arb_string(), key in arb_string()) {
        let value = JsonValue::Str(text.clone());
        let encoded = value.to_json_string();
        prop_assert!(!encoded.contains('\n'), "frames stay on one line: {encoded:?}");
        prop_assert_eq!(JsonValue::parse(&encoded).map_err(|e| TestCaseError::fail(e.message))?, value);

        let object = JsonValue::object([(key, JsonValue::Str(text))]);
        for encoded in [object.to_json_string(), object.to_json_pretty()] {
            let parsed = JsonValue::parse(&encoded).map_err(|e| TestCaseError::fail(e.message))?;
            prop_assert_eq!(&parsed, &object);
        }
    }
}

#[test]
fn members_decode_typed_values() {
    let v = JsonValue::parse(
        r#"{"s": "x", "n": 7, "i": -2, "f": 1.5, "b": true, "xs": ["a", "b"],
            "pairs": [["p", 1]], "dims": [1, 2, 3], "nothing": null}"#,
    )
    .unwrap();
    let m = Members::of(&v, "frame").unwrap();
    assert_eq!(m.req::<&str>("s").unwrap(), "x");
    assert_eq!(m.req::<String>("s").unwrap(), "x");
    assert_eq!(m.req::<u64>("n").unwrap(), 7);
    assert_eq!(m.req::<usize>("n").unwrap(), 7);
    assert_eq!(m.req::<i64>("i").unwrap(), -2);
    assert_eq!(m.req::<f64>("f").unwrap(), 1.5);
    assert_eq!(m.req::<f64>("n").unwrap(), 7.0, "integers read as numbers");
    assert!(m.req::<bool>("b").unwrap());
    assert_eq!(m.req::<Vec<String>>("xs").unwrap(), ["a", "b"]);
    assert_eq!(m.req::<Vec<(String, u64)>>("pairs").unwrap(), [("p".to_owned(), 1)]);
    assert_eq!(m.req::<(i64, i64, i64)>("dims").unwrap(), (1, 2, 3));
    assert_eq!(m.opt::<u64>("absent").unwrap(), None);
    assert_eq!(m.opt::<u64>("nothing").unwrap(), None, "null reads as absent");
    assert_eq!(m.opt::<u64>("n").unwrap(), Some(7));
}

#[test]
fn member_errors_name_the_member() {
    let v = JsonValue::parse(r#"{"n": -1, "xs": ["a", 2], "o": 1}"#).unwrap();
    let m = Members::of(&v, "frame").unwrap();
    let message = |err: Diagnostic| err.message;
    assert_eq!(message(m.req::<u64>("gone").unwrap_err()), "frame requires a `gone`");
    assert_eq!(message(m.req::<u64>("n").unwrap_err()), "frame: n must be a non-negative integer");
    assert_eq!(
        message(m.opt::<Vec<String>>("xs").unwrap_err()),
        "frame: xs must be an array of a string"
    );
    assert_eq!(message(m.object("o").unwrap_err()), "frame: o must be a JSON object");
    assert_eq!(message(m.invalid("n", "is out of range")), "frame: n is out of range");
    assert_eq!(
        message(Members::of(&JsonValue::Int(5), "frame").unwrap_err()),
        "frame: expected a JSON object, found number"
    );
}
