//! Property tests for the string codec of [`axi4mlir_support::json`]:
//! any string — multi-byte characters, every escape the writer emits,
//! raw control characters — survives `to_json_string` → `parse`
//! unchanged, alone and as an object key and member.

use axi4mlir_support::json::JsonValue;
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
