//! Property tests for the untrusted-input parsers: [`Json::parse`] and the
//! daemon's [`Request::parse`] must answer *any* line with a value or an
//! error — never a panic, and never a stack overflow however deep the
//! nesting. Inputs are drawn from JSON's punctuation plus the tokens that
//! steer the parsers into their string-escape, number, literal and
//! request-field paths.

use barracuda::json::Json;
use barracuda::serve::Request;
use proptest::prelude::*;

const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "\"",
    ":",
    ",",
    "\\",
    "\\u",
    "d83d",
    "00",
    " ",
    "\n",
    "-",
    "+",
    "1",
    "0.5",
    "e9",
    ".",
    "true",
    "nul",
    "null",
    "\"op\"",
    "\"tune\"",
    "\"ping\"",
    "\"workload\"",
    "\"builtin:eqn1\"",
    "\"objective\"",
    "\"mem_budget\"",
    "\"penalize\"",
    "é",
];

/// A line of tokens, optionally behind a run of up to 300 `[`/`{` that
/// straddles the nesting cap.
fn hostile_line() -> impl Strategy<Value = String> {
    (
        0usize..300,
        0usize..2,
        proptest::collection::vec(0usize..TOKENS.len(), 0..48),
    )
        .prop_map(|(depth, bracket, ixs)| {
            let open = if bracket == 0 { "[" } else { "{\"a\":" };
            let mut line = open.repeat(depth);
            for i in ixs {
                line.push_str(TOKENS[i]);
            }
            line
        })
}

proptest! {
    #[test]
    fn json_parse_never_panics(line in hostile_line()) {
        let _ = Json::parse(&line);
    }

    #[test]
    fn request_parse_never_panics(line in hostile_line()) {
        let _ = Request::parse(&line);
    }
}
