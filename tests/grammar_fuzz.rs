//! Every input grammar under arbitrary strings: scenario documents
//! (both the TOML and the JSON arm), tenant specs, arrival and duration
//! literals, and the GPU-policy, router and network grammars. Each
//! parser must return `Ok` or `Err`, never panic, and a TOML error must
//! name its line.
//!
//! The strings mix grammar fragments (keys, separators, units, model
//! and policy names) with arbitrary code points, including non-ASCII,
//! control characters and line breaks, so cases reach past the first
//! token. The vendored proptest does not shrink: a failing case prints
//! its input in full, and inputs that once failed stay below as named
//! regression cases.

use proptest::prelude::*;

use jetsim::deployment::Tenant;
use jetsim::scenario::{parse_arrival, parse_duration, ScenarioSpec};
use jetsim_fleet::{NetworkModel, RouterPolicy};
use jetsim_sim::GpuPolicy;

/// Pieces of the grammars under test.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "\n", "\r\n", "\r", "\t", " ", "=", ":", ",", ".", "-", "+", "#", "\"", "\\", "'", "[", "]",
    "[[", "]]", "{", "}", "0", "1", "7", "16", "300", "1e300", "18446744073", "-1", "0.5",
    "NaN", "inf", "s", "ms", "us", "true", "false", "null", "tenants", "spec", "arrival",
    "seed", "duration", "warmup", "slo", "device", "gpu_policy", "fleet", "sites", "router",
    "cloud", "autoscale", "min_replicas", "resnet50", "yolov8n", "int8", "fp16", "b4", "model",
    "precision", "batch", "count", "priority", "sm_share", "poisson", "mmpp", "rr", "fifo",
    "mps", "round_robin", "least_queue", "offload", "base", "jitter", "bw", "req_kb", "é", "日本",
    "🚀", "\u{0}", "\u{7f}", "\u{feff}", "\u{2028}",
];

/// Scenario keys and table headers, for documents that reach the
/// schema.
#[rustfmt::skip]
const KEYS: &[&str] = &[
    "seed", "duration", "warmup", "slo", "device", "gpu_policy", "fault_seed", "deadline",
    "retry", "hedge", "breaker", "recovery", "max_delay", "queue_cap", "admission", "spec",
    "arrival", "min_replicas", "max_replicas", "target_queue", "keep_alive", "slo_burn",
    "sites", "router", "cloud", "bandwidth_mbps", "tenants", "fleet", "autoscale", "x",
];
#[rustfmt::skip]
const HEADERS: &[&str] = &[
    "[fleet]", "[autoscale]", "[[tenants]]", "[tenants.autoscale]", "[fleet.x]", "[[fleet]]",
    "[[seed]]", "[a.b.c]", "[ ]", "[.]", "[[]]",
];

/// JSON tokens, for documents that reach past the first byte of the
/// JSON arm.
#[rustfmt::skip]
const JSON_TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", " ", "\n", "\"seed\"", "\"tenants\"", "\"spec\"", "\"fleet\"",
    "\"sites\"", "\"duration\"", "\"autoscale\"", "\"resnet50:int8:1\"", "\"", "\\", "\\u",
    "\\ud83d", "\\ude00", "\\ud800", "\\u00e9", "\\n", "\\x", "0", "-0", "7", "1e400",
    "-1e-400", "18446744073709551616", "0.5e", "-", ".", "true", "null", "nul", "é", "🚀",
];

/// One arbitrary code point.
fn code_point(code: u32) -> String {
    char::from_u32(code % 0x11_0000)
        .unwrap_or(char::REPLACEMENT_CHARACTER)
        .to_string()
}

/// Arbitrary text: grammar fragments and arbitrary code points.
fn text() -> impl Strategy<Value = String> {
    let piece = (
        0u8..3,
        prop::sample::select(FRAGMENTS.to_vec()),
        any::<u32>(),
    );
    prop::collection::vec(piece, 0..48).prop_map(|pieces| {
        pieces
            .into_iter()
            .map(|(kind, fragment, code)| match kind {
                0 => code_point(code),
                _ => fragment.to_string(),
            })
            .collect()
    })
}

/// Line-shaped TOML: headers and `key = value` lines whose values are
/// strings, numbers, booleans or arbitrary text.
fn toml_doc() -> impl Strategy<Value = String> {
    let line = (
        0u8..8,
        prop::sample::select(KEYS.to_vec()),
        prop::sample::select(HEADERS.to_vec()),
        text(),
    );
    prop::collection::vec(line, 0..12).prop_map(|lines| {
        let lines: Vec<String> = lines
            .into_iter()
            .map(|(kind, key, header, text)| match kind {
                0 => header.to_string(),
                1 => format!("{key} = \"{text}\""),
                2 => format!("{key} = {}", text.len()),
                3 => format!("{key} = -{}.5", text.len()),
                4 => format!("{key} = true # {text}"),
                5 => format!("{key} = {text}"),
                6 => text,
                _ => String::new(),
            })
            .collect();
        lines.join("\n")
    })
}

/// Token-shaped JSON documents, each starting with `{`.
fn json_doc() -> impl Strategy<Value = String> {
    let token = (
        0u8..6,
        prop::sample::select(JSON_TOKENS.to_vec()),
        any::<u32>(),
    );
    prop::collection::vec(token, 0..40).prop_map(|tokens| {
        let body: String = tokens
            .into_iter()
            .map(|(kind, token, code)| match kind {
                0 => code_point(code),
                _ => token.to_string(),
            })
            .collect();
        format!("{{{body}")
    })
}

/// Runs every grammar on `input`. A panic propagates; an `Err` from the
/// TOML arm that names no line fails.
fn parse_everything(input: &str) -> Result<(), TestCaseError> {
    let _ = format!("{{{input}").parse::<ScenarioSpec>();
    if !input.trim_start().starts_with('{') {
        if let Err(e) = input.parse::<ScenarioSpec>() {
            prop_assert!(
                e.contains("TOML line "),
                "TOML error names no line: {e}\n  input: {input:?}"
            );
        }
    }
    let _ = Tenant::parse(input);
    let _ = parse_arrival(input);
    let _ = parse_duration(input);
    let _ = input.parse::<GpuPolicy>();
    let _ = input.parse::<RouterPolicy>();
    let _ = input.parse::<NetworkModel>();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn no_grammar_panics_on_arbitrary_text(input in text()) {
        parse_everything(&input)?;
    }

    #[test]
    fn no_grammar_panics_on_line_shaped_toml(input in toml_doc()) {
        parse_everything(&input)?;
    }

    #[test]
    fn no_grammar_panics_on_token_shaped_json(input in json_doc()) {
        parse_everything(&input)?;
    }
}

#[test]
fn inputs_that_once_failed_stay_fixed() {
    let deep = 1 << 20;
    for input in [
        // Each nesting level of the JSON arm and each header segment of
        // the TOML arm was a stack frame, so these overflowed the stack.
        format!("{{\"tenants\":{}", "[".repeat(deep)),
        format!("[{}]", vec!["a"; deep].join(".")),
        // A schema error named no line.
        "seed = 1\nfleet = \"x\"".to_string(),
    ] {
        parse_everything(&input).unwrap_or_else(|e| panic!("{e}"));
    }
}
