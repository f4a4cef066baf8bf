//! The one rule a fresh bench run is checked against its committed
//! `BENCH_<name>.json` baseline by.
//!
//! * Host-timed keys (`wall_s`, `wall_total_s`, `cells_per_s`,
//!   `sites_per_s`, `speedup_vs_cold`) are recorded and never gated.
//! * `events_per_s` may fall at most 30 % below the committed value (it
//!   may rise freely).
//! * Every other field is simulated, so host speed cannot move it: floats
//!   must match within 1e-9, integers, strings and bools exactly.
//! * A key missing from either side fails.
//!
//! Every mismatch is reported with its JSON path (`$.cells.serving.sim_events`).

use std::path::Path;

use serde_json::Value;

/// Keys whose values depend on the host and are never compared.
const HOST_TIMED: [&str; 5] = [
    "wall_s",
    "wall_total_s",
    "cells_per_s",
    "sites_per_s",
    "speedup_vs_cold",
];

/// The host-timed throughput key that is gated against regression.
const RATE_KEY: &str = "events_per_s";

/// Fraction of the committed [`RATE_KEY`] a fresh run may lose.
const RATE_TOLERANCE: f64 = 0.30;

/// Absolute slack for simulated floats: wide enough for the
/// shortest-roundtrip JSON formatting, far below any behaviour change.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// A JSON number as `f64`; `None` for any other value.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// Compares a fresh run with its baseline; one line per mismatch, empty
/// when the run passes.
fn diff(base: &Value, fresh: &Value) -> Vec<String> {
    let mut out = Vec::new();
    diff_at("$", None, base, fresh, &mut out);
    out
}

/// Compares `fresh` with the baseline at `path` under the module's
/// rule; one line per mismatch, empty when the run passes. A missing or
/// unparsable baseline is one mismatch.
pub fn check(path: &Path, fresh: &Value) -> Vec<String> {
    let base = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()));
    match base {
        Ok(base) => diff(&base, fresh),
        Err(e) => vec![format!("cannot read the baseline: {e}")],
    }
}

fn diff_at(path: &str, key: Option<&str>, base: &Value, fresh: &Value, out: &mut Vec<String>) {
    match (base, fresh) {
        _ if key.is_some_and(|k| HOST_TIMED.contains(&k)) => {}
        (Value::Map(b), Value::Map(f)) => {
            for (k, bv) in b {
                let sub = format!("{path}.{k}");
                match f.iter().find(|(fk, _)| fk == k) {
                    Some((_, fv)) => diff_at(&sub, Some(k), bv, fv, out),
                    None => out.push(format!("{sub}: missing from the fresh run")),
                }
            }
            for (k, _) in f.iter().filter(|(k, _)| !b.iter().any(|(bk, _)| bk == k)) {
                out.push(format!("{path}.{k}: not in the baseline"));
            }
        }
        (Value::Seq(b), Value::Seq(f)) if b.len() == f.len() => {
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                diff_at(&format!("{path}[{i}]"), None, bv, fv, out);
            }
        }
        _ if key == Some(RATE_KEY) => match (as_f64(base), as_f64(fresh)) {
            (Some(b), Some(f)) if f >= b * (1.0 - RATE_TOLERANCE) => {}
            _ => out.push(format!(
                "{path}: {} is more than {:.0}% below the baseline {}",
                render(fresh),
                RATE_TOLERANCE * 100.0,
                render(base)
            )),
        },
        _ if !same(base, fresh) => out.push(format!(
            "{path}: baseline {} vs fresh {}",
            render(base),
            render(fresh)
        )),
        _ => {}
    }
}

/// Integers exactly, other numbers within [`FLOAT_TOLERANCE`], anything
/// else by equality.
fn same(base: &Value, fresh: &Value) -> bool {
    let int = |v: &Value| match v {
        Value::U64(u) => Some(i128::from(*u)),
        Value::I64(i) => Some(i128::from(*i)),
        _ => None,
    };
    match (int(base), int(fresh), as_f64(base), as_f64(fresh)) {
        (Some(b), Some(f), _, _) => b == f,
        (_, _, Some(b), Some(f)) => (b - f).abs() <= FLOAT_TOLERANCE,
        _ => base == fresh,
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| format!("{v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(p99_ms: f64, events_per_s: f64, wall_s: f64) -> Value {
        json!({ "cells": { "serving": {
            "sim_events": 49756u64,
            "p99_ms": p99_ms,
            "events_per_s": events_per_s,
            "wall_s": wall_s,
        } } })
    }

    #[test]
    fn simulated_float_off_by_a_micro_fails_with_its_path() {
        assert!(diff(&doc(14.0, 6e6, 0.01), &doc(14.0, 6e6, 0.01)).is_empty());
        let out = diff(&doc(14.0, 6e6, 0.01), &doc(14.000001, 6e6, 0.01));
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].starts_with("$.cells.serving.p99_ms:"), "{out:?}");
    }

    #[test]
    fn integers_strings_bools_and_array_lengths_compare_exactly() {
        let base = json!({ "n": 7u64, "s": "a", "b": true, "v": [1.0] });
        let same = json!({ "n": 7i64, "s": "a", "b": true, "v": [1.0] });
        assert!(diff(&base, &same).is_empty());
        let fresh = json!({ "n": 8u64, "s": "b", "b": false, "v": [1.0, 2.0] });
        assert_eq!(diff(&base, &fresh).len(), 4);
    }

    #[test]
    fn events_per_s_may_fall_29_but_not_31_percent() {
        let base = doc(14.0, 1e6, 0.01);
        assert!(diff(&base, &doc(14.0, 0.71e6, 0.01)).is_empty());
        let out = diff(&base, &doc(14.0, 0.69e6, 0.01));
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].starts_with("$.cells.serving.events_per_s:"),
            "{out:?}"
        );
        assert!(diff(&base, &doc(14.0, 5e6, 0.01)).is_empty(), "rises pass");
    }

    #[test]
    fn host_timed_keys_are_never_gated() {
        assert!(diff(&doc(14.0, 6e6, 0.01), &doc(14.0, 6e6, 0.1)).is_empty());
    }

    #[test]
    fn missing_and_extra_keys_fail_by_path() {
        let base = json!({ "cells": { "a": 1u64, "b": 2u64 } });
        let missing = diff(&base, &json!({ "cells": { "a": 1u64 } }));
        assert_eq!(missing, ["$.cells.b: missing from the fresh run"]);
        let extra = json!({ "cells": { "a": 1u64, "b": 2u64, "c": 3u64 } });
        assert_eq!(diff(&base, &extra), ["$.cells.c: not in the baseline"]);
        let out = diff(&json!({ "v": [1.0, 2.0] }), &json!({ "v": [1.0, 2.5] }));
        assert!(out[0].starts_with("$.v[1]:"), "{out:?}");
    }
}
