//! Results files and the `compare` verdicts.
//!
//! `all` turns each workload child's output into one entry of
//! `out/results-<seed>.json`; `compare A/ B/` reads two directories of
//! such files (A the parent, B the change) and judges every workload x
//! end-to-end metric.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::stats::{median, quartiles, relative_iqr};
use crate::workloads::Workload;
use crate::END_TO_END;

/// Turns a workload child's standard output into its results entry:
/// `correct`, `attempted` and `failed` from the final result line, every
/// `workload metric value unit` line under `metrics`, and every
/// `# workload key value` annotation under `annotations`.
///
/// # Errors
///
/// The output has no result line, or a line does not parse.
pub fn parse_child_output(stdout: &str) -> Result<Value, String> {
    let mut metrics = Vec::new();
    let mut annotations = Vec::new();
    let mut result = None;
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [] => {}
            _ if line.starts_with('{') => {
                result = Some(serde_json::from_str::<Value>(line).map_err(|e| e.to_string())?);
            }
            ["#", _, key, value] => {
                annotations.push((key.to_string(), Value::Str(value.to_string())))
            }
            [_, name, value, unit] => {
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("bad value in `{line}`"))?;
                metrics.push((
                    name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.to_string())),
                    ]),
                ));
            }
            _ => return Err(format!("cannot parse `{line}`")),
        }
    }
    let result = result.ok_or("no result line")?;
    let field = |key: &str| result.get_field(key).cloned().unwrap_or(Value::Null);
    Ok(Value::Map(vec![
        ("correct".into(), field("correct")),
        ("attempted".into(), field("attempted")),
        ("failed".into(), field("failed")),
        ("annotations".into(), Value::Map(annotations)),
        ("metrics".into(), Value::Map(metrics)),
    ]))
}

/// A judgement of one end-to-end metric, lower being better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At least 9 in 10 pairs are wins and the medians differ by more
    /// than the parent's interquartile range.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// One side's interquartile range, as a share of its median, is
    /// wider than the bound.
    Unresolved,
    /// Neither better nor worse.
    Same,
}

/// Judges `change` against `parent` under `bound` (a share of the
/// parent's median). `wins` of `pairs` same-seed pairs read lower on the
/// change side.
pub fn verdict(parent: &[f64], change: &[f64], wins: usize, pairs: usize, bound: f64) -> Verdict {
    let (a, b) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    if pairs > 0 && wins * 10 >= pairs * 9 && a - b > q3 - q1 {
        Verdict::Better
    } else if relative_iqr(parent) > bound || relative_iqr(change) > bound {
        Verdict::Unresolved
    } else if b > a * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// One results file: its seed and per-workload entries.
struct ResultsFile {
    seed: u64,
    workloads: Value,
}

impl ResultsFile {
    fn metric(&self, workload: &str, metric: &str) -> Option<f64> {
        let value = self
            .workloads
            .get_field(workload)?
            .get_field("metrics")?
            .get_field(metric)?
            .get_field("value")?;
        match value {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    fn digest(&self, workload: &str) -> Option<&str> {
        self.workloads
            .get_field(workload)?
            .get_field("annotations")?
            .get_field("digest")?
            .as_str()
    }
}

fn load_dir(dir: &Path) -> Result<Vec<ResultsFile>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !(name.starts_with("results-") && name.ends_with(".json")) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let seed = match value.get_field("seed") {
            Some(Value::U64(seed)) => *seed,
            _ => return Err(format!("{}: no seed", path.display())),
        };
        let workloads = value.get_field("workloads").cloned().unwrap_or(Value::Null);
        files.push(ResultsFile { seed, workloads });
    }
    if files.is_empty() {
        return Err(format!("{}: no results-*.json files", dir.display()));
    }
    files.sort_by_key(|f| f.seed);
    Ok(files)
}

/// Each end-to-end metric's bound, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = crate::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let metrics = spec
        .get_field("end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get_field("name").and_then(Value::as_str);
            match (name, m.get_field("bound")) {
                (Some(name), Some(Value::F64(bound))) => Ok((name.to_string(), *bound)),
                _ => Err("BENCHMARK.json: an end_to_end metric lacks a name or bound".to_string()),
            }
        })
        .collect()
}

/// Prints medians, quartiles, wins, the verdict and digest equality for
/// every workload x end-to-end metric. Returns `true` when nothing is
/// worse and every same-seed digest pair is equal.
///
/// # Errors
///
/// A directory or `BENCHMARK.json` cannot be read.
pub fn compare(parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let (parent, change) = (load_dir(parent_dir)?, load_dir(change_dir)?);
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<13} {:<12} {:>40} {:>40} {:>6}  {:<10} digests",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "wins", "verdict"
    );
    for workload in Workload::ALL.map(Workload::name) {
        let digests_equal = parent.iter().all(|a| {
            change
                .iter()
                .filter(|b| b.seed == a.seed)
                .all(|b| a.digest(workload) == b.digest(workload))
        });
        ok &= digests_equal;
        for def in END_TO_END {
            let side = |files: &[ResultsFile]| -> Vec<f64> {
                files
                    .iter()
                    .filter_map(|f| f.metric(workload, def.name))
                    .collect()
            };
            let (a, b) = (side(&parent), side(&change));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = parent
                .iter()
                .filter_map(|pa| {
                    let pb = change.iter().find(|pb| pb.seed == pa.seed)?;
                    Some((
                        pa.metric(workload, def.name)?,
                        pb.metric(workload, def.name)?,
                    ))
                })
                .collect();
            let wins = pairs.iter().filter(|(x, y)| y < x).count();
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let v = verdict(&a, &b, wins, pairs.len(), bound);
            ok &= v != Verdict::Worse;
            println!(
                "{workload:<13} {:<12} {:>40} {:>40} {:>6}  {:<10} {}",
                def.name,
                summary(&a),
                summary(&b),
                format!("{wins}/{}", pairs.len()),
                format!("{v:?}").to_lowercase(),
                if digests_equal { "equal" } else { "DIFFER" }
            );
        }
    }
    Ok(ok)
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("{:.6} [{q1:.6}, {q3:.6}] {}", median(values), values.len())
}
