//! Unit checks of the harness's statistics, tracer, digest and verdicts,
//! and the registry check against `BENCHMARK.json`.

use jetsim_benchmark::compare::{parse_child_output, verdict, Verdict};
use jetsim_benchmark::harness::RunReport;
use jetsim_benchmark::stats::{median, quartiles};
use jetsim_benchmark::tracer::{layer_medians, self_ns, Span, Tracer};
use jetsim_benchmark::workloads::Workload;
use jetsim_benchmark::{digest, fnv1a64, MetricDef, END_TO_END, PER_LAYER};
use jetsim_serve::ServeReport;
use serde_json::Value;

#[test]
fn median_and_quartiles_match_python_for_odd_and_even_n() {
    // statistics.quantiles(data, n=4) and statistics.median.
    let odd = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(median(&odd), 3.0);
    assert_eq!(quartiles(&odd), (1.5, 4.5));
    let even = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(median(&even), 2.5);
    assert_eq!(quartiles(&even), (1.25, 3.75));
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    assert_eq!(median(&[]), 0.0);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_only_direct_children() {
    let spans = [
        span("iteration", 0, 100, None),
        span("sim.run", 10, 40, Some(0)),
        span("inner", 20, 30, Some(1)),
        span("serve.report", 50, 90, Some(0)),
    ];
    assert_eq!(self_ns(&spans), vec![30, 20, 10, 40]);
}

#[test]
fn layer_medians_sum_per_root_then_take_the_median() {
    let spans = [
        span("iteration", 0, 100, None),
        span("core.sweep", 0, 20, Some(0)),
        span("core.sweep", 20, 60, Some(0)),
        span("iteration", 100, 200, None),
        span("core.sweep", 100, 130, Some(3)),
        span("iteration", 200, 300, None),
        span("core.sweep", 200, 290, Some(5)),
    ];
    let medians = layer_medians(&spans);
    // Per iteration: 60, 30 and 90 ns of sweep.
    assert!((medians["core.sweep"] - 60e-9).abs() < 1e-18);
    // Iteration self times: 40, 70 and 10 ns.
    assert!((medians["iteration"] - 40e-9).abs() < 1e-18);
}

#[test]
fn tracer_nests_spans_and_records_nothing_when_off() {
    let mut on = Tracer::on();
    let value = on.span("setup", |t| t.span("trt.build", |_| 7));
    assert_eq!(value, 7);
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].name, spans[0].parent), ("setup", None));
    assert_eq!((spans[1].name, spans[1].parent), ("trt.build", Some(0)));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let mut off = Tracer::off();
    assert_eq!(off.span("setup", |t| t.span("trt.build", |_| 7)), 7);
    assert!(off.spans().is_empty());
}

fn report(slo_ms: f64) -> ServeReport {
    ServeReport {
        device: "Jetson Orin Nano".to_string(),
        measured_secs: 300.0,
        slo_ms,
        groups: Vec::new(),
    }
}

#[test]
fn digest_is_stable_and_sees_one_field_change() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(digest(&report(50.0)), digest(&report(50.0)));
    assert_ne!(digest(&report(50.0)), digest(&report(50.5)));
}

#[test]
fn verdicts_follow_wins_spread_and_bound() {
    let parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
    let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
    let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
    assert_eq!(verdict(&parent, &faster, 10, 10, 0.1), Verdict::Better);
    assert_eq!(verdict(&parent, &faster, 8, 10, 0.1), Verdict::Same);
    assert_eq!(verdict(&parent, &slower, 0, 10, 0.1), Verdict::Worse);
    assert_eq!(verdict(&parent, &parent, 0, 10, 0.1), Verdict::Same);
    let noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0];
    assert_eq!(verdict(&parent, &noisy, 5, 10, 0.1), Verdict::Unresolved);
}

/// Loads `BENCHMARK.json` from the repository root.
fn benchmark_json() -> Value {
    let path = jetsim_benchmark::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_in(spec: &Value, list: &str) -> Vec<String> {
    spec.get_field(list)
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{list}` list"))
        .iter()
        .map(|entry| {
            let field = |key| entry.get_field(key).and_then(Value::as_str).unwrap_or("?");
            match entry.get_field("unit") {
                Some(_) => format!("{} {}", field("name"), field("unit")),
                None => field("name").to_string(),
            }
        })
        .collect()
}

fn defs(list: &[MetricDef]) -> Vec<String> {
    list.iter()
        .map(|d| format!("{} {}", d.name, d.unit))
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let spec = benchmark_json();
    assert_eq!(
        names_in(&spec, "workloads"),
        Workload::ALL.map(Workload::name)
    );
    assert_eq!(names_in(&spec, "end_to_end"), defs(&END_TO_END));
    assert_eq!(names_in(&spec, "per_layer"), defs(&PER_LAYER));
    assert_eq!(
        spec.get_field("run_seconds"),
        Some(&Value::U64(jetsim_benchmark::DEFAULT_SECONDS as u64))
    );
}

#[test]
fn result_lines_carry_exactly_the_registered_metrics() {
    for traced in [false, true] {
        let report = RunReport {
            workload: Workload::ServeSteady,
            attempted: 3,
            failed: 0,
            digest: Some(0xabc),
            wall: vec![1.0, 1.1, 0.9],
            setups: 5,
            metrics: END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .map(|&def| (def, 0.5))
                .collect(),
            errors: Vec::new(),
            traced,
        };
        let line: Value = serde_json::from_str(&report.result_line()).expect("result line is JSON");
        let keys: Vec<&str> = line
            .as_map()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let emitted: Vec<&str> = line
            .get_field("metrics")
            .and_then(Value::as_map)
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let registered: Vec<&str> = if traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        }
        .iter()
        .map(|d| d.name)
        .collect();
        assert_eq!(emitted, registered, "traced = {traced}");
    }
}

#[test]
fn child_output_parses_into_a_results_entry() {
    let stdout = "serve_steady wall_s 1.25 s\n\
                  # serve_steady digest 00000000000000ab\n\
                  {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}\n";
    let entry = parse_child_output(stdout).expect("parses");
    assert_eq!(entry.get_field("correct"), Some(&Value::Bool(true)));
    let wall = entry
        .get_field("metrics")
        .and_then(|m| m.get_field("wall_s"))
        .and_then(|m| m.get_field("value"));
    assert_eq!(wall, Some(&Value::F64(1.25)));
    let digest = entry
        .get_field("annotations")
        .and_then(|a| a.get_field("digest"))
        .and_then(Value::as_str);
    assert_eq!(digest, Some("00000000000000ab"));
    assert!(parse_child_output("serve_steady wall_s 1.25 s\n").is_err());
}
