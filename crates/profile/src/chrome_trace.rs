//! Chrome trace-event export: visualise kernel timelines in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev), the way one
//! would inspect an exported Nsight Systems timeline.

use std::fmt::Write as _;

use jetsim_sim::serving::{DropKind, ServeEventKind};
use jetsim_sim::{FaultKind, RunTrace};

/// Serving rows get their own pid block so they never collide with real
/// process pids (one row per serve group above this base).
const SERVE_PID_BASE: usize = 10_000;

/// Serialises a run's kernel events as a Chrome trace-event JSON array.
///
/// Each process becomes a `pid`, its GPU stream a `tid`, and every kernel
/// a complete (`X`) duration event with its utilisation figures attached
/// as args. The output loads directly into Perfetto.
///
/// # Examples
///
/// ```
/// use jetsim_des::SimDuration;
/// use jetsim_device::presets;
/// use jetsim_dnn::{zoo, Precision};
/// use jetsim_profile::chrome_trace;
/// use jetsim_sim::{ProcessConfig, SimConfig, Simulation};
/// use jetsim_trt::EngineBuilder;
///
/// let orin = presets::orin_nano();
/// let engine = EngineBuilder::new(&orin).precision(Precision::Int8).build(&zoo::resnet50())?;
/// let config = SimConfig::builder(orin)
///     .add_process(ProcessConfig::new("p0", engine.into(), 0))
///     .warmup(SimDuration::from_millis(100))
///     .measure(SimDuration::from_millis(300))
///     .build()?;
/// let trace = Simulation::new(config)?.run();
/// let json = chrome_trace::to_chrome_trace(&trace);
/// assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_chrome_trace(trace: &RunTrace) -> String {
    let mut out = String::with_capacity(trace.kernel_events.len() * 160 + 64);
    out.push_str("[\n");
    let mut first = true;
    for (pid, stats) in trace.processes.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        // The process NAME carries tenant identity for heterogeneous
        // deployments ("resnet50:int8:b1/0"); fall back to the engine
        // name when the two coincide ("p0" era traces).
        let label = if stats.name.contains(':') {
            format!("{} [{}]", stats.name, stats.engine_name)
        } else {
            stats.engine_name.clone()
        };
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(&label)
        )
        .expect("write to String");
    }
    for event in &trace.kernel_events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let name = trace
            .kernel_names
            .get(event.pid)
            .and_then(|names| names.get(event.kernel_index))
            .map(|n| escape(n))
            .unwrap_or_else(|| format!("k{}", event.kernel_index));
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"ec\":{},\"sm_active\":{:.3},\
             \"issue_slot\":{:.3},\"tc\":{:.3},\"bytes\":{}}}}}",
            name,
            event.precision,
            event.pid,
            event.start.as_micros_f64(),
            event.duration().as_micros_f64(),
            event.ec_seq,
            event.sm_active,
            event.issue_slot,
            event.tc_activity,
            event.bytes,
        )
        .expect("write to String");
    }
    // Fault-injection events render as global instants ("i" phase) so a
    // kill or a throttle lock lines up visually with the kernels it
    // perturbs.
    for fault in &trace.fault_events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let (name, args) = match &fault.kind {
            FaultKind::MemorySpikeStart { bytes } => {
                ("memory_spike_start", format!("{{\"bytes\":{bytes}}}"))
            }
            FaultKind::MemorySpikeEnd { bytes } => {
                ("memory_spike_end", format!("{{\"bytes\":{bytes}}}"))
            }
            FaultKind::ThrottleLockStart { step, mhz } => (
                "throttle_lock_start",
                format!("{{\"step\":{step},\"mhz\":{mhz}}}"),
            ),
            FaultKind::ThrottleLockEnd => ("throttle_lock_end", "{}".to_string()),
            FaultKind::ProcessKilled {
                pid,
                name,
                freed_bytes,
            } => (
                "oom_process_killed",
                format!(
                    "{{\"victim_pid\":{pid},\"victim\":\"{}\",\"freed_bytes\":{freed_bytes}}}",
                    escape(name)
                ),
            ),
            _ => ("fault", "{}".to_string()),
        };
        write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\
             \"pid\":0,\"tid\":0,\"ts\":{:.3},\"args\":{args}}}",
            fault.time.as_micros_f64(),
        )
        .expect("write to String");
    }
    // Serving rows: one pid per serve group carrying queue-wait spans,
    // batch formations, degradation flips and drops. Closed-loop traces
    // have empty serving vectors and emit nothing here.
    for (g, label) in trace.serve_group_labels.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\
             \"args\":{{\"name\":\"serve:{}\"}}}}",
            SERVE_PID_BASE + g,
            escape(label)
        )
        .expect("write to String");
    }
    for r in &trace.requests {
        let Some(wait) = r.queue_wait() else {
            continue;
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        write!(
            out,
            "{{\"name\":\"queue_wait\",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":{},\
             \"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"seq\":{},\
             \"batch_size\":{},\"server_pid\":{},\"degraded\":{}}}}}",
            SERVE_PID_BASE + r.group(),
            r.arrival.as_micros_f64(),
            wait.as_micros_f64(),
            r.seq(),
            r.batch_size,
            r.pid().map(|p| p as i64).unwrap_or(-1),
            r.degraded,
        )
        .expect("write to String");
    }
    for r in &trace.requests {
        let Some(drop) = r.dropped() else { continue };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let kind = match drop.kind {
            DropKind::Rejected => "rejected",
            DropKind::Shed => "shed",
            _ => "dropped",
        };
        write!(
            out,
            "{{\"name\":\"request_dropped\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":{},\"tid\":0,\"ts\":{:.3},\"args\":{{\"seq\":{},\"kind\":\"{kind}\"}}}}",
            SERVE_PID_BASE + r.group(),
            drop.at.as_micros_f64(),
            r.seq(),
        )
        .expect("write to String");
    }
    for event in &trace.serve_events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let (name, args) = match event.kind {
            ServeEventKind::BatchFormed {
                pid,
                size,
                queue_depth,
                degraded,
                ..
            } => (
                "batch_formed",
                format!(
                    "{{\"server_pid\":{pid},\"size\":{size},\
                     \"queue_depth\":{queue_depth},\"degraded\":{degraded}}}"
                ),
            ),
            ServeEventKind::DegradeEnter { queue_depth } => (
                "degrade_enter",
                format!("{{\"queue_depth\":{queue_depth}}}"),
            ),
            ServeEventKind::DegradeExit { queue_depth } => {
                ("degrade_exit", format!("{{\"queue_depth\":{queue_depth}}}"))
            }
            _ => ("serve_event", "{}".to_string()),
        };
        write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"t\",\
             \"pid\":{},\"tid\":0,\"ts\":{:.3},\"args\":{args}}}",
            SERVE_PID_BASE + event.group,
            event.time.as_micros_f64(),
        )
        .expect("write to String");
    }
    out.push_str("\n]\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::orin_processes;
    use jetsim_des::SimDuration;
    use jetsim_dnn::{zoo, Precision};
    use jetsim_sim::Simulation;

    fn sample_trace() -> RunTrace {
        let config = orin_processes(&zoo::resnet50(), Precision::Int8, 2)
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(300))
            .build()
            .unwrap();
        Simulation::new(config).unwrap().run()
    }

    #[test]
    fn output_is_wellformed_json_array() {
        let json = to_chrome_trace(&sample_trace());
        // serde_json is not a dependency here; check structure manually.
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            sample_trace().kernel_events.len()
        );
    }

    #[test]
    fn contains_metadata_and_both_pids() {
        let json = to_chrome_trace(&sample_trace());
        assert!(json.contains("process_name"));
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("sm_active"));
    }

    #[test]
    fn escape_handles_quotes() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn closed_loop_traces_emit_no_serve_rows() {
        let json = to_chrome_trace(&sample_trace());
        assert!(!json.contains("\"cat\":\"serve\""));
        assert!(!json.contains("serve:"));
    }

    #[test]
    fn serve_runs_export_queue_rows_and_batch_instants() {
        use jetsim_des::ArrivalProcess;
        use jetsim_sim::{ServeGroup, ServePlan};
        let plan = ServePlan::new().group(
            ServeGroup::new("resnet50:int8:b1", ArrivalProcess::poisson(120.0))
                .members([0])
                .max_delay(SimDuration::from_millis(4)),
        );
        let config = orin_processes(&zoo::resnet50(), Precision::Int8, 1)
            .serve(plan)
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(400))
            .build()
            .unwrap();
        let trace = Simulation::new(config).unwrap().run();
        assert!(!trace.requests.is_empty());
        let json = to_chrome_trace(&trace);
        assert!(json.contains("serve:resnet50:int8:b1"));
        assert!(json.contains("\"name\":\"queue_wait\""));
        assert!(json.contains("\"name\":\"batch_formed\""));
        assert!(json.contains(&format!("\"pid\":{SERVE_PID_BASE}")));
    }

    #[test]
    fn fault_events_export_as_instants() {
        use jetsim_des::SimTime;
        use jetsim_sim::FaultPlan;
        let plan = FaultPlan::new().throttle_lock(
            SimTime::from_nanos(50_000_000),
            SimDuration::from_millis(100),
            0,
        );
        let config = orin_processes(&zoo::resnet50(), Precision::Int8, 1)
            .warmup(SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(300))
            .faults(plan)
            .build()
            .unwrap();
        let trace = Simulation::new(config).unwrap().run();
        assert!(!trace.fault_events.is_empty());
        let json = to_chrome_trace(&trace);
        assert!(json.contains("\"ph\":\"i\""), "instant events present");
        assert!(json.contains("throttle_lock_start"));
        assert!(json.contains("\"cat\":\"fault\""));
    }
}
