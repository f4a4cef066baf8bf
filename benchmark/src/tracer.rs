//! Spans recorded around the calls the harness makes into each layer.
//!
//! A [`Tracer`] keeps spans in memory (name, start, end, parent) and the
//! harness writes them out when the run ends. Spans nest by a stack, so
//! the children of one span never overlap each other; a span's self
//! time is its duration minus the sum of its children's durations. With
//! tracing off, [`Tracer::span`] just calls its closure.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`; the part before the first
    /// `.` names the crate.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root (`setup`,
    /// `iteration`, or a traced extra).
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. While not recording it records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Tracer {
            recording: true,
            ..Tracer::off()
        }
    }

    /// Whether [`Tracer::span`] records.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Starts or stops recording, between root spans.
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: elapsed_ns(self.origin),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = elapsed_ns(self.origin);
        out
    }

    /// Closes every span a panic unwound through, at the current time,
    /// so the next root span starts a fresh stack.
    pub fn close_abandoned(&mut self) {
        let now = elapsed_ns(self.origin);
        for index in self.open.drain(..) {
            self.spans[index].end_ns = now;
        }
    }

    /// The spans recorded so far, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// Self time of every span, ns: its duration minus its children's.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per span name, the median over root spans (one set-up, one iteration,
/// one traced extra) of the summed self time of that name's spans under
/// the root, in seconds. Roots without such a span do not count.
pub fn layer_medians(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_ns(spans);
    let mut root = vec![0usize; spans.len()];
    let mut per_root: BTreeMap<&'static str, BTreeMap<usize, u64>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        root[i] = span.parent.map_or(i, |p| root[p]);
        *per_root
            .entry(span.name)
            .or_default()
            .entry(root[i])
            .or_default() += own[i];
    }
    per_root
        .into_iter()
        .map(|(name, totals)| {
            let secs: Vec<f64> = totals.values().map(|&ns| ns as f64 * 1e-9).collect();
            (name, crate::stats::median(&secs))
        })
        .collect()
}

/// The spans as a chrome-trace document of complete (`X`) events, in
/// microseconds, with each span's crate as its category and its parent
/// and self time as arguments.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let own = self_ns(spans);
    let events = spans
        .iter()
        .zip(&own)
        .map(|(span, &self_time)| {
            let category = span.name.split('.').next().unwrap_or(span.name);
            let parent = span.parent.map_or("", |p| spans[p].name);
            Value::Map(vec![
                ("name".into(), Value::Str(span.name.into())),
                ("cat".into(), Value::Str(category.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(span.start_ns as f64 / 1e3)),
                ("dur".into(), Value::F64(span.duration_ns() as f64 / 1e3)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(1)),
                (
                    "args".into(),
                    Value::Map(vec![
                        ("parent".into(), Value::Str(parent.into())),
                        ("self_us".into(), Value::F64(self_time as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}
