//! In-memory spans recorded by the harness around its own calls.
//!
//! A span has a name (`layer.what`), a start and an end in nanoseconds
//! since the tracer's origin, the span that caused it, and the id of
//! the op it belongs to. Nothing is written until the run has ended. A
//! layer's self time is its spans' duration minus what their direct
//! children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the causing span in the same tracer.
    pub parent: Option<usize>,
    /// Op (campaign unit batch or request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. A disabled tracer records nothing and calls the
/// closure directly, so the untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (share one origin among
    /// the tracers of a run so their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened within nest under it.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a child of the innermost open span whose duration is
    /// known but whose boundaries are not visible from outside (time a
    /// layer reports about itself). It starts where its parent starts.
    pub fn child_of_known_duration(&mut self, name: &'static str, op: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            op,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the summed durations of its direct children (floored at zero — a
/// reported child can exceed a measured parent by clock granularity).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(&child_ns) {
        *out.entry(span.name).or_insert(0) += span.dur_ns().saturating_sub(*covered);
    }
    out
}

/// [`self_times`] in seconds.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    self_times(spans)
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e9))
        .collect()
}

/// Total duration per span name, in nanoseconds.
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for span in spans {
        *out.entry(span.name).or_insert(0) += span.dur_ns();
    }
    out
}

/// Cost of recording one span, in nanoseconds: the median over batches
/// of empty spans. Tracing overhead is this times the spans recorded.
pub fn span_cost_ns() -> f64 {
    const BATCH: usize = 2_000;
    let mut per_span = Vec::new();
    for _ in 0..9 {
        let mut tracer = Tracer::new(true, Instant::now());
        let t0 = Instant::now();
        for op in 0..BATCH {
            tracer.span("trace.calibration", op as u64, |_| std::hint::black_box(op));
        }
        per_span.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        std::hint::black_box(tracer.spans().len());
    }
    crate::hist::median(&per_span)
}

/// The spans of several tracers (one per thread) as a JSON array;
/// parent indices are local to their `thread`.
pub fn spans_to_json(threads: &[(&str, &[Span])]) -> Value {
    let mut out = Vec::new();
    for (thread, spans) in threads {
        for (idx, span) in spans.iter().enumerate() {
            out.push(Value::Object(vec![
                ("thread".to_string(), Value::Str((*thread).to_string())),
                ("id".to_string(), Value::UInt(idx as u64)),
                ("name".to_string(), Value::Str(span.name.to_string())),
                ("start_ns".to_string(), Value::UInt(span.start_ns)),
                ("end_ns".to_string(), Value::UInt(span.end_ns)),
                (
                    "parent".to_string(),
                    span.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("op".to_string(), Value::UInt(span.op)),
            ]));
        }
    }
    Value::Array(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // a[0,100) { b[10,40) { c[20,30) }  b[50,70) }   a[200,250)
        let spans = vec![
            span("a", 0, 100, None),
            span("b", 10, 40, Some(0)),
            span("c", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
            span("a", 200, 250, None),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["a"], (100 - 30 - 20) + 50);
        assert_eq!(selfs["b"], (30 - 10) + 20);
        assert_eq!(selfs["c"], 10);
        // Self times partition the root spans' duration exactly.
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        assert_eq!(selfs.values().sum::<u64>(), roots);
        assert_eq!(total_times(&spans)["b"], 50);
    }

    #[test]
    fn an_oversized_child_floors_the_parent_at_zero() {
        let spans = vec![span("p", 0, 10, None), span("k", 0, 12, Some(0))];
        assert_eq!(self_times(&spans)["p"], 0);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let out = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1) + t.span("inner", 7, |_| 2)
        });
        assert_eq!(out, 3);
        t.span("outer", 8, |t| t.child_of_known_duration("reported", 8, 5));
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].dur_ns(), 5);
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("outer", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
