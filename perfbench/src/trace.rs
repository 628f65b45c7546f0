//! Spans around the benchmark's own calls into each layer's public functions.
//! They are kept in memory and written out when the run ends. Untraced runs
//! take no timestamps here.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that was open on this thread when this one started.
    pub parent: Option<u64>,
    /// The op this span is part of; spans of one op share it.
    pub op: Option<u64>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// One thread's span recorder. Every thread of a run shares `origin`, so the
/// files of the threads line up.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, thread: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// Run `f` inside a span named `name`, nested under the span now open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            id: (self.thread << 32) | index as u64,
            parent: self.open.last().map(|&i| self.spans[i].id),
            op: self.op,
            name,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        result
    }

    /// Run one op of a workload inside a span named `op`; the spans it opens
    /// carry the op's number.
    pub fn op<R>(&mut self, number: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op = Some((self.thread << 32) | number);
        let result = self.span("op", f);
        self.op = None;
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Share of the `op` spans' time that their direct children cover, over all
/// ops together and for the op with the least, or `None` without ops. What is
/// left is the benchmark's own time between layer calls.
pub fn op_coverage(spans: &[Span]) -> Option<(f64, f64)> {
    let mut covered = std::collections::HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *covered.entry(parent).or_insert(0.0) += span.end_us - span.start_us;
        }
    }
    let (mut in_children, mut in_ops, mut lowest) = (0.0, 0.0, f64::INFINITY);
    for op in spans.iter().filter(|s| s.name == "op") {
        let children: f64 = covered.get(&op.id).copied().unwrap_or(0.0);
        let length = op.end_us - op.start_us;
        in_children += children;
        in_ops += length;
        lowest = lowest.min(children / length);
    }
    (in_ops > 0.0).then(|| (in_children / in_ops, lowest))
}

/// The span file: one JSON object with the run's identity and every span.
pub fn render(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let optional = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"thread\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            optional(s.parent),
            optional(s.op),
            s.id >> 32,
            s.name,
            s.start_us,
            s.end_us
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_op() {
        let mut tracer = Tracer::new(true, Instant::now(), 3);
        tracer.op(7, |t| {
            t.span("core.run_with", |_| std::hint::black_box(1 + 1));
            t.span("check", |_| ());
        });
        tracer.span("core.prepare", |_| ());
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "op");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[0].id));
        assert_eq!(spans[1].op, Some((3 << 32) | 7));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[3].op, None);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        let (overall, lowest) = op_coverage(&spans).unwrap();
        assert!((0.0..=1.0).contains(&overall) && lowest <= overall);

        let text = render("w", 1, &spans);
        let parsed: crate::report::Json = serde_json::from_str(&text).unwrap();
        assert!(matches!(parsed.0.get("spans"), Some(serde::Value::Seq(s)) if s.len() == 4));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        assert_eq!(tracer.op(1, |t| t.span("x", |_| 5)), 5);
        assert!(tracer.into_spans().is_empty());
    }
}
