//! Spans recorded by the harness around its calls into each layer.
//!
//! A span is `{id, parent, workload, name, start_ns, end_ns, count}`.  The
//! harness opens a span before a call into the library and closes it after;
//! spans opened while another is open become its children.  A layer's *self
//! time* is its span's duration minus the part of that interval its children
//! cover.  Spans stay in memory and are written out once, when the traced
//! run ends — the library itself is not instrumented.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.  `parent` is the id of the enclosing span; `count` is
/// the number of operations the span covered (pairs evaluated, rules
/// compiled, …) so per-operation figures are taken where the work happens.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects the spans of one traced workload run (single-threaded: spans
/// are recorded by the harness thread that makes the calls).
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span named `name`.  `work` returns its result
    /// and how many operations it performed.
    pub fn span<R>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> (R, u64)) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        let (result, count) = work(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
        result
    }

    /// Records a span measured elsewhere (e.g. between two observer
    /// callbacks of a running learner) as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, count: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            count,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (seconds) and operation count over every span named
    /// `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans.iter().filter(|span| span.name == name).fold(
            (0.0, 0),
            |(seconds, count), span| {
                (
                    seconds + span.duration_ns() as f64 / 1e9,
                    count + span.count,
                )
            },
        )
    }

    /// Seconds per operation over every span named `name` (0 when the layer
    /// was not exercised).
    pub fn per_op(&self, name: &str) -> f64 {
        let (seconds, count) = self.total(name);
        if count == 0 {
            0.0
        } else {
            seconds / count as f64
        }
    }

    /// Seconds of the first span named `name` that its direct children
    /// cover — what the decomposition of that job accounts for.
    pub fn covered_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|span| span.name == name)
            .map_or(0.0, |span| {
                (span.duration_ns() - self_time_ns(&self.spans, span.id)) as f64 / 1e9
            })
    }

    /// The trace file: workload name plus every span.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("workload", Json::String(self.workload.clone())),
            (
                "spans",
                Json::Array(
                    self.spans
                        .iter()
                        .map(|span| {
                            Json::object([
                                ("id", Json::Number(span.id as f64)),
                                (
                                    "parent",
                                    span.parent
                                        .map_or(Json::Null, |parent| Json::Number(parent as f64)),
                                ),
                                ("workload", Json::String(self.workload.clone())),
                                ("name", Json::String(span.name.to_string())),
                                ("start_ns", Json::Number(span.start_ns as f64)),
                                ("end_ns", Json::Number(span.end_ns as f64)),
                                ("count", Json::Number(span.count as f64)),
                                (
                                    "self_ns",
                                    Json::Number(self_time_ns(&self.spans, span.id) as f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Duration of `spans[id]` not covered by the union of its direct
/// children's intervals (clipped to the parent's own interval).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|span| span.parent == Some(id))
        .map(|span| {
            (
                span.start_ns.clamp(parent.start_ns, parent.end_ns),
                span.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),  // overlaps span 1 by 10
            span(3, Some(0), 90, 150), // sticks out of the parent by 50
            span(4, Some(1), 10, 20),  // grandchild: not subtracted from 0
        ];
        // covered: [10, 60) = 50, [90, 100) = 10
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 4), 10);
    }

    #[test]
    fn nested_spans_record_their_parents_and_counts() {
        let mut tracer = Tracer::new("unit");
        let answer = tracer.span("outer", |tracer| {
            let inner = tracer.span("inner", |_| (20, 5));
            tracer.span("inner", |_| ((), 7));
            (inner + 1, 1)
        });
        assert_eq!(answer, 21);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(tracer.total("inner").1, 12);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(tracer.per_op("absent"), 0.0);
        let covered = tracer.covered_s("outer");
        let inner_total = tracer.total("inner").0;
        assert!(
            (covered - inner_total).abs() < 1e-9,
            "{covered} vs {inner_total}"
        );
        assert_eq!(tracer.covered_s("absent"), 0.0);
    }

    #[test]
    fn the_trace_file_lists_every_span_with_its_self_time() {
        let mut tracer = Tracer::new("unit");
        tracer.span("job", |tracer| {
            let start = Instant::now();
            tracer.record("step", start, Instant::now(), 3);
            ((), 1)
        });
        let file = tracer.to_json();
        assert_eq!(file.get("workload").unwrap().as_str(), Some("unit"));
        let spans = file.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("count").unwrap().as_f64(), Some(3.0));
        assert!(spans[0].get("self_ns").is_some());
    }
}
