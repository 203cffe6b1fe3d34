//! Spans recorded from outside the program: around the calls the benchmark
//! makes into each layer, and around every `run_level` through a decorating
//! [`ExecutionBackend`]. Spans stay in memory and are written as JSON lines
//! when the run ends. Spans inside the program are a later change.

use euler_core::{EulerError, ExecutionBackend, LevelOutcome, LevelWork};
use euler_metrics::json::Value;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The repetition or request this span belongs to.
    pub run_id: u64,
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (level number, steps, chunks…).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Single-threaded span recorder; each client thread of a serve workload
/// owns one and the lists are concatenated afterwards.
pub struct Tracer {
    epoch: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            run_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_run(&mut self, run_id: u64) {
        self.run_id = run_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.begin_at(name, now)
    }

    fn begin_at(&mut self, name: &'static str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            run_id: self.run_id,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let now = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = now;
        }
    }

    /// Records an already-measured interval (offsets from `base`, in
    /// seconds) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, base: Instant, from_s: f64, to_s: f64) {
        let base_ns = base.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.begin_at(name, base_ns + (from_s * 1e9) as u64);
        self.open.pop();
        self.spans[id].end_ns = base_ns + (to_s * 1e9) as u64;
    }

    pub fn count(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of span `id`: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in children {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Spans as JSON lines: `{run_id, workload, name, id, parent, start_ns,
/// end_ns, self_ns, counts}`; `id` is the span's index in `spans`.
pub fn to_json_lines(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let line = Value::obj(vec![
            ("run_id", Value::Num(s.run_id as f64)),
            ("workload", Value::str(workload)),
            ("name", Value::str(s.name)),
            ("id", Value::Num(id as f64)),
            ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            ("self_ns", Value::Num(self_ns(spans, id) as f64)),
            (
                "counts",
                Value::obj(s.counts.iter().map(|&(k, v)| (k, Value::Num(v))).collect()),
            ),
        ]);
        out.push_str(&one_line(&line));
        out.push('\n');
    }
    out
}

/// `Value::to_pretty` on one line. The pretty printer only breaks lines
/// between tokens (newlines inside strings are escaped), so dropping each
/// line's indentation and the line breaks leaves the same JSON document.
pub fn one_line(v: &Value) -> String {
    v.to_pretty().lines().map(str::trim_start).collect()
}

/// Decorates a backend with one `run_level` span per merge level; everything
/// else is forwarded, so the program under test runs unchanged.
pub struct TracedBackend<B> {
    inner: B,
    tracer: Rc<RefCell<Tracer>>,
}

impl<B> TracedBackend<B> {
    pub fn new(inner: B, tracer: Rc<RefCell<Tracer>>) -> Self {
        TracedBackend { inner, tracer }
    }
}

impl<B: ExecutionBackend> ExecutionBackend for TracedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_level(&self, work: LevelWork<'_>) -> Result<LevelOutcome, EulerError> {
        let level = work.level;
        let id = self.tracer.borrow_mut().begin("run_level");
        let outcome = self.inner.run_level(work);
        let mut tracer = self.tracer.borrow_mut();
        tracer.end();
        tracer.count(id, "level", f64::from(level));
        outcome
    }

    fn engine_stats(&self) -> Option<euler_bsp::EngineStats> {
        self.inner.engine_stats()
    }

    fn warnings(&self) -> Vec<String> {
        self.inner.warnings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            run_id: 0,
            name: "s",
            parent,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_cover() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50), // overlaps the previous child
            span(Some(0), 70, 80),
            span(Some(1), 12, 18),  // a grandchild does not count against the root
            span(Some(0), 90, 140), // clipped to the parent's interval
        ];
        assert_eq!(self_ns(&spans, 0), 100 - (40 + 10 + 10));
        assert_eq!(self_ns(&spans, 1), 20 - 6);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn tracer_nests_spans_and_writes_parseable_json_lines() {
        let mut t = Tracer::new(Instant::now());
        t.set_run(7);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.count(inner, "level", 2.0);
        t.end();
        t.record("measured", Instant::now(), 0.0, 0.5);
        t.end();
        let spans = t.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(outer));
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 500_000_000);
        assert!(spans[outer].start_ns <= spans[inner].start_ns && spans[inner].end_ns <= spans[outer].end_ns);
        let text = to_json_lines("w", spans);
        assert_eq!(text.lines().count(), 3);
        let line = euler_metrics::json::parse(text.lines().nth(1).unwrap()).expect("valid JSON");
        assert_eq!(line.get("run_id").and_then(Value::as_f64), Some(7.0));
        assert_eq!(line.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            line.get("counts").and_then(|c| c.get("level")).and_then(Value::as_f64),
            Some(2.0)
        );
    }
}
