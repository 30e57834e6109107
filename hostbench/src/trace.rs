//! In-memory spans around calls into the program's layers, written out at
//! exit as Chrome trace-event JSON (opens offline in `chrome://tracing`).

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (a cell, a night, a batch, ...).
    pub op: u64,
    /// Trace-viewer lane.
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. When disabled, [`Tracer::span`]
/// only calls its closure, so the same replay code runs traced and
/// untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            tid: 1,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add a span measured elsewhere (e.g. by a load-generator thread).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(a, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self times grouped by span name, in nanoseconds.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by.entry(s.name).or_default().push(t as f64);
    }
    by
}

/// Total duration of top-level spans (no parent) on lane `tid`.
pub fn top_level_ns(spans: &[Span], tid: u32) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.tid == tid)
        .map(Span::dur_ns)
        .sum()
}

/// Chrome trace-event JSON ("X" complete events, microsecond times).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.op
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 60, Some(2)),
            // Overlaps `b` (another lane's child): counted once for `cell`.
            span("c", 60, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 20 - 40, 20, 15, 15, 20]);
        let by = self_times_by_name(&spans);
        assert_eq!(by["b"], vec![15.0]);
        assert_eq!(top_level_ns(&spans, 1), 100);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("p", 10, 20, None), span("k", 0, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_disables() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        t.set_enabled(false);
        t.span("ignored", |_| ());
        assert_eq!(t.spans().len(), 2);
        let json = chrome_json(t.spans());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
    }
}
