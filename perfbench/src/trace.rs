//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into
//! a layer of the program (the program itself is not instrumented).
//! Each span has a layer name, an operation, the request it belongs to,
//! start and end offsets, and the span that was open when it started.
//! Spans stay in memory until the run ends, so recording costs two
//! clock reads and a vector push. With tracing off, [`Tracer::span`]
//! only calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer the call went into (`cluster`, `search`, ...).
    pub layer: &'static str,
    /// Operation within the layer (`answer_batch`, `exact_search`, ...).
    pub op: &'static str,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset from the tracer's creation, in nanoseconds.
    pub start_ns: u64,
    /// End offset from the tracer's creation, in nanoseconds.
    pub end_ns: u64,
}

/// Records spans from one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`/`op` for request `req`.
    pub fn span<T>(
        &self,
        layer: &'static str,
        op: &'static str,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                op,
                req,
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Writes the spans as a JSON array, one span per line.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {i}, \"layer\": \"{}\", \"op\": \"{}\", \"req\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.layer, s.op, s.req, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of its interval that its child spans cover (overlapping
/// children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        *out.entry(s.layer).or_insert(0) += dur - covered(s.start_ns, s.end_ns, kids).min(dur);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            op: "op",
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("cluster", None, 0, 100),
            // Overlapping children cover 10..50; a later one 60..70.
            span("search", Some(0), 10, 30),
            span("search", Some(0), 20, 50),
            span("distance", Some(0), 60, 70),
            // A grandchild is charged to its parent, not the root.
            span("distance", Some(1), 12, 18),
        ];
        let t = self_times(&spans);
        assert_eq!(t["cluster"], 100 - 50);
        assert_eq!(t["search"], (20 - 6) + 30);
        assert_eq!(t["distance"], 10 + 6);
    }

    #[test]
    fn nested_self_times_partition_the_root() {
        let spans = vec![
            span("bench", None, 0, 100),
            span("cluster", Some(0), 5, 95),
            span("search", Some(1), 10, 40),
            span("distance", Some(2), 20, 30),
            span("search", Some(1), 50, 60),
        ];
        let t = self_times(&spans);
        assert_eq!(t.values().sum::<u64>(), 100);
        assert_eq!(
            (t["bench"], t["cluster"], t["search"], t["distance"]),
            (10, 50, 30, 10)
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("a", None, 10, 20), span("b", Some(0), 5, 25)];
        let t = self_times(&spans);
        assert_eq!(t["a"], 0);
        assert_eq!(t["b"], 20);
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", "x", 1, || 7), 7);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.span("cluster", "batch", 3, || {
            on.span("search", "exact", 3, || ());
        });
        on.span("sched", "fit", 4, || ());
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 3);
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut buf = Vec::new();
        on.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"layer\": \"search\"") && text.contains("\"parent\": 0"));
    }
}
