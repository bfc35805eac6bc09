//! In-memory spans around the calls into each layer's public functions.
//!
//! The benchmark times the layers from outside: a span opens before a call
//! into a layer and closes after it. Spans nest on one thread, so a span's
//! self time is its duration minus the durations of its direct children.
//! With recording off, [`Tracer::span`] only runs the closure, which is how
//! the end-to-end numbers are measured.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the root span of an op.
    pub parent: Option<u32>,
    /// The operation (request) this span belongs to; all spans of one
    /// request share it.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name self-time sums of a stretch of spans, see
/// [`Tracer::self_seconds_since`].
#[derive(Debug, Default)]
pub struct SelfSeconds {
    pub in_op: BTreeMap<&'static str, f64>,
    pub beside: BTreeMap<&'static str, f64>,
}

pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            recording: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Starts the next operation. Spans a panicking op left open are
    /// dropped from the stack; they keep `end_ns == 0` and are skipped by
    /// every reader.
    pub fn next_op(&mut self) {
        self.open.clear();
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`. The closure gets the tracer
    /// back so that it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.recording {
            return f(self);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        self.spans[index as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = f(self);
        self.spans[index as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        result
    }

    /// [`Tracer::span`] that also returns the call's wall in seconds, for a
    /// call made beside the ops whose time is kept as a sample directly.
    pub fn timed_span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let result = self.span(name, f);
        (result, start.elapsed().as_secs_f64())
    }

    /// Position in the span list, for [`Tracer::self_seconds_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in seconds, summed per span name, over the spans recorded
    /// since `mark`; spans under a root named `op_root` and spans under
    /// any other root (calls made beside the op, to size a layer the op
    /// does not expose) are summed apart.
    pub fn self_seconds_since(&self, mark: usize, op_root: &str) -> SelfSeconds {
        let mut out = SelfSeconds::default();
        let mut under_op = vec![false; self.spans.len() - mark];
        for (i, (span, (_, ns))) in self.spans[mark..]
            .iter()
            .zip(self_times(&self.spans, mark))
            .enumerate()
        {
            under_op[i] = match span.parent {
                Some(p) if p as usize >= mark => under_op[p as usize - mark],
                Some(_) => false,
                None => span.name == op_root,
            };
            let sums = if under_op[i] {
                &mut out.in_op
            } else {
                &mut out.beside
            };
            *sums.entry(span.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// One JSON object per line: name, start and end in nanoseconds,
    /// parent span index (or null) and op id. The line number, from zero,
    /// is the span index that `parent` refers to.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op
            )?;
        }
        out.flush()
    }
}

/// `(name, self time in ns)` of every span from index `from` on; a span
/// that never closed has none and charges its parent nothing. Parents
/// recorded before `from` are not charged.
pub fn self_times(spans: &[Span], from: usize) -> Vec<(&'static str, u64)> {
    let mut children = vec![0u64; spans.len()];
    for span in &spans[from..] {
        if span.end_ns == 0 {
            continue;
        }
        if let Some(parent) = span.parent {
            children[parent as usize] += span.duration_ns();
        }
    }
    spans[from..]
        .iter()
        .zip(&children[from..])
        .map(|(span, &covered)| (span.name, span.duration_ns().saturating_sub(covered)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) > a [10,60) > a1 [20,30), a2 [30,45); op > b [60,90)
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a1", 20, 30, Some(1)),
            span("a2", 30, 45, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        let selfs: BTreeMap<_, _> = self_times(&spans, 0).into_iter().collect();
        assert_eq!(selfs["op"], 100 - 50 - 30);
        assert_eq!(selfs["a"], 50 - 10 - 15);
        assert_eq!(selfs["a1"], 10);
        assert_eq!(selfs["a2"], 15);
        assert_eq!(selfs["b"], 30);
        // Self times partition the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn unclosed_spans_are_skipped() {
        let spans = vec![span("op", 0, 50, None), span("lost", 10, 0, Some(0))];
        assert_eq!(self_times(&spans, 0), vec![("op", 50), ("lost", 0)]);
    }

    #[test]
    fn recording_off_records_nothing_and_on_nests_by_call_structure() {
        let mut tr = Tracer::new();
        assert_eq!(tr.span("quiet", |_| 7), 7);
        assert_eq!(tr.mark(), 0);

        tr.set_recording(true);
        tr.next_op();
        let mark = tr.mark();
        tr.span("op", |tr| {
            tr.span("layer.a", |_| std::hint::black_box(1));
            tr.span("layer.b", |tr| {
                tr.span("layer.c", |_| std::hint::black_box(2))
            });
        });
        let parents: Vec<_> = tr.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("op", None),
                ("layer.a", Some(0)),
                ("layer.b", Some(0)),
                ("layer.c", Some(2))
            ]
        );
        assert!(tr.spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        tr.span("beside.d", |_| std::hint::black_box(3));
        let sums = tr.self_seconds_since(mark, "op");
        let root = tr.spans[0].duration_ns() as f64 / 1e9;
        assert!((sums.in_op.values().sum::<f64>() - root).abs() < 1e-9);
        assert_eq!(sums.in_op.len(), 4);
        assert_eq!(sums.beside.keys().collect::<Vec<_>>(), [&"beside.d"]);
    }
}
