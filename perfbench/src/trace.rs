//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! call into a layer's public function, made from benchmark code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `interp.execute`.
    pub name: String,
    /// The op this call belongs to; every span of one op shares it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, relative to the tracer's epoch.
    pub start: Duration,
    /// End, relative to the tracer's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's wall time.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans for one thread. Spans nest by call order: a span
/// opened while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose times are measured from `epoch` (share one epoch
    /// between threads so their spans can be merged).
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// Times `f` as a span named `name` of op `op`.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_owned(),
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = span.start;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls recorded.
    pub calls: u64,
    /// Summed wall time of the calls.
    pub total: Duration,
    /// Summed self time of the calls.
    pub self_time: Duration,
}

impl LayerTotals {
    /// Mean wall time per call, in milliseconds (0 without calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.calls as f64
        }
    }
}

/// Where the traced ops' wall time went.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Split {
    /// Totals per span name.
    pub layers: BTreeMap<String, LayerTotals>,
    /// Summed wall time of the root (op) spans.
    pub op_wall: Duration,
    /// The part of `op_wall` no child span covers.
    pub uncovered: Duration,
}

impl Split {
    /// Totals for `name` (zero when the layer was never called).
    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// Share of op wall time, in percent.
    pub fn share_pct(&self, time: Duration) -> f64 {
        if self.op_wall.is_zero() {
            0.0
        } else {
            100.0 * time.as_secs_f64() / self.op_wall.as_secs_f64()
        }
    }

    /// The uncovered share of op wall time, in percent.
    pub fn uncovered_pct(&self) -> f64 {
        self.share_pct(self.uncovered)
    }
}

/// Whether a span is an op: a root span named `op.*`. Other root spans
/// are probes made outside the ops.
pub fn is_op(span: &Span) -> bool {
    span.parent.is_none() && span.name.starts_with("op.")
}

/// Splits op wall time by layer. The ops' self time is what the layer
/// spans leave uncovered.
pub fn split(spans: &[Span]) -> Split {
    let selfs = self_times(spans);
    let mut out = Split::default();
    for (span, own) in spans.iter().zip(selfs) {
        let totals = out.layers.entry(span.name.clone()).or_default();
        totals.calls += 1;
        totals.total += span.duration();
        totals.self_time += own;
        if is_op(span) {
            out.op_wall += span.duration();
            out.uncovered += own;
        }
    }
    out
}

/// Renders the split as text lines: per span name, calls, mean per
/// call, and total and self time as shares of op wall time. Probe spans
/// (outside any op) show no shares.
pub fn render_split(split: &Split, spans: &[Span]) -> String {
    let mut in_op = BTreeMap::new();
    for span in spans {
        let mut root = span;
        while let Some(parent) = root.parent {
            root = &spans[parent];
        }
        in_op.insert(span.name.as_str(), is_op(root));
    }
    let mut out = String::new();
    for (name, t) in &split.layers {
        let shares = if in_op.get(name.as_str()) == Some(&true) {
            format!(
                "total {:>6.2}%  self {:>6.2}% of op wall",
                split.share_pct(t.total),
                split.share_pct(t.self_time)
            )
        } else {
            "(probe outside the ops)".to_owned()
        };
        let _ = writeln!(
            out,
            "  {name:<34} calls {:>6}  mean {:>11.4} ms  {shares}",
            t.calls,
            t.mean_ms()
        );
    }
    let _ = writeln!(
        out,
        "  {:<34} {:>6.2}% of {:.1} ms op wall",
        "(uncovered by spans)",
        split.uncovered_pct(),
        split.op_wall.as_secs_f64() * 1e3
    );
    out
}

/// Writes spans as JSON lines (name, op, parent, start/end in ns).
///
/// # Errors
///
/// Returns the I/O error message.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for span in spans {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            span.name,
            span.op,
            span.start.as_nanos(),
            span.end.as_nanos()
        );
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ms: u64, end_ms: u64) -> Span {
        Span {
            name: name.to_owned(),
            op: 0,
            parent,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("a.inner", Some(1), 12, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], Duration::from_millis(50));
        assert_eq!(selfs[1], Duration::from_millis(12));
        assert_eq!(selfs[2], Duration::from_millis(30));
        assert_eq!(selfs[3], Duration::from_millis(8));
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_the_parent() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 130),
        ];
        // Covered: 10..60 and 90..100 = 60 ms.
        assert_eq!(self_times(&spans)[0], Duration::from_millis(40));
    }

    #[test]
    fn split_reports_uncovered_op_time() {
        let spans = vec![
            span("op.x", None, 0, 100),
            span("a", Some(0), 0, 60),
            span("op.x", None, 100, 200),
            span("a", Some(2), 100, 180),
            span("probe", None, 200, 900),
        ];
        let split = split(&spans);
        assert_eq!(split.op_wall, Duration::from_millis(200));
        assert_eq!(split.uncovered, Duration::from_millis(60));
        assert!((split.uncovered_pct() - 30.0).abs() < 1e-9);
        assert_eq!(split.layer("a").calls, 2);
        assert!((split.layer("a").mean_ms() - 70.0).abs() < 1e-9);
        assert_eq!(split.layer("missing"), LayerTotals::default());
        let text = render_split(&split, &spans);
        assert!(text.contains("(probe outside the ops)"), "{text}");
    }

    #[test]
    fn tracer_nests_by_call_order_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.time("op", 7, |t| {
            t.time("a", 7, |t| t.time("b", 7, |_| ()));
        });
        let first = t.into_spans();
        assert_eq!(first[1].parent, Some(0));
        assert_eq!(first[2].parent, Some(1));
        assert!(first[0].end >= first[1].end && first[1].end >= first[2].end);
        let merged = merge(vec![first.clone(), first]);
        assert_eq!(merged[4].parent, Some(3));
        assert_eq!(merged[5].parent, Some(4));
        assert_eq!(merged[3].parent, None);
    }
}
