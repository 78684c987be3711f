//! In-memory spans recorded around the runner's calls into each layer.
//!
//! A span has a name, a start and an end on one monotonic clock, the
//! span that caused it and the query it belongs to. Spans stay in memory
//! while the benchmark runs and are written out once at the end. A
//! span's self time is its duration minus the part of it its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The causing span, if any.
    pub parent: Option<usize>,
    /// Layer boundary name (`parse`, `optimize`, `exec.scan`, …).
    pub name: &'static str,
    /// The query this span belongs to.
    pub qid: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while open).
    pub end: u64,
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&self, name: &'static str, qid: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span log lock poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            qid,
            start,
            end: start,
        });
        id
    }

    /// Close span `id`.
    pub fn end(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span log lock poisoned")[id].end = end;
    }

    /// Record an already-measured interval given as [`Instant`]s.
    pub fn record(
        &self,
        name: &'static str,
        qid: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span log lock poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            qid,
            start: at(start),
            end: at(end),
        });
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        qid: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.begin(name, qid, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock poisoned").clone()
    }
}

/// Where the spans of one query go: the log, the query's id and the
/// span that caused them.
#[derive(Clone, Copy)]
pub struct Tracing<'a> {
    /// The log.
    pub rec: &'a Recorder,
    /// The query id the spans carry.
    pub qid: u64,
    /// The causing span.
    pub parent: usize,
}

impl Tracing<'_> {
    /// Run `f` inside a child span.
    pub fn span<T>(self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.span(name, self.qid, Some(self.parent), |_| f())
    }

    /// Record an already-measured child interval.
    pub fn record(self, name: &'static str, start: Instant, end: Instant) {
        self.rec
            .record(name, self.qid, Some(self.parent), start, end);
    }
}

/// Run `f`, inside a child span when traced.
pub fn in_span<T>(tracing: Option<Tracing<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracing {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Indexed like `spans`, whose ids
/// must equal their positions.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in microseconds (0 when there are no spans).
    pub fn mean_us(&self) -> f64 {
        per(self.total_ns, self.count) / 1e3
    }

    /// Mean self time in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        per(self.self_ns, self.count) / 1e3
    }
}

fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Totals by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += own;
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"qid\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.qid, s.start, s.end
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            qid: 7,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // query [0,100) ⊃ optimize [10,60) ⊃ estimate [20,30), [40,45)
        //                ⊃ exec [60,90)
        let spans = vec![
            span(0, None, "query", 0, 100),
            span(1, Some(0), "optimize", 10, 60),
            span(2, Some(1), "estimate", 20, 30),
            span(3, Some(1), "estimate", 40, 45),
            span(4, Some(0), "exec", 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 35, 10, 5, 30]);
        let t = totals(&spans);
        assert_eq!(
            t["estimate"],
            SpanTotals {
                count: 2,
                total_ns: 15,
                self_ns: 15
            }
        );
        assert_eq!(t["optimize"].self_ns, 35);
        assert_eq!(t["query"].total_ns, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children overlap on [30,40); one runs past the parent's end.
        let spans = vec![
            span(0, None, "submit", 0, 50),
            span(1, Some(0), "a", 20, 40),
            span(2, Some(0), "b", 30, 45),
            span(3, Some(0), "c", 48, 70),
        ];
        assert_eq!(self_times(&spans)[0], 50 - 25 - 2);
        // A child covering the whole parent leaves no self time.
        let spans = vec![span(0, None, "p", 5, 10), span(1, Some(0), "c", 0, 20)];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn recorder_links_parents_and_writes_jsonl() {
        let rec = Recorder::new();
        let root = rec.begin("query", 1, None);
        let child = rec.span("parse", 1, Some(root), |id| id);
        rec.end(root);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[root].start <= spans[child].start);
        assert!(spans[child].end <= spans[root].end);
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"name\":\"query\""));
    }
}
