//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `[start, end)` in ns from the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.exec.relation`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Request or query id the span belongs to.
    pub req: u64,
    /// Counter deltas observed across the span.
    pub counters: Vec<(&'static str, u64)>,
}

/// A trace under construction.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            req,
            counters: Vec::new(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`Tracer::close`]; children recorded in
    /// between may name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    /// Ends an open span now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.ns(Instant::now());
    }

    /// Attaches a counter delta to a span.
    pub fn count(&mut self, idx: usize, name: &'static str, delta: u64) {
        self.spans[idx].counters.push((name, delta));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent req counter=delta...`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            write!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
            for (k, v) in &s.counters {
                write!(out, "\t{k}={v}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
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
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Total self time and call count per span name, in µs.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t as f64 / 1e3;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // query [0,100) > exec [10,70) > matmul [20,50) and map [50,60).
        let spans = vec![
            span("query", 0, 100, None),
            span("exec", 10, 70, Some(0)),
            span("matmul", 20, 50, Some(1)),
            span("map", 50, 60, Some(1)),
            span("features", 75, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 15, 60 - 40, 30, 10, 15]);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        let spans = vec![
            span("p", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [10,80) and [90,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn by_name_sums_self_time() {
        let spans = vec![
            span("q", 0, 10_000, None),
            span("x", 0, 4_000, Some(0)),
            span("x", 5_000, 6_000, Some(0)),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["q"], (5.0, 1));
        assert_eq!(by["x"], (5.0, 2));
    }

    #[test]
    fn open_close_and_write() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", None, 1);
        let child = t.open("child", Some(root), 1);
        t.count(child, "pages", 3);
        t.close(child);
        t.close(root);
        assert!(t.spans()[root].end >= t.spans()[child].end);
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().ends_with("\t0\t1\tpages=3"));
    }
}
