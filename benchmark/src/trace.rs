//! In-memory spans recorded from the benchmark's own files, around each
//! call into a layer. Nothing inside the program is instrumented: a
//! span's name is `<layer>.<function>`, its parent is the enclosing span
//! on the same thread, and `req` is the segment or job it belongs to.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The span dump keeps at most this many spans.
pub const DUMP_CAP: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Segment or job the span belongs to.
    pub req: u64,
}

/// One thread's recorder. A disabled tracer records nothing and costs
/// one branch per call, so traced and untraced runs share their code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer; tracers of one run share `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. Spans opened by `f` through the tracer it
    /// is handed become this span's children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        out
    }

    /// Records a span whose ends were observed at two different places
    /// (a job's send and its receive).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals of a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval that child spans cover.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn cover(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut edge = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(edge), end.min(hi));
        if end > start {
            covered += end - start;
            edge = end;
        }
    }
    covered
}

/// Self time of every span of one tracer: children may nest, overlap
/// each other, or stick out of their parent; only the covered part of
/// the parent's interval is taken from it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .remove(&(i as u32))
                .map_or(0, |c| cover(c, s.start_ns, s.end_ns));
            duration - covered
        })
        .collect()
}

/// Aggregates the spans of each thread's tracer by name.
pub fn aggregate(threads: &[Vec<Span>]) -> BTreeMap<&'static str, NameTotals> {
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for spans in threads {
        let selfs = self_times(spans);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let t = totals.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.end_ns.saturating_sub(s.start_ns);
            t.self_ns += self_ns;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            // Nested child with its own child.
            span("a", 10, 40, 0),
            span("a.inner", 15, 25, 1),
            // Two children that overlap each other (30..60 ∪ 50..70).
            span("b", 30, 60, 0),
            span("c", 50, 70, 0),
            // A child that sticks out past its parent's end.
            span("late", 90, 130, 0),
        ];
        let selfs = self_times(&spans);
        // Children cover 10..70 and 90..100 of the root: 70 of 100.
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[5], 40);
        let totals = aggregate(&[spans]);
        assert_eq!(totals["root"].calls, 1);
        assert_eq!(totals["root"].total_ns, 100);
        assert_eq!(totals["root"].self_ns, 30);
    }

    #[test]
    fn tracer_links_parents_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::on(Instant::now());
        let out = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| 1) + t.span("inner", 7, |_| 2)
        });
        assert_eq!(out, 3);
        let now = Instant::now();
        t.record("job", 9, now, now);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, NO_PARENT);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(spans[3].req, 9);

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 5)), 5);
        assert!(off.into_spans().is_empty());
    }
}
