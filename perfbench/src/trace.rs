//! Span tracing in the benchmark's own code, around every call it makes
//! into a layer of the program.
//!
//! Each OS thread of a workload owns one [`Tracer`]: a buffer allocated
//! up front, so recording a span is a bounds check and a store. Reactor
//! tasks on one thread share it through `Rc`. A disabled tracer records
//! nothing and allocates nothing, which is how the untraced run measures
//! the end-to-end metrics.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Which side of the coupling a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// A simulation (writer) rank.
    Writer,
    /// An analytics (reader) rank.
    Reader,
}

impl Side {
    fn tag(self) -> &'static str {
        match self {
            Side::Writer => "w",
            Side::Reader => "r",
        }
    }
}

/// One recorded interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Static span name, `<layer>.<call>` (e.g. `writer.end_step`).
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (equal to `start` while a parent is open).
    pub end: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<u32>,
    /// Coupled step the span belongs to (`u64::MAX` outside a step).
    pub step: u64,
    /// Rank within `side`.
    pub rank: u32,
    /// Writer or reader rank.
    pub side: Side,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }

    /// The layer a span is attributed to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Step value for spans outside any step (open, set-up).
pub const NO_STEP: u64 = u64::MAX;

/// Per-thread span buffer.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans (allocated now, never
    /// grown: spans beyond it are counted as dropped), or a disabled one.
    pub fn new(enabled: bool, epoch: Instant, capacity: usize) -> Tracer {
        let cap = if enabled { capacity } else { 0 };
        Tracer {
            enabled,
            epoch,
            spans: RefCell::new(Vec::with_capacity(cap)),
            dropped: Cell::new(0),
        }
    }

    /// Start time of a span about to be recorded (`None` when disabled).
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) -> Option<u32> {
        let mut spans = self.spans.borrow_mut();
        if spans.len() == spans.capacity() {
            self.dropped.set(self.dropped.get() + 1);
            return None;
        }
        spans.push(span);
        Some((spans.len() - 1) as u32)
    }

    /// Open a parent span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, side: Side, rank: usize) -> Option<u32> {
        let now = self.start()?;
        let t = self.ns(now);
        let span =
            Span { name, start: t, end: t, parent: None, step: NO_STEP, rank: rank as u32, side };
        self.push(span)
    }

    /// Close a span opened with [`Tracer::open`], stamping the step it
    /// turned out to belong to.
    pub fn close(&self, id: Option<u32>, step: u64) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            let span = &mut self.spans.borrow_mut()[id as usize];
            span.end = end;
            span.step = step;
        }
    }

    /// Record a finished span that began at `start` (from
    /// [`Tracer::start`]) and ends now.
    pub fn record(
        &self,
        name: &'static str,
        start: Option<Instant>,
        parent: Option<u32>,
        side: Side,
        rank: usize,
        step: u64,
    ) {
        if let Some(start) = start {
            let span = Span {
                name,
                start: self.ns(start),
                end: self.ns(Instant::now()),
                parent,
                step,
                rank: rank as u32,
                side,
            };
            self.push(span);
        }
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Take the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Spans of one thread, labelled for the dump.
pub struct ThreadSpans {
    /// Thread label (`sim`, `analytics`, `writer`, `reader`).
    pub thread: &'static str,
    /// Recorded spans in recording order.
    pub spans: Vec<Span>,
    /// Spans that did not fit.
    pub dropped: u64,
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.nanos().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals: `(spans, total ns, self ns)`, keyed by layer name.
pub fn layer_table(threads: &[ThreadSpans]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for t in threads {
        for (span, own) in t.spans.iter().zip(self_times(&t.spans)) {
            let row = table.entry(span.layer()).or_default();
            row.0 += 1;
            row.1 += span.nanos();
            row.2 += own;
        }
    }
    table
}

/// Durations in milliseconds of every span called `name`, ordered by
/// step (then by rank), across all threads.
pub fn durations_ms(threads: &[ThreadSpans], name: &str) -> Vec<f64> {
    let mut found: Vec<(u64, u32, f64)> = threads
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| (s.step, s.rank, s.nanos() as f64 / 1e6))
        .collect();
    found.sort_by_key(|&(step, rank, _)| (step, rank));
    found.into_iter().map(|(_, _, ms)| ms).collect()
}

/// Render every span as one JSON object per line. Span ids are
/// `<thread>:<index>`, so parents resolve within a thread.
pub fn to_json_lines(workload: &str, threads: &[ThreadSpans]) -> String {
    let mut out = String::new();
    for t in threads {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => format!("\"{}:{p}\"", t.thread),
                None => "null".to_string(),
            };
            let step = if s.step == NO_STEP { "null".to_string() } else { s.step.to_string() };
            let _ = writeln!(
                out,
                "{{\"id\":\"{}:{i}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"step\":{step},\"side\":\"{}\",\"rank\":{}}}",
                t.thread,
                s.name,
                s.start,
                s.end,
                s.side.tag(),
                s.rank
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start, end, parent, step: 0, rank: 0, side: Side::Writer }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench.step", 0, 100, None),
            span("apps.sim", 10, 30, Some(0)),
            // Two overlapping children: 40..70 covered once, not 50 ns.
            span("writer.end_step", 40, 60, Some(0)),
            span("writer.end_step", 50, 70, Some(0)),
            // A child running past its parent's end is clipped.
            span("reader.read", 90, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 20 - 30 - 10, 20, 20, 20, 30]);
    }

    #[test]
    fn self_time_ignores_other_parents() {
        let spans = vec![
            span("bench.step", 0, 50, None),
            span("bench.step", 0, 50, None),
            span("apps.sim", 0, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn layer_table_groups_by_prefix() {
        let spans = vec![span("bench.step", 0, 100, None), span("apps.sim", 0, 40, Some(0))];
        let table = layer_table(&[ThreadSpans { thread: "sim", spans, dropped: 0 }]);
        assert_eq!(table["bench"], (1, 100, 60));
        assert_eq!(table["apps"], (1, 40, 40));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now(), 1024);
        let id = t.open("bench.step", Side::Writer, 0);
        t.record("apps.sim", t.start(), id, Side::Writer, 0, 1);
        t.close(id, 1);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn full_buffer_counts_drops_without_growing() {
        let t = Tracer::new(true, Instant::now(), 2);
        for _ in 0..5 {
            t.record("apps.sim", t.start(), None, Side::Reader, 1, 3);
        }
        assert_eq!(t.dropped(), 3);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.capacity(), 2);
    }

    #[test]
    fn json_lines_resolve_parents_within_a_thread() {
        let spans = vec![span("bench.step", 0, 10, None), span("apps.sim", 1, 2, Some(0))];
        let text =
            to_json_lines("gts_pushdown", &[ThreadSpans { thread: "sim", spans, dropped: 0 }]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"id\":\"sim:1\""));
        assert!(lines[1].contains("\"parent\":\"sim:0\""));
        assert!(lines[0].contains("\"parent\":null"));
    }
}
