//! In-memory spans recorded by the benchmark around calls into each
//! layer, written out as Chrome-trace JSON when the run ends.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! an id shared by every span of one trial or request. Spans inside the
//! program are a later change; everything here is recorded from the
//! benchmark's own files.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `JobSpec::run` or `TraceSource::fill`.
    pub name: &'static str,
    /// Start, ns since tracer creation.
    pub start_ns: u64,
    /// End, ns since tracer creation (equal to `start_ns` while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Trial or request id shared by the spans of one unit of work.
    pub unit: u64,
    /// Small integer naming the recording thread or tenant lane.
    pub lane: u32,
    /// Work done inside the span (events filled, lines ingested, ...).
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder shared by every thread of a run.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

fn lane_of_this_thread() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        // Relaxed: the counter only hands out distinct labels.
        static LANE: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self
            .spans
            .lock()
            .expect("no panic while holding the span lock");
        spans.push(span);
        (spans.len() - 1) as SpanId
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, unit: u64) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            unit,
            lane: lane_of_this_thread(),
            count: 0,
        })
    }

    /// Close an open span now, recording how much work it covered.
    pub fn close(&self, id: SpanId, count: u64) {
        let now = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no panic while holding the span lock");
        let s = &mut spans[id as usize];
        s.end_ns = now;
        s.count = count;
    }

    /// Move the start of an open span to now (for a span that had to be
    /// named before the work it covers began).
    pub fn restart(&self, id: SpanId) {
        let now = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no panic while holding the span lock");
        spans[id as usize].start_ns = now;
        spans[id as usize].end_ns = now;
    }

    /// Record a finished span that started at `start`.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        unit: u64,
        lane: u32,
        count: u64,
    ) -> SpanId {
        let end_ns = self.now_ns();
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        self.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            unit,
            lane,
            count,
        })
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no panic while holding the span lock")
            .clone()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Nanoseconds of `[start, end)` covered by at least one of `children`
/// (each clipped to the interval), counting overlapping children once.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    covered
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let s = &spans[id as usize];
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    s.dur_ns() - covered_ns(s.start_ns, s.end_ns, &children)
}

/// Render spans as a Chrome-trace document (`ph: "X"` complete events,
/// microsecond timestamps) that Perfetto and `chrome://tracing` load.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 140);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":\"");
    out.push_str(workload);
    out.push_str("\"},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"unit\":{},\"count\":{}}}}}",
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.unit,
            s.count,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            unit: 0,
            lane: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_with_disjoint_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 70);
        assert_eq!(self_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two shards filling at the same time cover the parent once.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
            span(45, 50, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 30);
    }

    #[test]
    fn nested_grandchildren_belong_to_their_own_parent() {
        let spans = vec![
            span(0, 100, None),
            span(20, 80, Some(0)),
            span(30, 40, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 40);
        assert_eq!(self_ns(&spans, 1), 50);
        assert_eq!(self_ns(&spans, 2), 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        assert_eq!(covered_ns(10, 20, &[(0, 12), (18, 30), (40, 50)]), 4);
        assert_eq!(covered_ns(10, 20, &[(0, 100)]), 10);
        assert_eq!(covered_ns(10, 20, &[]), 0);
    }

    #[test]
    fn tracer_links_parent_unit_and_count() {
        let t = Tracer::new();
        let trial = t.open("trial", None, 7);
        let start = Instant::now();
        let fill = t.record("fill", start, Some(trial), 7, 3, 4096);
        t.close(trial, 1);
        let spans = t.spans();
        assert_eq!(spans[fill as usize].parent, Some(trial));
        assert_eq!(spans[fill as usize].unit, 7);
        assert_eq!(spans[fill as usize].count, 4096);
        assert_eq!(spans[fill as usize].lane, 3);
        assert!(spans[trial as usize].end_ns >= spans[fill as usize].end_ns);
        assert!(self_ns(&spans, trial) <= spans[trial as usize].dur_ns());
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let spans = vec![span(0, 2_500, None), span(500, 1_500, Some(0))];
        let doc = chrome_trace("w", &spans);
        let json = snic_telemetry::parse_json(&doc).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(|d| d.as_num()), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_num()),
            Some(0.0)
        );
    }
}
