//! The span collector: a thread-safe arena of timed, nested spans with
//! attached counters, notes, and histograms, plus the snapshot
//! [`Report`], its renderers, and the optional trace-event buffer.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::Histogram;
use crate::json::Value;
use crate::trace::{self, TraceEvent, MAX_TRACE_EVENTS};

/// Histogram every span keeps of its direct children's wall times, in
/// microseconds. Recorded on span close into the *parent*, so a stage
/// span summarizes the distribution of the probes/units under it; the
/// child-collector adoption path merges worker-side roots into the
/// parent stage span, keeping the sequential and parallel shapes alike.
pub const SPAN_DURATION_HISTOGRAM: &str = "span.us";

#[derive(Debug)]
struct SpanData {
    name: String,
    start: Instant,
    duration: Option<Duration>,
    children: Vec<usize>,
    counters: BTreeMap<String, u64>,
    notes: BTreeMap<String, String>,
    histograms: BTreeMap<String, Histogram>,
}

impl SpanData {
    fn new(name: String) -> SpanData {
        SpanData {
            name,
            start: Instant::now(),
            duration: None,
            children: Vec::new(),
            counters: BTreeMap::new(),
            notes: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

#[derive(Debug)]
struct Inner {
    spans: Vec<SpanData>,
    /// Indices of currently open spans, innermost last. Never empty:
    /// element 0 is the root span, which stays open until
    /// [`Collector::finish`] (or forever — snapshots time open spans
    /// against "now").
    stack: Vec<usize>,
    /// Closed-span events, oldest first, capped at
    /// [`MAX_TRACE_EVENTS`]. Empty unless the collector is traced.
    events: Vec<TraceEvent>,
    /// Events discarded after the buffer filled.
    events_dropped: u64,
}

/// Thread-safe collector holding one tree of spans.
///
/// Typically created per flow run, installed with
/// [`crate::with_collector`], and snapshotted with [`Collector::report`]
/// once the run completes.
#[derive(Debug)]
pub struct Collector {
    inner: Mutex<Inner>,
    /// Whether closed spans are buffered as [`TraceEvent`]s. Decided at
    /// creation from `TELEMETRY_TRACE` (so worker-thread child
    /// collectors agree with their parent without plumbing) or forced
    /// by [`Collector::new_traced`].
    traced: bool,
}

impl Collector {
    /// Creates a collector whose root span is named `root_name` and
    /// starts now. Trace-event capture follows the `TELEMETRY_TRACE`
    /// environment variable.
    pub fn new(root_name: impl Into<String>) -> Collector {
        Collector::with_tracing(root_name, trace::trace_enabled_by_env())
    }

    /// Creates a collector with trace-event capture forced on,
    /// independent of the environment (tests, embedded hosts).
    pub fn new_traced(root_name: impl Into<String>) -> Collector {
        Collector::with_tracing(root_name, true)
    }

    fn with_tracing(root_name: impl Into<String>, traced: bool) -> Collector {
        Collector {
            inner: Mutex::new(Inner {
                spans: vec![SpanData::new(root_name.into())],
                stack: vec![0],
                events: Vec::new(),
                events_dropped: 0,
            }),
            traced,
        }
    }

    /// Opens a child span under the innermost open span. Prefer the
    /// ambient [`crate::span`] in library code.
    pub(crate) fn span(self: &Arc<Self>, name: impl Into<String>) -> SpanGuard {
        let id = {
            let mut inner = self.inner.lock().unwrap();
            let id = inner.spans.len();
            inner.spans.push(SpanData::new(name.into()));
            let parent = *inner.stack.last().expect("root span always open");
            inner.spans[parent].children.push(id);
            inner.stack.push(id);
            id
        };
        SpanGuard {
            collector: Some(Arc::clone(self)),
            id,
        }
    }

    /// Adds `delta` to a counter on the innermost open span.
    pub(crate) fn counter(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        let top = *inner.stack.last().expect("root span always open");
        *inner.spans[top]
            .counters
            .entry(name.to_owned())
            .or_insert(0) += delta;
    }

    /// Attaches a string annotation to the innermost open span.
    pub(crate) fn note(&self, name: &str, value: impl Into<String>) {
        let mut inner = self.inner.lock().unwrap();
        let top = *inner.stack.last().expect("root span always open");
        inner.spans[top].notes.insert(name.to_owned(), value.into());
    }

    /// Records one sample into a named histogram on the innermost open
    /// span.
    pub(crate) fn histogram(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        let top = *inner.stack.last().expect("root span always open");
        inner.spans[top]
            .histograms
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// Closes the root span, freezing the total wall time.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().unwrap();
        if inner.spans[0].duration.is_none() {
            inner.spans[0].duration = Some(inner.spans[0].start.elapsed());
            if self.traced {
                let name = inner.spans[0].name.clone();
                let start = inner.spans[0].start;
                let duration = inner.spans[0].duration.expect("just set");
                push_event(&mut inner, name, start, duration);
            }
        }
    }

    /// Snapshots the span tree. Spans still open are timed up to now.
    pub fn report(&self) -> Report {
        let inner = self.inner.lock().unwrap();
        Report {
            root: build_report(&inner.spans, 0),
            events: inner.events.clone(),
            events_dropped: inner.events_dropped,
        }
    }

    /// Adopts every top-level span of `report` in order, then merges the
    /// report root's own counters, notes, and histograms into the
    /// innermost open span (counters add, histograms merge, notes
    /// overwrite). The report's trace events — if either side
    /// captured any — are appended to this collector's buffer, still
    /// labeled with the worker thread they were recorded on.
    ///
    /// This is the parent-side half of the scoped child-collector
    /// pattern: a worker runs under its own `Collector`, finishes it,
    /// snapshots a [`Report`], and the coordinating thread adopts the
    /// reports in a deterministic order — the merged tree is then
    /// independent of worker scheduling.
    pub(crate) fn adopt_report(&self, report: &Report) {
        let mut inner = self.inner.lock().unwrap();
        let parent = *inner.stack.last().expect("root span always open");
        for child in &report.root.children {
            let id = adopt_span(&mut inner.spans, child);
            inner.spans[parent].children.push(id);
        }
        let root = &report.root;
        let target = &mut inner.spans[parent];
        for (name, &delta) in &root.counters {
            *target.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, value) in &root.notes {
            target.notes.insert(name.clone(), value.clone());
        }
        for (name, hist) in &root.histograms {
            target
                .histograms
                .entry(name.clone())
                .or_default()
                .merge(hist);
        }
        for event in &report.events {
            if inner.events.len() < MAX_TRACE_EVENTS {
                inner.events.push(event.clone());
            } else {
                inner.events_dropped += 1;
            }
        }
        inner.events_dropped += report.events_dropped;
    }

    fn close(&self, id: usize) {
        let mut inner = self.inner.lock().unwrap();
        if inner.spans[id].duration.is_none() {
            inner.spans[id].duration = Some(inner.spans[id].start.elapsed());
        }
        let duration = inner.spans[id].duration.expect("just set");
        if self.traced {
            let name = inner.spans[id].name.clone();
            let start = inner.spans[id].start;
            push_event(&mut inner, name, start, duration);
        }
        // Unwinding can close spans out of order; drop every span the
        // closed one still (transitively) encloses.
        if let Some(pos) = inner.stack.iter().rposition(|&open| open == id) {
            inner.stack.truncate(pos);
        }
        if inner.stack.is_empty() {
            inner.stack.push(0);
        }
        // Fold this span's wall time into the enclosing span's duration
        // histogram (the root after an out-of-order unwind).
        let parent = *inner.stack.last().expect("root span always open");
        if parent != id {
            inner.spans[parent]
                .histograms
                .entry(SPAN_DURATION_HISTOGRAM.to_owned())
                .or_default()
                .record(duration.as_micros() as u64);
        }
    }
}

/// Appends a closed span to the bounded event buffer, labeled with the
/// calling thread.
fn push_event(inner: &mut Inner, name: String, start: Instant, duration: Duration) {
    if inner.events.len() < MAX_TRACE_EVENTS {
        inner.events.push(TraceEvent {
            name,
            tid: trace::current_tid(),
            thread_label: trace::current_thread_label(),
            start,
            duration,
        });
    } else {
        inner.events_dropped += 1;
    }
}

/// Copies a [`SpanReport`] subtree into the arena, returning the new
/// root's index. The span is stored already closed (`duration` set), so
/// snapshots never re-time it.
fn adopt_span(spans: &mut Vec<SpanData>, report: &SpanReport) -> usize {
    let id = spans.len();
    spans.push(SpanData {
        name: report.name.clone(),
        start: Instant::now(), // placeholder; duration below is authoritative
        duration: Some(report.duration),
        children: Vec::new(),
        counters: report.counters.clone(),
        notes: report.notes.clone(),
        histograms: report.histograms.clone(),
    });
    let children: Vec<usize> = report
        .children
        .iter()
        .map(|child| adopt_span(spans, child))
        .collect();
    spans[id].children = children;
    id
}

fn build_report(spans: &[SpanData], id: usize) -> SpanReport {
    let span = &spans[id];
    SpanReport {
        name: span.name.clone(),
        duration: span.duration.unwrap_or_else(|| span.start.elapsed()),
        counters: span.counters.clone(),
        notes: span.notes.clone(),
        histograms: span.histograms.clone(),
        children: span
            .children
            .iter()
            .map(|&child| build_report(spans, child))
            .collect(),
    }
}

/// RAII guard returned by [`crate::span`]; closes its span on drop.
/// Guards returned when no collector is installed do nothing.
#[derive(Debug)]
#[must_use = "a span lasts until its guard is dropped"]
pub struct SpanGuard {
    collector: Option<Arc<Collector>>,
    id: usize,
}

impl SpanGuard {
    pub(crate) fn noop() -> SpanGuard {
        SpanGuard {
            collector: None,
            id: 0,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(collector) = self.collector.take() {
            collector.close(self.id);
        }
    }
}

/// Immutable snapshot of one collector's span tree.
///
/// The `Default` report is empty (an unnamed root with zero duration) —
/// a placeholder for results whose report is attached after the fact.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The root span (the whole timed region).
    pub root: SpanReport,
    /// Closed-span trace events in recording/adoption order. Empty
    /// unless the collector was traced (`TELEMETRY_TRACE` or
    /// [`Collector::new_traced`]).
    pub events: Vec<TraceEvent>,
    /// Events lost to the bounded buffer.
    pub events_dropped: u64,
}

/// One span in a [`Report`].
#[derive(Clone, Debug, Default)]
pub struct SpanReport {
    /// Span name, e.g. `step4:pnr` or `ratio:3x4`.
    pub name: String,
    /// Wall time between the span opening and closing.
    pub duration: Duration,
    /// Monotonic counters recorded while this span was innermost.
    pub counters: BTreeMap<String, u64>,
    /// String annotations recorded while this span was innermost.
    pub notes: BTreeMap<String, String>,
    /// Histograms recorded while this span was innermost, plus the
    /// implicit [`SPAN_DURATION_HISTOGRAM`] of its children's wall
    /// times.
    pub histograms: BTreeMap<String, Histogram>,
    /// Nested child spans in opening order.
    pub children: Vec<SpanReport>,
}

impl SpanReport {
    /// The first direct child with the given name.
    pub fn child(&self, name: &str) -> Option<&SpanReport> {
        self.children.iter().find(|c| c.name == name)
    }
}

impl Report {
    /// Names of the top-level stages (direct children of the root), in
    /// execution order.
    pub fn stages(&self) -> Vec<&str> {
        self.root.children.iter().map(|c| c.name.as_str()).collect()
    }

    /// Wall time of the named top-level stage.
    pub fn stage_duration(&self, name: &str) -> Option<Duration> {
        self.root.child(name).map(|c| c.duration)
    }

    /// Sum of the named counter over the whole span tree. Counters are
    /// recorded against whichever span was innermost at the time, so
    /// fleet-style assertions ("how many configurations did this run
    /// visit in total?") need the tree-wide total rather than a single
    /// span's cell.
    pub fn counter_total(&self, name: &str) -> u64 {
        fn walk(span: &SpanReport, name: &str) -> u64 {
            span.counters.get(name).copied().unwrap_or(0)
                + span.children.iter().map(|c| walk(c, name)).sum::<u64>()
        }
        walk(&self.root, name)
    }

    /// The named histogram merged over the whole span tree (empty if
    /// never recorded). The merge is bucket-wise and deterministic —
    /// see `Histogram::merge`.
    pub fn histogram_total(&self, name: &str) -> Histogram {
        fn walk(span: &SpanReport, name: &str, total: &mut Histogram) {
            if let Some(hist) = span.histograms.get(name) {
                total.merge(hist);
            }
            for child in &span.children {
                walk(child, name, total);
            }
        }
        let mut total = Histogram::new();
        walk(&self.root, name, &mut total);
        total
    }

    /// The buffered trace events as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...]}`), loadable in Perfetto and
    /// `chrome://tracing`. Timestamps are normalized so the earliest
    /// event starts at zero; every recording thread appears as its own
    /// named track.
    pub fn to_chrome_trace(&self) -> String {
        trace::chrome_trace(&self.events, self.events_dropped).serialize()
    }

    /// One line per top-level stage with duration and share of total.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        render_line(&mut out, &self.root, 0, self.root.duration);
        for child in &self.root.children {
            render_line(&mut out, child, 1, self.root.duration);
        }
        out
    }

    /// The full indented span tree with durations, percentages of
    /// total, counters, histograms, and notes.
    pub(crate) fn render_tree(&self) -> String {
        let mut out = String::new();
        render_subtree(&mut out, &self.root, 0, self.root.duration);
        out
    }

    /// The span tree as a [`Value`], for embedding in larger documents.
    pub fn to_value(&self) -> Value {
        span_to_value(&self.root)
    }

    /// Compact JSON encoding of the span tree.
    pub fn to_json(&self) -> String {
        self.to_value().serialize()
    }

    /// Pretty-printed JSON encoding of the span tree.
    pub fn to_json_pretty(&self) -> String {
        self.to_value().serialize_pretty()
    }
}

fn percent(part: Duration, whole: Duration) -> f64 {
    if whole.is_zero() {
        100.0
    } else {
        part.as_secs_f64() / whole.as_secs_f64() * 100.0
    }
}

fn render_line(out: &mut String, span: &SpanReport, depth: usize, total: Duration) {
    use std::fmt::Write;

    let indent = "  ".repeat(depth);
    let _ = write!(
        out,
        "{indent}{:<width$} {:>10.3?} {:>5.1}%",
        span.name,
        span.duration,
        percent(span.duration, total),
        width = 28usize.saturating_sub(indent.len()),
    );
    for (name, value) in &span.counters {
        let _ = write!(out, "  {name}={value}");
    }
    for (name, hist) in &span.histograms {
        let _ = write!(out, "  {name}~{{{}}}", hist.render_brief());
    }
    for (name, value) in &span.notes {
        let _ = write!(out, "  {name}={value}");
    }
    out.push('\n');
}

fn render_subtree(out: &mut String, span: &SpanReport, depth: usize, total: Duration) {
    render_line(out, span, depth, total);
    for child in &span.children {
        render_subtree(out, child, depth + 1, total);
    }
}

fn span_to_value(span: &SpanReport) -> Value {
    let mut fields = vec![
        ("name".to_owned(), Value::Str(span.name.clone())),
        (
            "duration_ns".to_owned(),
            Value::Num(span.duration.as_nanos() as f64),
        ),
        (
            "duration_ms".to_owned(),
            Value::Num(span.duration.as_secs_f64() * 1e3),
        ),
    ];
    if !span.counters.is_empty() {
        fields.push((
            "counters".to_owned(),
            Value::Obj(
                span.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                    .collect(),
            ),
        ));
    }
    if !span.histograms.is_empty() {
        fields.push((
            "histograms".to_owned(),
            Value::Obj(
                span.histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), h.to_value()))
                    .collect(),
            ),
        ));
    }
    if !span.notes.is_empty() {
        fields.push((
            "notes".to_owned(),
            Value::Obj(
                span.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    if !span.children.is_empty() {
        fields.push((
            "children".to_owned(),
            Value::Arr(span.children.iter().map(span_to_value).collect()),
        ));
    }
    Value::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let collector = Arc::new(Collector::new("flow:test"));
        {
            let _a = collector.span("step1:parse");
            collector.counter("tokens", 12);
        }
        {
            let _b = collector.span("step4:pnr");
            let _probe = collector.span("ratio:2x3");
            collector.counter("sat.conflicts", 3);
            collector.note("verdict", "sat");
        }
        collector.finish();
        collector.report()
    }

    #[test]
    fn tree_render_contains_durations_counters_and_percentages() {
        let tree = sample_report().render_tree();
        assert!(tree.contains("flow:test"), "{tree}");
        assert!(tree.contains("    ratio:2x3"), "{tree}");
        assert!(tree.contains("sat.conflicts=3"), "{tree}");
        assert!(tree.contains("verdict=sat"), "{tree}");
        assert!(tree.contains('%'), "{tree}");
    }

    #[test]
    fn summary_render_stops_at_stage_level() {
        let summary = sample_report().render_summary();
        assert!(summary.contains("step4:pnr"), "{summary}");
        assert!(!summary.contains("ratio:2x3"), "{summary}");
    }

    #[test]
    fn json_roundtrips_through_own_parser() {
        let report = sample_report();
        for encoded in [report.to_json(), report.to_json_pretty()] {
            let value = crate::json::parse(&encoded).expect("report JSON must parse");
            assert_eq!(value.get("name").and_then(Value::as_str), Some("flow:test"));
            let children = value.get("children").and_then(Value::as_array).unwrap();
            assert_eq!(children.len(), 2);
            let pnr = &children[1];
            let probe = &pnr.get("children").and_then(Value::as_array).unwrap()[0];
            assert_eq!(probe.get("name").and_then(Value::as_str), Some("ratio:2x3"));
            let conflicts = probe
                .get("counters")
                .and_then(|c| c.get("sat.conflicts"))
                .and_then(Value::as_f64);
            assert_eq!(conflicts, Some(3.0));
            assert_eq!(
                probe
                    .get("notes")
                    .and_then(|n| n.get("verdict"))
                    .and_then(Value::as_str),
                Some("sat")
            );
        }
    }

    #[test]
    fn stage_helpers_expose_direct_children() {
        let report = sample_report();
        assert_eq!(report.stages(), ["step1:parse", "step4:pnr"]);
        assert!(report.stage_duration("step4:pnr").is_some());
        assert!(report.stage_duration("step9:none").is_none());
    }

    #[test]
    fn adopt_grafts_child_collector_spans_under_open_span() {
        // A worker records probes under its own collector...
        let worker = Arc::new(Collector::new("probe"));
        {
            let _probe = worker.span("ratio:2x3");
            worker.counter("sat.conflicts", 7);
            worker.note("verdict", "sat");
        }
        worker.finish();
        let worker_report = worker.report();

        // ...and the parent adopts the snapshot inside step4:pnr.
        let parent = Arc::new(Collector::new("flow"));
        {
            let _pnr = parent.span("step4:pnr");
            parent.adopt_report(&worker_report);
        }
        parent.finish();
        let report = parent.report();
        let pnr = report.root.child("step4:pnr").expect("stage span");
        let probe = pnr.child("ratio:2x3").expect("adopted span");
        assert_eq!(probe.counters.get("sat.conflicts"), Some(&7));
        assert_eq!(probe.notes.get("verdict").map(String::as_str), Some("sat"));
    }

    #[test]
    fn adopt_report_merges_root_counters_into_open_span() {
        let worker = Arc::new(Collector::new("probe"));
        worker.counter("probes.cancelled", 2);
        worker.note("mode", "parallel");
        worker.finish();
        let snapshot = worker.report();

        let parent = Arc::new(Collector::new("flow"));
        parent.counter("probes.cancelled", 1);
        parent.adopt_report(&snapshot);
        let report = parent.report();
        assert_eq!(report.root.counters.get("probes.cancelled"), Some(&3));
        assert_eq!(
            report.root.notes.get("mode").map(String::as_str),
            Some("parallel")
        );
    }

    #[test]
    fn adopted_spans_keep_recorded_durations_and_structure() {
        let worker = Arc::new(Collector::new("probe"));
        {
            let _outer = worker.span("outer");
            let _inner = worker.span("inner");
            std::thread::sleep(Duration::from_millis(2));
        }
        worker.finish();
        let snapshot = worker.report();
        let recorded = snapshot.root.children[0].duration;

        let parent = Arc::new(Collector::new("flow"));
        parent.adopt_report(&snapshot);
        let adopted = &parent.report().root.children[0];
        assert_eq!(adopted.duration, recorded, "duration must be preserved");
        assert_eq!(adopted.children[0].name, "inner");
    }

    #[test]
    fn histograms_record_and_render() {
        let collector = Arc::new(Collector::new("root"));
        for v in [3u64, 5, 200] {
            collector.histogram("probe.conflicts", v);
        }
        collector.finish();
        let report = collector.report();
        let hist = &report.root.histograms["probe.conflicts"];
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.max(), 200);
        let tree = report.render_tree();
        assert!(tree.contains("probe.conflicts~{n=3"), "{tree}");
        let encoded = report.to_json();
        let value = crate::json::parse(&encoded).unwrap();
        let count = value
            .get("histograms")
            .and_then(|h| h.get("probe.conflicts"))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64);
        assert_eq!(count, Some(3.0));
    }

    #[test]
    fn span_close_feeds_parent_duration_histogram() {
        let collector = Arc::new(Collector::new("root"));
        {
            let _stage = collector.span("stage");
            for _ in 0..3 {
                let _unit = collector.span("unit");
            }
        }
        collector.finish();
        let report = collector.report();
        let stage = report.root.child("stage").unwrap();
        assert_eq!(stage.histograms[SPAN_DURATION_HISTOGRAM].count(), 3);
        // The root saw exactly one direct child close.
        assert_eq!(report.root.histograms[SPAN_DURATION_HISTOGRAM].count(), 1);
        // And the tree-wide merge sees all four.
        assert_eq!(report.histogram_total(SPAN_DURATION_HISTOGRAM).count(), 4);
    }

    #[test]
    fn adopt_report_merges_histograms_and_events() {
        let make_worker = |values: &[u64]| {
            let worker = Arc::new(Collector::new_traced("probe"));
            {
                let _span = worker.span("ratio:2x3");
                for &v in values {
                    worker.histogram("probe.conflicts", v);
                }
            }
            worker.finish();
            worker.report()
        };
        let a = make_worker(&[1, 2]);
        let b = make_worker(&[4]);

        let parent = Arc::new(Collector::new_traced("flow"));
        {
            let _pnr = parent.span("step4:pnr");
            parent.adopt_report(&a);
            parent.adopt_report(&b);
        }
        parent.finish();
        let report = parent.report();
        let pnr = report.root.child("step4:pnr").unwrap();
        // Each worker's probe span kept its own histogram...
        assert_eq!(pnr.children[0].histograms["probe.conflicts"].count(), 2);
        assert_eq!(pnr.children[1].histograms["probe.conflicts"].count(), 1);
        // ...and the tree-wide merge is the union, independent of order.
        let total = report.histogram_total("probe.conflicts");
        assert_eq!(total.count(), 3);
        assert_eq!(total.sum(), 7);
        // Worker events (ratio span + worker root each) rode along, then
        // the parent's own closes appended.
        let names: Vec<&str> = report.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "ratio:2x3",
                "probe",
                "ratio:2x3",
                "probe",
                "step4:pnr",
                "flow"
            ]
        );
        assert_eq!(report.events_dropped, 0);
    }

    #[test]
    fn untraced_collectors_buffer_no_events() {
        let collector = Arc::new(Collector::new("root"));
        if collector.traced {
            // Environment forced tracing on (TELEMETRY_TRACE set);
            // nothing to assert in that configuration.
            return;
        }
        {
            let _span = collector.span("work");
        }
        collector.finish();
        assert!(collector.report().events.is_empty());
    }

    #[test]
    fn guard_drop_order_tolerates_out_of_order_close() {
        let collector = Arc::new(Collector::new("root"));
        let outer = collector.span("outer");
        let inner = collector.span("inner");
        drop(outer); // pops inner off the open-span stack too
        drop(inner); // late close: must not panic or corrupt the stack
        let _next = collector.span("next");
        let report = collector.report();
        assert_eq!(report.stages(), ["outer", "next"]);
    }
}
