//! Span begin/end event capture and Chrome trace-event export.
//!
//! When tracing is enabled (the `TELEMETRY_TRACE` environment variable
//! names an output file, or a collector was created with
//! [`crate::Collector::new_traced`]), every span records a
//! [`TraceEvent`] as it closes: name, the recording thread's id and
//! label, the monotonic start instant, and the duration. Worker-thread
//! events ride the existing child-collector snapshots and are appended
//! to the parent's buffer by [`crate::Collector::adopt_report`], so one
//! flow run yields one event stream no matter how many threads probed
//! or simulated.
//!
//! [`chrome_trace`] renders the buffer in the Chrome trace-event JSON
//! format (complete `"X"` events with microsecond timestamps, plus one
//! `"M"` `thread_name` metadata record per thread), which Perfetto and
//! `chrome://tracing` load directly. Timestamps are normalized against
//! the earliest event so traces start at zero; `Instant`s from
//! different threads share the one monotonic clock, so cross-thread
//! ordering is faithful.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::json::Value;

/// Cap on buffered events per collector. A full buffer counts drops
/// instead of growing without bound — a trace is a diagnostic artifact,
/// not an accounting ledger.
pub(crate) const MAX_TRACE_EVENTS: usize = 65_536;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A small stable id for the calling thread (assigned on first use;
/// `std::thread::ThreadId` has no stable integer form).
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// The calling thread's display label: its name when set, else
/// `thread-<tid>`.
pub(crate) fn current_thread_label() -> String {
    match std::thread::current().name() {
        Some(name) => name.to_owned(),
        None => format!("thread-{}", current_tid()),
    }
}

/// Whether `TELEMETRY_TRACE` requests event capture. Read per collector
/// creation (not cached) so tests and long-lived processes can toggle
/// it.
pub(crate) fn trace_enabled_by_env() -> bool {
    std::env::var("TELEMETRY_TRACE").is_ok_and(|path| !path.is_empty())
}

/// One closed span, as buffered for trace export.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name, e.g. `step4:pnr` or `ratio:3x4`.
    pub name: String,
    /// Id of the thread the span closed on.
    pub tid: u64,
    /// Display label of that thread.
    pub thread_label: String,
    /// Monotonic begin instant.
    pub(crate) start: Instant,
    /// Wall time between span open and close.
    pub(crate) duration: Duration,
}

/// Renders events as a Chrome trace-event document
/// (`{"traceEvents": [...]}`).
pub(crate) fn chrome_trace(events: &[TraceEvent], dropped: u64) -> Value {
    let base = events.iter().map(|e| e.start).min();
    let mut records = Vec::with_capacity(events.len() + 8);
    // One thread_name metadata record per thread, in tid order.
    let mut labels: BTreeMap<u64, &str> = BTreeMap::new();
    for event in events {
        labels.entry(event.tid).or_insert(&event.thread_label);
    }
    for (tid, label) in labels {
        records.push(Value::Obj(vec![
            ("name".to_owned(), Value::Str("thread_name".to_owned())),
            ("ph".to_owned(), Value::Str("M".to_owned())),
            ("pid".to_owned(), Value::Num(1.0)),
            ("tid".to_owned(), Value::Num(tid as f64)),
            (
                "args".to_owned(),
                Value::Obj(vec![("name".to_owned(), Value::Str(label.to_owned()))]),
            ),
        ]));
    }
    for event in events {
        let ts = base
            .map(|b| event.start.saturating_duration_since(b))
            .unwrap_or(Duration::ZERO);
        records.push(Value::Obj(vec![
            ("name".to_owned(), Value::Str(event.name.clone())),
            ("cat".to_owned(), Value::Str("span".to_owned())),
            ("ph".to_owned(), Value::Str("X".to_owned())),
            ("pid".to_owned(), Value::Num(1.0)),
            ("tid".to_owned(), Value::Num(event.tid as f64)),
            ("ts".to_owned(), Value::Num(ts.as_secs_f64() * 1e6)),
            (
                "dur".to_owned(),
                Value::Num(event.duration.as_secs_f64() * 1e6),
            ),
        ]));
    }
    let mut doc = vec![("traceEvents".to_owned(), Value::Arr(records))];
    if dropped > 0 {
        doc.push((
            "otherData".to_owned(),
            Value::Obj(vec![(
                "dropped_events".to_owned(),
                Value::Num(dropped as f64),
            )]),
        ));
    }
    Value::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_are_distinct_across_threads() {
        let here = current_tid();
        let there = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(here, there);
        assert_eq!(here, current_tid(), "tid is stable per thread");
    }

    #[test]
    fn chrome_trace_normalizes_timestamps_and_names_threads() {
        let t0 = Instant::now();
        let events = vec![
            TraceEvent {
                name: "late".to_owned(),
                tid: 2,
                thread_label: "worker".to_owned(),
                start: t0 + Duration::from_micros(250),
                duration: Duration::from_micros(50),
            },
            TraceEvent {
                name: "early".to_owned(),
                tid: 1,
                thread_label: "main".to_owned(),
                start: t0,
                duration: Duration::from_micros(100),
            },
        ];
        let doc = chrome_trace(&events, 3);
        let records = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        // Two metadata records then two X events.
        assert_eq!(records.len(), 4);
        assert_eq!(
            records[0].get("ph").and_then(Value::as_str),
            Some("M"),
            "{doc:?}"
        );
        let late = &records[2];
        assert_eq!(late.get("name").and_then(Value::as_str), Some("late"));
        let ts = late.get("ts").and_then(Value::as_f64).unwrap();
        assert!(
            (ts - 250.0).abs() < 1.0,
            "normalized against earliest: {ts}"
        );
        let early = &records[3];
        assert_eq!(early.get("ts").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped_events"))
                .and_then(Value::as_f64),
            Some(3.0)
        );
    }
}
