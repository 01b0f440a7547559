//! Hierarchical span/counter telemetry for the Bestagon design flow.
//!
//! The flow driver installs a [`Collector`] for the duration of one
//! flow run; every layer below it (synthesis, P&R, equivalence,
//! physical simulation) records into the *ambient* collector through
//! the free functions in this crate — [`span`], [`counter`] and
//! [`note`] — without any plumbing through call
//! signatures. When no collector is installed every call is a cheap
//! no-op, so instrumented library code pays nothing in isolation.
//!
//! ```
//! use std::sync::Arc;
//!
//! let collector = Arc::new(fcn_telemetry::Collector::new("flow:demo"));
//! fcn_telemetry::with_collector(&collector, || {
//!     let _step = fcn_telemetry::span("step4:pnr");
//!     fcn_telemetry::counter("sat.conflicts", 17);
//! });
//! let report = collector.report();
//! assert_eq!(report.root.children[0].name, "step4:pnr");
//! assert_eq!(report.root.children[0].counters["sat.conflicts"], 17);
//! ```
//!
//! Beyond spans and counters, the layer records **histograms**
//! ([`histogram`], log₂-bucketed and deterministically mergeable across
//! worker threads — see [`Histogram`]), buffers **trace events** for
//! Chrome/Perfetto visualization ([`Report::to_chrome_trace`], enabled
//! by the `TELEMETRY_TRACE` environment variable), and feeds a
//! process-wide [`Registry`] of aggregate metrics that survives across
//! flow runs ([`Registry::global`], snapshot + diff API).
//!
//! Reports render three ways: an indented human-readable tree with
//! durations and percentages (`Report::render_tree`), a one-level
//! summary ([`Report::render_summary`]), and machine-readable JSON
//! ([`Report::to_json`]) produced by the hand-rolled serializer in
//! [`json`] — no serde, per DESIGN.md §6. The [`emit`] helper writes
//! whichever form the `TELEMETRY` environment variable selects
//! (`off`/`summary`/`tree`/`json`) to stderr — or, for JSON, appends
//! one compact document per run to the file named by `TELEMETRY_FILE`
//! — so stdout stays clean. When `TELEMETRY_TRACE=<path>` is set,
//! [`emit`] additionally writes the run's trace events to `<path>` in
//! Chrome trace-event format (one file per run; the last run wins).

mod collector;
mod hist;
pub mod json;
mod registry;
mod trace;

pub use collector::{Collector, Report, SpanGuard, SpanReport, SPAN_DURATION_HISTOGRAM};
pub use hist::Histogram;
pub use registry::{Registry, RegistrySnapshot};
pub use trace::TraceEvent;

use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    static CURRENT: RefCell<Vec<Arc<Collector>>> = const { RefCell::new(Vec::new()) };
}

/// Installs `collector` as the thread's ambient collector for the
/// duration of `f`. Nested installs shadow outer ones; the previous
/// collector is restored even if `f` panics.
pub fn with_collector<R>(collector: &Arc<Collector>, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }

    CURRENT.with(|stack| stack.borrow_mut().push(Arc::clone(collector)));
    let _pop = Pop;
    f()
}

/// The currently installed ambient collector, if any.
pub fn current() -> Option<Arc<Collector>> {
    CURRENT.with(|stack| stack.borrow().last().cloned())
}

/// Opens a child span under the innermost open span of the ambient
/// collector. The span closes (recording its wall time) when the
/// returned guard drops. A no-op guard is returned when no collector
/// is installed.
pub fn span(name: impl Into<String>) -> SpanGuard {
    match current() {
        Some(collector) => collector.span(name),
        None => SpanGuard::noop(),
    }
}

/// Adds `delta` to a named counter on the innermost open span.
pub fn counter(name: &str, delta: u64) {
    if let Some(collector) = current() {
        collector.counter(name, delta);
    }
}

/// Attaches a named string annotation to the innermost open span.
pub fn note(name: &str, value: impl Into<String>) {
    if let Some(collector) = current() {
        collector.note(name, value.into());
    }
}

/// Records one sample into a named histogram on the innermost open
/// span. Histograms are log₂-bucketed and merge deterministically
/// through [`adopt_report`]; see [`Histogram`].
pub fn histogram(name: &str, value: u64) {
    if let Some(collector) = current() {
        collector.histogram(name, value);
    }
}

/// Adopts a finished child-collector snapshot into the ambient
/// collector (see `Collector::adopt_report`): its top-level spans are
/// grafted under the innermost open span and its root counters, notes
/// and histograms merged into it. A no-op when no collector is installed.
///
/// Worker threads cannot see the parent's thread-local collector, so
/// parallel stages run each unit of work under a fresh
/// [`Collector`], snapshot it with [`Collector::report`], and let the
/// coordinating thread adopt the snapshots in a deterministic order.
pub fn adopt_report(report: &Report) {
    if let Some(collector) = current() {
        collector.adopt_report(report);
    }
}

/// Emission level selected by the `TELEMETRY` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// No output (the default, and the fallback for unknown values).
    Off,
    /// One line per top-level stage.
    Summary,
    /// The full indented span tree.
    Tree,
    /// Pretty-printed JSON.
    Json,
}

impl Mode {
    /// Reads the `TELEMETRY` environment variable. When `TELEMETRY` is
    /// unset (or off) but `TELEMETRY_FILE` names a destination, the
    /// mode is `Json` — asking for a report file implies wanting the
    /// machine-readable report.
    pub(crate) fn from_env() -> Mode {
        match std::env::var("TELEMETRY").as_deref() {
            Ok("summary") => Mode::Summary,
            Ok("tree") => Mode::Tree,
            Ok("json") => Mode::Json,
            _ if telemetry_file_from_env().is_some() => Mode::Json,
            _ => Mode::Off,
        }
    }
}

/// The `TELEMETRY_FILE` destination, if configured and non-empty.
fn telemetry_file_from_env() -> Option<String> {
    std::env::var("TELEMETRY_FILE")
        .ok()
        .filter(|path| !path.is_empty())
}

/// Writes `report` to stderr in the form selected by `TELEMETRY`
/// (nothing when off). stdout is never touched, so pipelines that
/// consume a tool's primary output stay stable.
///
/// Two file sinks augment the stderr stream, both env-driven:
///
/// * `TELEMETRY_FILE=<path>` — in `Json` mode the report is *appended*
///   to `<path>` as one compact JSON document per line (JSON Lines, so
///   multi-flow runs like the Table 1 harness accumulate cleanly)
///   instead of printed to stderr.
/// * `TELEMETRY_TRACE=<path>` — the report's trace events (captured
///   because the same variable enabled tracing at collector creation)
///   are written to `<path>` in Chrome trace-event format. One file per
///   run: the last run wins.
///
/// File-sink I/O errors are reported to stderr and otherwise ignored —
/// telemetry must never fail the flow.
pub fn emit(report: &Report) {
    let mode = Mode::from_env();
    match (mode, telemetry_file_from_env()) {
        (Mode::Json, Some(path)) => {
            use std::io::Write;
            let result = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut file| writeln!(file, "{}", report.to_json()));
            if let Err(e) = result {
                eprintln!("telemetry: could not append report to {path}: {e}");
            }
        }
        _ => emit_with_mode(report, mode),
    }
    if let Ok(path) = std::env::var("TELEMETRY_TRACE") {
        if !path.is_empty() && !report.events.is_empty() {
            if let Err(e) = std::fs::write(&path, report.to_chrome_trace() + "\n") {
                eprintln!("telemetry: could not write trace to {path}: {e}");
            }
        }
    }
}

/// Like [`emit`] but with an explicit mode, for callers that manage
/// their own configuration. Always writes to stderr; the file sinks
/// are [`emit`]'s.
pub(crate) fn emit_with_mode(report: &Report, mode: Mode) {
    match mode {
        Mode::Off => {}
        Mode::Summary => eprint!("{}", report.render_summary()),
        Mode::Tree => eprint!("{}", report.render_tree()),
        Mode::Json => eprintln!("{}", report.to_json_pretty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_collector_is_a_noop() {
        assert!(current().is_none());
        let _span = span("orphan");
        counter("unseen", 5);
        note("unseen", "value");
    }

    #[test]
    fn ambient_collector_records_nested_spans() {
        let collector = Arc::new(Collector::new("root"));
        with_collector(&collector, || {
            {
                let _outer = span("outer");
                counter("ticks", 2);
                {
                    let _inner = span("inner");
                    counter("ticks", 1);
                    note("kind", "leaf");
                }
            }
            let _second = span("second");
        });
        assert!(current().is_none());

        let report = collector.report();
        assert_eq!(report.root.name, "root");
        let names: Vec<&str> = report
            .root
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["outer", "second"]);
        let outer = &report.root.children[0];
        assert_eq!(outer.counters["ticks"], 2);
        let inner = &outer.children[0];
        assert_eq!(inner.counters["ticks"], 1);
        assert_eq!(inner.notes["kind"], "leaf");
    }

    #[test]
    fn install_is_restored_on_panic() {
        let collector = Arc::new(Collector::new("root"));
        let result = std::panic::catch_unwind(|| {
            with_collector(&collector, || panic!("boom"));
        });
        assert!(result.is_err());
        assert!(current().is_none());
    }

    #[test]
    fn children_durations_sum_within_parent() {
        let collector = Arc::new(Collector::new("root"));
        with_collector(&collector, || {
            for _ in 0..3 {
                let _s = span("work");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let report = collector.report();
        let sum: std::time::Duration = report.root.children.iter().map(|c| c.duration).sum();
        assert!(
            sum <= report.root.duration,
            "{sum:?} > {:?}",
            report.root.duration
        );
    }

    #[test]
    fn mode_matches_environment() {
        // Tolerates an inherited TELEMETRY/TELEMETRY_FILE value: tests
        // must pass both in a clean environment and under e.g.
        // `TELEMETRY=json`.
        let file_set = std::env::var("TELEMETRY_FILE").is_ok_and(|p| !p.is_empty());
        let expected = match std::env::var("TELEMETRY").as_deref() {
            Ok("summary") => Mode::Summary,
            Ok("tree") => Mode::Tree,
            Ok("json") => Mode::Json,
            _ if file_set => Mode::Json,
            _ => Mode::Off,
        };
        assert_eq!(Mode::from_env(), expected);
    }
}
