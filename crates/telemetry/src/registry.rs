//! Process-wide aggregate metrics surviving across flow runs.
//!
//! A per-run [`crate::Collector`] dies with its flow; a long-lived host
//! (the benchmark harness today, ROADMAP item 1's design server
//! tomorrow) also needs *process* totals — how many flows ran, how many
//! SAT conflicts and simulation states they cost in aggregate, and how
//! the distributions look across jobs. The [`Registry`] is that
//! accumulator: the flow driver calls
//! [`Registry::absorb_report`] once per finished run (off the hot path,
//! after the report is snapshotted), folding every counter and
//! histogram of the span tree into per-name totals.
//!
//! [`Registry::snapshot`] returns an immutable [`RegistrySnapshot`];
//! [`RegistrySnapshot::diff`] subtracts an earlier snapshot, which is
//! how a server attributes "what did *this* job cost?" against
//! whole-process totals without locking the registry for the job's
//! duration.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::collector::{Report, SpanReport};
use crate::hist::Histogram;
use crate::json::Value;

/// Process-wide accumulator of counters and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistrySnapshot>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// A fresh, empty registry (for tests and embedded hosts).
    pub(crate) fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::new)
    }

    /// Folds one finished run's report into the aggregate: counters sum
    /// by name over the whole span tree, histograms merge by name, the
    /// root duration lands in the `flow.us` histogram, and `flow.runs`
    /// increments.
    pub fn absorb_report(&self, report: &Report) {
        fn walk(agg: &mut RegistrySnapshot, span: &SpanReport) {
            for (name, &delta) in &span.counters {
                *agg.counters.entry(name.clone()).or_insert(0) += delta;
            }
            for (name, hist) in &span.histograms {
                agg.histograms.entry(name.clone()).or_default().merge(hist);
            }
            for child in &span.children {
                walk(agg, child);
            }
        }
        let mut inner = self.inner.lock().unwrap();
        inner.flows += 1;
        inner
            .histograms
            .entry("flow.us".to_owned())
            .or_default()
            .record(report.root.duration.as_micros() as u64);
        walk(&mut inner, &report.root);
    }

    /// Adds `delta` to the named counter total directly, without going
    /// through a report. Long-lived hosts (the design server) account
    /// events that happen *outside* any flow run — admission rejects,
    /// cache hits — against the same aggregate namespace this way.
    pub fn add_counter(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Records one sample into the named histogram directly (same
    /// rationale as [`Registry::add_counter`] — e.g. the server's
    /// queue-depth distribution, sampled at every admission).
    pub fn record_histogram(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// An immutable copy of the current totals.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.inner.lock().unwrap().clone()
    }
}

/// Immutable totals captured from a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Number of reports absorbed.
    pub(crate) flows: u64,
    /// Per-name counter totals over all absorbed reports.
    pub counters: BTreeMap<String, u64>,
    /// Per-name merged histograms over all absorbed reports.
    pub(crate) histograms: BTreeMap<String, Histogram>,
}

impl RegistrySnapshot {
    /// What this snapshot accumulated beyond `earlier` (a previous
    /// snapshot of the same registry): counters subtract (zero-delta
    /// entries are dropped), histograms subtract bucket-wise.
    pub fn diff(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let mut counters = BTreeMap::new();
        for (name, &total) in &self.counters {
            let before = earlier.counters.get(name).copied().unwrap_or(0);
            if total > before {
                counters.insert(name.clone(), total - before);
            }
        }
        let mut histograms = BTreeMap::new();
        for (name, hist) in &self.histograms {
            let window = match earlier.histograms.get(name) {
                Some(before) => hist.diff(before),
                None => hist.clone(),
            };
            if !window.is_empty() {
                histograms.insert(name.clone(), window);
            }
        }
        RegistrySnapshot {
            flows: self.flows.saturating_sub(earlier.flows),
            counters,
            histograms,
        }
    }

    /// The totals as a JSON object, for embedding in BENCH artifacts.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("flows".to_owned(), Value::Num(self.flows as f64)),
            (
                "counters".to_owned(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;
    use std::sync::Arc;

    fn run_once(conflicts: u64) -> Report {
        let collector = Arc::new(Collector::new("flow"));
        {
            let _pnr = collector.span("step4:pnr");
            collector.counter("sat.conflicts", conflicts);
            collector.histogram("pnr.probe.conflicts", conflicts);
        }
        collector.finish();
        collector.report()
    }

    #[test]
    fn registry_accumulates_across_reports() {
        let registry = Registry::new();
        registry.absorb_report(&run_once(10));
        registry.absorb_report(&run_once(30));
        let snap = registry.snapshot();
        assert_eq!(snap.flows, 2);
        assert_eq!(snap.counters.get("sat.conflicts"), Some(&40));
        let hist = snap.histograms.get("pnr.probe.conflicts").unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 40);
        assert_eq!(snap.histograms.get("flow.us").unwrap().count(), 2);
    }

    #[test]
    fn snapshot_diff_isolates_one_window() {
        let registry = Registry::new();
        registry.absorb_report(&run_once(10));
        let before = registry.snapshot();
        registry.absorb_report(&run_once(5));
        let delta = registry.snapshot().diff(&before);
        assert_eq!(delta.flows, 1);
        assert_eq!(delta.counters.get("sat.conflicts"), Some(&5));
        assert_eq!(
            delta.histograms.get("pnr.probe.conflicts").unwrap().count(),
            1
        );
        // Diffing a snapshot against itself is empty.
        let same = registry.snapshot();
        let empty = same.diff(&same);
        assert_eq!(empty.flows, 0);
        assert!(empty.counters.is_empty());
        assert!(empty.histograms.is_empty());
    }

    #[test]
    fn json_value_lists_counters_and_histograms() {
        let registry = Registry::new();
        registry.absorb_report(&run_once(7));
        let v = registry.snapshot().to_value();
        assert_eq!(v.get("flows").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("sat.conflicts"))
                .and_then(Value::as_f64),
            Some(7.0)
        );
        assert!(v
            .get("histograms")
            .and_then(|h| h.get("pnr.probe.conflicts"))
            .is_some());
    }

    #[test]
    fn direct_recording_lands_in_the_same_namespace() {
        let registry = Registry::new();
        registry.add_counter("server.jobs", 2);
        registry.add_counter("server.jobs", 1);
        registry.record_histogram("server.queue_depth", 4);
        registry.record_histogram("server.queue_depth", 1);
        let before = registry.snapshot();
        assert_eq!(before.counters.get("server.jobs"), Some(&3));
        assert_eq!(
            before.histograms.get("server.queue_depth").unwrap().count(),
            2
        );
        // Direct records do not count as flows, and they diff like
        // report-absorbed totals.
        assert_eq!(before.flows, 0);
        registry.add_counter("server.jobs", 5);
        let delta = registry.snapshot().diff(&before);
        assert_eq!(delta.counters.get("server.jobs"), Some(&5));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global() as *const Registry;
        let b = Registry::global() as *const Registry;
        assert_eq!(a, b);
    }
}
