//! End-to-end checks of the flow telemetry layer: the report attached to
//! a [`FlowResult`] names the paper's eight stages, its JSON encoding
//! parses with the crate's own parser, the per-stage wall times are
//! consistent with the total, work histograms surface p50/p90, and the
//! opt-in Chrome-trace export covers the parallel worker threads.

use bestagon::flow::benchmarks::benchmark;
use bestagon::flow::flow::{FlowError, FlowOptions, FlowRequest, FlowResult, PnrMethod};
use bestagon::telemetry::json::{parse, Value};
use bestagon::telemetry::{self, Collector, Report};
use fcn_budget::exec::with_width;
use fcn_logic::network::Xag;
use std::sync::{Arc, Mutex, OnceLock};

fn run(name: &str, xag: &Xag, options: &FlowOptions) -> Result<FlowResult, FlowError> {
    FlowRequest::netlist(name, xag.clone())
        .with_options(options.clone())
        .execute()
}

const STAGES: [&str; 8] = [
    "step1:parse",
    "step2:rewrite",
    "step3:techmap",
    "step4:pnr",
    "step5:equiv",
    "step6:supertiles",
    "step7:apply",
    "step8:export",
];

fn c17_report() -> bestagon::telemetry::Report {
    let b = benchmark("c17");
    let options = FlowOptions::new().with_pnr(PnrMethod::ExactWithFallback { max_area: 40 });
    run("c17", &b.xag, &options)
        .expect("c17 flows end to end")
        .report
}

#[test]
fn report_names_the_eight_paper_stages() {
    let report = c17_report();
    assert_eq!(report.root.name, "flow");
    assert_eq!(report.stages(), STAGES);
    assert_eq!(
        report.root.notes.get("circuit").map(String::as_str),
        Some("c17")
    );
}

#[test]
fn stage_durations_sum_to_at_most_the_total() {
    let report = c17_report();
    let encoded = report.to_json_pretty();
    let value = parse(&encoded).expect("report JSON must parse");

    let children = value
        .get("children")
        .and_then(Value::as_array)
        .expect("stages");
    let total = value
        .get("duration_ns")
        .and_then(Value::as_f64)
        .expect("total");
    let mut sum = 0.0;
    for child in children {
        sum += child
            .get("duration_ns")
            .and_then(Value::as_f64)
            .expect("stage duration");
    }
    assert!(
        sum <= total,
        "stage durations {sum} ns exceed the flow total {total} ns"
    );

    let names: Vec<&str> = children
        .iter()
        .map(|c| c.get("name").and_then(Value::as_str).expect("stage name"))
        .collect();
    assert_eq!(names, STAGES);
}

#[test]
fn pnr_stage_records_sat_probes() {
    let report = c17_report();
    let pnr = report.root.child("step4:pnr").expect("pnr stage");
    // The exact engine probes aspect ratios in a child span each; every
    // probe carries the solver counters and a verdict note.
    if pnr.notes.get("engine").map(String::as_str) == Some("exact") {
        assert!(
            !pnr.children.is_empty(),
            "exact P&R must record ratio probes"
        );
        for probe in &pnr.children {
            assert!(probe.name.starts_with("ratio:"), "{}", probe.name);
            assert!(probe.counters.contains_key("sat.decisions"), "{probe:?}");
            assert!(probe.notes.contains_key("verdict"), "{probe:?}");
        }
    }
    // The equivalence stage always solves a miter.
    let equiv = report.root.child("step5:equiv").expect("equiv stage");
    let miter = equiv.child("miter").expect("miter span");
    assert!(miter.counters.contains_key("miter.clauses"));
    assert_eq!(
        miter.notes.get("verdict").map(String::as_str),
        Some("equivalent")
    );
}

/// Serializes the tests that mutate process-wide environment variables
/// (`TELEMETRY_TRACE`, `TELEMETRY_FILE`) so they cannot observe each
/// other's settings.
fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn flow_report_carries_work_histograms() {
    let b = benchmark("c17");
    let options = FlowOptions::new()
        .with_pnr(PnrMethod::ExactWithFallback { max_area: 40 })
        .with_tile_validation();
    let report = run("c17", &b.xag, &options)
        .expect("c17 flows end to end")
        .report;

    // Step 7 re-validates every distinct tile design, so the report must
    // carry a per-simulation visited-states distribution…
    let visited = report.histogram_total("sidb.visited");
    assert!(!visited.is_empty(), "tile validation records sidb.visited");
    assert!(visited.p50() <= visited.p90());
    assert!(visited.p90() <= visited.max());
    // …and the exact engine one conflict sample per aspect-ratio probe.
    let pnr = report.root.child("step4:pnr").expect("pnr stage");
    if pnr.notes.get("engine").map(String::as_str) == Some("exact") {
        let conflicts = report.histogram_total("pnr.probe.conflicts");
        assert_eq!(conflicts.count(), pnr.children.len() as u64, "{pnr:?}");
    }
    // Closing stage spans feed the root's span-duration histogram.
    let span_us = report
        .root
        .histograms
        .get(telemetry::SPAN_DURATION_HISTOGRAM)
        .expect("root records child span durations");
    assert!(span_us.count() >= STAGES.len() as u64);

    // The JSON encoding exposes the summaries.
    let value = parse(&report.to_json()).expect("report JSON parses");
    let hists = value
        .get("histograms")
        .and_then(Value::as_object)
        .expect("histograms object");
    let (_, span_hist) = hists
        .iter()
        .find(|(k, _)| k == telemetry::SPAN_DURATION_HISTOGRAM)
        .expect("span.us serialized");
    for field in ["count", "p50", "p90", "max"] {
        assert!(span_hist.get(field).is_some(), "{field} missing");
    }
}

/// A synthetic worker pool: `units` child collectors processed by
/// `width` worker threads, adopted into the parent in index order —
/// the same shape the P&R portfolio and the simulation pool use.
fn pool_report(width: usize, units: usize) -> Report {
    let parent = Arc::new(Collector::new_traced("pool"));
    telemetry::with_collector(&parent, || {
        let guard = telemetry::span("dispatch");
        let children: Vec<Arc<Collector>> = (0..units)
            .map(|_| Arc::new(Collector::new_traced("worker")))
            .collect();
        std::thread::scope(|scope| {
            for (worker, chunk) in children.chunks(units.div_ceil(width)).enumerate() {
                let offset = worker * units.div_ceil(width);
                scope.spawn(move || {
                    for (i, child) in chunk.iter().enumerate() {
                        let unit = offset + i;
                        telemetry::with_collector(child, || {
                            let span = telemetry::span(format!("unit:{unit}"));
                            telemetry::counter("work.done", 1);
                            // A deterministic, unit-dependent sample so
                            // the merged histogram is width-invariant.
                            telemetry::histogram("work.size", (unit as u64 + 1) * 3);
                            drop(span);
                        });
                        child.finish();
                    }
                });
            }
        });
        for child in &children {
            telemetry::adopt_report(&child.report());
        }
        drop(guard);
    });
    parent.finish();
    parent.report()
}

#[test]
fn pool_merge_is_deterministic_across_widths() {
    let sequential = pool_report(1, 8);
    let parallel = pool_report(4, 8);

    // Counters and histograms merge to identical values...
    assert_eq!(sequential.counter_total("work.done"), 8);
    assert_eq!(
        sequential.counter_total("work.done"),
        parallel.counter_total("work.done")
    );
    assert_eq!(
        sequential.histogram_total("work.size"),
        parallel.histogram_total("work.size")
    );
    let hist = parallel.histogram_total("work.size");
    assert_eq!(hist.count(), 8);
    assert_eq!(hist.sum(), (1..=8).map(|u| u * 3).sum::<u64>());

    // ...and the trace-event buffers append in adoption (index) order,
    // so the event name sequence is schedule-independent too.
    let names =
        |report: &Report| -> Vec<String> { report.events.iter().map(|e| e.name.clone()).collect() };
    assert_eq!(names(&sequential), names(&parallel));
    // Each child contributes its unit span then its own root span (the
    // `finish` event), in adoption order; the parent's spans close last.
    let expected: Vec<String> = (0..8)
        .flat_map(|u| [format!("unit:{u}"), "worker".to_owned()])
        .chain(["dispatch".to_owned(), "pool".to_owned()])
        .collect();
    assert_eq!(names(&sequential), expected);
    assert_eq!(sequential.events_dropped, 0);
}

#[test]
fn chrome_trace_escapes_event_names() {
    let collector = Arc::new(Collector::new_traced("trace \"root\"\n\\"));
    telemetry::with_collector(&collector, || {
        drop(telemetry::span("probe \"2×3\"\twith\u{0}controls"));
    });
    collector.finish();
    let trace = collector.report().to_chrome_trace();
    let value = parse(&trace).expect("chrome trace JSON parses");
    let events = value
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| e.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(
        span_names,
        ["probe \"2×3\"\twith\u{0}controls", "trace \"root\"\n\\"]
    );
}

#[test]
fn traced_parallel_flow_covers_multiple_worker_threads() {
    let _guard = env_lock();
    let path = std::env::temp_dir().join(format!("bestagon-trace-{}.json", std::process::id()));
    std::env::set_var("TELEMETRY_TRACE", &path);
    // t's exact scan commits two aspect-ratio probes (5x7 UNSAT, 5x8
    // SAT) that run side by side on two workers. Each takes about 10 ms
    // in a release build and 50 ms in a debug one, longer than a
    // scheduler time slice, so the second worker starts before the first
    // could take both; with sub-millisecond probes (par_check's) one
    // worker sometimes ran every probe on a loaded machine.
    let b = benchmark("t");
    let options = FlowOptions::new().with_pnr(PnrMethod::ExactWithFallback { max_area: 40 });
    let result = with_width(4, || run("t", &b.xag, &options));
    std::env::remove_var("TELEMETRY_TRACE");
    let report = result.expect("t flows end to end").report;
    let _ = std::fs::remove_file(&path);

    assert!(!report.events.is_empty(), "tracing was enabled");
    // The exact engine ran, so the probe-conflict distribution is there.
    assert!(!report.histogram_total("pnr.probe.conflicts").is_empty());
    let worker_tids: std::collections::BTreeSet<u64> = report
        .events
        .iter()
        .filter(|e| e.thread_label.starts_with("pnr-worker-"))
        .map(|e| e.tid)
        .collect();
    assert!(
        worker_tids.len() >= 2,
        "expected probes on >=2 portfolio workers, saw {worker_tids:?}"
    );
    // The export parses and names those workers in thread metadata.
    let value = parse(&report.to_chrome_trace()).expect("trace parses");
    let events = value
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let named_workers = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
        })
        .filter(|name| name.starts_with("pnr-worker-"))
        .count();
    assert!(named_workers >= 2, "{named_workers} workers named");
}

#[test]
fn telemetry_file_appends_one_json_line_per_flow() {
    let _guard = env_lock();
    let path = std::env::temp_dir().join(format!("bestagon-jsonl-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("TELEMETRY_FILE", &path);
    let b = benchmark("mux21");
    let options = FlowOptions::new().with_pnr(PnrMethod::ExactWithFallback { max_area: 40 });
    let first = run("mux21", &b.xag, &options);
    let second = run("mux21", &b.xag, &options);
    std::env::remove_var("TELEMETRY_FILE");
    first.expect("first run");
    second.expect("second run");

    let contents = std::fs::read_to_string(&path).expect("TELEMETRY_FILE written");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), 2, "one compact line per flow: {contents:?}");
    for line in lines {
        let value = parse(line).expect("each line is a standalone JSON doc");
        assert_eq!(value.get("name").and_then(Value::as_str), Some("flow"));
    }
}
