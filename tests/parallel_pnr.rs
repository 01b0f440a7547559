//! The parallel aspect-ratio portfolio must be a pure wall-clock
//! optimization: every observable of [`fcn_pnr::exact_pnr`] and
//! [`fcn_pnr::cartesian_exact_pnr`] — the chosen ratio, the probe log,
//! the minimality verdict, the cumulative solver statistics — is
//! identical at any executor width, because every probe runs on a fresh
//! solver.

use std::sync::Arc;

use bestagon_core::benchmarks::benchmark;
use fcn_budget::exec::with_width;
use fcn_logic::techmap::{map_xag, MapOptions};
use fcn_pnr::{cartesian_exact_pnr, exact_pnr, ExactOptions, NetGraph, PnrOutcome};
use fcn_telemetry::Collector;

fn graph_for(name: &str) -> NetGraph {
    let b = benchmark(name);
    let net = map_xag(&b.xag, MapOptions::default()).expect("mappable");
    NetGraph::new(net).expect("legalized")
}

fn options() -> ExactOptions {
    ExactOptions {
        max_area: 100,
        ..Default::default()
    }
}

/// Asserts that two scans of the same netlist agree on every work-exact
/// observable: chosen ratio, minimality verdict, ratios tried, the
/// `(ratio, verdict)` probe sequence and the cumulative solver counters.
fn assert_same_scan<L>(what: &str, a: &PnrOutcome<L>, b: &PnrOutcome<L>) {
    assert_eq!(a.ratio, b.ratio, "{what}: chosen ratio");
    assert_eq!(
        a.is_provably_minimal(),
        b.is_provably_minimal(),
        "{what}: minimality verdict"
    );
    assert_eq!(a.ratios_tried, b.ratios_tried, "{what}: ratios tried");
    assert_eq!(probe_log(a), probe_log(b), "{what}: probe sequence");
    // Work counters only: `solve_time` is wall clock, which no
    // schedule can reproduce.
    assert_eq!(
        a.stats.without_time(),
        b.stats.without_time(),
        "{what}: cumulative solver statistics"
    );
}

fn probe_log<L>(r: &PnrOutcome<L>) -> Vec<(fcn_coords::AspectRatio, fcn_pnr::ProbeVerdict)> {
    r.probes.iter().map(|p| (p.ratio, p.verdict)).collect()
}

/// Satellite: determinism across thread counts. The sequential engine is
/// the reference semantics; the portfolio must reproduce it bit-for-bit,
/// on the hexagonal and on the Cartesian floor plan. Each of these scans
/// also proves its layout area-minimal within the default per-ratio
/// budget, so a change that trades a proof for speed fails here.
#[test]
fn portfolio_is_deterministic_across_thread_counts() {
    for name in ["xor2", "par_check", "c17", "t", "xor5_r1"] {
        let graph = graph_for(name);
        let sequential = with_width(1, || exact_pnr(&graph, &options())).expect("feasible");
        let parallel = with_width(4, || exact_pnr(&graph, &options())).expect("feasible");
        assert_same_scan(&format!("{name} (hex)"), &sequential, &parallel);
        assert!(
            sequential.is_provably_minimal(),
            "{name} (hex): every smaller ratio proven UNSAT"
        );

        let sequential =
            with_width(1, || cartesian_exact_pnr(&graph, &options())).expect("feasible");
        let parallel = with_width(4, || cartesian_exact_pnr(&graph, &options())).expect("feasible");
        assert_same_scan(&format!("{name} (cartesian)"), &sequential, &parallel);
        assert!(
            sequential.is_provably_minimal(),
            "{name} (cartesian): every smaller ratio proven UNSAT"
        );
    }
}

/// Worker-thread telemetry merges deterministically into the ambient
/// collector: one `ratio:WxH` child span per committed probe, in probe
/// order, exactly as the sequential engine records them.
#[test]
fn parallel_probes_merge_into_ambient_telemetry() {
    let graph = graph_for("par_check");
    let collector = Arc::new(Collector::new("flow"));
    let result = fcn_telemetry::with_collector(&collector, || {
        let _pnr = fcn_telemetry::span("step4:pnr");
        with_width(4, || exact_pnr(&graph, &options())).expect("feasible")
    });
    collector.finish();
    let report = collector.report();

    let pnr_span = report.root.child("step4:pnr").expect("pnr stage span");
    let ratio_spans: Vec<&str> = pnr_span
        .children
        .iter()
        .map(|c| c.name.as_str())
        .filter(|n| n.starts_with("ratio:"))
        .collect();
    let expected: Vec<String> = result
        .probes
        .iter()
        .map(|p| format!("ratio:{}", p.ratio.label()))
        .collect();
    assert_eq!(
        ratio_spans, expected,
        "one span per committed probe, in probe (area) order"
    );
    for span in pnr_span
        .children
        .iter()
        .filter(|c| c.name.starts_with("ratio:"))
    {
        assert!(
            span.notes.contains_key("verdict"),
            "adopted span keeps its verdict note: {}",
            span.name
        );
    }
}
