//! The parallel aspect-ratio portfolio must be a pure wall-clock
//! optimization: every observable of [`fcn_pnr::exact_pnr`] and
//! [`fcn_pnr::cartesian_exact_pnr`] — the chosen ratio, the probe log,
//! the minimality verdict, the cumulative solver statistics — is
//! identical at any executor width.

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
        // Pin the from-scratch engine: its per-probe solver statistics are
        // bit-for-bit reproducible at any thread count, which is what this
        // file asserts. (Incremental workers accumulate different learned
        // state depending on which probes they drew, so only semantic
        // observables are thread-count invariant there — see
        // `incremental_portfolio_agrees_on_semantic_observables`.)
        incremental: false,
        ..Default::default()
    }
}

fn incremental_options() -> ExactOptions {
    ExactOptions {
        incremental: true,
        ..options()
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

/// Asserts that two incremental scans agree on every semantic
/// observable: chosen ratio, layout bytes, minimality verdict, ratios
/// tried and the `(ratio, verdict)` probe sequence.
fn assert_same_semantics<L>(
    what: &str,
    a: &PnrOutcome<L>,
    b: &PnrOutcome<L>,
    render: impl Fn(&L) -> String,
) {
    assert_eq!(a.ratio, b.ratio, "{what}: chosen ratio");
    assert_eq!(render(&a.layout), render(&b.layout), "{what}: layout");
    assert_eq!(
        a.is_provably_minimal(),
        b.is_provably_minimal(),
        "{what}: minimality verdict"
    );
    assert_eq!(a.ratios_tried, b.ratios_tried, "{what}: ratios tried");
    assert_eq!(probe_log(a), probe_log(b), "{what}: probe verdicts");
}

/// Satellite: determinism across thread counts. The sequential engine is
/// the reference semantics; the portfolio must reproduce it bit-for-bit,
/// on the hexagonal and on the Cartesian floor plan.
#[test]
fn portfolio_is_deterministic_across_thread_counts() {
    for name in ["xor2", "par_check", "c17"] {
        let graph = graph_for(name);
        let sequential = with_width(1, || exact_pnr(&graph, &options())).expect("feasible");
        let parallel = with_width(4, || exact_pnr(&graph, &options())).expect("feasible");
        assert_same_scan(&format!("{name} (hex)"), &sequential, &parallel);

        let sequential =
            with_width(1, || cartesian_exact_pnr(&graph, &options())).expect("feasible");
        let parallel = with_width(4, || cartesian_exact_pnr(&graph, &options())).expect("feasible");
        assert_same_scan(&format!("{name} (cartesian)"), &sequential, &parallel);
    }
}

/// The incremental engine keeps per-worker solver state, so raw conflict
/// counts legitimately vary with the thread count — but every *semantic*
/// observable (the chosen layout, the probe verdicts, the minimality
/// claim) must still be thread-count invariant, on both floor plans.
#[test]
fn incremental_portfolio_agrees_on_semantic_observables() {
    for name in ["xor2", "par_check"] {
        let graph = graph_for(name);
        let sequential =
            with_width(1, || exact_pnr(&graph, &incremental_options())).expect("feasible");
        let parallel =
            with_width(4, || exact_pnr(&graph, &incremental_options())).expect("feasible");
        assert_same_semantics(&format!("{name} (hex)"), &sequential, &parallel, |l| {
            l.render_ascii()
        });
        // Tiny circuits can solve every probe by pure propagation, in
        // which case there are no learned clauses to retain; but a
        // multi-probe scan that did hit conflicts must show reuse.
        if name == "par_check" {
            assert!(
                sequential.reuse.warm_probes > 0,
                "{name}: incremental mode actually ran warm probes"
            );
        }

        let sequential = with_width(1, || cartesian_exact_pnr(&graph, &incremental_options()))
            .expect("feasible");
        let parallel = with_width(4, || cartesian_exact_pnr(&graph, &incremental_options()))
            .expect("feasible");
        assert_same_semantics(
            &format!("{name} (cartesian)"),
            &sequential,
            &parallel,
            |l| l.render_ascii(),
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
