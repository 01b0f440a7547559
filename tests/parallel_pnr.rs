//! The parallel aspect-ratio portfolio must be a pure wall-clock
//! optimization: every observable of [`fcn_pnr::exact_pnr`] — the chosen
//! ratio, the probe log, the minimality verdict, the cumulative solver
//! statistics — is identical at any executor width.

use std::sync::Arc;

use bestagon_core::benchmarks::benchmark;
use fcn_budget::exec::with_width;
use fcn_logic::techmap::{map_xag, MapOptions};
use fcn_pnr::{exact_pnr, ExactOptions, NetGraph};
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

/// Satellite: determinism across thread counts. The sequential engine is
/// the reference semantics; the portfolio must reproduce it bit-for-bit.
#[test]
fn portfolio_is_deterministic_across_thread_counts() {
    for name in ["xor2", "par_check", "c17"] {
        let graph = graph_for(name);
        let sequential = with_width(1, || exact_pnr(&graph, &options())).expect("feasible");
        let parallel = with_width(4, || exact_pnr(&graph, &options())).expect("feasible");

        assert_eq!(sequential.ratio, parallel.ratio, "{name}: chosen ratio");
        assert_eq!(
            sequential.ratio.tile_count(),
            parallel.ratio.tile_count(),
            "{name}: minimal area"
        );
        assert_eq!(
            sequential.is_provably_minimal(),
            parallel.is_provably_minimal(),
            "{name}: minimality verdict"
        );
        assert_eq!(
            sequential.ratios_tried, parallel.ratios_tried,
            "{name}: ratios tried"
        );
        let probe_log = |r: &fcn_pnr::PnrOutcome<fcn_layout::hexagonal::HexGateLayout>| -> Vec<_> {
            r.probes.iter().map(|p| (p.ratio, p.verdict)).collect()
        };
        assert_eq!(
            probe_log(&sequential),
            probe_log(&parallel),
            "{name}: probe sequence"
        );
        // Work counters only: `solve_time` is wall clock, which no
        // schedule can reproduce.
        assert_eq!(
            sequential.stats.without_time(),
            parallel.stats.without_time(),
            "{name}: cumulative solver statistics"
        );
    }
}

/// The incremental engine keeps per-worker solver state, so raw conflict
/// counts legitimately vary with the thread count — but every *semantic*
/// observable (the chosen layout, the probe verdicts, the minimality
/// claim) must still be thread-count invariant.
#[test]
fn incremental_portfolio_agrees_on_semantic_observables() {
    for name in ["xor2", "par_check"] {
        let graph = graph_for(name);
        let sequential =
            with_width(1, || exact_pnr(&graph, &incremental_options())).expect("feasible");
        let parallel =
            with_width(4, || exact_pnr(&graph, &incremental_options())).expect("feasible");

        assert_eq!(sequential.ratio, parallel.ratio, "{name}: chosen ratio");
        assert_eq!(
            sequential.layout.render_ascii(),
            parallel.layout.render_ascii(),
            "{name}: layout"
        );
        assert_eq!(
            sequential.is_provably_minimal(),
            parallel.is_provably_minimal(),
            "{name}: minimality verdict"
        );
        assert_eq!(
            sequential.ratios_tried, parallel.ratios_tried,
            "{name}: ratios tried"
        );
        let verdicts = |r: &fcn_pnr::PnrOutcome<fcn_layout::hexagonal::HexGateLayout>| -> Vec<_> {
            r.probes.iter().map(|p| (p.ratio, p.verdict)).collect()
        };
        assert_eq!(
            verdicts(&sequential),
            verdicts(&parallel),
            "{name}: probe verdicts"
        );
        // Tiny circuits can solve every probe by pure propagation, in
        // which case there are no learned clauses to retain; but a
        // multi-probe scan that did hit conflicts must show reuse.
        if name == "par_check" {
            assert!(
                sequential.reuse.warm_probes > 0,
                "{name}: incremental mode actually ran warm probes"
            );
        }
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
