//! A/B validation of the incremental exact P&R engine: with
//! learned-clause reuse across aspect-ratio probes enabled, the flow must
//! produce **byte-identical** layouts, SiQAD exports, and equivalence
//! verdicts to the from-scratch engine — at one and at four portfolio
//! threads. The incremental solve is a warm pre-check whose winner is
//! re-derived on a fresh solver, so any divergence here is a soundness
//! bug, not a tuning difference.

use bestagon_core::benchmarks::benchmark;
use bestagon_core::flow::{FlowOptions, FlowRequest, FlowResult, PnrMethod};
use fcn_budget::exec::with_width;

/// The Table 1 evaluation circuits, minus the three slowest
/// (`t_5`, `majority_5_r1`, `newtag`) which take minutes under a debug
/// build; the release-mode `examples/table1.rs` run covers those.
const CIRCUITS: &[&str] = &[
    "xor2",
    "xnor2",
    "par_gen",
    "mux21",
    "par_check",
    "xor5_r1",
    "xor5_majority",
    "t",
    "c17",
    "majority",
    "cm82a_5",
];

fn flow(name: &str, incremental: bool, threads: usize) -> FlowResult {
    let b = benchmark(name);
    let options = FlowOptions::new()
        .with_pnr(PnrMethod::ExactWithFallback { max_area: 120 })
        .with_incremental(incremental);
    with_width(threads, || {
        FlowRequest::netlist(name, b.xag.clone())
            .with_options(options)
            .execute()
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn incremental_flow_is_byte_identical_to_scratch() {
    for name in CIRCUITS {
        let reference = flow(name, false, 1);
        assert!(reference.exact, "{name}: exact within the area bound");
        for threads in [1, 4] {
            let warm = flow(name, true, threads);
            assert_eq!(
                reference.layout.render_ascii(),
                warm.layout.render_ascii(),
                "{name} @ {threads} threads: layout bytes"
            );
            assert_eq!(
                reference.to_sqd(),
                warm.to_sqd(),
                "{name} @ {threads} threads: SiQAD export bytes"
            );
            assert_eq!(
                reference.equivalence, warm.equivalence,
                "{name} @ {threads} threads: equivalence verdict"
            );
            assert_eq!(
                reference.exact, warm.exact,
                "{name} @ {threads} threads: exact-engine flag"
            );
        }
    }
}

/// The warm engine must actually be warm: its flow report carries the
/// per-probe reuse counters that `BENCH_table1.json` aggregates.
#[test]
fn incremental_flow_reports_reuse_telemetry() {
    let warm = flow("par_check", true, 1);
    let pnr = warm.report.root.child("step4:pnr").expect("pnr stage");
    assert_eq!(pnr.notes.get("engine").map(String::as_str), Some("exact"));
    let warm_probes = pnr.counters.get("pnr.warm_probes").copied().unwrap_or(0);
    assert!(
        warm_probes > 0,
        "no warm probes recorded: {:?}",
        pnr.counters
    );
    assert!(
        pnr.counters.contains_key("pnr.learned_retained"),
        "{:?}",
        pnr.counters
    );

    let cold = flow("par_check", false, 1);
    let cold_pnr = cold.report.root.child("step4:pnr").expect("pnr stage");
    assert!(
        !cold_pnr.counters.contains_key("pnr.warm_probes"),
        "from-scratch mode must not claim reuse: {:?}",
        cold_pnr.counters
    );
}
