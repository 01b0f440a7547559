//! End-to-end integration tests: Verilog specification → verified,
//! dot-accurate SiDB layout, across the whole crate stack.

use bestagon_core::benchmarks::benchmark;
use bestagon_core::flow::{FlowError, FlowOptions, FlowRequest, FlowResult, PnrMethod};
use fcn_equiv::Equivalence;
use fcn_logic::network::Xag;

fn default_options(pnr: PnrMethod) -> FlowOptions {
    FlowOptions::new().with_pnr(pnr)
}

fn run(name: &str, xag: &Xag, options: &FlowOptions) -> Result<FlowResult, FlowError> {
    FlowRequest::netlist(name, xag.clone())
        .with_options(options.clone())
        .execute()
}

fn run_verilog(source: &str, options: &FlowOptions) -> Result<FlowResult, FlowError> {
    FlowRequest::verilog(source)
        .with_options(options.clone())
        .execute()
}

#[test]
fn xor2_flow_matches_paper_dimensions() {
    let b = benchmark("xor2");
    let r = run(
        "xor2",
        &b.xag,
        &default_options(PnrMethod::Exact { max_area: 60 }),
    )
    .expect("flow succeeds");
    // Paper Table 1: 2 × 3 tiles.
    assert_eq!((r.layout.ratio().width, r.layout.ratio().height), (2, 3));
    assert!(r.layout.verify().is_empty());
    assert_eq!(r.equivalence, Some(Equivalence::Equivalent));
    let cell = r.cell.expect("library applied");
    assert!((cell.area_nm2 - 2403.98).abs() < 0.01, "{}", cell.area_nm2);
    assert!(cell.num_sidbs() > 0);
}

#[test]
fn all_small_benchmarks_flow_exactly() {
    for name in ["xor2", "xnor2", "par_gen", "majority"] {
        let b = benchmark(name);
        let r = run(
            name,
            &b.xag,
            &default_options(PnrMethod::Exact { max_area: 100 }),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(r.exact, "{name}");
        assert!(r.layout.verify().is_empty(), "{name}");
        assert_eq!(r.equivalence, Some(Equivalence::Equivalent), "{name}");
        assert!(r.supertiles.is_fabricable(), "{name}");
    }
}

#[test]
fn heuristic_flow_covers_every_benchmark() {
    for name in bestagon_core::benchmarks::benchmark_names() {
        let b = benchmark(name);
        let r = run(name, &b.xag, &default_options(PnrMethod::Heuristic))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(r.layout.verify().is_empty(), "{name}");
        assert_eq!(r.equivalence, Some(Equivalence::Equivalent), "{name}");
        let cell = r.cell.expect("library applied");
        assert!(cell.num_sidbs() > 0, "{name}");
    }
}

#[test]
fn sqd_export_contains_all_dots() {
    let b = benchmark("xor2");
    let r = run("xor2", &b.xag, &default_options(PnrMethod::Heuristic)).expect("flow");
    let cell = r.cell.as_ref().expect("library applied");
    let sqd = r.to_sqd().expect("export");
    assert_eq!(sqd.matches("<dbdot>").count(), cell.num_sidbs());
}

#[test]
fn verilog_to_layout_round_trip() {
    let src = "
        module voter (a, b, c, f);
          input a, b, c;
          output f;
          assign f = (a & b) | (a & c) | (b & c);
        endmodule";
    let r = run_verilog(
        src,
        &default_options(PnrMethod::ExactWithFallback { max_area: 100 }),
    )
    .expect("flow");
    assert_eq!(r.name, "voter");
    assert_eq!(r.equivalence, Some(Equivalence::Equivalent));
}

#[test]
fn broken_specifications_are_rejected() {
    let err = run_verilog(
        "module t (a, f); input a; output f; assign f = a & ghost; endmodule",
        &FlowOptions::default(),
    )
    .expect_err("undefined signal");
    assert!(format!("{err}").contains("ghost"));
}

#[test]
fn cartesian_baseline_layouts_are_equivalent_too() {
    use fcn_budget::Deadline;
    use fcn_equiv::{check_equivalence_extracted_bounded, extract_network};
    use fcn_logic::techmap::{map_xag, MapOptions};
    use fcn_pnr::{cartesian_exact_pnr, ExactOptions, NetGraph};

    for name in ["xor2", "par_gen"] {
        let b = benchmark(name);
        let net = map_xag(&b.xag, MapOptions::default()).expect("mappable");
        let graph = NetGraph::new(net).expect("placeable");
        let result = cartesian_exact_pnr(&graph, &ExactOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(result.layout.verify().is_empty(), "{name}");
        let extracted = extract_network(&result.layout).expect("extractable");
        assert_eq!(
            check_equivalence_extracted_bounded(&b.xag, &extracted, None, Deadline::unbounded())
                .expect("checkable"),
            fcn_equiv::Equivalence::Equivalent,
            "{name}"
        );
    }
}

#[test]
fn flow_exports_consistent_verilog() {
    // The optimized network the flow exports must be functionally
    // identical to the original specification.
    let b = benchmark("par_gen");
    let r = run("par_gen", &b.xag, &default_options(PnrMethod::Heuristic)).expect("flow");
    let exported = r.to_verilog();
    let (_, reparsed) =
        fcn_logic::verilog::parse_verilog(&exported).unwrap_or_else(|e| panic!("{e}\n{exported}"));
    for row in 0..8u32 {
        let inputs: Vec<bool> = (0..3).map(|i| (row >> i) & 1 == 1).collect();
        assert_eq!(
            b.xag.simulate(&inputs),
            reparsed.simulate(&inputs),
            "row {row}"
        );
    }
}

#[test]
fn svg_renderings_cover_the_layout() {
    let b = benchmark("xor2");
    let r = run("xor2", &b.xag, &default_options(PnrMethod::Heuristic)).expect("flow");
    let cell = r.cell.as_ref().expect("library applied");
    let tiles_svg = bestagon_lib::svg::layout_to_svg(&r.layout);
    let dots_svg = bestagon_lib::svg::sidb_to_svg(&cell.sidb, Some(&r.layout));
    assert_eq!(
        tiles_svg.matches("<polygon").count() as u64,
        r.layout.ratio().tile_count()
    );
    assert_eq!(dots_svg.matches("<circle").count(), cell.num_sidbs());
}

#[test]
fn blif_entry_point_matches_verilog() {
    let blif = ".model xor2\n.inputs a b\n.outputs f\n.names a b f\n10 1\n01 1\n.end\n";
    let r = FlowRequest::blif(blif)
        .with_options(default_options(PnrMethod::Exact { max_area: 60 }))
        .execute()
        .expect("flow");
    assert_eq!(r.name, "xor2");
    assert_eq!((r.layout.ratio().width, r.layout.ratio().height), (2, 3));
}

/// majority_5_r1, prepared as the Table 1 flow prepares it and scanned
/// with the table's area bound and the default per-ratio budget, ends at
/// 5 × 16 with every smaller ratio decided: 5 × 15 is proven UNSAT, so
/// the layout is proven area-minimal rather than budget-bounded.
#[test]
fn majority_5_r1_is_proven_area_minimal() {
    use fcn_logic::rewrite::rewrite;
    use fcn_logic::techmap::map_xag;
    use fcn_pnr::{exact_pnr, ExactOptions, NetGraph, ProbeVerdict};

    let flow = FlowOptions::new();
    let xag = benchmark("majority_5_r1").xag;
    let optimized = rewrite(&xag, flow.rewrite.expect("rewriting is on by default"));
    let mapped = map_xag(&optimized, flow.map).expect("mappable");
    let graph = NetGraph::new(mapped).expect("placeable");
    let options = ExactOptions {
        max_area: 120,
        ..ExactOptions::default()
    };
    let outcome = exact_pnr(&graph, &options).expect("fits within the Table 1 bound");
    assert_eq!((outcome.ratio.width, outcome.ratio.height), (5, 16));
    let verdict_5x15 = outcome
        .probes
        .iter()
        .find(|p| (p.ratio.width, p.ratio.height) == (5, 15))
        .map(|p| p.verdict);
    assert_eq!(verdict_5x15, Some(ProbeVerdict::Unsat));
    assert!(outcome.is_provably_minimal());
}
