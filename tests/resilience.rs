//! End-to-end resilience tests: budget-driven graceful degradation,
//! panic isolation at every stage boundary, and deterministic fault
//! injection covering each failure class — panic, budget exhaustion,
//! interrupt, and malformed intermediate data.
//!
//! Every test sets its [`FlowBudget`] explicitly so the suite is immune
//! to `FLOW_*` environment variables the CI matrix may have exported.

use std::sync::Arc;

use bestagon_core::benchmark;
use bestagon_core::flow::{
    Deadline, DegradeTrigger, FlowBudget, FlowError, FlowOptions, FlowRequest, FlowResult,
    PnrMethod,
};
use fcn_budget::exec::with_width;
use fcn_budget::fault::{install, Fault, FaultPlan};
use fcn_equiv::{EquivError, Equivalence, MiterLimit};
use fcn_logic::network::Xag;

const AND2: &str = "module and2 (a, b, f); input a, b; output f; assign f = a & b; endmodule";

fn unbounded() -> FlowOptions {
    FlowOptions::new().with_budget(FlowBudget::unbounded())
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

/// The acceptance scenario: a deliberately tiny deadline on a Table 1
/// circuit returns `Ok` with a heuristic layout and a populated
/// degradation record — never a panic or a bare error.
#[test]
fn tiny_deadline_degrades_to_heuristic_with_record() {
    let b = benchmark("par_gen");
    let options = FlowOptions::new()
        .with_budget(FlowBudget::unbounded().with_deadline(Deadline::after_ms(0)));
    let r = run("par_gen", &b.xag, &options).expect("a budgeted flow degrades, never errors");
    assert!(!r.exact, "expired deadline must force the heuristic engine");
    assert!(r.degraded());
    assert!(r
        .degradations
        .iter()
        .any(|d| d.stage == "step4:pnr" && d.trigger == DegradeTrigger::Deadline));
    // Verification ran bounded and reported its ignorance explicitly.
    assert!(matches!(r.equivalence, Some(Equivalence::Unknown { .. })));
    assert!(r
        .degradations
        .iter()
        .any(|d| d.stage == "step5:equiv" && d.trigger == DegradeTrigger::Deadline));
    // The degraded artifact is still a real, DRC-clean layout.
    assert!(r.layout.verify().is_empty());
    assert!(r.cell.expect("library applied").num_sidbs() > 0);
    // And the report records the events for fleet monitoring.
    assert!(r.report.root.counters.contains_key("flow.degraded"));
}

/// A bounded-but-unexhausted run takes the exact path and produces the
/// exact same artifact as an unbounded one.
#[test]
fn loose_budget_is_byte_identical_to_unbounded() {
    let b = benchmark("xor2");
    let free = run("xor2", &b.xag, &unbounded()).expect("flow");
    let loose = run(
        "xor2",
        &b.xag,
        &FlowOptions::new().with_budget(
            FlowBudget::unbounded()
                .with_deadline(Deadline::after_ms(600_000))
                .with_sat_conflicts_per_probe(u64::MAX)
                .with_sat_conflicts_total(u64::MAX)
                .with_equiv_conflicts(u64::MAX),
        ),
    )
    .expect("flow");
    assert!(free.exact && loose.exact);
    assert!(free.degradations.is_empty() && loose.degradations.is_empty());
    assert_eq!(free.equivalence, Some(Equivalence::Equivalent));
    // `Unknown` is only reachable when a limit actually fires, so the
    // loose bounded verdict is the same concluded one.
    assert_eq!(loose.equivalence, Some(Equivalence::Equivalent));
    assert_eq!(free.to_sqd(), loose.to_sqd());
    assert_eq!(free.to_verilog(), loose.to_verilog());
}

/// An injected panic at any of the eight stage boundaries surfaces as
/// `FlowError::Internal` naming that stage — never an unwind.
#[test]
fn stage_panics_become_typed_internal_errors() {
    for stage in [
        "step1:parse",
        "step2:rewrite",
        "step3:techmap",
        "step4:pnr",
        "step5:equiv",
        "step6:supertiles",
        "step7:apply",
        "step8:export",
    ] {
        let _scope = install(Arc::new(FaultPlan::single(stage, Fault::Panic)));
        match run_verilog(AND2, &unbounded()) {
            Err(FlowError::Internal { stage: s, payload }) => {
                assert_eq!(s, stage);
                assert!(
                    payload.contains(stage),
                    "payload `{payload}` names the point"
                );
            }
            other => panic!("{stage}: expected Internal, got {other:?}"),
        }
    }
}

/// A panic inside a portfolio worker is caught by the scheduler,
/// siblings are cancelled, and the flow reports it typed — at any
/// thread count.
#[test]
fn worker_panic_is_typed_and_cancels_siblings() {
    for threads in [1, 4] {
        let b = benchmark("xor2");
        let _scope = install(Arc::new(FaultPlan::single("pnr.probe", Fault::Panic)));
        match with_width(threads, || run("xor2", &b.xag, &unbounded())) {
            Err(FlowError::Internal { stage, payload }) => {
                assert_eq!(stage, "step4:pnr");
                assert!(payload.contains("pnr.probe"), "payload: {payload}");
            }
            other => panic!("threads={threads}: expected Internal, got {other:?}"),
        }
    }
}

/// Exhausting the cumulative SAT conflict budget ends the scan and
/// triggers the documented fallback to the heuristic engine.
#[test]
fn conflict_budget_exhaustion_falls_back_to_heuristic() {
    let b = benchmark("xor2");
    let options =
        FlowOptions::new().with_budget(FlowBudget::unbounded().with_sat_conflicts_total(0));
    let r = run("xor2", &b.xag, &options).expect("budget exhaustion degrades");
    assert!(!r.exact);
    assert!(r
        .degradations
        .iter()
        .any(|d| d.stage == "step4:pnr" && d.trigger == DegradeTrigger::Budget));
    // No equivalence budget was set, so verification still concludes.
    assert_eq!(r.equivalence, Some(Equivalence::Equivalent));
}

/// An injected budget-exhaustion fault at the probe gate takes the same
/// documented path as a genuinely exhausted meter.
#[test]
fn injected_probe_exhaust_falls_back_to_heuristic() {
    let b = benchmark("xor2");
    let _scope = install(Arc::new(FaultPlan::single("pnr.probe", Fault::Exhaust)));
    let r = run("xor2", &b.xag, &unbounded()).expect("injected exhaustion degrades");
    assert!(!r.exact);
    assert!(r
        .degradations
        .iter()
        .any(|d| d.stage == "step4:pnr" && d.trigger == DegradeTrigger::Budget));
}

/// An injected interrupt at the probe gate discards probes (cooperative
/// cancellation); the scan then concludes without those ratios and the
/// fallback ladder still yields a layout.
#[test]
fn injected_probe_interrupt_still_yields_a_layout() {
    let b = benchmark("xor2");
    let _scope = install(Arc::new(FaultPlan::single("pnr.probe", Fault::Interrupt)));
    let r = run("xor2", &b.xag, &unbounded()).expect("interrupts never fail the flow");
    assert!(
        !r.exact,
        "every probe cancelled, so the heuristic engine produced the layout"
    );
    assert!(r.layout.verify().is_empty());
    assert_eq!(r.equivalence, Some(Equivalence::Equivalent));
}

/// An exhausted equivalence-miter budget downgrades verification to an
/// explicit `Unknown` verdict instead of failing or hanging.
#[test]
fn injected_miter_exhaust_downgrades_verification() {
    let b = benchmark("xor2");
    let _scope = install(Arc::new(FaultPlan::single("equiv.miter", Fault::Exhaust)));
    let options =
        FlowOptions::new().with_budget(FlowBudget::unbounded().with_equiv_conflicts(1_000_000));
    let r = run("xor2", &b.xag, &options).expect("bounded verification degrades");
    assert!(r.exact, "the P&R stage was not budgeted");
    assert_eq!(
        r.equivalence,
        Some(Equivalence::Unknown {
            limit: MiterLimit::Conflicts
        })
    );
    assert!(r
        .degradations
        .iter()
        .any(|d| d.stage == "step5:equiv" && d.trigger == DegradeTrigger::Budget));
}

/// An injected interrupt during a deadline-bounded miter solve reports
/// the deadline limit on the `Unknown` verdict.
#[test]
fn injected_miter_interrupt_reports_deadline_unknown() {
    let b = benchmark("xor2");
    let _scope = install(Arc::new(FaultPlan::single("equiv.miter", Fault::Interrupt)));
    let options = FlowOptions::new()
        .with_budget(FlowBudget::unbounded().with_deadline(Deadline::after_ms(600_000)));
    let r = run("xor2", &b.xag, &options).expect("bounded verification degrades");
    assert_eq!(
        r.equivalence,
        Some(Equivalence::Unknown {
            limit: MiterLimit::Deadline
        })
    );
    assert!(r
        .degradations
        .iter()
        .any(|d| d.stage == "step5:equiv" && d.trigger == DegradeTrigger::Deadline));
}

/// Malformed intermediate data handed to the verifier is detected and
/// reported as a typed error — never a panic or an out-of-bounds crash.
#[test]
fn injected_malformed_network_is_a_typed_error() {
    let b = benchmark("xor2");
    let _scope = install(Arc::new(FaultPlan::single("step5:equiv", Fault::Malform)));
    match run("xor2", &b.xag, &unbounded()) {
        Err(FlowError::Equivalence(EquivError::MalformedNetwork(msg))) => {
            assert!(!msg.is_empty());
        }
        other => panic!("expected MalformedNetwork, got {other:?}"),
    }
}

/// The rewrite-iteration budget clamps step 2 and records what it gave
/// up; the result still verifies.
#[test]
fn rewrite_iteration_budget_clamps_step2() {
    let b = benchmark("xor5_majority");
    // Heuristic P&R: without rewriting the network is large, and this
    // test is about step 2, not about exact placement of the raw XAG.
    let options = FlowOptions::new()
        .with_pnr(PnrMethod::Heuristic)
        .with_budget(FlowBudget::unbounded().with_rewrite_iterations(0));
    let r = run("xor5_majority", &b.xag, &options).expect("flow");
    assert!(r
        .degradations
        .iter()
        .any(|d| d.stage == "step2:rewrite" && d.trigger == DegradeTrigger::Budget));
    assert_eq!(r.equivalence, Some(Equivalence::Equivalent));
}

/// An injected panic in the simulation worker pool leaves empty result
/// slots that the coordinator recomputes serially — the spectrum is
/// bit-identical to a clean run and the recovery is counted.
#[test]
fn injected_sim_partition_panic_recovers_bit_identically() {
    use bestagon_lib::tiles::huff_style_or;
    with_width(4, || {
        // The dense domain sweep partitions its grid points, and each
        // point's full check its 2^k input patterns, across the pool;
        // every unit is hit by the injected panic and recomputed by the
        // coordinator.
        let design = huff_style_or();
        let params = dense_sweep_params();
        let clean = design.operational_domain(&params);
        assert_eq!(clean.stats.sim.recovered, 0);

        let plan = Arc::new(FaultPlan::single("sidb.partition", Fault::Panic));
        let scope = install(plan.clone());
        let faulted = design.operational_domain(&params);
        drop(scope);
        assert!(plan.hits("sidb.partition") > 0, "fault point was reached");
        assert!(
            faulted.stats.sim.recovered > 0,
            "recomputed units are counted"
        );
        assert_eq!(clean.samples, faulted.samples, "recovery is bit-identical");
        assert_eq!(clean.stats.sim.visited, faulted.stats.sim.visited);
    })
}

/// A dense 2×2 operational-domain sweep: the one caller that still
/// partitions a gate's input patterns across the pool.
fn dense_sweep_params() -> sidb_sim::opdomain::DomainParams {
    use sidb_sim::opdomain::{DomainGrid, DomainParams, DomainStrategy};
    use sidb_sim::{PhysicalParams, SimEngine, SimParams};
    DomainParams::new(SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact))
        .with_grid(DomainGrid {
            steps: 2,
            ..Default::default()
        })
        .with_strategy(DomainStrategy::Dense)
}

/// An injected exhaustion at the partition point stops parallel dispatch
/// and the coordinator finishes serially — same results, degraded speed.
#[test]
fn injected_sim_partition_exhaust_serializes_without_changing_results() {
    use bestagon_lib::tiles::huff_style_or;
    with_width(4, || {
        let design = huff_style_or();
        let params = dense_sweep_params();
        let clean = design.operational_domain(&params);

        let plan = Arc::new(FaultPlan::single("sidb.partition", Fault::Exhaust));
        let scope = install(plan.clone());
        let faulted = design.operational_domain(&params);
        drop(scope);
        assert!(plan.hits("sidb.partition") > 0);
        assert_eq!(clean.samples, faulted.samples, "verdict is fault-invariant");
    })
}

/// A poisoned simulation cache behaves as absent: every access misses,
/// nothing is stored, and the verdict is still correct — a broken cache
/// costs time, never correctness.
#[test]
fn injected_cache_fault_degrades_to_recompute() {
    use bestagon_lib::tiles::wire_nw_sw;
    use sidb_sim::{PhysicalParams, SimCache, SimEngine, SimParams};
    let design = wire_nw_sw();
    let params = SimParams::new(PhysicalParams::default())
        .with_engine(SimEngine::QuickExact)
        .with_cache(SimCache::new());

    let plan = Arc::new(FaultPlan::single("sidb.cache", Fault::Panic));
    let scope = install(plan.clone());
    let first = design.check_operational_with(&params);
    let second = design.check_operational_with(&params);
    drop(scope);
    assert!(plan.hits("sidb.cache") > 0, "fault point was reached");
    assert!(first.is_operational() && second.is_operational());
    assert_eq!(second.stats.cache_hits, 0, "poisoned cache never hits");
    assert!(second.stats.visited > 0, "revalidation recomputed");

    // With the fault cleared the same cache object works again.
    let third = design.check_operational_with(&params);
    let fourth = design.check_operational_with(&params);
    assert!(third.stats.cache_misses > 0);
    assert!(fourth.stats.cache_hits > 0);
    assert_eq!(fourth.stats.visited, 0);
}

/// A broken verdict table behaves as absent: step 7 simulates every
/// design xor2 uses and reaches the table's verdicts, names and counts.
#[test]
fn injected_verdict_table_fault_simulates_the_same_verdicts() {
    use bestagon_lib::apply::used_designs;
    use bestagon_lib::tiles::BestagonLibrary;
    use bestagon_lib::verdicts::{lookup, nominal_sim};

    let b = benchmark("xor2");
    let options = unbounded()
        .with_pnr(PnrMethod::Heuristic)
        .with_tile_validation();
    let table = run("xor2", &b.xag, &options).expect("flow");
    let plan = Arc::new(FaultPlan::single("bestagon.verdicts", Fault::Panic));
    let scope = install(plan.clone());
    let simulated = run("xor2", &b.xag, &options).expect("a broken table is not an error");
    drop(scope);
    assert!(
        plan.hits("bestagon.verdicts") > 0,
        "fault point was reached"
    );

    let step7 = |r: &FlowResult| r.report.root.child("step7:apply").cloned().expect("step 7");
    let (a, s) = (step7(&table), step7(&simulated));
    for key in ["tiles.validated", "tiles.failing", "tiles.unknown"] {
        assert_eq!(a.counters.get(key), s.counters.get(key), "{key}");
    }
    assert_eq!(a.notes, s.notes);
    assert_eq!(
        a.counters.get("tiles.from_table"),
        a.counters.get("tiles.validated")
    );
    assert_eq!(s.counters.get("tiles.from_table"), Some(&0));
    assert!(s.counters.get("sidb.visited").copied().unwrap_or(0) > 0);

    // Design by design: the row's verdict and node count are what the
    // simulation gives.
    let designs = used_designs(&table.layout, &BestagonLibrary::new()).expect("designs");
    assert!(designs.len() >= 3, "xor2 uses wires, a fan-out and XOR");
    for design in &designs {
        let row = lookup(design, &nominal_sim()).expect("a library design");
        let report = design.check_operational_with(&nominal_sim());
        assert_eq!(row.verdict.status(), report.status, "{}", design.name);
        assert_eq!(row.visited, report.stats.visited, "{}", design.name);
    }
}

/// Heuristic-only flows ignore the SAT probe budgets entirely.
#[test]
fn heuristic_flow_is_unaffected_by_probe_budgets() {
    let b = benchmark("xor2");
    let options = FlowOptions::new()
        .with_pnr(PnrMethod::Heuristic)
        .with_budget(FlowBudget::unbounded().with_sat_conflicts_total(0));
    let r = run("xor2", &b.xag, &options).expect("flow");
    assert!(!r.exact);
    assert!(
        r.degradations.is_empty(),
        "no exact engine ran, so nothing degraded: {:?}",
        r.degradations
    );
}

/// A broken wire skeleton for the designer resilience cases: a column
/// with a hole at rows 14–18, cheap to simulate.
fn broken_wire_skeleton() -> sidb_sim::operational::GateDesign {
    use bestagon_lib::geometry::{column, standard_input_port, standard_output_port, WEST_PORT_X};
    let mut body = sidb_sim::layout::SidbLayout::new();
    column(&mut body, WEST_PORT_X, &[1, 4, 7, 10, 13, 19, 22]);
    sidb_sim::operational::GateDesign {
        name: "WIRE (broken)".into(),
        body,
        inputs: vec![standard_input_port(WEST_PORT_X)],
        outputs: vec![standard_output_port(WEST_PORT_X)],
        truth_table: vec![vec![false], vec![true]],
    }
}

/// A `FLOW_DEADLINE_MS`-scale budget makes the designer return its
/// best-so-far with an honest degradation record instead of hanging.
#[test]
fn designer_degrades_under_flow_scale_deadline() {
    use bestagon_lib::designer::{design_canvas, DesignTrigger, DesignerOptions};
    use fcn_budget::StepBudget;
    let base = broken_wire_skeleton();
    // The region is pinned away from the wire column, so no repair
    // exists and only the deadline can end the search.
    let options = DesignerOptions::new()
        .with_region((40, 3, 44, 8))
        .with_iterations(10_000)
        .with_restarts(64)
        .with_budget(StepBudget::unbounded().with_deadline(Deadline::after_ms(25)));
    let result = design_canvas(&base, &options, &sidb_sim::PhysicalParams::default());
    let degradation = result.degradation.as_ref().expect("degradation recorded");
    assert_eq!(degradation.trigger, DesignTrigger::Deadline);
    assert!(result.stats.restarts_completed < 64, "search was cut short");
}

/// An injected panic at the `designer.restart` point loses every
/// worker-side restart; the coordinator recomputes them from their
/// seeds, so the repaired design is identical to the clean run's.
#[test]
fn injected_designer_restart_panic_recovers_identically() {
    use bestagon_lib::designer::{design_canvas, DesignerOptions};
    with_width(2, || {
        let base = broken_wire_skeleton();
        let options = DesignerOptions::new()
            .with_region((13, 14, 17, 18))
            .with_max_dots(3)
            .with_iterations(30)
            .with_restarts(3)
            .with_seed(7);
        let params = sidb_sim::PhysicalParams::default();
        let clean = design_canvas(&base, &options, &params);
        assert_eq!(clean.stats.recovered, 0);

        let plan = Arc::new(FaultPlan::single("designer.restart", Fault::Panic));
        let scope = install(plan.clone());
        let faulted = design_canvas(&base, &options, &params);
        drop(scope);
        assert!(plan.hits("designer.restart") > 0, "fault point was reached");
        assert!(faulted.stats.recovered > 0, "recomputed restarts counted");
        assert_eq!(clean.canvas, faulted.canvas, "recovery is deterministic");
        assert_eq!(clean.score, faulted.score);
    })
}

/// An injected exhaustion at the `designer.restart` point halts restart
/// dispatch: the search degrades with a fault-trigger record instead of
/// erroring, and still returns a (possibly unimproved) design.
#[test]
fn injected_designer_restart_exhaust_degrades() {
    use bestagon_lib::designer::{design_canvas, DesignTrigger, DesignerOptions};
    with_width(2, || {
        let base = broken_wire_skeleton();
        let options = DesignerOptions::new()
            .with_region((13, 14, 17, 18))
            .with_iterations(30)
            .with_restarts(4);
        let plan = Arc::new(FaultPlan::single("designer.restart", Fault::Exhaust));
        let scope = install(plan.clone());
        let result = design_canvas(&base, &options, &sidb_sim::PhysicalParams::default());
        drop(scope);
        assert!(plan.hits("designer.restart") > 0);
        let degradation = result.degradation.as_ref().expect("degradation recorded");
        assert_eq!(degradation.trigger, DesignTrigger::Fault);
        assert_eq!(result.stats.recovered, 0, "exhausted restarts do not run");
    })
}

/// A surface whose defects compromise every candidate tile makes the
/// circuit unplaceable defect-aware. The flow records the documented
/// defect-avoidance ladder (grown area bound, then a defect-blind
/// placement) as degradations and still returns a layout — never an
/// error or a panic.
#[test]
fn unplaceable_surface_degrades_honestly() {
    use sidb_sim::{Defect, DefectKind, DefectMap};
    let b = benchmark("xor2");
    // One charged vacancy at the center of every tile of the (doubled)
    // scan region: every tile is compromised at any ratio the scan or
    // its defect-avoidance retry can reach.
    let mut defects = Vec::new();
    for ty in 0..12 {
        for tx in 0..12 {
            let (ox, oy) = fcn_coords::siqad::hex_tile_origin(tx, ty);
            defects.push(Defect {
                position: fcn_coords::LatticeCoord::new(ox + 30, oy + 11, 0),
                kind: DefectKind::ChargedVacancy,
            });
        }
    }
    let options = unbounded()
        .with_pnr(PnrMethod::Exact { max_area: 6 })
        .with_surface(DefectMap::new(defects));
    let r = run("xor2", &b.xag, &options).expect("an unplaceable surface degrades");
    assert!(
        r.exact,
        "the defect-blind retry still uses the exact engine"
    );
    let avoidance: Vec<_> = r
        .degradations
        .iter()
        .filter(|d| d.stage == "step4:pnr" && d.trigger == DegradeTrigger::DefectAvoidance)
        .collect();
    assert_eq!(avoidance.len(), 2, "grow + defect-blind: {avoidance:?}");
    assert!(avoidance[1].action.contains("defect-blind"));
    assert!(r.layout.verify().is_empty());
    // Step 7 reports the exposure of the defect-blind placement.
    let apply = r.report.root.child("step7:apply").expect("apply stage");
    assert!(*apply.counters.get("defects.compromised").unwrap_or(&0) > 0);
}

/// An injected exhaustion at the `surface.defect` fault point saturates
/// the blacklist — the unplaceable-surface edge without building a
/// dense map — and takes the same documented degradation ladder.
#[test]
fn injected_surface_exhaust_degrades_like_unplaceable() {
    use sidb_sim::{DefectKind, DefectMap};
    let b = benchmark("xor2");
    let _scope = install(Arc::new(FaultPlan::single(
        "surface.defect",
        Fault::Exhaust,
    )));
    let options = unbounded()
        .with_pnr(PnrMethod::ExactWithFallback { max_area: 6 })
        .with_surface(DefectMap::random(3, 1e-5, &DefectKind::ALL));
    let r = run("xor2", &b.xag, &options).expect("degrades, never errors");
    assert!(r
        .degradations
        .iter()
        .any(|d| d.stage == "step4:pnr" && d.trigger == DegradeTrigger::DefectAvoidance));
    assert!(r.layout.verify().is_empty());
}

/// An injected corruption of the surface description surfaces as the
/// typed `FlowError::Surface` spec error — never a panic.
#[test]
fn injected_surface_malform_is_a_typed_error() {
    use sidb_sim::{DefectKind, DefectMap};
    let b = benchmark("xor2");
    let _scope = install(Arc::new(FaultPlan::single(
        "surface.defect",
        Fault::Malform,
    )));
    let options = unbounded().with_surface(DefectMap::random(3, 1e-5, &DefectKind::ALL));
    match run("xor2", &b.xag, &options) {
        Err(FlowError::Surface(e)) => assert!(!e.to_string().is_empty()),
        other => panic!("expected FlowError::Surface, got {other:?}"),
    }
}

/// An injected panic at the surface fault point is caught at the stage
/// boundary like any other: a typed internal error naming step 4.
#[test]
fn injected_surface_panic_is_a_typed_internal_error() {
    use sidb_sim::{DefectKind, DefectMap};
    let b = benchmark("xor2");
    let _scope = install(Arc::new(FaultPlan::single("surface.defect", Fault::Panic)));
    let options = unbounded().with_surface(DefectMap::random(3, 1e-5, &DefectKind::ALL));
    match run("xor2", &b.xag, &options) {
        Err(FlowError::Internal { stage, payload }) => {
            assert_eq!(stage, "step4:pnr");
            assert!(payload.contains("surface.defect"), "payload: {payload}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
}

/// Without a configured surface the `surface.defect` fault point is
/// never consulted: a pristine flow cannot be perturbed by it.
#[test]
fn surface_fault_point_is_inert_without_a_surface() {
    let b = benchmark("xor2");
    let plan = Arc::new(FaultPlan::single("surface.defect", Fault::Panic));
    let _scope = install(plan.clone());
    let r = run("xor2", &b.xag, &unbounded()).expect("pristine flow unaffected");
    assert_eq!(plan.hits("surface.defect"), 0, "point never reached");
    assert!(r.degradations.is_empty());
}

/// A domain sweep under an already-expired deadline returns every grid
/// point as `Unknown` with an honest deadline degradation — the caller
/// can see that nothing was decided, instead of reading a map of
/// false `NonOperational` verdicts.
#[test]
fn opdomain_deadline_degrades_honestly() {
    use sidb_sim::opdomain::{DomainGrid, DomainParams, DomainTrigger, SampleStatus};
    use sidb_sim::{PhysicalParams, SimEngine, SimParams};
    let design = bestagon_lib::tiles::wire_nw_sw();
    let params = DomainParams::new(
        SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact),
    )
    .with_grid(DomainGrid {
        steps: 3,
        ..Default::default()
    })
    .with_budget(fcn_budget::StepBudget::unbounded().with_deadline(Deadline::after_ms(0)));
    let domain = design.operational_domain(&params);
    let degradation = domain.degradation.as_ref().expect("degradation recorded");
    assert_eq!(degradation.trigger, DomainTrigger::Deadline);
    assert!(domain
        .samples
        .iter()
        .all(|s| s.status == SampleStatus::Unknown));
    assert_eq!(domain.stats.simulated, 0);
    assert_eq!(domain.nominal_operational(), None, "unknown, not `false`");
    assert_eq!(domain.coverage(), 0.0);
}

/// An injected panic at every `opdomain.point` hit loses each worker's
/// verdict; the coordinator recomputes all of them and the resulting
/// domain is bit-identical to the fault-free run.
#[test]
fn injected_opdomain_point_panic_recovers_identically() {
    use sidb_sim::opdomain::{DomainGrid, DomainParams, DomainStrategy};
    use sidb_sim::{PhysicalParams, SimEngine, SimParams};
    with_width(4, || {
        let design = bestagon_lib::tiles::wire_nw_sw();
        let params = DomainParams::new(
            SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact),
        )
        .with_grid(DomainGrid {
            steps: 3,
            ..Default::default()
        })
        .with_strategy(DomainStrategy::Adaptive);
        let clean = design.operational_domain(&params);
        assert_eq!(clean.stats.sim.recovered, 0);

        let plan = Arc::new(FaultPlan::single("opdomain.point", Fault::Panic));
        let scope = install(plan.clone());
        let faulted = design.operational_domain(&params);
        drop(scope);
        assert!(plan.hits("opdomain.point") > 0, "fault point was reached");
        assert!(faulted.stats.sim.recovered > 0, "recomputes are counted");
        assert_eq!(clean.samples, faulted.samples, "recovery is bit-identical");
        assert!(
            faulted.degradation.is_none(),
            "full recovery, no degradation"
        );
    })
}

/// An injected exhaustion at one `opdomain.point` hit skips exactly
/// that grid point: the sample is reported `Unknown`/`Skipped` and the
/// sweep records a fault degradation instead of guessing a verdict.
#[test]
fn injected_opdomain_point_exhaust_skips_honestly() {
    use sidb_sim::opdomain::{
        DomainGrid, DomainParams, DomainStrategy, DomainTrigger, Provenance, SampleStatus,
    };
    use sidb_sim::{PhysicalParams, SimEngine, SimParams};
    with_width(1, || {
        let design = bestagon_lib::tiles::wire_nw_sw();
        let params = DomainParams::new(
            SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact),
        )
        .with_grid(DomainGrid {
            steps: 3,
            ..Default::default()
        })
        .with_strategy(DomainStrategy::Adaptive);
        let plan = Arc::new(FaultPlan::new().with_rule("opdomain.point", Fault::Exhaust, Some(2)));
        let scope = install(plan.clone());
        let domain = design.operational_domain(&params);
        drop(scope);
        assert!(plan.hits("opdomain.point") > 1, "fault point was reached");
        let degradation = domain.degradation.as_ref().expect("degradation recorded");
        assert_eq!(degradation.trigger, DomainTrigger::Fault);
        let skipped: Vec<_> = domain
            .samples
            .iter()
            .filter(|s| s.provenance == Provenance::Skipped)
            .collect();
        assert_eq!(skipped.len(), 1, "exactly the faulted point is skipped");
        assert_eq!(skipped[0].status, SampleStatus::Unknown);
        assert_eq!(domain.stats.skipped, 1);
    })
}

/// A deadline that expires while step 7 validates tiles cuts the running
/// simulation instead of letting it finish: the flow returns promptly,
/// reports a step-7 deadline degradation (so no result cache mistakes
/// the cut verdicts for complete ones), and never lists a design the
/// deadline cut short as failing.
#[test]
fn deadline_during_tile_validation_cuts_the_simulation() {
    use bestagon_lib::apply::used_designs;
    use bestagon_lib::tiles::BestagonLibrary;
    use bestagon_lib::verdicts::nominal_sim;
    use sidb_sim::operational::OperationalStatus;
    use std::time::{Duration, Instant};

    // The nominal verdict table answers step 7 at once; with it absent,
    // step 7 simulates, which is the path a deadline must cut.
    let _scope = install(Arc::new(FaultPlan::single(
        "bestagon.verdicts",
        Fault::Exhaust,
    )));
    let b = benchmark("mux21");
    let started = Instant::now();
    run("mux21", &b.xag, &unbounded()).expect("flow");
    let steps_1_to_6 = started.elapsed();
    // mux21 places a CROSS tile, whose validation runs for seconds (to
    // the default step cap), so a deadline a little after step 6
    // expires during step 7.
    for slack_ms in [300, 1_000, 4_000] {
        let window = steps_1_to_6 * 3 + Duration::from_millis(slack_ms);
        let options = FlowOptions::new()
            .with_tile_validation()
            .with_budget(FlowBudget::unbounded().with_deadline(Deadline::after(window)));
        let started = Instant::now();
        let r = run("mux21", &b.xag, &options).expect("a deadline degrades, never errors");
        let elapsed = started.elapsed();
        let step7_deadline: Vec<&str> = r
            .degradations
            .iter()
            .filter(|d| d.stage == "step7:apply" && d.trigger == DegradeTrigger::Deadline)
            .map(|d| d.action.as_str())
            .collect();
        if step7_deadline.contains(&"skipped physical tile validation") {
            // A loaded machine outlasted the window before step 7.
            continue;
        }
        let apply = r.report.root.child("step7:apply").expect("apply stage");
        let names = |key: &str| -> Vec<String> {
            apply
                .notes
                .get(key)
                .map(|s| s.split(", ").map(str::to_owned).collect())
                .unwrap_or_default()
        };
        // Step 7 of mux21 runs for seconds (CROSS alone reaches the
        // step cap, so `tiles.unknown` proves nothing here): only the
        // deadline can leave this degradation.
        assert!(
            step7_deadline.contains(&"cut tile validation short"),
            "the deadline cut step 7 without a trace: {:?}",
            r.degradations
        );
        assert!(
            elapsed < window + Duration::from_secs(5),
            "the flow ran {elapsed:?} against a {window:?} deadline"
        );
        // Every design reported failing read wrong under a complete
        // simulation, so a validation without a deadline agrees.
        let designs = used_designs(&r.layout, &BestagonLibrary::new()).expect("designs");
        let sim = nominal_sim();
        for name in names("tiles.failing") {
            let named: Vec<_> = designs.iter().filter(|d| d.name == name).collect();
            assert!(!named.is_empty(), "{name} is a used design");
            for design in named {
                assert!(
                    matches!(
                        design.check_operational_with(&sim).status,
                        OperationalStatus::NonOperational { .. }
                    ),
                    "{name} was reported failing"
                );
            }
        }
        return;
    }
    panic!("steps 1-6 never finished inside the deadline window");
}
