//! CI smoke leg for the automated gate designer: a short seeded search
//! on the broken diagonal-wire tile (the pre-repair `wire_nw_se`
//! geometry, without its designer-found canvas dot) must improve the
//! score — and must do so deterministically: the resulting design is
//! byte-identical at any `THREADS` width.

use bestagon_lib::designer::{design_canvas, DesignerOptions};
use bestagon_lib::geometry::{
    balanced_run, column, standard_input_port, standard_output_port, EAST_PORT_X, OUTPUT_ROW,
    WEST_PORT_X,
};
use fcn_budget::exec::with_width;
use sidb_sim::layout::SidbLayout;
use sidb_sim::operational::GateDesign;
use sidb_sim::PhysicalParams;

/// The diagonal wire as it was before the designer repaired it: the
/// run-to-column turn loses the signal under the default parameters.
fn broken_diagonal_wire() -> GateDesign {
    let mut body = SidbLayout::new();
    column(&mut body, WEST_PORT_X, &[1, 4, 7, 10]);
    balanced_run(&mut body, 10, &[WEST_PORT_X, 23, 31, 38, EAST_PORT_X]);
    column(&mut body, EAST_PORT_X, &[13, 16, 19, OUTPUT_ROW]);
    GateDesign {
        name: "WIRE (NW→SE, unrepaired)".into(),
        body,
        inputs: vec![standard_input_port(WEST_PORT_X)],
        outputs: vec![standard_output_port(EAST_PORT_X)],
        truth_table: vec![vec![false], vec![true]],
    }
}

fn smoke_options() -> DesignerOptions {
    DesignerOptions::new()
        .with_region((18, 6, 42, 20))
        .with_max_dots(2)
        .with_iterations(60)
        .with_restarts(4)
        .with_seed(1)
}

#[test]
fn short_seeded_search_improves_the_broken_diagonal_wire() {
    let base = broken_diagonal_wire();
    let params = PhysicalParams::default();
    // Runs at the ambient THREADS width (the CI matrix varies it), so
    // the improvement itself is part of the determinism check.
    let result = design_canvas(&base, &smoke_options(), &params);
    assert!(
        result.score.correct == result.target,
        "short search repairs the diagonal wire: {}/{}",
        result.score.correct,
        result.target
    );
    assert!(!result.canvas.is_empty(), "repair places canvas dots");
}

#[test]
fn smoke_search_is_byte_identical_across_thread_widths() {
    let base = broken_diagonal_wire();
    let params = PhysicalParams::default();
    let one = with_width(1, || design_canvas(&base, &smoke_options(), &params));
    let four = with_width(4, || design_canvas(&base, &smoke_options(), &params));
    assert_eq!(one.canvas, four.canvas);
    assert_eq!(one.score, four.score);
    assert_eq!(one.design.body, four.design.body);
}
