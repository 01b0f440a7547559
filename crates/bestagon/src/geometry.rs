//! The Bestagon tile frame and BDL chain builders.
//!
//! # Tile frame
//!
//! A tile occupies a 60-lattice-cell-wide, 23-dimer-row region of the
//! H-Si(100)-2×1 surface (constants from [`fcn_coords::siqad`]); odd tile
//! rows are shifted right by half a tile. Signals cross tile borders at
//! the midpoints between tile centers, which puts the four ports at fixed
//! local positions:
//!
//! ```text
//!       NW (x=15)        NE (x=45)        row 1  (input pairs)
//!            \             /
//!             logic canvas
//!            /             \
//!       SW (x=15)        SE (x=45)        row 22 (output pairs)
//! ```
//!
//! # Signal encoding
//!
//! Every BDL pair is *horizontal*: dots at `(c−1, y)` and `(c+1, y)`
//! (7.68 Å apart). Stacked pairs anti-align, pairs along a row copy.
//! Conventions (all consequences of the anti-aligning border link):
//!
//! * an **input port pair** reads logical 1 when its electron sits on the
//!   **right** dot;
//! * an **output port pair** encodes logical 1 with its electron on the
//!   **left** dot — the downstream tile's input pair anti-aligns across
//!   the border and reads 1 on its right dot;
//! * a chain therefore needs an **odd** number of anti-links between its
//!   input and output pairs to act as a wire, and an **even** number to
//!   act as an inverter.

use fcn_coords::LatticeCoord;
use sidb_sim::bdl::{BdlPair, InputPort, OutputPort};
use sidb_sim::layout::SidbLayout;
use sidb_sim::operational::GateDesign;

/// A geometric inconsistency in a BDL pair or gate design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// A dot that a pair or port refers to is absent from the layout.
    MissingDot {
        /// The absent dot.
        dot: LatticeCoord,
    },
    /// A port pair whose 0-dot and 1-dot coincide cannot encode a bit.
    DegeneratePair {
        /// The coinciding dot.
        dot: LatticeCoord,
    },
}

impl core::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GeometryError::MissingDot { dot } => {
                write!(f, "dot {dot} is not part of the layout")
            }
            GeometryError::DegeneratePair { dot } => {
                write!(f, "degenerate port pair: 0-dot and 1-dot coincide at {dot}")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// Validates that every port pair of a gate design is non-degenerate and
/// fully contained in the design's body.
///
/// # Errors
///
/// [`GeometryError::DegeneratePair`] when a port's 0-dot and 1-dot
/// coincide, [`GeometryError::MissingDot`] when a port dot is absent
/// from the body layout.
pub(crate) fn check_port_geometry(design: &GateDesign) -> Result<(), GeometryError> {
    let pairs = design
        .inputs
        .iter()
        .map(|p| p.pair)
        .chain(design.outputs.iter().map(|p| p.pair));
    for pair in pairs {
        if pair.zero_dot == pair.one_dot {
            return Err(GeometryError::DegeneratePair { dot: pair.zero_dot });
        }
        for dot in pair.dots() {
            if design.body.index_of(dot).is_none() {
                return Err(GeometryError::MissingDot { dot });
            }
        }
    }
    Ok(())
}

/// Tile width in lattice cells.
pub(crate) const TILE_WIDTH: i32 = 60;

/// Tile vertical pitch in dimer rows.
pub(crate) const TILE_PITCH_ROWS: i32 = 23;

/// Local x of the western ports (NW input, SW output).
pub const WEST_PORT_X: i32 = 15;

/// Local x of the eastern ports (NE input, SE output).
pub const EAST_PORT_X: i32 = 45;

/// Row of the input port pairs.
pub(crate) const INPUT_ROW: i32 = 1;

/// Row of the output port pairs.
pub const OUTPUT_ROW: i32 = 22;

/// Half the dot separation of a BDL pair, in cells.
pub(crate) const PAIR_HALF_WIDTH: i32 = 1;

/// Row of the phantom upstream pair used for input perturbers. The
/// perturber sits one half lattice cell above the upstream tile's output
/// pair position (row −2, sub-lattice 1), which continues the column's
/// uniform pitch — the placement systematic simulation validated.
pub(crate) const PERTURBER_ROW: i32 = -2;

/// Sub-lattice index of the input perturbers.
pub(crate) const PERTURBER_B: u8 = 1;

/// Row of the output perturber (laterally centered below the border,
/// emulating the downstream wire's presence without bias).
pub(crate) const OUTPUT_PERTURBER_ROW: i32 = 25;

/// A horizontal BDL pair centered at `(cx, y)`.
pub(crate) fn pair_dots(cx: i32, y: i32) -> [LatticeCoord; 2] {
    [
        LatticeCoord::new(cx - PAIR_HALF_WIDTH, y, 0),
        LatticeCoord::new(cx + PAIR_HALF_WIDTH, y, 0),
    ]
}

/// Adds a horizontal pair to a layout.
pub(crate) fn add_pair(layout: &mut SidbLayout, cx: i32, y: i32) {
    for d in pair_dots(cx, y) {
        layout.add_site(d);
    }
}

/// The [`BdlPair`] at `(cx, y)` with logical 1 on the **right** dot
/// (input-port convention).
pub(crate) fn input_pair(cx: i32, y: i32) -> BdlPair {
    let [left, right] = pair_dots(cx, y);
    BdlPair::new(left, right)
}

/// The [`BdlPair`] at `(cx, y)` with logical 1 on the **left** dot
/// (output-port convention).
pub(crate) fn output_pair(cx: i32, y: i32) -> BdlPair {
    let [left, right] = pair_dots(cx, y);
    BdlPair::new(right, left)
}

/// The standard input port at column `port_x`: pair at
/// `(port_x, INPUT_ROW)` plus the two perturber positions of the phantom
/// upstream pair. The upstream output pair encodes 1 on its left dot, so
/// the logic-1 perturber is the left phantom dot.
pub fn standard_input_port(port_x: i32) -> InputPort {
    InputPort {
        pair: input_pair(port_x, INPUT_ROW),
        perturber_zero: LatticeCoord::new(port_x + PAIR_HALF_WIDTH, PERTURBER_ROW, PERTURBER_B),
        perturber_one: LatticeCoord::new(port_x - PAIR_HALF_WIDTH, PERTURBER_ROW, PERTURBER_B),
    }
}

/// The standard output port at column `port_x`: pair at
/// `(port_x, OUTPUT_ROW)` plus a centered perturber below the border
/// emulating the downstream wire's presence without lateral bias.
pub fn standard_output_port(port_x: i32) -> OutputPort {
    OutputPort {
        pair: output_pair(port_x, OUTPUT_ROW),
        perturber: Some(LatticeCoord::new(port_x, OUTPUT_PERTURBER_ROW, 0)),
    }
}

/// A vertical anti-aligning column of pairs at fixed `cx`, one per row in
/// `rows`.
pub fn column(layout: &mut SidbLayout, cx: i32, rows: &[i32]) {
    for &y in rows {
        add_pair(layout, cx, y);
    }
}

/// A horizontal copying run of pairs at fixed row `y`, one per center in
/// `centers`.
pub(crate) fn run(layout: &mut SidbLayout, y: i32, centers: &[i32]) {
    for &cx in centers {
        add_pair(layout, cx, y);
    }
}

/// The standard rows of a wire column spanning the tile from the input
/// port to the output port: a uniform three-dimer-row pitch. Eight pairs
/// give seven anti-links (odd = wire semantics) and keep the column
/// comfortably inside the population-stability window — the combination
/// systematic simulation selected (denser pitches sit at the edge of
/// emptying a pair, sparser ones lose anti-alignment margin).
pub(crate) const WIRE_ROWS: [i32; 8] = [1, 4, 7, 10, 13, 16, 19, OUTPUT_ROW];

/// Rows of a nine-pair (inverting) column: eight anti-links (even) flip
/// the signal.
pub(crate) const INVERTER_ROWS: [i32; 9] = [1, 4, 7, 10, 12, 15, 17, 20, OUTPUT_ROW];

/// The physical parameters used for library-tile validation: the paper's
/// Figure 5 setup plus a 2 meV interaction cutoff that decomposes
/// far-apart chains into independent clusters for the exact engine (see
/// [`sidb_sim::model::PhysicalParams::interaction_cutoff_ev`]).
pub fn validation_params() -> sidb_sim::model::PhysicalParams {
    sidb_sim::model::PhysicalParams::default().with_cutoff(2e-3)
}

/// A horizontal copying run with *balancer* dots: single static SiDBs
/// placed beyond both run ends (at the lateral distance of the next
/// would-be pair) so that every run pair sees laterally balanced static
/// repulsion. Without them the outermost run pairs are pinned by the
/// one-sided push of their single lateral neighbor and stop propagating
/// the signal. Published SiDB gate designs use the same trick.
pub fn balanced_run(layout: &mut SidbLayout, y: i32, centers: &[i32]) {
    run(layout, y, centers);
    if let (Some(&first), Some(&last)) = (centers.first(), centers.last()) {
        let dir = if last >= first { 1 } else { -1 };
        layout.add_site((first - dir * 7, y, 0));
        layout.add_site((last + dir * 7, y, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidb_sim::charge::{ChargeConfiguration, ChargeState};
    use sidb_sim::engine::{simulate_with, SimEngine, SimParams};
    use sidb_sim::model::PhysicalParams;

    /// The logic state of the horizontal pair centered at `(cx, y)`:
    /// the electron on the right dot reads 1.
    fn pair_state(layout: &SidbLayout, config: &ChargeConfiguration, cx: i32, y: i32) -> bool {
        let negative = |dot| {
            let i = layout.index_of(dot).expect("pair dot in layout");
            config.state(i) == ChargeState::Negative
        };
        let [left, right] = pair_dots(cx, y);
        match (negative(left), negative(right)) {
            (true, false) => false,
            (false, true) => true,
            _ => panic!("ambiguous charge read-out for the pair at ({cx}, {y})"),
        }
    }

    fn ground_state(layout: &SidbLayout) -> Option<ChargeConfiguration> {
        simulate_with(
            layout,
            &SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact),
        )
        .states
        .pop()
        .map(|s| s.config)
    }

    #[test]
    fn pair_dots_are_7_68_angstrom_apart() {
        let [a, b] = pair_dots(30, 5);
        assert!((a.distance_angstrom(b) - 7.68).abs() < 1e-9);
    }

    #[test]
    fn port_conventions_are_mirrored() {
        let ip = input_pair(30, 1);
        let op = output_pair(30, 20);
        assert_eq!(ip.one_dot.x, 31);
        assert_eq!(op.one_dot.x, 29);
    }

    #[test]
    fn standard_input_port_perturbers() {
        let port = standard_input_port(WEST_PORT_X);
        assert_eq!(port.perturber_one.x, WEST_PORT_X - 1);
        assert_eq!(port.perturber_zero.x, WEST_PORT_X + 1);
        assert_eq!(port.perturber_one.y, PERTURBER_ROW);
    }

    #[test]
    fn wire_rows_span_the_tile() {
        assert_eq!(WIRE_ROWS[0], INPUT_ROW);
        assert_eq!(*WIRE_ROWS.last().expect("non-empty"), OUTPUT_ROW);
        // The border link to the next tile's input row closes the chain.
        assert_eq!(INPUT_ROW + TILE_PITCH_ROWS - OUTPUT_ROW, 2);
    }

    /// The fundamental physics the library is built on: a stacked column
    /// of horizontal pairs anti-aligns at every link.
    #[test]
    fn columns_anti_align() {
        let mut layout = SidbLayout::new();
        column(&mut layout, 30, &WIRE_ROWS);
        // Force the first pair with a perturber on the left.
        layout.add_site((29, PERTURBER_ROW, 0));
        let gs = ground_state(&layout).expect("non-empty");
        let mut last = None;
        for &y in &WIRE_ROWS {
            let state = pair_state(&layout, &gs, 30, y);
            if let Some(prev) = last {
                assert_ne!(prev, state, "pairs at adjacent rows must anti-align");
            }
            last = Some(state);
        }
    }

    /// And pairs along a row copy.
    #[test]
    fn runs_copy() {
        let mut layout = SidbLayout::new();
        run(&mut layout, 9, &[15, 23, 31, 39]);
        // A perturber left of the run pushes the first electron right.
        layout.add_site((8, 9, 0));
        let gs = ground_state(&layout).expect("non-empty");
        let mut states = Vec::new();
        for cx in [15, 23, 31, 39] {
            states.push(pair_state(&layout, &gs, cx, 9));
        }
        assert!(
            states.windows(2).all(|w| w[0] == w[1]),
            "run must copy: {states:?}"
        );
    }

    #[test]
    fn check_port_geometry_accepts_standard_ports() {
        let mut body = SidbLayout::new();
        add_pair(&mut body, WEST_PORT_X, INPUT_ROW);
        add_pair(&mut body, WEST_PORT_X, OUTPUT_ROW);
        let design = GateDesign {
            name: "wire".into(),
            body,
            inputs: vec![standard_input_port(WEST_PORT_X)],
            outputs: vec![standard_output_port(WEST_PORT_X)],
            truth_table: vec![vec![false], vec![true]],
        };
        assert_eq!(check_port_geometry(&design), Ok(()));
    }

    #[test]
    fn check_port_geometry_reports_degenerate_and_missing() {
        let mut body = SidbLayout::new();
        add_pair(&mut body, WEST_PORT_X, INPUT_ROW);
        let dot = LatticeCoord::new(WEST_PORT_X, INPUT_ROW, 0);
        let degenerate = GateDesign {
            name: "bad".into(),
            body: body.clone(),
            inputs: vec![InputPort {
                pair: BdlPair::new(dot, dot),
                perturber_zero: dot,
                perturber_one: dot,
            }],
            outputs: vec![],
            truth_table: vec![],
        };
        assert_eq!(
            check_port_geometry(&degenerate),
            Err(GeometryError::DegeneratePair { dot })
        );

        let missing = GateDesign {
            name: "bad".into(),
            body,
            inputs: vec![],
            outputs: vec![standard_output_port(WEST_PORT_X)],
            truth_table: vec![],
        };
        let [left, _] = pair_dots(WEST_PORT_X, OUTPUT_ROW);
        // The output-port pair is reversed (one_dot on the left), so the
        // first dot checked is the zero dot on the right… both absent;
        // assert on whichever the walk reports.
        match check_port_geometry(&missing) {
            Err(GeometryError::MissingDot { dot }) => {
                assert_eq!(dot.y, OUTPUT_ROW);
                assert!((dot.x - left.x).abs() <= 2 * PAIR_HALF_WIDTH);
            }
            other => panic!("expected MissingDot, got {other:?}"),
        }
    }
}
