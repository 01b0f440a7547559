//! Exact placement & routing on the Cartesian baseline floor plan.
//!
//! The comparison substrate for the paper's Figure 3: QCA-style design
//! automation places plus-shaped gates on Cartesian grids under 2DDWave
//! clocking (zone `(x+y) mod 4`, information flowing east and south).
//! This module supplies only the 2DDWave topology; the scan, the SAT
//! encoding and the model extraction are the hexagonal engine's, shared
//! through [`crate::exact`]. The two floor plans are therefore compared
//! by one engine with the same optimality guarantees.
//!
//! Note what this baseline *cannot* model: the experimentally
//! demonstrated SiDB gates are Y-shaped and need two upper-border input
//! ports, which a Cartesian tile does not offer (it has a single northern
//! border). The Cartesian numbers therefore describe hypothetical
//! plus-shaped gates — the paper's point is precisely that such gates do
//! not exist on the SiDB platform.

use crate::exact::{scan, ExactOptions, PnrError, PnrOutcome, Tile, Topology};
use crate::netgraph::NetGraph;
use fcn_coords::{AspectRatio, CartCoord, CartDirection};
use fcn_layout::cartesian::CartGateLayout;
use fcn_layout::clocking::ClockingScheme;
use fcn_logic::GateKind;

/// Runs exact placement & routing on a Cartesian 2DDWave floor plan.
///
/// PIs enter along the top/left borders and POs leave along the
/// bottom/right borders; every edge advances one anti-diagonal per clock
/// phase, as 2DDWave requires.
///
/// # Errors
///
/// Returns [`PnrError::NoFeasibleRatio`] when the area bound is
/// exhausted.
///
/// # Examples
///
/// ```
/// use fcn_logic::network::Xag;
/// use fcn_logic::techmap::{map_xag, MapOptions};
/// use fcn_pnr::{cartesian_exact_pnr, ExactOptions, NetGraph};
///
/// let mut xag = Xag::new();
/// let a = xag.primary_input("a");
/// let b = xag.primary_input("b");
/// let f = xag.and(a, b);
/// xag.primary_output("f", f);
/// let net = map_xag(&xag, MapOptions::default())?;
/// let graph = NetGraph::new(net)?;
/// let result = cartesian_exact_pnr(&graph, &ExactOptions::default())?;
/// assert!(result.layout.verify().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn cartesian_exact_pnr(
    graph: &NetGraph,
    options: &ExactOptions,
) -> Result<PnrOutcome<CartGateLayout>, PnrError> {
    scan::<TwoDdWave>(graph, options)
}

/// The Cartesian floor plan under 2DDWave clocking: level `d` is the
/// anti-diagonal `x + y = d`, information flows east and south, PIs
/// enter along the top/left borders and POs leave along the
/// bottom/right borders.
pub(crate) struct TwoDdWave;

impl Topology for TwoDdWave {
    type Coord = CartCoord;
    const SCHEME: ClockingScheme = ClockingScheme::TwoDdWave;
    const OUTGOING: [CartDirection; 2] = [CartDirection::East, CartDirection::South];
    /// The west neighbor steps east into a tile, the north neighbor
    /// south.
    const INCOMING: [(CartDirection, usize); 2] =
        [(CartDirection::West, 0), (CartDirection::North, 1)];

    /// The number of anti-diagonals, `w + h − 1`.
    fn depth(ratio: AspectRatio) -> u32 {
        ratio.width + ratio.height - 1
    }

    /// The pads need no full row: they share the borders.
    fn admits(_: &NetGraph, _: AspectRatio) -> bool {
        true
    }

    /// Anti-diagonal `level`, `x` ascending, within the rectangle.
    fn level_tiles(ratio: AspectRatio, level: u32) -> impl Iterator<Item = Tile> {
        let height = ratio.height as i32;
        (0..ratio.width as i32)
            .map(move |x| (x, level as i32 - x))
            .filter(move |&(_, y)| (0..height).contains(&y))
    }

    /// Pads keep their schedule window; the borders restrict them
    /// instead (the first anti-diagonal holds just one tile).
    fn levels(_: GateKind, asap: u32, alap: u32) -> (u32, u32) {
        (asap, alap)
    }

    /// PIs enter along the top/left borders, POs leave along the
    /// bottom/right borders.
    fn pad_admissible(kind: GateKind, (x, y): Tile, ratio: AspectRatio) -> bool {
        match kind {
            GateKind::Pi => x == 0 || y == 0,
            GateKind::Po => x == ratio.width as i32 - 1 || y == ratio.height as i32 - 1,
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbeVerdict;
    use fcn_logic::network::Xag;
    use fcn_logic::techmap::{map_xag, MapOptions};

    fn pnr(xag: &Xag) -> PnrOutcome<CartGateLayout> {
        let net = map_xag(xag, MapOptions::default()).expect("mappable");
        let graph = NetGraph::new(net).expect("legalized");
        cartesian_exact_pnr(&graph, &ExactOptions::default()).expect("feasible")
    }

    #[test]
    fn routes_single_gate_on_2ddwave() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        let v = result.layout.verify();
        assert!(v.is_empty(), "{}\n{v:?}", result.layout.render_ascii());
    }

    #[test]
    fn routes_xor_with_fanouts() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let s = xag.xor(a, b);
        let c = xag.and(a, b);
        xag.primary_output("s", s);
        xag.primary_output("c", c);
        let result = pnr(&xag);
        assert!(result.layout.verify().is_empty());
    }

    #[test]
    fn cartesian_probes_surface_solver_stats() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.or(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        let last = result.probes.last().expect("at least the SAT probe");
        assert_eq!(last.verdict, ProbeVerdict::Sat);
        assert_eq!(last.ratio, result.ratio);
        let summed: u64 = result.probes.iter().map(|p| p.stats.decisions).sum();
        assert_eq!(result.stats.decisions, summed);
    }

    #[test]
    fn pads_sit_on_their_borders() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.or(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        let (w, h) = (result.ratio.width as i32, result.ratio.height as i32);
        for (coord, contents) in result.layout.occupied_tiles() {
            match contents.gate_kind() {
                Some(GateKind::Pi) => assert!(coord.x == 0 || coord.y == 0, "{coord}"),
                Some(GateKind::Po) => {
                    assert!(coord.x == w - 1 || coord.y == h - 1, "{coord}")
                }
                _ => {}
            }
        }
    }
}
