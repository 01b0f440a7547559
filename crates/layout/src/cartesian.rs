//! The Cartesian gate-level layout baseline.
//!
//! Established QCA design automation places plus-shaped gates on Cartesian
//! grids. The paper's Figure 3a illustrates why Y-shaped SiDB gates do
//! *not* fit that topology; this module provides the Cartesian substrate
//! so the comparison experiment can quantify the difference (a Y-shaped
//! gate occupying a Cartesian tile can only expose one southern output
//! port, forcing longer detours and more crossings).
//!
//! The layout is the shared [`GateLayout`] over [`CartCoord`], with the
//! same design rules as the hexagonal one (all four borders carry
//! signals); this module adds the Cartesian ASCII rendering.

use crate::gate_layout::GateLayout;
use fcn_coords::CartCoord;

/// A clocked Cartesian gate-level layout.
///
/// # Examples
///
/// ```
/// use fcn_coords::{AspectRatio, CartCoord, CartDirection};
/// use fcn_layout::cartesian::CartGateLayout;
/// use fcn_layout::clocking::ClockingScheme;
/// use fcn_layout::tile::TileContents;
///
/// let mut layout = CartGateLayout::new(AspectRatio::new(3, 3), ClockingScheme::TwoDdWave);
/// layout.place(
///     CartCoord::new(0, 0),
///     TileContents::wire(CartDirection::North, CartDirection::South),
/// );
/// assert_eq!(layout.clock_zone(CartCoord::new(1, 2)), 3);
/// ```
pub type CartGateLayout = GateLayout<CartCoord>;

impl CartGateLayout {
    /// ASCII rendering, one grid row per line.
    pub fn render_ascii(&self) -> String {
        (0..self.ratio().height as i32)
            .map(|y| self.render_row(y) + "\n")
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocking::ClockingScheme;
    use crate::tile::TileContents;
    use fcn_coords::{AspectRatio, CartDirection as C};
    use fcn_logic::GateKind;

    #[test]
    fn straight_wire_passes_drc_under_2ddwave() {
        let mut l = CartGateLayout::new(AspectRatio::new(1, 3), ClockingScheme::TwoDdWave);
        l.place(
            CartCoord::new(0, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![C::South], Some("a".into())),
        );
        l.place(CartCoord::new(0, 1), TileContents::wire(C::North, C::South));
        l.place(
            CartCoord::new(0, 2),
            TileContents::gate(GateKind::Po, vec![C::North], vec![], Some("f".into())),
        );
        let v = l.verify();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn crossing_passes_drc_when_fully_connected() {
        // A plus-shaped crossing: two wires crossing at the center tile.
        let mut l = CartGateLayout::new(AspectRatio::new(3, 3), ClockingScheme::TwoDdWave);
        let c = CartCoord::new(1, 1);
        l.place(
            CartCoord::new(1, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![C::South], Some("a".into())),
        );
        l.place(
            CartCoord::new(0, 1),
            TileContents::gate(GateKind::Pi, vec![], vec![C::East], Some("b".into())),
        );
        l.place(
            c,
            TileContents::Wire {
                segments: vec![(C::North, C::South), (C::West, C::East)],
            },
        );
        l.place(
            CartCoord::new(1, 2),
            TileContents::gate(GateKind::Po, vec![C::North], vec![], Some("f".into())),
        );
        l.place(
            CartCoord::new(2, 1),
            TileContents::gate(GateKind::Po, vec![C::West], vec![], Some("g".into())),
        );
        let v = l.verify();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn render_ascii_shows_grid() {
        let mut l = CartGateLayout::new(AspectRatio::new(2, 1), ClockingScheme::TwoDdWave);
        l.place(
            CartCoord::new(0, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![C::East], Some("a".into())),
        );
        let s = l.render_ascii();
        assert!(s.contains("PI:a"));
        assert!(s.contains('·'));
    }
}
