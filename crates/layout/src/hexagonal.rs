//! The hexagonal gate-level layout proposed by the paper.
//!
//! Tiles are pointy-top hexagons in odd-row offset coordinates
//! ([`fcn_coords::HexCoord`]). In a row-clocked layout, information enters a
//! tile from its two northern neighbors and leaves towards its two
//! southern neighbors — the orientation in which the Y-shaped SiDB gates
//! of the Bestagon library fit natively (paper Figure 3b).
//!
//! The layout is the shared [`GateLayout`] over [`HexCoord`]; this module
//! adds the hexagonal ASCII rendering.

use crate::gate_layout::{GateLayout, ASCII_CELL};
use fcn_coords::HexCoord;

/// A clocked hexagonal gate-level layout.
///
/// # Examples
///
/// ```
/// use fcn_coords::{AspectRatio, HexCoord, HexDirection};
/// use fcn_layout::clocking::ClockingScheme;
/// use fcn_layout::hexagonal::HexGateLayout;
/// use fcn_layout::tile::TileContents;
/// use fcn_logic::GateKind;
///
/// let mut layout = HexGateLayout::new(AspectRatio::new(2, 2), ClockingScheme::Row);
/// layout.place(
///     HexCoord::new(0, 0),
///     TileContents::gate(GateKind::Pi, vec![], vec![HexDirection::SouthEast], Some("a".into())),
/// );
/// assert_eq!(layout.occupied_tiles().count(), 1);
/// ```
pub type HexGateLayout = GateLayout<HexCoord>;

impl HexGateLayout {
    /// ASCII rendering of the layout, one row of hexagons per line; odd
    /// rows are indented to mirror the geometric half-tile shift, and
    /// each line ends with the row's clock zone.
    pub fn render_ascii(&self) -> String {
        (0..self.ratio().height as i32)
            .map(|y| {
                let indent = if y % 2 == 1 { ASCII_CELL / 2 } else { 0 };
                format!(
                    "{}{}   ⟨zone {}⟩\n",
                    " ".repeat(indent),
                    self.render_row(y),
                    self.scheme().zone(0, y)
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocking::ClockingScheme;
    use crate::tile::TileContents;
    use fcn_coords::{AspectRatio, HexDirection as H};
    use fcn_logic::GateKind;

    /// A minimal clean layout: PI → wire → PO along SE/SW diagonals.
    fn straight_wire_layout() -> HexGateLayout {
        let mut l = HexGateLayout::new(AspectRatio::new(2, 3), ClockingScheme::Row);
        // (1,0) even row: SW -> (0,1). (0,1) odd row: SE -> (1,2).
        l.place(
            HexCoord::new(1, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![H::SouthWest], Some("a".into())),
        );
        l.place(
            HexCoord::new(0, 1),
            TileContents::wire(H::NorthEast, H::SouthEast),
        );
        l.place(
            HexCoord::new(1, 2),
            TileContents::gate(GateKind::Po, vec![H::NorthWest], vec![], Some("f".into())),
        );
        l
    }

    #[test]
    fn clean_layout_passes_drc() {
        let l = straight_wire_layout();
        let v = l.verify();
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn east_west_ports_are_rejected() {
        let mut l = HexGateLayout::new(AspectRatio::new(2, 2), ClockingScheme::Row);
        l.place(HexCoord::new(0, 0), TileContents::wire(H::West, H::East));
        let v = l.verify();
        assert!(v.iter().any(|d| d.message.contains("east/west")));
    }

    #[test]
    fn ascii_rendering_shows_labels_and_zones() {
        let l = straight_wire_layout();
        let s = l.render_ascii();
        assert!(s.contains("PI:a"));
        assert!(s.contains("WIRE"));
        assert!(s.contains("PO:f"));
        assert!(s.contains("⟨zone 0⟩"));
        assert!(s.contains("⟨zone 2⟩"));
        assert_eq!(
            s,
            "    ·      PI:a      ⟨zone 0⟩\n      WIRE       ·       ⟨zone 1⟩\n    ·      PO:f      ⟨zone 2⟩\n"
        );
    }
}
