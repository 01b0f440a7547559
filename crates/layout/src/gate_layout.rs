//! The clocked gate-level layout, generic over the floor plan.
//!
//! One type serves both floor plans the paper contrasts: the coordinate
//! type `C` ([`fcn_coords::HexCoord`] or [`fcn_coords::CartCoord`])
//! supplies the tile geometry through [`TileCoord`], and everything else
//! — placement, the counters and the design-rule check — is written once.
//! [`crate::hexagonal::HexGateLayout`] and
//! [`crate::cartesian::CartGateLayout`] name the two instances; each
//! plan module adds only its own ASCII rendering.

use crate::clocking::ClockingScheme;
use crate::tile::{DrcViolation, TileContents};
use fcn_coords::{AspectRatio, TileCoord};
use std::collections::BTreeMap;

/// Width in characters of one tile in an ASCII rendering.
pub(crate) const ASCII_CELL: usize = 9;

/// A clocked gate-level layout on the floor plan of coordinate type `C`.
///
/// # Examples
///
/// ```
/// use fcn_coords::{AspectRatio, CartCoord, CartDirection};
/// use fcn_layout::clocking::ClockingScheme;
/// use fcn_layout::tile::TileContents;
/// use fcn_layout::GateLayout;
///
/// let mut layout: GateLayout<CartCoord> =
///     GateLayout::new(AspectRatio::new(3, 3), ClockingScheme::TwoDdWave);
/// layout.place(
///     CartCoord::new(0, 0),
///     TileContents::wire(CartDirection::North, CartDirection::South),
/// );
/// assert_eq!(layout.occupied_tiles().count(), 1);
/// assert_eq!(layout.clock_zone(CartCoord::new(1, 2)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GateLayout<C: TileCoord> {
    ratio: AspectRatio,
    scheme: ClockingScheme,
    tiles: BTreeMap<C, TileContents<C::Dir>>,
}

impl<C: TileCoord> GateLayout<C> {
    /// Creates an empty layout of the given dimensions and clocking scheme.
    pub fn new(ratio: AspectRatio, scheme: ClockingScheme) -> Self {
        GateLayout {
            ratio,
            scheme,
            tiles: BTreeMap::new(),
        }
    }

    /// The layout dimensions in tiles.
    pub fn ratio(&self) -> AspectRatio {
        self.ratio
    }

    /// The clocking scheme.
    pub(crate) fn scheme(&self) -> ClockingScheme {
        self.scheme
    }

    /// The clock zone driving the given tile.
    pub fn clock_zone(&self, coord: C) -> u8 {
        let (x, y) = coord.xy();
        self.scheme.zone(x, y)
    }

    /// Places contents on a tile, replacing any previous contents.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the layout bounds.
    pub fn place(&mut self, coord: C, contents: TileContents<C::Dir>) {
        assert!(
            self.ratio.contains(coord.xy()),
            "tile {coord} outside layout bounds {}",
            self.ratio
        );
        self.tiles.insert(coord, contents);
    }

    /// The contents of a tile, if occupied.
    pub fn tile(&self, coord: C) -> Option<&TileContents<C::Dir>> {
        self.tiles.get(&coord)
    }

    /// Iterates over all occupied tiles in coordinate order (`x`, then
    /// `y`).
    pub fn occupied_tiles(&self) -> impl Iterator<Item = (C, &TileContents<C::Dir>)> {
        self.tiles.iter().map(|(&c, t)| (c, t))
    }

    /// Number of logic gate tiles.
    pub fn num_logic_tiles(&self) -> usize {
        self.tiles.values().filter(|t| t.is_logic()).count()
    }

    /// Verifies the layout against the design rules:
    ///
    /// * gate arities must match their port counts, and a wire tile holds
    ///   one or two segments,
    /// * no two ports of a tile share a direction, and every port must
    ///   face a border that carries signals (on the hexagonal plan: no
    ///   same-row East/West flow),
    /// * every incoming port must face an adjacent tile with a matching
    ///   outgoing port (and vice versa),
    /// * information flow must respect the clocking scheme.
    ///
    /// Returns all violations (empty = clean).
    pub fn verify(&self) -> Vec<DrcViolation> {
        let mut violations = Vec::new();
        let mut report = |coord: C, message: String| {
            violations.push(DrcViolation {
                tile: coord.xy(),
                message,
            });
        };

        for (&coord, contents) in &self.tiles {
            // Port sanity.
            if let TileContents::Gate {
                kind,
                inputs,
                outputs,
                ..
            } = contents
            {
                if inputs.len() != kind.num_inputs() {
                    report(
                        coord,
                        format!(
                            "{kind} has {} input ports, expected {}",
                            inputs.len(),
                            kind.num_inputs()
                        ),
                    );
                }
                if outputs.len() != kind.num_outputs() {
                    report(
                        coord,
                        format!(
                            "{kind} has {} output ports, expected {}",
                            outputs.len(),
                            kind.num_outputs()
                        ),
                    );
                }
            }
            if let TileContents::Wire { segments } = contents {
                if segments.is_empty() || segments.len() > 2 {
                    report(coord, format!("wire tile with {} segments", segments.len()));
                }
            }
            // Distinct port directions.
            let mut used: Vec<C::Dir> = contents.incoming();
            used.extend(contents.outgoing());
            for (i, d) in used.iter().enumerate() {
                if used[..i].contains(d) {
                    report(coord, format!("direction {d} used by multiple ports"));
                }
                if !C::carries_signal(*d) {
                    report(
                        coord,
                        format!("east/west port {d} cannot carry signals in a row-clocked layout"),
                    );
                }
            }
            // Connectivity and clocking.
            let zone = self.clock_zone(coord);
            for dir in contents.incoming() {
                let n = coord.neighbor(dir);
                match self.tiles.get(&n) {
                    None => report(coord, format!("input port {dir} is unconnected")),
                    Some(other) => {
                        if !other.outgoing().contains(&C::opposite(dir)) {
                            report(
                                coord,
                                format!("input port {dir}: neighbor has no matching output"),
                            );
                        }
                        let nz = self.clock_zone(n);
                        if !self.scheme.allows_flow(nz, zone) {
                            report(
                                coord,
                                format!("clocking violation: zone {nz} does not feed zone {zone}"),
                            );
                        }
                    }
                }
            }
            for dir in contents.outgoing() {
                let n = coord.neighbor(dir);
                if !self.ratio.contains(n.xy()) {
                    report(coord, format!("output port {dir} leaves the layout"));
                    continue;
                }
                match self.tiles.get(&n) {
                    None => report(coord, format!("output port {dir} is unconnected")),
                    Some(other) => {
                        if !other.incoming().contains(&C::opposite(dir)) {
                            report(
                                coord,
                                format!("output port {dir}: neighbor has no matching input"),
                            );
                        }
                    }
                }
            }
        }
        violations
    }

    /// Row `y` as text for the plans' ASCII renderings: each tile's
    /// label (`·` when empty) centred in an [`ASCII_CELL`]-wide cell.
    pub(crate) fn render_row(&self, y: i32) -> String {
        (0..self.ratio.width as i32)
            .map(|x| {
                let label = self
                    .tile((x, y).into())
                    .map(|t| t.label())
                    .unwrap_or_else(|| "·".to_owned());
                let truncated: String = label.chars().take(ASCII_CELL - 1).collect();
                format!("{truncated:^width$}", width = ASCII_CELL)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::cartesian::CartGateLayout;
    use crate::clocking::ClockingScheme;
    use crate::hexagonal::HexGateLayout;
    use crate::tile::{DrcViolation, TileContents};
    use fcn_coords::{AspectRatio, CartCoord, CartDirection as C, HexCoord, HexDirection as H};
    use fcn_logic::GateKind;

    /// Whether any violation's message contains `needle`.
    fn reports(v: &[DrcViolation], needle: &str) -> bool {
        v.iter().any(|d| d.message.contains(needle))
    }

    #[test]
    fn unconnected_input_is_reported() {
        let mut hex = HexGateLayout::new(AspectRatio::new(2, 2), ClockingScheme::Row);
        hex.place(
            HexCoord::new(1, 1),
            TileContents::gate(GateKind::Po, vec![H::NorthWest], vec![], Some("f".into())),
        );
        let mut cart = CartGateLayout::new(AspectRatio::new(2, 2), ClockingScheme::TwoDdWave);
        cart.place(
            CartCoord::new(1, 1),
            TileContents::gate(GateKind::Po, vec![C::North], vec![], Some("f".into())),
        );
        for v in [hex.verify(), cart.verify()] {
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].message.contains("unconnected"));
            assert_eq!(v[0].tile, (1, 1));
        }
    }

    #[test]
    fn clocking_violation_is_reported() {
        // Under Columnar clocking, a vertical connection stays in the same
        // column → same zone → the flow is illegal.
        let mut hex = HexGateLayout::new(AspectRatio::new(2, 2), ClockingScheme::Columnar);
        hex.place(
            HexCoord::new(0, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![H::SouthEast], Some("a".into())),
        );
        // (0,0) is in an even row, so its SE neighbor is (0,1); the PO's
        // NW port (odd row: delta (0,-1)) points back at (0,0).
        hex.place(
            HexCoord::new(0, 1),
            TileContents::gate(GateKind::Po, vec![H::NorthWest], vec![], Some("f".into())),
        );
        let mut cart = CartGateLayout::new(AspectRatio::new(1, 2), ClockingScheme::Columnar);
        cart.place(
            CartCoord::new(0, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![C::South], Some("a".into())),
        );
        cart.place(
            CartCoord::new(0, 1),
            TileContents::gate(GateKind::Po, vec![C::North], vec![], Some("f".into())),
        );
        for v in [hex.verify(), cart.verify()] {
            assert!(reports(&v, "clocking violation"), "{v:?}");
        }
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut hex = HexGateLayout::new(AspectRatio::new(2, 2), ClockingScheme::Row);
        hex.place(
            HexCoord::new(0, 0),
            TileContents::gate(GateKind::And, vec![H::NorthWest], vec![H::SouthEast], None),
        );
        let mut cart = CartGateLayout::new(AspectRatio::new(2, 2), ClockingScheme::TwoDdWave);
        cart.place(
            CartCoord::new(0, 0),
            TileContents::gate(GateKind::And, vec![C::North], vec![C::South], None),
        );
        for v in [hex.verify(), cart.verify()] {
            assert!(reports(&v, "AND has 1 input ports, expected 2"), "{v:?}");
        }
    }

    #[test]
    fn wire_tile_without_segments_is_reported() {
        let mut hex = HexGateLayout::new(AspectRatio::new(1, 1), ClockingScheme::Row);
        hex.place(HexCoord::new(0, 0), TileContents::Wire { segments: vec![] });
        let mut cart = CartGateLayout::new(AspectRatio::new(1, 1), ClockingScheme::TwoDdWave);
        cart.place(
            CartCoord::new(0, 0),
            TileContents::Wire { segments: vec![] },
        );
        for v in [hex.verify(), cart.verify()] {
            assert_eq!(v.len(), 1, "{v:?}");
            assert_eq!(v[0].message, "wire tile with 0 segments");
        }
    }

    #[test]
    fn output_leaving_layout_is_reported() {
        let mut hex = HexGateLayout::new(AspectRatio::new(1, 1), ClockingScheme::Row);
        hex.place(
            HexCoord::new(0, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![H::SouthEast], Some("a".into())),
        );
        let mut cart = CartGateLayout::new(AspectRatio::new(1, 1), ClockingScheme::TwoDdWave);
        cart.place(
            CartCoord::new(0, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![C::East], Some("a".into())),
        );
        for v in [hex.verify(), cart.verify()] {
            assert!(reports(&v, "leaves the layout"), "{v:?}");
        }
    }

    #[test]
    #[should_panic(expected = "outside layout bounds")]
    fn placing_out_of_bounds_panics() {
        let mut l = HexGateLayout::new(AspectRatio::new(1, 1), ClockingScheme::Row);
        l.place(
            HexCoord::new(5, 5),
            TileContents::wire(H::NorthWest, H::SouthEast),
        );
    }
}
