//! Gate-library application (flow step 7): turning a placed & routed
//! gate-level layout into one dot-accurate SiDB layout.
//!
//! Every occupied tile of the [`HexGateLayout`] is looked up in the
//! [`BestagonLibrary`] by function and port directions; the tile design's
//! dots are translated to the tile's lattice origin
//! ([`fcn_coords::siqad::hex_tile_origin`]) and merged into one surface.

use crate::geometry::{check_port_geometry, GeometryError};
use crate::tiles::BestagonLibrary;
use crate::verdicts::content_hash;
use fcn_coords::siqad::{bestagon_layout_area_nm2, hex_tile_origin};
use fcn_coords::{HexCoord, HexDirection};
use fcn_layout::hexagonal::HexGateLayout;
use fcn_layout::tile::TileContents;
use fcn_logic::GateKind;
use sidb_sim::layout::SidbLayout;
use sidb_sim::operational::GateDesign;

/// The dot-accurate result of applying the gate library.
#[derive(Debug, Clone)]
pub struct CellLevelLayout {
    /// All SiDBs of the circuit.
    pub sidb: SidbLayout,
    /// Physical area in nm² (the Table 1 bounding-box formula).
    pub area_nm2: f64,
}

impl CellLevelLayout {
    /// Number of SiDBs in the layout — the `SiDBs` column of Table 1.
    pub fn num_sidbs(&self) -> usize {
        self.sidb.num_sites()
    }
}

/// An error during library application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// No library tile matches the given function and port directions.
    MissingTile {
        /// The tile coordinate.
        tile: (i32, i32),
        /// Human-readable description of the missing variant.
        what: String,
    },
    /// A resolved library design failed port-geometry validation.
    MalformedTile {
        /// The tile coordinate.
        tile: (i32, i32),
        /// The name of the offending design.
        design: String,
        /// The geometric inconsistency.
        error: GeometryError,
    },
}

impl core::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ApplyError::MissingTile { tile, what } => {
                write!(
                    f,
                    "tile ({}, {}): no library design for {what}",
                    tile.0, tile.1
                )
            }
            ApplyError::MalformedTile {
                tile,
                design,
                error,
            } => {
                write!(
                    f,
                    "tile ({}, {}): design '{design}' is malformed: {error}",
                    tile.0, tile.1
                )
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// Applies the gate library to a layout.
///
/// # Errors
///
/// Fails when a tile requires a gate/port-direction combination the
/// library does not provide.
pub fn apply_gate_library(
    layout: &HexGateLayout,
    library: &BestagonLibrary,
) -> Result<CellLevelLayout, ApplyError> {
    let mut sidb = SidbLayout::new();
    for (coord, contents) in layout.occupied_tiles() {
        let (ox, oy) = hex_tile_origin(coord.x, coord.y);
        for design in tile_designs(library, coord, contents)? {
            sidb.merge(&design.body.translated(ox, oy));
        }
    }
    Ok(CellLevelLayout {
        sidb,
        area_nm2: bestagon_layout_area_nm2(layout.ratio()),
    })
}

/// The distinct library designs a layout instantiates, in first-use
/// order (deduplicated by [`content_hash`], so a gate and its mirrored
/// variant are two designs).
///
/// This is the validation work-list for flow step 7: each returned
/// design carries its ports and truth table, so the flow can judge
/// exactly the tiles a circuit uses — once per design, not per tile.
///
/// # Errors
///
/// Fails exactly when [`apply_gate_library`] would: a tile requires a
/// gate/port-direction combination the library does not provide, or a
/// resolved design fails port-geometry validation.
pub fn used_designs(
    layout: &HexGateLayout,
    library: &BestagonLibrary,
) -> Result<Vec<GateDesign>, ApplyError> {
    let mut seen = std::collections::BTreeSet::new();
    let mut designs = Vec::new();
    for (coord, contents) in layout.occupied_tiles() {
        for design in tile_designs(library, coord, contents)? {
            if seen.insert(content_hash(&design)) {
                designs.push(design);
            }
        }
    }
    Ok(designs)
}

/// Resolves the library designs realizing one tile (two for a parallel
/// double wire, one otherwise), each validated for port geometry.
fn tile_designs(
    library: &BestagonLibrary,
    coord: HexCoord,
    contents: &TileContents<HexDirection>,
) -> Result<Vec<GateDesign>, ApplyError> {
    use HexDirection::{NorthEast as NE, NorthWest as NW, SouthEast as SE, SouthWest as SW};
    let missing = |what: String| ApplyError::MissingTile {
        tile: (coord.x, coord.y),
        what,
    };
    // Every resolved design passes port-geometry validation before its
    // body is merged, so a malformed library entry surfaces as a typed
    // error naming the tile and design instead of a downstream panic.
    let checked = |design: &GateDesign| -> Result<GateDesign, ApplyError> {
        check_port_geometry(design).map_err(|error| ApplyError::MalformedTile {
            tile: (coord.x, coord.y),
            design: design.name.clone(),
            error,
        })?;
        Ok(design.clone())
    };

    match contents {
        TileContents::Gate {
            kind,
            inputs,
            outputs,
            ..
        } => {
            let (kind, inputs, outputs) = match kind {
                // I/O pads are realized as wire tiles: a PI drives its
                // output chain from the top border, a PO terminates its
                // input chain at the bottom border.
                GateKind::Pi => {
                    let out = outputs.first().copied().unwrap_or(SW);
                    let implied_in = if out == SW { NW } else { NE };
                    (GateKind::Buf, vec![implied_in], vec![out])
                }
                GateKind::Po => {
                    let inp = inputs.first().copied().unwrap_or(NW);
                    let implied_out = if inp == NW { SW } else { SE };
                    (GateKind::Buf, vec![inp], vec![implied_out])
                }
                k => (*k, inputs.clone(), outputs.clone()),
            };
            let tile = library
                .tile(kind, &inputs, &outputs)
                .ok_or_else(|| missing(format!("{kind} {inputs:?} → {outputs:?}")))?;
            Ok(vec![checked(tile)?])
        }
        TileContents::Wire { segments } => match segments.as_slice() {
            [(i, o)] => {
                let tile = library
                    .tile(GateKind::Buf, &[*i], &[*o])
                    .ok_or_else(|| missing(format!("wire {i} → {o}")))?;
                Ok(vec![checked(tile)?])
            }
            [a, b] => {
                let set: std::collections::BTreeSet<(HexDirection, HexDirection)> =
                    [*a, *b].into_iter().collect();
                let crossing: std::collections::BTreeSet<_> =
                    [(NW, SE), (NE, SW)].into_iter().collect();
                let parallel: std::collections::BTreeSet<_> =
                    [(NW, SW), (NE, SE)].into_iter().collect();
                if set == crossing {
                    Ok(vec![checked(&library.crossing_design())?])
                } else if set == parallel {
                    let tile = library
                        .tile(GateKind::Buf, &[NW], &[SW])
                        .ok_or_else(|| missing("double wire".into()))?;
                    let mirrored = library
                        .tile(GateKind::Buf, &[NE], &[SE])
                        .ok_or_else(|| missing("double wire".into()))?;
                    Ok(vec![checked(tile)?, checked(mirrored)?])
                } else {
                    Err(missing(format!("wire pair {set:?}")))
                }
            }
            other => Err(missing(format!("{}-segment wire tile", other.len()))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_coords::AspectRatio;
    use fcn_layout::clocking::ClockingScheme;

    fn pi_wire_po_layout() -> HexGateLayout {
        use HexDirection::{NorthEast as NE, NorthWest as NW, SouthEast as SE, SouthWest as SW};
        let mut l = HexGateLayout::new(AspectRatio::new(2, 3), ClockingScheme::Row);
        l.place(
            HexCoord::new(1, 0),
            TileContents::gate(GateKind::Pi, vec![], vec![SW], Some("a".into())),
        );
        l.place(HexCoord::new(0, 1), TileContents::wire(NE, SE));
        l.place(
            HexCoord::new(1, 2),
            TileContents::gate(GateKind::Po, vec![NW], vec![], Some("f".into())),
        );
        l
    }

    #[test]
    fn applies_wire_chain() {
        use fcn_coords::HexDirection::{NorthWest, SouthWest};
        let layout = pi_wire_po_layout();
        let lib = BestagonLibrary::new();
        let cell = apply_gate_library(&layout, &lib).expect("library covers wires");
        // Three straight-wire tile bodies (the PI/PO pads render as wires).
        let wire_dots = lib
            .tile(GateKind::Buf, &[NorthWest], &[SouthWest])
            .expect("wire tile")
            .body
            .num_sites();
        assert_eq!(cell.num_sidbs(), 3 * wire_dots);
        assert!((cell.area_nm2 - 2403.98).abs() < 0.01);
    }

    #[test]
    fn tiles_land_at_their_origins() {
        let layout = pi_wire_po_layout();
        let lib = BestagonLibrary::new();
        let cell = apply_gate_library(&layout, &lib).expect("ok");
        // The PI tile at (1,0) occupies lattice columns 60..120.
        assert!(cell
            .sidb
            .sites()
            .iter()
            .any(|s| (60..120).contains(&s.x) && s.y < 23));
        // The wire tile at (0,1) is shifted by the odd-row offset.
        assert!(cell
            .sidb
            .sites()
            .iter()
            .any(|s| (30..90).contains(&s.x) && (23..46).contains(&s.y)));
    }

    #[test]
    fn used_designs_deduplicates_by_content() {
        let layout = pi_wire_po_layout();
        let lib = BestagonLibrary::new();
        let designs = used_designs(&layout, &lib).expect("library covers wires");
        // PI, wire, and PO all resolve to straight-wire tiles; only the
        // two distinct variants (NW→SW and NE→SE) remain after dedup.
        assert_eq!(designs.len(), 2);
        let names: std::collections::BTreeSet<_> =
            designs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), 2);
        for d in &designs {
            assert!(!d.truth_table.is_empty(), "{} carries its table", d.name);
        }
    }

    #[test]
    fn used_designs_keeps_a_gate_and_its_mirror() {
        use HexDirection::{NorthEast as NE, NorthWest as NW, SouthEast as SE, SouthWest as SW};
        let mut l = HexGateLayout::new(AspectRatio::new(2, 1), ClockingScheme::Row);
        for (x, out) in [(0, SE), (1, SW)] {
            l.place(
                HexCoord::new(x, 0),
                TileContents::gate(GateKind::And, vec![NW, NE], vec![out], None),
            );
        }
        let designs = used_designs(&l, &BestagonLibrary::new()).expect("AND both ways");
        let names: Vec<&str> = designs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["AND", "AND (NW+NE→SW)"]);
        assert_ne!(designs[0].body, designs[1].body);
    }

    #[test]
    fn malformed_tile_reports_design_and_position() {
        let err = ApplyError::MalformedTile {
            tile: (2, 3),
            design: "wire_nw_sw".into(),
            error: GeometryError::MissingDot {
                dot: fcn_coords::LatticeCoord::new(15, 1, 0),
            },
        };
        let msg = err.to_string();
        assert!(msg.contains("(2, 3)"), "missing tile coordinate: {msg}");
        assert!(msg.contains("wire_nw_sw"), "missing design name: {msg}");
    }

    #[test]
    fn missing_tile_is_reported() {
        use HexDirection::{East, West};
        let mut l = HexGateLayout::new(AspectRatio::new(1, 1), ClockingScheme::Row);
        l.place(HexCoord::new(0, 0), TileContents::wire(West, East));
        let lib = BestagonLibrary::new();
        assert!(matches!(
            apply_gate_library(&l, &lib),
            Err(ApplyError::MissingTile { .. })
        ));
    }
}
