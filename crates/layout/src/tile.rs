//! Tile contents of a gate-level layout, on either floor plan.

use fcn_logic::GateKind;

/// What a single tile of a gate-level layout hosts.
///
/// The direction type `D` is [`fcn_coords::HexDirection`] for hexagonal
/// layouts and [`fcn_coords::CartDirection`] for Cartesian ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileContents<D> {
    /// A logic gate, wire buffer, fan-out, or I/O pad.
    Gate {
        /// Gate type.
        kind: GateKind,
        /// Incoming port directions (order matches the gate's fanins).
        inputs: Vec<D>,
        /// Outgoing port directions (order matches the gate's outputs).
        outputs: Vec<D>,
        /// Pad name for PIs and POs.
        name: Option<String>,
    },
    /// One or two independent wire segments passing through the tile.
    /// Two segments form a *crossing* tile.
    Wire {
        /// `(incoming, outgoing)` direction pairs; length 1 or 2.
        segments: Vec<(D, D)>,
    },
}

impl<D: Copy + PartialEq> TileContents<D> {
    /// Creates a gate tile.
    pub fn gate(kind: GateKind, inputs: Vec<D>, outputs: Vec<D>, name: Option<String>) -> Self {
        TileContents::Gate {
            kind,
            inputs,
            outputs,
            name,
        }
    }

    /// Creates a single wire segment tile.
    pub fn wire(incoming: D, outgoing: D) -> Self {
        TileContents::Wire {
            segments: vec![(incoming, outgoing)],
        }
    }

    /// All incoming directions used by this tile.
    pub(crate) fn incoming(&self) -> Vec<D> {
        match self {
            TileContents::Gate { inputs, .. } => inputs.clone(),
            TileContents::Wire { segments } => segments.iter().map(|(i, _)| *i).collect(),
        }
    }

    /// All outgoing directions used by this tile.
    pub(crate) fn outgoing(&self) -> Vec<D> {
        match self {
            TileContents::Gate { outputs, .. } => outputs.clone(),
            TileContents::Wire { segments } => segments.iter().map(|(_, o)| *o).collect(),
        }
    }

    /// True if the tile hosts real logic (not wires, pads, or fan-outs).
    pub(crate) fn is_logic(&self) -> bool {
        matches!(self, TileContents::Gate { kind, .. } if kind.is_logic())
    }

    /// The gate kind, if this is a gate tile.
    pub fn gate_kind(&self) -> Option<GateKind> {
        match self {
            TileContents::Gate { kind, .. } => Some(*kind),
            TileContents::Wire { .. } => None,
        }
    }

    /// Short display label for ASCII renderings.
    pub fn label(&self) -> String {
        match self {
            TileContents::Gate { kind, name, .. } => match (kind, name) {
                (GateKind::Pi, Some(n)) | (GateKind::Po, Some(n)) => {
                    format!("{kind}:{n}")
                }
                _ => kind.to_string(),
            },
            TileContents::Wire { segments } if segments.len() == 2 => "CROSS".to_owned(),
            TileContents::Wire { .. } => "WIRE".to_owned(),
        }
    }
}

/// A design-rule violation discovered by layout verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrcViolation {
    /// Tile coordinate as `(x, y)`.
    pub(crate) tile: (i32, i32),
    /// Human-readable description of the violation.
    pub(crate) message: String,
}

impl core::fmt::Display for DrcViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "tile ({}, {}): {}",
            self.tile.0, self.tile.1, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_coords::HexDirection as H;

    #[test]
    fn wire_and_crossing_classification() {
        let w = TileContents::wire(H::NorthWest, H::SouthEast);
        assert!(!w.is_logic());
        let c = TileContents::Wire {
            segments: vec![(H::NorthWest, H::SouthEast), (H::NorthEast, H::SouthWest)],
        };
        assert!(!c.is_logic());
        assert_eq!(c.incoming(), vec![H::NorthWest, H::NorthEast]);
        assert_eq!(c.outgoing(), vec![H::SouthEast, H::SouthWest]);
    }

    #[test]
    fn gate_tile_ports() {
        let g: TileContents<H> = TileContents::gate(
            GateKind::And,
            vec![H::NorthWest, H::NorthEast],
            vec![H::SouthEast],
            None,
        );
        assert!(g.is_logic());
        assert_eq!(g.gate_kind(), Some(GateKind::And));
        assert_eq!(g.label(), "AND");
    }

    #[test]
    fn pad_labels_include_names() {
        let pi: TileContents<H> =
            TileContents::gate(GateKind::Pi, vec![], vec![H::SouthEast], Some("a".into()));
        assert_eq!(pi.label(), "PI:a");
    }
}
