//! Pointy-top hexagonal tile coordinates in *odd-row offset* ("odd-r") form.
//!
//! The Bestagon floor plan arranges pointy-top hexagons in rows, where odd
//! rows are shifted half a tile to the right. Every tile has six neighbors;
//! the four diagonal ones carry signals in a row-clocked layout:
//!
//! ```text
//!        NW   NE
//!          \ /
//!     W --- T --- E
//!          / \
//!        SW   SE
//! ```
//!
//! Information in the Bestagon scheme flows strictly from the two northern
//! neighbors towards the two southern neighbors (the paper's Figure 3b: the
//! input pins of all gates are accessible via the centers of the upper tile
//! borders and outputs propagate to either of the two bottom directions).
//!
//! The odd-r offset convention follows Amit Patel's *Red Blob Games*
//! hexagonal-grid reference, which the paper's acknowledgments cite.

/// A hexagonal tile position in odd-row offset coordinates.
///
/// `x` is the column, `y` the row. Odd rows are drawn shifted right by half
/// a tile width.
///
/// # Examples
///
/// ```
/// use fcn_coords::{HexCoord, HexDirection};
///
/// // Southern neighbors depend on row parity:
/// let even = HexCoord::new(2, 2);
/// assert_eq!(even.neighbor(HexDirection::SouthWest), HexCoord::new(1, 3));
/// assert_eq!(even.neighbor(HexDirection::SouthEast), HexCoord::new(2, 3));
///
/// let odd = HexCoord::new(2, 3);
/// assert_eq!(odd.neighbor(HexDirection::SouthWest), HexCoord::new(2, 4));
/// assert_eq!(odd.neighbor(HexDirection::SouthEast), HexCoord::new(3, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HexCoord {
    /// Column index.
    pub x: i32,
    /// Row index.
    pub y: i32,
}

/// The six neighbor directions of a pointy-top hexagon.
///
/// In a row-clocked Bestagon layout only the four diagonal directions carry
/// signals; [`HexDirection::East`] and [`HexDirection::West`] connect tiles
/// within the same clock zone row and are therefore unusable for
/// information transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HexDirection {
    /// Upper-left neighbor (an input side).
    NorthWest,
    /// Upper-right neighbor (an input side).
    NorthEast,
    /// Same-row right neighbor.
    East,
    /// Lower-right neighbor (an output side).
    SouthEast,
    /// Lower-left neighbor (an output side).
    SouthWest,
    /// Same-row left neighbor.
    West,
}

impl HexDirection {
    /// The two outgoing (southern) directions of a row-clocked tile.
    pub const OUTPUTS: [HexDirection; 2] = [HexDirection::SouthWest, HexDirection::SouthEast];

    /// The direction pointing back at the origin tile.
    ///
    /// ```
    /// use fcn_coords::HexDirection;
    /// assert_eq!(HexDirection::NorthWest.opposite(), HexDirection::SouthEast);
    /// ```
    pub const fn opposite(self) -> HexDirection {
        match self {
            HexDirection::NorthWest => HexDirection::SouthEast,
            HexDirection::NorthEast => HexDirection::SouthWest,
            HexDirection::East => HexDirection::West,
            HexDirection::SouthEast => HexDirection::NorthWest,
            HexDirection::SouthWest => HexDirection::NorthEast,
            HexDirection::West => HexDirection::East,
        }
    }

    /// True if this is one of the two northern (input) directions.
    pub(crate) const fn is_incoming(self) -> bool {
        matches!(self, HexDirection::NorthWest | HexDirection::NorthEast)
    }

    /// True if this is one of the two southern (output) directions.
    pub(crate) const fn is_outgoing(self) -> bool {
        matches!(self, HexDirection::SouthWest | HexDirection::SouthEast)
    }

    /// Axial-coordinate delta of this direction for a tile in a row of the
    /// given parity (`odd_row == (y & 1) == 1`).
    const fn offset_delta(self, odd_row: bool) -> (i32, i32) {
        match (self, odd_row) {
            (HexDirection::NorthWest, false) => (-1, -1),
            (HexDirection::NorthWest, true) => (0, -1),
            (HexDirection::NorthEast, false) => (0, -1),
            (HexDirection::NorthEast, true) => (1, -1),
            (HexDirection::East, _) => (1, 0),
            (HexDirection::SouthEast, false) => (0, 1),
            (HexDirection::SouthEast, true) => (1, 1),
            (HexDirection::SouthWest, false) => (-1, 1),
            (HexDirection::SouthWest, true) => (0, 1),
            (HexDirection::West, _) => (-1, 0),
        }
    }
}

impl core::fmt::Display for HexDirection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            HexDirection::NorthWest => "NW",
            HexDirection::NorthEast => "NE",
            HexDirection::East => "E",
            HexDirection::SouthEast => "SE",
            HexDirection::SouthWest => "SW",
            HexDirection::West => "W",
        };
        f.write_str(s)
    }
}

impl HexCoord {
    /// Creates a new hexagonal coordinate at column `x`, row `y`.
    pub const fn new(x: i32, y: i32) -> Self {
        Self { x, y }
    }

    /// True if this tile sits in an odd (right-shifted) row.
    pub(crate) const fn is_odd_row(self) -> bool {
        self.y & 1 == 1
    }

    /// The neighboring tile in the given direction.
    pub fn neighbor(self, dir: HexDirection) -> HexCoord {
        let (dx, dy) = dir.offset_delta(self.is_odd_row());
        HexCoord::new(self.x + dx, self.y + dy)
    }
}

impl core::fmt::Display for HexCoord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl From<(i32, i32)> for HexCoord {
    fn from((x, y): (i32, i32)) -> Self {
        HexCoord::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_round_trip_via_opposite() {
        for y in -3..4 {
            for x in -3..4 {
                let c = HexCoord::new(x, y);
                for d in [
                    HexDirection::NorthWest,
                    HexDirection::NorthEast,
                    HexDirection::East,
                    HexDirection::SouthEast,
                    HexDirection::SouthWest,
                    HexDirection::West,
                ] {
                    assert_eq!(c.neighbor(d).neighbor(d.opposite()), c, "{c} {d}");
                }
            }
        }
    }
}
