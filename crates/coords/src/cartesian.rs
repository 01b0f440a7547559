//! Cartesian tile coordinates for QCA-style floor plans.
//!
//! Established FCN design automation (for quantum-dot cellular automata)
//! lays plus-shaped gates out on Cartesian grids. The Bestagon paper argues
//! (Figure 3a) that such grids cannot reasonably accommodate the Y-shaped
//! SiDB gates; this module provides the Cartesian substrate so that the
//! comparison experiments can be run.

/// A Cartesian tile position.
///
/// # Examples
///
/// ```
/// use fcn_coords::{CartCoord, CartDirection, TileCoord};
///
/// let t = CartCoord::new(1, 1);
/// assert_eq!(TileCoord::neighbor(t, CartDirection::South), CartCoord::new(1, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CartCoord {
    /// Column index.
    pub x: i32,
    /// Row index.
    pub y: i32,
}

/// The four neighbor directions of a Cartesian tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CartDirection {
    /// Towards decreasing `y`.
    North,
    /// Towards increasing `x`.
    East,
    /// Towards increasing `y`.
    South,
    /// Towards decreasing `x`.
    West,
}

impl CartDirection {
    /// The direction pointing back at the origin tile.
    pub(crate) const fn opposite(self) -> CartDirection {
        match self {
            CartDirection::North => CartDirection::South,
            CartDirection::East => CartDirection::West,
            CartDirection::South => CartDirection::North,
            CartDirection::West => CartDirection::East,
        }
    }

    const fn delta(self) -> (i32, i32) {
        match self {
            CartDirection::North => (0, -1),
            CartDirection::East => (1, 0),
            CartDirection::South => (0, 1),
            CartDirection::West => (-1, 0),
        }
    }
}

impl core::fmt::Display for CartDirection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CartDirection::North => "N",
            CartDirection::East => "E",
            CartDirection::South => "S",
            CartDirection::West => "W",
        };
        f.write_str(s)
    }
}

impl CartCoord {
    /// Creates a new Cartesian coordinate at column `x`, row `y`.
    pub const fn new(x: i32, y: i32) -> Self {
        Self { x, y }
    }

    /// The neighboring tile in the given direction.
    pub(crate) const fn neighbor(self, dir: CartDirection) -> CartCoord {
        let (dx, dy) = dir.delta();
        CartCoord::new(self.x + dx, self.y + dy)
    }
}

impl core::fmt::Display for CartCoord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

impl From<(i32, i32)> for CartCoord {
    fn from((x, y): (i32, i32)) -> Self {
        CartCoord::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_round_trip() {
        let c = CartCoord::new(5, -2);
        for d in [
            CartDirection::North,
            CartDirection::East,
            CartDirection::South,
            CartDirection::West,
        ] {
            assert_eq!(c.neighbor(d).neighbor(d.opposite()), c);
        }
    }
}
