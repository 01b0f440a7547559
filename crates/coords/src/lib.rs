//! Coordinate systems for field-coupled nanocomputing (FCN) layouts.
//!
//! This crate provides the geometric substrate for the Bestagon design
//! automation flow (DAC 2022, "Hexagons are the Bestagons"):
//!
//! * [`HexCoord`] — pointy-top hexagonal tile coordinates in *odd-row offset*
//!   form, with the four diagonal port directions (NW/NE inputs, SW/SE
//!   outputs) that Y-shaped SiDB gates expose.
//! * [`CartCoord`] — classic Cartesian tile coordinates used by QCA-style
//!   floor plans; serves as the baseline topology the paper compares
//!   against (Figure 3).
//! * [`TileCoord`] — what the two tile floor plans share: neighbors,
//!   opposite borders, which borders carry signals and the clock-level
//!   order, so one gate-level layout type serves both.
//! * [`siqad`] — dot-accurate H-Si(100)-2×1 surface lattice coordinates as
//!   used by the SiQAD CAD tool, including conversions to physical
//!   nanometre positions.
//!
//! # Examples
//!
//! ```
//! use fcn_coords::{HexCoord, HexDirection};
//!
//! let t = HexCoord::new(2, 3);
//! let below_right = t.neighbor(HexDirection::SouthEast);
//! assert_eq!(below_right, HexCoord::new(3, 4));
//! ```

pub(crate) mod cartesian;
pub(crate) mod hex;
pub mod siqad;

pub use cartesian::{CartCoord, CartDirection};
pub use hex::{HexCoord, HexDirection};
pub use siqad::{LatticeCoord, SIQAD_LATTICE};

/// A rectangular aspect ratio of a tile-based layout, in tiles.
///
/// The paper reports layout sizes as `w × h = A` where `A = w · h` is the
/// number of available tiles (Table 1).
///
/// # Examples
///
/// ```
/// use fcn_coords::AspectRatio;
///
/// let ar = AspectRatio::new(4, 7);
/// assert_eq!(ar.tile_count(), 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AspectRatio {
    /// Width in tiles.
    pub width: u32,
    /// Height in tiles.
    pub height: u32,
}

impl AspectRatio {
    /// Creates a new aspect ratio of `width × height` tiles.
    pub const fn new(width: u32, height: u32) -> Self {
        Self { width, height }
    }

    /// Total number of tiles `w · h`.
    pub const fn tile_count(self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Iterates over all aspect ratios with `tile_count() <= max_area`,
    /// ordered by increasing area (then by height). This is the search
    /// order of the *exact* physical design algorithm: it guarantees the
    /// first satisfiable ratio is area-minimal.
    pub fn in_area_order(max_area: u64) -> impl Iterator<Item = AspectRatio> {
        let mut ratios: Vec<AspectRatio> = (1..=max_area as u32)
            .flat_map(|w| {
                (1..=max_area as u32)
                    .take_while(move |h| (w as u64) * (*h as u64) <= max_area)
                    .map(move |h| AspectRatio::new(w, h))
            })
            .collect();
        ratios.sort_by_key(|r| (r.tile_count(), r.height, r.width));
        ratios.into_iter()
    }

    /// Compact `WxH` form (e.g. `"2x3"`), for telemetry span names and
    /// log keys where the pretty [`Display`](core::fmt::Display) form
    /// with spaces and the tile count would be noise.
    pub fn label(self) -> String {
        format!("{}x{}", self.width, self.height)
    }

    /// Returns true if tile `(x, y)` lies within this layout's bounds, on
    /// either floor plan (see [`TileCoord::xy`]).
    pub fn contains(self, (x, y): (i32, i32)) -> bool {
        x >= 0 && y >= 0 && (x as u32) < self.width && (y as u32) < self.height
    }
}

/// A tile position on one floor plan: what a gate-level layout, its
/// design-rule check and its logic extraction need to know about the
/// plan's geometry. Implemented by [`HexCoord`] and [`CartCoord`].
pub trait TileCoord:
    Copy + Ord + core::hash::Hash + core::fmt::Debug + core::fmt::Display + Send + From<(i32, i32)>
{
    /// The border directions of a tile.
    type Dir: Copy + Eq + core::hash::Hash + core::fmt::Debug + core::fmt::Display + Send;

    /// The column and row, `(x, y)`.
    fn xy(self) -> (i32, i32);
    /// The neighboring tile across border `dir`.
    fn neighbor(self, dir: Self::Dir) -> Self;
    /// The border of the neighbor across `dir` that faces back at this
    /// tile.
    fn opposite(dir: Self::Dir) -> Self::Dir;
    /// Whether a signal may cross border `dir`. Every Cartesian border
    /// may; of the hexagonal ones only the four diagonals may, since East
    /// and West join tiles of one clock row.
    fn carries_signal(dir: Self::Dir) -> bool;
    /// The key that orders tiles by clock level, so every tile comes after
    /// the tiles that feed it: `(y, x)` for hexagonal rows, `(x + y, x)`
    /// for Cartesian 2DDWave anti-diagonals.
    fn clock_order(self) -> (i32, i32);
}

impl TileCoord for HexCoord {
    type Dir = HexDirection;

    fn xy(self) -> (i32, i32) {
        (self.x, self.y)
    }

    fn neighbor(self, dir: HexDirection) -> HexCoord {
        HexCoord::neighbor(self, dir)
    }

    fn opposite(dir: HexDirection) -> HexDirection {
        dir.opposite()
    }

    fn carries_signal(dir: HexDirection) -> bool {
        dir.is_incoming() || dir.is_outgoing()
    }

    fn clock_order(self) -> (i32, i32) {
        (self.y, self.x)
    }
}

impl TileCoord for CartCoord {
    type Dir = CartDirection;

    fn xy(self) -> (i32, i32) {
        (self.x, self.y)
    }

    fn neighbor(self, dir: CartDirection) -> CartCoord {
        CartCoord::neighbor(self, dir)
    }

    fn opposite(dir: CartDirection) -> CartDirection {
        dir.opposite()
    }

    fn carries_signal(_: CartDirection) -> bool {
        true
    }

    fn clock_order(self) -> (i32, i32) {
        (self.x + self.y, self.x)
    }
}

impl core::fmt::Display for AspectRatio {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} × {} = {}",
            self.width,
            self.height,
            self.tile_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aspect_ratio_area_order_is_monotone() {
        let mut prev = 0;
        for r in AspectRatio::in_area_order(12) {
            assert!(r.tile_count() >= prev);
            prev = r.tile_count();
        }
    }

    #[test]
    fn aspect_ratio_area_order_is_exhaustive() {
        let ratios: Vec<_> = AspectRatio::in_area_order(6).collect();
        assert!(ratios.contains(&AspectRatio::new(1, 1)));
        assert!(ratios.contains(&AspectRatio::new(2, 3)));
        assert!(ratios.contains(&AspectRatio::new(6, 1)));
        assert!(!ratios.iter().any(|r| r.tile_count() > 6));
    }

    #[test]
    fn contains_checks_bounds() {
        let ar = AspectRatio::new(3, 2);
        assert!(ar.contains(HexCoord::new(2, 1).xy()));
        assert!(!ar.contains(HexCoord::new(3, 1).xy()));
        assert!(!ar.contains(HexCoord::new(-1, 0).xy()));
        assert!(ar.contains(CartCoord::new(0, 0).xy()));
        assert!(!ar.contains(CartCoord::new(0, 2).xy()));
    }

    #[test]
    fn clock_order_puts_feeders_first() {
        for y in 0..4 {
            for x in 0..4 {
                let h = HexCoord::new(x, y);
                for d in HexDirection::OUTPUTS {
                    assert!(h.clock_order() < h.neighbor(d).clock_order());
                }
                let c = CartCoord::new(x, y);
                for d in [CartDirection::East, CartDirection::South] {
                    assert!(c.clock_order() < c.neighbor(d).clock_order());
                }
            }
        }
        assert!(!HexCoord::carries_signal(HexDirection::East));
        assert!(CartCoord::carries_signal(CartDirection::East));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(AspectRatio::new(4, 7).to_string(), "4 × 7 = 28");
    }
}
