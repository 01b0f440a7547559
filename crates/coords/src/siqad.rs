//! Dot-accurate coordinates on the hydrogen-passivated Si(100)-2×1 surface.
//!
//! SiDBs are fabricated by removing single hydrogen atoms from the
//! H-Si(100)-2×1 surface; the removable sites form a regular lattice of
//! dimer pairs. Following the SiQAD CAD tool, a site is addressed by a
//! triple `(x, y, b)`:
//!
//! * `x` — dimer column (pitch [`SiLattice::a`] = 3.84 Å),
//! * `y` — dimer row (pitch [`SiLattice::b`] = 7.68 Å),
//! * `b` — which atom of the dimer pair (`0` = top, `1` = bottom, offset
//!   `SiLattice::c` = 2.25 Å).
//!
//! The module also fixes the Bestagon tile geometry constants that were
//! reverse-engineered from Table 1 of the paper (see `DESIGN.md` §4): a hex
//! tile is [`HEX_TILE_WIDTH_CELLS`] lattice columns wide and successive hex
//! rows advance by [`HEX_ROW_PITCH_ROWS`] dimer rows.

use crate::AspectRatio;

/// Geometry of the H-Si(100)-2×1 surface lattice, in ångström.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiLattice {
    /// Lattice constant along `x` (dimer column pitch), Å.
    pub a: f64,
    /// Lattice constant along `y` (dimer row pitch), Å.
    pub b: f64,
    /// Intra-dimer separation along `y`, Å.
    pub(crate) c: f64,
}

/// The physical H-Si(100)-2×1 lattice used by SiQAD and this work.
pub const SIQAD_LATTICE: SiLattice = SiLattice {
    a: 3.84,
    b: 7.68,
    c: 2.25,
};

/// Width of one Bestagon hexagonal tile in lattice columns (23.04 nm).
pub const HEX_TILE_WIDTH_CELLS: i32 = 60;

/// Vertical pitch between successive hexagonal tile rows in dimer rows
/// (17.664 nm).
pub const HEX_ROW_PITCH_ROWS: i32 = 23;

/// Horizontal shift of odd hexagonal rows, in lattice columns.
pub(crate) const HEX_ODD_ROW_SHIFT_CELLS: i32 = HEX_TILE_WIDTH_CELLS / 2;

/// A lattice site in SiQAD `(x, y, b)` coordinates.
///
/// # Examples
///
/// ```
/// use fcn_coords::siqad::LatticeCoord;
///
/// let top = LatticeCoord::new(0, 0, 0);
/// let bottom = LatticeCoord::new(0, 0, 1);
/// // the two atoms of a dimer pair are 2.25 Å apart:
/// assert!((top.distance_angstrom(bottom) - 2.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LatticeCoord {
    /// Dimer column.
    pub x: i32,
    /// Dimer row.
    pub y: i32,
    /// Sub-lattice index within the dimer pair (0 or 1).
    pub b: u8,
}

impl LatticeCoord {
    /// Creates a lattice coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `b > 1`; a dimer pair only has two atoms.
    pub const fn new(x: i32, y: i32, b: u8) -> Self {
        assert!(b <= 1, "sub-lattice index must be 0 or 1");
        Self { x, y, b }
    }

    /// Physical position in ångström on the default lattice.
    pub(crate) fn position_angstrom(self) -> (f64, f64) {
        self.position_on(SIQAD_LATTICE)
    }

    /// Physical position in ångström on an explicit lattice geometry.
    pub(crate) fn position_on(self, lattice: SiLattice) -> (f64, f64) {
        (
            self.x as f64 * lattice.a,
            self.y as f64 * lattice.b + self.b as f64 * lattice.c,
        )
    }

    /// Physical position in nanometres on the default lattice.
    pub fn position_nm(self) -> (f64, f64) {
        let (x, y) = self.position_angstrom();
        (x / 10.0, y / 10.0)
    }

    /// Euclidean distance to another site, in ångström.
    pub fn distance_angstrom(self, other: LatticeCoord) -> f64 {
        let (ax, ay) = self.position_angstrom();
        let (bx, by) = other.position_angstrom();
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }

    /// Translates the site by whole lattice cells.
    pub const fn translated(self, dx: i32, dy: i32) -> LatticeCoord {
        LatticeCoord {
            x: self.x + dx,
            y: self.y + dy,
            b: self.b,
        }
    }

    /// Mirrors the site horizontally around the column `axis_x`
    /// (i.e. `x ↦ 2·axis_x − x`). The sub-lattice index is unaffected.
    pub const fn mirrored_x(self, axis_x: i32) -> LatticeCoord {
        LatticeCoord {
            x: 2 * axis_x - self.x,
            y: self.y,
            b: self.b,
        }
    }
}

impl core::fmt::Display for LatticeCoord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.b)
    }
}

impl From<(i32, i32, u8)> for LatticeCoord {
    fn from((x, y, b): (i32, i32, u8)) -> Self {
        LatticeCoord::new(x, y, b)
    }
}

/// The lattice origin (top-left cell) of the hexagonal tile at offset
/// coordinates `(tx, ty)` in a Bestagon floor plan.
///
/// Odd rows are shifted right by half a tile; each row advances the lattice
/// `y` by [`HEX_ROW_PITCH_ROWS`] dimer rows.
///
/// ```
/// use fcn_coords::siqad::hex_tile_origin;
///
/// assert_eq!(hex_tile_origin(0, 0), (0, 0));
/// assert_eq!(hex_tile_origin(0, 1), (30, 23));
/// ```
pub fn hex_tile_origin(tx: i32, ty: i32) -> (i32, i32) {
    let shift = if ty & 1 == 1 {
        HEX_ODD_ROW_SHIFT_CELLS
    } else {
        0
    };
    (tx * HEX_TILE_WIDTH_CELLS + shift, ty * HEX_ROW_PITCH_ROWS)
}

/// The physical bounding-box area, in nm², of a Bestagon layout with the
/// given aspect ratio (in hexagonal tiles).
///
/// This is the formula that reproduces every nm² entry of Table 1 of the
/// paper: width `(60·w − 1)·0.384 nm`, height `17.664·h − 0.384 nm`.
///
/// ```
/// use fcn_coords::{AspectRatio, siqad::bestagon_layout_area_nm2};
///
/// // Table 1: par_check is 4 × 7 tiles at 11 312.68 nm².
/// let area = bestagon_layout_area_nm2(AspectRatio::new(4, 7));
/// assert!((area - 11_312.68).abs() < 0.01);
/// ```
pub fn bestagon_layout_area_nm2(ratio: AspectRatio) -> f64 {
    let width_nm =
        (HEX_TILE_WIDTH_CELLS as f64 * ratio.width as f64 - 1.0) * SIQAD_LATTICE.a / 10.0;
    let height_nm = HEX_ROW_PITCH_ROWS as f64 * SIQAD_LATTICE.b / 10.0 * ratio.height as f64
        - SIQAD_LATTICE.a / 10.0;
    width_nm * height_nm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimer_geometry() {
        let a = LatticeCoord::new(0, 0, 0);
        let b = LatticeCoord::new(1, 0, 0);
        let c = LatticeCoord::new(0, 1, 0);
        assert!((a.distance_angstrom(b) - 3.84).abs() < 1e-12);
        assert!((a.distance_angstrom(c) - 7.68).abs() < 1e-12);
    }

    #[test]
    fn position_nm_is_angstrom_over_ten() {
        let c = LatticeCoord::new(3, 2, 1);
        let (ax, ay) = c.position_angstrom();
        let (nx, ny) = c.position_nm();
        assert!((ax / 10.0 - nx).abs() < 1e-12);
        assert!((ay / 10.0 - ny).abs() < 1e-12);
    }

    #[test]
    fn mirror_is_involutive() {
        let c = LatticeCoord::new(7, 3, 1);
        assert_eq!(c.mirrored_x(30).mirrored_x(30), c);
    }

    #[test]
    fn translation_composes() {
        let c = LatticeCoord::new(1, 2, 0);
        assert_eq!(c.translated(3, 4).translated(-3, -4), c);
    }

    /// Every nm² entry of the paper's Table 1 must be reproduced to within
    /// reporting precision.
    #[test]
    fn table1_areas_reproduce() {
        let expect = [
            (2, 3, 2403.98),   // xor2
            (2, 3, 2403.98),   // xnor2
            (3, 4, 4830.22),   // par_gen
            (3, 6, 7258.52),   // mux21
            (4, 7, 11312.68),  // par_check
            (5, 6, 12124.57),  // xor5_r1
            (5, 8, 16180.79),  // t
            (5, 11, 22265.12), // majority
            (5, 12, 24293.23), // majority_5_r1
            (5, 15, 30377.56), // cm82a_5
            (8, 10, 32419.82), // newtag
        ];
        for (w, h, area) in expect {
            let got = bestagon_layout_area_nm2(AspectRatio::new(w, h));
            assert!(
                (got - area).abs() < 0.5,
                "{w}x{h}: got {got:.2}, paper says {area:.2}"
            );
        }
    }

    #[test]
    fn hex_tile_origins_tile_the_plane() {
        // Adjacent tiles in a row are exactly one tile width apart.
        let (x0, _) = hex_tile_origin(0, 0);
        let (x1, _) = hex_tile_origin(1, 0);
        assert_eq!(x1 - x0, HEX_TILE_WIDTH_CELLS);
        // Odd rows sit half a tile to the right.
        let (xo, yo) = hex_tile_origin(0, 1);
        assert_eq!(xo, HEX_ODD_ROW_SHIFT_CELLS);
        assert_eq!(yo, HEX_ROW_PITCH_ROWS);
    }
}
