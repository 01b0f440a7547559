//! Super-tile clock-zone expansion (flow step 6, paper Figure 4).
//!
//! Huff et al.'s OR gate measures ≈ 30 nm², far below what clocking
//! electrodes can address: at state-of-the-art 7 nm lithography, the
//! minimum metal pitch is 40 nm [Wu et al., IEDM 2016]. The paper's
//! solution keeps the dense standard tiles and groups several of them into
//! a *super-tile* driven by a single electrode; all tiles of a super-tile
//! switch simultaneously, which restricts layouts to linear (feed-forward)
//! clocking schemes but guarantees fabricability.
//!
//! For the row-clocked layouts this crate produces, an electrode spans
//! whole rows: merging `m` consecutive rows yields electrodes of height
//! `m · 17.664 nm`, and the design rule demands that this pitch reach the
//! minimum metal pitch.

use crate::clocking::NUM_PHASES;
use crate::hexagonal::HexGateLayout;
use fcn_coords::siqad::{HEX_ROW_PITCH_ROWS, HEX_TILE_WIDTH_CELLS, SIQAD_LATTICE};

/// Minimum metal pitch of a state-of-the-art 7 nm process, in nanometres.
pub const MIN_METAL_PITCH_NM: f64 = 40.0;

/// Vertical extent of one hexagonal tile row, in nanometres (17.664 nm).
pub const ROW_PITCH_NM: f64 = HEX_ROW_PITCH_ROWS as f64 * SIQAD_LATTICE.b / 10.0;

/// Width of one hexagonal tile, in nanometres (23.04 nm).
pub const TILE_WIDTH_NM: f64 = HEX_TILE_WIDTH_CELLS as f64 * SIQAD_LATTICE.a / 10.0;

/// The result of merging clock-zone rows into super-tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperTilePlan {
    /// Number of tile rows merged per electrode.
    pub rows_per_supertile: u32,
    /// Electrode pitch in nanometres (`rows_per_supertile · 17.664`).
    pub electrode_pitch_nm: f64,
    /// Number of electrodes (super-tile rows) in the layout.
    pub num_electrodes: u32,
    /// Number of standard tiles covered by each electrode (layout width ×
    /// merged rows).
    pub tiles_per_supertile: u32,
    /// The clock phase of each electrode, top to bottom.
    pub(crate) phases: Vec<u8>,
}

impl SuperTilePlan {
    /// True if every electrode respects the minimum metal pitch.
    pub fn is_fabricable(&self) -> bool {
        self.electrode_pitch_nm + 1e-9 >= MIN_METAL_PITCH_NM
    }
}

/// The smallest number of merged rows whose electrode pitch reaches the
/// minimum metal pitch.
///
/// ```
/// use fcn_layout::supertile::minimum_rows_per_supertile;
/// // 17.664 · 3 = 52.99 nm ≥ 40 nm, while 2 rows (35.3 nm) are too narrow.
/// assert_eq!(minimum_rows_per_supertile(), 3);
/// ```
pub fn minimum_rows_per_supertile() -> u32 {
    let mut m = 1;
    while (m as f64) * ROW_PITCH_NM < MIN_METAL_PITCH_NM {
        m += 1;
    }
    m
}

/// Computes the super-tile plan for a row-clocked hexagonal layout,
/// merging the minimal number of rows that satisfies the metal-pitch rule.
///
/// After merging, the tile at row `y` is driven by electrode `y / m` whose
/// phase is `(y / m) mod 4` — the clock-zone expansion of flow step 6.
pub fn plan_supertiles(layout: &HexGateLayout) -> SuperTilePlan {
    plan_supertiles_with_rows(layout, minimum_rows_per_supertile())
}

/// Computes a super-tile plan with an explicit number of merged rows.
///
/// # Panics
///
/// Panics if `rows_per_supertile` is zero.
pub fn plan_supertiles_with_rows(layout: &HexGateLayout, rows_per_supertile: u32) -> SuperTilePlan {
    assert!(rows_per_supertile > 0, "at least one row per super-tile");
    let height = layout.ratio().height;
    let num_electrodes = height.div_ceil(rows_per_supertile);
    SuperTilePlan {
        rows_per_supertile,
        electrode_pitch_nm: rows_per_supertile as f64 * ROW_PITCH_NM,
        num_electrodes,
        tiles_per_supertile: rows_per_supertile * layout.ratio().width,
        phases: (0..num_electrodes)
            .map(|e| (e % NUM_PHASES as u32) as u8)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocking::ClockingScheme;
    use fcn_coords::AspectRatio;

    fn layout(w: u32, h: u32) -> HexGateLayout {
        HexGateLayout::new(AspectRatio::new(w, h), ClockingScheme::Row)
    }

    #[test]
    fn three_rows_reach_the_metal_pitch() {
        assert_eq!(minimum_rows_per_supertile(), 3);
        assert!((ROW_PITCH_NM - 17.664).abs() < 1e-9);
    }

    #[test]
    fn default_plan_is_fabricable() {
        let plan = plan_supertiles(&layout(4, 7));
        assert!(plan.is_fabricable());
        assert_eq!(plan.rows_per_supertile, 3);
        assert_eq!(plan.num_electrodes, 3); // ceil(7 / 3)
        assert_eq!(plan.tiles_per_supertile, 12);
        assert_eq!(plan.phases, vec![0, 1, 2]);
    }

    #[test]
    fn single_row_plan_violates_pitch() {
        let plan = plan_supertiles_with_rows(&layout(4, 7), 1);
        assert!(!plan.is_fabricable());
        assert_eq!(plan.num_electrodes, 7);
    }

    #[test]
    fn merging_reduces_electrode_count() {
        let l = layout(5, 12);
        let fine = plan_supertiles_with_rows(&l, 1);
        let merged = plan_supertiles(&l);
        assert!(merged.num_electrodes < fine.num_electrodes);
        assert!(merged.is_fabricable() && !fine.is_fabricable());
    }

    #[test]
    fn pitch_scales_linearly_with_rows() {
        let l = layout(3, 9);
        for m in 1..5 {
            let plan = plan_supertiles_with_rows(&l, m);
            assert!((plan.electrode_pitch_nm - m as f64 * ROW_PITCH_NM).abs() < 1e-9);
        }
    }
}
