//! Tileable clocking floor plans.
//!
//! Clocking stabilizes signals and directs information flow in FCN
//! circuits (paper Section 2, Figure 2): zones cycle through four phases;
//! a signal may only travel from a tile in phase `p` to an adjacent tile
//! in phase `p + 1 (mod 4)`. The paper references three established
//! schemes — *Columnar* [Lent & Tougaw 1997], *2DDWave* [Vankamamidi et
//! al. 2006] and *USE* [Campos et al. 2016] — and uses the Columnar scheme
//! rotated by 90° (here: [`ClockingScheme::Row`]) so that information
//! flows from top to bottom: tile `(x, y)` is driven by clock zone
//! `y mod 4`.

/// Number of clock phases in all supported schemes.
pub const NUM_PHASES: u8 = 4;

/// A tileable clocking scheme assigning a phase to every tile coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockingScheme {
    /// Row-based: zone `y mod 4` — the Columnar scheme rotated by 90°, as
    /// used throughout the paper. Information flows strictly downwards.
    Row,
    /// Columnar: zone `x mod 4`. Information flows strictly rightwards.
    Columnar,
    /// 2DDWave: zone `(x + y) mod 4`. Information flows right and down.
    TwoDdWave,
    /// USE: the universal, scalable, efficient 4×4 pattern (allows
    /// feedback paths; Cartesian layouts only).
    Use,
}

/// The USE 4×4 clocking pattern of Campos et al.
const USE_PATTERN: [[u8; 4]; 4] = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1], [1, 0, 3, 2]];

impl ClockingScheme {
    /// The clock zone of tile `(x, y)`.
    pub(crate) fn zone(self, x: i32, y: i32) -> u8 {
        let m = |v: i32| v.rem_euclid(NUM_PHASES as i32) as usize;
        match self {
            ClockingScheme::Row => m(y) as u8,
            ClockingScheme::Columnar => m(x) as u8,
            ClockingScheme::TwoDdWave => m(x + y) as u8,
            ClockingScheme::Use => USE_PATTERN[m(y)][m(x)],
        }
    }

    /// True if information may flow from a tile in `from_zone` to an
    /// adjacent tile in `to_zone`.
    pub(crate) fn allows_flow(self, from_zone: u8, to_zone: u8) -> bool {
        (from_zone + 1) % NUM_PHASES == to_zone
    }

    /// Human-readable name, matching the paper's nomenclature.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ClockingScheme::Row => "Row (Columnar rotated by 90°)",
            ClockingScheme::Columnar => "Columnar",
            ClockingScheme::TwoDdWave => "2DDWave",
            ClockingScheme::Use => "USE",
        }
    }
}

impl core::fmt::Display for ClockingScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_scheme_matches_paper() {
        // "tile (x, y) is driven by clock zone y mod 4" (Section 4.1).
        for x in 0..8 {
            for y in 0..8 {
                assert_eq!(ClockingScheme::Row.zone(x, y), (y % 4) as u8);
            }
        }
    }

    #[test]
    fn flow_is_cyclic_through_phases() {
        let s = ClockingScheme::Row;
        assert!(s.allows_flow(0, 1));
        assert!(s.allows_flow(3, 0));
        assert!(!s.allows_flow(1, 0));
        assert!(!s.allows_flow(1, 3));
        assert!(!s.allows_flow(2, 2));
    }

    #[test]
    fn use_pattern_is_a_latin_square_per_row() {
        for row in USE_PATTERN {
            let mut seen = [false; 4];
            for z in row {
                seen[z as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn use_wraps_periodically() {
        let s = ClockingScheme::Use;
        for x in 0..4 {
            for y in 0..4 {
                assert_eq!(s.zone(x, y), s.zone(x + 4, y));
                assert_eq!(s.zone(x, y), s.zone(x, y + 4));
                assert_eq!(s.zone(x, y), s.zone(x - 4, y - 8));
            }
        }
    }

    #[test]
    fn use_has_adjacent_flow_neighbors_everywhere() {
        // Every USE tile must have at least one 4-neighbor it can feed.
        let s = ClockingScheme::Use;
        for x in 0..4i32 {
            for y in 0..4i32 {
                let z = s.zone(x, y);
                let feeds = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
                    .iter()
                    .any(|&(nx, ny)| s.allows_flow(z, s.zone(nx, ny)));
                assert!(feeds, "tile ({x},{y}) cannot feed any neighbor");
            }
        }
    }

    #[test]
    fn negative_coordinates_are_handled() {
        assert_eq!(ClockingScheme::Row.zone(0, -1), 3);
        assert_eq!(ClockingScheme::Columnar.zone(-5, 0), 3);
        assert_eq!(ClockingScheme::TwoDdWave.zone(-1, -1), 2);
    }
}
