//! Surface defects on H-Si(100)-2×1 and their electrostatic influence.
//!
//! Real hydrogen-passivated silicon surfaces are not pristine: scanning
//! probes routinely find atomic defects — stray dangling-bond pairs,
//! missing arsenic dimers, siloxane rings, charged vacancies — that
//! perturb or outright kill SiDB gates fabricated on top of them (the
//! defect catalog follows SiQAD, arXiv 1808.04916; the design-automation
//! consequences follow "Atomic Defect-Aware Physical Design of SiDB
//! Logic", arXiv 2311.12042).
//!
//! The model here is deliberately simple and fully deterministic:
//!
//! * every defect has a lattice position and a [`DefectKind`];
//! * a *charged* kind contributes a screened-Coulomb term
//!   `q_d · v(dist)` to the **external potential** at every SiDB site,
//!   which [`crate::charge::InteractionMatrix::with_external`] folds
//!   into every engine's energy bookkeeping;
//! * every kind additionally has a structural *exclusion radius* inside
//!   which fabrication is considered impossible — a site this close to
//!   a defect marks the hosting tile as unusable for placement.
//!
//! [`DefectMap::random`] draws a seeded surface by per-site Bernoulli
//! trials hashed from `(seed, x, y, b)` with a SplitMix64 finalizer, so
//! the map depends only on the seed — never on iteration order, thread
//! count, or platform.

use crate::layout::SidbLayout;
use crate::model::PhysicalParams;
use fcn_coords::siqad::{hex_tile_origin, HEX_ROW_PITCH_ROWS, HEX_TILE_WIDTH_CELLS, SIQAD_LATTICE};
use fcn_coords::LatticeCoord;

/// A catalogued atomic defect species of the H-Si(100)-2×1 surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectKind {
    /// A missing/substituted arsenic dimer: an ionized donor, net `+1`.
    ArsenicDimer,
    /// A stray unpassivated dangling-bond pair holding one electron,
    /// net `−1` — electrostatically it acts like a fixed BDL charge.
    DbPair,
    /// A siloxane ring: charge-neutral but structurally disruptive.
    Siloxane,
    /// A charged single vacancy, net `−1`.
    ChargedVacancy,
}

impl DefectKind {
    /// All catalogued kinds, in a fixed order (used by the random
    /// generator and the spec parser).
    pub const ALL: [DefectKind; 4] = [
        DefectKind::ArsenicDimer,
        DefectKind::DbPair,
        DefectKind::Siloxane,
        DefectKind::ChargedVacancy,
    ];

    /// Net charge in units of the elementary charge. Charged kinds
    /// perturb SiDB sites electrostatically; neutral kinds only exclude.
    pub(crate) const fn charge_number(self) -> i8 {
        match self {
            DefectKind::ArsenicDimer => 1,
            DefectKind::DbPair => -1,
            DefectKind::Siloxane => 0,
            DefectKind::ChargedVacancy => -1,
        }
    }

    /// Structural exclusion radius in ångström: no SiDB can function
    /// this close to the defect, regardless of electrostatics.
    pub(crate) const fn exclusion_radius_angstrom(self) -> f64 {
        match self {
            DefectKind::ArsenicDimer => 3.84,
            DefectKind::DbPair => 7.68,
            DefectKind::Siloxane => 5.0,
            DefectKind::ChargedVacancy => 3.84,
        }
    }

    /// The spec/file token naming this kind.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            DefectKind::ArsenicDimer => "arsenic_dimer",
            DefectKind::DbPair => "db_pair",
            DefectKind::Siloxane => "siloxane",
            DefectKind::ChargedVacancy => "charged_vacancy",
        }
    }

    /// Parses a spec/file token.
    pub(crate) fn from_label(s: &str) -> Option<DefectKind> {
        DefectKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl core::fmt::Display for DefectKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One defect: a species at a lattice position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Defect {
    /// Where the defect sits, in SiQAD lattice coordinates.
    pub position: LatticeCoord,
    /// What it is.
    pub kind: DefectKind,
}

/// A charged or coincident defect closer than this is clamped to this
/// distance when evaluating its potential, so a defect sitting exactly
/// on a site produces a huge-but-finite perturbation instead of a
/// division by zero (the exclusion radius already rules such sites out
/// for placement).
pub(crate) const MIN_DEFECT_DISTANCE_ANGSTROM: f64 = 1.0;

/// Width of the canonical random-surface region, in lattice cells
/// (8 Bestagon tile columns — wider than every Table 1 layout).
pub(crate) const DEFAULT_REGION_WIDTH_CELLS: i32 = 8 * HEX_TILE_WIDTH_CELLS;

/// Height of the canonical random-surface region, in dimer rows
/// (15 Bestagon tile rows — taller than every Table 1 layout).
pub(crate) const DEFAULT_REGION_HEIGHT_ROWS: i32 = 15 * HEX_ROW_PITCH_ROWS;

/// A typed error of the surface-defect spec/file parsers. Malformed
/// input is always reported through this type — the parsers never
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SurfaceSpecError {
    /// The `seed` half of a `seed:density` spec did not parse as `u64`.
    BadSeed(String),
    /// The `density` half did not parse as a probability in `[0, 1]`.
    BadDensity(String),
    /// An unknown defect-kind token.
    BadKind(String),
    /// A malformed line of a defect-map file.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The spec named a file that could not be read.
    Io(String),
}

impl core::fmt::Display for SurfaceSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SurfaceSpecError::BadSeed(s) => write!(f, "bad surface seed '{s}' (expected u64)"),
            SurfaceSpecError::BadDensity(s) => {
                write!(f, "bad defect density '{s}' (expected 0 ≤ p ≤ 1)")
            }
            SurfaceSpecError::BadKind(s) => write!(f, "unknown defect kind '{s}'"),
            SurfaceSpecError::BadLine { line, reason } => {
                write!(f, "defect file line {line}: {reason}")
            }
            SurfaceSpecError::Io(s) => write!(f, "cannot read defect file: {s}"),
        }
    }
}

impl std::error::Error for SurfaceSpecError {}

/// A scanned (or synthesized) map of surface defects.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DefectMap {
    defects: Vec<Defect>,
}

/// SplitMix64 finalizer over a site key: the per-site randomness source
/// of [`DefectMap::random`]. Depending only on `(seed, x, y, b)` makes
/// the generated surface independent of iteration order and thread
/// width by construction.
fn site_hash(seed: u64, x: i32, y: i32, b: u8) -> u64 {
    let mut z = seed
        ^ ((x as u32 as u64) << 33)
        ^ ((y as u32 as u64) << 1)
        ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of a hash as a uniform f64 in `[0, 1)`.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl DefectMap {
    /// A map over an explicit defect list.
    pub fn new(defects: Vec<Defect>) -> Self {
        DefectMap { defects }
    }

    /// The pristine (empty) surface.
    pub fn pristine() -> Self {
        DefectMap::default()
    }

    /// True when the surface has no defects at all.
    pub fn is_empty(&self) -> bool {
        self.defects.is_empty()
    }

    /// Number of defects.
    pub fn len(&self) -> usize {
        self.defects.len()
    }

    /// The defects, in generation/file order.
    pub fn defects(&self) -> &[Defect] {
        &self.defects
    }

    /// Draws a seeded random surface over the canonical region
    /// (`DEFAULT_REGION_WIDTH_CELLS` × `DEFAULT_REGION_HEIGHT_ROWS`,
    /// both sub-lattice rows): every site hosts a defect with
    /// probability `density`, with the species drawn uniformly from
    /// `kinds`. Fully determined by `seed` — see [`DefectMap::random_in`].
    pub fn random(seed: u64, density: f64, kinds: &[DefectKind]) -> Self {
        Self::random_in(
            seed,
            density,
            kinds,
            DEFAULT_REGION_WIDTH_CELLS,
            DEFAULT_REGION_HEIGHT_ROWS,
        )
    }

    /// Draws a seeded random surface over `width_cells × height_rows`
    /// lattice cells (both `b` sub-rows of each cell are candidate
    /// positions). Each site's trial is an independent hash of
    /// `(seed, x, y, b)`, so the result is bit-identical across thread
    /// widths, platforms, and iteration orders. An empty `kinds` slice
    /// or a non-positive density yields the pristine surface.
    pub fn random_in(
        seed: u64,
        density: f64,
        kinds: &[DefectKind],
        width_cells: i32,
        height_rows: i32,
    ) -> Self {
        let mut defects = Vec::new();
        if kinds.is_empty() || density.is_nan() || density <= 0.0 {
            return DefectMap::new(defects);
        }
        for y in 0..height_rows {
            for x in 0..width_cells {
                for b in 0..2u8 {
                    let h = site_hash(seed, x, y, b);
                    if unit_f64(h) < density {
                        // Re-finalize for the species draw so it is
                        // independent of the occupancy draw.
                        let kind = kinds[(site_hash(h, x, y, b) % kinds.len() as u64) as usize];
                        defects.push(Defect {
                            position: LatticeCoord::new(x, y, b),
                            kind,
                        });
                    }
                }
            }
        }
        DefectMap::new(defects)
    }

    /// Parses a `seed:density[:kind,kind,...]` spec (no file access).
    ///
    /// # Errors
    ///
    /// Returns a typed [`SurfaceSpecError`] on malformed input; never
    /// panics.
    pub fn parse_spec(spec: &str) -> Result<DefectMap, SurfaceSpecError> {
        let mut parts = spec.splitn(3, ':');
        let seed_s = parts.next().unwrap_or("").trim();
        let density_s = parts.next().unwrap_or("").trim();
        let seed: u64 = seed_s
            .parse()
            .map_err(|_| SurfaceSpecError::BadSeed(seed_s.to_string()))?;
        let density: f64 = density_s
            .parse()
            .map_err(|_| SurfaceSpecError::BadDensity(density_s.to_string()))?;
        if !density.is_finite() || !(0.0..=1.0).contains(&density) {
            return Err(SurfaceSpecError::BadDensity(density_s.to_string()));
        }
        let kinds = match parts.next() {
            None => DefectKind::ALL.to_vec(),
            Some(list) => {
                let mut kinds = Vec::new();
                for token in list.split(',') {
                    let token = token.trim();
                    let kind = DefectKind::from_label(token)
                        .ok_or_else(|| SurfaceSpecError::BadKind(token.to_string()))?;
                    kinds.push(kind);
                }
                kinds
            }
        };
        Ok(DefectMap::random(seed, density, &kinds))
    }

    /// Parses the defect-map file format: one `kind x y b` entry per
    /// line, `#` comments and blank lines ignored (no file access —
    /// the caller supplies the contents).
    ///
    /// # Errors
    ///
    /// Returns a typed [`SurfaceSpecError`] on malformed input; never
    /// panics.
    pub fn parse_file(contents: &str) -> Result<DefectMap, SurfaceSpecError> {
        let mut defects = Vec::new();
        for (idx, raw) in contents.lines().enumerate() {
            let line = idx + 1;
            let text = raw.split('#').next().unwrap_or("").trim();
            if text.is_empty() {
                continue;
            }
            let fields: Vec<&str> = text.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(SurfaceSpecError::BadLine {
                    line,
                    reason: format!("expected 'kind x y b', got {} fields", fields.len()),
                });
            }
            let kind = DefectKind::from_label(fields[0]).ok_or(SurfaceSpecError::BadLine {
                line,
                reason: format!("unknown defect kind '{}'", fields[0]),
            })?;
            let x: i32 = fields[1].parse().map_err(|_| SurfaceSpecError::BadLine {
                line,
                reason: format!("bad x coordinate '{}'", fields[1]),
            })?;
            let y: i32 = fields[2].parse().map_err(|_| SurfaceSpecError::BadLine {
                line,
                reason: format!("bad y coordinate '{}'", fields[2]),
            })?;
            let b: u8 = match fields[3] {
                "0" => 0,
                "1" => 1,
                other => {
                    return Err(SurfaceSpecError::BadLine {
                        line,
                        reason: format!("bad sub-lattice index '{other}' (expected 0 or 1)"),
                    })
                }
            };
            defects.push(Defect {
                position: LatticeCoord::new(x, y, b),
                kind,
            });
        }
        Ok(DefectMap::new(defects))
    }

    /// Resolves a `SURFACE_DEFECTS`-style spec: a `seed:density[:kinds]`
    /// string, or the path of a defect-map file.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SurfaceSpecError`] on unreadable files or
    /// malformed contents; never panics.
    pub fn from_spec(spec: &str) -> Result<DefectMap, SurfaceSpecError> {
        let spec = spec.trim();
        // `seed:density` specs always contain a ':' whose left half is a
        // pure integer; anything else is treated as a path.
        if let Some((head, _)) = spec.split_once(':') {
            if head.trim().parse::<u64>().is_ok() {
                return Self::parse_spec(spec);
            }
        }
        let contents = std::fs::read_to_string(spec)
            .map_err(|e| SurfaceSpecError::Io(format!("{spec}: {e}")))?;
        Self::parse_file(&contents)
    }

    /// The external electrostatic potential each site of `layout` sees
    /// from the surface's charged defects:
    /// `ext_i = Σ_d q_d · v(max(dist(i, d), r_min))`, with the same
    /// interaction cutoff the [`crate::charge::InteractionMatrix`]
    /// applies to site–site terms. Structural (neutral) kinds contribute
    /// nothing here — their effect is purely exclusionary.
    pub(crate) fn external_potentials(
        &self,
        layout: &SidbLayout,
        params: &PhysicalParams,
    ) -> Vec<f64> {
        let mut ext = vec![0.0; layout.num_sites()];
        for defect in &self.defects {
            let q = defect.kind.charge_number();
            if q == 0 {
                continue;
            }
            for (site, slot) in layout.sites().iter().zip(ext.iter_mut()) {
                let d = site
                    .distance_angstrom(defect.position)
                    .max(MIN_DEFECT_DISTANCE_ANGSTROM);
                let mut e = params.interaction_ev(d);
                if e < params.interaction_cutoff_ev {
                    e = 0.0;
                }
                *slot += e * q as f64;
            }
        }
        ext
    }

    /// The reach (Å) within which one defect of `kind` matters for a
    /// tile: the structural exclusion radius, or — for charged kinds —
    /// the distance at which its screened potential still exceeds
    /// `threshold_ev`, whichever is larger. Solved by bisection on the
    /// strictly decreasing `v(d)`.
    fn reach_angstrom(kind: DefectKind, params: &PhysicalParams, threshold_ev: f64) -> f64 {
        let exclusion = kind.exclusion_radius_angstrom();
        let q = kind.charge_number().unsigned_abs() as f64;
        if q == 0.0 || threshold_ev <= 0.0 {
            return exclusion;
        }
        let mut lo = MIN_DEFECT_DISTANCE_ANGSTROM;
        let mut hi = 100.0 * params.lambda_tf_nm.max(1.0) * 10.0;
        if q * params.interaction_ev(lo) <= threshold_ev {
            return exclusion;
        }
        if q * params.interaction_ev(hi) > threshold_ev {
            return hi.max(exclusion);
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if q * params.interaction_ev(mid) > threshold_ev {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi.max(exclusion)
    }

    /// Tiles of a `max_w × max_h` hexagonal (Bestagon) floor plan whose
    /// footprint a defect collides with or perturbs beyond
    /// `threshold_ev`; tile `(tx, ty)` occupies the cell rectangle rooted
    /// at [`hex_tile_origin`]. A tile is compromised when a defect falls
    /// inside that rectangle dilated by the defect kind's reach (a
    /// conservative rectangle test: the defect could then shift some dot
    /// of the tile past the threshold).
    pub fn compromised_hex_tiles(
        &self,
        params: &PhysicalParams,
        threshold_ev: f64,
        max_w: i32,
        max_h: i32,
    ) -> Vec<(i32, i32)> {
        let mut out = Vec::new();
        if self.defects.is_empty() {
            return out;
        }
        // Pre-compute per-kind reach in cells/rows once.
        let margins: Vec<(i32, i32)> = DefectKind::ALL
            .iter()
            .map(|&k| {
                let reach = Self::reach_angstrom(k, params, threshold_ev);
                (
                    (reach / SIQAD_LATTICE.a).ceil() as i32,
                    (reach / SIQAD_LATTICE.b).ceil() as i32,
                )
            })
            .collect();
        let margin_of = |kind: DefectKind| -> (i32, i32) {
            let idx = DefectKind::ALL.iter().position(|&k| k == kind).unwrap_or(0);
            margins[idx]
        };
        for ty in 0..max_h {
            for tx in 0..max_w {
                let (ox, oy) = hex_tile_origin(tx, ty);
                let hit = self.defects.iter().any(|d| {
                    let (mx, my) = margin_of(d.kind);
                    d.position.x >= ox - mx
                        && d.position.x < ox + HEX_TILE_WIDTH_CELLS + mx
                        && d.position.y >= oy - my
                        && d.position.y < oy + HEX_ROW_PITCH_ROWS + my
                });
                if hit {
                    out.push((tx, ty));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charged(kind: DefectKind, x: i32, y: i32) -> DefectMap {
        DefectMap::new(vec![Defect {
            position: LatticeCoord::new(x, y, 0),
            kind,
        }])
    }

    #[test]
    fn each_kind_perturbs_by_hand_computed_screened_coulomb() {
        // One site at the origin, one defect 10 cells east (38.4 Å):
        // ext = q · 14.399645/5.6 · exp(−38.4/50)/38.4.
        let params = PhysicalParams::default();
        let layout = SidbLayout::from_sites([(0, 0, 0)]);
        let d = 10.0 * SIQAD_LATTICE.a;
        let v = crate::model::COULOMB_EV_ANGSTROM / params.epsilon_r * (-d / 50.0).exp() / d;
        for kind in DefectKind::ALL {
            let ext = charged(kind, 10, 0).external_potentials(&layout, &params);
            let expected = v * kind.charge_number() as f64;
            assert!(
                (ext[0] - expected).abs() < 1e-12,
                "{kind}: {} vs {expected}",
                ext[0]
            );
        }
    }

    #[test]
    fn coincident_defect_is_clamped_not_infinite() {
        let params = PhysicalParams::default();
        let layout = SidbLayout::from_sites([(0, 0, 0)]);
        let ext = charged(DefectKind::DbPair, 0, 0).external_potentials(&layout, &params);
        assert!(ext[0].is_finite());
        assert!(ext[0] < -1.0, "clamped potential is huge: {}", ext[0]);
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let a = DefectMap::random(7, 1e-4, &DefectKind::ALL);
        let b = DefectMap::random(7, 1e-4, &DefectKind::ALL);
        let c = DefectMap::random(8, 1e-4, &DefectKind::ALL);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty(), "1e-4 over the default region yields defects");
    }

    #[test]
    fn random_density_scales_counts() {
        let lo = DefectMap::random(1, 1e-4, &DefectKind::ALL).len();
        let hi = DefectMap::random(1, 1e-3, &DefectKind::ALL).len();
        assert!(hi > lo);
        assert!(DefectMap::random(1, 0.0, &DefectKind::ALL).is_empty());
        assert!(DefectMap::random(1, 0.5, &[]).is_empty());
    }

    #[test]
    fn spec_parser_round_trips_and_rejects_garbage() {
        let m = DefectMap::parse_spec("7:0.0001").expect("valid spec");
        assert_eq!(m, DefectMap::random(7, 1e-4, &DefectKind::ALL));
        let only_db = DefectMap::parse_spec("7:0.0001:db_pair").expect("valid spec");
        assert!(only_db
            .defects()
            .iter()
            .all(|d| d.kind == DefectKind::DbPair));
        assert!(matches!(
            DefectMap::parse_spec("x:0.1"),
            Err(SurfaceSpecError::BadSeed(_))
        ));
        assert!(matches!(
            DefectMap::parse_spec("7:nan"),
            Err(SurfaceSpecError::BadDensity(_))
        ));
        assert!(matches!(
            DefectMap::parse_spec("7:2.0"),
            Err(SurfaceSpecError::BadDensity(_))
        ));
        assert!(matches!(
            DefectMap::parse_spec("7:0.1:unobtainium"),
            Err(SurfaceSpecError::BadKind(_))
        ));
    }

    #[test]
    fn file_parser_reads_entries_and_reports_lines() {
        let m = DefectMap::parse_file(
            "# a scanned surface\n\
             arsenic_dimer 12 5 0\n\
             db_pair 40 11 1  # inline comment\n\
             \n\
             siloxane -3 0 0\n",
        )
        .expect("valid file");
        assert_eq!(m.len(), 3);
        assert_eq!(m.defects()[1].position, LatticeCoord::new(40, 11, 1));
        let err = DefectMap::parse_file("db_pair 1 2\n").unwrap_err();
        assert!(matches!(err, SurfaceSpecError::BadLine { line: 1, .. }));
        let err = DefectMap::parse_file("ok 1 2 0\n").unwrap_err();
        assert!(matches!(err, SurfaceSpecError::BadLine { line: 1, .. }));
        let err = DefectMap::parse_file("db_pair 1 2 7\n").unwrap_err();
        assert!(matches!(err, SurfaceSpecError::BadLine { line: 1, .. }));
    }

    #[test]
    fn compromised_tiles_are_local_to_the_defect() {
        let params = PhysicalParams::default();
        // One charged defect in the middle of hex tile (1, 1).
        let (ox, oy) = hex_tile_origin(1, 1);
        let map = DefectMap::new(vec![Defect {
            position: LatticeCoord::new(ox + 30, oy + 11, 0),
            kind: DefectKind::DbPair,
        }]);
        let bad = map.compromised_hex_tiles(&params, 2e-3, 4, 4);
        assert!(bad.contains(&(1, 1)));
        // The far corner is out of reach (several tiles away).
        assert!(!bad.contains(&(3, 3)));
        assert!(map
            .compromised_hex_tiles(&params, 2e-3, 4, 4)
            .iter()
            .all(|&(x, y)| (0..4).contains(&x) && (0..4).contains(&y)));
    }

    #[test]
    fn pristine_surface_compromises_nothing() {
        let params = PhysicalParams::default();
        assert!(DefectMap::pristine()
            .compromised_hex_tiles(&params, 2e-3, 10, 10)
            .is_empty());
    }
}
