//! Charge configurations and their stability.
//!
//! A *charge configuration* assigns each SiDB of a layout a charge state.
//! A configuration is *physically valid* — i.e. a metastable state the
//! surface can actually settle into — when it satisfies
//!
//! * **population stability**: each site's charge state is consistent
//!   with its local potential relative to the `(0/−)` transition level, and
//! * **configuration stability**: no single electron hop to another site
//!   lowers the total energy.
//!
//! These are the validity criteria of the SiQAD physics engine the paper
//! simulates its gates with.

use crate::layout::SidbLayout;
use crate::model::PhysicalParams;

/// The charge state of a single SiDB (2 or 1 electrons ↔ negative,
/// neutral). The positive state (no electron) is not modelled: it needs
/// a local potential below `μ+ = μ− − 0.59 eV`, which no site of any
/// Bestagon tile's ground state reaches (the closest stays 20 meV above).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChargeState {
    /// Two electrons: net charge −e.
    Negative,
    /// One electron: neutral.
    #[default]
    Neutral,
}

impl ChargeState {
    /// Net charge in units of the elementary charge.
    pub(crate) const fn charge_number(self) -> i8 {
        match self {
            ChargeState::Negative => -1,
            ChargeState::Neutral => 0,
        }
    }
}

impl core::fmt::Display for ChargeState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            ChargeState::Negative => "−",
            ChargeState::Neutral => "0",
        })
    }
}

/// Pre-computed pairwise interactions of a layout under fixed parameters.
///
/// Building this once and sharing it across configuration evaluations is
/// what makes the exact searches affordable.
#[derive(Debug, Clone)]
pub struct InteractionMatrix {
    n: usize,
    /// Row-major `n × n`, diagonal zero, eV.
    v: Vec<f64>,
    /// Per-site external potential (eV), e.g. from surface defects.
    /// Empty on the pristine path — every engine gates its external
    /// arithmetic on [`InteractionMatrix::has_external`], so a pristine
    /// matrix executes bit-identical code to before the field existed.
    ext: Vec<f64>,
    params: PhysicalParams,
}

impl InteractionMatrix {
    /// Computes all pairwise screened-Coulomb interactions.
    pub fn new(layout: &SidbLayout, params: &PhysicalParams) -> Self {
        let n = layout.num_sites();
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let mut e = params.interaction_ev(layout.distance_angstrom(i, j));
                if e < params.interaction_cutoff_ev {
                    e = 0.0;
                }
                v[i * n + j] = e;
                v[j * n + i] = e;
            }
        }
        InteractionMatrix {
            n,
            v,
            ext: Vec::new(),
            params: *params,
        }
    }

    /// Attaches a per-site external potential (eV) — typically
    /// [`crate::defects::DefectMap::external_potentials`]. The energy
    /// model becomes `E = Σ_{i<j} v_ij·n_i·n_j + Σ_i ext_i·n_i` and the
    /// local potential `V_i = ext_i + Σ_j v_ij·n_j`; every engine and
    /// stability check honors the offsets. An all-zero vector is
    /// dropped, keeping the matrix on the pristine fast path.
    ///
    /// # Panics
    ///
    /// Panics if `ext.len()` differs from the number of sites.
    pub(crate) fn with_external(mut self, ext: Vec<f64>) -> Self {
        assert_eq!(ext.len(), self.n, "external potential length mismatch");
        if ext.iter().any(|&e| e != 0.0) {
            self.ext = ext;
        } else {
            self.ext.clear();
        }
        self
    }

    /// True when an external potential is attached.
    #[inline]
    pub(crate) fn has_external(&self) -> bool {
        !self.ext.is_empty()
    }

    /// The external potential at site `i`, eV (0 on the pristine path).
    #[inline]
    pub(crate) fn external(&self, i: usize) -> f64 {
        if self.ext.is_empty() {
            0.0
        } else {
            self.ext[i]
        }
    }

    /// The external potentials of all sites, or `None` on the pristine
    /// path.
    pub(crate) fn external_slice(&self) -> Option<&[f64]> {
        if self.ext.is_empty() {
            None
        } else {
            Some(&self.ext)
        }
    }

    /// Builds the matrix of `layout` by reusing every interaction whose
    /// two sites both appear in `base_layout` (whose matrix `base` is),
    /// computing only the pairs that involve new sites.
    ///
    /// Gate validation simulates the same body under `2^k` input
    /// patterns that differ only in a handful of perturber dots; sharing
    /// the body-to-body block across patterns removes the dominant
    /// O(n²) rebuild per pattern. The reused values are the stored ones,
    /// so the result is bit-identical to [`InteractionMatrix::new`].
    ///
    /// # Panics
    ///
    /// Panics if `base` was not built from `base_layout` with `params`,
    /// or carries an external potential (external offsets are per-site
    /// and do not transfer across layouts — re-attach them on the
    /// result with [`InteractionMatrix::with_external`]).
    pub(crate) fn extended(
        base: &InteractionMatrix,
        base_layout: &SidbLayout,
        layout: &SidbLayout,
        params: &PhysicalParams,
    ) -> Self {
        assert_eq!(base.n, base_layout.num_sites(), "base matrix mismatch");
        assert_eq!(base.params, *params, "base params mismatch");
        assert!(
            !base.has_external(),
            "extend pristine matrices only; re-attach external potentials on the result"
        );
        let n = layout.num_sites();
        let in_base: Vec<Option<usize>> = layout
            .sites()
            .iter()
            .map(|&s| base_layout.index_of(s))
            .collect();
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let e = match (in_base[i], in_base[j]) {
                    (Some(bi), Some(bj)) => base.interaction(bi, bj),
                    _ => {
                        let mut e = params.interaction_ev(layout.distance_angstrom(i, j));
                        if e < params.interaction_cutoff_ev {
                            e = 0.0;
                        }
                        e
                    }
                };
                v[i * n + j] = e;
                v[j * n + i] = e;
            }
        }
        InteractionMatrix {
            n,
            v,
            ext: Vec::new(),
            params: *params,
        }
    }

    /// Number of sites.
    pub(crate) fn num_sites(&self) -> usize {
        self.n
    }

    /// The interaction energy between sites `i` and `j`, eV.
    #[inline]
    pub(crate) fn interaction(&self, i: usize, j: usize) -> f64 {
        self.v[i * self.n + j]
    }

    /// The physical parameters the matrix was built with.
    pub(crate) fn params(&self) -> &PhysicalParams {
        &self.params
    }
}

/// A full assignment of charge states to the sites of a layout.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChargeConfiguration {
    states: Vec<ChargeState>,
}

impl ChargeConfiguration {
    /// The all-neutral configuration over `n` sites.
    pub(crate) fn neutral(n: usize) -> Self {
        ChargeConfiguration {
            states: vec![ChargeState::Neutral; n],
        }
    }

    /// Builds a configuration from explicit states.
    pub(crate) fn from_states(states: Vec<ChargeState>) -> Self {
        ChargeConfiguration { states }
    }

    /// The state of site `i`.
    pub fn state(&self, i: usize) -> ChargeState {
        self.states[i]
    }

    /// Sets the state of site `i`.
    pub(crate) fn set_state(&mut self, i: usize, s: ChargeState) {
        self.states[i] = s;
    }

    /// All states as a slice.
    pub fn states(&self) -> &[ChargeState] {
        &self.states
    }

    /// The electrostatic energy `E = Σ_{i<j} v_ij·n_i·n_j` plus, when
    /// the matrix carries an external potential,
    /// `Σ_i ext_i·n_i` (the defect–site coupling), eV.
    pub(crate) fn electrostatic_energy(&self, m: &InteractionMatrix) -> f64 {
        let mut e = 0.0;
        for i in 0..self.states.len() {
            let ni = self.states[i].charge_number();
            if ni == 0 {
                continue;
            }
            for j in (i + 1)..self.states.len() {
                let nj = self.states[j].charge_number();
                if nj != 0 {
                    e += m.interaction(i, j) * (ni as f64) * (nj as f64);
                }
            }
        }
        if m.has_external() {
            for i in 0..self.states.len() {
                let ni = self.states[i].charge_number();
                if ni != 0 {
                    e += m.external(i) * ni as f64;
                }
            }
        }
        e
    }

    /// The grand-potential free energy `F = E + μ−·N⁻`, i.e. the
    /// electrostatic energy plus `μ−` per negative site. Valid
    /// configurations with minimal `F` are the thermodynamic ground
    /// states.
    pub(crate) fn free_energy(&self, m: &InteractionMatrix) -> f64 {
        let mu_minus = m.params().mu_minus;
        let mut f = self.electrostatic_energy(m);
        for s in &self.states {
            if *s == ChargeState::Negative {
                f += mu_minus;
            }
        }
        f
    }

    /// The local potential `V_i = ext_i + Σ_{j≠i} v_ij·n_j` at site
    /// `i`, eV (`ext` is zero on the pristine path).
    // Pointwise reference that the tests compare `local_potentials` against.
    #[allow(dead_code)]
    pub(crate) fn local_potential(&self, m: &InteractionMatrix, i: usize) -> f64 {
        let mut v = if m.has_external() { m.external(i) } else { 0.0 };
        for j in 0..self.states.len() {
            if j != i {
                let nj = self.states[j].charge_number();
                if nj != 0 {
                    v += m.interaction(i, j) * nj as f64;
                }
            }
        }
        v
    }

    /// All local potentials at once (O(n²) instead of n × O(n)).
    pub(crate) fn local_potentials(&self, m: &InteractionMatrix) -> Vec<f64> {
        let n = self.states.len();
        let mut v = match m.external_slice() {
            Some(ext) => ext.to_vec(),
            None => vec![0.0; n],
        };
        for j in 0..n {
            let nj = self.states[j].charge_number();
            if nj == 0 {
                continue;
            }
            for (i, vi) in v.iter_mut().enumerate() {
                if i != j {
                    *vi += m.interaction(i, j) * nj as f64;
                }
            }
        }
        v
    }

    /// Population stability: every site's charge state must be consistent
    /// with its local potential and the transition level:
    ///
    /// * negative ⇒ `V_i ≥ μ−` (removing the electron must not pay off),
    /// * neutral ⇒ `V_i ≤ μ−`.
    pub(crate) fn is_population_stable(&self, m: &InteractionMatrix) -> bool {
        const EPS: f64 = 1e-9;
        let mu_minus = m.params().mu_minus;
        let potentials = self.local_potentials(m);
        self.states.iter().zip(&potentials).all(|(s, &v)| match s {
            ChargeState::Negative => v >= mu_minus - EPS,
            ChargeState::Neutral => v <= mu_minus + EPS,
        })
    }

    /// Configuration stability: no single electron hop from a negative
    /// site `i` to a non-negative site `j` may lower the energy
    /// (`ΔE = V_i − V_j − v_ij ≥ 0`).
    pub(crate) fn is_configuration_stable(&self, m: &InteractionMatrix) -> bool {
        const EPS: f64 = 1e-9;
        let potentials = self.local_potentials(m);
        for i in 0..self.states.len() {
            if self.states[i] != ChargeState::Negative {
                continue;
            }
            for j in 0..self.states.len() {
                if i == j || self.states[j] == ChargeState::Negative {
                    continue;
                }
                let delta = potentials[i] - potentials[j] - m.interaction(i, j);
                if delta < -EPS {
                    return false;
                }
            }
        }
        true
    }

    /// Full physical validity: population **and** configuration stability.
    pub fn is_physically_valid(&self, m: &InteractionMatrix) -> bool {
        self.is_population_stable(m) && self.is_configuration_stable(m)
    }
}

impl core::fmt::Display for ChargeConfiguration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for s in &self.states {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Decodes bit `i` of `index` as site `i`'s two-state charge
    /// (1 = negative).
    pub(crate) fn from_index(n: usize, index: u64) -> ChargeConfiguration {
        ChargeConfiguration::from_states(
            (0..n)
                .map(|i| match (index >> i) & 1 {
                    1 => ChargeState::Negative,
                    _ => ChargeState::Neutral,
                })
                .collect(),
        )
    }

    /// Number of negatively charged sites.
    pub(crate) fn num_negative(config: &ChargeConfiguration) -> usize {
        config
            .states()
            .iter()
            .filter(|s| **s == ChargeState::Negative)
            .count()
    }

    fn single_dot() -> (SidbLayout, InteractionMatrix) {
        let layout = SidbLayout::from_sites([(0, 0, 0)]);
        let m = InteractionMatrix::new(&layout, &PhysicalParams::default());
        (layout, m)
    }

    fn pair(dx: i32) -> (SidbLayout, InteractionMatrix) {
        let layout = SidbLayout::from_sites([(0, 0, 0), (dx, 0, 0)]);
        let m = InteractionMatrix::new(&layout, &PhysicalParams::default());
        (layout, m)
    }

    #[test]
    fn isolated_dot_must_be_negative() {
        let (_, m) = single_dot();
        let neg = ChargeConfiguration::from_states(vec![ChargeState::Negative]);
        let neu = ChargeConfiguration::from_states(vec![ChargeState::Neutral]);
        assert!(neg.is_physically_valid(&m));
        assert!(!neu.is_physically_valid(&m));
    }

    #[test]
    fn close_pair_holds_one_electron() {
        // Two dots one lattice cell apart (3.84 Å): interaction ≫ |μ−|.
        let (_, m) = pair(1);
        let both = from_index(2, 0b11);
        let one = from_index(2, 0b01);
        let none = from_index(2, 0b00);
        assert!(!both.is_population_stable(&m));
        assert!(one.is_physically_valid(&m));
        assert!(!none.is_population_stable(&m));
    }

    #[test]
    fn far_pair_holds_two_electrons() {
        // 40 cells ≈ 15 nm apart: weakly interacting.
        let (_, m) = pair(40);
        let both = from_index(2, 0b11);
        assert!(both.is_physically_valid(&m));
        let one = from_index(2, 0b01);
        assert!(
            !one.is_population_stable(&m),
            "far neutral site must charge up"
        );
    }

    #[test]
    fn energies_match_hand_computation() {
        let (layout, m) = pair(10);
        let d = layout.distance_angstrom(0, 1);
        let v = PhysicalParams::default().interaction_ev(d);
        let both = from_index(2, 0b11);
        assert!((both.electrostatic_energy(&m) - v).abs() < 1e-12);
        let f = both.free_energy(&m);
        assert!((f - (v + 2.0 * (-0.32))).abs() < 1e-12);
    }

    #[test]
    fn local_potentials_agree_with_pointwise() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (4, 1, 0), (9, 2, 1), (15, 0, 0)]);
        let m = InteractionMatrix::new(&layout, &PhysicalParams::default());
        let cfg = from_index(4, 0b1011);
        let all = cfg.local_potentials(&m);
        for (i, &v) in all.iter().enumerate() {
            assert!((v - cfg.local_potential(&m, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn hop_instability_is_detected() {
        // Three dots in a line; electron on the middle dot with a far
        // electron pushing it: hopping outward lowers energy.
        let layout = SidbLayout::from_sites([(0, 0, 0), (3, 0, 0), (30, 0, 0)]);
        let m = InteractionMatrix::new(&layout, &PhysicalParams::default());
        // Negative at sites 0 and 1 (adjacent) is population-unstable
        // anyway; craft a configuration-unstable case instead: electron at
        // site 1 (middle) and site 2 (far right); site 0 empty. Hopping
        // 1 → 0 moves the electron away from site 2 and lowers energy.
        let cfg = ChargeConfiguration::from_states(vec![
            ChargeState::Neutral,
            ChargeState::Negative,
            ChargeState::Negative,
        ]);
        let pots = cfg.local_potentials(&m);
        // Precondition of the scenario: V_1 < V_0 − v_01 means the test
        // setup really favours the hop.
        let delta = pots[1] - pots[0] - m.interaction(0, 1);
        if delta < 0.0 {
            assert!(!cfg.is_configuration_stable(&m));
        }
        // The mirror configuration (electron at 0) is hop-stable.
        let good = ChargeConfiguration::from_states(vec![
            ChargeState::Negative,
            ChargeState::Neutral,
            ChargeState::Negative,
        ]);
        assert!(good.is_configuration_stable(&m));
    }

    #[test]
    fn extended_matrix_matches_fresh_construction() {
        let params = PhysicalParams::default();
        let base_layout = SidbLayout::from_sites([(0, 0, 0), (4, 1, 0), (9, 2, 1)]);
        let base = InteractionMatrix::new(&base_layout, &params);
        let mut layout = base_layout.clone();
        layout.add_site((0, -4, 0));
        layout.add_site((12, 5, 1));
        let fresh = InteractionMatrix::new(&layout, &params);
        let extended = InteractionMatrix::extended(&base, &base_layout, &layout, &params);
        let n = layout.num_sites();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    fresh.interaction(i, j).to_bits(),
                    extended.interaction(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn display_shows_states() {
        let cfg = ChargeConfiguration::from_states(vec![
            ChargeState::Negative,
            ChargeState::Neutral,
            ChargeState::Negative,
        ]);
        assert_eq!(cfg.to_string(), "−0−");
    }
}
