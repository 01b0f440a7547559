//! The electrostatic model of SiDB charge systems.
//!
//! SiDBs interact through a screened Coulomb potential (Thomas–Fermi
//! screening by bulk carriers):
//!
//! ```text
//! v(d) = (e² / 4πε₀ε_r) · exp(−d/λ_TF) / d      [eV, d in Å]
//! ```
//!
//! A site's charge state is governed by its *local potential* `V_i =
//! Σ_j v_ij·n_j` relative to the charge-transition levels `μ−` (0/−) and
//! `μ+` (+/0). The defaults reproduce the simulation setups of the paper's
//! Figure 5 (`μ− = −0.32 eV`, `ε_r = 5.6`, `λ_TF = 5 nm`); Figure 1c uses
//! `μ− = −0.28 eV` via [`PhysicalParams::with_mu_minus`].

/// Coulomb constant times elementary charge squared, in eV·Å.
pub(crate) const COULOMB_EV_ANGSTROM: f64 = 14.399645;

/// Separation of the `(+/0)` and `(0/−)` charge-transition levels
/// (intra-dot Coulomb repulsion), in eV. Only relevant in three-state
/// simulations.
pub(crate) const TRANSITION_LEVEL_SEPARATION_EV: f64 = 0.59;

/// Physical parameters of an SiDB simulation.
///
/// # Examples
///
/// ```
/// use sidb_sim::model::PhysicalParams;
///
/// let fig5 = PhysicalParams::default();
/// assert_eq!(fig5.mu_minus, -0.32);
/// let fig1c = PhysicalParams::default().with_mu_minus(-0.28);
/// assert_eq!(fig1c.mu_minus, -0.28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalParams {
    /// The `(0/−)` charge-transition level relative to the Fermi level, eV.
    pub mu_minus: f64,
    /// Relative permittivity of the silicon environment.
    pub epsilon_r: f64,
    /// Thomas–Fermi screening length, nm.
    pub lambda_tf_nm: f64,
    /// Whether positive charge states are modelled. The paper's
    /// configurations never populate them, so the default is the faster
    /// two-state model.
    pub(crate) three_state: bool,
    /// Interactions below this energy (eV) are treated as zero. `0.0`
    /// keeps the full screened-Coulomb model; a small cutoff (1–2 meV)
    /// decomposes far-apart sub-structures into independent clusters,
    /// which the exact engines exploit. A documented approximation in the
    /// spirit of SiQAD's simulation-domain truncation.
    pub(crate) interaction_cutoff_ev: f64,
}

impl Default for PhysicalParams {
    /// The paper's Figure 5 setup: `μ− = −0.32 eV`, `ε_r = 5.6`,
    /// `λ_TF = 5 nm`, two-state.
    fn default() -> Self {
        PhysicalParams {
            mu_minus: -0.32,
            epsilon_r: 5.6,
            lambda_tf_nm: 5.0,
            three_state: false,
            interaction_cutoff_ev: 0.0,
        }
    }
}

impl PhysicalParams {
    /// Returns a copy with a different `μ−`.
    pub fn with_mu_minus(mut self, mu_minus: f64) -> Self {
        self.mu_minus = mu_minus;
        self
    }

    /// Returns a copy with the three-state model enabled.
    // The paper's {−,0,+} charge model; the tests that switch it on are its only callers.
    #[allow(dead_code)]
    pub(crate) fn with_three_state(mut self) -> Self {
        self.three_state = true;
        self
    }

    /// Returns a copy with an interaction cutoff (eV).
    pub fn with_cutoff(mut self, cutoff_ev: f64) -> Self {
        self.interaction_cutoff_ev = cutoff_ev;
        self
    }

    /// The `(+/0)` transition level, eV.
    pub(crate) fn mu_plus(&self) -> f64 {
        self.mu_minus - TRANSITION_LEVEL_SEPARATION_EV
    }

    /// The screened Coulomb interaction energy of two elementary charges
    /// at distance `d` ångström, in eV.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not strictly positive — two SiDBs cannot share a
    /// lattice site.
    pub(crate) fn interaction_ev(&self, d_angstrom: f64) -> f64 {
        assert!(d_angstrom > 0.0, "sites must be distinct");
        let lambda = self.lambda_tf_nm * 10.0;
        COULOMB_EV_ANGSTROM / self.epsilon_r * (-d_angstrom / lambda).exp() / d_angstrom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interaction_decreases_with_distance() {
        let p = PhysicalParams::default();
        let mut prev = f64::INFINITY;
        for d in [2.25, 3.84, 7.68, 20.0, 100.0] {
            let v = p.interaction_ev(d);
            assert!(v > 0.0 && v < prev);
            prev = v;
        }
    }

    #[test]
    fn screening_suppresses_long_range() {
        let p = PhysicalParams::default();
        // At 5 nm (one screening length) the bare Coulomb value is reduced
        // by a factor e.
        let bare = COULOMB_EV_ANGSTROM / p.epsilon_r / 50.0;
        let screened = p.interaction_ev(50.0);
        assert!((screened - bare / core::f64::consts::E).abs() < 1e-9);
    }

    #[test]
    fn dimer_neighbours_interact_strongly() {
        // Two dots of one dimer pair (2.25 Å) repel with more than 1 eV —
        // far above |μ−|, which is why a BDL pair holds only one electron.
        let p = PhysicalParams::default();
        assert!(p.interaction_ev(2.25) > 1.0);
    }

    #[test]
    fn mu_plus_sits_below_mu_minus() {
        let p = PhysicalParams::default();
        assert!(p.mu_plus() < p.mu_minus);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn zero_distance_panics() {
        PhysicalParams::default().interaction_ev(0.0);
    }
}
