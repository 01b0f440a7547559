//! A SimAnneal-style simulated-annealing ground-state finder.
//!
//! SiQAD's *SimAnneal* engine explores the charge-configuration space
//! with Metropolis dynamics. This re-implementation runs several
//! independent annealing instances with a geometric temperature schedule
//! and two move types — single-site charge flips and electron hops —
//! followed by a greedy descent.
//!
//! The greedy-descent finish guarantees physical validity: a
//! configuration from which no single flip lowers the free energy is
//! population-stable, and one from which no hop lowers the energy is
//! configuration-stable; a local minimum under both move types is
//! therefore exactly a *physically valid* state.

use crate::charge::{ChargeConfiguration, ChargeState, InteractionMatrix};
use crate::exgs::SimulatedState;
use crate::layout::SidbLayout;
use crate::model::PhysicalParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs of the annealer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealParams {
    /// Number of independent annealing instances; the best result wins.
    pub instances: usize,
    /// Metropolis sweeps per instance (each sweep attempts one move per
    /// site).
    pub sweeps: usize,
    /// Initial temperature in eV (k_B·T units).
    pub initial_temperature: f64,
    /// Multiplicative cooling factor applied after every sweep.
    pub cooling: f64,
    /// RNG seed, for reproducible simulations.
    pub seed: u64,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            instances: 24,
            sweeps: 300,
            initial_temperature: 0.25,
            cooling: 0.975,
            seed: 0x5eed_cafe,
        }
    }
}

/// Internal annealing state with incrementally maintained potentials.
struct Anneal<'a> {
    m: &'a InteractionMatrix,
    params: &'a PhysicalParams,
    config: ChargeConfiguration,
    potentials: Vec<f64>,
    free_energy: f64,
}

impl<'a> Anneal<'a> {
    fn new(
        m: &'a InteractionMatrix,
        params: &'a PhysicalParams,
        config: ChargeConfiguration,
    ) -> Self {
        let potentials = config.local_potentials(m);
        let free_energy = config.free_energy(m);
        Anneal {
            m,
            params,
            config,
            potentials,
            free_energy,
        }
    }

    /// Free-energy change of flipping site `i`.
    fn flip_delta(&self, i: usize) -> f64 {
        match self.config.state(i) {
            ChargeState::Neutral => self.params.mu_minus - self.potentials[i],
            ChargeState::Negative => self.potentials[i] - self.params.mu_minus,
            ChargeState::Positive => unreachable!("two-state annealer"),
        }
    }

    fn apply_flip(&mut self, i: usize) {
        let (new_state, delta_n) = match self.config.state(i) {
            ChargeState::Neutral => (ChargeState::Negative, -1.0),
            ChargeState::Negative => (ChargeState::Neutral, 1.0),
            ChargeState::Positive => unreachable!("two-state annealer"),
        };
        self.free_energy += self.flip_delta(i);
        self.config.set_state(i, new_state);
        for j in 0..self.potentials.len() {
            if j != i {
                self.potentials[j] += delta_n * self.m.interaction(i, j);
            }
        }
    }

    /// Energy change of hopping an electron from negative `i` to neutral
    /// `j` (`ΔE = V_i − V_j − v_ij`; free energy changes identically).
    fn hop_delta(&self, i: usize, j: usize) -> f64 {
        self.potentials[i] - self.potentials[j] - self.m.interaction(i, j)
    }

    fn apply_hop(&mut self, i: usize, j: usize) {
        debug_assert_eq!(self.config.state(i), ChargeState::Negative);
        debug_assert_eq!(self.config.state(j), ChargeState::Neutral);
        self.free_energy += self.hop_delta(i, j);
        self.config.set_state(i, ChargeState::Neutral);
        self.config.set_state(j, ChargeState::Negative);
        for k in 0..self.potentials.len() {
            if k != i {
                self.potentials[k] += self.m.interaction(i, k);
            }
            if k != j {
                self.potentials[k] -= self.m.interaction(j, k);
            }
        }
    }

    /// Greedy descent to the nearest local minimum (= valid state).
    fn descend(&mut self) {
        const EPS: f64 = 1e-12;
        loop {
            let n = self.config.len();
            let mut improved = false;
            for i in 0..n {
                if self.flip_delta(i) < -EPS {
                    self.apply_flip(i);
                    improved = true;
                }
            }
            for i in 0..n {
                if self.config.state(i) != ChargeState::Negative {
                    continue;
                }
                for j in 0..n {
                    if self.config.state(j) == ChargeState::Neutral && self.hop_delta(i, j) < -EPS {
                        self.apply_hop(i, j);
                        improved = true;
                        break;
                    }
                }
            }
            if !improved {
                return;
            }
        }
    }
}

/// The annealing core (for [`crate::engine`]): the best physically
/// valid state over `anneal.instances` independent Metropolis runs.
/// `matrix`, when given, must belong to `layout` under `params`.
pub(crate) fn anneal_core(
    layout: &SidbLayout,
    params: &PhysicalParams,
    anneal: &AnnealParams,
    matrix: Option<&InteractionMatrix>,
) -> Option<SimulatedState> {
    assert!(
        !params.three_state,
        "the annealer implements the two-state model"
    );
    let n = layout.num_sites();
    if n == 0 {
        return None;
    }
    let owned;
    let m = match matrix {
        Some(m) => m,
        None => {
            owned = InteractionMatrix::new(layout, params);
            &owned
        }
    };
    let mut rng = StdRng::seed_from_u64(anneal.seed);
    let mut best: Option<SimulatedState> = None;
    let mut accepted: u64 = 0;

    for _ in 0..anneal.instances.max(1) {
        // Random initial population.
        let mut config = ChargeConfiguration::neutral(n);
        for i in 0..n {
            if rng.gen_bool(0.5) {
                config.set_state(i, ChargeState::Negative);
            }
        }
        let mut state = Anneal::new(m, params, config);
        let mut temperature = anneal.initial_temperature;
        for _ in 0..anneal.sweeps {
            for _ in 0..n {
                // Random move: 50% flip, 50% hop (when possible).
                if rng.gen_bool(0.5) {
                    let i = rng.gen_range(0..n);
                    let delta = state.flip_delta(i);
                    if delta <= 0.0 || rng.gen_bool((-delta / temperature).exp().min(1.0)) {
                        state.apply_flip(i);
                        accepted += 1;
                    }
                } else {
                    let negs: Vec<usize> = (0..n)
                        .filter(|&i| state.config.state(i) == ChargeState::Negative)
                        .collect();
                    let neus: Vec<usize> = (0..n)
                        .filter(|&i| state.config.state(i) == ChargeState::Neutral)
                        .collect();
                    if negs.is_empty() || neus.is_empty() {
                        continue;
                    }
                    let i = negs[rng.gen_range(0..negs.len())];
                    let j = neus[rng.gen_range(0..neus.len())];
                    let delta = state.hop_delta(i, j);
                    if delta <= 0.0 || rng.gen_bool((-delta / temperature).exp().min(1.0)) {
                        state.apply_hop(i, j);
                        accepted += 1;
                    }
                }
            }
            temperature *= anneal.cooling;
        }
        state.descend();
        debug_assert!(state.config.is_physically_valid(m));
        let candidate = SimulatedState {
            electrostatic_energy: state.config.electrostatic_energy(m),
            free_energy: state.free_energy,
            config: state.config,
        };
        if best
            .as_ref()
            .map(|b| candidate.free_energy < b.free_energy - 1e-12)
            .unwrap_or(true)
        {
            best = Some(candidate);
        }
    }
    let _ = accepted;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_with, SimEngine, SimParams};

    fn exhaustive_low_energy(
        layout: &SidbLayout,
        params: &PhysicalParams,
        k: usize,
    ) -> Vec<SimulatedState> {
        simulate_with(
            layout,
            &SimParams::new(*params)
                .with_engine(SimEngine::Exhaustive)
                .with_k(k),
        )
        .states
    }

    fn simulated_annealing(
        layout: &SidbLayout,
        params: &PhysicalParams,
        anneal: &AnnealParams,
    ) -> Option<SimulatedState> {
        simulate_with(
            layout,
            &SimParams::new(*params).with_engine(SimEngine::Anneal(*anneal)),
        )
        .states
        .pop()
    }

    #[test]
    fn annealer_matches_exhaustive_on_small_layouts() {
        let layouts = [
            SidbLayout::from_sites([(0, 0, 0), (2, 0, 0), (6, 0, 0), (8, 0, 0)]),
            SidbLayout::from_sites([(0, 0, 0), (4, 1, 1), (9, 2, 0), (1, 3, 0), (12, 0, 0)]),
            SidbLayout::from_sites([
                (0, 0, 0),
                (3, 0, 1),
                (6, 1, 0),
                (9, 1, 1),
                (12, 2, 0),
                (15, 2, 1),
            ]),
        ];
        let params = PhysicalParams::default();
        for layout in layouts {
            let exact = exhaustive_low_energy(&layout, &params, 1);
            let annealed =
                simulated_annealing(&layout, &params, &AnnealParams::default()).expect("non-empty");
            assert!(
                (annealed.free_energy - exact[0].free_energy).abs() < 1e-6,
                "annealer {} vs exact {}",
                annealed.free_energy,
                exact[0].free_energy
            );
        }
    }

    #[test]
    fn result_is_always_physically_valid() {
        let layout = SidbLayout::from_sites([
            (0, 0, 0),
            (2, 0, 0),
            (7, 1, 0),
            (9, 1, 0),
            (4, 2, 1),
            (14, 0, 0),
            (16, 0, 0),
        ]);
        let params = PhysicalParams::default();
        let m = InteractionMatrix::new(&layout, &params);
        let s = simulated_annealing(
            &layout,
            &params,
            &AnnealParams {
                instances: 5,
                ..Default::default()
            },
        )
        .expect("non-empty");
        assert!(s.config.is_physically_valid(&m));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (3, 0, 0), (8, 1, 0), (11, 1, 0)]);
        let params = PhysicalParams::default();
        let a = simulated_annealing(&layout, &params, &AnnealParams::default()).expect("ok");
        let b = simulated_annealing(&layout, &params, &AnnealParams::default()).expect("ok");
        assert_eq!(a.config, b.config);
    }

    #[test]
    fn empty_layout_yields_none() {
        assert!(simulated_annealing(
            &SidbLayout::new(),
            &PhysicalParams::default(),
            &AnnealParams::default()
        )
        .is_none());
    }
}
