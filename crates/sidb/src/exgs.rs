//! Exhaustive ground-state search (ExGS) — shared state types and limits.
//!
//! The exhaustive engine enumerates all `2^n` two-state charge
//! configurations in Gray-code order, maintaining local potentials
//! incrementally (O(n) per step), and returns the physically valid
//! configurations of minimal grand-potential free energy. Exact, and
//! fast enough for gate-sized instances (the Bestagon standard tiles
//! have ≈ 10–25 SiDBs). Larger layouts use QuickExact's branch and
//! bound; the exhaustive sweep stays its test oracle.
//!
//! The engine itself lives in [`crate::engine`]; callers select it with
//! [`crate::engine::simulate_with`] and
//! [`SimEngine::Exhaustive`](crate::engine::SimEngine).

use crate::charge::ChargeConfiguration;

/// A configuration together with its energies, as returned by the search
/// engines.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedState {
    /// The charge configuration.
    pub config: ChargeConfiguration,
    /// Electrostatic energy, eV.
    pub electrostatic_energy: f64,
    /// Grand-potential free energy, eV (the ranking criterion).
    pub free_energy: f64,
}

/// Practical site-count limit of the exhaustive search.
pub(crate) const MAX_EXHAUSTIVE_SITES: usize = 30;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::tests::{from_index, num_negative};
    use crate::charge::{ChargeState, InteractionMatrix};
    use crate::engine::{simulate_with, SimEngine, SimParams, SimResult};
    use crate::layout::SidbLayout;
    use crate::model::PhysicalParams;
    use fcn_budget::StepBudget;

    fn bounded(
        layout: &SidbLayout,
        params: &PhysicalParams,
        k: usize,
        budget: &StepBudget,
    ) -> SimResult {
        simulate_with(
            layout,
            &SimParams::new(*params)
                .with_engine(SimEngine::Exhaustive)
                .with_k(k)
                .with_budget(*budget),
        )
    }

    fn low_energy(layout: &SidbLayout, params: &PhysicalParams, k: usize) -> Vec<SimulatedState> {
        bounded(layout, params, k, &StepBudget::unbounded()).states
    }

    fn ground_state(layout: &SidbLayout, params: &PhysicalParams) -> Option<ChargeConfiguration> {
        low_energy(layout, params, 1).pop().map(|s| s.config)
    }

    #[test]
    fn single_dot_ground_state_is_negative() {
        let layout = SidbLayout::from_sites([(5, 3, 1)]);
        let gs = ground_state(&layout, &PhysicalParams::default()).expect("non-empty");
        assert_eq!(gs.state(0), ChargeState::Negative);
    }

    #[test]
    fn close_pair_ground_state_has_one_electron() {
        // One lattice cell (3.84 Å): v ≈ 0.62 eV > |μ−| → a single shared
        // electron, the BDL pair regime.
        let layout = SidbLayout::from_sites([(0, 0, 0), (1, 0, 0)]);
        let gs = ground_state(&layout, &PhysicalParams::default()).expect("non-empty");
        assert_eq!(num_negative(&gs), 1);
    }

    #[test]
    fn medium_pair_charges_fully_at_default_mu() {
        // Two cells (7.68 Å): v ≈ 0.29 eV < |μ−| = 0.32 → both dots charge.
        let layout = SidbLayout::from_sites([(0, 0, 0), (2, 0, 0)]);
        let gs = ground_state(&layout, &PhysicalParams::default()).expect("non-empty");
        assert_eq!(num_negative(&gs), 2);
        // At the Figure 1c level μ− = −0.28 the same pair holds one
        // electron — the transition the BDL regime depends on.
        let gs28 = ground_state(&layout, &PhysicalParams::default().with_mu_minus(-0.28))
            .expect("non-empty");
        assert_eq!(num_negative(&gs28), 1);
    }

    #[test]
    fn far_pair_ground_state_has_two_electrons() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (50, 0, 0)]);
        let gs = ground_state(&layout, &PhysicalParams::default()).expect("non-empty");
        assert_eq!(num_negative(&gs), 2);
    }

    #[test]
    fn ground_state_matches_brute_force() {
        // Cross-validate the incremental sweep against a naive evaluation.
        let layout =
            SidbLayout::from_sites([(0, 0, 0), (3, 0, 0), (6, 1, 0), (1, 2, 1), (8, 2, 0)]);
        let params = PhysicalParams::default();
        let m = InteractionMatrix::new(&layout, &params);
        let n = layout.num_sites();

        let mut best_naive: Option<(f64, ChargeConfiguration)> = None;
        for index in 0..(1u64 << n) {
            let cfg = from_index(n, index);
            if cfg.is_physically_valid(&m) {
                let f = cfg.free_energy(&m);
                if best_naive.as_ref().map(|(bf, _)| f < *bf).unwrap_or(true) {
                    best_naive = Some((f, cfg));
                }
            }
        }
        let (naive_f, naive_cfg) = best_naive.expect("a valid configuration exists");
        let fast = low_energy(&layout, &params, 1);
        assert_eq!(fast.len(), 1);
        assert!((fast[0].free_energy - naive_f).abs() < 1e-9);
        assert_eq!(num_negative(&fast[0].config), num_negative(&naive_cfg));
    }

    #[test]
    fn incremental_energy_is_consistent() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (4, 0, 0), (2, 1, 1), (9, 1, 0)]);
        let params = PhysicalParams::default();
        let m = InteractionMatrix::new(&layout, &params);
        for s in low_energy(&layout, &params, 5) {
            let direct_e = s.config.electrostatic_energy(&m);
            let direct_f = s.config.free_energy(&m);
            assert!((s.electrostatic_energy - direct_e).abs() < 1e-9);
            assert!((s.free_energy - direct_f).abs() < 1e-9);
            assert!(s.config.is_physically_valid(&m));
        }
    }

    #[test]
    fn low_energy_states_are_sorted() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (6, 0, 0), (12, 0, 0), (18, 0, 0)]);
        let states = low_energy(&layout, &PhysicalParams::default(), 4);
        assert!(!states.is_empty());
        for w in states.windows(2) {
            assert!(w[0].free_energy <= w[1].free_energy + 1e-12);
        }
    }

    #[test]
    fn empty_layout_has_no_ground_state() {
        let layout = SidbLayout::new();
        assert!(ground_state(&layout, &PhysicalParams::default()).is_none());
    }

    #[test]
    fn unbounded_budget_matches_unbounded_api() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (3, 0, 0), (6, 1, 0), (1, 2, 1)]);
        let params = PhysicalParams::default();
        let sweep = bounded(&layout, &params, 3, &StepBudget::unbounded());
        assert!(!sweep.truncated);
        assert_eq!(sweep.states, low_energy(&layout, &params, 3));
    }

    #[test]
    fn step_budget_truncates_the_sweep() {
        let layout =
            SidbLayout::from_sites([(0, 0, 0), (3, 0, 0), (6, 1, 0), (1, 2, 1), (8, 2, 0)]);
        let params = PhysicalParams::default();
        let budget = StepBudget {
            max_steps: Some(4),
            deadline: fcn_budget::Deadline::unbounded(),
        };
        let sweep = bounded(&layout, &params, 3, &budget);
        assert!(sweep.truncated);
        assert_eq!(sweep.stats.visited, 4);
    }

    #[test]
    fn expired_deadline_truncates_without_panicking() {
        let layout =
            SidbLayout::from_sites([(0, 0, 0), (3, 0, 0), (6, 1, 0), (1, 2, 1), (8, 2, 0)]);
        let params = PhysicalParams::default();
        let budget = StepBudget {
            max_steps: None,
            deadline: fcn_budget::Deadline::after_ms(0),
        };
        // The 5-site sweep is shorter than the poll interval, so an
        // expired deadline may or may not be observed — but either way
        // the call returns a well-formed result.
        let sweep = bounded(&layout, &params, 1, &budget);
        assert!(sweep.stats.visited >= 1);
    }

    #[test]
    fn injected_sweep_exhaust_truncates_only_bounded_runs() {
        use fcn_budget::fault::{install, Fault, FaultPlan};
        let layout = SidbLayout::from_sites([(0, 0, 0), (3, 0, 0), (6, 1, 0), (1, 2, 1)]);
        let params = PhysicalParams::default();
        let _scope = install(std::sync::Arc::new(FaultPlan::single(
            "sidb.sweep",
            Fault::Exhaust,
        )));
        let unbounded = bounded(&layout, &params, 1, &StepBudget::unbounded());
        assert!(!unbounded.truncated, "unbounded sweeps stay exact");
        let bounded = bounded(
            &layout,
            &params,
            1,
            &StepBudget {
                max_steps: Some(1 << 20),
                deadline: fcn_budget::Deadline::unbounded(),
            },
        );
        assert!(bounded.truncated);
    }
}
