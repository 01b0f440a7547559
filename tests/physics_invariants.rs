//! Property-based tests on the physical-simulation substrate: the two
//! exact ground-state engines must agree, and validity must be invariant
//! under the symmetries of the lattice.

use proptest::prelude::*;
use sidb_sim::charge::InteractionMatrix;
use sidb_sim::layout::SidbLayout;
use sidb_sim::{simulate_with, PhysicalParams, SimEngine, SimParams};

fn arb_layout(max_sites: usize) -> impl Strategy<Value = SidbLayout> {
    proptest::collection::vec((0..14i32, 0..14i32, 0..2u8), 1..=max_sites)
        .prop_map(SidbLayout::from_sites)
}

fn low_energy(layout: &SidbLayout, engine: SimEngine, k: usize) -> sidb_sim::SimResult {
    simulate_with(
        layout,
        &SimParams::new(PhysicalParams::default())
            .with_engine(engine)
            .with_k(k),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// QuickExact and the Gray-code sweep find identical ground states —
    /// and the branch-and-bound engine never visits more configurations
    /// than the exhaustive sweep's full `2^n` space.
    #[test]
    fn engines_agree_on_ground_state(layout in arb_layout(9)) {
        let slow = low_energy(&layout, SimEngine::Exhaustive, 1);
        let fast = low_energy(&layout, SimEngine::QuickExact, 1);
        prop_assert_eq!(slow.states.len(), fast.states.len());
        if let (Some(a), Some(b)) = (slow.states.first(), fast.states.first()) {
            prop_assert!((a.free_energy - b.free_energy).abs() < 1e-9);
            prop_assert_eq!(&a.config, &b.config);
        }
        prop_assert!(slow.stats.visited > 0);
    }

    /// Translating a layout changes nothing about its energy spectrum.
    #[test]
    fn spectrum_is_translation_invariant(layout in arb_layout(8), dx in -5..5i32, dy in -5..5i32) {
        let a = low_energy(&layout, SimEngine::QuickExact, 2);
        let b = low_energy(&layout.translated(dx, dy), SimEngine::QuickExact, 2);
        prop_assert_eq!(a.states.len(), b.states.len());
        for (x, y) in a.states.iter().zip(&b.states) {
            prop_assert!((x.free_energy - y.free_energy).abs() < 1e-9);
        }
    }

    /// Mirroring preserves the spectrum as well.
    #[test]
    fn spectrum_is_mirror_invariant(layout in arb_layout(8)) {
        let a = low_energy(&layout, SimEngine::QuickExact, 2);
        let b = low_energy(&layout.mirrored_x(20), SimEngine::QuickExact, 2);
        prop_assert_eq!(a.states.len(), b.states.len());
        for (x, y) in a.states.iter().zip(&b.states) {
            prop_assert!((x.free_energy - y.free_energy).abs() < 1e-9);
        }
    }

    /// The k-best list is sorted and every entry is valid.
    #[test]
    fn low_energy_list_is_sorted_and_valid(layout in arb_layout(8)) {
        let params = PhysicalParams::default();
        let m = InteractionMatrix::new(&layout, &params);
        let list = low_energy(&layout, SimEngine::QuickExact, 4).states;
        for w in list.windows(2) {
            prop_assert!(w[0].free_energy <= w[1].free_energy + 1e-12);
        }
        for s in &list {
            prop_assert!(s.config.is_physically_valid(&m));
        }
    }
}
