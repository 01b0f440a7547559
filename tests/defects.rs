//! Surface-defect physics invariants: a zero-density surface is
//! bit-identical to the pristine simulation, seeded surfaces are fully
//! reproducible, and defect-aware gate validation is deterministic at
//! any thread width.

use fcn_budget::exec::with_width;
use proptest::prelude::*;
use sidb_sim::layout::SidbLayout;
use sidb_sim::{
    simulate_on_surface, simulate_with, DefectKind, DefectMap, PhysicalParams, SimEngine, SimParams,
};

fn params(engine: SimEngine) -> SimParams {
    SimParams::new(PhysicalParams::default()).with_engine(engine)
}

/// A small arbitrary layout: up to 7 deduplicated sites in a 30×20
/// cell window — cheap to simulate exactly with every engine.
fn arb_layout() -> impl Strategy<Value = SidbLayout> {
    proptest::collection::vec((0i32..30, 0i32..20, 0u8..2), 1..7).prop_map(|sites| {
        let dedup: std::collections::BTreeSet<(i32, i32, u8)> = sites.into_iter().collect();
        SidbLayout::from_sites(dedup)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pristine contract: simulating on a zero-density (empty)
    /// surface takes the exact code path and produces bit-identical
    /// states and counters to the plain simulation.
    #[test]
    fn zero_density_surface_is_bit_identical_to_pristine(
        layout in arb_layout(),
        seed in 0u64..u64::MAX,
    ) {
        let surface = DefectMap::random(seed, 0.0, &DefectKind::ALL);
        prop_assert!(surface.is_empty());
        for engine in [SimEngine::Exhaustive, SimEngine::QuickExact] {
            let p = params(engine);
            let pristine = simulate_with(&layout, &p);
            let on_surface = simulate_on_surface(&layout, &p, &surface);
            prop_assert_eq!(pristine.states.len(), on_surface.states.len());
            for (a, b) in pristine.states.iter().zip(&on_surface.states) {
                prop_assert_eq!(&a.config, &b.config);
                // Bit-exact, not approximate.
                prop_assert_eq!(a.free_energy.to_bits(), b.free_energy.to_bits());
            }
            prop_assert_eq!(pristine.stats.visited, on_surface.stats.visited);
        }
    }

    /// Seeded surface generation is a pure function of its arguments.
    #[test]
    fn random_surface_is_reproducible(
        seed in 0u64..u64::MAX,
        millionths in 0u32..500,
    ) {
        let density = f64::from(millionths) * 1e-6;
        let a = DefectMap::random(seed, density, &DefectKind::ALL);
        let b = DefectMap::random(seed, density, &DefectKind::ALL);
        prop_assert_eq!(a.defects(), b.defects());
    }

    /// Engines agree on the ground state of a defect-loaded surface:
    /// the external potentials are folded identically into the
    /// exhaustive enumeration and the branch-and-bound search.
    #[test]
    fn engines_agree_on_surface_ground_state(
        layout in arb_layout(),
        seed in 0u64..u64::MAX,
    ) {
        let surface = DefectMap::random_in(seed, 2e-3, &DefectKind::ALL, 40, 30);
        let exhaustive = simulate_on_surface(&layout, &params(SimEngine::Exhaustive), &surface);
        let quick = simulate_on_surface(&layout, &params(SimEngine::QuickExact), &surface);
        match (exhaustive.ground_state(), quick.ground_state()) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(&a.config, &b.config);
                prop_assert!((a.free_energy - b.free_energy).abs() < 1e-9);
            }
            (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
        }
    }
}

/// A charged defect near a gate shifts its energetics: the ground-state
/// energy on the loaded surface differs from pristine, while a surface
/// whose defects sit far outside the interaction cutoff leaves the
/// spectrum untouched.
#[test]
fn nearby_defect_perturbs_far_defect_does_not() {
    use fcn_coords::LatticeCoord;
    use sidb_sim::Defect;
    let design = bestagon_lib::tiles::wire_nw_sw();
    let p = params(SimEngine::QuickExact);
    let pristine = simulate_with(&design.body, &p);

    let near = DefectMap::new(vec![Defect {
        position: LatticeCoord::new(20, 10, 0),
        kind: DefectKind::DbPair,
    }]);
    let perturbed = simulate_on_surface(&design.body, &p, &near);
    let e0 = pristine.ground_state().expect("ground state").free_energy;
    let e1 = perturbed.ground_state().expect("ground state").free_energy;
    assert!(
        (e0 - e1).abs() > 1e-6,
        "a charged defect a few cells away must shift the ground state"
    );

    // ~400 nm away: far beyond both the screened-Coulomb reach and the
    // matrix cutoff at default parameters.
    let far = DefectMap::new(vec![Defect {
        position: LatticeCoord::new(1_000, 1_000, 0),
        kind: DefectKind::DbPair,
    }]);
    let untouched = simulate_on_surface(&design.body, &p, &far);
    let e2 = untouched.ground_state().expect("ground state").free_energy;
    assert_eq!(
        e0.to_bits(),
        e2.to_bits(),
        "an out-of-range defect must leave the spectrum bit-identical"
    );
}

/// Defect-aware gate validation is deterministic across thread widths:
/// the verdict and the visited-state totals match between a serial and
/// a 4-way parallel check on the same loaded surface.
#[test]
fn surface_validation_is_thread_width_invariant() {
    let design = bestagon_lib::tiles::huff_style_or();
    let surface = DefectMap::random(11, 5e-5, &DefectKind::ALL);
    assert!(!surface.is_empty(), "seed 11 populates the region");
    let sim = params(SimEngine::QuickExact);
    let serial = with_width(1, || design.check_operational_on(&sim, &surface));
    let parallel = with_width(4, || design.check_operational_on(&sim, &surface));
    assert_eq!(serial.status, parallel.status);
    assert_eq!(serial.stats.visited, parallel.stats.visited);
}

/// The worked spec grammar: `seed:density[:kinds]` round-trips through
/// `from_spec` to the same surface as a direct `random` call, and kind
/// filters restrict the drawn species.
#[test]
fn spec_matches_direct_generation() {
    let direct = DefectMap::random(42, 1e-4, &DefectKind::ALL);
    let parsed = DefectMap::from_spec("42:1e-4").expect("valid spec");
    assert_eq!(direct.defects(), parsed.defects());

    let siloxane_only = DefectMap::from_spec("42:1e-4:siloxane").expect("valid spec");
    assert!(siloxane_only
        .defects()
        .iter()
        .all(|d| d.kind == DefectKind::Siloxane));
}
