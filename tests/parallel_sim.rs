//! Determinism and pruning guarantees of the parallel simulation engine.
//!
//! The `simulate_with` worker pool must be invisible in the results: any
//! thread count produces bit-identical spectra, ground states, and
//! operational verdicts, because the charge-space partition is a pure
//! function of the layout and the merge is a total order. These tests
//! pin that contract across the full Bestagon tile set, check the
//! branch-and-bound engine against the brute-force sweep on random
//! layouts, and assert the acceptance criterion that pruned + cached
//! gate validation visits strictly fewer configurations than the
//! exhaustive Gray-code sweep.

use fcn_budget::exec::with_width;
use proptest::prelude::*;
use sidb_sim::layout::SidbLayout;
use sidb_sim::{simulate_with, PhysicalParams, SimCache, SimEngine, SimParams, SimResult};

fn base(engine: SimEngine) -> SimParams {
    SimParams::new(PhysicalParams::default()).with_engine(engine)
}

/// Free energies compared at the bit level: the parallel merge must not
/// even reassociate a floating-point sum differently.
fn assert_bit_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.states.len(), b.states.len());
    for (x, y) in a.states.iter().zip(&b.states) {
        assert_eq!(x.config, y.config);
        assert_eq!(x.free_energy.to_bits(), y.free_energy.to_bits());
        assert_eq!(
            x.electrostatic_energy.to_bits(),
            y.electrostatic_energy.to_bits()
        );
    }
    assert_eq!(a.truncated, b.truncated);
}

/// A BDL chain with `pairs` pairs plus a perturber — 2·pairs + 1 sites,
/// large enough (≥ 14 free sites) to engage the chunked parallel sweep.
fn chain(pairs: usize) -> SidbLayout {
    let mut l = SidbLayout::new();
    for k in 0..pairs as i32 {
        l.add_site((14, 3 * k, 0));
        l.add_site((16, 3 * k, 0));
    }
    l.add_site((14, -2, 1));
    l
}

#[test]
fn tile_set_verdicts_and_spectra_are_thread_invariant() {
    // The ≤ 32-site tiles — the three larger ones (fan-out, crossing,
    // half adder) take minutes of branch-and-bound and are covered by
    // the `#[ignore]`d full-set variant below, which CI runs in release.
    for design in bestagon_lib::tiles::figure5_designs()
        .into_iter()
        .filter(|d| d.body.num_sites() <= 32)
    {
        let sim = base(SimEngine::QuickExact);
        let r1 = with_width(1, || design.check_operational_with(&sim));
        let r4 = with_width(4, || design.check_operational_with(&sim));
        assert_eq!(
            r1.status, r4.status,
            "{}: verdict depends on threads",
            design.name
        );
        assert_eq!(
            r1.stats, r4.stats,
            "{}: work counters depend on threads",
            design.name
        );
        // Per-pattern spectra, not just verdicts, must be bit-identical.
        let patterns = 1u32 << design.inputs.len();
        for pattern in 0..patterns {
            let layout = design.layout_for_pattern(pattern);
            let spectrum = sim.clone().with_k(3);
            let s1 = with_width(1, || simulate_with(&layout, &spectrum));
            let s4 = with_width(4, || simulate_with(&layout, &spectrum));
            assert_bit_identical(&s1, &s4);
        }
    }
}

/// Every Bestagon tile, including the branch-and-bound monsters: the
/// verdict and the work counters are identical at 1 and 4 threads.
#[test]
#[ignore = "full tile set; minutes of branch-and-bound — CI runs this in release"]
fn full_tile_set_is_thread_invariant() {
    for design in bestagon_lib::tiles::figure5_designs() {
        let sim = base(SimEngine::QuickExact);
        let r1 = with_width(1, || design.check_operational_with(&sim));
        let r4 = with_width(4, || design.check_operational_with(&sim));
        assert_eq!(
            r1.status, r4.status,
            "{}: verdict depends on threads",
            design.name
        );
        assert_eq!(
            r1.stats, r4.stats,
            "{}: counters depend on threads",
            design.name
        );
    }
}

#[test]
fn chunked_exhaustive_sweep_is_thread_invariant() {
    // A dense 4×4 cluster keeps every site free (nothing can be
    // preassigned), pushing the sweep above the 14-free-site threshold
    // where it splits into Gray-code chunks dispatched across the pool.
    let mut layout = SidbLayout::new();
    for i in 0..4i32 {
        for j in 0..4i32 {
            layout.add_site((2 * i, 2 * j, 0));
        }
    }
    let sim = base(SimEngine::Exhaustive).with_k(5);
    let serial = with_width(1, || simulate_with(&layout, &sim));
    assert!(
        serial.stats.visited >= 1 << 14,
        "not chunked: the partitioned path was not exercised"
    );
    for threads in [2usize, 4, 7] {
        let parallel = with_width(threads, || simulate_with(&layout, &sim));
        assert_bit_identical(&serial, &parallel);
        assert_eq!(serial.stats, parallel.stats);
    }
}

#[test]
fn pruned_and_cached_validation_beats_brute_force() {
    // The ISSUE acceptance criterion: pruned + cached check_operational
    // visits strictly fewer configurations than the exhaustive sweep,
    // asserted through SimStats.
    let design = bestagon_lib::tiles::huff_style_or();
    let brute = design.check_operational_with(&base(SimEngine::Exhaustive));
    let pruned = design.check_operational_with(&base(SimEngine::QuickExact));
    assert!(
        pruned.stats.visited < brute.stats.visited,
        "pruned {} !< brute-force {}",
        pruned.stats.visited,
        brute.stats.visited
    );
    assert!(pruned.stats.pruned > 0);

    // A shared cache removes the remaining work on revalidation.
    let cached = base(SimEngine::QuickExact).with_cache(SimCache::new());
    let first = design.check_operational_with(&cached);
    let second = design.check_operational_with(&cached);
    assert_eq!(first.status, second.status);
    let patterns = 1u64 << design.inputs.len();
    assert_eq!(first.stats.cache_misses, patterns);
    assert_eq!(second.stats.cache_hits, patterns);
    assert_eq!(second.stats.visited, 0, "cache hit must not re-simulate");
}

#[test]
fn cache_is_translation_invariant() {
    let cache = SimCache::new();
    let params = base(SimEngine::QuickExact).with_cache(cache);
    let a = simulate_with(&chain(4), &params);
    assert_eq!(a.stats.cache_misses, 1);
    // The same chain shifted rigidly is the same physics: same key.
    let mut shifted = SidbLayout::new();
    for k in 0..4i32 {
        shifted.add_site((24, 3 * k + 6, 0));
        shifted.add_site((26, 3 * k + 6, 0));
    }
    shifted.add_site((24, 4, 1));
    let b = simulate_with(&shifted, &params);
    assert_eq!(b.stats.cache_hits, 1);
    assert_eq!(b.stats.visited, 0);
    for (x, y) in a.states.iter().zip(&b.states) {
        assert_eq!(x.free_energy.to_bits(), y.free_energy.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pruned branch-and-bound engine agrees with the brute-force
    /// Gray-code sweep on arbitrary small layouts. Across *engines* the
    /// energies may differ in the last ULP (different summation order),
    /// so the spectrum is compared within tolerance and the ground
    /// configuration exactly whenever it is unambiguous; within the
    /// branch-and-bound engine, thread counts must stay bit-identical.
    #[test]
    fn quickexact_matches_brute_force_on_random_layouts(
        coords in proptest::collection::vec((0i32..8, 0i32..8), 3..=12),
        threads in 2usize..=4,
    ) {
        let sites: std::collections::BTreeSet<(i32, i32)> = coords.iter().copied().collect();
        let mut layout = SidbLayout::new();
        for (x, y) in &sites {
            layout.add_site((*x * 2, *y * 2, 0));
        }
        let brute = with_width(1, || simulate_with(&layout, &base(SimEngine::Exhaustive).with_k(4)));
        let quick = with_width(1, || simulate_with(&layout, &base(SimEngine::QuickExact).with_k(4)));
        prop_assert_eq!(brute.states.len(), quick.states.len());
        for (b, q) in brute.states.iter().zip(&quick.states) {
            prop_assert!((b.free_energy - q.free_energy).abs() < 1e-9);
        }
        let unambiguous = brute.states.len() < 2
            || brute.states[1].free_energy - brute.states[0].free_energy > 1e-9;
        if unambiguous {
            prop_assert_eq!(&brute.states[0].config, &quick.states[0].config);
        }
        prop_assert!(quick.stats.visited + quick.stats.pruned > 0);
        // Same engine, more threads: bit-identical, not just close.
        let parallel = with_width(threads, || {
            simulate_with(&layout, &base(SimEngine::QuickExact).with_k(4))
        });
        assert_bit_identical(&quick, &parallel);
    }
}
