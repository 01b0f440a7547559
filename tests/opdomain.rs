//! Operational-domain engine acceptance tests: the adaptive sampler
//! must reproduce the dense sweep's per-point verdicts exactly while
//! issuing strictly fewer simulations, and domains must be
//! bit-identical at any worker-pool width.
//!
//! The full-grid sweeps are `#[ignore]`d for debug runs; CI exercises
//! them in the release legs with `--include-ignored`.

use bestagon_lib::tiles::{huff_style_or, inverter_nw_se, inverter_nw_sw, wire_nw_se, wire_nw_sw};
use fcn_budget::exec::with_width;
use sidb_sim::opdomain::{DomainGrid, DomainParams, DomainStrategy, Provenance};
use sidb_sim::operational::GateDesign;
use sidb_sim::{PhysicalParams, SimEngine, SimParams};

fn params(steps: usize) -> DomainParams {
    DomainParams::new(SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact))
        .with_grid(DomainGrid {
            steps,
            ..Default::default()
        })
}

fn tiles() -> Vec<GateDesign> {
    vec![wire_nw_sw(), inverter_nw_sw(), huff_style_or()]
}

/// Adaptive and dense sweeps agree at every grid point of the default
/// 7×7 window, on every tile — and the adaptive sweep gets there with
/// fewer point and pattern simulations.
#[test]
#[ignore = "full-grid sweep; run in release (CI --include-ignored)"]
fn adaptive_matches_dense_on_the_default_grid() {
    for design in tiles() {
        let dense = design.operational_domain(&params(7).with_strategy(DomainStrategy::Dense));
        let adaptive =
            design.operational_domain(&params(7).with_strategy(DomainStrategy::Adaptive));
        assert_eq!(dense.stats.simulated, 49, "{}", design.name);
        assert_eq!(
            adaptive.stats.simulated + adaptive.stats.inferred,
            49,
            "{}",
            design.name
        );
        assert!(
            adaptive.stats.simulated < dense.stats.simulated,
            "{}: adaptive simulated {} of 49 points",
            design.name,
            adaptive.stats.simulated
        );
        assert!(
            adaptive.stats.pattern_sims < dense.stats.pattern_sims,
            "{}: adaptive issued {} pattern sims vs dense {}",
            design.name,
            adaptive.stats.pattern_sims,
            dense.stats.pattern_sims
        );
        for (d, a) in dense.samples.iter().zip(&adaptive.samples) {
            assert_eq!(
                d.status, a.status,
                "{} at (ε_r {}, λ_TF {})",
                design.name, d.epsilon_r, d.lambda_tf_nm
            );
        }
        assert_eq!(dense.coverage(), adaptive.coverage(), "{}", design.name);
        assert_eq!(
            dense.nominal_operational(),
            adaptive.nominal_operational(),
            "{}",
            design.name
        );
    }
}

/// On a finer 15×15 grid the relative saving grows: closed regions are
/// larger in index space, so a bigger share of the grid is inferred.
#[test]
#[ignore = "full-grid sweep; run in release (CI --include-ignored)"]
fn adaptive_saving_grows_on_a_fine_grid() {
    for design in tiles() {
        let dense = design.operational_domain(&params(15).with_strategy(DomainStrategy::Dense));
        let adaptive =
            design.operational_domain(&params(15).with_strategy(DomainStrategy::Adaptive));
        assert_eq!(dense.stats.simulated, 225, "{}", design.name);
        assert!(
            adaptive.stats.simulated < dense.stats.simulated,
            "{}: adaptive simulated {} of 225 points",
            design.name,
            adaptive.stats.simulated
        );
        for (d, a) in dense.samples.iter().zip(&adaptive.samples) {
            assert_eq!(
                d.status, a.status,
                "{} at (ε_r {}, λ_TF {})",
                design.name, d.epsilon_r, d.lambda_tf_nm
            );
        }
        // The 15×15 fraction of simulated points must not exceed the
        // 7×7 fraction for the same design: inference wins grow with
        // resolution.
        let coarse = design.operational_domain(&params(7).with_strategy(DomainStrategy::Adaptive));
        let fine_fraction = adaptive.stats.simulated as f64 / 225.0;
        let coarse_fraction = coarse.stats.simulated as f64 / 49.0;
        assert!(
            fine_fraction <= coarse_fraction,
            "{}: simulated fraction grew from {coarse_fraction:.2} (7×7) to {fine_fraction:.2} (15×15)",
            design.name
        );
    }
}

/// Sampled domains are bit-identical at any executor width, for both
/// strategies (the CI matrix additionally runs this suite under
/// `THREADS ∈ {1,4}`).
#[test]
#[ignore = "full-grid sweep; run in release (CI --include-ignored)"]
fn domains_are_identical_at_any_thread_width() {
    for design in tiles() {
        for strategy in [DomainStrategy::Dense, DomainStrategy::Adaptive] {
            let params = params(7).with_strategy(strategy);
            let one = with_width(1, || design.operational_domain(&params));
            let four = with_width(4, || design.operational_domain(&params));
            assert_eq!(one.samples, four.samples, "{}", design.name);
            assert_eq!(one.stats, four.stats, "{}", design.name);
            assert_eq!(one.degradation, four.degradation, "{}", design.name);
        }
    }
}

/// Every sample declares how its verdict was obtained, and only
/// adaptive sweeps infer.
#[test]
#[ignore = "full-grid sweep; run in release (CI --include-ignored)"]
fn samples_are_provenance_honest() {
    let design = wire_nw_sw();
    let dense = design.operational_domain(&params(7).with_strategy(DomainStrategy::Dense));
    assert!(dense
        .samples
        .iter()
        .all(|s| s.provenance == Provenance::Simulated));
    let adaptive = design.operational_domain(&params(7).with_strategy(DomainStrategy::Adaptive));
    let simulated = adaptive
        .samples
        .iter()
        .filter(|s| s.provenance == Provenance::Simulated)
        .count() as u64;
    let inferred = adaptive
        .samples
        .iter()
        .filter(|s| s.provenance == Provenance::Inferred)
        .count() as u64;
    assert_eq!(simulated, adaptive.stats.simulated);
    assert_eq!(inferred, adaptive.stats.inferred);
    assert!(inferred > 0);
}

/// The adaptive sweep's pattern simulations on the four wire and
/// inverter tiles of the benchmark's sweep workload. Each point's check
/// starts with the pattern that refuted its nearest non-operational
/// neighbour, so the NW→SE tiles, many of whose points fail on pattern
/// 1 only, skip most of those points' pattern-0 simulations (57 and 61
/// patterns in pattern order).
#[test]
fn adaptive_pattern_sims_of_the_sweep_tiles_are_pinned() {
    for (design, pattern_sims) in [
        (wire_nw_sw(), 52),
        (inverter_nw_sw(), 66),
        (wire_nw_se(), 45),
        (inverter_nw_se(), 43),
    ] {
        let domain = design.operational_domain(&params(7));
        assert_eq!(domain.stats.pattern_sims, pattern_sims, "{}", design.name);
    }
}
