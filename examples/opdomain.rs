//! Operational-domain analysis of the validated library tiles — the
//! "streamlined operational domain evaluation framework" the paper's
//! outlook (Section 6) calls for.
//!
//! ```text
//! cargo run --release --example opdomain            # adaptive sampler
//! cargo run --release --example opdomain -- dense   # dense reference
//! ```
//!
//! Sweeps `(ε_r, λ_TF)` around the experimentally calibrated point and
//! maps where each design still reproduces its truth table. The
//! adaptive sampler (default) follows the domain boundary and infers
//! closed regions, so only a fraction of the grid is simulated — each
//! map reports how many points were simulated vs inferred. The `dense`
//! argument simulates every point instead; its maps and coverage are
//! identical.

use bestagon_lib::tiles::{huff_style_or, inverter_nw_sw, wire_nw_sw};
use sidb_sim::opdomain::{DomainParams, DomainStrategy};
use sidb_sim::{PhysicalParams, SimCache, SimEngine, SimParams};

fn main() {
    let strategy = match std::env::args().nth(1).as_deref() {
        None | Some("adaptive") => DomainStrategy::Adaptive,
        Some("dense") => DomainStrategy::Dense,
        Some(other) => {
            eprintln!("unknown strategy `{other}` (expected `adaptive` or `dense`)");
            std::process::exit(2);
        }
    };
    let mut sim = SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact);
    if let Some(cache) = SimCache::from_env() {
        sim = sim.with_cache(cache);
    }
    let params = DomainParams::new(sim).with_strategy(strategy);
    println!("=== Operational domains (■ = truth table reproduced) ===\n");
    for design in [huff_style_or(), wire_nw_sw(), inverter_nw_sw()] {
        let domain = design.operational_domain(&params);
        println!(
            "{} — coverage {:.0}% of the swept window, nominal point {}:",
            design.name,
            domain.coverage() * 100.0,
            match domain.nominal_operational() {
                Some(true) => "operational",
                Some(false) => "not operational",
                None => "unknown",
            }
        );
        println!(
            "  {} grid points: {} simulated, {} inferred, {} skipped ({} pattern simulations)",
            domain.stats.points,
            domain.stats.simulated,
            domain.stats.inferred,
            domain.stats.skipped,
            domain.stats.pattern_sims,
        );
        println!("{}", domain.render_ascii());
    }
}
