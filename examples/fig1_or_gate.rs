//! Regenerates the paper's **Figure 1c**: ground-state charge
//! configurations of a Huff-et-al.-style Y-shaped OR gate for all four
//! input patterns, simulated at the figure's physical parameters
//! (μ− = −0.28 eV, ε_r = 5.6, λ_TF = 5 nm).
//!
//! ```text
//! cargo run --release --example fig1_or_gate
//! ```

use bestagon_lib::tiles::huff_style_or;
use sidb_sim::charge::ChargeState;
use sidb_sim::{PhysicalParams, SimEngine, SimParams};

fn main() {
    let gate = huff_style_or();
    let params = PhysicalParams::default().with_mu_minus(-0.28);
    let sim_params = SimParams::new(params).with_engine(SimEngine::Exhaustive);
    println!("=== Figure 1c: Y-shaped OR gate, μ− = −0.28 eV ===");
    println!(
        "gate: {} ({} SiDBs + perturbers)\n",
        gate.name,
        gate.body.num_sites()
    );

    for pattern in 0..gate.num_patterns() {
        let a = pattern & 1 == 1;
        let b = pattern & 2 != 0;
        let eval = gate.evaluate_pattern_with(pattern, &sim_params);
        let ground_state = eval.ground_state.expect("exhaustive sweep completes");
        let out = eval.outputs[0];
        println!(
            "inputs a={} b={}  →  output {}   (expected {})",
            a as u8,
            b as u8,
            out.map(|v| (v as u8).to_string())
                .unwrap_or_else(|| "?".into()),
            (a || b) as u8
        );
        // Dot-accurate charge map.
        let layout = gate.layout_for_pattern(pattern);
        for (site, state) in layout.sites().iter().zip(ground_state.states()) {
            if *state == ChargeState::Negative {
                println!("    SiDB⁻ at (n={}, m={}, l={})", site.x, site.y, site.b);
            }
        }
    }

    let report = gate.check_operational_with(&sim_params);
    println!("\noperational check: {:?}", report.status);
    println!(
        "configurations visited: {} (pruned {})",
        report.stats.visited, report.stats.pruned
    );
}
