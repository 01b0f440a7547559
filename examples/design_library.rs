//! Repairs the non-operational library tiles with the automated
//! designer — the workflow that produced the canvas dots baked into
//! `bestagon_lib::tiles` (this reproduction's substitute for the
//! paper's per-tile reinforcement-learning agent).
//!
//! ```text
//! cargo run --release --example design_library
//! ```
//!
//! Validates every Figure 5 design under the default physical
//! parameters, then runs the parallel canvas search
//! ([`design_library`](bestagon_lib::designer::design_library)) on each
//! failing tile under one shared wall-clock budget and reports the
//! canvas dots of every repair it finds, ready to be transplanted into
//! the tile constructors. Knobs: `DESIGNER_DEADLINE_MS` (default
//! 60000 — the expensive tiles need hours; raise it for a full hunt),
//! `THREADS`, `SIM_CACHE=0`.

use bestagon_lib::designer::{design_library, DesignerOptions};
use bestagon_lib::tiles::{figure5_designs, validate_designs};
use fcn_budget::{Deadline, StepBudget};
use sidb_sim::operational::OperationalStatus;
use sidb_sim::PhysicalParams;

fn main() {
    let params = PhysicalParams::default();
    let designs = figure5_designs();
    let verdicts = validate_designs(&designs, &params);
    let unknown = verdicts
        .iter()
        .filter(|v| matches!(v.status, OperationalStatus::Unknown { .. }))
        .count();
    let failing: Vec<_> = designs
        .into_iter()
        .zip(&verdicts)
        .filter(|(_, v)| matches!(v.status, OperationalStatus::NonOperational { .. }))
        .map(|(d, _)| d)
        .collect();
    println!(
        "library: {} designs, {} failing and {unknown} unknown (simulation budget) \
         under default parameters",
        verdicts.len(),
        failing.len()
    );
    if failing.is_empty() {
        println!("nothing to repair");
        return;
    }

    let deadline_ms = std::env::var("DESIGNER_DEADLINE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60_000);
    let options = DesignerOptions::new()
        .with_max_dots(4)
        .with_iterations(200)
        .with_restarts(8)
        .with_seed(7)
        .with_budget(StepBudget::unbounded().with_deadline(Deadline::after_ms(deadline_ms)));
    println!(
        "searching {} tile(s), deadline {deadline_ms} ms …",
        failing.len()
    );

    for repair in design_library(&failing, &options, &params) {
        let r = &repair.result;
        if repair.repaired {
            let dots: Vec<String> = r
                .canvas
                .iter()
                .map(|c| format!("({}, {}, {})", c.x, c.y, c.b))
                .collect();
            println!(
                "  {}: REPAIRED with {} canvas dot(s): {}",
                repair.name,
                r.canvas.len(),
                dots.join(", ")
            );
        } else {
            println!(
                "  {}: best {}/{} correct after {} candidates{}",
                repair.name,
                r.score.correct,
                r.target,
                r.stats.candidates,
                r.degradation
                    .as_ref()
                    .map(|d| format!(" — degraded: {:?}, {}", d.trigger, d.detail))
                    .unwrap_or_default()
            );
        }
    }
}
