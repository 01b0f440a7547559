//! `bench-opdomain` — the operational-domain A/B benchmark.
//!
//! ```text
//! cargo run --release -p bench --bin bench_opdomain
//! ```
//!
//! Sweeps the operational domain of every Figure-5 library tile twice
//! on the default 7×7 `(ε_r, λ_TF)` grid — once with the dense
//! reference strategy, once with the adaptive boundary-following
//! sampler — and writes `BENCH_opdomain.json`: per tile, the coverage,
//! the simulated-vs-inferred point split, the points whose verdict is
//! unknown because the simulation budget truncated them, the
//! pattern-level simulation counts for both strategies, the
//! visited-state totals, and whether
//! the adaptive sweep reproduced the dense per-point verdicts exactly
//! (it must; the gate fails otherwise). The closing `aggregate` entry
//! carries the whole-set totals the acceptance criterion is measured
//! on: adaptive pattern simulations ≤ 40% of dense.
//!
//! All counters are deterministic at any `THREADS` width, so
//! `bench_diff` gates them strictly; wall
//! clock gets the usual generous one-sided tolerance. Each sweep runs
//! with its own fresh `SimCache`, so the committed counts do not
//! depend on run order or on an inherited cache.

use fcn_telemetry::json::Value;
use sidb_sim::opdomain::{DomainParams, DomainStrategy, OperationalDomain, SampleStatus};
use sidb_sim::operational::GateDesign;
use sidb_sim::{PhysicalParams, SimCache, SimEngine, SimParams};
use std::process::ExitCode;
use std::time::Instant;

/// The full Figure-5 tile library: the nine structural designs plus
/// the calibrated two-input gate catalog.
fn tiles() -> Vec<GateDesign> {
    bestagon_lib::tiles::figure5_designs()
}

fn sweep(design: &GateDesign, strategy: DomainStrategy) -> OperationalDomain {
    let params = DomainParams::new(
        SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact),
    )
    .with_strategy(strategy)
    .with_cache(SimCache::new());
    design.operational_domain(&params)
}

fn main() -> ExitCode {
    println!("=== Operational-domain A/B: adaptive vs dense (7×7 grid) ===\n");
    println!(
        "{:<18} {:>6} {:>9} {:>9} {:>7} {:>12} {:>12} {:>7}",
        "Tile", "op", "simulated", "inferred", "unknown", "pattern sims", "dense sims", "ratio"
    );
    let mut entries: Vec<Value> = Vec::new();
    let mut total_adaptive = 0u64;
    let mut total_dense = 0u64;
    let mut total_visited = 0u64;
    let mut total_dense_visited = 0u64;
    let mut mismatches = 0usize;
    for design in tiles() {
        let started = Instant::now();
        let dense = sweep(&design, DomainStrategy::Dense);
        let adaptive = sweep(&design, DomainStrategy::Adaptive);
        let seconds = started.elapsed().as_secs_f64();
        let verdicts_match = dense
            .samples
            .iter()
            .zip(&adaptive.samples)
            .all(|(d, a)| d.status == a.status);
        if !verdicts_match {
            mismatches += 1;
            eprintln!(
                "MISMATCH: adaptive verdicts differ from dense on {}",
                design.name
            );
        }
        let operational = adaptive
            .samples
            .iter()
            .filter(|s| s.is_operational())
            .count();
        let unknown = adaptive
            .samples
            .iter()
            .filter(|s| s.status == SampleStatus::Unknown)
            .count();
        total_adaptive += adaptive.stats.pattern_sims;
        total_dense += dense.stats.pattern_sims;
        total_visited += adaptive.stats.sim.visited;
        total_dense_visited += dense.stats.sim.visited;
        println!(
            "{:<18} {:>3}/{:<2} {:>9} {:>9} {:>7} {:>12} {:>12} {:>6.0}%",
            design.name,
            operational,
            adaptive.stats.points,
            adaptive.stats.simulated,
            adaptive.stats.inferred,
            unknown,
            adaptive.stats.pattern_sims,
            dense.stats.pattern_sims,
            100.0 * adaptive.stats.pattern_sims as f64 / dense.stats.pattern_sims as f64,
        );
        entries.push(Value::Obj(vec![
            ("name".to_owned(), Value::Str(design.name.clone())),
            ("seconds".to_owned(), Value::Num(seconds)),
            // Deterministic at any thread width: `bench_diff` gates
            // these strictly.
            (
                "points".to_owned(),
                Value::Num(adaptive.stats.points as f64),
            ),
            ("operational".to_owned(), Value::Num(operational as f64)),
            (
                "simulated".to_owned(),
                Value::Num(adaptive.stats.simulated as f64),
            ),
            (
                "inferred".to_owned(),
                Value::Num(adaptive.stats.inferred as f64),
            ),
            (
                "skipped".to_owned(),
                Value::Num(adaptive.stats.skipped as f64),
            ),
            ("unknown".to_owned(), Value::Num(unknown as f64)),
            (
                "pattern_sims".to_owned(),
                Value::Num(adaptive.stats.pattern_sims as f64),
            ),
            (
                "dense_pattern_sims".to_owned(),
                Value::Num(dense.stats.pattern_sims as f64),
            ),
            (
                "visited".to_owned(),
                Value::Num(adaptive.stats.sim.visited as f64),
            ),
            (
                "dense_visited".to_owned(),
                Value::Num(dense.stats.sim.visited as f64),
            ),
            ("verdicts_match".to_owned(), Value::Bool(verdicts_match)),
        ]));
    }
    let ratio = total_adaptive as f64 / total_dense as f64;
    println!(
        "\naggregate: {total_adaptive} adaptive vs {total_dense} dense pattern simulations \
         ({:.1}% of dense; visited {total_visited} vs {total_dense_visited})",
        ratio * 100.0
    );
    entries.push(Value::Obj(vec![
        ("name".to_owned(), Value::Str("aggregate".to_owned())),
        ("pattern_sims".to_owned(), Value::Num(total_adaptive as f64)),
        (
            "dense_pattern_sims".to_owned(),
            Value::Num(total_dense as f64),
        ),
        ("visited".to_owned(), Value::Num(total_visited as f64)),
        (
            "dense_visited".to_owned(),
            Value::Num(total_dense_visited as f64),
        ),
        ("ratio".to_owned(), Value::Num(ratio)),
    ]));
    let doc = Value::Obj(vec![
        (
            "generator".to_owned(),
            Value::Str("crates/bench/src/bin/bench_opdomain.rs".to_owned()),
        ),
        ("grid_steps".to_owned(), Value::Num(7.0)),
        ("benchmarks".to_owned(), Value::Arr(entries)),
        (
            "registry".to_owned(),
            fcn_telemetry::Registry::global().snapshot().to_value(),
        ),
    ]);
    match std::fs::write("BENCH_opdomain.json", doc.serialize_pretty() + "\n") {
        Ok(()) => eprintln!("wrote BENCH_opdomain.json"),
        Err(e) => {
            eprintln!("could not write BENCH_opdomain.json: {e}");
            return ExitCode::from(2);
        }
    }
    if mismatches > 0 {
        eprintln!("bench-opdomain: {mismatches} tile(s) with adaptive/dense verdict mismatches");
        return ExitCode::from(1);
    }
    if ratio > 0.40 {
        eprintln!(
            "bench-opdomain: adaptive issued {:.1}% of the dense pattern simulations \
             (acceptance bound 40%)",
            ratio * 100.0
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
