//! Benchmark harness for the Bestagon reproduction.
//!
//! The binaries in `src/bin` regenerate the committed `BENCH_*.json`
//! baselines, and `bench_diff` gates a fresh run against them:
//!
//! | binary | writes | measures |
//! |---|---|---|
//! | `bench_opdomain` | `BENCH_opdomain.json` | adaptive vs dense operational-domain sweeps |
//! | `bench_yield` | `BENCH_yield.json` | defect-aware vs defect-blind yield |
//! | `bench_sim` | `BENCH_sim.json` | the QuickExact kernel on every Figure 5 pattern |
//! | `bench_diff` | — | the regression gate over two of these files |
//!
//! `BENCH_table1.json` comes from the `table1` example in the
//! repository root (`cargo run --release --example table1`).

use bestagon_core::benchmarks::benchmark;
use bestagon_core::flow::{FlowOptions, FlowRequest, FlowResult, PnrMethod};

/// Runs the default flow on a named benchmark (convenience for benches).
///
/// # Panics
///
/// Panics if the flow fails — benchmark circuits are expected to pass.
pub fn flow_for(name: &str, pnr: PnrMethod) -> FlowResult {
    let b = benchmark(name);
    FlowRequest::netlist(name, b.xag.clone())
        .with_options(FlowOptions::new().with_pnr(pnr))
        .execute()
        .expect("benchmark flows succeed")
}

/// The subset of Table 1 benchmarks small enough for repeated timing.
pub fn timing_benchmarks() -> Vec<&'static str> {
    vec!["xor2", "xnor2", "par_gen", "mux21", "majority"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_helper_runs() {
        let r = flow_for("xor2", PnrMethod::ExactWithFallback { max_area: 60 });
        assert!(r.layout.verify().is_empty());
    }
}
