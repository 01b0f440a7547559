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
//! | `bench_sat` | `BENCH_sat.json` | the msat kernel: exact P&R on every Table 1 circuit |
//! | `bench_diff` | — | the regression gate over two of these files |
//!
//! `BENCH_table1.json` comes from the `table1` example in the
//! repository root (`cargo run --release --example table1`).
