//! `bench-sat` — the SAT-kernel benchmark.
//!
//! ```text
//! cargo run --release -p bench --bin bench_sat
//! ```
//!
//! Rewrites and maps each of the 14 Table 1 circuits as the default
//! flow does, then runs exact hexagonal placement & routing on it with
//! the table's area bound and the default per-ratio conflict budget,
//! and writes `BENCH_sat.json`: per circuit, the number of aspect-ratio
//! `probes`, how many of them were abandoned at the conflict budget
//! (`budget_exceeded`: a nonzero count means the layout is not proven
//! area-minimal), the solver counters summed over them (`conflicts`,
//! `decisions`, `propagations`, `restarts`, and `learned`, the learned
//! clauses each probe's database held when it ended), the scan's wall
//! clock and the propagations per second of solve time. The closing
//! `aggregate` entry sums every circuit.
//!
//! Every probe is a fresh solver, so the counters are deterministic and
//! `bench_diff` gates them strictly; an msat change that alters the
//! search, decision for decision, fails there. The scans run at width 1
//! (whatever `THREADS` says), so `seconds` and `propagations_per_s`
//! measure one solver at a time. `seconds` is the whole scan: the
//! candidate list, each probe's CNF encoding and `Solver::solve_with`.
//! `propagations_per_s` divides by the probes' summed solve time alone
//! (`SolverStats::propagations_per_sec`), so it is a solver rate that
//! an encoder change does not move. Solving dominates `seconds` only on
//! majority_5_r1 and newtag (and with them the aggregate); on the other
//! twelve, encoding costs from a quarter of the solve time to more than
//! twice it. The `encode` child span of every `ratio:WxH` span
//! separates the two (EXPERIMENTS.md, Table 1).

use bestagon_core::benchmarks::{benchmark, benchmark_names};
use bestagon_core::flow::FlowOptions;
use fcn_logic::rewrite::rewrite;
use fcn_logic::techmap::map_xag;
use fcn_pnr::{exact_pnr, ExactOptions, NetGraph, ProbeVerdict};
use fcn_telemetry::json::Value;
use msat::SolverStats;
use std::process::ExitCode;
use std::time::Instant;

/// The area bound of the Table 1 flow (`examples/table1.rs`).
const MAX_AREA: u64 = 120;

/// One circuit's (or the aggregate's) totals.
#[derive(Default)]
struct Row {
    probes: u64,
    /// Probes abandoned at the conflict budget.
    budget_exceeded: u64,
    stats: SolverStats,
    /// Learned clauses at the end of each probe, summed.
    learned: u64,
    seconds: f64,
}

impl Row {
    fn add(&mut self, other: &Row) {
        self.probes += other.probes;
        self.budget_exceeded += other.budget_exceeded;
        self.stats += other.stats;
        self.learned += other.learned;
        self.seconds += other.seconds;
    }

    /// Propagations per second of solve time (encoding excluded).
    fn rate(&self) -> f64 {
        self.stats.propagations_per_sec().unwrap_or(0.0)
    }

    fn print(&self, name: &str) {
        println!(
            "{:<16} {:>6} {:>6} {:>9} {:>10} {:>12} {:>8} {:>9} {:>8.3} {:>12.0}",
            name,
            self.probes,
            self.budget_exceeded,
            self.stats.conflicts,
            self.stats.decisions,
            self.stats.propagations,
            self.stats.restarts,
            self.learned,
            self.seconds,
            self.rate()
        );
    }

    fn to_value(&self, name: &str) -> Value {
        let num = |v: u64| Value::Num(v as f64);
        Value::Obj(vec![
            ("name".to_owned(), Value::Str(name.to_owned())),
            ("seconds".to_owned(), Value::Num(self.seconds)),
            ("propagations_per_s".to_owned(), Value::Num(self.rate())),
            // Deterministic at any width: `bench_diff` gates these.
            ("probes".to_owned(), num(self.probes)),
            ("budget_exceeded".to_owned(), num(self.budget_exceeded)),
            ("conflicts".to_owned(), num(self.stats.conflicts)),
            ("decisions".to_owned(), num(self.stats.decisions)),
            ("propagations".to_owned(), num(self.stats.propagations)),
            ("restarts".to_owned(), num(self.stats.restarts)),
            ("learned".to_owned(), num(self.learned)),
        ])
    }
}

/// Rewrites, maps and places & routes one circuit exactly.
fn scan(name: &str) -> Result<Row, String> {
    let flow = FlowOptions::new();
    let xag = benchmark(name).xag;
    let optimized = match flow.rewrite {
        Some(options) => rewrite(&xag, options),
        None => xag.cleaned(),
    };
    let mapped = map_xag(&optimized, flow.map).map_err(|e| e.to_string())?;
    let graph = NetGraph::new(mapped).map_err(|e| e.to_string())?;
    let options = ExactOptions {
        max_area: MAX_AREA,
        ..ExactOptions::default()
    };
    let started = Instant::now();
    let outcome = exact_pnr(&graph, &options).map_err(|e| e.to_string())?;
    let seconds = started.elapsed().as_secs_f64();
    let mut row = Row {
        seconds,
        ..Row::default()
    };
    for probe in &outcome.probes {
        row.probes += 1;
        row.budget_exceeded += u64::from(probe.verdict == ProbeVerdict::BudgetExceeded);
        row.stats += probe.stats;
        row.learned += probe.stats.learned;
    }
    Ok(row)
}

fn main() -> ExitCode {
    println!("=== msat kernel: exact hex P&R on every Table 1 circuit, width 1 ===\n");
    println!(
        "{:<16} {:>6} {:>6} {:>9} {:>10} {:>12} {:>8} {:>9} {:>8} {:>12}",
        "Circuit",
        "probes",
        "budget",
        "conflicts",
        "decisions",
        "propagations",
        "restarts",
        "learned",
        "seconds",
        "props/s"
    );
    let mut entries: Vec<Value> = Vec::new();
    let mut total = Row::default();
    for name in benchmark_names() {
        match fcn_budget::exec::with_width(1, || scan(name)) {
            Ok(row) => {
                row.print(name);
                entries.push(row.to_value(name));
                total.add(&row);
            }
            Err(e) => {
                eprintln!("{name}: exact P&R failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!();
    total.print("aggregate");
    entries.push(total.to_value("aggregate"));
    let doc = Value::Obj(vec![
        (
            "generator".to_owned(),
            Value::Str("crates/bench/src/bin/bench_sat.rs".to_owned()),
        ),
        ("benchmarks".to_owned(), Value::Arr(entries)),
    ]);
    match std::fs::write("BENCH_sat.json", doc.serialize_pretty() + "\n") {
        Ok(()) => {
            eprintln!("wrote BENCH_sat.json");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write BENCH_sat.json: {e}");
            ExitCode::from(2)
        }
    }
}
