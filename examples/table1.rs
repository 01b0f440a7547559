//! Regenerates the paper's **Table 1**: layout dimensions, SiDB counts,
//! and areas for the fourteen evaluation benchmarks.
//!
//! ```text
//! cargo run --release --example table1
//! ```
//!
//! Each benchmark runs through the full flow (synthesis → rewriting →
//! mapping → placement & routing → verification → library application).
//! Absolute SiDB counts differ from the paper's because the tile dot
//! patterns are this reproduction's own designs; the layout dimensions
//! and areas are directly comparable (see `EXPERIMENTS.md`).
//!
//! Besides the table, the run writes `BENCH_table1.json`: one entry per
//! benchmark with its wall time, an FNV-1a hash of its SQD export
//! (`sqd_hash`) and the full flow-telemetry report
//! (per-stage durations, SAT probe statistics per aspect ratio). Set
//! `TELEMETRY=summary|tree|json` to also stream each flow's report to
//! stderr as it completes.
//!
//! The exact P&R step probes aspect ratios on a parallel portfolio and
//! step 7 validates tiles on the same executor. Its width defaults to
//! the machine's parallelism; override it with the `THREADS`
//! environment variable — layouts are identical at any width. The width
//! is recorded in the JSON under the historical key `pnr_threads`, so
//! committed baselines stay comparable.
//!
//! Step 7 additionally judges the distinct tile designs each layout
//! uses under the paper's full model. Library designs are answered by
//! the committed nominal verdict table (`tiles.from_table`); anything
//! else runs the cached exact simulation engine and adds the `sidb.*`
//! counters (configurations visited/pruned, cache hits) to the report.
//! `SIM_CACHE=0` disables the cache.

use bestagon_core::benchmarks::{benchmark, benchmark_names};
use bestagon_core::flow::{FlowOptions, FlowRequest, Fnv64, PnrMethod};
use fcn_telemetry::json::Value;
use std::time::Instant;

fn main() {
    let pnr_threads = fcn_budget::exec::width();
    println!("=== Table 1: generated layout data ===\n");
    println!("(exact P&R portfolio: {pnr_threads} thread(s))\n");
    println!(
        "{:<16} {:>9} {:>5} {:>7} {:>12} {:>7}  {:<28} runtime",
        "Name", "w × h", "A", "SiDBs", "nm²", "engine", "paper (w×h, SiDBs, nm²)"
    );
    let mut entries: Vec<Value> = Vec::new();
    for name in benchmark_names() {
        let b = benchmark(name);
        let started = Instant::now();
        let options = FlowOptions::new()
            .with_pnr(PnrMethod::ExactWithFallback { max_area: 120 })
            .with_tile_validation();
        match FlowRequest::netlist(name, b.xag.clone())
            .with_options(options)
            .execute()
        {
            Ok(result) => {
                let ratio = result.layout.ratio();
                let cell = result.cell.as_ref().expect("library applied");
                let sqd = result.to_sqd().expect("library applied");
                let paper = b
                    .paper_result
                    .map(|(w, h, s, a)| format!("{w}×{h}, {s}, {a:.2}"))
                    .unwrap_or_else(|| "—".into());
                println!(
                    "{:<16} {:>4} × {:<3} {:>4} {:>7} {:>12.2} {:>7}  {:<28} [{:.1?}]",
                    name,
                    ratio.width,
                    ratio.height,
                    ratio.tile_count(),
                    cell.num_sidbs(),
                    cell.area_nm2,
                    if result.exact { "exact" } else { "heur." },
                    paper,
                    started.elapsed(),
                );
                let report = &result.report;
                entries.push(Value::Obj(vec![
                    ("name".to_owned(), Value::Str(name.to_owned())),
                    (
                        "seconds".to_owned(),
                        Value::Num(started.elapsed().as_secs_f64()),
                    ),
                    ("exact".to_owned(), Value::Bool(result.exact)),
                    // Layout geometry: deterministic at any thread
                    // count, so `bench-diff` gates on it strictly.
                    ("width".to_owned(), Value::Num(ratio.width as f64)),
                    ("height".to_owned(), Value::Num(ratio.height as f64)),
                    (
                        "area_tiles".to_owned(),
                        Value::Num(ratio.tile_count() as f64),
                    ),
                    ("sidbs".to_owned(), Value::Num(cell.num_sidbs() as f64)),
                    ("area_nm2".to_owned(), Value::Num(cell.area_nm2)),
                    // The dot-accurate layout itself, hashed: a reroute
                    // inside the same bounding box changes it. The top
                    // 53 bits, so the JSON number holds the hash exactly.
                    (
                        "sqd_hash".to_owned(),
                        Value::Num((Fnv64::new().bytes(sqd.as_bytes()).finish() >> 11) as f64),
                    ),
                    // Tree-wide work totals (deterministic at
                    // THREADS=1 — see README).
                    (
                        "conflicts".to_owned(),
                        Value::Num(report.counter_total("sat.conflicts") as f64),
                    ),
                    (
                        "visited".to_owned(),
                        Value::Num(report.counter_total("sidb.visited") as f64),
                    ),
                    // Distribution summaries (count/sum/min/max/p50/p90).
                    (
                        "conflicts_hist".to_owned(),
                        report.histogram_total("pnr.probe.conflicts").to_value(),
                    ),
                    (
                        "visited_hist".to_owned(),
                        report.histogram_total("sidb.visited").to_value(),
                    ),
                    ("report".to_owned(), report.to_value()),
                ]));
            }
            Err(e) => println!("{name:<16} FAILED: {e}"),
        }
    }
    let doc = Value::Obj(vec![
        (
            "generator".to_owned(),
            Value::Str("examples/table1.rs".to_owned()),
        ),
        ("pnr_threads".to_owned(), Value::Num(pnr_threads as f64)),
        ("benchmarks".to_owned(), Value::Arr(entries)),
        // Process-wide aggregates across all fourteen flows: flow count,
        // the flow-duration histogram, and every counter/histogram
        // summed over the whole batch.
        (
            "registry".to_owned(),
            fcn_telemetry::Registry::global().snapshot().to_value(),
        ),
    ]);
    match std::fs::write("BENCH_table1.json", doc.serialize_pretty() + "\n") {
        Ok(()) => eprintln!("wrote BENCH_table1.json"),
        Err(e) => eprintln!("could not write BENCH_table1.json: {e}"),
    }
}
