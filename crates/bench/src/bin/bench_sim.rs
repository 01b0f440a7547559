//! `bench-sim` — the exact-simulation kernel benchmark.
//!
//! ```text
//! cargo run --release -p bench --bin bench_sim
//! ```
//!
//! Simulates every input pattern of every Figure 5 tile design with
//! QuickExact at nominal physical parameters, the default step cap and
//! no cache, and writes `BENCH_sim.json`: per design, the summed
//! branch-and-bound `visited` and `pruned` node counts, how many
//! patterns the cap `truncated`, a `spectra_hash` over every pattern's
//! spectrum (charge states and the bits of both energies), the wall
//! clock and the visited nodes per second. The closing `aggregate`
//! entry sums the counters over all designs.
//!
//! Unlike `BENCH_table1.json` and `BENCH_opdomain.json`, no flow, cache
//! or sweep strategy sits between this benchmark and the kernel, so
//! its `seconds` and `visited_per_s` measure the search itself. The
//! patterns run one after another; regenerate the committed file at
//! `THREADS=1`. The counters and the hash are deterministic, and
//! `bench_diff` gates them strictly.

use bestagon_core::flow::Fnv64;
use fcn_telemetry::json::Value;
use sidb_sim::exgs::SimulatedState;
use sidb_sim::{PhysicalParams, SimParams, SimResult};
use std::process::ExitCode;
use std::time::Instant;

/// Feeds one pattern's spectrum into the design's hash.
fn hash_result(hash: &mut Fnv64, result: &SimResult) {
    hash.bytes(&[u8::from(result.truncated)])
        .bytes(&(result.states.len() as u64).to_le_bytes());
    for SimulatedState {
        config,
        electrostatic_energy,
        free_energy,
    } in &result.states
    {
        let states: Vec<u8> = config.states().iter().map(|&s| s as u8).collect();
        hash.bytes(&states)
            .bytes(&electrostatic_energy.to_bits().to_le_bytes())
            .bytes(&free_energy.to_bits().to_le_bytes());
    }
}

fn main() -> ExitCode {
    let params = SimParams::new(PhysicalParams::default());
    println!("=== QuickExact kernel: every Figure 5 pattern, no cache ===\n");
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>9} {:>9} {:>12}",
        "Design", "patterns", "visited", "pruned", "truncated", "seconds", "visited/s"
    );
    let mut entries: Vec<Value> = Vec::new();
    let (mut total_visited, mut total_pruned, mut total_truncated) = (0u64, 0u64, 0u64);
    let mut total_seconds = 0.0;
    for design in bestagon_lib::tiles::figure5_designs() {
        let mut hash = Fnv64::new();
        let (mut visited, mut pruned, mut truncated) = (0u64, 0u64, 0u64);
        let started = Instant::now();
        for pattern in 0..design.num_patterns() {
            let result = sidb_sim::simulate_with(&design.layout_for_pattern(pattern), &params);
            visited += result.stats.visited;
            pruned += result.stats.pruned;
            truncated += u64::from(result.truncated);
            hash_result(&mut hash, &result);
        }
        let seconds = started.elapsed().as_secs_f64();
        let rate = visited as f64 / seconds.max(1e-9);
        println!(
            "{:<18} {:>8} {:>12} {:>12} {:>9} {:>9.3} {:>12.0}",
            design.name,
            design.num_patterns(),
            visited,
            pruned,
            truncated,
            seconds,
            rate
        );
        total_visited += visited;
        total_pruned += pruned;
        total_truncated += truncated;
        total_seconds += seconds;
        entries.push(Value::Obj(vec![
            ("name".to_owned(), Value::Str(design.name.clone())),
            (
                "patterns".to_owned(),
                Value::Num(f64::from(design.num_patterns())),
            ),
            ("seconds".to_owned(), Value::Num(seconds)),
            ("visited_per_s".to_owned(), Value::Num(rate)),
            // Deterministic at any thread width: `bench_diff` gates
            // these strictly.
            ("visited".to_owned(), Value::Num(visited as f64)),
            ("pruned".to_owned(), Value::Num(pruned as f64)),
            ("truncated".to_owned(), Value::Num(truncated as f64)),
            // The top 53 bits, so the JSON number holds the hash exactly.
            (
                "spectra_hash".to_owned(),
                Value::Num((hash.finish() >> 11) as f64),
            ),
        ]));
    }
    let rate = total_visited as f64 / total_seconds.max(1e-9);
    println!(
        "\naggregate: {total_visited} visited, {total_pruned} pruned, \
         {total_truncated} truncated patterns in {total_seconds:.3} s ({rate:.0} visited/s)"
    );
    entries.push(Value::Obj(vec![
        ("name".to_owned(), Value::Str("aggregate".to_owned())),
        ("seconds".to_owned(), Value::Num(total_seconds)),
        ("visited_per_s".to_owned(), Value::Num(rate)),
        ("visited".to_owned(), Value::Num(total_visited as f64)),
        ("pruned".to_owned(), Value::Num(total_pruned as f64)),
        ("truncated".to_owned(), Value::Num(total_truncated as f64)),
    ]));
    let doc = Value::Obj(vec![
        (
            "generator".to_owned(),
            Value::Str("crates/bench/src/bin/bench_sim.rs".to_owned()),
        ),
        ("benchmarks".to_owned(), Value::Arr(entries)),
    ]);
    match std::fs::write("BENCH_sim.json", doc.serialize_pretty() + "\n") {
        Ok(()) => {
            eprintln!("wrote BENCH_sim.json");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write BENCH_sim.json: {e}");
            ExitCode::from(2)
        }
    }
}
