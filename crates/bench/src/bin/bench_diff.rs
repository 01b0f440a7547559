//! `bench-diff` — a regression gate over two benchmark JSON files
//! (`BENCH_table1.json`, `BENCH_opdomain.json`, `BENCH_yield.json` or
//! `BENCH_sim.json`).
//!
//! ```text
//! cargo run --release -p bench --bin bench_diff -- \
//!     BENCH_baseline.json BENCH_table1.json [--wall-tol 0.5] [--work-tol 0.0]
//! ```
//!
//! Compares a committed baseline against a fresh run and exits nonzero
//! when the new run regressed. Two classes of field are gated
//! differently, matching the determinism contract in `DESIGN.md` §11:
//!
//! * **Deterministic work counters** — layout geometry (`width`,
//!   `height`, `area_tiles`, `sidbs`, `area_nm2`), SAT `conflicts`,
//!   simulator `visited`/`pruned`/`truncated` counts and spectrum
//!   hashes. These are byte-reproducible when both runs use
//!   `THREADS=1`, so the gate is symmetric and strict: any relative
//!   change beyond `--work-tol` (default `0.0`, i.e. exact; hashes are
//!   always exact) is a failure. A *decrease* fails too —
//!   it means the baseline is stale and should be regenerated, not that
//!   the code got faster.
//! * **Wall-clock seconds** — noisy on shared CI runners, so the gate is
//!   one-sided (only slowdowns count) and generous: the new time may
//!   exceed the baseline by up to `--wall-tol` (default `0.5`, i.e.
//!   +50%) plus an absolute floor of 250 ms, below which jitter drowns
//!   any signal.
//!
//! Benchmarks present in only one file, or marked `exact` in the
//! baseline but not the current run, always fail. Exit codes: `0` no
//! regression, `1` regression detected, `2` usage or parse error.

use fcn_telemetry::json::Value;
use std::process::ExitCode;

/// Seconds below which wall-clock deltas are pure jitter.
const WALL_FLOOR_SECS: f64 = 0.25;

/// Per-benchmark fields that must reproduce exactly (modulo
/// `--work-tol`) between baseline and current run. A field only gates
/// when present in both files, so `BENCH_table1.json` entries ignore
/// the `BENCH_opdomain.json` columns and vice versa.
const STRICT_FIELDS: &[&str] = &[
    // Flow benchmarks (BENCH_table1.json).
    "width",
    "height",
    "area_tiles",
    "sidbs",
    "area_nm2",
    "conflicts",
    "visited",
    // Operational-domain benchmarks (BENCH_opdomain.json).
    "points",
    "operational",
    "simulated",
    "inferred",
    "skipped",
    "unknown",
    "pattern_sims",
    "dense_pattern_sims",
    "dense_visited",
    // Defect-yield benchmarks (BENCH_yield.json).
    "surfaces",
    "aware_ok",
    "blind_ok",
    // Simulation-kernel benchmarks (BENCH_sim.json).
    "pruned",
    "truncated",
    "spectra_hash",
];

struct Options {
    baseline: String,
    current: String,
    wall_tol: f64,
    work_tol: f64,
}

fn parse_args(mut args: std::env::Args) -> Result<Options, String> {
    args.next(); // argv[0]
    let mut positional = Vec::new();
    let mut wall_tol = 0.5;
    let mut work_tol = 0.0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--wall-tol" => {
                wall_tol = parse_tol(args.next(), "--wall-tol")?;
            }
            "--work-tol" => {
                work_tol = parse_tol(args.next(), "--work-tol")?;
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag {arg}")),
            _ => positional.push(arg),
        }
    }
    match <[String; 2]>::try_from(positional) {
        Ok([baseline, current]) => Ok(Options {
            baseline,
            current,
            wall_tol,
            work_tol,
        }),
        Err(_) => Err(
            "expected exactly two positional arguments: <baseline.json> <current.json>".to_owned(),
        ),
    }
}

fn parse_tol(value: Option<String>, flag: &str) -> Result<f64, String> {
    value
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t >= 0.0)
        .ok_or_else(|| format!("{flag} needs a non-negative number"))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    fcn_telemetry::json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e:?}"))
}

/// The `benchmarks` array as `(name, entry)` pairs, in file order.
fn benchmarks(doc: &Value, path: &str) -> Result<Vec<(String, Value)>, String> {
    let entries = doc
        .get("benchmarks")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: missing `benchmarks` array"))?;
    entries
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{path}: benchmark entry without a `name`"))?;
            Ok((name.to_owned(), entry.clone()))
        })
        .collect()
}

fn num_field(entry: &Value, field: &str) -> Option<f64> {
    entry.get(field).and_then(Value::as_f64)
}

/// One benchmark's verdicts; pushes human-readable failures onto `out`.
fn compare_entry(name: &str, base: &Value, cur: &Value, opts: &Options, out: &mut Vec<String>) {
    if base.get("exact").and_then(Value::as_bool) == Some(true)
        && cur.get("exact").and_then(Value::as_bool) != Some(true)
    {
        out.push(format!(
            "{name}: baseline layout was exact, current run fell back to heuristic"
        ));
    }
    for field in STRICT_FIELDS {
        let (Some(before), Some(after)) = (num_field(base, field), num_field(cur, field)) else {
            // Tolerate baselines generated before a field existed; the
            // CI baseline is regenerated whenever the schema grows.
            continue;
        };
        // A hash has no magnitude: any change fails.
        let tol = if field.ends_with("_hash") {
            0.0
        } else {
            opts.work_tol
        };
        let scale = before.abs().max(1.0);
        if (after - before).abs() > tol * scale {
            out.push(format!(
                "{name}: {field} changed {before} -> {after} \
                 (tolerance {:.1}%)",
                tol * 100.0
            ));
        }
    }
    if let (Some(before), Some(after)) = (num_field(base, "seconds"), num_field(cur, "seconds")) {
        let allowed = before * (1.0 + opts.wall_tol) + WALL_FLOOR_SECS;
        if after > allowed {
            out.push(format!(
                "{name}: wall clock {before:.3}s -> {after:.3}s \
                 (allowed up to {allowed:.3}s at +{:.0}% + {WALL_FLOOR_SECS}s)",
                opts.wall_tol * 100.0
            ));
        }
    }
}

fn run(opts: &Options) -> Result<Vec<String>, String> {
    let base_doc = load(&opts.baseline)?;
    let cur_doc = load(&opts.current)?;
    let base = benchmarks(&base_doc, &opts.baseline)?;
    let cur = benchmarks(&cur_doc, &opts.current)?;
    let mut failures = Vec::new();
    for (name, base_entry) in &base {
        match cur.iter().find(|(n, _)| n == name) {
            Some((_, cur_entry)) => {
                compare_entry(name, base_entry, cur_entry, opts, &mut failures);
            }
            None => failures.push(format!(
                "{name}: present in baseline, missing from current run"
            )),
        }
    }
    for (name, _) in &cur {
        if !base.iter().any(|(n, _)| n == name) {
            failures.push(format!(
                "{name}: new benchmark absent from baseline (regenerate the baseline)"
            ));
        }
    }
    Ok(failures)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args()) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            eprintln!(
                "usage: bench_diff <baseline.json> <current.json> \
                 [--wall-tol FRACTION] [--work-tol FRACTION]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(failures) if failures.is_empty() => {
            println!(
                "bench-diff: no regressions ({} vs {})",
                opts.baseline, opts.current
            );
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            eprintln!("bench-diff: {} regression(s):", failures.len());
            for failure in &failures {
                eprintln!("  {failure}");
            }
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, seconds: f64, conflicts: f64) -> Value {
        Value::Obj(vec![
            ("name".to_owned(), Value::Str(name.to_owned())),
            ("seconds".to_owned(), Value::Num(seconds)),
            ("exact".to_owned(), Value::Bool(true)),
            ("conflicts".to_owned(), Value::Num(conflicts)),
        ])
    }

    fn opts() -> Options {
        Options {
            baseline: String::new(),
            current: String::new(),
            wall_tol: 0.5,
            work_tol: 0.0,
        }
    }

    #[test]
    fn identical_entries_pass() {
        let mut failures = Vec::new();
        let e = entry("mux21", 1.0, 100.0);
        compare_entry("mux21", &e, &e, &opts(), &mut failures);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn conflict_change_fails_in_both_directions() {
        for after in [99.0, 101.0] {
            let mut failures = Vec::new();
            compare_entry(
                "mux21",
                &entry("mux21", 1.0, 100.0),
                &entry("mux21", 1.0, after),
                &opts(),
                &mut failures,
            );
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("conflicts"), "{failures:?}");
        }
    }

    #[test]
    fn work_tol_admits_small_counter_drift() {
        let mut failures = Vec::new();
        let o = Options {
            work_tol: 0.05,
            ..opts()
        };
        compare_entry(
            "mux21",
            &entry("mux21", 1.0, 100.0),
            &entry("mux21", 1.0, 104.0),
            &o,
            &mut failures,
        );
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn hash_change_fails_under_any_work_tol() {
        let with_hash = |hash: f64| {
            Value::Obj(vec![
                ("name".to_owned(), Value::Str("wire".to_owned())),
                ("spectra_hash".to_owned(), Value::Num(hash)),
            ])
        };
        let o = Options {
            work_tol: 0.05,
            ..opts()
        };
        let mut failures = Vec::new();
        compare_entry(
            "wire",
            &with_hash(1000.0),
            &with_hash(1001.0),
            &o,
            &mut failures,
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("spectra_hash"), "{failures:?}");
    }

    #[test]
    fn wall_clock_gate_is_one_sided_and_generous() {
        // Much faster: fine. Slightly slower: inside +50% + floor. Far
        // slower: regression.
        for (after, expect_fail) in [(0.1, false), (1.6, false), (2.0, true)] {
            let mut failures = Vec::new();
            compare_entry(
                "mux21",
                &entry("mux21", 1.0, 100.0),
                &entry("mux21", after, 100.0),
                &opts(),
                &mut failures,
            );
            assert_eq!(
                !failures.is_empty(),
                expect_fail,
                "after={after}: {failures:?}"
            );
        }
    }

    #[test]
    fn exactness_loss_fails() {
        let mut failures = Vec::new();
        let mut cur = entry("mux21", 1.0, 100.0);
        if let Value::Obj(members) = &mut cur {
            for (k, v) in members.iter_mut() {
                if k == "exact" {
                    *v = Value::Bool(false);
                }
            }
        }
        compare_entry(
            "mux21",
            &entry("mux21", 1.0, 100.0),
            &cur,
            &opts(),
            &mut failures,
        );
        assert!(
            failures.iter().any(|f| f.contains("heuristic")),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_benchmark_fails_via_run_shape() {
        let doc = |names: &[&str]| {
            Value::Obj(vec![(
                "benchmarks".to_owned(),
                Value::Arr(names.iter().map(|n| entry(n, 1.0, 1.0)).collect()),
            )])
        };
        let base = benchmarks(&doc(&["a", "b"]), "base").unwrap();
        let cur = benchmarks(&doc(&["a"]), "cur").unwrap();
        let mut failures = Vec::new();
        for (name, base_entry) in &base {
            match cur.iter().find(|(n, _)| n == name) {
                Some((_, cur_entry)) => {
                    compare_entry(name, base_entry, cur_entry, &opts(), &mut failures)
                }
                None => failures.push(format!("{name}: missing")),
            }
        }
        assert_eq!(failures, vec!["b: missing".to_owned()]);
    }
}
