//! Regression pins for the physically validated portion of the Bestagon
//! library (the Figure 5 experiment's "operational" set): these designs
//! reproduced their full truth tables in exact ground-state simulation
//! when calibrated, and must keep doing so.

use bestagon_lib::geometry::validation_params;
use bestagon_lib::tiles::{
    double_wire, fanout_nw, gate_catalog, huff_style_or, inverter_nw_se, inverter_nw_sw,
    two_input_gate, wire_nw_se, wire_nw_sw, BestagonLibrary,
};
use bestagon_lib::verdicts::{content_hash, lookup, nominal_sim, NOMINAL_VERDICTS};
use fcn_coords::{HexDirection, LatticeCoord};
use fcn_logic::GateKind;
use sidb_sim::operational::{GateDesign, OperationalStatus};
use sidb_sim::stability::{logic_stability, worst_case_gap_ev};
use sidb_sim::{PhysicalParams, SimEngine, SimParams};

fn assert_operational(design: &GateDesign) {
    let sim = SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact);
    let report = design.check_operational_with(&sim);
    assert!(
        report.is_operational(),
        "{}: {:?}",
        design.name,
        report.status
    );
}

fn catalog_gate(kind: GateKind) -> GateDesign {
    let (_, name, table, frame) = gate_catalog()
        .into_iter()
        .find(|(k, ..)| *k == kind)
        .expect("gate in catalog");
    two_input_gate(name, &frame, table)
}

#[test]
fn validated_tile_set_stays_operational() {
    for design in [
        huff_style_or(),
        wire_nw_sw(),
        inverter_nw_sw(),
        double_wire(),
        catalog_gate(GateKind::And),
        catalog_gate(GateKind::Or),
        catalog_gate(GateKind::Nor),
    ] {
        assert_operational(&design);
    }
}

#[test]
fn designer_repaired_tiles_stay_operational() {
    // These tiles were non-operational until the automated designer
    // (`bestagon_lib::designer`) found their canvas dots — the repairs
    // are baked into the constructors and pinned here under the paper's
    // default physical parameters.
    for design in [wire_nw_se(), inverter_nw_se(), fanout_nw()] {
        assert_operational(&design);
    }
}

#[test]
fn validation_stops_at_the_deciding_pattern() {
    // XOR and XNOR already read wrong at pattern 0 under the flow's
    // validation parameters, so the check simulates that pattern alone.
    let sim = SimParams::new(validation_params()).with_engine(SimEngine::QuickExact);
    for design in [catalog_gate(GateKind::Xor), catalog_gate(GateKind::Xnor)] {
        let report = design.check_operational_with(&sim);
        assert!(
            matches!(
                report.status,
                OperationalStatus::NonOperational { pattern: 0, .. }
            ),
            "{}: {:?}",
            design.name,
            report.status
        );
        let first = design.evaluate_pattern_with(0, &sim);
        assert!(first.stats.visited > 0);
        assert_eq!(report.stats.visited, first.stats.visited, "{}", design.name);
    }
    // An operational design has no decider: every pattern is simulated.
    let design = huff_style_or();
    let report = design.check_operational_with(&sim);
    assert!(report.is_operational(), "{:?}", report.status);
    let every_pattern: u64 = (0..design.num_patterns())
        .map(|p| design.evaluate_pattern_with(p, &sim).stats.visited)
        .sum();
    assert_eq!(report.stats.visited, every_pattern);
}

#[test]
fn validation_cutoff_rejects_tiles_the_full_model_accepts() {
    // `validation_params()` (the defect scan's model) adds a 2 meV
    // interaction cutoff that drops couplings these tiles need, which is
    // why flow step 7 judges under the full model instead. Under the full
    // model (`PhysicalParams::default()`) every one of them is operational
    // (pinned above); under the cutoff each fails at the pattern listed.
    let sim = SimParams::new(validation_params()).with_engine(SimEngine::QuickExact);
    for (design, failing) in [
        (double_wire(), 0),
        (fanout_nw(), 0),
        (catalog_gate(GateKind::And), 0),
        (catalog_gate(GateKind::Or), 0),
        (catalog_gate(GateKind::Nor), 1),
    ] {
        let report = design.check_operational_with(&sim);
        assert!(
            matches!(
                report.status,
                OperationalStatus::NonOperational { pattern, .. } if pattern == failing
            ),
            "{}: {:?}",
            design.name,
            report.status
        );
    }
}

#[test]
fn huff_or_works_at_figure_1c_parameters() {
    let sim = SimParams::new(PhysicalParams::default().with_mu_minus(-0.28))
        .with_engine(SimEngine::Exhaustive);
    let report = huff_style_or().check_operational_with(&sim);
    assert!(report.is_operational(), "{:?}", report.status);
}

#[test]
fn validated_gates_have_resolvable_stability_gaps() {
    // Each validated logic tile must keep its ground state separated from
    // the nearest wrong-reading state by a positive gap.
    for design in [
        huff_style_or(),
        catalog_gate(GateKind::And),
        catalog_gate(GateKind::Or),
    ] {
        let stability = logic_stability(
            &design,
            &PhysicalParams::default(),
            6,
            SimEngine::QuickExact,
        );
        if let Some(gap) = worst_case_gap_ev(&stability) {
            assert!(gap > 0.0, "{}: non-positive gap", design.name);
        }
    }
}

/// A library entry's key: function, input ports, output ports.
type TileKey = (GateKind, Vec<HexDirection>, Vec<HexDirection>);

/// Every mirrored library entry, as (original key, mirrored key): the
/// library builds each mirrored design by reflecting the original
/// about the tile's centre column.
fn mirrored_entries() -> Vec<(TileKey, TileKey)> {
    use HexDirection::{NorthEast as NE, NorthWest as NW, SouthEast as SE, SouthWest as SW};
    let mut entries = vec![
        (
            (GateKind::Buf, vec![NW], vec![SW]),
            (GateKind::Buf, vec![NE], vec![SE]),
        ),
        (
            (GateKind::Buf, vec![NW], vec![SE]),
            (GateKind::Buf, vec![NE], vec![SW]),
        ),
        (
            (GateKind::Inv, vec![NW], vec![SW]),
            (GateKind::Inv, vec![NE], vec![SE]),
        ),
        (
            (GateKind::Inv, vec![NW], vec![SE]),
            (GateKind::Inv, vec![NE], vec![SW]),
        ),
        (
            (GateKind::Fanout, vec![NW], vec![SW, SE]),
            (GateKind::Fanout, vec![NE], vec![SE, SW]),
        ),
        (
            (GateKind::HalfAdder, vec![NW, NE], vec![SW, SE]),
            (GateKind::HalfAdder, vec![NW, NE], vec![SE, SW]),
        ),
    ];
    for (kind, ..) in gate_catalog() {
        entries.push((
            (kind, vec![NW, NE], vec![SE]),
            (kind, vec![NW, NE], vec![SW]),
        ));
    }
    entries
}

/// Asserts that the mirrored entry `mirror` of `original` gets the
/// original's verdict under the full model and under the 2 meV cutoff,
/// and that under the full model every input pattern's ground state is
/// the mirror image of the original's.
fn assert_mirror_matches(original: &GateDesign, mirror: &GateDesign) {
    for physical in [PhysicalParams::default(), validation_params()] {
        let sim = SimParams::new(physical).with_engine(SimEngine::QuickExact);
        assert_eq!(
            original.check_operational_with(&sim).status,
            mirror.check_operational_with(&sim).status,
            "{} vs {} at {physical:?}",
            original.name,
            mirror.name
        );
    }
    let sim = SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact);
    assert_eq!(original.num_patterns(), mirror.num_patterns());
    for pattern in 0..original.num_patterns() {
        let (a, b) = (
            original.layout_for_pattern(pattern),
            mirror.layout_for_pattern(pattern),
        );
        assert_eq!(a.num_sites(), b.num_sites());
        // Reflection about column `axis` maps x to `2·axis − x`, so the
        // leftmost original dot lands on the rightmost mirrored one.
        let min_x = a.sites().iter().map(|s| s.x).min().expect("sites");
        let max_x = b.sites().iter().map(|s| s.x).max().expect("sites");
        let reflect = |s: LatticeCoord| LatticeCoord::new(min_x + max_x - s.x, s.y, s.b);
        let (ga, gb) = (
            sidb_sim::simulate_with(&a, &sim),
            sidb_sim::simulate_with(&b, &sim),
        );
        assert!(
            !ga.truncated && !gb.truncated,
            "{} p{pattern}",
            original.name
        );
        let (ga, gb) = (&ga.states[0].config, &gb.states[0].config);
        for (i, &site) in a.sites().iter().enumerate() {
            let j = b
                .index_of(reflect(site))
                .unwrap_or_else(|| panic!("{}: no mirror of {site:?}", mirror.name));
            assert_eq!(
                ga.state(i),
                gb.state(j),
                "{} p{pattern}: dot {site:?} and its mirror differ",
                mirror.name
            );
        }
    }
}

/// Checks every mirrored entry whose original `keep` selects.
fn check_mirrored_entries(keep: impl Fn(&TileKey) -> bool) {
    let lib = BestagonLibrary::new();
    let tile = |(kind, inputs, outputs): &TileKey| {
        lib.tile(*kind, inputs, outputs)
            .unwrap_or_else(|| panic!("no {kind:?} {inputs:?}→{outputs:?} tile"))
    };
    for (original, mirror) in mirrored_entries().iter().filter(|(o, _)| keep(o)) {
        assert_mirror_matches(tile(original), tile(mirror));
    }
}

#[test]
fn mirrored_wires_inverters_and_fanout_match_their_originals() {
    check_mirrored_entries(|(kind, ..)| {
        matches!(kind, GateKind::Buf | GateKind::Inv | GateKind::Fanout)
    });
}

#[test]
#[ignore = "the half adder and the two-input gates: about 10 s in release"]
fn every_mirrored_entry_matches_its_original() {
    check_mirrored_entries(|_| true);
}

/// The rows a fresh simulation gives the library: name, content hash,
/// verdict and visited nodes, in `BestagonLibrary::designs` order.
type Row = (String, u64, OperationalStatus, u64);

/// The nominal verdict table as committed.
fn committed_rows() -> Vec<Row> {
    NOMINAL_VERDICTS
        .iter()
        .map(|r| (r.name.to_owned(), r.hash, r.verdict.status(), r.visited))
        .collect()
}

/// `crates/bestagon/src/verdicts/table.rs` for `rows`, formatted as
/// rustfmt leaves it.
fn render_table(rows: &[Row]) -> String {
    let group = |digits: String, width: usize| -> String {
        let chunks: Vec<String> = digits
            .as_bytes()
            .rchunks(width)
            .rev()
            .map(|c| String::from_utf8_lossy(c).into_owned())
            .collect();
        chunks.join("_")
    };
    let mut out = String::from(
        "//! The nominal verdict rows (see the parent module), generated: when a\n\
         //! library design changes, `cargo test --release --test\n\
         //! library_validation nominal_verdicts -- --include-ignored` prints this\n\
         //! file's replacement.\n\
         \n\
         use super::{NominalVerdict, Verdict};\n\
         \n\
         /// One row per library design, in `BestagonLibrary::designs` order.\n\
         pub static NOMINAL_VERDICTS: &[NominalVerdict] = &[\n",
    );
    for (name, hash, status, visited) in rows {
        let verdict = match status {
            OperationalStatus::Operational => "Verdict::Operational".to_owned(),
            OperationalStatus::Unknown { pattern } => {
                format!("Verdict::Unknown {{ pattern: {pattern} }}")
            }
            OperationalStatus::NonOperational {
                pattern,
                observed,
                expected,
            } => format!(
                "Verdict::NonOperational {{\n            pattern: {pattern},\n            \
                 observed: &{observed:?},\n            expected: &{expected:?},\n        }}"
            ),
        };
        out += &format!(
            "    NominalVerdict {{\n        name: {name:?},\n        hash: 0x{},\n        \
             verdict: {verdict},\n        visited: {},\n    }},\n",
            group(format!("{hash:016x}"), 4),
            group(visited.to_string(), 3),
        );
    }
    out + "];\n"
}

#[test]
fn nominal_verdict_table_covers_every_library_design() {
    let designs = BestagonLibrary::new().designs();
    let rows = committed_rows();
    assert_eq!(
        rows.len(),
        designs.len(),
        "one row per library design; regenerate the table (see its module docs)"
    );
    for (design, (name, hash, ..)) in designs.iter().zip(&rows) {
        assert_eq!(
            (&design.name, content_hash(design)),
            (name, *hash),
            "{} changed since the nominal verdict table was generated: regenerate it",
            design.name
        );
        assert!(lookup(design, &nominal_sim()).is_some(), "{}", design.name);
        // Moving any single dot by one column leaves the table.
        for (i, &site) in design.body.sites().iter().enumerate() {
            let mut moved = design.clone();
            moved.body = sidb_sim::layout::SidbLayout::from_sites(
                design.body.sites().iter().enumerate().map(|(j, &s)| {
                    if i == j {
                        LatticeCoord::new(s.x + 1, s.y, s.b)
                    } else {
                        s
                    }
                }),
            );
            assert!(
                lookup(&moved, &nominal_sim()).is_none(),
                "{}: moving {site:?} kept a table row",
                design.name
            );
        }
    }
}

#[test]
#[ignore = "simulates every library design under the full model: about 3 s in release"]
fn nominal_verdicts_match_a_full_recompute() {
    let sim = nominal_sim();
    let fresh: Vec<Row> = BestagonLibrary::new()
        .designs()
        .iter()
        .map(|design| {
            let report = design.check_operational_with(&sim);
            (
                design.name.clone(),
                content_hash(design),
                report.status,
                report.stats.visited,
            )
        })
        .collect();
    if fresh != committed_rows() {
        println!("{}", render_table(&fresh));
        panic!(
            "the nominal verdict table is stale: replace \
             crates/bestagon/src/verdicts/table.rs with the text printed above"
        );
    }
    // The committed file is exactly what the generator writes.
    assert_eq!(
        render_table(&fresh),
        include_str!("../crates/bestagon/src/verdicts/table.rs")
    );
}
