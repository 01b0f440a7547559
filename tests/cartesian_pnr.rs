//! Pins the Cartesian (2DDWave) exact engine on the paper's Figure 3
//! circuits, prepared exactly as `examples/fig3_topology.rs` prepares
//! them. The literals were recorded from the engine's from-scratch,
//! single-width scan. Equal solver counters mean the encoder emits the
//! same variables and clauses in the same order, so any change to them is
//! an encoding change and must be re-recorded on purpose.

use bestagon_core::benchmarks::benchmark;
use fcn_budget::exec::with_width;
use fcn_logic::rewrite::{rewrite, RewriteOptions};
use fcn_logic::techmap::{map_xag, MapOptions};
use fcn_pnr::{cartesian_exact_pnr, ExactOptions, NetGraph, ProbeVerdict};

use ProbeVerdict::{Sat, Unsat};

/// One circuit's pinned scan: winning `(width, height)`, ratios tried,
/// the `(width, height, verdict)` probe log, and the cumulative
/// conflicts, decisions and propagations.
struct Pin {
    name: &'static str,
    ratio: (u32, u32),
    ratios_tried: usize,
    probes: &'static [(u32, u32, ProbeVerdict)],
    work: (u64, u64, u64),
}

const PINS: &[Pin] = &[
    Pin {
        name: "xor2",
        ratio: (3, 2),
        ratios_tried: 7,
        probes: &[
            (4, 1, Unsat),
            (2, 2, Unsat),
            (1, 4, Unsat),
            (5, 1, Unsat),
            (1, 5, Unsat),
            (6, 1, Unsat),
            (3, 2, Sat),
        ],
        work: (15, 34, 315),
    },
    Pin {
        name: "par_gen",
        ratio: (4, 2),
        ratios_tried: 8,
        probes: &[
            (6, 1, Unsat),
            (3, 2, Unsat),
            (2, 3, Unsat),
            (1, 6, Unsat),
            (7, 1, Unsat),
            (1, 7, Unsat),
            (8, 1, Unsat),
            (4, 2, Sat),
        ],
        work: (35, 67, 1014),
    },
    Pin {
        name: "mux21",
        ratio: (5, 3),
        ratios_tried: 14,
        probes: &[
            (11, 1, Unsat),
            (1, 11, Unsat),
            (12, 1, Unsat),
            (6, 2, Unsat),
            (2, 6, Unsat),
            (1, 12, Unsat),
            (13, 1, Unsat),
            (1, 13, Unsat),
            (14, 1, Unsat),
            (7, 2, Unsat),
            (2, 7, Unsat),
            (1, 14, Unsat),
            (15, 1, Unsat),
            (5, 3, Sat),
        ],
        work: (131, 285, 12160),
    },
];

const XOR2_LAYOUT: &str = "    ·      PI:b       ·    \n  PI:a      XOR     PO:f   \n";

fn graph_for(name: &str) -> NetGraph {
    let b = benchmark(name);
    let optimized = rewrite(&b.xag, RewriteOptions::default());
    let net = map_xag(&optimized, MapOptions::default()).expect("mappable");
    NetGraph::new(net).expect("placeable")
}

#[test]
fn cartesian_scans_match_the_recorded_figure3_pins() {
    let options = ExactOptions {
        max_area: 120,
        ..Default::default()
    };
    for pin in PINS {
        let graph = graph_for(pin.name);
        let result = with_width(1, || cartesian_exact_pnr(&graph, &options)).expect("feasible");
        let name = pin.name;
        assert_eq!(
            (result.ratio.width, result.ratio.height),
            pin.ratio,
            "{name}: ratio"
        );
        assert_eq!(
            result.ratios_tried, pin.ratios_tried,
            "{name}: ratios tried"
        );
        let probes: Vec<_> = result
            .probes
            .iter()
            .map(|p| (p.ratio.width, p.ratio.height, p.verdict))
            .collect();
        assert_eq!(probes, pin.probes, "{name}: probe log");
        let stats = result.stats.without_time();
        assert_eq!(
            (stats.conflicts, stats.decisions, stats.propagations),
            pin.work,
            "{name}: conflicts, decisions, propagations"
        );
        if name == "xor2" {
            assert_eq!(result.layout.render_ascii(), XOR2_LAYOUT, "{name}: layout");
        }
    }
}
