//! Clocked signal-propagation simulation (the Figure 2 experiment).
//!
//! Clocking in FCN "stabilizes signals and directs the flow of
//! information in a pipeline-like fashion by alternately expressing
//! *activated* regions … and *deactivated* regions" (paper Section 2).
//! This module simulates a row-clocked layout at the gate level, tick by
//! tick: at tick `t` the rows whose clock zone equals `t mod 4` evaluate
//! from the (held) values of the rows above, while rows in the
//! *deactivated* phase lose their values — charge-population modulation
//! in the SiDB platform.

use fcn_coords::{HexCoord, HexDirection};
use fcn_layout::clocking::NUM_PHASES;
use fcn_layout::hexagonal::HexGateLayout;
use fcn_layout::tile::TileContents;
use fcn_logic::GateKind;
use std::collections::HashMap;

/// The per-tick state of a clocked pipeline simulation.
#[derive(Debug, Clone)]
pub struct PipelineSim<'a> {
    layout: &'a HexGateLayout,
    /// Signal value at each tile's outgoing port `(tile, direction)`.
    values: HashMap<(HexCoord, HexDirection), bool>,
    /// Per-PI streams of input values (consumed one per clock cycle).
    inputs: HashMap<String, Vec<bool>>,
    tick: u32,
    /// Output samples observed at POs: `(name, tick, value)`.
    outputs: Vec<(String, u32, bool)>,
}

impl<'a> PipelineSim<'a> {
    /// Creates a simulation feeding each named PI the given value stream
    /// (one element per clock cycle; the stream repeats).
    pub fn new(layout: &'a HexGateLayout, inputs: HashMap<String, Vec<bool>>) -> Self {
        PipelineSim {
            layout,
            values: HashMap::new(),
            inputs,
            tick: 0,
            outputs: Vec::new(),
        }
    }

    /// The current tick.
    pub fn tick(&self) -> u32 {
        self.tick
    }

    /// Output samples recorded so far.
    pub fn outputs(&self) -> &[(String, u32, bool)] {
        &self.outputs
    }

    /// Which zone is *activated* (evaluating) at the given tick.
    pub fn active_zone(tick: u32) -> u8 {
        (tick % NUM_PHASES as u32) as u8
    }

    /// True if the tile currently holds a defined signal value.
    pub fn tile_is_live(&self, coord: HexCoord) -> bool {
        self.values.keys().any(|(c, _)| *c == coord)
    }

    /// Advances the pipeline by one clock tick: tiles in the activated
    /// zone compute their outputs from the held values of their northern
    /// neighbors; a PI fetches the next value of its stream each time its
    /// row activates on a new cycle.
    pub fn step(&mut self) {
        let zone = Self::active_zone(self.tick);
        let cycle = (self.tick / NUM_PHASES as u32) as usize;
        let mut new_values = self.values.clone();

        for (coord, contents) in self.layout.occupied_tiles() {
            if self.layout.clock_zone(coord) != zone {
                continue;
            }
            let fetch = |dir: HexDirection| -> Option<bool> {
                let n = coord.neighbor(dir);
                self.values.get(&(n, dir.opposite())).copied()
            };
            match contents {
                TileContents::Gate {
                    kind,
                    inputs,
                    outputs,
                    name,
                } => {
                    let in_vals: Option<Vec<bool>> = inputs.iter().map(|&d| fetch(d)).collect();
                    match kind {
                        GateKind::Pi => {
                            let name = name.clone().unwrap_or_default();
                            let stream = self.inputs.get(&name);
                            let value = stream
                                .and_then(|s| {
                                    if s.is_empty() {
                                        None
                                    } else {
                                        Some(s[cycle % s.len()])
                                    }
                                })
                                .unwrap_or(false);
                            for &d in outputs {
                                new_values.insert((coord, d), value);
                            }
                        }
                        GateKind::Po => {
                            if let Some(vals) = in_vals {
                                self.outputs.push((
                                    name.clone().unwrap_or_default(),
                                    self.tick,
                                    vals[0],
                                ));
                            }
                        }
                        kind => {
                            if let Some(vals) = in_vals {
                                let out_vals = kind.evaluate(&vals);
                                for (&d, v) in outputs.iter().zip(out_vals) {
                                    new_values.insert((coord, d), v);
                                }
                            }
                        }
                    }
                }
                TileContents::Wire { segments } => {
                    for &(in_dir, out_dir) in segments {
                        if let Some(v) = fetch(in_dir) {
                            new_values.insert((coord, out_dir), v);
                        }
                    }
                }
            }
        }
        self.values = new_values;
        self.tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowOptions, FlowRequest, PnrMethod};
    use fcn_logic::network::Xag;

    fn or_layout() -> HexGateLayout {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.or(a, b);
        xag.primary_output("f", f);
        FlowRequest::netlist("or2", xag)
            .with_options(
                FlowOptions::new()
                    .with_pnr(PnrMethod::Exact { max_area: 60 })
                    .without_library(),
            )
            .execute()
            .expect("flow")
            .layout
    }

    #[test]
    fn signals_propagate_one_zone_per_tick() {
        let layout = or_layout();
        let inputs: HashMap<String, Vec<bool>> =
            [("a".into(), vec![true]), ("b".into(), vec![false])].into();
        let mut sim = PipelineSim::new(&layout, inputs);
        let live = |sim: &PipelineSim| {
            layout
                .occupied_tiles()
                .filter(|&(c, _)| sim.tile_is_live(c))
                .count()
        };
        assert_eq!(live(&sim), 0);
        sim.step(); // zone 0: PIs produce values
        let after_one = live(&sim);
        assert!(after_one > 0);
        sim.step(); // zone 1
        assert!(live(&sim) >= after_one);
    }

    #[test]
    fn or_gate_pipeline_produces_correct_outputs() {
        let layout = or_layout();
        // Four cycles of input patterns exercise the full truth table.
        let inputs: HashMap<String, Vec<bool>> = [
            ("a".into(), vec![false, true, false, true]),
            ("b".into(), vec![false, false, true, true]),
        ]
        .into();
        let mut sim = PipelineSim::new(&layout, inputs);
        // The layout has as many rows as zones in flight; run long enough
        // for all four patterns to drain through.
        for _ in 0..4 * (layout.ratio().height + 4) {
            sim.step();
        }
        let outs: Vec<bool> = sim.outputs().iter().map(|(_, _, v)| *v).collect();
        // Expected OR results in order: 0, 1, 1, 1 (repeating).
        assert!(
            outs.len() >= 4,
            "expected at least four samples, got {outs:?}"
        );
        let expected = [false, true, true, true];
        for (i, &v) in outs.iter().take(4).enumerate() {
            assert_eq!(v, expected[i], "sample {i} of {outs:?}");
        }
    }

    #[test]
    fn throughput_is_one_sample_per_cycle() {
        let layout = or_layout();
        let inputs: HashMap<String, Vec<bool>> =
            [("a".into(), vec![true]), ("b".into(), vec![true])].into();
        let mut sim = PipelineSim::new(&layout, inputs);
        for _ in 0..12 * 4 {
            sim.step();
        }
        // After the fill latency, one output sample per 4-tick cycle.
        let samples = sim.outputs().len() as u32;
        let cycles = 12;
        let latency_cycles = layout.ratio().height.div_ceil(4) + 1;
        assert!(samples + latency_cycles >= cycles, "samples {samples}");
    }
}
