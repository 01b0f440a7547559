//! `fcn-equiv` — formal verification of gate-level FCN layouts.
//!
//! Step 5 of the paper's flow: "perform SAT-based equivalence checking of
//! the input network and the resulting gate-level layout"
//! [Walter et al., DAC 2020]. The layout's logic is extracted by tracing
//! tiles in clock order ([`extract_network`]); the extracted netlist and
//! the specification XAG are then combined into a *miter* — outputs pair-
//! wise XOR-ed and OR-ed together — which is unsatisfiable exactly when
//! the two designs agree on every input assignment
//! ([`check_equivalence_extracted_bounded`]). The check takes its limits
//! as values: no conflict budget and an unbounded deadline always
//! conclude. Extraction is generic over the floor plan, so the hexagonal
//! layouts and the Cartesian Figure 3 baseline share it.
//!
//! # Examples
//!
//! ```
//! use fcn_budget::Deadline;
//! use fcn_logic::network::Xag;
//! use fcn_logic::techmap::{map_xag, MapOptions};
//! use fcn_pnr::{exact_pnr, ExactOptions, NetGraph};
//! use fcn_equiv::{check_equivalence_extracted_bounded, extract_network, Equivalence};
//!
//! let mut xag = Xag::new();
//! let a = xag.primary_input("a");
//! let b = xag.primary_input("b");
//! let f = xag.or(a, b);
//! xag.primary_output("f", f);
//! let net = map_xag(&xag, MapOptions::default())?;
//! let result = exact_pnr(&NetGraph::new(net)?, &ExactOptions::default())?;
//! let extracted = extract_network(&result.layout)?;
//! let verdict = check_equivalence_extracted_bounded(&xag, &extracted, None, Deadline::unbounded())?;
//! assert_eq!(verdict, Equivalence::Equivalent);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use fcn_budget::Deadline;
use fcn_coords::TileCoord;
use fcn_layout::tile::TileContents;
use fcn_layout::GateLayout;
use fcn_logic::network::Xag;
use fcn_logic::techmap::{MappedId, MappedNetwork, MappedSignal};
use fcn_logic::GateKind;
use msat::{BoundedResult, CnfBuilder, Lit, SolveParams};
use std::collections::HashMap;

/// The resource limit that stopped a bounded equivalence check before it
/// reached a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiterLimit {
    /// The conflict budget ran out.
    Conflicts,
    /// The wall-clock deadline expired.
    Deadline,
}

impl core::fmt::Display for MiterLimit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MiterLimit::Conflicts => write!(f, "conflict budget exhausted"),
            MiterLimit::Deadline => write!(f, "deadline expired"),
        }
    }
}

/// The verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// Specification and layout compute the same function.
    Equivalent,
    /// A distinguishing input assignment was found (values in
    /// specification PI order).
    NotEquivalent {
        /// The counterexample input assignment.
        counterexample: Vec<bool>,
    },
    /// A *bounded* check ran out of resources before reaching a verdict.
    /// A check without a conflict budget or deadline always concludes.
    Unknown {
        /// Which resource limit stopped the check.
        limit: MiterLimit,
    },
}

/// An error raised during extraction or equivalence checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivError {
    /// The layout references a tile signal that has no driver.
    MissingDriver {
        /// The tile with the dangling input.
        tile: (i32, i32),
    },
    /// Specification and layout differ in their input/output pads.
    InterfaceMismatch(String),
    /// The extracted network is internally inconsistent — a fanin refers
    /// to a signal that was never defined, or a gate has the wrong
    /// number of inputs. Indicates a corrupted intermediate rather than
    /// a bad design, so it is reported instead of panicking.
    MalformedNetwork(String),
}

impl core::fmt::Display for EquivError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EquivError::MissingDriver { tile } => {
                write!(f, "tile ({}, {}) has an undriven input", tile.0, tile.1)
            }
            EquivError::InterfaceMismatch(msg) => write!(f, "interface mismatch: {msg}"),
            EquivError::MalformedNetwork(msg) => write!(f, "malformed network: {msg}"),
        }
    }
}

impl std::error::Error for EquivError {}

/// Extracts the logic network realized by a gate-level layout, on either
/// floor plan.
///
/// Tiles are traced in clock order ([`TileCoord::clock_order`]: rows on
/// the hexagonal plan, anti-diagonals on the Cartesian 2DDWave one); wire
/// tiles and crossings forward signals, gate tiles become network nodes.
/// The extracted network carries the layout's PI/PO pad names.
///
/// # Errors
///
/// Returns [`EquivError::MissingDriver`] if a tile input is unconnected —
/// run [`GateLayout::verify`] first for a detailed design-rule report.
pub fn extract_network<C: TileCoord>(layout: &GateLayout<C>) -> Result<MappedNetwork, EquivError> {
    let mut net = MappedNetwork::new();
    // Signal available at (tile, outgoing direction).
    let mut signal_at: HashMap<(C, C::Dir), MappedSignal> = HashMap::new();

    // occupied_tiles iterates in coordinate order; a tile's drivers come
    // first in clock order instead.
    let mut tiles: Vec<(C, &TileContents<C::Dir>)> = layout.occupied_tiles().collect();
    tiles.sort_by_key(|(c, _)| c.clock_order());

    for (coord, contents) in tiles {
        let fetch = |signal_at: &HashMap<_, _>, dir| -> Result<MappedSignal, EquivError> {
            let n = coord.neighbor(dir);
            signal_at
                .get(&(n, C::opposite(dir)))
                .copied()
                .ok_or(EquivError::MissingDriver { tile: coord.xy() })
        };
        match contents {
            TileContents::Gate {
                kind,
                inputs,
                outputs,
                name,
            } => {
                let fanins = inputs
                    .iter()
                    .map(|&d| fetch(&signal_at, d))
                    .collect::<Result<Vec<_>, _>>()?;
                let id = net.add_node(*kind, fanins, name.clone());
                for (port, &d) in outputs.iter().enumerate() {
                    signal_at.insert(
                        (coord, d),
                        MappedSignal {
                            node: id,
                            output: port as u8,
                        },
                    );
                }
            }
            TileContents::Wire { segments } => {
                for &(in_dir, out_dir) in segments {
                    let s = fetch(&signal_at, in_dir)?;
                    signal_at.insert((coord, out_dir), s);
                }
            }
        }
    }
    Ok(net)
}

/// Encodes an [`Xag`] into the CNF builder; returns one literal per PO.
fn encode_xag(
    cnf: &mut CnfBuilder,
    xag: &Xag,
    pi_lits: &HashMap<String, Lit>,
) -> Vec<(String, Lit)> {
    use fcn_logic::network::NodeKind;
    let mut lit_of: Vec<Lit> = Vec::with_capacity(xag.num_nodes());
    let mut pi_index = 0usize;
    for id in xag.node_ids() {
        let lit = match xag.node(id) {
            NodeKind::Constant => cnf.constant_false(),
            NodeKind::Input => {
                let name = xag.pi_name(pi_index);
                pi_index += 1;
                pi_lits[name]
            }
            NodeKind::And(a, b) => {
                let la = lit_of[a.node().index()].negated_if(a.is_complemented());
                let lb = lit_of[b.node().index()].negated_if(b.is_complemented());
                cnf.and(la, lb)
            }
            NodeKind::Xor(a, b) => {
                let la = lit_of[a.node().index()].negated_if(a.is_complemented());
                let lb = lit_of[b.node().index()].negated_if(b.is_complemented());
                cnf.xor(la, lb)
            }
        };
        lit_of.push(lit);
    }
    xag.primary_outputs()
        .iter()
        .map(|(name, s)| {
            (
                name.clone(),
                lit_of[s.node().index()].negated_if(s.is_complemented()),
            )
        })
        .collect()
}

/// Small helper for conditional negation.
trait NegatedIf {
    fn negated_if(self, c: bool) -> Self;
}

impl NegatedIf for Lit {
    fn negated_if(self, c: bool) -> Lit {
        if c {
            self.negated()
        } else {
            self
        }
    }
}

/// Encodes a [`MappedNetwork`] into CNF; returns one literal per PO.
fn encode_mapped(
    cnf: &mut CnfBuilder,
    net: &MappedNetwork,
    pi_lits: &HashMap<String, Lit>,
) -> Result<Vec<(String, Lit)>, EquivError> {
    let mut out_lits: HashMap<(MappedId, u8), Lit> = HashMap::new();
    let mut pos = Vec::new();
    for id in net.node_ids() {
        let node = net.node(id);
        let ins: Vec<Lit> = node
            .fanins
            .iter()
            .map(|f| {
                out_lits.get(&(f.node, f.output)).copied().ok_or_else(|| {
                    EquivError::MalformedNetwork(format!(
                        "node {} reads undefined signal ({}, {})",
                        id.index(),
                        f.node.index(),
                        f.output
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let arity = |want: usize| -> Result<(), EquivError> {
            if ins.len() == want {
                Ok(())
            } else {
                Err(EquivError::MalformedNetwork(format!(
                    "node {} ({:?}) has {} fanins, expected {want}",
                    id.index(),
                    node.kind,
                    ins.len()
                )))
            }
        };
        match node.kind {
            GateKind::Pi => {
                let name = node.name.clone().unwrap_or_default();
                let lit = *pi_lits.get(&name).ok_or_else(|| {
                    EquivError::InterfaceMismatch(format!(
                        "layout PI '{name}' not in specification"
                    ))
                })?;
                out_lits.insert((id, 0), lit);
            }
            GateKind::Po => {
                arity(1)?;
                pos.push((node.name.clone().unwrap_or_default(), ins[0]));
            }
            GateKind::Buf => {
                arity(1)?;
                out_lits.insert((id, 0), ins[0]);
            }
            GateKind::Inv => {
                arity(1)?;
                out_lits.insert((id, 0), ins[0].negated());
            }
            GateKind::And => {
                arity(2)?;
                let o = cnf.and(ins[0], ins[1]);
                out_lits.insert((id, 0), o);
            }
            GateKind::Nand => {
                arity(2)?;
                let o = cnf.and(ins[0], ins[1]);
                out_lits.insert((id, 0), o.negated());
            }
            GateKind::Or => {
                arity(2)?;
                let o = cnf.or(ins[0], ins[1]);
                out_lits.insert((id, 0), o);
            }
            GateKind::Nor => {
                arity(2)?;
                let o = cnf.or(ins[0], ins[1]);
                out_lits.insert((id, 0), o.negated());
            }
            GateKind::Xor => {
                arity(2)?;
                let o = cnf.xor(ins[0], ins[1]);
                out_lits.insert((id, 0), o);
            }
            GateKind::Xnor => {
                arity(2)?;
                let o = cnf.xor(ins[0], ins[1]);
                out_lits.insert((id, 0), o.negated());
            }
            GateKind::Fanout => {
                arity(1)?;
                out_lits.insert((id, 0), ins[0]);
                out_lits.insert((id, 1), ins[0]);
            }
            GateKind::HalfAdder => {
                arity(2)?;
                let s = cnf.xor(ins[0], ins[1]);
                let c = cnf.and(ins[0], ins[1]);
                out_lits.insert((id, 0), s);
                out_lits.insert((id, 1), c);
            }
        }
    }
    Ok(pos)
}

/// Checks whether the network `extracted` from a layout (see
/// [`extract_network`]) implements the specification `spec`.
///
/// Builds a miter over shared primary inputs (matched by pad name) and
/// asks the SAT solver for a distinguishing assignment. The solve stops
/// at `max_conflicts` conflicts (when given) or at the wall-clock
/// `deadline` (when bounded), reporting [`Equivalence::Unknown`] with
/// the limit that fired; with neither limit it always concludes.
///
/// Hosts the `equiv.miter` fault-injection point: an injected `exhaust`
/// or `interrupt` forces an [`Equivalence::Unknown`] verdict when the
/// corresponding limit is configured, and an injected `panic` fires
/// here.
///
/// # Errors
///
/// Fails when the PI/PO interfaces disagree, or with
/// [`EquivError::MalformedNetwork`] when `extracted` is inconsistent.
pub fn check_equivalence_extracted_bounded(
    spec: &Xag,
    extracted: &MappedNetwork,
    max_conflicts: Option<u64>,
    deadline: Deadline,
) -> Result<Equivalence, EquivError> {
    let _span = fcn_telemetry::span("miter");
    let mut cnf = CnfBuilder::new();
    // Shared PI literals by name.
    let mut pi_lits: HashMap<String, Lit> = HashMap::new();
    let mut pi_order: Vec<String> = Vec::new();
    for i in 0..spec.num_pis() {
        let name = spec.pi_name(i).to_owned();
        let lit = cnf.new_lit();
        pi_order.push(name.clone());
        pi_lits.insert(name, lit);
    }
    // Every layout PI must exist in the spec.
    for id in extracted.primary_inputs() {
        let name = extracted.node(id).name.clone().unwrap_or_default();
        if !pi_lits.contains_key(&name) {
            return Err(EquivError::InterfaceMismatch(format!(
                "layout PI '{name}' not in specification"
            )));
        }
    }

    let spec_pos = encode_xag(&mut cnf, spec, &pi_lits);
    let layout_pos = encode_mapped(&mut cnf, extracted, &pi_lits)?;

    if spec_pos.len() != layout_pos.len() {
        return Err(EquivError::InterfaceMismatch(format!(
            "specification has {} outputs, layout has {}",
            spec_pos.len(),
            layout_pos.len()
        )));
    }
    let layout_by_name: HashMap<&str, Lit> =
        layout_pos.iter().map(|(n, l)| (n.as_str(), *l)).collect();

    let mut diffs = Vec::new();
    for (name, spec_lit) in &spec_pos {
        let layout_lit = *layout_by_name.get(name.as_str()).ok_or_else(|| {
            EquivError::InterfaceMismatch(format!("specification PO '{name}' missing in layout"))
        })?;
        diffs.push(cnf.xor(*spec_lit, layout_lit));
    }
    cnf.add_clause(diffs); // at least one output differs

    fcn_telemetry::counter("miter.vars", cnf.solver().num_vars() as u64);
    fcn_telemetry::counter("miter.clauses", cnf.solver().num_clauses() as u64);
    fcn_telemetry::counter("miter.outputs", spec_pos.len() as u64);
    // Injected faults can force the bounded no-verdict paths; as in the
    // solver, they are gated on the corresponding limit actually being
    // configured so an unbounded check can never report `Unknown`.
    match fcn_budget::fault::check("equiv.miter") {
        Some(fcn_budget::fault::Fault::Exhaust) if max_conflicts.is_some() => {
            fcn_telemetry::note("verdict", "unknown");
            return Ok(Equivalence::Unknown {
                limit: MiterLimit::Conflicts,
            });
        }
        Some(fcn_budget::fault::Fault::Interrupt) if deadline.is_bounded() => {
            fcn_telemetry::note("verdict", "unknown");
            return Ok(Equivalence::Unknown {
                limit: MiterLimit::Deadline,
            });
        }
        _ => {}
    }
    let outcome = cnf.solve_with(&SolveParams {
        max_conflicts,
        deadline,
        ..SolveParams::new()
    });
    let stats = cnf.solver().stats();
    fcn_telemetry::counter("sat.conflicts", stats.conflicts);
    fcn_telemetry::counter("sat.decisions", stats.decisions);
    fcn_telemetry::counter("sat.propagations", stats.propagations);
    fcn_telemetry::counter("sat.restarts", stats.restarts);
    match outcome {
        BoundedResult::Unsat => {
            fcn_telemetry::note("verdict", "equivalent");
            Ok(Equivalence::Equivalent)
        }
        BoundedResult::Sat(model) => {
            fcn_telemetry::note("verdict", "not-equivalent");
            Ok(Equivalence::NotEquivalent {
                counterexample: pi_order
                    .iter()
                    .map(|n| model.lit_value(pi_lits[n]))
                    .collect(),
            })
        }
        BoundedResult::DeadlineExpired => {
            fcn_telemetry::note("verdict", "unknown");
            Ok(Equivalence::Unknown {
                limit: MiterLimit::Deadline,
            })
        }
        BoundedResult::BudgetExceeded | BoundedResult::Interrupted => {
            fcn_telemetry::note("verdict", "unknown");
            Ok(Equivalence::Unknown {
                limit: MiterLimit::Conflicts,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_layout::hexagonal::HexGateLayout;
    use fcn_logic::techmap::{map_xag, MapOptions};
    use fcn_pnr::{exact_pnr, heuristic_pnr, ExactOptions, NetGraph};

    /// Extracts `layout` and checks it against `spec` under the given
    /// limits.
    fn extract_and_check(
        spec: &Xag,
        layout: &HexGateLayout,
        max_conflicts: Option<u64>,
        deadline: Deadline,
    ) -> Result<Equivalence, EquivError> {
        check_equivalence_extracted_bounded(
            spec,
            &extract_network(layout)?,
            max_conflicts,
            deadline,
        )
    }

    fn full_adder() -> Xag {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let cin = xag.primary_input("cin");
        let axb = xag.xor(a, b);
        let sum = xag.xor(axb, cin);
        let and1 = xag.and(a, b);
        let and2 = xag.and(axb, cin);
        let cout = xag.or(and1, and2);
        xag.primary_output("sum", sum);
        xag.primary_output("cout", cout);
        xag
    }

    #[test]
    fn exact_layout_is_equivalent() {
        let xag = full_adder();
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let result = exact_pnr(&NetGraph::new(net).expect("ok"), &ExactOptions::default())
            .expect("feasible");
        assert_eq!(
            extract_and_check(&xag, &result.layout, None, Deadline::unbounded())
                .expect("checkable"),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn heuristic_layout_is_equivalent() {
        let xag = full_adder();
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let layout = heuristic_pnr(&NetGraph::new(net).expect("ok")).expect("routes");
        assert_eq!(
            extract_and_check(&xag, &layout, None, Deadline::unbounded()).expect("checkable"),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn extraction_round_trips_simulation() {
        let xag = full_adder();
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let layout = heuristic_pnr(&NetGraph::new(net).expect("ok")).expect("routes");
        let extracted = extract_network(&layout).expect("extractable");
        for row in 0..8u32 {
            let inputs: Vec<bool> = (0..3).map(|i| (row >> i) & 1 == 1).collect();
            assert_eq!(
                xag.simulate(&inputs),
                extracted.simulate(&inputs),
                "row {row}"
            );
        }
    }

    #[test]
    fn wrong_layout_is_detected() {
        // Specification: AND. Layout: OR. The miter must find a witness.
        let mut spec = Xag::new();
        let a = spec.primary_input("a");
        let b = spec.primary_input("b");
        let f = spec.and(a, b);
        spec.primary_output("f", f);

        let mut wrong = Xag::new();
        let a = wrong.primary_input("a");
        let b = wrong.primary_input("b");
        let f = wrong.or(a, b);
        wrong.primary_output("f", f);
        let net = map_xag(&wrong, MapOptions::default()).expect("mappable");
        let layout = heuristic_pnr(&NetGraph::new(net).expect("ok")).expect("routes");

        match extract_and_check(&spec, &layout, None, Deadline::unbounded()).expect("checkable") {
            Equivalence::NotEquivalent { counterexample } => {
                // The witness must actually distinguish AND from OR.
                let s = spec.simulate(&counterexample);
                let e = extract_network(&layout)
                    .expect("ok")
                    .simulate(&counterexample);
                assert_ne!(s, e);
            }
            other => panic!("AND vs OR must not be {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_is_reported() {
        let mut spec = Xag::new();
        let a = spec.primary_input("a");
        spec.primary_output("f", !a);

        let mut other = Xag::new();
        let x = other.primary_input("x"); // different pad name
        other.primary_output("f", !x);
        let net = map_xag(&other, MapOptions::default()).expect("mappable");
        let layout = heuristic_pnr(&NetGraph::new(net).expect("ok")).expect("routes");
        assert!(matches!(
            extract_and_check(&spec, &layout, None, Deadline::unbounded()),
            Err(EquivError::InterfaceMismatch(_))
        ));
    }

    #[test]
    fn bounded_check_with_zero_conflicts_still_concludes_or_reports_unknown() {
        // A conflict budget of 0 must never panic or mis-report: the
        // check either concludes without conflicts or says Unknown.
        let xag = full_adder();
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let layout = heuristic_pnr(&NetGraph::new(net).expect("ok")).expect("routes");
        let verdict =
            extract_and_check(&xag, &layout, Some(0), Deadline::unbounded()).expect("checkable");
        assert!(matches!(
            verdict,
            Equivalence::Equivalent
                | Equivalence::Unknown {
                    limit: MiterLimit::Conflicts
                }
        ));
    }

    #[test]
    fn bounded_check_reports_deadline_as_unknown() {
        let xag = full_adder();
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let layout = heuristic_pnr(&NetGraph::new(net).expect("ok")).expect("routes");
        // An already-expired deadline forces the no-verdict path at the
        // solver's entry check.
        let expired = Deadline::at(std::time::Instant::now());
        assert_eq!(
            extract_and_check(&xag, &layout, None, expired).expect("checkable"),
            Equivalence::Unknown {
                limit: MiterLimit::Deadline
            }
        );
    }

    #[test]
    fn unbounded_check_ignores_injected_miter_faults() {
        use fcn_budget::fault::{install, Fault, FaultPlan};
        let xag = full_adder();
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let layout = heuristic_pnr(&NetGraph::new(net).expect("ok")).expect("routes");
        let _scope = install(std::sync::Arc::new(FaultPlan::single(
            "equiv.miter",
            Fault::Exhaust,
        )));
        // No conflict budget configured, so the injected exhaust cannot
        // smuggle an Unknown verdict into the unbounded API.
        assert_eq!(
            extract_and_check(&xag, &layout, None, Deadline::unbounded()).expect("checkable"),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn injected_miter_exhaust_forces_unknown_when_bounded() {
        use fcn_budget::fault::{install, Fault, FaultPlan};
        let xag = full_adder();
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let layout = heuristic_pnr(&NetGraph::new(net).expect("ok")).expect("routes");
        let _scope = install(std::sync::Arc::new(FaultPlan::single(
            "equiv.miter",
            Fault::Exhaust,
        )));
        assert_eq!(
            extract_and_check(&xag, &layout, Some(1_000_000), Deadline::unbounded())
                .expect("checkable"),
            Equivalence::Unknown {
                limit: MiterLimit::Conflicts
            }
        );
    }

    #[test]
    fn malformed_network_is_an_error_not_a_panic() {
        use fcn_logic::techmap::MappedSignal;
        let mut spec = Xag::new();
        let a = spec.primary_input("a");
        spec.primary_output("f", a);

        // A PO whose fanin points at a node output that no gate drives.
        let mut net = MappedNetwork::new();
        let pi = net.add_node(GateKind::Pi, vec![], Some("a".into()));
        net.add_node(
            GateKind::Po,
            vec![MappedSignal {
                node: pi,
                output: 7, // PIs only drive output 0
            }],
            Some("f".into()),
        );
        assert!(matches!(
            check_equivalence_extracted_bounded(&spec, &net, None, Deadline::unbounded()),
            Err(EquivError::MalformedNetwork(_))
        ));
    }

    #[test]
    fn extraction_detects_missing_driver() {
        use fcn_coords::{AspectRatio, CartCoord, CartDirection, HexCoord, HexDirection};
        use fcn_layout::cartesian::CartGateLayout;
        use fcn_layout::clocking::ClockingScheme;
        let f = || Some("f".to_owned());
        let mut hex = HexGateLayout::new(AspectRatio::new(2, 2), ClockingScheme::Row);
        hex.place(
            HexCoord::new(1, 1),
            TileContents::gate(GateKind::Po, vec![HexDirection::NorthWest], vec![], f()),
        );
        let mut cart = CartGateLayout::new(AspectRatio::new(3, 3), ClockingScheme::TwoDdWave);
        cart.place(
            CartCoord::new(2, 1),
            TileContents::gate(GateKind::Po, vec![CartDirection::North], vec![], f()),
        );
        assert_eq!(
            extract_network(&hex).err(),
            Some(EquivError::MissingDriver { tile: (1, 1) })
        );
        assert_eq!(
            extract_network(&cart).err(),
            Some(EquivError::MissingDriver { tile: (2, 1) })
        );
    }
}
