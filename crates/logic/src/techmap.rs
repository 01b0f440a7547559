//! Technology mapping into the Bestagon gate set.
//!
//! Step 3 of the paper's flow: "perform technology mapping to restructure
//! XAG nodes into gates supported by the proposed Bestagon library". The
//! library offers one- and two-input hexagonal tiles:
//!
//! * 2-input, 1-output: AND, NAND, OR, NOR, XOR, XNOR,
//! * 1-input, 1-output: buffer/wire and inverter,
//! * 1-input, 2-output: fan-out,
//! * 2-input, 2-output: wire crossing (routing, not logic) and the
//!   single-tile half adder (XOR + AND of the same operands).
//!
//! Mapping turns the complemented edges of an [`Xag`] into explicit
//! inverter tiles where they cannot be absorbed into a gate's polarity
//! (AND/NAND absorb none, OR/NOR absorb both, XOR/XNOR absorb any), and
//! legalizes fan-out: every gate output may drive exactly one successor,
//! so signals with several consumers get a tree of fan-out tiles.

use crate::network::{NodeId as XagNodeId, NodeKind, Signal, Xag};
use std::collections::HashMap;

/// The gate types available as Bestagon standard tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// A primary input pad (0 inputs, 1 output).
    Pi,
    /// A primary output pad (1 input, 0 outputs).
    Po,
    /// A buffer / wire segment (1 → 1).
    Buf,
    /// An inverter (1 → 1).
    Inv,
    /// Two-input AND (2 → 1).
    And,
    /// Two-input NAND (2 → 1).
    Nand,
    /// Two-input OR (2 → 1).
    Or,
    /// Two-input NOR (2 → 1).
    Nor,
    /// Two-input XOR (2 → 1).
    Xor,
    /// Two-input XNOR (2 → 1).
    Xnor,
    /// Fan-out (1 → 2): duplicates its input.
    Fanout,
    /// Half adder (2 → 2): output 0 is XOR (sum), output 1 is AND (carry).
    HalfAdder,
}

impl GateKind {
    /// Number of input ports.
    pub const fn num_inputs(self) -> usize {
        match self {
            GateKind::Pi => 0,
            GateKind::Po | GateKind::Buf | GateKind::Inv | GateKind::Fanout => 1,
            _ => 2,
        }
    }

    /// Number of output ports.
    pub const fn num_outputs(self) -> usize {
        match self {
            GateKind::Po => 0,
            GateKind::Fanout | GateKind::HalfAdder => 2,
            _ => 1,
        }
    }

    /// Evaluates the gate on its input values. Returns one value per
    /// output port.
    pub fn evaluate(self, inputs: &[bool]) -> Vec<bool> {
        match self {
            GateKind::Pi => panic!("primary inputs are driven externally"),
            GateKind::Po => vec![],
            GateKind::Buf => vec![inputs[0]],
            GateKind::Inv => vec![!inputs[0]],
            GateKind::And => vec![inputs[0] && inputs[1]],
            GateKind::Nand => vec![!(inputs[0] && inputs[1])],
            GateKind::Or => vec![inputs[0] || inputs[1]],
            GateKind::Nor => vec![!(inputs[0] || inputs[1])],
            GateKind::Xor => vec![inputs[0] ^ inputs[1]],
            GateKind::Xnor => vec![!(inputs[0] ^ inputs[1])],
            GateKind::Fanout => vec![inputs[0], inputs[0]],
            GateKind::HalfAdder => vec![inputs[0] ^ inputs[1], inputs[0] && inputs[1]],
        }
    }

    /// True for kinds that compute logic (excluding pads, wires, fan-outs).
    pub const fn is_logic(self) -> bool {
        matches!(
            self,
            GateKind::Inv
                | GateKind::And
                | GateKind::Nand
                | GateKind::Or
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor
                | GateKind::HalfAdder
        )
    }
}

impl core::fmt::Display for GateKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            GateKind::Pi => "PI",
            GateKind::Po => "PO",
            GateKind::Buf => "BUF",
            GateKind::Inv => "INV",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Fanout => "FO",
            GateKind::HalfAdder => "HA",
        };
        f.write_str(s)
    }
}

/// A node index in a [`MappedNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MappedId(pub u32);

impl MappedId {
    /// The node's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to one output port of a mapped node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MappedSignal {
    /// The driving node.
    pub node: MappedId,
    /// Which output port of the driver (0 except for fan-out/half adder).
    pub output: u8,
}

/// One node of a mapped netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedNode {
    /// Gate type.
    pub kind: GateKind,
    /// Fanin signals, length `kind.num_inputs()`.
    pub fanins: Vec<MappedSignal>,
    /// Pad name for PIs/POs.
    pub name: Option<String>,
}

/// A gate-level netlist over the Bestagon gate set.
///
/// Produced by [`map_xag`]; consumed by placement & routing. After
/// `MappedNetwork::legalize_fanout`, every output port drives at most
/// one fanin — the invariant FCN physical design requires.
#[derive(Debug, Clone, Default)]
pub struct MappedNetwork {
    nodes: Vec<MappedNode>,
}

impl MappedNetwork {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the fanin count does not match the gate kind.
    pub fn add_node(
        &mut self,
        kind: GateKind,
        fanins: Vec<MappedSignal>,
        name: Option<String>,
    ) -> MappedId {
        assert_eq!(fanins.len(), kind.num_inputs(), "fanin arity mismatch");
        let id = MappedId(self.nodes.len() as u32);
        self.nodes.push(MappedNode { kind, fanins, name });
        id
    }

    /// The node with the given id.
    pub fn node(&self, id: MappedId) -> &MappedNode {
        &self.nodes[id.index()]
    }

    /// Total node count (including pads).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over node ids in topological order (construction order).
    pub fn node_ids(&self) -> impl Iterator<Item = MappedId> {
        (0..self.nodes.len() as u32).map(MappedId)
    }

    /// Ids of the primary inputs, in creation order.
    pub fn primary_inputs(&self) -> Vec<MappedId> {
        self.node_ids()
            .filter(|&id| self.node(id).kind == GateKind::Pi)
            .collect()
    }

    /// Ids of the primary outputs, in creation order.
    pub fn primary_outputs(&self) -> Vec<MappedId> {
        self.node_ids()
            .filter(|&id| self.node(id).kind == GateKind::Po)
            .collect()
    }

    /// Consumers of each output port: `consumers[node][port]` lists the
    /// nodes reading that port.
    pub(crate) fn consumers(&self) -> Vec<Vec<Vec<MappedId>>> {
        let mut result: Vec<Vec<Vec<MappedId>>> = self
            .nodes
            .iter()
            .map(|n| vec![Vec::new(); n.kind.num_outputs()])
            .collect();
        for id in self.node_ids() {
            for f in &self.node(id).fanins {
                result[f.node.index()][f.output as usize].push(id);
            }
        }
        result
    }

    /// Simulates the netlist on one assignment of the primary inputs
    /// (in PI creation order); returns PO values in PO creation order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of PIs.
    pub fn simulate(&self, inputs: &[bool]) -> Vec<bool> {
        let pis = self.primary_inputs();
        assert_eq!(inputs.len(), pis.len(), "input arity mismatch");
        let pi_value: HashMap<MappedId, bool> =
            pis.iter().copied().zip(inputs.iter().copied()).collect();
        let mut values: Vec<Vec<bool>> = Vec::with_capacity(self.nodes.len());
        let mut outputs = Vec::new();
        for id in self.node_ids() {
            let node = self.node(id);
            let in_vals: Vec<bool> = node
                .fanins
                .iter()
                .map(|f| values[f.node.index()][f.output as usize])
                .collect();
            let out_vals = match node.kind {
                GateKind::Pi => vec![pi_value[&id]],
                GateKind::Po => {
                    outputs.push(in_vals[0]);
                    vec![]
                }
                kind => kind.evaluate(&in_vals),
            };
            values.push(out_vals);
        }
        outputs
    }

    /// Checks the FCN legality invariant: every output port drives at most
    /// one fanin. Returns the ids of violating nodes.
    pub fn fanout_violations(&self) -> Vec<MappedId> {
        self.consumers()
            .iter()
            .enumerate()
            .filter(|(_, ports)| ports.iter().any(|c| c.len() > 1))
            .map(|(i, _)| MappedId(i as u32))
            .collect()
    }

    /// Inserts fan-out tiles so that every output port drives at most one
    /// consumer. Returns the legalized netlist (ids are re-assigned).
    pub(crate) fn legalize_fanout(&self) -> MappedNetwork {
        let consumers = self.consumers();
        let mut out = MappedNetwork::new();
        // old (node, port) -> queue of new signals to hand to consumers.
        let mut available: HashMap<(MappedId, u8), Vec<MappedSignal>> = HashMap::new();
        let mut new_id: Vec<MappedId> = Vec::with_capacity(self.nodes.len());

        for id in self.node_ids() {
            let node = self.node(id);
            let fanins: Vec<MappedSignal> = node
                .fanins
                .iter()
                .map(|f| {
                    available
                        .get_mut(&(f.node, f.output))
                        .and_then(Vec::pop)
                        .expect("a signal must be available for every consumer")
                })
                .collect();
            let nid = out.add_node(node.kind, fanins, node.name.clone());
            new_id.push(nid);
            // Publish this node's outputs, expanding through fan-out trees.
            for port in 0..node.kind.num_outputs() as u8 {
                let needed = consumers[id.index()][port as usize].len();
                let root = MappedSignal {
                    node: nid,
                    output: port,
                };
                let signals = expand_fanout(&mut out, root, needed);
                available.insert((id, port), signals);
            }
        }
        out
    }
}

/// Builds a fan-out tree delivering `needed` copies of `signal`.
fn expand_fanout(
    net: &mut MappedNetwork,
    signal: MappedSignal,
    needed: usize,
) -> Vec<MappedSignal> {
    match needed {
        0 => vec![],
        1 => vec![signal],
        _ => {
            let fo = net.add_node(GateKind::Fanout, vec![signal], None);
            let left = MappedSignal {
                node: fo,
                output: 0,
            };
            let right = MappedSignal {
                node: fo,
                output: 1,
            };
            // Balance the tree: split demand across the two outputs.
            let left_needed = needed / 2;
            let mut result = expand_fanout(net, left, left_needed);
            result.extend(expand_fanout(net, right, needed - left_needed));
            result
        }
    }
}

/// Options for [`map_xag`].
#[derive(Debug, Clone, Copy)]
pub struct MapOptions {
    /// Extract single-tile half adders from XOR/AND pairs over the same
    /// operands.
    pub extract_half_adders: bool,
    /// Insert fan-out tiles (`MappedNetwork::legalize_fanout`).
    pub legalize_fanout: bool,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            extract_half_adders: true,
            legalize_fanout: true,
        }
    }
}

/// An error produced by [`map_xag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// A primary output is a constant; constant generators do not exist in
    /// the Bestagon library.
    ConstantOutput(String),
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::ConstantOutput(name) => {
                write!(
                    f,
                    "primary output '{name}' is constant; no tile can source a constant"
                )
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Maps an [`Xag`] onto the Bestagon gate set.
///
/// Complemented edges are absorbed into gate polarities where the library
/// allows it (NAND/NOR/OR/XNOR variants); remaining complements become
/// inverter tiles. Optionally extracts half adders and legalizes fan-out.
///
/// # Errors
///
/// Returns [`MapError::ConstantOutput`] if a PO reduces to a constant.
///
/// # Examples
///
/// ```
/// use fcn_logic::network::Xag;
/// use fcn_logic::techmap::{map_xag, MapOptions};
///
/// let mut xag = Xag::new();
/// let a = xag.primary_input("a");
/// let b = xag.primary_input("b");
/// let f = xag.and(a, b);
/// xag.primary_output("f", !f);
/// let mapped = map_xag(&xag, MapOptions::default())?;
/// // The complemented output is absorbed into a NAND tile:
/// let nands = mapped
///     .node_ids()
///     .filter(|&id| mapped.node(id).kind == fcn_logic::GateKind::Nand);
/// assert_eq!(nands.count(), 1);
/// # Ok::<(), fcn_logic::techmap::MapError>(())
/// ```
pub fn map_xag(xag: &Xag, options: MapOptions) -> Result<MappedNetwork, MapError> {
    let xag = xag.cleaned();

    // 1. Decide each node's implemented polarity by majority vote of its
    //    consumers (complemented edges vote for the negated polarity).
    let mut pos_uses = vec![0usize; xag.num_nodes()];
    let mut neg_uses = vec![0usize; xag.num_nodes()];
    for id in xag.node_ids() {
        for f in xag.node(id).fanins() {
            if f.is_complemented() {
                neg_uses[f.node().index()] += 1;
            } else {
                pos_uses[f.node().index()] += 1;
            }
        }
    }
    for (_, s) in xag.primary_outputs() {
        if s.is_complemented() {
            neg_uses[s.node().index()] += 1;
        } else {
            pos_uses[s.node().index()] += 1;
        }
    }
    let mut impl_neg: Vec<bool> = xag
        .node_ids()
        .map(|id| {
            // PIs always provide the positive polarity.
            if matches!(xag.node(id), NodeKind::Input) {
                false
            } else {
                neg_uses[id.index()] > pos_uses[id.index()]
            }
        })
        .collect();

    // 2. Half-adder candidates: XOR and AND nodes over identical fanins.
    let mut ha_partner: HashMap<XagNodeId, XagNodeId> = HashMap::new();
    if options.extract_half_adders {
        let mut and_by_fanins: HashMap<(Signal, Signal), XagNodeId> = HashMap::new();
        for id in xag.node_ids() {
            if let NodeKind::And(a, b) = xag.node(id) {
                and_by_fanins.insert((a, b), id);
            }
        }
        for id in xag.node_ids() {
            if let NodeKind::Xor(a, b) = xag.node(id) {
                // XOR fanins are normalized to positive polarity; match the
                // AND with the same positive fanins.
                if let Some(&and_id) = and_by_fanins.get(&(a, b)) {
                    ha_partner.insert(id, and_id);
                    ha_partner.insert(and_id, id);
                }
            }
        }
    }

    // 3. Emit nodes.
    let mut net = MappedNetwork::new();
    // signal provided by each XAG node: (mapped signal, polarity it carries).
    let mut provided: HashMap<XagNodeId, MappedSignal> = HashMap::new();
    let mut inverted_cache: HashMap<XagNodeId, MappedSignal> = HashMap::new();
    let mut ha_emitted: HashMap<XagNodeId, MappedSignal> = HashMap::new();

    for (i, &pi) in xag.primary_inputs().iter().enumerate() {
        let id = net.add_node(GateKind::Pi, vec![], Some(xag.pi_name(i).to_owned()));
        provided.insert(
            pi,
            MappedSignal {
                node: id,
                output: 0,
            },
        );
    }

    // Fetches the signal for an XAG edge, inserting an inverter if the
    // provided polarity does not match.
    fn fetch(
        net: &mut MappedNetwork,
        provided: &HashMap<XagNodeId, MappedSignal>,
        inverted_cache: &mut HashMap<XagNodeId, MappedSignal>,
        impl_neg: &[bool],
        s: Signal,
    ) -> MappedSignal {
        let base = provided[&s.node()];
        if impl_neg[s.node().index()] == s.is_complemented() {
            base
        } else if let Some(&inv) = inverted_cache.get(&s.node()) {
            inv
        } else {
            let inv = net.add_node(GateKind::Inv, vec![base], None);
            let sig = MappedSignal {
                node: inv,
                output: 0,
            };
            inverted_cache.insert(s.node(), sig);
            sig
        }
    }

    for id in xag.node_ids() {
        match xag.node(id) {
            NodeKind::Constant | NodeKind::Input => {}
            NodeKind::And(a, b) | NodeKind::Xor(a, b) => {
                if let Some(sig) = ha_emitted.remove(&id) {
                    provided.insert(id, sig);
                    continue;
                }
                let is_xor = matches!(xag.node(id), NodeKind::Xor(..));
                let out_neg = impl_neg[id.index()];

                if let Some(&partner) = ha_partner.get(&id) {
                    // Emit one half-adder tile for the XOR/AND pair. HA
                    // outputs are positive; downstream inverters handle
                    // negated uses, so override the polarity choice.
                    impl_neg[id.index()] = false;
                    impl_neg[partner.index()] = false;
                    let fa = fetch(&mut net, &provided, &mut inverted_cache, &impl_neg, a);
                    let fb = fetch(&mut net, &provided, &mut inverted_cache, &impl_neg, b);
                    let ha = net.add_node(GateKind::HalfAdder, vec![fa, fb], None);
                    let sum = MappedSignal {
                        node: ha,
                        output: 0,
                    };
                    let carry = MappedSignal {
                        node: ha,
                        output: 1,
                    };
                    let me_is_xor = is_xor;
                    provided.insert(id, if me_is_xor { sum } else { carry });
                    ha_emitted.insert(partner, if me_is_xor { carry } else { sum });
                    continue;
                }

                if is_xor {
                    // XOR fanins are stored positive; fetch positive values.
                    let fa = fetch(&mut net, &provided, &mut inverted_cache, &impl_neg, a);
                    let fb = fetch(&mut net, &provided, &mut inverted_cache, &impl_neg, b);
                    let kind = if out_neg {
                        GateKind::Xnor
                    } else {
                        GateKind::Xor
                    };
                    let g = net.add_node(kind, vec![fa, fb], None);
                    provided.insert(id, MappedSignal { node: g, output: 0 });
                } else {
                    let na = a.is_complemented();
                    let nb = b.is_complemented();
                    let (kind, fetch_a, fetch_b) = match (na, nb, out_neg) {
                        (false, false, false) => (GateKind::And, a, b),
                        (false, false, true) => (GateKind::Nand, a, b),
                        (true, true, false) => (GateKind::Nor, !a, !b),
                        (true, true, true) => (GateKind::Or, !a, !b),
                        // Mixed polarity: invert the complemented fanin
                        // explicitly (fetch handles it) and use AND/NAND.
                        (_, _, false) => (GateKind::And, a, b),
                        (_, _, true) => (GateKind::Nand, a, b),
                    };
                    let fa = fetch(&mut net, &provided, &mut inverted_cache, &impl_neg, fetch_a);
                    let fb = fetch(&mut net, &provided, &mut inverted_cache, &impl_neg, fetch_b);
                    let g = net.add_node(kind, vec![fa, fb], None);
                    provided.insert(id, MappedSignal { node: g, output: 0 });
                }
            }
        }
    }

    // 4. Primary outputs.
    for (name, s) in xag.primary_outputs() {
        if s.node().index() == 0 {
            return Err(MapError::ConstantOutput(name.clone()));
        }
        let sig = fetch(&mut net, &provided, &mut inverted_cache, &impl_neg, *s);
        net.add_node(GateKind::Po, vec![sig], Some(name.clone()));
    }

    Ok(if options.legalize_fanout {
        net.legalize_fanout()
    } else {
        net
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_kind(net: &MappedNetwork, kind: GateKind) -> usize {
        net.node_ids()
            .filter(|&id| net.node(id).kind == kind)
            .count()
    }

    fn check_equivalent(xag: &Xag, net: &MappedNetwork) {
        let n = xag.num_pis();
        assert!(n <= 10);
        for row in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (row >> i) & 1 == 1).collect();
            assert_eq!(
                xag.simulate(&inputs),
                net.simulate(&inputs),
                "mismatch at row {row}"
            );
        }
    }

    #[test]
    fn maps_simple_and() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        xag.primary_output("f", f);
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        assert_eq!(count_kind(&net, GateKind::And), 1);
        assert_eq!(count_kind(&net, GateKind::Inv), 0);
        check_equivalent(&xag, &net);
    }

    #[test]
    fn absorbs_output_complement_into_nand() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        xag.primary_output("f", !f);
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        assert_eq!(count_kind(&net, GateKind::Nand), 1);
        assert_eq!(count_kind(&net, GateKind::Inv), 0);
        check_equivalent(&xag, &net);
    }

    #[test]
    fn or_maps_to_or_tile_without_inverters() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.or(a, b);
        xag.primary_output("f", f);
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        assert_eq!(count_kind(&net, GateKind::Or), 1);
        assert_eq!(count_kind(&net, GateKind::Inv), 0);
        check_equivalent(&xag, &net);
    }

    #[test]
    fn xor_complements_fold_into_xnor() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let c = xag.primary_input("c");
        let x1 = xag.xor(a, b);
        let x2 = xag.xor(!b, c); // complemented fanin folds into the output
        xag.primary_output("x1", x1);
        xag.primary_output("x2", x2);
        let net = map_xag(
            &xag,
            MapOptions {
                extract_half_adders: false,
                ..Default::default()
            },
        )
        .expect("mappable");
        assert_eq!(count_kind(&net, GateKind::Inv), 0);
        assert_eq!(
            count_kind(&net, GateKind::Xor) + count_kind(&net, GateKind::Xnor),
            2
        );
        check_equivalent(&xag, &net);
    }

    #[test]
    fn opposite_polarity_uses_cost_one_inverter() {
        // A single XOR node consumed in both polarities needs exactly one
        // inverter: one polarity comes from the gate, the other via INV.
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let x = xag.xor(a, b);
        xag.primary_output("x", x);
        xag.primary_output("nx", !x);
        let net = map_xag(
            &xag,
            MapOptions {
                extract_half_adders: false,
                ..Default::default()
            },
        )
        .expect("mappable");
        assert_eq!(count_kind(&net, GateKind::Inv), 1);
        check_equivalent(&xag, &net);
    }

    #[test]
    fn mixed_polarity_and_needs_one_inverter() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, !b);
        xag.primary_output("f", f);
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        assert_eq!(count_kind(&net, GateKind::Inv), 1);
        check_equivalent(&xag, &net);
    }

    #[test]
    fn half_adder_extraction() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let sum = xag.xor(a, b);
        let carry = xag.and(a, b);
        xag.primary_output("sum", sum);
        xag.primary_output("carry", carry);
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        assert_eq!(count_kind(&net, GateKind::HalfAdder), 1);
        assert_eq!(count_kind(&net, GateKind::Xor), 0);
        assert_eq!(count_kind(&net, GateKind::And), 0);
        check_equivalent(&xag, &net);
    }

    #[test]
    fn half_adder_extraction_can_be_disabled() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let sum = xag.xor(a, b);
        let carry = xag.and(a, b);
        xag.primary_output("sum", sum);
        xag.primary_output("carry", carry);
        let net = map_xag(
            &xag,
            MapOptions {
                extract_half_adders: false,
                ..Default::default()
            },
        )
        .expect("mappable");
        assert_eq!(count_kind(&net, GateKind::HalfAdder), 0);
        assert_eq!(count_kind(&net, GateKind::Xor), 1);
        assert_eq!(count_kind(&net, GateKind::And), 1);
        check_equivalent(&xag, &net);
    }

    #[test]
    fn fanout_legalization_inserts_fanout_tiles() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let c = xag.primary_input("c");
        let shared = xag.and(a, b);
        let f = xag.and(shared, c);
        let g = xag.xor(shared, c);
        xag.primary_output("f", f);
        xag.primary_output("g", g);
        let net = map_xag(
            &xag,
            MapOptions {
                extract_half_adders: false,
                legalize_fanout: true,
            },
        )
        .expect("mappable");
        assert!(net.fanout_violations().is_empty());
        // `shared` and `c` both feed two consumers → at least 2 fan-outs.
        assert!(count_kind(&net, GateKind::Fanout) >= 2);
        check_equivalent(&xag, &net);
    }

    #[test]
    fn constant_output_is_rejected() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let f = xag.and(a, !a); // constant false
        xag.primary_output("f", f);
        assert!(matches!(
            map_xag(&xag, MapOptions::default()),
            Err(MapError::ConstantOutput(_))
        ));
    }

    #[test]
    fn full_adder_maps_and_simulates() {
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
        for extract in [false, true] {
            let net = map_xag(
                &xag,
                MapOptions {
                    extract_half_adders: extract,
                    legalize_fanout: true,
                },
            )
            .expect("mappable");
            assert!(net.fanout_violations().is_empty());
            check_equivalent(&xag, &net);
        }
    }

    #[test]
    fn wide_fanout_builds_a_tree() {
        let mut net = MappedNetwork::new();
        let pi = net.add_node(GateKind::Pi, vec![], Some("a".into()));
        let sig = MappedSignal {
            node: pi,
            output: 0,
        };
        for _ in 0..5 {
            net.add_node(GateKind::Po, vec![sig], Some("o".into()));
        }
        let legal = net.legalize_fanout();
        assert!(legal.fanout_violations().is_empty());
        assert_eq!(count_kind(&legal, GateKind::Fanout), 4);
        assert_eq!(legal.simulate(&[true]), vec![true; 5]);
        assert_eq!(legal.simulate(&[false]), vec![false; 5]);
    }
}
