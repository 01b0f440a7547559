//! XOR-AND-inverter graphs (XAGs) with complemented edges.
//!
//! The paper picks XAGs as its logic representation because the Bestagon
//! library natively offers both AND and XOR standard tiles, making XAGs
//! "potentially more compact than AIGs with only a slight overhead in
//! memory consumption" (Section 4.2). An [`Xag`] restricted to AND nodes
//! *is* an AIG.
//!
//! Nodes are immutable once created; structural hashing merges isomorphic
//! nodes on construction. Edges carry a complement flag, so inverters are
//! free (as in mockturtle).

use std::collections::HashMap;

/// A signal: an edge pointing at a node, possibly complemented.
///
/// # Examples
///
/// ```
/// use fcn_logic::network::Xag;
///
/// let mut xag = Xag::new();
/// let a = xag.primary_input("a");
/// assert_eq!((!a).node(), a.node());
/// assert!((!a).is_complemented());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signal(u32);

impl Signal {
    fn new(node: NodeId, complemented: bool) -> Self {
        Signal(node.0 << 1 | complemented as u32)
    }

    /// The node this signal points at.
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// True if the signal is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// This signal with the given complement flag applied on top.
    pub fn complement_if(self, c: bool) -> Signal {
        Signal(self.0 ^ c as u32)
    }
}

impl core::ops::Not for Signal {
    type Output = Signal;

    fn not(self) -> Signal {
        Signal(self.0 ^ 1)
    }
}

impl core::fmt::Display for Signal {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_complemented() {
            write!(f, "¬n{}", self.node().0)
        } else {
            write!(f, "n{}", self.node().0)
        }
    }
}

/// A dense node identifier within an [`Xag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The function computed by a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The constant-false node (node 0 of every network).
    Constant,
    /// A primary input.
    Input,
    /// Two-input AND of the fanin signals.
    And(Signal, Signal),
    /// Two-input XOR of the fanin signals.
    Xor(Signal, Signal),
}

impl NodeKind {
    /// The fanin signals of this node (empty for constants and inputs).
    pub(crate) fn fanins(self) -> Vec<Signal> {
        match self {
            NodeKind::Constant | NodeKind::Input => Vec::new(),
            NodeKind::And(a, b) | NodeKind::Xor(a, b) => vec![a, b],
        }
    }

    /// True for AND/XOR nodes.
    pub(crate) fn is_gate(self) -> bool {
        matches!(self, NodeKind::And(..) | NodeKind::Xor(..))
    }
}

/// An XOR-AND-inverter graph.
///
/// The network always contains a constant node; primary inputs, AND and XOR
/// gates are added through the builder methods. Primary outputs reference
/// signals.
///
/// # Examples
///
/// Building a full adder:
///
/// ```
/// use fcn_logic::network::Xag;
///
/// let mut xag = Xag::new();
/// let (a, b, cin) = (xag.primary_input("a"), xag.primary_input("b"), xag.primary_input("cin"));
/// let axb = xag.xor(a, b);
/// let sum = xag.xor(axb, cin);
/// let and1 = xag.and(a, b);
/// let and2 = xag.and(axb, cin);
/// let cout = xag.or(and1, and2);
/// xag.primary_output("sum", sum);
/// xag.primary_output("cout", cout);
/// assert_eq!(xag.num_pis(), 3);
/// assert_eq!(xag.num_pos(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Xag {
    nodes: Vec<NodeKind>,
    pis: Vec<NodeId>,
    pi_names: Vec<String>,
    pos: Vec<(String, Signal)>,
    strash: HashMap<NodeKind, NodeId>,
}

impl Xag {
    /// Creates an empty network (containing only the constant node).
    pub fn new() -> Self {
        Xag {
            nodes: vec![NodeKind::Constant],
            ..Default::default()
        }
    }

    /// The always-false constant signal.
    pub(crate) fn constant_false(&self) -> Signal {
        Signal::new(NodeId(0), false)
    }

    /// The always-true constant signal.
    pub(crate) fn constant_true(&self) -> Signal {
        Signal::new(NodeId(0), true)
    }

    /// Adds a primary input with the given name.
    pub fn primary_input(&mut self, name: impl Into<String>) -> Signal {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeKind::Input);
        self.pis.push(id);
        self.pi_names.push(name.into());
        Signal::new(id, false)
    }

    /// Registers `signal` as a primary output with the given name.
    pub fn primary_output(&mut self, name: impl Into<String>, signal: Signal) {
        self.pos.push((name.into(), signal));
    }

    /// Creates (or reuses) a two-input AND gate.
    ///
    /// Trivial cases are simplified: constants, equal or complementary
    /// fanins never allocate a node.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        // Normalization: order fanins for structural hashing.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if a == self.constant_false() || a == !b {
            return self.constant_false();
        }
        if a == self.constant_true() {
            return b;
        }
        if a == b {
            return a;
        }
        self.intern(NodeKind::And(a, b))
    }

    /// Creates (or reuses) a two-input XOR gate.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        // Pull complements out: XOR(¬a, b) = ¬XOR(a, b).
        let out_compl = a.is_complemented() ^ b.is_complemented();
        let a0 = a.complement_if(a.is_complemented());
        let b0 = b.complement_if(b.is_complemented());
        let (a0, b0) = if a0 <= b0 { (a0, b0) } else { (b0, a0) };
        if a0 == b0 {
            return self.constant_false().complement_if(out_compl);
        }
        if a0 == self.constant_false() {
            return b0.complement_if(out_compl);
        }
        self.intern(NodeKind::Xor(a0, b0)).complement_if(out_compl)
    }

    /// `a ∨ b`, expressed as `¬(¬a ∧ ¬b)`.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        !self.and(!a, !b)
    }

    /// Multiplexer `s ? t : e` built from basic gates.
    pub fn mux(&mut self, s: Signal, t: Signal, e: Signal) -> Signal {
        let st = self.and(s, t);
        let se = self.and(!s, e);
        self.or(st, se)
    }

    fn intern(&mut self, kind: NodeKind) -> Signal {
        if let Some(&id) = self.strash.get(&kind) {
            return Signal::new(id, false);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.strash.insert(kind, id);
        Signal::new(id, false)
    }

    /// The kind of a node.
    pub fn node(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()]
    }

    /// Total number of nodes including constant and inputs.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND/XOR gates.
    pub fn num_gates(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_gate()).count()
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// The primary inputs in creation order.
    pub fn primary_inputs(&self) -> &[NodeId] {
        &self.pis
    }

    /// The name of the `i`-th primary input.
    pub fn pi_name(&self, i: usize) -> &str {
        &self.pi_names[i]
    }

    /// The primary outputs as `(name, signal)` pairs.
    pub fn primary_outputs(&self) -> &[(String, Signal)] {
        &self.pos
    }

    /// Iterates over all node ids in topological order (nodes are created
    /// in topological order by construction).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The depth (longest gate path from any PI to any PO).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.nodes.len()];
        for id in self.node_ids() {
            if let Some(max_in) = self
                .node(id)
                .fanins()
                .iter()
                .map(|s| level[s.node().index()])
                .max()
            {
                level[id.index()] = max_in + 1;
            }
        }
        self.pos
            .iter()
            .map(|(_, s)| level[s.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Simulates the network on one input assignment.
    ///
    /// `inputs[i]` drives the `i`-th primary input; returns one value per
    /// primary output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_pis()`.
    pub fn simulate(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_pis(), "input arity mismatch");
        let mut values = vec![false; self.nodes.len()];
        let mut pi_iter = inputs.iter();
        for id in self.node_ids() {
            values[id.index()] = match self.node(id) {
                NodeKind::Constant => false,
                NodeKind::Input => *pi_iter.next().expect("one value per PI"),
                NodeKind::And(a, b) => {
                    (values[a.node().index()] ^ a.is_complemented())
                        && (values[b.node().index()] ^ b.is_complemented())
                }
                NodeKind::Xor(a, b) => {
                    (values[a.node().index()] ^ a.is_complemented())
                        ^ (values[b.node().index()] ^ b.is_complemented())
                }
            };
        }
        self.pos
            .iter()
            .map(|(_, s)| values[s.node().index()] ^ s.is_complemented())
            .collect()
    }

    /// Fanout counts per node (references from gates and primary outputs).
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for id in self.node_ids() {
            for s in self.node(id).fanins() {
                counts[s.node().index()] += 1;
            }
        }
        for (_, s) in &self.pos {
            counts[s.node().index()] += 1;
        }
        counts
    }

    /// Returns a cleaned-up copy containing only nodes reachable from the
    /// primary outputs (dangling nodes removed), preserving PI order.
    pub fn cleaned(&self) -> Xag {
        let mut out = Xag::new();
        let mut map: HashMap<NodeId, Signal> = HashMap::new();
        map.insert(NodeId(0), out.constant_false());
        for (i, &pi) in self.pis.iter().enumerate() {
            let s = out.primary_input(self.pi_names[i].clone());
            map.insert(pi, s);
        }
        // Mark reachable nodes.
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.pos.iter().map(|(_, s)| s.node()).collect();
        while let Some(id) = stack.pop() {
            if reachable[id.index()] {
                continue;
            }
            reachable[id.index()] = true;
            for f in self.node(id).fanins() {
                stack.push(f.node());
            }
        }
        for id in self.node_ids() {
            if !reachable[id.index()] || map.contains_key(&id) {
                continue;
            }
            let translate = |m: &HashMap<NodeId, Signal>, s: Signal| {
                m[&s.node()].complement_if(s.is_complemented())
            };
            let s = match self.node(id) {
                NodeKind::Constant | NodeKind::Input => continue,
                NodeKind::And(a, b) => {
                    let (a, b) = (translate(&map, a), translate(&map, b));
                    out.and(a, b)
                }
                NodeKind::Xor(a, b) => {
                    let (a, b) = (translate(&map, a), translate(&map, b));
                    out.xor(a, b)
                }
            };
            map.insert(id, s);
        }
        for (name, s) in &self.pos {
            let t = map[&s.node()].complement_if(s.is_complemented());
            out.primary_output(name.clone(), t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_hashing_merges_duplicates() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let g1 = xag.and(a, b);
        let g2 = xag.and(b, a);
        assert_eq!(g1, g2);
        assert_eq!(xag.num_gates(), 1);
    }

    #[test]
    fn trivial_and_simplifications() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        assert_eq!(xag.and(a, a), a);
        assert_eq!(xag.and(a, !a), xag.constant_false());
        assert_eq!(xag.and(a, xag.constant_true()), a);
        assert_eq!(xag.and(a, xag.constant_false()), xag.constant_false());
        assert_eq!(xag.num_gates(), 0);
    }

    #[test]
    fn xor_complement_normalization() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let x1 = xag.xor(a, b);
        let x2 = xag.xor(!a, b);
        let x3 = xag.xor(a, !b);
        let x4 = xag.xor(!a, !b);
        assert_eq!(x1, !x2);
        assert_eq!(x2, x3);
        assert_eq!(x1, x4);
        assert_eq!(xag.num_gates(), 1);
        assert_eq!(xag.xor(a, a), xag.constant_false());
    }

    #[test]
    fn simulate_full_adder() {
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
        for row in 0..8u32 {
            let inputs = [(row & 1) == 1, (row >> 1) & 1 == 1, (row >> 2) & 1 == 1];
            let total = inputs.iter().filter(|&&x| x).count();
            let out = xag.simulate(&inputs);
            assert_eq!(out[0], total % 2 == 1, "sum at row {row}");
            assert_eq!(out[1], total >= 2, "cout at row {row}");
        }
    }

    #[test]
    fn mux_semantics() {
        let mut xag = Xag::new();
        let s = xag.primary_input("s");
        let t = xag.primary_input("t");
        let e = xag.primary_input("e");
        let m = xag.mux(s, t, e);
        xag.primary_output("m", m);
        for row in 0..8u32 {
            let inputs = [(row & 1) == 1, (row >> 1) & 1 == 1, (row >> 2) & 1 == 1];
            let expect = if inputs[0] { inputs[1] } else { inputs[2] };
            assert_eq!(xag.simulate(&inputs)[0], expect);
        }
    }

    #[test]
    fn depth_of_chain() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let c = xag.primary_input("c");
        let d = xag.primary_input("d");
        let t1 = xag.and(a, b);
        let t2 = xag.and(t1, c);
        let t3 = xag.and(t2, d);
        xag.primary_output("f", t3);
        assert_eq!(xag.depth(), 3);
    }

    #[test]
    fn cleaned_removes_dangling_nodes() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let used = xag.and(a, b);
        let _dangling = xag.xor(a, b);
        xag.primary_output("f", used);
        assert_eq!(xag.num_gates(), 2);
        let cleaned = xag.cleaned();
        assert_eq!(cleaned.num_gates(), 1);
        assert_eq!(cleaned.num_pis(), 2);
        // Function preserved.
        for row in 0..4u32 {
            let inputs = [(row & 1) == 1, (row >> 1) & 1 == 1];
            assert_eq!(xag.simulate(&inputs)[0], cleaned.simulate(&inputs)[0]);
        }
    }

    #[test]
    fn fanout_counts_include_pos() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let g = xag.and(a, b);
        xag.primary_output("f", g);
        xag.primary_output("g", !g);
        let counts = xag.fanout_counts();
        assert_eq!(counts[g.node().index()], 2);
        assert_eq!(counts[a.node().index()], 1);
    }
}
