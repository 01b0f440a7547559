//! K-feasible cut enumeration.
//!
//! A *cut* of node `n` is a set of nodes (leaves) such that every path from
//! a primary input to `n` passes through a leaf. Cut-based rewriting
//! (paper flow step 2) enumerates cuts with at most `k` leaves, computes
//! each cut's local truth table and replaces the cut cone with a smaller
//! pre-computed structure when profitable.

use crate::network::{NodeId, NodeKind, Xag};
use crate::truth_table::TruthTable;

/// A cut: a sorted set of leaf nodes together with the local function of
/// the root expressed over those leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cut {
    /// Sorted leaf node ids.
    pub(crate) leaves: Vec<NodeId>,
    /// Truth table of the root over `leaves` (leaf `i` is variable `i`).
    pub(crate) function: TruthTable,
}

impl Cut {
    /// Number of leaves.
    pub(crate) fn size(&self) -> usize {
        self.leaves.len()
    }

    /// True if `other`'s leaves are a subset of this cut's leaves.
    pub(crate) fn dominates(&self, other: &Cut) -> bool {
        other
            .leaves
            .iter()
            .all(|l| self.leaves.binary_search(l).is_ok())
    }
}

/// Enumerates up-to-`k`-feasible cuts for every node of `xag`.
///
/// Returns one cut list per node (indexed by node id). Every node's list
/// contains its trivial cut `{n}` plus merged cuts of its fanins, pruned to
/// at most `max_cuts` non-trivial cuts per node (priority cuts).
///
/// # Panics
///
/// Panics if `k` is 0 or greater than [`TruthTable::MAX_VARS`].
pub(crate) fn enumerate_cuts(xag: &Xag, k: usize, max_cuts: usize) -> Vec<Vec<Cut>> {
    assert!(k >= 1 && k <= TruthTable::MAX_VARS as usize, "1 <= k <= 6");
    let mut all: Vec<Vec<Cut>> = Vec::with_capacity(xag.num_nodes());
    for id in xag.node_ids() {
        let cuts = match xag.node(id) {
            NodeKind::Constant | NodeKind::Input => vec![trivial_cut(id, k)],
            NodeKind::And(a, b) | NodeKind::Xor(a, b) => {
                let is_xor = matches!(xag.node(id), NodeKind::Xor(..));
                let mut cuts: Vec<Cut> = Vec::new();
                for ca in &all[a.node().index()] {
                    for cb in &all[b.node().index()] {
                        if let Some(merged) = merge_cuts(ca, cb, k, |fa, fb| {
                            let fa = if a.is_complemented() { fa.not() } else { fa };
                            let fb = if b.is_complemented() { fb.not() } else { fb };
                            if is_xor {
                                fa.xor(fb)
                            } else {
                                fa.and(fb)
                            }
                        }) {
                            insert_pruned(&mut cuts, merged, max_cuts);
                        }
                    }
                }
                cuts.push(trivial_cut(id, k));
                cuts
            }
        };
        all.push(cuts);
    }
    fcn_telemetry::counter(
        "cuts.enumerated",
        all.iter().map(|cuts| cuts.len() as u64).sum(),
    );
    all
}

fn trivial_cut(id: NodeId, k: usize) -> Cut {
    Cut {
        leaves: vec![id],
        function: TruthTable::projection(k as u8, 0),
    }
}

/// Merges two fanin cuts into a cut of the parent, re-expressing the fanin
/// functions over the union of leaves and combining them with `op`.
fn merge_cuts(
    ca: &Cut,
    cb: &Cut,
    k: usize,
    op: impl Fn(TruthTable, TruthTable) -> TruthTable,
) -> Option<Cut> {
    let mut leaves: Vec<NodeId> = ca.leaves.iter().chain(cb.leaves.iter()).copied().collect();
    leaves.sort_unstable();
    leaves.dedup();
    if leaves.len() > k {
        return None;
    }
    let fa = remap_function(ca, &leaves, k);
    let fb = remap_function(cb, &leaves, k);
    Some(Cut {
        leaves,
        function: op(fa, fb),
    })
}

/// Expresses a cut function over a superset of leaves.
///
/// All cut functions are stored over `k` variables; a cut with `m < k`
/// leaves simply ignores the upper variables.
fn remap_function(cut: &Cut, leaves: &[NodeId], k: usize) -> TruthTable {
    // positions[i] = position of cut leaf i in the merged leaf list.
    let positions: Vec<u8> = cut
        .leaves
        .iter()
        .map(|l| leaves.binary_search(l).expect("leaf must be in union") as u8)
        .collect();
    let mut bits = 0u64;
    for row in 0..(1u32 << k) {
        let mut src = 0u32;
        for (old, &new) in positions.iter().enumerate() {
            if (row >> new) & 1 == 1 {
                src |= 1 << old;
            }
        }
        if cut.function.value_at(src) {
            bits |= 1 << row;
        }
    }
    TruthTable::from_bits(k as u8, bits)
}

/// Inserts a cut, removing dominated cuts and respecting the size bound.
fn insert_pruned(cuts: &mut Vec<Cut>, cut: Cut, max_cuts: usize) {
    // Drop if an existing cut is a subset of the new one (dominates it).
    if cuts
        .iter()
        .any(|c| cut.dominates(c) && c.size() <= cut.size())
    {
        return;
    }
    // Remove cuts dominated by the new one.
    cuts.retain(|c| !(c.dominates(&cut) && cut.size() <= c.size()));
    cuts.push(cut);
    if cuts.len() > max_cuts {
        // Keep the smallest cuts (better rewriting candidates).
        cuts.sort_by_key(Cut::size);
        cuts.truncate(max_cuts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Xag;

    /// Checks that a cut's function agrees with simulating the XAG.
    fn verify_cut(xag: &Xag, root: NodeId, cut: &Cut) {
        // The cut function is defined over cut.leaves. Simulate the cone by
        // evaluating the whole network consistency: assign leaf values, then
        // evaluate nodes above the leaves.
        let rows = 1u32 << cut.leaves.len();
        for row in 0..rows {
            let mut values = vec![None::<bool>; xag.num_nodes()];
            values[0] = Some(false);
            for (i, leaf) in cut.leaves.iter().enumerate() {
                values[leaf.index()] = Some((row >> i) & 1 == 1);
            }
            let result = eval_above(xag, root, &mut values);
            assert_eq!(
                result,
                cut.function.value_at(row),
                "cut {:?} row {row}",
                cut.leaves
            );
        }
    }

    fn eval_above(xag: &Xag, node: NodeId, values: &mut Vec<Option<bool>>) -> bool {
        if let Some(v) = values[node.index()] {
            return v;
        }
        let v = match xag.node(node) {
            NodeKind::Constant => false,
            NodeKind::Input => panic!("reached a PI that is not a cut leaf"),
            NodeKind::And(a, b) => {
                (eval_above(xag, a.node(), values) ^ a.is_complemented())
                    && (eval_above(xag, b.node(), values) ^ b.is_complemented())
            }
            NodeKind::Xor(a, b) => {
                (eval_above(xag, a.node(), values) ^ a.is_complemented())
                    ^ (eval_above(xag, b.node(), values) ^ b.is_complemented())
            }
        };
        values[node.index()] = Some(v);
        v
    }

    #[test]
    fn cut_functions_are_correct_on_adder() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let c = xag.primary_input("c");
        let axb = xag.xor(a, b);
        let sum = xag.xor(axb, c);
        let and1 = xag.and(a, b);
        let and2 = xag.and(axb, c);
        let cout = xag.or(and1, and2);
        xag.primary_output("sum", sum);
        xag.primary_output("cout", cout);

        let cuts = enumerate_cuts(&xag, 4, 12);
        for id in xag.node_ids() {
            if !xag.node(id).is_gate() {
                continue;
            }
            assert!(!cuts[id.index()].is_empty());
            for cut in &cuts[id.index()] {
                verify_cut(&xag, id, cut);
            }
        }
    }

    #[test]
    fn every_gate_has_a_pi_cut_on_small_networks() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        let g = xag.xor(f, a);
        xag.primary_output("g", g);
        let cuts = enumerate_cuts(&xag, 4, 12);
        // g has a cut {a, b}.
        let g_cuts = &cuts[g.node().index()];
        assert!(g_cuts.iter().any(|c| c.leaves == vec![a.node(), b.node()]));
        // That cut computes (a AND b) XOR a = a AND NOT b.
        let cut = g_cuts
            .iter()
            .find(|c| c.leaves == vec![a.node(), b.node()])
            .expect("checked above");
        for row in 0..4u32 {
            let av = row & 1 == 1;
            let bv = (row >> 1) & 1 == 1;
            assert_eq!(cut.function.value_at(row), (av && bv) ^ av);
        }
    }

    #[test]
    fn cut_sizes_respect_k() {
        let mut xag = Xag::new();
        let inputs: Vec<_> = (0..6).map(|i| xag.primary_input(format!("i{i}"))).collect();
        let mut acc = inputs[0];
        for &i in &inputs[1..] {
            acc = xag.xor(acc, i);
        }
        xag.primary_output("parity", acc);
        for k in 2..=4 {
            let cuts = enumerate_cuts(&xag, k, 8);
            for node_cuts in &cuts {
                for cut in node_cuts {
                    assert!(cut.size() <= k);
                }
            }
        }
    }

    #[test]
    fn dominated_cuts_are_pruned() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        xag.primary_output("f", f);
        let cuts = enumerate_cuts(&xag, 4, 12);
        let f_cuts = &cuts[f.node().index()];
        // {a, b} and the trivial {f}; no duplicates.
        assert_eq!(f_cuts.len(), 2);
    }
}
