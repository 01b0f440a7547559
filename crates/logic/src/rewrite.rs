//! DAG-aware cut-based rewriting with the exact structure database.
//!
//! Step 2 of the paper's design flow: "perform cut-based logic rewriting
//! with an exact NPN database to reduce the XAG's size and depth"
//! [Riener et al., DATE 2019]. For every gate, 4-feasible cuts are
//! enumerated; if the database offers a realization of the cut function
//! that is smaller than the cut's MFFC (the cone of nodes that would be
//! freed by the replacement), the node is reconstructed from the database
//! structure instead of copied. Structural hashing shares any rebuilt
//! nodes with existing ones, making the transformation DAG-aware.

use crate::cuts::{enumerate_cuts, Cut};
use crate::database::XagDatabase;
use crate::network::{NodeId, NodeKind, Signal, Xag};
use std::collections::HashMap;

/// Options controlling the rewriting pass.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Cut size (fixed at 4 for the database; smaller values only restrict).
    pub(crate) cut_size: usize,
    /// Maximum number of priority cuts kept per node.
    pub(crate) max_cuts: usize,
    /// Number of rewriting iterations (each pass rebuilds the network).
    pub iterations: usize,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            cut_size: 4,
            max_cuts: 10,
            iterations: 2,
        }
    }
}

/// Rewrites `xag`, returning a functionally equivalent network that is at
/// most as large (in gate count).
///
/// # Examples
///
/// ```
/// use fcn_logic::network::Xag;
/// use fcn_logic::rewrite::rewrite;
///
/// let mut xag = Xag::new();
/// let a = xag.primary_input("a");
/// let b = xag.primary_input("b");
/// // A deliberately wasteful XOR built from three AND gates:
/// let t1 = xag.and(a, !b);
/// let t2 = xag.and(!a, b);
/// let x = xag.or(t1, t2);
/// xag.primary_output("f", x);
/// let rewritten = rewrite(&xag, Default::default());
/// assert!(rewritten.num_gates() <= xag.num_gates());
/// ```
pub fn rewrite(xag: &Xag, options: RewriteOptions) -> Xag {
    let db = XagDatabase::shared();
    let mut current = xag.cleaned();
    for _ in 0..options.iterations {
        let next = rewrite_pass(&current, db, options);
        if next.num_gates() >= current.num_gates() {
            break;
        }
        current = next;
    }
    current
}

fn rewrite_pass(xag: &Xag, db: &XagDatabase, options: RewriteOptions) -> Xag {
    let cuts = enumerate_cuts(xag, options.cut_size.min(4), options.max_cuts);
    let fanouts = xag.fanout_counts();

    let mut out = Xag::new();
    let mut map: HashMap<NodeId, Signal> = HashMap::new();
    map.insert(NodeId(0), out.constant_false());
    for (i, &pi) in xag.primary_inputs().iter().enumerate() {
        let s = out.primary_input(xag.pi_name(i).to_owned());
        map.insert(pi, s);
    }

    // Recursive lazy mapping so that nodes skipped by a cut replacement are
    // never materialized.
    let output_nodes: Vec<NodeId> = xag
        .primary_outputs()
        .iter()
        .map(|(_, s)| s.node())
        .collect();
    for root in output_nodes {
        map_node(xag, &mut out, &mut map, &cuts, &fanouts, db, root);
    }
    for (name, s) in xag.primary_outputs() {
        let t = map[&s.node()].complement_if(s.is_complemented());
        out.primary_output(name.clone(), t);
    }
    out.cleaned()
}

fn map_node(
    xag: &Xag,
    out: &mut Xag,
    map: &mut HashMap<NodeId, Signal>,
    cuts: &[Vec<Cut>],
    fanouts: &[usize],
    db: &XagDatabase,
    node: NodeId,
) -> Signal {
    if let Some(&s) = map.get(&node) {
        return s;
    }
    // Pick the best cut replacement, if any beats the MFFC.
    let mut best: Option<(&Cut, u8)> = None;
    for cut in &cuts[node.index()] {
        if cut.size() < 2 || cut.leaves.contains(&node) {
            continue;
        }
        let Some(db_cost) = db.size_of(cut.function) else {
            continue;
        };
        let mffc = mffc_size(xag, node, &cut.leaves, fanouts);
        if (db_cost as usize) < mffc {
            let better = match best {
                None => true,
                Some((_, prev_cost)) => db_cost < prev_cost,
            };
            if better {
                best = Some((cut, db_cost));
            }
        }
    }

    let signal = if let Some((cut, _)) = best {
        fcn_telemetry::counter("rewrite.hits", 1);
        let mut leaves = [out.constant_false(); 4];
        for (i, leaf) in cut.leaves.iter().enumerate() {
            leaves[i] = map_node(xag, out, map, cuts, fanouts, db, *leaf);
        }
        db.rebuild(out, cut.function, &leaves)
            .expect("size_of returned Some, so rebuild must succeed")
    } else {
        match xag.node(node) {
            NodeKind::Constant => out.constant_false(),
            NodeKind::Input => map[&node],
            NodeKind::And(a, b) | NodeKind::Xor(a, b) => {
                fcn_telemetry::counter("rewrite.misses", 1);
                let is_xor = matches!(xag.node(node), NodeKind::Xor(..));
                let ma = map_node(xag, out, map, cuts, fanouts, db, a.node())
                    .complement_if(a.is_complemented());
                let mb = map_node(xag, out, map, cuts, fanouts, db, b.node())
                    .complement_if(b.is_complemented());
                if is_xor {
                    out.xor(ma, mb)
                } else {
                    out.and(ma, mb)
                }
            }
        }
    };
    map.insert(node, signal);
    signal
}

/// Size of the maximum fanout-free cone of `root` above the cut `leaves`:
/// the number of gates that would disappear if `root` were replaced.
fn mffc_size(xag: &Xag, root: NodeId, leaves: &[NodeId], fanouts: &[usize]) -> usize {
    let mut remaining: HashMap<NodeId, usize> = HashMap::new();
    let mut stack = vec![root];
    let mut size = 0usize;
    while let Some(n) = stack.pop() {
        size += 1;
        for f in xag.node(n).fanins() {
            let fn_id = f.node();
            if leaves.contains(&fn_id) || !xag.node(fn_id).is_gate() {
                continue;
            }
            let cnt = remaining
                .entry(fn_id)
                .or_insert_with(|| fanouts[fn_id.index()]);
            *cnt -= 1;
            if *cnt == 0 {
                stack.push(fn_id);
            }
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The AIG form of `a ⊕ b`: `¬(¬(a ∧ ¬b) ∧ ¬(¬a ∧ b))`.
    fn xor_decomposed(xag: &mut Xag, a: Signal, b: Signal) -> Signal {
        let t1 = xag.and(a, !b);
        let t2 = xag.and(!a, b);
        xag.or(t1, t2)
    }

    fn equivalent(a: &Xag, b: &Xag) -> bool {
        assert_eq!(a.num_pis(), b.num_pis());
        assert_eq!(a.num_pos(), b.num_pos());
        let n = a.num_pis();
        for row in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (row >> i) & 1 == 1).collect();
            if a.simulate(&inputs) != b.simulate(&inputs) {
                return false;
            }
        }
        true
    }

    #[test]
    fn rewriting_recovers_xor_from_and_decomposition() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let x = xor_decomposed(&mut xag, a, b);
        xag.primary_output("f", x);
        assert_eq!(xag.num_gates(), 3);
        let rewritten = rewrite(&xag, Default::default());
        assert!(equivalent(&xag, &rewritten));
        assert_eq!(rewritten.num_gates(), 1, "XOR should be recovered");
    }

    #[test]
    fn rewriting_preserves_full_adder() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let c = xag.primary_input("cin");
        // Wasteful construction: everything decomposed into ANDs.
        let axb = xor_decomposed(&mut xag, a, b);
        let sum = xor_decomposed(&mut xag, axb, c);
        let and1 = xag.and(a, b);
        let and2 = xag.and(axb, c);
        let cout = xag.or(and1, and2);
        xag.primary_output("sum", sum);
        xag.primary_output("cout", cout);
        let rewritten = rewrite(&xag, Default::default());
        assert!(equivalent(&xag, &rewritten));
        assert!(rewritten.num_gates() < xag.num_gates());
    }

    #[test]
    fn rewriting_never_increases_size() {
        // A few structured networks.
        let mut xag = Xag::new();
        let inputs: Vec<_> = (0..5).map(|i| xag.primary_input(format!("i{i}"))).collect();
        let mut acc = inputs[0];
        for (k, &i) in inputs[1..].iter().enumerate() {
            acc = if k % 2 == 0 {
                xag.and(acc, i)
            } else {
                xag.xor(acc, i)
            };
        }
        xag.primary_output("f", acc);
        let before = xag.num_gates();
        let rewritten = rewrite(&xag, Default::default());
        assert!(equivalent(&xag, &rewritten));
        assert!(rewritten.num_gates() <= before);
    }

    #[test]
    fn rewriting_preserves_random_networks() {
        let mut seed = 0xdeadbeefu64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..12 {
            let mut xag = Xag::new();
            let mut signals: Vec<Signal> =
                (0..4).map(|i| xag.primary_input(format!("i{i}"))).collect();
            for _ in 0..15 {
                let a = signals[(rand() % signals.len() as u64) as usize];
                let b = signals[(rand() % signals.len() as u64) as usize];
                let a = if rand() % 2 == 0 { !a } else { a };
                let b = if rand() % 2 == 0 { !b } else { b };
                let s = match rand() % 3 {
                    0 => xag.and(a, b),
                    1 => xag.xor(a, b),
                    _ => xag.or(a, b),
                };
                signals.push(s);
            }
            let out = *signals.last().expect("non-empty");
            xag.primary_output("f", out);
            let rewritten = rewrite(&xag, Default::default());
            assert!(equivalent(&xag, &rewritten), "rewriting changed function");
            assert!(rewritten.num_gates() <= xag.cleaned().num_gates());
        }
    }

    #[test]
    fn mffc_of_private_cone_counts_all_gates() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let c = xag.primary_input("c");
        let t1 = xag.and(a, b);
        let t2 = xag.and(t1, c);
        xag.primary_output("f", t2);
        let fanouts = xag.fanout_counts();
        let size = mffc_size(&xag, t2.node(), &[a.node(), b.node(), c.node()], &fanouts);
        assert_eq!(size, 2);
    }

    #[test]
    fn mffc_excludes_shared_nodes() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let c = xag.primary_input("c");
        let shared = xag.and(a, b);
        let t = xag.and(shared, c);
        xag.primary_output("f", t);
        xag.primary_output("g", shared); // second fanout of `shared`
        let fanouts = xag.fanout_counts();
        let size = mffc_size(&xag, t.node(), &[a.node(), b.node(), c.node()], &fanouts);
        assert_eq!(size, 1, "shared node must not be counted");
    }
}
