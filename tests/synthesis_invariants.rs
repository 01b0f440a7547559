//! Property-based tests on the logic-synthesis substrate: rewriting and
//! technology mapping must preserve functionality on arbitrary networks,
//! and placement & routing must preserve it through to the layout.

use fcn_budget::Deadline;
use fcn_equiv::{check_equivalence_extracted_bounded, extract_network, Equivalence};
use fcn_logic::network::{Signal, Xag};
use fcn_logic::rewrite::{rewrite, RewriteOptions};
use fcn_logic::techmap::{map_xag, MapOptions};
use fcn_pnr::{heuristic_pnr, NetGraph};
use proptest::prelude::*;

/// A random XAG built from a sequence of operations over growing signals.
#[derive(Debug, Clone)]
struct NetworkRecipe {
    num_inputs: usize,
    ops: Vec<(u8, usize, usize, bool, bool)>,
}

fn arb_recipe() -> impl Strategy<Value = NetworkRecipe> {
    (
        2usize..5,
        proptest::collection::vec(
            (0u8..3, 0usize..64, 0usize..64, any::<bool>(), any::<bool>()),
            1..14,
        ),
    )
        .prop_map(|(num_inputs, ops)| NetworkRecipe { num_inputs, ops })
}

fn build(recipe: &NetworkRecipe) -> Option<Xag> {
    let mut xag = Xag::new();
    let mut signals: Vec<Signal> = (0..recipe.num_inputs)
        .map(|i| xag.primary_input(format!("i{i}")))
        .collect();
    for &(op, a, b, ca, cb) in &recipe.ops {
        let x = signals[a % signals.len()].complement_if(ca);
        let y = signals[b % signals.len()].complement_if(cb);
        let s = match op {
            0 => xag.and(x, y),
            1 => xag.xor(x, y),
            _ => xag.or(x, y),
        };
        signals.push(s);
    }
    // Output: fold every input in via AND-OR so no PI dangles and the
    // output is non-constant for mapping.
    let mut out = *signals.last()?;
    for &pi in signals.iter().take(recipe.num_inputs) {
        out = xag.xor(out, pi);
    }
    if out.node().index() == 0 {
        return None;
    }
    xag.primary_output("f", out);
    let cleaned = xag.cleaned();
    let counts = cleaned.fanout_counts();
    let all_used = cleaned
        .primary_inputs()
        .iter()
        .all(|pi| counts[pi.index()] > 0);
    (cleaned.num_gates() > 0 && all_used).then_some(cleaned)
}

fn equivalent(a: &Xag, b: &Xag) -> bool {
    let n = a.num_pis();
    (0..(1u32 << n)).all(|row| {
        let inputs: Vec<bool> = (0..n).map(|i| (row >> i) & 1 == 1).collect();
        a.simulate(&inputs) == b.simulate(&inputs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cut rewriting never changes the function and never grows the
    /// network.
    #[test]
    fn rewriting_preserves_function(recipe in arb_recipe()) {
        if let Some(xag) = build(&recipe) {
            let rewritten = rewrite(&xag, RewriteOptions::default());
            prop_assert!(equivalent(&xag, &rewritten));
            prop_assert!(rewritten.num_gates() <= xag.num_gates());
        }
    }

    /// Technology mapping preserves the function bit for bit.
    #[test]
    fn mapping_preserves_function(recipe in arb_recipe()) {
        if let Some(xag) = build(&recipe) {
            let net = map_xag(&xag, MapOptions::default()).expect("mappable");
            let n = xag.num_pis();
            for row in 0..(1u32 << n) {
                let inputs: Vec<bool> = (0..n).map(|i| (row >> i) & 1 == 1).collect();
                prop_assert_eq!(xag.simulate(&inputs), net.simulate(&inputs));
            }
        }
    }

    /// The heuristic router always yields a DRC-clean layout that the SAT
    /// equivalence checker certifies against the specification.
    #[test]
    fn routed_layouts_are_clean_and_equivalent(recipe in arb_recipe()) {
        if let Some(xag) = build(&recipe) {
            let net = map_xag(&xag, MapOptions::default()).expect("mappable");
            let graph = NetGraph::new(net).expect("placeable");
            let layout = heuristic_pnr(&graph).expect("heuristic routes every legalized netlist");
            prop_assert!(layout.verify().is_empty());
            let extracted = extract_network(&layout).expect("extractable");
            prop_assert_eq!(
                check_equivalence_extracted_bounded(&xag, &extracted, None, Deadline::unbounded())
                    .expect("checkable"),
                Equivalence::Equivalent
            );
        }
    }
}
