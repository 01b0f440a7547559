//! An exact-size XAG structure database for all four-input functions.
//!
//! The paper's flow performs "cut-based logic rewriting with an exact NPN
//! database" [Riener et al., DATE 2019]. The original implementation uses a
//! pre-computed database of size-optimal XAG structures per NPN class; here
//! a per-function database is computed on first use by dynamic programming:
//!
//! * cost 0: constants and (complemented) projections — complemented edges
//!   are free in an XAG, so negation never costs a node;
//! * cost `c`: all functions obtainable by combining a cost-`i` and a
//!   cost-`j` function (`i + j = c − 1`) with one AND or XOR node, over all
//!   fanin polarities.
//!
//! The enumeration is tree-shaped (operands do not share nodes), so the
//! recorded cost is an upper bound on true DAG-aware optimal size — the
//! same guarantee practical rewriting databases provide. Functions not
//! reached within the node budget simply have no database entry and are
//! skipped by the rewriter.
//!
//! The table is keyed by function, not by NPN class: lookups are direct
//! (indexed by the 16-bit truth table), so no canonization is needed.
//! Keying by class would shrink it 295× (222 classes); with 65 536
//! entries the flat table is small enough that we trade that memory for
//! simplicity — the semantics of the rewriting step are identical.

use crate::network::{Signal, Xag};
use crate::truth_table::TruthTable;
use std::sync::OnceLock;

const NUM_FUNCS: usize = 1 << 16;
const UNKNOWN: u8 = u8::MAX;

/// How a function is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Def {
    /// Constant false (`0x0000`) or true (`0xFFFF`).
    Const,
    /// Projection onto variable `v`, possibly complemented.
    Var(u8, bool),
    /// A gate over two previously realized functions (given by their full
    /// 16-bit truth tables, fanin polarity already baked in).
    Gate { is_xor: bool, fa: u16, fb: u16 },
}

/// The structure database: size-optimal (tree) XAG realizations of
/// four-input functions up to a node budget.
#[derive(Debug)]
pub(crate) struct XagDatabase {
    cost: Vec<u8>,
    def: Vec<Def>,
}

impl XagDatabase {
    /// Builds the database with the given node budget.
    ///
    /// A budget of 5 covers the overwhelming majority of functions that
    /// occur as 4-cut functions in practice; building it takes well under a
    /// second in release builds.
    pub(crate) fn build(budget: u8) -> Self {
        let mut cost = vec![UNKNOWN; NUM_FUNCS];
        let mut def = vec![Def::Const; NUM_FUNCS];
        let mut levels: Vec<Vec<u16>> = vec![Vec::new(); budget as usize + 1];

        let record = |cost: &mut Vec<u8>,
                      def: &mut Vec<Def>,
                      levels: &mut Vec<Vec<u16>>,
                      bits: u16,
                      c: u8,
                      d: Def| {
            if cost[bits as usize] == UNKNOWN {
                cost[bits as usize] = c;
                def[bits as usize] = d;
                levels[c as usize].push(bits);
                true
            } else {
                false
            }
        };

        // Cost 0: constants and literals.
        record(&mut cost, &mut def, &mut levels, 0x0000, 0, Def::Const);
        record(&mut cost, &mut def, &mut levels, 0xFFFF, 0, Def::Const);
        for v in 0..4u8 {
            let p = TruthTable::projection(4, v).bits() as u16;
            record(&mut cost, &mut def, &mut levels, p, 0, Def::Var(v, false));
            record(&mut cost, &mut def, &mut levels, !p, 0, Def::Var(v, true));
        }

        for c in 1..=budget {
            for i in 0..c {
                let j = c - 1 - i;
                if j < i {
                    break;
                }
                // Snapshot the (immutable) operand levels.
                let left: Vec<u16> = levels[i as usize].clone();
                let right: Vec<u16> = levels[j as usize].clone();
                for &fa in &left {
                    for &fb in &right {
                        // AND with all fanin polarities; output complement is
                        // free, so record both polarities of each result.
                        for (pa, pb) in [(false, false), (false, true), (true, false), (true, true)]
                        {
                            let a = if pa { !fa } else { fa };
                            let b = if pb { !fb } else { fb };
                            let h = a & b;
                            record(
                                &mut cost,
                                &mut def,
                                &mut levels,
                                h,
                                c,
                                Def::Gate {
                                    is_xor: false,
                                    fa: a,
                                    fb: b,
                                },
                            );
                            record(
                                &mut cost,
                                &mut def,
                                &mut levels,
                                !h,
                                c,
                                Def::Gate {
                                    is_xor: false,
                                    fa: a,
                                    fb: b,
                                },
                            );
                        }
                        let h = fa ^ fb;
                        record(
                            &mut cost,
                            &mut def,
                            &mut levels,
                            h,
                            c,
                            Def::Gate {
                                is_xor: true,
                                fa,
                                fb,
                            },
                        );
                        record(
                            &mut cost,
                            &mut def,
                            &mut levels,
                            !h,
                            c,
                            Def::Gate {
                                is_xor: true,
                                fa,
                                fb,
                            },
                        );
                    }
                }
            }
        }

        XagDatabase { cost, def }
    }

    /// A process-wide shared database with the default budget of 5.
    pub(crate) fn shared() -> &'static XagDatabase {
        static DB: OnceLock<XagDatabase> = OnceLock::new();
        DB.get_or_init(|| XagDatabase::build(5))
    }

    /// The optimal (tree) node count of `function`, if realized within the
    /// budget. The function must be given over exactly four variables.
    pub(crate) fn size_of(&self, function: TruthTable) -> Option<u8> {
        assert_eq!(function.num_vars(), 4, "database functions have 4 inputs");
        let c = self.cost[function.bits() as usize];
        (c != UNKNOWN).then_some(c)
    }

    /// Instantiates the stored structure for `function` inside `xag`, using
    /// the four `leaves` as input signals. Returns the output signal, or
    /// `None` if the function is not in the database.
    ///
    /// Structural hashing inside [`Xag`] deduplicates any recreated nodes,
    /// making the rewriting step DAG-aware.
    pub(crate) fn rebuild(
        &self,
        xag: &mut Xag,
        function: TruthTable,
        leaves: &[Signal; 4],
    ) -> Option<Signal> {
        assert_eq!(function.num_vars(), 4);
        let bits = function.bits() as u16;
        if self.cost[bits as usize] == UNKNOWN {
            return None;
        }
        let mut memo = std::collections::HashMap::new();
        Some(self.rebuild_rec(xag, bits, leaves, &mut memo))
    }

    fn rebuild_rec(
        &self,
        xag: &mut Xag,
        bits: u16,
        leaves: &[Signal; 4],
        memo: &mut std::collections::HashMap<u16, Signal>,
    ) -> Signal {
        if let Some(&s) = memo.get(&bits) {
            return s;
        }
        let signal = match self.def[bits as usize] {
            Def::Const => {
                if bits == 0 {
                    xag.constant_false()
                } else {
                    xag.constant_true()
                }
            }
            Def::Var(v, compl) => leaves[v as usize].complement_if(compl),
            Def::Gate { is_xor, fa, fb } => {
                let a = self.rebuild_rec(xag, fa, leaves, memo);
                let b = self.rebuild_rec(xag, fb, leaves, memo);
                let raw = if is_xor { xag.xor(a, b) } else { xag.and(a, b) };
                // The gate realizes `fa op fb`; if `bits` is the complement,
                // flip the edge.
                let direct = if is_xor { fa ^ fb } else { fa & fb };
                raw.complement_if(bits != direct)
            }
        };
        memo.insert(bits, signal);
        signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> XagDatabase {
        XagDatabase::build(3)
    }

    /// `a ∨ b` by De Morgan (the table type keeps only the ops the flow uses).
    fn or(a: TruthTable, b: TruthTable) -> TruthTable {
        a.not().and(b.not()).not()
    }

    #[test]
    fn literals_cost_zero() {
        let db = db();
        for v in 0..4 {
            let p = TruthTable::projection(4, v);
            assert_eq!(db.size_of(p), Some(0));
            assert_eq!(db.size_of(p.not()), Some(0));
        }
        assert_eq!(db.size_of(TruthTable::from_bits(4, 0)), Some(0));
        assert_eq!(db.size_of(TruthTable::from_bits(4, u64::MAX)), Some(0));
    }

    #[test]
    fn two_input_gates_cost_one() {
        let db = db();
        let a = TruthTable::projection(4, 0);
        let b = TruthTable::projection(4, 1);
        assert_eq!(db.size_of(a.and(b)), Some(1));
        assert_eq!(db.size_of(or(a, b)), Some(1));
        assert_eq!(db.size_of(a.xor(b)), Some(1));
        assert_eq!(db.size_of(a.xor(b).not()), Some(1));
        assert_eq!(db.size_of(a.and(b.not())), Some(1));
    }

    #[test]
    fn three_input_parity_costs_two() {
        let db = db();
        let a = TruthTable::projection(4, 0);
        let b = TruthTable::projection(4, 1);
        let c = TruthTable::projection(4, 2);
        assert_eq!(db.size_of(a.xor(b).xor(c)), Some(2));
    }

    #[test]
    fn majority_costs_at_most_four() {
        let db = XagDatabase::build(4);
        let a = TruthTable::projection(4, 0);
        let b = TruthTable::projection(4, 1);
        let c = TruthTable::projection(4, 2);
        let maj = or(or(a.and(b), a.and(c)), b.and(c));
        let size = db.size_of(maj).expect("majority is realizable in 4 nodes");
        // maj(a,b,c) = (a ∧ b) ⊕ ((a ⊕ b) ∧ c) needs 4 nodes; known XAG bound.
        assert!(size <= 4, "got {size}");
        assert!(size >= 3);
    }

    #[test]
    fn rebuild_realizes_the_function() {
        let db = XagDatabase::build(4);
        let a = TruthTable::projection(4, 0);
        let b = TruthTable::projection(4, 1);
        let c = TruthTable::projection(4, 2);
        let d = TruthTable::projection(4, 3);
        let targets = [
            a.and(b),
            a.xor(b).xor(c),
            or(a.and(b), c.and(d)),
            or(or(a.and(b), a.and(c)), b.and(c)),
            or(a, b).not(),
        ];
        for target in targets {
            let mut xag = Xag::new();
            let leaves = [
                xag.primary_input("a"),
                xag.primary_input("b"),
                xag.primary_input("c"),
                xag.primary_input("d"),
            ];
            let out = db
                .rebuild(&mut xag, target, &leaves)
                .expect("target should be in the database");
            xag.primary_output("f", out);
            for row in 0..16u32 {
                let inputs: Vec<bool> = (0..4).map(|k| (row >> k) & 1 == 1).collect();
                assert_eq!(
                    xag.simulate(&inputs)[0],
                    target.value_at(row),
                    "function {target}"
                );
            }
        }
    }

    #[test]
    fn rebuild_cost_matches_recorded_cost() {
        let db = XagDatabase::build(4);
        let a = TruthTable::projection(4, 0);
        let b = TruthTable::projection(4, 1);
        let c = TruthTable::projection(4, 2);
        let target = a.xor(b).xor(c);
        let mut xag = Xag::new();
        let leaves = [
            xag.primary_input("a"),
            xag.primary_input("b"),
            xag.primary_input("c"),
            xag.primary_input("d"),
        ];
        let out = db.rebuild(&mut xag, target, &leaves).expect("in db");
        xag.primary_output("f", out);
        assert_eq!(xag.num_gates() as u8, db.size_of(target).expect("in db"));
    }

    #[test]
    fn unknown_functions_return_none() {
        let db = XagDatabase::build(1);
        // 4-input parity needs 3 XOR nodes; not reachable at budget 1.
        let a = TruthTable::projection(4, 0);
        let b = TruthTable::projection(4, 1);
        let c = TruthTable::projection(4, 2);
        let d = TruthTable::projection(4, 3);
        let parity = a.xor(b).xor(c.xor(d));
        assert_eq!(db.size_of(parity), None);
        let mut xag = Xag::new();
        let leaves = [
            xag.primary_input("a"),
            xag.primary_input("b"),
            xag.primary_input("c"),
            xag.primary_input("d"),
        ];
        assert!(db.rebuild(&mut xag, parity, &leaves).is_none());
    }
}
