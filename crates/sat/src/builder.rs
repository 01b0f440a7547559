//! CNF construction utilities layered on top of the raw solver.
//!
//! [`CnfBuilder`] wraps a [`Solver`] and offers the encodings the Bestagon
//! flow relies on: Tseitin gadgets for Boolean gates (used when bit-blasting
//! logic networks for equivalence checking) and cardinality constraints
//! (used by the exact placement & routing encoding, e.g. "every logic node
//! is placed on exactly one tile").

use crate::solver::{BoundedResult, SolveParams, Solver};
use crate::types::{Lit, Var};

/// A convenience layer for building CNF formulas.
///
/// # Examples
///
/// Encoding `c = a AND b` and asking for a model where `c` holds:
///
/// ```
/// use msat::{BoundedResult, CnfBuilder, SolveParams};
///
/// let mut cnf = CnfBuilder::new();
/// let a = cnf.new_lit();
/// let b = cnf.new_lit();
/// let c = cnf.and(a, b);
/// cnf.add_clause([c]);
/// let BoundedResult::Sat(model) = cnf.solve_with(&SolveParams::new()) else {
///     panic!("satisfiable");
/// };
/// assert!(model.lit_value(a) && model.lit_value(b));
/// ```
#[derive(Debug, Default)]
pub struct CnfBuilder {
    solver: Solver,
    true_lit: Option<Lit>,
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Introduces a fresh variable.
    pub(crate) fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Introduces a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        Lit::pos(self.new_var())
    }

    /// A literal constrained to be true (created lazily).
    pub(crate) fn constant_true(&mut self) -> Lit {
        match self.true_lit {
            Some(l) => l,
            None => {
                let l = self.new_lit();
                self.solver.add_clause([l]);
                self.true_lit = Some(l);
                l
            }
        }
    }

    /// A literal constrained to be false.
    pub fn constant_false(&mut self) -> Lit {
        self.constant_true().negated()
    }

    /// Adds a raw clause.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.solver.add_clause(lits);
    }

    /// Adds the implication `a → b`.
    pub(crate) fn implies(&mut self, a: Lit, b: Lit) {
        self.add_clause([a.negated(), b]);
    }

    /// Returns a fresh literal `o` with `o ↔ (a ∧ b)` (Tseitin).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let o = self.new_lit();
        self.add_clause([o.negated(), a]);
        self.add_clause([o.negated(), b]);
        self.add_clause([a.negated(), b.negated(), o]);
        o
    }

    /// Returns a fresh literal `o` with `o ↔ (a ∨ b)` (Tseitin).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(a.negated(), b.negated()).negated()
    }

    /// Returns a fresh literal `o` with `o ↔ (a ⊕ b)` (Tseitin).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let o = self.new_lit();
        self.add_clause([o.negated(), a, b]);
        self.add_clause([o.negated(), a.negated(), b.negated()]);
        self.add_clause([o, a.negated(), b]);
        self.add_clause([o, a, b.negated()]);
        o
    }

    /// Returns a fresh literal `o` with `o ↔ (a ∧ b ∧ …)`. The iterator
    /// is walked (cloned) more than once instead of being collected.
    pub(crate) fn and_all<I>(&mut self, lits: I) -> Lit
    where
        I: IntoIterator<Item = Lit>,
        I::IntoIter: Clone,
    {
        let lits = lits.into_iter();
        let mut head = lits.clone();
        let Some(first) = head.next() else {
            return self.constant_true();
        };
        if head.next().is_none() {
            return first;
        }
        let o = self.new_lit();
        for l in lits.clone() {
            self.add_clause([o.negated(), l]);
        }
        self.add_clause(lits.map(Lit::negated).chain([o]));
        o
    }

    /// Returns a fresh literal `o` with `o ↔ (a ∨ b ∨ …)`.
    pub fn or_all<I>(&mut self, lits: I) -> Lit
    where
        I: IntoIterator<Item = Lit>,
        I::IntoIter: Clone,
    {
        self.and_all(lits.into_iter().map(Lit::negated)).negated()
    }

    /// Adds "at most one of `lits` is true" using the pairwise encoding for
    /// small sets and the sequential (ladder) encoding for larger ones.
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        if lits.len() <= 1 {
            return;
        }
        if lits.len() <= 5 {
            for i in 0..lits.len() {
                for j in (i + 1)..lits.len() {
                    self.add_clause([lits[i].negated(), lits[j].negated()]);
                }
            }
        } else {
            // Sequential encoding: s_i means "a true literal occurs in
            // lits[..=i]"; two true literals force s_{i-1} ∧ lits[i] → ⊥.
            let mut prev = lits[0];
            for &l in &lits[1..] {
                let s = self.new_lit();
                self.implies(prev, s);
                self.implies(l, s);
                self.add_clause([prev.negated(), l.negated()]);
                prev = s;
            }
        }
    }

    /// Solves the accumulated formula under the given [`SolveParams`]
    /// (see `Solver::solve_with`).
    pub fn solve_with(&mut self, params: &SolveParams) -> BoundedResult {
        self.solver.solve_with(params)
    }

    /// Grants access to the underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::sat_model;

    /// Exhaustively checks a two-input gadget against a reference function.
    fn check_gate(
        f: impl Fn(&mut CnfBuilder, Lit, Lit) -> Lit,
        reference: impl Fn(bool, bool) -> bool,
    ) {
        for a_val in [false, true] {
            for b_val in [false, true] {
                let mut cnf = CnfBuilder::new();
                let a = cnf.new_lit();
                let b = cnf.new_lit();
                let o = f(&mut cnf, a, b);
                cnf.add_clause([Lit::with_value(a.var(), a_val)]);
                cnf.add_clause([Lit::with_value(b.var(), b_val)]);
                let m = sat_model(cnf.solve_with(&SolveParams::new()));
                assert_eq!(m.lit_value(o), reference(a_val, b_val));
            }
        }
    }

    #[test]
    fn and_gate_truth_table() {
        check_gate(|c, a, b| c.and(a, b), |a, b| a && b);
    }

    #[test]
    fn or_gate_truth_table() {
        check_gate(|c, a, b| c.or(a, b), |a, b| a || b);
    }

    #[test]
    fn xor_gate_truth_table() {
        check_gate(|c, a, b| c.xor(a, b), |a, b| a ^ b);
    }

    #[test]
    fn and_all_or_all_wide() {
        let mut cnf = CnfBuilder::new();
        let lits: Vec<Lit> = (0..6).map(|_| cnf.new_lit()).collect();
        let all = cnf.and_all(lits.iter().copied());
        let any = cnf.or_all(lits.iter().copied());
        // Force all inputs true: both gadgets must be true.
        let mut assumptions: Vec<Lit> = lits.clone();
        let m = sat_model(cnf.solve_with(&SolveParams {
            assumptions: assumptions.clone(),
            ..SolveParams::new()
        }));
        assert!(m.lit_value(all));
        assert!(m.lit_value(any));
        // One input false: and false, or true.
        assumptions[3] = assumptions[3].negated();
        let m = sat_model(cnf.solve_with(&SolveParams {
            assumptions: assumptions.clone(),
            ..SolveParams::new()
        }));
        assert!(!m.lit_value(all));
        assert!(m.lit_value(any));
        // All false: both false.
        let all_false: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
        let m = sat_model(cnf.solve_with(&SolveParams {
            assumptions: all_false,
            ..SolveParams::new()
        }));
        assert!(!m.lit_value(all));
        assert!(!m.lit_value(any));
    }

    #[test]
    fn at_most_one_small_and_large() {
        // n <= 5 takes the pairwise encoding, n > 5 the sequential one.
        for n in [2usize, 4, 9] {
            let mut cnf = CnfBuilder::new();
            let lits: Vec<Lit> = (0..n).map(|_| cnf.new_lit()).collect();
            cnf.at_most_one(&lits);
            let solve = |cnf: &mut CnfBuilder, assumptions: Vec<Lit>| {
                cnf.solve_with(&SolveParams {
                    assumptions,
                    ..SolveParams::new()
                })
            };
            let all_false: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
            sat_model(solve(&mut cnf, all_false));
            let m = sat_model(solve(&mut cnf, vec![lits[n - 1]]));
            let count = lits.iter().filter(|&&l| m.lit_value(l)).count();
            assert_eq!(count, 1, "n={n}");
            assert_eq!(
                solve(&mut cnf, vec![lits[0], lits[n - 1]]),
                BoundedResult::Unsat,
                "n={n}"
            );
        }
    }

    /// Pins the search of a formula built through the public builder, the
    /// path every exact P&R probe and equivalence miter takes: it must
    /// start with live activity, as the solver's own trajectory pins do.
    #[test]
    fn builder_pigeonhole_trajectory_is_pinned() {
        let (n, h) = (6, 5);
        let mut cnf = CnfBuilder::new();
        let p: Vec<Lit> = (0..n * h).map(|_| cnf.new_lit()).collect();
        for i in 0..n {
            cnf.add_clause((0..h).map(|j| p[i * h + j]));
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    cnf.add_clause([p[i1 * h + j].negated(), p[i2 * h + j].negated()]);
                }
            }
        }
        assert_eq!(cnf.solve_with(&SolveParams::new()), BoundedResult::Unsat);
        assert_eq!(cnf.solver().stats().conflicts, 148);
    }

    #[test]
    fn constants_behave() {
        let mut cnf = CnfBuilder::new();
        let t = cnf.constant_true();
        let f = cnf.constant_false();
        let m = sat_model(cnf.solve_with(&SolveParams::new()));
        assert!(m.lit_value(t));
        assert!(!m.lit_value(f));
    }

    #[test]
    fn implication_chains() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        cnf.implies(a, b);
        let m = sat_model(cnf.solve_with(&SolveParams {
            assumptions: vec![a],
            ..SolveParams::new()
        }));
        assert!(m.lit_value(b));
    }
}
