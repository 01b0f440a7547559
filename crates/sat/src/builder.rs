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
/// use msat::{CnfBuilder, Lit, SolveParams};
///
/// let mut cnf = CnfBuilder::new();
/// let a = cnf.new_lit();
/// let b = cnf.new_lit();
/// let c = cnf.and(a, b);
/// cnf.add_clause([c]);
/// let result = cnf.solve_with(&SolveParams::new());
/// let model = result.model().expect("satisfiable");
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
    pub fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Introduces a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        Lit::pos(self.new_var())
    }

    /// A literal constrained to be true (created lazily).
    pub fn constant_true(&mut self) -> Lit {
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
    pub fn implies(&mut self, a: Lit, b: Lit) {
        self.add_clause([a.negated(), b]);
    }

    /// Adds the implication `(a ∧ b) → c`.
    pub fn implies2(&mut self, a: Lit, b: Lit, c: Lit) {
        self.add_clause([a.negated(), b.negated(), c]);
    }

    /// Constrains `a ↔ b`.
    pub fn equal(&mut self, a: Lit, b: Lit) {
        self.implies(a, b);
        self.implies(b, a);
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

    /// Returns a fresh literal `o` with `o ↔ (s ? t : e)` (if-then-else).
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let o = self.new_lit();
        self.add_clause([s.negated(), t.negated(), o]);
        self.add_clause([s.negated(), t, o.negated()]);
        self.add_clause([s, e.negated(), o]);
        self.add_clause([s, e, o.negated()]);
        o
    }

    /// Returns a fresh literal `o` with `o ↔ (a ∧ b ∧ …)`.
    pub fn and_all<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let lits: Vec<Lit> = lits.into_iter().collect();
        match lits.len() {
            0 => self.constant_true(),
            1 => lits[0],
            _ => {
                let o = self.new_lit();
                for &l in &lits {
                    self.add_clause([o.negated(), l]);
                }
                let mut clause: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
                clause.push(o);
                self.add_clause(clause);
                o
            }
        }
    }

    /// Returns a fresh literal `o` with `o ↔ (a ∨ b ∨ …)`.
    pub fn or_all<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let negated: Vec<Lit> = lits.into_iter().map(Lit::negated).collect();
        self.and_all(negated).negated()
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

    /// Adds "at most `k` of `lits` are true" using a sequential counter
    /// encoding (Sinz 2005).
    pub fn at_most_k(&mut self, lits: &[Lit], k: usize) {
        if lits.len() <= k {
            return;
        }
        if k == 0 {
            for &l in lits {
                self.add_clause([l.negated()]);
            }
            return;
        }
        if k == 1 {
            self.at_most_one(lits);
            return;
        }
        // s[i][j] = "at least j+1 true literals among lits[..=i]".
        let n = lits.len();
        let mut s: Vec<Vec<Lit>> = Vec::with_capacity(n);
        for _ in 0..n {
            s.push((0..k).map(|_| self.new_lit()).collect());
        }
        self.implies(lits[0], s[0][0]);
        let first_row: Vec<Lit> = s[0][1..k].to_vec();
        for lit in first_row {
            self.add_clause([lit.negated()]);
        }
        for i in 1..n {
            self.implies(lits[i], s[i][0]);
            self.implies(s[i - 1][0], s[i][0]);
            for j in 1..k {
                self.implies2(lits[i], s[i - 1][j - 1], s[i][j]);
                self.implies(s[i - 1][j], s[i][j]);
            }
            // Overflow: the (k+1)-th true literal is forbidden.
            self.add_clause([lits[i].negated(), s[i - 1][k - 1].negated()]);
        }
    }

    /// Adds "at least one of `lits` is true".
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (an empty disjunction is unsatisfiable and
    /// almost certainly an encoding bug).
    pub fn at_least_one(&mut self, lits: &[Lit]) {
        assert!(!lits.is_empty(), "at_least_one of zero literals");
        self.add_clause(lits.iter().copied());
    }

    /// Adds "exactly one of `lits` is true".
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.at_least_one(lits);
        self.at_most_one(lits);
    }

    /// Solves the accumulated formula under the given [`SolveParams`]
    /// (see [`Solver::solve_with`]).
    pub fn solve_with(&mut self, params: &SolveParams) -> BoundedResult {
        self.solver.solve_with(params)
    }

    /// Grants access to the underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Grants mutable access to the underlying solver.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Consumes the builder and returns the underlying solver.
    pub fn into_solver(self) -> Solver {
        self.solver
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
    fn mux_truth_table() {
        for s_val in [false, true] {
            for t_val in [false, true] {
                for e_val in [false, true] {
                    let mut cnf = CnfBuilder::new();
                    let s = cnf.new_lit();
                    let t = cnf.new_lit();
                    let e = cnf.new_lit();
                    let o = cnf.mux(s, t, e);
                    cnf.add_clause([Lit::with_value(s.var(), s_val)]);
                    cnf.add_clause([Lit::with_value(t.var(), t_val)]);
                    cnf.add_clause([Lit::with_value(e.var(), e_val)]);
                    let m = sat_model(cnf.solve_with(&SolveParams::new()));
                    assert_eq!(m.lit_value(o), if s_val { t_val } else { e_val });
                }
            }
        }
    }

    #[test]
    fn and_all_or_all_wide() {
        let mut cnf = CnfBuilder::new();
        let lits: Vec<Lit> = (0..6).map(|_| cnf.new_lit()).collect();
        let all = cnf.and_all(lits.iter().copied());
        let any = cnf.or_all(lits.iter().copied());
        // Force all inputs true: both gadgets must be true.
        let mut assumptions: Vec<Lit> = lits.clone();
        let m = sat_model(cnf.solve_with(&SolveParams::new().assume(assumptions.iter().copied())));
        assert!(m.lit_value(all));
        assert!(m.lit_value(any));
        // One input false: and false, or true.
        assumptions[3] = assumptions[3].negated();
        let m = sat_model(cnf.solve_with(&SolveParams::new().assume(assumptions.iter().copied())));
        assert!(!m.lit_value(all));
        assert!(m.lit_value(any));
        // All false: both false.
        let all_false: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
        let m = sat_model(cnf.solve_with(&SolveParams::new().assume(all_false.iter().copied())));
        assert!(!m.lit_value(all));
        assert!(!m.lit_value(any));
    }

    #[test]
    fn exactly_one_small_and_large() {
        for n in [2usize, 4, 9] {
            let mut cnf = CnfBuilder::new();
            let lits: Vec<Lit> = (0..n).map(|_| cnf.new_lit()).collect();
            cnf.exactly_one(&lits);
            let m = sat_model(cnf.solve_with(&SolveParams::new()));
            let count = lits.iter().filter(|&&l| m.lit_value(l)).count();
            assert_eq!(count, 1, "n={n}");
            // Forcing two to be true must be UNSAT.
            assert!(
                !cnf.solve_with(&SolveParams::new().assume([lits[0], lits[n - 1]]))
                    .is_sat(),
                "n={n}"
            );
            // Forcing all false must be UNSAT.
            let all_false: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
            assert!(
                !cnf.solve_with(&SolveParams::new().assume(all_false.iter().copied()))
                    .is_sat(),
                "n={n}"
            );
        }
    }

    #[test]
    fn at_most_one_allows_zero() {
        let mut cnf = CnfBuilder::new();
        let lits: Vec<Lit> = (0..7).map(|_| cnf.new_lit()).collect();
        cnf.at_most_one(&lits);
        let all_false: Vec<Lit> = lits.iter().map(|l| l.negated()).collect();
        assert!(cnf
            .solve_with(&SolveParams::new().assume(all_false.iter().copied()))
            .is_sat());
    }

    #[test]
    fn at_most_k_bounds_true_count() {
        for k in [2usize, 3] {
            for n in [4usize, 6, 8] {
                let mut cnf = CnfBuilder::new();
                let lits: Vec<Lit> = (0..n).map(|_| cnf.new_lit()).collect();
                cnf.at_most_k(&lits, k);
                // Exactly k true is still satisfiable.
                let mut assumptions: Vec<Lit> = lits
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| if i < k { l } else { l.negated() })
                    .collect();
                assert!(
                    cnf.solve_with(&SolveParams::new().assume(assumptions.iter().copied()))
                        .is_sat(),
                    "n={n} k={k}"
                );
                // k+1 true must be unsatisfiable.
                assumptions[k] = lits[k];
                assert!(
                    !cnf.solve_with(&SolveParams::new().assume(assumptions.iter().copied()))
                        .is_sat(),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn at_most_zero_forces_all_false() {
        let mut cnf = CnfBuilder::new();
        let lits: Vec<Lit> = (0..3).map(|_| cnf.new_lit()).collect();
        cnf.at_most_k(&lits, 0);
        let m = sat_model(cnf.solve_with(&SolveParams::new()));
        assert!(lits.iter().all(|&l| !m.lit_value(l)));
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
        let c = cnf.new_lit();
        cnf.implies(a, b);
        cnf.implies2(a, b, c);
        let m = sat_model(cnf.solve_with(&SolveParams::new().assume([a])));
        assert!(m.lit_value(b) && m.lit_value(c));
    }
}
