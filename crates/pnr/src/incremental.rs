//! Incremental SAT sessions for the exact P&R engines.
//!
//! The exact engines probe aspect ratios in increasing-area order; the
//! from-scratch mode encodes every ratio into a fresh CNF, discarding
//! all learned clauses and heuristic state between probes. This module
//! keeps **one [`msat::Solver`] alive across the probes of a netlist**
//! and splits the encoding into two clause classes:
//!
//! * **Shared clauses** hold for *every* aspect ratio of the netlist —
//!   "a node occupies at most one tile", "at most one gate per tile",
//!   "at most one edge per output port", and the Tseitin definitions of
//!   occupancy literals. They are added unguarded and persist, as do
//!   all learned clauses derived purely from them, the VSIDS activities
//!   and the saved phases of the shared problem variables.
//! * **Guarded clauses** encode the per-ratio boundary and area limits
//!   (units such as "this tile lies outside the ratio, so no node sits
//!   on it"). Each probe owns a fresh *activation literal* `act`; its guarded clauses
//!   carry `¬act` and are activated by solving under the assumption
//!   `act`. Retiring the probe asserts `¬act` as a root-level unit,
//!   which satisfies — and lets [`msat::Solver::simplify`] reclaim —
//!   every guarded clause and every learned clause that depended on it.
//!
//! Problem variables (`place`/`wire`/`step`) are cached by semantic key
//! so the same variable is reused wherever two ratios talk about the
//! same placement fact; that reuse is what lets clause learning and
//! branching heuristics transfer between probes. Auxiliary variables
//! (cardinality ladders, Tseitin outputs) are deduplicated at the
//! clause-set level instead.
//!
//! The [`ProbeEmitter`] trait abstracts the clause classes so a single
//! encoder serves both modes: the scratch emitter maps every class to a
//! plain [`CnfBuilder`] call, the incremental emitter applies the
//! guard/share split above.

use crate::portfolio::CancelFlag;
use msat::{BoundedResult, CnfBuilder, Deadline, Lit, SolveParams, SolverStats};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// How much state an incremental P&R session transferred between
/// aspect-ratio probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Probes that started with a warm solver (learned clauses already
    /// in the database).
    pub warm_probes: u64,
    /// Total learned clauses carried into probes (summed over probes).
    pub learned_retained: u64,
    /// Conflicts the warm solver needed to re-discover the winning
    /// ratio's verdict (`None` when no probe was satisfiable or the
    /// session ran from scratch).
    pub winner_presolve_conflicts: Option<u64>,
    /// Conflicts the fresh extraction solver needed on the same winning
    /// instance — the from-scratch cost of that probe, measured in the
    /// same run.
    pub winner_scratch_conflicts: Option<u64>,
}

impl ReuseStats {
    /// Conflicts saved on the winning probe by solver reuse: the
    /// from-scratch cost minus the warm cost of the *same* instance
    /// (clamped at zero). `None` until both sides were measured.
    pub fn conflicts_saved(&self) -> Option<u64> {
        match (
            self.winner_scratch_conflicts,
            self.winner_presolve_conflicts,
        ) {
            (Some(scratch), Some(warm)) => Some(scratch.saturating_sub(warm)),
            _ => None,
        }
    }
}

/// The two clause classes of an aspect-ratio probe encoding, served by
/// both the from-scratch and the incremental backends.
///
/// *Shared* emissions must be universally valid for the netlist — true
/// in every aspect ratio — because the incremental backend lets them
/// (and lemmas learned from them) survive into later probes. *Guarded*
/// emissions may encode per-ratio limits; they are retired with the
/// probe.
pub trait ProbeEmitter<K> {
    /// The problem variable for a semantic fact (cached per key in the
    /// incremental backend, fresh in the scratch backend).
    fn var(&mut self, key: K) -> Lit;
    /// Adds a clause that only holds for the current aspect ratio.
    fn guarded(&mut self, clause: Vec<Lit>);
    /// Adds a clause that holds for every aspect ratio.
    fn shared(&mut self, clause: Vec<Lit>);
    /// "At most one of `lits`" — must be universally valid.
    fn shared_at_most_one(&mut self, lits: &[Lit]);
    /// A literal equivalent to `lits[0] ∨ lits[1] ∨ …` whose Tseitin
    /// definition is universally valid (and cached per literal set in
    /// the incremental backend).
    fn shared_or_all(&mut self, lits: &[Lit]) -> Lit;
}

/// The from-scratch backend: every emission goes straight to a fresh
/// [`CnfBuilder`]; the guard/share distinction is erased.
#[derive(Debug, Default)]
pub struct ScratchEmitter {
    /// The accumulated formula.
    pub cnf: CnfBuilder,
}

impl ScratchEmitter {
    /// An empty scratch probe.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<K> ProbeEmitter<K> for ScratchEmitter {
    fn var(&mut self, _key: K) -> Lit {
        self.cnf.new_lit()
    }

    fn guarded(&mut self, clause: Vec<Lit>) {
        self.cnf.add_clause(clause);
    }

    fn shared(&mut self, clause: Vec<Lit>) {
        self.cnf.add_clause(clause);
    }

    fn shared_at_most_one(&mut self, lits: &[Lit]) {
        self.cnf.at_most_one(lits);
    }

    fn shared_or_all(&mut self, lits: &[Lit]) -> Lit {
        self.cnf.or_all(lits.iter().copied())
    }
}

/// Learned clauses allowed to survive a probe retirement (binaries and
/// glue clauses are exempt — [`msat::Solver::reduce_learned`] never
/// removes them).
const RETAINED_LEARNED_CAP: u64 = 4_000;

/// An incremental CNF session shared by every aspect-ratio probe of one
/// netlist (one per portfolio worker; the sequential engine owns one
/// for the whole scan).
#[derive(Debug)]
pub struct IncrementalCnf<K> {
    cnf: CnfBuilder,
    vars: HashMap<K, Lit>,
    /// Normalized shared clauses already in the database, so re-walking
    /// a constraint group in a later probe does not duplicate them.
    shared_seen: HashSet<Vec<Lit>>,
    /// Literal sets whose at-most-one ladder was already emitted.
    ladder_seen: HashSet<Vec<Lit>>,
    /// Tseitin OR outputs by (sorted) input set.
    or_cache: HashMap<Vec<Lit>, Lit>,
    /// The current probe's activation literal.
    act: Option<Lit>,
    /// Learned clauses present when the current probe began.
    retained: u64,
}

impl<K: Eq + Hash> IncrementalCnf<K> {
    /// A cold session with an empty solver.
    pub fn new() -> Self {
        IncrementalCnf {
            cnf: CnfBuilder::new(),
            vars: HashMap::new(),
            shared_seen: HashSet::new(),
            ladder_seen: HashSet::new(),
            or_cache: HashMap::new(),
            act: None,
            retained: 0,
        }
    }

    /// Opens a probe: resets the per-probe run counters, allocates a
    /// fresh activation literal, and returns the number of learned
    /// clauses carried in from earlier probes (`0` on a cold solver).
    pub fn begin_probe(&mut self) -> u64 {
        debug_assert!(self.act.is_none(), "previous probe was not retired");
        self.cnf.solver_mut().stats_reset();
        self.retained = self.cnf.solver().stats().learned;
        self.act = Some(self.cnf.new_lit());
        self.retained
    }

    /// Learned clauses carried into the current probe.
    pub fn retained(&self) -> u64 {
        self.retained
    }

    /// Whether a probe is currently open (`begin_probe` without a
    /// matching `end_probe`). A session abandoned in this state — e.g.
    /// by a panicking worker — must not be reused: its activation
    /// literal was never retired, so its guarded clauses are still
    /// armed.
    pub fn mid_probe(&self) -> bool {
        self.act.is_some()
    }

    /// Solver work done since [`IncrementalCnf::begin_probe`].
    pub fn stats(&self) -> SolverStats {
        self.cnf.solver().stats()
    }

    /// Solves the active probe: the activation literal is assumed, the
    /// conflict budget applies to this call only, and both the cancel
    /// flag and the wall-clock deadline are polled cooperatively
    /// (pass [`Deadline::unbounded`] for no time limit).
    pub fn solve(
        &mut self,
        max_conflicts: u64,
        deadline: Deadline,
        cancel: &CancelFlag,
    ) -> BoundedResult {
        let act = self.act.expect("begin_probe before solve");
        self.cnf.solve_with(
            &SolveParams::new()
                .assume([act])
                .budget(max_conflicts)
                .cancel(cancel.clone())
                .deadline(deadline),
        )
    }

    /// Retires the current probe: asserts the negated activation
    /// literal at the root, so every guarded clause — and every learned
    /// clause that depended on this probe — is satisfied and reclaimed
    /// by the solver's garbage collector. Returns the number of clauses
    /// collected.
    pub fn end_probe(&mut self) -> usize {
        let Some(act) = self.act.take() else {
            return 0;
        };
        self.cnf.add_clause([act.negated()]);
        let collected = self.cnf.solver_mut().simplify();
        // Cap the learned database carried into the next probe. Budget-
        // exhausted probes can each leave ~budget lemmas behind; letting
        // that pile up across a long aspect-ratio scan slows propagation
        // more than the stale high-LBD lemmas help. `reduce_learned` is
        // glucose-style — binaries and glue clauses always survive — and
        // stops making progress once only those remain.
        while self.cnf.solver().stats().learned > RETAINED_LEARNED_CAP {
            let before = self.cnf.solver().stats().learned;
            self.cnf.solver_mut().reduce_learned();
            if self.cnf.solver().stats().learned == before {
                break;
            }
        }
        collected
    }
}

impl<K: Eq + Hash> Default for IncrementalCnf<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Normalizes a clause for structural deduplication.
fn normalized(mut clause: Vec<Lit>) -> Vec<Lit> {
    clause.sort_unstable();
    clause.dedup();
    clause
}

impl<K: Eq + Hash> ProbeEmitter<K> for IncrementalCnf<K> {
    fn var(&mut self, key: K) -> Lit {
        match self.vars.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let lit = Lit::pos(self.cnf.solver_mut().new_var());
                e.insert(lit);
                lit
            }
        }
    }

    fn guarded(&mut self, mut clause: Vec<Lit>) {
        let act = self.act.expect("begin_probe before emission");
        clause.push(act.negated());
        self.cnf.add_clause(clause);
    }

    fn shared(&mut self, clause: Vec<Lit>) {
        let clause = normalized(clause);
        if self.shared_seen.insert(clause.clone()) {
            self.cnf.add_clause(clause);
        }
    }

    fn shared_at_most_one(&mut self, lits: &[Lit]) {
        if lits.len() <= 1 {
            return;
        }
        if lits.len() <= 5 {
            // Pairwise: individual pairs deduplicate across probes even
            // when the constraint group grows between them.
            for i in 0..lits.len() {
                for j in (i + 1)..lits.len() {
                    self.shared(vec![lits[i].negated(), lits[j].negated()]);
                }
            }
        } else {
            // Sequential ladder with fresh auxiliaries; deduplicated at
            // the set level (a repeated identical group is skipped, a
            // grown group gets a fresh ladder — the old one remains
            // valid, merely redundant).
            let key = normalized(lits.to_vec());
            if !self.ladder_seen.insert(key) {
                return;
            }
            let mut prev = lits[0];
            for &l in &lits[1..] {
                let s = self.cnf.new_lit();
                self.cnf.implies(prev, s);
                self.cnf.implies(l, s);
                // The reverse direction (s → prev ∨ l) is not needed for
                // correctness, but it pins every ladder auxiliary once the
                // probe's guarded units assign the problem variables —
                // over the session superset the groups are much larger
                // than any single ratio's, and leaving the auxiliaries
                // free would hand the branching heuristic a long chain of
                // meaningless decisions.
                self.cnf.add_clause([s.negated(), prev, l]);
                self.cnf.add_clause([prev.negated(), l.negated()]);
                prev = s;
            }
        }
    }

    fn shared_or_all(&mut self, lits: &[Lit]) -> Lit {
        let key = normalized(lits.to_vec());
        if let Some(&o) = self.or_cache.get(&key) {
            return o;
        }
        let o = self.cnf.or_all(key.iter().copied());
        self.or_cache.insert(key, o);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Key {
        X(u32),
    }

    fn never() -> CancelFlag {
        Arc::new(AtomicBool::new(false))
    }

    #[test]
    fn vars_are_cached_by_key() {
        let mut inc: IncrementalCnf<Key> = IncrementalCnf::new();
        inc.begin_probe();
        let a = inc.var(Key::X(1));
        let b = inc.var(Key::X(2));
        let a2 = inc.var(Key::X(1));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        inc.end_probe();
    }

    #[test]
    fn guarded_constraints_die_with_their_probe() {
        let mut inc: IncrementalCnf<Key> = IncrementalCnf::new();
        // Probe 1: x must be true (guarded); UNSAT with guarded ¬x too.
        inc.begin_probe();
        let x = inc.var(Key::X(0));
        inc.guarded(vec![x]);
        inc.guarded(vec![x.negated()]);
        assert_eq!(
            inc.solve(u64::MAX, Deadline::unbounded(), &never()),
            BoundedResult::Unsat
        );
        inc.end_probe();
        // Probe 2: the same variable is unconstrained again.
        inc.begin_probe();
        let x2 = inc.var(Key::X(0));
        assert_eq!(x, x2);
        inc.guarded(vec![x2]);
        let r = inc.solve(u64::MAX, Deadline::unbounded(), &never());
        assert!(r.is_sat());
        assert!(r.model().unwrap().lit_value(x2));
        inc.end_probe();
    }

    #[test]
    fn shared_clauses_survive_probes_and_deduplicate() {
        let mut inc: IncrementalCnf<Key> = IncrementalCnf::new();
        inc.begin_probe();
        let a = inc.var(Key::X(0));
        let b = inc.var(Key::X(1));
        inc.shared(vec![a, b]);
        let n = inc.cnf.solver().num_clauses();
        inc.shared(vec![b, a]); // same clause, different order
        assert_eq!(inc.cnf.solver().num_clauses(), n, "deduplicated");
        assert!(inc
            .solve(u64::MAX, Deadline::unbounded(), &never())
            .is_sat());
        inc.end_probe();
        // Probe 2: the shared clause still constrains the formula.
        inc.begin_probe();
        inc.guarded(vec![a.negated()]);
        inc.guarded(vec![b.negated()]);
        assert_eq!(
            inc.solve(u64::MAX, Deadline::unbounded(), &never()),
            BoundedResult::Unsat
        );
        inc.end_probe();
    }

    #[test]
    fn retained_counts_learned_clauses_between_probes() {
        let mut inc: IncrementalCnf<Key> = IncrementalCnf::new();
        // A probe with real search work: shared pigeonhole 4→3 over
        // shared vars so lemmas persist.
        inc.begin_probe();
        assert_eq!(inc.retained(), 0, "cold start");
        let p = |i: u32, j: u32| Key::X(i * 3 + j);
        let vars: Vec<Vec<Lit>> = (0..4)
            .map(|i| (0..3).map(|j| inc.var(p(i, j))).collect())
            .collect();
        for row in &vars {
            inc.shared(row.clone());
        }
        for i1 in 0..4 {
            for i2 in (i1 + 1)..4 {
                for (a, b) in vars[i1].iter().zip(&vars[i2]) {
                    inc.shared(vec![a.negated(), b.negated()]);
                }
            }
        }
        assert_eq!(
            inc.solve(u64::MAX, Deadline::unbounded(), &never()),
            BoundedResult::Unsat
        );
        inc.end_probe();
        // The session itself is now unsat at the root (shared clauses
        // are contradictory) — begin_probe still reports retained state.
        inc.begin_probe();
        assert_eq!(
            inc.solve(u64::MAX, Deadline::unbounded(), &never()),
            BoundedResult::Unsat
        );
        inc.end_probe();
    }

    #[test]
    fn or_cache_reuses_tseitin_outputs() {
        let mut inc: IncrementalCnf<Key> = IncrementalCnf::new();
        inc.begin_probe();
        let a = inc.var(Key::X(0));
        let b = inc.var(Key::X(1));
        let o1 = inc.shared_or_all(&[a, b]);
        let o2 = inc.shared_or_all(&[b, a]);
        assert_eq!(o1, o2);
        inc.end_probe();
    }

    #[test]
    fn reuse_stats_report_saved_conflicts() {
        let stats = ReuseStats {
            warm_probes: 2,
            learned_retained: 10,
            winner_presolve_conflicts: Some(3),
            winner_scratch_conflicts: Some(9),
        };
        assert_eq!(stats.conflicts_saved(), Some(6));
        assert_eq!(ReuseStats::default().conflicts_saved(), None);
    }
}
