//! The CDCL search engine.

use crate::types::{Lit, Var};
use fcn_budget::Deadline;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const UNASSIGNED: u8 = 2;

/// Result of a [`Solver::solve_with`] call.
///
/// The three "no verdict" outcomes are kept apart: a probe that ran out
/// of budget carries information (the instance is hard), one that was
/// cancelled carries none and should be discarded by the caller, and
/// one past its deadline means the whole scan is out of time. An
/// unbounded solve (the default [`SolveParams`]) only ever returns
/// [`BoundedResult::Sat`] or [`BoundedResult::Unsat`].
#[derive(Debug, Clone, PartialEq)]
pub enum BoundedResult {
    /// The formula is satisfiable under the assumptions.
    Sat(Model),
    /// The formula is unsatisfiable under the assumptions.
    Unsat,
    /// The conflict budget ran out before a verdict.
    BudgetExceeded,
    /// The cancel flag (see [`SolveParams::cancel`]) was raised before a
    /// verdict.
    Interrupted,
    /// The wall-clock deadline (see [`SolveParams::deadline`]) passed
    /// before a verdict. Distinct from [`BoundedResult::BudgetExceeded`]
    /// (which bounds *this* probe's effort and lets a scan move on) —
    /// an expired deadline means the whole scan is out of time and
    /// should degrade.
    DeadlineExpired,
}

impl BoundedResult {
    /// True if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, BoundedResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            BoundedResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Parameters of a [`Solver::solve_with`] call, the solver's single
/// entry point. Every limit defaults to "none": `SolveParams::new()` is
/// a plain unbounded, assumption-free solve that always concludes.
///
/// # Examples
///
/// ```
/// use msat::{Lit, SolveParams, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause([Lit::pos(a), Lit::pos(b)]);
/// let result = s.solve_with(&SolveParams::new().assume([Lit::neg(a)]));
/// assert!(result.is_sat());
/// assert!(result.model().unwrap().value(b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolveParams {
    /// Literals forced true for this call only (incremental interface).
    pub assumptions: Vec<Lit>,
    /// Conflict budget; `None` is unbounded and the solve always returns
    /// a definitive verdict.
    pub max_conflicts: Option<u64>,
    /// Cooperative cancel flag, polled periodically during the search;
    /// once it reads `true` the solve returns
    /// [`BoundedResult::Interrupted`]. `None` is never polled.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock cut-off polled at the cancel cadence; an expired
    /// deadline yields [`BoundedResult::DeadlineExpired`]. The default
    /// ([`Deadline::unbounded`]) is never polled and costs nothing.
    pub deadline: Deadline,
}

impl SolveParams {
    /// An unbounded, assumption-free, uncancellable solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the assumptions (literals held true for this call only).
    #[must_use]
    pub fn assume<I: IntoIterator<Item = Lit>>(mut self, lits: I) -> Self {
        self.assumptions = lits.into_iter().collect();
        self
    }

    /// Caps the solve at `max_conflicts` conflicts past the current
    /// conflict count; an exhausted budget yields
    /// [`BoundedResult::BudgetExceeded`].
    #[must_use]
    pub fn budget(mut self, max_conflicts: u64) -> Self {
        self.max_conflicts = Some(max_conflicts);
        self
    }

    /// Makes the solve poll `flag` and stop with
    /// [`BoundedResult::Interrupted`] once it is raised, leaving the
    /// solver at the root level and reusable.
    #[must_use]
    pub fn cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Sets a wall-clock deadline for the solve; once it passes, the
    /// search returns [`BoundedResult::DeadlineExpired`] at the next
    /// poll, leaving the solver at the root level and reusable.
    #[must_use]
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

/// A satisfying assignment returned by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// The truth value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not part of the solved formula.
    pub fn value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// The truth value of a literal under this model.
    pub fn lit_value(&self, lit: Lit) -> bool {
        self.value(lit.var()) ^ lit.is_negative()
    }

    /// Number of variables in the model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the model contains no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Aggregate statistics of a solver run, for benchmarking and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learned clauses currently in the database.
    pub learned: u64,
    /// Wall time spent inside [`Solver::solve_with`] since the stats
    /// were last reset. Monotonic-clock-derived; zero when the stats
    /// come from a context with no timing (hand-built literals).
    pub solve_time: std::time::Duration,
}

impl SolverStats {
    /// Conflicts per second of solve time; `None` without timing.
    pub fn conflicts_per_sec(&self) -> Option<f64> {
        (!self.solve_time.is_zero()).then(|| self.conflicts as f64 / self.solve_time.as_secs_f64())
    }

    /// Propagations per second of solve time; `None` without timing.
    pub fn propagations_per_sec(&self) -> Option<f64> {
        (!self.solve_time.is_zero())
            .then(|| self.propagations as f64 / self.solve_time.as_secs_f64())
    }

    /// These statistics with [`SolverStats::solve_time`] zeroed: the
    /// deterministic work counters alone. Reproducibility assertions
    /// (e.g. "the portfolio does identical solver work at any thread
    /// count") compare these, since wall time is never reproducible.
    pub fn without_time(&self) -> SolverStats {
        SolverStats {
            solve_time: std::time::Duration::ZERO,
            ..*self
        }
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conflicts, {} decisions, {} propagations, {} restarts, {} learned",
            self.conflicts, self.decisions, self.propagations, self.restarts, self.learned
        )?;
        if let (Some(cps), Some(pps)) = (self.conflicts_per_sec(), self.propagations_per_sec()) {
            write!(
                f,
                ", {:.3?} ({cps:.0} conflicts/s, {pps:.0} propagations/s)",
                self.solve_time
            )?;
        }
        Ok(())
    }
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.conflicts += rhs.conflicts;
        self.restarts += rhs.restarts;
        // `learned` is a database size, not a flow: summing probe
        // snapshots would double-count, so keep the latest.
        self.learned = rhs.learned;
        self.solve_time += rhs.solve_time;
    }
}

impl std::ops::Add for SolverStats {
    type Output = SolverStats;

    fn add(mut self, rhs: SolverStats) -> SolverStats {
        self += rhs;
        self
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
    activity: f64,
    /// Literal block distance — the number of distinct decision levels
    /// among the clause's literals at learn time (glucose). Lower is
    /// better; "glue" clauses (LBD ≤ 2) are never garbage-collected.
    /// `0` for original clauses, which are never reduced anyway.
    lbd: u32,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// A CDCL SAT solver.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    unsat: bool,
    stats: SolverStats,
    cla_inc: f64,
    /// Per-level stamps for O(clause) LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
}

const NO_REASON: u32 = u32::MAX;

/// How many search-loop iterations pass between polls of the cancel
/// flag. Small enough for millisecond-scale cancellation latency, large
/// enough that the atomic load is invisible in profiles.
const POLL_INTERVAL: u32 = 64;

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ..Default::default()
        }
    }

    /// Introduces a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of original (non-learned) clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.learned).count()
    }

    /// Run statistics of the most recent (or ongoing) solve.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Duplicate literals are removed and tautological clauses are ignored.
    /// Adding the empty clause (or a unit clause contradicting an earlier
    /// one at the root level) makes the formula trivially unsatisfiable.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        if self.unsat {
            return;
        }
        debug_assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at root level"
        );
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        // Tautology or satisfied/falsified literal filtering at root level.
        let mut filtered = Vec::with_capacity(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            if i + 1 < lits.len() && lits[i + 1] == l.negated() {
                return; // tautology: contains l and ¬l (sorted adjacently)
            }
            match self.lit_state(l) {
                Some(true) => return, // already satisfied at root
                Some(false) => {}     // drop falsified literal
                None => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(filtered[0], NO_REASON) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                self.attach_clause(Clause {
                    lits: filtered,
                    learned: false,
                    activity: 0.0,
                    lbd: 0,
                });
            }
        }
    }

    fn attach_clause(&mut self, clause: Clause) -> u32 {
        let idx = self.clauses.len() as u32;
        let w0 = clause.lits[0];
        let w1 = clause.lits[1];
        self.watches[w0.negated().code()].push(Watcher {
            clause: idx,
            blocker: w1,
        });
        self.watches[w1.negated().code()].push(Watcher {
            clause: idx,
            blocker: w0,
        });
        self.clauses.push(clause);
        idx
    }

    #[inline]
    fn lit_state(&self, lit: Lit) -> Option<bool> {
        match self.assign[lit.var().index()] {
            UNASSIGNED => None,
            v => Some((v == 1) ^ lit.is_negative()),
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Enqueues `lit` as true; returns false on immediate conflict.
    fn enqueue(&mut self, lit: Lit, reason: u32) -> bool {
        match self.lit_state(lit) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = lit.var().index();
                self.assign[v] = if lit.is_positive() { 1 } else { 0 };
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            let mut watchers = std::mem::take(&mut self.watches[lit.code()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < watchers.len() {
                let w = watchers[i];
                if self.lit_state(w.blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                let cidx = w.clause as usize;
                // Ensure the falsified literal is at position 1.
                let falsified = lit.negated();
                if self.clauses[cidx].lits[0] == falsified {
                    self.clauses[cidx].lits.swap(0, 1);
                }
                let first = self.clauses[cidx].lits[0];
                if first != w.blocker && self.lit_state(first) == Some(true) {
                    watchers[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[cidx].lits.len() {
                    let cand = self.clauses[cidx].lits[k];
                    if self.lit_state(cand) != Some(false) {
                        self.clauses[cidx].lits.swap(1, k);
                        self.watches[cand.negated().code()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        watchers.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                if !self.enqueue(first, w.clause) {
                    conflict = Some(w.clause);
                    break;
                }
                i += 1;
            }
            // Put back the (possibly shrunk) watcher list, preserving any
            // watchers we did not examine due to an early conflict exit.
            let existing = std::mem::take(&mut self.watches[lit.code()]);
            watchers.extend(existing);
            self.watches[lit.code()] = watchers;
            if let Some(c) = conflict {
                self.prop_head = self.trail.len();
                return Some(c);
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first), the backjump level, and the clause's LBD (computed
    /// here, while every literal is still assigned).
    fn analyze(&mut self, mut conflict: u32) -> (Vec<Lit>, u32, u32) {
        let mut learned: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut trail_idx = self.trail.len();
        let mut asserting = None;
        let current_level = self.decision_level();

        loop {
            self.bump_clause(conflict as usize);
            // Visit the literals of the conflicting/reason clause.
            let start = usize::from(asserting.is_some()); // skip lits[0] for reasons
            for k in start..self.clauses[conflict as usize].lits.len() {
                let q = self.clauses[conflict as usize].lits[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let p = self.trail[trail_idx];
            self.seen[p.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                asserting = Some(p.negated());
                break;
            }
            conflict = self.reason[p.var().index()];
            debug_assert_ne!(conflict, NO_REASON);
            asserting = Some(p); // marks that subsequent clauses are reasons
        }
        learned[0] = asserting.expect("conflict analysis must find a UIP");

        // Conflict-clause minimization: drop literals implied by the rest.
        let mut minimized = vec![learned[0]];
        for &l in &learned[1..] {
            if !self.is_redundant(l) {
                minimized.push(l);
            }
        }
        for &l in &learned[1..] {
            self.seen[l.var().index()] = false;
        }

        let backjump = if minimized.len() == 1 {
            0
        } else {
            // Second-highest level in the clause; move that literal to slot 1.
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };
        let lbd = self.compute_lbd(&minimized);
        (minimized, backjump, lbd)
    }

    /// A literal is redundant in the learned clause if its reason clause
    /// consists only of other seen literals (local minimization).
    fn is_redundant(&self, lit: Lit) -> bool {
        let r = self.reason[lit.var().index()];
        if r == NO_REASON {
            return false;
        }
        self.clauses[r as usize].lits[1..]
            .iter()
            .all(|&q| self.seen[q.var().index()] || self.level[q.var().index()] == 0)
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for &lit in &self.trail[target..] {
            let v = lit.var().index();
            self.saved_phase[v] = lit.is_positive();
            self.assign[v] = UNASSIGNED;
            self.reason[v] = NO_REASON;
            self.heap.insert(lit.var(), &self.activity);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.prop_head = self.trail.len();
    }

    fn bump_var(&mut self, var: Var) {
        let a = &mut self.activity[var.index()];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(var, &self.activity);
    }

    /// Activity bump plus dynamic LBD refresh (glucose): a clause
    /// participating in conflict analysis has all literals assigned, so
    /// its LBD can be recomputed; the minimum ever observed is kept.
    /// Must only be called while the clause is fully assigned.
    fn bump_clause(&mut self, idx: usize) {
        if !self.clauses[idx].learned {
            return;
        }
        self.bump_clause_activity(idx);
        let lits = std::mem::take(&mut self.clauses[idx].lits);
        let lbd = self.compute_lbd(&lits);
        self.clauses[idx].lits = lits;
        if lbd < self.clauses[idx].lbd {
            self.clauses[idx].lbd = lbd;
        }
    }

    fn bump_clause_activity(&mut self, idx: usize) {
        if !self.clauses[idx].learned {
            return;
        }
        self.clauses[idx].activity += self.cla_inc;
        if self.clauses[idx].activity > 1e20 {
            for c in self.clauses.iter_mut().filter(|c| c.learned) {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// The number of distinct decision levels among `lits` (their
    /// variables must all be assigned). Root-level literals are not
    /// counted: they are semantically fixed and do not block anything.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0u32;
        for &l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if lvl == 0 {
                continue;
            }
            if lvl >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lvl + 1, 0);
            }
            if self.lbd_stamp[lvl] != stamp {
                self.lbd_stamp[lvl] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assign[v.index()] == UNASSIGNED {
                return Some(v);
            }
        }
        None
    }

    /// Removes roughly half of the removable learned clauses,
    /// glucose-style: binary clauses, glue clauses (LBD ≤ 2), and
    /// clauses currently used as reasons always survive; among the rest,
    /// high-LBD low-activity clauses go first.
    fn reduce_learned(&mut self) {
        let mut removable: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learned && c.lits.len() > 2 && c.lbd > 2
            })
            .collect();
        if removable.len() < 2 {
            return;
        }
        // Worst first: highest LBD, ties broken by lowest activity.
        removable.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a], &self.clauses[b]);
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(core::cmp::Ordering::Equal),
            )
        });
        let reasons: std::collections::HashSet<u32> = self
            .reason
            .iter()
            .copied()
            .filter(|&r| r != NO_REASON)
            .collect();
        let to_remove: std::collections::HashSet<u32> = removable[..removable.len() / 2]
            .iter()
            .map(|&i| i as u32)
            .filter(|i| !reasons.contains(i))
            .collect();
        self.remove_clauses(&to_remove);
        self.stats.learned = self.clauses.iter().filter(|c| c.learned).count() as u64;
    }

    /// Compacts the clause database, dropping the clauses in `to_remove`
    /// and remapping watcher lists and reason indices.
    fn remove_clauses(&mut self, to_remove: &std::collections::HashSet<u32>) {
        if to_remove.is_empty() {
            return;
        }
        let mut remap = vec![NO_REASON; self.clauses.len()];
        let mut kept = Vec::with_capacity(self.clauses.len() - to_remove.len());
        for (i, c) in self.clauses.drain(..).enumerate() {
            if !to_remove.contains(&(i as u32)) {
                remap[i] = kept.len() as u32;
                kept.push(c);
            }
        }
        self.clauses = kept;
        for w in &mut self.watches {
            w.retain_mut(|watcher| {
                let n = remap[watcher.clause as usize];
                if n == NO_REASON {
                    false
                } else {
                    watcher.clause = n;
                    true
                }
            });
        }
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = remap[*r as usize];
            }
        }
    }

    /// Solves under the given [`SolveParams`] — the solver's single
    /// entry point.
    ///
    /// Solver state (learned clauses, variable activities, saved
    /// phases) persists across calls, enabling incremental use; the
    /// assumptions hold for this call only.
    pub fn solve_with(&mut self, params: &SolveParams) -> BoundedResult {
        let limit = params
            .max_conflicts
            .map(|b| self.stats.conflicts.saturating_add(b));
        let started = std::time::Instant::now();
        let result = self.search(
            &params.assumptions,
            limit,
            params.cancel.as_deref(),
            params.deadline.instant(),
        );
        // Accumulated like the work counters, so derived rates stay
        // consistent across repeated calls.
        self.stats.solve_time += started.elapsed();
        result
    }

    /// The CDCL search loop behind [`Solver::solve_with`]. `limit` is
    /// an absolute conflict-count ceiling (`None` = unbounded); `cancel`
    /// and `deadline`, when set, are polled at the same cadence, and the
    /// deadline wins (an expired deadline reports
    /// [`BoundedResult::DeadlineExpired`] even if the cancel flag is also
    /// up, so callers degrade rather than silently discard).
    fn search(
        &mut self,
        assumptions: &[Lit],
        limit: Option<u64>,
        cancel: Option<&AtomicBool>,
        deadline: Option<Instant>,
    ) -> BoundedResult {
        if self.unsat {
            return BoundedResult::Unsat;
        }
        if deadline.is_some_and(|t| Instant::now() >= t) {
            return BoundedResult::DeadlineExpired;
        }
        if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            return BoundedResult::Interrupted;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return BoundedResult::Unsat;
        }

        let mut conflicts_until_restart = luby(self.stats.restarts) * 100;
        let mut max_learned = (self.clauses.len() as u64).max(1000) * 2;
        let mut poll_countdown = POLL_INTERVAL;
        // One flag decides whether the countdown runs at all, so an
        // un-instrumented unbounded solve pays nothing per iteration.
        let polls = cancel.is_some() || deadline.is_some() || fcn_budget::fault::armed();

        loop {
            if polls {
                poll_countdown -= 1;
                if poll_countdown == 0 {
                    poll_countdown = POLL_INTERVAL;
                    if deadline.is_some_and(|t| Instant::now() >= t) {
                        self.backtrack_to(0);
                        return BoundedResult::DeadlineExpired;
                    }
                    if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                        self.backtrack_to(0);
                        return BoundedResult::Interrupted;
                    }
                    // Fault injection: `msat.search` fires at the poll
                    // cadence. Exhaustion/interruption are only honored
                    // when the solve could produce them naturally, so an
                    // injected fault can never smuggle a no-verdict
                    // result into an unbounded solve.
                    match fcn_budget::fault::at("msat.search") {
                        Some(fcn_budget::fault::Fault::Panic) => {
                            panic!("injected fault: panic at msat.search")
                        }
                        Some(fcn_budget::fault::Fault::Exhaust) if limit.is_some() => {
                            self.backtrack_to(0);
                            return BoundedResult::BudgetExceeded;
                        }
                        Some(fcn_budget::fault::Fault::Interrupt) if cancel.is_some() => {
                            self.backtrack_to(0);
                            return BoundedResult::Interrupted;
                        }
                        _ => {}
                    }
                }
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if limit.is_some_and(|limit| self.stats.conflicts >= limit) {
                    // Budget exhausted: give up without a verdict. The
                    // caller treats this as "unknown".
                    self.backtrack_to(0);
                    return BoundedResult::BudgetExceeded;
                }
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return BoundedResult::Unsat;
                }
                // Assumptions are re-applied after backjumping; if a learned
                // clause ends up contradicting one, the re-application below
                // observes the conflict and reports UNSAT.
                let (learned, backjump, lbd) = self.analyze(conflict);
                self.backtrack_to(backjump);
                let asserting = learned[0];
                if learned.len() == 1 {
                    self.backtrack_to(0);
                    if !self.enqueue(asserting, NO_REASON) {
                        self.unsat = true;
                        return BoundedResult::Unsat;
                    }
                } else {
                    let idx = self.attach_clause(Clause {
                        lits: learned,
                        learned: true,
                        activity: 0.0,
                        lbd,
                    });
                    self.stats.learned += 1;
                    self.bump_clause_activity(idx as usize);
                    let ok = self.enqueue(asserting, idx);
                    debug_assert!(ok, "learned clause must be asserting");
                }
                self.decay_activities();
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    conflicts_until_restart = luby(self.stats.restarts) * 100;
                    self.backtrack_to(0);
                }
                if self.stats.learned > max_learned {
                    self.backtrack_to(0);
                    self.reduce_learned();
                    max_learned = max_learned * 3 / 2;
                }
                // Apply pending assumptions as pseudo-decisions.
                let mut next_decision = None;
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_state(a) {
                        Some(true) => {
                            // Already implied: introduce an empty decision
                            // level so the bookkeeping stays aligned.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        Some(false) => {
                            // The assumption is falsified by the current
                            // (possibly non-root) assignment. Restore the
                            // root level before reporting: leaving the
                            // pseudo-decisions on the trail would poison
                            // later `add_clause` calls, which filter
                            // literals against root-level state.
                            self.backtrack_to(0);
                            return BoundedResult::Unsat;
                        }
                        None => next_decision = Some(a),
                    }
                }
                let decision = match next_decision {
                    Some(d) => Some(d),
                    None => self
                        .pick_branch_var()
                        .map(|v| Lit::with_value(v, self.saved_phase[v.index()])),
                };
                match decision {
                    None => {
                        let values = self.assign.iter().map(|&a| a == 1).collect();
                        let model = Model { values };
                        debug_assert!(self.model_satisfies_all(&model));
                        self.backtrack_to(0);
                        return BoundedResult::Sat(model);
                    }
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(lit, NO_REASON);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }

    fn model_satisfies_all(&self, model: &Model) -> bool {
        self.clauses
            .iter()
            .filter(|c| !c.learned)
            .all(|c| c.lits.iter().any(|&l| model.lit_value(l)))
    }
}

/// The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, …
fn luby(i: u64) -> u64 {
    let mut i = i;
    loop {
        let mut k = 1u64;
        loop {
            if i + 2 == (1u64 << k) {
                return 1u64 << (k - 1);
            }
            if i + 2 < (1u64 << k) {
                break;
            }
            k += 1;
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Indexed binary max-heap over variable activities.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<usize>,
}

const NOT_IN_HEAP: usize = usize::MAX;

impl VarHeap {
    fn insert(&mut self, var: Var, activity: &[f64]) {
        let idx = var.index();
        if idx >= self.pos.len() {
            self.pos.resize(idx + 1, NOT_IN_HEAP);
        }
        if self.pos[idx] != NOT_IN_HEAP {
            return;
        }
        self.pos[idx] = self.heap.len();
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn update(&mut self, var: Var, activity: &[f64]) {
        let idx = var.index();
        if idx < self.pos.len() && self.pos[idx] != NOT_IN_HEAP {
            self.sift_up(self.pos[idx], activity);
        }
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.index()] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].index()] <= activity[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < self.heap.len()
                && activity[self.heap[l].index()] > activity[self.heap[largest].index()]
            {
                largest = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].index()] > activity[self.heap[largest].index()]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a;
        self.pos[self.heap[b].index()] = b;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The model of a satisfiable result.
    pub(crate) fn sat_model(result: BoundedResult) -> Model {
        match result {
            BoundedResult::Sat(m) => m,
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    fn lit(i: i32) -> Lit {
        let v = Var(i.unsigned_abs() - 1);
        if i > 0 {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    fn solver_with_vars(n: u32) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    /// The (unsatisfiable for n > h) pigeonhole instance: n pigeons into
    /// h holes, at most one pigeon per hole.
    fn pigeonhole(n: u32, h: u32) -> Solver {
        let mut s = solver_with_vars(n * h);
        let p = |i: u32, j: u32| Lit::pos(Var(i * h + j));
        for i in 0..n {
            s.add_clause((0..h).map(|j| p(i, j)));
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([p(i1, j).negated(), p(i2, j).negated()]);
                }
            }
        }
        s
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve_with(&SolveParams::new()).is_sat());
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1), lit(2)]);
        let m = sat_model(s.solve_with(&SolveParams::new()));
        assert!(m.value(Var(0)));
        assert!(m.value(Var(1)));
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1)]);
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(-1)]);
        assert!(s.solve_with(&SolveParams::new()).is_sat());
    }

    #[test]
    fn simple_3sat_instance() {
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        s.add_clause([lit(-3), lit(-1)]);
        let m = sat_model(s.solve_with(&SolveParams::new()));
        // Verify all clauses satisfied.
        assert!(m.lit_value(lit(1)) || m.lit_value(lit(2)) || m.lit_value(lit(3)));
        assert!(!m.lit_value(lit(1)) || m.lit_value(lit(2)));
        assert!(!m.lit_value(lit(2)) || m.lit_value(lit(3)));
        assert!(!m.lit_value(lit(3)) || !m.lit_value(lit(1)));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_ij: pigeon i in hole j; i in 0..3, j in 0..2.
        let mut s = solver_with_vars(6);
        let p = |i: u32, j: u32| Lit::pos(Var(i * 2 + j));
        for i in 0..3 {
            s.add_clause([p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([p(i1, j).negated(), p(i2, j).negated()]);
                }
            }
        }
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn stats_display_names_every_counter() {
        let stats = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            restarts: 4,
            learned: 5,
            solve_time: std::time::Duration::ZERO,
        };
        let text = stats.to_string();
        for needle in [
            "3 conflicts",
            "1 decisions",
            "2 propagations",
            "4 restarts",
            "5 learned",
        ] {
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
        // No timing, no rates.
        assert!(!text.contains("conflicts/s"), "{text:?}");
        let mut sum = stats;
        sum += SolverStats {
            decisions: 10,
            ..SolverStats::default()
        };
        assert_eq!(sum.decisions, 11);
        assert_eq!(sum.conflicts, 3);
    }

    #[test]
    fn stats_display_derives_rates_from_solve_time() {
        let stats = SolverStats {
            conflicts: 100,
            propagations: 5000,
            solve_time: std::time::Duration::from_secs(2),
            ..SolverStats::default()
        };
        assert_eq!(stats.conflicts_per_sec(), Some(50.0));
        assert_eq!(stats.propagations_per_sec(), Some(2500.0));
        let text = stats.to_string();
        assert!(text.contains("50 conflicts/s"), "{text:?}");
        assert!(text.contains("2500 propagations/s"), "{text:?}");
        // Rates accumulate coherently: doubling work and time keeps
        // the rate.
        let mut sum = stats;
        sum += stats;
        assert_eq!(sum.conflicts_per_sec(), Some(50.0));
        assert_eq!(SolverStats::default().conflicts_per_sec(), None);
    }

    #[test]
    fn solve_with_records_solve_time() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
        let timed = s.stats();
        assert!(
            !timed.solve_time.is_zero(),
            "search work must accumulate solve_time"
        );
        assert!(timed.conflicts_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn assumptions_restrict_models() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        let m = sat_model(s.solve_with(&SolveParams::new().assume([lit(-1)])));
        assert!(!m.value(Var(0)));
        assert!(m.value(Var(1)));
        // Conflicting assumptions yield UNSAT without poisoning the solver.
        assert_eq!(
            s.solve_with(&SolveParams::new().assume([lit(-1), lit(-2)])),
            BoundedResult::Unsat
        );
        assert!(s.solve_with(&SolveParams::new()).is_sat());
    }

    #[test]
    fn incremental_solving_reuses_state() {
        let mut s = solver_with_vars(4);
        s.add_clause([lit(1), lit(2)]);
        assert!(s.solve_with(&SolveParams::new()).is_sat());
        s.add_clause([lit(-1)]);
        let m = sat_model(s.solve_with(&SolveParams::new()));
        assert!(m.value(Var(1)));
        s.add_clause([lit(-2)]);
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
    }

    #[test]
    fn random_instances_verify_models() {
        // Deterministic pseudo-random 3-SAT; every SAT model must satisfy
        // every clause (checked inside the solver debug assertion too).
        let mut seed = 0x12345678u64;
        let mut rand = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..30 {
            let nvars = 8 + (round % 5);
            let nclauses = 3 * nvars;
            let mut s = solver_with_vars(nvars as u32);
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    let v = (rand() % nvars as u64) as u32;
                    let neg = rand() % 2 == 0;
                    cl.push(if neg {
                        Lit::neg(Var(v))
                    } else {
                        Lit::pos(Var(v))
                    });
                }
                clauses.push(cl.clone());
                s.add_clause(cl);
            }
            if let BoundedResult::Sat(m) = s.solve_with(&SolveParams::new()) {
                for cl in &clauses {
                    assert!(cl.iter().any(|&l| m.lit_value(l)), "model violates clause");
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(super::luby(i as u64), e, "luby({i})");
        }
    }

    /// Regression: an assumption falsified by propagation from an earlier
    /// assumption must not leave pseudo-decisions on the trail. Before
    /// the fix, the early UNSAT return skipped `backtrack_to(0)`, so the
    /// next `add_clause` filtered literals against a stale non-root
    /// assignment and could silently corrupt the formula.
    #[test]
    fn falsified_assumption_leaves_root_state_clean() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(-1), lit(2)]); // x → y
                                         // Assuming x propagates y, so the second assumption ¬y is
                                         // falsified at level 1 (not level 0).
        assert_eq!(
            s.solve_with(&SolveParams::new().assume([lit(1), lit(-2)])),
            BoundedResult::Unsat
        );
        assert!(s.trail_lim.is_empty(), "trail must be at root level");
        // Adding ¬x must not be filtered against the stale assignment:
        // the formula {x → y, ¬x} is satisfiable (x = false).
        s.add_clause([lit(-1)]);
        let m = sat_model(s.solve_with(&SolveParams::new()));
        assert!(!m.value(Var(0)));
    }

    #[test]
    fn raised_cancel_flag_wins_even_unbounded() {
        let mut s = pigeonhole(5, 4);
        let flag = Arc::new(AtomicBool::new(true));
        // No budget, but a raised cancel flag: the flag wins.
        assert_eq!(
            s.solve_with(&SolveParams::new().cancel(flag)),
            BoundedResult::Interrupted
        );
        // A solve without the flag concludes.
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
    }

    #[test]
    fn expired_deadline_reports_deadline_expired() {
        let mut s = pigeonhole(6, 5);
        // Already-expired deadline: reported before any search effort.
        assert_eq!(
            s.solve_with(&SolveParams::new().deadline(Deadline::after_ms(0))),
            BoundedResult::DeadlineExpired
        );
        // The solver stays reusable and an unbounded solve still decides.
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
    }

    #[test]
    fn deadline_expires_mid_search() {
        // Large enough that the search outlives a 1 ms deadline, so the
        // expiry is caught by the in-loop poll rather than the entry
        // check (pigeonhole instances blow up exponentially).
        let mut s = pigeonhole(9, 8);
        let r = s.solve_with(&SolveParams::new().deadline(Deadline::after_ms(1)));
        assert_eq!(r, BoundedResult::DeadlineExpired);
        assert!(s.trail_lim.is_empty(), "trail must be at root level");
    }

    #[test]
    fn deadline_wins_over_cancel() {
        let mut s = pigeonhole(5, 4);
        let flag = Arc::new(AtomicBool::new(true));
        assert_eq!(
            s.solve_with(
                &SolveParams::new()
                    .cancel(flag)
                    .deadline(Deadline::after_ms(0))
            ),
            BoundedResult::DeadlineExpired
        );
    }

    #[test]
    fn budget_exhaustion_is_distinct_from_cancellation() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(
            s.solve_with(&SolveParams::new().budget(1)),
            BoundedResult::BudgetExceeded
        );
        let flag = Arc::new(AtomicBool::new(true));
        assert_eq!(
            s.solve_with(&SolveParams::new().budget(u64::MAX).cancel(flag)),
            BoundedResult::Interrupted
        );
        // With an effectively unlimited budget the verdict is reached.
        assert_eq!(
            s.solve_with(&SolveParams::new().budget(u64::MAX)),
            BoundedResult::Unsat
        );
    }

    #[test]
    fn injected_search_faults_respect_solve_mode() {
        use fcn_budget::fault::{self, Fault, FaultPlan};
        // Exhaust fires only on bounded solves; an unbounded solve with
        // the same plan still reaches its verdict.
        let plan = Arc::new(FaultPlan::single("msat.search", Fault::Exhaust));
        let _scope = fault::install(plan);
        // Big enough that the search reaches the 64-iteration poll
        // cadence (pigeonhole(5,4) concludes in fewer loop iterations).
        let mut s = pigeonhole(7, 6);
        assert_eq!(
            s.solve_with(&SolveParams::new().budget(u64::MAX)),
            BoundedResult::BudgetExceeded
        );
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
    }

    #[test]
    fn injected_search_panic_fires_at_poll_cadence() {
        use fcn_budget::fault::{self, Fault, FaultPlan};
        let plan = Arc::new(FaultPlan::single("msat.search", Fault::Panic));
        let _scope = fault::install(plan);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = pigeonhole(7, 6);
            s.solve_with(&SolveParams::new())
        }));
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("msat.search"), "payload names the point");
    }

    #[test]
    fn learned_clauses_carry_lbd() {
        let mut s = pigeonhole(6, 5);
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
        let learned: Vec<&Clause> = s.clauses.iter().filter(|c| c.learned).collect();
        // Not every learned clause survives to the end, but those that
        // do must have an LBD bounded by their length.
        for c in &learned {
            assert!(
                (c.lbd as usize) <= c.lits.len(),
                "lbd {} exceeds len {}",
                c.lbd,
                c.lits.len()
            );
        }
    }

    #[test]
    fn reduce_learned_keeps_glue_clauses() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
        // Force a reduction pass at the root.
        let glue_before = s
            .clauses
            .iter()
            .filter(|c| c.learned && (c.lits.len() <= 2 || c.lbd <= 2))
            .count();
        s.reduce_learned();
        let glue_after = s
            .clauses
            .iter()
            .filter(|c| c.learned && (c.lits.len() <= 2 || c.lbd <= 2))
            .count();
        assert_eq!(glue_before, glue_after, "glue clauses are never reduced");
    }

    #[test]
    fn duplicate_assumptions_are_handled() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        let m = sat_model(s.solve_with(&SolveParams::new().assume([lit(-1), lit(-1)])));
        assert!(!m.value(Var(0)));
        assert!(m.value(Var(1)));
        assert!(s.solve_with(&SolveParams::new()).is_sat());
    }

    #[test]
    fn assumption_contradicting_root_unit_is_unsat_without_poisoning() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1)]); // root-level unit: x
        assert_eq!(
            s.solve_with(&SolveParams::new().assume([lit(-1)])),
            BoundedResult::Unsat
        );
        // Directly contradictory assumption pair.
        assert_eq!(
            s.solve_with(&SolveParams::new().assume([lit(2), lit(-2)])),
            BoundedResult::Unsat
        );
        // The formula itself is still satisfiable.
        let m = sat_model(s.solve_with(&SolveParams::new()));
        assert!(m.value(Var(0)));
    }

    #[test]
    fn lowered_cancel_flag_lets_the_solve_conclude() {
        let mut s = pigeonhole(5, 4);
        let flag = Arc::new(AtomicBool::new(true));
        let cancellable = SolveParams::new().budget(u64::MAX).cancel(flag.clone());
        assert_eq!(s.solve_with(&cancellable), BoundedResult::Interrupted);
        // Solves without the flag ignore it entirely.
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve_with(&cancellable), BoundedResult::Unsat);
    }

    #[test]
    fn cancel_from_another_thread_stops_search() {
        // Large enough that the search certainly outlives the signal.
        let mut s = pigeonhole(9, 8);
        let flag = Arc::new(AtomicBool::new(false));
        let signaller = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                flag.store(true, Ordering::Relaxed);
            })
        };
        let result = s.solve_with(&SolveParams::new().budget(u64::MAX).cancel(flag));
        signaller.join().expect("signaller thread");
        assert_eq!(result, BoundedResult::Interrupted);
        // The solver stays reusable after cancellation.
        assert!(s.trail_lim.is_empty());
    }
}
