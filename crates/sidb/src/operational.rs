//! Operational (truth-table) validation of SiDB gate designs.
//!
//! A gate design is *operational* when, for every input pattern, the
//! simulated charge ground state of the gate (with input perturbers at
//! their near/far positions and output perturbers present) reproduces the
//! intended truth table on the output BDL pairs. This is the acceptance
//! criterion the paper applied to every tile of the Bestagon library.
//!
//! Validation shares the gate body's interaction matrix between the
//! `2^k` input patterns (patterns differ only in a few perturber dots,
//! so the dominant O(n²) matrix build happens once).
//!
//! Every pattern goes through one evaluator: build the pattern's
//! layout and matrix, simulate, and decode the outputs with
//! `GateDesign::read_outputs` — or, when the search was truncated by
//! its budget, report the pattern as unevaluated ([`PatternEval`]).
//! One fold turns the evaluations, in pattern order, into a verdict:
//! the lowest-numbered pattern that does not read correctly decides
//! it — [`OperationalStatus::NonOperational`] if that pattern's search
//! completed, [`OperationalStatus::Unknown`] if it was truncated.
//!
//! Two check modes share that fold (see the crate-internal
//! `CheckMode`). The *refute-fast* mode, behind the public checks,
//! evaluates patterns serially in pattern order and stops at the
//! deciding pattern: nothing simulated after it could change the
//! verdict. The adaptive operational-domain sweep gives it a *lead*
//! pattern to simulate first, whose completed refutation decides
//! alone. The *full* mode simulates every pattern, fanned out across
//! the engine's worker pool; only the dense operational-domain sweep
//! uses it, as the reference the adaptive sweep is measured against.
//! Either way verdicts *and* work counters are identical at any thread
//! count — the patterns are independent, and a simulation nested in
//! either mode only partitions its own clusters or chunks.

use crate::bdl::{InputPort, OutputPort};
use crate::charge::{ChargeConfiguration, InteractionMatrix};
use crate::defects::DefectMap;
use crate::engine::{self, SimParams, SimStats};
use crate::layout::SidbLayout;

/// A complete, simulatable SiDB gate design.
#[derive(Debug, Clone)]
pub struct GateDesign {
    /// Human-readable gate name (e.g. `"OR"`).
    pub name: String,
    /// All SiDBs of the tile: logic canvas plus I/O wire stubs.
    pub body: SidbLayout,
    /// Input ports, LSB first (pattern bit `i` drives port `i`).
    pub inputs: Vec<InputPort>,
    /// Output ports.
    pub outputs: Vec<OutputPort>,
    /// Expected outputs per input pattern; row `p` corresponds to the
    /// pattern whose bit `i` is input `i`'s value.
    pub truth_table: Vec<Vec<bool>>,
}

/// How [`GateDesign::check_with_mode`] treats a failing input pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckMode {
    /// Simulate every pattern, even after the deciding one, across the
    /// worker pool. Only the dense domain sweep uses it: it is the
    /// reference the adaptive sweep's verdicts and savings are compared
    /// against.
    Full,
    /// Evaluate patterns serially in pattern order and stop at the
    /// deciding pattern. Same verdict, strictly less work on designs
    /// that are not operational — the mode behind
    /// [`GateDesign::check_operational_with`] (with no lead) and the
    /// adaptive sweep.
    ///
    /// A `lead` pattern is simulated first. If its search completes and
    /// reads wrong, it decides the verdict alone
    /// ([`OperationalStatus::NonOperational`] at the lead, one pattern
    /// simulated); otherwise the remaining patterns run in pattern order
    /// and the fold decides, reusing the lead's evaluation at its own
    /// position. The verdict equals the lead-free one except when a
    /// lower-numbered pattern's search would be truncated: then the
    /// lead's completed refutation is reported where the pattern-order
    /// fold reports [`OperationalStatus::Unknown`].
    RefuteFast {
        /// The pattern to simulate first, if any.
        lead: Option<u32>,
    },
}

/// A verdict together with how many patterns were actually simulated
/// to reach it (all of them in [`CheckMode::Full`]; possibly fewer in
/// [`CheckMode::RefuteFast`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckOutcome {
    pub(crate) report: OperationalReport,
    pub(crate) patterns_simulated: u32,
}

/// The validation verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum OperationalStatus {
    /// All input patterns produce the expected outputs.
    Operational,
    /// At least one pattern failed.
    NonOperational {
        /// The first failing input pattern (bit `i` = input `i`).
        pattern: u32,
        /// What the outputs read as (`None` = ambiguous read-out).
        observed: Vec<Option<bool>>,
        /// The expected output values.
        expected: Vec<bool>,
    },
    /// The simulation budget cut short the search of the lowest-numbered
    /// pattern that did not read correctly, so the verdict is unknown.
    Unknown {
        /// That input pattern (bit `i` = input `i`).
        pattern: u32,
    },
}

impl OperationalStatus {
    /// True if the design is fully operational.
    pub fn is_operational(&self) -> bool {
        matches!(self, OperationalStatus::Operational)
    }
}

/// A validation verdict together with the simulation work it took.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationalReport {
    /// The verdict.
    pub status: OperationalStatus,
    /// Work counters summed over the input patterns simulated to reach
    /// the verdict: every pattern of an operational design, patterns
    /// `0..=p` of one decided at pattern `p`.
    pub stats: SimStats,
}

impl OperationalReport {
    /// True if the design is fully operational.
    pub fn is_operational(&self) -> bool {
        self.status.is_operational()
    }
}

/// The outcome of *evaluating* one input pattern of a candidate design:
/// either decoded outputs from a complete ground-state search, or an
/// honest record that the simulation could not finish (budget-truncated
/// sweep, or no physically valid state found) and the outputs are
/// therefore **unknown** — distinct from "simulated and read wrong".
///
/// Search-based designers score thousands of candidates under budgets;
/// conflating "unevaluated" with "wrong" makes a budget-starved search
/// discard designs it never actually measured.
#[derive(Debug, Clone)]
pub struct PatternEval {
    /// Decoded output values; meaningful only when [`Self::evaluated`].
    pub outputs: Vec<Option<bool>>,
    /// True when a complete search determined the ground state. False
    /// when the sweep was truncated by its budget or found no valid
    /// state — the pattern is *unknown*, not failed.
    pub evaluated: bool,
    /// The ground state of the pattern's layout
    /// ([`GateDesign::layout_for_pattern`]), set when [`Self::evaluated`].
    pub ground_state: Option<ChargeConfiguration>,
    /// Work counters of the simulation.
    pub stats: SimStats,
}

impl GateDesign {
    /// Number of input patterns (`2^inputs`).
    pub fn num_patterns(&self) -> u32 {
        1 << self.inputs.len()
    }

    /// The complete simulation layout for an input pattern: gate body plus
    /// the pattern's input perturbers and all output perturbers.
    pub fn layout_for_pattern(&self, pattern: u32) -> SidbLayout {
        let mut layout = self.body.clone();
        for (i, port) in self.inputs.iter().enumerate() {
            layout.add_site(port.perturber_for((pattern >> i) & 1 == 1));
        }
        for port in &self.outputs {
            if let Some(p) = port.perturber {
                layout.add_site(p);
            }
        }
        layout
    }

    /// Decodes the output pairs of a charge configuration of `layout`
    /// (`None` = ambiguous read-out).
    pub(crate) fn read_outputs(
        &self,
        layout: &SidbLayout,
        config: &ChargeConfiguration,
    ) -> Vec<Option<bool>> {
        self.outputs
            .iter()
            .map(|o| o.pair.read(layout, config))
            .collect()
    }

    /// Evaluates one input pattern for a candidate design, surfacing
    /// budget truncation distinctly from a wrong read-out (see
    /// [`PatternEval`]). This is the scoring hook the automated gate
    /// designer uses.
    pub fn evaluate_pattern_with(&self, pattern: u32, sim: &SimParams) -> PatternEval {
        let body = InteractionMatrix::new(&self.body, &sim.physical);
        let eval = self.evaluate(pattern, sim, &body, None);
        engine::emit_stats(&eval.stats);
        eval
    }

    /// The one pattern evaluator: the pattern's layout and matrix (the
    /// extended `body` matrix, plus the surface's external potentials
    /// when given), one simulation, and the decoded outputs. No
    /// telemetry emission.
    fn evaluate(
        &self,
        pattern: u32,
        sim: &SimParams,
        body: &InteractionMatrix,
        surface: Option<&DefectMap>,
    ) -> PatternEval {
        let layout = self.layout_for_pattern(pattern);
        let mut matrix = InteractionMatrix::extended(body, &self.body, &layout, &sim.physical);
        if let Some(map) = surface {
            matrix = matrix.with_external(map.external_potentials(&layout, &sim.physical));
        }
        let result = engine::simulate_with_matrix(&layout, sim, Some(&matrix));
        match (result.truncated, result.states.into_iter().next()) {
            (false, Some(state)) => PatternEval {
                outputs: self.read_outputs(&layout, &state.config),
                evaluated: true,
                ground_state: Some(state.config),
                stats: result.stats,
            },
            // A truncated spectrum's lowest state need not be the ground
            // state; report the pattern as unevaluated rather than
            // decoding a possibly-wrong read-out.
            _ => PatternEval {
                outputs: Vec::new(),
                evaluated: false,
                ground_state: None,
                stats: result.stats,
            },
        }
    }

    /// Validates the design against its truth table, returning the
    /// verdict together with the summed simulation work counters.
    ///
    /// The input patterns run in pattern order with a shared body
    /// interaction matrix, and the check stops at the deciding pattern —
    /// the lowest-numbered one that does not read correctly. The
    /// report's stats cover exactly the patterns simulated up to it, and
    /// are the same at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the truth table does not cover every input pattern.
    pub fn check_operational_with(&self, sim: &SimParams) -> OperationalReport {
        self.check_operational_on(sim, &DefectMap::default())
    }

    /// Validates the design against its truth table *on a given
    /// surface*: every pattern layout couples to the surface's defects
    /// through external potentials folded into its interaction matrix,
    /// so the verdict reflects the gate as it would behave at this
    /// physical location. On a pristine (empty) surface this is
    /// [`check_operational_with`](Self::check_operational_with): the
    /// arithmetic is bit-identical and cache-eligible. Like it, the
    /// check stops at the deciding pattern.
    ///
    /// # Panics
    ///
    /// Panics if the truth table does not cover every input pattern.
    pub fn check_operational_on(&self, sim: &SimParams, surface: &DefectMap) -> OperationalReport {
        let surface = (!surface.is_empty()).then_some(surface);
        let report = self
            .check_with_mode(sim, CheckMode::RefuteFast { lead: None }, surface)
            .report;
        engine::emit_stats(&report.stats);
        report
    }

    /// The checker behind both modes (see [`CheckMode`]), without
    /// telemetry emission: evaluates the patterns — across the worker
    /// pool in full mode, serially in refute-fast mode — and folds them
    /// into a verdict. `surface`, when given, is non-empty.
    pub(crate) fn check_with_mode(
        &self,
        sim: &SimParams,
        mode: CheckMode,
        surface: Option<&DefectMap>,
    ) -> CheckOutcome {
        assert_eq!(
            self.truth_table.len() as u32,
            self.num_patterns(),
            "truth table must cover all input patterns"
        );
        let body = InteractionMatrix::new(&self.body, &sim.physical);
        let evaluate = |pattern: u32| self.evaluate(pattern, sim, &body, surface);
        match mode {
            CheckMode::Full => {
                // Patterns are the partition units; simulations nested
                // in them share the executor's width, which never
                // changes any per-pattern arithmetic.
                let run = engine::run_units(self.num_patterns() as usize, |p| evaluate(p as u32));
                let mut outcome = self.fold((0u32..).zip(run.results), false);
                outcome.report.stats.recovered += run.recovered;
                outcome
            }
            CheckMode::RefuteFast { lead } => {
                let mut first = lead.map(|p| (p, evaluate(p)));
                if let Some((p, eval)) = &first {
                    if eval.evaluated && !self.reads_correctly(*p, eval) {
                        // A completed refutation decides on its own.
                        return self.fold(first, true);
                    }
                }
                let evals = (0..self.num_patterns()).map(|p| {
                    first
                        .take_if(|(l, _)| *l == p)
                        .unwrap_or_else(|| (p, evaluate(p)))
                });
                let mut outcome = self.fold(evals, true);
                // The fold stopped before the lead's position: its
                // simulation still counts.
                if let Some((_, eval)) = first {
                    outcome.patterns_simulated += 1;
                    outcome.report.stats.merge(&eval.stats);
                }
                outcome
            }
        }
    }

    /// Whether a pattern's evaluation completed and decodes to the
    /// truth table's row.
    fn reads_correctly(&self, pattern: u32, eval: &PatternEval) -> bool {
        let expected = &self.truth_table[pattern as usize];
        eval.evaluated
            && eval.outputs.len() == expected.len()
            && eval
                .outputs
                .iter()
                .zip(expected)
                .all(|(obs, exp)| *obs == Some(*exp))
    }

    /// The verdict fold over `(pattern, evaluation)` pairs in the order
    /// given (pattern order, or a lone lead): the first pattern that
    /// does not read correctly decides the verdict (`Unknown` when its
    /// search was truncated). With `stop_at_decider` (refute-fast mode)
    /// it stops consuming `evals` there.
    fn fold(
        &self,
        evals: impl IntoIterator<Item = (u32, PatternEval)>,
        stop_at_decider: bool,
    ) -> CheckOutcome {
        let mut stats = SimStats::default();
        let mut patterns_simulated = 0u32;
        let mut status = OperationalStatus::Operational;
        for (pattern, eval) in evals {
            patterns_simulated += 1;
            stats.merge(&eval.stats);
            if !status.is_operational() || self.reads_correctly(pattern, &eval) {
                continue;
            }
            let expected = &self.truth_table[pattern as usize];
            status = if eval.evaluated {
                OperationalStatus::NonOperational {
                    pattern,
                    observed: eval.outputs,
                    expected: expected.clone(),
                }
            } else {
                OperationalStatus::Unknown { pattern }
            };
            if stop_at_decider {
                break;
            }
        }
        CheckOutcome {
            report: OperationalReport { status, stats },
            patterns_simulated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdl::BdlPair;
    use crate::cache::SimCache;
    use crate::engine::SimEngine;
    use crate::model::PhysicalParams;
    use crate::simanneal::AnnealParams;
    use fcn_budget::exec::with_width;

    /// A three-pair BDL wire in the validated geometry: vertical pairs
    /// `(0,y,0)/(0,y+1,0)` at a four-row pitch, input perturbers at the
    /// phantom upstream pair's dot positions, output perturber at the
    /// phantom downstream pair's location.
    fn wire_design() -> GateDesign {
        let body = SidbLayout::from_sites([
            (0, 0, 0),
            (0, 1, 0),
            (0, 4, 0),
            (0, 5, 0),
            (0, 8, 0),
            (0, 9, 0),
        ]);
        GateDesign {
            name: "WIRE-test".into(),
            body,
            inputs: vec![InputPort {
                pair: BdlPair::new((0, 0, 0), (0, 1, 0)),
                perturber_zero: (0, -4, 0).into(),
                perturber_one: (0, -3, 0).into(),
            }],
            outputs: vec![OutputPort {
                pair: BdlPair::new((0, 8, 0), (0, 9, 0)),
                perturber: Some((0, 12, 1).into()),
            }],
            truth_table: vec![vec![false], vec![true]],
        }
    }

    #[test]
    fn pattern_layouts_differ_only_in_perturbers() {
        let d = wire_design();
        let l0 = d.layout_for_pattern(0);
        let l1 = d.layout_for_pattern(1);
        assert_eq!(l0.num_sites(), d.body.num_sites() + 2);
        assert_eq!(l1.num_sites(), d.body.num_sites() + 2);
        assert!(l0.index_of((0, -4, 0)).is_some() && l0.index_of((0, -3, 0)).is_none());
        assert!(l1.index_of((0, -3, 0)).is_some() && l1.index_of((0, -4, 0)).is_none());
    }

    #[test]
    fn wire_design_is_operational() {
        let d = wire_design();
        let report = d.check_operational_with(
            &SimParams::new(PhysicalParams::default()).with_engine(SimEngine::Exhaustive),
        );
        assert!(report.is_operational());
        assert!(report.stats.visited > 0);
    }

    #[test]
    fn engines_agree_on_the_wire() {
        let d = wire_design();
        let params = PhysicalParams::default();
        for pattern in 0..2 {
            let a = d.evaluate_pattern_with(
                pattern,
                &SimParams::new(params).with_engine(SimEngine::Exhaustive),
            );
            let b = d.evaluate_pattern_with(
                pattern,
                &SimParams::new(params).with_engine(SimEngine::Anneal(AnnealParams::default())),
            );
            assert!(a.evaluated && b.evaluated);
            assert_eq!(a.outputs, b.outputs, "pattern {pattern}");
        }
    }

    #[test]
    fn verdicts_and_stats_are_thread_invariant() {
        let d = wire_design();
        let base = SimParams::new(PhysicalParams::default());
        for mode in [
            CheckMode::Full,
            CheckMode::RefuteFast { lead: None },
            lead(1),
        ] {
            let one = with_width(1, || d.check_with_mode(&base, mode, None));
            let four = with_width(4, || d.check_with_mode(&base, mode, None));
            assert_eq!(one, four, "{mode:?}");
        }
    }

    #[test]
    fn cached_validation_visits_fewer_configurations() {
        let d = wire_design();
        let sim = SimParams::new(PhysicalParams::default()).with_cache(SimCache::new());
        let first = d.check_operational_with(&sim);
        let second = d.check_operational_with(&sim);
        assert_eq!(first.status, second.status);
        assert!(first.stats.visited > 0);
        assert_eq!(second.stats.visited, 0, "all patterns served from cache");
        assert_eq!(second.stats.cache_hits, u64::from(d.num_patterns()));
    }

    #[test]
    fn pattern_eval_surfaces_truncation_distinctly() {
        use fcn_budget::StepBudget;
        let d = wire_design();
        let full = d.evaluate_pattern_with(
            1,
            &SimParams::new(PhysicalParams::default()).with_engine(SimEngine::Exhaustive),
        );
        assert!(full.evaluated);
        assert_eq!(full.outputs, vec![Some(true)]);
        let ground_state = full.ground_state.as_ref().expect("evaluated");
        assert_eq!(
            d.read_outputs(&d.layout_for_pattern(1), ground_state),
            full.outputs
        );
        // A two-step budget truncates the sweep: the pattern must come
        // back as *unevaluated*, never as a (possibly wrong) read-out.
        let starved = d.evaluate_pattern_with(
            1,
            &SimParams::new(PhysicalParams::default())
                .with_engine(SimEngine::Exhaustive)
                .with_budget(StepBudget::unbounded().with_max_steps(2)),
        );
        assert!(!starved.evaluated);
        assert!(starved.outputs.is_empty());
        assert!(starved.ground_state.is_none());
        assert_eq!(starved.stats.truncated, 1);
    }

    #[test]
    fn a_capped_search_makes_the_verdict_unknown_in_both_modes() {
        use fcn_budget::StepBudget;
        let d = wire_design();
        let sim = SimParams::new(PhysicalParams::default())
            .with_budget(StepBudget::unbounded().with_max_steps(2));
        let report = d.check_operational_with(&sim);
        assert_eq!(report.status, OperationalStatus::Unknown { pattern: 0 });
        // The public check stops at the deciding pattern: one capped
        // search, not one per pattern.
        assert_eq!(report.stats.truncated, 1);
        let full = d.check_with_mode(&sim, CheckMode::Full, None);
        let fast = d.check_with_mode(&sim, CheckMode::RefuteFast { lead: None }, None);
        assert_eq!(full.report.status, fast.report.status);
        assert_eq!(full.patterns_simulated, d.num_patterns());
        assert_eq!(fast.patterns_simulated, 1);
    }

    #[test]
    #[should_panic(expected = "truth table must cover")]
    fn short_truth_table_panics() {
        let mut d = wire_design();
        d.truth_table.pop();
        let _ = d.check_operational_with(&SimParams::new(PhysicalParams::default()));
    }

    #[test]
    fn refute_fast_agrees_with_full_mode_on_an_operational_design() {
        let d = wire_design();
        let sim = SimParams::new(PhysicalParams::default());
        let full = d.check_with_mode(&sim, CheckMode::Full, None);
        let fast = d.check_with_mode(&sim, CheckMode::RefuteFast { lead: None }, None);
        assert_eq!(full.report.status, fast.report.status);
        assert!(fast.report.status == OperationalStatus::Operational);
        // No refutation exists, so refute-fast must simulate everything.
        assert_eq!(full.patterns_simulated, d.num_patterns());
        assert_eq!(fast.patterns_simulated, d.num_patterns());
    }

    #[test]
    fn refute_fast_stops_at_the_first_refutation() {
        // Inverting the truth table breaks the wire on pattern 0, so
        // refute-fast must stop there while full mode simulates both
        // patterns — and both must report the same failing pattern.
        let mut d = wire_design();
        d.truth_table = vec![vec![true], vec![false]];
        let sim = SimParams::new(PhysicalParams::default());
        let full = d.check_with_mode(&sim, CheckMode::Full, None);
        let fast = d.check_with_mode(&sim, CheckMode::RefuteFast { lead: None }, None);
        assert_eq!(full.report.status, fast.report.status);
        assert!(matches!(
            fast.report.status,
            OperationalStatus::NonOperational { pattern: 0, .. }
        ));
        assert_eq!(full.patterns_simulated, d.num_patterns());
        assert_eq!(fast.patterns_simulated, 1);
        assert!(fast.report.stats.visited < full.report.stats.visited);
    }

    fn lead(pattern: u32) -> CheckMode {
        CheckMode::RefuteFast {
            lead: Some(pattern),
        }
    }

    #[test]
    fn a_refuting_lead_decides_after_one_simulation() {
        // Pattern 0 reads correctly and pattern 1 does not: led by
        // pattern 1, the check simulates it alone and reports it.
        let mut d = wire_design();
        d.truth_table = vec![vec![false], vec![false]];
        let sim = SimParams::new(PhysicalParams::default());
        let plain = d.check_with_mode(&sim, CheckMode::RefuteFast { lead: None }, None);
        let led = d.check_with_mode(&sim, lead(1), None);
        assert_eq!(led.report.status, plain.report.status);
        assert!(matches!(
            led.report.status,
            OperationalStatus::NonOperational { pattern: 1, .. }
        ));
        assert_eq!(led.patterns_simulated, 1);
        assert_eq!(plain.patterns_simulated, 2);
        assert!(led.report.stats.visited < plain.report.stats.visited);
        // A refuting lead is reported even when a lower pattern also
        // refutes.
        d.truth_table = vec![vec![true], vec![false]];
        let led = d.check_with_mode(&sim, lead(1), None);
        assert!(matches!(
            led.report.status,
            OperationalStatus::NonOperational { pattern: 1, .. }
        ));
        assert_eq!(led.patterns_simulated, 1);
    }

    #[test]
    fn a_correct_lead_gives_the_lead_free_verdict() {
        let sim = SimParams::new(PhysicalParams::default());
        // Operational: both patterns run once, the lead's evaluation
        // reused at its own position.
        let d = wire_design();
        let plain = d.check_with_mode(&sim, CheckMode::RefuteFast { lead: None }, None);
        let led = d.check_with_mode(&sim, lead(1), None);
        assert_eq!(led, plain);
        // Refuted at pattern 0 after a correct lead: the same verdict,
        // and the lead's simulation still counts.
        let mut d = wire_design();
        d.truth_table = vec![vec![true], vec![true]];
        let plain = d.check_with_mode(&sim, CheckMode::RefuteFast { lead: None }, None);
        let led = d.check_with_mode(&sim, lead(1), None);
        assert_eq!(led.report.status, plain.report.status);
        assert!(matches!(
            led.report.status,
            OperationalStatus::NonOperational { pattern: 0, .. }
        ));
        assert_eq!(plain.patterns_simulated, 1);
        assert_eq!(led.patterns_simulated, 2);
        assert_eq!(
            led.report.stats.visited,
            d.check_with_mode(&sim, CheckMode::Full, None)
                .report
                .stats
                .visited
        );
    }

    #[test]
    fn a_truncated_lead_falls_through_to_the_pattern_order_fold() {
        use fcn_budget::StepBudget;
        let mut d = wire_design();
        d.truth_table = vec![vec![true], vec![false]];
        let sim = SimParams::new(PhysicalParams::default())
            .with_budget(StepBudget::unbounded().with_max_steps(2));
        let led = d.check_with_mode(&sim, lead(1), None);
        assert_eq!(led.report.status, OperationalStatus::Unknown { pattern: 0 });
        assert_eq!(led.patterns_simulated, 2);
        assert_eq!(led.report.stats.truncated, 2);
    }

    #[test]
    fn a_completed_lead_refutes_where_a_lower_pattern_is_truncated() {
        use fcn_budget::StepBudget;
        // Swapped perturbers: pattern 0's search takes 20 nodes and
        // pattern 1's 15, and pattern 1 reads wrong. At a 15-node cap
        // the pattern-order fold stops at the truncated pattern 0
        // (`Unknown`); led by pattern 1, the check reports its proven
        // refutation instead — the one verdict a lead can change.
        let mut d = wire_design();
        let port = &mut d.inputs[0];
        std::mem::swap(&mut port.perturber_zero, &mut port.perturber_one);
        d.truth_table = vec![vec![true], vec![true]];
        let sim = SimParams::new(PhysicalParams::default())
            .with_budget(StepBudget::unbounded().with_max_steps(15));
        let full = d.check_with_mode(&sim, CheckMode::Full, None);
        let plain = d.check_with_mode(&sim, CheckMode::RefuteFast { lead: None }, None);
        let led = d.check_with_mode(&sim, lead(1), None);
        assert_eq!(
            full.report.status,
            OperationalStatus::Unknown { pattern: 0 }
        );
        assert_eq!(plain.report.status, full.report.status);
        assert!(matches!(
            led.report.status,
            OperationalStatus::NonOperational { pattern: 1, .. }
        ));
        assert_eq!(led.patterns_simulated, 1);
        assert_eq!(led.report.stats.truncated, 0);
    }
}
