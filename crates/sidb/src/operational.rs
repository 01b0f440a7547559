//! Operational (truth-table) validation of SiDB gate designs.
//!
//! A gate design is *operational* when, for every input pattern, the
//! simulated charge ground state of the gate (with input perturbers at
//! their near/far positions and output perturbers present) reproduces the
//! intended truth table on the output BDL pairs. This is the acceptance
//! criterion the paper applied to every tile of the Bestagon library.
//!
//! Validation fans the `2^k` input patterns out across the simulation
//! engine's worker pool and shares the gate body's interaction matrix
//! between them (patterns differ only in a few perturber dots, so the
//! dominant O(n²) matrix build happens once).
//!
//! Two check modes exist (see the crate-internal `CheckMode`): the
//! default *full* mode
//! always simulates every pattern, so verdicts *and* work counters are
//! identical at any thread count; the *refute-fast* mode evaluates
//! patterns serially in pattern order and stops at the first pattern
//! whose observed ground state contradicts the truth table — the
//! verdict is provably the same (operational requires *every* pattern
//! to pass, and full mode reports the lowest-numbered failing pattern),
//! only the work after the first refutation is skipped. The adaptive
//! operational-domain sweep runs thousands of point checks in regions
//! where the design is broken; refute-fast is what makes those points
//! cheap.

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

/// How [`GateDesign::check_core`] treats a failing input pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckMode {
    /// Simulate every pattern, even after a failure. Work counters are
    /// a pure function of the design and parameters — this is the mode
    /// behind [`GateDesign::check_operational_with`] and the dense
    /// domain sweep.
    Full,
    /// Evaluate patterns serially in pattern order and stop at the
    /// first refutation. Same verdict, same reported failing pattern,
    /// strictly less work on non-operational designs.
    RefuteFast,
}

/// A verdict together with how many patterns were actually simulated
/// to reach it (all of them in [`CheckMode::Full`]; possibly fewer in
/// [`CheckMode::RefuteFast`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckOutcome {
    pub report: OperationalReport,
    pub patterns_simulated: u32,
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
    /// Work counters summed over all simulated input patterns.
    pub stats: SimStats,
}

impl OperationalReport {
    /// True if the design is fully operational.
    pub fn is_operational(&self) -> bool {
        self.status.is_operational()
    }
}

/// The outcome of simulating one input pattern.
#[derive(Debug, Clone)]
pub struct PatternSimulation {
    /// The simulated layout (body + perturbers).
    pub layout: SidbLayout,
    /// The ground-state charge configuration.
    pub ground_state: ChargeConfiguration,
    /// The decoded output values.
    pub outputs: Vec<Option<bool>>,
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

    /// Simulates one input pattern under the given parameters and
    /// decodes the outputs.
    ///
    /// Returns `None` when no ground state could be determined (empty
    /// design).
    pub fn simulate_pattern_with(
        &self,
        pattern: u32,
        sim: &SimParams,
    ) -> Option<PatternSimulation> {
        let layout = self.layout_for_pattern(pattern);
        let result = engine::simulate_with(&layout, sim);
        let ground_state = result.states.first().map(|s| s.config.clone())?;
        let outputs = self
            .outputs
            .iter()
            .map(|o| o.pair.read(&layout, &ground_state))
            .collect();
        Some(PatternSimulation {
            layout,
            ground_state,
            outputs,
        })
    }

    /// Evaluates one input pattern for a candidate design, surfacing
    /// budget truncation distinctly from a wrong read-out (see
    /// [`PatternEval`]). This is the scoring hook the automated gate
    /// designer uses.
    pub fn evaluate_pattern_with(&self, pattern: u32, sim: &SimParams) -> PatternEval {
        let layout = self.layout_for_pattern(pattern);
        let result = engine::simulate_with(&layout, sim);
        match (result.truncated, result.states.first()) {
            (false, Some(state)) => PatternEval {
                outputs: self
                    .outputs
                    .iter()
                    .map(|o| o.pair.read(&layout, &state.config))
                    .collect(),
                evaluated: true,
                stats: result.stats,
            },
            // A truncated spectrum's lowest state need not be the ground
            // state; report the pattern as unevaluated rather than
            // decoding a possibly-wrong read-out.
            _ => PatternEval {
                outputs: Vec::new(),
                evaluated: false,
                stats: result.stats,
            },
        }
    }

    /// Validates the design against its truth table, returning the
    /// verdict together with the summed simulation work counters.
    ///
    /// All `2^k` input patterns run across the engine's worker pool with
    /// a shared body interaction matrix; the reported failing pattern is
    /// always the lowest-numbered one, independent of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the truth table does not cover every input pattern.
    pub fn check_operational_with(&self, sim: &SimParams) -> OperationalReport {
        let report = self.check_core(sim);
        engine::emit_stats(&report.stats);
        report
    }

    /// Validates the design against its truth table *on a given
    /// surface*: every pattern layout couples to the surface's defects
    /// through external potentials folded into its interaction matrix,
    /// so the verdict reflects the gate as it would behave at this
    /// physical location. A pristine (empty) surface delegates to
    /// [`check_operational_with`](Self::check_operational_with) — the
    /// arithmetic is bit-identical and cache-eligible.
    ///
    /// # Panics
    ///
    /// Panics if the truth table does not cover every input pattern.
    pub fn check_operational_on(&self, sim: &SimParams, surface: &DefectMap) -> OperationalReport {
        if surface.is_empty() {
            return self.check_operational_with(sim);
        }
        let report = self.check_full(sim, Some(surface)).report;
        engine::emit_stats(&report.stats);
        report
    }

    /// [`check_operational_with`](Self::check_operational_with) without
    /// telemetry emission, for callers that aggregate several designs.
    pub(crate) fn check_core(&self, sim: &SimParams) -> OperationalReport {
        self.check_with_mode(sim, CheckMode::Full).report
    }

    /// The core checker behind both modes (see [`CheckMode`]).
    pub(crate) fn check_with_mode(&self, sim: &SimParams, mode: CheckMode) -> CheckOutcome {
        assert_eq!(
            self.truth_table.len() as u32,
            self.num_patterns(),
            "truth table must cover all input patterns"
        );
        if mode == CheckMode::RefuteFast {
            return self.check_refute_fast(sim);
        }
        self.check_full(sim, None)
    }

    /// [`CheckMode::Full`], optionally on a defective surface: every
    /// pattern simulated across the worker pool with a shared body
    /// matrix. `surface`, when given, is non-empty and contributes
    /// external potentials to each pattern's matrix.
    fn check_full(&self, sim: &SimParams, surface: Option<&DefectMap>) -> CheckOutcome {
        assert_eq!(
            self.truth_table.len() as u32,
            self.num_patterns(),
            "truth table must cover all input patterns"
        );
        // Patterns are the partition units; simulations nested in them
        // share the executor's width, which never changes any
        // per-pattern arithmetic.
        let body_matrix = InteractionMatrix::new(&self.body, &sim.physical);
        let patterns = self.num_patterns() as usize;
        let run = engine::run_units(patterns, |p| {
            let layout = self.layout_for_pattern(p as u32);
            let mut matrix =
                InteractionMatrix::extended(&body_matrix, &self.body, &layout, &sim.physical);
            if let Some(map) = surface {
                matrix = matrix.with_external(map.external_potentials(&layout, &sim.physical));
            }
            let result = engine::simulate_with_matrix(&layout, sim, Some(&matrix));
            let ground_state = result
                .states
                .first()
                .map(|s| s.config.clone())
                .expect("gate bodies are non-empty");
            let outputs: Vec<Option<bool>> = self
                .outputs
                .iter()
                .map(|o| o.pair.read(&layout, &ground_state))
                .collect();
            (outputs, result.stats)
        });
        let mut stats = SimStats {
            recovered: run.recovered,
            ..SimStats::default()
        };
        let mut status = OperationalStatus::Operational;
        for (pattern, (outputs, pattern_stats)) in run.results.into_iter().enumerate() {
            stats.merge(&pattern_stats);
            if !status.is_operational() {
                continue;
            }
            let expected = &self.truth_table[pattern];
            let ok = outputs.len() == expected.len()
                && outputs
                    .iter()
                    .zip(expected)
                    .all(|(obs, exp)| *obs == Some(*exp));
            if !ok {
                status = OperationalStatus::NonOperational {
                    pattern: pattern as u32,
                    observed: outputs,
                    expected: expected.clone(),
                };
            }
        }
        CheckOutcome {
            report: OperationalReport { status, stats },
            patterns_simulated: self.num_patterns(),
        }
    }

    /// [`CheckMode::RefuteFast`]: serial pattern loop, early exit on
    /// the first refutation. Patterns run one after another, so each
    /// simulation may use the caller's whole width; the per-pattern
    /// arithmetic is identical to full mode's units at any width.
    fn check_refute_fast(&self, sim: &SimParams) -> CheckOutcome {
        let body_matrix = InteractionMatrix::new(&self.body, &sim.physical);
        let mut stats = SimStats::default();
        let mut simulated = 0u32;
        let mut status = OperationalStatus::Operational;
        for pattern in 0..self.num_patterns() {
            let layout = self.layout_for_pattern(pattern);
            let matrix =
                InteractionMatrix::extended(&body_matrix, &self.body, &layout, &sim.physical);
            let result = engine::simulate_with_matrix(&layout, sim, Some(&matrix));
            simulated += 1;
            stats.merge(&result.stats);
            let ground_state = result
                .states
                .first()
                .map(|s| s.config.clone())
                .expect("gate bodies are non-empty");
            let outputs: Vec<Option<bool>> = self
                .outputs
                .iter()
                .map(|o| o.pair.read(&layout, &ground_state))
                .collect();
            let expected = &self.truth_table[pattern as usize];
            let ok = outputs.len() == expected.len()
                && outputs
                    .iter()
                    .zip(expected)
                    .all(|(obs, exp)| *obs == Some(*exp));
            if !ok {
                status = OperationalStatus::NonOperational {
                    pattern,
                    observed: outputs,
                    expected: expected.clone(),
                };
                break;
            }
        }
        CheckOutcome {
            report: OperationalReport { status, stats },
            patterns_simulated: simulated,
        }
    }

    /// Translated copy of the whole design.
    pub fn translated(&self, dx: i32, dy: i32) -> GateDesign {
        GateDesign {
            name: self.name.clone(),
            body: self.body.translated(dx, dy),
            inputs: self.inputs.iter().map(|p| p.translated(dx, dy)).collect(),
            outputs: self.outputs.iter().map(|p| p.translated(dx, dy)).collect(),
            truth_table: self.truth_table.clone(),
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
        assert!(l0.contains((0, -4, 0)) && !l0.contains((0, -3, 0)));
        assert!(l1.contains((0, -3, 0)) && !l1.contains((0, -4, 0)));
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
            let a = d
                .simulate_pattern_with(
                    pattern,
                    &SimParams::new(params).with_engine(SimEngine::Exhaustive),
                )
                .expect("ok");
            let b = d
                .simulate_pattern_with(
                    pattern,
                    &SimParams::new(params).with_engine(SimEngine::Anneal(AnnealParams::default())),
                )
                .expect("ok");
            assert_eq!(a.outputs, b.outputs, "pattern {pattern}");
        }
    }

    #[test]
    fn verdicts_and_stats_are_thread_invariant() {
        let d = wire_design();
        let base = SimParams::new(PhysicalParams::default());
        let one = with_width(1, || d.check_core(&base));
        let four = with_width(4, || d.check_core(&base));
        assert_eq!(one, four);
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
        assert_eq!(starved.stats.truncated, 1);
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
        let full = d.check_with_mode(&sim, CheckMode::Full);
        let fast = d.check_with_mode(&sim, CheckMode::RefuteFast);
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
        let full = d.check_with_mode(&sim, CheckMode::Full);
        let fast = d.check_with_mode(&sim, CheckMode::RefuteFast);
        assert_eq!(full.report.status, fast.report.status);
        assert!(matches!(
            fast.report.status,
            OperationalStatus::NonOperational { pattern: 0, .. }
        ));
        assert_eq!(full.patterns_simulated, d.num_patterns());
        assert_eq!(fast.patterns_simulated, 1);
        assert!(fast.report.stats.visited < full.report.stats.visited);
    }
}
