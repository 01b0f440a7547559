//! Logic-state stability: energy gaps to wrong-reading states.
//!
//! A gate that is operational at zero temperature can still fail
//! thermally if a charge configuration with the *wrong* output read-out
//! lies only a small energy above the ground state. This module
//! quantifies that margin per input pattern: the free-energy gap between
//! the ground state and the lowest physically valid state whose outputs
//! decode differently — the "energetic separation" analysis the SiDB
//! literature (and the paper's SiQAD reference) perform on gate designs.

use crate::engine::{simulate_with, SimEngine, SimParams};
use crate::model::PhysicalParams;
use crate::operational::GateDesign;

/// Stability data for one input pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternStability {
    /// The input pattern (bit `i` = input `i`).
    pub(crate) pattern: u32,
    /// Free-energy gap to the lowest wrong-reading valid state, eV.
    /// `None` when no wrong-reading state was found among the inspected
    /// low-energy states (the gap exceeds the search horizon — good).
    pub(crate) gap_ev: Option<f64>,
}

/// Computes per-pattern stability for a design.
///
/// For each input pattern, the `k_states` lowest valid configurations
/// are enumerated; the first whose output read-out differs from the
/// ground state's defines the gap.
///
/// # Panics
///
/// Panics if `engine` is [`SimEngine::Anneal`]-based — gap analysis needs
/// the exact k-best spectrum.
pub fn logic_stability(
    design: &GateDesign,
    params: &PhysicalParams,
    k_states: usize,
    engine: SimEngine,
) -> Vec<PatternStability> {
    assert!(
        matches!(engine, SimEngine::QuickExact | SimEngine::Exhaustive),
        "gap analysis requires an exact engine"
    );
    let sim = SimParams::new(*params).with_engine(engine).with_k(k_states);
    (0..design.num_patterns())
        .map(|pattern| {
            let layout = design.layout_for_pattern(pattern);
            let states = simulate_with(&layout, &sim).states;
            let gap_ev = states.split_first().and_then(|(ground, rest)| {
                let ground_read = design.read_outputs(&layout, &ground.config);
                rest.iter()
                    .find(|s| design.read_outputs(&layout, &s.config) != ground_read)
                    .map(|s| s.free_energy - ground.free_energy)
            });
            PatternStability { pattern, gap_ev }
        })
        .collect()
}

/// The design's worst-case (minimum) gap across patterns, eV.
pub fn worst_case_gap_ev(stability: &[PatternStability]) -> Option<f64> {
    stability
        .iter()
        .filter_map(|s| s.gap_ev)
        .min_by(|a, b| a.partial_cmp(b).expect("finite"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdl::{BdlPair, InputPort, OutputPort};
    use crate::layout::SidbLayout;

    fn wire() -> GateDesign {
        GateDesign {
            name: "wire".into(),
            body: SidbLayout::from_sites([
                (0, 0, 0),
                (0, 1, 0),
                (0, 4, 0),
                (0, 5, 0),
                (0, 8, 0),
                (0, 9, 0),
            ]),
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
    fn wire_has_positive_gaps() {
        let stability = logic_stability(
            &wire(),
            &PhysicalParams::default(),
            8,
            SimEngine::QuickExact,
        );
        assert_eq!(stability.len(), 2);
        for s in &stability {
            if let Some(gap) = s.gap_ev {
                assert!(gap > 0.0, "pattern {}", s.pattern);
            }
        }
    }

    #[test]
    fn worst_case_is_the_minimum() {
        let stability = vec![
            PatternStability {
                pattern: 0,
                gap_ev: Some(0.02),
            },
            PatternStability {
                pattern: 1,
                gap_ev: Some(0.005),
            },
            PatternStability {
                pattern: 2,
                gap_ev: None,
            },
        ];
        assert_eq!(worst_case_gap_ev(&stability), Some(0.005));
    }
}
