//! Binary-dot logic (BDL) I/O.
//!
//! BDL encodes a bit in the position of the single shared electron of a
//! pair of closely spaced SiDBs (paper Figure 1a). The input encoding
//! follows the paper's refinement of Huff et al.: an input *perturber* —
//! a single negatively charged SiDB — is present for **both** logic
//! values, but at a *closer* location for logic 1 and a *farther* one for
//! logic 0, emulating the Coulombic pressure of an upstream BDL wire in
//! either state.

use crate::charge::{ChargeConfiguration, ChargeState};
use crate::layout::SidbLayout;
use fcn_coords::LatticeCoord;

/// A BDL pair: two dots sharing one electron.
///
/// The electron resting on [`BdlPair::one_dot`] encodes logic 1, on
/// [`BdlPair::zero_dot`] logic 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BdlPair {
    /// The dot whose occupation encodes logic 0.
    pub zero_dot: LatticeCoord,
    /// The dot whose occupation encodes logic 1.
    pub one_dot: LatticeCoord,
}

impl BdlPair {
    /// Creates a pair from the logic-0 and logic-1 dot positions.
    pub fn new(zero_dot: impl Into<LatticeCoord>, one_dot: impl Into<LatticeCoord>) -> Self {
        BdlPair {
            zero_dot: zero_dot.into(),
            one_dot: one_dot.into(),
        }
    }

    /// Both dots, logic-0 dot first.
    pub fn dots(&self) -> [LatticeCoord; 2] {
        [self.zero_dot, self.one_dot]
    }

    /// Horizontally mirrored copy.
    pub(crate) fn mirrored_x(&self, axis_x: i32) -> BdlPair {
        BdlPair {
            zero_dot: self.zero_dot.mirrored_x(axis_x),
            one_dot: self.one_dot.mirrored_x(axis_x),
        }
    }

    /// Reads the pair's logic state from a charge configuration.
    ///
    /// Returns `None` when the read-out is ambiguous (both or neither dot
    /// negative, or a dot missing from the layout) — an ambiguous output
    /// means the gate is non-operational for that input pattern.
    pub(crate) fn read(&self, layout: &SidbLayout, config: &ChargeConfiguration) -> Option<bool> {
        let zero_idx = layout.index_of(self.zero_dot)?;
        let one_idx = layout.index_of(self.one_dot)?;
        let zero_neg = config.state(zero_idx) == ChargeState::Negative;
        let one_neg = config.state(one_idx) == ChargeState::Negative;
        match (zero_neg, one_neg) {
            (true, false) => Some(false),
            (false, true) => Some(true),
            _ => None,
        }
    }
}

/// An input port: the first BDL pair of an input wire together with the
/// two alternative perturber locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputPort {
    /// The input pair (part of the gate body).
    pub pair: BdlPair,
    /// Perturber position emulating an upstream wire at logic 0 (farther).
    pub perturber_zero: LatticeCoord,
    /// Perturber position emulating an upstream wire at logic 1 (closer).
    pub perturber_one: LatticeCoord,
}

impl InputPort {
    /// The perturber position for a given logic value.
    pub(crate) fn perturber_for(&self, value: bool) -> LatticeCoord {
        if value {
            self.perturber_one
        } else {
            self.perturber_zero
        }
    }

    /// Horizontally mirrored copy.
    pub fn mirrored_x(&self, axis_x: i32) -> InputPort {
        InputPort {
            pair: self.pair.mirrored_x(axis_x),
            perturber_zero: self.perturber_zero.mirrored_x(axis_x),
            perturber_one: self.perturber_one.mirrored_x(axis_x),
        }
    }
}

/// An output port: the last BDL pair of an output wire plus the output
/// perturber that emulates the presence of a downstream wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutputPort {
    /// The output pair (part of the gate body).
    pub pair: BdlPair,
    /// The downstream perturber (always present during simulation).
    pub perturber: Option<LatticeCoord>,
}

impl OutputPort {
    /// Horizontally mirrored copy.
    pub fn mirrored_x(&self, axis_x: i32) -> OutputPort {
        OutputPort {
            pair: self.pair.mirrored_x(axis_x),
            perturber: self.perturber.map(|p| p.mirrored_x(axis_x)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_decodes_electron_position() {
        let pair = BdlPair::new((0, 0, 0), (0, 1, 0));
        let layout = SidbLayout::from_sites([(0, 0, 0), (0, 1, 0)]);
        let mut cfg = ChargeConfiguration::neutral(2);
        cfg.set_state(
            layout.index_of((0, 1, 0)).expect("present"),
            ChargeState::Negative,
        );
        assert_eq!(pair.read(&layout, &cfg), Some(true));
        let mut cfg0 = ChargeConfiguration::neutral(2);
        cfg0.set_state(
            layout.index_of((0, 0, 0)).expect("present"),
            ChargeState::Negative,
        );
        assert_eq!(pair.read(&layout, &cfg0), Some(false));
    }

    #[test]
    fn ambiguous_read_is_none() {
        let pair = BdlPair::new((0, 0, 0), (0, 1, 0));
        let layout = SidbLayout::from_sites([(0, 0, 0), (0, 1, 0)]);
        let none = ChargeConfiguration::neutral(2);
        assert_eq!(pair.read(&layout, &none), None);
        let mut both = ChargeConfiguration::neutral(2);
        both.set_state(0, ChargeState::Negative);
        both.set_state(1, ChargeState::Negative);
        assert_eq!(pair.read(&layout, &both), None);
    }

    #[test]
    fn missing_dot_reads_none() {
        let pair = BdlPair::new((0, 0, 0), (5, 5, 0));
        let layout = SidbLayout::from_sites([(0, 0, 0)]);
        let cfg = ChargeConfiguration::neutral(1);
        assert_eq!(pair.read(&layout, &cfg), None);
    }

    #[test]
    fn perturber_selection() {
        let port = InputPort {
            pair: BdlPair::new((0, 2, 0), (0, 3, 0)),
            perturber_zero: LatticeCoord::new(0, 0, 0),
            perturber_one: LatticeCoord::new(0, 1, 0),
        };
        assert_eq!(port.perturber_for(false), LatticeCoord::new(0, 0, 0));
        assert_eq!(port.perturber_for(true), LatticeCoord::new(0, 1, 0));
    }

    #[test]
    fn mirroring_maps_every_site_and_round_trips() {
        let port = InputPort {
            pair: BdlPair::new((1, 2, 0), (1, 3, 0)),
            perturber_zero: LatticeCoord::new(1, 0, 0),
            perturber_one: LatticeCoord::new(1, 1, 0),
        };
        let mirrored = port.mirrored_x(5);
        assert_eq!(
            mirrored,
            InputPort {
                pair: BdlPair::new((9, 2, 0), (9, 3, 0)),
                perturber_zero: LatticeCoord::new(9, 0, 0),
                perturber_one: LatticeCoord::new(9, 1, 0),
            }
        );
        assert_eq!(mirrored.mirrored_x(5), port);
    }
}
