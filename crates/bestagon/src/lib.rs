//! `bestagon-lib` — the *Bestagon* hexagonal SiDB standard-tile library.
//!
//! The paper's central artifact: a library of hexagonal standard tiles —
//! wires (vertical, diagonal, double), a crossing, fan-outs, inverters,
//! the six two-input gates, and a half adder — each realized as a
//! dot-accurate arrangement of silicon dangling bonds that has been
//! *validated by physical simulation* across all input patterns (the
//! acceptance criterion of Section 4.1).
//!
//! The original tiles were found with a reinforcement-learning agent and
//! manual review; this reproduction derives its dot patterns from two
//! robust BDL building blocks discovered through systematic simulation
//! (see `DESIGN.md` §3 and [`geometry`]):
//!
//! * **columns**: horizontal BDL pairs stacked vertically *anti-align*
//!   at every link — a first-order Coulomb effect that tolerates the
//!   irregular vertical pitch forced by the 23-dimer-row tile spacing,
//! * **runs**: horizontal pairs in a row *copy* along the row (a
//!   second-order convexity effect of the screened potential).
//!
//! Modules:
//!
//! * [`geometry`] — the tile frame (ports, borders) and chain builders,
//! * [`tiles`] — the gate library itself,
//! * [`designer`] — an automated canvas designer (hill climbing over dot
//!   positions, scored by exact ground-state simulation) standing in for
//!   the paper's RL agent,
//! * [`apply`] — gate-library application: turning a placed & routed
//!   [`fcn_layout::hexagonal::HexGateLayout`] into one dot-accurate SiDB layout,
//! * [`sqd`] — SiQAD design-file export,
//! * [`verdicts`] — the committed nominal verdict of every library
//!   design, which flow step 7 reads instead of re-simulating.

pub mod apply;
pub mod designer;
pub mod geometry;
pub mod sqd;
pub mod svg;
pub mod tiles;
pub mod verdicts;
