//! `msat` — a from-scratch CDCL SAT solver.
//!
//! The Bestagon design flow needs a SAT oracle in two places: the *exact*
//! physical-design algorithm (searching for area-minimal placements &
//! routings) and the formal equivalence check between a specification
//! network and a synthesized layout. The original work used the Z3 SMT
//! solver; since the encodings are finite-domain, a plain CNF SAT solver
//! preserves the decision problems (see `DESIGN.md` §3).
//!
//! The solver implements the standard modern architecture:
//!
//! * conflict-driven clause learning with first-UIP cuts and
//!   non-chronological backjumping,
//! * two-watched-literal propagation over one flat clause arena (the
//!   private `cdb` module) and a value byte per literal,
//! * exponential VSIDS branching with phase saving,
//! * Luby-sequence restarts,
//! * activity-based learned-clause database reduction.
//!
//! `Solver::solve_with` is the one entry point. Its [`SolveParams`]
//! carry the assumptions and every limit (conflict budget, cancel flag,
//! deadline); each limit defaults to "none", so `SolveParams::new()` is
//! a plain solve that always concludes.
//!
//! [`CnfBuilder`] layers convenience encodings on top: Tseitin gadgets for
//! AND/OR/XOR/MUX, `exactly-one`/`at-most-one` cardinality constraints, and
//! implication helpers.
//!
//! # Examples
//!
//! ```
//! use msat::{BoundedResult, CnfBuilder, SolveParams};
//!
//! let mut cnf = CnfBuilder::new();
//! let a = cnf.new_lit();
//! let b = cnf.new_lit();
//! cnf.add_clause([a, b]);
//! cnf.add_clause([a.negated()]);
//! let BoundedResult::Sat(model) = cnf.solve_with(&SolveParams::new()) else {
//!     panic!("satisfiable");
//! };
//! assert!(!model.lit_value(a));
//! assert!(model.lit_value(b));
//! ```

mod builder;
mod cdb;
mod solver;
mod types;

pub use builder::CnfBuilder;
pub use solver::{BoundedResult, Model, SolveParams, Solver, SolverStats};
pub use types::{Lit, Var};

// The wall-clock cut-off accepted by [`SolveParams::deadline`] comes
// from the shared budget crate; re-exported so solver callers need not
// depend on it directly.
pub use fcn_budget::Deadline;
