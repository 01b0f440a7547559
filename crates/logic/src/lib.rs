//! `fcn-logic` — the logic-synthesis substrate of the Bestagon flow.
//!
//! The DAC 2022 paper's design flow (Section 4.2) starts from a gate-level
//! specification and performs:
//!
//! 1. parsing into an *XOR-AND-inverter graph* (XAG),
//! 2. cut-based logic rewriting against an exact database,
//! 3. technology mapping into the gate set offered by the *Bestagon*
//!    library.
//!
//! The original work delegated these steps to the `mockturtle` library;
//! this crate re-implements them from scratch:
//!
//! * `truth_table` — small Boolean functions as bit-packed truth tables,
//! * [`network`] — XAGs (and plain AIGs) with complemented edges and
//!   structural hashing,
//! * `database` — a size-optimal XAG structure database built by dynamic
//!   programming over all 4-input functions,
//! * [`rewrite`] — DAG-aware cut rewriting [Riener et al., DATE 2019],
//! * `cuts` — k-feasible cut enumeration,
//! * [`techmap`] — mapping into Bestagon-compatible gates with fan-out and
//!   inverter legalization,
//! * [`verilog`] — a parser and writer for a small structural/behavioural
//!   Verilog subset used as specification input,
//! * [`blif`] — a parser for the combinational BLIF subset the FCN
//!   benchmark suites circulate in.
//!
//! # Examples
//!
//! ```
//! use fcn_logic::network::Xag;
//!
//! let mut xag = Xag::new();
//! let a = xag.primary_input("a");
//! let b = xag.primary_input("b");
//! let f = xag.xor(a, b);
//! xag.primary_output("f", f);
//! assert_eq!(xag.num_gates(), 1);
//! ```

pub mod blif;
pub(crate) mod cuts;
pub(crate) mod database;
pub mod network;
pub mod rewrite;
pub mod techmap;
pub(crate) mod truth_table;
pub mod verilog;

pub use techmap::{GateKind, MappedNetwork};
