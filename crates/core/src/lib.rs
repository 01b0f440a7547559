//! `bestagon-core` — the end-to-end SiDB design-automation flow.
//!
//! Implements the eight-step flow of the paper's Section 4.2:
//!
//! 1. parse a specification (gate-level Verilog) as an XAG,
//! 2. cut-based logic rewriting with the exact structure database,
//! 3. technology mapping onto the Bestagon gate set,
//! 4. exact (or heuristic) placement & routing on a row-clocked
//!    hexagonal floor plan,
//! 5. SAT-based equivalence checking of network vs. layout,
//! 6. super-tile clock-zone expansion for fabricable electrodes,
//! 7. gate-library application to a dot-accurate SiDB layout,
//! 8. SiQAD design-file export.
//!
//! A [`flow::FlowRequest`] (a `flow::FlowInput` specification plus
//! [`flow::FlowOptions`]) drives all steps via
//! [`flow::FlowRequest::execute`]; [`benchmarks`] provides the
//! evaluation circuits of the paper's Table 1; [`pipeline`] contains the
//! clocked signal-propagation simulation behind the Figure 2 experiment.

pub mod benchmarks;
pub mod flow;
pub mod pipeline;

pub use benchmarks::{benchmark, benchmark_names, Benchmark};
