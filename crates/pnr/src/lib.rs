//! `fcn-pnr` — physical design for hexagonal SiDB layouts.
//!
//! Step 4 of the paper's flow: "generate a linearly clocked hexagonal
//! gate-level layout from the mapped network via SMT-based *exact*
//! physical design [Walter et al., DATE 2018]". Two engines are provided:
//!
//! * `exact` — an area-minimal placement & routing engine. Aspect ratios
//!   are enumerated in increasing-area order; for each ratio the
//!   simultaneous placement/routing problem is encoded into CNF and handed
//!   to the [`msat`] CDCL solver. The first satisfiable ratio is optimal.
//!   (The original work used the Z3 SMT solver; the encoding here is pure
//!   SAT — see `DESIGN.md` §3.)
//! * `heuristic` — a scalable one-pass baseline in the spirit of
//!   [Walter et al., ASP-DAC 2019]: levelized placement with a
//!   bubble-routing channel stage. Linear-time, never optimal — it serves
//!   as the comparison point for the exact-vs-scalable ablation.
//!
//! Both hexagonal engines emit row-clocked [`fcn_layout::hexagonal::HexGateLayout`]s
//! in which information flows strictly from north to south, every signal
//! path is balanced (one row per clock phase), and therefore every layout
//! has the paper's reported best-possible throughput of 1/1.
//!
//! `cartesian_exact` runs the same exact engine on the Cartesian
//! 2DDWave baseline floor plan, enabling the measured topology comparison
//! of the Figure 3 experiment: the scan, encoding and extraction live
//! once in `exact`, and each floor plan supplies only its topology.

pub(crate) mod cartesian_exact;
pub(crate) mod exact;
pub(crate) mod heuristic;
pub mod netgraph;
pub(crate) mod portfolio;

pub use cartesian_exact::cartesian_exact_pnr;
pub use exact::{
    exact_pnr, ExactOptions, PnrError, PnrOutcome, ProbeVerdict, RatioProbe, ReuseStats,
};
pub use heuristic::heuristic_pnr;
pub use netgraph::NetGraph;
