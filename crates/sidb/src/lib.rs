//! `sidb-sim` — physical simulation of silicon dangling bond (SiDB) logic.
//!
//! Re-implements the physics the paper relies on (the two-state
//! {−, 0} SiDB charge model and the stability model of Ng et al.,
//! TNANO 2020) from scratch. Where the paper checked its tiles with
//! SiQAD's *SimAnneal* heuristic, every verdict here comes from an exact
//! ground-state search:
//!
//! * [`layout`] — dot-accurate SiDB layouts on the H-Si(100)-2×1 surface,
//! * [`model`] — the screened-Coulomb (Thomas–Fermi) electrostatic model
//!   with the paper's parameters (`μ− = −0.32 eV`, `ε_r = 5.6`,
//!   `λ_TF = 5 nm`),
//! * [`charge`] — charge configurations, electrostatic energies,
//!   *population* and *configuration* stability,
//! * `defects` — surface defect maps (charged and structural species,
//!   seeded random surfaces) whose screened-Coulomb influence folds into
//!   the interaction matrix as an external potential,
//! * [`engine`] — the unified simulation entry point:
//!   [`engine::simulate_with`] dispatches to every engine behind one
//!   [`engine::SimParams`] builder, partitions the search across a
//!   worker pool, and reports [`engine::SimStats`],
//! * [`cache`] — a content-addressed simulation cache shared across
//!   gate-library validation, domain sweeps, and designer searches,
//! * [`exgs`] — exhaustive ground-state search (exact for gate-sized
//!   instances),
//! * `quickexact` — a branch-and-bound exact engine with
//!   physically-informed pruning,
//! * [`bdl`] — binary-dot logic: I/O pairs, input perturbers (the paper's
//!   near/far refinement of Huff et al.'s encoding), and logic read-out,
//! * [`operational`] — truth-table validation of gate designs,
//! * [`opdomain`] — operational-domain sweeps over `(ε_r, λ_TF)` — the
//!   robustness analysis the paper's outlook calls for, behind one
//!   [`opdomain::DomainParams`] builder with an adaptive
//!   boundary-following sampler and a dense A/B reference.
//!
//! # Examples
//!
//! An isolated SiDB settles into the negative charge state:
//!
//! ```
//! use sidb_sim::engine::{simulate_with, SimParams};
//! use sidb_sim::layout::SidbLayout;
//! use sidb_sim::model::PhysicalParams;
//! use sidb_sim::charge::ChargeState;
//!
//! let mut layout = SidbLayout::new();
//! layout.add_site((0, 0, 0));
//! let result = simulate_with(&layout, &SimParams::new(PhysicalParams::default()));
//! let gs = result.ground_state().expect("a single dot always has a ground state");
//! assert_eq!(gs.config.state(0), ChargeState::Negative);
//! ```

pub mod bdl;
pub mod cache;
pub mod charge;
pub(crate) mod defects;
pub mod engine;
pub mod exgs;
pub mod layout;
pub mod model;
pub mod opdomain;
pub mod operational;
pub(crate) mod quickexact;
pub mod stability;

pub use cache::SimCache;
pub use defects::{Defect, DefectKind, DefectMap, SurfaceSpecError};
pub use engine::{simulate_on_surface, simulate_with, SimEngine, SimParams, SimResult, SimStats};
pub use model::PhysicalParams;
