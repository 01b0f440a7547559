//! `fcn-layout` — clocked gate-level tile layouts for FCN circuits.
//!
//! A *gate-level layout* assigns logic gates, wire segments, and wire
//! crossings to clocked tiles of a floor plan. One layout type,
//! [`GateLayout`], serves both floor plans the paper contrasts; its
//! coordinate type parameter ([`fcn_coords::TileCoord`]) picks the plan:
//!
//! * [`hexagonal`] — the hexagonal floor plan the paper proposes for
//!   Y-shaped SiDB gates (inputs arrive from the two northern neighbors,
//!   outputs leave towards the two southern neighbors),
//! * [`cartesian`] — the classic Cartesian floor plan used by QCA design
//!   automation, kept as the comparison baseline (Figure 3).
//!
//! Placement, the counters and the design-rule check ([`GateLayout::verify`])
//! are written once in `gate_layout`; each plan module names its
//! instance ([`hexagonal::HexGateLayout`], [`cartesian::CartGateLayout`]) and adds
//! its ASCII rendering.
//!
//! [`clocking`] implements the tileable clocking schemes referenced by the
//! paper (Columnar/Row, 2DDWave, USE), and [`supertile`] implements the
//! clock-zone expansion of flow step 6: grouping tiles into *super-tiles*
//! large enough to be driven by fabricable clocking electrodes at the
//! 40 nm minimum metal pitch of state-of-the-art lithography.
//!
//! # Examples
//!
//! ```
//! use fcn_coords::AspectRatio;
//! use fcn_layout::clocking::ClockingScheme;
//! use fcn_layout::hexagonal::HexGateLayout;
//!
//! let layout = HexGateLayout::new(AspectRatio::new(3, 4), ClockingScheme::Row);
//! assert_eq!(layout.clock_zone((0, 0).into()), 0);
//! assert_eq!(layout.clock_zone((2, 3).into()), 3);
//! ```

pub mod cartesian;
pub mod clocking;
pub(crate) mod gate_layout;
pub mod hexagonal;
pub mod supertile;
pub mod tile;

pub use gate_layout::GateLayout;
