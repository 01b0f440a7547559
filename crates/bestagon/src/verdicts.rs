//! The library's nominal verdict table: every library design's
//! operational verdict under the paper's full model, simulated once and
//! committed as data.
//!
//! The paper simulates each Bestagon tile once and then only applies
//! the fixed library. This table is that one simulation's record: one
//! row per [`BestagonLibrary`](crate::tiles::BestagonLibrary) design —
//! every entry, mirrored ones included, and the crossing — holding the
//! design name, its [`content_hash`], the verdict of
//! [`GateDesign::check_operational_with`] under [`nominal_sim`] (the
//! deciding pattern included) and the nodes that check visited.
//!
//! Rows are keyed by the content hash, a fixed FNV-1a over the design's
//! sites, ports and truth table (not its name), so a design whose dots
//! changed misses the table instead of inheriting a stale verdict.
//! [`lookup`] answers only for a simulation that runs the table's own
//! search ([`SimParams::same_search`]: physical model, engine, `k` and
//! step cap; the deadline and the cache do not count). Every other
//! question — another model, a defective surface, a design outside the
//! library — simulates.
//!
//! The lookup hosts the `bestagon.verdicts` fault point: any injected
//! fault makes the table act absent, so the caller falls back to the
//! simulation, exactly as the `sidb.cache` point does for the cache.
//!
//! The rows live in `verdicts/table.rs`. Two tests in
//! `tests/library_validation.rs` keep them honest: a tier-1 test checks
//! that every library design's hash has a row, and an `#[ignore]`d test
//! (run by CI's release step) re-simulates every row and, on a
//! mismatch, prints the replacement file.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sidb_sim::engine::{SimEngine, SimParams};
use sidb_sim::model::PhysicalParams;
use sidb_sim::operational::{GateDesign, OperationalStatus};

mod table;

pub use table::NOMINAL_VERDICTS;

/// 64-bit FNV-1a — a fixed algorithm (unlike `DefaultHasher`), so
/// content hashes, request fingerprints and benchmark hashes are
/// comparable across runs and Rust releases.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// The hash of no bytes (the FNV-1a offset basis).
    #[must_use]
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash of every byte fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The content hash of a design: FNV-1a over its sites (in the layout's
/// sorted order), its input and output ports and its truth table, each
/// list prefixed with its length. The name is not hashed.
pub fn content_hash(design: &GateDesign) -> u64 {
    let mut h = Fnv64::new();
    let len = |h: &mut Fnv64, n: usize| {
        h.bytes(&(n as u64).to_le_bytes());
    };
    let site = |h: &mut Fnv64, s: fcn_coords::LatticeCoord| {
        h.bytes(&s.x.to_le_bytes())
            .bytes(&s.y.to_le_bytes())
            .bytes(&[s.b]);
    };
    len(&mut h, design.body.num_sites());
    for &s in design.body.sites() {
        site(&mut h, s);
    }
    len(&mut h, design.inputs.len());
    for port in &design.inputs {
        for s in [
            port.pair.zero_dot,
            port.pair.one_dot,
            port.perturber_zero,
            port.perturber_one,
        ] {
            site(&mut h, s);
        }
    }
    len(&mut h, design.outputs.len());
    for port in &design.outputs {
        site(&mut h, port.pair.zero_dot);
        site(&mut h, port.pair.one_dot);
        h.bytes(&[u8::from(port.perturber.is_some())]);
        if let Some(p) = port.perturber {
            site(&mut h, p);
        }
    }
    len(&mut h, design.truth_table.len());
    for row in &design.truth_table {
        len(&mut h, row.len());
        for &bit in row {
            h.bytes(&[u8::from(bit)]);
        }
    }
    h.finish()
}

/// An [`OperationalStatus`] as a table row stores it (borrowed slices
/// instead of vectors, so rows are `static` data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// See [`OperationalStatus::Operational`].
    Operational,
    /// See [`OperationalStatus::NonOperational`].
    NonOperational {
        /// The deciding input pattern.
        pattern: u32,
        /// What the outputs read as.
        observed: &'static [Option<bool>],
        /// The expected output values.
        expected: &'static [bool],
    },
    /// See [`OperationalStatus::Unknown`].
    Unknown {
        /// The deciding input pattern.
        pattern: u32,
    },
}

impl Verdict {
    /// The verdict as the simulating check reports it.
    pub fn status(&self) -> OperationalStatus {
        match *self {
            Verdict::Operational => OperationalStatus::Operational,
            Verdict::NonOperational {
                pattern,
                observed,
                expected,
            } => OperationalStatus::NonOperational {
                pattern,
                observed: observed.to_vec(),
                expected: expected.to_vec(),
            },
            Verdict::Unknown { pattern } => OperationalStatus::Unknown { pattern },
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NominalVerdict {
    /// The design's name (informative; rows are keyed by `hash`).
    pub name: &'static str,
    /// The design's [`content_hash`].
    pub hash: u64,
    /// The verdict under [`nominal_sim`].
    pub verdict: Verdict,
    /// Nodes the check visited to reach it.
    pub visited: u64,
}

/// The simulation the table records: QuickExact under the paper's full
/// model (`PhysicalParams::default()`, no interaction cutoff), `k = 1`
/// and the default step cap.
pub fn nominal_sim() -> SimParams {
    SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact)
}

/// The table's verdict for `design` when `sim` runs the table's search
/// (see the module docs); `None` sends the caller to the simulation.
pub fn lookup(design: &GateDesign, sim: &SimParams) -> Option<&'static NominalVerdict> {
    if !sim.same_search(&nominal_sim()) || !available() {
        return None;
    }
    let hash = content_hash(design);
    NOMINAL_VERDICTS.iter().find(|row| row.hash == hash)
}

/// Evaluates the `bestagon.verdicts` fault point: any injected fault
/// (panic, exhaust, …) makes the table act absent for this lookup.
fn available() -> bool {
    matches!(
        catch_unwind(AssertUnwindSafe(|| {
            fcn_budget::fault::check("bestagon.verdicts")
        })),
        Ok(None)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiles::wire_nw_sw;

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn content_hash_ignores_the_name_and_sees_every_dot() {
        let wire = wire_nw_sw();
        let renamed = GateDesign {
            name: "renamed".into(),
            ..wire.clone()
        };
        assert_eq!(content_hash(&wire), content_hash(&renamed));
        let mut moved = wire.clone();
        moved.body.add_site((1, 1, 1));
        assert_ne!(content_hash(&wire), content_hash(&moved));
        let mut inverted = wire.clone();
        inverted.truth_table.reverse();
        assert_ne!(content_hash(&wire), content_hash(&inverted));
    }

    #[test]
    fn lookup_answers_only_the_tables_search() {
        let wire = wire_nw_sw();
        let row = lookup(&wire, &nominal_sim()).expect("the wire has a row");
        assert_eq!(row.verdict.status(), OperationalStatus::Operational);
        // The deadline and the cache do not change the search …
        let tuned = nominal_sim()
            .with_cache(sidb_sim::SimCache::new())
            .with_budget(
                nominal_sim()
                    .budget
                    .with_deadline(fcn_budget::Deadline::after_ms(60_000)),
            );
        assert_eq!(lookup(&wire, &tuned), Some(row));
        // … another model or step cap does.
        let cutoff = SimParams::new(crate::geometry::validation_params());
        assert_eq!(lookup(&wire, &cutoff), None);
        let uncapped = nominal_sim().with_budget(fcn_budget::StepBudget::unbounded());
        assert_eq!(lookup(&wire, &uncapped), None);
    }
}
