//! Deadlines, per-stage resource budgets, and fault injection.
//!
//! The exact engines in this workspace (SAT placement & routing, the
//! equivalence miter, exhaustive ground-state simulation) have unbounded
//! worst-case runtime. A deployable flow must *degrade* under resource
//! pressure instead of hanging or dying, which needs three ingredients
//! shared by every layer:
//!
//! * [`Deadline`] — a copyable wall-clock cut-off polled cooperatively by
//!   the CDCL loop, the portfolio scheduler, and the simulators.
//! * [`FlowBudget`] — the per-stage resource budgets (rewrite iterations,
//!   SAT conflicts per probe and cumulative, equivalence-miter conflicts,
//!   simulation steps) carried through all eight flow steps.
//! * [`fault`] — a deterministic fault-injection harness that can force
//!   panics, budget exhaustion, interrupts, and malformed intermediate
//!   data at named points, so every degradation edge is exercised by
//!   tests rather than hoped-for.
//! * [`exec`] — the one ordered executor every parallel stage runs on,
//!   and the single `THREADS` width it is sized by.
//!
//! This crate sits below `msat`; its only dependency is the (itself
//! dependency-free) `fcn-telemetry` crate, so deadline bookkeeping can
//! be recorded against the same monotonic clock the span timings use
//! ([`Deadline::record_remaining`]).

#![forbid(unsafe_code)]

pub mod exec;
pub mod fault;

use std::time::{Duration, Instant};

/// A wall-clock cut-off, or "no cut-off".
///
/// `Deadline` is a tiny copyable handle (an `Option<Instant>` with
/// helpers) designed to be threaded through deep call stacks and polled
/// cheaply: [`Deadline::unbounded`] never expires and costs nothing to
/// check; a bounded deadline costs one `Instant::now()` per poll, so
/// pollers amortize it behind a countdown (the SAT solver reuses its
/// interrupt poll cadence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline that never expires. Polling it is free.
    pub const fn unbounded() -> Self {
        Deadline(None)
    }

    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Deadline(Some(Instant::now() + timeout))
    }

    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Deadline::after(Duration::from_millis(ms))
    }

    /// A deadline at the given instant.
    pub const fn at(instant: Instant) -> Self {
        Deadline(Some(instant))
    }

    /// The underlying instant, if bounded.
    pub const fn instant(&self) -> Option<Instant> {
        self.0
    }

    /// Whether this deadline can ever expire.
    pub const fn is_bounded(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the deadline has passed. Always `false` when unbounded.
    pub fn expired(&self) -> bool {
        match self.0 {
            None => false,
            Some(t) => Instant::now() >= t,
        }
    }

    /// Time left before expiry; `None` when unbounded, zero when expired.
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// Milliseconds left before expiry; `None` when unbounded.
    pub(crate) fn remaining_ms(&self) -> Option<u64> {
        self.remaining().map(|d| d.as_millis() as u64)
    }

    /// Records the remaining milliseconds as a telemetry counter named
    /// `name` on the ambient collector's innermost open span. A no-op
    /// when the deadline is unbounded (an unconstrained run's report is
    /// unchanged) or when no collector is installed. Both the deadline
    /// and the telemetry spans read `std::time::Instant`, so the
    /// recorded headroom is directly comparable to the span durations
    /// around it.
    pub fn record_remaining(&self, name: &str) {
        if let Some(ms) = self.remaining_ms() {
            fcn_telemetry::counter(name, ms);
        }
    }
}

/// Per-stage resource budgets for one end-to-end flow run.
///
/// The default ([`FlowBudget::unbounded`]) imposes no limits and leaves
/// every engine byte-identical to an un-budgeted build; each field is an
/// independent opt-in. [`FlowBudget::from_env`] reads the documented
/// `FLOW_*` environment variables, so operators can bound a deployment
/// without code changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FlowBudget {
    /// Wall-clock deadline for the whole flow run.
    pub deadline: Deadline,
    /// Maximum cut-rewriting iterations (step 2).
    pub rewrite_iterations: Option<usize>,
    /// SAT conflict budget per aspect-ratio probe (step 4). `None`
    /// defers to the engine default.
    pub sat_conflicts_per_probe: Option<u64>,
    /// Cumulative SAT conflict budget across all aspect-ratio probes of
    /// one P&R scan (step 4).
    pub sat_conflicts_total: Option<u64>,
    /// Conflict budget for the equivalence miter (step 5). When set, an
    /// exhausted check reports `Unknown` instead of running forever.
    pub equiv_conflicts: Option<u64>,
}

impl FlowBudget {
    /// No limits: every stage runs exactly as without a budget.
    pub const fn unbounded() -> Self {
        FlowBudget {
            deadline: Deadline::unbounded(),
            rewrite_iterations: None,
            sat_conflicts_per_probe: None,
            sat_conflicts_total: None,
            equiv_conflicts: None,
        }
    }

    /// Reads the budget from the environment. Unset (or unparseable)
    /// variables leave the corresponding field unbounded, so an empty
    /// environment yields [`FlowBudget::unbounded`].
    ///
    /// | variable | field |
    /// |---|---|
    /// | `FLOW_DEADLINE_MS` | [`FlowBudget::deadline`] (relative to now) |
    /// | `FLOW_REWRITE_ITERS` | [`FlowBudget::rewrite_iterations`] |
    /// | `FLOW_SAT_CONFLICTS` | [`FlowBudget::sat_conflicts_per_probe`] |
    /// | `FLOW_SAT_CONFLICTS_TOTAL` | [`FlowBudget::sat_conflicts_total`] |
    /// | `FLOW_EQUIV_CONFLICTS` | [`FlowBudget::equiv_conflicts`] |
    pub fn from_env() -> Self {
        fn parse<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok()?.trim().parse().ok()
        }
        FlowBudget {
            deadline: match parse::<u64>("FLOW_DEADLINE_MS") {
                Some(ms) => Deadline::after_ms(ms),
                None => Deadline::unbounded(),
            },
            rewrite_iterations: parse("FLOW_REWRITE_ITERS"),
            sat_conflicts_per_probe: parse("FLOW_SAT_CONFLICTS"),
            sat_conflicts_total: parse("FLOW_SAT_CONFLICTS_TOTAL"),
            equiv_conflicts: parse("FLOW_EQUIV_CONFLICTS"),
        }
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the rewrite-iteration cap.
    pub fn with_rewrite_iterations(mut self, iterations: usize) -> Self {
        self.rewrite_iterations = Some(iterations);
        self
    }

    /// Sets the per-probe SAT conflict budget.
    pub fn with_sat_conflicts_per_probe(mut self, conflicts: u64) -> Self {
        self.sat_conflicts_per_probe = Some(conflicts);
        self
    }

    /// Sets the cumulative SAT conflict budget for one P&R scan.
    pub fn with_sat_conflicts_total(mut self, conflicts: u64) -> Self {
        self.sat_conflicts_total = Some(conflicts);
        self
    }

    /// Sets the equivalence-miter conflict budget.
    pub fn with_equiv_conflicts(mut self, conflicts: u64) -> Self {
        self.equiv_conflicts = Some(conflicts);
        self
    }
}

/// A step/wall-clock budget for a single bounded scan (used by the SiDB
/// simulators, which count sweep steps rather than SAT conflicts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepBudget {
    /// Maximum number of steps; `None` is unlimited.
    pub max_steps: Option<u64>,
    /// Wall-clock cut-off, polled periodically.
    pub deadline: Deadline,
}

impl StepBudget {
    /// No limits.
    pub const fn unbounded() -> Self {
        StepBudget {
            max_steps: None,
            deadline: Deadline::unbounded(),
        }
    }

    /// Whether neither limit is configured.
    pub const fn is_unbounded(&self) -> bool {
        self.max_steps.is_none() && !self.deadline.is_bounded()
    }

    /// Caps the number of steps.
    #[must_use]
    pub const fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Sets the wall-clock cut-off.
    #[must_use]
    pub const fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadline_never_expires() {
        let d = Deadline::unbounded();
        assert!(!d.expired());
        assert!(!d.is_bounded());
        assert_eq!(d.remaining(), None);
        assert_eq!(d.remaining_ms(), None);
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let d = Deadline::after_ms(0);
        assert!(d.is_bounded());
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_not_yet_expired() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().expect("bounded") > Duration::from_secs(3000));
    }

    #[test]
    fn record_remaining_feeds_the_ambient_collector() {
        let collector = std::sync::Arc::new(fcn_telemetry::Collector::new("test"));
        fcn_telemetry::with_collector(&collector, || {
            Deadline::unbounded().record_remaining("headroom_ms");
            Deadline::after(Duration::from_secs(3600)).record_remaining("headroom_ms");
        });
        let report = collector.report();
        let recorded = report.root.counters.get("headroom_ms").copied();
        // Unbounded recorded nothing; the bounded deadline recorded its
        // (large) remaining headroom.
        assert!(recorded.is_some_and(|ms| ms > 3_000_000), "{recorded:?}");
        // Without a collector the call is a no-op rather than a panic.
        Deadline::after_ms(5).record_remaining("headroom_ms");
    }

    #[test]
    fn default_budget_is_unbounded() {
        assert_eq!(FlowBudget::default(), FlowBudget::unbounded());
    }

    #[test]
    fn builder_sets_fields() {
        let b = FlowBudget::unbounded()
            .with_rewrite_iterations(1)
            .with_sat_conflicts_per_probe(100)
            .with_sat_conflicts_total(500)
            .with_equiv_conflicts(200);
        assert_eq!(b.rewrite_iterations, Some(1));
        assert_eq!(b.sat_conflicts_per_probe, Some(100));
        assert_eq!(b.sat_conflicts_total, Some(500));
        assert_eq!(b.equiv_conflicts, Some(200));
    }
}
