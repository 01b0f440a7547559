//! Deterministic fault injection for resilience testing.
//!
//! The flow promises to *degrade* on failure: a panicking portfolio
//! worker becomes a typed error, an exhausted SAT budget triggers the
//! heuristic fallback, an expired deadline downgrades verification to an
//! `Unknown` verdict. Those paths are worthless if they are never
//! executed, so the engines expose named **injection points** — at every
//! flow-stage boundary (`step2:rewrite`, …), inside the CDCL search loop
//! (`msat.search`), and inside each P&R probe (`pnr.probe`) — where a
//! [`FaultPlan`] can force a failure on demand.
//!
//! A plan is installed per thread with [`install`] (tests) or from the
//! `FAULT_INJECT` environment variable (CI, see [`FaultPlan::from_env`]).
//! The ordered executor ([`crate::exec`]) re-installs the caller's plan
//! inside its worker threads, exactly like the ambient telemetry
//! collector, so an injected solver fault fires at any thread count.
//! When no plan is armed anywhere, the per-point check is a single
//! relaxed atomic load.
//!
//! Injection is deterministic: a rule fires on every hit of its point,
//! or only on a specific hit number (`@nth`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The failure a rule injects at its point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Unwind with a panic. Every stage and worker boundary must convert
    /// this into a typed error and cancel siblings.
    Panic,
    /// Report the local resource budget as exhausted.
    Exhaust,
    /// Report a cooperative interrupt (cancellation).
    Interrupt,
    /// Hand malformed intermediate data to the next consumer.
    Malform,
}

impl Fault {
    fn parse(s: &str) -> Option<Fault> {
        match s {
            "panic" => Some(Fault::Panic),
            "exhaust" => Some(Fault::Exhaust),
            "interrupt" => Some(Fault::Interrupt),
            "malform" => Some(Fault::Malform),
            _ => None,
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Fault::Panic => "panic",
            Fault::Exhaust => "exhaust",
            Fault::Interrupt => "interrupt",
            Fault::Malform => "malform",
        })
    }
}

/// When a rule fires, relative to the hit counter of its point.
#[derive(Debug)]
enum Firing {
    /// Fire on every hit.
    Always,
    /// Fire on exactly the `n`-th hit (1-based).
    Nth(u64),
}

/// One injection rule: at which point, which fault, on which hits.
#[derive(Debug)]
struct Rule {
    /// Exact point name, or `*` matching every point.
    point: String,
    fault: Fault,
    firing: Firing,
    hits: AtomicU64,
}

impl Rule {
    fn matches(&self, point: &str) -> bool {
        self.point == "*" || self.point == point
    }

    /// Records a hit and decides whether the rule fires on it.
    fn hit(&self) -> Option<Fault> {
        let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = match self.firing {
            Firing::Always => true,
            Firing::Nth(target) => n == target,
        };
        fire.then_some(self.fault)
    }
}

/// A set of injection rules, shared (`Arc`) between the installing
/// thread and any worker threads it propagates the plan to, so hit
/// counters are global to the plan rather than per thread.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// An empty plan (never fires).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single always-firing rule at `point`.
    pub fn single(point: &str, fault: Fault) -> Self {
        FaultPlan::new().with_rule(point, fault, None)
    }

    /// Adds a rule firing at `point` (use `"*"` for every point) — on
    /// every hit, or only on the 1-based `nth` hit when given.
    pub fn with_rule(mut self, point: &str, fault: Fault, nth: Option<u64>) -> Self {
        self.rules.push(Rule {
            point: point.to_string(),
            fault,
            firing: match nth {
                Some(n) => Firing::Nth(n),
                None => Firing::Always,
            },
            hits: AtomicU64::new(0),
        });
        self
    }

    /// Parses a plan from a `FAULT_INJECT`-style spec: comma-separated
    /// `point=fault[@nth]` rules, where `fault` is one of `panic`,
    /// `exhaust`, `interrupt`, `malform`, and the optional `@nth` makes
    /// the rule fire only on the nth hit of the point (1-based).
    /// Example: `step4:pnr=panic@1,msat.search=exhaust`.
    pub(crate) fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (point, rest) = part
                .split_once('=')
                .ok_or_else(|| format!("fault rule `{part}`: expected point=fault[@nth]"))?;
            let (fault_str, nth) = match rest.split_once('@') {
                Some((f, n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("fault rule `{part}`: bad hit index `{n}`"))?;
                    (f, Some(n))
                }
                None => (rest, None),
            };
            let fault = Fault::parse(fault_str)
                .ok_or_else(|| format!("fault rule `{part}`: unknown fault `{fault_str}`"))?;
            plan = plan.with_rule(point.trim(), fault, nth);
        }
        Ok(plan)
    }

    /// Builds a plan from the `FAULT_INJECT` environment variable.
    /// Returns `None` when unset or empty; malformed specs are reported
    /// on stderr and ignored (an operator typo must not take down a
    /// service whose whole point is resilience).
    pub fn from_env() -> Option<Arc<Self>> {
        let spec = std::env::var("FAULT_INJECT").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) if !plan.rules.is_empty() => Some(Arc::new(plan)),
            Ok(_) => None,
            Err(e) => {
                eprintln!("FAULT_INJECT ignored: {e}");
                None
            }
        }
    }

    /// Records a hit at `point` and returns the fault to inject, if any.
    /// The first matching rule that fires wins; every matching rule's
    /// hit counter advances regardless.
    pub(crate) fn at(&self, point: &str) -> Option<Fault> {
        let mut fired = None;
        for rule in self.rules.iter().filter(|r| r.matches(point)) {
            let f = rule.hit();
            if fired.is_none() {
                fired = f;
            }
        }
        fired
    }

    /// Total hits recorded at `point` across all threads sharing the
    /// plan (diagnostic; used by tests to assert a point was reached).
    pub fn hits(&self, point: &str) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.matches(point))
            .map(|r| r.hits.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }
}

/// Count of installed plans across all threads; lets [`armed`] answer
/// with one relaxed load when fault injection is off (the common case).
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static PLANS: RefCell<Vec<Arc<FaultPlan>>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls its plan when dropped.
#[must_use = "the plan is uninstalled when the scope is dropped"]
pub struct FaultScope(());

impl Drop for FaultScope {
    fn drop(&mut self) {
        PLANS.with(|s| s.borrow_mut().pop());
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Installs `plan` for the current thread until the returned scope is
/// dropped. Plans nest; the innermost one is consulted.
pub fn install(plan: Arc<FaultPlan>) -> FaultScope {
    PLANS.with(|s| s.borrow_mut().push(plan));
    ARMED.fetch_add(1, Ordering::Relaxed);
    FaultScope(())
}

/// The innermost plan installed on this thread, if any. The executor
/// captures this before spawning and [`install`] it inside each worker,
/// mirroring how the ambient telemetry collector propagates.
pub fn current() -> Option<Arc<FaultPlan>> {
    PLANS.with(|s| s.borrow().last().cloned())
}

/// Whether any thread has a plan installed. One relaxed atomic load;
/// engines gate their per-point checks on this.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) > 0
}

/// Records a hit at `point` against this thread's plan and returns the
/// fault to inject, if any. Cheap no-op when nothing is [`armed`].
#[inline]
pub fn at(point: &str) -> Option<Fault> {
    if !armed() {
        return None;
    }
    current().and_then(|p| p.at(point))
}

/// Like [`at`], but a scheduled [`Fault::Panic`] panics right here (with
/// the point name in the payload); other faults are returned for the
/// call site to interpret. Call sites that only honor panics may ignore
/// the return value.
///
/// # Panics
///
/// Panics when the installed plan schedules [`Fault::Panic`] at `point`.
#[inline]
pub fn check(point: &str) -> Option<Fault> {
    match at(point) {
        Some(Fault::Panic) => panic!("injected fault: panic at {point}"),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_silent() {
        assert!(!armed());
        assert_eq!(at("anywhere"), None);
        assert_eq!(check("anywhere"), None);
    }

    #[test]
    fn single_rule_fires_every_hit() {
        let _scope = install(Arc::new(FaultPlan::single("p", Fault::Exhaust)));
        assert!(armed());
        assert_eq!(at("p"), Some(Fault::Exhaust));
        assert_eq!(at("p"), Some(Fault::Exhaust));
        assert_eq!(at("other"), None);
    }

    #[test]
    fn nth_rule_fires_once() {
        let plan = Arc::new(FaultPlan::new().with_rule("p", Fault::Interrupt, Some(2)));
        let _scope = install(plan.clone());
        assert_eq!(at("p"), None);
        assert_eq!(at("p"), Some(Fault::Interrupt));
        assert_eq!(at("p"), None);
        assert_eq!(plan.hits("p"), 3);
    }

    #[test]
    fn wildcard_matches_every_point() {
        let _scope = install(Arc::new(FaultPlan::single("*", Fault::Malform)));
        assert_eq!(at("a"), Some(Fault::Malform));
        assert_eq!(at("b"), Some(Fault::Malform));
    }

    #[test]
    fn scopes_nest_and_uninstall() {
        let outer = install(Arc::new(FaultPlan::single("p", Fault::Exhaust)));
        {
            let _inner = install(Arc::new(FaultPlan::single("p", Fault::Interrupt)));
            assert_eq!(at("p"), Some(Fault::Interrupt));
        }
        assert_eq!(at("p"), Some(Fault::Exhaust));
        drop(outer);
        assert_eq!(at("p"), None);
    }

    #[test]
    fn parse_round_trips() {
        let plan = FaultPlan::parse("step4:pnr=panic@1, msat.search=exhaust").expect("valid");
        assert_eq!(plan.at("msat.search"), Some(Fault::Exhaust));
        assert_eq!(plan.at("step4:pnr"), Some(Fault::Panic));
        assert_eq!(plan.at("step4:pnr"), None); // @1 only
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("p=explode").is_err());
        assert!(FaultPlan::parse("p=panic@x").is_err());
    }

    #[test]
    fn shared_counters_across_threads() {
        let plan = Arc::new(FaultPlan::new().with_rule("p", Fault::Panic, Some(4)));
        let fired: usize = (0..4)
            .map(|_| {
                let plan = plan.clone();
                std::thread::spawn(move || {
                    let _scope = install(plan);
                    usize::from(at("p").is_some())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .sum();
        assert_eq!(fired, 1, "the 4th global hit fires exactly once");
        assert_eq!(plan.hits("p"), 4);
    }

    #[test]
    #[should_panic(expected = "injected fault: panic at boom")]
    fn check_panics_on_panic_fault() {
        let _scope = install(Arc::new(FaultPlan::single("boom", Fault::Panic)));
        check("boom");
    }
}
