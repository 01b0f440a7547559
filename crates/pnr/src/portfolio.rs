//! Parallel aspect-ratio portfolio scheduling, shared by the hexagonal
//! and Cartesian exact engines.
//!
//! The exact engines probe aspect ratios in increasing-area order; the
//! first satisfiable ratio is area-minimal. Sequentially, nearly all
//! wall-clock on larger netlists is spent proving small ratios UNSAT
//! before the first SAT ratio is reached. [`run_portfolio`] races those
//! probes across a worker pool while preserving the sequential engine's
//! semantics bit for bit:
//!
//! * **Ordered dispatch** — candidates are handed to workers strictly in
//!   stream order, so every candidate with a smaller index than a SAT
//!   result has already been dispatched when that result arrives.
//! * **Ordered commit** — a SAT result only becomes the winner once it
//!   has the smallest index among possible winners; since each probe's
//!   verdict is deterministic (fresh solver, fixed conflict budget), the
//!   smallest SAT index is the same one the sequential scan would find.
//! * **Cancellation** — when a probe at index `i` turns out SAT, every
//!   in-flight probe with an index greater than `i` is cancelled through
//!   its [`CancelFlag`] (the solver's cooperative interrupt). Probes
//!   with smaller indices are left to conclude: their verdicts are
//!   needed for the minimality guarantee.
//! * **Result assembly** — outcomes of cancelled probes and of probes
//!   beyond the winner are discarded, so the surviving probe list is
//!   exactly the sequential prefix: every pre-winner verdict plus the
//!   winner itself, in area order.
//!
//! Dispatch, cancellation, panic isolation and telemetry merging are the
//! ordered executor's ([`fcn_budget::exec`]); this module only decides
//! what each finished probe means for the scan. Telemetry of committed
//! probes is adopted in index order, which makes the merged span tree
//! independent of worker scheduling.

use crate::exact::PnrError;
use fcn_budget::exec::{run_ordered, Signal};

/// Cooperative cancellation handle passed to every probe. Probes must
/// forward it to [`msat::SolveParams::cancel`] (or poll it themselves
/// in long non-solver phases) and report `cancelled: true` when it
/// fired before a verdict was reached.
pub(crate) use fcn_budget::exec::CancelFlag;

/// What one probe concluded, as reported back to the scheduler.
#[derive(Debug)]
pub(crate) struct ProbeOutcome<L, P> {
    /// The layout, when the probe was satisfiable.
    pub(crate) layout: Option<L>,
    /// The probe record (verdict + cost). `None` when the candidate was
    /// filtered out before reaching the solver; such candidates still
    /// count as attempted.
    pub(crate) probe: Option<P>,
    /// True when the cancel flag fired before a verdict; the outcome
    /// carries no information and is discarded.
    pub(crate) cancelled: bool,
    /// Set when the probe ends the whole scan: a scan-wide resource limit
    /// ([`PnrError::DeadlineExpired`],
    /// [`PnrError::ConflictBudgetExhausted`]) or an incoherent SAT model
    /// ([`PnrError::RouterInvariant`]). Unlike a per-probe
    /// `BudgetExceeded` verdict, which skips one ratio, this stops
    /// dispatch of further candidates; in-flight probes conclude under
    /// their own limits, and the caller is expected to degrade.
    pub(crate) abort: Option<PnrError>,
}

impl<L, P> ProbeOutcome<L, P> {
    /// A probe that reached a verdict (or was filtered pre-solver).
    pub(crate) fn concluded(layout: Option<L>, probe: Option<P>) -> Self {
        ProbeOutcome {
            layout,
            probe,
            cancelled: false,
            abort: None,
        }
    }

    /// A probe whose cancel flag fired before a verdict.
    pub(crate) fn cancelled() -> Self {
        ProbeOutcome {
            layout: None,
            probe: None,
            cancelled: true,
            abort: None,
        }
    }

    /// A probe that ends the scan with `abort`.
    pub(crate) fn aborted(abort: PnrError) -> Self {
        ProbeOutcome {
            layout: None,
            probe: None,
            cancelled: false,
            abort: Some(abort),
        }
    }
}

/// The assembled result of a portfolio run, equivalent to what the
/// sequential scan over the same candidates would produce.
#[derive(Debug)]
pub(crate) struct PortfolioOutcome<L, P> {
    /// Winning candidate index and its layout, if any probe was SAT.
    pub(crate) winner: Option<(usize, L)>,
    /// Probe records in candidate order: every concluded pre-winner
    /// probe plus the winner's own.
    pub(crate) probes: Vec<P>,
    /// Number of candidates attempted (dispatched and committed),
    /// including ones filtered before the solver.
    pub(crate) attempted: usize,
    /// Number of in-flight probes cancelled by the winner.
    pub(crate) cancelled: usize,
    /// The error of the probe that stopped the scan early, when no
    /// winner had been committed by then. Probe records cover the
    /// candidates that concluded before the abort.
    pub(crate) aborted: Option<PnrError>,
    /// Set when a probe panicked: the (stringified) panic payload. The
    /// scheduler catches the unwind, cancels every in-flight sibling,
    /// stops dispatch, and reports here instead of propagating — the
    /// caller converts this into a typed error.
    pub(crate) panicked: Option<String>,
}

/// Runs `probe` over `candidates` on the ordered executor
/// ([`fcn_budget::exec::run_ordered`], threads named `pnr-worker-<i>`)
/// and assembles a sequential-equivalent result. At width 1 the probes
/// run inline on the caller's thread, recording telemetry ambiently.
///
/// `probe(index, candidate, cancel)` must reach the same verdict per
/// candidate regardless of thread interleaving for the portfolio to be
/// equivalent to the sequential scan. Probes receive a fresh
/// [`CancelFlag`] each and should return `cancelled: true` if it fired.
///
/// The commit policy: the smallest SAT index wins and cancels in-flight
/// probes above it, a scan-wide abort halts dispatch, and a probe panic
/// is reported instead of unwinding.
pub(crate) fn run_portfolio<C, L, P, F>(candidates: &[C], probe: F) -> PortfolioOutcome<L, P>
where
    C: Sync,
    L: Send,
    P: Send,
    F: Fn(usize, &C, &CancelFlag) -> ProbeOutcome<L, P> + Sync,
{
    let mut run = run_ordered(
        "pnr",
        None,
        candidates.len(),
        |idx, cancel| probe(idx, &candidates[idx], cancel),
        |_, outcome| {
            if outcome.layout.is_some() {
                Signal::Cut
            } else if outcome.abort.is_some() {
                Signal::Halt
            } else {
                Signal::Continue
            }
        },
    );

    // Commit in index order up to the first winner or abort, discarding
    // everything the sequential engine would never have run.
    let mut result = PortfolioOutcome {
        winner: None,
        probes: Vec::new(),
        attempted: 0,
        cancelled: run.cancelled,
        aborted: None,
        panicked: run.panicked.take(),
    };
    for (idx, outcome) in run.commit().enumerate() {
        // Not run: past a winner or a halt, or lost to a panic.
        let Some(outcome) = outcome else { continue };
        if outcome.cancelled {
            // Possible without a winner only through injected faults;
            // the probe carries no information either way.
            result.cancelled += 1;
            continue;
        }
        result.attempted += 1;
        if let Some(p) = outcome.probe {
            result.probes.push(p);
        }
        if let Some(layout) = outcome.layout {
            // A committed winner outranks any larger-index abort: the
            // sequential scan would have stopped here first.
            result.winner = Some((idx, layout));
            break;
        }
        if let Some(abort) = outcome.abort {
            result.aborted = Some(abort);
            break;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_budget::exec::with_width;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Synthetic probe: a candidate is SAT iff its value is 0; value 1
    /// is UNSAT; value 2 is filtered (no probe record); value 4 panics;
    /// value 5 aborts the scan (deadline); value 3 and anything else
    /// spins until cancelled.
    fn fake_probe(value: &u32, cancel: &CancelFlag) -> ProbeOutcome<String, u32> {
        match value {
            0 => ProbeOutcome::concluded(Some("sat".to_owned()), Some(*value)),
            1 => ProbeOutcome::concluded(None, Some(*value)),
            2 => ProbeOutcome::concluded(None, None),
            4 => panic!("probe exploded"),
            5 => ProbeOutcome::aborted(PnrError::DeadlineExpired),
            _ => {
                while !cancel.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                ProbeOutcome::cancelled()
            }
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let candidates = [1u32, 2, 1, 0, 1];
        let seq = with_width(1, || run_portfolio(&candidates, |_, c, f| fake_probe(c, f)));
        let par = with_width(4, || run_portfolio(&candidates, |_, c, f| fake_probe(c, f)));
        assert_eq!(seq.winner.as_ref().map(|(i, _)| *i), Some(3));
        assert_eq!(par.winner.as_ref().map(|(i, _)| *i), Some(3));
        assert_eq!(seq.probes, par.probes);
        assert_eq!(seq.probes, vec![1, 1, 0]);
        assert_eq!(seq.attempted, par.attempted);
        assert_eq!(seq.attempted, 4); // the filtered candidate counts
    }

    #[test]
    fn winner_cancels_slower_larger_probes() {
        // Candidate 3 spins until cancelled; the SAT candidate at index
        // 1 must cut it loose rather than wait for it.
        let candidates = [1u32, 0, 3, 3];
        let out = with_width(4, || run_portfolio(&candidates, |_, c, f| fake_probe(c, f)));
        assert_eq!(out.winner.as_ref().map(|(i, _)| *i), Some(1));
        assert_eq!(out.probes, vec![1, 0]);
        assert_eq!(out.attempted, 2);
        // At least every dispatched spinner was cancelled (dispatch may
        // have stopped before reaching all of them).
        assert!(out.cancelled <= 2);
    }

    #[test]
    fn no_sat_candidate_yields_no_winner() {
        let candidates = [1u32, 2, 1];
        for threads in [1, 4] {
            let out = with_width(threads, || {
                run_portfolio(&candidates, |_, c, f| fake_probe(c, f))
            });
            assert!(out.winner.is_none());
            assert_eq!(out.probes, vec![1, 1]);
            assert_eq!(out.attempted, 3);
            assert_eq!(out.cancelled, 0);
        }
    }

    #[test]
    fn parallel_telemetry_merges_in_index_order() {
        let collector = Arc::new(fcn_telemetry::Collector::new("root"));
        let candidates = [1u32, 1, 0];
        fcn_telemetry::with_collector(&collector, || {
            let _pnr = fcn_telemetry::span("stage");
            with_width(4, || {
                run_portfolio(&candidates, |idx, c, f| {
                    let _span = fcn_telemetry::span(format!("probe:{idx}"));
                    fake_probe(c, f)
                })
            })
        });
        let report = collector.report();
        let stage = report.root.child("stage").expect("stage span");
        let names: Vec<&str> = stage.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["probe:0", "probe:1", "probe:2"]);
    }

    #[test]
    fn probe_panic_is_isolated_and_cancels_siblings() {
        // Candidate 4 panics; candidate 3 spins until cancelled. The
        // panic must not unwind out of run_portfolio, must cancel the
        // spinner, and must surface its payload.
        let candidates = [1u32, 4, 3, 1];
        let out = with_width(4, || run_portfolio(&candidates, |_, c, f| fake_probe(c, f)));
        assert!(out.winner.is_none());
        let payload = out.panicked.expect("panic reported");
        assert!(payload.contains("probe exploded"), "payload: {payload}");
    }

    #[test]
    fn sequential_probe_panic_is_isolated() {
        let candidates = [1u32, 4, 0];
        let out = with_width(1, || run_portfolio(&candidates, |_, c, f| fake_probe(c, f)));
        assert!(out.winner.is_none(), "scan stops at the panic");
        assert_eq!(out.probes, vec![1]);
        assert!(out
            .panicked
            .expect("panic reported")
            .contains("probe exploded"));
    }

    #[test]
    fn abort_stops_dispatch_without_a_winner() {
        let candidates = [1u32, 5, 1, 1];
        for threads in [1, 4] {
            let out = with_width(threads, || {
                run_portfolio(&candidates, |_, c, f| fake_probe(c, f))
            });
            assert!(out.winner.is_none());
            assert_eq!(
                out.aborted,
                Some(PnrError::DeadlineExpired),
                "threads={threads}"
            );
            assert!(out.panicked.is_none());
            // Only the pre-abort prefix is guaranteed recorded.
            assert!(out.probes.starts_with(&[1]), "probes: {:?}", out.probes);
        }
    }

    #[test]
    fn committed_winner_outranks_later_abort() {
        let candidates = [1u32, 0, 5];
        for threads in [1, 4] {
            let out = with_width(threads, || {
                run_portfolio(&candidates, |_, c, f| fake_probe(c, f))
            });
            assert_eq!(out.winner.as_ref().map(|(i, _)| *i), Some(1));
            assert!(out.aborted.is_none(), "threads={threads}");
        }
    }

    #[test]
    fn fault_plan_propagates_to_workers() {
        use fcn_budget::fault::{self, Fault, FaultPlan};
        let plan = Arc::new(FaultPlan::single("portfolio.test", Fault::Malform));
        let _scope = fault::install(plan.clone());
        let candidates = [1u32, 1, 1, 1];
        let out = with_width(4, || {
            run_portfolio(&candidates, |_, c, f| {
                // Visible only if the coordinator's plan was installed
                // in this worker thread.
                let _ = fault::at("portfolio.test");
                fake_probe(c, f)
            })
        });
        assert!(out.winner.is_none());
        assert_eq!(plan.hits("portfolio.test"), 4, "all workers saw the plan");
    }

    #[test]
    fn empty_candidate_list_is_fine() {
        let out = with_width(4, || {
            run_portfolio(&[] as &[u32], |_, c, f| fake_probe(c, f))
        });
        assert!(out.winner.is_none());
        assert!(out.probes.is_empty());
        assert_eq!(out.attempted, 0);
    }
}
