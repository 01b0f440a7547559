//! The ordered executor behind every parallel stage of the flow.
//!
//! Exact P&R races aspect-ratio probes, simulation splits sweeps into
//! chunks, clusters, input patterns and domain points, and the gate
//! designer runs independent restarts. All of them are *ordered*: units
//! are numbered, dispatched strictly in index order, and their results
//! are committed in index order, so a run's outcome never depends on
//! scheduling. [`run_ordered`] is that one primitive; each caller keeps
//! only its commit policy.
//!
//! # Width
//!
//! One number sets how many pool threads may be alive at once: the
//! `THREADS` environment variable when it holds a positive integer,
//! else the machine's available parallelism (`0`, empty and garbage
//! values all mean "the default").
//! [`with_width`] overrides it for a scope (tests, examples). The width
//! is a *shared* budget, not a per-pool size: pool workers inherit
//! their caller's [`Share`], so a `run_ordered` nested inside a worker
//! takes only the threads its ancestors left free and otherwise runs
//! inline. A host that runs several flows side by side (the flow
//! server) installs one share in all its threads with [`Share::run`].
//!
//! # Contract
//!
//! * Units are dispatched in index order; at width 1 (or when no
//!   threads are free) they run inline on the caller.
//! * Every unit gets a fresh [`CancelFlag`]. After a unit finishes the
//!   caller's `signal` decides what happens next ([`Signal`]).
//! * A unit that panics is isolated: dispatch halts, in-flight units
//!   are cancelled and the first payload is reported.
//! * An optional fault point is checked before each unit: an injected
//!   panic loses the unit (its result is `None`, dispatch goes on), an
//!   injected exhaustion halts dispatch and sets [`Run::faulted`].
//! * Workers inherit the caller's fault plan and width share. When the
//!   caller has a telemetry collector, each pooled unit records into a
//!   child collector whose report [`Run::commit`] adopts in index
//!   order; inline units record into the caller's collector directly.
//! * Pool threads are named `<name>-worker-<i>`, which labels their
//!   tracks in exported traces.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::fault::{self, Fault};
use fcn_telemetry::{Collector, Report};

/// Cooperative cancellation handle handed to every unit. Long units
/// poll it (or forward it to the SAT solver's interrupt) and return
/// early once it is raised.
pub type CancelFlag = Arc<AtomicBool>;

/// What the caller tells the executor after a unit finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Keep dispatching.
    Continue,
    /// Dispatch nothing past this unit and cancel in-flight units above
    /// it (a P&R probe found the smallest satisfiable ratio so far).
    Cut,
    /// Dispatch nothing more; in-flight units run to the end.
    Halt,
}

/// Reads a `THREADS` value: a positive integer is a width, anything
/// else — unset, empty, `0`, garbage — means "use the default".
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The process default width: `THREADS`, else available parallelism.
fn default_width() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        parse_threads(std::env::var("THREADS").ok().as_deref())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

thread_local! {
    static SHARE: RefCell<Option<Share>> = const { RefCell::new(None) };
}

/// A width and the count of pool threads alive under it. Every
/// [`run_ordered`] under one share draws its threads from the same
/// budget, so nested and side-by-side pools never exceed the width
/// together.
#[derive(Debug, Clone)]
pub struct Share {
    width: usize,
    live: Arc<AtomicUsize>,
}

impl Share {
    /// A fresh share of `width` threads (at least 1).
    fn new(width: usize) -> Share {
        Share {
            width: width.max(1),
            live: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The share installed on this thread, else a fresh one at the
    /// process default width.
    pub fn current() -> Share {
        SHARE
            .with(|s| s.borrow().clone())
            .unwrap_or_else(|| Share::new(default_width()))
    }

    /// Runs `f` with this share installed on the current thread.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Share>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take();
                SHARE.with(|s| *s.borrow_mut() = previous);
            }
        }
        let _restore = Restore(SHARE.with(|s| s.borrow_mut().replace(self.clone())));
        f()
    }

    /// Takes up to `want` threads from the budget; returns how many were
    /// taken, or 0 when fewer than two are free (a single pool thread
    /// beside a blocked caller buys nothing, so the caller runs inline).
    fn reserve(&self, want: usize) -> usize {
        let mut live = self.live.load(Ordering::Relaxed);
        loop {
            let take = want.min(self.width.saturating_sub(live));
            if take < 2 {
                return 0;
            }
            match self.live.compare_exchange_weak(
                live,
                live + take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => live = now,
            }
        }
    }
}

/// The width on this thread: the installed share's, else the default.
pub fn width() -> usize {
    Share::current().width
}

/// Runs `f` with the width set to `width` (at least 1) — for every
/// [`run_ordered`] inside it, nested ones included.
pub fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    Share::new(width).run(f)
}

/// Renders a caught panic payload. Non-string payloads surface as a
/// placeholder rather than being lost.
pub fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// What [`run_ordered`] produced.
#[derive(Debug)]
pub struct Run<T> {
    units: Vec<Option<(T, Option<Report>)>>,
    /// The first panic payload, when a unit panicked.
    pub panicked: Option<String>,
    /// Whether an injected exhaustion at the fault point halted
    /// dispatch.
    pub faulted: bool,
    /// Units cancelled in flight (by a [`Signal::Cut`] or a panic).
    pub cancelled: usize,
}

impl<T> Run<T> {
    /// The results in index order: `None` for units that were not run,
    /// were cancelled, or panicked. Each pooled unit's telemetry is
    /// adopted into the ambient collector as its result is yielded, so
    /// a caller that stops early commits only the prefix it consumed.
    pub fn commit(self) -> impl Iterator<Item = Option<T>> {
        self.units.into_iter().map(|unit| {
            unit.map(|(value, report)| {
                if let Some(report) = report {
                    fcn_telemetry::adopt_report(&report);
                }
                value
            })
        })
    }
}

/// How one unit ended.
enum Step<T> {
    /// An injected panic at the fault point lost the unit.
    Lost,
    /// An injected exhaustion at the fault point.
    Exhausted,
    /// The work panicked.
    Panicked(String),
    /// The work returned, with its child report when instrumented.
    Done(T, Option<Report>),
}

/// Runs one unit: the fault point, then the work under `catch_unwind`
/// (and a child collector named `name` when `instrument`).
fn step<T>(
    name: &str,
    fault_point: Option<&str>,
    instrument: bool,
    work: impl FnOnce() -> T,
) -> Step<T> {
    if let Some(point) = fault_point {
        match catch_unwind(|| fault::check(point)) {
            Err(_) => return Step::Lost,
            Ok(Some(Fault::Exhaust)) => return Step::Exhausted,
            Ok(_) => {}
        }
    }
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if !instrument {
            return (work(), None);
        }
        let child = Arc::new(Collector::new(name));
        let value = fcn_telemetry::with_collector(&child, work);
        child.finish();
        (value, Some(child.report()))
    }));
    match ran {
        Ok((value, report)) => Step::Done(value, report),
        Err(payload) => Step::Panicked(payload_string(payload.as_ref())),
    }
}

/// Dispatch state shared by the pool workers, behind one mutex.
struct State<T> {
    next: usize,
    /// Units with an index below `limit` may still be dispatched.
    limit: usize,
    inflight: Vec<(usize, CancelFlag)>,
    units: Vec<Option<(T, Option<Report>)>>,
    panicked: Option<String>,
    faulted: bool,
    cancelled: usize,
}

/// Runs `units` numbered units and returns their results in index
/// order (see the [module docs](self) for the contract).
///
/// `work(index, cancel)` runs one unit; `signal(index, &result)` is
/// asked after every unit that finished without being cancelled.
/// `name` labels the pool threads (`<name>-worker-<i>`) and child
/// collectors; `fault_point`, when given, is checked before each unit.
pub fn run_ordered<T, W, S>(
    name: &str,
    fault_point: Option<&str>,
    units: usize,
    work: W,
    signal: S,
) -> Run<T>
where
    T: Send,
    W: Fn(usize, &CancelFlag) -> T + Sync,
    S: Fn(usize, &T) -> Signal + Sync,
{
    struct Release<'a>(&'a Share, usize);
    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.live.fetch_sub(self.1, Ordering::AcqRel);
        }
    }
    let share = Share::current();
    let workers = share.reserve(share.width.min(units));
    let _release = Release(&share, workers);
    // Inline units record into the caller's collector directly.
    let instrument = workers > 0 && fcn_telemetry::current().is_some();
    let state = Mutex::new(State {
        next: 0,
        limit: units,
        inflight: Vec::new(),
        units: (0..units).map(|_| None).collect(),
        panicked: None,
        faulted: false,
        cancelled: 0,
    });

    // One worker's loop. With no pool threads the caller runs it, and
    // then nothing is ever in flight beside the current unit.
    let drain = || {
        loop {
            let (idx, flag) = {
                let mut s = state.lock().unwrap();
                if s.next >= s.limit {
                    break;
                }
                let idx = s.next;
                s.next += 1;
                let flag = CancelFlag::default();
                s.inflight.push((idx, flag.clone()));
                (idx, flag)
            };
            let ran = step(name, fault_point, instrument, || work(idx, &flag));
            let mut s = state.lock().unwrap();
            s.inflight.retain(|(i, _)| *i != idx);
            match ran {
                Step::Lost => {}
                Step::Exhausted => {
                    s.faulted = true;
                    s.limit = s.next;
                }
                Step::Panicked(payload) => {
                    s.panicked.get_or_insert(payload);
                    s.limit = s.next;
                    for (_, f) in &s.inflight {
                        f.store(true, Ordering::Relaxed);
                    }
                    // Dispatch has stopped; this worker retires.
                    break;
                }
                Step::Done(_, _) if flag.load(Ordering::Relaxed) => s.cancelled += 1,
                Step::Done(value, report) => {
                    match signal(idx, &value) {
                        Signal::Continue => {}
                        Signal::Cut => {
                            s.limit = s.limit.min(idx + 1);
                            for (i, f) in &s.inflight {
                                if *i > idx {
                                    f.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                        Signal::Halt => s.limit = s.next,
                    }
                    s.units[idx] = Some((value, report));
                }
            }
        }
    };

    if workers == 0 {
        if units > 0 {
            drain();
        }
    } else {
        let plan = fault::current();
        std::thread::scope(|scope| {
            for worker in 0..workers {
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{worker}"))
                    .spawn_scoped(scope, || {
                        let _fault = plan.clone().map(fault::install);
                        share.run(drain);
                    })
                    .expect("spawn pool worker");
            }
        });
    }
    let s = state.into_inner().unwrap();
    Run {
        units: s.units,
        panicked: s.panicked,
        faulted: s.faulted,
        cancelled: s.cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    /// Spins until the unit is cancelled.
    fn spin(cancel: &CancelFlag) {
        while !cancel.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    }

    fn results<T>(run: Run<T>) -> Vec<Option<T>> {
        run.commit().collect()
    }

    #[test]
    fn threads_parsing_has_one_rule() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        // Unset, empty, zero and garbage all mean "the default".
        for raw in [
            None,
            Some(""),
            Some("0"),
            Some("-1"),
            Some("four"),
            Some("2x"),
        ] {
            assert_eq!(parse_threads(raw), None, "{raw:?}");
        }
        assert!(width() >= 1);
    }

    #[test]
    fn with_width_scopes_and_restores() {
        let outer = width();
        with_width(3, || {
            assert_eq!(width(), 3);
            with_width(0, || assert_eq!(width(), 1));
            assert_eq!(width(), 3);
        });
        assert_eq!(width(), outer);
    }

    #[test]
    fn results_merge_in_index_order_at_any_width() {
        for w in [1, 2, 4] {
            let run = with_width(w, || {
                run_ordered("t", None, 9, |i, _| i * i, |_, _| Signal::Continue)
            });
            assert!(run.panicked.is_none() && !run.faulted && run.cancelled == 0);
            let expected: Vec<_> = (0..9).map(|i| Some(i * i)).collect();
            assert_eq!(results(run), expected, "width {w}");
        }
    }

    #[test]
    fn empty_runs_run_nothing() {
        for w in [1, 4] {
            let run = with_width(w, || {
                run_ordered(
                    "t",
                    None,
                    0,
                    |_, _| -> usize { unreachable!("no unit to run") },
                    |_, _| Signal::Continue,
                )
            });
            assert!(results(run).is_empty());
        }
    }

    #[test]
    fn pool_threads_are_named_after_the_pool() {
        let run = with_width(2, || {
            run_ordered(
                "sim",
                None,
                4,
                |_, _| std::thread::current().name().map(str::to_owned),
                |_, _| Signal::Continue,
            )
        });
        for name in results(run).into_iter().flatten().flatten() {
            assert!(name.starts_with("sim-worker-"), "{name}");
        }
    }

    #[test]
    fn cut_cancels_in_flight_units_above_it() {
        // Unit 1 cuts; units 2 and 3 spin until cancelled, so the run
        // only ends if the cut reaches them.
        for w in [1, 4] {
            let run = with_width(w, || {
                run_ordered(
                    "t",
                    None,
                    4,
                    |i, cancel| {
                        if i >= 2 {
                            spin(cancel);
                        }
                        i
                    },
                    |i, _| {
                        if i == 1 {
                            Signal::Cut
                        } else {
                            Signal::Continue
                        }
                    },
                )
            });
            assert!(run.cancelled <= 2);
            let out = results(run);
            assert_eq!(&out[..2], &[Some(0), Some(1)], "width {w}");
            assert_eq!(&out[2..], &[None, None], "width {w}");
        }
    }

    #[test]
    fn halt_stops_dispatch_but_lets_in_flight_units_finish() {
        for w in [1, 4] {
            let run = with_width(w, || {
                run_ordered(
                    "t",
                    None,
                    64,
                    |i, _| {
                        if i >= 2 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        i
                    },
                    |i, _| {
                        if i == 1 {
                            Signal::Halt
                        } else {
                            Signal::Continue
                        }
                    },
                )
            });
            assert_eq!(run.cancelled, 0);
            let out = results(run);
            // Everything up to the halting unit ran; dispatch stopped.
            assert_eq!(&out[..2], &[Some(0), Some(1)]);
            let ran = out.iter().filter(|r| r.is_some()).count();
            assert!(ran < 64, "width {w}: {ran} units ran");
            if w == 1 {
                assert_eq!(ran, 2);
            }
        }
    }

    #[test]
    fn panics_are_isolated_and_cancel_siblings() {
        // Unit 1 panics; unit 2 spins until cancelled. The panic must
        // not unwind out of the executor, must cancel the spinner, and
        // must surface its payload.
        for w in [1, 4] {
            let run = with_width(w, || {
                run_ordered(
                    "t",
                    None,
                    4,
                    |i, cancel| match i {
                        1 => panic!("unit exploded"),
                        2 => {
                            spin(cancel);
                            i
                        }
                        _ => i,
                    },
                    |_, _| Signal::Continue,
                )
            });
            let payload = run.panicked.clone().expect("panic reported");
            assert!(payload.contains("unit exploded"), "{payload}");
            let out = results(run);
            assert_eq!(out[0], Some(0));
            assert_eq!(out[1], None);
            assert_eq!(out[2], None, "width {w}: the spinner was cancelled");
        }
    }

    #[test]
    fn fault_point_loses_units_or_halts_dispatch() {
        for w in [1, 4] {
            let plan = Arc::new(FaultPlan::single("exec.test", Fault::Panic));
            let scope = fault::install(plan.clone());
            let run = with_width(w, || {
                run_ordered("t", Some("exec.test"), 4, |i, _| i, |_, _| Signal::Continue)
            });
            drop(scope);
            // Every unit was lost at the fault point; none halted.
            assert!(!run.faulted && run.panicked.is_none());
            assert_eq!(results(run), vec![None; 4], "width {w}");
            assert_eq!(plan.hits("exec.test"), 4, "workers saw the plan");

            let plan = Arc::new(FaultPlan::new().with_rule("exec.test", Fault::Exhaust, Some(1)));
            let scope = fault::install(plan);
            let run = with_width(w, || {
                run_ordered(
                    "t",
                    Some("exec.test"),
                    64,
                    |i, _| {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        i
                    },
                    |_, _| Signal::Continue,
                )
            });
            drop(scope);
            assert!(run.faulted);
            let ran = results(run).iter().filter(|r| r.is_some()).count();
            assert!(ran < 64, "width {w}: exhaustion halted dispatch");
        }
    }

    #[test]
    fn fault_plan_reaches_the_work_in_workers() {
        let plan = Arc::new(FaultPlan::single("exec.work", Fault::Malform));
        let _scope = fault::install(plan.clone());
        let run = with_width(4, || {
            run_ordered(
                "t",
                None,
                4,
                |_, _| fault::at("exec.work"),
                |_, _| Signal::Continue,
            )
        });
        assert_eq!(results(run), vec![Some(Some(Fault::Malform)); 4]);
        assert_eq!(plan.hits("exec.work"), 4);
    }

    #[test]
    fn telemetry_commits_in_index_order() {
        for w in [1, 4] {
            let collector = Arc::new(Collector::new("root"));
            fcn_telemetry::with_collector(&collector, || {
                let _stage = fcn_telemetry::span("stage");
                let run = with_width(w, || {
                    run_ordered(
                        "t",
                        None,
                        5,
                        |i, _| {
                            let _span = fcn_telemetry::span(format!("unit:{i}"));
                            // Later units finish first under a pool.
                            std::thread::sleep(std::time::Duration::from_millis(
                                (5 - i as u64) * 2,
                            ));
                        },
                        |_, _| Signal::Continue,
                    )
                });
                // Committing a prefix adopts only that prefix.
                assert_eq!(run.commit().take(3).count(), 3);
            });
            let report = collector.report();
            let stage = report.root.child("stage").expect("stage span");
            let names: Vec<&str> = stage.children.iter().map(|c| c.name.as_str()).collect();
            let expected: &[&str] = if w == 1 {
                // Inline units record straight into the caller's collector.
                &["unit:0", "unit:1", "unit:2", "unit:3", "unit:4"]
            } else {
                &["unit:0", "unit:1", "unit:2"]
            };
            assert_eq!(names, expected, "width {w}");
        }
    }

    #[test]
    fn nested_runs_share_the_width() {
        thread_local! {
            static COUNTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        let alive = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // Counts the distinct pool threads busy with a unit right now.
        let busy = |f: &dyn Fn()| {
            let pooled = std::thread::current()
                .name()
                .is_some_and(|n| n.contains("-worker-"));
            let first = pooled && !COUNTED.with(|c| c.replace(true));
            if first {
                let now = alive.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
            }
            f();
            if first {
                alive.fetch_sub(1, Ordering::SeqCst);
                COUNTED.with(|c| c.set(false));
            }
        };
        for (w, outer) in [(2, 4), (4, 2), (3, 5)] {
            peak.store(0, Ordering::SeqCst);
            with_width(w, || {
                run_ordered(
                    "outer",
                    None,
                    outer,
                    |_, _| {
                        busy(&|| {
                            let inner = run_ordered(
                                "inner",
                                None,
                                4,
                                |i, _| {
                                    busy(&|| {
                                        std::thread::sleep(std::time::Duration::from_millis(5))
                                    });
                                    i
                                },
                                |_, _| Signal::Continue,
                            );
                            assert_eq!(inner.commit().flatten().count(), 4);
                        })
                    },
                    |_, _| Signal::Continue,
                )
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= w, "width {w}: {peak} pool threads alive");
            assert!(peak >= 2, "width {w}: the outer pool ran wide");
        }
    }
}
