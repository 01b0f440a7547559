//! Exact placement & routing on the Cartesian baseline floor plan.
//!
//! The comparison substrate for the paper's Figure 3: QCA-style design
//! automation places plus-shaped gates on Cartesian grids under 2DDWave
//! clocking (zone `(x+y) mod 4`, information flowing east and south).
//! This engine mirrors the hexagonal [`crate::exact`] encoding on that
//! topology, so the two floor plans can be compared with the same
//! optimality guarantees — including the incremental probing mode (see
//! [`crate::incremental`]).
//!
//! Note what this baseline *cannot* model: the experimentally
//! demonstrated SiDB gates are Y-shaped and need two upper-border input
//! ports, which a Cartesian tile does not offer (it has a single northern
//! border). The Cartesian numbers therefore describe hypothetical
//! plus-shaped gates — the paper's point is precisely that such gates do
//! not exist on the SiDB platform.

use crate::exact::{
    assemble_outcome, ExactOptions, PnrError, PnrOutcome, ProbeGate, ProbeVerdict, RatioProbe,
    ScanLimits, SessionBounds,
};
use crate::incremental::{IncrementalCnf, ProbeEmitter, ScratchEmitter};
use crate::netgraph::NetGraph;
use crate::portfolio::{run_portfolio, CancelFlag, ProbeOutcome, ScanAbort};
use fcn_budget::Deadline;
use fcn_coords::{AspectRatio, CartCoord, CartDirection};
use fcn_layout::cartesian::CartGateLayout;
use fcn_layout::clocking::ClockingScheme;
use fcn_layout::tile::TileContents;
use fcn_logic::techmap::MappedId;
use fcn_logic::GateKind;
use msat::{BoundedResult, Lit, Model, SolveParams};
use std::collections::{HashMap, HashSet};

/// Runs exact placement & routing on a Cartesian 2DDWave floor plan.
///
/// PIs enter along the top/left borders and POs leave along the
/// bottom/right borders; every edge advances one anti-diagonal per clock
/// phase, as 2DDWave requires.
///
/// # Errors
///
/// Returns [`PnrError::NoFeasibleRatio`] when the area bound is
/// exhausted.
///
/// # Examples
///
/// ```
/// use fcn_logic::network::Xag;
/// use fcn_logic::techmap::{map_xag, MapOptions};
/// use fcn_pnr::{cartesian_exact_pnr, ExactOptions, NetGraph};
///
/// let mut xag = Xag::new();
/// let a = xag.primary_input("a");
/// let b = xag.primary_input("b");
/// let f = xag.and(a, b);
/// xag.primary_output("f", f);
/// let net = map_xag(&xag, MapOptions::default())?;
/// let graph = NetGraph::new(net)?;
/// let result = cartesian_exact_pnr(&graph, &ExactOptions::default())?;
/// assert!(result.layout.verify().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn cartesian_exact_pnr(
    graph: &NetGraph,
    options: &ExactOptions,
) -> Result<PnrOutcome<CartGateLayout>, PnrError> {
    let num_nodes = graph.network.num_nodes() as u64;
    // The last diagonal frontier must fit all POs, the first all PIs;
    // the number of diagonals is w + h − 1 and must cover min_height
    // (the longest node path).
    let candidates: Vec<AspectRatio> = AspectRatio::in_area_order(options.max_area)
        .filter(|ratio| {
            let diagonals = ratio.width + ratio.height - 1;
            diagonals >= graph.min_height()
                && ratio.tile_count() >= num_nodes
                && (ratio.width.min(ratio.height) as usize)
                    >= graph
                        .network
                        .primary_inputs()
                        .len()
                        .min(graph.network.primary_outputs().len())
                        .min(1)
        })
        .collect();
    // The session union for incremental workers: the variable universe
    // covers every candidate rectangle, with ALAP levels taken at the
    // longest candidate diagonal (the loosest schedule of the session).
    let session = (|| {
        let d_max = candidates.iter().map(|r| r.width + r.height - 1).max()?;
        let height = candidates.iter().map(|r| r.height).max()?;
        let alap = graph.alap(d_max)?;
        let mut width_at_row = vec![0i32; height as usize];
        for r in &candidates {
            for slot in width_at_row.iter_mut().take(r.height as usize) {
                *slot = (*slot).max(r.width as i32);
            }
        }
        Some(SessionBounds {
            height,
            width_at_row,
            alap,
        })
    })();

    let limits = ScanLimits::new(options);
    let blacklist: HashSet<(i32, i32)> = options.blacklist.iter().copied().collect();

    let outcome = run_portfolio(
        &candidates,
        || options.incremental.then(IncrementalCnf::<CartKey>::new),
        |inc, _, ratio, cancel| {
            let budget = match limits.pre_probe(options.max_conflicts_per_ratio) {
                ProbeGate::Go(budget) => budget,
                ProbeGate::Abort(abort) => return ProbeOutcome::aborted(abort),
                ProbeGate::Cancelled => return ProbeOutcome::cancelled(),
            };
            let out = match inc {
                Some(inc) => solve_ratio_incremental(
                    inc,
                    graph,
                    *ratio,
                    session.as_ref().expect("probing implies candidates"),
                    budget,
                    limits.deadline(),
                    cancel,
                    &blacklist,
                ),
                None => solve_ratio_scratch(
                    graph,
                    *ratio,
                    budget,
                    limits.deadline(),
                    cancel,
                    &blacklist,
                ),
            };
            if let Some(probe) = &out.probe {
                limits.charge(probe.stats.conflicts);
            }
            out
        },
    );
    assemble_outcome(outcome, |idx| candidates[idx], options)
}

/// The inclusive diagonal (`x + y`) range a node may occupy for a layout
/// with `diagonals` anti-diagonal frontiers. PIs and POs are additionally
/// restricted to border tiles (see [`border_ok`]) rather than to a single
/// frontier — on a 2DDWave floor plan the first anti-diagonal holds just
/// one tile.
fn diag_range(graph: &NetGraph, alap: &[u32], diagonals: u32, n: MappedId) -> (u32, u32) {
    let _ = diagonals;
    (graph.asap[n.index()], alap[n.index()])
}

/// Border restriction for I/O pads: PIs enter along the top/left borders,
/// POs leave along the bottom/right borders.
fn border_ok(kind: GateKind, t: CartCoord, w: i32, h: i32) -> bool {
    match kind {
        GateKind::Pi => t.x == 0 || t.y == 0,
        GateKind::Po => t.x == w - 1 || t.y == h - 1,
        _ => true,
    }
}

/// Semantic identity of a Cartesian-encoding problem variable (see the
/// hexagonal twin in [`crate::exact`] for the caching rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CartKey {
    /// Node `n` occupies tile `t`.
    Place(usize, CartCoord),
    /// Edge `e` runs a wire segment through tile `t`.
    Wire(usize, CartCoord),
    /// Edge `e` leaves tile `t` east or south.
    Step(usize, CartCoord, CartDirection),
}

/// The problem variables of one Cartesian aspect-ratio encoding.
struct CartEncoding {
    place: HashMap<(usize, CartCoord), Lit>,
    wire: HashMap<(usize, CartCoord), Lit>,
    step: HashMap<(usize, CartCoord, CartDirection), Lit>,
}

const DIRS: [CartDirection; 2] = [CartDirection::East, CartDirection::South];

/// Encodes the Cartesian placement & routing problem at a fixed aspect
/// ratio through a [`ProbeEmitter`]. Returns `None` when the ratio is
/// unschedulable or leaves some node with no placeable tile; such
/// ratios are filtered before reaching the solver but still count as
/// attempted.
///
/// As in the hexagonal twin, `session: None` encodes exactly the
/// ratio's rectangle (the from-scratch mode), while a [`SessionBounds`]
/// builds the shared variable universe over the whole session union and
/// imposes the ratio — including its border rules and diagonal ranges —
/// through guarded unit clauses only, which keeps learned lemmas free
/// of the activation literal.
fn encode_ratio<E: ProbeEmitter<CartKey>>(
    em: &mut E,
    graph: &NetGraph,
    ratio: AspectRatio,
    session: Option<&SessionBounds>,
    blacklist: &HashSet<(i32, i32)>,
) -> Option<CartEncoding> {
    let (w, h) = (ratio.width as i32, ratio.height as i32);
    let diagonals = ratio.width + ratio.height - 1;
    let alap = graph.alap(diagonals)?;
    let node_ids: Vec<MappedId> = graph.network.node_ids().collect();
    let ratio_bounds;
    let bounds = match session {
        Some(b) => b,
        None => {
            ratio_bounds = SessionBounds {
                height: ratio.height,
                width_at_row: vec![w; ratio.height as usize],
                alap: alap.clone(),
            };
            &ratio_bounds
        }
    };
    let in_ratio = |t: CartCoord| t.x >= 0 && t.x < w && t.y >= 0 && t.y < h;
    let in_bounds = |t: CartCoord| bounds.contains_xy(t.x, t.y);
    // Row 0 is spanned by every candidate, so `width_at(0)` is the
    // session's widest rectangle.
    let tiles_on_diag = |d: u32| -> Vec<CartCoord> {
        (0..bounds.width_at(0))
            .map(|x| CartCoord::new(x, d as i32 - x))
            .filter(|&t| in_bounds(t))
            .collect()
    };

    // place(n, t) for tiles on the node's allowed diagonals. The
    // at-least-one disjunction ranges over the session universe and is
    // shared; this ratio's diagonal ranges and Po border rule arrive as
    // guarded units. (Pi borders — top/left — mean the same tiles in
    // every ratio, so they restrict creation itself.)
    let mut place: HashMap<(usize, CartCoord), Lit> = HashMap::new();
    for &n in &node_ids {
        let kind = graph.network.node(n).kind;
        let (lo, hi) = diag_range(graph, &alap, diagonals, n);
        let (clo, chi) = match session {
            Some(b) => (graph.asap[n.index()], b.alap[n.index()]),
            None => (lo, hi),
        };
        let mut vars = Vec::new();
        let mut admissible = 0usize;
        for d in clo..=chi {
            for t in tiles_on_diag(d) {
                let create_ok = match kind {
                    GateKind::Pi => t.x == 0 || t.y == 0,
                    _ => session.is_some() || border_ok(kind, t, w, h),
                };
                if !create_ok {
                    continue;
                }
                let lit = em.var(CartKey::Place(n.index(), t));
                place.insert((n.index(), t), lit);
                vars.push(lit);
                if in_ratio(t) && border_ok(kind, t, w, h) && (lo..=hi).contains(&d) {
                    admissible += 1;
                } else {
                    em.guarded(vec![lit.negated()]);
                }
                // Defect avoidance: a compromised tile is off in every
                // probe of the session — a shared fact, learned once.
                if blacklist.contains(&(t.x, t.y)) {
                    em.shared(vec![lit.negated()]);
                }
            }
        }
        if admissible == 0 {
            return None;
        }
        em.shared(vars.clone());
        em.shared_at_most_one(&vars);
    }

    // wire(e, t) strictly between the endpoints' diagonals.
    let mut wire: HashMap<(usize, CartCoord), Lit> = HashMap::new();
    for e in &graph.edges {
        let (src_lo, _) = diag_range(graph, &alap, diagonals, e.source);
        let (_, dst_hi) = diag_range(graph, &alap, diagonals, e.target);
        let (src_clo, dst_chi) = match session {
            Some(b) => (graph.asap[e.source.index()], b.alap[e.target.index()]),
            None => (src_lo, dst_hi),
        };
        for d in (src_clo + 1)..dst_chi {
            for t in tiles_on_diag(d) {
                let lit = em.var(CartKey::Wire(e.id, t));
                wire.insert((e.id, t), lit);
                if !(in_ratio(t) && d > src_lo && d < dst_hi) {
                    em.guarded(vec![lit.negated()]);
                }
                if blacklist.contains(&(t.x, t.y)) {
                    em.shared(vec![lit.negated()]);
                }
            }
        }
    }

    // step(e, t, dir): edge e leaves t east or south. Out-of-ratio
    // steps need no units: the shared step → presence clauses propagate
    // them off once the probe's place/wire units land.
    let mut step: HashMap<(usize, CartCoord, CartDirection), Lit> = HashMap::new();
    for e in &graph.edges {
        let presence_src = |wire: &HashMap<(usize, CartCoord), Lit>,
                            place: &HashMap<(usize, CartCoord), Lit>,
                            t: CartCoord| {
            wire.contains_key(&(e.id, t)) || place.contains_key(&(e.source.index(), t))
        };
        let presence_dst = |wire: &HashMap<(usize, CartCoord), Lit>,
                            place: &HashMap<(usize, CartCoord), Lit>,
                            t: CartCoord| {
            wire.contains_key(&(e.id, t)) || place.contains_key(&(e.target.index(), t))
        };
        for y in 0..bounds.height as i32 {
            for x in 0..bounds.width_at(y as u32) {
                let t = CartCoord::new(x, y);
                if !presence_src(&wire, &place, t) {
                    continue;
                }
                for dir in DIRS {
                    let s = t.neighbor(dir);
                    if in_bounds(s) && presence_dst(&wire, &place, s) {
                        step.insert((e.id, t, dir), em.var(CartKey::Step(e.id, t, dir)));
                    }
                }
            }
        }
    }

    // Tile capacity: universal, shared across probes.
    for y in 0..bounds.height as i32 {
        for x in 0..bounds.width_at(y as u32) {
            let t = CartCoord::new(x, y);
            let gates: Vec<Lit> = node_ids
                .iter()
                .filter_map(|n| place.get(&(n.index(), t)).copied())
                .collect();
            em.shared_at_most_one(&gates);
            if !gates.is_empty() {
                let occ = em.shared_or_all(&gates);
                for e in &graph.edges {
                    if let Some(&wv) = wire.get(&(e.id, t)) {
                        em.shared(vec![wv.negated(), occ.negated()]);
                    }
                }
            }
        }
    }

    // Flow constraints per edge, over the session universe (shared for
    // the same reason as in the hexagonal encoding: every probe's
    // models route each present edge through some step of the union).
    for e in &graph.edges {
        for y in 0..bounds.height as i32 {
            for x in 0..bounds.width_at(y as u32) {
                let t = CartCoord::new(x, y);
                let src_lits: Vec<Lit> = [
                    wire.get(&(e.id, t)).copied(),
                    place.get(&(e.source.index(), t)).copied(),
                ]
                .into_iter()
                .flatten()
                .collect();
                if !src_lits.is_empty() {
                    let outs: Vec<Lit> = DIRS
                        .into_iter()
                        .filter_map(|d| step.get(&(e.id, t, d)).copied())
                        .collect();
                    em.shared_at_most_one(&outs);
                    for &p in &src_lits {
                        let mut clause = vec![p.negated()];
                        clause.extend(outs.iter().copied());
                        em.shared(clause);
                    }
                    for &s in &outs {
                        let mut clause = vec![s.negated()];
                        clause.extend(src_lits.iter().copied());
                        em.shared(clause);
                    }
                }

                let dst_lits: Vec<Lit> = [
                    wire.get(&(e.id, t)).copied(),
                    place.get(&(e.target.index(), t)).copied(),
                ]
                .into_iter()
                .flatten()
                .collect();
                if !dst_lits.is_empty() {
                    let ins: Vec<Lit> = [CartDirection::West, CartDirection::North]
                        .into_iter()
                        .filter_map(|d| {
                            let n = t.neighbor(d);
                            let towards = d.opposite();
                            step.get(&(e.id, n, towards)).copied()
                        })
                        .collect();
                    em.shared_at_most_one(&ins);
                    for &p in &dst_lits {
                        let mut clause = vec![p.negated()];
                        clause.extend(ins.iter().copied());
                        em.shared(clause);
                    }
                    for &s in &ins {
                        let mut clause = vec![s.negated()];
                        clause.extend(dst_lits.iter().copied());
                        em.shared(clause);
                    }
                }
            }
        }
    }

    // Port exclusivity.
    for y in 0..bounds.height as i32 {
        for x in 0..bounds.width_at(y as u32) {
            let t = CartCoord::new(x, y);
            for d in DIRS {
                let users: Vec<Lit> = graph
                    .edges
                    .iter()
                    .filter_map(|e| step.get(&(e.id, t, d)).copied())
                    .collect();
                em.shared_at_most_one(&users);
            }
        }
    }

    Some(CartEncoding { place, wire, step })
}

/// Reads a satisfying model back into a Cartesian gate layout.
///
/// A satisfying model should always describe a coherent routing; if it
/// does not (an unplaced node or a routed tile without a matching
/// step), that is an encoding bug surfaced as a typed
/// [`PnrError::RouterInvariant`] rather than a worker panic, so the
/// flow's fallback path can degrade gracefully.
fn extract_layout(
    model: &Model,
    enc: &CartEncoding,
    graph: &NetGraph,
    ratio: AspectRatio,
) -> Result<CartGateLayout, PnrError> {
    let (w, h) = (ratio.width as i32, ratio.height as i32);
    let mut layout = CartGateLayout::new(ratio, ClockingScheme::TwoDdWave);
    let mut node_tile: HashMap<usize, CartCoord> = HashMap::new();
    for (&(n, t), &lit) in &enc.place {
        if model.lit_value(lit) {
            node_tile.insert(n, t);
        }
    }
    let step_true = |e: usize, t: CartCoord, d: CartDirection| {
        enc.step
            .get(&(e, t, d))
            .is_some_and(|&l| model.lit_value(l))
    };
    let incoming_dir = |e: usize, t: CartCoord| -> Option<CartDirection> {
        [CartDirection::West, CartDirection::North]
            .into_iter()
            .find(|&d| step_true(e, t.neighbor(d), d.opposite()))
    };
    let outgoing_dir = |e: usize, t: CartCoord| -> Option<CartDirection> {
        DIRS.into_iter().find(|&d| step_true(e, t, d))
    };
    let invariant = |t: CartCoord| PnrError::RouterInvariant { row: t.y, pos: t.x };

    for n in graph.network.node_ids() {
        let Some(&t) = node_tile.get(&n.index()) else {
            // The at-least-one placement clause guarantees a tile; a
            // missing one means the model is incoherent.
            return Err(PnrError::RouterInvariant { row: -1, pos: -1 });
        };
        let node = graph.network.node(n);
        let mut inputs = Vec::with_capacity(graph.in_edges[n.index()].len());
        for &e in &graph.in_edges[n.index()] {
            inputs.push(incoming_dir(e, t).ok_or_else(|| invariant(t))?);
        }
        let mut outputs = Vec::with_capacity(graph.out_edges[n.index()].len());
        for &e in &graph.out_edges[n.index()] {
            outputs.push(outgoing_dir(e, t).ok_or_else(|| invariant(t))?);
        }
        layout.place(
            t,
            TileContents::gate(node.kind, inputs, outputs, node.name.clone()),
        );
    }
    // Wire tiles, visited in deterministic edge-then-row-major order so
    // the per-tile segment lists are reproducible run to run.
    let mut segments: HashMap<CartCoord, Vec<(CartDirection, CartDirection)>> = HashMap::new();
    for e in &graph.edges {
        for y in 0..h {
            for x in 0..w {
                let t = CartCoord::new(x, y);
                let Some(&lit) = enc.wire.get(&(e.id, t)) else {
                    continue;
                };
                if model.lit_value(lit) {
                    segments.entry(t).or_default().push((
                        incoming_dir(e.id, t).ok_or_else(|| invariant(t))?,
                        outgoing_dir(e.id, t).ok_or_else(|| invariant(t))?,
                    ));
                }
            }
        }
    }
    for (t, segs) in segments {
        layout.place(t, TileContents::Wire { segments: segs });
    }
    Ok(layout)
}

/// Attempts to place & route at a fixed aspect ratio on a fresh solver.
/// The probe record is `None` when the ratio was discarded before
/// reaching the solver; such ratios still count as attempted. Also the
/// authoritative extraction path for the incremental mode's winner.
fn solve_ratio_scratch(
    graph: &NetGraph,
    ratio: AspectRatio,
    max_conflicts: u64,
    deadline: Deadline,
    cancel: &CancelFlag,
    blacklist: &HashSet<(i32, i32)>,
) -> ProbeOutcome<CartGateLayout, RatioProbe> {
    let _span = fcn_telemetry::span(format!("ratio:{}", ratio.label()));
    let mut em = ScratchEmitter::new();
    let Some(enc) = encode_ratio(&mut em, graph, ratio, None, blacklist) else {
        return ProbeOutcome::concluded(None, None);
    };
    let mut cnf = em.cnf;

    fcn_telemetry::counter("cnf.vars", cnf.solver().num_vars() as u64);
    fcn_telemetry::counter("cnf.clauses", cnf.solver().num_clauses() as u64);
    cnf.solver_mut().set_interrupt(cancel.clone());
    let outcome = cnf.solve_with(
        &SolveParams::new()
            .budget(max_conflicts)
            .interruptible()
            .deadline(deadline),
    );
    let stats = cnf.solver().stats();
    if let BoundedResult::Interrupted = outcome {
        fcn_telemetry::note("verdict", "cancelled");
        return ProbeOutcome::cancelled();
    }
    if let BoundedResult::DeadlineExpired = outcome {
        fcn_telemetry::note("verdict", "deadline-expired");
        return ProbeOutcome::aborted(ScanAbort::Deadline);
    }
    let verdict = match &outcome {
        BoundedResult::Sat(_) => ProbeVerdict::Sat,
        BoundedResult::Unsat => ProbeVerdict::Unsat,
        _ => ProbeVerdict::BudgetExceeded,
    };
    fcn_telemetry::counter("sat.conflicts", stats.conflicts);
    fcn_telemetry::counter("sat.decisions", stats.decisions);
    fcn_telemetry::counter("sat.propagations", stats.propagations);
    fcn_telemetry::counter("sat.restarts", stats.restarts);
    fcn_telemetry::note("verdict", verdict.to_string());
    let probe = RatioProbe {
        ratio,
        verdict,
        stats,
        retained: 0,
        extraction_conflicts: None,
    };
    let model = match outcome {
        BoundedResult::Sat(m) => m,
        _ => return ProbeOutcome::concluded(None, Some(probe)),
    };
    match extract_layout(&model, &enc, graph, ratio) {
        Ok(layout) => ProbeOutcome::concluded(Some(layout), Some(probe)),
        Err(e) => {
            // An incoherent model is an encoding bug; end the scan with
            // a typed abort instead of panicking inside the worker.
            fcn_telemetry::note("verdict", "router-invariant");
            let (row, pos) = match e {
                PnrError::RouterInvariant { row, pos } => (row, pos),
                _ => (-1, -1),
            };
            ProbeOutcome::aborted(ScanAbort::Router { row, pos })
        }
    }
}

/// Probes a fixed aspect ratio on the worker's incremental session (see
/// the hexagonal twin in [`crate::exact`] for the protocol: guarded
/// encoding, assumption solve, retirement, and an authoritative fresh
/// re-solve of SAT verdicts).
#[allow(clippy::too_many_arguments)]
fn solve_ratio_incremental(
    inc: &mut IncrementalCnf<CartKey>,
    graph: &NetGraph,
    ratio: AspectRatio,
    session: &SessionBounds,
    max_conflicts: u64,
    deadline: Deadline,
    cancel: &CancelFlag,
    blacklist: &HashSet<(i32, i32)>,
) -> ProbeOutcome<CartGateLayout, RatioProbe> {
    let _span = fcn_telemetry::span(format!("ratio:{}", ratio.label()));
    fcn_telemetry::note("mode", "incremental");
    let retained = inc.begin_probe();
    let encoded = encode_ratio(inc, graph, ratio, Some(session), blacklist).is_some();
    if !encoded {
        inc.end_probe();
        return ProbeOutcome::concluded(None, None);
    }
    fcn_telemetry::counter("sat.retained", retained);
    let outcome = inc.solve(max_conflicts, deadline, cancel);
    let stats = inc.stats();
    inc.end_probe();
    fcn_telemetry::counter("sat.conflicts", stats.conflicts);
    fcn_telemetry::counter("sat.decisions", stats.decisions);
    fcn_telemetry::counter("sat.propagations", stats.propagations);
    fcn_telemetry::counter("sat.restarts", stats.restarts);
    let verdict = match &outcome {
        BoundedResult::Sat(_) => "sat",
        BoundedResult::Unsat => "unsat",
        BoundedResult::BudgetExceeded => "budget-exceeded",
        BoundedResult::Interrupted => "cancelled",
        BoundedResult::DeadlineExpired => "deadline-expired",
    };
    fcn_telemetry::note("verdict", verdict);

    match outcome {
        BoundedResult::Interrupted => ProbeOutcome::cancelled(),
        BoundedResult::DeadlineExpired => ProbeOutcome::aborted(ScanAbort::Deadline),
        BoundedResult::Unsat => ProbeOutcome::concluded(
            None,
            Some(RatioProbe {
                ratio,
                verdict: ProbeVerdict::Unsat,
                stats,
                retained,
                extraction_conflicts: None,
            }),
        ),
        BoundedResult::BudgetExceeded => ProbeOutcome::concluded(
            None,
            Some(RatioProbe {
                ratio,
                verdict: ProbeVerdict::BudgetExceeded,
                stats,
                retained,
                extraction_conflicts: None,
            }),
        ),
        BoundedResult::Sat(_) => {
            let scratch =
                solve_ratio_scratch(graph, ratio, max_conflicts, deadline, cancel, blacklist);
            if scratch.cancelled || scratch.abort.is_some() {
                return scratch;
            }
            let mut probe = scratch.probe.expect("scratch probes always record");
            probe.retained = retained;
            match probe.verdict {
                ProbeVerdict::Sat => {
                    fcn_telemetry::counter("sat.extraction_conflicts", probe.stats.conflicts);
                    probe.extraction_conflicts = Some(probe.stats.conflicts);
                    probe.stats = stats;
                    ProbeOutcome::concluded(scratch.layout, Some(probe))
                }
                _ => {
                    probe.stats += stats;
                    ProbeOutcome::concluded(None, Some(probe))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_logic::network::Xag;
    use fcn_logic::techmap::{map_xag, MapOptions};

    fn pnr(xag: &Xag) -> PnrOutcome<CartGateLayout> {
        let net = map_xag(xag, MapOptions::default()).expect("mappable");
        let graph = NetGraph::new(net).expect("legalized");
        cartesian_exact_pnr(&graph, &ExactOptions::default()).expect("feasible")
    }

    #[test]
    fn routes_single_gate_on_2ddwave() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        let v = result.layout.verify();
        assert!(v.is_empty(), "{}\n{v:?}", result.layout.render_ascii());
    }

    #[test]
    fn routes_xor_with_fanouts() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let s = xag.xor(a, b);
        let c = xag.and(a, b);
        xag.primary_output("s", s);
        xag.primary_output("c", c);
        let result = pnr(&xag);
        assert!(result.layout.verify().is_empty());
    }

    #[test]
    fn cartesian_probes_surface_solver_stats() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.or(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        let last = result.probes.last().expect("at least the SAT probe");
        assert_eq!(last.verdict, ProbeVerdict::Sat);
        assert_eq!(last.ratio, result.ratio);
        let summed: u64 = result.probes.iter().map(|p| p.stats.decisions).sum();
        assert_eq!(result.stats.decisions, summed);
    }

    #[test]
    fn pads_sit_on_their_borders() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.or(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        let (w, h) = (result.ratio.width as i32, result.ratio.height as i32);
        for (coord, contents) in result.layout.occupied_tiles() {
            match contents.gate_kind() {
                Some(GateKind::Pi) => assert!(coord.x == 0 || coord.y == 0, "{coord}"),
                Some(GateKind::Po) => {
                    assert!(coord.x == w - 1 || coord.y == h - 1, "{coord}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn incremental_and_scratch_agree_on_cartesian_layouts() {
        // Sequential scans: the probe lists are compared verbatim.
        fcn_budget::exec::with_width(1, || {
            let mut xag = Xag::new();
            let a = xag.primary_input("a");
            let b = xag.primary_input("b");
            let s = xag.xor(a, b);
            let c = xag.and(a, b);
            xag.primary_output("s", s);
            xag.primary_output("c", c);
            let net = map_xag(&xag, MapOptions::default()).expect("mappable");
            let graph = NetGraph::new(net).expect("legalized");
            let base = ExactOptions::default();
            let warm = cartesian_exact_pnr(
                &graph,
                &ExactOptions {
                    incremental: true,
                    ..base.clone()
                },
            )
            .expect("feasible");
            let cold = cartesian_exact_pnr(
                &graph,
                &ExactOptions {
                    incremental: false,
                    ..base
                },
            )
            .expect("feasible");
            assert_eq!(warm.ratio, cold.ratio);
            assert_eq!(warm.ratios_tried, cold.ratios_tried);
            assert_eq!(warm.layout.render_ascii(), cold.layout.render_ascii());
            assert_eq!(cold.reuse, crate::incremental::ReuseStats::default());
        });
    }
}
