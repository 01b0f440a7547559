//! Exact (area-minimal) placement & routing via SAT, on the hexagonal
//! and on the Cartesian floor plan.
//!
//! The encoding follows the *exact* physical-design idea of
//! [Walter et al., DATE 2018]: enumerate layout aspect ratios in order of
//! increasing area and, for each ratio, decide with a solver whether the
//! mapped netlist fits. The first satisfiable ratio is area-minimal.
//!
//! One engine serves both floor plans. A crate-private `Topology`
//! supplies what differs — its clock levels, pad rules and tile
//! neighborhoods — and the shared scan runs the candidate enumeration,
//! encoding and model extraction over it.
//! [`exact_pnr`] runs it on the row-clocked hexagonal floor plan, and
//! [`crate::cartesian_exact_pnr`] on the Cartesian 2DDWave baseline.
//!
//! For a row-clocked hexagonal floor plan, information moves exactly one
//! row south per clock phase, so the problem becomes: assign every netlist
//! node to a tile (PIs in the top row, POs in the bottom row) and every
//! edge to a chain of wire tiles — one per intermediate row — such that
//! consecutive chain elements are diagonal neighbors, no two edges share
//! an output port, and a tile hosts either one gate or at most two wire
//! segments (a crossing or a parallel double wire, both of which exist as
//! Bestagon tiles). Because every PI→PO path then spans exactly `height`
//! rows, all signal paths are balanced and the layout's throughput is the
//! paper's reported 1/1.
//!
//! Variables per ratio: `place(n, t)`, `wire(e, t)` and `step(e, t, p)`
//! (edge `e` leaves tile `t` through outgoing port `p`).
//!
//! Every probe encodes its ratio into a fresh CNF and solves it on a
//! fresh solver, so a probe's verdict and solver counters depend on the
//! ratio alone — never on which probes ran before it or on which
//! portfolio worker ran it (DESIGN.md §8 says why probes stay cold).

use crate::netgraph::NetGraph;
use crate::portfolio::{run_portfolio, CancelFlag, ProbeOutcome, ScanAbort};
use fcn_budget::Deadline;
use fcn_coords::{AspectRatio, HexCoord, HexDirection};
use fcn_layout::clocking::ClockingScheme;
use fcn_layout::hexagonal::HexGateLayout;
use fcn_layout::tile::TileContents;
use fcn_logic::techmap::MappedId;
use fcn_logic::GateKind;
use msat::{BoundedResult, CnfBuilder, Lit, Model, SolveParams, SolverStats};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Options for the exact engine.
#[derive(Debug, Clone)]
pub struct ExactOptions {
    /// Upper bound on the explored layout area, in tiles.
    pub max_area: u64,
    /// Conflict budget per aspect ratio. A ratio whose SAT instance
    /// exceeds the budget is treated as infeasible and skipped, trading
    /// guaranteed minimality for bounded runtime on large netlists
    /// (`u64::MAX` restores full exactness).
    pub max_conflicts_per_ratio: u64,
    /// Wall-clock deadline for the whole scan. When it expires the scan
    /// stops and reports [`PnrError::DeadlineExpired`] (unless a winner
    /// was already committed); the flow degrades to the heuristic
    /// engine. Unbounded by default.
    pub deadline: Deadline,
    /// Cumulative conflict budget across *all* probes of the scan, on
    /// top of the per-ratio budget. Exhaustion stops the scan with
    /// [`PnrError::ConflictBudgetExhausted`]. Under a parallel
    /// portfolio the cut-off point depends on scheduling (the meter is
    /// shared across workers), so bounded runs trade the determinism
    /// guarantee for bounded work; `None` (the default) changes
    /// nothing.
    pub max_conflicts_total: Option<u64>,
    /// Tiles (in tile coordinates `(x, y)`) no gate or wire may occupy —
    /// typically tiles whose SiDB footprint a surface defect compromises.
    /// Each blacklisted tile contributes unit clauses forcing its
    /// placement and wire variables off, so the scan finds
    /// the area-minimal layout *avoiding* those tiles. Empty (the
    /// default) encodes nothing.
    pub blacklist: Vec<(i32, i32)>,
}

impl ExactOptions {
    /// Sets the tile blacklist (defect avoidance).
    #[must_use]
    pub fn with_blacklist(mut self, blacklist: Vec<(i32, i32)>) -> Self {
        self.blacklist = blacklist;
        self
    }
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            max_area: 120,
            max_conflicts_per_ratio: 10_000,
            deadline: Deadline::unbounded(),
            max_conflicts_total: None,
            blacklist: Vec::new(),
        }
    }
}

/// How one aspect-ratio SAT probe concluded.
///
/// Distinguishing [`ProbeVerdict::BudgetExceeded`] from genuine
/// [`ProbeVerdict::Unsat`] matters for callers: a skipped ratio means
/// the final result is merely *bounded-exact* (a smaller layout might
/// exist below the abandoned ratio), while a chain of UNSAT verdicts
/// preserves the area-minimality guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// The netlist fits at this ratio.
    Sat,
    /// Proven infeasible at this ratio.
    Unsat,
    /// The conflict budget ran out before a proof either way.
    BudgetExceeded,
}

impl core::fmt::Display for ProbeVerdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            ProbeVerdict::Sat => "sat",
            ProbeVerdict::Unsat => "unsat",
            ProbeVerdict::BudgetExceeded => "budget-exceeded",
        })
    }
}

/// Outcome and solver cost of one aspect-ratio probe.
#[derive(Debug, Clone, Copy)]
pub struct RatioProbe {
    /// The probed aspect ratio.
    pub ratio: AspectRatio,
    /// How the probe concluded.
    pub verdict: ProbeVerdict,
    /// Solver work spent deciding this probe on its fresh solver.
    pub stats: SolverStats,
}

/// Solver state carried between aspect-ratio probes. Every probe runs
/// on a fresh solver, so both fields are always zero; the type stays
/// because benchmark harnesses read these two fields from
/// [`PnrOutcome::reuse`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Probes that started with learned clauses already in the solver.
    pub warm_probes: u64,
    /// Learned clauses carried into probes, summed over probes.
    pub learned_retained: u64,
}

/// A successful placement & routing, generic over the layout type
/// produced by the engine ([`HexGateLayout`] for the hexagonal engine,
/// [`fcn_layout::cartesian::CartGateLayout`] for the Cartesian
/// baseline).
#[derive(Debug, Clone)]
pub struct PnrOutcome<L> {
    /// The resulting layout.
    pub layout: L,
    /// The area-minimal aspect ratio that was found.
    pub ratio: AspectRatio,
    /// Number of aspect ratios attempted (UNSAT + the final SAT one).
    pub ratios_tried: usize,
    /// Cumulative solver statistics over every probe.
    pub stats: SolverStats,
    /// Per-ratio verdicts and solver costs, in probing order.
    pub probes: Vec<RatioProbe>,
    /// Solver state carried between probes: always zero (see
    /// [`ReuseStats`]).
    pub reuse: ReuseStats,
}

impl<L> PnrOutcome<L> {
    /// True when every failed probe was a proven UNSAT, i.e. no ratio
    /// was abandoned on budget and the layout is truly area-minimal.
    pub fn is_provably_minimal(&self) -> bool {
        self.probes
            .iter()
            .all(|p| p.verdict != ProbeVerdict::BudgetExceeded)
    }
}

/// An error of a placement & routing engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PnrError {
    /// No aspect ratio within the area bound admits a legal layout.
    NoFeasibleRatio {
        /// The exhausted area bound.
        max_area: u64,
    },
    /// A router broke an internal invariant: the heuristic router's
    /// drift search found no legal position, or an exact engine's SAT
    /// model did not describe a coherent layout (a node without a tile,
    /// or a routed tile without a matching step). Reported as an error
    /// so the flow's fallback path degrades gracefully instead of
    /// aborting.
    RouterInvariant {
        /// The layout row where the invariant failed (`-1` when an exact
        /// engine's model left a node unplaced).
        row: i32,
        /// The heuristic router's doubled-coordinate position, or the
        /// column of an exact engine's offending tile (`-1` when the
        /// model left a node unplaced).
        pos: i32,
    },
    /// The scan's wall-clock deadline ([`ExactOptions::deadline`])
    /// expired before any ratio was proven SAT.
    DeadlineExpired,
    /// The cumulative conflict budget
    /// ([`ExactOptions::max_conflicts_total`]) ran out before any ratio
    /// was proven SAT.
    ConflictBudgetExhausted,
    /// A portfolio worker panicked. The scheduler caught the unwind,
    /// cancelled the sibling probes, and reports the stringified panic
    /// payload here instead of propagating it.
    WorkerPanic {
        /// The panic payload, rendered as a string.
        payload: String,
    },
}

impl core::fmt::Display for PnrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PnrError::NoFeasibleRatio { max_area } => {
                write!(f, "no feasible layout within {max_area} tiles")
            }
            PnrError::RouterInvariant { row, pos } => {
                write!(
                    f,
                    "router invariant violated at position {pos} in row {row}"
                )
            }
            PnrError::DeadlineExpired => {
                write!(f, "deadline expired before any feasible ratio was found")
            }
            PnrError::ConflictBudgetExhausted => {
                write!(
                    f,
                    "cumulative conflict budget exhausted before any feasible ratio was found"
                )
            }
            PnrError::WorkerPanic { payload } => {
                write!(f, "portfolio worker panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for PnrError {}

/// Runs exact placement & routing, returning an area-minimal layout.
///
/// # Errors
///
/// Returns [`PnrError::NoFeasibleRatio`] when the area bound is exhausted.
///
/// # Examples
///
/// ```
/// use fcn_logic::network::Xag;
/// use fcn_logic::techmap::{map_xag, MapOptions};
/// use fcn_pnr::{exact_pnr, ExactOptions, NetGraph};
///
/// let mut xag = Xag::new();
/// let a = xag.primary_input("a");
/// let b = xag.primary_input("b");
/// let f = xag.and(a, b);
/// xag.primary_output("f", f);
/// let net = map_xag(&xag, MapOptions::default())?;
/// let graph = NetGraph::new(net)?;
/// let result = exact_pnr(&graph, &ExactOptions::default())?;
/// assert!(result.layout.verify().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exact_pnr(
    graph: &NetGraph,
    options: &ExactOptions,
) -> Result<PnrOutcome<HexGateLayout>, PnrError> {
    scan::<HexRow>(graph, options)
}

/// What the scan-limit gate decides at the start of one probe.
enum ProbeGate {
    /// Proceed, with this effective conflict budget.
    Go(u64),
    /// A scan-wide limit is exhausted; end the scan.
    Abort(ScanAbort),
    /// Discard this probe without a verdict (injected interrupt).
    Cancelled,
}

/// Scan-wide resource limits shared by every probe of one P&R scan: the
/// wall-clock deadline plus the cumulative conflict meter, shared
/// across portfolio workers through an `Arc`. Also hosts the scan's
/// fault-injection point (`pnr.probe`).
#[derive(Clone)]
struct ScanLimits {
    deadline: Deadline,
    total: Option<u64>,
    spent: Arc<AtomicU64>,
}

impl ScanLimits {
    fn new(options: &ExactOptions) -> Self {
        ScanLimits {
            deadline: options.deadline,
            total: options.max_conflicts_total,
            spent: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The scan's wall-clock deadline, for threading into the solver.
    fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// The gate run at probe start: reports an abort when a scan-wide
    /// limit is already exhausted, otherwise the effective conflict
    /// budget for the probe — the per-ratio budget clamped to what
    /// remains of the cumulative one. Fault injection at `pnr.probe`
    /// can force a panic, an abort, or a cancelled probe here.
    ///
    /// With no limits configured and no fault plan armed this is a
    /// no-op returning the per-ratio budget unchanged, keeping
    /// unbudgeted scans byte-identical.
    fn pre_probe(&self, per_ratio: u64) -> ProbeGate {
        match fcn_budget::fault::check("pnr.probe") {
            Some(fcn_budget::fault::Fault::Exhaust) => {
                return ProbeGate::Abort(ScanAbort::ConflictBudget)
            }
            Some(fcn_budget::fault::Fault::Interrupt) => return ProbeGate::Cancelled,
            _ => {}
        }
        if self.deadline.expired() {
            return ProbeGate::Abort(ScanAbort::Deadline);
        }
        match self.total {
            None => ProbeGate::Go(per_ratio),
            Some(total) => {
                let spent = self.spent.load(Ordering::Relaxed);
                if spent >= total {
                    ProbeGate::Abort(ScanAbort::ConflictBudget)
                } else {
                    ProbeGate::Go(per_ratio.min(total - spent))
                }
            }
        }
    }

    /// Charges solver work against the cumulative meter.
    fn charge(&self, conflicts: u64) {
        if self.total.is_some() {
            self.spent.fetch_add(conflicts, Ordering::Relaxed);
        }
    }
}

/// A tile position `(x, y)` — column and row — on either floor plan.
pub(crate) type Tile = (i32, i32);

/// What sets one floor-plan topology apart for exact placement &
/// routing. Everything else — the candidate scan, the SAT encoding, the
/// model extraction and the probes — is shared by [`scan`] and written
/// once.
///
/// A topology orders its tiles into *levels*, one per clock phase (rows
/// under hexagonal Row clocking, anti-diagonals under Cartesian
/// 2DDWave); every edge advances exactly one level per tile step, so a
/// node scheduled at ASAP/ALAP level `l` must sit on level `l`'s tiles.
pub(crate) trait Topology {
    /// The two outgoing directions of a tile; a step variable's port is
    /// an index into this array.
    const OUTGOING: [Self::Dir; 2];
    /// A tile border direction.
    type Dir: Copy + PartialEq;
    /// The gate-level layout the engine produces.
    type Layout: Send;

    /// The number of levels of a ratio: the scheduling depth its ALAP
    /// levels are computed for.
    fn depth(ratio: AspectRatio) -> u32;
    /// The topology's own candidate filter, on top of the shared depth
    /// and area filters.
    fn admits(graph: &NetGraph, ratio: AspectRatio) -> bool;
    /// The tiles of `level` inside `ratio`'s rectangle, in emission
    /// order.
    fn level_tiles(ratio: AspectRatio, level: u32) -> impl Iterator<Item = Tile>;
    /// The inclusive level range a node of `kind` with schedule window
    /// `asap..=alap` may occupy.
    fn levels(kind: GateKind, asap: u32, alap: u32) -> (u32, u32);
    /// Whether a node of `kind` may sit on tile `t` in `ratio`; a
    /// placement variable exists only where this holds.
    fn pad_admissible(kind: GateKind, t: Tile, ratio: AspectRatio) -> bool;
    /// The tile an edge reaches leaving `t` through outgoing `port`.
    fn successor(t: Tile, port: usize) -> Tile;
    /// The two tiles an edge may arrive at `t` from, each with the
    /// outgoing port it leaves through and the border of `t` it enters by.
    fn predecessors(t: Tile) -> [(Tile, usize, Self::Dir); 2];
    /// An empty layout of `ratio` under the topology's clocking scheme.
    fn new_layout(ratio: AspectRatio) -> Self::Layout;
    /// Places `contents` on tile `t`.
    fn place(layout: &mut Self::Layout, t: Tile, contents: TileContents<Self::Dir>);
}

/// The hexagonal floor plan under Row clocking: level `y` is row `y`,
/// information flows south-west and south-east, PIs sit in the top row
/// and POs in the bottom row.
pub(crate) struct HexRow;

impl HexRow {
    fn coord((x, y): Tile) -> HexCoord {
        HexCoord::new(x, y)
    }

    fn tile(c: HexCoord) -> Tile {
        (c.x, c.y)
    }
}

impl Topology for HexRow {
    const OUTGOING: [HexDirection; 2] = HexDirection::OUTPUTS;
    type Dir = HexDirection;
    type Layout = HexGateLayout;

    fn depth(ratio: AspectRatio) -> u32 {
        ratio.height
    }

    /// PIs share the top row and POs the bottom one.
    fn admits(graph: &NetGraph, ratio: AspectRatio) -> bool {
        ratio.width >= graph.min_width()
    }

    /// Row `level`, west to east.
    fn level_tiles(ratio: AspectRatio, level: u32) -> impl Iterator<Item = Tile> {
        let width = if level < ratio.height { ratio.width } else { 0 };
        (0..width as i32).map(move |x| (x, level as i32))
    }

    /// PIs are pinned to row 0, and a Po to the last row — the row ALAP
    /// pins it to.
    fn levels(kind: GateKind, asap: u32, alap: u32) -> (u32, u32) {
        match kind {
            GateKind::Pi => (0, 0),
            GateKind::Po => (alap, alap),
            _ => (asap, alap),
        }
    }

    /// The pad rows are level ranges; every tile of a row may host a pad.
    fn pad_admissible(_: GateKind, _: Tile, _: AspectRatio) -> bool {
        true
    }

    fn successor(t: Tile, port: usize) -> Tile {
        Self::tile(Self::coord(t).neighbor(Self::OUTGOING[port]))
    }

    /// The north-west neighbor steps south-east into `t`, the north-east
    /// neighbor south-west.
    fn predecessors(t: Tile) -> [(Tile, usize, HexDirection); 2] {
        let c = Self::coord(t);
        [
            (
                Self::tile(c.neighbor(HexDirection::NorthWest)),
                1,
                HexDirection::NorthWest,
            ),
            (
                Self::tile(c.neighbor(HexDirection::NorthEast)),
                0,
                HexDirection::NorthEast,
            ),
        ]
    }

    fn new_layout(ratio: AspectRatio) -> HexGateLayout {
        HexGateLayout::new(ratio, ClockingScheme::Row)
    }

    fn place(layout: &mut HexGateLayout, t: Tile, contents: TileContents<HexDirection>) {
        layout.place(Self::coord(t), contents);
    }
}

/// Runs exact placement & routing on topology `T`: the aspect-ratio
/// candidates in area order, each probed on a fresh solver through the
/// parallel portfolio.
pub(crate) fn scan<T: Topology>(
    graph: &NetGraph,
    options: &ExactOptions,
) -> Result<PnrOutcome<T::Layout>, PnrError> {
    let num_nodes = graph.network.num_nodes() as u64;
    // Materialize the candidate stream up front: the filters are cheap
    // relative to a single SAT probe, and a concrete slice lets the
    // portfolio dispatch candidates to workers in area order.
    let candidates: Vec<(AspectRatio, Vec<u32>)> = AspectRatio::in_area_order(options.max_area)
        .filter(|&ratio| {
            T::depth(ratio) >= graph.min_height()
                && ratio.tile_count() >= num_nodes
                && T::admits(graph, ratio)
        })
        .filter_map(|ratio| Some((ratio, graph.alap(T::depth(ratio))?)))
        .collect();
    let limits = ScanLimits::new(options);
    let blacklist: HashSet<Tile> = options.blacklist.iter().copied().collect();

    let outcome = run_portfolio(&candidates, |_, (ratio, alap), cancel| {
        let budget = match limits.pre_probe(options.max_conflicts_per_ratio) {
            ProbeGate::Go(budget) => budget,
            ProbeGate::Abort(abort) => return ProbeOutcome::aborted(abort),
            ProbeGate::Cancelled => return ProbeOutcome::cancelled(),
        };
        let out = solve_ratio::<T>(&ProbeInput {
            graph,
            ratio: *ratio,
            alap,
            max_conflicts: budget,
            deadline: limits.deadline(),
            cancel,
            blacklist: &blacklist,
        });
        if let Some(probe) = &out.probe {
            limits.charge(probe.stats.conflicts);
        }
        out
    });
    assemble_outcome(outcome, |idx| candidates[idx].0, options)
}

/// Folds a portfolio run into the engine result: cumulative solver
/// stats and the winner — or [`PnrError::NoFeasibleRatio`] when no
/// probe was SAT. `ratio_of` maps a candidate index back to its
/// aspect ratio.
fn assemble_outcome<L>(
    outcome: crate::portfolio::PortfolioOutcome<L, RatioProbe>,
    ratio_of: impl Fn(usize) -> AspectRatio,
    options: &ExactOptions,
) -> Result<PnrOutcome<L>, PnrError> {
    if outcome.cancelled > 0 {
        fcn_telemetry::counter("probes.cancelled", outcome.cancelled as u64);
    }

    let mut cumulative = SolverStats::default();
    for probe in &outcome.probes {
        cumulative += probe.stats;
    }
    if let Some(payload) = outcome.panicked {
        // A panicked worker poisons the scan even when another probe
        // found a layout: the panic is an internal bug whose blast
        // radius is unknown, so surface it and let the caller degrade.
        fcn_telemetry::note("verdict", "worker-panic");
        return Err(PnrError::WorkerPanic { payload });
    }
    match outcome.winner {
        Some((idx, layout)) => Ok(PnrOutcome {
            layout,
            ratio: ratio_of(idx),
            ratios_tried: outcome.attempted,
            stats: cumulative,
            probes: outcome.probes,
            reuse: ReuseStats::default(),
        }),
        None => match outcome.aborted {
            Some(ScanAbort::Deadline) => {
                fcn_telemetry::note("verdict", "deadline-expired");
                Err(PnrError::DeadlineExpired)
            }
            Some(ScanAbort::ConflictBudget) => {
                fcn_telemetry::note("verdict", "conflict-budget-exhausted");
                Err(PnrError::ConflictBudgetExhausted)
            }
            Some(ScanAbort::Router { row, pos }) => {
                fcn_telemetry::note("verdict", "router-invariant");
                Err(PnrError::RouterInvariant { row, pos })
            }
            None => {
                fcn_telemetry::note("verdict", "no-feasible-ratio");
                Err(PnrError::NoFeasibleRatio {
                    max_area: options.max_area,
                })
            }
        },
    }
}

/// Whether tile `t` lies inside `ratio`'s rectangle.
fn in_ratio(ratio: AspectRatio, (x, y): Tile) -> bool {
    x >= 0 && y >= 0 && x < ratio.width as i32 && y < ratio.height as i32
}

/// Every tile of `ratio`'s rectangle, row-major.
fn ratio_tiles(ratio: AspectRatio) -> impl Iterator<Item = Tile> {
    let (w, h) = (ratio.width as i32, ratio.height as i32);
    (0..h).flat_map(move |y| (0..w).map(move |x| (x, y)))
}

/// The problem variables of one aspect-ratio encoding, read back by the
/// model extraction.
struct Encoding {
    place: HashMap<(usize, Tile), Lit>,
    wire: HashMap<(usize, Tile), Lit>,
    step: HashMap<(usize, Tile, usize), Lit>,
}

/// Encodes the placement & routing problem of topology `T` at a fixed
/// aspect ratio into `cnf`.
///
/// The problem: assign every node to a tile on its allowed levels and
/// every edge to a chain of wire tiles — one per intermediate level —
/// such that consecutive chain elements are neighbors through an
/// outgoing port, no two edges share an output port, and a tile hosts
/// either one gate or wire segments only. Variables: `place(n, t)`,
/// `wire(e, t)` and `step(e, t, port)`, created only inside the ratio's
/// rectangle and only where the ratio admits them.
///
/// Returns `None` when some node has no admissible tile in the ratio;
/// such ratios are discarded before reaching the solver but still count
/// as attempted.
fn encode_ratio<T: Topology>(
    cnf: &mut CnfBuilder,
    graph: &NetGraph,
    ratio: AspectRatio,
    alap: &[u32],
    blacklist: &HashSet<Tile>,
) -> Option<Encoding> {
    let levels = |n: MappedId| {
        let kind = graph.network.node(n).kind;
        T::levels(kind, graph.asap[n.index()], alap[n.index()])
    };
    let node_ids: Vec<MappedId> = graph.network.node_ids().collect();

    // place(n, t): exactly one admissible tile per node.
    let mut place: HashMap<(usize, Tile), Lit> = HashMap::new();
    for &n in &node_ids {
        let kind = graph.network.node(n).kind;
        let (lo, hi) = levels(n);
        let mut vars = Vec::new();
        for level in lo..=hi {
            for t in T::level_tiles(ratio, level) {
                if !T::pad_admissible(kind, t, ratio) {
                    continue;
                }
                let lit = cnf.new_lit();
                place.insert((n.index(), t), lit);
                vars.push(lit);
                // Defect avoidance: no node on a compromised tile.
                if blacklist.contains(&t) {
                    cnf.add_clause([lit.negated()]);
                }
            }
        }
        if vars.is_empty() {
            return None;
        }
        cnf.add_clause(vars.iter().copied());
        cnf.at_most_one(&vars);
    }

    // wire(e, t) — levels strictly between the source's earliest and the
    // target's latest placement levels.
    let mut wire: HashMap<(usize, Tile), Lit> = HashMap::new();
    for e in &graph.edges {
        let (src_lo, _) = levels(e.source);
        let (_, dst_hi) = levels(e.target);
        for level in (src_lo + 1)..dst_hi {
            for t in T::level_tiles(ratio, level) {
                let lit = cnf.new_lit();
                wire.insert((e.id, t), lit);
                if blacklist.contains(&t) {
                    cnf.add_clause([lit.negated()]);
                }
            }
        }
    }

    // step(e, t, port): edge e leaves tile t through an outgoing port.
    // Exists only where both endpoints can carry the edge.
    let mut step: HashMap<(usize, Tile, usize), Lit> = HashMap::new();
    for e in &graph.edges {
        let presence = |node: MappedId, t: Tile| {
            wire.contains_key(&(e.id, t)) || place.contains_key(&(node.index(), t))
        };
        for t in ratio_tiles(ratio) {
            if !presence(e.source, t) {
                continue;
            }
            for port in 0..2 {
                let s = T::successor(t, port);
                if in_ratio(ratio, s) && presence(e.target, s) {
                    step.insert((e.id, t, port), cnf.new_lit());
                }
            }
        }
    }

    // Tile capacity: at most one gate; gates exclude wires.
    for t in ratio_tiles(ratio) {
        let gates: Vec<Lit> = node_ids
            .iter()
            .filter_map(|n| place.get(&(n.index(), t)).copied())
            .collect();
        cnf.at_most_one(&gates);
        if !gates.is_empty() {
            let occ = cnf.or_all(gates.iter().copied());
            for e in &graph.edges {
                if let Some(&wv) = wire.get(&(e.id, t)) {
                    cnf.add_clause([wv.negated(), occ.negated()]);
                }
            }
        }
    }

    // Flow constraints per edge: a present edge leaves and enters every
    // tile it occupies through exactly one step.
    for e in &graph.edges {
        for t in ratio_tiles(ratio) {
            let src_lits: Vec<Lit> = [
                wire.get(&(e.id, t)).copied(),
                place.get(&(e.source.index(), t)).copied(),
            ]
            .into_iter()
            .flatten()
            .collect();
            if !src_lits.is_empty() {
                let outs: Vec<Lit> = (0..2)
                    .filter_map(|port| step.get(&(e.id, t, port)).copied())
                    .collect();
                // presence → exactly one outgoing step.
                cnf.at_most_one(&outs);
                for &p in &src_lits {
                    let mut clause = vec![p.negated()];
                    clause.extend(outs.iter().copied());
                    cnf.add_clause(clause);
                }
                // step → presence at source.
                for &s in &outs {
                    let mut clause = vec![s.negated()];
                    clause.extend(src_lits.iter().copied());
                    cnf.add_clause(clause);
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
                let ins: Vec<Lit> = T::predecessors(t)
                    .into_iter()
                    .filter_map(|(p, port, _)| step.get(&(e.id, p, port)).copied())
                    .collect();
                cnf.at_most_one(&ins);
                for &p in &dst_lits {
                    let mut clause = vec![p.negated()];
                    clause.extend(ins.iter().copied());
                    cnf.add_clause(clause);
                }
                // step → presence at destination.
                for &s in &ins {
                    let mut clause = vec![s.negated()];
                    clause.extend(dst_lits.iter().copied());
                    cnf.add_clause(clause);
                }
            }
        }
    }

    // Port exclusivity: at most one edge leaves a tile through each port.
    for t in ratio_tiles(ratio) {
        for port in 0..2 {
            let users: Vec<Lit> = graph
                .edges
                .iter()
                .filter_map(|e| step.get(&(e.id, t, port)).copied())
                .collect();
            cnf.at_most_one(&users);
        }
    }

    Some(Encoding { place, wire, step })
}

/// Reads a satisfying model back into a gate layout of topology `T`.
///
/// A satisfying model should always describe a coherent routing; if it
/// does not (an unplaced node or a routed tile without a matching
/// step), that is an encoding bug surfaced as a typed
/// [`ScanAbort::Router`] rather than a worker panic, so the flow's
/// fallback path can degrade gracefully.
fn extract_layout<T: Topology>(
    model: &Model,
    enc: &Encoding,
    graph: &NetGraph,
    ratio: AspectRatio,
) -> Result<T::Layout, ScanAbort> {
    let (w, h) = (ratio.width as i32, ratio.height as i32);
    let mut layout = T::new_layout(ratio);
    let mut node_tile: HashMap<usize, Tile> = HashMap::new();
    for (&(n, t), &lit) in &enc.place {
        if model.lit_value(lit) {
            node_tile.insert(n, t);
        }
    }
    let step_true = |e: usize, t: Tile, port: usize| {
        enc.step
            .get(&(e, t, port))
            .is_some_and(|&l| model.lit_value(l))
    };
    // The border edge e enters tile t by, and the one it leaves by.
    let incoming = |e: usize, t: Tile| {
        T::predecessors(t)
            .into_iter()
            .find_map(|(p, port, dir)| step_true(e, p, port).then_some(dir))
            .ok_or(ScanAbort::Router { row: t.1, pos: t.0 })
    };
    let outgoing = |e: usize, t: Tile| {
        (0..2)
            .find(|&port| step_true(e, t, port))
            .map(|port| T::OUTGOING[port])
            .ok_or(ScanAbort::Router { row: t.1, pos: t.0 })
    };

    // Gate tiles.
    for n in graph.network.node_ids() {
        let Some(&t) = node_tile.get(&n.index()) else {
            // The at-least-one placement clause guarantees a tile; a
            // missing one means the model is incoherent.
            return Err(ScanAbort::Router { row: -1, pos: -1 });
        };
        let node = graph.network.node(n);
        let inputs = graph.in_edges[n.index()]
            .iter()
            .map(|&e| incoming(e, t))
            .collect::<Result<Vec<_>, _>>()?;
        let outputs = graph.out_edges[n.index()]
            .iter()
            .map(|&e| outgoing(e, t))
            .collect::<Result<Vec<_>, _>>()?;
        T::place(
            &mut layout,
            t,
            TileContents::gate(node.kind, inputs, outputs, node.name.clone()),
        );
    }

    // Wire tiles (grouping the segments per tile), visited in
    // deterministic edge-then-row-major order so the per-tile segment
    // lists are reproducible run to run.
    let mut segments: HashMap<Tile, Vec<_>> = HashMap::new();
    for e in &graph.edges {
        for y in 0..h {
            for x in 0..w {
                let t = (x, y);
                let Some(&lit) = enc.wire.get(&(e.id, t)) else {
                    continue;
                };
                if model.lit_value(lit) {
                    let seg = (incoming(e.id, t)?, outgoing(e.id, t)?);
                    segments.entry(t).or_default().push(seg);
                }
            }
        }
    }
    for (t, segs) in segments {
        T::place(&mut layout, t, TileContents::Wire { segments: segs });
    }
    Ok(layout)
}

/// What one aspect-ratio probe solves: the ratio with its ALAP schedule,
/// plus the limits and context every probe of the scan shares.
struct ProbeInput<'a> {
    graph: &'a NetGraph,
    ratio: AspectRatio,
    alap: &'a [u32],
    max_conflicts: u64,
    deadline: Deadline,
    cancel: &'a CancelFlag,
    blacklist: &'a HashSet<Tile>,
}

/// Attempts to place & route at the probe's ratio on a fresh solver,
/// reporting the verdict and solver cost alongside any layout found.
/// The cancel flag is forwarded to the solver's cooperative
/// interrupt; a cancelled probe yields no probe record, nor does a
/// ratio discarded before reaching the solver (which still counts
/// as attempted).
fn solve_ratio<T: Topology>(p: &ProbeInput) -> ProbeOutcome<T::Layout, RatioProbe> {
    let _span = fcn_telemetry::span(format!("ratio:{}", p.ratio.label()));
    let mut cnf = CnfBuilder::new();
    let Some(enc) = encode_ratio::<T>(&mut cnf, p.graph, p.ratio, p.alap, p.blacklist) else {
        return ProbeOutcome::concluded(None, None);
    };

    fcn_telemetry::counter("cnf.vars", cnf.solver().num_vars() as u64);
    fcn_telemetry::counter("cnf.clauses", cnf.solver().num_clauses() as u64);
    let outcome = cnf.solve_with(
        &SolveParams::new()
            .budget(p.max_conflicts)
            .cancel(p.cancel.clone())
            .deadline(p.deadline),
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
    record_solver_work(stats);
    fcn_telemetry::note("verdict", verdict.to_string());
    let probe = RatioProbe {
        ratio: p.ratio,
        verdict,
        stats,
    };
    let model = match outcome {
        BoundedResult::Sat(m) => m,
        _ => return ProbeOutcome::concluded(None, Some(probe)),
    };
    match extract_layout::<T>(&model, &enc, p.graph, p.ratio) {
        Ok(layout) => ProbeOutcome::concluded(Some(layout), Some(probe)),
        Err(abort) => {
            // An incoherent model is an encoding bug; end the scan
            // with a typed abort instead of panicking in the worker.
            fcn_telemetry::note("verdict", "router-invariant");
            ProbeOutcome::aborted(abort)
        }
    }
}

/// Records one probe's solver work as telemetry counters.
fn record_solver_work(stats: SolverStats) {
    fcn_telemetry::counter("sat.conflicts", stats.conflicts);
    fcn_telemetry::counter("sat.decisions", stats.decisions);
    fcn_telemetry::counter("sat.propagations", stats.propagations);
    fcn_telemetry::counter("sat.restarts", stats.restarts);
    fcn_telemetry::histogram("pnr.probe.conflicts", stats.conflicts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_logic::network::Xag;
    use fcn_logic::techmap::{map_xag, MapOptions};

    fn pnr(xag: &Xag) -> PnrOutcome<HexGateLayout> {
        let net = map_xag(xag, MapOptions::default()).expect("mappable");
        let graph = NetGraph::new(net).expect("legalized");
        exact_pnr(&graph, &ExactOptions::default()).expect("feasible")
    }

    #[test]
    fn routes_a_single_and_gate() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        let v = result.layout.verify();
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(result.ratio.height, 3); // PI row, gate row, PO row
        assert_eq!(result.ratio.width, 2);
        assert_eq!(result.layout.num_logic_tiles(), 1);
    }

    #[test]
    fn routes_an_inverter_chain() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        xag.primary_output("f", !a);
        let result = pnr(&xag);
        assert!(result.layout.verify().is_empty());
        // PI, INV, PO stacked vertically: 1 × 3.
        assert_eq!(result.ratio.tile_count(), 3);
    }

    #[test]
    fn routes_xor2_benchmark() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.xor(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        assert!(result.layout.verify().is_empty());
        assert_eq!(result.ratio, AspectRatio::new(2, 3));
    }

    #[test]
    fn routes_shared_fanin_with_fanouts() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let s = xag.xor(a, b);
        let c = xag.and(a, b);
        xag.primary_output("s", s);
        xag.primary_output("c", c);
        let net = map_xag(
            &xag,
            MapOptions {
                extract_half_adders: false,
                legalize_fanout: true,
            },
        )
        .expect("mappable");
        let graph = NetGraph::new(net).expect("legalized");
        let result = exact_pnr(&graph, &ExactOptions::default()).expect("feasible");
        let v = result.layout.verify();
        assert!(v.is_empty(), "{}\n{v:?}", result.layout.render_ascii());
    }

    #[test]
    fn half_adder_single_tile_layout_is_small() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let s = xag.xor(a, b);
        let c = xag.and(a, b);
        xag.primary_output("s", s);
        xag.primary_output("c", c);
        let result = pnr(&xag);
        assert!(result.layout.verify().is_empty());
        // PI row + HA row + PO row at width 2 = 6 tiles.
        assert_eq!(result.ratio.tile_count(), 6);
    }

    #[test]
    fn probes_and_cumulative_stats_are_surfaced() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.xor(a, b);
        xag.primary_output("f", f);
        let result = pnr(&xag);
        assert_eq!(result.probes.len(), result.ratios_tried);
        let last = result.probes.last().expect("at least the SAT probe");
        assert_eq!(last.verdict, ProbeVerdict::Sat);
        assert_eq!(last.ratio, result.ratio);
        for earlier in &result.probes[..result.probes.len() - 1] {
            assert_eq!(earlier.verdict, ProbeVerdict::Unsat);
        }
        assert!(result.is_provably_minimal());
        let summed: u64 = result.probes.iter().map(|p| p.stats.conflicts).sum();
        assert_eq!(result.stats.conflicts, summed);
        let summed: u64 = result.probes.iter().map(|p| p.stats.decisions).sum();
        assert_eq!(result.stats.decisions, summed);
    }

    #[test]
    fn infeasible_area_bound_errors() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        xag.primary_output("f", f);
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let graph = NetGraph::new(net).expect("legalized");
        let err = exact_pnr(
            &graph,
            &ExactOptions {
                max_area: 3,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, PnrError::NoFeasibleRatio { max_area: 3 });
    }

    #[test]
    fn first_sat_ratio_is_area_minimal() {
        // mux21: s ? b : a — needs crossings/fanouts; check minimality by
        // asserting all strictly smaller ratios fail.
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let s = xag.primary_input("s");
        let m = xag.mux(s, a, b);
        xag.primary_output("m", m);
        let net = map_xag(&xag, MapOptions::default()).expect("mappable");
        let graph = NetGraph::new(net).expect("legalized");
        let result = exact_pnr(&graph, &ExactOptions::default()).expect("feasible");
        assert!(result.layout.verify().is_empty());
        assert!(result.ratios_tried >= 1);
        let area = result.ratio.tile_count();
        // All ratios tried before the winner had smaller-or-equal area by
        // construction of the search order.
        assert!(area <= ExactOptions::default().max_area);
    }
}
