//! An automated gate designer — the reproduction's stand-in for the
//! paper's reinforcement-learning agent [Lupoiu et al., 2022].
//!
//! Given a partial gate design (ports, wire stubs, and a truth table),
//! the designer searches for *canvas* dots that make the design
//! operational. The search runs **parallel restarts** on the ordered
//! executor ([`fcn_budget::exec`], sized by `THREADS`), each restart
//! seeded deterministically from the option seed and its restart index,
//! so the returned design is byte-identical at any width. Within a
//! restart, odd indices run a **simulated-annealing** schedule and even
//! indices the classic hill climber ([`SearchStrategy::Mixed`]), both
//! over structured mutation moves: single-dot placement, BDL-pair-aware
//! placement (two dots at the library's pair geometry), paired moves,
//! and symmetry mirroring across the canvas midline.
//!
//! Every candidate is scored by exact ground-state simulation
//! ([`sidb_sim::engine::simulate_with`], QuickExact) across all input
//! patterns — the same accept/reject signal the RL agent received —
//! through a **process-shared [`SimCache`]**, so restarts that revisit a
//! canvas answer from memory. Budget-truncated simulations are surfaced
//! as *unevaluated* ([`Score::unevaluated`]), never as "wrong", and a
//! deadline- or budget-halted search returns its best-so-far with an
//! honest [`DesignDegradation`] record instead of erroring or hanging.
//! Designs that pass are returned for manual review and inclusion in
//! the library, mirroring the paper's workflow ("the layouts are
//! manually reviewed and edited as needed").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use fcn_budget::exec::{run_ordered, CancelFlag, Signal};
use fcn_budget::StepBudget;
use fcn_coords::LatticeCoord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sidb_sim::cache::SimCache;
use sidb_sim::engine::{SimEngine, SimParams, SimStats};
use sidb_sim::model::PhysicalParams;
use sidb_sim::operational::GateDesign;

use crate::geometry::{INPUT_ROW, OUTPUT_ROW, PAIR_HALF_WIDTH, TILE_WIDTH};

/// Which local-search strategy a restart runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Greedy hill climbing (accept only non-worsening moves).
    HillClimb,
    /// Simulated annealing with a geometric cooling schedule.
    Anneal,
    /// Even restart indices hill-climb, odd ones anneal (the default:
    /// climbers converge fast, annealers escape the climbers' plateaus).
    #[default]
    Mixed,
}

/// Options controlling the canvas search.
///
/// Construct with [`DesignerOptions::new`] (or `Default`) and chain
/// `with_*` calls; the struct is `#[non_exhaustive]` so knobs can be
/// added without breaking callers.
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct DesignerOptions {
    /// Canvas region `(min_x, min_y, max_x, max_y)` in tile-local cells;
    /// `None` derives the region from the design's body bounding box
    /// (see [`derived_region`]), so two-output tiles get a canvas
    /// spanning both output columns.
    pub region: Option<(i32, i32, i32, i32)>,
    /// Maximum number of canvas dots.
    pub max_dots: usize,
    /// Search iterations per restart.
    pub iterations: usize,
    /// Number of restarts (run in parallel on the ordered executor).
    pub restarts: usize,
    /// RNG seed; each restart derives its own stream from it.
    pub seed: u64,
    /// Search budget: `max_steps` caps *candidate evaluations* across
    /// all restarts, `deadline` bounds wall clock (also threaded into
    /// each simulation, so even one oversized sweep cannot hang the
    /// search). A bounded run degrades honestly; see
    /// [`DesignResult::degradation`].
    pub budget: StepBudget,
    /// The local-search strategy.
    pub strategy: SearchStrategy,
}

impl Default for DesignerOptions {
    fn default() -> Self {
        DesignerOptions {
            region: None,
            max_dots: 4,
            iterations: 300,
            restarts: 6,
            seed: 0xbe57a607,
            budget: StepBudget::unbounded(),
            strategy: SearchStrategy::Mixed,
        }
    }
}

impl DesignerOptions {
    /// The default search configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins the canvas region `(min_x, min_y, max_x, max_y)`.
    #[must_use]
    pub fn with_region(mut self, region: (i32, i32, i32, i32)) -> Self {
        self.region = Some(region);
        self
    }

    /// Caps the number of canvas dots.
    #[must_use]
    pub fn with_max_dots(mut self, max_dots: usize) -> Self {
        self.max_dots = max_dots;
        self
    }

    /// Sets the iterations per restart.
    #[must_use]
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the number of restarts.
    #[must_use]
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bounds the search by a candidate/wall-clock budget.
    #[must_use]
    pub fn with_budget(mut self, budget: StepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Selects the local-search strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// The canvas region derived from a design's body bounding box: the
/// body's horizontal span and the rows strictly between the port rows,
/// clamped to the tile. Two-output tiles (fan-out, half adder) span
/// both output columns this way, which the old fixed default did not.
pub fn derived_region(base: &GateDesign) -> (i32, i32, i32, i32) {
    match base.body.bounding_box() {
        Some(((min_x, min_y), (max_x, max_y))) => {
            let x0 = min_x.max(PAIR_HALF_WIDTH);
            let x1 = max_x.min(TILE_WIDTH - 1 - PAIR_HALF_WIDTH);
            let y0 = (min_y + 2).max(INPUT_ROW + 2);
            let y1 = (max_y - 2).min(OUTPUT_ROW - 2);
            if x0 <= x1 && y0 <= y1 {
                return (x0, y0, x1, y1);
            }
            (x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1))
        }
        None => (1, INPUT_ROW + 2, TILE_WIDTH - 2, OUTPUT_ROW - 2),
    }
}

/// The score of a candidate: patterns correct, read-out crispness, and
/// the number of *unevaluated* patterns (budget-truncated or infeasible
/// simulations — unknown, distinct from "simulated and wrong").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Outputs that matched the truth table (over all patterns).
    pub correct: u32,
    /// Matched outputs minus ambiguous read-outs (tie-breaker).
    pub crisp: i32,
    /// Patterns whose simulation did not complete; when non-zero the
    /// other two fields undercount and the score is not trusted.
    pub unevaluated: u32,
}

impl Score {
    /// Whether every output of every pattern was simulated and correct.
    pub fn is_perfect(&self, target: u32) -> bool {
        self.unevaluated == 0 && self.correct == target
    }

    /// Whether this trusted score beats `other` (correct, then crisp).
    /// Untrusted (partially unevaluated) scores never win.
    fn better_than(&self, other: &Score) -> bool {
        self.unevaluated == 0 && (self.correct, self.crisp) > (other.correct, other.crisp)
    }

    /// Annealing scalarization: one pattern-output ≫ any crispness gap.
    fn scalar(&self) -> f64 {
        f64::from(self.correct) * 1000.0 + f64::from(self.crisp)
    }
}

/// Scores a design: simulates every input pattern and compares the
/// decoded outputs with the truth table.
fn score(design: &GateDesign, sim_params: &SimParams, sim_stats: &mut SimStats) -> Score {
    let mut s = Score::default();
    for pattern in 0..design.num_patterns() {
        let eval = design.evaluate_pattern_with(pattern, sim_params);
        sim_stats.merge(&eval.stats);
        if !eval.evaluated {
            s.unevaluated += 1;
            continue;
        }
        let expected = &design.truth_table[pattern as usize];
        for (obs, exp) in eval.outputs.iter().zip(expected) {
            match obs {
                Some(v) if v == exp => {
                    s.correct += 1;
                    s.crisp += 1;
                }
                Some(_) => {}
                None => s.crisp -= 1, // ambiguous reads are worse than wrong
            }
        }
    }
    s
}

/// The perfect score for a design (every output of every pattern right).
fn max_score(design: &GateDesign) -> u32 {
    design.num_patterns() * design.outputs.len() as u32
}

/// What stopped a search early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignTrigger {
    /// The wall-clock deadline expired.
    Deadline,
    /// The candidate-evaluation budget ran out.
    Budget,
    /// An injected `designer.restart` exhaustion fault.
    Fault,
}

/// An honest record that the search was cut short and the result is the
/// best-so-far, not the search's full potential.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignDegradation {
    /// What cut the search short.
    pub trigger: DesignTrigger,
    /// Human-readable context (restarts completed, candidates scored).
    pub detail: String,
}

/// Work counters of one `design_canvas` run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignerStats {
    /// Candidate designs scored (each costs `2^inputs` simulations).
    pub candidates: u64,
    /// Candidates whose score saw at least one unevaluated pattern.
    pub untrusted: u64,
    /// Restarts that ran to completion (or found a perfect design).
    pub restarts_completed: u32,
    /// Restarts skipped or cancelled after a lower-indexed restart had
    /// already found a perfect design.
    pub restarts_skipped: u32,
    /// Restarts recomputed on the coordinator after a worker fault.
    pub recovered: u32,
    /// Merged simulation counters (visited, pruned, cache hits, …).
    pub sim: SimStats,
}

/// The outcome of a canvas search: the best design found — perfect or
/// not — with its score, so callers can inspect near-misses.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// The best design found (base plus [`Self::canvas`]).
    pub design: GateDesign,
    /// The canvas dots the search added to the base design.
    pub canvas: Vec<LatticeCoord>,
    /// The best design's score.
    pub score: Score,
    /// The perfect score ([`Score::correct`] needed for operationality).
    pub target: u32,
    /// Work counters.
    pub stats: DesignerStats,
    /// Set when the search was deadline/budget/fault-bounded and
    /// stopped before exhausting its restarts.
    pub degradation: Option<DesignDegradation>,
}

impl DesignResult {
    /// Whether the returned design reproduces its full truth table.
    pub fn is_operational(&self) -> bool {
        self.score.is_perfect(self.target)
    }

    /// The repaired design when the search succeeded, `None` otherwise
    /// (the old `design_canvas` contract).
    pub fn into_operational(self) -> Option<GateDesign> {
        if self.is_operational() {
            Some(self.design)
        } else {
            None
        }
    }
}

/// The process-shared simulation cache all designer runs score through
/// (restarts rediscover canvases; searches over the same tile repeat
/// across calls). `SIM_CACHE=0` disables it.
fn process_cache() -> Option<SimCache> {
    static CACHE: OnceLock<Option<SimCache>> = OnceLock::new();
    CACHE.get_or_init(SimCache::from_env).clone()
}

/// SplitMix64 — the per-restart seed derivation. Restart `i` draws from
/// `splitmix(seed, i)` no matter which worker runs it, which is what
/// makes the search deterministic at any pool width.
fn restart_seed(seed: u64, restart: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(restart.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Annealing temperature at `iter` of `iters`: geometric cooling from
/// one-quarter of a pattern-output down to single crispness units.
fn temperature(iter: usize, iters: usize) -> f64 {
    const T0: f64 = 250.0;
    const T_END: f64 = 2.0;
    let span = iters.saturating_sub(1).max(1) as f64;
    T0 * (T_END / T0).powf(iter as f64 / span)
}

/// One restart's result.
struct Restart {
    canvas: Vec<LatticeCoord>,
    score: Score,
    candidates: u64,
    untrusted: u64,
    sim: SimStats,
    halted: Option<DesignTrigger>,
    perfect: bool,
}

/// Shared state of one `design_canvas` run.
struct SearchCtx<'a> {
    base: &'a GateDesign,
    target: u32,
    sim: SimParams,
    region: (i32, i32, i32, i32),
    options: &'a DesignerOptions,
    /// Global candidate-evaluation counter (the budget's step unit).
    evals: &'a AtomicU64,
}

impl SearchCtx<'_> {
    /// Whether the shared budget is exhausted (checked between
    /// candidate evaluations).
    fn halted_by(&self) -> Option<DesignTrigger> {
        if self.options.budget.deadline.expired() {
            return Some(DesignTrigger::Deadline);
        }
        if self
            .options
            .budget
            .max_steps
            .is_some_and(|max| self.evals.load(Ordering::Relaxed) >= max)
        {
            return Some(DesignTrigger::Budget);
        }
        None
    }

    fn score_candidate(&self, design: &GateDesign, sim: &mut SimStats) -> Score {
        self.evals.fetch_add(1, Ordering::Relaxed);
        score(design, &self.sim, sim)
    }
}

/// A random dot inside the region (both sub-lattices).
fn random_dot(rng: &mut StdRng, region: (i32, i32, i32, i32)) -> LatticeCoord {
    let (x0, y0, x1, y1) = region;
    LatticeCoord::new(
        rng.gen_range(x0..=x1),
        rng.gen_range(y0..=y1),
        rng.gen_range(0..2),
    )
}

/// Proposes a structured mutation of `canvas`. Moves that do not apply
/// (full canvas, single dot, …) fall back to the local-move family.
fn mutate(
    canvas: &[LatticeCoord],
    rng: &mut StdRng,
    region: (i32, i32, i32, i32),
    max_dots: usize,
) -> Vec<LatticeCoord> {
    let (x0, y0, x1, y1) = region;
    let mut next = canvas.to_vec();
    match rng.gen_range(0..6) {
        // Grow: one dot.
        0 if next.len() < max_dots => next.push(random_dot(rng, region)),
        // Grow: a full BDL pair at the library's pair geometry — the
        // move that places logic-capable structure in one step.
        1 if next.len() + 2 <= max_dots => {
            let cx = rng.gen_range((x0 + PAIR_HALF_WIDTH)..=(x1 - PAIR_HALF_WIDTH).max(x0 + 1));
            let y = rng.gen_range(y0..=y1);
            next.push(LatticeCoord::new(cx - PAIR_HALF_WIDTH, y, 0));
            next.push(LatticeCoord::new(cx + PAIR_HALF_WIDTH, y, 0));
        }
        // Shrink.
        2 if next.len() > 1 => {
            let i = rng.gen_range(0..next.len());
            next.swap_remove(i);
        }
        // Mirror one dot across the canvas midline (tiles are built
        // around the column-30 symmetry axis).
        3 if !next.is_empty() => {
            let i = rng.gen_range(0..next.len());
            let d = next[i];
            next[i] = LatticeCoord::new((x0 + x1 - d.x).clamp(x0, x1), d.y, d.b);
        }
        // Dot-pair move: shift a dot and its horizontal BDL partner
        // together, preserving pair structure.
        4 if !next.is_empty() => {
            let i = rng.gen_range(0..next.len());
            let d = next[i];
            let partner = next
                .iter()
                .position(|p| p.y == d.y && p.b == d.b && (p.x - d.x).abs() == 2 * PAIR_HALF_WIDTH);
            let dx = rng.gen_range(-2..=2);
            let dy = rng.gen_range(-2..=2);
            next[i] = LatticeCoord::new((d.x + dx).clamp(x0, x1), (d.y + dy).clamp(y0, y1), d.b);
            if let Some(j) = partner {
                let p = next[j];
                next[j] =
                    LatticeCoord::new((p.x + dx).clamp(x0, x1), (p.y + dy).clamp(y0, y1), p.b);
            }
        }
        // Local move or teleport (the fallback family).
        _ => {
            if next.is_empty() {
                next.push(random_dot(rng, region));
            } else {
                let i = rng.gen_range(0..next.len());
                if rng.gen_bool(0.7) {
                    let d = &mut next[i];
                    *d = LatticeCoord::new(
                        (d.x + rng.gen_range(-2..=2)).clamp(x0, x1),
                        (d.y + rng.gen_range(-2..=2)).clamp(y0, y1),
                        d.b,
                    );
                } else {
                    next[i] = random_dot(rng, region);
                }
            }
        }
    }
    next
}

/// Runs restart `idx`: a self-contained local search whose RNG stream
/// depends only on the option seed and `idx`. A raised `cancel` (a
/// lower-indexed restart found a perfect design, so this one cannot win
/// the deterministic merge any more) ends it early; the executor
/// discards the partial result.
fn run_restart(ctx: &SearchCtx<'_>, idx: usize, cancel: &CancelFlag) -> Restart {
    let mut rng = StdRng::seed_from_u64(restart_seed(ctx.options.seed, idx as u64));
    let anneal = match ctx.options.strategy {
        SearchStrategy::HillClimb => false,
        SearchStrategy::Anneal => true,
        SearchStrategy::Mixed => idx % 2 == 1,
    };
    let mut out = Restart {
        canvas: Vec::new(),
        score: Score::default(),
        candidates: 0,
        untrusted: 0,
        sim: SimStats::default(),
        halted: None,
        perfect: false,
    };

    // Random initial canvas.
    let mut canvas: Vec<LatticeCoord> = (0..rng.gen_range(1..=ctx.options.max_dots.max(1)))
        .map(|_| random_dot(&mut rng, ctx.region))
        .collect();
    if let Some(trigger) = ctx.halted_by() {
        out.halted = Some(trigger);
        return out;
    }
    let mut current_score = ctx.score_candidate(&with_canvas(ctx.base, &canvas), &mut out.sim);
    out.candidates += 1;
    if current_score.unevaluated > 0 {
        out.untrusted += 1;
    }
    out.canvas = canvas.clone();
    out.score = current_score;
    if current_score.is_perfect(ctx.target) {
        out.perfect = true;
        return out;
    }

    for iter in 0..ctx.options.iterations {
        if cancel.load(Ordering::Relaxed) {
            return out;
        }
        if let Some(trigger) = ctx.halted_by() {
            out.halted = Some(trigger);
            return out;
        }
        let next = mutate(&canvas, &mut rng, ctx.region, ctx.options.max_dots);
        let candidate = with_canvas(ctx.base, &next);
        let s = ctx.score_candidate(&candidate, &mut out.sim);
        out.candidates += 1;
        if s.unevaluated > 0 {
            // Unknown, not wrong: never accepted, never trusted as best.
            out.untrusted += 1;
            continue;
        }
        if s.is_perfect(ctx.target) {
            out.canvas = next;
            out.score = s;
            out.perfect = true;
            return out;
        }
        if s.better_than(&out.score) {
            out.canvas = next.clone();
            out.score = s;
        }
        let accept = if anneal {
            let delta = s.scalar() - current_score.scalar();
            delta >= 0.0
                || rng.gen_bool(
                    (delta / temperature(iter, ctx.options.iterations))
                        .exp()
                        .min(1.0),
                )
        } else {
            (s.correct, s.crisp) >= (current_score.correct, current_score.crisp)
        };
        if accept {
            canvas = next;
            current_score = s;
        }
    }
    // The climber's walk ends where its best was found only for greedy
    // search; for annealing the best-so-far tracked above is what
    // counts. (This is the restart-loop fix: the best candidate is
    // carried in `out`, never discarded.)
    out
}

/// Runs the canvas search and returns the best design found, perfect or
/// not, with its score and work counters.
///
/// Restarts run on the ordered executor and are merged in
/// restart-index order; for a fixed seed and unbounded budget the
/// result is **byte-identical at any width**. A bounded run
/// (deadline or candidate cap) stops early and reports a
/// [`DesignDegradation`] instead of erroring or hanging. The
/// `designer.restart` fault point can inject worker panics (the
/// coordinator recomputes the restart serially) and exhaustion (the
/// dispatch loop halts with a degradation record).
///
/// # Examples
///
/// Designing is expensive; see the `bestagon-lib` tests and the design
/// binaries for realistic invocations. The API itself is simple:
///
/// ```no_run
/// use bestagon_lib::designer::{design_canvas, DesignerOptions};
/// use bestagon_lib::tiles::wire_nw_sw;
/// use sidb_sim::model::PhysicalParams;
///
/// let base = wire_nw_sw(); // already operational, returned unchanged
/// let result = design_canvas(&base, &DesignerOptions::new(), &PhysicalParams::default());
/// assert!(result.is_operational());
/// ```
pub fn design_canvas(
    base: &GateDesign,
    options: &DesignerOptions,
    params: &PhysicalParams,
) -> DesignResult {
    let _span = fcn_telemetry::span(format!("designer:{}", base.name));
    // Local search revisits layouts (rejected mutations, restarts that
    // rediscover a canvas); the process-shared cache answers those from
    // memory. `SIM_CACHE=0` turns it off. Deadline-bounded runs thread
    // the deadline into every simulation (so one oversized sweep cannot
    // hang the search) on top of the default step cap — which disables
    // caching for them, as truncated spectra depend on the wall clock.
    let mut sim_params = SimParams::new(*params).with_engine(SimEngine::QuickExact);
    if options.budget.deadline.is_bounded() {
        let budget = sim_params.budget.with_deadline(options.budget.deadline);
        sim_params = sim_params.with_budget(budget);
    } else if let Some(cache) = process_cache() {
        sim_params = sim_params.with_cache(cache);
    }

    let target = max_score(base);
    let evals = AtomicU64::new(0);
    let ctx = SearchCtx {
        base,
        target,
        sim: sim_params,
        region: options.region.unwrap_or_else(|| derived_region(base)),
        options,
        evals: &evals,
    };

    let mut stats = DesignerStats::default();

    // The base itself might already be operational (or the best the
    // bounded run will ever see).
    let base_score = {
        evals.fetch_add(1, Ordering::Relaxed);
        stats.candidates += 1;
        score(base, &ctx.sim, &mut stats.sim)
    };
    if base_score.unevaluated > 0 {
        stats.untrusted += 1;
    }
    if base_score.is_perfect(target) || options.restarts == 0 || ctx.halted_by().is_some() {
        let degradation = ctx.halted_by().map(|trigger| DesignDegradation {
            trigger,
            detail: format!("halted before any restart; scored {} candidate(s)", 1),
        });
        emit_designer_stats(&stats, &[], &options.budget);
        return DesignResult {
            design: base.clone(),
            canvas: Vec::new(),
            score: base_score,
            target,
            stats,
            degradation,
        };
    }

    // Restarts run on the ordered executor. The commit policy: a
    // perfect restart cuts dispatch and cancels the restarts above it,
    // an injected exhaustion at `designer.restart` degrades the search,
    // and restarts lost to a worker fault are recomputed on the
    // coordinator from their seeds.
    let restarts = options.restarts;
    let run = run_ordered(
        "designer",
        Some("designer.restart"),
        restarts,
        |idx, cancel| run_restart(&ctx, idx, cancel),
        |_, outcome| {
            if outcome.perfect {
                Signal::Cut
            } else {
                Signal::Continue
            }
        },
    );
    let faulted = run.faulted;
    let never = CancelFlag::default();

    // Merge in index order: pick the lowest-indexed perfect restart,
    // else the best completed score (ties to the lower index).
    let mut best: Option<(usize, Restart)> = None;
    let mut halted = faulted.then_some(DesignTrigger::Fault);
    // Running best (correct outputs) per merged restart, in index order
    // — the search's convergence trajectory.
    let mut trajectory: Vec<u64> = Vec::new();
    let mut running_best = u64::from(base_score.correct);
    for (idx, slot) in run.commit().enumerate() {
        let outcome = match slot {
            Some(outcome) => outcome,
            // Dispatch halted by an exhaustion fault: the remaining
            // restarts were never meant to run — they degrade.
            None if faulted => {
                stats.restarts_skipped += 1;
                continue;
            }
            // A worker fault (injected or genuine) lost this restart:
            // recompute it on the coordinator, deterministically.
            None => {
                stats.recovered += 1;
                run_restart(&ctx, idx, &never)
            }
        };
        stats.candidates += outcome.candidates;
        stats.untrusted += outcome.untrusted;
        stats.sim.merge(&outcome.sim);
        if outcome.halted.is_some() {
            // The restart was cut short by the shared budget: its
            // best-so-far still competes below, but it did not complete.
            if halted.is_none() {
                halted = outcome.halted;
            }
        } else {
            stats.restarts_completed += 1;
        }
        if outcome.score.unevaluated == 0 {
            running_best = running_best.max(u64::from(outcome.score.correct));
        }
        trajectory.push(running_best);
        let is_perfect = outcome.perfect;
        let replace = match &best {
            None => true,
            Some((_, cur)) => is_perfect || outcome.score.better_than(&cur.score),
        };
        if replace {
            best = Some((idx, outcome));
        }
        if is_perfect {
            break;
        }
    }

    let (winner_canvas, winner_score) = match &best {
        Some((_, r)) if r.score.better_than(&base_score) || r.perfect => {
            (r.canvas.clone(), r.score)
        }
        _ => (Vec::new(), base_score),
    };
    let degradation = halted.map(|trigger| DesignDegradation {
        trigger,
        detail: format!(
            "completed {} of {} restarts ({} skipped) after {} candidates",
            stats.restarts_completed, restarts, stats.restarts_skipped, stats.candidates
        ),
    });
    emit_designer_stats(&stats, &trajectory, &options.budget);
    DesignResult {
        design: with_canvas(base, &winner_canvas),
        canvas: winner_canvas,
        score: winner_score,
        target,
        stats,
        degradation,
    }
}

/// Records a run's counters and histograms on the ambient collector.
fn emit_designer_stats(stats: &DesignerStats, trajectory: &[u64], budget: &StepBudget) {
    for (name, value) in [
        ("designer.candidates", stats.candidates),
        ("designer.untrusted", stats.untrusted),
        ("designer.restarts", u64::from(stats.restarts_completed)),
        (
            "designer.restarts_skipped",
            u64::from(stats.restarts_skipped),
        ),
        ("designer.recovered", u64::from(stats.recovered)),
        ("designer.cache_hits", stats.sim.cache_hits),
    ] {
        if value > 0 {
            fcn_telemetry::counter(name, value);
        }
    }
    if stats.candidates > 0 {
        fcn_telemetry::histogram("designer.candidates", stats.candidates);
    }
    for &best in trajectory {
        fcn_telemetry::histogram("designer.best_score", best);
    }
    budget
        .deadline
        .record_remaining("designer.deadline_remaining_ms");
}

/// Returns `base` with the given canvas dots added to its body.
pub fn with_canvas(base: &GateDesign, canvas: &[LatticeCoord]) -> GateDesign {
    let mut d = base.clone();
    for &dot in canvas {
        d.body.add_site(dot);
    }
    d
}

/// One tile's outcome from [`design_library`].
#[derive(Debug, Clone)]
pub struct LibraryRepair {
    /// The tile's name.
    pub name: String,
    /// Whether the returned design is fully operational.
    pub repaired: bool,
    /// The search outcome (best design, score, degradations).
    pub result: DesignResult,
}

/// Repairs a set of tile skeletons: runs the canvas search on each
/// design (already-operational designs return immediately with an empty
/// canvas) under one shared budget, and reports per-tile outcomes. The
/// driver behind the `design_library` example that regenerated the
/// repaired tile constructors in [`crate::tiles`].
pub fn design_library(
    skeletons: &[GateDesign],
    options: &DesignerOptions,
    params: &PhysicalParams,
) -> Vec<LibraryRepair> {
    skeletons
        .iter()
        .map(|base| {
            let result = design_canvas(base, options, params);
            LibraryRepair {
                name: base.name.clone(),
                repaired: result.is_operational(),
                result,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{column, standard_input_port, standard_output_port, WEST_PORT_X};
    use fcn_budget::exec::with_width;
    use sidb_sim::layout::SidbLayout;

    #[test]
    fn operational_bases_are_returned_unchanged() {
        let base = crate::tiles::wire_nw_sw();
        let params = PhysicalParams::default();
        let result = design_canvas(&base, &DesignerOptions::new(), &params);
        assert!(result.is_operational());
        assert!(result.canvas.is_empty());
        assert_eq!(result.design.body, base.body);
        assert_eq!(result.stats.candidates, 1);
    }

    #[test]
    fn scoring_counts_correct_patterns() {
        let base = crate::tiles::wire_nw_sw();
        let sim = SimParams::new(PhysicalParams::default()).with_engine(SimEngine::QuickExact);
        let mut sink = SimStats::default();
        let s = score(&base, &sim, &mut sink);
        assert_eq!(s.correct, max_score(&base));
        assert_eq!(s.unevaluated, 0);
        // Flipping the truth table makes every pattern wrong.
        let mut broken = base.clone();
        for row in &mut broken.truth_table {
            for v in row {
                *v = !*v;
            }
        }
        assert_eq!(score(&broken, &sim, &mut sink).correct, 0);
    }

    #[test]
    fn starved_scoring_reports_unevaluated_not_wrong() {
        let base = crate::tiles::wire_nw_sw();
        let sim = SimParams::new(PhysicalParams::default())
            .with_engine(SimEngine::Exhaustive)
            .with_budget(StepBudget::unbounded().with_max_steps(2));
        let mut sink = SimStats::default();
        let s = score(&base, &sim, &mut sink);
        assert_eq!(s.unevaluated, base.num_patterns());
        assert_eq!(s.correct, 0);
        assert!(!s.is_perfect(max_score(&base)));
    }

    /// A wire column with a hole (rows 14–18 empty) — the cheap,
    /// reliably repairable skeleton the tests and CI smoke leg search.
    pub(crate) fn broken_wire() -> GateDesign {
        let mut body = SidbLayout::new();
        column(&mut body, WEST_PORT_X, &[1, 4, 7, 10, 13, 19, 22]);
        GateDesign {
            name: "WIRE (broken)".into(),
            body,
            inputs: vec![standard_input_port(WEST_PORT_X)],
            outputs: vec![standard_output_port(WEST_PORT_X)],
            truth_table: vec![vec![false], vec![true]],
        }
    }

    #[test]
    fn restart_results_are_thread_invariant() {
        let base = broken_wire();
        let params = PhysicalParams::default();
        let options = DesignerOptions::new()
            .with_region((WEST_PORT_X - 2, 14, WEST_PORT_X + 2, 18))
            .with_max_dots(3)
            .with_iterations(40)
            .with_restarts(4)
            .with_seed(7);
        let one = with_width(1, || design_canvas(&base, &options, &params));
        let four = with_width(4, || design_canvas(&base, &options, &params));
        assert_eq!(one.canvas, four.canvas);
        assert_eq!(one.score, four.score);
        assert_eq!(one.design.body, four.design.body);
    }

    #[test]
    fn deadline_bounded_search_degrades_instead_of_hanging() {
        let base = broken_wire();
        let options = DesignerOptions::new()
            .with_budget(StepBudget::unbounded().with_deadline(fcn_budget::Deadline::after_ms(0)));
        let result = design_canvas(&base, &options, &PhysicalParams::default());
        assert!(!result.is_operational());
        let degradation = result.degradation.expect("degraded");
        assert_eq!(degradation.trigger, DesignTrigger::Deadline);
    }

    #[test]
    fn candidate_budget_halts_the_search() {
        let base = broken_wire();
        let options = DesignerOptions::new()
            .with_iterations(50)
            .with_restarts(2)
            .with_budget(StepBudget::unbounded().with_max_steps(5));
        let result = with_width(1, || {
            design_canvas(&base, &options, &PhysicalParams::default())
        });
        assert!(result.stats.candidates <= 7);
        let degradation = result.degradation.expect("degraded");
        assert_eq!(degradation.trigger, DesignTrigger::Budget);
    }

    #[test]
    fn derived_region_spans_the_body() {
        let fanout = crate::tiles::fanout_nw();
        let (x0, y0, x1, y1) = derived_region(&fanout);
        // Both output columns (x = 15 and 45) must be reachable.
        assert!(x0 <= WEST_PORT_X && x1 >= crate::geometry::EAST_PORT_X);
        assert!(y0 >= INPUT_ROW && y1 <= OUTPUT_ROW);
        assert!(y0 < y1);
    }

    #[test]
    fn restart_seeds_are_distinct_streams() {
        let seeds: Vec<u64> = (0..8).map(|i| restart_seed(42, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }
}
