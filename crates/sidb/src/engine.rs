//! The unified SiDB simulation engine: one entry point
//! ([`simulate_with`]) over every ground-state algorithm, with
//! charge-space partitioning across a worker pool, physically-informed
//! pruning, and an optional content-addressed result cache.
//!
//! # Budget
//!
//! The exact engines have one limit, [`SimParams::budget`]. The
//! exhaustive sweep charges one step per visited configuration and
//! QuickExact one per branch-and-bound node, each through a meter that
//! enforces `max_steps`, polls the deadline every
//! `DEADLINE_POLL_INTERVAL` steps and hosts the `sidb.sweep` fault
//! point. [`SimParams::new`] caps every run at [`DEFAULT_MAX_STEPS`]. A
//! run is [`SimResult::truncated`] exactly when a meter refused a step;
//! its states are then the best found so far, not a proven spectrum.
//!
//! # The `SimParams` API
//!
//! [`SimParams`] is a chainable builder mirroring `msat::SolveParams`:
//!
//! ```
//! use sidb_sim::charge::ChargeState;
//! use sidb_sim::engine::{simulate_with, SimEngine, SimParams};
//! use sidb_sim::layout::SidbLayout;
//! use sidb_sim::model::PhysicalParams;
//!
//! let layout = SidbLayout::from_sites([(0, 0, 0), (2, 0, 0)]);
//! let result = simulate_with(
//!     &layout,
//!     &SimParams::new(PhysicalParams::default())
//!         .with_engine(SimEngine::Exhaustive)
//!         .with_k(3),
//! );
//! let ground = result.ground_state().expect("non-empty");
//! assert!(ground.config.states().iter().all(|&s| s == ChargeState::Negative));
//! ```
//!
//! # Determinism
//!
//! Results are bit-identical at any width (see [`fcn_budget::exec`]).
//! The exhaustive sweep is split into contiguous Gray-code chunks whose
//! *count* depends only on the layout (never on the thread count), each
//! chunk is initialized canonically and swept with the same incremental
//! arithmetic, and the per-chunk k-best lists are merged under a total
//! order (free energy, then charge configuration) — so one thread and
//! sixteen threads perform the exact same floating-point operations and
//! keep the exact same states. Branch-and-bound and annealing runs are
//! serial per partition unit; the executor only distributes independent
//! units (chunks, interaction-graph components, input patterns, domain
//! grid points) and commits their results in index order.
//!
//! # Resilience
//!
//! The partition scheduler hosts the `sidb.partition` fault-injection
//! point: a worker panic leaves its unit's slot empty and the
//! coordinator recomputes it inline after the pool joins (degrading to
//! serial work, never corrupting a verdict), and an injected `exhaust`
//! stops parallel dispatch so the remaining units run serially.

use std::ops::Range;

use fcn_budget::exec::{run_ordered, Signal};

use crate::cache::SimCache;
use crate::charge::{ChargeConfiguration, ChargeState, InteractionMatrix};
use crate::exgs::{SimulatedState, MAX_EXHAUSTIVE_SITES, MAX_THREE_STATE_SITES};
use crate::layout::SidbLayout;
use crate::model::PhysicalParams;
use crate::simanneal::AnnealParams;
use fcn_budget::StepBudget;

/// Which ground-state algorithm a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEngine {
    /// Exhaustive Gray-code sweep — exact, gate-sized instances only.
    Exhaustive,
    /// Simulated annealing with the given parameters.
    Anneal(AnnealParams),
    /// Branch-and-bound exact search (fast on BDL-structured layouts);
    /// the default.
    QuickExact,
}

/// Parameters of one simulation, built by chaining.
///
/// Mirrors `msat::SolveParams`: construct with [`SimParams::new`] (or
/// `Default`), then chain `with_*` calls. The struct is
/// `#[non_exhaustive]` so fields can be added without breaking callers.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct SimParams {
    /// The electrostatic model parameters.
    pub(crate) physical: PhysicalParams,
    /// The ground-state algorithm.
    pub(crate) engine: SimEngine,
    /// How many lowest-free-energy states to keep (`1` = ground state).
    pub(crate) k: usize,
    /// Step/wall-clock budget of the exact engines (see the module
    /// docs); [`SimParams::new`] caps it at [`DEFAULT_MAX_STEPS`].
    pub budget: StepBudget,
    /// Content-addressed result cache shared across simulations.
    pub(crate) cache: Option<SimCache>,
}

/// The step cap of [`SimParams::new`]: 20M sweep steps, or 20M
/// branch-and-bound nodes per interaction-graph cluster.
pub const DEFAULT_MAX_STEPS: u64 = 20_000_000;

impl SimParams {
    /// Simulation of the given physical model with the default engine
    /// ([`SimEngine::QuickExact`]), `k = 1`, a budget of
    /// [`DEFAULT_MAX_STEPS`] steps and no deadline, and no cache.
    pub fn new(physical: PhysicalParams) -> Self {
        SimParams {
            physical,
            engine: SimEngine::QuickExact,
            k: 1,
            budget: StepBudget::unbounded().with_max_steps(DEFAULT_MAX_STEPS),
            cache: None,
        }
    }

    /// Selects the ground-state algorithm.
    #[must_use]
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Keeps the `k` lowest-free-energy states instead of just the
    /// ground state.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Replaces the step/wall-clock budget
    /// ([`StepBudget::unbounded`] lifts every limit).
    #[must_use]
    pub fn with_budget(mut self, budget: StepBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Shares results through `cache`. A run under a deadline reads it
    /// but stores only searches that finished; see [`crate::cache`].
    #[must_use]
    pub fn with_cache(mut self, cache: SimCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Whether `self` and `other` run the same search on every layout:
    /// the same physical model, engine, `k` and step cap — what the
    /// cache keys on. The deadline and the cache do not count.
    pub fn same_search(&self, other: &SimParams) -> bool {
        let none = SidbLayout::new();
        crate::cache::SimKey::for_simulation(&none, self)
            == crate::cache::SimKey::for_simulation(&none, other)
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams::new(PhysicalParams::default())
    }
}

/// Work counters of one (or several merged) simulation runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Charge configurations visited (sweep steps, branch-and-bound
    /// nodes, or annealing proposals, by engine).
    pub visited: u64,
    /// Configurations skipped by physically-informed pruning
    /// (fixed-negative preassignment, potential bounds, viability).
    pub pruned: u64,
    /// Simulations answered from the cache.
    pub cache_hits: u64,
    /// Simulations that went to a cache but had to compute.
    pub cache_misses: u64,
    /// Searches that stopped early on a budget.
    pub truncated: u64,
    /// Partition units recomputed serially after a worker fault.
    pub recovered: u64,
}

impl SimStats {
    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &SimStats) {
        self.visited = self.visited.saturating_add(other.visited);
        self.pruned = self.pruned.saturating_add(other.pruned);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.truncated = self.truncated.saturating_add(other.truncated);
        self.recovered = self.recovered.saturating_add(other.recovered);
    }
}

/// What a simulation produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// The lowest-free-energy physically valid configurations found,
    /// sorted ascending by free energy (ties by charge configuration).
    /// Exact when `truncated` is false.
    pub states: Vec<SimulatedState>,
    /// Whether the search stopped early on a budget; when true,
    /// `states` covers only what was visited.
    pub truncated: bool,
    /// Work counters.
    pub stats: SimStats,
}

impl SimResult {
    /// The ground state, when one was found.
    pub fn ground_state(&self) -> Option<&SimulatedState> {
        self.states.first()
    }
}

/// Simulates a layout under the given parameters — the single entry
/// point over every engine. When `physical.three_state` is set, the
/// exhaustive three-state (negative/neutral/positive) model runs in
/// place of `engine` (complexity `3^n`).
///
/// # Panics
///
/// Panics under the engines' legacy preconditions: the exhaustive
/// engines on more than `MAX_EXHAUSTIVE_SITES` free sites (or
/// `MAX_THREE_STATE_SITES` sites in the three-state model).
pub fn simulate_with(layout: &SidbLayout, params: &SimParams) -> SimResult {
    let result = simulate_with_matrix(layout, params, None);
    emit_stats(&result.stats);
    result
}

/// Simulates a layout on a defective surface: the map's screened
/// external potentials are folded into the interaction matrix (see
/// `DefectMap::external_potentials`) and the selected
/// engine runs unchanged on top. An empty map delegates to
/// [`simulate_with`] and is bit-identical to the pristine path.
///
/// Defect-aware runs bypass the [`crate::cache::SimCache`]: cache keys
/// are translation-invariant, while a surface pins layouts to absolute
/// positions.
///
/// # Panics
///
/// Panics under the same engine preconditions as [`simulate_with`].
pub fn simulate_on_surface(
    layout: &SidbLayout,
    params: &SimParams,
    surface: &crate::defects::DefectMap,
) -> SimResult {
    if surface.is_empty() {
        return simulate_with(layout, params);
    }
    let matrix = InteractionMatrix::new(layout, &params.physical)
        .with_external(surface.external_potentials(layout, &params.physical));
    let result = simulate_with_matrix(layout, params, Some(&matrix));
    emit_stats(&result.stats);
    result
}

/// [`simulate_with`] with an optional precomputed interaction matrix
/// (shared across the input patterns of `GateDesign` validation) and no
/// telemetry emission — callers that merge several runs emit once.
///
/// # Panics
///
/// Panics if `matrix` does not have one row per site of `layout`: the
/// engines would otherwise have to rebuild a pristine matrix and drop
/// the caller's external potentials.
pub(crate) fn simulate_with_matrix(
    layout: &SidbLayout,
    params: &SimParams,
    matrix: Option<&InteractionMatrix>,
) -> SimResult {
    if let Some(m) = matrix {
        assert_eq!(
            m.num_sites(),
            layout.num_sites(),
            "interaction matrix does not match the layout"
        );
    }
    // External potentials (surface defects) are absolute-position
    // facts, but cache keys are translation-invariant — defect-aware
    // runs must not share entries with pristine ones, so they bypass
    // the cache.
    let cacheable = params.cache.is_some() && matrix.is_none_or(|m| !m.has_external());
    if cacheable {
        let cache = params.cache.as_ref().expect("checked");
        let key = crate::cache::SimKey::for_simulation(layout, params);
        if let Some((states, truncated)) = cache.lookup(&key) {
            fcn_telemetry::histogram("sidb.cache_lookup", 1);
            return SimResult {
                states,
                truncated,
                stats: SimStats {
                    cache_hits: 1,
                    ..SimStats::default()
                },
            };
        }
        fcn_telemetry::histogram("sidb.cache_lookup", 0);
        let mut result = simulate_core(layout, params, matrix);
        result.stats.cache_misses = 1;
        // A truncation the deadline or an injected fault may have
        // caused is not a property of the key.
        if !result.truncated
            || (!params.budget.deadline.is_bounded() && fcn_budget::fault::current().is_none())
        {
            cache.store(key, &result.states, result.truncated);
        }
        return result;
    }
    simulate_core(layout, params, matrix)
}

/// Records a run's counters into the ambient telemetry collector,
/// plus the `sidb.visited` histogram sample that lets reports show the
/// *distribution* of per-simulation sweep sizes, not just the total.
pub(crate) fn emit_stats(stats: &SimStats) {
    for (name, value) in [
        ("sidb.visited", stats.visited),
        ("sidb.pruned", stats.pruned),
        ("sidb.cache_hits", stats.cache_hits),
        ("sidb.cache_misses", stats.cache_misses),
        ("sidb.truncated", stats.truncated),
        ("sidb.recovered", stats.recovered),
    ] {
        if value > 0 {
            fcn_telemetry::counter(name, value);
        }
    }
    if stats.visited > 0 {
        fcn_telemetry::histogram("sidb.visited", stats.visited);
    }
}

/// Engine dispatch, no cache and no telemetry.
fn simulate_core(
    layout: &SidbLayout,
    params: &SimParams,
    matrix: Option<&InteractionMatrix>,
) -> SimResult {
    if params.physical.three_state {
        return run_three_state(layout, &params.physical, params.k, matrix);
    }
    match params.engine {
        SimEngine::Exhaustive => {
            run_exhaustive(layout, &params.physical, params.k, &params.budget, matrix)
        }
        SimEngine::QuickExact => crate::quickexact::low_energy_core(
            layout,
            &params.physical,
            params.k,
            &params.budget,
            matrix,
        ),
        SimEngine::Anneal(anneal) => run_anneal(layout, &params.physical, &anneal, matrix),
    }
}

// ---------------------------------------------------------------------
// Canonical state ordering.

/// The total order the k-best lists maintain: ascending free energy,
/// ties broken by the charge configuration itself. A *total* order is
/// what makes the chunked sweep's merge independent of the partition —
/// the k smallest states are the same set in the same order no matter
/// how the visit sequence was split.
pub(crate) fn cmp_states(a: &SimulatedState, b: &SimulatedState) -> std::cmp::Ordering {
    a.free_energy
        .partial_cmp(&b.free_energy)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| {
            a.config
                .states()
                .iter()
                .map(|s| s.charge_number())
                .cmp(b.config.states().iter().map(|s| s.charge_number()))
        })
}

/// Inserts into a sorted k-best list, keeping at most `k` entries.
pub(crate) fn insert_state(best: &mut Vec<SimulatedState>, state: SimulatedState, k: usize) {
    let pos = match best.binary_search_by(|e| cmp_states(e, &state)) {
        Ok(p) | Err(p) => p,
    };
    best.insert(pos, state);
    best.truncate(k);
}

// ---------------------------------------------------------------------
// The partition commit policy.

/// The outcome of a partitioned run.
pub(crate) struct PoolRun<T> {
    /// Per-unit results in unit-index order.
    pub(crate) results: Vec<T>,
    /// Units recomputed on the coordinator after a worker fault.
    pub(crate) recovered: u64,
}

/// Runs `units` independent work items on the ordered executor
/// (threads named `sim-worker-<i>`) and returns their results in index
/// order.
///
/// `work` must be a pure function of the unit index — that is what
/// makes the merged result independent of scheduling. Hosts the
/// `sidb.partition` fault point. The commit policy: a unit lost to a
/// worker fault (an injected panic, dispatch halted by an injected
/// exhaustion, or a genuine panic) is recomputed on the coordinator in
/// index order and counted in `recovered`; a genuine panic repeats
/// there and surfaces to the caller's unwind boundary.
///
/// With more than one unit each runs under a `sim.unit:<idx>` span,
/// committed in index order, so the merged report is independent of
/// both the width and the scheduling; only the recorded wall times
/// vary.
pub(crate) fn run_units<T, F>(units: usize, work: F) -> PoolRun<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let unit = |idx: usize| {
        let _span = (units > 1).then(|| fcn_telemetry::span(format!("sim.unit:{idx}")));
        work(idx)
    };
    let run = run_ordered(
        "sim",
        Some("sidb.partition"),
        units,
        |idx, _| unit(idx),
        |_, _| Signal::Continue,
    );
    let mut recovered = 0;
    let results = run
        .commit()
        .enumerate()
        .map(|(idx, result)| {
            result.unwrap_or_else(|| {
                recovered += 1;
                unit(idx)
            })
        })
        .collect();
    PoolRun { results, recovered }
}

// ---------------------------------------------------------------------
// Exhaustive Gray-code sweep (ExGS), chunk-partitioned.

/// Free sites below this count sweep as a single chunk, which keeps the
/// incremental floating-point arithmetic bitwise identical to the
/// historical serial engine on small instances.
const PAR_MIN_FREE_SITES: usize = 14;
/// Chunk count (as a power of two) for large sweeps. Layout-dependent
/// only — never a function of the thread count.
const PAR_CHUNK_BITS: u32 = 4;

/// How often a [`Meter`] polls the wall-clock deadline, in steps.
const DEADLINE_POLL_INTERVAL: u64 = 4096;

/// Charges one search's steps against its [`StepBudget`]: the step cap,
/// the deadline (polled every [`DEADLINE_POLL_INTERVAL`] steps), and
/// the `sidb.sweep` fault point, where an injected `panic` fires and an
/// injected `exhaust` refuses the step of a run that sets a limit.
pub(crate) struct Meter {
    budget: StepBudget,
    used: u64,
    /// Below this step count neither the cap nor a deadline poll is
    /// due, so a step needs no check unless a fault plan is armed
    /// (`0` once refused).
    quiet_until: u64,
    refused: bool,
}

impl Meter {
    /// A meter that has already charged `spent` steps.
    pub(crate) fn new(budget: &StepBudget, spent: u64) -> Self {
        Meter {
            budget: *budget,
            used: spent,
            quiet_until: 0, // the first step takes every check
            refused: false,
        }
    }

    /// The first step count at which the cap or a deadline poll is due.
    fn next_check(&self) -> u64 {
        let poll = if self.budget.deadline.is_bounded() {
            self.used.next_multiple_of(DEADLINE_POLL_INTERVAL)
        } else {
            u64::MAX
        };
        poll.min(self.budget.max_steps.unwrap_or(u64::MAX))
    }

    /// Charges one step; `false` once the budget has refused one.
    #[inline]
    pub(crate) fn charge(&mut self) -> bool {
        // The branch-and-bound charges every node, so the common case
        // stays two compares.
        if self.used < self.quiet_until && !fcn_budget::fault::armed() {
            self.used += 1;
            return true;
        }
        self.charge_checked()
    }

    /// The result of the search this meter charged: every charged step
    /// was visited, and it is truncated if a step was refused.
    pub(crate) fn result(&self, states: Vec<SimulatedState>, pruned: u64) -> SimResult {
        SimResult {
            states,
            truncated: self.refused,
            stats: SimStats {
                visited: self.used,
                pruned,
                truncated: u64::from(self.refused),
                ..SimStats::default()
            },
        }
    }

    /// [`Self::charge`] with every check.
    #[cold]
    #[inline(never)]
    fn charge_checked(&mut self) -> bool {
        if self.refused {
            return false;
        }
        let injected = matches!(
            fcn_budget::fault::check("sidb.sweep"),
            Some(fcn_budget::fault::Fault::Exhaust)
        ) && !self.budget.is_unbounded();
        let spent = self.budget.max_steps.is_some_and(|max| self.used >= max);
        if injected
            || spent
            || (self.used.is_multiple_of(DEADLINE_POLL_INTERVAL) && self.budget.deadline.expired())
        {
            self.refused = true;
            self.quiet_until = 0;
            return false;
        }
        self.used += 1;
        self.quiet_until = self.next_check();
        true
    }
}

/// `2^n`, saturating.
fn pow2_saturating(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        1u64 << n
    }
}

/// Splits the sites into exponent-bearing free sites and sites that are
/// negative in *every* population-stable configuration: if even the
/// all-negative surroundings leave `V_i ≥ μ−`, a neutral state at `i`
/// can never be stable (the same pruning idea as SiQAD/fiction's exact
/// engines use). Perturbers and other isolated dots fall out of the
/// exponential search this way.
fn partition_sites(m: &InteractionMatrix, mu: f64) -> (Vec<usize>, Vec<bool>) {
    let n = m.num_sites();
    let mut free_sites: Vec<usize> = Vec::new();
    let mut fixed_negative = vec![false; n];
    for (i, fixed) in fixed_negative.iter_mut().enumerate() {
        let mut lower_bound: f64 = (0..n)
            .filter(|&j| j != i)
            .map(|j| -m.interaction(i, j))
            .sum();
        if m.has_external() {
            lower_bound += m.external(i);
        }
        if lower_bound >= mu - 1e-9 {
            *fixed = true;
        } else {
            free_sites.push(i);
        }
    }
    (free_sites, fixed_negative)
}

/// Incremental sweep state of one chunk.
struct SweepState {
    config: ChargeConfiguration,
    potentials: Vec<f64>,
    energy: f64,
    num_negative: usize,
}

/// The canonical state at Gray-code step `step`: the fixed-negative
/// background (built in site order, exactly as the historical seed
/// loop), then one incremental toggle per set bit of `gray(step)` in
/// ascending free-site order. For `step == 0` this *is* the historical
/// seed, bit for bit.
fn seed_at(
    m: &InteractionMatrix,
    free_sites: &[usize],
    fixed_negative: &[bool],
    step: u64,
) -> SweepState {
    let n = m.num_sites();
    let mut config = ChargeConfiguration::neutral(n);
    // External potentials seed the running local potentials, so every
    // incremental toggle (`ΔE = Δn·V_i`) accounts the defect coupling
    // automatically; the fixed-negative background adds its own
    // `ext_i·n_i = −ext_i` terms below.
    let mut potentials = match m.external_slice() {
        Some(ext) => ext.to_vec(),
        None => vec![0.0f64; n],
    };
    let mut energy = 0.0f64;
    let mut num_negative = 0usize;
    for (i, &fixed) in fixed_negative.iter().enumerate() {
        if fixed {
            config.set_state(i, ChargeState::Negative);
            num_negative += 1;
        }
    }
    for (i, &fixed) in fixed_negative.iter().enumerate() {
        if !fixed {
            continue;
        }
        for (j, p) in potentials.iter_mut().enumerate() {
            if j != i {
                *p -= m.interaction(i, j);
            }
        }
        energy += (0..i)
            .filter(|&j| fixed_negative[j])
            .map(|j| m.interaction(i, j))
            .sum::<f64>();
        if m.has_external() {
            energy -= m.external(i);
        }
    }
    let mut state = SweepState {
        config,
        potentials,
        energy,
        num_negative,
    };
    let gray = step ^ (step >> 1);
    for (t, &site) in free_sites.iter().enumerate() {
        if (gray >> t) & 1 == 1 {
            toggle(m, &mut state, site);
        }
    }
    state
}

/// One Gray-code toggle, with the incremental update order of the
/// historical sweep (`ΔE = Δn_i · V_i` before the potentials move).
fn toggle(m: &InteractionMatrix, s: &mut SweepState, site: usize) {
    let (new_state, delta) = match s.config.state(site) {
        ChargeState::Neutral => (ChargeState::Negative, -1.0),
        ChargeState::Negative => (ChargeState::Neutral, 1.0),
        ChargeState::Positive => unreachable!("two-state sweep"),
    };
    s.energy += delta * s.potentials[site];
    s.num_negative = if new_state == ChargeState::Negative {
        s.num_negative + 1
    } else {
        s.num_negative - 1
    };
    s.config.set_state(site, new_state);
    for (j, p) in s.potentials.iter_mut().enumerate() {
        if j != site {
            *p += delta * m.interaction(site, j);
        }
    }
}

/// Considers the current configuration for the k-best list: population
/// stability from the maintained potentials, configuration stability
/// from the matrix.
fn consider(
    m: &InteractionMatrix,
    mu: f64,
    s: &SweepState,
    best: &mut Vec<SimulatedState>,
    k: usize,
) {
    const EPS: f64 = 1e-9;
    let stable = s
        .config
        .states()
        .iter()
        .zip(&s.potentials)
        .all(|(state, &v)| match state {
            ChargeState::Negative => v >= mu - EPS,
            ChargeState::Neutral => v <= mu + EPS,
            ChargeState::Positive => false,
        });
    if !stable || !s.config.is_configuration_stable(m) {
        return;
    }
    let free = s.energy + mu * s.num_negative as f64;
    insert_state(
        best,
        SimulatedState {
            config: s.config.clone(),
            electrostatic_energy: s.energy,
            free_energy: free,
        },
        k,
    );
}

/// Sweeps the Gray-code `steps` of the free-site space, charging every
/// configuration (the chunk's seed included) to a [`Meter`] on `budget`.
fn sweep_chunk(
    m: &InteractionMatrix,
    mu: f64,
    free_sites: &[usize],
    fixed_negative: &[bool],
    k: usize,
    steps: Range<u64>,
    budget: &StepBudget,
) -> SimResult {
    let Range { start: lo, end: hi } = steps;
    let mut state = seed_at(m, free_sites, fixed_negative, lo);
    let mut best = Vec::new();
    consider(m, mu, &state, &mut best, k);
    let mut meter = Meter::new(budget, 1);
    for step in (lo + 1)..hi {
        if !meter.charge() {
            break;
        }
        let site = free_sites[step.trailing_zeros() as usize];
        toggle(m, &mut state, site);
        consider(m, mu, &state, &mut best, k);
    }
    meter.result(best, 0)
}

/// The exhaustive engine: fixed-negative preassignment, then a Gray-code
/// sweep over the free sites. The sweep splits into `2^PAR_CHUNK_BITS`
/// chunks when it is large and `max_steps` (if set) covers it;
/// otherwise it runs as one metered chunk, which a step cap below
/// `2^free` truncates.
pub(crate) fn run_exhaustive(
    layout: &SidbLayout,
    physical: &PhysicalParams,
    k: usize,
    budget: &StepBudget,
    matrix: Option<&InteractionMatrix>,
) -> SimResult {
    assert!(
        !physical.three_state,
        "exhaustive search implements the two-state model"
    );
    let n = layout.num_sites();
    if n == 0 || k == 0 {
        return SimResult::default();
    }
    let owned;
    let m = match matrix {
        Some(m) => m,
        None => {
            owned = InteractionMatrix::new(layout, physical);
            &owned
        }
    };
    let mu = physical.mu_minus;
    let (free_sites, fixed_negative) = partition_sites(m, mu);
    let n_free = free_sites.len();
    assert!(
        n_free <= MAX_EXHAUSTIVE_SITES,
        "exhaustive search supports at most {MAX_EXHAUSTIVE_SITES} free sites"
    );
    let mut stats = SimStats {
        pruned: pow2_saturating(n).saturating_sub(pow2_saturating(n_free)),
        ..SimStats::default()
    };

    let total = 1u64 << n_free;
    let chunked = n_free >= PAR_MIN_FREE_SITES && budget.max_steps.is_none_or(|max| max >= total);
    let sweep = |steps| sweep_chunk(m, mu, &free_sites, &fixed_negative, k, steps, budget);
    let chunks = if chunked {
        let per = total >> PAR_CHUNK_BITS;
        let run = run_units(1 << PAR_CHUNK_BITS, |c| {
            let lo = c as u64 * per;
            sweep(lo..lo + per)
        });
        stats.recovered = run.recovered;
        run.results
    } else {
        vec![sweep(0..total)]
    };
    let truncated = chunks.iter().any(|c| c.truncated);
    for chunk in &chunks {
        stats.merge(&chunk.stats);
    }
    stats.truncated = u64::from(truncated);
    let mut all: Vec<SimulatedState> = chunks.into_iter().flat_map(|c| c.states).collect();
    all.sort_by(cmp_states);
    all.truncate(k);
    SimResult {
        states: all,
        truncated,
        stats,
    }
}

// ---------------------------------------------------------------------
// Three-state exhaustive model.

fn run_three_state(
    layout: &SidbLayout,
    physical: &PhysicalParams,
    k: usize,
    matrix: Option<&InteractionMatrix>,
) -> SimResult {
    let n = layout.num_sites();
    assert!(
        n <= MAX_THREE_STATE_SITES,
        "three-state exhaustive search supports at most {MAX_THREE_STATE_SITES} sites"
    );
    if n == 0 || k == 0 {
        return SimResult::default();
    }
    let physical = PhysicalParams {
        three_state: true,
        ..*physical
    };
    let mut m = InteractionMatrix::new(layout, &physical);
    // The three-state matrix is rebuilt with transition levels enabled,
    // so only the external potentials carry over from the caller's
    // matrix; interactions are recomputed.
    if let Some(ext) = matrix.and_then(InteractionMatrix::external_slice) {
        m = m.with_external(ext.to_vec());
    }
    let mut best: Vec<SimulatedState> = Vec::new();
    let mut config = ChargeConfiguration::neutral(n);
    let mut visited = 0u64;
    enumerate_three_state(&m, &mut config, 0, k, &mut best, &mut visited);
    SimResult {
        states: best,
        truncated: false,
        stats: SimStats {
            visited,
            ..SimStats::default()
        },
    }
}

fn enumerate_three_state(
    m: &InteractionMatrix,
    config: &mut ChargeConfiguration,
    depth: usize,
    k: usize,
    best: &mut Vec<SimulatedState>,
    visited: &mut u64,
) {
    if depth == config.len() {
        *visited += 1;
        if config.is_physically_valid(m) {
            let energy = config.electrostatic_energy(m);
            let free = config.free_energy(m);
            insert_state(
                best,
                SimulatedState {
                    config: config.clone(),
                    electrostatic_energy: energy,
                    free_energy: free,
                },
                k,
            );
        }
        return;
    }
    for state in [
        ChargeState::Negative,
        ChargeState::Neutral,
        ChargeState::Positive,
    ] {
        config.set_state(depth, state);
        enumerate_three_state(m, config, depth + 1, k, best, visited);
    }
    config.set_state(depth, ChargeState::Neutral);
}

// ---------------------------------------------------------------------
// Simulated annealing.

fn run_anneal(
    layout: &SidbLayout,
    physical: &PhysicalParams,
    anneal: &AnnealParams,
    matrix: Option<&InteractionMatrix>,
) -> SimResult {
    let n = layout.num_sites();
    let states: Vec<SimulatedState> =
        crate::simanneal::anneal_core(layout, physical, anneal, matrix)
            .into_iter()
            .collect();
    SimResult {
        truncated: false,
        stats: SimStats {
            visited: (anneal.instances.max(1) * anneal.sweeps * n) as u64,
            ..SimStats::default()
        },
        states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_budget::exec::with_width;

    fn chain(pairs: i32) -> SidbLayout {
        let mut l = SidbLayout::new();
        for p in 0..pairs {
            l.add_site((0, 4 * p, 0));
            l.add_site((0, 4 * p + 1, 0));
        }
        l
    }

    #[test]
    fn same_search_ignores_deadline_and_cache_only() {
        let base = SimParams::new(PhysicalParams::default());
        let tuned = base
            .clone()
            .with_cache(SimCache::new())
            .with_budget(base.budget.with_deadline(fcn_budget::Deadline::after_ms(5)));
        assert!(base.same_search(&tuned));
        for other in [
            SimParams::new(PhysicalParams::default().with_mu_minus(-0.28)),
            base.clone().with_k(2),
            base.clone().with_engine(SimEngine::Exhaustive),
            base.clone().with_budget(StepBudget::unbounded()),
        ] {
            assert!(!base.same_search(&other), "{other:?}");
        }
    }

    #[test]
    #[should_panic(expected = "interaction matrix does not match the layout")]
    fn a_matrix_of_another_layout_panics() {
        // A loaded matrix of a smaller layout must not be swapped for a
        // pristine one, which would drop its external potentials.
        let physical = PhysicalParams::default();
        let small = chain(1);
        let matrix = InteractionMatrix::new(&small, &physical).with_external(vec![0.1; 2]);
        let _ = simulate_with_matrix(&chain(2), &SimParams::new(physical), Some(&matrix));
    }

    #[test]
    fn thread_counts_agree_bitwise_on_chunked_sweeps() {
        // 9 pairs = 18 free sites: the sweep splits into 16 chunks.
        let layout = chain(9);
        let physical = PhysicalParams::default();
        let base = SimParams::new(physical)
            .with_engine(SimEngine::Exhaustive)
            .with_k(4);
        let one = with_width(1, || simulate_with(&layout, &base));
        let four = with_width(4, || simulate_with(&layout, &base));
        assert_eq!(one, four);
        assert_eq!(one.stats.visited, 1 << 18);
        assert!(!one.states.is_empty());
        for (a, b) in one.states.iter().zip(&four.states) {
            assert_eq!(a.free_energy.to_bits(), b.free_energy.to_bits());
        }
    }

    #[test]
    fn engines_agree_through_the_unified_entry() {
        // 12 free sites: large enough that branch-and-bound pruning
        // visits strictly fewer nodes than the 2^12 exhaustive sweep.
        let layout = chain(6);
        let physical = PhysicalParams::default();
        let ex = simulate_with(
            &layout,
            &SimParams::new(physical)
                .with_engine(SimEngine::Exhaustive)
                .with_k(3),
        );
        let qe = simulate_with(
            &layout,
            &SimParams::new(physical)
                .with_engine(SimEngine::QuickExact)
                .with_k(3),
        );
        assert_eq!(ex.states.len(), qe.states.len());
        for (a, b) in ex.states.iter().zip(&qe.states) {
            assert!((a.free_energy - b.free_energy).abs() < 1e-9);
            assert_eq!(a.config, b.config);
        }
        assert!(qe.stats.visited < ex.stats.visited || ex.stats.visited <= 2);
    }

    #[test]
    fn cache_hits_skip_the_search() {
        let layout = chain(3);
        let physical = PhysicalParams::default();
        let cache = SimCache::new();
        let params = SimParams::new(physical)
            .with_engine(SimEngine::QuickExact)
            .with_cache(cache.clone());
        let miss = simulate_with(&layout, &params);
        assert_eq!(miss.stats.cache_misses, 1);
        assert!(miss.stats.visited > 0);
        let hit = simulate_with(&layout, &params);
        assert_eq!(hit.stats.cache_hits, 1);
        assert_eq!(hit.stats.visited, 0);
        assert_eq!(hit.states, miss.states);
        // A translated copy of the layout is the same cache entry.
        let translated =
            SidbLayout::from_sites(layout.sites().iter().map(|s| (s.x + 7, s.y - 3, s.b)));
        let hit2 = simulate_with(&translated, &params);
        assert_eq!(hit2.stats.cache_hits, 1);
        assert_eq!(hit2.states.len(), miss.states.len());
    }

    #[test]
    fn bounded_budget_truncates_exactly_like_the_legacy_sweep() {
        let layout =
            SidbLayout::from_sites([(0, 0, 0), (3, 0, 0), (6, 1, 0), (1, 2, 1), (8, 2, 0)]);
        let params = SimParams::new(PhysicalParams::default())
            .with_engine(SimEngine::Exhaustive)
            .with_k(3)
            .with_budget(StepBudget::unbounded().with_max_steps(4));
        let r = simulate_with(&layout, &params);
        assert!(r.truncated);
        assert_eq!(r.stats.visited, 4);
        assert_eq!(r.stats.truncated, 1);
    }

    #[test]
    fn injected_partition_panic_recovers_serially() {
        use fcn_budget::fault::{install, Fault, FaultPlan};
        let layout = chain(9); // 18 free sites → 16 chunks through the pool
        let physical = PhysicalParams::default();
        let params = SimParams::new(physical).with_engine(SimEngine::Exhaustive);
        let clean = with_width(4, || simulate_with(&layout, &params));
        let plan = std::sync::Arc::new(FaultPlan::single("sidb.partition", Fault::Panic));
        for width in [1, 4] {
            let _scope = install(plan.clone());
            let faulted = with_width(width, || simulate_with(&layout, &params));
            // Every chunk's worker panicked; the coordinator recomputed
            // all 16, bit for bit.
            assert_eq!(faulted.stats.recovered, 16);
            assert_eq!(
                SimResult {
                    stats: SimStats {
                        recovered: 0,
                        ..faulted.stats
                    },
                    ..faulted
                },
                clean
            );
        }
        assert_eq!(plan.hits("sidb.partition"), 32);
    }

    /// The sweep's path is chosen from its budget alone: a fault plan
    /// that another thread holds, for a point this run never reaches,
    /// leaves the chunked sweep and its spectrum unchanged.
    #[test]
    fn a_fault_plan_on_another_thread_leaves_the_sweep_unchanged() {
        use fcn_budget::fault::{install, Fault, FaultPlan};
        use std::sync::{Arc, Barrier};
        let layout = chain(9);
        let params = SimParams::new(PhysicalParams::default())
            .with_engine(SimEngine::Exhaustive)
            .with_k(4);
        let clean = with_width(4, || simulate_with(&layout, &params));
        let installed = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let holder = {
            let (installed, release) = (installed.clone(), release.clone());
            std::thread::spawn(move || {
                let _scope = install(Arc::new(FaultPlan::single("unrelated.point", Fault::Panic)));
                installed.wait();
                release.wait();
            })
        };
        installed.wait();
        let foreign = with_width(4, || simulate_with(&layout, &params));
        release.wait();
        holder.join().expect("plan holder exits cleanly");
        assert_eq!(foreign, clean);
        for (a, b) in foreign.states.iter().zip(&clean.states) {
            assert_eq!(a.free_energy.to_bits(), b.free_energy.to_bits());
        }
    }

    #[test]
    fn step_cap_truncates_quick_exact() {
        // One interaction cluster, so one meter carries the whole cap.
        let layout = chain(6);
        let physical = PhysicalParams::default();
        let full = simulate_with(&layout, &SimParams::new(physical));
        assert!(!full.truncated);
        let cap = full.stats.visited / 2;
        assert!(cap > 0);
        let capped = simulate_with(
            &layout,
            &SimParams::new(physical).with_budget(StepBudget::unbounded().with_max_steps(cap)),
        );
        assert!(capped.truncated);
        assert_eq!(capped.stats.visited, cap);
        assert_eq!(capped.stats.truncated, 1);
        // The greedy incumbent survives the cut.
        assert!(!capped.states.is_empty());
    }

    #[test]
    fn expired_deadline_truncates_quick_exact() {
        let params = SimParams::new(PhysicalParams::default())
            .with_budget(StepBudget::unbounded().with_deadline(fcn_budget::Deadline::after_ms(0)));
        let r = simulate_with(&chain(3), &params);
        assert!(r.truncated);
        assert_eq!(r.stats.visited, 0);
        assert_eq!(r.stats.truncated, 1);
    }

    #[test]
    fn injected_sweep_exhaust_truncates_limited_quick_exact_uncached() {
        use fcn_budget::fault::{install, Fault, FaultPlan};
        let layout = chain(3);
        let physical = PhysicalParams::default();
        let cache = SimCache::new();
        let scope = install(std::sync::Arc::new(FaultPlan::single(
            "sidb.sweep",
            Fault::Exhaust,
        )));
        // The default budget sets a step cap, so the injection bites.
        let limited = simulate_with(&layout, &SimParams::new(physical).with_cache(cache.clone()));
        assert!(limited.truncated);
        assert_eq!(limited.stats.truncated, 1);
        let unbounded = simulate_with(
            &layout,
            &SimParams::new(physical).with_budget(StepBudget::unbounded()),
        );
        assert!(!unbounded.truncated, "runs without a limit stay exact");
        drop(scope);
        let clean = simulate_with(&layout, &SimParams::new(physical).with_cache(cache.clone()));
        assert!(!clean.truncated);
        // A miss: the injected truncation was never cached.
        assert_eq!(clean.stats.cache_misses, 1);
        assert_eq!(clean.states, unbounded.states);
    }

    #[test]
    fn capped_spectra_are_cached_per_step_cap() {
        let layout = chain(6);
        let physical = PhysicalParams::default();
        let cache = SimCache::new();
        let cap = simulate_with(&layout, &SimParams::new(physical))
            .stats
            .visited
            / 2;
        let capped = SimParams::new(physical)
            .with_budget(StepBudget::unbounded().with_max_steps(cap))
            .with_cache(cache.clone());
        let first = simulate_with(&layout, &capped);
        assert!(first.truncated);
        assert_eq!(first.stats.cache_misses, 1);
        // Served to the same cap, still marked truncated.
        let again = simulate_with(&layout, &capped);
        assert_eq!(again.stats.cache_hits, 1);
        assert!(again.truncated);
        assert_eq!(again.states, first.states);
        // Never served to a different cap.
        let default = SimParams::new(physical).with_cache(cache.clone());
        let exact = simulate_with(&layout, &default);
        assert_eq!(exact.stats.cache_misses, 1);
        assert!(!exact.truncated);
        // A run under a deadline reads entries computed without one.
        let budget = default
            .budget
            .with_deadline(fcn_budget::Deadline::after_ms(600_000));
        let timed = simulate_with(&layout, &default.clone().with_budget(budget));
        assert_eq!(timed.stats.cache_hits, 1);
        assert_eq!(timed.states, exact.states);
    }

    #[test]
    fn deadline_runs_store_only_finished_searches() {
        let layout = chain(6);
        let cache = SimCache::new();
        let timed = |ms| {
            let params = SimParams::new(PhysicalParams::default()).with_cache(cache.clone());
            let budget = params
                .budget
                .with_deadline(fcn_budget::Deadline::after_ms(ms));
            simulate_with(&layout, &params.with_budget(budget))
        };
        // An expired deadline cuts the search; the cut spectrum is not
        // a property of the key, so it is not stored.
        let cut = timed(0);
        assert!(cut.truncated);
        assert_eq!(cut.stats.cache_misses, 1);
        // A search the deadline let finish misses (nothing was stored),
        // then is stored and served.
        let finished = timed(600_000);
        assert!(!finished.truncated);
        assert_eq!(finished.stats.cache_misses, 1);
        let again = timed(600_000);
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.states, finished.states);
    }

    #[test]
    fn injected_partition_exhaust_degrades_to_serial() {
        use fcn_budget::fault::{install, Fault, FaultPlan};
        let plan = std::sync::Arc::new(FaultPlan::single("sidb.partition", Fault::Exhaust));
        let _scope = install(plan.clone());
        for width in [1, 4] {
            let run = with_width(width, || run_units(8, |i| i + 1));
            assert_eq!(run.results, (1..=8).collect::<Vec<_>>());
            // Halted dispatch leaves units to the coordinator.
            assert!(run.recovered >= 1);
        }
        assert!(plan.hits("sidb.partition") >= 2);
    }

    #[test]
    fn three_state_matches_two_state_on_sparse_layouts() {
        let layout = SidbLayout::from_sites([(0, 0, 0), (4, 0, 0), (8, 1, 0), (2, 3, 1)]);
        let physical = PhysicalParams::default();
        let two = simulate_with(
            &layout,
            &SimParams::new(physical).with_engine(SimEngine::Exhaustive),
        );
        let three = simulate_with(&layout, &SimParams::new(physical.with_three_state()));
        assert_eq!(
            two.ground_state().expect("ok").config.states(),
            three.ground_state().expect("ok").config.states()
        );
        assert_eq!(three.stats.visited, 3u64.pow(4));
    }

    /// The physical three-state flag alone selects the three-state
    /// model. The spectra are the ones the former `SimParams`-level
    /// switch produced for the same layouts, free energies to the bit.
    #[test]
    fn physical_three_state_flag_reproduces_the_recorded_spectra() {
        let crowded = SidbLayout::from_sites([
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]);
        let sparse = SidbLayout::from_sites([(0, 0, 0), (4, 0, 0), (8, 1, 0), (2, 3, 1)]);
        let params = SimParams::new(PhysicalParams::default().with_three_state()).with_k(3);
        // (visited, [(charges, free-energy bits)]) of an untruncated run.
        let spectrum = |layout: &SidbLayout| {
            let result = simulate_with(layout, &params);
            assert!(!result.truncated);
            let states: Vec<(Vec<i8>, u64)> = result
                .states
                .iter()
                .map(|s| {
                    let charges = s.config.states().iter().map(|c| c.charge_number());
                    (charges.collect(), s.free_energy.to_bits())
                })
                .collect();
            (result.stats.visited, states)
        };
        assert_eq!(
            spectrum(&crowded),
            (
                6561,
                vec![
                    (vec![-1, 1, -1, 1, 1, -1, 1, -1], 0xc003_8c91_25ec_81df),
                    (vec![1, -1, 1, -1, -1, 1, -1, 1], 0xc003_8c91_25ec_81de),
                    (vec![1, -1, -1, 1, -1, 1, 1, -1], 0xc002_7974_94dd_0818),
                ]
            )
        );
        assert_eq!(
            spectrum(&sparse),
            (81, vec![(vec![-1, -1, -1, -1], 0xbfea_fbaf_ec5a_9b38)])
        );
    }
}
