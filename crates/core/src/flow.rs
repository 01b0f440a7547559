//! The end-to-end design flow (paper Section 4.2).
//!
//! Every run installs an ambient [`fcn_telemetry::Collector`] and wraps
//! the paper's eight steps in spans (`step1:parse` … `step8:export`), so
//! the instrumented layers below (rewriting, SAT-based P&R, equivalence
//! checking, physical simulation) attach their counters to the right
//! stage. The resulting [`FlowReport`] is returned on [`FlowResult`] and
//! emitted to stderr according to the `TELEMETRY` environment variable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bestagon_lib::apply::{apply_gate_library, ApplyError, CellLevelLayout};
use bestagon_lib::tiles::BestagonLibrary;
use fcn_budget::fault::{self, Fault};
use fcn_equiv::{
    check_equivalence_extracted_bounded, extract_network, EquivError, Equivalence, MiterLimit,
};
use fcn_layout::hexagonal::HexGateLayout;
use fcn_layout::supertile::{plan_supertiles, SuperTilePlan};
use fcn_logic::network::Xag;
use fcn_logic::rewrite::{rewrite, RewriteOptions};
use fcn_logic::techmap::{map_xag, MapError, MapOptions};
use fcn_logic::verilog::{parse_verilog, ParseVerilogError};
use fcn_pnr::{exact_pnr, heuristic_pnr, ExactOptions, NetGraph, PnrError};
use sidb_sim::operational::OperationalStatus;

pub use fcn_budget::{Deadline, FlowBudget};

/// Telemetry snapshot of one flow run (alias of [`fcn_telemetry::Report`]).
pub type FlowReport = fcn_telemetry::Report;

/// Local-potential perturbation (eV) above which a defect compromises a
/// tile. Matches the validation simulation's interaction cutoff
/// ([`bestagon_lib::geometry::validation_params`]): a defect below it is
/// indistinguishable from truncation noise the gates already tolerate.
const DEFECT_THRESHOLD_EV: f64 = 2e-3;

/// Which physical-design engine the flow uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PnrMethod {
    /// Area-minimal SAT-based search (paper flow step 4).
    Exact {
        /// Area bound in tiles for the search.
        max_area: u64,
    },
    /// The scalable one-pass baseline.
    Heuristic,
    /// Exact first; fall back to the heuristic if the bound is exhausted.
    ExactWithFallback {
        /// Area bound in tiles before falling back.
        max_area: u64,
    },
}

impl Default for PnrMethod {
    fn default() -> Self {
        PnrMethod::ExactWithFallback { max_area: 150 }
    }
}

/// What pushed a stage off its preferred path (see [`Degradation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeTrigger {
    /// The flow's wall-clock deadline ([`FlowBudget::deadline`]) expired.
    Deadline,
    /// A per-stage resource budget (conflicts, iterations, steps) ran
    /// out.
    Budget,
    /// The stage's preferred engine reported an error the flow could
    /// absorb by switching engines.
    EngineError,
    /// The configured surface-defect map made the preferred placement
    /// infeasible; the flow relaxed the search (larger area bound, or a
    /// defect-blind placement as the last resort) instead of failing.
    DefectAvoidance,
}

impl core::fmt::Display for DegradeTrigger {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            DegradeTrigger::Deadline => "deadline",
            DegradeTrigger::Budget => "budget",
            DegradeTrigger::EngineError => "engine-error",
            DegradeTrigger::DefectAvoidance => "defect-avoidance",
        })
    }
}

/// One graceful-degradation event: a stage that hit a resource limit and
/// took its documented fallback instead of failing the run.
///
/// Collected on [`FlowResult::degradations`] and surfaced in telemetry
/// (the `flow.degraded` counter and per-stage `degraded` notes), so a
/// deployment can measure how often it runs degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The stage span name (`"step4:pnr"`, `"step5:equiv"`, …).
    pub stage: &'static str,
    /// What tripped the fallback.
    pub trigger: DegradeTrigger,
    /// The fallback the stage took (human-readable, stable prose).
    pub action: String,
    /// Trigger-specific context: the engine error, the budget spent, the
    /// clamped value.
    pub detail: String,
}

/// Options of the full flow.
///
/// Construct with the chainable builder methods; the struct is
/// `#[non_exhaustive]`, so downstream crates cannot use literal syntax
/// and remain source-compatible when options are added:
///
/// ```
/// use bestagon_core::flow::{FlowOptions, PnrMethod};
///
/// let options = FlowOptions::new()
///     .with_pnr(PnrMethod::Exact { max_area: 60 })
///     .without_verify();
/// assert!(!options.verify);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FlowOptions {
    /// Logic rewriting (step 2); `None` skips the pass (ablation A3).
    pub rewrite: Option<RewriteOptions>,
    /// Technology mapping options (step 3).
    pub map: MapOptions,
    /// Physical-design engine (step 4).
    pub pnr: PnrMethod,
    /// Run SAT-based equivalence checking (step 5).
    pub verify: bool,
    /// Apply the Bestagon library for a dot-accurate layout (step 7).
    pub apply_library: bool,
    /// Physically re-validate the distinct library designs the layout
    /// instantiates (step 7): each design's truth table is checked with
    /// the cached exact simulation engine under the default step cap
    /// ([`sidb_sim::engine::DEFAULT_MAX_STEPS`]) and the flow's deadline.
    /// The step-7 span of [`FlowResult::report`] counts `tiles.failing`
    /// and, apart from them, `tiles.unknown` (designs the cap or the
    /// deadline cut short; a deadline cut is also a
    /// [`DegradeTrigger::Deadline`] degradation), each with a note
    /// naming the tiles, next to the `sidb.*` counters (configurations
    /// visited/pruned, cache hits). Off by default — the library ships
    /// pre-validated; turn it on to audit a deployment's tiles.
    pub tile_validation: bool,
    /// Wall-clock deadline and per-stage resource budgets. The default
    /// reads the `FLOW_*` environment variables
    /// ([`FlowBudget::from_env`]); an empty environment imposes no
    /// limits and leaves every stage byte-identical to an un-budgeted
    /// run. A relative deadline (`FLOW_DEADLINE_MS`) starts ticking when
    /// the options are constructed.
    pub budget: FlowBudget,
    /// The surface-defect map to design around (step 4 blacklists
    /// compromised tiles; step 7 re-validates the placement against the
    /// map). `None` consults the `SURFACE_DEFECTS` environment variable
    /// (a `seed:density[:kinds]` spec or a defect-file path); when that
    /// is unset too, the flow is byte-identical to the pristine flow.
    pub surface: Option<sidb_sim::DefectMap>,
    /// A shared simulation cache for step 7's tile validation. `None`
    /// consults the `SIM_CACHE` environment variable
    /// ([`sidb_sim::SimCache::from_env`]); a long-lived host (the design
    /// server) installs one process-wide cache here so identical tile
    /// simulations are shared across requests.
    pub sim_cache: Option<sidb_sim::SimCache>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            rewrite: Some(RewriteOptions::default()),
            map: MapOptions::default(),
            pnr: PnrMethod::default(),
            verify: true,
            apply_library: true,
            tile_validation: false,
            budget: FlowBudget::from_env(),
            surface: None,
            sim_cache: None,
        }
    }
}

impl FlowOptions {
    /// The default flow: rewrite, map, exact P&R with heuristic
    /// fallback, verify, apply the gate library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the logic-rewriting configuration (step 2).
    #[must_use]
    pub fn with_rewrite(mut self, rewrite: RewriteOptions) -> Self {
        self.rewrite = Some(rewrite);
        self
    }

    /// Skips logic rewriting entirely (ablation A3).
    #[must_use]
    pub fn without_rewrite(mut self) -> Self {
        self.rewrite = None;
        self
    }

    /// Selects the technology-mapping configuration (step 3).
    #[must_use]
    pub fn with_map(mut self, map: MapOptions) -> Self {
        self.map = map;
        self
    }

    /// Selects the physical-design engine (step 4).
    #[must_use]
    pub fn with_pnr(mut self, pnr: PnrMethod) -> Self {
        self.pnr = pnr;
        self
    }

    /// Skips SAT-based equivalence checking (step 5).
    #[must_use]
    pub fn without_verify(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Skips gate-library application (step 7), leaving the result at
    /// the gate level.
    #[must_use]
    pub fn without_library(mut self) -> Self {
        self.apply_library = false;
        self
    }

    /// Physically re-validates the used library tiles during step 7
    /// (see [`FlowOptions::tile_validation`]).
    #[must_use]
    pub fn with_tile_validation(mut self) -> Self {
        self.tile_validation = true;
        self
    }

    /// Sets the full resource budget, replacing the environment-derived
    /// default.
    #[must_use]
    pub fn with_budget(mut self, budget: FlowBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets a wall-clock deadline `ms` milliseconds from now, keeping
    /// the other budget fields.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.budget.deadline = Deadline::after_ms(ms);
        self
    }

    /// Designs around the given surface-defect map (see
    /// [`FlowOptions::surface`]), overriding `SURFACE_DEFECTS`.
    #[must_use]
    pub fn with_surface(mut self, surface: sidb_sim::DefectMap) -> Self {
        self.surface = Some(surface);
        self
    }

    /// The surface the flow designs around: [`FlowOptions::surface`],
    /// else the `SURFACE_DEFECTS` spec or defect file as it reads now;
    /// `None` is the pristine surface. Step 4 and
    /// [`FlowRequest::fingerprint`] both resolve through here, so the
    /// fingerprint covers a defect file's contents, not its path.
    fn resolve_surface(&self) -> Result<Option<sidb_sim::DefectMap>, sidb_sim::SurfaceSpecError> {
        match &self.surface {
            Some(map) => Ok(Some(map.clone())),
            None => match std::env::var("SURFACE_DEFECTS") {
                Ok(spec) if !spec.trim().is_empty() => {
                    sidb_sim::DefectMap::from_spec(spec.trim()).map(Some)
                }
                _ => Ok(None),
            },
        }
    }

    /// Shares the given simulation cache with step 7 (see
    /// [`FlowOptions::sim_cache`]), overriding `SIM_CACHE`.
    #[must_use]
    pub fn with_sim_cache(mut self, cache: sidb_sim::SimCache) -> Self {
        self.sim_cache = Some(cache);
        self
    }
}

/// Everything the flow produces for one circuit.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Circuit name.
    pub name: String,
    /// The optimized XAG the layout implements (after rewriting).
    pub optimized: Xag,
    /// Gate count of the XAG before rewriting.
    pub gates_before_rewrite: usize,
    /// Gate count after rewriting.
    pub gates_after_rewrite: usize,
    /// XAG depth after rewriting.
    pub depth: usize,
    /// Gate-level layout (step 4).
    pub layout: HexGateLayout,
    /// Whether the exact engine produced the layout (false = heuristic).
    pub exact: bool,
    /// Equivalence verdict (step 5), when requested.
    pub equivalence: Option<Equivalence>,
    /// Super-tile plan (step 6).
    pub supertiles: SuperTilePlan,
    /// Dot-accurate SiDB layout (step 7), when requested.
    pub cell: Option<CellLevelLayout>,
    /// Every graceful-degradation event of this run, in stage order.
    /// Empty when no stage hit a resource limit; a run under a tight
    /// [`FlowBudget`] still returns `Ok` and records what it gave up
    /// here.
    pub degradations: Vec<Degradation>,
    /// Per-stage telemetry (wall times, SAT statistics, counters).
    pub report: FlowReport,
}

impl FlowResult {
    /// Serializes the SiDB layout as SiQAD `.sqd` XML (step 8).
    ///
    /// Returns `None` when the library was not applied.
    pub fn to_sqd(&self) -> Option<String> {
        self.cell
            .as_ref()
            .map(|c| bestagon_lib::sqd::to_sqd_string(&c.sidb))
    }

    /// Exports the optimized network as gate-level Verilog.
    pub fn to_verilog(&self) -> String {
        fcn_logic::verilog::write_verilog(&self.name, &self.optimized)
    }

    /// Whether any stage degraded (see [`FlowResult::degradations`]).
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }
}

/// A flow failure, tagged by the step that raised it.
#[derive(Debug)]
pub enum FlowError {
    /// Step 1: specification parsing (Verilog).
    Parse(ParseVerilogError),
    /// Step 1: specification parsing (BLIF).
    ParseBlif(fcn_logic::blif::ParseBlifError),
    /// Step 3: technology mapping.
    Map(MapError),
    /// Step 4: netlist not placeable (dangling input etc.).
    NetGraph(fcn_pnr::netgraph::NetGraphError),
    /// Step 4: no feasible layout.
    Pnr(PnrError),
    /// Step 4: the `SURFACE_DEFECTS` spec or defect file is malformed.
    Surface(sidb_sim::SurfaceSpecError),
    /// Step 5: equivalence checking failed to run.
    Equivalence(EquivError),
    /// Step 5: the layout does not implement the specification — a flow
    /// bug, surfaced loudly.
    NotEquivalent {
        /// The distinguishing input assignment.
        counterexample: Vec<bool>,
    },
    /// Step 7: missing library tile.
    Apply(ApplyError),
    /// Any step: a panic was caught at the stage boundary (or inside a
    /// portfolio worker) and converted into this typed error instead of
    /// unwinding through the caller. Sibling workers are cancelled
    /// before it is reported.
    Internal {
        /// The stage span name, e.g. `"step4:pnr"`.
        stage: &'static str,
        /// The panic payload, rendered as a string.
        payload: String,
    },
}

impl core::fmt::Display for FlowError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FlowError::Parse(e) => write!(f, "parse: {e}"),
            FlowError::ParseBlif(e) => write!(f, "parse: {e}"),
            FlowError::Map(e) => write!(f, "technology mapping: {e}"),
            FlowError::NetGraph(e) => write!(f, "netlist: {e}"),
            FlowError::Pnr(e) => write!(f, "physical design: {e}"),
            FlowError::Surface(e) => write!(f, "surface defects: {e}"),
            FlowError::Equivalence(e) => write!(f, "equivalence checking: {e}"),
            FlowError::NotEquivalent { counterexample } => {
                write!(f, "layout differs from specification at {counterexample:?}")
            }
            FlowError::Apply(e) => write!(f, "gate-library application: {e}"),
            FlowError::Internal { stage, payload } => {
                write!(f, "internal failure in {stage}: {payload}")
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl FlowError {
    /// A stable machine-readable discriminant, one per variant. Server
    /// responses and logs key on these; they are part of the wire
    /// protocol and never change meaning.
    pub fn code(&self) -> &'static str {
        match self {
            FlowError::Parse(_) => "parse",
            FlowError::ParseBlif(_) => "parse-blif",
            FlowError::Map(_) => "map",
            FlowError::NetGraph(_) => "netgraph",
            FlowError::Pnr(_) => "pnr",
            FlowError::Surface(_) => "surface",
            FlowError::Equivalence(_) => "equiv",
            FlowError::NotEquivalent { .. } => "not-equivalent",
            FlowError::Apply(_) => "apply",
            FlowError::Internal { .. } => "internal",
        }
    }

    /// The error as a JSON object with stable field names: always
    /// `code` and `message`; `stage` for [`FlowError::Internal`] and
    /// `counterexample` for [`FlowError::NotEquivalent`].
    pub fn to_value(&self) -> fcn_telemetry::json::Value {
        use fcn_telemetry::json::Value;
        let mut fields = vec![
            ("code".to_owned(), Value::Str(self.code().to_owned())),
            ("message".to_owned(), Value::Str(self.to_string())),
        ];
        match self {
            FlowError::Internal { stage, .. } => {
                fields.push(("stage".to_owned(), Value::Str((*stage).to_owned())));
            }
            FlowError::NotEquivalent { counterexample } => {
                fields.push((
                    "counterexample".to_owned(),
                    Value::Arr(counterexample.iter().map(|&b| Value::Bool(b)).collect()),
                ));
            }
            _ => {}
        }
        Value::Obj(fields)
    }
}

/// The circuit specification a [`FlowRequest`] starts from.
///
/// `#[non_exhaustive]`: front-end formats may be added without breaking
/// downstream matches.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum FlowInput {
    /// Gate-level Verilog source (flow step 1 parses it).
    Verilog(String),
    /// BLIF source (flow step 1 parses it).
    Blif(String),
    /// An already parsed XAG, named for reports and exports.
    Netlist {
        /// Circuit name.
        name: String,
        /// The network itself.
        xag: Xag,
    },
}

impl FlowInput {
    /// A stable label for the input format (`"verilog"`, `"blif"`,
    /// `"netlist"`), used in protocol messages and fingerprints.
    pub fn kind(&self) -> &'static str {
        match self {
            FlowInput::Verilog(_) => "verilog",
            FlowInput::Blif(_) => "blif",
            FlowInput::Netlist { .. } => "netlist",
        }
    }
}

/// One complete design job: a circuit specification plus the options to
/// run the flow under. This is the unit the design server queues, the
/// content-addressed cache keys on ([`FlowRequest::fingerprint`]), and
/// the single entry point the former `run_flow*` free functions folded
/// into.
///
/// `#[non_exhaustive]`: construct with [`FlowRequest::verilog`],
/// [`FlowRequest::blif`], [`FlowRequest::netlist`], or
/// [`FlowRequest::new`], then chain [`FlowRequest::with_options`].
///
/// # Examples
///
/// ```
/// use bestagon_core::flow::{FlowOptions, FlowRequest};
/// use fcn_logic::network::Xag;
///
/// let mut xag = Xag::new();
/// let a = xag.primary_input("a");
/// let b = xag.primary_input("b");
/// let f = xag.or(a, b);
/// xag.primary_output("f", f);
/// let result = FlowRequest::netlist("or2", xag)
///     .with_options(FlowOptions::default())
///     .execute()?;
/// assert!(result.layout.verify().is_empty());
/// assert!(result.cell.expect("library applied").num_sidbs() > 0);
/// # Ok::<(), bestagon_core::flow::FlowError>(())
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FlowRequest {
    /// The circuit specification.
    pub input: FlowInput,
    /// The options the flow runs under.
    pub options: FlowOptions,
}

impl FlowRequest {
    /// A request over any [`FlowInput`], with default options.
    pub fn new(input: FlowInput) -> Self {
        FlowRequest {
            input,
            options: FlowOptions::default(),
        }
    }

    /// A request from gate-level Verilog source.
    pub fn verilog(source: impl Into<String>) -> Self {
        FlowRequest::new(FlowInput::Verilog(source.into()))
    }

    /// A request from BLIF source.
    pub fn blif(source: impl Into<String>) -> Self {
        FlowRequest::new(FlowInput::Blif(source.into()))
    }

    /// A request from an already parsed XAG.
    pub fn netlist(name: impl Into<String>, xag: Xag) -> Self {
        FlowRequest::new(FlowInput::Netlist {
            name: name.into(),
            xag,
        })
    }

    /// Replaces the options wholesale (chain after a constructor).
    #[must_use]
    pub fn with_options(mut self, options: FlowOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the full eight-step flow on this request.
    ///
    /// # Errors
    ///
    /// Any step's failure is reported as a [`FlowError`].
    pub fn execute(&self) -> Result<FlowResult, FlowError> {
        match &self.input {
            FlowInput::Verilog(source) => run_instrumented(
                || parse_verilog(source).map_err(FlowError::Parse),
                &self.options,
            ),
            FlowInput::Blif(source) => run_instrumented(
                || fcn_logic::blif::parse_blif(source).map_err(FlowError::ParseBlif),
                &self.options,
            ),
            FlowInput::Netlist { name, xag } => {
                run_instrumented(|| Ok((name.clone(), xag.clone())), &self.options)
            }
        }
    }

    /// Content fingerprint of this request: the canonical input text
    /// plus every option that shapes the *result* — and none that only
    /// shape the *work* (the thread count, the simulation cache and the
    /// wall-clock deadline are excluded; resource caps that can
    /// change what a stage produces are included). Two requests with
    /// equal fingerprints produce byte-identical results, which is what
    /// lets the server answer the second one from memory.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.bytes(self.input.kind().as_bytes());
        match &self.input {
            FlowInput::Verilog(source) | FlowInput::Blif(source) => h.bytes(source.as_bytes()),
            FlowInput::Netlist { name, xag } => {
                h.bytes(fcn_logic::verilog::write_verilog(name, xag).as_bytes())
            }
        };
        let o = &self.options;
        h.bytes(format!("{:?}", o.rewrite).as_bytes());
        h.bytes(format!("{:?}", o.map).as_bytes());
        h.bytes(format!("{:?}", o.pnr).as_bytes());
        h.bytes(format!("{:?}", (o.verify, o.apply_library, o.tile_validation)).as_bytes());
        let b = &o.budget;
        h.bytes(
            format!(
                "{:?}",
                (
                    b.rewrite_iterations,
                    b.sat_conflicts_per_probe,
                    b.sat_conflicts_total,
                    b.equiv_conflicts,
                )
            )
            .as_bytes(),
        );
        // The surface the flow will actually design around, resolved
        // exactly as step 4 resolves it.
        match o.resolve_surface() {
            Ok(Some(map)) => h.bytes(format!("{map:?}").as_bytes()),
            Ok(None) => h.bytes(b"pristine"),
            Err(e) => h.bytes(format!("invalid surface: {e}").as_bytes()),
        };
        h.finish()
    }
}

/// 64-bit FNV-1a — a fixed algorithm (unlike `DefaultHasher`), so
/// request fingerprints and benchmark hashes are comparable across runs
/// and Rust releases.
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

/// Runs one flow stage inside its telemetry span with panic isolation: a
/// panic — organic, or injected at the stage's fault point (the span
/// name doubles as the injection point) — is caught at the boundary and
/// surfaces as [`FlowError::Internal`] instead of unwinding through the
/// caller. The closure receives any *non-panic* fault scheduled at the
/// boundary for stage-specific interpretation; stages without a
/// meaningful corruption or exhaustion story ignore it (the engine-level
/// points `msat.search`, `pnr.probe`, `equiv.miter`, and `sidb.sweep`
/// cover those classes where they matter).
fn stage<T>(
    name: &'static str,
    run: impl FnOnce(Option<Fault>) -> Result<T, FlowError>,
) -> Result<T, FlowError> {
    let _span = fcn_telemetry::span(name);
    match catch_unwind(AssertUnwindSafe(|| {
        let injected = fault::check(name); // panics here on an injected `panic`
        run(injected)
    })) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let payload = fcn_budget::exec::payload_string(payload.as_ref());
            fcn_telemetry::note("panic", payload.clone());
            Err(FlowError::Internal {
                stage: name,
                payload,
            })
        }
    }
}

/// Records one degradation event: telemetry note in the current stage
/// span, plus the structured record on the result.
fn record(degradations: &mut Vec<Degradation>, d: Degradation) {
    fcn_telemetry::note(
        "degraded",
        format!("{}: {} ({})", d.trigger, d.action, d.detail),
    );
    degradations.push(d);
}

/// Installs a per-run collector, times step 1 (`parse`), runs steps 2–8,
/// and attaches the finished [`FlowReport`] to the result. The report is
/// also emitted to stderr per the `TELEMETRY` environment variable —
/// including on failure, so aborted runs still leave a trace.
///
/// When no fault plan is installed on this thread, the `FAULT_INJECT`
/// environment variable is consulted once per run
/// ([`fault::FaultPlan::from_env`]) so CI can exercise the degradation
/// edges without code changes; a plan installed by the caller (tests)
/// takes precedence.
fn run_instrumented(
    parse: impl FnOnce() -> Result<(String, Xag), FlowError>,
    options: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    let env_plan = match fault::current() {
        Some(_) => None,
        None => fault::FaultPlan::from_env(),
    };
    let _fault_scope = env_plan.map(fault::install);
    let collector = Arc::new(fcn_telemetry::Collector::new("flow"));
    let outcome = fcn_telemetry::with_collector(&collector, || {
        let (name, xag) = stage("step1:parse", |_| {
            let (name, xag) = parse()?;
            fcn_telemetry::counter("xag.inputs", xag.num_pis() as u64);
            fcn_telemetry::counter("xag.outputs", xag.num_pos() as u64);
            fcn_telemetry::counter("xag.gates", xag.num_gates() as u64);
            Ok((name, xag))
        })?;
        fcn_telemetry::note("circuit", name.clone());
        run_flow_steps(&name, &xag, options)
    });
    collector.finish();
    let report = collector.report();
    fcn_telemetry::emit(&report);
    // Fold the run into the process-wide aggregate (counters,
    // histograms, flow wall times) — off the hot path, after the
    // per-run report is frozen.
    fcn_telemetry::Registry::global().absorb_report(&report);
    outcome.map(|mut result| {
        result.report = report;
        result
    })
}

/// Step 7's simulation parameters: QuickExact under the default step
/// cap and the flow's `deadline`, so a deadline that expires mid-design
/// cuts the running simulation and the design reports `Unknown`. A run
/// under a deadline reads `cache` but stores only finished searches
/// (see [`sidb_sim::cache`]); without one, validation is exactly the
/// cached, step-capped run.
fn validation_sim(deadline: Deadline, cache: Option<sidb_sim::SimCache>) -> sidb_sim::SimParams {
    let mut sim = sidb_sim::SimParams::new(bestagon_lib::geometry::validation_params())
        .with_engine(sidb_sim::SimEngine::QuickExact);
    sim.budget = sim.budget.with_deadline(deadline);
    if let Some(cache) = cache {
        sim = sim.with_cache(cache);
    }
    sim
}

/// Paper steps 2–8, each wrapped in its stage span and panic boundary
/// (see [`stage`]). The spans exist even for skipped steps so every
/// report lists the same eight stages. Budget and deadline exhaustion
/// degrade per the ladder documented on [`FlowBudget`]: exact P&R falls
/// back to the heuristic engine, verification downgrades to a bounded
/// check with an [`Equivalence::Unknown`] verdict, and every event is
/// recorded on [`FlowResult::degradations`].
fn run_flow_steps(name: &str, xag: &Xag, options: &FlowOptions) -> Result<FlowResult, FlowError> {
    let budget = options.budget;
    let mut degradations: Vec<Degradation> = Vec::new();

    // Step 2: cut rewriting.
    let gates_before_rewrite = xag.cleaned().num_gates();
    let (optimized, gates_after_rewrite, depth) = stage("step2:rewrite", |_| {
        let rewrite_opts = match &options.rewrite {
            Some(opts) if budget.deadline.expired() => {
                record(
                    &mut degradations,
                    Degradation {
                        stage: "step2:rewrite",
                        trigger: DegradeTrigger::Deadline,
                        action: "skipped logic rewriting".into(),
                        detail: format!(
                            "deadline expired before rewriting; configured {} iterations",
                            opts.iterations
                        ),
                    },
                );
                None
            }
            Some(opts) => {
                let mut opts = *opts;
                if let Some(cap) = budget.rewrite_iterations {
                    if cap < opts.iterations {
                        record(
                            &mut degradations,
                            Degradation {
                                stage: "step2:rewrite",
                                trigger: DegradeTrigger::Budget,
                                action: format!("clamped rewrite iterations to {cap}"),
                                detail: format!("budget allows {cap} of {}", opts.iterations),
                            },
                        );
                        opts.iterations = cap;
                    }
                }
                Some(opts)
            }
            None => None,
        };
        let optimized = match rewrite_opts {
            Some(opts) => rewrite(xag, opts),
            None => xag.cleaned(),
        };
        let gates_after_rewrite = optimized.num_gates();
        let depth = optimized.depth();
        fcn_telemetry::counter("gates.before", gates_before_rewrite as u64);
        fcn_telemetry::counter("gates.after", gates_after_rewrite as u64);
        fcn_telemetry::counter("depth", depth as u64);
        Ok((optimized, gates_after_rewrite, depth))
    })?;

    // Step 3: technology mapping.
    let graph = stage("step3:techmap", |_| {
        let mapped = map_xag(&optimized, options.map).map_err(FlowError::Map)?;
        let graph = NetGraph::new(mapped).map_err(FlowError::NetGraph)?;
        fcn_telemetry::counter("netgraph.edges", graph.edges.len() as u64);
        Ok(graph)
    })?;

    // Step 4: placement & routing.
    let (layout, exact, surface) = stage("step4:pnr", |_| {
        // No surface leaves the step byte-identical to the pristine flow.
        let surface = options.resolve_surface().map_err(FlowError::Surface)?;
        // Tiles whose SiDB footprint a defect perturbs beyond the
        // threshold, over the largest region the scan may explore —
        // twice the area bound, so the defect-avoidance retry below
        // never places on an unscanned tile.
        let scan_extent = match options.pnr {
            PnrMethod::Exact { max_area } | PnrMethod::ExactWithFallback { max_area } => {
                (max_area * 2) as i32
            }
            PnrMethod::Heuristic => 0,
        };
        let mut blacklist: Vec<(i32, i32)> = Vec::new();
        if let Some(map) = &surface {
            // The surface fault point, exercised only when a surface is
            // actually configured.
            match fault::check("surface.defect") {
                Some(Fault::Malform) => {
                    // Injected corruption: the documented recovery for a
                    // bad surface description is the typed spec error.
                    return Err(FlowError::Surface(
                        sidb_sim::DefectMap::parse_spec("corrupt:spec")
                            .expect_err("deliberately malformed spec"),
                    ));
                }
                Some(Fault::Exhaust) => {
                    // Injected exhaustion: every candidate tile reads as
                    // compromised — the unplaceable-surface edge.
                    for y in 0..scan_extent {
                        for x in 0..scan_extent {
                            blacklist.push((x, y));
                        }
                    }
                }
                _ => {
                    blacklist = map.compromised_hex_tiles(
                        &bestagon_lib::geometry::validation_params(),
                        DEFECT_THRESHOLD_EV,
                        scan_extent,
                        scan_extent,
                    );
                }
            }
            fcn_telemetry::counter("defects.count", map.len() as u64);
            fcn_telemetry::counter("defects.blacklisted", blacklist.len() as u64);
            fcn_telemetry::histogram("defects.blacklisted", blacklist.len() as u64);
        }
        let exact_options = |max_area: u64, blacklist: &[(i32, i32)]| {
            let mut eo = ExactOptions {
                max_area,
                deadline: budget.deadline,
                max_conflicts_total: budget.sat_conflicts_total,
                ..Default::default()
            }
            .with_blacklist(blacklist.to_vec());
            if let Some(per_probe) = budget.sat_conflicts_per_probe {
                eo.max_conflicts_per_ratio = per_probe;
            }
            eo
        };
        // A worker panic is an internal failure, not a feasibility
        // verdict: it is reported typed (siblings already cancelled by
        // the portfolio) rather than absorbed by the fallback ladder.
        let internal = |e: PnrError| match e {
            PnrError::WorkerPanic { payload } => FlowError::Internal {
                stage: "step4:pnr",
                payload,
            },
            other => FlowError::Pnr(other),
        };
        // Defect-avoidance relaxation: when the blacklist makes the scan
        // infeasible, grow the area bound once (routing around defects
        // costs area), then place defect-blind as the last resort —
        // recorded as degradations, never an error of the surface alone.
        let defect_aware_exact = |max_area: u64,
                                  degradations: &mut Vec<Degradation>|
         -> Result<fcn_pnr::PnrOutcome<HexGateLayout>, PnrError> {
            let first = exact_pnr(&graph, &exact_options(max_area, &blacklist));
            match first {
                Err(PnrError::NoFeasibleRatio { .. }) if !blacklist.is_empty() => {
                    record(
                        degradations,
                        Degradation {
                            stage: "step4:pnr",
                            trigger: DegradeTrigger::DefectAvoidance,
                            action: format!(
                                "grew the area bound to {} tiles to route around defects",
                                max_area * 2
                            ),
                            detail: format!(
                                "{} tiles blacklisted; no feasible layout within {max_area} tiles",
                                blacklist.len()
                            ),
                        },
                    );
                    match exact_pnr(&graph, &exact_options(max_area * 2, &blacklist)) {
                        Err(PnrError::NoFeasibleRatio { .. }) => {
                            record(
                                degradations,
                                Degradation {
                                    stage: "step4:pnr",
                                    trigger: DegradeTrigger::DefectAvoidance,
                                    action: "placed defect-blind: the surface admits no \
                                                 avoiding layout"
                                        .into(),
                                    detail: format!(
                                        "{} tiles blacklisted up to area {}",
                                        blacklist.len(),
                                        max_area * 2
                                    ),
                                },
                            );
                            fcn_telemetry::note("defects.placement", "defect-blind");
                            exact_pnr(&graph, &exact_options(max_area, &[]))
                        }
                        other => other,
                    }
                }
                other => other,
            }
        };
        let (layout, exact) = match options.pnr {
            PnrMethod::Exact { max_area } => {
                let r = defect_aware_exact(max_area, &mut degradations).map_err(internal)?;
                (r.layout, true)
            }
            PnrMethod::Heuristic => {
                if surface.is_some() {
                    // The one-pass baseline has no notion of forbidden
                    // tiles; step 7 still reports what it hit.
                    fcn_telemetry::note("defects.placement", "defect-blind");
                }
                (heuristic_pnr(&graph).map_err(FlowError::Pnr)?, false)
            }
            PnrMethod::ExactWithFallback { max_area } => {
                let attempt = if budget.deadline.expired() {
                    Err(PnrError::DeadlineExpired)
                } else {
                    defect_aware_exact(max_area, &mut degradations)
                };
                match attempt {
                    Ok(r) => (r.layout, true),
                    Err(PnrError::WorkerPanic { payload }) => {
                        return Err(FlowError::Internal {
                            stage: "step4:pnr",
                            payload,
                        });
                    }
                    Err(e) => {
                        record(
                            &mut degradations,
                            Degradation {
                                stage: "step4:pnr",
                                trigger: match &e {
                                    PnrError::DeadlineExpired => DegradeTrigger::Deadline,
                                    PnrError::ConflictBudgetExhausted => DegradeTrigger::Budget,
                                    _ => DegradeTrigger::EngineError,
                                },
                                action: "fell back to heuristic placement".into(),
                                detail: e.to_string(),
                            },
                        );
                        if surface.is_some() {
                            fcn_telemetry::note("defects.placement", "defect-blind");
                        }
                        (heuristic_pnr(&graph).map_err(FlowError::Pnr)?, false)
                    }
                }
            }
        };
        fcn_telemetry::note("engine", if exact { "exact" } else { "heuristic" });
        fcn_telemetry::note("ratio", layout.ratio().label());
        Ok((layout, exact, surface))
    })?;

    // Step 5: formal verification.
    let equivalence = stage("step5:equiv", |injected| {
        if !options.verify {
            return Ok(None);
        }
        let mut extracted = extract_network(&layout).map_err(FlowError::Equivalence)?;
        if matches!(injected, Some(Fault::Malform)) {
            // Injected corruption: hand the checker a deliberately
            // malformed extraction. The documented recovery is the
            // typed `MalformedNetwork` error — never a panic.
            extracted.add_node(
                fcn_logic::GateKind::Po,
                vec![fcn_logic::techmap::MappedSignal {
                    node: fcn_logic::techmap::MappedId(0),
                    output: u8::MAX,
                }],
                Some("injected-malform".into()),
            );
        }
        let verdict = check_equivalence_extracted_bounded(
            &optimized,
            &extracted,
            budget.equiv_conflicts,
            budget.deadline,
        )
        .map_err(FlowError::Equivalence)?;
        match &verdict {
            Equivalence::NotEquivalent { counterexample } => {
                return Err(FlowError::NotEquivalent {
                    counterexample: counterexample.clone(),
                });
            }
            Equivalence::Unknown { limit } => {
                record(
                    &mut degradations,
                    Degradation {
                        stage: "step5:equiv",
                        trigger: match limit {
                            MiterLimit::Deadline => DegradeTrigger::Deadline,
                            MiterLimit::Conflicts => DegradeTrigger::Budget,
                        },
                        action: "verification downgraded to a bounded check".into(),
                        detail: format!("verdict unknown: {limit}"),
                    },
                );
            }
            Equivalence::Equivalent => {}
        }
        Ok(Some(verdict))
    })?;

    // Step 6: super-tile clock-zone expansion.
    let supertiles = stage("step6:supertiles", |_| {
        let plan = plan_supertiles(&layout);
        fcn_telemetry::counter("electrodes", plan.num_electrodes as u64);
        fcn_telemetry::counter("rows_per_supertile", plan.rows_per_supertile as u64);
        Ok(plan)
    })?;

    // Step 7: gate-library application (and optional physical
    // re-validation of the distinct tile designs the layout uses).
    let cell = stage("step7:apply", |_| {
        if !options.apply_library {
            return Ok(None);
        }
        let library = BestagonLibrary::new();
        let cell = apply_gate_library(&layout, &library).map_err(FlowError::Apply)?;
        fcn_telemetry::counter("sidbs", cell.num_sidbs() as u64);
        if let Some(map) = &surface {
            // Re-validate the placement against the surface: count the
            // occupied tiles a defect still perturbs beyond threshold.
            // Zero for a successful defect-avoiding placement; nonzero
            // measures the exposure of a defect-blind fallback.
            let ratio = layout.ratio();
            let compromised: std::collections::HashSet<(i32, i32)> = map
                .compromised_hex_tiles(
                    &bestagon_lib::geometry::validation_params(),
                    DEFECT_THRESHOLD_EV,
                    ratio.width as i32,
                    ratio.height as i32,
                )
                .into_iter()
                .collect();
            let hit = layout
                .occupied_tiles()
                .filter(|(c, _)| compromised.contains(&(c.x, c.y)))
                .count();
            fcn_telemetry::counter("defects.compromised", hit as u64);
        }
        if options.tile_validation {
            if budget.deadline.expired() {
                record(
                    &mut degradations,
                    Degradation {
                        stage: "step7:apply",
                        trigger: DegradeTrigger::Deadline,
                        action: "skipped physical tile validation".into(),
                        detail: "deadline expired before validation".into(),
                    },
                );
            } else {
                let designs = bestagon_lib::apply::used_designs(&layout, &library)
                    .map_err(FlowError::Apply)?;
                let cache = options
                    .sim_cache
                    .clone()
                    .or_else(sidb_sim::SimCache::from_env);
                let sim = validation_sim(budget.deadline, cache);
                let mut validated = 0u64;
                let mut failing: Vec<String> = Vec::new();
                let mut unknown: Vec<String> = Vec::new();
                for design in &designs {
                    match design.check_operational_with(&sim).status {
                        OperationalStatus::Operational => {}
                        OperationalStatus::NonOperational { .. } => {
                            failing.push(design.name.clone());
                        }
                        // The simulation budget cut the verdict short.
                        OperationalStatus::Unknown { .. } => unknown.push(design.name.clone()),
                    }
                    validated += 1;
                    // The step cap yields the same `Unknown` on every
                    // run, but where the deadline cuts the simulation
                    // running when it expires depends on the wall
                    // clock, so the result must say it was cut.
                    if budget.deadline.expired() {
                        record(
                            &mut degradations,
                            Degradation {
                                stage: "step7:apply",
                                trigger: DegradeTrigger::Deadline,
                                action: "cut tile validation short".into(),
                                detail: format!(
                                    "deadline expired after {validated} of {} designs",
                                    designs.len()
                                ),
                            },
                        );
                        break;
                    }
                }
                fcn_telemetry::counter("tiles.validated", validated);
                for (name, tiles) in [("tiles.failing", &failing), ("tiles.unknown", &unknown)] {
                    if !tiles.is_empty() {
                        fcn_telemetry::counter(name, tiles.len() as u64);
                        fcn_telemetry::note(name, tiles.join(", "));
                    }
                }
            }
        }
        Ok(Some(cell))
    })?;

    // Step 8: export. `FlowResult::to_sqd` re-renders on demand; this
    // serialization is only for timing and sizing the artifact.
    stage("step8:export", |_| {
        if let Some(cell) = &cell {
            let sqd = bestagon_lib::sqd::to_sqd_string(&cell.sidb);
            fcn_telemetry::counter("sqd.bytes", sqd.len() as u64);
        }
        Ok(())
    })?;

    // Root-level resilience counters, emitted only when the run was
    // actually bounded or degraded so an unconstrained run's report is
    // unchanged.
    if !degradations.is_empty() {
        fcn_telemetry::counter("flow.degraded", degradations.len() as u64);
    }
    budget
        .deadline
        .record_remaining("flow.deadline_remaining_ms");

    Ok(FlowResult {
        name: name.to_owned(),
        optimized,
        gates_before_rewrite,
        gates_after_rewrite,
        depth,
        layout,
        exact,
        equivalence,
        supertiles,
        cell,
        degradations,
        report: FlowReport::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::benchmark;

    /// The former `run_flow` shape, on the request API.
    fn run(name: &str, xag: &Xag, options: FlowOptions) -> Result<FlowResult, FlowError> {
        FlowRequest::netlist(name, xag.clone())
            .with_options(options)
            .execute()
    }

    #[test]
    fn flow_handles_xor2_end_to_end() {
        let b = benchmark("xor2");
        let r = run("xor2", &b.xag, FlowOptions::default()).expect("flow succeeds");
        assert!(r.layout.verify().is_empty());
        assert_eq!(r.equivalence, Some(Equivalence::Equivalent));
        assert!(r.supertiles.is_fabricable());
        let cell = r.cell.as_ref().expect("library applied");
        assert!(cell.num_sidbs() > 20);
        assert!(r.to_sqd().expect("sqd").contains("<dbdot>"));
        assert_eq!(
            r.report.stages(),
            [
                "step1:parse",
                "step2:rewrite",
                "step3:techmap",
                "step4:pnr",
                "step5:equiv",
                "step6:supertiles",
                "step7:apply",
                "step8:export"
            ]
        );
        let pnr = r.report.root.child("step4:pnr").expect("pnr stage");
        assert!(pnr.counters.contains_key("sat.conflicts") || !pnr.children.is_empty());
    }

    #[test]
    fn exact_flow_matches_paper_ratio_for_xor2() {
        let b = benchmark("xor2");
        let r = run(
            "xor2",
            &b.xag,
            FlowOptions::new().with_pnr(PnrMethod::Exact { max_area: 60 }),
        )
        .expect("flow succeeds");
        assert!(r.exact);
        // Paper Table 1: 2 × 3.
        assert_eq!((r.layout.ratio().width, r.layout.ratio().height), (2, 3));
    }

    #[test]
    fn heuristic_flow_is_larger_but_correct() {
        let b = benchmark("par_gen");
        let exact = run(
            "par_gen",
            &b.xag,
            FlowOptions::new().with_pnr(PnrMethod::Exact { max_area: 80 }),
        )
        .expect("exact flow");
        let heur = run(
            "par_gen",
            &b.xag,
            FlowOptions::new().with_pnr(PnrMethod::Heuristic),
        )
        .expect("heuristic flow");
        assert!(heur.layout.ratio().tile_count() >= exact.layout.ratio().tile_count());
        assert_eq!(heur.equivalence, Some(Equivalence::Equivalent));
    }

    #[test]
    fn rewrite_ablation_reports_gate_counts() {
        let b = benchmark("xor5_majority");
        let with = run(
            "x",
            &b.xag,
            FlowOptions::new()
                .with_pnr(PnrMethod::Heuristic)
                .without_library(),
        )
        .expect("flow");
        let without = run(
            "x",
            &b.xag,
            FlowOptions::new()
                .without_rewrite()
                .with_pnr(PnrMethod::Heuristic)
                .without_library(),
        )
        .expect("flow");
        assert!(with.gates_after_rewrite <= without.gates_after_rewrite);
        assert_eq!(with.gates_before_rewrite, without.gates_before_rewrite);
    }

    #[test]
    fn tile_validation_reports_simulation_counters() {
        let b = benchmark("xor2");
        let r = run(
            "xor2",
            &b.xag,
            FlowOptions::new()
                .with_pnr(PnrMethod::Heuristic)
                .with_tile_validation(),
        )
        .expect("flow succeeds");
        assert!(r.degradations.is_empty());
        let apply = r.report.root.child("step7:apply").expect("apply stage");
        assert!(*apply.counters.get("tiles.validated").unwrap_or(&0) > 0);
        // The XOR tile is a known-non-operational design (EXPERIMENTS.md,
        // Figure 5); validation reports it honestly rather than hiding it.
        assert!(*apply.counters.get("tiles.failing").unwrap_or(&0) >= 1);
        assert!(r.report.counter_total("sidb.visited") > 0);
    }

    #[test]
    fn tile_validation_keeps_the_step_cap_and_adds_the_deadline() {
        let deadline = Deadline::after_ms(60_000);
        let capped =
            fcn_budget::StepBudget::unbounded().with_max_steps(sidb_sim::engine::DEFAULT_MAX_STEPS);
        assert_eq!(
            validation_sim(deadline, None).budget,
            capped.with_deadline(deadline)
        );
        // Without a deadline, step 7 runs under the plain step cap.
        assert_eq!(validation_sim(Deadline::unbounded(), None).budget, capped);
    }

    #[test]
    fn surface_aware_flow_reports_defect_counters() {
        let b = benchmark("xor2");
        let surface = sidb_sim::DefectMap::random(7, 5e-5, &sidb_sim::DefectKind::ALL);
        let defects = surface.len() as u64;
        assert!(defects > 0, "seed 7 at 5e-5 populates the region");
        let r =
            run("xor2", &b.xag, FlowOptions::new().with_surface(surface)).expect("flow succeeds");
        let pnr = r.report.root.child("step4:pnr").expect("pnr stage");
        assert_eq!(pnr.counters.get("defects.count"), Some(&defects));
        assert!(pnr.counters.contains_key("defects.blacklisted"));
        let apply = r.report.root.child("step7:apply").expect("apply stage");
        // An avoiding placement leaves no occupied tile compromised.
        if r.exact && r.degradations.is_empty() {
            assert_eq!(apply.counters.get("defects.compromised"), Some(&0));
        } else {
            assert!(apply.counters.contains_key("defects.compromised"));
        }
    }

    #[test]
    fn pristine_surface_leaves_report_untouched() {
        let b = benchmark("xor2");
        let base = run("xor2", &b.xag, FlowOptions::default()).expect("flow");
        let with = run(
            "xor2",
            &b.xag,
            FlowOptions::default().with_surface(sidb_sim::DefectMap::pristine()),
        )
        .expect("flow");
        assert_eq!(base.layout.ratio(), with.layout.ratio());
        let pnr = with.report.root.child("step4:pnr").expect("pnr stage");
        assert_eq!(pnr.counters.get("defects.count"), Some(&0));
        assert_eq!(pnr.counters.get("defects.blacklisted"), Some(&0));
    }

    #[test]
    fn verilog_entry_point_works() {
        let r = FlowRequest::verilog(
            "module and2 (a, b, f); input a, b; output f; assign f = a & b; endmodule",
        )
        .with_options(FlowOptions::new().without_library())
        .execute()
        .expect("flow");
        assert_eq!(r.name, "and2");
    }

    #[test]
    fn fingerprint_tracks_content_not_performance_knobs() {
        let b = benchmark("xor2");
        let base = FlowRequest::netlist("xor2", b.xag.clone());
        // Performance knobs (the cache, the deadline) leave the
        // fingerprint unchanged …
        let tuned = FlowRequest::netlist("xor2", b.xag.clone()).with_options(
            FlowOptions::new()
                .with_sim_cache(sidb_sim::SimCache::new())
                .with_deadline_ms(1_000),
        );
        assert_eq!(base.fingerprint(), tuned.fingerprint());
        // … while anything that shapes the result moves it.
        let other_input = FlowRequest::netlist("xor3", b.xag.clone());
        assert_ne!(base.fingerprint(), other_input.fingerprint());
        let other_options = FlowRequest::netlist("xor2", b.xag.clone())
            .with_options(FlowOptions::new().without_verify());
        assert_ne!(base.fingerprint(), other_options.fingerprint());
        // Stable across calls.
        assert_eq!(base.fingerprint(), base.fingerprint());
    }

    #[test]
    fn flow_error_codes_are_stable_and_json_parseable() {
        let err = FlowRequest::verilog("module broken (")
            .execute()
            .expect_err("parse fails");
        assert_eq!(err.code(), "parse");
        let text = err.to_value().serialize();
        let parsed = fcn_telemetry::json::parse(&text).expect("well-formed JSON");
        assert_eq!(parsed.get("code").and_then(|v| v.as_str()), Some("parse"));
        assert!(parsed
            .get("message")
            .and_then(|v| v.as_str())
            .is_some_and(|m| !m.is_empty()));
        let not_equiv = FlowError::NotEquivalent {
            counterexample: vec![true, false],
        };
        assert_eq!(not_equiv.code(), "not-equivalent");
        let v = fcn_telemetry::json::parse(&not_equiv.to_value().serialize()).expect("json");
        assert_eq!(
            v.get("counterexample")
                .and_then(|c| c.as_array())
                .map(<[_]>::len),
            Some(2)
        );
    }
}
