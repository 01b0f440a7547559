//! `fcn-server` — the flow as a service (ROADMAP item 1).
//!
//! A long-lived, multi-tenant design server: clients submit
//! [`bestagon_core::flow::FlowRequest`]s into a bounded job queue; a fixed
//! crew of worker threads drains it, each job running the full
//! eight-step flow and answering with its artifacts plus the per-run
//! telemetry report. Three pieces of state are deliberately shared
//! *across* requests, because real workloads resubmit near-identical
//! designs constantly:
//!
//! * one process-wide [`sidb_sim::SimCache`], so step 7 never
//!   re-simulates a charge configuration another job already settled;
//! * a content-addressed result cache keyed by
//!   [`bestagon_core::flow::FlowRequest::fingerprint`] — an identical
//!   circuit+options pair is answered from memory, honestly marked
//!   `cache_hit`.
//!
//! No SAT solver state is kept between jobs: every exact P&R probe runs
//! on a fresh solver.
//!
//! Admission control never hangs a client: a saturated queue rejects at
//! submit with a typed [`RejectReason`], a job whose deadline expired
//! while queued is rejected at dequeue, and shutdown drains the queue
//! with rejections before the workers exit. Results are deterministic
//! at any worker count — each job runs wholly on one worker, and the
//! simulation cache is a pure work optimization whose presence never
//! changes an artifact byte.
//!
//! The flow workers share one executor width ([`fcn_budget::exec`]):
//! parallel stages inside concurrent jobs draw pool threads from the
//! same `THREADS` budget instead of each taking a full width.
//!
//! Aggregates land in the process-wide [`fcn_telemetry::Registry`]
//! (`server.jobs`, `server.rejected`, `server.cache_hits`, a
//! queue-depth histogram); [`Server::aggregate`] diffs two snapshots to
//! attribute a window. The `fcn-server` binary speaks line-delimited
//! JSON over stdin/stdout — see `main.rs` for the wire format.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use bestagon_core::flow::{FlowRequest, FlowResult};
use fcn_budget::{exec, Deadline};
use fcn_telemetry::json::Value;
use fcn_telemetry::{Registry, RegistrySnapshot};
use sidb_sim::SimCache;

/// How the server is sized.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Concurrent flow workers. Results are byte-identical at any
    /// width; width only buys throughput.
    pub(crate) workers: usize,
    /// Jobs the queue admits before rejecting with
    /// [`RejectReason::QueueFull`] (in-flight jobs do not count).
    pub(crate) queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
        }
    }
}

impl ServerConfig {
    /// The default sizing: one worker, a 64-job queue.
    pub fn new() -> Self {
        ServerConfig::default()
    }

    /// Reads `SERVER_WORKERS` and `SERVER_QUEUE` from the environment,
    /// keeping the defaults where unset or unparseable.
    pub fn from_env() -> Self {
        fn parse(name: &str) -> Option<usize> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        let mut config = ServerConfig::default();
        if let Some(workers) = parse("SERVER_WORKERS") {
            config.workers = workers;
        }
        if let Some(capacity) = parse("SERVER_QUEUE") {
            config.queue_capacity = capacity;
        }
        config
    }

    /// Sets the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the queue bound.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// Why the server refused a job instead of running it. Never an error
/// and never a hang: rejection is a first-class, typed verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The queue already holds `capacity` jobs; resubmit later.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The job's deadline expired while it waited in the queue.
    DeadlineExpired,
    /// The server is shutting down and drains its queue unrun.
    ShuttingDown,
}

impl RejectReason {
    /// Stable machine-readable discriminant (wire-protocol contract).
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue-full",
            RejectReason::DeadlineExpired => "deadline-expired",
            RejectReason::ShuttingDown => "shutting-down",
        }
    }
}

impl core::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs pending)")
            }
            RejectReason::DeadlineExpired => f.write_str("deadline expired while queued"),
            RejectReason::ShuttingDown => f.write_str("server shutting down"),
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The flow completed; artifacts attached.
    Done,
    /// The flow ran and failed with a typed [`bestagon_core::flow::FlowError`]
    /// (attached as `error`).
    Failed,
    /// The server refused to run the job (see `error.code`).
    Rejected,
}

impl JobStatus {
    /// Stable machine-readable discriminant (wire-protocol contract).
    pub(crate) fn code(&self) -> &'static str {
        match self {
            JobStatus::Done => "ok",
            JobStatus::Failed => "error",
            JobStatus::Rejected => "rejected",
        }
    }
}

/// The server's answer to one job.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct JobResponse {
    /// Server-assigned job id (submission order, 1-based).
    pub id: u64,
    /// How the job ended.
    pub status: JobStatus,
    /// Whether the answer was served from the content-addressed result
    /// cache instead of a fresh flow run.
    pub cache_hit: bool,
    /// Exported gate-level Verilog of the optimized network.
    pub verilog: Option<String>,
    /// SiQAD `.sqd` export of the dot-accurate layout (when the library
    /// was applied).
    pub sqd: Option<String>,
    /// Number of graceful-degradation events the run recorded.
    pub degradations: u64,
    /// The per-run telemetry report (span tree as JSON). On a cache
    /// hit, the cold run's report.
    pub report: Option<Value>,
    /// The typed failure ([`bestagon_core::flow::FlowError::to_value`]) or
    /// rejection (`{code, message}`).
    pub error: Option<Value>,
}

impl JobResponse {
    fn rejected(id: u64, reason: &RejectReason) -> Self {
        JobResponse {
            id,
            status: JobStatus::Rejected,
            cache_hit: false,
            verilog: None,
            sqd: None,
            degradations: 0,
            report: None,
            error: Some(Value::Obj(vec![
                ("code".to_owned(), Value::Str(reason.code().to_owned())),
                ("message".to_owned(), Value::Str(reason.to_string())),
            ])),
        }
    }

    /// The response as a JSON object with stable field names (`id`,
    /// `status`, `cache_hit`, then `verilog`/`sqd`/`degradations`/
    /// `report` or `error` as applicable).
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_owned(), Value::Num(self.id as f64)),
            (
                "status".to_owned(),
                Value::Str(self.status.code().to_owned()),
            ),
            ("cache_hit".to_owned(), Value::Bool(self.cache_hit)),
        ];
        if let Some(verilog) = &self.verilog {
            fields.push(("verilog".to_owned(), Value::Str(verilog.clone())));
        }
        if let Some(sqd) = &self.sqd {
            fields.push(("sqd".to_owned(), Value::Str(sqd.clone())));
        }
        if self.status == JobStatus::Done {
            fields.push((
                "degradations".to_owned(),
                Value::Num(self.degradations as f64),
            ));
        }
        if let Some(report) = &self.report {
            fields.push(("report".to_owned(), report.clone()));
        }
        if let Some(error) = &self.error {
            fields.push(("error".to_owned(), error.clone()));
        }
        Value::Obj(fields)
    }
}

/// A handle to one admitted job; resolves to its [`JobResponse`].
#[derive(Debug)]
pub struct JobTicket {
    receiver: mpsc::Receiver<JobResponse>,
}

impl JobTicket {
    /// Blocks until the job's response. Every admitted job is answered
    /// — run, failed, deadline-rejected, or shutdown-rejected — so this
    /// never hangs on a live server.
    pub fn wait(self) -> JobResponse {
        self.receiver
            .recv()
            .expect("the server answers every admitted job before its workers exit")
    }
}

/// One queued job.
struct Job {
    id: u64,
    request: FlowRequest,
    deadline: Deadline,
    respond: mpsc::Sender<JobResponse>,
}

/// A finished result's replayable bytes.
#[derive(Clone)]
struct CachedResult {
    verilog: String,
    sqd: Option<String>,
    degradations: u64,
    report: Value,
}

/// State shared between the handle and the workers.
struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    results: Mutex<HashMap<u64, CachedResult>>,
    sim_cache: SimCache,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The in-process design server. Construct with [`Server::new`];
/// dropping it drains the queue (rejecting unstarted jobs), finishes
/// in-flight jobs, and joins the workers.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    config: ServerConfig,
    next_id: AtomicU64,
    started_at: RegistrySnapshot,
}

impl Server {
    /// Boots `config.workers` worker threads over an empty queue. The
    /// workers share the caller's executor width.
    pub fn new(config: ServerConfig) -> Server {
        let config = ServerConfig {
            workers: config.workers.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            results: Mutex::new(HashMap::new()),
            sim_cache: SimCache::new(),
        });
        let share = exec::Share::current();
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let share = share.clone();
                std::thread::Builder::new()
                    .name(format!("flow-worker-{i}"))
                    .spawn(move || share.run(|| worker_loop(&shared)))
                    .expect("spawning a flow worker")
            })
            .collect();
        Server {
            shared,
            workers,
            config,
            next_id: AtomicU64::new(0),
            started_at: Registry::global().snapshot(),
        }
    }

    /// Admits a job, or rejects it with a typed reason — immediately,
    /// never blocking on a full queue. The job's deadline is whatever
    /// `request.options.budget.deadline` says; a job still queued when
    /// it expires is rejected at dequeue instead of run.
    pub fn submit(&self, request: FlowRequest) -> Result<JobTicket, RejectReason> {
        let registry = Registry::global();
        let deadline = request.options.budget.deadline;
        let mut queue = self.shared.queue.lock().unwrap();
        if queue.shutdown {
            registry.add_counter("server.rejected", 1);
            return Err(RejectReason::ShuttingDown);
        }
        if queue.jobs.len() >= self.config.queue_capacity {
            registry.add_counter("server.rejected", 1);
            return Err(RejectReason::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (sender, receiver) = mpsc::channel();
        queue.jobs.push_back(Job {
            id,
            request,
            deadline,
            respond: sender,
        });
        registry.record_histogram("server.queue_depth", queue.jobs.len() as u64);
        drop(queue);
        self.shared.available.notify_one();
        Ok(JobTicket { receiver })
    }

    /// Everything the process-wide [`Registry`] accumulated since this
    /// server was constructed: `server.*` counters, the queue-depth
    /// histogram, and every per-flow counter the jobs' reports folded
    /// in.
    pub fn aggregate(&self) -> RegistrySnapshot {
        Registry::global().snapshot().diff(&self.started_at)
    }

    /// [`Server::aggregate`] as a JSON object.
    pub fn aggregate_value(&self) -> Value {
        self.aggregate().to_value()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let drained: Vec<Job> = {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.shutdown = true;
            queue.jobs.drain(..).collect()
        };
        let registry = Registry::global();
        for job in drained {
            registry.add_counter("server.rejected", 1);
            let _ = job
                .respond
                .send(JobResponse::rejected(job.id, &RejectReason::ShuttingDown));
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// One worker: block-pop-run until shutdown.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        process(shared, job);
    }
}

/// Runs (or replays, or rejects) one job and answers its ticket.
fn process(shared: &Shared, job: Job) {
    let registry = Registry::global();
    if job.deadline.expired() {
        registry.add_counter("server.rejected", 1);
        let _ = job.respond.send(JobResponse::rejected(
            job.id,
            &RejectReason::DeadlineExpired,
        ));
        return;
    }

    let key = job.request.fingerprint();
    let cached = shared.results.lock().unwrap().get(&key).cloned();
    if let Some(hit) = cached {
        registry.add_counter("server.jobs", 1);
        registry.add_counter("server.cache_hits", 1);
        let _ = job.respond.send(JobResponse {
            id: job.id,
            status: JobStatus::Done,
            cache_hit: true,
            verilog: Some(hit.verilog),
            sqd: hit.sqd,
            degradations: hit.degradations,
            report: Some(hit.report),
            error: None,
        });
        return;
    }

    // Cold: run the flow with the shared cache installed — unless the
    // client pinned its own, which always wins.
    let mut request = job.request;
    if request.options.sim_cache.is_none() {
        request.options.sim_cache = Some(shared.sim_cache.clone());
    }
    let outcome = request.execute();
    registry.add_counter("server.jobs", 1);
    let response = match outcome {
        Ok(result) => {
            let response = done_response(job.id, &result);
            // Only pristine runs are cacheable: degradations depend on
            // wall-clock pressure, which the fingerprint cannot see.
            if result.degradations.is_empty() {
                shared.results.lock().unwrap().insert(
                    key,
                    CachedResult {
                        verilog: response.verilog.clone().expect("done responses export"),
                        sqd: response.sqd.clone(),
                        degradations: 0,
                        report: response.report.clone().expect("done responses report"),
                    },
                );
            }
            response
        }
        Err(error) => {
            registry.add_counter("server.failed", 1);
            JobResponse {
                id: job.id,
                status: JobStatus::Failed,
                cache_hit: false,
                verilog: None,
                sqd: None,
                degradations: 0,
                report: None,
                error: Some(error.to_value()),
            }
        }
    };
    let _ = job.respond.send(response);
}

fn done_response(id: u64, result: &FlowResult) -> JobResponse {
    JobResponse {
        id,
        status: JobStatus::Done,
        cache_hit: false,
        verilog: Some(result.to_verilog()),
        sqd: result.to_sqd(),
        degradations: result.degradations.len() as u64,
        report: Some(result.report.to_value()),
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bestagon_core::flow::{FlowOptions, PnrMethod};

    const AND2: &str = "module and2 (a, b, f); input a, b; output f; assign f = a & b; endmodule";

    /// Serializes the tests: they all submit jobs, and the registry
    /// window one of them asserts on is process-wide.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn quick_options() -> FlowOptions {
        FlowOptions::new()
            .with_pnr(PnrMethod::Exact { max_area: 60 })
            .without_library()
    }

    #[test]
    fn a_job_runs_and_answers_with_artifacts() {
        let _serial = serial();
        let server = Server::new(ServerConfig::new());
        let ticket = server
            .submit(FlowRequest::verilog(AND2).with_options(quick_options()))
            .expect("admitted");
        let response = ticket.wait();
        assert_eq!(response.status, JobStatus::Done);
        assert!(!response.cache_hit);
        assert!(response.verilog.as_deref().unwrap().contains("and2"));
        assert!(response.report.is_some());
    }

    #[test]
    fn identical_resubmission_is_a_cache_hit_with_identical_bytes() {
        let _serial = serial();
        let server = Server::new(ServerConfig::new());
        let request = FlowRequest::verilog(AND2).with_options(quick_options());
        let before = server.aggregate();
        let cold = server.submit(request.clone()).expect("admitted").wait();
        let warm = server.submit(request).expect("admitted").wait();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit, "second identical request replays");
        assert_eq!(cold.verilog, warm.verilog);
        assert_eq!(cold.sqd, warm.sqd);
        let window = server.aggregate().diff(&before);
        assert_eq!(window.counters.get("server.jobs"), Some(&2));
        assert_eq!(window.counters.get("server.cache_hits"), Some(&1));
    }

    #[test]
    fn a_full_queue_rejects_with_a_typed_reason() {
        let _serial = serial();
        // Zero workers are clamped to one; saturate it with a slow-ish
        // job, then overflow the one-slot queue.
        let server = Server::new(ServerConfig::new().with_queue_capacity(1));
        let burst: Vec<_> = (0..10)
            .map(|_| server.submit(FlowRequest::verilog(AND2).with_options(quick_options())))
            .collect();
        let rejected: Vec<_> = burst.into_iter().filter_map(Result::err).collect();
        // With one worker and a one-deep queue, at most two of the ten
        // are ever admitted-or-running at once; the burst must see
        // queue-full rejections, all typed.
        assert!(!rejected.is_empty(), "burst overflows the one-slot queue");
        assert!(rejected
            .iter()
            .all(|r| matches!(r, RejectReason::QueueFull { capacity: 1 })));
        assert_eq!(rejected[0].code(), "queue-full");
    }

    #[test]
    fn an_expired_deadline_is_rejected_at_dequeue_not_run() {
        let _serial = serial();
        let server = Server::new(ServerConfig::new());
        let request = FlowRequest::verilog(AND2).with_options(quick_options().with_deadline_ms(0));
        let response = server.submit(request).expect("admitted").wait();
        assert_eq!(response.status, JobStatus::Rejected);
        assert_eq!(
            response
                .error
                .as_ref()
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("deadline-expired")
        );
    }

    #[test]
    fn a_failing_flow_answers_with_the_typed_error() {
        let _serial = serial();
        let server = Server::new(ServerConfig::new());
        let response = server
            .submit(FlowRequest::verilog("module broken ("))
            .expect("admitted")
            .wait();
        assert_eq!(response.status, JobStatus::Failed);
        assert_eq!(
            response
                .error
                .as_ref()
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str),
            Some("parse")
        );
    }

    #[test]
    fn shutdown_rejects_queued_jobs_instead_of_hanging() {
        let _serial = serial();
        let server = Server::new(ServerConfig::new().with_queue_capacity(8));
        // A small pile-up behind one worker, then immediate shutdown.
        let tickets: Vec<_> = (0..4)
            .filter_map(|_| {
                server
                    .submit(FlowRequest::verilog(AND2).with_options(quick_options()))
                    .ok()
            })
            .collect();
        drop(server);
        for ticket in tickets {
            let response = ticket.wait();
            match response.status {
                JobStatus::Done => {}
                JobStatus::Rejected => {
                    assert_eq!(
                        response
                            .error
                            .as_ref()
                            .and_then(|e| e.get("code"))
                            .and_then(Value::as_str),
                        Some("shutting-down")
                    );
                }
                JobStatus::Failed => panic!("shutdown must not fail jobs"),
            }
        }
    }
}
