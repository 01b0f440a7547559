//! End-to-end tests for the `fcn-server` design daemon: concurrent
//! mixed workloads, determinism across worker counts, honest result
//! caching, typed admission control, and the Send/Sync audit that makes
//! the whole multi-tenant design sound.
//!
//! Registry caveat: `fcn_telemetry::Registry::global()` is process-wide
//! and the test harness runs tests in parallel, so windowed counter
//! assertions use `>=` — another test's flow may land in the window,
//! but counts never go backwards.

use bestagon_core::flow::{FlowOptions, FlowRequest, PnrMethod};
use fcn_server::{JobStatus, RejectReason, Server, ServerConfig};
use fcn_telemetry::json::Value;

const XOR2: &str = "
    module xor2 (a, b, f);
      input a, b;
      output f;
      assign f = a ^ b;
    endmodule";

const VOTER_BLIF: &str = "\
.model voter
.inputs a b c
.outputs f
.names a b c f
11- 1
1-1 1
-11 1
.end
";

fn exact_options() -> FlowOptions {
    FlowOptions::new().with_pnr(PnrMethod::Exact { max_area: 100 })
}

/// A mixed batch: valid Verilog, valid BLIF, and malformed input, all
/// in flight at once. Every job is answered, failures are typed, and
/// successes carry artifacts and a report.
#[test]
fn concurrent_mixed_batch_answers_every_job() {
    let server = Server::new(ServerConfig::new().with_workers(4));
    let tickets = vec![
        server
            .submit(FlowRequest::verilog(XOR2).with_options(exact_options()))
            .expect("admitted"),
        server
            .submit(FlowRequest::blif(VOTER_BLIF).with_options(exact_options()))
            .expect("admitted"),
        server
            .submit(FlowRequest::verilog("module broken ("))
            .expect("admitted"),
    ];
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();

    assert_eq!(responses[0].status, JobStatus::Done);
    assert!(responses[0].verilog.as_deref().unwrap().contains("xor2"));
    assert!(responses[0].sqd.is_some(), "library applied by default");
    assert!(responses[0].report.is_some());

    assert_eq!(responses[1].status, JobStatus::Done);
    assert!(responses[1].verilog.as_deref().unwrap().contains("voter"));

    assert_eq!(responses[2].status, JobStatus::Failed);
    assert_eq!(
        responses[2]
            .error
            .as_ref()
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str),
        Some("parse")
    );
}

/// The determinism contract: the same request through a 1-worker and a
/// 4-worker server — cold, then cached — produces byte-identical
/// artifacts, and the replay is honestly marked `cache_hit`.
#[test]
fn results_are_byte_identical_across_worker_counts_and_cache_states() {
    let request = || FlowRequest::verilog(XOR2).with_options(exact_options());
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        let server = Server::new(ServerConfig::new().with_workers(workers));
        let before = server.aggregate();
        let cold = server.submit(request()).expect("admitted").wait();
        let warm = server.submit(request()).expect("admitted").wait();
        assert_eq!(cold.status, JobStatus::Done, "{workers} workers");
        assert_eq!(warm.status, JobStatus::Done, "{workers} workers");
        assert!(!cold.cache_hit, "first run is cold ({workers} workers)");
        assert!(warm.cache_hit, "replay is marked ({workers} workers)");
        assert_eq!(cold.verilog, warm.verilog, "{workers} workers");
        assert_eq!(cold.sqd, warm.sqd, "{workers} workers");
        let window = server.aggregate().diff(&before);
        assert!(
            window
                .counters
                .get("server.cache_hits")
                .copied()
                .unwrap_or(0)
                >= 1,
            "{workers} workers: {:?}",
            window.counters
        );
        assert!(window.counters.get("server.jobs").copied().unwrap_or(0) >= 2);
        runs.push((cold.verilog, cold.sqd));
    }
    assert_eq!(runs[0], runs[1], "1-worker and 4-worker artifacts match");
}

/// A saturated queue rejects at submit with a typed reason — the
/// server never hangs or silently drops work.
#[test]
fn saturated_queue_rejects_with_queue_full() {
    let server = Server::new(ServerConfig::new().with_workers(1).with_queue_capacity(2));
    let outcomes: Vec<_> = (0..12)
        .map(|_| server.submit(FlowRequest::verilog(XOR2).with_options(exact_options())))
        .collect();
    let rejections: Vec<_> = outcomes.into_iter().filter_map(Result::err).collect();
    assert!(
        !rejections.is_empty(),
        "12 submissions against a 2-deep queue must overflow"
    );
    for reason in &rejections {
        assert_eq!(reason, &RejectReason::QueueFull { capacity: 2 });
        assert_eq!(reason.code(), "queue-full");
    }
}

/// An already-expired deadline is rejected at dequeue — the flow never
/// runs, and the client gets the typed reason, not a timeout error.
#[test]
fn expired_deadline_is_rejected_not_run() {
    let server = Server::new(ServerConfig::new());
    let response = server
        .submit(FlowRequest::verilog(XOR2).with_options(exact_options().with_deadline_ms(0)))
        .expect("admitted — expiry is checked at dequeue")
        .wait();
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

/// The response JSON round-trips through the hand-rolled serde-free
/// parser with stable field names — the wire contract of `main.rs`.
#[test]
fn job_response_json_round_trips_without_serde() {
    let server = Server::new(ServerConfig::new());
    let response = server
        .submit(FlowRequest::verilog(XOR2).with_options(exact_options()))
        .expect("admitted")
        .wait();
    let text = response.to_value().serialize();
    let parsed = fcn_telemetry::json::parse(&text).expect("serializer emits valid JSON");
    assert_eq!(
        parsed.get("status").and_then(Value::as_str),
        Some("ok"),
        "{text}"
    );
    assert_eq!(
        parsed.get("cache_hit").and_then(Value::as_bool),
        Some(false)
    );
    assert!(parsed.get("verilog").and_then(Value::as_str).is_some());
    assert!(
        parsed.get("report").and_then(|r| r.get("spans")).is_some()
            || parsed.get("report").is_some(),
        "report embedded as an object"
    );
}

/// The Send/Sync audit, pinned at compile time: everything the server
/// shares across threads — and the server handle itself — must be
/// safely shareable. A regression here (say, an `Rc` slipping into
/// `SimCache`) fails this test at compile time, not in production.
#[test]
fn shared_state_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<sidb_sim::SimCache>();
    assert_send_sync::<sidb_sim::DefectMap>();
    assert_send_sync::<fcn_telemetry::Registry>();
    assert_send_sync::<bestagon_core::flow::FlowRequest>();
    assert_send_sync::<bestagon_core::flow::FlowOptions>();
    assert_send_sync::<Server>();
    assert_send_sync::<fcn_server::JobResponse>();
    // Tickets move to the waiting client thread but are not shared.
    fn assert_send<T: Send>() {}
    assert_send::<fcn_server::JobTicket>();
}
