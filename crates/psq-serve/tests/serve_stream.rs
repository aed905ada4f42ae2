//! Integration tests for the streaming serving layer.
//!
//! The server must be a *transparent* multiplexer: any interleaving of any
//! number of clients yields, per client, exactly the tagged results that
//! running that client's jobs through `Engine::run_batch` directly would
//! produce (wall times aside) — and overload never loses a job silently.

use proptest::prelude::*;
use psq_engine::{Engine, EngineConfig, EngineObsSnapshot, SearchJob, SearchResult};
use psq_serve::protocol::{parse_response, ErrorKind, Response};
use psq_serve::{ClientCounters, CoalescerConfig, LineOutcome, ServeConfig, ServeMetrics, Server};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

/// The fields a streamed result must share with direct batch execution
/// (everything deterministic except the client-rewritten `job_id`).
#[allow(clippy::type_complexity)]
fn comparable(result: &SearchResult) -> (u64, u64, bool, Option<u64>, u32, u64, f64, u32, u32) {
    (
        result.block_found,
        result.true_block,
        result.correct,
        result.address_found,
        result.levels,
        result.queries,
        result.success_estimate,
        result.trials,
        result.trials_correct,
    )
}

/// Reference: each client's jobs executed as one direct engine batch.
fn reference_results(jobs: &[SearchJob]) -> Vec<SearchResult> {
    let engine = Engine::new(EngineConfig {
        threads: Some(1),
        ..EngineConfig::default()
    });
    let report = engine.run_batch(jobs);
    assert!(report.rejected.is_empty(), "reference jobs are valid");
    report.results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any interleaving of 1–4 clients' job streams through the coalescer
    /// is bit-identical, per client, to direct batch execution.
    #[test]
    fn stream_results_are_bit_identical_to_batch_execution(
        seed in 0u64..1u64 << 40,
        clients in 1usize..5,
        per_client in 1usize..17,
    ) {
        let server = Server::start(ServeConfig {
            engine: EngineConfig { threads: Some(2), ..EngineConfig::default() },
            coalescer: CoalescerConfig { max_batch: 8, max_delay_us: 300 },
            ..ServeConfig::default()
        });
        // Client c's jobs: a deterministic mixed slice with *local* ids
        // 0..per_client — ids deliberately collide across clients.
        let mut streams: Vec<Vec<SearchJob>> = Vec::new();
        for c in 0..clients {
            let mut jobs = psq_engine::generate_mixed_batch(per_client, seed ^ (c as u64 + 1));
            for (local, job) in jobs.iter_mut().enumerate() {
                job.id = local as u64;
            }
            streams.push(jobs);
        }
        let attached: Vec<_> = (0..clients).map(|_| server.attach()).collect();
        // Round-robin interleaving across clients.
        for index in 0..per_client {
            for ((client, _), stream) in attached.iter().zip(&streams) {
                let line = serde_json::to_string(&stream[index]).expect("serialises");
                prop_assert_eq!(client.submit_line(&line), LineOutcome::Continue);
            }
        }
        for (c, (client, responses)) in attached.into_iter().enumerate() {
            drop(client);
            let mut by_id: HashMap<u64, SearchResult> = HashMap::new();
            for line in responses.iter() {
                match parse_response(&line).expect("well-formed response line") {
                    Response::Result(result) => {
                        let previous = by_id.insert(result.job_id, *result);
                        prop_assert!(previous.is_none(), "id answered twice");
                    }
                    other => prop_assert!(false, "unexpected response {:?}", other),
                }
            }
            prop_assert_eq!(by_id.len(), per_client, "client {} fully answered", c);
            for (local, (job, reference)) in
                streams[c].iter().zip(reference_results(&streams[c])).enumerate()
            {
                let streamed = &by_id[&job.id];
                prop_assert_eq!(streamed.backend, reference.backend);
                prop_assert_eq!(
                    comparable(streamed),
                    comparable(&reference),
                    "client {} local job {} diverged from batch execution",
                    c,
                    local
                );
            }
        }
        let metrics = server.metrics();
        prop_assert_eq!(metrics.jobs_completed, (clients * per_client) as u64);
        prop_assert_eq!(metrics.queue_depth, 0);
        server.finish();
    }
}

/// Backpressure: a client over its in-flight bound gets well-formed JSON
/// overload errors, the connection survives, and no job goes unanswered.
#[test]
fn overload_responses_are_well_formed_and_no_job_is_silently_dropped() {
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            threads: Some(1),
            ..EngineConfig::default()
        },
        // A long dwell so everything we flood lands before the first
        // fan-out: admissions beyond the bound must overload.
        coalescer: CoalescerConfig {
            max_batch: 256,
            max_delay_us: 200_000,
        },
        max_inflight: 4,
        ..ServeConfig::default()
    });
    let (client, responses) = server.attach();
    let total = 64u64;
    for id in 0..total {
        let job = SearchJob::new(id, 1 << 10, 4, (id * 31) % (1 << 10));
        client.submit_line(&serde_json::to_string(&job).expect("serialises"));
    }
    let mut results = Vec::new();
    let mut overloads = Vec::new();
    for _ in 0..total {
        let line = responses.recv().expect("every submission is answered");
        // Well-formed JSON first: the raw line must parse as a value …
        serde_json::parse_value(&line).expect("overload responses are valid JSON");
        // … and as a protocol response.
        match parse_response(&line).expect("well-formed response") {
            Response::Result(result) => results.push(result.job_id),
            Response::Error { id, kind, reason } => {
                assert_eq!(kind, ErrorKind::Overload);
                assert!(reason.contains("in flight"), "reason explains: {reason}");
                overloads.push(id.expect("overload errors carry the job id"));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // The first `max_inflight` jobs were admitted, the rest bounced; every
    // id was answered exactly once one way or the other.
    assert_eq!(results.len(), 4);
    assert_eq!(overloads.len(), 60);
    let mut answered: Vec<u64> = results.iter().chain(&overloads).copied().collect();
    answered.sort_unstable();
    assert_eq!(answered, (0..total).collect::<Vec<_>>());
    let metrics = server.metrics();
    assert_eq!(metrics.jobs_overloaded, 60);
    assert_eq!(metrics.jobs_completed, 4);
    // The connection survives overload: slots are free again, so a fresh
    // submission is admitted and answered.
    client.submit_line(
        &serde_json::to_string(&SearchJob::new(999, 1 << 10, 4, 1)).expect("serialises"),
    );
    let line = responses.recv().expect("post-overload job answered");
    match parse_response(&line).expect("well-formed") {
        Response::Result(result) => assert_eq!(result.job_id, 999),
        other => panic!("expected a result, got {other:?}"),
    }
    drop(client);
    server.finish();
}

/// Two concurrent TCP clients: each receives exactly its own tagged
/// results, bit-identical to direct batch execution of its jobs.
#[test]
fn tcp_two_concurrent_clients_get_exactly_their_own_results() {
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        },
        coalescer: CoalescerConfig {
            max_batch: 16,
            max_delay_us: 2_000,
        },
        ..ServeConfig::default()
    });
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address");

    let per_client = 20usize;
    // Same local ids on both clients, different job streams: results must
    // come back tagged per connection, never crossed.
    let make_stream = |client_seed: u64| {
        let mut jobs = psq_engine::generate_mixed_batch(per_client, 1000 + client_seed);
        for (local, job) in jobs.iter_mut().enumerate() {
            job.id = local as u64;
        }
        jobs
    };
    let streams = [make_stream(1), make_stream(2)];
    let references: Vec<Vec<SearchResult>> =
        streams.iter().map(|jobs| reference_results(jobs)).collect();

    let run_client = |jobs: &[SearchJob], shutdown_when_done: bool| {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        for job in jobs {
            let line = serde_json::to_string(job).expect("serialises");
            stream
                .write_all((line + "\n").as_bytes())
                .expect("write job line");
        }
        stream.flush().expect("flush jobs");
        let mut by_id: HashMap<u64, SearchResult> = HashMap::new();
        while by_id.len() < jobs.len() {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("read response") > 0,
                "connection closed before every result arrived"
            );
            match parse_response(line.trim_end()).expect("well-formed response") {
                Response::Result(result) => {
                    assert!(
                        by_id.insert(result.job_id, *result).is_none(),
                        "id answered twice"
                    );
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        if shutdown_when_done {
            stream
                .write_all(b"{\"cmd\":\"shutdown\"}\n")
                .expect("write shutdown");
            stream.flush().expect("flush shutdown");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read ack");
            match parse_response(line.trim_end()).expect("well-formed ack") {
                Response::Ack { cmd } => assert_eq!(cmd, "shutdown"),
                other => panic!("expected the shutdown ack, got {other:?}"),
            }
        }
        by_id
    };

    std::thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_tcp(listener));
        let first = scope.spawn(|| run_client(&streams[0], false));
        let second_results = run_client(&streams[1], false);
        let first_results = first.join().expect("first client thread");
        // Both clients fully served; now one more connection shuts the
        // server down gracefully.
        let mut closer = std::net::TcpStream::connect(addr).expect("connect closer");
        closer
            .write_all(b"{\"cmd\":\"shutdown\"}\n")
            .expect("write shutdown");
        closer.flush().expect("flush");
        serve
            .join()
            .expect("serve thread")
            .expect("clean serve exit");

        for (client_index, results) in [first_results, second_results].iter().enumerate() {
            assert_eq!(results.len(), per_client);
            for (local, reference) in references[client_index].iter().enumerate() {
                let streamed = &results[&(local as u64)];
                assert_eq!(streamed.backend, reference.backend);
                assert_eq!(
                    comparable(streamed),
                    comparable(reference),
                    "client {client_index} local job {local} diverged or crossed clients"
                );
            }
        }
    });
    let metrics = server.metrics();
    assert_eq!(metrics.jobs_completed, 2 * per_client as u64);
    assert!(metrics.clients_total >= 3);
    assert!(metrics.batches >= 1);
    assert!(metrics.latency_us_p99 >= metrics.latency_us_p50);
    server.finish();
}

/// The compiled binary round-trips a pipe stream: every id answered, clean
/// exit, and a metrics command gets a snapshot line.
#[test]
fn pipe_binary_round_trips_a_stream_and_exits_cleanly() {
    use std::process::{Command, Stdio};
    let jobs = psq_engine::generate_mixed_batch(48, 7);
    let mut input: String = jobs
        .iter()
        .map(|job| serde_json::to_string(job).expect("serialises") + "\n")
        .collect();
    input.push_str("{\"cmd\":\"metrics\"}\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_psq-serve"))
        .args(["--threads", "2", "--max-batch", "32"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn psq-serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write job stream");
    let output = child.wait_with_output().expect("psq-serve runs");
    assert!(
        output.status.success(),
        "clean exit (status {})",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let mut ids = Vec::new();
    let mut saw_metrics = false;
    for line in stdout.lines() {
        match parse_response(line).expect("well-formed output line") {
            Response::Result(result) => ids.push(result.job_id),
            Response::Metrics(metrics) => {
                saw_metrics = true;
                assert_eq!(metrics.clients_connected, 1);
            }
            other => panic!("unexpected output line {other:?}"),
        }
    }
    ids.sort_unstable();
    assert_eq!(ids, (0..48).collect::<Vec<_>>(), "all ids answered");
    assert!(saw_metrics, "the metrics command was answered in-stream");
}

/// `--selftest` is the CI smoke path: it must pass end to end.
#[test]
fn selftest_smoke_passes() {
    use std::process::Command;
    let status = Command::new(env!("CARGO_BIN_EXE_psq-serve"))
        .args(["--selftest", "32", "--threads", "2"])
        .status()
        .expect("spawn psq-serve");
    assert!(status.success(), "selftest exits 0 (got {status})");
}

/// A full-address job round-trips the pipe transport: the `full_address`
/// NDJSON field routes it to the recursive backend, it coalesces with
/// ordinary block jobs, and the tagged result carries the resolved address —
/// bit-identical to running the same job through the engine directly.
#[test]
fn full_address_jobs_round_trip_the_pipe_transport() {
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    });
    let target = 190_321u64;
    let full = SearchJob::full_address(7, 1 << 18, 4, target).with_seed(99);
    // One explicit-backend spelling, one `full_address` flag spelling, and
    // an ordinary block job riding in the same stream.
    let flagged = {
        let line = serde_json::to_string(&SearchJob::new(8, 1 << 18, 4, target).with_seed(99))
            .expect("serialises");
        format!("{},\"full_address\":true}}", &line[..line.len() - 1])
    };
    let input = format!(
        "{}\n{flagged}\n{}\n",
        serde_json::to_string(&full).expect("serialises"),
        serde_json::to_string(&SearchJob::new(9, 1 << 18, 4, target)).expect("serialises"),
    );
    let sink = psq_serve::testio::SharedSink::default();
    let summary = server
        .serve_pipe(input.as_bytes(), sink.clone())
        .expect("pipe session");
    assert_eq!(summary.lines_in, 3);

    let mut by_id: HashMap<u64, SearchResult> = HashMap::new();
    for line in sink.lines().iter() {
        match parse_response(line).expect("well-formed response line") {
            Response::Result(result) => {
                by_id.insert(result.job_id, *result);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(by_id.len(), 3, "every line answered once");

    // Both full-address spellings resolved the exact address...
    for id in [7u64, 8] {
        let result = &by_id[&id];
        assert_eq!(result.backend, psq_engine::Backend::Recursive, "job {id}");
        assert_eq!(result.address_found, Some(target), "job {id}");
        assert!(result.levels > 0, "job {id} descended levels");
        assert!(result.correct, "job {id}");
    }
    // ...and identically to direct engine execution (the two spellings are
    // the same deterministic spec, so they also dedup to one execution).
    let direct = Engine::new(EngineConfig {
        threads: Some(1),
        ..EngineConfig::default()
    })
    .run_job(&full)
    .expect("direct run");
    assert_eq!(comparable(&by_id[&7]), comparable(&direct));
    assert_eq!(comparable(&by_id[&8]), comparable(&direct));
    // The block job in the same stream stayed a block result.
    assert_eq!(by_id[&9].address_found, None);
    assert_eq!(by_id[&9].levels, 0);
    server.finish();
}

/// Regression: the `queue_depth` gauge drains back to zero after an
/// overload burst — overloaded submissions never leak a depth increment,
/// and freed slots admit (and fully drain) a follow-up wave.
#[test]
fn queue_depth_returns_to_zero_after_an_overload_burst() {
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            threads: Some(1),
            ..EngineConfig::default()
        },
        // Long dwell: the whole flood lands before the first fan-out, so
        // admissions beyond the bound deterministically overload.
        coalescer: CoalescerConfig {
            max_batch: 256,
            max_delay_us: 100_000,
        },
        max_inflight: 8,
        ..ServeConfig::default()
    });
    let (client, responses) = server.attach();
    let total = 96u64;
    for id in 0..total {
        let job = SearchJob::new(id, 1 << 10, 4, (id * 17) % (1 << 10));
        client.submit_line(&serde_json::to_string(&job).expect("serialises"));
    }
    // Only admitted jobs count toward depth, so the gauge is bounded by the
    // in-flight cap even mid-burst.
    assert!(server.metrics().queue_depth <= 8, "overloads never admit");
    for _ in 0..total {
        responses.recv().expect("every submission is answered");
    }
    let metrics = server.metrics();
    assert_eq!(
        metrics.queue_depth, 0,
        "depth drains to zero after the burst"
    );
    assert_eq!(metrics.jobs_completed + metrics.jobs_overloaded, total);
    assert_eq!(metrics.jobs_overloaded, total - 8);
    // Slots are free again: a second, in-bound wave admits and drains.
    for id in 0..8u64 {
        let job = SearchJob::new(1000 + id, 1 << 10, 4, id);
        client.submit_line(&serde_json::to_string(&job).expect("serialises"));
    }
    for _ in 0..8 {
        responses.recv().expect("second wave answered");
    }
    assert_eq!(server.metrics().queue_depth, 0, "depth re-drains to zero");
    drop(client);
    server.finish();
}

/// Regression: `{"cmd":"shutdown"}` drains every admitted job (each gets a
/// real result) and leaves `queue_depth` at zero; jobs refused during the
/// drain never touch the gauge.
#[test]
fn queue_depth_returns_to_zero_after_a_shutdown_drain() {
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            threads: Some(1),
            ..EngineConfig::default()
        },
        // Long dwell again: the jobs are still queued when shutdown lands,
        // so the drain — not ordinary completion — empties the gauge.
        coalescer: CoalescerConfig {
            max_batch: 256,
            max_delay_us: 200_000,
        },
        ..ServeConfig::default()
    });
    let (client, responses) = server.attach();
    let total = 24u64;
    for id in 0..total {
        let job = SearchJob::new(id, 1 << 10, 4, (id * 13) % (1 << 10));
        client.submit_line(&serde_json::to_string(&job).expect("serialises"));
    }
    assert_eq!(
        server.metrics().queue_depth,
        total,
        "every job admitted and still pending"
    );
    assert_eq!(
        client.submit_line("{\"cmd\":\"shutdown\"}"),
        LineOutcome::Stop
    );
    // A straggler after the command is refused at intake — it must not
    // increment (or decrement) the gauge.
    client.submit_job(SearchJob::new(999, 1 << 10, 4, 1));
    drop(client);
    let mut results = 0u64;
    let mut acks = 0u64;
    let mut refused = 0u64;
    for line in responses.iter() {
        match parse_response(&line).expect("well-formed response") {
            Response::Result(_) => results += 1,
            Response::Ack { cmd } => {
                assert_eq!(cmd, "shutdown");
                acks += 1;
            }
            Response::Error { id, kind, .. } => {
                assert_eq!(kind, ErrorKind::ShuttingDown);
                assert_eq!(id, Some(999));
                refused += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(results, total, "the drain answers every admitted job");
    assert_eq!(acks, 1);
    assert_eq!(refused, 1);
    let metrics = server.metrics();
    assert_eq!(metrics.queue_depth, 0, "depth is zero after the drain");
    assert_eq!(metrics.jobs_completed, total);
    assert_eq!(metrics.jobs_errored, 1);
    server.finish();
}

/// `--trace=stderr` on the serve binary emits well-formed NDJSON trace
/// events covering every pipeline stage (the CI smoke asserts the same).
#[test]
fn selftest_with_trace_emits_well_formed_stage_lines() {
    use std::process::Command;
    let output = Command::new(env!("CARGO_BIN_EXE_psq-serve"))
        .args(["--selftest", "24", "--threads", "2", "--trace=stderr"])
        .output()
        .expect("spawn psq-serve");
    assert!(output.status.success(), "selftest exits 0");
    let stderr = String::from_utf8(output.stderr).expect("UTF-8 stderr");
    let mut stages: HashMap<String, u64> = HashMap::new();
    for line in stderr.lines().filter(|line| line.starts_with('{')) {
        let value = serde_json::parse_value(line).expect("trace lines are valid JSON");
        let object = value.as_object().expect("trace lines are objects");
        assert_eq!(object.get("type").and_then(Value::as_str), Some("trace"));
        object
            .get("job")
            .and_then(Value::as_u64)
            .expect("trace lines carry the job id");
        let us = object
            .get("us")
            .and_then(Value::as_f64)
            .expect("trace lines carry the stage time");
        assert!(us >= 0.0, "stage time is non-negative");
        let stage = object
            .get("stage")
            .and_then(Value::as_str)
            .expect("trace lines carry the stage label");
        *stages.entry(stage.to_string()).or_default() += 1;
    }
    for stage in ["plan", "cache", "coalesce"] {
        assert!(
            stages.get(stage).copied().unwrap_or(0) >= 1,
            "at least one `{stage}` trace line (saw {stages:?})"
        );
    }
    assert!(
        stages.keys().any(|stage| stage.starts_with("execute:")),
        "at least one execute:<backend> trace line (saw {stages:?})"
    );
}

/// Work-conserving dispatch: under the default config a request to an idle
/// server runs at once instead of waiting for batch company. Fifty lone
/// round trips, each waiting for its reply before the next is sent, take a
/// median well under 1 ms and finish in under 50 × 2 ms in total; a 2 ms
/// dwell alone would hold every one of them at least 2 ms. The median, not
/// each trip, carries the tight bound, so a scheduling hiccup on a busy
/// host cannot fail the test.
#[test]
fn lone_requests_to_an_idle_server_are_dispatched_at_once() {
    let server = Server::start(ServeConfig::default());
    let (client, responses) = server.attach();
    let started = Instant::now();
    let mut trips = Vec::new();
    for id in 0..50u64 {
        let sent = Instant::now();
        let job = SearchJob::new(id, 1 << 10, 4, (id * 37) % (1 << 10));
        client.submit_line(&serde_json::to_string(&job).expect("serialises"));
        let line = responses
            .recv_timeout(Duration::from_secs(10))
            .expect("every request is answered");
        trips.push(sent.elapsed());
        match parse_response(&line).expect("well-formed response") {
            Response::Result(result) => assert_eq!(result.job_id, id),
            other => panic!("expected a result, got {other:?}"),
        }
    }
    let total = started.elapsed();
    trips.sort_unstable();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median lone round trip {median:?}"
    );
    assert!(
        total < Duration::from_millis(100),
        "50 lone round trips took {total:?}"
    );
    assert_eq!(
        server.metrics().batches,
        50,
        "each lone job is its own batch"
    );
    drop(client);
    server.finish();
}

/// A job whose execution panics costs exactly one `internal` error: its
/// batch-mates and every later job get results, and the server stays
/// healthy. (The poison seed exists in debug builds only.)
#[cfg(debug_assertions)]
#[test]
fn a_panicking_job_costs_one_internal_error_and_nothing_else() {
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        },
        // A long dwell: the poison job and its mates ride one batch.
        coalescer: CoalescerConfig {
            max_batch: 256,
            max_delay_us: 100_000,
        },
        ..ServeConfig::default()
    });
    let (client, responses) = server.attach();
    let job = |id: u64| SearchJob::new(id, 1 << 10, 4, (id * 37) % (1 << 10));
    let poison = job(3).with_seed(psq_engine::backends::POISON_SEED);
    for id in 0..6u64 {
        let line = if id == 3 { poison } else { job(id) };
        client.submit_line(&serde_json::to_string(&line).expect("serialises"));
    }
    let mut results = Vec::new();
    let mut internal = Vec::new();
    for _ in 0..6 {
        let line = responses
            .recv_timeout(Duration::from_secs(10))
            .expect("every job of the batch is answered");
        match parse_response(&line).expect("well-formed response") {
            Response::Result(result) => results.push(result.job_id),
            Response::Error { id, kind, .. } => {
                assert_eq!(kind, ErrorKind::Internal);
                internal.push(id);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    results.sort_unstable();
    assert_eq!(results, [0, 1, 2, 4, 5], "the batch-mates get results");
    assert_eq!(internal, [Some(3)], "one error, for the poison job only");
    assert_eq!(server.metrics().batches, 1, "the six jobs shared a batch");
    // The server keeps serving: 20 later jobs all get results.
    for id in 100..120u64 {
        client.submit_line(&serde_json::to_string(&job(id)).expect("serialises"));
    }
    let mut later: Vec<u64> = (0..20)
        .map(|_| {
            let line = responses
                .recv_timeout(Duration::from_secs(10))
                .expect("later jobs are answered");
            match parse_response(&line).expect("well-formed response") {
                Response::Result(result) => result.job_id,
                other => panic!("expected a result, got {other:?}"),
            }
        })
        .collect();
    later.sort_unstable();
    assert_eq!(later, (100..120).collect::<Vec<_>>());
    client.submit_line("{\"cmd\":\"health\"}");
    match parse_response(&responses.recv().expect("health answered")).expect("well-formed") {
        Response::Health { status, .. } => assert_eq!(status, "ok"),
        other => panic!("expected health, got {other:?}"),
    }
    let metrics = server.metrics();
    assert_eq!(metrics.jobs_completed, 25);
    assert_eq!(metrics.jobs_errored, 1);
    assert_eq!(metrics.queue_depth, 0);
    drop(client);
    server.finish();
}

/// Accounting under concurrency: four clients submit 200 jobs each from
/// their own threads, with colliding ids, against the default config.
/// Every (client, id) pair is answered exactly once with that client's own
/// job, each client's counters and the server's equal the results the
/// clients saw, and the queue drains to zero. Looped, so a rare
/// interleaving gets many chances to show.
#[test]
fn concurrent_clients_are_answered_exactly_once_and_counted_exactly() {
    const CLIENTS: u64 = 4;
    const JOBS: u64 = 200;
    const N: u64 = 1 << 10;
    const K: u64 = 4;
    let target = |client: u64, id: u64| (id * 31 + client * 101) % N;
    for round in 0..20 {
        let server = Server::start(ServeConfig::default());
        std::thread::scope(|scope| {
            for client_index in 0..CLIENTS {
                let server = &server;
                scope.spawn(move || {
                    let (client, responses) = server.attach();
                    for id in 0..JOBS {
                        let job = SearchJob::new(id, N, K, target(client_index, id));
                        client.submit_line(&serde_json::to_string(&job).expect("serialises"));
                    }
                    let mut answered = vec![false; JOBS as usize];
                    for _ in 0..JOBS {
                        let line = responses
                            .recv_timeout(Duration::from_secs(30))
                            .expect("every job is answered");
                        match parse_response(&line).expect("well-formed response") {
                            Response::Result(result) => {
                                let id = result.job_id;
                                assert!(id < JOBS, "round {round}: unknown id {id}");
                                assert!(
                                    !std::mem::replace(&mut answered[id as usize], true),
                                    "round {round}: client {client_index} id {id} answered twice"
                                );
                                assert_eq!(
                                    result.true_block,
                                    target(client_index, id) / (N / K),
                                    "round {round}: client {client_index} got another's job"
                                );
                            }
                            other => panic!("round {round}: expected a result, got {other:?}"),
                        }
                    }
                    // The client has seen all its results: its own counters
                    // must say exactly that.
                    client.submit_line("{\"cmd\":\"metrics\"}");
                    let line = responses
                        .recv_timeout(Duration::from_secs(30))
                        .expect("metrics answered");
                    match parse_response(&line).expect("well-formed response") {
                        Response::Metrics(metrics) => {
                            let own = metrics
                                .clients
                                .iter()
                                .find(|counters| counters.client == client.session().id)
                                .expect("an attached client is listed");
                            assert_eq!(
                                (own.submitted, own.completed, own.errors, own.overloaded),
                                (JOBS, JOBS, 0, 0),
                                "round {round}: client {client_index}"
                            );
                            assert!(metrics.jobs_completed >= JOBS);
                        }
                        other => panic!("round {round}: expected metrics, got {other:?}"),
                    }
                    drop(client);
                    assert_eq!(
                        responses.iter().count(),
                        0,
                        "round {round}: no reply beyond one per job"
                    );
                });
            }
        });
        let metrics = server.metrics();
        assert_eq!(metrics.jobs_submitted, CLIENTS * JOBS, "round {round}");
        assert_eq!(metrics.jobs_completed, CLIENTS * JOBS, "round {round}");
        assert_eq!(metrics.jobs_errored, 0, "round {round}");
        assert_eq!(metrics.queue_depth, 0, "round {round}");
        server.finish();
    }
}

/// Builds a histogram snapshot over the given samples.
fn snapshot_of(samples: &[f64]) -> psq_obs::HistogramSnapshot {
    let histogram = psq_obs::Histogram::new();
    for &sample in samples {
        histogram.record(sample);
    }
    histogram.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The extended `{"type":"metrics"}` line — end-to-end latency,
    /// coalescer dwell, and per-stage engine histograms included — survives
    /// `Response::to_line` → `parse_response` bit-for-bit.
    #[test]
    fn extended_metrics_lines_round_trip_the_wire(
        latency in prop::collection::vec(0.0f64..10_000_000.0, 0..48),
        dwell in prop::collection::vec(0.0f64..1_000_000.0, 0..48),
        plan in prop::collection::vec(0.0f64..100_000.0, 0..32),
        cache in prop::collection::vec(0.0f64..100_000.0, 0..32),
        executions in prop::collection::vec((0usize..7usize, 0.0f64..10_000_000.0), 0..32),
        completed in 0u64..10_000,
    ) {
        let mut per_backend: [Vec<f64>; 7] = Default::default();
        for (index, us) in executions {
            per_backend[index].push(us);
        }
        let mut backend_latency = BTreeMap::new();
        for (index, samples) in per_backend.iter().enumerate() {
            if !samples.is_empty() {
                backend_latency.insert(psq_engine::Backend::ALL[index], snapshot_of(samples));
            }
        }
        let latency_hist = snapshot_of(&latency);
        let metrics = ServeMetrics {
            jobs_submitted: completed + 3,
            jobs_completed: completed,
            jobs_errored: 2,
            jobs_overloaded: 1,
            sweeps_expanded: 2,
            sweep_points: 12,
            sweeps_rejected: 1,
            queue_depth: 0,
            batches: 5,
            batch_jobs_mean: 3.25,
            batch_jobs_max: 9,
            clients_connected: 1,
            clients_total: 4,
            latency_us_p50: latency_hist.p50(),
            latency_us_p90: latency_hist.p90(),
            latency_us_p99: latency_hist.p99(),
            latency_us_max: latency_hist.max_us,
            latency_recent_us_p50: latency_hist.p50(),
            latency_recent_us_p99: latency_hist.p99(),
            latency_recent: latency_hist.clone(),
            latency: latency_hist,
            coalesce_dwell: snapshot_of(&dwell),
            engine_obs: EngineObsSnapshot {
                plan_us: snapshot_of(&plan),
                cache_lookup_us: snapshot_of(&cache),
                backend_latency,
            },
            clients: vec![ClientCounters {
                client: 1,
                submitted: completed + 3,
                completed,
                errors: 2,
                overloaded: 1,
            }],
            result_cache: Default::default(),
            plan_cache: Default::default(),
        };
        let response = Response::Metrics(Box::new(metrics));
        let line = response.to_line();
        prop_assert!(!line.contains('\n'), "one line per response");
        let back = parse_response(&line).expect("extended metrics lines stay parsable");
        prop_assert_eq!(back, response);
    }
}
