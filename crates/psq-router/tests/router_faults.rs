//! End-to-end robustness tests for the sharded front tier: real worker
//! processes (this crate's own binary in `--worker` mode), real pipes, real
//! SIGKILLs. The invariant under every fault is the same — each submitted
//! id is answered exactly once, and results are bit-identical to a direct
//! single-engine run of the same jobs, because jobs are pure functions of
//! their seeded specs.

use psq_engine::{
    generate_mixed_batch, Backend, BackendHint, Engine, EngineConfig, SearchJob, SearchResult,
    SweepSpec,
};
use psq_router::{FaultPlan, Router, RouterConfig, RouterMetrics};
use psq_serve::protocol::{parse_response, ErrorKind, Response};
use psq_serve::testio::SharedSink;
use psq_serve::LineOutcome;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The worker fleet runs this very test binary's sibling: the `psq-router`
/// binary in its internal `--worker` mode (a single-process psq-serve
/// session), pinned to one thread so a 1-vCPU machine isn't oversubscribed.
fn worker_cmd() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_psq-router").to_string(),
        "--worker".to_string(),
        "--threads".to_string(),
        "1".to_string(),
    ]
}

fn test_config(workers: usize) -> RouterConfig {
    RouterConfig {
        workers,
        worker_cmd: worker_cmd(),
        deadline: Duration::from_secs(30),
        probe_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(800),
        backoff: Duration::from_millis(20),
        ..RouterConfig::default()
    }
}

/// The same jobs through one in-process engine: the bit-identity reference.
fn direct_reference(jobs: &[SearchJob]) -> HashMap<u64, SearchResult> {
    let engine = Engine::new(EngineConfig {
        threads: Some(1),
        ..EngineConfig::default()
    });
    let report = engine.run_batch(jobs);
    report
        .results
        .into_iter()
        .map(|result| (result.job_id, result))
        .collect()
}

/// Every deterministic field of a result (everything except wall time).
type Comparable = (
    Backend,
    u64,
    u64,
    bool,
    Option<u64>,
    u32,
    u64,
    f64,
    u32,
    u32,
);

fn comparable(result: &SearchResult) -> Comparable {
    (
        result.backend,
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

/// Runs `jobs` through a fresh router as one pipe session and returns the
/// answered results keyed by id (panicking on duplicates or error replies)
/// plus the final metrics.
/// `min_respawns` > 0 additionally waits (bounded) for the supervisor to
/// bring replacements up: the jobs themselves can drain through retries
/// before a faulted slot's respawn backoff elapses.
fn route_jobs(
    config: RouterConfig,
    jobs: &[SearchJob],
    min_respawns: u64,
) -> (HashMap<u64, SearchResult>, RouterMetrics) {
    let input: String = jobs
        .iter()
        .map(|job| serde_json::to_string(job).expect("jobs serialise") + "\n")
        .collect();
    let router = Router::start(config);
    let sink = SharedSink::default();
    router
        .serve_pipe(input.as_bytes(), sink.clone())
        .expect("pipe session");
    let healed = Instant::now() + Duration::from_secs(30);
    while router.metrics().respawns < min_respawns {
        assert!(
            Instant::now() < healed,
            "fleet did not heal to {min_respawns} respawn(s) in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = router.finish();
    let mut results = HashMap::new();
    for line in sink.lines() {
        match parse_response(&line).expect("well-formed response line") {
            Response::Result(result) => {
                let id = result.job_id;
                assert!(
                    results.insert(id, *result).is_none(),
                    "id {id} was answered twice"
                );
            }
            other => panic!("expected only results, got {other:?}"),
        }
    }
    (results, metrics)
}

fn assert_bit_identical(routed: &HashMap<u64, SearchResult>, jobs: &[SearchJob]) {
    let reference = direct_reference(jobs);
    assert_eq!(routed.len(), jobs.len(), "every id answered exactly once");
    for job in jobs {
        let routed = routed.get(&job.id).expect("routed answer for every id");
        let direct = reference.get(&job.id).expect("direct answer for every id");
        assert_eq!(
            comparable(routed),
            comparable(direct),
            "id {} must be bit-identical to the direct run",
            job.id
        );
    }
}

#[test]
fn routing_is_bit_identical_to_a_direct_single_engine_run() {
    let jobs = generate_mixed_batch(48, 11);
    let (routed, metrics) = route_jobs(test_config(3), &jobs, 0);
    assert_bit_identical(&routed, &jobs);
    assert_eq!(metrics.jobs_completed, 48);
    assert_eq!(metrics.respawns, 0, "no faults, no respawns");
    assert_eq!(metrics.duplicates_dropped, 0);
}

/// Satellite: a worker SIGKILLed mid-batch with jobs in flight. The owed
/// jobs are re-run on surviving workers, answers stay bit-identical, and no
/// id is ever answered twice.
#[test]
fn sigkill_mid_batch_reruns_owed_jobs_elsewhere() {
    let jobs = generate_mixed_batch(64, 23);
    let router = Router::start(test_config(2));
    let (client, responses) = router.attach();
    for job in &jobs {
        let line = serde_json::to_string(job).expect("jobs serialise");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    }
    // The whole batch is now queued or in flight; kill one worker under it.
    let victim = router.preferred_worker(&jobs[0]).expect("a routable slot");
    assert!(router.worker_pid(victim).is_some(), "victim has a live pid");
    router.kill_worker(victim);

    let mut routed: HashMap<u64, SearchResult> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while routed.len() < jobs.len() {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .expect("batch must finish within the test budget");
        let line = responses
            .recv_timeout(remaining)
            .expect("responses keep flowing after the kill");
        match parse_response(&line).expect("well-formed response line") {
            Response::Result(result) => {
                let id = result.job_id;
                assert!(
                    routed.insert(id, *result).is_none(),
                    "id {id} was answered twice"
                );
            }
            other => panic!("expected only results, got {other:?}"),
        }
    }
    // Catch any late duplicate a raced retry might have produced.
    assert!(
        responses.recv_timeout(Duration::from_millis(300)).is_err(),
        "no extra responses after every id was answered"
    );
    let metrics = router.finish();
    assert_bit_identical(&routed, &jobs);
    assert!(metrics.respawns >= 1, "the killed worker was replaced");
    assert!(
        metrics.workers.iter().any(|worker| worker.generation >= 2),
        "the killed slot runs a later generation"
    );
    assert_eq!(metrics.jobs_completed, 64);
}

/// A frozen worker (stdout wedged, process alive) is detected through the
/// unanswered health probe and replaced; its jobs land elsewhere.
#[test]
fn frozen_worker_is_detected_and_replaced() {
    let jobs = generate_mixed_batch(24, 37);
    let mut config = test_config(2);
    config.faults = vec![Some(FaultPlan::parse("freeze@2").expect("valid spec"))];
    let (routed, metrics) = route_jobs(config, &jobs, 1);
    assert_bit_identical(&routed, &jobs);
    assert!(
        metrics.respawns >= 1,
        "liveness enforcement must replace the frozen worker"
    );
    assert!(metrics.probes_sent >= 1);
}

/// A worker that emits garbage on its reply pipe is a protocol breach: the
/// line is counted, the worker is recycled, and the jobs it owed are still
/// answered exactly once.
#[test]
fn corrupt_reply_recycles_the_worker_exactly_once() {
    let jobs = generate_mixed_batch(32, 41);
    let mut config = test_config(2);
    config.faults = vec![
        None,
        Some(FaultPlan::parse("corrupt@3").expect("valid spec")),
    ];
    let (routed, metrics) = route_jobs(config, &jobs, 1);
    assert_bit_identical(&routed, &jobs);
    assert!(metrics.corrupt_lines >= 1, "the garbage line was counted");
    assert!(metrics.respawns >= 1, "the corrupt worker was recycled");
}

/// A drain-aware rolling restart mid-stream: every worker moves to a new
/// generation, and ids submitted before, during and after the restart are
/// all answered exactly once.
#[test]
fn rolling_restart_mid_stream_loses_nothing() {
    let jobs = generate_mixed_batch(48, 53);
    let (before, after) = jobs.split_at(32);
    let router = Router::start(test_config(2));
    let (client, responses) = router.attach();
    for job in before {
        let line = serde_json::to_string(job).expect("jobs serialise");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    }
    router.rolling_restart();
    for job in after {
        let line = serde_json::to_string(job).expect("jobs serialise");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    }
    let mut routed: HashMap<u64, SearchResult> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while routed.len() < jobs.len() {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .expect("batch must finish within the test budget");
        let line = responses
            .recv_timeout(remaining)
            .expect("responses keep flowing across the restart");
        match parse_response(&line).expect("well-formed response line") {
            Response::Result(result) => {
                let id = result.job_id;
                assert!(
                    routed.insert(id, *result).is_none(),
                    "id {id} was answered twice"
                );
            }
            other => panic!("expected only results, got {other:?}"),
        }
    }
    let metrics = router.metrics();
    router.finish();
    assert_bit_identical(&routed, &jobs);
    for worker in &metrics.workers {
        assert!(
            worker.generation >= 2,
            "slot {} still on generation {} after the rolling restart",
            worker.slot,
            worker.generation
        );
        assert_eq!(worker.state, "up");
    }
}

/// The wire spelling `{"cmd":"restart"}` is acked at once and rolls every
/// worker to a new generation while jobs keep being answered.
#[test]
fn restart_line_is_acked_and_rolls_every_worker() {
    let jobs = generate_mixed_batch(16, 71);
    let input: String = std::iter::once("{\"cmd\":\"restart\"}".to_string())
        .chain(
            jobs.iter()
                .map(|job| serde_json::to_string(job).expect("jobs serialise")),
        )
        .map(|line| line + "\n")
        .collect();
    let router = Router::start(test_config(2));
    let sink = SharedSink::default();
    router
        .serve_pipe(input.as_bytes(), sink.clone())
        .expect("pipe session");
    let lines = sink.lines();
    let ack = Response::Ack {
        cmd: "restart".to_string(),
    };
    assert_eq!(lines[0], ack.to_line(), "acked before any job is answered");
    let mut routed = HashMap::new();
    for line in &lines[1..] {
        match parse_response(line).expect("well-formed response line") {
            Response::Result(result) => {
                let id = result.job_id;
                assert!(
                    routed.insert(id, *result).is_none(),
                    "id {id} was answered twice"
                );
            }
            other => panic!("expected only results, got {other:?}"),
        }
    }
    assert_bit_identical(&routed, &jobs);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !router
        .metrics()
        .workers
        .iter()
        .all(|worker| worker.generation >= 2 && worker.state == "up")
    {
        assert!(Instant::now() < deadline, "the restart never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    router.finish();
}

/// A slow worker: slot 0 sends each reply only after a delay longer than
/// the per-request deadline, so every job routed there expires and is
/// retried on the other worker. Each id is still answered exactly once and
/// bit-identically, all by slot 1, and the slow worker is not recycled.
#[test]
fn a_deadline_retry_lands_on_the_other_worker() {
    let jobs: Vec<SearchJob> = (0..16)
        .map(|id| SearchJob::new(id, 1 << 10, 4, (id * 61) % (1 << 10)).with_seed(500 + id))
        .collect();
    let mut config = test_config(2);
    config.deadline = Duration::from_millis(400);
    // Slow, not hung: its late health replies must not get it killed.
    config.liveness_timeout = Duration::from_secs(60);
    config.faults = vec![Some(FaultPlan::parse("delay=4000").expect("valid spec"))];
    let (routed, metrics) = route_jobs(config, &jobs, 0);
    assert_bit_identical(&routed, &jobs);
    assert!(metrics.retries >= 1, "jobs on the slow worker were retried");
    assert!(metrics.deadline_expired >= 1);
    assert_eq!(
        metrics.workers[0].completed, 0,
        "the slow worker won no job"
    );
    assert_eq!(metrics.workers[1].completed, jobs.len() as u64);
    assert_eq!(metrics.respawns, 0, "a slow worker is not a dead one");
}

/// A job that panics its worker's engine (the debug-build poison seed)
/// costs one `internal` error behind the router too: the error is final, so
/// it is neither retried nor counted against the worker, no worker is
/// recycled, and every other job is answered bit-identically.
#[cfg(debug_assertions)]
#[test]
fn a_panicking_job_is_answered_once_and_recycles_no_worker() {
    let poison = SearchJob::new(5, 1 << 10, 4, 33).with_seed(psq_engine::backends::POISON_SEED);
    let jobs: Vec<SearchJob> = (0..24)
        .filter(|&id| id != poison.id)
        .map(|id| SearchJob::new(id, 1 << 10, 4, (id * 41) % (1 << 10)).with_seed(900 + id))
        .collect();
    let router = Router::start(test_config(2));
    let (client, responses) = router.attach();
    let (before, after) = jobs.split_at(10);
    for job in before.iter().chain([&poison]).chain(after) {
        let line = serde_json::to_string(job).expect("jobs serialise");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    }
    let mut routed: HashMap<u64, SearchResult> = HashMap::new();
    let mut internal = Vec::new();
    for _ in 0..=jobs.len() {
        let line = responses
            .recv_timeout(Duration::from_secs(30))
            .expect("every id is answered");
        match parse_response(&line).expect("well-formed response line") {
            Response::Result(result) => {
                let id = result.job_id;
                assert!(
                    routed.insert(id, *result).is_none(),
                    "id {id} answered twice"
                );
            }
            Response::Error { id, kind, .. } => {
                assert_eq!(kind, ErrorKind::Internal);
                internal.push(id);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let metrics = router.finish();
    assert_eq!(internal, [Some(poison.id)]);
    assert_bit_identical(&routed, &jobs);
    assert_eq!(metrics.retries, 0, "an internal error is final");
    assert_eq!(metrics.respawns, 0, "no worker was recycled");
    assert_eq!(metrics.jobs_errored, 1);
}

/// When every worker is saturated, new jobs are shed with a structured
/// `overload` error — never queued unboundedly, never silently dropped.
#[test]
fn saturated_fleet_sheds_jobs_as_structured_overload_errors() {
    let mut config = test_config(1);
    config.worker_inflight = 1;
    let router = Router::start(config);
    let (client, responses) = router.attach();
    // Heavy enough that later submissions arrive while the first is still
    // in flight on the single one-deep worker.
    let jobs: Vec<SearchJob> = (0..8)
        .map(|i| SearchJob {
            trials: 40,
            seed: 97 + i,
            ..SearchJob::new(i, 1 << 14, 16, 5)
        })
        .collect();
    for job in &jobs {
        let line = serde_json::to_string(job).expect("jobs serialise");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    }
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut seen = std::collections::HashSet::new();
    for _ in 0..jobs.len() {
        let line = responses
            .recv_timeout(Duration::from_secs(120))
            .expect("every id gets an answer");
        match parse_response(&line).expect("well-formed response line") {
            Response::Result(result) => {
                assert!(seen.insert(result.job_id), "duplicate result id");
                completed += 1;
            }
            Response::Error {
                id: Some(id),
                kind: ErrorKind::Overload,
                ..
            } => {
                assert!(seen.insert(id), "duplicate error id");
                shed += 1;
            }
            other => panic!("expected results or overload errors, got {other:?}"),
        }
    }
    let metrics = router.finish();
    assert_eq!(completed + shed, 8, "every id answered exactly once");
    assert!(shed >= 1, "a one-deep worker cannot absorb 8 queued jobs");
    assert_eq!(metrics.jobs_overloaded, shed);
    assert_eq!(
        metrics.jobs_errored + metrics.jobs_overloaded,
        shed,
        "the counters add up to the error lines sent"
    );
}

/// Splices a `"sweep"` field into a serialised base job, the same way a
/// wire client writes a sweep request line.
fn sweep_line(base: &SearchJob, sweep: &str) -> String {
    let job = serde_json::to_string(base).expect("job serialises");
    format!("{},\"sweep\":{sweep}}}", &job[..job.len() - 1])
}

/// Satellite: a sweep expanded at the router is just independent grid
/// points under faults. A worker SIGKILLed mid-sweep loses nothing — every
/// point is retried elsewhere and answered exactly once, bit-identical to
/// a direct single-engine run of the same expansion (noisy points are pure
/// functions of their seeded specs, so replays reproduce them exactly).
#[test]
fn sweep_survives_a_worker_kill_with_no_lost_or_duplicate_points() {
    let base = SearchJob {
        trials: 12,
        ..SearchJob::new(500, 1 << 12, 8, 7)
    };
    let spec = SweepSpec {
        p: vec![0.0, 0.02, 0.04, 0.06, 0.08, 0.1],
        k: vec![8, 16],
        ..SweepSpec::default()
    };
    let expanded = spec.expand(&base).expect("valid sweep");
    assert_eq!(expanded.len(), 12);
    let router = Router::start(test_config(2));
    let (client, responses) = router.attach();
    let line = sweep_line(&base, "{\"p\":[0.0,0.02,0.04,0.06,0.08,0.1],\"k\":[8,16]}");
    assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    // All twelve points are now queued or in flight; kill a worker under
    // them.
    let victim = router
        .preferred_worker(&expanded[0])
        .expect("a routable slot");
    router.kill_worker(victim);

    let mut routed: HashMap<u64, SearchResult> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while routed.len() < expanded.len() {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .expect("sweep must finish within the test budget");
        let line = responses
            .recv_timeout(remaining)
            .expect("responses keep flowing after the kill");
        match parse_response(&line).expect("well-formed response line") {
            Response::Result(result) => {
                let id = result.job_id;
                assert!(
                    routed.insert(id, *result).is_none(),
                    "grid point {id} was answered twice"
                );
            }
            other => panic!("expected only results, got {other:?}"),
        }
    }
    // Catch any late duplicate a raced retry might have produced.
    assert!(
        responses.recv_timeout(Duration::from_millis(300)).is_err(),
        "no extra responses after every grid point was answered"
    );
    let metrics = router.finish();
    assert_bit_identical(&routed, &expanded);
    let mut ids: Vec<u64> = routed.keys().copied().collect();
    ids.sort_unstable();
    assert_eq!(ids, (500..512).collect::<Vec<_>>(), "contiguous point ids");
    assert!(metrics.respawns >= 1, "the killed worker was replaced");
    assert_eq!(metrics.sweeps_expanded, 1);
    assert_eq!(metrics.sweep_points, 12);
    assert_eq!(metrics.jobs_completed, 12);
}

/// Satellite: sweep *points* — not request lines — count against the
/// per-worker in-flight bound. One sweep into a one-deep single worker must
/// shed its excess points as structured overload errors instead of queueing
/// the whole grid behind one admission slot.
#[test]
fn sweep_points_count_against_the_worker_inflight_bound() {
    let mut config = test_config(1);
    config.worker_inflight = 2;
    let router = Router::start(config);
    let (client, responses) = router.attach();
    let base = SearchJob {
        trials: 40,
        ..SearchJob::new(0, 1 << 14, 16, 5)
    };
    let line = sweep_line(&base, "{\"p\":[0.0,0.02,0.04,0.06,0.08,0.1,0.12,0.15]}");
    assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut seen = std::collections::HashSet::new();
    for _ in 0..8 {
        let line = responses
            .recv_timeout(Duration::from_secs(120))
            .expect("every grid point gets an answer");
        match parse_response(&line).expect("well-formed response line") {
            Response::Result(result) => {
                assert!(seen.insert(result.job_id), "duplicate result id");
                completed += 1;
            }
            Response::Error {
                id: Some(id),
                kind: ErrorKind::Overload,
                ..
            } => {
                assert!(seen.insert(id), "duplicate error id");
                shed += 1;
            }
            other => panic!("expected results or overload errors, got {other:?}"),
        }
    }
    let metrics = router.finish();
    assert_eq!(
        completed + shed,
        8,
        "every grid point answered exactly once"
    );
    assert!(
        shed >= 1,
        "a two-deep worker cannot absorb an eight-point sweep at once"
    );
    assert_eq!(metrics.sweep_points, 8);
    assert_eq!(metrics.jobs_overloaded, shed);
    assert_eq!(
        metrics.jobs_errored + metrics.jobs_overloaded,
        shed,
        "the counters add up to the error lines sent"
    );
}

/// An oversized sweep is refused whole with a structured error — no point
/// is admitted, routed, or half-answered.
#[test]
fn oversized_sweeps_are_refused_before_any_point_routes() {
    let mut config = test_config(1);
    config.max_sweep_points = 4;
    let router = Router::start(config);
    let (client, responses) = router.attach();
    let base = SearchJob::new(9, 1 << 10, 4, 3);
    let line = sweep_line(&base, "{\"p\":[0.0,0.01,0.02],\"k\":[4,8]}");
    assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    let answer = responses
        .recv_timeout(Duration::from_secs(30))
        .expect("the refusal arrives");
    match parse_response(&answer).expect("well-formed response line") {
        Response::Error { id, kind, reason } => {
            assert_eq!(id, Some(9));
            assert_eq!(kind, ErrorKind::SweepTooLarge);
            assert!(reason.contains("6 grid points"), "reason: {reason}");
        }
        other => panic!("expected sweep_too_large, got {other:?}"),
    }
    let metrics = router.finish();
    assert_eq!(metrics.sweeps_rejected, 1);
    assert_eq!(metrics.jobs_submitted, 0, "no point was admitted");
}

/// A shutdown stops admission only: a job still running when the command
/// lands is answered before the session ends, and the router then stops.
#[test]
fn shutdown_answers_the_job_still_in_flight() {
    // Heavy enough (about a second in a debug build) that the worker stays
    // silent for a while after the shutdown command.
    let job = SearchJob {
        trials: 4,
        ..SearchJob::new(1, 1 << 16, 4, 4321).with_backend(BackendHint::StateVector)
    };
    let input = format!(
        "{}\n{{\"cmd\":\"shutdown\"}}\n",
        serde_json::to_string(&job).expect("serialises")
    );
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let router = Router::start(test_config(1));
        let sink = SharedSink::default();
        let summary = router
            .serve_pipe(input.as_bytes(), sink.clone())
            .expect("pipe session");
        let _ = done.send((summary, sink.lines(), router.finish()));
    });
    let (summary, lines, metrics) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the in-flight job is answered and the session ends");
    assert!(summary.shutdown_requested);
    let mut routed = HashMap::new();
    for line in &lines {
        match parse_response(line).expect("well-formed response line") {
            Response::Result(result) => assert!(routed.insert(result.job_id, *result).is_none()),
            Response::Ack { cmd } => assert_eq!(cmd, "shutdown"),
            other => panic!("expected a result and the ack, got {other:?}"),
        }
    }
    assert_eq!(lines.len(), 2);
    assert_bit_identical(&routed, std::slice::from_ref(&job));
    assert_eq!(metrics.jobs_completed, 1);
}

/// The router's TCP front: two clients at once, reusing the same local ids,
/// are each answered exactly once and bit-identically to a direct run; a
/// silent third client is closed by the idle timeout, after the job it left
/// in flight is answered.
#[test]
fn tcp_clients_are_answered_once_and_a_silent_one_is_closed() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    let mut config = test_config(2);
    config.idle_timeout = Some(Duration::from_millis(200));
    let router = Router::start(config);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    let streams: Vec<Vec<SearchJob>> = (1..=2)
        .map(|seed| {
            let mut jobs = generate_mixed_batch(16, 700 + seed);
            for (local, job) in jobs.iter_mut().enumerate() {
                job.id = local as u64;
            }
            jobs
        })
        .collect();
    let send = |stream: &mut TcpStream, line: &str| {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write a request line");
        stream.flush().expect("flush");
    };
    let read_result = |reader: &mut BufReader<TcpStream>| -> SearchResult {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read a reply") > 0,
            "the connection closed before every result arrived"
        );
        match parse_response(line.trim_end()).expect("well-formed response line") {
            Response::Result(result) => *result,
            other => panic!("expected a result, got {other:?}"),
        }
    };
    let run_client = |jobs: &[SearchJob]| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        for job in jobs {
            send(
                &mut stream,
                &serde_json::to_string(job).expect("jobs serialise"),
            );
        }
        let mut routed: HashMap<u64, SearchResult> = HashMap::new();
        while routed.len() < jobs.len() {
            let result = read_result(&mut reader);
            let id = result.job_id;
            assert!(
                routed.insert(id, result).is_none(),
                "id {id} answered twice"
            );
        }
        routed
    };
    std::thread::scope(|scope| {
        let serve = scope.spawn(|| router.serve_tcp(listener));
        let first = scope.spawn(|| run_client(&streams[0]));
        let second = run_client(&streams[1]);
        let first = first.join().expect("first client thread");
        assert_bit_identical(&first, &streams[0]);
        assert_bit_identical(&second, &streams[1]);

        // A silent client: one job (heavy enough to outlast the idle
        // timeout in a debug build), then nothing. The result still comes
        // first, then the router closes the connection.
        let mut silent = TcpStream::connect(addr).expect("connect the silent client");
        let mut reader = BufReader::new(silent.try_clone().expect("clone the stream"));
        let job = SearchJob {
            trials: 4,
            ..SearchJob::new(3, 1 << 16, 4, 4321).with_backend(BackendHint::StateVector)
        };
        send(
            &mut silent,
            &serde_json::to_string(&job).expect("serialises"),
        );
        assert_bit_identical(
            &HashMap::from([(3, read_result(&mut reader))]),
            std::slice::from_ref(&job),
        );
        let waited = Instant::now();
        let mut line = String::new();
        assert_eq!(
            reader.read_line(&mut line).expect("a clean close"),
            0,
            "the idle session is closed, not left hanging: {line}"
        );
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the close came from the idle timeout"
        );

        let mut closer = TcpStream::connect(addr).expect("connect the closer");
        send(&mut closer, "{\"cmd\":\"shutdown\"}");
        serve.join().expect("serve thread").expect("clean exit");
    });
    let metrics = router.finish();
    assert_eq!(metrics.jobs_completed, 33);
    assert_eq!(metrics.jobs_errored + metrics.jobs_overloaded, 0);
}

/// The CI smoke in binary form: `--selftest` with a kill fault must verify
/// exactly-once + bit-identity itself and exit zero.
#[test]
fn selftest_binary_survives_a_kill_fault() {
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_psq-router"))
        .args([
            "--selftest",
            "64",
            "--workers",
            "2",
            "--fault",
            "0:kill@10",
            "--worker-args",
            "--threads 1",
        ])
        .status()
        .expect("selftest binary runs");
    assert!(status.success(), "selftest must exit zero");
}
