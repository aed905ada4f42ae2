//! `psq-router` — the fault-tolerant sharded front tier as a process.
//!
//! ```text
//! psq-router [OPTIONS]                 pipe mode: NDJSON stdin → stdout,
//!                                      sharded over N supervised workers
//! psq-router --tcp ADDR [OPTIONS]      multi-client TCP front tier
//! psq-router --selftest N              gen → route → verify exactly-once
//!                                      and bit-identity vs a direct run
//! psq-router --worker [ENGINE FLAGS]   internal: run one worker process
//!                                      (a psq-serve pipe session, with
//!                                      PSQ_ROUTER_FAULT applied if set)
//! ```
//!
//! Clients speak the unchanged psq-serve protocol; `{"cmd":"restart"}`
//! additionally triggers a drain-aware rolling restart of the worker
//! fleet.

use psq_engine::cli::{self, EngineFlags};
use psq_router::{FaultPlan, FaultWriter, Router, RouterConfig};
use psq_serve::protocol::{parse_response, Response};
use psq_serve::testio::SharedSink;
use psq_serve::{ServeConfig, Server};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    config: RouterConfig,
    worker_args: Vec<String>,
    tcp: Option<String>,
    metrics: bool,
    metrics_addr: Option<String>,
    trace: Option<String>,
    selftest: Option<usize>,
    seed: u64,
}

fn help() -> String {
    "usage: psq-router [OPTIONS]                pipe mode: NDJSON jobs on stdin,\n\
     \x20                                         tagged responses on stdout, sharded\n\
     \x20                                         over N supervised psq-serve workers\n\
     \x20      psq-router --tcp ADDR [OPTIONS]    serve many clients over TCP\n\
     \x20      psq-router --selftest N            round-trip N generated jobs and\n\
     \x20                                         verify exactly-once, bit-identical\n\
     \x20                                         answers (respects --fault)\n\
     \n\
     Protocol: identical to psq-serve (SearchJob lines, {\"cmd\":\"metrics\"} /\n\
     {\"cmd\":\"health\"} / {\"cmd\":\"drain\"} / {\"cmd\":\"shutdown\"}), plus\n\
     {\"cmd\":\"restart\"} for a drain-aware rolling restart of the fleet.\n\
     \n\
     Routing options:\n\
     \x20 --workers N                  worker processes to spawn (default 2)\n\
     \x20 --worker-cmd CMD             worker command line (whitespace-split;\n\
     \x20                              default: this binary with --worker)\n\
     \x20 --worker-args ARGS           extra args appended to the worker command\n\
     \x20                              (e.g. \"--threads 1 --no-result-cache\")\n\
     \x20 --deadline-ms MS             per-attempt answer budget (default 10000)\n\
     \x20 --max-retries N              extra attempts on other workers (default 2)\n\
     \x20 --probe-interval-ms MS       health-probe cadence (default 200)\n\
     \x20 --liveness-timeout-ms MS     unanswered-probe limit before a worker is\n\
     \x20                              declared hung and replaced (default 2000)\n\
     \x20 --worker-inflight N          per-worker in-flight bound (default 256)\n\
     \x20 --max-inflight N             per-client in-flight bound (default 1024)\n\
     \x20 --max-sweep-points N         refuse \"sweep\" requests expanding to\n\
     \x20                              more than N grid points (default 4096)\n\
     \x20 --backoff-ms MS              respawn backoff base, doubled per\n\
     \x20                              consecutive failure (default 50)\n\
     \x20 --circuit-breaker N          consecutive failures that park a slot\n\
     \x20                              (default 5)\n\
     \x20 --idle-timeout-ms MS         close a silent TCP session after MS ms;\n\
     \x20                              0 disables (default 60000)\n\
     \x20 --fault SLOT:SPEC            deterministic fault for a slot's first\n\
     \x20                              process (kill@J | freeze@J | corrupt@J |\n\
     \x20                              delay=MS); repeatable\n\
     \x20 --tcp ADDR                   listen on ADDR instead of stdin/stdout\n\
     \x20 --seed S                     seed for --selftest job generation\n\
     \x20                              (default 1)\n\
     \x20 --metrics                    print the RouterMetrics JSON line on\n\
     \x20                              stderr when the session ends\n\
     \x20 --metrics-addr ADDR          serve a Prometheus-style text exposition\n\
     \x20                              of the router metrics (plus the merged\n\
     \x20                              fleet serving view) on ADDR; plain TCP,\n\
     \x20                              one page per connection — scrape with nc\n\
     \x20                              or cat < /dev/tcp/HOST/PORT\n\
     \x20 --trace[=stderr|FILE]        trace-collection mode: emit the router's\n\
     \x20                              own route/queue/retry spans AND every\n\
     \x20                              worker's stage spans (tagged with slot\n\
     \x20                              and gen) as one NDJSON stream; the\n\
     \x20                              PSQ_TRACE env var is the flagless\n\
     \x20                              equivalent, the flag wins\n\
     \x20 --selftest N                 self-contained smoke test; exit 0 iff\n\
     \x20                              every id was answered exactly once and\n\
     \x20                              matched a direct single-engine run\n\
     \x20 -h, --help                   this text"
        .to_string()
}

fn usage_error(message: &str) -> ! {
    eprintln!("psq-router: {message}\n\n{}", help());
    std::process::exit(2)
}

/// `--worker`: the process side of the fleet — one psq-serve pipe session,
/// with the fault plan from the environment (if any) wrapped around stdout.
fn worker_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut engine = EngineFlags::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match engine.accept(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => usage_error(&format!("unrecognised worker argument `{arg}`")),
            Err(message) => usage_error(&message),
        }
    }
    if let Err(message) = engine.install_trace() {
        eprintln!("psq-router: worker: {message}");
        return ExitCode::FAILURE;
    }
    let fault = match FaultPlan::from_env() {
        Ok(fault) => fault,
        Err(message) => {
            eprintln!("psq-router: worker: {message}");
            return ExitCode::FAILURE;
        }
    };
    let server = Server::start(ServeConfig {
        engine: engine.engine_config(),
        ..ServeConfig::default()
    });
    let stdin = std::io::stdin();
    let outcome = match fault {
        Some(plan) => server
            .serve_pipe(stdin.lock(), FaultWriter::new(std::io::stdout(), plan))
            .map(|_| ()),
        None => server
            .serve_pipe(stdin.lock(), std::io::stdout())
            .map(|_| ()),
    };
    server.finish();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("psq-router: worker transport error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Options {
    let mut options = Options {
        config: RouterConfig::default(),
        worker_args: Vec::new(),
        tcp: None,
        metrics: false,
        metrics_addr: None,
        trace: None,
        selftest: None,
        seed: 1,
    };
    while let Some(arg) = args.next() {
        let outcome = match arg.as_str() {
            "--workers" => cli::require_value(&arg, &mut args).map(|v| options.config.workers = v),
            "--worker-cmd" => cli::require_value::<String>(&arg, &mut args).map(|v| {
                options.config.worker_cmd = v.split_whitespace().map(str::to_string).collect();
            }),
            "--worker-args" => cli::require_value::<String>(&arg, &mut args).map(|v| {
                options.worker_args = v.split_whitespace().map(str::to_string).collect();
            }),
            "--deadline-ms" => cli::require_value(&arg, &mut args)
                .map(|v: u64| options.config.deadline = Duration::from_millis(v)),
            "--max-retries" => {
                cli::require_value(&arg, &mut args).map(|v| options.config.max_retries = v)
            }
            "--probe-interval-ms" => cli::require_value(&arg, &mut args)
                .map(|v: u64| options.config.probe_interval = Duration::from_millis(v)),
            "--liveness-timeout-ms" => cli::require_value(&arg, &mut args)
                .map(|v: u64| options.config.liveness_timeout = Duration::from_millis(v)),
            "--worker-inflight" => {
                cli::require_value(&arg, &mut args).map(|v| options.config.worker_inflight = v)
            }
            "--max-inflight" => {
                cli::require_value(&arg, &mut args).map(|v| options.config.max_inflight = v)
            }
            "--max-sweep-points" => {
                cli::require_value(&arg, &mut args).map(|v| options.config.max_sweep_points = v)
            }
            "--backoff-ms" => cli::require_value(&arg, &mut args)
                .map(|v: u64| options.config.backoff = Duration::from_millis(v)),
            "--circuit-breaker" => {
                cli::require_value(&arg, &mut args).map(|v| options.config.circuit_breaker = v)
            }
            "--idle-timeout-ms" => cli::require_value(&arg, &mut args).map(|v: u64| {
                options.config.idle_timeout = (v > 0).then(|| Duration::from_millis(v));
            }),
            "--fault" => cli::require_value::<String>(&arg, &mut args).and_then(|v| {
                let (slot, spec) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--fault wants SLOT:SPEC, got `{v}`"))?;
                let slot: usize = slot
                    .parse()
                    .map_err(|_| format!("invalid fault slot in `{v}`"))?;
                let plan = FaultPlan::parse(spec)?;
                if options.config.faults.len() <= slot {
                    options.config.faults.resize(slot + 1, None);
                }
                options.config.faults[slot] = Some(plan);
                Ok(())
            }),
            "--tcp" => cli::require_value(&arg, &mut args).map(|v| options.tcp = Some(v)),
            "--seed" => cli::require_value(&arg, &mut args).map(|v| options.seed = v),
            "--selftest" => cli::require_value(&arg, &mut args).map(|v| options.selftest = Some(v)),
            "--metrics" => {
                options.metrics = true;
                Ok(())
            }
            "--metrics-addr" => {
                cli::require_value(&arg, &mut args).map(|v| options.metrics_addr = Some(v))
            }
            "--trace" => {
                options.trace = Some("stderr".to_string());
                Ok(())
            }
            "--help" | "-h" => {
                println!("{}", help());
                std::process::exit(0)
            }
            other => match other.strip_prefix("--trace=") {
                Some("") => Err("--trace= needs a target (stderr or a file path)".to_string()),
                Some(target) => {
                    options.trace = Some(target.to_string());
                    Ok(())
                }
                None => Err(format!("unrecognised argument `{other}`")),
            },
        };
        if let Err(message) = outcome {
            usage_error(&message);
        }
    }
    options
}

/// The default worker command: this very binary in `--worker` mode, so the
/// router is self-contained wherever it is installed.
fn self_worker_cmd(extra: &[String]) -> Vec<String> {
    let exe = std::env::current_exe()
        .map(|path| path.to_string_lossy().into_owned())
        .unwrap_or_else(|_| "psq-router".to_string());
    let mut cmd = vec![exe, "--worker".to_string()];
    cmd.extend(extra.iter().cloned());
    cmd
}

/// `--selftest N`: exactly-once and bit-identity, under whatever faults
/// were configured.
fn selftest(count: usize, options: &Options) -> ExitCode {
    let jobs = psq_engine::generate_mixed_batch(count, options.seed);
    let input: String = jobs
        .iter()
        .map(|job| serde_json::to_string(job).expect("jobs serialise") + "\n")
        .collect();
    // A delay fault only slows replies; every other kind costs the worker
    // its life, so those runs must also record the respawn.
    let faulted = options
        .config
        .faults
        .iter()
        .flatten()
        .any(|plan| !matches!(plan.kind, psq_router::FaultKind::Delay(_)));
    let router = Router::start(options.config.clone());
    if let Some(addr) = &options.metrics_addr {
        match router.serve_exposition(addr) {
            Ok(bound) => eprintln!("psq-router: metrics exposition on {bound}"),
            Err(e) => {
                eprintln!("psq-router: cannot serve metrics on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let sink = SharedSink::default();
    let summary = match router.serve_pipe(input.as_bytes(), sink.clone()) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("psq-router: selftest pipe session failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if faulted {
        // The jobs can drain (via retries) before the faulted slot's
        // respawn backoff elapses; a robustness selftest should also see
        // the fleet heal, so wait for the replacement to come up.
        let healed = std::time::Instant::now() + Duration::from_secs(10);
        while std::time::Instant::now() < healed {
            let metrics = router.metrics();
            if metrics.respawns >= 1 && metrics.workers.iter().all(|w| w.state == "up") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let metrics = router.finish();

    // Reference: the same jobs through one engine directly.
    let engine = psq_engine::Engine::new(psq_engine::EngineConfig::default());
    let report = engine.run_batch(&jobs);
    let mut reference: std::collections::HashMap<u64, psq_engine::SearchResult> =
        report.results.into_iter().map(|r| (r.job_id, r)).collect();

    let mut answered = 0usize;
    for line in sink.lines() {
        let result = match parse_response(&line) {
            Ok(Response::Result(result)) => result,
            Ok(other) => {
                eprintln!("psq-router: selftest got a non-result response: {other:?}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("psq-router: selftest got a malformed line: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(direct) = reference.remove(&result.job_id) else {
            eprintln!(
                "psq-router: selftest answered id {} twice (or out of range)",
                result.job_id
            );
            return ExitCode::FAILURE;
        };
        let routed = (
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
        );
        let direct = (
            direct.backend,
            direct.block_found,
            direct.true_block,
            direct.correct,
            direct.address_found,
            direct.levels,
            direct.queries,
            direct.success_estimate,
            direct.trials,
            direct.trials_correct,
        );
        if routed != direct {
            eprintln!(
                "psq-router: selftest id {} diverged from the direct run",
                result.job_id
            );
            return ExitCode::FAILURE;
        }
        answered += 1;
    }
    if answered != count || !reference.is_empty() {
        eprintln!("psq-router: selftest answered {answered} of {count} ids");
        return ExitCode::FAILURE;
    }
    if faulted && metrics.respawns == 0 {
        eprintln!("psq-router: selftest had faults configured but recorded no respawn");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "psq-router: selftest ok — {} line(s) read, {count} answered exactly once \
         across {} worker(s); {} retr{}, {} respawn(s), {} duplicate(s) dropped",
        summary.lines_in,
        metrics.workers.len(),
        metrics.retries,
        if metrics.retries == 1 { "y" } else { "ies" },
        metrics.respawns,
        metrics.duplicates_dropped,
    );
    if options.metrics {
        eprintln!("{}", metrics.to_line());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--worker") {
        args.next();
        return worker_main(args);
    }
    let mut options = parse_options(args);
    if options.config.worker_cmd.is_empty() {
        options.config.worker_cmd = self_worker_cmd(&options.worker_args);
    } else if !options.worker_args.is_empty() {
        let extra = std::mem::take(&mut options.worker_args);
        options.config.worker_cmd.extend(extra);
    }

    // Install the trace sink before any worker spawns: the router decides
    // whether to collect worker traces by whether its own sink is live.
    let trace_flags = EngineFlags {
        trace: options.trace.clone(),
        ..EngineFlags::default()
    };
    if let Err(message) = trace_flags.install_trace() {
        eprintln!("psq-router: {message}");
        return ExitCode::FAILURE;
    }

    if let Some(count) = options.selftest {
        return selftest(count, &options);
    }

    let router = Router::start(options.config.clone());
    if let Some(addr) = &options.metrics_addr {
        match router.serve_exposition(addr) {
            Ok(bound) => eprintln!("psq-router: metrics exposition on {bound}"),
            Err(e) => {
                eprintln!("psq-router: cannot serve metrics on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = router.serve_stdio_or_tcp(options.tcp.as_deref(), "psq-router");
    let metrics = router.finish();

    if let Err(e) = outcome {
        eprintln!("psq-router: transport error: {e}");
        return ExitCode::FAILURE;
    }
    if options.metrics {
        eprintln!("{}", metrics.to_line());
    }
    eprintln!(
        "psq-router: {} submitted, {} completed, {} errored, {} overloaded; \
         {} retr{}, {} respawn(s), {} duplicate(s) dropped, {} corrupt line(s); \
         route p50/p99 {:.0}/{:.0} µs",
        metrics.jobs_submitted,
        metrics.jobs_completed,
        metrics.jobs_errored,
        metrics.jobs_overloaded,
        metrics.retries,
        if metrics.retries == 1 { "y" } else { "ies" },
        metrics.respawns,
        metrics.duplicates_dropped,
        metrics.corrupt_lines,
        metrics.route.p50(),
        metrics.route.p99(),
    );
    if let Some(fleet) = &metrics.fleet {
        eprintln!(
            "psq-router: fleet e2e p50/p99 {:.0}/{:.0} µs (recent {:.0}/{:.0}), \
             {} batch(es), result cache {}/{} hit/miss",
            fleet.latency_us_p50,
            fleet.latency_us_p99,
            fleet.latency_recent_us_p50,
            fleet.latency_recent_us_p99,
            fleet.batches,
            fleet.result_cache.hits,
            fleet.result_cache.misses,
        );
    }
    ExitCode::SUCCESS
}
