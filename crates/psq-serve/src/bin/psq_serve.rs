//! `psq-serve` — the streaming serving layer as a process.
//!
//! ```text
//! psq-serve [OPTIONS]                  pipe mode: NDJSON stdin → stdout
//! psq-serve --tcp ADDR [OPTIONS]      multi-client TCP server
//! psq-serve --gen N [--seed S]        emit N demo jobs as NDJSON lines
//! psq-serve --selftest N              gen → pipe → verify all ids answered
//! ```
//!
//! See `psq-serve --help` for the flag list; the engine flags are shared
//! with `psq-engine` through `psq_engine::cli`.

use psq_engine::cli::{self, EngineFlags};
use psq_serve::protocol::{parse_response, Response};
use psq_serve::testio::SharedSink;
use psq_serve::{CoalescerConfig, ServeConfig, Server};
use std::process::ExitCode;

struct Options {
    engine: EngineFlags,
    coalescer: CoalescerConfig,
    max_inflight: u32,
    idle_timeout_ms: u64,
    max_sweep_points: usize,
    tcp: Option<String>,
    metrics: bool,
    metrics_addr: Option<String>,
    gen_count: Option<usize>,
    gen_seed: u64,
    selftest: Option<usize>,
}

fn help() -> String {
    format!(
        "usage: psq-serve [OPTIONS]                 pipe mode: NDJSON jobs on stdin,\n\
         \x20                                          tagged NDJSON responses on stdout\n\
         \x20      psq-serve --tcp ADDR [OPTIONS]      serve many clients over TCP\n\
         \x20      psq-serve --gen N [--seed S]        emit N demo jobs, one JSON per line\n\
         \x20      psq-serve --selftest N              round-trip N generated jobs through\n\
         \x20                                          a pipe session and verify every id\n\
         \n\
         Protocol: one JSON value per line. Requests are SearchJob objects or\n\
         {{\"cmd\":\"metrics\"}} / {{\"cmd\":\"health\"}} / {{\"cmd\":\"drain\"}} /\n\
         {{\"cmd\":\"shutdown\"}}; responses are tagged with \"type\": \"result\" |\n\
         \"error\" | \"metrics\" | \"health\" | \"ack\". Results stream back as\n\
         they complete and clients correlate by their own job ids.\n\
         \n\
         Engine options (shared with psq-engine):\n\
         {}\n\
         \n\
         Serving options:\n\
         \x20 --tcp ADDR                   listen on ADDR (e.g. 127.0.0.1:7070) instead\n\
         \x20                              of stdin/stdout\n\
         \x20 --max-batch N                largest coalesced engine batch (default 256)\n\
         \x20 --max-delay-us U             longest a batch waits for company beyond the\n\
         \x20                              jobs already queued, in microseconds; 0\n\
         \x20                              dispatches as soon as the scheduler is free\n\
         \x20                              (default 0)\n\
         \x20 --max-inflight N             per-client bound on unanswered jobs; beyond\n\
         \x20                              it submissions get overload errors (default 1024)\n\
         \x20 --idle-timeout-ms MS         close a TCP session after MS ms without a\n\
         \x20                              request line; 0 disables (default 60000)\n\
         \x20 --max-sweep-points N         refuse \"sweep\" requests expanding to more\n\
         \x20                              than N grid points (default 4096)\n\
         \x20 --metrics                    print a final ServeMetrics JSON line on stderr\n\
         \x20                              when the session ends\n\
         \x20 --metrics-addr ADDR          serve a Prometheus-style text exposition of\n\
         \x20                              the live metrics on ADDR (plain TCP: one page\n\
         \x20                              per connection; scrape with nc or\n\
         \x20                              cat < /dev/tcp/HOST/PORT)\n\
         \x20 --gen N                      generate N demo jobs instead of serving\n\
         \x20 --seed S                     seed for --gen (default 1)\n\
         \x20 --selftest N                 self-contained smoke test; exit 0 iff every\n\
         \x20                              job id was answered exactly once\n\
         \x20 -h, --help                   this text",
        cli::ENGINE_FLAGS_HELP
    )
}

fn usage_error(message: &str) -> ! {
    eprintln!("psq-serve: {message}\n\n{}", help());
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut options = Options {
        engine: EngineFlags::default(),
        coalescer: CoalescerConfig::default(),
        max_inflight: 1024,
        idle_timeout_ms: 60_000,
        max_sweep_points: psq_engine::DEFAULT_MAX_SWEEP_POINTS,
        tcp: None,
        metrics: false,
        metrics_addr: None,
        gen_count: None,
        gen_seed: 1,
        selftest: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match options.engine.accept(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(message) => usage_error(&message),
        }
        let outcome = match arg.as_str() {
            "--tcp" => cli::require_value(&arg, &mut args).map(|v| options.tcp = Some(v)),
            "--max-batch" => {
                cli::require_value(&arg, &mut args).map(|v| options.coalescer.max_batch = v)
            }
            "--max-delay-us" => {
                cli::require_value(&arg, &mut args).map(|v| options.coalescer.max_delay_us = v)
            }
            "--max-inflight" => {
                cli::require_value(&arg, &mut args).map(|v| options.max_inflight = v)
            }
            "--idle-timeout-ms" => {
                cli::require_value(&arg, &mut args).map(|v| options.idle_timeout_ms = v)
            }
            "--max-sweep-points" => {
                cli::require_value(&arg, &mut args).map(|v| options.max_sweep_points = v)
            }
            "--gen" => cli::require_value(&arg, &mut args).map(|v| options.gen_count = Some(v)),
            "--seed" => cli::require_value(&arg, &mut args).map(|v| options.gen_seed = v),
            "--selftest" => cli::require_value(&arg, &mut args).map(|v| options.selftest = Some(v)),
            "--metrics" => {
                options.metrics = true;
                Ok(())
            }
            "--metrics-addr" => {
                cli::require_value(&arg, &mut args).map(|v| options.metrics_addr = Some(v))
            }
            "--help" | "-h" => {
                println!("{}", help());
                std::process::exit(0)
            }
            other => Err(format!("unrecognised argument `{other}`")),
        };
        if let Err(message) = outcome {
            usage_error(&message);
        }
    }
    options
}

/// `--gen N`: one job JSON per line, ready to pipe into a serve session.
fn generate(count: usize, seed: u64) {
    for job in psq_engine::generate_mixed_batch(count, seed) {
        println!("{}", serde_json::to_string(&job).expect("jobs serialise"));
    }
}

fn serve_config(options: &Options) -> ServeConfig {
    ServeConfig {
        engine: options.engine.engine_config(),
        coalescer: options.coalescer,
        max_inflight: options.max_inflight,
        idle_timeout: (options.idle_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(options.idle_timeout_ms)),
        max_sweep_points: options.max_sweep_points,
    }
}

/// `--selftest N`: generate N jobs, stream them through an in-process pipe
/// session, and verify every id came back exactly once as a result.
fn selftest(count: usize, options: &Options) -> ExitCode {
    let jobs = psq_engine::generate_mixed_batch(count, options.gen_seed);
    let input: String = jobs
        .iter()
        .map(|job| serde_json::to_string(job).expect("jobs serialise") + "\n")
        .collect();
    let server = Server::start(serve_config(options));
    let sink = SharedSink::default();
    let summary = match server.serve_pipe(input.as_bytes(), sink.clone()) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("psq-serve: selftest pipe session failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = server.metrics();
    server.finish();
    let mut answered: Vec<u64> = Vec::with_capacity(count);
    for line in sink.lines() {
        match parse_response(&line) {
            Ok(Response::Result(result)) => answered.push(result.job_id),
            Ok(other) => {
                eprintln!("psq-serve: selftest got a non-result response: {other:?}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("psq-serve: selftest got a malformed line: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    answered.sort_unstable();
    let expected: Vec<u64> = (0..count as u64).collect();
    if answered != expected {
        eprintln!(
            "psq-serve: selftest answered {} of {count} ids (duplicates or gaps)",
            answered.len()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "psq-serve: selftest ok — {} job(s) read, {count} answered in {} batch(es), \
         mean batch {:.1}, p99 latency {:.0} µs",
        summary.lines_in, metrics.batches, metrics.batch_jobs_mean, metrics.latency_us_p99
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let options = parse_options();

    if let Some(count) = options.gen_count {
        generate(count, options.gen_seed);
        return ExitCode::SUCCESS;
    }
    if let Err(message) = options.engine.install_trace() {
        eprintln!("psq-serve: {message}");
        return ExitCode::FAILURE;
    }
    if let Some(count) = options.selftest {
        return selftest(count, &options);
    }

    let server = Server::start(serve_config(&options));
    if let Some(addr) = &options.metrics_addr {
        match server.serve_exposition(addr) {
            Ok(bound) => eprintln!("psq-serve: metrics exposition on {bound}"),
            Err(e) => {
                eprintln!("psq-serve: cannot serve metrics on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = server.serve_stdio_or_tcp(options.tcp.as_deref(), "psq-serve");
    let metrics = server.metrics();
    server.finish();

    if let Err(e) = outcome {
        eprintln!("psq-serve: transport error: {e}");
        return ExitCode::FAILURE;
    }
    if options.metrics {
        eprintln!(
            "{}",
            serde_json::to_string(&metrics).expect("metrics serialise")
        );
    }
    eprintln!(
        "psq-serve: {} submitted, {} completed, {} errored, {} overloaded; \
         {} batch(es), mean {:.1} jobs/batch, p50/p99 latency {:.0}/{:.0} µs, \
         result cache {}/{} hit/miss ({} evictions)",
        metrics.jobs_submitted,
        metrics.jobs_completed,
        metrics.jobs_errored,
        metrics.jobs_overloaded,
        metrics.batches,
        metrics.batch_jobs_mean,
        metrics.latency_us_p50,
        metrics.latency_us_p99,
        metrics.result_cache.hits,
        metrics.result_cache.misses,
        metrics.result_cache.evictions,
    );
    ExitCode::SUCCESS
}
