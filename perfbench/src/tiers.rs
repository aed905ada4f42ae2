//! The serving tiers under test, started and attached through their public
//! calls: an in-process `psq_serve::Server`, or a `psq_router::Router` over
//! worker processes that run this same binary in `--serve-worker` mode (the
//! `psq-serve` pipe loop under production defaults).

use crate::load::{same_result, Request};
use crossbeam::channel::Receiver;
use psq_engine::SearchResult;
use psq_router::{Router, RouterConfig};
use psq_serve::protocol::{parse_response, Response};
use psq_serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The argument that turns this binary into a `psq-serve` pipe worker.
pub const WORKER_FLAG: &str = "--serve-worker";

/// Worker-process entry point: the `psq-serve` pipe loop with production
/// defaults (`PSQ_TRACE` honoured, as the router's trace collection sets it).
pub fn serve_worker() -> ExitCode {
    if let Err(message) = psq_engine::EngineFlags::default().install_trace() {
        eprintln!("perfbench worker: {message}");
        return ExitCode::FAILURE;
    }
    let server = Server::start(ServeConfig::default());
    let outcome = server.serve_pipe(std::io::stdin().lock(), std::io::stdout());
    server.finish();
    match outcome {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: transport error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A started tier.
pub enum Tier {
    Server(Server),
    Router(Router),
}

/// One attached client: feed lines in, replies come out of `replies`.
pub struct Attached {
    pub submit: Box<dyn Fn(&str) + Sync + Send>,
    pub replies: Receiver<String>,
}

impl Tier {
    pub fn server(config: ServeConfig) -> Self {
        Tier::Server(Server::start(config))
    }

    /// A router with `workers` worker processes, otherwise under defaults.
    pub fn router(workers: usize) -> Self {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        Tier::Router(Router::start(RouterConfig {
            workers,
            worker_cmd: vec![exe.to_string_lossy().into_owned(), WORKER_FLAG.to_string()],
            ..RouterConfig::default()
        }))
    }

    pub fn attach(&self) -> Attached {
        match self {
            Tier::Server(server) => {
                let (client, replies) = server.attach();
                Attached {
                    submit: Box::new(move |line| {
                        client.submit_line(line);
                    }),
                    replies,
                }
            }
            Tier::Router(router) => {
                let (client, replies) = router.attach();
                Attached {
                    submit: Box::new(move |line| {
                        client.submit_line(line);
                    }),
                    replies,
                }
            }
        }
    }

    /// Peak resident memory of the tier's worker processes, in MB.
    pub fn workers_peak_rss_mb(&self) -> f64 {
        match self {
            Tier::Server(_) => 0.0,
            Tier::Router(router) => (0..router.metrics().workers.len())
                .filter_map(|slot| router.worker_pid(slot))
                .map(|pid| crate::sys::peak_rss_mb(&pid.to_string()))
                .sum(),
        }
    }
}

/// Starts a tier with `start`, attaches one client and waits for the answer
/// to `probe`: the set-up time a user pays before the first reply. Returns
/// the tier, the attached client and the seconds taken; panics when the
/// probe is not answered correctly, since nothing after it could be trusted.
pub fn start_and_probe(
    start: &dyn Fn() -> Tier,
    probe: &Request,
    expected: &HashMap<u64, SearchResult>,
) -> (Tier, Attached, f64) {
    let t0 = Instant::now();
    let tier = start();
    let attached = tier.attach();
    (attached.submit)(&probe.line);
    let mut answered = 0;
    while answered < probe.ids.len() {
        let line = attached
            .replies
            .recv_timeout(Duration::from_secs(60))
            .expect("the set-up probe is answered within a minute");
        match parse_response(&line) {
            Ok(Response::Result(result))
                if expected
                    .get(&result.job_id)
                    .is_some_and(|want| same_result(&result, want)) =>
            {
                answered += 1
            }
            other => panic!("set-up probe got a wrong reply: {other:?}"),
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    (tier, attached, seconds)
}
