//! The router's scraped fleet view, end to end over real worker processes:
//! the merged serving snapshot must bit-match a manual
//! [`ServeMetrics::merge_from`] fold of the per-slot snapshots it was built
//! from, and the text exposition endpoint must serve both the router's own
//! series and the fleet-merged ones.

use psq_engine::generate_mixed_batch;
use psq_router::{Router, RouterConfig};
use psq_serve::protocol::{parse_response, Response};
use psq_serve::{LineOutcome, ServeMetrics};
use std::io::Read;
use std::time::{Duration, Instant};

fn test_config(workers: usize) -> RouterConfig {
    RouterConfig {
        workers,
        worker_cmd: vec![
            env!("CARGO_BIN_EXE_psq-router").to_string(),
            "--worker".to_string(),
            "--threads".to_string(),
            "1".to_string(),
        ],
        deadline: Duration::from_secs(30),
        // Scrape fast so the test sees a post-completion fleet view quickly.
        scrape_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    }
}

/// Routes `count` generated jobs and waits until every completion has been
/// scraped into the fleet view (the scrape is asynchronous, so "all jobs
/// answered" lags "the fleet view says so" by up to one scrape interval).
fn run_and_settle(router: &Router, count: usize) {
    let (client, responses) = router.attach();
    for job in generate_mixed_batch(count, 19) {
        let line = serde_json::to_string(&job).expect("jobs serialise");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
    }
    for _ in 0..count {
        let line = responses
            .recv_timeout(Duration::from_secs(120))
            .expect("every job is answered");
        match parse_response(&line).expect("well-formed response line") {
            Response::Result(_) => {}
            other => panic!("expected results, got {other:?}"),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let fleet = router.metrics().fleet;
        if fleet.map(|fleet| fleet.jobs_completed) == Some(count as u64) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the fleet view never caught up to {count} completions"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn fleet_view_bit_matches_a_manual_merge_of_the_scraped_snapshots() {
    let jobs = 32;
    let router = Router::start(test_config(2));
    run_and_settle(&router, jobs);

    // The fleet is idle now, so the per-slot snapshots are stable: the
    // parts and the merged view describe the same instant.
    let parts: Vec<ServeMetrics> = router.worker_metrics().into_iter().flatten().collect();
    let fleet = router.metrics().fleet.expect("scrapes have landed");
    assert!(!parts.is_empty(), "at least one slot was scraped");

    let mut manual = parts[0].clone();
    for part in &parts[1..] {
        manual.merge_from(part);
    }
    assert_eq!(
        manual, fleet,
        "the fleet view must be exactly the merge of its per-slot parts"
    );

    // And the merge is a real aggregation, not a copy of one worker.
    assert_eq!(fleet.jobs_completed, jobs as u64);
    assert_eq!(
        parts.iter().map(|part| part.jobs_completed).sum::<u64>(),
        jobs as u64
    );
    assert_eq!(fleet.latency.count, jobs as u64);
    let pooled_backend_samples: u64 = fleet
        .engine_obs
        .backend_latency
        .values()
        .map(|snapshot| snapshot.count)
        .sum();
    assert_eq!(
        pooled_backend_samples, jobs as u64,
        "every executed job lands in exactly one per-backend histogram"
    );
    router.finish();
}

/// One exposition page over a plain TCP connection (connect, read to EOF).
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("exposition endpoint accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout set");
    let mut page = String::new();
    stream
        .read_to_string(&mut page)
        .expect("exposition page reads to EOF");
    page
}

#[test]
fn exposition_endpoint_serves_router_and_fleet_series() {
    let jobs = 16;
    let router = Router::start(test_config(2));
    let addr = router
        .serve_exposition("127.0.0.1:0")
        .expect("exposition binds an ephemeral port");
    run_and_settle(&router, jobs);

    let page = scrape(addr);
    // Well-formed exposition text: every series is announced before use.
    for series in [
        "psq_router_jobs_completed_total",
        "psq_router_route_us",
        "psq_router_workers_up",
        "psq_fleet_jobs_completed_total",
        "psq_fleet_latency_us",
        "psq_fleet_execute_us",
    ] {
        assert!(
            page.contains(&format!("# TYPE {series} ")),
            "page must declare {series}:\n{page}"
        );
    }
    assert!(
        page.contains(&format!("psq_router_jobs_completed_total {jobs}")),
        "the router counter carries the routed total:\n{page}"
    );
    assert!(
        page.contains(&format!("psq_fleet_jobs_completed_total {jobs}")),
        "the fleet counter carries the merged total:\n{page}"
    );
    assert!(
        page.contains("psq_fleet_latency_us_bucket{window=\"lifetime\",le=\"+Inf\"}"),
        "fleet latency renders cumulative buckets:\n{page}"
    );
    assert!(
        page.contains("psq_fleet_execute_us_bucket{backend="),
        "fleet execution histograms are labelled by backend:\n{page}"
    );
    // One page per connection: a second scrape works and reflects no less
    // history than the first.
    let second = scrape(addr);
    assert!(second.contains(&format!("psq_router_jobs_completed_total {jobs}")));
    router.finish();
}

/// The router counts a worker's reply before it forwards it: a client that
/// has read its result always finds it in the router's counters and route
/// histogram, and no longer in the queue depth.
#[test]
fn a_routed_reply_read_by_its_client_is_always_counted() {
    let router = Router::start(test_config(1));
    let (client, responses) = router.attach();
    for (answered, job) in (1u64..).zip(generate_mixed_batch(100, 23)) {
        let line = serde_json::to_string(&job).expect("jobs serialise");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
        let reply = responses
            .recv_timeout(Duration::from_secs(120))
            .expect("every job is answered");
        assert!(matches!(
            parse_response(&reply).expect("well-formed response line"),
            Response::Result(_)
        ));
        let metrics = router.metrics();
        assert_eq!(metrics.jobs_completed, answered, "after reply {answered}");
        assert_eq!(metrics.route.count, answered, "after reply {answered}");
        assert_eq!(metrics.queue_depth, 0, "after reply {answered}");
    }
    router.finish();
}
