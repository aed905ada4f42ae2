//! The persistent server: the coalescer behind the shared front end.
//!
//! A [`Server`] owns one shared [`EngineHandle`] and one scheduler thread
//! running the [`crate::coalescer`] loop. Clients reach it through the
//! shared [`crate::front`]: a pipe session ([`Server::serve_pipe`]) or a
//! TCP accept loop ([`Server::serve_tcp`]) whose readers parse NDJSON
//! request lines, admit jobs, and hand each admitted job to the server as a
//! [`JobTicket`] on the intake queue. All clients coalesce into the same
//! engine batches, and multiple sequential pipe sessions may run against
//! one server — the engine, caches and metrics persist across them.
//!
//! Shutdown is graceful everywhere: EOF (pipe) or `{"cmd":"shutdown"}`
//! (either transport) stops intake, the coalescer drains every admitted
//! job, writers flush every pending response, and only then do threads
//! join. The response writers ([`spawn_writer`]) write in chunks and flush
//! whenever their channel momentarily empties rather than after every
//! line, so a streaming client sees results as they complete without
//! per-line syscall overhead.

use crate::coalescer::{run_coalescer, CoalescerConfig, JobTicket, Submission};
use crate::front::{self, Client, Counted, Front, PipeSummary, Tier};
use crate::metrics::{ServeMetrics, ServeStats};
use crate::protocol::Response;
use crate::session::{OutLine, Session};
use crossbeam::channel::{unbounded, Receiver, Sender};
use psq_engine::{EngineConfig, EngineHandle, SearchJob};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction options.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// The shared engine's options.
    pub engine: EngineConfig,
    /// Micro-batching policy.
    pub coalescer: CoalescerConfig,
    /// Per-client bound on admitted-but-unanswered jobs; submissions over
    /// the bound get `overload` errors (the connection stays open).
    pub max_inflight: u32,
    /// How long a TCP reader waits for the next request line before closing
    /// the session. A silent client used to pin its reader thread (and any
    /// in-flight admission slots) forever; with the timeout the session
    /// drains cleanly — in-flight jobs are still answered and flushed by
    /// the writer before the connection closes. `None` disables the
    /// timeout. Pipe sessions are unaffected (EOF already bounds them).
    pub idle_timeout: Option<Duration>,
    /// Largest grid a single `"sweep"` request may expand into. Oversized
    /// sweeps are refused with a `sweep_too_large` error before any point
    /// is admitted, so one request line cannot monopolise the engine.
    pub max_sweep_points: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            coalescer: CoalescerConfig::default(),
            max_inflight: 1024,
            idle_timeout: Some(Duration::from_secs(60)),
            max_sweep_points: psq_engine::DEFAULT_MAX_SWEEP_POINTS,
        }
    }
}

/// The server's side of the front end: admitted jobs queue for the
/// coalescer.
struct ServerCore {
    front: Front,
    engine: EngineHandle,
    /// Shared with every in-flight [`JobTicket`] (answer-on-drop needs it).
    stats: Arc<ServeStats>,
    intake: Sender<Submission>,
}

impl ServerCore {
    fn metrics(&self) -> ServeMetrics {
        let (clients, connected, total) = self.front.registry().snapshot();
        self.stats.snapshot(
            clients,
            connected,
            total,
            self.engine.result_cache_stats(),
            self.engine.planner().cache().stats(),
            self.engine.obs_snapshot(),
        )
    }
}

impl Tier for ServerCore {
    fn front(&self) -> &Front {
        &self.front
    }

    fn submit(
        &self,
        session: &Arc<Session>,
        job: SearchJob,
        trace: Option<u64>,
    ) -> Result<(), String> {
        self.stats.record_submitted();
        let ticket = JobTicket::new(Arc::clone(session), job, Arc::clone(&self.stats), trace);
        // If the scheduler already stopped, the send hands the submission
        // back and the ticket's answer-on-drop serves the `shutting_down`
        // error — same for a ticket that lands in the queue just as the
        // scheduler's receiver is destroyed. No interleaving is silent.
        let _ = self.intake.send(Submission::Job(ticket));
        Ok(())
    }

    fn count(&self, counted: Counted) {
        match counted {
            Counted::Error => self.stats.record_rejected_at_intake(),
            Counted::Overload => self.stats.record_overloaded(),
            Counted::SweepTooLarge => self.stats.record_sweep_rejected(),
            Counted::Sweep(points) => self.stats.record_sweep(points),
        }
    }

    fn metrics_line(&self) -> String {
        Response::Metrics(Box::new(self.metrics())).to_line()
    }

    fn queue_depth(&self) -> u64 {
        self.stats.queue_depth()
    }

    /// The marker makes the coalescer drain and stop even though clients
    /// still hold the intake.
    fn stop(&self) {
        let _ = self.intake.send(Submission::Shutdown);
    }
}

/// The streaming, multi-client serving layer over one shared engine.
pub struct Server {
    core: Arc<ServerCore>,
    scheduler: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds the engine and starts the scheduler thread.
    pub fn start(config: ServeConfig) -> Self {
        Self::with_engine(EngineHandle::new(config.engine), config)
    }

    /// Starts the serving layer over an existing engine handle (the engine
    /// may be shared with other, non-serving work).
    pub fn with_engine(engine: EngineHandle, config: ServeConfig) -> Self {
        let stats = Arc::new(ServeStats::default());
        let (intake, intake_rx): (Sender<Submission>, Receiver<Submission>) = unbounded();
        let scheduler = {
            let engine = engine.clone();
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("psq-serve-coalescer".to_string())
                .spawn(move || run_coalescer(&engine, &intake_rx, &stats, config.coalescer))
                .expect("failed to spawn the coalescer thread")
        };
        let front = Front::new(
            "server",
            config.max_inflight.max(1),
            config.idle_timeout,
            config.max_sweep_points.max(1),
        );
        Self {
            core: Arc::new(ServerCore {
                front,
                engine,
                stats,
                intake,
            }),
            scheduler: Some(scheduler),
        }
    }

    /// Attaches a client: returns the submission handle and the channel its
    /// response lines arrive on. Transports hand the receiver to a writer
    /// thread; in-process callers drain it directly.
    pub fn attach(&self) -> (Client, Receiver<OutLine>) {
        front::attach(self.core.clone())
    }

    /// The shared engine.
    pub fn engine(&self) -> &EngineHandle {
        &self.core.engine
    }

    /// A metrics snapshot (same data a `{"cmd":"metrics"}` line returns).
    pub fn metrics(&self) -> ServeMetrics {
        self.core.metrics()
    }

    /// Whether a shutdown command has been observed.
    pub fn shutdown_requested(&self) -> bool {
        self.core.front.draining()
    }

    /// Binds `addr` (the `--metrics-addr` flag) and serves a freshly
    /// rendered Prometheus-style text exposition of the live metrics to
    /// every connection, on a detached thread. Plain TCP, one page per
    /// connection — scrape with `nc HOST PORT` or
    /// `cat < /dev/tcp/HOST/PORT`. Returns the bound address so callers
    /// may pass port 0.
    pub fn serve_exposition(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let core = Arc::clone(&self.core);
        psq_obs::expo::serve_text(addr, move || {
            let mut expo = psq_obs::Exposition::new();
            core.metrics().write_exposition(&mut expo, "psq_serve");
            expo.render()
        })
    }

    /// Serves one client over a reader/writer pair until EOF or a shutdown
    /// command ([`front::serve_pipe`]). The server survives the call:
    /// caches, metrics and the scheduler keep running, and further pipe or
    /// TCP sessions may follow.
    pub fn serve_pipe<R, W>(&self, reader: R, writer: W) -> std::io::Result<PipeSummary>
    where
        R: BufRead,
        W: Write + Send + 'static,
    {
        front::serve_pipe(self.core.clone(), reader, writer)
    }

    /// Accepts TCP clients until a shutdown command arrives from any of
    /// them, then drains and joins every connection ([`front::serve_tcp`]).
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        front::serve_tcp(self.core.clone(), listener)
    }

    /// Serves the process's clients over TCP on `tcp`, or else on
    /// stdin/stdout ([`front::serve_stdio_or_tcp`]).
    pub fn serve_stdio_or_tcp(&self, tcp: Option<&str>, program: &str) -> std::io::Result<()> {
        front::serve_stdio_or_tcp(self.core.clone(), tcp, program)
    }

    /// Stops intake, drains the scheduler, and joins it (same as dropping
    /// the server, made explicit). Clients attached through
    /// [`Server::attach`] must be dropped first (their writers disconnect
    /// once their last in-flight job is answered).
    pub fn finish(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        self.core.front.drain();
        self.core.stop();
        if let Some(scheduler) = self.scheduler.take() {
            let _ = scheduler.join();
        }
    }
}

/// Bytes a line writer gathers before it writes them to its sink.
const WRITE_CHUNK: usize = 8 * 1024;

/// Spawns a line writer: drains `lines` onto `sink`, each terminated by
/// `\n`. Lines gather in a buffer that goes out in one write once it holds
/// 8 KiB, or as soon as the channel momentarily empties (followed by a
/// flush). A burst therefore costs one write per 8 KiB,
/// while a waiting peer never stalls on a buffered line. The sink needs no
/// buffering of its own: line-buffered stdout, a TCP stream and a child's
/// stdin all receive whole chunks. The thread ends once every sender is
/// gone and the last line is written.
///
/// Every client of psq-serve and psq-router, and every router-to-worker
/// pipe, is written through this one function.
pub fn spawn_writer<W: Write + Send + 'static>(
    name: &str,
    lines: Receiver<OutLine>,
    mut sink: W,
) -> JoinHandle<std::io::Result<()>> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let mut chunk: Vec<u8> = Vec::with_capacity(2 * WRITE_CHUNK);
            loop {
                let line = match lines.try_recv() {
                    Some(line) => line,
                    None => {
                        sink.write_all(&chunk)?;
                        chunk.clear();
                        sink.flush()?;
                        match lines.recv() {
                            Ok(line) => line,
                            Err(_) => return Ok(()), // every sender gone
                        }
                    }
                };
                chunk.extend_from_slice(line.as_bytes());
                chunk.push(b'\n');
                if chunk.len() >= WRITE_CHUNK {
                    sink.write_all(&chunk)?;
                    chunk.clear();
                }
            }
        })
        .expect("failed to spawn a writer thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::LineOutcome;
    use crate::protocol::{parse_response, ErrorKind};
    use psq_engine::{generate_mixed_batch, SearchJob};
    use std::io::BufReader;
    use std::time::Instant;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            engine: EngineConfig {
                threads: Some(1),
                ..EngineConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn attach_submit_drain_answers_every_job() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        for job in generate_mixed_batch(12, 5) {
            let line = serde_json::to_string(&job).expect("job serialises");
            assert_eq!(client.submit_line(&line), LineOutcome::Continue);
        }
        drop(client);
        let mut ids: Vec<u64> = responses
            .iter()
            .map(|line| {
                parse_response(&line)
                    .expect("well-formed")
                    .job_id()
                    .expect("answers a job")
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
        let metrics = server.metrics();
        assert_eq!(metrics.jobs_completed, 12);
        assert_eq!(metrics.queue_depth, 0);
        server.finish();
    }

    /// Splices serving-layer fields into a serialised base job, the same
    /// way a wire client writes a sweep line.
    fn sweep_line(base: &SearchJob, sweep: &str) -> String {
        let job = serde_json::to_string(base).expect("job serialises");
        format!("{},\"sweep\":{sweep}}}", &job[..job.len() - 1])
    }

    #[test]
    fn sweep_lines_expand_to_one_result_per_grid_point() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        let base = SearchJob::new(100, 1 << 10, 4, 7);
        let line = sweep_line(&base, "{\"p\":[0.0,0.02],\"k\":[4,8]}");
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
        drop(client);
        let mut ids: Vec<u64> = responses
            .iter()
            .map(|line| match parse_response(&line).expect("well-formed") {
                Response::Result(result) => result.job_id,
                other => panic!("expected a result, got {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![100, 101, 102, 103]);
        let metrics = server.metrics();
        assert_eq!(metrics.sweeps_expanded, 1);
        assert_eq!(metrics.sweep_points, 4);
        assert_eq!(metrics.jobs_completed, 4);
        server.finish();
    }

    #[test]
    fn oversized_sweeps_are_refused_whole() {
        let server = Server::start(ServeConfig {
            max_sweep_points: 3,
            ..tiny_config()
        });
        let (client, responses) = server.attach();
        let base = SearchJob::new(5, 1 << 10, 4, 7);
        client.submit_line(&sweep_line(&base, "{\"p\":[0.0,0.01],\"k\":[4,8]}"));
        drop(client);
        let lines: Vec<String> = responses.iter().collect();
        assert_eq!(lines.len(), 1, "no point is admitted");
        match parse_response(&lines[0]).expect("well-formed") {
            Response::Error { id, kind, reason } => {
                assert_eq!(id, Some(5));
                assert_eq!(kind, ErrorKind::SweepTooLarge);
                assert!(reason.contains("4 grid points"), "reason: {reason}");
            }
            other => panic!("expected sweep_too_large, got {other:?}"),
        }
        assert_eq!(server.metrics().sweeps_rejected, 1);
        assert_eq!(server.metrics().jobs_submitted, 0);
        let metrics = server.metrics();
        assert_eq!(
            metrics.jobs_errored + metrics.jobs_overloaded,
            1,
            "the counters add up to the error lines sent"
        );
        server.finish();
    }

    #[test]
    fn sparse_sweeps_expand_points_at_huge_n_and_respect_the_cap() {
        use psq_engine::spec::{Backend, BackendHint};
        let server = Server::start(ServeConfig {
            max_sweep_points: 4,
            ..tiny_config()
        });
        let (client, responses) = server.attach();
        let n = 1u64 << 30; // 256× beyond the dense state-vector ceiling
        let base = SearchJob::new(200, n, 4, 12_345).with_backend(BackendHint::Sparse);
        // A 2 × 2 grid fits the cap exactly: every point — ideal (p = 0)
        // and depolarizing alike — is admitted and answers on the sparse
        // backend, since no dense backend exists at this size.
        let line = sweep_line(
            &base,
            "{\"channel\":\"depolarizing\",\"p\":[0.0,0.01],\"k\":[4,8]}",
        );
        assert_eq!(client.submit_line(&line), LineOutcome::Continue);
        // A 3 × 2 grid of the same sparse points is refused whole, the
        // reason counting all six (one per grid point, nothing doubled or
        // dropped for the sparse hint).
        let too_big = sweep_line(
            &SearchJob::new(300, n, 4, 12_345).with_backend(BackendHint::Sparse),
            "{\"channel\":\"depolarizing\",\"p\":[0.0,0.01,0.02],\"k\":[4,8]}",
        );
        client.submit_line(&too_big);
        drop(client);
        let mut results = Vec::new();
        let mut errors = Vec::new();
        for line in responses.iter() {
            match parse_response(&line).expect("well-formed") {
                Response::Result(result) => results.push(*result),
                Response::Error { id, kind, reason } => errors.push((id, kind, reason)),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let mut ids: Vec<u64> = results.iter().map(|r| r.job_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![200, 201, 202, 203]);
        for result in &results {
            assert_eq!(result.backend, Backend::Sparse, "{result:?}");
            assert!(result.queries > 0);
        }
        assert_eq!(errors.len(), 1);
        let (id, kind, reason) = &errors[0];
        assert_eq!(*id, Some(300));
        assert_eq!(*kind, ErrorKind::SweepTooLarge);
        assert!(reason.contains("6 grid points"), "reason: {reason}");
        let metrics = server.metrics();
        assert_eq!(metrics.sweep_points, 4);
        assert_eq!(metrics.sweeps_rejected, 1);
        server.finish();
    }

    #[test]
    fn malformed_and_invalid_lines_get_tagged_errors() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        client.submit_line("this is not json");
        let bad = SearchJob::new(31, 10, 7, 3); // k does not divide n
        client.submit_line(&serde_json::to_string(&bad).expect("serialises"));
        drop(client);
        let lines: Vec<String> = responses.iter().collect();
        assert_eq!(lines.len(), 2);
        match parse_response(&lines[0]).expect("well-formed") {
            Response::Error { id, kind, .. } => {
                assert_eq!(id, None);
                assert_eq!(kind, ErrorKind::Parse);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        match parse_response(&lines[1]).expect("well-formed") {
            Response::Error { id, kind, reason } => {
                assert_eq!(id, Some(31));
                assert_eq!(kind, ErrorKind::Invalid);
                assert!(reason.contains("job 31"), "reason: {reason}");
            }
            other => panic!("expected invalid error, got {other:?}"),
        }
        server.finish();
    }

    /// `restart` is router vocabulary: a lone server refuses it with the
    /// same `parse` error as any command it does not know, and counts it
    /// the same way.
    #[test]
    fn restart_is_refused_like_an_unknown_command() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        for line in ["{\"cmd\":\"restart\"}", "{\"cmd\":\"dance\"}"] {
            assert_eq!(client.submit_line(line), LineOutcome::Continue);
        }
        drop(client);
        let refusal = |name: &str| {
            Response::Error {
                id: None,
                kind: ErrorKind::Parse,
                reason: format!("unknown command `{name}`"),
            }
            .to_line()
        };
        let lines: Vec<String> = responses.iter().collect();
        assert_eq!(lines, vec![refusal("restart"), refusal("dance")]);
        assert_eq!(server.metrics().jobs_errored, 2);
        assert!(!server.shutdown_requested());
        server.finish();
    }

    /// A sink that logs every `write` and `flush` it receives, in order.
    #[derive(Clone, Default)]
    struct CountingSink(Arc<parking_lot::Mutex<Vec<Option<Vec<u8>>>>>);

    impl CountingSink {
        /// The `write` calls so far (flushes left out).
        fn writes(&self) -> Vec<Vec<u8>> {
            self.0.lock().iter().flatten().cloned().collect()
        }

        fn last_was_flush(&self) -> bool {
            matches!(self.0.lock().last(), Some(None))
        }
    }

    impl Write for CountingSink {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().push(Some(data.to_vec()));
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.lock().push(None);
            Ok(())
        }
    }

    #[test]
    fn writer_sends_queued_lines_in_8_kib_chunks() {
        let (tx, rx) = unbounded();
        let lines: Vec<String> = (0..600)
            .map(|i| format!("{{\"id\":{i},\"pad\":\"{}\"}}", "x".repeat(i % 113)))
            .collect();
        for line in &lines {
            tx.send(line.clone()).expect("writer channel open");
        }
        drop(tx);
        let sink = CountingSink::default();
        spawn_writer("test-writer", rx, sink.clone())
            .join()
            .expect("writer thread")
            .expect("writes succeed");
        let writes = sink.writes();
        let expected: String = lines.iter().map(|line| format!("{line}\n")).collect();
        assert_eq!(writes.concat(), expected.as_bytes());
        assert!(
            writes.len() <= expected.len().div_ceil(WRITE_CHUNK),
            "{} bytes took {} writes",
            expected.len(),
            writes.len()
        );
        assert!(sink.last_was_flush());
    }

    #[test]
    fn writer_flushes_a_lone_line_without_waiting_for_another() {
        let (tx, rx) = unbounded();
        let sink = CountingSink::default();
        let writer = spawn_writer("test-writer", rx, sink.clone());
        tx.send("{\"type\":\"ack\",\"cmd\":\"health\"}".to_string())
            .expect("writer channel open");
        // The sender stays open: the line must go out on its own.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(sink.writes().concat() == b"{\"type\":\"ack\",\"cmd\":\"health\"}\n"
            && sink.last_was_flush())
        {
            assert!(Instant::now() < deadline, "a lone line was held back");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(tx);
        writer
            .join()
            .expect("writer thread")
            .expect("writes succeed");
    }

    #[test]
    fn metrics_command_returns_a_parsable_snapshot() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        client.submit_line(
            &serde_json::to_string(&SearchJob::new(0, 1 << 10, 4, 7)).expect("serialises"),
        );
        // Wait for the job to be answered so the snapshot is settled.
        let first = responses.recv().expect("job answered");
        assert!(matches!(
            parse_response(&first).expect("well-formed"),
            Response::Result(_)
        ));
        client.submit_line("{\"cmd\":\"metrics\"}");
        let line = responses.recv().expect("metrics answered");
        match parse_response(&line).expect("well-formed") {
            Response::Metrics(metrics) => {
                assert_eq!(metrics.jobs_completed, 1);
                assert_eq!(metrics.clients_connected, 1);
                assert_eq!(metrics.clients[0].completed, 1);
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        drop(client);
        server.finish();
    }

    /// Replies are counted before they are sent: a client that has read a
    /// result or an engine rejection and then asks for metrics always sees
    /// that reply counted, server-wide and on its own session.
    #[test]
    fn a_reply_read_by_its_client_is_always_counted() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        let (mut completed, mut errored) = (0u64, 0u64);
        for id in 0..200u64 {
            // Every fourth job passes validation but is refused by the
            // planner (a circuit on a non-power-of-two n).
            let job = if id % 4 == 3 {
                SearchJob::new(id, 96, 4, 5).with_backend(psq_engine::BackendHint::Circuit)
            } else {
                SearchJob::new(id, 1 << 8, 4, id % 256)
            };
            client.submit_line(&serde_json::to_string(&job).expect("serialises"));
            match parse_response(&responses.recv().expect("job answered")).expect("well-formed") {
                Response::Result(_) => completed += 1,
                Response::Error { kind, .. } => {
                    assert_eq!(kind, ErrorKind::Rejected);
                    errored += 1;
                }
                other => panic!("expected a job reply, got {other:?}"),
            }
            client.submit_line("{\"cmd\":\"metrics\"}");
            match parse_response(&responses.recv().expect("metrics answered")).expect("well-formed")
            {
                Response::Metrics(metrics) => {
                    assert_eq!(metrics.jobs_completed, completed, "after reply {id}");
                    assert_eq!(metrics.jobs_errored, errored, "after reply {id}");
                    assert_eq!(metrics.queue_depth, 0, "after reply {id}");
                    assert_eq!(metrics.clients[0].completed, completed);
                    assert_eq!(metrics.clients[0].errors, errored);
                }
                other => panic!("expected metrics, got {other:?}"),
            }
        }
        drop(client);
        server.finish();
    }

    #[test]
    fn pipe_session_runs_eof_to_clean_drain_and_server_survives() {
        let server = Server::start(tiny_config());
        for round in 0..2u64 {
            let jobs = generate_mixed_batch(8, round);
            let input: String = jobs
                .iter()
                .map(|job| serde_json::to_string(job).expect("serialises") + "\n")
                .collect();
            let sink = crate::testio::SharedSink::default();
            let summary = server
                .serve_pipe(input.as_bytes(), sink.clone())
                .expect("pipe session");
            assert_eq!(summary.lines_in, 8);
            assert!(!summary.shutdown_requested);
            let mut ids: Vec<u64> = sink
                .lines()
                .iter()
                .map(|line| {
                    parse_response(line)
                        .expect("well-formed")
                        .job_id()
                        .expect("answers a job")
                })
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..8).collect::<Vec<_>>());
        }
        assert_eq!(server.metrics().jobs_completed, 16);
        assert_eq!(server.metrics().clients_total, 2);
        server.finish();
    }

    #[test]
    fn shutdown_command_stops_the_pipe_session_with_an_ack() {
        let server = Server::start(tiny_config());
        let job = serde_json::to_string(&SearchJob::new(4, 1 << 10, 4, 9)).expect("serialises");
        let input = format!("{job}\n{{\"cmd\":\"shutdown\"}}\n{job}\n");
        let sink = crate::testio::SharedSink::default();
        let summary = server
            .serve_pipe(input.as_bytes(), sink.clone())
            .expect("pipe session");
        assert!(summary.shutdown_requested);
        assert_eq!(summary.lines_in, 2, "reading stops at the command");
        let lines = sink.lines();
        let parsed: Vec<Response> = lines
            .iter()
            .map(|l| parse_response(l).expect("well-formed"))
            .collect();
        assert!(parsed.iter().any(|r| matches!(r, Response::Result(_))));
        assert!(parsed
            .iter()
            .any(|r| matches!(r, Response::Ack { cmd } if cmd == "shutdown")));
        assert!(server.shutdown_requested());
        server.finish();
    }

    #[test]
    fn health_command_is_cheap_and_reflects_drain_state() {
        let server = Server::start(tiny_config());
        let (client, responses) = server.attach();
        assert_eq!(
            client.submit_line("{\"cmd\":\"health\"}"),
            LineOutcome::Continue
        );
        match parse_response(&responses.recv().expect("health answered")).expect("well-formed") {
            Response::Health {
                status,
                queue_depth,
                uptime_us: _,
            } => {
                assert_eq!(status, "ok");
                assert_eq!(queue_depth, 0);
            }
            other => panic!("expected health, got {other:?}"),
        }
        // After a drain command the status flips to `draining`.
        assert_eq!(client.submit_line("{\"cmd\":\"drain\"}"), LineOutcome::Stop);
        let (probe, probe_responses) = server.attach();
        probe.submit_line("{\"cmd\":\"health\"}");
        match parse_response(&probe_responses.recv().expect("health answered"))
            .expect("well-formed")
        {
            Response::Health { status, .. } => assert_eq!(status, "draining"),
            other => panic!("expected health, got {other:?}"),
        }
        drop(client);
        drop(probe);
        server.finish();
    }

    #[test]
    fn drain_command_stops_the_pipe_session_with_its_own_ack() {
        let server = Server::start(tiny_config());
        let job = serde_json::to_string(&SearchJob::new(2, 1 << 10, 4, 5)).expect("serialises");
        let input = format!("{job}\n{{\"cmd\":\"drain\"}}\n{job}\n");
        let sink = crate::testio::SharedSink::default();
        let summary = server
            .serve_pipe(input.as_bytes(), sink.clone())
            .expect("pipe session");
        assert!(summary.shutdown_requested);
        assert_eq!(summary.lines_in, 2, "reading stops at the command");
        let parsed: Vec<Response> = sink
            .lines()
            .iter()
            .map(|l| parse_response(l).expect("well-formed"))
            .collect();
        assert!(parsed.iter().any(|r| matches!(r, Response::Result(_))));
        assert!(parsed
            .iter()
            .any(|r| matches!(r, Response::Ack { cmd } if cmd == "drain")));
        assert!(server.shutdown_requested());
        server.finish();
    }

    #[test]
    fn tcp_idle_timeout_closes_a_silent_session_after_answering_inflight() {
        use std::io::{BufRead as _, Write as _};
        let server = Server::start(ServeConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..tiny_config()
        });
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        std::thread::scope(|scope| {
            let serve = scope.spawn(|| server.serve_tcp(listener));
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let job =
                serde_json::to_string(&SearchJob::new(3, 1 << 10, 4, 11)).expect("serialises");
            stream
                .write_all((job + "\n").as_bytes())
                .expect("write job");
            stream.flush().expect("flush");
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read result") > 0);
            assert!(matches!(
                parse_response(line.trim_end()).expect("well-formed"),
                Response::Result(_)
            ));
            // Go silent: the in-flight job was answered, and within the idle
            // window the server must close the connection (EOF on our read)
            // rather than pin its reader thread forever.
            line.clear();
            let closed_at = Instant::now();
            assert_eq!(
                reader.read_line(&mut line).expect("clean close"),
                0,
                "idle session is closed, not left hanging"
            );
            assert!(
                closed_at.elapsed() < Duration::from_secs(10),
                "close came from the idle timeout, not a test timeout"
            );
            // The server itself survives the idle close: a fresh connection
            // still gets answers, then shuts the listener down.
            let mut closer = std::net::TcpStream::connect(addr).expect("connect closer");
            closer
                .write_all(b"{\"cmd\":\"shutdown\"}\n")
                .expect("write shutdown");
            closer.flush().expect("flush");
            serve.join().expect("serve thread").expect("clean exit");
        });
        assert_eq!(server.metrics().jobs_completed, 1);
        server.finish();
    }
}
