//! The client-facing front end of both serving tiers.
//!
//! psq-serve's [`crate::Server`] and psq-router's `Router` speak the same
//! NDJSON protocol over the same transports, and this module is the one
//! place that speaks it to clients:
//!
//! * transports — one pipe session over a `BufRead`/`Write` pair
//!   ([`serve_pipe`]) or a TCP accept loop with one reader thread per
//!   connection, a shutdown kick and an idle timeout ([`serve_tcp`]);
//!   [`serve_stdio_or_tcp`] is the choice both binaries make between them;
//! * request lines — one parse per line, then commands, job lines and sweep
//!   lines ([`Client::submit_line`]);
//! * admission — draining, then [`SearchJob::validate`], then the
//!   per-client in-flight bound. Every refusal is answered and counted once;
//! * sweep admission — the point cap, the `sweep_expand` span, and each
//!   grid point admitted as an ordinary job;
//! * the `health` reply and the `drain`/`shutdown` acks.
//!
//! A tier supplies only what differs through [`Tier`]: what becomes of an
//! admitted job, its `metrics` reply and queue depth, whether it serves
//! `restart`, and what a drain must also stop.
//!
//! Counting follows one rule in both tiers: `jobs_overloaded` counts the
//! `overload` replies, `jobs_errored` counts every other error reply, so
//! their sum is the number of error lines sent.

use crate::protocol::{parse_request, Command, ErrorKind, Request, Response};
use crate::server::spawn_writer;
use crate::session::{OutLine, Session, SessionRegistry};
use crossbeam::channel::{unbounded, Receiver};
use psq_engine::{SearchJob, SweepSpec};
use psq_obs::trace::{stage, Span};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a tier does with admitted jobs and commands; the front does the
/// rest (see the module docs).
pub trait Tier: Send + Sync + 'static {
    /// The tier's front-end state.
    fn front(&self) -> &Front;

    /// Takes a job that passed admission. The job holds one of its
    /// client's in-flight slots, and the tier answers it exactly once
    /// through `session`. `Err(reason)` sheds it instead: the front
    /// releases the slot and answers `overload` with `reason`.
    fn submit(
        &self,
        session: &Arc<Session>,
        job: SearchJob,
        trace: Option<u64>,
    ) -> Result<(), String>;

    /// Counts one reply or expansion of the front's own on the tier's
    /// counters, before the reply is sent.
    fn count(&self, counted: Counted);

    /// The `{"cmd":"metrics"}` reply line.
    fn metrics_line(&self) -> String;

    /// Jobs admitted and not yet answered, as `health` reports them.
    fn queue_depth(&self) -> u64;

    /// Serves `{"cmd":"restart"}`. A tier that returns `false` has no such
    /// command, and the front refuses it like any unknown command.
    fn restart(self: Arc<Self>) -> bool {
        false
    }

    /// Stops whatever a drain or shutdown must stop besides admission.
    fn stop(&self) {}
}

/// What the front counts on its tier's counters (see [`Tier::count`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counted {
    /// An error reply of any kind but `overload` (`jobs_errored`).
    Error,
    /// An `overload` reply (`jobs_overloaded`).
    Overload,
    /// A sweep refused for its size (`sweeps_rejected`); its error reply
    /// counts as [`Counted::Error`] besides.
    SweepTooLarge,
    /// A sweep expanded into this many grid points (`sweeps_expanded`,
    /// `sweep_points`).
    Sweep(u64),
}

impl Counted {
    /// How an error reply of `kind` is counted: `overload` on its own,
    /// every other kind as an error.
    pub fn for_error(kind: ErrorKind) -> Self {
        if kind == ErrorKind::Overload {
            Counted::Overload
        } else {
            Counted::Error
        }
    }
}

/// The state the front keeps for one tier: its clients, its drain flag and
/// its admission limits.
pub struct Front {
    /// The tier's name in refusal reasons (`"server"`, `"router"`).
    name: &'static str,
    registry: SessionRegistry,
    draining: AtomicBool,
    started: Instant,
    max_inflight: u32,
    idle_timeout: Option<Duration>,
    max_sweep_points: usize,
}

impl Front {
    /// A front admitting at most `max_inflight` unanswered jobs per client
    /// and sweeps of at most `max_sweep_points` grid points, and closing a
    /// TCP session after `idle_timeout` without a request line (`None`
    /// never closes it).
    pub fn new(
        name: &'static str,
        max_inflight: u32,
        idle_timeout: Option<Duration>,
        max_sweep_points: usize,
    ) -> Self {
        Self {
            name,
            registry: SessionRegistry::default(),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            max_inflight,
            idle_timeout,
            max_sweep_points,
        }
    }

    /// Every attached client.
    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Whether a drain or shutdown has begun; admission then refuses every
    /// job as `shutting_down`.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begins the drain: stops admission and ends the TCP accept loop.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }
}

/// What [`Client::submit_line`] tells the reader loop to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading.
    Continue,
    /// The client asked the tier to drain or shut down; stop reading.
    Stop,
}

/// What one pipe session saw (returned by [`serve_pipe`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PipeSummary {
    /// Request lines read (including commands and malformed lines).
    pub lines_in: u64,
    /// Whether the session ended on a `drain` or `shutdown` command.
    pub shutdown_requested: bool,
}

/// A connected client as the transports (and in-process callers) drive it:
/// feed request lines in, responses come out of the channel [`attach`]
/// returned beside it.
pub struct Client {
    session: Arc<Session>,
    tier: Arc<dyn Tier>,
}

impl Client {
    /// Handles one request line end to end: parse, then a command's reply,
    /// or admission and hand-off of a job or a sweep's grid points. Every
    /// line but a blank one is answered.
    pub fn submit_line(&self, line: &str) -> LineOutcome {
        match parse_request(line) {
            Ok(None) => {} // blank line
            Ok(Some(Request::Command(command))) => return self.command(command),
            Ok(Some(Request::Job { job, trace })) => self.admit(*job, trace),
            Ok(Some(Request::Sweep { base, spec, trace })) => self.sweep(*base, &spec, trace),
            Err(reason) => self.refuse(None, ErrorKind::Parse, reason),
        }
        LineOutcome::Continue
    }

    /// Admits one already-parsed job with no trace id.
    pub fn submit_job(&self, job: SearchJob) {
        self.admit(job, None);
    }

    /// This client's session (for counters and shutdown hooks).
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    fn command(&self, command: Command) -> LineOutcome {
        let front = self.tier.front();
        let ack = |cmd: Command| {
            Response::Ack {
                cmd: cmd.label().to_string(),
            }
            .to_line()
        };
        match command {
            Command::Metrics => self.session.send(self.tier.metrics_line()),
            // Atomics and a clock read, plus the tier's queue depth: cheap
            // enough to probe at any frequency.
            Command::Health => self.session.send(
                Response::Health {
                    status: if front.draining() { "draining" } else { "ok" }.to_string(),
                    queue_depth: self.tier.queue_depth(),
                    uptime_us: front.started.elapsed().as_micros() as u64,
                }
                .to_line(),
            ),
            Command::Restart => {
                if Arc::clone(&self.tier).restart() {
                    self.session.send(ack(command));
                } else {
                    let reason = format!("unknown command `{}`", command.label());
                    self.refuse(None, ErrorKind::Parse, reason);
                }
            }
            // Drain and shutdown share the stop machinery: admission
            // closes, the tier answers every job it already took, and every
            // reader is kicked loose. The distinct ack label lets a
            // supervisor tell its own rolling restart from an operator
            // shutdown.
            Command::Drain | Command::Shutdown => {
                front.drain();
                self.tier.stop();
                self.session.send(ack(command));
                front.registry.kick_all();
                return LineOutcome::Stop;
            }
        }
        LineOutcome::Continue
    }

    /// Admission: draining, then validation, then the per-client bound;
    /// the tier takes what passes. `trace` is the cross-process trace id
    /// the job line carried, if any.
    fn admit(&self, job: SearchJob, trace: Option<u64>) {
        let front = self.tier.front();
        if front.draining() {
            let reason = format!("{} is draining; job was not executed", front.name);
            return self.refuse(Some(job.id), ErrorKind::ShuttingDown, reason);
        }
        if let Err(reason) = job.validate() {
            return self.refuse(Some(job.id), ErrorKind::Invalid, reason);
        }
        if !self.session.try_admit() {
            let reason = format!(
                "client has {} jobs in flight (the per-client bound); \
                 resubmit after results drain",
                front.max_inflight
            );
            return self.refuse(Some(job.id), ErrorKind::Overload, reason);
        }
        let id = job.id;
        if let Err(reason) = self.tier.submit(&self.session, job, trace) {
            self.session.fail();
            self.refuse(Some(id), ErrorKind::Overload, reason);
        }
    }

    /// Expands one sweep request and admits every grid point as its own
    /// job, so each is validated, bounded and answered on its own. A grid
    /// larger than the cap is refused whole, before any point is admitted.
    fn sweep(&self, base: SearchJob, spec: &SweepSpec, trace: Option<u64>) {
        let cap = self.tier.front().max_sweep_points;
        let points = spec.point_count();
        if points > cap {
            self.tier.count(Counted::SweepTooLarge);
            let reason = format!(
                "sweep expands to {points} grid points (cap {cap}); \
                 split the grid across requests"
            );
            return self.refuse(Some(base.id), ErrorKind::SweepTooLarge, reason);
        }
        let span = Span::enter_always(stage::SWEEP_EXPAND);
        let expanded = spec.expand(&base);
        span.finish_traced(base.id, trace);
        match expanded {
            Ok(jobs) => {
                self.tier.count(Counted::Sweep(jobs.len() as u64));
                for job in jobs {
                    self.admit(job, trace);
                }
            }
            Err(reason) => self.refuse(Some(base.id), ErrorKind::Invalid, reason),
        }
    }

    /// Answers a refusal, counting it before it is sent so a client that
    /// has read the reply always sees it counted. An `overload` refusal's
    /// session counter was already kept by the admission attempt.
    fn refuse(&self, id: Option<u64>, kind: ErrorKind, reason: String) {
        let counted = Counted::for_error(kind);
        if counted == Counted::Error {
            self.session.count_intake_error();
        }
        self.tier.count(counted);
        self.session
            .send(Response::Error { id, kind, reason }.to_line());
    }
}

/// Attaches a client to `tier`: returns the submission handle and the
/// channel its response lines arrive on. Transports hand the receiver to a
/// writer thread; in-process callers drain it directly.
pub fn attach(tier: Arc<dyn Tier>) -> (Client, Receiver<OutLine>) {
    let (tx, rx) = unbounded();
    let front = tier.front();
    let session = front.registry.attach(tx, front.max_inflight);
    (Client { session, tier }, rx)
}

/// Serves one client over a reader/writer pair until EOF or a drain or
/// shutdown command. The tier survives the call, and further pipe or TCP
/// sessions may follow.
pub fn serve_pipe<R, W>(tier: Arc<dyn Tier>, reader: R, writer: W) -> std::io::Result<PipeSummary>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let (client, responses) = attach(tier);
    let writer_thread = spawn_writer("psq-front-pipe-writer", responses, writer);
    let mut summary = PipeSummary::default();
    for line in reader.lines() {
        let line = line?;
        summary.lines_in += 1;
        if client.submit_line(&line) == LineOutcome::Stop {
            summary.shutdown_requested = true;
            break;
        }
    }
    drop(client); // the writer exits once every in-flight job is answered
    writer_thread
        .join()
        .map_err(|_| std::io::Error::other("pipe writer thread panicked"))??;
    Ok(summary)
}

/// Accepts TCP clients until a drain or shutdown command arrives from any
/// of them, then joins every connection once its jobs are answered. Each
/// connection is a full protocol peer.
pub fn serve_tcp(tier: Arc<dyn Tier>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !tier.front().draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(false)?;
                let idle_timeout = tier.front().idle_timeout;
                let (client, responses) = attach(Arc::clone(&tier));
                connections.push(spawn_connection(client, responses, stream, idle_timeout)?);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Reap finished connections so a long-lived tier's handle
                // list tracks concurrent clients, not lifetime totals.
                connections.retain(|connection| !connection.is_finished());
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    for connection in connections {
        let _ = connection.join();
    }
    Ok(())
}

/// Serves a process's clients the way both binaries do: over TCP on `tcp`
/// when it is given (logging the address on stderr after `program`), else
/// one pipe session on stdin/stdout.
pub fn serve_stdio_or_tcp(
    tier: Arc<dyn Tier>,
    tcp: Option<&str>,
    program: &str,
) -> std::io::Result<()> {
    match tcp {
        Some(addr) => {
            let listener = TcpListener::bind(addr).map_err(|e| {
                std::io::Error::new(e.kind(), format!("cannot listen on {addr}: {e}"))
            })?;
            eprintln!("{program}: listening on {addr}");
            serve_tcp(tier, listener)
        }
        None => serve_pipe(tier, std::io::stdin().lock(), std::io::stdout()).map(|_| ()),
    }
}

/// Spawns the reader+writer pair for one TCP connection. The reader runs on
/// the spawned thread; the writer gets its own. The session's shutdown kick
/// closes the stream so an idle reader unblocks when the tier drains, and
/// `idle_timeout` bounds how long a silent client can pin the reader thread:
/// when no line arrives within the window the session closes cleanly (every
/// in-flight job is still answered before the writer exits).
fn spawn_connection(
    client: Client,
    responses: Receiver<OutLine>,
    stream: TcpStream,
    idle_timeout: Option<Duration>,
) -> std::io::Result<JoinHandle<()>> {
    stream.set_read_timeout(idle_timeout)?;
    let write_half = stream.try_clone()?;
    let kick_half = stream.try_clone()?;
    client.session().set_kick(Box::new(move || {
        let _ = kick_half.shutdown(std::net::Shutdown::Read);
    }));
    std::thread::Builder::new()
        .name("psq-front-tcp-conn".to_string())
        .spawn(move || {
            let writer_thread = spawn_writer("psq-front-tcp-writer", responses, write_half);
            let mut reader = BufReader::new(&stream);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break, // EOF
                    Ok(_) => {
                        let trimmed = line.trim_end_matches(['\n', '\r']);
                        if client.submit_line(trimmed) == LineOutcome::Stop {
                            break;
                        }
                    }
                    // A read timeout (WouldBlock on Unix, TimedOut on
                    // Windows) means the client went silent, and any other
                    // error means it is gone: either way the session ends.
                    Err(_) => break,
                }
            }
            drop(client);
            let _ = writer_thread.join();
            let _ = stream.shutdown(std::net::Shutdown::Both);
        })
        .map_err(std::io::Error::other)
}
