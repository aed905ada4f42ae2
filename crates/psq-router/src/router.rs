//! The router core: sharded routing, supervision, deadlines, retries.
//!
//! One [`Router`] owns N worker slots, each running a child process that
//! speaks the psq-serve NDJSON protocol over its pipes. Clients reach the
//! router through psq-serve's own front end ([`psq_serve::front`]: the
//! transports, request lines, admission, sweep expansion and refusals), so
//! they see exactly what a single `psq-serve` shows them. The router
//! implements [`Tier`] for the rest:
//!
//! * routes each job by **rendezvous hash** of its spec key
//!   ([`psq_engine::SearchJob::route_key`]), so identical specs land on
//!   the same worker and its warm result cache, and losing a worker only
//!   remaps that worker's share of the keyspace;
//! * rewrites client job ids to router-global ids on the way down and back
//!   again on the way up, so id collisions across clients cannot collide
//!   inside a worker;
//! * supervises every worker: periodic `{"cmd":"health"}` probes, a
//!   liveness deadline for hung processes, crash detection at pipe EOF,
//!   automatic respawn with exponential backoff, and a circuit breaker
//!   that parks a slot after too many consecutive failures;
//! * enforces a per-request deadline with bounded retry on another worker
//!   — every job is a pure function of its seeded spec, so a replay is
//!   bit-identical and retries are safe (first answer wins, late
//!   duplicates are counted and dropped);
//! * sheds an admitted job as a structured `overload` error when every
//!   routable worker is at its in-flight bound, and
//! * supports drain-aware rolling restarts: `{"cmd":"restart"}` drains
//!   each worker in turn (stop routing → flush in-flight → respawn) with
//!   zero lost or duplicated answers.

use crate::fault::FaultPlan;
use crate::metrics::{RouterMetrics, RouterObs, WorkerStatus};
use crate::worker::{WorkerEvent, WorkerLink};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use psq_engine::SearchJob;
use psq_obs::{stage, trace};
use psq_serve::front::{self, Counted, Front, PipeSummary, Tier};
use psq_serve::protocol::{parse_response, ErrorKind, Response};
use psq_serve::session::{OutLine, Session};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-tier configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Worker slots to spawn and supervise.
    pub workers: usize,
    /// Worker argv (program + args). See [`resolve_worker_cmd`].
    pub worker_cmd: Vec<String>,
    /// Per-attempt answer budget; an expired attempt retries elsewhere.
    pub deadline: Duration,
    /// Extra attempts after the first before a job fails as `deadline`.
    pub max_retries: u32,
    /// How often each worker gets a `{"cmd":"health"}` probe.
    pub probe_interval: Duration,
    /// An unanswered probe older than this declares the worker hung.
    pub liveness_timeout: Duration,
    /// Per-worker in-flight bound (backpressure; jobs spill to the next
    /// rendezvous choice, then shed as `overload`).
    pub worker_inflight: u32,
    /// Per-client in-flight bound on the router's own front sessions.
    pub max_inflight: u32,
    /// Respawn backoff base (doubles per consecutive failure).
    pub backoff: Duration,
    /// Consecutive spawn-or-crash failures that open a slot's circuit
    /// breaker (the slot stops respawning until the router restarts).
    pub circuit_breaker: u32,
    /// Deterministic fault plans by slot index, applied to each slot's
    /// *first* process generation only (respawned workers run clean).
    pub faults: Vec<Option<FaultPlan>>,
    /// Idle read timeout for the router's own TCP sessions.
    pub idle_timeout: Option<Duration>,
    /// How often each Up worker gets a `{"cmd":"metrics"}` scrape; the
    /// replies feed the fleet-merged view in [`RouterMetrics::fleet`].
    pub scrape_interval: Duration,
    /// Largest grid a single `"sweep"` request may expand into. The router
    /// expands sweeps itself — each grid point routes, counts against its
    /// worker's in-flight bound, and retries independently — so the cap
    /// bounds how much pending state one request line can create.
    pub max_sweep_points: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            worker_cmd: Vec::new(),
            deadline: Duration::from_secs(10),
            max_retries: 2,
            probe_interval: Duration::from_millis(200),
            liveness_timeout: Duration::from_secs(2),
            worker_inflight: 256,
            max_inflight: 1024,
            backoff: Duration::from_millis(50),
            circuit_breaker: 5,
            faults: Vec::new(),
            idle_timeout: Some(Duration::from_secs(60)),
            scrape_interval: Duration::from_millis(500),
            max_sweep_points: psq_engine::DEFAULT_MAX_SWEEP_POINTS,
        }
    }
}

/// Resolves the worker argv: an explicit command wins, then the
/// `PSQ_ROUTER_WORKER_CMD` environment variable (whitespace-split), then a
/// `psq-serve` binary next to the current executable, then `psq-serve` on
/// `PATH`.
pub fn resolve_worker_cmd(explicit: Option<Vec<String>>) -> Vec<String> {
    if let Some(cmd) = explicit {
        if !cmd.is_empty() {
            return cmd;
        }
    }
    if let Ok(spec) = std::env::var("PSQ_ROUTER_WORKER_CMD") {
        let cmd: Vec<String> = spec.split_whitespace().map(str::to_string).collect();
        if !cmd.is_empty() {
            return cmd;
        }
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(dir) = exe.parent() {
            let sibling = dir.join("psq-serve");
            if sibling.exists() {
                return vec![sibling.to_string_lossy().into_owned()];
            }
        }
    }
    vec!["psq-serve".to_string()]
}

/// Rendezvous (highest-random-weight) score of `key` on `slot`: each live
/// worker scores every key independently, the highest score wins, and
/// removing a worker only remaps the keys it was winning.
pub(crate) fn rendezvous_score(key: u64, slot: usize) -> u64 {
    let mut x = key ^ (slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A slot's lifecycle phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Routable: process up, probes answered.
    Up,
    /// Flushing in-flight work before a planned exit; not routable.
    Draining,
    /// Process dead; waiting out the respawn backoff.
    Down,
    /// Circuit open after too many consecutive failures; stays down.
    Broken,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Up => "up",
            Phase::Draining => "draining",
            Phase::Down => "down",
            Phase::Broken => "broken",
        }
    }
}

/// One worker slot's supervision state.
struct Slot {
    link: Option<WorkerLink>,
    phase: Phase,
    /// Process generation (1 = the original spawn).
    generation: u64,
    inflight: u32,
    completed: u64,
    consecutive_failures: u32,
    /// When the outstanding probe was sent, if one is unanswered. *Any*
    /// output from the current generation clears it — a worker that keeps
    /// producing lines is alive, whatever order it answers in.
    probe_sent: Option<Instant>,
    next_probe_at: Instant,
    /// When the current outage began (failure detection time).
    down_since: Option<Instant>,
    /// When the supervisor may respawn a Down slot.
    respawn_at: Instant,
    /// The current outage is a planned drain: respawn without penalty.
    draining_exit: bool,
    /// When the supervisor next scrapes this slot's `{"cmd":"metrics"}`.
    next_scrape_at: Instant,
    /// The slot's latest scraped serving snapshot (cleared on respawn so a
    /// dead process's numbers never linger in the fleet view).
    serve_metrics: Option<psq_serve::ServeMetrics>,
}

impl Slot {
    fn new(now: Instant) -> Self {
        Self {
            link: None,
            phase: Phase::Down,
            generation: 0,
            inflight: 0,
            completed: 0,
            consecutive_failures: 0,
            probe_sent: None,
            next_probe_at: now,
            down_since: None,
            respawn_at: now,
            draining_exit: false,
            next_scrape_at: now,
            serve_metrics: None,
        }
    }

    fn routable(&self, worker_inflight: u32) -> bool {
        self.phase == Phase::Up && self.link.is_some() && self.inflight < worker_inflight
    }

    /// Releases one job's in-flight assignment. Every release pairs with
    /// one dispatch, so a release at zero is a double decrement: debug
    /// builds fail on it instead of clamping it away.
    fn release(&mut self) {
        debug_assert!(self.inflight > 0, "in-flight count released below zero");
        self.inflight = self.inflight.saturating_sub(1);
    }
}

/// One admitted, not-yet-answered job.
struct Pending {
    client_id: u64,
    session: Arc<Session>,
    /// The job serialised with its router-global id (replay-ready).
    line: String,
    route_key: u64,
    /// The job's cross-process trace id (client-supplied or router-minted;
    /// it rides the wire line, so workers tag their stage events with it).
    trace: u64,
    /// Current worker assignment (`None` = parked, waiting for a worker).
    slot: Option<usize>,
    attempts: u32,
    deadline: Instant,
    dispatched: Instant,
    started: Instant,
}

/// An attempt taken off its worker, still to be counted and retried (see
/// [`Shared::retry_or_fail`]).
struct FailedAttempt {
    router_id: u64,
    /// The worker that failed it, which the retry avoids.
    slot: Option<usize>,
    trace_id: u64,
    outstanding_us: f64,
    /// The retry budget is spent and the job was answered with an error.
    exhausted: bool,
}

/// Mutable routing state behind one mutex (submit path, dispatcher and
/// supervisor all take it briefly; no I/O happens under it except channel
/// sends, which never block).
struct State {
    slots: Vec<Slot>,
    pending: HashMap<u64, Pending>,
}

struct Shared {
    config: RouterConfig,
    obs: RouterObs,
    state: Mutex<State>,
    /// The client-facing front end; its drain flag stops admission.
    front: Front,
    /// Set when the router is dropped: the dispatcher and the supervisor
    /// stop. A drain leaves both running, so every job admitted before it
    /// is still answered, retried or respawned for.
    stopped: AtomicBool,
    restart_running: AtomicBool,
    next_router_id: AtomicU64,
    /// Seed folded into minted trace ids so distinct router instances
    /// (and restarts) mint distinct id streams.
    trace_seed: u64,
    events: Sender<WorkerEvent>,
}

impl Shared {
    // ----- routing -------------------------------------------------------

    /// Best routable slot for `key`, avoiding `not` when any other
    /// candidate exists (retries prefer a different worker, but a
    /// single-worker router may only retry in place).
    fn choose_slot(&self, state: &State, key: u64, not: Option<usize>) -> Option<usize> {
        let pick = |exclude: Option<usize>| {
            state
                .slots
                .iter()
                .enumerate()
                .filter(|(index, slot)| {
                    Some(*index) != exclude && slot.routable(self.config.worker_inflight)
                })
                .max_by_key(|(index, _)| rendezvous_score(key, *index))
                .map(|(index, _)| index)
        };
        pick(not).or_else(|| if not.is_some() { pick(None) } else { None })
    }

    /// Assigns (or parks) `router_id`'s pending job, preferring any slot
    /// but `avoid` (a retry's failed worker). Must hold no lock.
    ///
    /// Only an unassigned job is dispatched. A new or retried job is
    /// unassigned between its caller's lock and this one, so the
    /// supervisor's tick may take it for parked and dispatch it too; the
    /// second dispatcher must not send it to a second worker.
    fn dispatch(&self, router_id: u64, avoid: Option<usize>) {
        let queued;
        {
            let mut state = self.state.lock();
            let Some(pending) = state.pending.get(&router_id) else {
                return;
            };
            if pending.slot.is_some() {
                return;
            }
            let Some(slot_index) = self.choose_slot(&state, pending.route_key, avoid) else {
                return; // stays parked: the supervisor re-dispatches
            };
            let now = Instant::now();
            let line = {
                let pending = state.pending.get_mut(&router_id).expect("checked above");
                pending.slot = Some(slot_index);
                pending.deadline = now + self.config.deadline;
                pending.dispatched = now;
                // The "queue" span — admission to first dispatch — closes
                // here. Retries get their own "retry" span instead.
                queued = (pending.attempts == 1).then(|| {
                    (
                        pending.client_id,
                        pending.trace,
                        now.duration_since(pending.started).as_micros() as f64,
                    )
                });
                pending.line.clone()
            };
            let slot = &mut state.slots[slot_index];
            slot.inflight += 1;
            if let Some(link) = &slot.link {
                // A send failure means the process just died; the reader's
                // EOF event re-routes this job, so nothing more to do here.
                let _ = link.send_line(line);
            }
        }
        if let Some((client_id, trace_id, us)) = queued {
            trace::event_traced(client_id, Some(trace_id), stage::QUEUE, us);
        }
    }

    /// Re-dispatches a failed attempt or fails the job once its bounded
    /// retries are spent. `expired` marks a deadline expiry (as opposed to
    /// a worker loss) in the counters.
    fn retry_or_fail(&self, router_id: u64, expired: bool) {
        let failed = self.end_attempt(&mut self.state.lock(), router_id);
        if let Some(failed) = failed {
            self.follow_up(failed, expired);
        }
    }

    /// The locked half of [`Shared::retry_or_fail`]: takes `router_id`'s
    /// current attempt off its worker and counts the next one, answering a
    /// `deadline` error once the bounded retries are spent. `None` if the
    /// job was answered meanwhile.
    fn end_attempt(&self, state: &mut State, router_id: u64) -> Option<FailedAttempt> {
        let pending = state.pending.get_mut(&router_id)?;
        let outstanding_us = pending.dispatched.elapsed().as_micros() as f64;
        let trace_id = pending.trace;
        // Release the failed assignment: the old worker no longer owns this
        // job (its late answer, if any, is still accepted — first answer
        // wins — but no longer counts against its slot).
        let slot = pending.slot.take();
        if let Some(old) = slot {
            state.slots[old].release();
        }
        pending.attempts += 1;
        let exhausted = pending.attempts > 1 + self.config.max_retries;
        if exhausted {
            let pending = state.pending.remove(&router_id).expect("checked above");
            let reason = format!(
                "deadline budget exhausted after {} attempt(s)",
                pending.attempts - 1
            );
            self.answer_error(&pending, ErrorKind::Deadline, &reason);
        }
        Some(FailedAttempt {
            router_id,
            slot,
            trace_id,
            outstanding_us,
            exhausted,
        })
    }

    /// The unlocked half of [`Shared::retry_or_fail`]: counts the failure
    /// and re-dispatches the job unless it was failed for good.
    fn follow_up(&self, failed: FailedAttempt, expired: bool) {
        if expired {
            RouterObs::bump(&self.obs.deadline_expired);
        }
        if failed.exhausted {
            return;
        }
        RouterObs::bump(&self.obs.retries);
        self.obs.retry_us.record(failed.outstanding_us);
        trace::event_traced(
            failed.router_id,
            Some(failed.trace_id),
            stage::RETRY,
            failed.outstanding_us,
        );
        self.dispatch(failed.router_id, failed.slot);
    }

    /// Sends `pending` an error response and balances its session slot,
    /// counting before sending so a client that has read the reply sees it
    /// counted.
    fn answer_error(&self, pending: &Pending, kind: ErrorKind, reason: &str) {
        let line = Response::Error {
            id: Some(pending.client_id),
            kind,
            reason: reason.to_string(),
        }
        .to_line();
        pending.session.fail();
        self.count(Counted::for_error(kind));
        pending.session.send(line);
    }

    // ----- worker lifecycle ----------------------------------------------

    /// Marks `slot_index` dead (crash, hang enforcement, or drain exit),
    /// schedules its respawn, and re-dispatches every job it still owed.
    /// Returns the dead link for the caller to reap outside the lock.
    fn worker_down(&self, slot_index: usize) -> Option<WorkerLink> {
        let link;
        let failed: Vec<FailedAttempt>;
        {
            let mut guard = self.state.lock();
            let state = &mut *guard;
            let slot = &mut state.slots[slot_index];
            if slot.phase == Phase::Down || slot.phase == Phase::Broken {
                return None;
            }
            let drained = slot.phase == Phase::Draining && slot.draining_exit;
            link = slot.link.take();
            slot.phase = Phase::Down;
            slot.probe_sent = None;
            slot.down_since.get_or_insert_with(Instant::now);
            let now = Instant::now();
            if drained {
                // A planned exit respawns immediately and carries no
                // failure penalty.
                slot.respawn_at = now;
            } else {
                slot.consecutive_failures += 1;
                if slot.consecutive_failures >= self.config.circuit_breaker {
                    slot.phase = Phase::Broken;
                } else {
                    let exponent = slot.consecutive_failures.saturating_sub(1).min(8);
                    slot.respawn_at = now + self.config.backoff * (1u32 << exponent);
                }
            }
            let owed: Vec<u64> = state
                .pending
                .iter()
                .filter(|(_, p)| p.slot == Some(slot_index))
                .map(|(&id, _)| id)
                .collect();
            // Each owed job releases its own assignment under this lock, so
            // the count reaches zero before a respawn can reuse the slot.
            failed = owed
                .into_iter()
                .filter_map(|router_id| self.end_attempt(state, router_id))
                .collect();
            debug_assert_eq!(state.slots[slot_index].inflight, 0);
        }
        for attempt in failed {
            self.follow_up(attempt, false);
        }
        link
    }

    /// Kills a worker that breached the protocol (corrupt line) or its
    /// liveness deadline; the pipe EOF then flows through the normal
    /// [`Shared::worker_down`] path.
    fn enforce_kill(&self, slot_index: usize) {
        let state = self.state.lock();
        let slot = &state.slots[slot_index];
        if let Some(link) = &slot.link {
            link.kill();
        }
    }

    /// Spawns `slot_index`'s next process generation.
    fn respawn(&self, slot_index: usize) {
        let generation;
        let fault_spec;
        {
            let mut state = self.state.lock();
            let slot = &mut state.slots[slot_index];
            if slot.phase != Phase::Down {
                return;
            }
            generation = slot.generation + 1;
            fault_spec = (generation == 1)
                .then(|| self.config.faults.get(slot_index).copied().flatten())
                .flatten()
                .map(|plan| plan.spec());
        }
        let spawned = WorkerLink::spawn(
            &self.config.worker_cmd,
            slot_index,
            generation,
            fault_spec.as_deref(),
            // Trace-collection mode follows the router's own sink: when the
            // router traces, its workers trace too and their streams merge.
            trace::enabled(),
            self.events.clone(),
        );
        let mut state = self.state.lock();
        let slot = &mut state.slots[slot_index];
        let now = Instant::now();
        match spawned {
            Ok(link) => {
                slot.link = Some(link);
                slot.phase = Phase::Up;
                slot.generation = generation;
                slot.inflight = 0;
                slot.probe_sent = None;
                slot.next_probe_at = now + self.config.probe_interval;
                slot.next_scrape_at = now + self.config.scrape_interval;
                slot.serve_metrics = None; // the dead process's numbers die with it
                slot.draining_exit = false;
                if generation > 1 {
                    RouterObs::bump(&self.obs.respawns);
                    if let Some(since) = slot.down_since.take() {
                        let downtime_us = since.elapsed().as_micros() as f64;
                        self.obs.respawn_us.record(downtime_us);
                        trace::event(slot_index as u64, stage::RESPAWN, downtime_us);
                    }
                } else {
                    slot.down_since = None;
                }
            }
            Err(_) => {
                slot.consecutive_failures += 1;
                if slot.consecutive_failures >= self.config.circuit_breaker {
                    slot.phase = Phase::Broken;
                } else {
                    let exponent = slot.consecutive_failures.saturating_sub(1).min(8);
                    slot.respawn_at = now + self.config.backoff * (1u32 << exponent);
                }
            }
        }
    }

    /// Drains one worker: stop routing to it, ask it to flush and exit.
    /// The exit EOF triggers an immediate, penalty-free respawn.
    fn drain_worker(&self, slot_index: usize) {
        let state = self.state.lock();
        let slot = &state.slots[slot_index];
        if slot.phase != Phase::Up {
            return;
        }
        if let Some(link) = &slot.link {
            // Order matters on the worker's single reader: every job line
            // already queued lands before the drain, so the worker answers
            // all of them before acking and exiting.
            let _ = link.send_line("{\"cmd\":\"drain\"}".to_string());
        }
        drop(state);
        let mut state = self.state.lock();
        let slot = &mut state.slots[slot_index];
        if slot.phase == Phase::Up {
            slot.phase = Phase::Draining;
            slot.draining_exit = true;
            slot.down_since = Some(Instant::now());
        }
    }

    /// Rolling restart: drain and respawn every slot, one at a time, so
    /// capacity never drops by more than one worker.
    fn rolling_restart(&self) {
        if self.restart_running.swap(true, Ordering::SeqCst) {
            return; // one restart at a time
        }
        let workers = self.state.lock().slots.len();
        for slot_index in 0..workers {
            if self.front.draining() {
                break;
            }
            let target_generation = {
                let state = self.state.lock();
                if state.slots[slot_index].phase != Phase::Up {
                    continue; // down or broken slots have nothing to drain
                }
                state.slots[slot_index].generation + 1
            };
            self.drain_worker(slot_index);
            let wait_until = Instant::now() + Duration::from_secs(30);
            while Instant::now() < wait_until && !self.front.draining() {
                let state = self.state.lock();
                let slot = &state.slots[slot_index];
                if slot.phase == Phase::Up && slot.generation >= target_generation {
                    break;
                }
                if slot.phase == Phase::Broken {
                    break;
                }
                drop(state);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.restart_running.store(false, Ordering::SeqCst);
    }

    // ----- worker events -------------------------------------------------

    /// Handles one worker stdout line.
    fn on_worker_line(&self, slot_index: usize, generation: u64, line: &str) {
        {
            let mut state = self.state.lock();
            let slot = &mut state.slots[slot_index];
            if slot.generation == generation {
                slot.probe_sent = None; // any output proves liveness
            }
        }
        match parse_response(line) {
            Err(_) => {
                // A garbled line cannot be attributed to a job; treat it as
                // a protocol breach: count it and recycle the worker (its
                // in-flight jobs re-run elsewhere, preserving exactly-once).
                RouterObs::bump(&self.obs.corrupt_lines);
                let current = self.state.lock().slots[slot_index].generation == generation;
                if current {
                    self.enforce_kill(slot_index);
                }
            }
            Ok(Response::Result(mut result)) => {
                let router_id = result.job_id;
                let answered = {
                    let mut state = self.state.lock();
                    match state.pending.remove(&router_id) {
                        Some(pending) => {
                            if let Some(assigned) = pending.slot {
                                state.slots[assigned].release();
                            }
                            state.slots[slot_index].completed += 1;
                            Some(pending)
                        }
                        None => None,
                    }
                };
                match answered {
                    Some(pending) => {
                        result.job_id = pending.client_id;
                        // Count before sending: a client that has read its
                        // reply must see it in the metrics.
                        let line = Response::Result(result).to_line();
                        pending.session.complete();
                        RouterObs::bump(&self.obs.jobs_completed);
                        let us = pending.started.elapsed().as_micros() as f64;
                        if pending.attempts == 1 {
                            // Only clean first-attempt completions sample the
                            // route histogram: a retried job's elapsed time
                            // spans its failed attempt(s) and would smear
                            // worker failures into routing latency. Retried
                            // wins are still counted, just not sampled.
                            self.obs.route_us.record(us);
                        } else {
                            RouterObs::bump(&self.obs.retried_completions);
                        }
                        pending.session.send(line);
                        trace::event_traced(
                            pending.client_id,
                            Some(pending.trace),
                            stage::ROUTE,
                            us,
                        );
                    }
                    None => RouterObs::bump(&self.obs.duplicates_dropped),
                }
            }
            Ok(Response::Error {
                id: Some(router_id),
                kind,
                reason,
            }) => {
                let answered = {
                    let mut state = self.state.lock();
                    match state.pending.remove(&router_id) {
                        Some(pending) => {
                            if let Some(assigned) = pending.slot {
                                state.slots[assigned].release();
                            }
                            Some(pending)
                        }
                        None => None,
                    }
                };
                match answered {
                    Some(pending) => self.answer_error(&pending, kind, &reason),
                    None => RouterObs::bump(&self.obs.duplicates_dropped),
                }
            }
            Ok(Response::Health { .. }) => {
                let mut state = self.state.lock();
                let slot = &mut state.slots[slot_index];
                if slot.generation == generation {
                    slot.probe_sent = None;
                    slot.consecutive_failures = 0;
                }
            }
            // A metrics line is the worker answering the supervisor's
            // periodic scrape: keep the snapshot for the fleet-merged view.
            Ok(Response::Metrics(metrics)) => {
                let mut state = self.state.lock();
                let slot = &mut state.slots[slot_index];
                if slot.generation == generation {
                    slot.serve_metrics = Some(*metrics);
                }
            }
            // Acks (drain) and un-attributable errors carry no job; the
            // activity stamp above is all the signal they hold.
            Ok(Response::Ack { .. }) | Ok(Response::Error { id: None, .. }) => {}
        }
    }

    /// One supervisor tick: probes, liveness, deadlines, respawns, parked
    /// job dispatch.
    fn tick(&self) {
        let now = Instant::now();
        let mut kills: Vec<usize> = Vec::new();
        let mut respawns: Vec<usize> = Vec::new();
        let mut expired: Vec<u64> = Vec::new();
        let mut parked: Vec<u64> = Vec::new();
        {
            let mut state = self.state.lock();
            let worker_count = state.slots.len();
            for slot_index in 0..worker_count {
                let probe_interval = self.config.probe_interval;
                let slot = &mut state.slots[slot_index];
                match slot.phase {
                    Phase::Up => {
                        if let Some(sent) = slot.probe_sent {
                            if now.duration_since(sent) > self.config.liveness_timeout {
                                // Hung: reads but never answers. Enforce
                                // with SIGKILL; EOF handles the rest.
                                slot.down_since.get_or_insert(sent);
                                kills.push(slot_index);
                                continue;
                            }
                        } else if now >= slot.next_probe_at {
                            slot.probe_sent = Some(now);
                            slot.next_probe_at = now + probe_interval;
                            if let Some(link) = &slot.link {
                                let _ = link.send_line("{\"cmd\":\"health\"}".to_string());
                            }
                            RouterObs::bump(&self.obs.probes_sent);
                        }
                        if now >= slot.next_scrape_at {
                            // Metrics scrape: the reply lands through
                            // on_worker_line and refreshes the fleet view.
                            slot.next_scrape_at = now + self.config.scrape_interval;
                            if let Some(link) = &slot.link {
                                let _ = link.send_line("{\"cmd\":\"metrics\"}".to_string());
                            }
                        }
                    }
                    Phase::Down => {
                        if now >= slot.respawn_at {
                            respawns.push(slot_index);
                        }
                    }
                    Phase::Draining | Phase::Broken => {}
                }
            }
            // Parked jobs wait out a fleet outage without burning their
            // retry budget — unless every slot's circuit is open, in which
            // case nothing will ever serve them and they must fail now.
            let all_broken = state.slots.iter().all(|slot| slot.phase == Phase::Broken);
            for (&router_id, pending) in &state.pending {
                if pending.slot.is_none() {
                    if all_broken {
                        expired.push(router_id);
                    } else {
                        parked.push(router_id);
                    }
                } else if now >= pending.deadline {
                    expired.push(router_id);
                }
            }
        }
        for slot_index in kills {
            self.enforce_kill(slot_index);
        }
        for slot_index in respawns {
            self.respawn(slot_index);
        }
        for router_id in expired {
            self.retry_or_fail(router_id, true);
        }
        for router_id in parked {
            self.dispatch(router_id, None);
        }
    }

    // ----- metrics -------------------------------------------------------

    /// Snapshot of the router's counters and worker states, with the
    /// fleet-merged serving view folded from each slot's latest scrape.
    fn metrics(&self) -> RouterMetrics {
        let mut metrics = RouterMetrics::from_obs(&self.obs);
        let state = self.state.lock();
        metrics.queue_depth = state.pending.len() as u64;
        metrics.workers = state
            .slots
            .iter()
            .enumerate()
            .map(|(index, slot)| WorkerStatus {
                slot: index as u64,
                state: slot.phase.label().to_string(),
                generation: slot.generation,
                inflight: slot.inflight as u64,
                completed: slot.completed,
            })
            .collect();
        metrics.fleet = state
            .slots
            .iter()
            .filter_map(|slot| slot.serve_metrics.as_ref())
            .fold(None, |fleet, snapshot| match fleet {
                None => Some(snapshot.clone()),
                Some(mut merged) => {
                    merged.merge_from(snapshot);
                    Some(merged)
                }
            });
        metrics
    }
}

/// The router's side of the shared front end: an admitted job is routed,
/// or shed when the whole fleet is full.
impl Tier for Shared {
    fn front(&self) -> &Front {
        &self.front
    }

    /// Routes one admitted job from `session`. `trace` is the trace id the
    /// client's line carried; absent one, the router mints its own, so
    /// every routed job has a fleet-wide causal chain.
    fn submit(
        &self,
        session: &Arc<Session>,
        job: SearchJob,
        trace: Option<u64>,
    ) -> Result<(), String> {
        RouterObs::bump(&self.obs.jobs_submitted);
        let route_key = job.route_key();
        let client_id = job.id;
        let router_id = self.next_router_id.fetch_add(1, Ordering::Relaxed);
        // Mint a trace id when the client did not supply one: the router's
        // per-instance seed mixed with the router-global id through a
        // splitmix-style finaliser, so concurrent routers (and restarts)
        // mint disjoint streams without coordination.
        let trace_id = trace.unwrap_or_else(|| {
            let mut x = self.trace_seed.wrapping_add(router_id);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        });
        let mut wire_job = job;
        wire_job.id = router_id;
        let line = psq_serve::protocol::job_line(&wire_job, Some(trace_id));
        let now = Instant::now();
        {
            let mut state = self.state.lock();
            // Admit when a worker can take the job now, or when the whole
            // fleet is momentarily down but recovering (the job parks and
            // dispatches at respawn). A *full* fleet sheds instead: that is
            // backpressure, and queueing would only hide it.
            let any_up = state.slots.iter().any(|slot| slot.phase == Phase::Up);
            let any_recovering = state
                .slots
                .iter()
                .any(|slot| matches!(slot.phase, Phase::Down | Phase::Draining));
            if self.choose_slot(&state, route_key, None).is_none() && (any_up || !any_recovering) {
                return Err("every worker is at its in-flight bound".to_string());
            }
            state.pending.insert(
                router_id,
                Pending {
                    client_id,
                    session: Arc::clone(session),
                    line,
                    route_key,
                    trace: trace_id,
                    slot: None,
                    attempts: 1,
                    deadline: now + self.config.deadline,
                    dispatched: now,
                    started: now,
                },
            );
        }
        self.dispatch(router_id, None);
        Ok(())
    }

    fn count(&self, counted: Counted) {
        let obs = &self.obs;
        match counted {
            Counted::Error => RouterObs::bump(&obs.jobs_errored),
            Counted::Overload => RouterObs::bump(&obs.jobs_overloaded),
            Counted::SweepTooLarge => RouterObs::bump(&obs.sweeps_rejected),
            Counted::Sweep(points) => {
                RouterObs::bump(&obs.sweeps_expanded);
                obs.sweep_points.fetch_add(points, Ordering::Relaxed);
            }
        }
    }

    fn metrics_line(&self) -> String {
        self.metrics().to_line()
    }

    fn queue_depth(&self) -> u64 {
        self.state.lock().pending.len() as u64
    }

    /// Router-only vocabulary: workers never see it.
    fn restart(self: Arc<Self>) -> bool {
        std::thread::Builder::new()
            .name("psq-router-restart".to_string())
            .spawn(move || self.rolling_restart())
            .expect("failed to spawn the restart thread");
        true
    }
}

/// A client handle onto the router: the shared front end's client.
pub type RouterClient = psq_serve::Client;

/// The fault-tolerant sharded front tier (see the module docs).
pub struct Router {
    shared: Arc<Shared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Spawns the worker fleet and the supervision threads.
    pub fn start(mut config: RouterConfig) -> Self {
        config.worker_cmd = resolve_worker_cmd(Some(std::mem::take(&mut config.worker_cmd)));
        config.workers = config.workers.max(1);
        let (events, events_rx): (Sender<WorkerEvent>, Receiver<WorkerEvent>) = unbounded();
        let now = Instant::now();
        let worker_count = config.workers;
        let front = Front::new(
            "router",
            config.max_inflight,
            config.idle_timeout,
            config.max_sweep_points,
        );
        let shared = Arc::new(Shared {
            config,
            obs: RouterObs::default(),
            state: Mutex::new(State {
                slots: (0..worker_count).map(|_| Slot::new(now)).collect(),
                pending: HashMap::new(),
            }),
            front,
            stopped: AtomicBool::new(false),
            restart_running: AtomicBool::new(false),
            next_router_id: AtomicU64::new(1),
            trace_seed: trace::epoch_us(),
            events,
        });
        for slot_index in 0..worker_count {
            shared.respawn(slot_index);
        }
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("psq-router-dispatch".to_string())
                .spawn(move || loop {
                    match events_rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(WorkerEvent::Line {
                            slot,
                            generation,
                            line,
                        }) => shared.on_worker_line(slot, generation, &line),
                        Ok(WorkerEvent::Gone { slot, generation }) => {
                            let stale = shared.state.lock().slots[slot].generation != generation;
                            if !stale {
                                if let Some(link) = shared.worker_down(slot) {
                                    link.reap();
                                }
                            }
                        }
                        Err(_) => {
                            if shared.stopped.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                    }
                })
                .expect("failed to spawn the router dispatcher")
        };
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("psq-router-supervise".to_string())
                .spawn(move || {
                    while !shared.stopped.load(Ordering::SeqCst) {
                        shared.tick();
                        std::thread::sleep(Duration::from_millis(5));
                    }
                })
                .expect("failed to spawn the router supervisor")
        };
        Self {
            shared,
            dispatcher: Some(dispatcher),
            supervisor: Some(supervisor),
        }
    }

    /// Attaches a front-tier client; drain the receiver from a writer
    /// thread (or directly, in process).
    pub fn attach(&self) -> (RouterClient, Receiver<OutLine>) {
        front::attach(self.shared.clone())
    }

    /// A metrics snapshot (the same data a `{"cmd":"metrics"}` line gets).
    pub fn metrics(&self) -> RouterMetrics {
        self.shared.metrics()
    }

    /// Each slot's latest scraped serving snapshot (`None` until a scrape
    /// lands): the parts [`RouterMetrics::fleet`] is merged from, exposed
    /// so tests and diagnostics can check the merge against its inputs.
    pub fn worker_metrics(&self) -> Vec<Option<psq_serve::ServeMetrics>> {
        let state = self.shared.state.lock();
        state
            .slots
            .iter()
            .map(|slot| slot.serve_metrics.clone())
            .collect()
    }

    /// Serves a Prometheus-style text exposition of the router's metrics —
    /// including the fleet-merged serving view once scrapes land — on
    /// `addr` (plain TCP, one page per connection). Returns the bound
    /// address; the acceptor thread is detached and lives for the process.
    pub fn serve_exposition(&self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let shared = Arc::clone(&self.shared);
        psq_obs::expo::serve_text(addr, move || {
            let mut expo = psq_obs::Exposition::new();
            shared.metrics().write_exposition(&mut expo);
            expo.render()
        })
    }

    /// Whether a drain/shutdown command has been observed.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.front.draining()
    }

    /// The slot a job would route to right now (tests and diagnostics).
    pub fn preferred_worker(&self, job: &SearchJob) -> Option<usize> {
        let state = self.shared.state.lock();
        self.shared.choose_slot(&state, job.route_key(), None)
    }

    /// The OS pid of the process currently occupying `slot` (tests: pick a
    /// victim for SIGKILL).
    pub fn worker_pid(&self, slot: usize) -> Option<u32> {
        let state = self.shared.state.lock();
        state.slots.get(slot)?.link.as_ref().map(WorkerLink::pid)
    }

    /// SIGKILLs the process occupying `slot` (crash injection in tests;
    /// supervision notices via pipe EOF and re-routes its jobs).
    pub fn kill_worker(&self, slot: usize) {
        self.shared.enforce_kill(slot);
    }

    /// Drains `slot` (stop routing → flush in-flight → exit → respawn).
    pub fn drain_worker(&self, slot: usize) {
        self.shared.drain_worker(slot);
    }

    /// Drains and respawns every worker, one slot at a time (blocks until
    /// done; the wire spelling is `{"cmd":"restart"}`).
    pub fn rolling_restart(&self) {
        self.shared.rolling_restart();
    }

    /// Serves one client over a reader/writer pair until EOF or a
    /// drain/shutdown command ([`front::serve_pipe`]).
    pub fn serve_pipe<R, W>(&self, reader: R, writer: W) -> std::io::Result<PipeSummary>
    where
        R: BufRead,
        W: Write + Send + 'static,
    {
        front::serve_pipe(self.shared.clone(), reader, writer)
    }

    /// Accepts TCP clients until a drain/shutdown command arrives
    /// ([`front::serve_tcp`], idle timeout included).
    pub fn serve_tcp(&self, listener: std::net::TcpListener) -> std::io::Result<()> {
        front::serve_tcp(self.shared.clone(), listener)
    }

    /// Serves the process's clients over TCP on `tcp`, or else on
    /// stdin/stdout ([`front::serve_stdio_or_tcp`]).
    pub fn serve_stdio_or_tcp(&self, tcp: Option<&str>, program: &str) -> std::io::Result<()> {
        front::serve_stdio_or_tcp(self.shared.clone(), tcp, program)
    }

    /// Waits (bounded) for in-flight work to drain, then shuts the fleet
    /// down (same as dropping the router, made explicit) and returns the
    /// final metrics snapshot.
    pub fn finish(self) -> RouterMetrics {
        let per_attempt = self.shared.config.deadline + Duration::from_secs(1);
        let budget = per_attempt * (self.shared.config.max_retries + 2);
        let wait_until = Instant::now() + budget;
        while Instant::now() < wait_until {
            if self.shared.state.lock().pending.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.metrics()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.front.drain();
        self.shared.stopped.store(true, Ordering::SeqCst);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        // Any still-unanswered job gets a structured goodbye — never
        // silence — before its worker goes away.
        let (stragglers, links) = {
            let mut state = self.shared.state.lock();
            let stragglers: Vec<Pending> =
                state.pending.drain().map(|(_, pending)| pending).collect();
            let links: Vec<WorkerLink> = state
                .slots
                .iter_mut()
                .filter_map(|slot| slot.link.take())
                .collect();
            (stragglers, links)
        };
        for pending in stragglers {
            self.shared
                .answer_error(&pending, ErrorKind::ShuttingDown, "router shut down");
        }
        for link in links {
            link.reap();
        }
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        self.shared.front.registry().kick_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_deterministic_and_minimally_disruptive() {
        // Same key, same candidate set → same winner, every time.
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            let a: Vec<u64> = (0..4).map(|slot| rendezvous_score(key, slot)).collect();
            let b: Vec<u64> = (0..4).map(|slot| rendezvous_score(key, slot)).collect();
            assert_eq!(a, b);
        }
        // Removing one slot only remaps keys that slot was winning.
        let keys: Vec<u64> = (0..512u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        let winner = |key: u64, slots: &[usize]| -> usize {
            *slots
                .iter()
                .max_by_key(|&&slot| rendezvous_score(key, slot))
                .expect("non-empty")
        };
        let full: Vec<usize> = vec![0, 1, 2, 3];
        let without_2: Vec<usize> = vec![0, 1, 3];
        let mut moved = 0usize;
        for &key in &keys {
            let before = winner(key, &full);
            let after = winner(key, &without_2);
            if before != 2 {
                assert_eq!(
                    before, after,
                    "key not owned by the lost slot must not move"
                );
            } else {
                moved += 1;
            }
        }
        // The lost slot owned roughly a quarter of the keyspace.
        assert!(
            moved > 64 && moved < 192,
            "lost slot owned {moved}/512 keys"
        );
    }

    #[test]
    fn default_worker_cmd_resolution_prefers_explicit_then_env() {
        let explicit = vec!["my-worker".to_string(), "--flag".to_string()];
        assert_eq!(resolve_worker_cmd(Some(explicit.clone())), explicit);
        // Empty explicit falls through to the defaults, which always
        // produce *some* non-empty argv.
        assert!(!resolve_worker_cmd(Some(Vec::new())).is_empty());
        assert!(!resolve_worker_cmd(None).is_empty());
    }
}
