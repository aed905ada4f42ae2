//! Fault-tolerant sharded front tier over `psq-serve`.
//!
//! A single `psq-serve` process is fast but mortal; `psq-router` is the
//! step from process to service. It spawns and supervises N `psq-serve`
//! worker processes over pipes, answers clients through psq-serve's own
//! front end (`psq_serve::front`), and turns worker failure from an outage
//! into a capacity dip:
//!
//! * [`router`] — the [`Router`]: rendezvous-hash routing on each job's
//!   spec key (identical specs hit the same worker's warm result cache),
//!   health probes and liveness deadlines, crash respawn with exponential
//!   backoff and a circuit breaker, per-request deadlines with bounded
//!   retry-on-another-worker (jobs are deterministically seeded, so
//!   replays are bit-identical and first-answer-wins is safe), per-worker
//!   backpressure with structured `overload` shedding, and drain-aware
//!   rolling restarts;
//! * [`worker`] — one supervised child process: pipe transport, writer
//!   and reader threads, generation tags that unmask stale replies;
//! * [`fault`] — the deterministic fault-injection harness ([`FaultPlan`]:
//!   kill/freeze/corrupt/delay) the robustness tests and the CI smoke
//!   drive through the `PSQ_ROUTER_FAULT` environment variable;
//! * [`metrics`] — [`RouterMetrics`]: retries, respawns, duplicates
//!   dropped, corrupt lines, per-worker status, and `psq-obs` histograms
//!   for the `route`/`retry`/`respawn` stages.
//!
//! The `psq-router` binary wraps it:
//!
//! ```text
//! psq-serve --gen 256 | psq-router --workers 4     # sharded pipe session
//! psq-router --workers 2 --tcp 127.0.0.1:7071      # sharded TCP service
//! psq-router --selftest 256 --fault 1:kill@64      # crash-mid-stream smoke
//! ```

pub mod fault;
pub mod metrics;
pub mod router;
pub mod worker;

pub use fault::{FaultKind, FaultPlan, FaultWriter, FAULT_ENV};
pub use metrics::{RouterMetrics, WorkerStatus};
pub use router::{resolve_worker_cmd, Router, RouterClient, RouterConfig};
pub use worker::{WorkerEvent, WorkerLink};
