//! Streaming, multi-client serving layer over `psq-engine`.
//!
//! `psq-engine` executes one batch and exits; this crate keeps the engine
//! alive behind a persistent server so live clients can trickle
//! partial-search jobs in and stream results back as they complete:
//!
//! * [`protocol`] — the NDJSON wire format: one [`psq_engine::SearchJob`]
//!   per line in, one tagged response line out, order-independent via
//!   client-assigned ids; control commands for metrics and shutdown;
//! * [`coalescer`] — the micro-batching scheduler: a dedicated thread
//!   coalesces *all* clients' queued jobs into single engine batches, so
//!   the plan cache, the result cache and in-batch dedup work across
//!   clients. Dispatch is work-conserving: a batch takes everything queued
//!   (up to `max_batch`) and leaves as soon as the scheduler is free, so
//!   batches grow with load while a lone request waits for nothing
//!   (`max_delay_us`, default 0, adds an optional dwell);
//! * [`session`] — per-client state: response channel, bounded in-flight
//!   admission control (overload answers are JSON errors, never
//!   disconnects), lifetime counters;
//! * [`front`] — the client-facing front end psq-serve and psq-router
//!   share: the two transports (stdin/stdout pipe and multi-client
//!   `std::net` TCP with an idle timeout), one parse per request line,
//!   commands, admission and sweep expansion, generic over the
//!   [`front::Tier`] each of them implements;
//! * [`server`] — the [`Server`]: one shared [`psq_engine::EngineHandle`]
//!   and the scheduler thread behind the front, with graceful
//!   drain-on-shutdown;
//! * [`metrics`] — [`ServeMetrics`]: queue depth, coalesced batch sizes,
//!   per-client counters, and lock-free `psq-obs` latency histograms —
//!   end-to-end latency, coalescer dwell, and the shared engine's
//!   per-stage/per-backend histograms, all in one `{"cmd":"metrics"}`
//!   answer. `--trace[=stderr|FILE]` adds per-stage NDJSON trace events
//!   (`plan`, `cache`, `execute:<backend>`, `coalesce`).
//!
//! The `psq-serve` binary wraps it all:
//!
//! ```text
//! psq-serve --gen 64 | psq-serve            # pipe mode round trip
//! psq-serve --tcp 127.0.0.1:7070           # multi-client TCP server
//! psq-serve --selftest 256                 # gen → serve → verify, exit 0
//! ```

pub mod coalescer;
pub mod front;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;
pub mod testio;

pub use coalescer::CoalescerConfig;
pub use front::{Client, LineOutcome, PipeSummary};
pub use metrics::{ClientCounters, ServeMetrics};
pub use protocol::{parse_request, parse_response, Command, ErrorKind, Request, Response};
pub use server::{ServeConfig, Server};
pub use session::{Session, SessionRegistry};
