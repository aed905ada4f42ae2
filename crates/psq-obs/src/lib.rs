//! # psq-obs — the observability substrate
//!
//! Shared measurement infrastructure for the partial-search workspace:
//!
//! - [`hist`] — lock-free log2-bucketed latency [`Histogram`]s (atomic u64
//!   buckets, safe to hammer from every worker thread), mergeable
//!   [`HistogramSnapshot`]s with p50/p90/p99/max, the promoted nearest-rank
//!   [`percentile`] helper, and the unsynchronised [`LocalHistogram`]
//!   scratch tight loops flush into a shared histogram once per batch.
//! - [`window`] — rotating time-windowed histograms: N buckets-of-time over
//!   the atomic [`Histogram`], so metrics report *recent* p50/p99 alongside
//!   lifetime (what supervision and the planned self-calibrating planner
//!   actually consume).
//! - [`trace`] — the per-job span/event layer: [`Span::enter`] stage timing
//!   with ~ns overhead when disabled (one relaxed atomic load), emitting
//!   structured NDJSON `{"type":"trace",...}` lines behind
//!   `--trace[=stderr|FILE]` or the `PSQ_TRACE` environment variable. Lines
//!   carry a cross-process distributed trace id (bound per job via
//!   [`trace::bind_trace`] or supplied by the caller) and an epoch-µs
//!   `t_us` end timestamp, so a collector can stitch one request's spans
//!   from several processes into a single ordered causal chain;
//!   [`trace::forward_line`] is the merge point such a collector feeds.
//! - [`expo`] — Prometheus-style text exposition of the histogram
//!   snapshots and counters, plus the plain-TCP `--metrics-addr` endpoint
//!   both serving binaries expose.
//! - [`clock`] — the coarse stamp clock spans time with: raw TSC reads on
//!   x86-64 (~5–10 ns, calibrated once against `Instant`), an `Instant`
//!   fallback elsewhere.
//!
//! Histograms are *always on*: the hot paths feed them from measurements
//! they already take (backend wall time) or from cheap extra stamp reads
//! (plan / cache-lookup / coalesce dwell). Only the NDJSON trace stream is
//! gated by the global trace level. Observability reads clocks, never RNG
//! state, so the engine's deterministic-results contract is untouched.

pub mod clock;
pub mod expo;
pub mod hist;
pub mod trace;
pub mod window;

pub use expo::Exposition;
pub use hist::{percentile, Histogram, HistogramSnapshot, LocalHistogram};
pub use trace::{event, event_traced, stage, Span};
pub use window::WindowedHistogram;
