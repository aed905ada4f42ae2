//! Serving-side metrics: what the coalescer and sessions observe.
//!
//! [`ServeStats`] is the live, internally synchronised collector the server
//! threads write into; [`ServeMetrics`] is the serialisable snapshot a
//! `{"cmd":"metrics"}` request gets back. End-to-end latency is measured
//! per job from the moment its line parsed on the reader thread to the
//! moment its response line was handed to the client's writer, and is
//! recorded into a lock-free `psq_obs::Histogram` (log2 buckets, exact
//! max) — cheap enough for every answer, cumulative over the server's
//! lifetime. Coalescer dwell (how long a job waited for its batch to
//! dispatch) gets its own histogram, and the snapshot carries the shared engine's
//! per-stage histograms (`EngineObsSnapshot`) so one `{"cmd":"metrics"}`
//! answer covers the whole pipeline.

use psq_engine::EngineObsSnapshot;
use psq_engine::{PlanCacheStats, ResultCacheStats};
use psq_obs::{Histogram, HistogramSnapshot, WindowedHistogram};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The rolling-window shape behind the `latency_recent` view: 8 slices of
/// 1 s — an ~8-second "how is the server behaving *now*" window, wide
/// enough to smooth batch boundaries, narrow enough that supervision (and
/// the planned self-calibrating planner) reacts to the present, not the
/// process's whole history.
pub const RECENT_WINDOW_SLICES: usize = 8;
/// Width of one rolling-window slice, milliseconds.
pub const RECENT_WINDOW_SLICE_MS: u64 = 1000;

/// One client's lifetime counters, as reported in [`ServeMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientCounters {
    /// Server-assigned client id (stable for the connection's lifetime).
    pub client: u64,
    /// Jobs admitted into the intake queue.
    pub submitted: u64,
    /// Jobs answered with a result.
    pub completed: u64,
    /// Error replies of every kind but `overload` (parse / invalid /
    /// rejected / ...).
    pub errors: u64,
    /// `overload` replies (the in-flight bound).
    pub overloaded: u64,
}

/// A point-in-time snapshot of the serving layer.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeMetrics {
    /// Jobs admitted into the intake queue over the server's lifetime.
    pub jobs_submitted: u64,
    /// Jobs answered with a result.
    pub jobs_completed: u64,
    /// Error replies of every kind but `overload` (parse / invalid /
    /// sweep_too_large / rejected / internal / shutting_down).
    pub jobs_errored: u64,
    /// `overload` replies (per-client admission control). With
    /// `jobs_errored`, this adds up to the error lines sent.
    pub jobs_overloaded: u64,
    /// Sweep requests expanded into per-point sub-jobs.
    pub sweeps_expanded: u64,
    /// Grid points produced by those expansions (each also counts in
    /// `jobs_submitted` once admitted).
    pub sweep_points: u64,
    /// Sweep requests refused for exceeding the point cap.
    pub sweeps_rejected: u64,
    /// Jobs currently queued or executing (admitted, not yet answered).
    pub queue_depth: u64,
    /// Engine batches the coalescer has dispatched.
    pub batches: u64,
    /// Mean jobs per coalesced batch.
    pub batch_jobs_mean: f64,
    /// Largest coalesced batch so far.
    pub batch_jobs_max: u64,
    /// Clients currently attached.
    pub clients_connected: u64,
    /// Clients attached over the server's lifetime.
    pub clients_total: u64,
    /// Median end-to-end latency (parse → response handoff), microseconds.
    /// Derived from `latency` with `HistogramSnapshot::percentile`
    /// semantics (bucket upper edge clamped to the exact maximum).
    pub latency_us_p50: f64,
    /// 90th-percentile end-to-end latency, microseconds.
    pub latency_us_p90: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub latency_us_p99: f64,
    /// Slowest end-to-end latency ever answered (exact).
    pub latency_us_max: f64,
    /// Median end-to-end latency over the recent rolling window only
    /// (see [`RECENT_WINDOW_SLICES`]), microseconds.
    pub latency_recent_us_p50: f64,
    /// 99th-percentile end-to-end latency over the recent rolling window.
    pub latency_recent_us_p99: f64,
    /// The full end-to-end latency histogram behind the scalars above.
    pub latency: HistogramSnapshot,
    /// End-to-end latency over the recent rolling window only — what the
    /// server looks like *now*, not averaged over its lifetime.
    pub latency_recent: HistogramSnapshot,
    /// Coalescer dwell per job (admission → batch dispatch), microseconds.
    pub coalesce_dwell: HistogramSnapshot,
    /// The shared engine's per-stage histograms: planner time, result-cache
    /// lookup time, and execution wall time per backend.
    pub engine_obs: EngineObsSnapshot,
    /// Per-client counters for currently attached clients.
    pub clients: Vec<ClientCounters>,
    /// The shared engine's result-cache counters (hits span clients).
    pub result_cache: ResultCacheStats,
    /// The shared engine's schedule-cache counters.
    pub plan_cache: PlanCacheStats,
}

impl ServeMetrics {
    /// Folds another snapshot into this one — the fleet-aggregation step a
    /// supervising router runs over its workers' `{"cmd":"metrics"}`
    /// replies. Counters add, histograms merge bucket-by-bucket
    /// ([`HistogramSnapshot::merge`]), maxima take the max, and the
    /// percentile scalars are recomputed from the merged histograms (so
    /// fleet percentiles come from pooled samples, not averaged scalars).
    pub fn merge_from(&mut self, other: &ServeMetrics) {
        let batch_jobs = self.batch_jobs_mean * self.batches as f64
            + other.batch_jobs_mean * other.batches as f64;
        self.jobs_submitted += other.jobs_submitted;
        self.jobs_completed += other.jobs_completed;
        self.jobs_errored += other.jobs_errored;
        self.jobs_overloaded += other.jobs_overloaded;
        self.sweeps_expanded += other.sweeps_expanded;
        self.sweep_points += other.sweep_points;
        self.sweeps_rejected += other.sweeps_rejected;
        self.queue_depth += other.queue_depth;
        self.batches += other.batches;
        self.batch_jobs_mean = if self.batches > 0 {
            batch_jobs / self.batches as f64
        } else {
            0.0
        };
        self.batch_jobs_max = self.batch_jobs_max.max(other.batch_jobs_max);
        self.clients_connected += other.clients_connected;
        self.clients_total += other.clients_total;
        self.latency.merge(&other.latency);
        self.latency_recent.merge(&other.latency_recent);
        self.coalesce_dwell.merge(&other.coalesce_dwell);
        self.latency_us_p50 = self.latency.p50();
        self.latency_us_p90 = self.latency.p90();
        self.latency_us_p99 = self.latency.p99();
        self.latency_us_max = self.latency.max_us;
        self.latency_recent_us_p50 = self.latency_recent.p50();
        self.latency_recent_us_p99 = self.latency_recent.p99();
        self.engine_obs.plan_us.merge(&other.engine_obs.plan_us);
        self.engine_obs
            .cache_lookup_us
            .merge(&other.engine_obs.cache_lookup_us);
        for (backend, snap) in &other.engine_obs.backend_latency {
            self.engine_obs
                .backend_latency
                .entry(*backend)
                .or_default()
                .merge(snap);
        }
        self.clients.extend(other.clients.iter().copied());
        self.result_cache.hits += other.result_cache.hits;
        self.result_cache.misses += other.result_cache.misses;
        self.result_cache.entries += other.result_cache.entries;
        self.result_cache.evictions += other.result_cache.evictions;
        self.plan_cache.hits += other.plan_cache.hits;
        self.plan_cache.misses += other.plan_cache.misses;
        self.plan_cache.entries += other.plan_cache.entries;
    }

    /// Renders this snapshot onto `expo` with metric names prefixed
    /// `{prefix}_` — `psq_serve` for one process's own endpoint,
    /// `psq_fleet` for a router's merged view. Lifetime and recent
    /// end-to-end latency render as two `window`-labelled series of one
    /// histogram family; per-backend execution latency is labelled
    /// `backend="..."`.
    pub fn write_exposition(&self, expo: &mut psq_obs::Exposition, prefix: &str) {
        let name = |suffix: &str| format!("{prefix}_{suffix}");
        expo.counter(
            &name("jobs_submitted_total"),
            "Jobs admitted into the intake queue.",
            self.jobs_submitted,
        );
        expo.counter(
            &name("jobs_completed_total"),
            "Jobs answered with a result.",
            self.jobs_completed,
        );
        expo.counter(
            &name("jobs_errored_total"),
            "Error replies of every kind but overload.",
            self.jobs_errored,
        );
        expo.counter(
            &name("jobs_overloaded_total"),
            "Overload replies from admission control.",
            self.jobs_overloaded,
        );
        expo.counter(
            &name("sweeps_expanded_total"),
            "Sweep requests expanded into per-point sub-jobs.",
            self.sweeps_expanded,
        );
        expo.counter(
            &name("sweep_points_total"),
            "Grid points produced by sweep expansion.",
            self.sweep_points,
        );
        expo.counter(
            &name("sweeps_rejected_total"),
            "Sweep requests refused for exceeding the point cap.",
            self.sweeps_rejected,
        );
        expo.counter(
            &name("batches_total"),
            "Coalesced engine batches dispatched.",
            self.batches,
        );
        expo.gauge(
            &name("queue_depth"),
            "Jobs admitted but not yet answered.",
            &[],
            self.queue_depth as f64,
        );
        expo.gauge(
            &name("batch_jobs_max"),
            "Largest coalesced batch so far.",
            &[],
            self.batch_jobs_max as f64,
        );
        expo.gauge(
            &name("clients_connected"),
            "Clients currently attached.",
            &[],
            self.clients_connected as f64,
        );
        expo.gauge(
            &name("latency_recent_p50_us"),
            "Median end-to-end latency over the recent rolling window.",
            &[],
            self.latency_recent_us_p50,
        );
        expo.gauge(
            &name("latency_recent_p99_us"),
            "Tail end-to-end latency over the recent rolling window.",
            &[],
            self.latency_recent_us_p99,
        );
        let latency = name("latency_us");
        expo.histogram(
            &latency,
            "End-to-end latency (parse to response handoff), microseconds.",
            &[("window", "lifetime")],
            &self.latency,
        );
        expo.histogram(
            &latency,
            "End-to-end latency (parse to response handoff), microseconds.",
            &[("window", "recent")],
            &self.latency_recent,
        );
        expo.histogram(
            &name("coalesce_dwell_us"),
            "Coalescer dwell per job (admission to batch dispatch).",
            &[],
            &self.coalesce_dwell,
        );
        expo.histogram(
            &name("plan_us"),
            "Planner time per job, microseconds.",
            &[],
            &self.engine_obs.plan_us,
        );
        expo.histogram(
            &name("cache_lookup_us"),
            "Result-cache lookup time per job, microseconds.",
            &[],
            &self.engine_obs.cache_lookup_us,
        );
        for (backend, snap) in &self.engine_obs.backend_latency {
            expo.histogram(
                &name("execute_us"),
                "Execution wall time per backend, microseconds.",
                &[("backend", backend.label())],
                snap,
            );
        }
        expo.counter(
            &name("result_cache_hits_total"),
            "Result-cache lookups served from the cache.",
            self.result_cache.hits,
        );
        expo.counter(
            &name("result_cache_misses_total"),
            "Result-cache lookups that fell through to execution.",
            self.result_cache.misses,
        );
        expo.counter(
            &name("plan_cache_hits_total"),
            "Schedule-cache lookups served from the cache.",
            self.plan_cache.hits,
        );
        expo.counter(
            &name("plan_cache_misses_total"),
            "Schedule-cache lookups that computed a fresh schedule.",
            self.plan_cache.misses,
        );
    }
}

/// The live collector. All methods are safe to call from any thread.
pub struct ServeStats {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_errored: AtomicU64,
    jobs_overloaded: AtomicU64,
    sweeps_expanded: AtomicU64,
    sweep_points: AtomicU64,
    sweeps_rejected: AtomicU64,
    queue_depth: AtomicUsize,
    batches: AtomicU64,
    batch_jobs: AtomicU64,
    batch_jobs_max: AtomicU64,
    /// End-to-end latency (parse → response handoff), lifetime.
    latency: Histogram,
    /// End-to-end latency over the recent rolling window.
    latency_recent: WindowedHistogram,
    /// Coalescer dwell (admission → batch dispatch).
    dwell: Histogram,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self {
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_errored: AtomicU64::new(0),
            jobs_overloaded: AtomicU64::new(0),
            sweeps_expanded: AtomicU64::new(0),
            sweep_points: AtomicU64::new(0),
            sweeps_rejected: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            batches: AtomicU64::new(0),
            batch_jobs: AtomicU64::new(0),
            batch_jobs_max: AtomicU64::new(0),
            latency: Histogram::new(),
            latency_recent: WindowedHistogram::new(RECENT_WINDOW_SLICES, RECENT_WINDOW_SLICE_MS),
            dwell: Histogram::new(),
        }
    }
}

impl ServeStats {
    /// A job was admitted into the intake queue.
    pub fn record_submitted(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted job left the queue with a result, after `latency_us`
    /// end to end.
    pub fn record_completed(&self, latency_us: f64) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.latency.record(latency_us);
        self.latency_recent.record(latency_us);
    }

    /// An admitted job left the queue with an error.
    pub fn record_admitted_error(&self) {
        self.jobs_errored.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A request errored before admission (parse, validation, draining,
    /// oversized or invalid sweeps).
    pub fn record_rejected_at_intake(&self) {
        self.jobs_errored.fetch_add(1, Ordering::Relaxed);
    }

    /// A job was refused by admission control.
    pub fn record_overloaded(&self) {
        self.jobs_overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// A sweep request was expanded into `points` per-point sub-jobs.
    pub fn record_sweep(&self, points: u64) {
        self.sweeps_expanded.fetch_add(1, Ordering::Relaxed);
        self.sweep_points.fetch_add(points, Ordering::Relaxed);
    }

    /// A sweep request was refused for exceeding the point cap.
    pub fn record_sweep_rejected(&self) {
        self.sweeps_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The coalescer dispatched one engine batch of `jobs` jobs.
    pub fn record_batch(&self, jobs: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_jobs.fetch_add(jobs, Ordering::Relaxed);
        self.batch_jobs_max.fetch_max(jobs, Ordering::Relaxed);
    }

    /// A job spent `dwell_us` in the coalescer waiting for its batch to
    /// dispatch.
    pub fn record_dwell(&self, dwell_us: f64) {
        self.dwell.record(dwell_us);
    }

    /// Jobs currently queued or executing.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed) as u64
    }

    /// Builds a snapshot. `clients` carries the per-client counters and
    /// connection tallies from the session registry; the cache stats and
    /// the per-stage engine histograms come from the shared engine.
    pub fn snapshot(
        &self,
        clients: Vec<ClientCounters>,
        clients_connected: u64,
        clients_total: u64,
        result_cache: ResultCacheStats,
        plan_cache: PlanCacheStats,
        engine_obs: EngineObsSnapshot,
    ) -> ServeMetrics {
        let latency = self.latency.snapshot();
        let latency_recent = self.latency_recent.snapshot();
        let batches = self.batches.load(Ordering::Relaxed);
        let batch_jobs = self.batch_jobs.load(Ordering::Relaxed);
        ServeMetrics {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_errored: self.jobs_errored.load(Ordering::Relaxed),
            jobs_overloaded: self.jobs_overloaded.load(Ordering::Relaxed),
            sweeps_expanded: self.sweeps_expanded.load(Ordering::Relaxed),
            sweep_points: self.sweep_points.load(Ordering::Relaxed),
            sweeps_rejected: self.sweeps_rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth(),
            batches,
            batch_jobs_mean: if batches > 0 {
                batch_jobs as f64 / batches as f64
            } else {
                0.0
            },
            batch_jobs_max: self.batch_jobs_max.load(Ordering::Relaxed),
            clients_connected,
            clients_total,
            latency_us_p50: latency.p50(),
            latency_us_p90: latency.p90(),
            latency_us_p99: latency.p99(),
            latency_us_max: latency.max_us,
            latency_recent_us_p50: latency_recent.p50(),
            latency_recent_us_p99: latency_recent.p99(),
            latency,
            latency_recent,
            coalesce_dwell: self.dwell.snapshot(),
            engine_obs,
            clients,
            result_cache,
            plan_cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(stats: &ServeStats) -> ServeMetrics {
        stats.snapshot(
            Vec::new(),
            1,
            3,
            ResultCacheStats::default(),
            PlanCacheStats::default(),
            EngineObsSnapshot::default(),
        )
    }

    #[test]
    fn counters_flow_into_the_snapshot() {
        let stats = ServeStats::default();
        for i in 0..10 {
            stats.record_submitted();
            stats.record_completed((i + 1) as f64 * 100.0);
        }
        stats.record_submitted();
        stats.record_admitted_error();
        stats.record_overloaded();
        stats.record_rejected_at_intake();
        stats.record_batch(8);
        stats.record_batch(4);
        stats.record_sweep(6);
        stats.record_sweep(2);
        stats.record_sweep_rejected();
        let m = snapshot(&stats);
        assert_eq!(m.sweeps_expanded, 2);
        assert_eq!(m.sweep_points, 8);
        assert_eq!(m.sweeps_rejected, 1);
        assert_eq!(m.jobs_submitted, 11);
        assert_eq!(m.jobs_completed, 10);
        assert_eq!(m.jobs_errored, 2);
        assert_eq!(m.jobs_overloaded, 1);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.batches, 2);
        assert_eq!(m.batch_jobs_mean, 6.0);
        assert_eq!(m.batch_jobs_max, 8);
        assert_eq!(m.clients_connected, 1);
        assert_eq!(m.clients_total, 3);
        // Histogram percentile semantics: the rank-5 sample (500) lives in
        // bucket [256, 512) → reported as the 512 upper edge; p99 and max
        // land on the exact maximum.
        assert_eq!(m.latency_us_p50, 512.0);
        assert_eq!(m.latency_us_p99, 1000.0);
        assert_eq!(m.latency_us_max, 1000.0);
        assert_eq!(m.latency.count, 10);
        assert_eq!(m.latency.p50(), m.latency_us_p50);
    }

    #[test]
    fn recent_window_mirrors_lifetime_while_samples_are_fresh() {
        let stats = ServeStats::default();
        for i in 0..10 {
            stats.record_submitted();
            stats.record_completed((i + 1) as f64 * 100.0);
        }
        // All samples landed inside the rolling window just now, so the
        // recent view bit-matches the lifetime view.
        let m = snapshot(&stats);
        assert_eq!(m.latency_recent, m.latency);
        assert_eq!(m.latency_recent_us_p50, m.latency_us_p50);
        assert_eq!(m.latency_recent_us_p99, m.latency_us_p99);
    }

    #[test]
    fn dwell_histogram_is_independent_of_latency() {
        let stats = ServeStats::default();
        stats.record_submitted();
        stats.record_completed(800.0);
        stats.record_dwell(40.0);
        stats.record_dwell(90.0);
        let m = snapshot(&stats);
        assert_eq!(m.coalesce_dwell.count, 2);
        assert_eq!(m.coalesce_dwell.max_us, 90.0);
        assert_eq!(m.latency.count, 1);
    }

    #[test]
    fn latency_histogram_is_cumulative_and_bounded() {
        let stats = ServeStats::default();
        // The histogram keeps constant memory however many samples arrive,
        // and every sample still counts.
        for _ in 0..100_000 {
            stats.record_submitted();
            stats.record_completed(5.0);
        }
        let m = snapshot(&stats);
        assert_eq!(m.latency.count, 100_000);
        assert_eq!(m.latency_us_max, 5.0);
        assert!(m.latency.buckets.len() <= 3, "5us lives in bucket [4, 8)");
    }

    #[test]
    fn fleet_merge_pools_samples_and_recomputes_percentiles() {
        let a = ServeStats::default();
        let b = ServeStats::default();
        for i in 0..8 {
            a.record_submitted();
            a.record_completed((i + 1) as f64 * 10.0);
            b.record_submitted();
            b.record_completed((i + 1) as f64 * 1000.0);
        }
        a.record_batch(4);
        b.record_batch(8);
        b.record_overloaded();
        let mut merged = snapshot(&a);
        merged.merge_from(&snapshot(&b));
        assert_eq!(merged.jobs_completed, 16);
        assert_eq!(merged.jobs_overloaded, 1);
        assert_eq!(merged.batches, 2);
        assert_eq!(merged.batch_jobs_mean, 6.0);
        assert_eq!(merged.batch_jobs_max, 8);
        // The merged histogram carries both shards' samples, and the
        // scalars are recomputed from it — the fleet p99 is b's tail, not
        // an average of the two p99s.
        assert_eq!(merged.latency.count, 16);
        assert_eq!(merged.latency_us_max, 8000.0);
        assert_eq!(merged.latency_us_p99, 8000.0);
        // Bit-match: merging the shard snapshots equals one histogram that
        // saw every sample.
        let pooled = Histogram::new();
        for i in 0..8 {
            pooled.record((i + 1) as f64 * 10.0);
            pooled.record((i + 1) as f64 * 1000.0);
        }
        assert_eq!(merged.latency, pooled.snapshot());
    }

    #[test]
    fn exposition_page_covers_the_headline_series() {
        let stats = ServeStats::default();
        stats.record_submitted();
        stats.record_completed(300.0);
        stats.record_batch(1);
        stats.record_dwell(25.0);
        let m = snapshot(&stats);
        let mut expo = psq_obs::Exposition::new();
        m.write_exposition(&mut expo, "psq_serve");
        let page = expo.render();
        assert!(page.contains("# TYPE psq_serve_jobs_completed_total counter"));
        assert!(page.contains("psq_serve_jobs_completed_total 1\n"));
        assert!(page.contains("# TYPE psq_serve_latency_us histogram"));
        assert!(page.contains("psq_serve_latency_us_count{window=\"lifetime\"} 1\n"));
        assert!(page.contains("psq_serve_latency_us_count{window=\"recent\"} 1\n"));
        assert!(page.contains("psq_serve_coalesce_dwell_us_count 1\n"));
        assert_eq!(
            page.matches("# TYPE psq_serve_latency_us histogram")
                .count(),
            1,
            "one header however many windows"
        );
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let stats = ServeStats::default();
        stats.record_submitted();
        stats.record_completed(42.0);
        stats.record_batch(1);
        stats.record_dwell(7.0);
        let mut engine_obs = EngineObsSnapshot::default();
        engine_obs.plan_us.merge(&{
            let h = Histogram::new();
            h.record(3.0);
            h.snapshot()
        });
        let m = stats.snapshot(
            vec![ClientCounters {
                client: 1,
                submitted: 1,
                completed: 1,
                errors: 0,
                overloaded: 0,
            }],
            1,
            1,
            ResultCacheStats::default(),
            PlanCacheStats::default(),
            engine_obs,
        );
        let json = serde_json::to_string(&m).expect("serialise");
        let back: ServeMetrics = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(m, back);
        assert_eq!(back.engine_obs.plan_us.count, 1);
    }
}
