//! Router-level observability: counters, per-worker status, the
//! route/retry/respawn latency histograms (lock-free `psq-obs` shards),
//! and the fleet-wide view merged from the workers' scraped
//! `{"cmd":"metrics"}` snapshots.

use psq_obs::{Exposition, Histogram, HistogramSnapshot};
use psq_serve::ServeMetrics;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Always-on router counters and histograms (atomics; snapshot on demand).
#[derive(Default)]
pub struct RouterObs {
    /// Jobs that passed admission (then routed, or shed because every
    /// worker was full).
    pub jobs_submitted: AtomicU64,
    /// Jobs answered with a result.
    pub jobs_completed: AtomicU64,
    /// Error replies of every kind but `overload`.
    pub jobs_errored: AtomicU64,
    /// `overload` replies: the client's in-flight bound, or every worker
    /// full. With `jobs_errored`, this adds up to the error lines sent.
    pub jobs_overloaded: AtomicU64,
    /// Sweep requests expanded into per-point sub-jobs at the front tier.
    pub sweeps_expanded: AtomicU64,
    /// Grid points those expansions produced (each also counts once in
    /// `jobs_submitted` once admitted).
    pub sweep_points: AtomicU64,
    /// Sweep requests refused for exceeding the point cap.
    pub sweeps_rejected: AtomicU64,
    /// Re-dispatches after a worker death or deadline expiry.
    pub retries: AtomicU64,
    /// Jobs that exhausted their deadline budget (answered `deadline`).
    pub deadline_expired: AtomicU64,
    /// Worker processes replaced after a crash, hang or drain.
    pub respawns: AtomicU64,
    /// Late or duplicate worker replies dropped (the job was already
    /// answered, usually by a retry racing the original).
    pub duplicates_dropped: AtomicU64,
    /// Completions whose winning answer came after at least one retry.
    /// Counted here and *excluded* from `route_us`: their elapsed time
    /// spans the failed attempt(s), and folding it in would smear worker
    /// failures into the routing-latency distribution.
    pub retried_completions: AtomicU64,
    /// Unparsable worker stdout lines (the worker gets recycled).
    pub corrupt_lines: AtomicU64,
    /// Health probes sent to workers.
    pub probes_sent: AtomicU64,
    /// End-to-end in-router latency per answered job, microseconds.
    pub route_us: Histogram,
    /// How long a failed attempt was outstanding before its retry.
    pub retry_us: Histogram,
    /// Slot downtime per respawn (failure detection to replacement up).
    pub respawn_us: Histogram,
}

impl RouterObs {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One worker slot's externally visible state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerStatus {
    /// The slot index.
    pub slot: u64,
    /// `"up"`, `"draining"`, `"down"`, or `"broken"` (circuit open).
    pub state: String,
    /// How many processes have occupied the slot (1 = the original).
    pub generation: u64,
    /// Jobs currently assigned to the slot and unanswered.
    pub inflight: u64,
    /// Jobs this slot answered over its lifetime (all generations).
    pub completed: u64,
}

/// A serialisable snapshot of the router's counters and worker states.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterMetrics {
    /// Jobs that passed admission.
    pub jobs_submitted: u64,
    /// Jobs answered with a result.
    pub jobs_completed: u64,
    /// Error replies of every kind but `overload`.
    pub jobs_errored: u64,
    /// `overload` replies (the client's bound, or every worker full).
    pub jobs_overloaded: u64,
    /// Jobs admitted and not yet answered.
    pub queue_depth: u64,
    /// Sweep requests expanded into per-point sub-jobs.
    pub sweeps_expanded: u64,
    /// Grid points produced by those expansions.
    pub sweep_points: u64,
    /// Sweep requests refused for exceeding the point cap.
    pub sweeps_rejected: u64,
    /// Re-dispatches after a worker death or deadline expiry.
    pub retries: u64,
    /// Jobs that exhausted their deadline budget.
    pub deadline_expired: u64,
    /// Worker processes replaced.
    pub respawns: u64,
    /// Late or duplicate worker replies dropped.
    pub duplicates_dropped: u64,
    /// Completions whose winning answer followed a retry (counted, but
    /// their samples are excluded from the `route` histogram).
    pub retried_completions: u64,
    /// Unparsable worker stdout lines.
    pub corrupt_lines: u64,
    /// Health probes sent.
    pub probes_sent: u64,
    /// End-to-end in-router latency per answered job.
    pub route: HistogramSnapshot,
    /// Outstanding time of failed attempts at retry.
    pub retry: HistogramSnapshot,
    /// Slot downtime per respawn.
    pub respawn: HistogramSnapshot,
    /// Per-slot status.
    pub workers: Vec<WorkerStatus>,
    /// The fleet-wide serving view: every worker's scraped
    /// `{"cmd":"metrics"}` snapshot merged via
    /// [`ServeMetrics::merge_from`] — pooled end-to-end latency,
    /// per-backend execution histograms, cache counters. `None` until the
    /// first scrape lands.
    pub fleet: Option<ServeMetrics>,
}

impl RouterMetrics {
    /// Collects the counter/histogram half of the snapshot (the caller
    /// fills in `queue_depth` and `workers` from routing state).
    pub fn from_obs(obs: &RouterObs) -> Self {
        Self {
            jobs_submitted: obs.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: obs.jobs_completed.load(Ordering::Relaxed),
            jobs_errored: obs.jobs_errored.load(Ordering::Relaxed),
            jobs_overloaded: obs.jobs_overloaded.load(Ordering::Relaxed),
            queue_depth: 0,
            sweeps_expanded: obs.sweeps_expanded.load(Ordering::Relaxed),
            sweep_points: obs.sweep_points.load(Ordering::Relaxed),
            sweeps_rejected: obs.sweeps_rejected.load(Ordering::Relaxed),
            retries: obs.retries.load(Ordering::Relaxed),
            deadline_expired: obs.deadline_expired.load(Ordering::Relaxed),
            respawns: obs.respawns.load(Ordering::Relaxed),
            duplicates_dropped: obs.duplicates_dropped.load(Ordering::Relaxed),
            retried_completions: obs.retried_completions.load(Ordering::Relaxed),
            corrupt_lines: obs.corrupt_lines.load(Ordering::Relaxed),
            probes_sent: obs.probes_sent.load(Ordering::Relaxed),
            route: obs.route_us.snapshot(),
            retry: obs.retry_us.snapshot(),
            respawn: obs.respawn_us.snapshot(),
            workers: Vec::new(),
            fleet: None,
        }
    }

    /// Renders the router's own counters and histograms (prefixed
    /// `psq_router_`) plus, when a scrape has landed, the merged fleet
    /// serving view (prefixed `psq_fleet_`) onto `expo`.
    pub fn write_exposition(&self, expo: &mut Exposition) {
        expo.counter(
            "psq_router_jobs_submitted_total",
            "Jobs that passed admission.",
            self.jobs_submitted,
        );
        expo.counter(
            "psq_router_jobs_completed_total",
            "Jobs answered with a result.",
            self.jobs_completed,
        );
        expo.counter(
            "psq_router_jobs_errored_total",
            "Error replies of every kind but overload.",
            self.jobs_errored,
        );
        expo.counter(
            "psq_router_jobs_overloaded_total",
            "Overload replies (client bound or every worker full).",
            self.jobs_overloaded,
        );
        expo.counter(
            "psq_router_sweeps_expanded_total",
            "Sweep requests expanded into per-point sub-jobs.",
            self.sweeps_expanded,
        );
        expo.counter(
            "psq_router_sweep_points_total",
            "Grid points produced by sweep expansion.",
            self.sweep_points,
        );
        expo.counter(
            "psq_router_sweeps_rejected_total",
            "Sweep requests refused for exceeding the point cap.",
            self.sweeps_rejected,
        );
        expo.counter(
            "psq_router_retries_total",
            "Re-dispatches after a worker death or deadline expiry.",
            self.retries,
        );
        expo.counter(
            "psq_router_deadline_expired_total",
            "Jobs that exhausted their deadline budget.",
            self.deadline_expired,
        );
        expo.counter(
            "psq_router_respawns_total",
            "Worker processes replaced.",
            self.respawns,
        );
        expo.counter(
            "psq_router_duplicates_dropped_total",
            "Late or duplicate worker replies dropped.",
            self.duplicates_dropped,
        );
        expo.counter(
            "psq_router_retried_completions_total",
            "Completions whose winning answer followed a retry.",
            self.retried_completions,
        );
        expo.counter(
            "psq_router_corrupt_lines_total",
            "Unparsable worker stdout lines.",
            self.corrupt_lines,
        );
        expo.gauge(
            "psq_router_queue_depth",
            "Jobs admitted and not yet answered.",
            &[],
            self.queue_depth as f64,
        );
        expo.gauge(
            "psq_router_workers_up",
            "Worker slots currently routable.",
            &[],
            self.workers.iter().filter(|w| w.state == "up").count() as f64,
        );
        for worker in &self.workers {
            expo.gauge(
                "psq_router_worker_generation",
                "Process generation occupying each slot.",
                &[("slot", worker.slot.to_string().as_str())],
                worker.generation as f64,
            );
        }
        expo.histogram(
            "psq_router_route_us",
            "First-attempt end-to-end in-router latency, microseconds.",
            &[],
            &self.route,
        );
        expo.histogram(
            "psq_router_retry_us",
            "Outstanding time of failed attempts at retry.",
            &[],
            &self.retry,
        );
        expo.histogram(
            "psq_router_respawn_us",
            "Slot downtime per respawn.",
            &[],
            &self.respawn,
        );
        if let Some(fleet) = &self.fleet {
            fleet.write_exposition(expo, "psq_fleet");
        }
    }

    /// Serialises to the router's tagged metrics line
    /// (`{"type":"router_metrics","metrics":{…}}`).
    pub fn to_line(&self) -> String {
        format!(
            "{{\"type\":\"router_metrics\",\"metrics\":{}}}",
            serde_json::to_string(self).expect("router metrics serialise")
        )
    }

    /// Parses a line produced by [`RouterMetrics::to_line`].
    pub fn parse_line(line: &str) -> Result<Self, String> {
        use serde::Value;
        let value = serde_json::parse_value(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let object = value
            .as_object()
            .ok_or_else(|| "expected a JSON object".to_string())?;
        if object.get("type").and_then(Value::as_str) != Some("router_metrics") {
            return Err("not a router_metrics line".to_string());
        }
        let metrics = object
            .get("metrics")
            .ok_or_else(|| "router_metrics line without \"metrics\"".to_string())?;
        Self::deserialize(metrics).map_err(|e| format!("invalid metrics payload: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_lines_round_trip() {
        let obs = RouterObs::default();
        RouterObs::bump(&obs.jobs_submitted);
        RouterObs::bump(&obs.jobs_completed);
        RouterObs::bump(&obs.respawns);
        obs.route_us.record(120.0);
        obs.route_us.record(480.0);
        let mut metrics = RouterMetrics::from_obs(&obs);
        metrics.queue_depth = 3;
        metrics.workers.push(WorkerStatus {
            slot: 0,
            state: "up".into(),
            generation: 2,
            inflight: 3,
            completed: 1,
        });
        let line = metrics.to_line();
        assert!(!line.contains('\n'));
        let back = RouterMetrics::parse_line(&line).expect("round trips");
        assert_eq!(back, metrics);
        assert_eq!(back.respawns, 1);
        assert!(back.route.p99() >= back.route.p50());
        assert!(RouterMetrics::parse_line("{\"type\":\"metrics\"}").is_err());
    }
}
