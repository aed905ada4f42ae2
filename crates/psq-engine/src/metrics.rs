//! Batch-level aggregation: throughput, latency percentiles, accuracy and
//! per-backend tallies, all serialisable for the engine's JSON output —
//! plus the engine's always-on observability registry ([`EngineObs`]), the
//! lock-free per-stage histograms the future self-calibrating planner will
//! read.

use crate::cache::ResultCacheStats;
use crate::planner::PlanCacheStats;
use crate::spec::{Backend, SearchResult};
use psq_obs::{Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

// The single nearest-rank percentile implementation now lives in `psq-obs`;
// re-exported here because this path was public before the promotion.
pub use psq_obs::percentile;

/// The engine's always-on observability registry: one lock-free histogram
/// per pipeline stage, recorded from the hot paths (planning, result-cache
/// lookup, and per-backend execution) and cheap enough to leave enabled at
/// full throughput (a few relaxed atomic adds per job).
#[derive(Debug, Default)]
pub struct EngineObs {
    /// Planner time per job (memoised plan-cache path included).
    pub plan: Histogram,
    /// Result-cache lookup time per job (hits and misses alike).
    pub cache_lookup: Histogram,
    /// Execution wall time per backend, indexed by [`Backend::index`].
    execute: [Histogram; Backend::ALL.len()],
}

impl EngineObs {
    /// An empty registry. Calibrates the coarse span clock as a side
    /// effect, so the one-off cost lands at engine construction rather
    /// than inside the first job's plan span.
    pub fn new() -> Self {
        psq_obs::clock::calibrate();
        Self::default()
    }

    /// Records one execution wall time for `backend`, in microseconds.
    #[inline]
    pub fn record_execute(&self, backend: Backend, us: f64) {
        self.execute[backend.index()].record(us);
    }

    /// A serialisable point-in-time view (backends that never executed are
    /// omitted, so idle engines serialise compactly).
    pub fn snapshot(&self) -> EngineObsSnapshot {
        let mut backend_latency = BTreeMap::new();
        for backend in Backend::ALL {
            let snap = self.execute[backend.index()].snapshot();
            if !snap.is_empty() {
                backend_latency.insert(backend, snap);
            }
        }
        EngineObsSnapshot {
            plan_us: self.plan.snapshot(),
            cache_lookup_us: self.cache_lookup.snapshot(),
            backend_latency,
        }
    }
}

/// A serialisable snapshot of [`EngineObs`], cumulative over the engine's
/// lifetime. Shard snapshots merge per-field via
/// [`HistogramSnapshot::merge`] for the planned multi-worker tier.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineObsSnapshot {
    /// Planner time per job, microseconds.
    pub plan_us: HistogramSnapshot,
    /// Result-cache lookup time per job, microseconds.
    pub cache_lookup_us: HistogramSnapshot,
    /// Execution wall time per backend (only backends that ran).
    pub backend_latency: BTreeMap<Backend, HistogramSnapshot>,
}

/// Jobs executed per backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BackendTally {
    /// Jobs on the reduced simulator.
    pub reduced: u64,
    /// Jobs on the state-vector simulator.
    pub statevector: u64,
    /// Jobs on the gate-level circuit path.
    pub circuit: u64,
    /// Jobs on the deterministic classical scan.
    pub classical_deterministic: u64,
    /// Jobs on the randomized classical scan.
    pub classical_randomized: u64,
    /// Full-address jobs on the recursive descent.
    pub recursive: u64,
    /// Jobs on the sparse amplitude-class simulator.
    pub sparse: u64,
}

impl BackendTally {
    /// Increments the count for `backend`.
    pub fn record(&mut self, backend: Backend) {
        match backend {
            Backend::Reduced => self.reduced += 1,
            Backend::StateVector => self.statevector += 1,
            Backend::Circuit => self.circuit += 1,
            Backend::ClassicalDeterministic => self.classical_deterministic += 1,
            Backend::ClassicalRandomized => self.classical_randomized += 1,
            Backend::Recursive => self.recursive += 1,
            Backend::Sparse => self.sparse += 1,
        }
    }

    /// Total jobs tallied.
    pub fn total(&self) -> u64 {
        self.reduced
            + self.statevector
            + self.circuit
            + self.classical_deterministic
            + self.classical_randomized
            + self.recursive
            + self.sparse
    }

    /// How many distinct backends saw at least one job.
    pub fn backends_used(&self) -> u32 {
        [
            self.reduced,
            self.statevector,
            self.circuit,
            self.classical_deterministic,
            self.classical_randomized,
            self.recursive,
            self.sparse,
        ]
        .iter()
        .filter(|&&c| c > 0)
        .count() as u32
    }
}

/// Aggregated statistics for one executed batch.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchMetrics {
    /// Jobs executed successfully.
    pub jobs: u64,
    /// Jobs rejected before execution (validation or planning failure).
    pub rejected: u64,
    /// End-to-end batch wall time in seconds (submission to last result).
    pub wall_time_s: f64,
    /// Jobs per second of batch wall time.
    pub throughput_jobs_per_s: f64,
    /// Search trials across all jobs.
    pub total_trials: u64,
    /// Oracle queries charged across all jobs.
    pub total_queries: u64,
    /// Jobs whose majority answer was the true block.
    pub jobs_correct: u64,
    /// Mean of the per-job success estimates.
    pub mean_success_estimate: f64,
    /// Median per-job latency in microseconds.
    pub latency_us_p50: f64,
    /// 90th-percentile per-job latency in microseconds.
    pub latency_us_p90: f64,
    /// 99th-percentile per-job latency in microseconds.
    pub latency_us_p99: f64,
    /// Slowest per-job latency in microseconds.
    pub latency_us_max: f64,
    /// Partial-search levels run by recursive full-address jobs (every
    /// level is one partial search on a database `K` times smaller than the
    /// last; `O(log N)` per trial).
    pub recursive_levels: u64,
    /// Oracle queries charged by recursive full-address jobs (so
    /// `recursive_queries / recursive_levels` tracks the geometric decay of
    /// per-level cost down the descent).
    pub recursive_queries: u64,
    /// Jobs per backend.
    pub backend_jobs: BackendTally,
    /// Execution-latency histogram per backend over this batch's *executed*
    /// jobs (cache-served repeats, which report `wall_time_us == 0`, are
    /// excluded so the histograms reflect true backend cost — what the
    /// self-calibrating planner will read). Percentile semantics are
    /// [`HistogramSnapshot::percentile`]'s.
    pub backend_latency: BTreeMap<Backend, HistogramSnapshot>,
    /// Plan-cache behaviour during the batch.
    pub plan_cache: PlanCacheStats,
    /// Result-cache behaviour (cumulative over the engine's lifetime; all
    /// zeros when the cache is disabled).
    pub result_cache: ResultCacheStats,
}

impl BatchMetrics {
    /// Aggregates `results` (plus rejection and cache counters) into batch
    /// metrics.
    pub fn aggregate(
        results: &[SearchResult],
        rejected: u64,
        wall_time_s: f64,
        plan_cache: PlanCacheStats,
        result_cache: ResultCacheStats,
    ) -> Self {
        let mut tally = BackendTally::default();
        let mut total_queries = 0u64;
        let mut total_trials = 0u64;
        let mut jobs_correct = 0u64;
        let mut success_sum = 0.0;
        let mut recursive_levels = 0u64;
        let mut recursive_queries = 0u64;
        let mut latencies: Vec<f64> = Vec::with_capacity(results.len());
        let backend_histograms: [Histogram; Backend::ALL.len()] = Default::default();
        for r in results {
            tally.record(r.backend);
            total_queries += r.queries;
            total_trials += u64::from(r.trials);
            jobs_correct += u64::from(r.correct);
            success_sum += r.success_estimate;
            if r.backend == Backend::Recursive {
                recursive_levels += u64::from(r.levels);
                recursive_queries += r.queries;
            }
            latencies.push(r.wall_time_us);
            // Cache-served repeats carry wall_time_us == 0: skip them so the
            // per-backend histograms measure execution, not lookups.
            if r.wall_time_us > 0.0 {
                backend_histograms[r.backend.index()].record(r.wall_time_us);
            }
        }
        let mut backend_latency = BTreeMap::new();
        for backend in Backend::ALL {
            let snap = backend_histograms[backend.index()].snapshot();
            if !snap.is_empty() {
                backend_latency.insert(backend, snap);
            }
        }
        latencies.sort_by(f64::total_cmp);
        let jobs = results.len() as u64;
        Self {
            jobs,
            rejected,
            wall_time_s,
            throughput_jobs_per_s: if wall_time_s > 0.0 {
                jobs as f64 / wall_time_s
            } else {
                0.0
            },
            total_trials,
            total_queries,
            jobs_correct,
            mean_success_estimate: if jobs > 0 {
                success_sum / jobs as f64
            } else {
                0.0
            },
            recursive_levels,
            recursive_queries,
            latency_us_p50: percentile(&latencies, 0.50),
            latency_us_p90: percentile(&latencies, 0.90),
            latency_us_p99: percentile(&latencies, 0.99),
            latency_us_max: latencies.last().copied().unwrap_or(0.0),
            backend_jobs: tally,
            backend_latency,
            plan_cache,
            result_cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(backend: Backend, queries: u64, correct: bool, wall: f64) -> SearchResult {
        SearchResult {
            job_id: 0,
            backend,
            block_found: 0,
            true_block: if correct { 0 } else { 1 },
            correct,
            address_found: (backend == Backend::Recursive).then_some(0),
            levels: if backend == Backend::Recursive { 4 } else { 0 },
            queries,
            success_estimate: if correct { 1.0 } else { 0.0 },
            trials: 2,
            trials_correct: 2 * u32::from(correct),
            wall_time_us: wall,
        }
    }

    #[test]
    fn aggregation_counts_and_percentiles() {
        let results: Vec<SearchResult> = (1..=100)
            .map(|i| result(Backend::Reduced, 10, i % 10 != 0, i as f64))
            .collect();
        let m = BatchMetrics::aggregate(
            &results,
            3,
            2.0,
            PlanCacheStats::default(),
            ResultCacheStats::default(),
        );
        assert_eq!(m.jobs, 100);
        assert_eq!(m.rejected, 3);
        assert_eq!(m.total_queries, 1000);
        assert_eq!(m.total_trials, 200);
        assert_eq!(m.jobs_correct, 90);
        assert_eq!(m.throughput_jobs_per_s, 50.0);
        assert_eq!(m.latency_us_p50, 50.0);
        assert_eq!(m.latency_us_p90, 90.0);
        assert_eq!(m.latency_us_p99, 99.0);
        assert_eq!(m.latency_us_max, 100.0);
        assert_eq!(m.backend_jobs.reduced, 100);
        assert_eq!(m.backend_jobs.backends_used(), 1);
    }

    #[test]
    fn recursive_counters_aggregate_levels_and_queries() {
        let results = vec![
            result(Backend::Recursive, 100, true, 1.0),
            result(Backend::Recursive, 60, true, 1.0),
            result(Backend::Reduced, 40, true, 1.0),
        ];
        let m = BatchMetrics::aggregate(
            &results,
            0,
            1.0,
            PlanCacheStats::default(),
            ResultCacheStats::default(),
        );
        assert_eq!(m.backend_jobs.recursive, 2);
        assert_eq!(m.recursive_levels, 8, "4 levels per recursive result");
        assert_eq!(m.recursive_queries, 160, "block queries not counted");
        assert_eq!(m.total_queries, 200);
    }

    #[test]
    fn empty_batch_is_all_zeros() {
        let m = BatchMetrics::aggregate(
            &[],
            0,
            0.0,
            PlanCacheStats::default(),
            ResultCacheStats::default(),
        );
        assert_eq!(m.jobs, 0);
        assert_eq!(m.throughput_jobs_per_s, 0.0);
        assert_eq!(m.latency_us_p50, 0.0);
    }

    #[test]
    fn backend_latency_histograms_cover_executed_jobs_only() {
        let results = vec![
            result(Backend::Reduced, 10, true, 100.0),
            result(Backend::Reduced, 10, true, 200.0),
            result(Backend::Reduced, 10, true, 0.0), // cache-served repeat
            result(Backend::Recursive, 50, true, 900.0),
        ];
        let m = BatchMetrics::aggregate(
            &results,
            0,
            1.0,
            PlanCacheStats::default(),
            ResultCacheStats::default(),
        );
        let reduced = &m.backend_latency[&Backend::Reduced];
        assert_eq!(reduced.count, 2, "the wall_time_us == 0 hit is excluded");
        assert_eq!(reduced.max_us, 200.0);
        let recursive = &m.backend_latency[&Backend::Recursive];
        assert_eq!(recursive.count, 1);
        assert_eq!(recursive.p99(), 900.0);
        assert!(
            !m.backend_latency.contains_key(&Backend::Circuit),
            "idle backends are omitted"
        );
        let json = serde_json::to_string(&m).unwrap();
        let back: BatchMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn engine_obs_snapshots_round_trip_and_merge() {
        let obs = EngineObs::new();
        obs.plan.record(3.0);
        obs.plan.record(5.0);
        obs.cache_lookup.record(0.4);
        obs.record_execute(Backend::StateVector, 450.0);
        obs.record_execute(Backend::StateVector, 900.0);
        let snap = obs.snapshot();
        assert_eq!(snap.plan_us.count, 2);
        assert_eq!(snap.cache_lookup_us.count, 1);
        assert_eq!(snap.backend_latency[&Backend::StateVector].count, 2);
        assert_eq!(snap.backend_latency.len(), 1, "idle backends omitted");
        let json = serde_json::to_string(&snap).unwrap();
        let back: EngineObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        // Shard merging: two engines' snapshots fold into the union.
        let other = EngineObs::new();
        other.record_execute(Backend::StateVector, 100.0);
        let mut merged = snap.backend_latency[&Backend::StateVector].clone();
        merged.merge(&other.snapshot().backend_latency[&Backend::StateVector]);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.max_us, 900.0);
    }

    #[test]
    fn tally_round_trips_through_json() {
        let mut tally = BackendTally::default();
        tally.record(Backend::Circuit);
        tally.record(Backend::Circuit);
        tally.record(Backend::ClassicalRandomized);
        let json = serde_json::to_string(&tally).unwrap();
        let back: BackendTally = serde_json::from_str(&json).unwrap();
        assert_eq!(tally, back);
        assert_eq!(back.total(), 3);
        assert_eq!(back.backends_used(), 2);
    }
}
