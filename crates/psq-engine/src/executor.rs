//! Batch execution over the worker pool.
//!
//! The [`Engine`] owns a persistent `psq_parallel::WorkerPool` (work-
//! stealing: per-worker deques fed from a shared injector), a shared
//! [`Planner`] (with its memoised plan cache), and a sharded
//! [`ResultCache`]. [`Engine::run_batch`] validates and plans every job,
//! serves repeats straight from the result cache, fans the rest out over
//! the pool, and aggregates results into [`BatchMetrics`]. Ordering and
//! determinism:
//!
//! * results come back in job-submission order regardless of which worker
//!   ran what (`WorkerPool::map` reassembles by submission index);
//! * each job's randomness comes from its own seed, so a batch's results —
//!   wall times aside — are bit-identical run to run, across thread counts,
//!   and identical to executing each job alone;
//! * a cache hit returns exactly the deterministic fields a cold execution
//!   would produce (the cache key covers every input the runners read), so
//!   caching is observable only through wall times and the hit counters;
//! * a job whose execution panics fails alone: it is reported in
//!   [`BatchReport::failed`], and the rest of its batch is served as usual.

use crate::backends;
use crate::cache::{CacheKey, ResultCache, ResultCacheStats, DEFAULT_RESULT_CACHE_CAPACITY};
use crate::metrics::{BatchMetrics, EngineObs, EngineObsSnapshot};
use crate::planner::{ExecutionPlan, Planner};
use crate::spec::{RejectedJob, SearchJob, SearchResult};
use psq_obs::{clock, trace, LocalHistogram, Span};
use psq_parallel::WorkerPool;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Engine construction options.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads; `None` sizes the pool to the machine.
    pub threads: Option<usize>,
    /// Whether repeated jobs are served from the result cache (on by
    /// default; disable for honest cold-path benchmarking).
    pub result_cache: bool,
    /// Approximate bound on stored results when the cache is enabled.
    pub result_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: None,
            result_cache: true,
            result_cache_capacity: DEFAULT_RESULT_CACHE_CAPACITY,
        }
    }
}

/// A fully executed batch: per-job results, rejects, and aggregate metrics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Results in job-submission order.
    pub results: Vec<SearchResult>,
    /// Jobs that failed validation or planning, with reasons.
    pub rejected: Vec<RejectedJob>,
    /// Jobs whose execution panicked, with the panic message, in
    /// submission order. They get no result and no result-cache entry.
    pub failed: Vec<RejectedJob>,
    /// Aggregate statistics.
    pub metrics: BatchMetrics,
}

/// The batched, multi-backend partial-search execution engine.
pub struct Engine {
    planner: Arc<Planner>,
    pool: WorkerPool,
    /// `None` when disabled through [`EngineConfig::result_cache`].
    result_cache: Option<Arc<ResultCache>>,
    /// Always-on per-stage latency histograms (plan, cache lookup, execute
    /// per backend), shared with the pool workers.
    obs: Arc<EngineObs>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl Engine {
    /// Builds an engine with its own planner, worker pool and result cache.
    pub fn new(config: EngineConfig) -> Self {
        let pool = match config.threads {
            Some(threads) => WorkerPool::new(threads),
            None => WorkerPool::with_default_threads(),
        };
        Self {
            planner: Arc::new(Planner::new()),
            pool,
            result_cache: config
                .result_cache
                .then(|| Arc::new(ResultCache::with_capacity(config.result_cache_capacity))),
            obs: Arc::new(EngineObs::new()),
        }
    }

    /// The shared planner (schedule cache statistics live here).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Worker threads serving this engine.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Result-cache statistics (all zeros when the cache is disabled).
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        self.result_cache
            .as_ref()
            .map(|cache| cache.stats())
            .unwrap_or_default()
    }

    /// The engine's observability registry (per-stage latency histograms,
    /// cumulative over the engine's lifetime).
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// A serialisable snapshot of the per-stage latency histograms.
    pub fn obs_snapshot(&self) -> EngineObsSnapshot {
        self.obs.snapshot()
    }

    /// Executes one job synchronously on the calling thread (the single-job
    /// serving path), going through the result cache like the batch path.
    pub fn run_job(&self, job: &SearchJob) -> Result<SearchResult, String> {
        let plan_span = Span::enter_always(trace::stage::PLAN);
        let planned = self.planner.plan(job);
        self.obs
            .plan
            .record(plan_span.finish(job.id).expect("always timed"));
        let plan = planned?;
        let key = self
            .result_cache
            .as_ref()
            .map(|_| CacheKey::new(job, plan.backend));
        if let (Some(cache), Some(key)) = (&self.result_cache, &key) {
            let cache_span = Span::enter_always(trace::stage::CACHE);
            let hit = cache.lookup_with_key(key, job.id);
            self.obs
                .cache_lookup
                .record(cache_span.finish(job.id).expect("always timed"));
            if let Some(hit) = hit {
                return Ok(hit);
            }
        }
        let result = execute_planned(job, &plan, &self.obs);
        if let (Some(cache), Some(key)) = (&self.result_cache, key) {
            cache.insert_with_key(key, result);
        }
        Ok(result)
    }

    /// Executes a batch: plans every job, serves repeats from the result
    /// cache, fans the rest out over the pool, and aggregates metrics.
    pub fn run_batch(&self, jobs: &[SearchJob]) -> BatchReport {
        let started = Instant::now();
        // Plan on the submitting thread: planning is cheap (cache-memoised),
        // failing fast keeps rejects out of the pool, and handing the
        // resolved plan to the worker keeps the plan-cache lock off the
        // execution hot path. Cache lookups also happen here — a hit costs
        // a sharded read lock, far less than a pool round trip.
        let mut rejected = Vec::new();
        let mut results: Vec<Option<SearchResult>> = Vec::with_capacity(jobs.len());
        // Each pending entry carries the cache key built during planning
        // (`None` when the cache is disabled) so insert-after-execution does
        // not rebuild and re-hash it.
        let mut pending: Vec<(usize, SearchJob, ExecutionPlan, Option<CacheKey>)> = Vec::new();
        // Repeats of a job already pending in *this* batch (same cache key):
        // executed once, then copied to every repeat's slot.
        let mut duplicates: Vec<(usize, usize, u64)> = Vec::new();
        let mut pending_keys: std::collections::HashMap<CacheKey, usize> =
            std::collections::HashMap::new();
        // This loop serves a result-cache hit in a few hundred ns, so its
        // timing chains coarse clock stamps (the plan end stamp starts the
        // cache lookup) and records into unsynchronised scratch histograms
        // flushed once after the loop — per-stage trace events still go out
        // per job when tracing is on. Each event resolves the job's bound
        // distributed trace id (`psq_obs::trace::bind_trace`, set by the
        // serving layer on admission), so batch stage spans stitch into the
        // cross-process chain without threading an id through this loop.
        let mut plan_scratch = LocalHistogram::new();
        let mut cache_scratch = LocalHistogram::new();
        // `cursor` is the last stamp taken; each stage is measured from it,
        // so per-job slot bookkeeping is charged to the next job's plan —
        // tens of ns, invisible at log2-bucket resolution.
        let mut cursor = clock::now();
        for job in jobs {
            let planned = self.planner.plan(job);
            let plan_done = clock::now();
            let plan_us = clock::us_between(cursor, plan_done);
            cursor = plan_done;
            plan_scratch.record(plan_us);
            trace::event(job.id, trace::stage::PLAN, plan_us);
            match planned {
                Ok(plan) => {
                    let slot = results.len();
                    results.push(None);
                    match &self.result_cache {
                        Some(cache) => {
                            // Repeat-of-pending is checked before the map
                            // lookup so a repeat counts as exactly one hit
                            // (credited when served) and never as a miss —
                            // `misses` keeps meaning "lookups that fell
                            // through to execution".
                            let key = CacheKey::new(job, plan.backend);
                            if let Some(&origin) = pending_keys.get(&key) {
                                duplicates.push((slot, origin, job.id));
                            } else {
                                let hit = cache.lookup_with_key(&key, job.id);
                                // Charges key construction and the repeat
                                // check to the lookup — both are part of
                                // serving from cache.
                                let lookup_done = clock::now();
                                let cache_us = clock::us_between(cursor, lookup_done);
                                cursor = lookup_done;
                                cache_scratch.record(cache_us);
                                trace::event(job.id, trace::stage::CACHE, cache_us);
                                if let Some(hit) = hit {
                                    results[slot] = Some(hit);
                                } else {
                                    pending_keys.insert(key, slot);
                                    pending.push((slot, *job, plan, Some(key)));
                                }
                            }
                        }
                        None => pending.push((slot, *job, plan, None)),
                    }
                }
                Err(reason) => rejected.push(RejectedJob {
                    job_id: job.id,
                    reason,
                }),
            }
        }
        plan_scratch.flush_into(&self.obs.plan);
        cache_scratch.flush_into(&self.obs.cache_lookup);
        let slots_and_keys: Vec<(usize, u64, Option<CacheKey>)> = pending
            .iter()
            .map(|(slot, job, _, key)| (*slot, job.id, *key))
            .collect();
        let tasks: Vec<_> = pending
            .into_iter()
            .map(|(_, job, plan, _)| {
                let obs = Arc::clone(&self.obs);
                move || execute_planned(&job, &plan, &obs)
            })
            .collect();
        // Failed jobs by slot: a panic is that job's failure alone.
        let mut failed: Vec<(usize, RejectedJob)> = Vec::new();
        // `map` returns in submission order, which is exactly `slots` order.
        for ((slot, job_id, key), outcome) in slots_and_keys.into_iter().zip(self.pool.map(tasks)) {
            match outcome {
                Ok(result) => {
                    if let (Some(cache), Some(key)) = (&self.result_cache, key) {
                        cache.insert_with_key(key, result);
                    }
                    results[slot] = Some(result);
                }
                Err(payload) => failed.push((
                    slot,
                    RejectedJob {
                        job_id,
                        reason: format!("execution panicked: {}", panic_message(&*payload)),
                    },
                )),
            }
        }
        // In-batch repeats are copies of their original's result — served
        // like cache hits (id re-stamped, wall time charged to the lookup),
        // and counted as hits since the repeat was absorbed by memoisation.
        // A repeat of a failed job fails the same way.
        if !duplicates.is_empty() {
            if let Some(cache) = &self.result_cache {
                cache.record_hits(duplicates.len() as u64);
            }
            for (slot, origin_slot, job_id) in duplicates {
                match results[origin_slot] {
                    Some(mut served) => {
                        served.job_id = job_id;
                        served.wall_time_us = 0.0;
                        results[slot] = Some(served);
                    }
                    None => {
                        let (_, origin) = failed
                            .iter()
                            .find(|(failed_slot, _)| *failed_slot == origin_slot)
                            .expect("an executed job without a result failed");
                        let reason = origin.reason.clone();
                        failed.push((slot, RejectedJob { job_id, reason }));
                    }
                }
            }
            failed.sort_by_key(|(slot, _)| *slot);
        }
        let wall_time_s = started.elapsed().as_secs_f64();
        let results: Vec<SearchResult> = results.into_iter().flatten().collect();
        let metrics = BatchMetrics::aggregate(
            &results,
            rejected.len() as u64,
            wall_time_s,
            self.planner.cache().stats(),
            self.result_cache_stats(),
        );
        BatchReport {
            results,
            rejected,
            failed: failed.into_iter().map(|(_, job)| job).collect(),
            metrics,
        }
    }
}

/// A cloneable, thread-shareable handle to an [`Engine`].
///
/// The engine itself is `Sync` (planner, pool and result cache are all
/// internally synchronised), so serving layers that fan work in from many
/// threads — the `psq-serve` readers and its coalescer — share one engine
/// by cloning this handle instead of threading `Arc<Engine>` everywhere.
/// Dereferences to [`Engine`]; dropping the last clone shuts the pool down.
#[derive(Clone)]
pub struct EngineHandle {
    engine: Arc<Engine>,
}

impl EngineHandle {
    /// Builds a fresh engine behind a shareable handle.
    pub fn new(config: EngineConfig) -> Self {
        Engine::new(config).into_handle()
    }
}

impl Default for EngineHandle {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl std::ops::Deref for EngineHandle {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl Engine {
    /// Wraps this engine in a cloneable [`EngineHandle`].
    pub fn into_handle(self) -> EngineHandle {
        EngineHandle {
            engine: Arc::new(self),
        }
    }
}

/// The message a panic carried (`panic!` with a literal or a format string),
/// or a placeholder for any other payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Executes an already-planned job, stamping its wall time. The execution
/// span subsumes the wall-time `Instant` the stamp always needed, feeds the
/// per-backend latency histogram, and emits an `execute:<backend>` trace
/// event when tracing is on.
fn execute_planned(job: &SearchJob, plan: &ExecutionPlan, obs: &EngineObs) -> SearchResult {
    // Noisy state-vector runs carry their own stage label so the trace
    // stream separates trajectory executions from ideal ones; their latency
    // still lands in the state-vector histogram (same substrate, and the
    // snapshot shape stays one histogram per backend).
    let label = match job.effective_noise() {
        Some(_) => trace::stage::EXECUTE_NOISY,
        None => plan.backend.stage_label(),
    };
    let span = Span::enter_always(label);
    let mut result = backends::execute(job, plan);
    let us = span.finish(job.id).expect("always timed");
    result.wall_time_us = us;
    obs.record_execute(plan.backend, us);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{generate_mixed_batch, BackendHint};

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let engine = Engine::new(EngineConfig {
            threads: Some(4),
            ..EngineConfig::default()
        });
        let jobs: Vec<SearchJob> = (0..40)
            .map(|id| SearchJob::new(id, 1 << 10, 4, (id * 37) % (1 << 10)))
            .collect();
        let report = engine.run_batch(&jobs);
        assert_eq!(report.results.len(), 40);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.job_id, i as u64);
        }
        assert!(report.rejected.is_empty());
    }

    #[test]
    fn batch_matches_single_job_execution_bit_for_bit() {
        let engine = Engine::new(EngineConfig {
            threads: Some(8),
            ..EngineConfig::default()
        });
        let jobs = generate_mixed_batch(24, 7);
        let report = engine.run_batch(&jobs);
        let solo = Engine::new(EngineConfig {
            threads: Some(1),
            ..EngineConfig::default()
        });
        for (job, batched) in jobs.iter().zip(&report.results) {
            let alone = solo.run_job(job).expect("runs alone");
            assert_eq!(
                batched.deterministic_fields(),
                alone.deterministic_fields(),
                "job {} diverged between batch and solo execution",
                job.id
            );
        }
    }

    #[test]
    fn invalid_jobs_are_rejected_not_fatal() {
        let engine = Engine::default();
        let mut jobs = vec![SearchJob::new(0, 1 << 10, 4, 5)];
        jobs.push(SearchJob::new(1, 10, 7, 5)); // k does not divide n
        jobs.push(SearchJob::new(2, 1 << 10, 4, 1 << 11)); // target outside
        jobs.push(SearchJob::new(3, 96, 4, 5).with_backend(BackendHint::Circuit)); // not pow2
        let report = engine.run_batch(&jobs);
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.rejected.len(), 3);
        assert_eq!(report.metrics.jobs, 1);
        assert_eq!(report.metrics.rejected, 3);
        assert_eq!(
            report.rejected.iter().map(|r| r.job_id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn metrics_reflect_the_batch() {
        let engine = Engine::default();
        let jobs = generate_mixed_batch(32, 3);
        let report = engine.run_batch(&jobs);
        let m = &report.metrics;
        assert_eq!(m.jobs, 32);
        assert_eq!(m.backend_jobs.total(), 32);
        assert!(
            m.backend_jobs.backends_used() >= 4,
            "mixed batch spans backends"
        );
        assert!(m.throughput_jobs_per_s > 0.0);
        assert!(m.total_queries > 0);
        assert!(m.latency_us_max >= m.latency_us_p50);
        // Noisy trajectories at √N-scale query counts legitimately miss
        // (one depolarizing collapse scrambles the rotation), so the
        // near-perfect correctness floor applies to the ideal jobs only.
        let noisy = jobs
            .iter()
            .filter(|j| j.effective_noise().is_some())
            .count() as u64;
        assert!(noisy > 0, "mixed batch includes noisy sparse jobs");
        assert!(
            m.jobs_correct + noisy + 2 >= 32,
            "ideal partial search should almost never miss \
             ({} correct, {noisy} noisy)",
            m.jobs_correct
        );
        // Mixed batches repeat (n, k, ε) shapes: the cache must be hitting.
        assert!(m.plan_cache.hits > 0);
        assert_eq!(m.plan_cache.entries, m.plan_cache.misses);
    }

    #[test]
    fn repeated_batches_are_served_from_the_result_cache() {
        let engine = Engine::new(EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        });
        let jobs = generate_mixed_batch(24, 5);
        let cold = engine.run_batch(&jobs);
        let cold_hits = cold.metrics.result_cache.hits;
        let warm = engine.run_batch(&jobs);
        assert!(
            warm.metrics.result_cache.hits >= cold_hits + 24,
            "every repeated job must hit ({} -> {})",
            cold_hits,
            warm.metrics.result_cache.hits
        );
        assert!(warm.metrics.result_cache.entries > 0);
        for (a, b) in cold.results.iter().zip(&warm.results) {
            assert_eq!(
                a.deterministic_fields(),
                b.deterministic_fields(),
                "cached result diverged from cold execution"
            );
        }
        // A cache-disabled engine produces the identical deterministic
        // results and reports an all-zero cache.
        let uncached = Engine::new(EngineConfig {
            threads: Some(2),
            result_cache: false,
            ..EngineConfig::default()
        });
        let reference = uncached.run_batch(&jobs);
        assert_eq!(reference.metrics.result_cache, ResultCacheStats::default());
        for (a, b) in reference.results.iter().zip(&warm.results) {
            assert_eq!(a.deterministic_fields(), b.deterministic_fields());
        }
    }

    #[test]
    fn duplicate_jobs_within_one_batch_execute_once() {
        let engine = Engine::new(EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        });
        let template = SearchJob::new(0, 1 << 12, 8, 33).with_seed(7);
        let jobs: Vec<SearchJob> = (0..10)
            .map(|id| {
                let mut job = template;
                job.id = id;
                job
            })
            .collect();
        let report = engine.run_batch(&jobs);
        assert_eq!(report.results.len(), 10);
        // Nine of the ten are in-batch repeats served from the cache.
        assert_eq!(report.metrics.result_cache.hits, 9);
        let base = report.results[0];
        for (id, result) in report.results.iter().enumerate() {
            assert_eq!(result.job_id, id as u64, "ids echo per submission");
            // Everything but the echoed id matches the executed original.
            assert_eq!(result.backend, base.backend);
            assert_eq!(result.block_found, base.block_found);
            assert_eq!(result.true_block, base.true_block);
            assert_eq!(result.queries, base.queries);
            assert_eq!(result.success_estimate, base.success_estimate);
            assert_eq!(result.trials_correct, base.trials_correct);
        }
    }

    #[test]
    fn run_job_round_trips_through_the_cache() {
        let engine = Engine::default();
        let job = SearchJob::new(3, 1 << 16, 8, 123);
        let first = engine.run_job(&job).expect("runs");
        assert_eq!(engine.result_cache_stats().hits, 0);
        let second = engine.run_job(&job).expect("runs again");
        assert_eq!(engine.result_cache_stats().hits, 1);
        assert_eq!(first.deterministic_fields(), second.deterministic_fields());
        assert_eq!(second.wall_time_us, 0.0, "hits report lookup-only time");
    }

    #[test]
    fn engine_handle_shares_one_engine_across_threads() {
        fn assert_shareable<T: Send + Sync + Clone>() {}
        assert_shareable::<EngineHandle>();
        let handle = EngineHandle::new(EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        });
        let jobs = generate_mixed_batch(12, 3);
        let reference = handle.run_batch(&jobs);
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let handle = handle.clone();
                let jobs = jobs.clone();
                std::thread::spawn(move || handle.run_batch(&jobs))
            })
            .collect();
        for submitter in submitters {
            let report = submitter.join().expect("submitter thread");
            for (a, b) in reference.results.iter().zip(&report.results) {
                assert_eq!(a.deterministic_fields(), b.deterministic_fields());
            }
        }
        // All submissions hit the one shared result cache.
        assert!(handle.result_cache_stats().hits >= 36);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_panicking_job_fails_alone() {
        let engine = Engine::new(EngineConfig {
            threads: Some(2),
            ..EngineConfig::default()
        });
        let poison = SearchJob::new(1, 1 << 10, 4, 5).with_seed(backends::POISON_SEED);
        let mut repeat = poison;
        repeat.id = 3;
        let jobs = [
            SearchJob::new(0, 1 << 10, 4, 7),
            poison,
            SearchJob::new(2, 1 << 12, 4, 9),
            repeat,
        ];
        for _ in 0..2 {
            let report = engine.run_batch(&jobs);
            let ids: Vec<u64> = report.results.iter().map(|r| r.job_id).collect();
            assert_eq!(ids, [0, 2], "batch-mates are served");
            assert!(report.rejected.is_empty());
            let failed: Vec<u64> = report.failed.iter().map(|f| f.job_id).collect();
            // The in-batch repeat fails the same way, and nothing was
            // cached: the second pass fails again.
            assert_eq!(failed, [1, 3]);
            for failure in &report.failed {
                assert_eq!(
                    failure.reason,
                    "execution panicked: the job carries the poison seed"
                );
            }
        }
        assert_eq!(
            engine.run_batch(&jobs[..1]).results.len(),
            1,
            "the pool serves on"
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let engine = Engine::default();
        let jobs = generate_mixed_batch(8, 11);
        let report = engine.run_batch(&jobs);
        let json = serde_json::to_string_pretty(&report).expect("serialise");
        let back: BatchReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(report, back);
    }
}
