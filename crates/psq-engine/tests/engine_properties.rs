//! Property tests for the engine against direct algorithm invocation.
//!
//! The engine must be a *transparent* serving layer: for any job, the
//! planner-selected quantum backend has to report exactly the block, query
//! count and success probability that calling `psq_partial::PartialSearch`
//! directly (with the schedule's ε and the job's seed) would produce.

use proptest::prelude::*;
use psq_engine::{BackendHint, Engine, EngineConfig, NoiseSpec, Planner, SearchJob, SweepSpec};
use psq_partial::recursive::derive_seed;
use psq_partial::{PartialSearch, RecursiveSearch};
use psq_sim::oracle::{Database, Partition};
use psq_sim::scratch::AmplitudeScratch;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(n, k, target, seed)` over a grid of valid power-of-two shapes.
fn job_shape() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    (7u32..12, 1u32..4, 0u64..1 << 20, 0u64..u64::MAX / 2).prop_filter_map(
        "k must leave at least two items per block",
        |(n_exp, k_exp, target, seed)| {
            let n = 1u64 << n_exp;
            let k = 1u64 << k_exp;
            if n < 2 * k {
                return None;
            }
            Some((n, k, target % n, seed))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn statevector_backend_matches_direct_invocation((n, k, target, seed) in job_shape()) {
        let engine = Engine::new(EngineConfig { threads: Some(2), ..EngineConfig::default() });
        let job = SearchJob::new(0, n, k, target)
            .with_backend(BackendHint::StateVector)
            .with_seed(seed);
        let served = engine.run_job(&job).expect("job plans");

        // Direct invocation: same ε (from the engine's own schedule), same
        // seed, no engine in the loop.
        let plan = Planner::new().plan(&job).expect("plans");
        let db = Database::new(n, target);
        let partition = Partition::new(n, k);
        let mut rng = StdRng::seed_from_u64(seed);
        let direct = PartialSearch::with_epsilon(plan.schedule.plan.epsilon)
            .run_statevector(&db, &partition, &mut rng);

        prop_assert_eq!(served.block_found, direct.outcome.reported_block);
        prop_assert_eq!(served.true_block, direct.outcome.true_block);
        prop_assert_eq!(served.queries, direct.outcome.queries);
        prop_assert_eq!(served.success_estimate, direct.success_probability);
    }

    #[test]
    fn reduced_backend_matches_direct_invocation((n, k, _target, seed) in job_shape()) {
        let engine = Engine::new(EngineConfig { threads: Some(2), ..EngineConfig::default() });
        let job = SearchJob::new(0, n, k, _target)
            .with_backend(BackendHint::Reduced)
            .with_seed(seed);
        let served = engine.run_job(&job).expect("job plans");

        let plan = Planner::new().plan(&job).expect("plans");
        let direct = PartialSearch::with_epsilon(plan.schedule.plan.epsilon)
            .run_reduced(n as f64, k as f64);

        prop_assert_eq!(served.queries, direct.queries);
        prop_assert_eq!(served.success_estimate, direct.success_probability);
    }

    #[test]
    fn auto_backend_queries_match_the_published_schedule((n, k, target, seed) in job_shape()) {
        // Whatever backend Auto picks, the query count per trial must equal
        // the memoised schedule's ℓ1 + ℓ2 + 1 when it picks quantum.
        let engine = Engine::new(EngineConfig { threads: Some(2), ..EngineConfig::default() });
        let job = SearchJob::new(0, n, k, target).with_seed(seed);
        let plan = engine.planner().plan(&job).expect("plans");
        let served = engine.run_job(&job).expect("runs");
        if matches!(
            served.backend,
            psq_engine::Backend::Reduced
                | psq_engine::Backend::StateVector
                | psq_engine::Backend::Circuit
        ) {
            prop_assert_eq!(served.queries, plan.schedule.plan.total_queries);
        }
        prop_assert!(served.success_estimate >= 0.0 && served.success_estimate <= 1.0 + 1e-12);
    }

    #[test]
    fn batches_are_bit_identical_across_pool_sizes(
        count in 4usize..24,
        batch_seed in 0u64..10_000,
        threads in 2usize..9,
    ) {
        // The work-stealing scheduler must be invisible in the results: a
        // mixed batch on an N-thread pool is bit-identical (wall times
        // aside) to the same batch on a single worker, whatever the steal
        // interleaving was. Caches off so every job truly executes.
        let config = EngineConfig { result_cache: false, ..EngineConfig::default() };
        let solo = Engine::new(EngineConfig { threads: Some(1), ..config });
        let pooled = Engine::new(EngineConfig { threads: Some(threads), ..config });
        let jobs = psq_engine::generate_mixed_batch(count, batch_seed);
        let a = solo.run_batch(&jobs);
        let b = pooled.run_batch(&jobs);
        prop_assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            prop_assert_eq!(x.deterministic_fields(), y.deterministic_fields());
        }
    }

    #[test]
    fn cached_repeats_match_cold_execution((n, k, target, seed) in job_shape()) {
        // The result cache must be observationally pure: a warm engine and a
        // cold engine agree on every deterministic field.
        let cached = Engine::new(EngineConfig { threads: Some(2), ..EngineConfig::default() });
        let job = SearchJob::new(0, n, k, target).with_seed(seed);
        let first = cached.run_job(&job).expect("cold run");
        let second = cached.run_job(&job).expect("warm run");
        prop_assert_eq!(first.deterministic_fields(), second.deterministic_fields());
        prop_assert!(cached.result_cache_stats().hits >= 1);
        let cold = Engine::new(EngineConfig {
            threads: Some(2),
            result_cache: false,
            ..EngineConfig::default()
        });
        let reference = cold.run_job(&job).expect("uncached run");
        prop_assert_eq!(first.deterministic_fields(), reference.deterministic_fields());
    }

    #[test]
    fn recursive_one_level_cutoff_matches_flat_partial_search((n, k, target, seed) in job_shape()) {
        // With the brute-force cutoff raised to the block size, the descent
        // degenerates to exactly one partial-search level plus the tail —
        // and that level must be *bit-identical* to a flat single-level
        // PartialSearch run with the same derived seed (the recursion adds
        // bookkeeping, never different dynamics).
        let search = RecursiveSearch {
            k,
            brute_force_cutoff: n / k,
            statevector_cutoff: n, // keep the single level on the exact kernels
            partial: PartialSearch::tuned(),
        };
        let mut scratch = AmplitudeScratch::new();
        let run = search.run_seeded(n, target, seed, &mut scratch);
        prop_assert_eq!(run.levels.len(), 2, "one quantum level + the tail");

        let db = Database::new(n, target);
        let partition = Partition::new(n, k);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
        let flat = PartialSearch::tuned().run_statevector(&db, &partition, &mut rng);
        prop_assert_eq!(run.levels[0].block_found, flat.outcome.reported_block);
        prop_assert_eq!(run.levels[0].queries, flat.outcome.queries);
        prop_assert_eq!(
            run.levels[0].success_probability.to_bits(),
            flat.success_probability.to_bits()
        );
        // The tail brute-forces the block the flat search reported.
        let block_range = partition.block_range(flat.outcome.reported_block);
        prop_assert!(block_range.contains(&run.outcome.reported_target));
        prop_assert_eq!(
            run.outcome.queries,
            flat.outcome.queries + run.levels[1].queries
        );
    }

    #[test]
    fn plans_are_cached_deterministically((n, k, target, _seed) in job_shape(), err in 0.001f64..0.2) {
        let job = SearchJob::new(0, n, k, target).with_error_target(err);
        let planner = Planner::new();
        let first = planner.plan(&job).expect("plans");
        let second = planner.plan(&job).expect("plans again");
        // Same spec → identical plan, and the second lookup was a hit.
        prop_assert_eq!(first, second);
        let stats = planner.cache().stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert!(stats.hits >= 1);
        // A fresh planner computes the identical schedule from scratch.
        let fresh = Planner::new().plan(&job).expect("fresh plan");
        prop_assert_eq!(first, fresh);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An explicit all-zero noise spec is the identity: at every thread
    /// count, the noisy path with `p = 0` must return bit-for-bit what the
    /// ideal state-vector backend returns for the same job (the all-zero
    /// spec routes to the untouched ideal runner, so nothing — not the
    /// cache key, not the planner, not the kernels — may tell them apart).
    #[test]
    fn zero_rate_noise_is_bit_identical_to_ideal_at_any_thread_count(
        (n, k, target, seed) in job_shape(),
    ) {
        let ideal_job = SearchJob::new(0, n, k, target)
            .with_backend(BackendHint::StateVector)
            .with_seed(seed);
        let noisy_job = ideal_job.with_noise(NoiseSpec::ideal());
        let config = EngineConfig { result_cache: false, ..EngineConfig::default() };
        let reference = Engine::new(EngineConfig { threads: Some(1), ..config })
            .run_job(&ideal_job)
            .expect("ideal run");
        for threads in [1usize, 2, 4] {
            let engine = Engine::new(EngineConfig { threads: Some(threads), ..config });
            let result = engine.run_job(&noisy_job).expect("zero-noise run");
            prop_assert_eq!(
                reference.deterministic_fields(),
                result.deterministic_fields(),
                "{}-thread zero-noise run diverged from ideal",
                threads
            );
            prop_assert_eq!(
                reference.success_estimate.to_bits(),
                result.success_estimate.to_bits()
            );
        }
    }

    /// A fixed-seed depolarizing job is a pure function of its spec: every
    /// run, at every thread count, reproduces the same bits (per-trial
    /// seeds derive from the job seed, so neither the scheduler nor the
    /// trial loop order can leak in).
    #[test]
    fn fixed_seed_depolarizing_jobs_are_bit_identical_across_runs(
        (n, k, target, seed) in job_shape(),
        rate in 0.005f64..0.2,
    ) {
        let job = SearchJob::new(0, n, k, target)
            .with_seed(seed)
            .with_trials(3)
            .with_noise(NoiseSpec { depolarizing: rate, ..NoiseSpec::ideal() });
        let config = EngineConfig { result_cache: false, ..EngineConfig::default() };
        let reference = Engine::new(EngineConfig { threads: Some(1), ..config })
            .run_job(&job)
            .expect("noisy run");
        for threads in [1usize, 2, 4] {
            let engine = Engine::new(EngineConfig { threads: Some(threads), ..config });
            let result = engine.run_job(&job).expect("repeat run");
            prop_assert_eq!(
                reference.deterministic_fields(),
                result.deterministic_fields(),
                "{}-thread repeat diverged",
                threads
            );
            prop_assert_eq!(
                reference.success_estimate.to_bits(),
                result.success_estimate.to_bits()
            );
        }
    }

    /// A sweep report is a pure function of `(base spec, sweep spec)`:
    /// however the expanded grid is chunked into batches — one batch, one
    /// point at a time, or uneven pieces — the per-point results and the
    /// fitted thresholds are identical.
    #[test]
    fn sweeps_are_pure_functions_of_spec_and_seed_regardless_of_chunking(
        seed in 0u64..10_000,
        chunk in 1usize..5,
    ) {
        let base = SearchJob::new(0, 1 << 9, 4, 17).with_seed(seed).with_trials(2);
        let spec = SweepSpec {
            p: vec![0.0, 0.05, 0.1, 0.2],
            k: vec![4, 8],
            ..SweepSpec::default()
        };
        let config = EngineConfig {
            threads: Some(2),
            result_cache: false,
            ..EngineConfig::default()
        };
        let whole = Engine::new(config)
            .run_sweep(&base, &spec)
            .expect("sweep runs");
        // Re-run the same grid through a fresh engine in `chunk`-sized
        // batches; every point must come back bit-identical.
        let jobs = spec.expand(&base).expect("valid sweep");
        let engine = Engine::new(config);
        let mut chunked = Vec::new();
        for piece in jobs.chunks(chunk) {
            chunked.extend(engine.run_batch(piece).results);
        }
        prop_assert_eq!(whole.points.len(), chunked.len());
        for (point, rerun) in whole.points.iter().zip(&chunked) {
            prop_assert_eq!(
                point.result.deterministic_fields(),
                rerun.deterministic_fields()
            );
            prop_assert_eq!(
                point.result.success_estimate.to_bits(),
                rerun.success_estimate.to_bits()
            );
        }
    }
}

/// Recursive full-address jobs are pure functions of their spec: a
/// multi-trial job spanning reduced and state-vector levels must come back
/// bit-identical from 1-, 2- and 4-thread engines (per-level and per-trial
/// seeding leaves the scheduler no influence over the descent).
#[test]
fn recursive_jobs_are_bit_identical_across_engine_thread_counts() {
    let job = SearchJob::full_address(0, 1 << 18, 4, 201_773)
        .with_seed(424_242)
        .with_trials(2);
    let reference = Engine::new(EngineConfig {
        threads: Some(1),
        result_cache: false,
        ..EngineConfig::default()
    })
    .run_job(&job)
    .expect("single-threaded run");
    assert_eq!(reference.address_found, Some(201_773));
    assert!(reference.levels > 0);
    for threads in [2usize, 4] {
        let engine = Engine::new(EngineConfig {
            threads: Some(threads),
            result_cache: false,
            ..EngineConfig::default()
        });
        let result = engine.run_job(&job).expect("multi-threaded run");
        assert_eq!(
            reference.deterministic_fields(),
            result.deterministic_fields(),
            "{threads}-thread engine diverged on a full-address job"
        );
        assert_eq!(
            reference.success_estimate.to_bits(),
            result.success_estimate.to_bits()
        );
    }
}

/// A state-vector job large enough to cross the kernels' intra-state
/// parallel threshold (`2 × FIXED_CHUNK` amplitudes) runs each sweep as a
/// region on the engine's pool. Sent alone through `run_batch`, the idle
/// workers join its regions; in a two-job batch on a two-worker engine no
/// worker is idle, so each job's chunks run on its own worker; `run_job`
/// runs them serially on the test thread. The fixed chunk layout makes the
/// sweeps' floating-point folds independent of who runs the chunks, so all
/// of these must agree bit for bit across 1-, 2- and 4-worker engines.
#[test]
fn large_statevector_jobs_are_bit_identical_across_engine_thread_counts() {
    let n = 1u64 << 18;
    let lone = SearchJob::new(0, n, 8, 191_919)
        .with_backend(BackendHint::StateVector)
        .with_seed(7);
    let pair = [
        lone,
        SearchJob::new(1, n, 4, 77_777)
            .with_backend(BackendHint::StateVector)
            .with_seed(8),
    ];
    let run = |threads: usize| {
        let engine = Engine::new(EngineConfig {
            threads: Some(threads),
            result_cache: false,
            ..EngineConfig::default()
        });
        let mut results = engine.run_batch(&[lone]).results;
        results.extend(engine.run_batch(&pair).results);
        results
    };
    let reference = run(1);
    let serial = Engine::new(EngineConfig {
        threads: Some(1),
        result_cache: false,
        ..EngineConfig::default()
    })
    .run_job(&lone)
    .expect("off-pool run");
    for result in [&reference[0], &reference[1]] {
        assert_eq!(serial.deterministic_fields(), result.deterministic_fields());
        assert_eq!(
            serial.success_estimate.to_bits(),
            result.success_estimate.to_bits()
        );
    }
    for threads in [2usize, 4] {
        for (expected, result) in reference.iter().zip(run(threads)) {
            assert_eq!(
                expected.deterministic_fields(),
                result.deterministic_fields(),
                "{threads}-worker engine diverged on job {}",
                result.job_id
            );
            // Bit-level check on the success estimate, the field with full
            // floating-point sensitivity to the sweep folds.
            assert_eq!(
                expected.success_estimate.to_bits(),
                result.success_estimate.to_bits()
            );
        }
    }
}
