//! Single-job execution on each backend.
//!
//! Every runner here is a pure function of `(job, schedule)`: the job's seed
//! drives a private `StdRng`, so re-running a job — on one thread or many —
//! produces bit-identical results. The reported block is a majority vote
//! over trials (ties to the lowest block index), so a multi-trial job gives
//! a deterministic single answer.
//!
//! Query accounting matches the instrumented-oracle convention used across
//! the workspace: each trial charges its own oracle calls, and the result
//! sums them.

use crate::planner::ExecutionPlan;
use crate::spec::{Backend, NoiseSpec, SearchJob, SearchResult};
use psq_partial::recursive::{derive_seed, sample_symmetric_block};
use psq_partial::{
    partial_search_noisy_in, partial_search_noisy_sparse, PartialSearch, RecursiveSearch,
};
use psq_sim::circuit::{block_iteration_via_circuit, grover_iteration_via_circuit, Step3Circuit};
use psq_sim::gates::QubitRegister;
use psq_sim::oracle::{Database, Partition};
use psq_sim::scratch::{AmplitudeScratch, PlaneStore};
use psq_sim::statevector::PARALLEL_THRESHOLD;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A job carrying this seed panics in [`execute`], in debug builds only:
/// the hook tests use to check that one panicking job costs exactly one
/// error, never its batch or its server.
#[cfg(debug_assertions)]
pub const POISON_SEED: u64 = 0x5EED_0BAD_DEAD_BEEF;

/// Executes `job` on the backend resolved in `plan`. Wall time is filled in
/// by the executor; this function returns it as zero.
pub fn execute(job: &SearchJob, plan: &ExecutionPlan) -> SearchResult {
    #[cfg(debug_assertions)]
    if job.seed == POISON_SEED {
        panic!("the job carries the poison seed");
    }
    let mut rng = StdRng::seed_from_u64(job.seed);
    match plan.backend {
        Backend::Reduced => run_reduced(job, plan, &mut rng),
        // Non-ideal noise runs the trajectory variant of the state-vector
        // path; an explicit all-zero spec falls through to the untouched
        // ideal runner, which is what makes p = 0 bit-identical to ideal.
        Backend::StateVector => match job.effective_noise() {
            Some(spec) => run_noisy(job, plan, spec),
            None => run_statevector(job, plan, &mut rng),
        },
        Backend::Circuit => run_circuit(job, plan, &mut rng),
        Backend::ClassicalDeterministic => run_classical(job, false, &mut rng),
        Backend::ClassicalRandomized => run_classical(job, true, &mut rng),
        Backend::Recursive => run_recursive(job, plan),
        // Same noise split as the state-vector arm: non-ideal specs run the
        // per-query sparse trajectories, an explicit all-zero spec is the
        // ideal closed-form evolution.
        Backend::Sparse => match job.effective_noise() {
            Some(spec) => run_sparse_noisy(job, plan, spec),
            None => run_sparse(job, plan, &mut rng),
        },
    }
}

/// Majority vote over the trials' reports (the most frequent value, ties to
/// the lowest) and the number of reports equal to `truth`. Sorts `reported`
/// in place and scans its runs once: O(t log t) for `t` trials, with no
/// allocation.
fn tally(reported: &mut [u64], truth: u64) -> (u64, u32) {
    reported.sort_unstable();
    let (mut winner, mut winner_len) = (u64::MAX, 0usize);
    let mut matching = 0usize;
    let mut start = 0usize;
    while start < reported.len() {
        let value = reported[start];
        let len = reported[start..]
            .iter()
            .take_while(|&&v| v == value)
            .count();
        // Runs come in ascending order, so a tie keeps the lower value.
        if len > winner_len {
            (winner, winner_len) = (value, len);
        }
        if value == truth {
            matching = len;
        }
        start += len;
    }
    (winner, matching as u32)
}

fn finish(
    job: &SearchJob,
    backend: Backend,
    mut reported: Vec<u64>,
    true_block: u64,
    queries: u64,
    success_estimate: f64,
) -> SearchResult {
    let (block_found, trials_correct) = tally(&mut reported, true_block);
    SearchResult {
        job_id: job.id,
        backend,
        block_found,
        true_block,
        correct: block_found == true_block,
        address_found: None,
        levels: 0,
        queries,
        success_estimate,
        trials: job.trials,
        trials_correct,
        wall_time_us: 0.0,
    }
}

thread_local! {
    /// Worker-held plane buffers for the state-vector, recursive and noisy
    /// runners' *small* planes (below [`PARALLEL_THRESHOLD`] amplitudes):
    /// executor workers are persistent threads, so the scratch is reused
    /// across every level, trial and job a worker executes, hot in that
    /// worker's cache, and steady-state batch serving performs O(1)
    /// allocations per worker. Larger planes come from [`LARGE_PLANES`]
    /// instead. Ideal states are real, so a scratch holds one plane until a
    /// dephasing job makes a state complex. Scratch contents never affect
    /// results (pinned by the cross-thread bit-identity tests).
    static WORKER_SCRATCH: std::cell::RefCell<AmplitudeScratch> =
        std::cell::RefCell::new(AmplitudeScratch::new());
}

/// The process-wide store of large plane buffers (at least
/// [`PARALLEL_THRESHOLD`] amplitudes), shared by every engine and thread.
/// A job borrows one for its whole run, so memory for large planes is
/// bounded by the large jobs running at once rather than by workers times
/// the largest plane each ever ran. It outlives engines on purpose: the
/// allocator keeps freed planes anyway, so a store dropped with its engine
/// would only make the next engine allocate beside them.
static LARGE_PLANES: PlaneStore = PlaneStore::new();

/// Runs `body` with a scratch for planes of up to `largest` amplitudes:
/// a large one borrowed from [`LARGE_PLANES`] and returned afterwards, or
/// this thread's [`WORKER_SCRATCH`] for small planes. A `body` that panics
/// drops a borrowed scratch instead of returning it; the store stays
/// valid and the next large job allocates.
fn with_scratch<R>(largest: u64, body: impl FnOnce(&mut AmplitudeScratch) -> R) -> R {
    let largest = usize::try_from(largest).unwrap_or(usize::MAX);
    if largest >= PARALLEL_THRESHOLD {
        let mut scratch = LARGE_PLANES.take(largest);
        let result = body(&mut scratch);
        LARGE_PLANES.put(scratch);
        result
    } else {
        WORKER_SCRATCH.with(|cell| body(&mut cell.borrow_mut()))
    }
}

/// The noisy state-vector runner: each trial replays the three-step
/// algorithm as one quantum trajectory under the job's per-query channels
/// ([`psq_partial::robustness`]). Trial `t` draws everything — noise events
/// *and* the final block measurement — from a private
/// `StdRng::seed_from_u64(derive_seed(job.seed, t))` stream, so the result
/// is a pure function of `(spec, seed)` no matter which worker thread, batch
/// chunk or sweep expansion the job arrived through.
fn run_noisy(job: &SearchJob, plan: &ExecutionPlan, spec: NoiseSpec) -> SearchResult {
    let partition = Partition::new(job.n, job.k);
    let true_block = partition.block_of(job.target);
    let search = PartialSearch::with_epsilon(plan.schedule.plan.epsilon);
    let mut reported = Vec::with_capacity(job.trials as usize);
    let mut queries = 0u64;
    let mut success_sum = 0.0;
    with_scratch(job.n, |scratch| {
        for trial in 0..job.trials {
            let mut rng = StdRng::seed_from_u64(derive_seed(job.seed, u64::from(trial)));
            let db = Database::new(job.n, job.target);
            let run = partial_search_noisy_in(&db, &partition, &search, spec, &mut rng, scratch);
            queries += run.queries;
            // Mean over trials: unlike the ideal path, each trajectory has
            // its own pre-measurement block probability (noise events moved
            // the state), so the estimate is the empirical mean.
            success_sum += run.success_probability;
            reported.push(run.reported_block);
        }
    });
    finish(
        job,
        Backend::StateVector,
        reported,
        true_block,
        queries,
        success_sum / f64::from(job.trials),
    )
}

/// The recursive full-address runner: iterated partial search resolves one
/// block of address bits per level (`psq_partial::recursive`), with the
/// planner's `sv_cutoff` deciding which levels run the exact state-vector
/// kernels. Trials vote on the *exact address* (majority, ties to the
/// lowest) and `correct` means the full address was right.
///
/// Every level executes the finite-`N` tuned plan — the lowest achievable
/// per-level error at a few extra queries — so, as with every other
/// explicit backend hint, `error_target` does not reshape execution; it
/// feeds the planner's `meets_error_target` verdict (visible through
/// `--explain`), which for this backend reflects the error *accumulated*
/// across all `O(log N)` levels.
fn run_recursive(job: &SearchJob, plan: &ExecutionPlan) -> SearchResult {
    let partition = Partition::new(job.n, job.k);
    let true_block = partition.block_of(job.target);
    let search = RecursiveSearch::new(job.n, job.k).with_statevector_cutoff(plan.sv_cutoff);
    let mut reported = Vec::with_capacity(job.trials as usize);
    let mut queries = 0u64;
    let mut levels = 0u32;
    let mut success_sum = 0.0;
    with_scratch(search.largest_dense_level(job.n), |scratch| {
        for trial in 0..job.trials {
            // Per-trial seeds derive from the job seed exactly as per-level
            // seeds derive from the trial seed: the whole job is a pure
            // function of its spec.
            let trial_seed = derive_seed(job.seed, u64::from(trial));
            let outcome = search.run_seeded(job.n, job.target, trial_seed, scratch);
            queries += outcome.outcome.queries;
            levels += outcome.quantum_levels();
            success_sum += outcome.success_estimate;
            reported.push(outcome.outcome.reported_target);
        }
    });
    // Mean over trials: per-level success probabilities are properties of
    // the level shapes, but a lost descent records plan predictions where a
    // found one records simulated values, so trials can differ marginally.
    let success = success_sum / f64::from(job.trials);
    let (address, trials_correct) = tally(&mut reported, job.target);
    SearchResult {
        job_id: job.id,
        backend: Backend::Recursive,
        block_found: partition.block_of(address),
        true_block,
        // Full-address semantics: the stricter exact-address criterion.
        correct: address == job.target,
        address_found: Some(address),
        levels,
        queries,
        success_estimate: success,
        trials: job.trials,
        trials_correct,
        wall_time_us: 0.0,
    }
}

fn run_reduced(job: &SearchJob, plan: &ExecutionPlan, rng: &mut StdRng) -> SearchResult {
    let partition = Partition::new(job.n, job.k);
    let true_block = partition.block_of(job.target);
    // The reduced dynamics are target-independent given the block structure;
    // one evolution serves every trial.
    let search = PartialSearch::with_epsilon(plan.schedule.plan.epsilon);
    let run = search.run_reduced(job.n as f64, job.k as f64);
    let reported: Vec<u64> = (0..job.trials)
        .map(|_| sample_symmetric_block(run.success_probability, true_block, job.k, rng))
        .collect();
    finish(
        job,
        Backend::Reduced,
        reported,
        true_block,
        run.queries * u64::from(job.trials),
        run.success_probability,
    )
}

/// The ideal sparse runner. The class dynamics are block-symmetric — ideal
/// evolution never leaves the three-amplitude symmetric representation — so,
/// exactly as in [`run_reduced`], one evolution serves every trial and the
/// per-trial block samples draw from the job-seed stream. All deterministic
/// result fields are therefore bit-identical to the reduced backend's; only
/// the backend tag differs.
fn run_sparse(job: &SearchJob, plan: &ExecutionPlan, rng: &mut StdRng) -> SearchResult {
    let true_block = job.target / (job.n / job.k);
    let search = PartialSearch::with_epsilon(plan.schedule.plan.epsilon);
    let run = search.run_sparse(job.n, job.k, job.target);
    let reported: Vec<u64> = (0..job.trials)
        .map(|_| sample_symmetric_block(run.success_probability, true_block, job.k, rng))
        .collect();
    finish(
        job,
        Backend::Sparse,
        reported,
        true_block,
        run.queries * u64::from(job.trials),
        run.success_probability,
    )
}

/// The noisy sparse runner: per-trial trajectories seeded exactly like
/// [`run_noisy`]'s (`derive_seed(job.seed, trial)`), and the sparse
/// trajectory runner mirrors the dense one's draw order event for event —
/// so on any `n` both backends can serve, the reported blocks and query
/// counts agree exactly and the success estimates agree to rounding.
fn run_sparse_noisy(job: &SearchJob, plan: &ExecutionPlan, spec: NoiseSpec) -> SearchResult {
    let true_block = job.target / (job.n / job.k);
    let search = PartialSearch::with_epsilon(plan.schedule.plan.epsilon);
    let mut reported = Vec::with_capacity(job.trials as usize);
    let mut queries = 0u64;
    let mut success_sum = 0.0;
    for trial in 0..job.trials {
        let mut rng = StdRng::seed_from_u64(derive_seed(job.seed, u64::from(trial)));
        let run = partial_search_noisy_sparse(job.n, job.k, job.target, &search, spec, &mut rng);
        queries += run.queries;
        success_sum += run.success_probability;
        reported.push(run.reported_block);
    }
    finish(
        job,
        Backend::Sparse,
        reported,
        true_block,
        queries,
        success_sum / f64::from(job.trials),
    )
}

fn run_statevector(job: &SearchJob, plan: &ExecutionPlan, rng: &mut StdRng) -> SearchResult {
    let partition = Partition::new(job.n, job.k);
    let search = PartialSearch::with_epsilon(plan.schedule.plan.epsilon);
    let mut reported = Vec::with_capacity(job.trials as usize);
    let mut queries = 0u64;
    let mut success = 0.0;
    with_scratch(job.n, |scratch| {
        for _ in 0..job.trials {
            let db = Database::new(job.n, job.target);
            let run = search.run_statevector_in(&db, &partition, rng, scratch);
            queries += run.outcome.queries;
            success = run.success_probability;
            reported.push(run.outcome.reported_block);
        }
    });
    let true_block = partition.block_of(job.target);
    finish(
        job,
        Backend::StateVector,
        reported,
        true_block,
        queries,
        success,
    )
}

fn run_circuit(job: &SearchJob, plan: &ExecutionPlan, rng: &mut StdRng) -> SearchResult {
    let partition = Partition::new(job.n, job.k);
    let true_block = partition.block_of(job.target);
    let schedule = plan.schedule.plan;
    let qubits = psq_math::bits::log2_exact(job.n);
    let mut reported = Vec::with_capacity(job.trials as usize);
    let mut queries = 0u64;
    let mut success = 0.0;
    // One register and one Step-3 scratch for the whole job: gates apply in
    // place, so a multi-trial run performs O(1) allocations total.
    let mut register = QubitRegister::uniform(qubits);
    let mut scratch = AmplitudeScratch::with_capacity(job.n as usize);
    for trial in 0..job.trials {
        if trial > 0 {
            register.reset_uniform();
        }
        let db = Database::new(job.n, job.target);
        for _ in 0..schedule.l1 {
            grover_iteration_via_circuit(&mut register, &db);
        }
        for _ in 0..schedule.l2 {
            block_iteration_via_circuit(&mut register, &db, &partition);
        }
        let step3 = Step3Circuit::apply_with_scratch(register.state(), &db, &mut scratch);
        success = step3.block_probability(&partition, true_block);
        // Sample the address-register measurement from the circuit's exact
        // distribution (inverse-CDF walk, as in `psq_sim::measure`).
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut address = job.n - 1;
        for x in 0..job.n {
            acc += step3.address_probability(x as usize);
            if u < acc {
                address = x;
                break;
            }
        }
        reported.push(partition.block_of(address));
        queries += db.queries();
        step3.recycle(&mut scratch);
    }
    finish(
        job,
        Backend::Circuit,
        reported,
        true_block,
        queries,
        success,
    )
}

fn run_classical(job: &SearchJob, randomized: bool, rng: &mut StdRng) -> SearchResult {
    let partition = Partition::new(job.n, job.k);
    let true_block = partition.block_of(job.target);
    let mut reported = Vec::with_capacity(job.trials as usize);
    let mut queries = 0u64;
    for _ in 0..job.trials {
        let db = Database::new(job.n, job.target);
        let outcome = if randomized {
            psq_classical::randomized_partial(&db, &partition, rng)
        } else {
            psq_classical::deterministic_partial(&db, &partition)
        };
        queries += outcome.queries;
        reported.push(outcome.reported_block);
    }
    let trials_correct = reported.iter().filter(|&&b| b == true_block).count() as u32;
    let backend = if randomized {
        Backend::ClassicalRandomized
    } else {
        Backend::ClassicalDeterministic
    };
    // Classical block-exclusion search is zero-error by construction, which
    // the empirical frequency reflects.
    let success = f64::from(trials_correct) / f64::from(job.trials);
    finish(job, backend, reported, true_block, queries, success)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use crate::spec::BackendHint;

    fn run(job: SearchJob) -> SearchResult {
        let planner = Planner::new();
        let plan = planner.plan(&job).expect("job plans");
        execute(&job, &plan)
    }

    /// The vote's unsorted-slice form, for the tie-breaking table below.
    fn majority_block(reported: &[u64]) -> u64 {
        tally(&mut reported.to_vec(), 0).0
    }

    #[test]
    fn majority_vote_breaks_ties_low() {
        assert_eq!(majority_block(&[3]), 3);
        assert_eq!(majority_block(&[2, 2, 5]), 2);
        assert_eq!(majority_block(&[5, 2]), 2);
        assert_eq!(majority_block(&[7, 7, 1, 1, 1]), 1);
    }

    proptest::proptest! {
        #[test]
        fn tally_matches_a_brute_force_count(
            reported in proptest::collection::vec(0u64..6, 0..64),
            truth in 0u64..6,
        ) {
            // The quadratic reference: count every candidate against the
            // whole vote vector, ties to the lowest value.
            let mut want = (u64::MAX, 0usize);
            for &candidate in &reported {
                let count = reported.iter().filter(|&&b| b == candidate).count();
                if count > want.1 || (count == want.1 && candidate < want.0) {
                    want = (candidate, count);
                }
            }
            let correct = reported.iter().filter(|&&b| b == truth).count() as u32;
            let mut votes = reported.clone();
            proptest::prop_assert_eq!(tally(&mut votes, truth), (want.0, correct));
        }
    }

    #[test]
    fn a_200k_trial_vote_takes_well_under_ten_seconds() {
        // A quadratic vote needs ~4·10^10 comparisons here (≈ 15 s even in
        // release); sorting and scanning the runs takes milliseconds.
        let job = SearchJob::new(5, 1 << 20, 4, 123_456)
            .with_backend(BackendHint::Reduced)
            .with_trials(200_000);
        let started = std::time::Instant::now();
        let result = run(job);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "took {elapsed:?}"
        );
        assert!(result.correct);
        assert_eq!(result.trials, 200_000);
        assert!(result.trials_correct > 190_000);
    }

    #[test]
    fn every_backend_finds_the_block() {
        for hint in [
            BackendHint::Reduced,
            BackendHint::StateVector,
            BackendHint::Circuit,
            BackendHint::ClassicalDeterministic,
            BackendHint::ClassicalRandomized,
            BackendHint::Recursive,
            BackendHint::Sparse,
        ] {
            let result = run(SearchJob::new(0, 1 << 9, 4, 100).with_backend(hint));
            assert!(result.correct, "{hint:?} failed: {result:?}");
            assert!(result.queries > 0);
        }
    }

    #[test]
    fn recursive_backend_resolves_the_full_address() {
        for &target in &[0u64, 1, 4095, 2500] {
            let result = run(SearchJob::full_address(0, 1 << 12, 4, target));
            assert_eq!(result.backend, Backend::Recursive);
            assert_eq!(result.address_found, Some(target));
            assert_eq!(result.block_found, target / (1 << 10));
            assert!(result.correct);
            assert!(result.levels >= 3, "descends several levels");
            assert!(result.success_estimate > 0.95);
            // The whole descent stays far below classical N/2 probes.
            assert!(result.queries < 1 << 10);
        }
        // Block backends never claim an address.
        let block = run(SearchJob::new(0, 1 << 12, 4, 2500));
        assert_eq!(block.address_found, None);
        assert_eq!(block.levels, 0);
    }

    #[test]
    fn recursive_trials_vote_on_the_address_and_accumulate() {
        let one = run(SearchJob::full_address(0, 1 << 12, 4, 99).with_trials(1));
        let three = run(SearchJob::full_address(0, 1 << 12, 4, 99).with_trials(3));
        assert_eq!(three.trials, 3);
        // One trial may lose the descent (the per-level residual is real);
        // the majority vote still lands on the exact address.
        assert!(three.trials_correct >= 2);
        assert!(three.correct);
        assert_eq!(three.address_found, Some(99));
        assert_eq!(three.levels, 3 * one.levels);
        // Per-trial seeds differ, so probe tails may differ slightly; the
        // quantum level counts are identical per trial.
        assert!(three.queries >= 2 * one.queries);
    }

    #[test]
    fn execution_is_bit_identical_per_seed() {
        for hint in [
            BackendHint::Reduced,
            BackendHint::StateVector,
            BackendHint::Circuit,
            BackendHint::ClassicalRandomized,
            BackendHint::Recursive,
            BackendHint::Sparse,
        ] {
            let job = SearchJob::new(3, 1 << 8, 4, 77)
                .with_backend(hint)
                .with_trials(3);
            let a = run(job);
            let b = run(job);
            assert_eq!(a, b, "{hint:?} not deterministic");
            // Quantum schedules are fixed by the plan, so their query count
            // cannot depend on the seed (the classical randomized scan's
            // probe count legitimately does, as does the recursive descent's
            // brute-force tail through the sampled block path).
            if hint != BackendHint::ClassicalRandomized && hint != BackendHint::Recursive {
                let other_seed = run(job.with_seed(job.seed ^ 1));
                assert_eq!(
                    a.queries, other_seed.queries,
                    "queries are seed-independent"
                );
            }
        }
    }

    #[test]
    fn ideal_statevector_jobs_run_in_the_worker_scratch() {
        // On a fresh thread, so the thread-local scratch starts empty.
        std::thread::spawn(|| {
            let held = || WORKER_SCRATCH.with(|cell| cell.borrow().capacity());
            assert_eq!(held(), 0);
            let large = SearchJob::new(1, 1 << 12, 4, 77).with_backend(BackendHint::StateVector);
            let first = run(large);
            assert!(held() >= 1 << 12, "the planes return to the worker");
            // A smaller job runs in the held buffer, which keeps its size,
            // and what the buffer held before does not reach the result.
            let small = SearchJob::new(2, 1 << 8, 4, 9)
                .with_backend(BackendHint::StateVector)
                .with_trials(3);
            let elsewhere = std::thread::spawn(move || run(small))
                .join()
                .expect("reference thread");
            assert_eq!(run(small), elsewhere);
            assert!(held() >= 1 << 12);
            assert_eq!(run(large), first);
        })
        .join()
        .expect("scratch thread");
    }

    #[test]
    fn worker_scratch_holds_an_imaginary_plane_only_after_dephasing() {
        // On a fresh thread, so the thread-local scratch starts empty.
        std::thread::spawn(|| {
            let im_held = || WORKER_SCRATCH.with(|cell| cell.borrow().im_capacity());
            let ideal = SearchJob::new(1, 1 << 12, 4, 77)
                .with_backend(BackendHint::StateVector)
                .with_trials(2);
            let first = run(ideal);
            run(SearchJob::full_address(2, 1 << 12, 4, 99));
            run(SearchJob::new(3, 1 << 10, 4, 5).with_backend(BackendHint::Circuit));
            assert!(WORKER_SCRATCH.with(|cell| cell.borrow().capacity()) >= 1 << 12);
            assert_eq!(im_held(), 0, "ideal jobs hold the real plane alone");
            let dephasing = SearchJob::new(4, 1 << 9, 4, 42)
                .with_trials(4)
                .with_noise(NoiseSpec {
                    depolarizing: 0.0,
                    dephasing: 0.2,
                    oracle_fault: 0.0,
                });
            run(dephasing);
            assert!(im_held() > 0, "a phase kick materialises the plane");
            // What the dephasing job left in the plane does not reach a
            // later ideal job: it equals the same job on a fresh thread.
            let elsewhere = std::thread::spawn(move || run(ideal))
                .join()
                .expect("reference thread");
            assert_eq!(run(ideal), elsewhere);
            assert_eq!(elsewhere, first);
        })
        .join()
        .expect("scratch thread");
    }

    #[test]
    fn large_planes_bypass_the_worker_scratch() {
        // On a fresh thread, so the thread-local scratch starts empty.
        std::thread::spawn(|| {
            let held = || WORKER_SCRATCH.with(|cell| cell.borrow().capacity());
            let large = SearchJob::new(1, PARALLEL_THRESHOLD as u64, 4, 77)
                .with_backend(BackendHint::StateVector);
            let first = run(large);
            assert_eq!(held(), 0, "a large plane goes back to the store");
            assert_eq!(run(large), first);
            run(SearchJob::new(2, 1 << 12, 4, 9).with_backend(BackendHint::StateVector));
            assert!(held() >= 1 << 12, "small planes stay with the worker");
        })
        .join()
        .expect("scratch thread");
    }

    #[test]
    fn a_store_plane_returned_complex_gives_an_ideal_job_a_fresh_result() {
        let n = PARALLEL_THRESHOLD as u64;
        let dephasing = SearchJob::new(1, n, 4, 4242)
            .with_backend(BackendHint::StateVector)
            .with_noise(NoiseSpec {
                depolarizing: 0.0,
                dephasing: 0.2,
                oracle_fault: 0.0,
            });
        let ideal = SearchJob::new(2, n, 4, 4242).with_backend(BackendHint::StateVector);
        // The reference allocates its own planes.
        let plan = Planner::new().plan(&ideal).expect("job plans");
        let fresh = PartialSearch::with_epsilon(plan.schedule.plan.epsilon).run_statevector(
            &Database::new(n, ideal.target),
            &Partition::new(n, ideal.k),
            &mut StdRng::seed_from_u64(ideal.seed),
        );
        for _ in 0..2 {
            run(dephasing);
            let result = run(ideal);
            assert_eq!(result.block_found, fresh.outcome.reported_block);
            assert_eq!(result.queries, fresh.outcome.queries);
            assert_eq!(
                result.success_estimate.to_bits(),
                fresh.success_probability.to_bits()
            );
        }
    }

    #[test]
    fn quantum_backends_agree_on_success_probability() {
        let n = 1u64 << 10;
        let k = 4u64;
        let reduced = run(SearchJob::new(0, n, k, 9).with_backend(BackendHint::Reduced));
        let sv = run(SearchJob::new(0, n, k, 9).with_backend(BackendHint::StateVector));
        // Reduced and state-vector implement the identical reflection
        // sequence; the circuit path's Step 3 differs by O(1/N) within the
        // target block (see psq-sim's circuit tests).
        assert!((reduced.success_estimate - sv.success_estimate).abs() < 1e-9);
        let circuit = run(SearchJob::new(0, n, k, 9).with_backend(BackendHint::Circuit));
        assert!((circuit.success_estimate - sv.success_estimate).abs() < 5e-3);
        assert_eq!(reduced.queries, sv.queries);
        assert_eq!(sv.queries, circuit.queries);
    }

    #[test]
    fn noisy_execution_is_deterministic_and_degrades_with_rate() {
        let base = SearchJob::new(11, 1 << 9, 4, 42).with_trials(8);
        let gentle = run(base.with_noise(NoiseSpec {
            depolarizing: 0.02,
            dephasing: 0.02,
            oracle_fault: 0.02,
        }));
        assert_eq!(gentle.backend, Backend::StateVector);
        assert_eq!(gentle, run(base.with_noise(gentle_spec())));
        // Heavy depolarizing scrambles most trajectories: mean success drops
        // well below the gentle run's.
        let heavy = run(base.with_noise(NoiseSpec {
            depolarizing: 0.9,
            dephasing: 0.0,
            oracle_fault: 0.0,
        }));
        assert!(
            heavy.success_estimate < gentle.success_estimate,
            "heavy {} vs gentle {}",
            heavy.success_estimate,
            gentle.success_estimate
        );
        // An all-zero spec is byte-for-byte the ideal state-vector run.
        let ideal = run(base.with_backend(BackendHint::StateVector));
        let zero = run(base
            .with_backend(BackendHint::StateVector)
            .with_noise(NoiseSpec::ideal()));
        assert_eq!(ideal, zero);
    }

    fn gentle_spec() -> NoiseSpec {
        NoiseSpec {
            depolarizing: 0.02,
            dephasing: 0.02,
            oracle_fault: 0.02,
        }
    }

    #[test]
    fn sparse_mirrors_reduced_on_every_deterministic_field() {
        let base = SearchJob::new(0, 1 << 12, 4, 777).with_trials(5);
        let reduced = run(base.with_backend(BackendHint::Reduced));
        let sparse = run(base.with_backend(BackendHint::Sparse));
        assert_eq!(sparse.backend, Backend::Sparse);
        // Same evolution (by delegation), same job-seed sample stream: every
        // field but the backend tag is bit-identical.
        assert_eq!(sparse.block_found, reduced.block_found);
        assert_eq!(sparse.true_block, reduced.true_block);
        assert_eq!(sparse.queries, reduced.queries);
        assert_eq!(sparse.trials_correct, reduced.trials_correct);
        assert_eq!(
            sparse.success_estimate.to_bits(),
            reduced.success_estimate.to_bits()
        );
    }

    #[test]
    fn sparse_serves_ideal_jobs_far_beyond_the_dense_ceiling() {
        let n = 1u64 << 30;
        let job = SearchJob::new(7, n, 64, n - 5).with_backend(BackendHint::Sparse);
        let result = run(job);
        assert_eq!(result.backend, Backend::Sparse);
        assert!(result.correct, "{result:?}");
        assert_eq!(result.true_block, 63);
        assert!(result.success_estimate > 0.9);
        // Queries scale as O(√N·(1 − 1/√K)-ish savings), far below N.
        assert!(result.queries < 1 << 16);
    }

    #[test]
    fn sparse_noisy_execution_matches_the_dense_trajectories() {
        let spec = NoiseSpec {
            depolarizing: 0.05,
            dephasing: 0.05,
            oracle_fault: 0.05,
        };
        let base = SearchJob::new(9, 1 << 9, 4, 300)
            .with_trials(6)
            .with_noise(spec);
        let dense = run(base.with_backend(BackendHint::StateVector));
        let sparse = run(base.with_backend(BackendHint::Sparse));
        assert_eq!(dense.backend, Backend::StateVector);
        assert_eq!(sparse.backend, Backend::Sparse);
        // Identical per-trial seed streams and draw orders: decisions and
        // query counts agree exactly, probabilities to summation rounding.
        assert_eq!(sparse.block_found, dense.block_found);
        assert_eq!(sparse.queries, dense.queries);
        assert_eq!(sparse.trials_correct, dense.trials_correct);
        assert!(
            (sparse.success_estimate - dense.success_estimate).abs() < 1e-12,
            "sparse {} vs dense {}",
            sparse.success_estimate,
            dense.success_estimate
        );
        // And the noisy sparse path is bit-stable under re-execution.
        assert_eq!(sparse, run(base.with_backend(BackendHint::Sparse)));
    }

    #[test]
    fn sparse_noisy_execution_runs_where_dense_cannot() {
        let spec = NoiseSpec {
            depolarizing: 0.01,
            dephasing: 0.0,
            oracle_fault: 0.01,
        };
        let n = 1u64 << 26; // 16× the dense ceiling
        let job = SearchJob::new(4, n, 16, 12_345)
            .with_trials(3)
            .with_noise(spec);
        let result = run(job); // Auto routes to sparse above the ceiling
        assert_eq!(result.backend, Backend::Sparse);
        assert!(result.queries > 0);
        assert!(result.success_estimate > 0.0);
        assert_eq!(result, run(job));
    }

    #[test]
    fn trials_accumulate_queries() {
        let one = run(SearchJob::new(0, 1 << 12, 8, 5).with_trials(1));
        let three = run(SearchJob::new(0, 1 << 12, 8, 5).with_trials(3));
        assert_eq!(three.queries, 3 * one.queries);
        assert_eq!(three.trials, 3);
    }
}
