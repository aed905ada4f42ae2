//! Full-address search built from repeated partial search (the Section-4
//! reduction, promoted to a production backend).
//!
//! # The paper's reduction
//!
//! Theorem 2's lower bound works by *reduction*: if partial search were too
//! cheap, one could learn the target's first `log K` bits, recurse on the
//! surviving block (a database `K` times smaller), and find the whole
//! address for less than Zalka's `(π/4)√N` — a contradiction. The total
//! cost of the reduction is the geometric series
//!
//! ```text
//!   α_K·√N·(1 + 1/√K + 1/K + …) = α_K·√N·√K/(√K − 1)
//! ```
//!
//! (with the tail below some cutoff handled by brute force). Two closed
//! forms from that argument live here:
//!
//! * [`reduction_query_model`] is the series itself — the query count of the
//!   whole descent when one partial search on `M` items costs
//!   `coefficient·√M` (the displayed equation in the proof of Theorem 2);
//! * [`theorem2_lower_bound`] is the inequality chain solved for the
//!   partial-search coefficient: since the descent must cost at least
//!   Zalka's `(π/4)√N`, any partial-search algorithm needs
//!   `α_K ≥ (π/4)(1 − 1/√K)` — the paper's lower-bound column.
//!
//! [`reduction_levels`] counts the `⌈log_K(N/cutoff)⌉` descent levels, the
//! `O(log N)` fact the error-accumulation argument relies on.
//!
//! # The runnable algorithm
//!
//! The reduction is also a perfectly serviceable way to *serve full-address
//! queries* using only the partial-search primitive, and [`RecursiveSearch`]
//! implements it for production use by the engine's `Recursive` backend:
//!
//! * **Per-level backend selection.** Every level starts from a fresh
//!   uniform superposition over the surviving range, so the block symmetry
//!   the reduced rotation form needs always holds; levels larger than
//!   [`RecursiveSearch::statevector_cutoff`] therefore run in O(1)
//!   arithmetic on the closed rotation form ([`LevelKind::Reduced`]), while
//!   levels at or below it run the fused structure-of-arrays state-vector
//!   kernels and sample the measurement from the exact final amplitudes
//!   ([`LevelKind::StateVector`]). Query counts are identical either way.
//! * **Deterministic per-level seeding.** [`RecursiveSearch::run_seeded`]
//!   derives one RNG seed per level with a SplitMix64 mix
//!   ([`derive_seed`]), so a run is a pure function of
//!   `(config, n, target, seed)` — bit-identical across threads, machines
//!   and repetitions.
//! * **Cumulative query accounting.** Each [`LevelReport`] carries the
//!   queries spent at that level *and* the running total through it, so the
//!   geometric-series shape of the descent can be audited level by level.
//! * **Buffer reuse.** `run_seeded` threads one
//!   [`psq_sim::scratch::AmplitudeScratch`] through every state-vector
//!   level (levels shrink by `K` each step, so after the first take the
//!   whole descent — and every later job handed the same scratch — is
//!   allocation-free).
//!
//! ```
//! use psq_partial::recursive::RecursiveSearch;
//! use psq_sim::scratch::AmplitudeScratch;
//!
//! // Resolve the FULL 16-bit address, not just a block, using only the
//! // partial-search primitive; one scratch serves every level (and every
//! // further job).
//! let mut scratch = AmplitudeScratch::new();
//! let search = RecursiveSearch::new(1 << 16, 4);
//! let run = search.run_seeded(1 << 16, 48_813, 7, &mut scratch);
//! assert_eq!(run.outcome.reported_target, 48_813);
//! // Far below classical N/2, and each level K times smaller than the last:
//! assert!(run.outcome.queries < 1 << 13);
//! assert!(run.levels.len() >= 4);
//! ```

use crate::algorithm::PartialSearch;
use psq_sim::oracle::{Database, FullSearchOutcome, Partition};
use psq_sim::scratch::AmplitudeScratch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default size at or below which a level runs the exact state-vector
/// kernels instead of the reduced rotation form (`2^12` amplitudes — small
/// enough that a fused sweep costs microseconds).
pub const DEFAULT_STATEVECTOR_CUTOFF: u64 = 1 << 12;

/// How one level of the descent was executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelKind {
    /// Closed rotation form on the block-symmetric reduced simulator
    /// (O(1) arithmetic; the block outcome is sampled from the exact
    /// distribution).
    Reduced,
    /// Fused structure-of-arrays state-vector kernels (the measurement is
    /// sampled from the exact final amplitudes).
    StateVector,
    /// The classical brute-force tail over the surviving range.
    BruteForce,
}

/// Per-level record of one recursive descent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelReport {
    /// Size of the (sub-)database searched at this level.
    pub size: u64,
    /// Blocks the level was split into (`1` for the brute-force tail).
    pub k: u64,
    /// How the level was executed.
    pub kind: LevelKind,
    /// Queries spent at this level.
    pub queries: u64,
    /// Queries spent through the end of this level (cumulative over the
    /// descent — the running partial sums of the geometric series).
    pub cumulative_queries: u64,
    /// The block this level selected (for the brute-force tail: the offset
    /// of the reported address inside the surviving range).
    pub block_found: u64,
    /// Exact probability that this level selects the correct block (from
    /// the simulated amplitudes when the target was still in range, the
    /// plan's prediction otherwise; `1.0` for the brute-force tail).
    pub success_probability: f64,
}

impl LevelReport {
    /// Whether this level was the classical brute-force tail.
    pub fn is_brute_force(&self) -> bool {
        self.kind == LevelKind::BruteForce
    }
}

/// Result of the full recursive reduction.
#[derive(Clone, Debug)]
pub struct RecursiveOutcome {
    /// The address the recursion converged on, with ground truth and total
    /// query count.
    pub outcome: FullSearchOutcome,
    /// One entry per level of the descent (the brute-force tail last).
    pub levels: Vec<LevelReport>,
    /// Product of the per-level success probabilities: the a-priori
    /// probability that the whole descent reports the exact target.
    pub success_estimate: f64,
}

impl RecursiveOutcome {
    /// Partial-search levels run before the brute-force tail.
    pub fn quantum_levels(&self) -> u32 {
        self.levels.iter().filter(|l| !l.is_brute_force()).count() as u32
    }
}

/// Configuration of the reduction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecursiveSearch {
    /// Blocks per level (the `K` handed to the partial-search primitive).
    pub k: u64,
    /// Sub-databases of at most this size are finished off by classical
    /// brute force (the paper uses `N^{1/3}`; any `O(N^{1/3})` cutoff keeps
    /// the extra cost negligible).
    pub brute_force_cutoff: u64,
    /// Levels of at most this size run the exact state-vector kernels;
    /// larger levels use the reduced rotation form (see [`LevelKind`]).
    /// `0` keeps the whole descent on the reduced form.
    pub statevector_cutoff: u64,
    /// The partial-search configuration used at every level.
    pub partial: PartialSearch,
}

/// SplitMix64-style seed derivation: decorrelates the per-level (and the
/// engine's per-trial) RNG streams while keeping the whole execution a pure
/// function of the root seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RecursiveSearch {
    /// A reduction splitting each level into `k` blocks, with the
    /// brute-force cutoff set to `max(k, ⌈n^{1/3}⌉)` as in the proof of
    /// Theorem 2 and the state-vector cutoff at its default.
    pub fn new(n: u64, k: u64) -> Self {
        assert!(k >= 2, "need at least two blocks per level");
        let cutoff = ((n as f64).cbrt().ceil() as u64).max(k);
        Self {
            k,
            brute_force_cutoff: cutoff,
            statevector_cutoff: DEFAULT_STATEVECTOR_CUTOFF,
            // The lowest recursion levels are small databases, where the
            // finite-N tuned plan keeps the per-level failure probability
            // negligible (Section 4's error-accumulation argument needs every
            // level to succeed).
            partial: PartialSearch::tuned(),
        }
    }

    /// Sets the level size at or below which the exact state-vector kernels
    /// run (the engine's planner chooses this from its cost model).
    pub fn with_statevector_cutoff(mut self, cutoff: u64) -> Self {
        self.statevector_cutoff = cutoff;
        self
    }

    /// Whether the descent splits a range of `len` addresses into `k`
    /// blocks (rather than finishing it by brute force).
    fn splits(&self, len: u64) -> bool {
        len > self.brute_force_cutoff && len.is_multiple_of(self.k) && len / self.k >= 2
    }

    /// The largest level of a descent over `n` addresses that runs the
    /// state-vector kernels, i.e. the most amplitudes its scratch holds at
    /// once (0 when every level runs the reduced form).
    pub fn largest_dense_level(&self, n: u64) -> u64 {
        std::iter::successors(Some(n), |&len| Some(len / self.k))
            .take_while(|&len| self.splits(len))
            .find(|&len| len <= self.statevector_cutoff)
            .unwrap_or(0)
    }

    /// Runs the reduction against a database, charging all queries (quantum
    /// and the brute-force tail) to its counter. Compatibility entry point:
    /// draws the root seed from `rng` and delegates to
    /// [`RecursiveSearch::run_seeded`].
    pub fn run<R: Rng + ?Sized>(&self, db: &Database, rng: &mut R) -> RecursiveOutcome {
        let mut scratch = AmplitudeScratch::new();
        let outcome = self.run_seeded(db.size(), db.target(), rng.gen(), &mut scratch);
        db.charge_quantum_queries(outcome.outcome.queries);
        outcome
    }

    /// Runs the reduction as a pure function of `(self, n, target, seed)`.
    ///
    /// This is the bulk-execution entry point the engine's `Recursive`
    /// backend drives: per-level RNGs derive deterministically from `seed`
    /// ([`derive_seed`]), and the one `scratch` is reused by every
    /// state-vector level — and by every further call handed the same
    /// scratch — so batch serving performs O(1) allocations per worker
    /// rather than O(levels) per job.
    pub fn run_seeded(
        &self,
        n: u64,
        target: u64,
        seed: u64,
        scratch: &mut AmplitudeScratch,
    ) -> RecursiveOutcome {
        assert!(n >= 2, "database must have at least two items");
        assert!(target < n, "target {target} outside the database [0, {n})");
        let mut levels = Vec::new();
        let mut total_queries = 0u64;
        let mut success_estimate = 1.0f64;

        // The current candidate range [lo, lo + len) believed to contain
        // the target (a wrong level leaves the target outside it; later
        // levels then search an unmarked range and the tail reports a wrong
        // address, exactly as a real lost descent would).
        let mut lo = 0u64;
        let mut len = n;
        let mut level_index = 0u64;

        while self.splits(len) {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, level_index));
            let block_size = len / self.k;
            let target_in_range = target >= lo && target < lo + len;
            let use_statevector = len <= self.statevector_cutoff;
            let (block, queries, p_level, kind) = if use_statevector && target_in_range {
                // Exact amplitudes: re-index addresses to 0..len and sample
                // the measurement from the final state.
                let sub_db = Database::new(len, target - lo);
                let partition = Partition::new(len, self.k);
                let run = self
                    .partial
                    .run_statevector_in(&sub_db, &partition, &mut rng, scratch);
                (
                    run.outcome.reported_block,
                    run.outcome.queries,
                    run.success_probability,
                    LevelKind::StateVector,
                )
            } else {
                // Closed rotation form: exact success probability, block
                // outcome sampled from the block-symmetric distribution.
                let run = self.partial.run_reduced(len as f64, self.k as f64);
                let block = if target_in_range {
                    sample_symmetric_block(
                        run.success_probability,
                        (target - lo) / block_size,
                        self.k,
                        &mut rng,
                    )
                } else {
                    // No marked item in range (an earlier level chose the
                    // wrong block): the oracle is the identity, the state
                    // stays uniform, the measurement is uniform. A lost
                    // descent takes this arm even below the state-vector
                    // cutoff — there is no marked item to simulate.
                    rng.gen_range(0..self.k)
                };
                (
                    block,
                    run.queries,
                    run.success_probability,
                    LevelKind::Reduced,
                )
            };
            total_queries += queries;
            success_estimate *= p_level;
            levels.push(LevelReport {
                size: len,
                k: self.k,
                kind,
                queries,
                cumulative_queries: total_queries,
                block_found: block,
                success_probability: p_level,
            });
            lo += block * block_size;
            len = block_size;
            level_index += 1;
        }

        // Brute-force tail: probe all but one address of the surviving
        // range (if none answers, the unprobed last address is reported).
        let mut probes = 0u64;
        let mut found = lo + len - 1;
        for x in lo..lo + len - 1 {
            probes += 1;
            if x == target {
                found = x;
                break;
            }
        }
        total_queries += probes;
        levels.push(LevelReport {
            size: len,
            k: 1,
            kind: LevelKind::BruteForce,
            queries: probes,
            cumulative_queries: total_queries,
            block_found: found - lo,
            success_probability: 1.0,
        });

        RecursiveOutcome {
            outcome: FullSearchOutcome {
                reported_target: found,
                true_target: target,
                queries: total_queries,
            },
            levels,
            success_estimate,
        }
    }
}

/// Samples a block from the block-symmetric outcome distribution: the true
/// block with probability `p_success`, otherwise uniform over the remaining
/// `k − 1` blocks (the residual probability is block-symmetric). Used by
/// every reduced-form consumer — the descent's levels here and the
/// engine's reduced backend — so the two can never diverge.
pub fn sample_symmetric_block<R: Rng + ?Sized>(
    p_success: f64,
    true_block: u64,
    k: u64,
    rng: &mut R,
) -> u64 {
    let u: f64 = rng.gen();
    if u < p_success || k == 1 {
        return true_block;
    }
    let slot = rng.gen_range(0..k - 1);
    if slot >= true_block {
        slot + 1
    } else {
        slot
    }
}

/// The closed-form query count of the reduction when every level costs
/// `coefficient·√(level size)`: the geometric series
/// `coefficient·√N·(1 + 1/√K + 1/K + …) = coefficient·√N·√K/(√K − 1)`
/// (the displayed sum in the proof of Theorem 2; the brute-force tail and
/// integer rounding are the only parts it omits).
///
/// ```
/// use psq_partial::recursive::reduction_query_model;
/// // At K = 4 the series multiplies the per-level cost by √4/(√4−1) = 2.
/// let total = reduction_query_model(1e6, 4.0, 0.5);
/// assert!((total - 0.5 * 1000.0 * 2.0).abs() < 1e-9);
/// ```
pub fn reduction_query_model(n: f64, k: f64, coefficient: f64) -> f64 {
    assert!(k > 1.0, "the series requires K > 1");
    coefficient * n.sqrt() * k.sqrt() / (k.sqrt() - 1.0)
}

/// Theorem 2's inequality chain, solved for the partial-search coefficient:
/// the reduction answers full search, full search costs at least Zalka's
/// `(π/4)√N` (Theorem 3), and dividing out the geometric series gives
/// `α_K ≥ (π/4)(1 − 1/√K)` — the paper's "lower bound" column.
///
/// ```
/// use psq_partial::recursive::theorem2_lower_bound;
/// // The table's K = 8 entry.
/// assert!((theorem2_lower_bound(8.0) - 0.508).abs() < 2e-3);
/// ```
pub fn theorem2_lower_bound(k: f64) -> f64 {
    std::f64::consts::FRAC_PI_4 * (1.0 - 1.0 / k.sqrt())
}

/// The number of partial-search levels the reduction performs before the
/// brute-force cutoff: `⌈log_K (N / cutoff)⌉` (and `O(log N)` overall, the
/// fact Section 4's error-accumulation argument relies on).
pub fn reduction_levels(n: f64, k: f64, cutoff: f64) -> u32 {
    assert!(k > 1.0 && n >= 1.0 && cutoff >= 1.0);
    let mut levels = 0u32;
    let mut size = n;
    while size > cutoff {
        size /= k;
        levels += 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recursion_finds_the_exact_target() {
        let mut rng = StdRng::seed_from_u64(17);
        for &target in &[0u64, 1, 4095, 2500, 777] {
            let db = Database::new(4096, target);
            let outcome = RecursiveSearch::new(4096, 4).run(&db, &mut rng);
            assert!(outcome.outcome.is_correct(), "target {target}");
            assert!(outcome.levels.len() >= 2);
            assert!(outcome.levels.last().expect("non-empty").is_brute_force());
        }
    }

    #[test]
    fn runs_are_pure_functions_of_the_seed() {
        let mut scratch_a = AmplitudeScratch::new();
        let mut scratch_b = AmplitudeScratch::new();
        let search = RecursiveSearch::new(1 << 14, 4);
        for seed in 0..8u64 {
            let a = search.run_seeded(1 << 14, 9999, seed, &mut scratch_a);
            let b = search.run_seeded(1 << 14, 9999, seed, &mut scratch_b);
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.levels, b.levels, "seed {seed}");
            assert_eq!(a.success_estimate, b.success_estimate, "seed {seed}");
        }
        // The scratch is reused across calls, not semantically visible; a
        // fresh scratch mid-sequence changes nothing.
        let fresh = search.run_seeded(1 << 14, 9999, 3, &mut AmplitudeScratch::new());
        let warm = search.run_seeded(1 << 14, 9999, 3, &mut scratch_a);
        assert_eq!(fresh.outcome, warm.outcome);
        assert_eq!(fresh.levels, warm.levels);
    }

    #[test]
    fn largest_dense_level_is_the_largest_state_vector_level_run() {
        for (n, k, cutoff) in [
            (1u64 << 16, 4u64, DEFAULT_STATEVECTOR_CUTOFF),
            (1 << 16, 4, 1 << 13),
            (1 << 15, 8, 1 << 20),
            (1 << 16, 4, 0),
        ] {
            let search = RecursiveSearch::new(n, k).with_statevector_cutoff(cutoff);
            let run = search.run_seeded(n, 1000, 5, &mut AmplitudeScratch::new());
            let dense = run
                .levels
                .iter()
                .filter(|level| level.kind == LevelKind::StateVector)
                .map(|level| level.size)
                .max()
                .unwrap_or(0);
            assert_eq!(
                search.largest_dense_level(n),
                dense,
                "n {n} k {k} cutoff {cutoff}"
            );
        }
    }

    #[test]
    fn per_level_backends_split_at_the_statevector_cutoff() {
        let mut scratch = AmplitudeScratch::new();
        let search = RecursiveSearch::new(1 << 16, 4);
        let run = search.run_seeded(1 << 16, 1000, 5, &mut scratch);
        for level in &run.levels {
            match level.kind {
                LevelKind::Reduced => assert!(level.size > search.statevector_cutoff),
                LevelKind::StateVector => assert!(level.size <= search.statevector_cutoff),
                LevelKind::BruteForce => assert!(level.size <= search.brute_force_cutoff),
            }
        }
        assert!(run.levels.iter().any(|l| l.kind == LevelKind::Reduced));
        assert!(run.levels.iter().any(|l| l.kind == LevelKind::StateVector));
        // Forcing the cutoff to zero keeps the whole descent on the reduced
        // form at identical query counts.
        let reduced_only =
            search
                .with_statevector_cutoff(0)
                .run_seeded(1 << 16, 1000, 5, &mut scratch);
        assert_eq!(
            reduced_only.outcome.queries, run.outcome.queries,
            "backend selection never changes query accounting"
        );
        assert!(reduced_only
            .levels
            .iter()
            .all(|l| l.kind != LevelKind::StateVector));
    }

    #[test]
    fn level_reports_accumulate_queries() {
        let mut scratch = AmplitudeScratch::new();
        let run = RecursiveSearch::new(1 << 14, 4).run_seeded(1 << 14, 3333, 11, &mut scratch);
        let mut running = 0u64;
        for level in &run.levels {
            running += level.queries;
            assert_eq!(level.cumulative_queries, running);
        }
        assert_eq!(running, run.outcome.queries);
        // The product of per-level success probabilities: the lowest levels
        // (N = 64, 256) carry most of the residual.
        assert!(run.success_estimate > 0.97);
    }

    #[test]
    fn huge_databases_descend_through_reduced_levels() {
        // N = 2^30 is far beyond any state vector; the top levels run on the
        // rotation form and only the tail of the descent materialises
        // amplitudes.
        let mut scratch = AmplitudeScratch::new();
        let n = 1u64 << 30;
        let run = RecursiveSearch::new(n, 8).run_seeded(n, 123_456_789, 2, &mut scratch);
        assert_eq!(run.outcome.reported_target, 123_456_789);
        // Sizes 2^30, 2^27, …, 2^12 before the N^{1/3} = 2^10 cutoff.
        assert!(run.quantum_levels() >= 6);
        assert!(
            run.outcome.queries < 1 << 17,
            "O(√N) scaling: {} queries",
            run.outcome.queries
        );
    }

    #[test]
    fn per_level_sizes_shrink_by_k() {
        let mut rng = StdRng::seed_from_u64(5);
        let db = Database::new(1 << 12, 1000);
        let report = RecursiveSearch::new(1 << 12, 4).run(&db, &mut rng);
        let quantum_levels: Vec<_> = report
            .levels
            .iter()
            .filter(|l| !l.is_brute_force())
            .collect();
        for pair in quantum_levels.windows(2) {
            assert_eq!(pair[0].size / 4, pair[1].size);
        }
    }

    #[test]
    fn total_queries_track_the_geometric_series() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 1u64 << 14;
        let k = 4u64;
        let db = Database::new(n, 9999);
        let report = RecursiveSearch::new(n, k).run(&db, &mut rng);
        let coefficient = crate::optimizer::optimal_epsilon(k as f64).coefficient;
        let model = reduction_query_model(n as f64, k as f64, coefficient);
        // The model ignores the brute-force tail and per-level rounding, so
        // agreement within ~15% is what the proof sketch needs.
        let actual = report.outcome.queries as f64;
        assert!(
            (actual - model).abs() / model < 0.15,
            "actual {actual} vs series {model}"
        );
        // ... and the whole thing still beats classical full search by a wide
        // margin.
        assert!(actual < (n / 8) as f64);
    }

    #[test]
    fn geometric_series_matches_the_paper_expression() {
        // (1 + 1/√K + 1/K + ...) = √K/(√K − 1)
        for &k in &[2.0f64, 4.0, 9.0, 64.0] {
            let direct: f64 = (0..200).map(|i| k.sqrt().powi(-i)).sum();
            let closed = k.sqrt() / (k.sqrt() - 1.0);
            assert!((direct - closed).abs() < 1e-9, "k = {k}");
        }
    }

    #[test]
    fn theorem2_bound_reproduces_the_table_lower_column() {
        for &(k, expected) in &[(2.0, 0.23), (8.0, 0.508), (32.0, 0.647)] {
            assert!((theorem2_lower_bound(k) - expected).abs() < 2e-3);
        }
    }

    #[test]
    fn level_count_is_logarithmic() {
        assert_eq!(reduction_levels(4096.0, 4.0, 16.0), 4);
        assert_eq!(reduction_levels(1e12, 10.0, 1e4), 8);
        // O(log N) levels is what keeps the accumulated error O(N^{-1/12} log N).
        assert!(reduction_levels(1e18, 2.0, 1e6) < 64);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let base = derive_seed(42, 0);
        for stream in 1..64u64 {
            assert_ne!(derive_seed(42, stream), base);
            assert_ne!(derive_seed(43, stream), derive_seed(42, stream));
        }
    }
}
