//! Serializable job and result specifications — the engine's wire format.
//!
//! A [`SearchJob`] describes one partial-search request the way a client
//! would pose it: database size `N`, block count `K`, an acceptable
//! probability of reporting a wrong block (`error_target`), how many trials
//! to run, a seed making the whole execution reproducible, and an optional
//! backend hint. A [`SearchResult`] is what the engine sends back: the block
//! it found, the exact query count charged by the instrumented oracle, a
//! success estimate, and the wall time the job took inside the executor.

use serde::{Deserialize, Serialize};

// The one noise-configuration type for the whole stack (defined in
// `psq_sim::noise`, unified with the Monte-Carlo runner in
// `psq_partial::robustness`, carried on the wire by [`SearchJob`]).
pub use psq_partial::NoiseSpec;

/// Which execution backend a job *asks* for. [`BackendHint::Auto`] delegates
/// the choice to the planner's cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendHint {
    /// Let the planner pick the cheapest faithful backend.
    Auto,
    /// The block-symmetric reduced simulator (`psq-sim::reduced`).
    Reduced,
    /// The full state-vector simulator.
    StateVector,
    /// The gate-level circuit path (`psq-sim::circuit`).
    Circuit,
    /// Classical deterministic block-exclusion scan (zero error).
    ClassicalDeterministic,
    /// Classical randomized block-exclusion scan (zero error).
    ClassicalRandomized,
    /// Recursive full-address search (`psq_partial::recursive`): iterated
    /// partial search resolves the *entire* address, one block of bits per
    /// level, rather than just the top-level block. A full-address job; the
    /// result carries `address_found`. Never chosen by `Auto` — it answers
    /// a different question than a block query.
    Recursive,
    /// The sparse value-class simulator (`psq-sim::sparse`): exact huge-`N`
    /// dynamics in `O(#classes)` per iteration, including noisy
    /// trajectories the reduced form cannot express.
    Sparse,
}

/// The backend a job actually *ran on* (the planner's resolution of the
/// hint). Ordered in planner-consideration order so per-backend maps (e.g.
/// `BatchMetrics::backend_latency`) iterate and serialise stably.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// Block-symmetric reduced simulator: `O(√N)` work for any `N`.
    Reduced,
    /// Full state-vector simulator: `O(√N · N)` work, exact amplitudes.
    StateVector,
    /// Gate-level circuit path: like the state vector with a gate-by-gate
    /// constant factor; requires power-of-two dimensions.
    Circuit,
    /// Deterministic classical scan: zero error, `N(1 − 1/K)` worst case.
    ClassicalDeterministic,
    /// Randomized classical scan: zero error, `N/2·(1 − 1/K²)` expected.
    ClassicalRandomized,
    /// Recursive full-address search: `O(log N)` partial-search levels, each
    /// on a database `K` times smaller, totalling `α_K·√N·√K/(√K − 1)`
    /// queries plus an `O(N^{1/3})` brute-force tail. Resolves the exact
    /// address, not just the block.
    Recursive,
    /// Sparse value-class simulator: one `(value, population)` entry per
    /// amplitude-equivalence class, `O(#classes)` work per iteration at any
    /// `N` — the exact backend for huge-`N` jobs, with or without
    /// (class-splitting) noise. Appended after [`Backend::Recursive`] so
    /// existing per-backend indices, orderings and serialisations are
    /// untouched.
    Sparse,
}

impl Backend {
    /// All backends, in the order the planner considers them.
    pub const ALL: [Backend; 7] = [
        Backend::Reduced,
        Backend::StateVector,
        Backend::Circuit,
        Backend::ClassicalDeterministic,
        Backend::ClassicalRandomized,
        Backend::Recursive,
        Backend::Sparse,
    ];

    /// The backends `Auto` chooses between: every backend that answers the
    /// *block* question. [`Backend::Recursive`] is excluded — it resolves
    /// the full address, a strictly more expensive (and semantically
    /// different) request that clients must ask for explicitly.
    pub const AUTO_CANDIDATES: [Backend; 6] = [
        Backend::Reduced,
        Backend::StateVector,
        Backend::Circuit,
        Backend::ClassicalDeterministic,
        Backend::ClassicalRandomized,
        Backend::Sparse,
    ];

    /// Stable lower-case label used in metrics tallies.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Reduced => "reduced",
            Backend::StateVector => "statevector",
            Backend::Circuit => "circuit",
            Backend::ClassicalDeterministic => "classical_deterministic",
            Backend::ClassicalRandomized => "classical_randomized",
            Backend::Recursive => "recursive",
            Backend::Sparse => "sparse",
        }
    }

    /// This backend's position in [`Backend::ALL`] (dense indexing for
    /// per-backend arrays such as the engine's latency histograms).
    pub fn index(self) -> usize {
        match self {
            Backend::Reduced => 0,
            Backend::StateVector => 1,
            Backend::Circuit => 2,
            Backend::ClassicalDeterministic => 3,
            Backend::ClassicalRandomized => 4,
            Backend::Recursive => 5,
            Backend::Sparse => 6,
        }
    }

    /// The `execute:<backend>` stage label this backend's execution spans
    /// carry on the NDJSON trace stream.
    pub fn stage_label(self) -> &'static str {
        match self {
            Backend::Reduced => "execute:reduced",
            Backend::StateVector => "execute:statevector",
            Backend::Circuit => "execute:circuit",
            Backend::ClassicalDeterministic => "execute:classical_deterministic",
            Backend::ClassicalRandomized => "execute:classical_randomized",
            Backend::Recursive => "execute:recursive",
            Backend::Sparse => "execute:sparse",
        }
    }
}

/// One partial-search request.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchJob {
    /// Client-chosen identifier, echoed in the result.
    pub id: u64,
    /// Database size `N` (items).
    pub n: u64,
    /// Number of equal blocks `K`; the answer is the block index.
    pub k: u64,
    /// Address of the marked item (defines the oracle; never read by the
    /// planner — plans depend only on `(N, K, error_target)`).
    pub target: u64,
    /// Acceptable probability of reporting a wrong block. Quantum schedules
    /// carry an `O(1/√N)` residual; a target below that forces a classical
    /// (zero-error) backend under [`BackendHint::Auto`].
    pub error_target: f64,
    /// Independent repetitions of the search (all charged to the result).
    pub trials: u32,
    /// Seed for every random choice the job makes; two runs of the same job
    /// are bit-identical.
    pub seed: u64,
    /// Requested backend.
    pub backend: BackendHint,
    /// Per-query noise channels to run under ([`NoiseSpec`]). `None` — the
    /// wire default, so every pre-noise client line still parses — and an
    /// explicit all-zero spec both mean the ideal dynamics and share one
    /// identity everywhere (route key, result cache, planner).
    pub noise: Option<NoiseSpec>,
}

impl SearchJob {
    /// A minimal valid job with one trial, `Auto` backend and the paper's
    /// `O(1/√N)`-scale error budget.
    pub fn new(id: u64, n: u64, k: u64, target: u64) -> Self {
        Self {
            id,
            n,
            k,
            target,
            error_target: (50.0 / (n as f64).sqrt()).min(1.0),
            trials: 1,
            seed: id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            backend: BackendHint::Auto,
            noise: None,
        }
    }

    /// A full-address job: like [`SearchJob::new`], but asking the engine to
    /// resolve the *entire* address by recursive partial search (one block
    /// of `log2 K` bits per level) instead of just the top-level block.
    /// Equivalent to `SearchJob::new(..).with_backend(BackendHint::Recursive)`
    /// and to posting `"full_address": true` on the NDJSON serving protocol.
    pub fn full_address(id: u64, n: u64, k: u64, target: u64) -> Self {
        Self::new(id, n, k, target).with_backend(BackendHint::Recursive)
    }

    /// Sets the backend hint.
    pub fn with_backend(mut self, backend: BackendHint) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the error target.
    pub fn with_error_target(mut self, error_target: f64) -> Self {
        self.error_target = error_target;
        self
    }

    /// Sets the trial count.
    pub fn with_trials(mut self, trials: u32) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the noise channels this job runs under.
    pub fn with_noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// The noise spec this job *effectively* runs under: `None`, a missing
    /// wire field and an explicit all-zero spec all normalise to `None`
    /// (ideal), so every consumer — route key, cache key, planner, executor
    /// — sees one identity for "no noise".
    pub fn effective_noise(&self) -> Option<NoiseSpec> {
        self.noise.filter(|spec| !spec.is_ideal())
    }

    /// A stable 64-bit hash of the job's deterministic spec — everything
    /// that decides what the job *computes* (`n`, `k`, `target`,
    /// `error_target`, `trials`, `seed`, backend hint) and nothing that
    /// doesn't (the client-assigned `id` is excluded). Two jobs with equal
    /// route keys execute identically, so a sharded front tier that routes
    /// by this key lands every repeat of a spec on the same worker and its
    /// warm result cache. The hash is FNV-1a over the packed fields —
    /// deliberately independent of `std`'s randomised `DefaultHasher`, so
    /// the key is stable across processes, runs, and rust versions (a
    /// router and its workers may be different builds).
    pub fn route_key(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let backend_tag: u64 = match self.backend {
            BackendHint::Auto => 0,
            BackendHint::Reduced => 1,
            BackendHint::StateVector => 2,
            BackendHint::Circuit => 3,
            BackendHint::ClassicalDeterministic => 4,
            BackendHint::ClassicalRandomized => 5,
            BackendHint::Recursive => 6,
            // Appended (not inserted) so every pre-sparse key — including
            // the pinned value below — is preserved.
            BackendHint::Sparse => 7,
        };
        fn mix(hash: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *hash ^= byte as u64;
                *hash = hash.wrapping_mul(PRIME);
            }
        }
        let mut hash = OFFSET;
        for word in [
            self.n,
            self.k,
            self.target,
            self.error_target.to_bits(),
            self.trials as u64,
            self.seed,
            backend_tag,
        ] {
            mix(&mut hash, word);
        }
        // Noise joins the hash only when it actually changes the dynamics:
        // `None`, a missing field and an all-zero spec all hash identically
        // to a pre-noise job, preserving the pinned key below (and landing
        // p = 0 grid points on the same worker as their ideal twins).
        if let Some(noise) = self.effective_noise() {
            for word in noise.key_words() {
                mix(&mut hash, word);
            }
        }
        hash
    }

    /// Checks the structural invariants every backend relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.k < 2 {
            return Err(format!(
                "job {}: k must be at least 2, got {}",
                self.id, self.k
            ));
        }
        if self.n < 2 * self.k {
            return Err(format!(
                "job {}: blocks must hold at least two items (n = {}, k = {})",
                self.id, self.n, self.k
            ));
        }
        if !self.n.is_multiple_of(self.k) {
            return Err(format!(
                "job {}: k must divide n (n = {}, k = {})",
                self.id, self.n, self.k
            ));
        }
        if self.target >= self.n {
            return Err(format!(
                "job {}: target {} outside the database [0, {})",
                self.id, self.target, self.n
            ));
        }
        if !(0.0..=1.0).contains(&self.error_target) {
            return Err(format!(
                "job {}: error_target must lie in [0, 1], got {}",
                self.id, self.error_target
            ));
        }
        if self.trials == 0 {
            return Err(format!("job {}: trials must be at least 1", self.id));
        }
        if let Some(noise) = self.noise {
            noise
                .validate()
                .map_err(|e| format!("job {}: {e}", self.id))?;
        }
        Ok(())
    }
}

/// One completed search.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// The job's identifier.
    pub job_id: u64,
    /// Backend the planner resolved and the executor ran.
    pub backend: Backend,
    /// The block the engine reports (majority vote over trials; ties go to
    /// the lowest block index). On [`Backend::Recursive`] this is the block
    /// containing `address_found` — the top `log2 K` bits of the answer.
    pub block_found: u64,
    /// The block that actually contains the marked item.
    pub true_block: u64,
    /// Whether the job was answered correctly: `block_found == true_block`
    /// for block queries, *exact address equality* on
    /// [`Backend::Recursive`] (the stricter full-address criterion).
    pub correct: bool,
    /// The full address the recursion resolved (majority vote over trials);
    /// `None` on every block-resolution backend. This is what
    /// distinguishes a full-address result from a block result on the wire.
    pub address_found: Option<u64>,
    /// Partial-search levels run across all trials (`0` on non-recursive
    /// backends); per-level query detail is available through
    /// `psq_partial::recursive::LevelReport` when driving the runner
    /// directly.
    pub levels: u32,
    /// Oracle queries charged across all trials.
    pub queries: u64,
    /// Estimated probability that one trial reports the right block:
    /// exact final-state probability on quantum backends, empirical
    /// frequency on classical ones.
    pub success_estimate: f64,
    /// Trials executed.
    pub trials: u32,
    /// Trials whose reported block was correct.
    pub trials_correct: u32,
    /// Wall time this job spent executing, in microseconds. The only
    /// non-deterministic field; everything else is a pure function of the
    /// job spec.
    pub wall_time_us: f64,
}

impl SearchResult {
    /// The deterministic portion of the result (everything but wall time),
    /// as a tuple suitable for equality assertions in tests.
    #[allow(clippy::type_complexity)]
    pub fn deterministic_fields(
        &self,
    ) -> (
        u64,
        Backend,
        u64,
        u64,
        bool,
        Option<u64>,
        u32,
        u64,
        f64,
        u32,
        u32,
    ) {
        (
            self.job_id,
            self.backend,
            self.block_found,
            self.true_block,
            self.correct,
            self.address_found,
            self.levels,
            self.queries,
            self.success_estimate,
            self.trials,
            self.trials_correct,
        )
    }
}

/// A job the engine refused to run, or whose execution failed, and why.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RejectedJob {
    /// The job's identifier.
    pub job_id: u64,
    /// Human-readable reason.
    pub reason: String,
}

/// Deterministically generates a mixed batch exercising every backend.
///
/// Jobs cycle through backend hints (including `Auto` at several error
/// targets and recursive full-address requests) with sizes appropriate to
/// each backend: huge databases for the reduced simulator, power-of-two
/// mid-size ones for the state-vector and circuit paths, small ones for the
/// classical scans.
pub fn generate_mixed_batch(count: usize, seed: u64) -> Vec<SearchJob> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs = Vec::with_capacity(count);
    for id in 0..count as u64 {
        let job = match id % 10 {
            // Reduced: sizes far beyond any state vector.
            0 => {
                let exp = rng.gen_range(20u32..40);
                let k = 1u64 << rng.gen_range(1u32..7);
                let n = 1u64 << exp;
                SearchJob::new(id, n, k, rng.gen_range(0..n)).with_backend(BackendHint::Reduced)
            }
            // State vector: exact amplitudes at simulable sizes.
            1 => {
                let exp = rng.gen_range(8u32..13);
                let n = 1u64 << exp;
                let k = 1u64 << rng.gen_range(1u32..4);
                SearchJob::new(id, n, k, rng.gen_range(0..n)).with_backend(BackendHint::StateVector)
            }
            // Circuit: gate-by-gate, keep the register small.
            2 => {
                let exp = rng.gen_range(6u32..10);
                let n = 1u64 << exp;
                let k = 1u64 << rng.gen_range(1u32..3);
                SearchJob::new(id, n, k, rng.gen_range(0..n)).with_backend(BackendHint::Circuit)
            }
            // Classical scans at honest classical sizes (n a multiple of 8
            // so every k choice divides it).
            3 => {
                let n = rng.gen_range(32u64..1024) * 8;
                let k = [2u64, 4, 8][rng.gen_range(0..3usize)];
                SearchJob::new(id, n, k, rng.gen_range(0..n))
                    .with_backend(BackendHint::ClassicalDeterministic)
            }
            4 => {
                let n = rng.gen_range(32u64..1024) * 8;
                let k = [2u64, 4, 8][rng.gen_range(0..3usize)];
                SearchJob::new(id, n, k, rng.gen_range(0..n))
                    .with_backend(BackendHint::ClassicalRandomized)
            }
            // Auto with a routine error budget → planner picks the reduced
            // simulator.
            5 | 6 => {
                let exp = rng.gen_range(16u32..34);
                let n = 1u64 << exp;
                let k = 1u64 << rng.gen_range(1u32..6);
                SearchJob::new(id, n, k, rng.gen_range(0..n))
            }
            // Auto demanding zero error → planner must go classical.
            7 => {
                let n = rng.gen_range(32u64..512) * 4;
                let k = [2u64, 4][rng.gen_range(0..2usize)];
                SearchJob::new(id, n, k, rng.gen_range(0..n)).with_error_target(0.0)
            }
            // Full-address: recursive descent over power-of-two levels
            // (reduced rotation form at the top, exact state-vector kernels
            // below the planner's cutoff).
            8 => {
                let exp = rng.gen_range(12u32..22);
                let n = 1u64 << exp;
                let k = 1u64 << rng.gen_range(1u32..3);
                SearchJob::full_address(id, n, k, rng.gen_range(0..n))
            }
            // Huge-N exact on the sparse value-class backend, half of them
            // under depolarizing noise (collapses exercise the canonical
            // `K + 2`-class rebuild at sizes no dense backend can touch).
            // At √N-scale query counts even a tiny per-query rate scrambles
            // most trajectories — faithful physics, so batch-level
            // correctness floors must exempt the noisy jobs.
            _ => {
                let exp = rng.gen_range(24u32..34);
                let n = 1u64 << exp;
                let k = 1u64 << rng.gen_range(1u32..6);
                let job =
                    SearchJob::new(id, n, k, rng.gen_range(0..n)).with_backend(BackendHint::Sparse);
                if rng.gen_bool(0.5) {
                    job.with_noise(NoiseSpec {
                        depolarizing: 0.002,
                        ..NoiseSpec::ideal()
                    })
                } else {
                    job
                }
            }
        };
        jobs.push(job.with_trials(rng.gen_range(1u32..4)).with_seed(rng.gen()));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_round_trips_through_json() {
        let job = SearchJob::new(7, 4096, 8, 1234)
            .with_backend(BackendHint::StateVector)
            .with_trials(3);
        let json = serde_json::to_string(&job).expect("serialise");
        let back: SearchJob = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(job, back);
    }

    #[test]
    fn result_round_trips_through_json() {
        let result = SearchResult {
            job_id: 9,
            backend: Backend::Circuit,
            block_found: 3,
            true_block: 3,
            correct: true,
            address_found: None,
            levels: 0,
            queries: 41,
            success_estimate: 0.9991,
            trials: 2,
            trials_correct: 2,
            wall_time_us: 12.5,
        };
        let json = serde_json::to_string(&result).expect("serialise");
        let back: SearchResult = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(result, back);
        // A full-address result round-trips its resolved address.
        let full = SearchResult {
            backend: Backend::Recursive,
            address_found: Some(777),
            levels: 5,
            ..result
        };
        let json = serde_json::to_string(&full).expect("serialise");
        let back: SearchResult = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(full, back);
    }

    #[test]
    fn validation_rejects_malformed_jobs() {
        assert!(SearchJob::new(0, 64, 1, 0).validate().is_err(), "k < 2");
        assert!(
            SearchJob::new(0, 6, 4, 0).validate().is_err(),
            "blocks too small"
        );
        assert!(
            SearchJob::new(0, 65, 4, 0).validate().is_err(),
            "k must divide n"
        );
        assert!(
            SearchJob::new(0, 64, 4, 64).validate().is_err(),
            "target outside"
        );
        assert!(
            SearchJob::new(0, 64, 4, 0)
                .with_trials(0)
                .validate()
                .is_err(),
            "zero trials"
        );
        assert!(
            SearchJob::new(0, 64, 4, 0)
                .with_error_target(1.5)
                .validate()
                .is_err(),
            "error target out of range"
        );
        assert!(SearchJob::new(0, 64, 4, 63).validate().is_ok());
    }

    #[test]
    fn mixed_batch_is_deterministic_and_valid() {
        let a = generate_mixed_batch(64, 42);
        let b = generate_mixed_batch(64, 42);
        assert_eq!(a, b);
        for job in &a {
            job.validate().expect("generated jobs are valid");
        }
        // The cycle guarantees every hint appears.
        for hint in [
            BackendHint::Reduced,
            BackendHint::StateVector,
            BackendHint::Circuit,
            BackendHint::ClassicalDeterministic,
            BackendHint::ClassicalRandomized,
            BackendHint::Recursive,
            BackendHint::Sparse,
            BackendHint::Auto,
        ] {
            assert!(a.iter().any(|j| j.backend == hint), "missing {hint:?}");
        }
        // The huge-N sparse arm covers both ideal and noisy jobs.
        let sparse: Vec<_> = a
            .iter()
            .filter(|j| j.backend == BackendHint::Sparse)
            .collect();
        assert!(sparse.iter().any(|j| j.effective_noise().is_some()));
        assert!(sparse.iter().any(|j| j.effective_noise().is_none()));
        assert!(sparse.iter().all(|j| j.n >= 1 << 24), "huge-N arm");
    }

    #[test]
    fn route_key_depends_on_spec_not_id() {
        let job = SearchJob::new(1, 1 << 12, 4, 99);
        let mut renamed = job;
        renamed.id = 777;
        assert_eq!(
            job.route_key(),
            renamed.route_key(),
            "the client-assigned id must not affect routing"
        );
        // Every deterministic field must affect the key.
        assert_ne!(job.route_key(), SearchJob { n: 1 << 13, ..job }.route_key());
        assert_ne!(job.route_key(), SearchJob { k: 8, ..job }.route_key());
        assert_ne!(job.route_key(), SearchJob { target: 98, ..job }.route_key());
        assert_ne!(job.route_key(), job.with_error_target(0.25).route_key());
        assert_ne!(job.route_key(), job.with_trials(2).route_key());
        assert_ne!(job.route_key(), job.with_seed(job.seed ^ 1).route_key());
        assert_ne!(
            job.route_key(),
            job.with_backend(BackendHint::Reduced).route_key()
        );
        // Pinned value: the key is part of the router's stability contract
        // (a router and its workers may be different builds), so a change
        // here is a breaking change, not a refactor.
        assert_eq!(
            SearchJob::new(0, 1 << 10, 4, 7).route_key(),
            0x56aa_10a9_19a8_e8e3
        );
    }

    #[test]
    fn noise_field_round_trips_and_normalises_to_one_identity() {
        let job = SearchJob::new(7, 4096, 8, 1234);
        // Wire compatibility: pre-noise lines (no "noise" key) parse to None.
        let legacy: SearchJob = serde_json::from_str(
            &serde_json::to_string(&job)
                .unwrap()
                .replace(",\"noise\":null", ""),
        )
        .expect("pre-noise line parses");
        assert_eq!(legacy, job);
        // A non-ideal spec round-trips.
        let noisy = job.with_noise(NoiseSpec {
            depolarizing: 0.01,
            dephasing: 0.0,
            oracle_fault: 0.05,
        });
        let back: SearchJob =
            serde_json::from_str(&serde_json::to_string(&noisy).unwrap()).unwrap();
        assert_eq!(back, noisy);
        // None, missing and all-zero collapse to the same effective noise...
        assert_eq!(job.effective_noise(), None);
        assert_eq!(job.with_noise(NoiseSpec::ideal()).effective_noise(), None);
        assert_eq!(noisy.effective_noise(), Some(noisy.noise.unwrap()));
        // ...so the route key is untouched by an ideal spec and moved by a
        // real one.
        assert_eq!(
            job.route_key(),
            job.with_noise(NoiseSpec::ideal()).route_key()
        );
        assert_ne!(job.route_key(), noisy.route_key());
        assert_ne!(
            noisy.route_key(),
            job.with_noise(NoiseSpec::oracle_only(0.05)).route_key()
        );
        // Out-of-range rates are rejected at validation.
        assert!(job
            .with_noise(NoiseSpec::oracle_only(1.5))
            .validate()
            .is_err());
        assert!(noisy.validate().is_ok());
    }

    #[test]
    fn full_address_constructor_sets_the_recursive_hint() {
        let job = SearchJob::full_address(3, 1 << 12, 4, 99);
        assert_eq!(job.backend, BackendHint::Recursive);
        assert_eq!(
            SearchJob::new(3, 1 << 12, 4, 99).with_backend(BackendHint::Recursive),
            job
        );
        job.validate().expect("full-address jobs validate normally");
    }
}
