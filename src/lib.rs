//! # partial-quantum-search
//!
//! A from-scratch Rust reproduction of **Grover & Radhakrishnan, *Is partial
//! quantum search of a database any easier?* (SPAA 2005,
//! arXiv:quant-ph/0407122)**.
//!
//! The paper asks: if only the first `k` bits of the marked item's address
//! are wanted — the *block* containing it, out of `K = 2^k` equal blocks —
//! how many oracle queries are needed?  The answers reproduced by this
//! workspace:
//!
//! * **Yes, it is easier** (Theorem 1): a three-step algorithm finds the
//!   block with probability `1 − O(1/√N)` using
//!   `(π/4)(1 − c_K)√N` queries, `c_K ≥ 0.42/√K`.
//! * **But not much easier** (Theorem 2): any algorithm with error
//!   `O(N^{-1/4})` needs `(π/4)(1 − 1/√K)√N` queries, via a reduction to
//!   Zalka's optimality bound for full search (Theorem 3 / Appendix B).
//! * Classically the saving is only a `1/K²` fraction (Section 1.1 /
//!   Appendix A).
//!
//! This facade crate re-exports the whole workspace so applications can use a
//! single dependency:
//!
//! | module | contents |
//! |---|---|
//! | [`math`] | complex arithmetic, angles, optimisation, statistics (`psq-math`) |
//! | [`parallel`] | a worker pool and the fixed-chunk kernels that run on it (`psq-parallel`) |
//! | [`sim`] | state-vector and block-symmetric reduced simulators, oracles, measurement (`psq-sim`) |
//! | [`grover`] | standard/zero-error/sure-success Grover search and amplitude amplification (`psq-grover`) |
//! | [`classical`] | classical full/partial search and the Appendix-A bound (`psq-classical`) |
//! | [`partial`] | the GRK partial-search algorithm, its query model, optimiser, baselines (`psq-partial`) |
//! | [`bounds`] | Theorem 2, Theorem 3 and the Appendix-B hybrid-argument audit (`psq-bounds`) |
//! | [`engine`] | batched multi-backend execution engine: job specs, cost-model planner with a memoised plan cache, worker-pool executor, recursive full-address backend, metrics (`psq-engine`) |
//! | [`serve`] | streaming multi-client serving layer: NDJSON protocol (including `full_address` requests), micro-batching coalescer, pipe + TCP transports, admission control (`psq-serve`) |
//! | [`router`] | fault-tolerant sharded front tier: rendezvous routing over supervised `psq-serve` worker processes, health probes, respawn with backoff, deadline budgets with bit-identical retries, drain-aware rolling restarts, deterministic fault injection (`psq-router`) |
//! | [`obs`] | observability primitives: lock-free latency histograms with mergeable snapshots, per-stage spans, the `--trace` NDJSON trace stream (`psq-obs`) |
//!
//! ## Quickstart
//!
//! ```
//! use partial_quantum_search::prelude::*;
//! use rand::SeedableRng;
//!
//! // A database of 2^12 items whose marked item is at address 1234,
//! // partitioned into 8 blocks: we want the first three address bits.
//! let db = Database::new(1 << 12, 1234);
//! let partition = Partition::new(1 << 12, 8);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let run = PartialSearch::new().run_statevector(&db, &partition, &mut rng);
//!
//! assert!(run.outcome.is_correct());
//! // Fewer queries than full Grover search ((π/4)·√N ≈ 50)...
//! assert!(run.outcome.queries < 50);
//! // ...with essentially certain identification of the block.
//! assert!(run.success_probability > 0.999);
//! ```
//!
//! See the `examples/` directory for longer walkthroughs (the merit-list
//! scenario from the paper's introduction, the twelve-item Figure-1 example,
//! recursive search, ε tuning and error analysis), and the README's
//! "Workspace map" for the `psq-bench` binaries that regenerate every
//! table and figure of the paper (`cargo run --release -p psq-bench --bin
//! report` prints all of their headline numbers at once).

pub use psq_bounds as bounds;
pub use psq_classical as classical;
pub use psq_engine as engine;
pub use psq_grover as grover;
pub use psq_math as math;
pub use psq_obs as obs;
pub use psq_parallel as parallel;
pub use psq_partial as partial;
pub use psq_router as router;
pub use psq_serve as serve;
pub use psq_sim as sim;

/// The most commonly used types, re-exported flat for convenient `use
/// partial_quantum_search::prelude::*`.
pub mod prelude {
    pub use psq_engine::{
        Backend, BackendHint, BatchMetrics, BatchReport, Engine, EngineConfig, EngineHandle,
        SearchJob, SearchResult,
    };
    pub use psq_grover::{ExactPlan, MarkedSet, Schedule};
    pub use psq_partial::{
        EpsilonChoice, LevelKind, LevelReport, Model, PartialRun, PartialSearch, RecursiveOutcome,
        RecursiveSearch, SearchPlan,
    };
    pub use psq_router::{Router, RouterConfig, RouterMetrics};
    pub use psq_serve::{CoalescerConfig, ServeConfig, ServeMetrics, Server};
    pub use psq_sim::{
        Database, FullSearchOutcome, PartialSearchOutcome, Partition, QueryCounter, ReducedState,
        StateVector,
    };
}
