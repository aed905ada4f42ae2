//! Data-parallel primitives for the partial-quantum-search workspace: one
//! persistent worker pool, and fixed-chunk kernels that run on it.
//!
//! The state-vector simulator in `psq-sim` applies streaming kernels (sign
//! flips, inversion about the average, probability sums) over amplitude
//! arrays of up to `2^22` entries, and the batch engine runs many
//! independent jobs at once. This crate provides exactly the parallelism
//! those two workloads need, on one runtime:
//!
//! * [`pool`] — a persistent work-stealing [`pool::WorkerPool`] that runs
//!   jobs, and lets a job's sweep run as a *parallel region* that idle
//!   sibling workers join (no thread is spawned per sweep);
//! * [`scope`] — the fixed-chunk kernels over slices
//!   ([`par_chunks_fixed`], [`par_map_chunks_fixed`],
//!   [`par_zip_chunks_fixed`]), which run as regions on the calling worker's
//!   pool and serially, in chunk order, anywhere else;
//! * [`chunks`] — the fixed chunk layout and the default pool size.
//!
//! Determinism: the chunk layout is a pure function of the slice length and
//! chunk size, and per-chunk results come back in chunk order, so folds over
//! them are bit-identical at any pool size, on or off the pool. Data-race
//! freedom comes from the borrow checker (disjoint `split_at_mut` chunks).

pub mod chunks;
pub mod pool;
pub mod scope;

pub use chunks::{chunk_ranges_fixed, num_threads, FIXED_CHUNK};
pub use pool::WorkerPool;
pub use scope::{par_chunks_fixed, par_map_chunks_fixed, par_zip_chunks_fixed};
