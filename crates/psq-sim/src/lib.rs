//! Quantum database-search simulator.
//!
//! This crate is the "quantum hardware" substitute for the reproduction of
//! Grover & Radhakrishnan's partial-search paper.  It provides:
//!
//! * [`oracle`] — the database `f : [N] → {0,1}` with a unique marked item,
//!   an instrumented [`oracle::Database`] that charges every classical probe
//!   and every quantum oracle application to a shared
//!   [`query_counter::QueryCounter`], and the block [`oracle::Partition`] of
//!   the partial-search problem;
//! * [`statevector`] — exact complex state-vector simulation with the
//!   reflections used by the paper (oracle phase flip, global diffusion,
//!   per-block diffusion, Step-3 non-target inversion), parallelised over
//!   threads for large registers;
//! * [`gates`] — the circuit-level view (Hadamard walls, reflection about
//!   zero) used to validate that the reflection kernels implement the same
//!   unitaries as the textbook circuits;
//! * [`circuit`] — the paper's operators rebuilt gate by gate (including the
//!   Step-3 ancilla construction) and cross-checked against the kernels;
//! * [`reduced`] — the exact block-symmetric reduced simulator, which evolves
//!   the three amplitudes `(a_t, a_tb, a_nb)` and therefore handles
//!   arbitrarily large `N` in `O(#iterations)` time;
//! * [`sparse`] — the value-class sparse simulator: one `(value,
//!   population)` entry per amplitude-equivalence class, exact huge-`N`
//!   dynamics in `O(#classes)` per operator, with a class-splitting ladder
//!   for noise channels the symmetric form cannot express;
//! * [`measure`] — standard-basis and block measurements;
//! * [`noise`] — per-query depolarizing / dephasing / faulty-oracle
//!   channels as deterministic quantum trajectories on the SoA planes;
//! * [`scratch`] — reusable amplitude buffers that keep the simulation hot
//!   path allocation-free across repeated trials;
//! * [`trace`] — labelled amplitude snapshots for regenerating the paper's
//!   figures.
//!
//! # Amplitude layout and fused sweeps
//!
//! Amplitudes are stored **structure-of-arrays**: separate `f64` planes
//! (real and imaginary, [`psq_math::soa::SoaVec`]) instead of one
//! `Vec<Complex64>`. Every operator the partial-search algorithm uses has
//! real coefficients, so the planes evolve independently, each kernel is a
//! straight-line vectorizable sweep over a `&[f64]`, and a real state holds
//! no imaginary plane at all (the partial-search dynamics never leave the
//! real subspace, so a dense state needs 8 bytes per amplitude and every
//! sweep moves half the memory). On top of the layout, iteration runs are **fused**: each
//! Grover/per-block iteration applies the oracle flip plus the inversion
//! about the mean in a single sweep per plane that also accumulates the
//! (block) sums the next iteration needs —
//! [`statevector::StateVector::grover_iterations`] and
//! [`statevector::StateVector::block_grover_iterations`] cost `ℓ + 1`
//! passes for `ℓ` iterations instead of `2ℓ`. The circuit backend's
//! Hadamard walls run as one in-place radix-2 fast Walsh–Hadamard transform
//! per plane with the `1/√N` normalisation folded into the final butterfly
//! level, replacing `n` sequential single-qubit sweeps. Unfused
//! single-iteration and per-gate paths are kept as the reference the
//! property tests pin the fused kernels against (≤ 1e-12).

pub mod circuit;
pub mod gates;
pub mod measure;
pub mod noise;
pub mod oracle;
pub mod query_counter;
pub mod reduced;
pub mod scratch;
pub mod sparse;
pub mod statevector;
pub mod trace;

pub use noise::{NoiseModel, NoiseSpec, QueryNoise};
pub use oracle::{Database, FullSearchOutcome, PartialSearchOutcome, Partition};
pub use query_counter::{QueryCounter, QuerySpan};
pub use reduced::ReducedState;
pub use scratch::AmplitudeScratch;
pub use sparse::SparseState;
pub use statevector::StateVector;
pub use trace::{AmplitudeSummary, StageTrace};
