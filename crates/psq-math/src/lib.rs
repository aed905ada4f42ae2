//! Numerical substrate for the partial-quantum-search reproduction.
//!
//! This crate deliberately implements its own complex arithmetic, small dense
//! linear algebra, angle utilities, 1-D optimisation and statistics rather
//! than pulling in external numerics crates: every routine the reproduction
//! depends on is small, auditable and covered by unit and property tests
//! here.
//!
//! Modules:
//! * [`complex`] — `Complex64` amplitudes.
//! * [`vec_ops`] — serial kernels over amplitude slices (inner products,
//!   inversion about the average, probabilities).
//! * [`soa`] — structure-of-arrays amplitude planes ([`soa::SoaVec`]) with
//!   fused inversion sweeps and fast Walsh–Hadamard transforms, the storage
//!   layout of the hot simulation kernels.
//! * [`matrix`] — small dense complex matrices for the reduced simulator and
//!   bound verification.
//! * [`angle`] — Grover rotation angles and the `arccos|⟨·|·⟩|` metric from
//!   Appendix B.
//! * [`optimize`] — golden-section / grid minimisation used to tune the
//!   partial-search parameter `ε` (the paper's "computer program").
//! * [`stats`] — streaming statistics for Monte-Carlo experiments.
//! * [`approx`] — tolerance-based comparisons, including the paper's
//!   `O(1/√N)` "∼" relation.
//! * [`bits`] — address/block arithmetic for `[N]` split into `K` blocks.

pub mod angle;
pub mod approx;
pub mod bits;
pub mod complex;
pub mod matrix;
pub mod optimize;
pub mod soa;
pub mod stats;
pub mod vec_ops;

pub use angle::{angular_distance, grover_angle, optimal_grover_iterations};
pub use approx::{approx_eq_abs, approx_eq_rel, assert_close};
pub use complex::Complex64;
pub use matrix::Matrix;
pub use optimize::{golden_section_min, minimize, Minimum};
pub use stats::RunningStats;
