//! Qubit-level gates and circuits.
//!
//! The streaming kernels in [`crate::statevector`] apply the Grover operators
//! directly as reflections, which is how the query-count analysis treats
//! them.  This module provides the circuit-level view used in Section 2.1 of
//! the paper (and in Nielsen & Chuang's presentation): an `n`-qubit register,
//! single-qubit gates, controlled phases, and the decomposition of the
//! diffusion operator as `H^{⊗n} · (2|0⟩⟨0| − I) · H^{⊗n}`.
//!
//! The Hadamard walls are the circuit backend's hot path, and they are
//! **not** applied as `n` sequential single-qubit butterfly sweeps any more:
//! [`QubitRegister::hadamard_all`] and
//! [`QubitRegister::hadamard_low_qubits`] route through the in-place radix-2
//! fast Walsh–Hadamard transform of [`psq_math::soa`], one pass with the
//! `1/√N` normalisation folded into its final butterfly level, applied per
//! amplitude plane (the real plane alone while the state is real and holds
//! no imaginary plane).  The per-gate path ([`QubitRegister::apply_single_qubit`]) is
//! kept for arbitrary 2×2 unitaries and as the reference the equivalence
//! tests pin the transform against.
//!
//! Tests verify that the circuit construction reproduces the reflection
//! kernels exactly, which is the correctness argument for charging one query
//! per oracle application in the kernel form.

use crate::statevector::StateVector;
use psq_math::complex::Complex64;
use psq_math::matrix::Matrix;
use psq_math::soa;

/// A register of `n` qubits whose joint state is a [`StateVector`] of
/// dimension `2^n`.
///
/// Qubit 0 is the **most significant** address bit, matching the paper's
/// convention that the first `k` bits of an address name its block.
#[derive(Clone, Debug)]
pub struct QubitRegister {
    qubits: u32,
    state: StateVector,
}

impl QubitRegister {
    /// Creates the register in the all-zeros state `|0…0⟩`.
    pub fn zeros(qubits: u32) -> Self {
        assert!(
            (1..=26).contains(&qubits),
            "supported register sizes are 1..=26 qubits"
        );
        Self {
            qubits,
            state: StateVector::basis(1usize << qubits, 0),
        }
    }

    /// Creates the register in the uniform superposition.
    pub fn uniform(qubits: u32) -> Self {
        assert!(
            (1..=26).contains(&qubits),
            "supported register sizes are 1..=26 qubits"
        );
        Self {
            qubits,
            state: StateVector::uniform(1usize << qubits),
        }
    }

    /// Wraps an existing state vector (its dimension must be a power of two).
    pub fn from_state(state: StateVector) -> Self {
        let n = state.len();
        assert!(
            n.is_power_of_two(),
            "register dimension must be a power of two"
        );
        Self {
            qubits: n.trailing_zeros(),
            state,
        }
    }

    /// Number of qubits.
    pub fn qubits(&self) -> u32 {
        self.qubits
    }

    /// The underlying state vector.
    pub fn state(&self) -> &StateVector {
        &self.state
    }

    /// Consumes the register and returns the state vector.
    pub fn into_state(self) -> StateVector {
        self.state
    }

    /// Resets the register to the uniform superposition in place, reusing
    /// the amplitude allocations (the between-trials reset on the engine's
    /// circuit backend).
    pub fn reset_uniform(&mut self) {
        self.state.fill_uniform();
    }

    /// Applies a single-qubit gate (a 2×2 unitary) to qubit `q`.
    ///
    /// This is the general per-gate reference path: a real gate runs scalar
    /// butterflies over each plane the state holds, a complex gate
    /// materialises the imaginary plane and mixes the two.  Hadamard walls
    /// go through the fast Walsh–Hadamard transform instead (see the module
    /// docs).
    ///
    /// # Panics
    /// Panics if the matrix is not 2×2 or not unitary, or `q` is out of
    /// range.
    pub fn apply_single_qubit(&mut self, q: u32, gate: &Matrix) {
        assert!(q < self.qubits, "qubit index {q} out of range");
        assert_eq!(gate.rows(), 2, "single-qubit gate must be 2x2");
        assert_eq!(gate.cols(), 2, "single-qubit gate must be 2x2");
        debug_assert!(gate.is_unitary(1e-9), "gate must be unitary");
        // Bit position counted from the most-significant address bit.
        let stride = 1usize << (self.qubits - 1 - q);
        let g = [gate[(0, 0)], gate[(0, 1)], gate[(1, 0)], gate[(1, 1)]];
        let gate_is_real = g.iter().all(|z| z.im == 0.0);
        if gate_is_real {
            // Real gate: the planes never mix; sweep each plane with scalar
            // butterflies.
            self.state.plane_sweep(|plane, _| {
                real_butterflies(plane, stride, g[0].re, g[1].re, g[2].re, g[3].re);
            });
        } else {
            let (re, im) = self.state.planes_mut();
            complex_butterflies(re, im, stride, &g);
        }
    }

    /// Applies the Hadamard gate to qubit `q`.
    pub fn hadamard(&mut self, q: u32) {
        let h = hadamard_matrix();
        self.apply_single_qubit(q, &h);
    }

    /// Applies Hadamard to every qubit (the `H^{⊗n}` wall used to prepare and
    /// unprepare the uniform superposition) as one in-place fast
    /// Walsh–Hadamard transform per plane, normalisation folded in.
    pub fn hadamard_all(&mut self) {
        self.state
            .plane_sweep(|plane, _| soa::fwht_normalized(plane));
    }

    /// Multiplies the amplitude of a single basis state by a phase.
    pub fn phase_on_basis_state(&mut self, index: usize, phase: Complex64) {
        debug_assert!(
            (phase.abs() - 1.0).abs() < 1e-9,
            "phase must have unit modulus"
        );
        let rotated = self.state.amplitude(index) * phase;
        self.state.set_amplitude(index, rotated);
    }

    /// The reflection `2|0…0⟩⟨0…0| − I` (phase flip on every basis state
    /// except all-zeros), used inside the circuit form of the diffusion
    /// operator.
    pub fn reflect_about_zero(&mut self) {
        self.state
            .plane_sweep(|plane, _| soa::negate(&mut plane[1..]));
    }

    /// The Grover diffusion operator built as a circuit:
    /// `H^{⊗n} · (2|0⟩⟨0| − I) · H^{⊗n}`.
    ///
    /// Equivalent to [`StateVector::invert_about_mean`]; the equivalence is
    /// asserted by tests.
    pub fn diffusion_via_circuit(&mut self) {
        self.hadamard_all();
        self.reflect_about_zero();
        self.hadamard_all();
    }

    /// Applies Hadamard to each of the `low` least-significant address
    /// qubits — the "offset" register `z` of the partial-search problem,
    /// leaving the "block" register `y` (the first `k` qubits) untouched.
    /// One blocked fast Walsh–Hadamard transform per plane.
    pub fn hadamard_low_qubits(&mut self, low: u32) {
        assert!(
            low <= self.qubits,
            "cannot address {low} low qubits of a {}-qubit register",
            self.qubits
        );
        let block = 1usize << low;
        self.state
            .plane_sweep(|plane, _| soa::fwht_blocks_normalized(plane, block));
    }

    /// The reflection `I_{[K]} ⊗ (2|0…0⟩⟨0…0| − I)` acting on the `low`
    /// least-significant qubits: every basis state whose offset bits are not
    /// all zero has its sign flipped.
    pub fn reflect_about_zero_low_qubits(&mut self, low: u32) {
        assert!(
            low <= self.qubits,
            "cannot address {low} low qubits of a {}-qubit register",
            self.qubits
        );
        let block = 1usize << low;
        self.state.plane_sweep(|plane, _| {
            for chunk in plane.chunks_exact_mut(block) {
                soa::negate(&mut chunk[1..]);
            }
        });
    }

    /// The per-block diffusion `I_{[K]} ⊗ I_{0,[N/K]}` of Section 2.2 built
    /// as a circuit: Hadamard walls and a reflection about zero on the offset
    /// register only.
    ///
    /// Equivalent to [`StateVector::invert_about_mean_per_block`] for
    /// power-of-two block sizes; `crate::circuit` asserts the equivalence.
    pub fn block_diffusion_via_circuit(&mut self, block_qubits: u32) {
        self.hadamard_low_qubits(block_qubits);
        self.reflect_about_zero_low_qubits(block_qubits);
        self.hadamard_low_qubits(block_qubits);
    }
}

/// In-place butterflies of a **real** 2×2 gate over one plane: each pair
/// `(i, i + stride)` maps through `[[g00, g01], [g10, g11]]` independently.
fn real_butterflies(plane: &mut [f64], stride: usize, g00: f64, g01: f64, g10: f64, g11: f64) {
    let n = plane.len();
    let mut base = 0usize;
    while base < n {
        let (lo, hi) = plane[base..base + 2 * stride].split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let x = *a;
            let y = *b;
            *a = g00 * x + g01 * y;
            *b = g10 * x + g11 * y;
        }
        base += 2 * stride;
    }
}

/// In-place butterflies of a general complex 2×2 gate over both planes.
fn complex_butterflies(re: &mut [f64], im: &mut [f64], stride: usize, g: &[Complex64; 4]) {
    let n = re.len();
    let mut base = 0usize;
    while base < n {
        for i in base..base + stride {
            let j = i + stride;
            let a = Complex64::new(re[i], im[i]);
            let b = Complex64::new(re[j], im[j]);
            let na = g[0] * a + g[1] * b;
            let nb = g[2] * a + g[3] * b;
            re[i] = na.re;
            im[i] = na.im;
            re[j] = nb.re;
            im[j] = nb.im;
        }
        base += 2 * stride;
    }
}

/// The 2×2 Hadamard matrix.
pub fn hadamard_matrix() -> Matrix {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    Matrix::from_real_rows(2, 2, &[s, s, s, -s])
}

/// The 2×2 Pauli-X (NOT) matrix.
pub fn pauli_x_matrix() -> Matrix {
    Matrix::from_real_rows(2, 2, &[0.0, 1.0, 1.0, 0.0])
}

/// The 2×2 Pauli-Z matrix.
pub fn pauli_z_matrix() -> Matrix {
    Matrix::from_real_rows(2, 2, &[1.0, 0.0, 0.0, -1.0])
}

/// The single-qubit phase gate `diag(1, e^{iφ})`.
pub fn phase_matrix(phi: f64) -> Matrix {
    Matrix::from_rows(
        2,
        2,
        vec![
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::cis(phi),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use psq_math::approx::assert_close;

    #[test]
    fn hadamard_wall_prepares_uniform_superposition() {
        let mut reg = QubitRegister::zeros(4);
        reg.hadamard_all();
        let uniform = StateVector::uniform(16);
        assert_close(reg.state().fidelity(&uniform), 1.0, 1e-12);
    }

    #[test]
    fn hadamard_is_self_inverse() {
        let mut reg = QubitRegister::uniform(3);
        reg.phase_on_basis_state(5, Complex64::from_real(-1.0));
        let before = reg.state().clone();
        reg.hadamard(1);
        reg.hadamard(1);
        assert_close(reg.state().fidelity(&before), 1.0, 1e-12);
    }

    #[test]
    fn fwht_wall_matches_per_qubit_hadamard_sweeps() {
        // The transform replaces n sequential single-qubit sweeps; both
        // paths must produce the same wall, including on complex states.
        for qubits in [1u32, 3, 5, 7] {
            let n = 1usize << qubits;
            let mut amps: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            psq_math::vec_ops::normalize(&mut amps);
            let mut fast = QubitRegister::from_state(StateVector::from_amplitudes(amps.clone()));
            let mut slow = QubitRegister::from_state(StateVector::from_amplitudes(amps));
            fast.hadamard_all();
            let h = hadamard_matrix();
            for q in 0..qubits {
                slow.apply_single_qubit(q, &h);
            }
            for x in 0..n {
                assert!(
                    (fast.state().amplitude(x) - slow.state().amplitude(x)).abs() < 1e-12,
                    "qubits {qubits}, index {x}"
                );
            }
        }
    }

    #[test]
    fn blocked_fwht_matches_per_qubit_low_sweeps() {
        let qubits = 6u32;
        let n = 1usize << qubits;
        for low in [0u32, 1, 3, 6] {
            let mut amps: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(((i * 13 % 7) as f64) / 7.0, ((i * 5 % 11) as f64) / 11.0))
                .collect();
            psq_math::vec_ops::normalize(&mut amps);
            let mut fast = QubitRegister::from_state(StateVector::from_amplitudes(amps.clone()));
            let mut slow = QubitRegister::from_state(StateVector::from_amplitudes(amps));
            fast.hadamard_low_qubits(low);
            let h = hadamard_matrix();
            for q in qubits - low..qubits {
                slow.apply_single_qubit(q, &h);
            }
            for x in 0..n {
                assert!(
                    (fast.state().amplitude(x) - slow.state().amplitude(x)).abs() < 1e-12,
                    "low {low}, index {x}"
                );
            }
        }
    }

    #[test]
    fn diffusion_circuit_matches_inversion_about_mean() {
        let mut reg = QubitRegister::uniform(5);
        // Perturb the state so the diffusion acts non-trivially.
        reg.phase_on_basis_state(7, Complex64::from_real(-1.0));
        reg.phase_on_basis_state(20, Complex64::from_real(-1.0));

        let mut kernel_state = reg.state().clone();
        kernel_state.invert_about_mean();

        reg.diffusion_via_circuit();
        assert_close(reg.state().fidelity(&kernel_state), 1.0, 1e-10);
        // And amplitudes agree entrywise, not just up to phase.
        for i in 0..32 {
            assert!((reg.state().amplitude(i) - kernel_state.amplitude(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn grover_via_circuit_matches_kernel_grover() {
        use crate::oracle::Database;
        let n_qubits = 6;
        let n = 1usize << n_qubits;
        let target = 37usize;
        let db = Database::new(n as u64, target as u64);

        let mut kernel = StateVector::uniform(n);
        let mut circuit = QubitRegister::uniform(n_qubits as u32);

        for _ in 0..3 {
            kernel.grover_iteration(&db);
            // Oracle: phase flip on the target basis state...
            circuit.phase_on_basis_state(target, Complex64::from_real(-1.0));
            // ...then the diffusion circuit.
            circuit.diffusion_via_circuit();
        }
        for i in 0..n {
            assert!((kernel.amplitude(i) - circuit.state().amplitude(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn pauli_gates_are_unitary_and_do_what_they_say() {
        assert!(pauli_x_matrix().is_unitary(1e-12));
        assert!(pauli_z_matrix().is_unitary(1e-12));
        assert!(hadamard_matrix().is_unitary(1e-12));
        assert!(phase_matrix(0.7).is_unitary(1e-12));

        // X on the most significant qubit maps |00⟩ -> |10⟩ (index 0 -> 2).
        let mut reg = QubitRegister::zeros(2);
        reg.apply_single_qubit(0, &pauli_x_matrix());
        assert_close(reg.state().probability(2), 1.0, 1e-12);

        // Z flips the phase of the |1⟩ component of qubit 1.
        let mut reg = QubitRegister::uniform(2);
        reg.apply_single_qubit(1, &pauli_z_matrix());
        assert_close(reg.state().amplitude(0).re, 0.5, 1e-12);
        assert_close(reg.state().amplitude(1).re, -0.5, 1e-12);
    }

    #[test]
    fn complex_gates_mix_the_planes_correctly() {
        // A phase gate makes the state complex; a second application must
        // still match the matrix algebra done by hand.
        let mut reg = QubitRegister::uniform(2);
        let p = phase_matrix(0.9);
        reg.apply_single_qubit(1, &p);
        assert!(!reg.state().is_real_only());
        reg.apply_single_qubit(1, &p);
        let expected = Complex64::cis(1.8) * Complex64::from_real(0.5);
        assert!((reg.state().amplitude(1) - expected).abs() < 1e-12);
        assert!((reg.state().amplitude(0) - Complex64::from_real(0.5)).abs() < 1e-12);
        assert_close(reg.state().norm_sqr(), 1.0, 1e-12);
    }

    #[test]
    fn register_round_trip_through_state_vector() {
        let reg = QubitRegister::uniform(3);
        assert_eq!(reg.qubits(), 3);
        let state = reg.clone().into_state();
        let reg2 = QubitRegister::from_state(state);
        assert_eq!(reg2.qubits(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_state_rejects_non_power_of_two_dimensions() {
        QubitRegister::from_state(StateVector::uniform(12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gate_on_missing_qubit_panics() {
        let mut reg = QubitRegister::zeros(2);
        reg.hadamard(2);
    }
}
