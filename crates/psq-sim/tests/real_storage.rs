//! A real state holds one amplitude plane.
//!
//! Every operator of the partial search has real coefficients, so a dense
//! state that starts real stays real and never allocates its imaginary
//! plane. Operations that can make a state complex materialise the plane as
//! zeros first; these tests pin that such a state then evolves bit for bit
//! like one built with explicit zero imaginary parts, and that writes which
//! make a state real again drop the plane while keeping its allocation.

use psq_math::complex::Complex64;
use psq_sim::gates::{phase_matrix, QubitRegister};
use psq_sim::measure;
use psq_sim::noise::{apply_channels, QueryNoise};
use psq_sim::oracle::{Database, Partition};
use psq_sim::reduced::ReducedState;
use psq_sim::scratch::AmplitudeScratch;
use psq_sim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 256;
const TARGET: u64 = 77;

/// A real state off the uniform fixed point (a few global iterations).
fn real_state() -> StateVector {
    let mut psi = StateVector::uniform(N);
    psi.grover_iterations(&Database::new(N as u64, TARGET), 3);
    assert!(psi.planes().1.is_empty(), "a real state holds one plane");
    psi
}

/// The same amplitudes with an explicit all-zero imaginary plane.
fn explicit_twin(psi: &StateVector) -> StateVector {
    let twin = StateVector::from_amplitudes(psi.to_amplitudes());
    assert_eq!(twin.planes().1.len(), N);
    twin
}

fn assert_bit_identical(a: &StateVector, b: &StateVector) {
    for (i, (x, y)) in a.to_amplitudes().iter().zip(b.to_amplitudes()).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "re at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "im at {i}");
    }
}

/// Applies `op` to a real state and to its explicit twin, checks the real
/// state materialised its plane and both evolve bit for bit alike, through
/// `op` and through the real kernels after it.
fn check_fill(op: impl Fn(&mut StateVector)) {
    let mut lazy = real_state();
    let mut explicit = explicit_twin(&lazy);
    op(&mut lazy);
    op(&mut explicit);
    assert!(!lazy.is_real_only(), "the operation materialised the plane");
    assert_bit_identical(&lazy, &explicit);
    let partition = Partition::new(N as u64, 4);
    for psi in [&mut lazy, &mut explicit] {
        let db = Database::new(N as u64, TARGET);
        psi.grover_iterations(&db, 2);
        psi.block_grover_iterations(&db, &partition, 2);
        psi.invert_about_mean_excluding_target(&db);
    }
    assert_bit_identical(&lazy, &explicit);
}

#[test]
fn an_ideal_run_in_a_scratch_allocates_no_imaginary_plane() {
    let mut scratch = AmplitudeScratch::new();
    let partition = Partition::new(1 << 12, 8);
    let mut rng = StdRng::seed_from_u64(5);
    for target in [3u64, 4000] {
        let db = Database::new(1 << 12, target);
        let mut psi = StateVector::uniform_in(1 << 12, &mut scratch);
        psi.grover_iterations(&db, 30);
        psi.block_grover_iterations(&db, &partition, 9);
        psi.invert_about_mean_excluding_target(&db);
        assert!(psi.block_probability(&partition, partition.block_of(target)) > 0.9);
        let _ = measure::sample_block(&psi, &partition, &mut rng);
        assert!(psi.is_real_only());
        assert!(psi.planes().1.is_empty());
        psi.recycle_into(&mut scratch);
    }
    assert!(scratch.capacity() >= 1 << 12);
    assert_eq!(scratch.im_capacity(), 0);
}

#[test]
fn a_complex_gate_fills_the_plane_like_explicit_zeros() {
    check_fill(|psi| {
        let mut register = QubitRegister::from_state(psi.clone());
        register.apply_single_qubit(3, &phase_matrix(0.7));
        *psi = register.into_state();
    });
}

#[test]
fn phase_rotations_fill_the_plane_like_explicit_zeros() {
    check_fill(|psi| psi.apply_oracle_phase_rotation(&Database::new(N as u64, TARGET), 1.1));
    check_fill(|psi| psi.invert_about_mean_with_phase(0.9));
}

#[test]
fn a_dephasing_kick_fills_the_plane_like_explicit_zeros() {
    check_fill(|psi| {
        apply_channels(
            psi,
            &QueryNoise {
                faulty: false,
                depolarize: None,
                dephase: Some((4, 2.3)),
            },
        );
    });
}

#[test]
fn complex_writes_fill_the_plane_like_explicit_zeros() {
    check_fill(|psi| psi.set_amplitude(9, Complex64::new(0.01, -0.02)));
    check_fill(|psi| {
        let (re, im) = psi.planes_mut();
        re[2] = 0.125;
        im[2] = 0.25;
    });
    check_fill(|psi| {
        psi.for_each_amplitude(|i, z| {
            *z = z.scale(1.0 + i as f64 * 1e-3).conj() * Complex64::new(0.6, 0.8)
        })
    });
}

#[test]
fn writes_that_make_a_state_real_drop_the_plane_and_keep_its_allocation() {
    let kick = QueryNoise {
        faulty: false,
        depolarize: None,
        dephase: Some((1, 0.4)),
    };
    let mut scratch = AmplitudeScratch::new();
    let mut psi = StateVector::uniform_in(N, &mut scratch);
    apply_channels(&mut psi, &kick);
    assert_eq!(psi.planes().1.len(), N);
    // A depolarizing collapse is a real basis state.
    apply_channels(
        &mut psi,
        &QueryNoise {
            faulty: false,
            depolarize: Some(5),
            dephase: None,
        },
    );
    assert!(psi.planes().1.is_empty());
    assert_eq!(psi, StateVector::basis(N, 5));
    psi.recycle_into(&mut scratch);
    assert!(
        scratch.im_capacity() >= N,
        "the collapse kept the allocation"
    );
    // The next state from the scratch starts real whatever the plane held,
    // even when a complex state went back into it.
    let mut psi = StateVector::uniform_in(N, &mut scratch);
    assert!(psi.planes().1.is_empty());
    assert_eq!(psi, StateVector::uniform(N));
    apply_channels(&mut psi, &kick);
    psi.recycle_into(&mut scratch);
    let psi = StateVector::uniform_in(N, &mut scratch);
    assert!(psi.planes().1.is_empty());
    assert_eq!(psi, StateVector::uniform(N));

    // The between-trials reset and the reduced write-out do the same.
    let mut psi = StateVector::uniform(N);
    apply_channels(&mut psi, &kick);
    psi.fill_uniform();
    assert!(psi.planes().1.is_empty());
    assert_eq!(psi, StateVector::uniform(N));
    let partition = Partition::new(N as u64, 4);
    let db = Database::new(N as u64, TARGET);
    let reduced = ReducedState::uniform(N as f64, 4.0);
    apply_channels(&mut psi, &kick);
    reduced.write_state_vector_into(&db, &partition, &mut psi);
    assert!(psi.planes().1.is_empty());
    assert_eq!(psi, reduced.to_state_vector(&db, &partition));
}

#[test]
fn the_circuit_register_and_its_step3_branch_stay_on_one_plane() {
    let n = 1u64 << 8;
    let db = Database::new(n, 200);
    let partition = Partition::new(n, 4);
    let mut register = QubitRegister::uniform(8);
    let mut scratch = AmplitudeScratch::with_capacity(n as usize);
    for _ in 0..2 {
        psq_sim::circuit::grover_iteration_via_circuit(&mut register, &db);
        psq_sim::circuit::block_iteration_via_circuit(&mut register, &db, &partition);
        register.phase_on_basis_state(7, Complex64::from_real(-1.0));
    }
    assert!(register.state().planes().1.is_empty());
    let step3 =
        psq_sim::circuit::Step3Circuit::apply_with_scratch(register.state(), &db, &mut scratch);
    assert!((step3.total_probability() - 1.0).abs() < 1e-10);
    step3.recycle(&mut scratch);
    assert!(scratch.capacity() >= n as usize);
    assert_eq!(scratch.im_capacity(), 0);
}
