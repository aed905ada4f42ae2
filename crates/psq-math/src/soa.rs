//! Structure-of-arrays amplitude storage and its fused sweep kernels.
//!
//! The simulators historically stored amplitudes as one `Vec<Complex64>`
//! (array of structs). Every operator the partial-search algorithm uses —
//! the oracle reflection, the global and per-block inversions about the
//! mean, the Step-3 non-target inversion, and the Hadamard walls of the
//! circuit construction — has **real** coefficients, so the real and
//! imaginary planes never mix: each plane evolves under the same scalar
//! recurrence independently. Storing the planes separately ([`SoaVec`])
//! turns every hot kernel into a straight-line sweep over a `&[f64]` slice
//! that the compiler can vectorise. Realness is a property of the storage:
//! a vector whose imaginary parts are all zero holds no imaginary plane at
//! all (the partial-search dynamics keep it so from start to finish), so a
//! real state needs 8 bytes per amplitude instead of 16 and every kernel
//! touches half the memory. Operations that can leave the real subspace
//! materialise the plane first ([`SoaVec::fill_im`]).
//!
//! Two kernel families live here:
//!
//! * **Fused inversion sweeps** — [`invert_resum`] and
//!   [`blocks_invert_resum`] apply `x ← 2·mean − x` *and* accumulate the sum
//!   the next iteration's mean needs, in the same pass. A Grover iteration
//!   therefore costs one sweep over the plane instead of two (one to sum,
//!   one to apply), and a run of `ℓ` iterations costs `ℓ + 1` sweeps total.
//! * **Fast Walsh–Hadamard transforms** — [`fwht_normalized`] and
//!   [`fwht_blocks_normalized`] replace the circuit backend's `n` sequential
//!   single-qubit butterfly passes with one in-place radix-2 transform whose
//!   `1/√N` normalisation is folded into the final butterfly level.
//!
//! All kernels are serial; `psq-parallel` provides deterministic fixed-chunk
//! dispatch and `psq-sim` composes the two.

use crate::complex::Complex64;

/// Separate real/imaginary amplitude planes of one quantum state.
///
/// `im` is either empty — every imaginary part is zero, the vector is
/// *real* — or exactly as long as `re`. Readers treat a missing plane as
/// zeros; [`SoaVec::fill_im`] materialises it before a write that can make
/// the vector complex, and clearing `im` (which keeps its allocation for
/// reuse) returns a vector known to be real to one plane. [`Complex64`]
/// remains the public scalar type — [`SoaVec::get`]/[`SoaVec::set`] gather
/// and scatter across the planes — but bulk kernels operate on each plane
/// directly.
#[derive(Clone, Debug, Default)]
pub struct SoaVec {
    /// Real parts.
    pub re: Vec<f64>,
    /// Imaginary parts; empty while they are all zero.
    pub im: Vec<f64>,
}

impl SoaVec {
    /// A zero state of dimension `n` (real: no imaginary plane).
    pub fn zeros(n: usize) -> Self {
        Self {
            re: vec![0.0; n],
            im: Vec::new(),
        }
    }

    /// Builds both planes from an array-of-structs amplitude slice (the
    /// imaginary plane is kept even when every imaginary part is zero).
    pub fn from_complex(amps: &[Complex64]) -> Self {
        Self {
            re: amps.iter().map(|z| z.re).collect(),
            im: amps.iter().map(|z| z.im).collect(),
        }
    }

    /// Materialises the array-of-structs view (allocates; for interop and
    /// tests, not hot paths).
    pub fn to_complex(&self) -> Vec<Complex64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Dimension.
    #[inline]
    pub fn len(&self) -> usize {
        self.re.len()
    }

    /// Whether the state holds no amplitudes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.re.is_empty()
    }

    /// Whether the vector holds no imaginary plane (every imaginary part is
    /// zero).
    #[inline]
    pub fn is_real(&self) -> bool {
        self.im.is_empty()
    }

    /// Materialises the imaginary plane as zeros up to [`SoaVec::len`],
    /// reusing the plane's spare capacity; a no-op when it is already there.
    pub fn fill_im(&mut self) {
        if self.im.is_empty() {
            self.im.resize(self.re.len(), 0.0);
        }
    }

    /// The amplitude at `i`, gathered from both planes.
    #[inline]
    pub fn get(&self, i: usize) -> Complex64 {
        let im = if self.is_real() { 0.0 } else { self.im[i] };
        Complex64::new(self.re[i], im)
    }

    /// Scatters one amplitude across both planes, materialising the
    /// imaginary plane first if `z` has a nonzero imaginary part.
    #[inline]
    pub fn set(&mut self, i: usize, z: Complex64) {
        if z.im != 0.0 {
            self.fill_im();
        }
        self.re[i] = z.re;
        if !self.is_real() {
            self.im[i] = z.im;
        }
    }

    /// Squared modulus of the amplitude at `i`.
    #[inline]
    pub fn norm_sqr_at(&self, i: usize) -> f64 {
        if self.is_real() {
            self.re[i] * self.re[i]
        } else {
            self.re[i] * self.re[i] + self.im[i] * self.im[i]
        }
    }

    /// Overwrites both planes with copies of the given slices, reusing the
    /// existing allocations (the scratch-friendly clone). An empty `im`
    /// reads as zeros: the copy is real.
    pub fn copy_from_planes(&mut self, re: &[f64], im: &[f64]) {
        debug_assert!(im.is_empty() || im.len() == re.len());
        self.re.clear();
        self.re.extend_from_slice(re);
        self.im.clear();
        self.im.extend_from_slice(im);
    }
}

impl PartialEq for SoaVec {
    /// Amplitude equality: a missing imaginary plane equals one of zeros.
    fn eq(&self, other: &Self) -> bool {
        let zero_plane = |plane: &[f64]| plane.iter().all(|&x| x == 0.0);
        self.re == other.re
            && match (self.is_real(), other.is_real()) {
                (true, true) => true,
                (false, false) => self.im == other.im,
                (true, false) => zero_plane(&other.im),
                (false, true) => zero_plane(&self.im),
            }
    }
}

// ---------------------------------------------------------------------
// Plane sweeps
// ---------------------------------------------------------------------

/// Accumulator lanes of the unrolled reductions. Summing into independent
/// lanes breaks the loop-carried dependency on one `f64` accumulator
/// (floating-point adds cannot be reassociated by the compiler), letting the
/// sweeps run at store bandwidth instead of FP-add latency. The lane fold
/// order is fixed, so results stay reproducible run to run.
const LANES: usize = 8;

/// Folds the lane accumulators pairwise in a fixed order.
#[inline]
fn fold_lanes(acc: [f64; LANES], tail: f64) -> f64 {
    (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))) + tail
}

/// Plain sum of one plane (lane-unrolled).
pub fn sum(plane: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = plane.chunks_exact(LANES);
    for c in &mut chunks {
        for (slot, x) in acc.iter_mut().zip(c) {
            *slot += x;
        }
    }
    let mut tail = 0.0f64;
    for x in chunks.remainder() {
        tail += x;
    }
    fold_lanes(acc, tail)
}

/// Sum of squares of one plane (half of a complex norm²), lane-unrolled.
pub fn sum_sqr(plane: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = plane.chunks_exact(LANES);
    for c in &mut chunks {
        for (slot, x) in acc.iter_mut().zip(c) {
            *slot += x * x;
        }
    }
    let mut tail = 0.0f64;
    for x in chunks.remainder() {
        tail += x * x;
    }
    fold_lanes(acc, tail)
}

/// Scales one plane in place.
#[inline]
pub fn scale(plane: &mut [f64], k: f64) {
    for x in plane.iter_mut() {
        *x *= k;
    }
}

/// Negates every element of the plane.
#[inline]
pub fn negate(plane: &mut [f64]) {
    for x in plane.iter_mut() {
        *x = -*x;
    }
}

/// The complex inner product `⟨u|v⟩ = Σ conj(u_i)·v_i` over plane pairs;
/// an empty imaginary plane reads as zeros.
pub fn inner_product(u_re: &[f64], u_im: &[f64], v_re: &[f64], v_im: &[f64]) -> Complex64 {
    let at = |plane: &[f64], i: usize| if plane.is_empty() { 0.0 } else { plane[i] };
    let mut re = 0.0f64;
    let mut im = 0.0f64;
    for i in 0..u_re.len() {
        let (ui, vi) = (at(u_im, i), at(v_im, i));
        re += u_re[i] * v_re[i] + ui * vi;
        im += u_re[i] * vi - ui * v_re[i];
    }
    Complex64::new(re, im)
}

/// Unfused inversion about the plane's own average: `x ← 2·mean − x`
/// (the reference path; one pass to sum, one to apply).
pub fn invert_about_average(plane: &mut [f64]) {
    if plane.is_empty() {
        return;
    }
    let two_mean = 2.0 * sum(plane) / plane.len() as f64;
    for x in plane.iter_mut() {
        *x = two_mean - *x;
    }
}

/// **Fused** inversion sweep: applies `x ← two_mean − x` to every element
/// and returns the sum of the *written* values in the same pass.
///
/// The inversion preserves the plane sum in exact arithmetic, but the fused
/// kernels recompute it from the freshly written values so round-off cannot
/// accumulate across iterations; only the O(1) oracle-flip delta is ever
/// applied incrementally.
pub fn invert_resum(plane: &mut [f64], two_mean: f64) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = plane.chunks_exact_mut(LANES);
    for c in &mut chunks {
        for (slot, x) in acc.iter_mut().zip(c) {
            let y = two_mean - *x;
            *x = y;
            *slot += y;
        }
    }
    let mut tail = 0.0f64;
    for x in chunks.into_remainder() {
        let y = two_mean - *x;
        *x = y;
        tail += y;
    }
    fold_lanes(acc, tail)
}

/// Per-block sums of a plane split into contiguous `block`-sized blocks.
/// `out` must hold `plane.len() / block` entries.
pub fn block_sums(plane: &[f64], block: usize, out: &mut [f64]) {
    debug_assert_eq!(plane.len() % block, 0);
    debug_assert_eq!(out.len(), plane.len() / block);
    for (chunk, slot) in plane.chunks_exact(block).zip(out.iter_mut()) {
        *slot = sum(chunk);
    }
}

/// **Fused** per-block inversion sweep: block `b` is inverted about
/// `sums[b] / block` and its freshly written sum is stored in
/// `new_sums[b]`, all in one pass over the plane.
pub fn blocks_invert_resum(plane: &mut [f64], block: usize, sums: &[f64], new_sums: &mut [f64]) {
    debug_assert_eq!(plane.len() % block, 0);
    debug_assert_eq!(sums.len(), plane.len() / block);
    debug_assert_eq!(new_sums.len(), sums.len());
    let inv_block = 1.0 / block as f64;
    for (b, chunk) in plane.chunks_exact_mut(block).enumerate() {
        let two_mean = 2.0 * sums[b] * inv_block;
        new_sums[b] = invert_resum(chunk, two_mean);
    }
}

// ---------------------------------------------------------------------
// Fast Walsh–Hadamard transforms
// ---------------------------------------------------------------------

/// In-place radix-2 fast Walsh–Hadamard transform of one plane with the
/// `1/√len` normalisation folded into the final butterfly level.
///
/// Equivalent to applying the 2×2 Hadamard gate to every qubit of a
/// `log2(len)`-qubit register (the `H^{⊗n}` wall), but in a single pass
/// structure: `len·log2(len)/2` butterflies of two adds each, with exactly
/// one multiply per element for the normalisation instead of one per level.
///
/// # Panics
/// Panics if `len` is not a power of two.
pub fn fwht_normalized(plane: &mut [f64]) {
    let n = plane.len();
    assert!(n.is_power_of_two(), "FWHT length must be a power of two");
    if n == 1 {
        return;
    }
    let norm = 1.0 / (n as f64).sqrt();
    // Strides mirror the per-qubit wall's order (most significant bit
    // first); the last level carries the folded normalisation.
    let mut stride = n / 2;
    while stride > 1 {
        butterfly_level(plane, stride, 1.0);
        stride /= 2;
    }
    butterfly_level(plane, 1, norm);
}

/// Applies [`fwht_normalized`] independently to every contiguous
/// `block`-sized block of the plane (the Hadamard wall on the offset
/// register only, `I_{[K]} ⊗ H^{⊗log2 block}`).
///
/// # Panics
/// Panics if `block` is not a power of two dividing `plane.len()`.
pub fn fwht_blocks_normalized(plane: &mut [f64], block: usize) {
    assert!(
        block.is_power_of_two(),
        "FWHT block size must be a power of two"
    );
    assert_eq!(
        plane.len() % block,
        0,
        "FWHT block size must divide the plane length"
    );
    if block == 1 {
        return;
    }
    let norm = 1.0 / (block as f64).sqrt();
    // Level order across the whole plane (rather than block-by-block) keeps
    // each pass streaming sequentially through memory.
    let mut stride = block / 2;
    while stride > 1 {
        butterfly_level(plane, stride, 1.0);
        stride /= 2;
    }
    butterfly_level(plane, 1, norm);
}

/// One butterfly level: every pair `(i, i + stride)` within its
/// `2·stride`-aligned group maps to `((a + b)·scale, (a − b)·scale)`.
#[inline]
fn butterfly_level(plane: &mut [f64], stride: usize, scale: f64) {
    let n = plane.len();
    let mut base = 0usize;
    if stride == 1 {
        // The compiler unrolls the adjacent-pair case cleanly.
        while base < n {
            let a = plane[base];
            let b = plane[base + 1];
            plane[base] = (a + b) * scale;
            plane[base + 1] = (a - b) * scale;
            base += 2;
        }
        return;
    }
    while base < n {
        let (lo, hi) = plane[base..base + 2 * stride].split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let x = *a;
            let y = *b;
            *a = (x + y) * scale;
            *b = (x - y) * scale;
        }
        base += 2 * stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::assert_close;

    #[test]
    fn soa_round_trips_through_complex() {
        let amps: Vec<Complex64> = (0..7)
            .map(|i| Complex64::new(i as f64, -(i as f64) / 2.0))
            .collect();
        let soa = SoaVec::from_complex(&amps);
        assert_eq!(soa.len(), 7);
        assert!(!soa.is_empty());
        assert_eq!(soa.to_complex(), amps);
        assert_eq!(soa.get(3), amps[3]);
        assert_close(soa.norm_sqr_at(2), amps[2].norm_sqr(), 1e-15);
    }

    #[test]
    fn set_and_copy_from_planes() {
        let mut soa = SoaVec::zeros(4);
        soa.set(2, Complex64::new(1.5, -0.5));
        assert_eq!(soa.get(2), Complex64::new(1.5, -0.5));
        let mut copy = SoaVec::zeros(1);
        copy.copy_from_planes(&soa.re, &soa.im);
        assert_eq!(copy, soa);
    }

    #[test]
    fn a_real_vector_holds_no_imaginary_plane_until_filled() {
        let mut soa = SoaVec::zeros(6);
        assert!(soa.is_real());
        assert_eq!(soa.im.capacity(), 0);
        // Real writes keep it real; a nonzero imaginary part fills the plane.
        soa.set(1, Complex64::from_real(0.5));
        assert_eq!(soa.im.capacity(), 0);
        soa.set(4, Complex64::new(0.25, -1.0));
        assert_eq!(soa.im, vec![0.0, 0.0, 0.0, 0.0, -1.0, 0.0]);
        // Filling an already-present plane changes nothing.
        soa.fill_im();
        assert_eq!(soa.get(4), Complex64::new(0.25, -1.0));
        let mut real = SoaVec::zeros(3);
        real.fill_im();
        assert!(!real.is_real());
        assert_eq!(real.im, vec![0.0; 3]);
    }

    #[test]
    fn readers_treat_a_missing_plane_as_zeros() {
        let real = SoaVec {
            re: vec![0.5, -1.5, 2.0],
            im: Vec::new(),
        };
        let explicit = SoaVec::from_complex(&[
            Complex64::from_real(0.5),
            Complex64::from_real(-1.5),
            Complex64::from_real(2.0),
        ]);
        assert_eq!(real.get(1), Complex64::new(-1.5, 0.0));
        assert_eq!(real.norm_sqr_at(1), 2.25);
        assert_eq!(real.to_complex(), explicit.to_complex());
        assert_eq!(real, explicit);
        assert_eq!(explicit, real);
        let mut complex = explicit.clone();
        complex.im[2] = 1e-300;
        assert_ne!(real, complex);
        assert_ne!(complex, real);
        // Copying a missing plane keeps it missing, in a reused buffer.
        let mut copy = SoaVec::from_complex(&[Complex64::new(1.0, 1.0); 4]);
        copy.copy_from_planes(&real.re, &real.im);
        assert!(copy.is_real());
        assert!(copy.im.capacity() >= 4, "the allocation is kept");
        assert_eq!(copy, explicit);
        let inner = inner_product(&real.re, &real.im, &explicit.re, &explicit.im);
        assert_eq!(inner, Complex64::new(0.25 + 2.25 + 4.0, 0.0));
    }

    #[test]
    fn fused_invert_matches_unfused_and_returns_the_new_sum() {
        let mut fused: Vec<f64> = (0..33).map(|i| (i as f64 - 7.0) / 11.0).collect();
        let mut reference = fused.clone();
        let two_mean = 2.0 * sum(&fused) / fused.len() as f64;
        let new_sum = invert_resum(&mut fused, two_mean);
        invert_about_average(&mut reference);
        for (a, b) in fused.iter().zip(reference.iter()) {
            assert_close(*a, *b, 1e-14);
        }
        assert_close(new_sum, sum(&fused), 1e-12);
        // Inversion about the true mean preserves the sum.
        assert_close(new_sum, sum(&reference), 1e-12);
    }

    #[test]
    fn blocked_fused_invert_matches_per_block_reference() {
        let block = 8usize;
        let mut fused: Vec<f64> = (0..48).map(|i| ((i * 37) % 13) as f64 / 13.0).collect();
        let mut reference = fused.clone();
        let mut sums = vec![0.0; fused.len() / block];
        block_sums(&fused, block, &mut sums);
        let mut new_sums = vec![0.0; sums.len()];
        blocks_invert_resum(&mut fused, block, &sums, &mut new_sums);
        for chunk in reference.chunks_exact_mut(block) {
            invert_about_average(chunk);
        }
        for (a, b) in fused.iter().zip(reference.iter()) {
            assert_close(*a, *b, 1e-14);
        }
        let mut check = vec![0.0; sums.len()];
        block_sums(&fused, block, &mut check);
        for (a, b) in new_sums.iter().zip(check.iter()) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn fwht_matches_explicit_hadamard_tensor() {
        // H^{⊗3} of a basis state is the ±1/√8 Walsh pattern.
        let n = 8usize;
        for basis in 0..n {
            let mut plane = vec![0.0; n];
            plane[basis] = 1.0;
            fwht_normalized(&mut plane);
            let s = 1.0 / (n as f64).sqrt();
            for (x, value) in plane.iter().enumerate() {
                let parity = (x & basis).count_ones() % 2;
                let expected = if parity == 0 { s } else { -s };
                assert_close(*value, expected, 1e-14);
            }
        }
    }

    #[test]
    fn fwht_is_an_involution() {
        let mut plane: Vec<f64> = (0..64).map(|i| ((i * 29) % 17) as f64 / 17.0).collect();
        let original = plane.clone();
        fwht_normalized(&mut plane);
        fwht_normalized(&mut plane);
        for (a, b) in plane.iter().zip(original.iter()) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn blocked_fwht_transforms_each_block_independently() {
        let block = 4usize;
        let mut plane: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut reference = plane.clone();
        fwht_blocks_normalized(&mut plane, block);
        for chunk in reference.chunks_exact_mut(block) {
            fwht_normalized(chunk);
        }
        for (a, b) in plane.iter().zip(reference.iter()) {
            assert_close(*a, *b, 1e-13);
        }
        // block = 1 is the identity.
        let before = plane.clone();
        fwht_blocks_normalized(&mut plane, 1);
        assert_eq!(plane, before);
    }

    #[test]
    fn inner_product_matches_complex_reference() {
        let u: Vec<Complex64> = (0..9)
            .map(|i| Complex64::new(i as f64 / 3.0, -(i as f64) / 5.0))
            .collect();
        let v: Vec<Complex64> = (0..9)
            .map(|i| Complex64::new(1.0 - i as f64 / 9.0, (i as f64) / 7.0))
            .collect();
        let us = SoaVec::from_complex(&u);
        let vs = SoaVec::from_complex(&v);
        let got = inner_product(&us.re, &us.im, &vs.re, &vs.im);
        let want = crate::vec_ops::inner_product(&u, &v);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn scale_negate_and_sums() {
        let mut plane = vec![1.0, -2.0, 3.0];
        assert_close(sum(&plane), 2.0, 1e-15);
        assert_close(sum_sqr(&plane), 14.0, 1e-15);
        scale(&mut plane, 2.0);
        assert_eq!(plane, vec![2.0, -4.0, 6.0]);
        negate(&mut plane);
        assert_eq!(plane, vec![-2.0, 4.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fwht_rejects_non_power_of_two() {
        let mut plane = vec![0.0; 12];
        fwht_normalized(&mut plane);
    }
}
