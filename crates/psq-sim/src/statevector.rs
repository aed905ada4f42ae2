//! Full complex state-vector simulation on structure-of-arrays planes.
//!
//! A [`StateVector`] holds one amplitude per database address, stored as
//! separate `f64` planes (real and imaginary — [`psq_math::soa::SoaVec`]),
//! and applies the operators the paper uses as streaming kernels:
//!
//! * the oracle reflection `I_t = I − 2|t⟩⟨t|` (one query per application),
//! * the global diffusion `I_0 = 2|ψ0⟩⟨ψ0| − I`,
//! * the per-block diffusion `I_K ⊗ I_{0,[N/K]}` of Section 2.2,
//! * the Step-3 "inversion about the average of the non-target states"
//!   (an ancilla-controlled `I_0`, which costs one more query for the
//!   marking operation `M`).
//!
//! Every one of those operators has **real** coefficients, so the two planes
//! evolve independently, and a real state — the partial-search dynamics
//! never leave the real subspace — holds no imaginary plane at all: it needs
//! 8 bytes per amplitude, and every kernel sweeps the real plane alone. The
//! plane is materialised (as zeros) only by operations that can make the
//! state complex, and dropped again by writes that make it real. On top of the
//! layout, the bulk runners [`StateVector::grover_iterations`] and
//! [`StateVector::block_grover_iterations`] **fuse** each iteration's oracle
//! flip and inversion about the mean into a single sweep per plane: the
//! sweep applies `x ← 2·mean − x` while accumulating the (block) sums the
//! *next* iteration's mean needs, so `ℓ` iterations cost `ℓ + 1` passes
//! instead of `2ℓ`. The single-iteration methods remain as the unfused
//! reference path; property tests pin the two within `1e-12`.
//!
//! Once the vector spans at least two fixed chunks, kernels dispatch over
//! the fixed chunk layout (`psq_parallel::par_chunks_fixed`). Called from a
//! `psq_parallel::WorkerPool` worker — an engine job — each sweep runs as a
//! parallel region of that pool: the calling worker and any idle sibling
//! workers share the chunks, and no thread is spawned. Called from any other
//! thread, the chunks run serially in order. The layout depends only on the
//! problem size and per-chunk partials fold in chunk order, so results are
//! bit-identical at any pool size. For databases too large to materialise
//! use [`crate::reduced::ReducedState`], which evolves the same dynamics
//! exactly in a three-dimensional symmetric subspace.

use crate::oracle::{Database, Partition};
use psq_math::complex::Complex64;
use psq_math::soa::{self, SoaVec};
use psq_parallel::{par_chunks_fixed, par_map_chunks_fixed, par_zip_chunks_fixed, FIXED_CHUNK};

/// Problem sizes below this threshold always use the serial kernels: a
/// plane that fits in one fixed-layout chunk has nothing to share with the
/// pool's idle workers. From two chunks up, sweeps go through the fixed
/// chunk kernels, which run as pool regions on a worker and serially
/// elsewhere. It is also where a plane counts as large for
/// [`crate::scratch::PlaneStore`]: such a sweep is shared by whichever
/// workers are idle, so its plane need not stay in one worker's cache.
pub const PARALLEL_THRESHOLD: usize = 2 * FIXED_CHUNK;

/// A pure quantum state over the database address register.
///
/// Equality compares amplitudes: a missing imaginary plane equals a plane of
/// zeros.
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    /// The amplitude planes; the imaginary one is empty while the state is
    /// real.
    planes: SoaVec,
}

impl StateVector {
    /// The uniform superposition `|ψ0⟩ = (1/√N) Σ_x |x⟩` over `n` addresses.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "state vector needs at least one basis state");
        let amp = 1.0 / (n as f64).sqrt();
        Self {
            planes: SoaVec {
                re: vec![amp; n],
                im: Vec::new(),
            },
        }
    }

    /// The uniform superposition over `n` addresses, built inside a
    /// recycled [`AmplitudeScratch`] buffer instead of a fresh allocation.
    ///
    /// This is the constructor for callers that materialise many states of
    /// varying dimension in sequence — the recursive full-address runner
    /// builds one state per level, each `K` times smaller than the last, so
    /// after the top level every take fits the recycled allocation and the
    /// whole descent performs O(1) allocations. The state is real, so it
    /// sizes only the real plane; an imaginary plane a previous state left
    /// in the scratch is emptied, keeping its allocation. Pair with
    /// [`StateVector::recycle_into`] when the state is no longer needed.
    ///
    /// [`AmplitudeScratch`]: crate::scratch::AmplitudeScratch
    pub fn uniform_in(n: usize, scratch: &mut crate::scratch::AmplitudeScratch) -> Self {
        assert!(n > 0, "state vector needs at least one basis state");
        let amp = 1.0 / (n as f64).sqrt();
        let mut planes = scratch.take_raw();
        planes.re.clear();
        planes.re.resize(n, amp);
        planes.im.clear();
        Self { planes }
    }

    /// Hands this state's plane buffers back to a scratch for reuse (the
    /// counterpart of [`StateVector::uniform_in`]).
    pub fn recycle_into(self, scratch: &mut crate::scratch::AmplitudeScratch) {
        scratch.recycle(self.planes);
    }

    /// The computational basis state `|index⟩`.
    pub fn basis(n: usize, index: usize) -> Self {
        assert!(
            index < n,
            "basis index {index} out of range for dimension {n}"
        );
        let mut planes = SoaVec::zeros(n);
        planes.re[index] = 1.0;
        Self { planes }
    }

    /// Builds a state from explicit amplitudes (normalised by the caller).
    ///
    /// The state holds both planes even when every imaginary part is zero:
    /// the explicit constructors keep the layout they are given, while the
    /// simulators' own ([`StateVector::uniform`], [`StateVector::uniform_in`],
    /// [`StateVector::basis`]) start real, on one plane.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        assert!(
            !amps.is_empty(),
            "state vector needs at least one basis state"
        );
        Self {
            planes: SoaVec::from_complex(&amps),
        }
    }

    /// Builds a state from real amplitudes, with an explicit all-zero
    /// imaginary plane (the layout [`StateVector::from_amplitudes`] gives).
    pub fn from_real_amplitudes(reals: &[f64]) -> Self {
        assert!(
            !reals.is_empty(),
            "state vector needs at least one basis state"
        );
        Self {
            planes: SoaVec {
                re: reals.to_vec(),
                im: vec![0.0; reals.len()],
            },
        }
    }

    /// Dimension `N`.
    #[inline]
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// Always `false`: a state vector has at least one amplitude.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The separate real and imaginary planes (the storage layout). The
    /// imaginary slice is empty while the state is real: read it as zeros.
    #[inline]
    pub fn planes(&self) -> (&[f64], &[f64]) {
        (&self.planes.re, &self.planes.im)
    }

    /// Mutable access to both planes, for in-place kernels. The caller may
    /// write anything, so the imaginary plane is materialised (as zeros)
    /// first and the state stays complex afterwards.
    #[inline]
    pub fn planes_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        self.planes.fill_im();
        (&mut self.planes.re, &mut self.planes.im)
    }

    /// Overwrites the state with the real amplitudes `write` puts in the
    /// real plane: the imaginary plane is emptied, keeping its allocation,
    /// so the state is real afterwards (the writers in this crate that
    /// return a state to the real subspace).
    #[inline]
    pub(crate) fn overwrite_real(&mut self, write: impl FnOnce(&mut [f64])) {
        write(&mut self.planes.re);
        self.planes.im.clear();
    }

    /// Whether the state holds no imaginary plane: every imaginary part is
    /// zero (the partial-search dynamics keep it so), the state needs 8
    /// bytes per amplitude, and kernels touch half the memory.
    #[inline]
    pub fn is_real_only(&self) -> bool {
        self.planes.is_real()
    }

    /// Materialises the array-of-structs amplitude vector (allocates; for
    /// interop and tests, not hot paths).
    pub fn to_amplitudes(&self) -> Vec<Complex64> {
        self.planes.to_complex()
    }

    /// Resets the state to the uniform superposition in place, reusing the
    /// existing allocations (the steady-state reset between engine trials).
    /// The state is real afterwards; an imaginary plane is emptied, keeping
    /// its allocation.
    pub fn fill_uniform(&mut self) {
        let amp = 1.0 / (self.len() as f64).sqrt();
        self.overwrite_real(|re| re.fill(amp));
    }

    /// The amplitude of basis state `i`.
    #[inline]
    pub fn amplitude(&self, i: usize) -> Complex64 {
        self.planes.get(i)
    }

    /// Overwrites the amplitude of basis state `i` (a nonzero imaginary
    /// part materialises the imaginary plane).
    #[inline]
    pub fn set_amplitude(&mut self, i: usize, z: Complex64) {
        self.planes.set(i, z);
    }

    /// Squared norm (total probability).
    pub fn norm_sqr(&self) -> f64 {
        let re = self.fold_plane_sum(&self.planes.re, soa::sum_sqr);
        if self.is_real_only() {
            re
        } else {
            re + self.fold_plane_sum(&self.planes.im, soa::sum_sqr)
        }
    }

    /// Whether the total probability is within `tol` of 1.
    pub fn is_normalized(&self, tol: f64) -> bool {
        (self.norm_sqr() - 1.0).abs() <= tol
    }

    /// Renormalises to unit norm; returns the previous norm.
    pub fn normalize(&mut self) -> f64 {
        let norm = self.norm_sqr().sqrt();
        assert!(norm > 1e-300, "cannot normalise the zero state");
        let inv = 1.0 / norm;
        self.plane_sweep(|plane, _| soa::scale(plane, inv));
        norm
    }

    /// Measurement probability of basis state `i`.
    #[inline]
    pub fn probability(&self, i: usize) -> f64 {
        self.planes.norm_sqr_at(i)
    }

    /// Probability that a measurement lands in the half-open address range.
    pub fn probability_of_range(&self, range: std::ops::Range<usize>) -> f64 {
        let re = soa::sum_sqr(&self.planes.re[range.clone()]);
        if self.is_real_only() {
            re
        } else {
            re + soa::sum_sqr(&self.planes.im[range])
        }
    }

    /// Probability that a measurement lands in `block` of the partition.
    pub fn block_probability(&self, partition: &Partition, block: u64) -> f64 {
        assert_eq!(
            partition.size() as usize,
            self.len(),
            "partition size must match state dimension"
        );
        let r = partition.block_range(block);
        self.probability_of_range(r.start as usize..r.end as usize)
    }

    /// Per-block measurement probabilities.
    pub fn block_distribution(&self, partition: &Partition) -> Vec<f64> {
        partition
            .block_indices()
            .map(|b| self.block_probability(partition, b))
            .collect()
    }

    /// Largest imaginary component in the state (the partial-search dynamics
    /// keep this at exactly zero, with no imaginary plane; tests assert it).
    pub fn max_imaginary_part(&self) -> f64 {
        self.planes.im.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Inner product `⟨self|other⟩`.
    pub fn inner_product(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.len(), other.len(), "inner_product: dimension mismatch");
        soa::inner_product(
            &self.planes.re,
            &self.planes.im,
            &other.planes.re,
            &other.planes.im,
        )
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Angular distance `arccos |⟨self|other⟩|` (the Appendix-B metric the
    /// lower-bound audits integrate along hybrid paths).
    pub fn angular_distance(&self, other: &StateVector) -> f64 {
        psq_math::approx::safe_acos(self.inner_product(other).abs())
    }

    /// Applies `f(index, &mut amplitude)` to every amplitude, in parallel
    /// for large states (gather/scatter across the planes).
    ///
    /// The imaginary plane is materialised for the sweep and emptied again
    /// (keeping its allocation) if every written amplitude is real.
    pub fn for_each_amplitude<F>(&mut self, f: F)
    where
        F: Fn(usize, &mut Complex64) + Sync,
    {
        let sweep = |offset: usize, re: &mut [f64], im: &mut [f64]| -> bool {
            let mut all_real = true;
            for i in 0..re.len() {
                let mut z = Complex64::new(re[i], im[i]);
                f(offset + i, &mut z);
                re[i] = z.re;
                im[i] = z.im;
                all_real &= z.im == 0.0;
            }
            all_real
        };
        self.planes.fill_im();
        let stayed_real = if self.len() >= PARALLEL_THRESHOLD {
            par_zip_chunks_fixed(&mut self.planes.re, &mut self.planes.im, FIXED_CHUNK, sweep)
                .into_iter()
                .all(|real| real)
        } else {
            sweep(0, &mut self.planes.re, &mut self.planes.im)
        };
        if stayed_real {
            self.planes.im.clear();
        }
    }

    // ------------------------------------------------------------------
    // Oracle reflections (each charges queries to the database)
    // ------------------------------------------------------------------

    /// Applies the selective phase inversion `I_t = I − 2|t⟩⟨t|`,
    /// charging one oracle query.
    ///
    /// This is the standard implementation of the oracle call inside
    /// amplitude amplification: the `T_f` bit-flip oracle applied to an
    /// ancilla prepared in `|−⟩` acts as a phase flip on the marked address.
    pub fn apply_oracle_phase_flip(&mut self, db: &Database) {
        assert_eq!(
            db.size() as usize,
            self.len(),
            "database size must match state dimension"
        );
        db.charge_quantum_queries(1);
        self.phase_flip_unchecked(db.target() as usize);
    }

    /// Applies the phase flip at an explicit index **without** charging a
    /// query.  Only for constructing reference states in tests and in the
    /// lower-bound hybrid argument (where the "oracle replaced by identity"
    /// runs need controllable substitutes).
    pub fn phase_flip_unchecked(&mut self, index: usize) {
        self.plane_sweep(|plane, _| plane[index] = -plane[index]);
    }

    /// Generalised oracle phase rotation `R_t(φ) = I + (e^{iφ} − 1)|t⟩⟨t|`,
    /// charging one query.
    ///
    /// `φ = π` recovers the standard phase flip `I_t`.  The sure-success
    /// Grover variant of Long (Phys. Rev. A 64, 022307) replaces the `π`
    /// phase with a matched angle `φ < π` so that the final rotation lands
    /// exactly on the target; `psq-grover::exact` drives this operator.
    pub fn apply_oracle_phase_rotation(&mut self, db: &Database, phi: f64) {
        assert_eq!(
            db.size() as usize,
            self.len(),
            "database size must match state dimension"
        );
        db.charge_quantum_queries(1);
        let t = db.target() as usize;
        let rotated = self.planes.get(t) * Complex64::cis(phi);
        self.set_amplitude(t, rotated);
    }

    /// Generalised diffusion `D(φ) = I + (e^{iφ} − 1)|ψ0⟩⟨ψ0|`, the phase
    /// rotation about the uniform superposition.
    ///
    /// `φ = π` gives `I − 2|ψ0⟩⟨ψ0| = −I_0`, the standard inversion about
    /// the mean up to an unobservable global sign.
    pub fn invert_about_mean_with_phase(&mut self, phi: f64) {
        let n = self.len() as f64;
        // ⟨ψ0|ψ⟩ = (Σ_x a_x) / √N, and the update adds
        // (e^{iφ} − 1)·⟨ψ0|ψ⟩·(1/√N) to every amplitude.
        let overlap = self.amplitude_sum() / n.sqrt();
        let delta = (Complex64::cis(phi) - Complex64::ONE) * overlap / n.sqrt();
        if delta.im != 0.0 {
            self.planes.fill_im();
        }
        self.plane_sweep(|plane, is_re| {
            let shift = if is_re { delta.re } else { delta.im };
            for x in plane.iter_mut() {
                *x += shift;
            }
        });
    }

    // ------------------------------------------------------------------
    // Diffusion operators
    // ------------------------------------------------------------------

    /// The global diffusion `I_0 = 2|ψ0⟩⟨ψ0| − I`: inversion about the mean
    /// amplitude of the whole register.
    ///
    /// This is the unfused reference form (one pass to sum, one to apply);
    /// iteration runs use the fused [`StateVector::grover_iterations`].
    pub fn invert_about_mean(&mut self) {
        let n = self.len() as f64;
        let parallel = self.len() >= PARALLEL_THRESHOLD;
        self.plane_sweep(|plane, _| {
            let two_mean = if parallel {
                2.0 * par_map_chunks_fixed(plane, FIXED_CHUNK, |_, c| soa::sum(c))
                    .into_iter()
                    .sum::<f64>()
                    / n
            } else {
                2.0 * soa::sum(plane) / n
            };
            if parallel {
                par_chunks_fixed(plane, FIXED_CHUNK, |_, c| soa::invert_resum(c, two_mean));
            } else {
                soa::invert_resum(plane, two_mean);
            }
        });
    }

    /// The per-block diffusion `I_{[K]} ⊗ I_{0,[N/K]}`: inversion about the
    /// mean within each block of the partition, applied to every block in
    /// parallel (Section 2.2).  Unfused reference form; iteration runs use
    /// the fused [`StateVector::block_grover_iterations`].
    pub fn invert_about_mean_per_block(&mut self, partition: &Partition) {
        assert_eq!(
            partition.size() as usize,
            self.len(),
            "partition size must match state dimension"
        );
        let block = partition.block_size() as usize;
        let parallel = self.len() >= PARALLEL_THRESHOLD && block >= 2;
        // Chunk boundaries land on block boundaries so every block's
        // inversion sees exactly its own amplitudes.
        let chunk = FIXED_CHUNK.div_ceil(block) * block;
        self.plane_sweep(|plane, _| {
            if parallel {
                par_chunks_fixed(plane, chunk, |_, c| {
                    for block_chunk in c.chunks_mut(block) {
                        soa::invert_about_average(block_chunk);
                    }
                });
            } else {
                for block_chunk in plane.chunks_mut(block) {
                    soa::invert_about_average(block_chunk);
                }
            }
        });
    }

    /// Step 3 of the partial-search algorithm: the reflection about the
    /// uniform superposition of the **non-target** states
    /// (`2|u_nt⟩⟨u_nt| − I` on the non-target subspace, identity on `|t⟩`),
    /// i.e. an inversion about the average of the `N − 1` non-target
    /// amplitudes with the target amplitude left untouched.
    ///
    /// The paper implements this step by flipping an ancilla on the target
    /// (operation `M`, one oracle query) and applying `I_0` controlled on the
    /// ancilla being `|0⟩`, then measuring.  The two constructions agree on
    /// every non-target address up to `O(1/N)` (the ancilla circuit averages
    /// over `N` slots, one of which is empty; this reflection averages over
    /// the `N − 1` occupied ones) and distribute the remaining amplitude
    /// differently only *within* the target block, so the block-measurement
    /// statistics — the algorithm's output — are the same.  Charges one
    /// query, as in the paper.
    pub fn invert_about_mean_excluding_target(&mut self, db: &Database) {
        assert_eq!(
            db.size() as usize,
            self.len(),
            "database size must match state dimension"
        );
        // The marking operation M queries the oracle once.
        db.charge_quantum_queries(1);
        let t = db.target() as usize;
        let n = self.len() as f64;
        let parallel = self.len() >= PARALLEL_THRESHOLD;
        self.plane_sweep(|plane, _| {
            let target_amp = plane[t];
            let sum = if parallel {
                par_map_chunks_fixed(plane, FIXED_CHUNK, |_, c| soa::sum(c))
                    .into_iter()
                    .sum::<f64>()
            } else {
                soa::sum(plane)
            };
            let two_mean = 2.0 * (sum - target_amp) / (n - 1.0);
            // Sweep every element, then restore the untouched target —
            // cheaper than a branch per element.
            if parallel {
                par_chunks_fixed(plane, FIXED_CHUNK, |_, c| soa::invert_resum(c, two_mean));
            } else {
                soa::invert_resum(plane, two_mean);
            }
            plane[t] = target_amp;
        });
    }

    /// One standard Grover iteration `A = I_0 · I_t` (Section 2.1): oracle
    /// phase flip followed by global inversion about the mean.  Charges one
    /// query.  Unfused reference path; see
    /// [`StateVector::grover_iterations`] for iteration runs.
    pub fn grover_iteration(&mut self, db: &Database) {
        self.apply_oracle_phase_flip(db);
        self.invert_about_mean();
    }

    /// One per-block iteration `A_{[N/K]} = (I_{[K]} ⊗ I_{0,[N/K]}) · I_t`
    /// (Section 2.2): oracle phase flip followed by inversion about the mean
    /// inside every block.  Charges one query.  Unfused reference path; see
    /// [`StateVector::block_grover_iterations`].
    pub fn block_grover_iteration(&mut self, db: &Database, partition: &Partition) {
        self.apply_oracle_phase_flip(db);
        self.invert_about_mean_per_block(partition);
    }

    // ------------------------------------------------------------------
    // Fused iteration runs (the simulation hot path)
    // ------------------------------------------------------------------

    /// Runs `count` standard Grover iterations `(I_0 · I_t)^count`, charging
    /// `count` queries, with the oracle flip and the diffusion **fused into
    /// one sweep per plane per iteration**.
    ///
    /// The sweep applies `x ← 2·mean − x` while summing the values it
    /// writes; since the inversion preserves the plane sum exactly and the
    /// oracle flip changes it by the O(1) target delta, the next iteration's
    /// mean is ready without a separate pass.  Total cost: `count + 1`
    /// sweeps instead of `2·count`.  Matches the unfused reference within
    /// `1e-12` (property-tested).
    pub fn grover_iterations(&mut self, db: &Database, count: u64) {
        assert_eq!(
            db.size() as usize,
            self.len(),
            "database size must match state dimension"
        );
        if count == 0 {
            return;
        }
        db.charge_quantum_queries(count);
        let t = db.target() as usize;
        let n = self.len() as f64;
        let parallel = self.len() >= PARALLEL_THRESHOLD;
        self.plane_sweep(|plane, _| {
            let mut sum = if parallel {
                par_map_chunks_fixed(plane, FIXED_CHUNK, |_, c| soa::sum(c))
                    .into_iter()
                    .sum::<f64>()
            } else {
                soa::sum(plane)
            };
            for _ in 0..count {
                // Oracle flip: O(1) on the amplitude, O(1) on the sum.
                let flipped = -plane[t];
                plane[t] = flipped;
                sum += 2.0 * flipped;
                let two_mean = 2.0 * sum / n;
                sum = if parallel {
                    par_chunks_fixed(plane, FIXED_CHUNK, |_, c| soa::invert_resum(c, two_mean))
                        .into_iter()
                        .sum::<f64>()
                } else {
                    soa::invert_resum(plane, two_mean)
                };
            }
        });
    }

    /// Runs `count` per-block Grover iterations
    /// `((I_{[K]} ⊗ I_{0,[N/K]}) · I_t)^count`, charging `count` queries,
    /// with the oracle flip and the per-block diffusion fused into one sweep
    /// per plane per iteration (the sweep computes the next iteration's
    /// block sums while applying the current inversion).
    pub fn block_grover_iterations(&mut self, db: &Database, partition: &Partition, count: u64) {
        assert_eq!(
            db.size() as usize,
            self.len(),
            "database size must match state dimension"
        );
        assert_eq!(
            partition.size() as usize,
            self.len(),
            "partition size must match state dimension"
        );
        if count == 0 {
            return;
        }
        db.charge_quantum_queries(count);
        let t = db.target() as usize;
        let block = partition.block_size() as usize;
        let target_block = (t / block) * block; // start offset of t's block
        let blocks = self.len() / block;
        let parallel = self.len() >= PARALLEL_THRESHOLD && block >= 2;
        let chunk = FIXED_CHUNK.div_ceil(block) * block;
        self.plane_sweep(|plane, _| {
            let mut sums = vec![0.0f64; blocks];
            let mut next = vec![0.0f64; blocks];
            if parallel {
                let partials = par_map_chunks_fixed(plane, chunk, |offset, c| {
                    per_chunk_block_sums(c, block, offset)
                });
                splice_block_sums(&mut sums, partials);
            } else {
                soa::block_sums(plane, block, &mut sums);
            }
            for _ in 0..count {
                let flipped = -plane[t];
                plane[t] = flipped;
                sums[target_block / block] += 2.0 * flipped;
                if parallel {
                    let sums_ref = &sums;
                    let partials = par_chunks_fixed(plane, chunk, |offset, c| {
                        let first = offset / block;
                        let mut out = vec![0.0f64; c.len() / block];
                        soa::blocks_invert_resum(
                            c,
                            block,
                            &sums_ref[first..first + out.len()],
                            &mut out,
                        );
                        out
                    });
                    splice_block_sums(&mut next, partials);
                } else {
                    soa::blocks_invert_resum(plane, block, &sums, &mut next);
                }
                std::mem::swap(&mut sums, &mut next);
            }
        });
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Runs `f` over the real plane, and over the imaginary plane too if the
    /// state holds one (the real-coefficient operators act on the planes
    /// independently).  `f` receives whether it is on the real plane.
    pub(crate) fn plane_sweep<F>(&mut self, f: F)
    where
        F: Fn(&mut [f64], bool),
    {
        f(&mut self.planes.re, true);
        if !self.planes.is_real() {
            f(&mut self.planes.im, false);
        }
    }

    /// Sum-style fold over one plane with the deterministic fixed-chunk
    /// layout for large states.
    fn fold_plane_sum(&self, plane: &[f64], map: fn(&[f64]) -> f64) -> f64 {
        if plane.len() >= PARALLEL_THRESHOLD {
            par_map_chunks_fixed(plane, FIXED_CHUNK, |_, c| map(c))
                .into_iter()
                .sum()
        } else {
            map(plane)
        }
    }

    /// Sum of all amplitudes (used by the diffusion kernels).
    pub fn amplitude_sum(&self) -> Complex64 {
        let re = self.fold_plane_sum(&self.planes.re, soa::sum);
        let im = if self.is_real_only() {
            0.0
        } else {
            self.fold_plane_sum(&self.planes.im, soa::sum)
        };
        Complex64::new(re, im)
    }

    /// The index with the highest measurement probability.
    pub fn most_likely_index(&self) -> usize {
        let mut best = 0usize;
        let mut best_p = f64::NEG_INFINITY;
        for i in 0..self.len() {
            let p = self.probability(i);
            if p > best_p {
                best_p = p;
                best = i;
            }
        }
        best
    }

    /// Real parts of all amplitudes (for figure generation).
    pub fn real_amplitudes(&self) -> Vec<f64> {
        self.planes.re.clone()
    }
}

/// Per-block sums of one fixed chunk (whole blocks only; `offset` is the
/// chunk's start in the plane and must be block-aligned).
fn per_chunk_block_sums(chunk: &[f64], block: usize, offset: usize) -> Vec<f64> {
    debug_assert_eq!(offset % block, 0);
    let mut out = vec![0.0f64; chunk.len() / block];
    soa::block_sums(chunk, block, &mut out);
    out
}

/// Reassembles per-chunk block-sum vectors (in chunk order, from the fixed
/// layout) into the global block-sum array.
fn splice_block_sums(sums: &mut [f64], partials: Vec<Vec<f64>>) {
    let mut at = 0usize;
    for part in partials {
        sums[at..at + part.len()].copy_from_slice(&part);
        at += part.len();
    }
    debug_assert_eq!(at, sums.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use psq_math::approx::assert_close;

    #[test]
    fn uniform_state_is_normalised() {
        let psi = StateVector::uniform(12);
        assert!(psi.is_normalized(1e-12));
        assert_close(psi.amplitude(3).re, 1.0 / 12f64.sqrt(), 1e-12);
        assert_eq!(psi.len(), 12);
        assert!(!psi.is_empty());
        assert!(psi.is_real_only());
    }

    #[test]
    fn basis_state_has_unit_probability_at_index() {
        let psi = StateVector::basis(8, 5);
        assert_close(psi.probability(5), 1.0, 1e-15);
        assert_close(psi.norm_sqr(), 1.0, 1e-15);
        assert_eq!(psi.most_likely_index(), 5);
    }

    #[test]
    fn oracle_flip_charges_one_query_and_flips_sign() {
        let db = Database::new(8, 3);
        let mut psi = StateVector::uniform(8);
        let before = psi.amplitude(3);
        psi.apply_oracle_phase_flip(&db);
        assert_eq!(db.queries(), 1);
        assert!((psi.amplitude(3) + before).abs() < 1e-15);
        // Other amplitudes untouched.
        assert!((psi.amplitude(0) - before).abs() < 1e-15);
    }

    #[test]
    fn grover_iteration_on_n4_finds_target_exactly() {
        let db = Database::new(4, 2);
        let mut psi = StateVector::uniform(4);
        psi.grover_iteration(&db);
        assert_close(psi.probability(2), 1.0, 1e-12);
        assert_eq!(db.queries(), 1);
    }

    #[test]
    fn grover_success_probability_matches_theory() {
        let n = 256;
        let db = Database::new(n as u64, 17);
        let mut psi = StateVector::uniform(n);
        let iters = psq_math::angle::optimal_grover_iterations(n as f64);
        for _ in 0..iters {
            psi.grover_iteration(&db);
        }
        let predicted = psq_math::angle::grover_success_probability(n as f64, iters);
        assert_close(psi.probability(17), predicted, 1e-9);
        assert_eq!(db.queries(), iters);
        assert!(psi.probability(17) > 0.999);
    }

    #[test]
    fn fused_grover_run_matches_stepped_iterations() {
        let n = 300; // deliberately not a power of two
        let db_fused = Database::new(n as u64, 123);
        let db_step = Database::new(n as u64, 123);
        let mut fused = StateVector::uniform(n);
        let mut stepped = StateVector::uniform(n);
        fused.grover_iterations(&db_fused, 9);
        for _ in 0..9 {
            stepped.grover_iteration(&db_step);
        }
        assert_eq!(db_fused.queries(), db_step.queries());
        for i in 0..n {
            assert!((fused.amplitude(i) - stepped.amplitude(i)).abs() < 1e-12);
        }
        assert!(fused.is_real_only());
    }

    #[test]
    fn fused_block_run_matches_stepped_iterations() {
        let n = 240u64;
        let k = 6u64;
        let db_fused = Database::new(n, 77);
        let db_step = Database::new(n, 77);
        let partition = Partition::new(n, k);
        let mut fused = StateVector::uniform(n as usize);
        let mut stepped = StateVector::uniform(n as usize);
        // Move off the uniform fixed point first.
        fused.grover_iterations(&db_fused, 2);
        for _ in 0..2 {
            stepped.grover_iteration(&db_step);
        }
        fused.block_grover_iterations(&db_fused, &partition, 7);
        for _ in 0..7 {
            stepped.block_grover_iteration(&db_step, &partition);
        }
        assert_eq!(db_fused.queries(), db_step.queries());
        for i in 0..n as usize {
            assert!((fused.amplitude(i) - stepped.amplitude(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_runs_of_zero_iterations_are_identity_and_free() {
        let db = Database::new(64, 5);
        let partition = Partition::new(64, 4);
        let mut psi = StateVector::uniform(64);
        let before = psi.clone();
        psi.grover_iterations(&db, 0);
        psi.block_grover_iterations(&db, &partition, 0);
        assert_eq!(psi, before);
        assert_eq!(db.queries(), 0);
    }

    #[test]
    fn per_block_inversion_acts_blockwise() {
        // Non-target blocks (uniform within block) are fixed points;
        // a block with asymmetric amplitudes changes.
        let partition = Partition::new(8, 2);
        let mut psi = StateVector::from_real_amplitudes(&[
            0.5, 0.5, 0.5, 0.5, // block 0: uniform
            0.7, 0.1, 0.1, 0.1, // block 1: skewed
        ]);
        psi.normalize();
        let before = psi.clone();
        psi.invert_about_mean_per_block(&partition);
        for i in 0..4 {
            assert!((psi.amplitude(i) - before.amplitude(i)).abs() < 1e-12);
        }
        assert!((psi.amplitude(4) - before.amplitude(4)).abs() > 1e-3);
        assert_close(psi.norm_sqr(), 1.0, 1e-12);
    }

    #[test]
    fn per_block_inversion_preserves_block_probabilities() {
        let partition = Partition::new(12, 3);
        let db = Database::new(12, 6);
        let mut psi = StateVector::uniform(12);
        psi.apply_oracle_phase_flip(&db);
        let before = psi.block_distribution(&partition);
        psi.invert_about_mean_per_block(&partition);
        let after = psi.block_distribution(&partition);
        // Block-local unitaries cannot move probability between blocks.
        for (a, b) in before.iter().zip(after.iter()) {
            assert_close(*a, *b, 1e-12);
        }
    }

    #[test]
    fn excluding_target_inversion_charges_a_query_and_fixes_target() {
        let db = Database::new(12, 7);
        let mut psi = StateVector::uniform(12);
        let target_before = psi.amplitude(7);
        psi.invert_about_mean_excluding_target(&db);
        assert_eq!(db.queries(), 1);
        assert!((psi.amplitude(7) - target_before).abs() < 1e-15);
        assert_close(psi.norm_sqr(), 1.0, 1e-12);
    }

    #[test]
    fn block_distribution_sums_to_one() {
        let partition = Partition::new(16, 4);
        let db = Database::new(16, 9);
        let mut psi = StateVector::uniform(16);
        psi.grover_iteration(&db);
        psi.block_grover_iteration(&db, &partition);
        let dist = psi.block_distribution(&partition);
        assert_close(dist.iter().sum::<f64>(), 1.0, 1e-12);
        assert_eq!(db.queries(), 2);
    }

    #[test]
    fn fidelity_and_inner_product() {
        let a = StateVector::basis(4, 0);
        let b = StateVector::basis(4, 1);
        assert_close(a.fidelity(&b), 0.0, 1e-15);
        assert_close(a.fidelity(&a), 1.0, 1e-15);
        let u = StateVector::uniform(4);
        assert_close(u.fidelity(&a), 0.25, 1e-12);
        assert_close(u.angular_distance(&u), 0.0, 1e-12);
        assert_close(a.angular_distance(&b), std::f64::consts::FRAC_PI_2, 1e-12);
    }

    #[test]
    fn parallel_threshold_path_matches_serial_path() {
        // A state big enough to trigger the parallel kernels must produce the
        // same dynamics as a small-state serial reference computed blockwise.
        let n = PARALLEL_THRESHOLD * 2;
        let db = Database::new(n as u64, 123);
        let mut psi = StateVector::uniform(n);
        psi.grover_iteration(&db);
        // After one iteration the target amplitude is (3N-4)/(N√N) exactly.
        let nf = n as f64;
        let expected_target = (3.0 * nf - 4.0) / (nf * nf.sqrt());
        assert_close(psi.amplitude(123).re, expected_target, 1e-12);
        assert_close(psi.norm_sqr(), 1.0, 1e-9);
        assert!(psi.max_imaginary_part() < 1e-15);
    }

    #[test]
    fn fused_parallel_run_matches_serial_chunk_fold() {
        // Above the parallel threshold the fused run still matches the
        // stepped reference (which itself uses the fixed-chunk folds).
        let n = PARALLEL_THRESHOLD + 1024; // ragged final chunk
        let db_fused = Database::new(n as u64, 60_000);
        let db_step = Database::new(n as u64, 60_000);
        let mut fused = StateVector::uniform(n);
        let mut stepped = StateVector::uniform(n);
        fused.grover_iterations(&db_fused, 3);
        for _ in 0..3 {
            stepped.grover_iteration(&db_step);
        }
        for i in (0..n).step_by(997) {
            assert!((fused.amplitude(i) - stepped.amplitude(i)).abs() < 1e-12);
        }
        assert_close(fused.norm_sqr(), 1.0, 1e-9);
    }

    #[test]
    fn dynamics_stay_real() {
        let db = Database::new(64, 10);
        let partition = Partition::new(64, 8);
        let mut psi = StateVector::uniform(64);
        for _ in 0..5 {
            psi.grover_iteration(&db);
            psi.block_grover_iteration(&db, &partition);
        }
        assert!(psi.is_real_only(), "reflections keep the state real");
        assert!(psi.max_imaginary_part() < 1e-12);
        assert_close(psi.norm_sqr(), 1.0, 1e-10);
    }

    #[test]
    fn real_only_flag_clears_on_complex_writes_and_planes_mut() {
        let mut psi = StateVector::uniform(8);
        psi.set_amplitude(2, Complex64::from_real(0.5));
        assert!(psi.is_real_only(), "real writes keep the flag");
        psi.set_amplitude(2, Complex64::new(0.0, 0.5));
        assert!(!psi.is_real_only());
        let mut psi = StateVector::uniform(8);
        let _ = psi.planes_mut();
        assert!(!psi.is_real_only(), "raw plane access is conservative");
        // The amplitudes are unchanged, so dynamics remain identical.
        let reference = StateVector::uniform(8);
        assert_eq!(psi, reference);
    }

    #[test]
    fn complex_states_run_both_planes_through_the_fused_kernels() {
        // A genuinely complex state: fused vs stepped must still agree on
        // both planes.
        let n = 96usize;
        let mut amps: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        psq_math::vec_ops::normalize(&mut amps);
        let db_fused = Database::new(n as u64, 31);
        let db_step = Database::new(n as u64, 31);
        let partition = Partition::new(n as u64, 4);
        let mut fused = StateVector::from_amplitudes(amps.clone());
        let mut stepped = StateVector::from_amplitudes(amps);
        assert!(!fused.is_real_only());
        fused.grover_iterations(&db_fused, 4);
        fused.block_grover_iterations(&db_fused, &partition, 3);
        for _ in 0..4 {
            stepped.grover_iteration(&db_step);
        }
        for _ in 0..3 {
            stepped.block_grover_iteration(&db_step, &partition);
        }
        for i in 0..n {
            assert!((fused.amplitude(i) - stepped.amplitude(i)).abs() < 1e-12);
        }
        assert!(fused.max_imaginary_part() > 1e-3, "state stayed complex");
    }

    #[test]
    #[should_panic(expected = "must match state dimension")]
    fn mismatched_database_is_rejected() {
        let db = Database::new(16, 3);
        let mut psi = StateVector::uniform(8);
        psi.apply_oracle_phase_flip(&db);
    }

    #[test]
    fn phase_rotation_at_pi_equals_phase_flip() {
        let db = Database::new(32, 11);
        let mut a = StateVector::uniform(32);
        let mut b = StateVector::uniform(32);
        a.grover_iteration(&db);
        b.grover_iteration(&db);
        a.apply_oracle_phase_flip(&db);
        b.apply_oracle_phase_rotation(&db, std::f64::consts::PI);
        for i in 0..32 {
            assert!((a.amplitude(i) - b.amplitude(i)).abs() < 1e-12);
        }
        assert_eq!(db.queries(), 4);
    }

    #[test]
    fn phase_diffusion_at_pi_equals_inversion_about_mean_up_to_global_sign() {
        // D(π) = I − 2|ψ0⟩⟨ψ0| = −I_0: the two kernels agree up to a global
        // phase of −1, which is unobservable.
        let db = Database::new(32, 5);
        let mut a = StateVector::uniform(32);
        let mut b = StateVector::uniform(32);
        a.apply_oracle_phase_flip(&db);
        b.apply_oracle_phase_flip(&db);
        a.invert_about_mean();
        b.invert_about_mean_with_phase(std::f64::consts::PI);
        for i in 0..32 {
            assert!((a.amplitude(i) + b.amplitude(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_operators_are_unitary() {
        let db = Database::new(16, 9);
        let mut psi = StateVector::uniform(16);
        psi.apply_oracle_phase_rotation(&db, 1.1);
        psi.invert_about_mean_with_phase(0.7);
        assert_close(psi.norm_sqr(), 1.0, 1e-12);
        // A non-π phase leaves the state genuinely complex.
        assert!(psi.max_imaginary_part() > 1e-3);
        assert!(!psi.is_real_only());
    }

    #[test]
    fn amplitude_round_trip_through_planes() {
        let amps = vec![
            Complex64::new(0.5, 0.1),
            Complex64::new(-0.5, 0.0),
            Complex64::new(0.0, -0.7),
        ];
        let psi = StateVector::from_amplitudes(amps.clone());
        assert_eq!(psi.to_amplitudes(), amps);
        let (re, im) = psi.planes();
        assert_eq!(re, &[0.5, -0.5, 0.0]);
        assert_eq!(im, &[0.1, 0.0, -0.7]);
        assert_eq!(psi.real_amplitudes(), vec![0.5, -0.5, 0.0]);
    }
}
