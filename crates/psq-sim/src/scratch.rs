//! Reusable amplitude scratch space for the simulation hot path.
//!
//! The engine's steady state runs the same operator sequence over and over
//! (one execution per trial, many trials per job, many jobs per batch).
//! Most operators work fully in place on the state's amplitude planes, but a
//! few genuinely need a second buffer — the Step-3 ancilla circuit copies
//! the address register into a separate branch, and the reduced simulator's
//! cross-check materialises a full state. [`AmplitudeScratch`] is the
//! double-buffer those operators swap against: the buffer (a pair of
//! structure-of-arrays planes, [`psq_math::soa::SoaVec`]) is *taken* for the
//! duration of one application and *recycled* afterwards, so a run of any
//! length performs O(1) allocations instead of O(iterations × gates).
//!
//! The imaginary plane is allocated only once a state held in the buffer
//! becomes complex: a scratch that only ever held real states — every ideal
//! partial search — holds one plane of 8 bytes per amplitude.
//!
//! Where a scratch lives depends on its size. A small one stays with the
//! thread that uses it, hot in that core's cache. A large one — at least
//! [`PARALLEL_THRESHOLD`] amplitudes, where every sweep is shared by the
//! idle pool workers anyway — is lent out by a [`PlaneStore`] for one job
//! and handed back when the job ends. Memory for large planes is then
//! bounded by the large jobs running at once, not by the number of threads
//! times the largest plane each thread ever held.
//!
//! [`PARALLEL_THRESHOLD`]: crate::statevector::PARALLEL_THRESHOLD

use crate::statevector::StateVector;
use psq_math::soa::SoaVec;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A recyclable plane buffer (see module docs).
///
/// Taking from an empty scratch allocates; recycling stores the planes for
/// the next take. The scratch never shrinks, so after the first trial at a
/// given dimension every subsequent take is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct AmplitudeScratch {
    buffer: SoaVec,
}

impl AmplitudeScratch {
    /// An empty scratch (first take allocates).
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for real dimension-`n` states (the real plane
    /// only; the imaginary one grows if a complex state is copied in).
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buffer: SoaVec {
                re: Vec::with_capacity(n),
                im: Vec::new(),
            },
        }
    }

    /// Takes the buffer, filled with a copy of `state`'s planes (the
    /// swap-out half of the double buffer). The returned planes reuse the
    /// recycled allocations when they are large enough; the copy of a real
    /// state is real (a missing imaginary plane is copied as missing, which
    /// reads as zeros).
    pub fn take_copy_of(&mut self, state: &StateVector) -> SoaVec {
        let mut buffer = std::mem::take(&mut self.buffer);
        let (re, im) = state.planes();
        buffer.copy_from_planes(re, im);
        buffer
    }

    /// Takes the raw buffer without filling it, for callers that overwrite
    /// every element themselves (e.g. [`StateVector::uniform_in`], which
    /// resizes the planes to the level it is about to simulate). The buffer
    /// may be empty on the first take; it keeps its allocation afterwards.
    pub(crate) fn take_raw(&mut self) -> SoaVec {
        std::mem::take(&mut self.buffer)
    }

    /// Returns a buffer to the scratch (the swap-in half). Keeps whichever
    /// of the current and returned allocations is larger.
    pub fn recycle(&mut self, buffer: SoaVec) {
        if buffer.re.capacity() > self.buffer.re.capacity() {
            self.buffer = buffer;
        }
    }

    /// Capacity of the currently held buffer, in amplitudes.
    pub fn capacity(&self) -> usize {
        self.buffer.re.capacity()
    }

    /// Capacity of the held buffer's imaginary plane, in amplitudes: 0 while
    /// every state the scratch has held stayed real.
    pub fn im_capacity(&self) -> usize {
        self.buffer.im.capacity()
    }
}

/// A store of large scratches shared by every thread that runs jobs.
///
/// A job [`take`](PlaneStore::take)s one scratch sized for the largest
/// plane it will hold and [`put`](PlaneStore::put)s it back when it ends,
/// so concurrent jobs always hold distinct scratches. The store never
/// shrinks: it keeps as many scratches as jobs ever held at once, each as
/// large as the largest plane it was grown to.
#[derive(Debug, Default)]
pub struct PlaneStore {
    held: Mutex<Vec<AmplitudeScratch>>,
}

impl PlaneStore {
    /// An empty store (usable in a `static`).
    pub const fn new() -> Self {
        Self {
            held: Mutex::new(Vec::new()),
        }
    }

    /// Takes the held scratch that best fits planes of `n` amplitudes: the
    /// smallest one at least that large, or else the largest one, which the
    /// caller's first state grows. An empty store lends an empty scratch.
    pub fn take(&self, n: usize) -> AmplitudeScratch {
        let mut held = self.lock();
        let fit = held
            .iter()
            .enumerate()
            .filter(|(_, scratch)| scratch.capacity() >= n)
            .min_by_key(|(_, scratch)| scratch.capacity())
            .or_else(|| {
                held.iter()
                    .enumerate()
                    .max_by_key(|(_, scratch)| scratch.capacity())
            })
            .map(|(index, _)| index);
        fit.map(|index| held.swap_remove(index)).unwrap_or_default()
    }

    /// Hands a scratch back for later takes. One that never allocated is
    /// dropped: it has nothing to lend.
    pub fn put(&self, scratch: AmplitudeScratch) {
        if scratch.capacity() > 0 {
            self.lock().push(scratch);
        }
    }

    /// The held scratches. Each update is one `push` or `swap_remove`, so
    /// a panic elsewhere cannot leave the list half-updated, and a poisoned
    /// lock still guards a valid list.
    fn lock(&self) -> MutexGuard<'_, Vec<AmplitudeScratch>> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_copies_and_recycle_reuses_the_allocation() {
        let mut scratch = AmplitudeScratch::with_capacity(8);
        let state = StateVector::uniform(8);
        let taken = scratch.take_copy_of(&state);
        assert_eq!(taken.re, state.planes().0);
        assert_eq!(taken.im, state.planes().1);
        let ptr = taken.re.as_ptr();
        scratch.recycle(taken);
        let again = scratch.take_copy_of(&state);
        assert_eq!(again.re.as_ptr(), ptr, "allocation must be reused");
        assert_eq!(again.re, state.planes().0);
    }

    #[test]
    fn recycle_keeps_the_larger_buffer() {
        let mut scratch = AmplitudeScratch::new();
        scratch.recycle(SoaVec {
            re: Vec::with_capacity(16),
            im: Vec::with_capacity(16),
        });
        assert!(scratch.capacity() >= 16);
        scratch.recycle(SoaVec {
            re: Vec::with_capacity(4),
            im: Vec::with_capacity(4),
        });
        assert!(scratch.capacity() >= 16, "smaller buffer must not replace");
        scratch.recycle(SoaVec {
            re: Vec::with_capacity(64),
            im: Vec::with_capacity(64),
        });
        assert!(scratch.capacity() >= 64);
    }

    #[test]
    fn empty_scratch_still_produces_correct_copies() {
        let mut scratch = AmplitudeScratch::new();
        let state = StateVector::from_real_amplitudes(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let copy = scratch.take_copy_of(&state);
        assert_eq!(copy.re, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(copy.im, vec![0.0; 5]);
    }

    #[test]
    fn the_store_lends_the_best_fitting_scratch() {
        let store = PlaneStore::new();
        assert_eq!(store.take(64).capacity(), 0, "an empty store lends nothing");
        for n in [1 << 16, 1 << 20, 1 << 18] {
            store.put(AmplitudeScratch::with_capacity(n));
        }
        store.put(AmplitudeScratch::new());
        assert_eq!(store.lock().len(), 3, "empty scratches are dropped");
        // The smallest that fits, not the first or the largest.
        let mid = store.take((1 << 17) + 1);
        assert_eq!(mid.capacity(), 1 << 18);
        // Nothing left fits: the largest is lent, for the job to grow.
        let large = store.take(1 << 21);
        assert_eq!(large.capacity(), 1 << 20);
        assert_eq!(store.take(1).capacity(), 1 << 16);
        assert_eq!(store.take(1).capacity(), 0);
    }

    #[test]
    fn concurrent_takes_get_distinct_scratches() {
        const N: usize = 1 << 10;
        let store = PlaneStore::new();
        store.put(AmplitudeScratch::with_capacity(N));
        store.put(AmplitudeScratch::with_capacity(N));
        let held: Vec<*const f64> = store
            .lock()
            .iter()
            .map(|scratch| scratch.buffer.re.as_ptr())
            .collect();
        // Both threads hold their scratch at the barrier, so neither take
        // can see the other's scratch back in the store.
        let barrier = std::sync::Barrier::new(2);
        let taken: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut scratch = store.take(N);
                        let psi = StateVector::uniform_in(N, &mut scratch);
                        let plane = psi.planes().0.as_ptr() as usize;
                        barrier.wait();
                        psi.recycle_into(&mut scratch);
                        store.put(scratch);
                        plane
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_ne!(taken[0], taken[1], "two jobs never share a plane");
        for plane in taken {
            assert!(held.contains(&(plane as *const f64)), "lent, not allocated");
        }
        assert_eq!(store.lock().len(), 2, "both came back");
    }

    #[test]
    fn a_returned_imaginary_plane_does_not_reach_a_later_ideal_run() {
        const N: usize = 1 << 12;
        let db = crate::oracle::Database::new(N as u64, 1234);
        let partition = crate::oracle::Partition::new(N as u64, 4);
        let ideal = |scratch: &mut AmplitudeScratch| {
            let mut psi = StateVector::uniform_in(N, scratch);
            psi.grover_iterations(&db, 20);
            psi.block_grover_iterations(&db, &partition, 6);
            psi.invert_about_mean_excluding_target(&db);
            let planes = (psi.planes().0.to_vec(), psi.planes().1.to_vec());
            psi.recycle_into(scratch);
            planes
        };
        let fresh = ideal(&mut AmplitudeScratch::new());
        assert!(fresh.1.is_empty(), "an ideal run stays real");

        let store = PlaneStore::new();
        let mut scratch = store.take(N);
        let mut psi = StateVector::uniform_in(N, &mut scratch);
        psi.set_amplitude(7, psq_math::complex::Complex64::new(0.25, -0.5));
        // Spreads the imaginary part over the whole plane.
        psi.grover_iterations(&db, 3);
        assert!(psi.planes().1.iter().all(|&im| im != 0.0));
        psi.recycle_into(&mut scratch);
        store.put(scratch);

        let mut reused = store.take(N);
        assert!(reused.im_capacity() >= N, "the complex plane came back");
        assert_eq!(ideal(&mut reused), fresh);
    }
}
