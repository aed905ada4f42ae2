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

use crate::statevector::StateVector;
use psq_math::soa::SoaVec;

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
}
