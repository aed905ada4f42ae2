//! Chunk partitioning policy.
//!
//! All data-parallel kernels in this workspace operate on contiguous slices
//! of amplitudes, cut into a **fixed** layout: chunks of one constant size,
//! so the layout — and every per-chunk floating-point fold — depends only on
//! the problem size, never on how many threads run the chunks. The
//! state-vector kernels touch each amplitude only a handful of times, so
//! they are memory-bound and the chunk size trades claim overhead against
//! load balance.

/// Chunk size of the **fixed-layout** kernels (`32 Ki` elements — 256 KiB
/// per `f64` plane chunk).
///
/// The fused structure-of-arrays sweeps fold one accumulator per chunk in
/// chunk-index order; making the chunk layout a pure function of the
/// problem size (never the thread count) keeps those floating-point folds
/// bit-identical whether the chunks run on one thread or many. See
/// [`chunk_ranges_fixed`].
pub const FIXED_CHUNK: usize = 1 << 15;

/// Returns the number of worker threads to use by default.
///
/// This is `std::thread::available_parallelism()` capped at 64, falling back
/// to 1 when the platform cannot report it. [`crate::WorkerPool`] sizes
/// itself with it.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(64)
}

/// Computes the **fixed** chunk layout: `⌈len / chunk⌉` ranges of exactly
/// `chunk` elements (the last possibly shorter), depending only on `len`
/// and `chunk` — never on the thread count.
///
/// This is the layout behind the deterministic reductions of the fused
/// simulation kernels: per-chunk partial results combined in range order
/// are reproducible across thread budgets and machines because the ranges
/// themselves never move. Callers that must not split an aligned unit (a
/// database block) pass a `chunk` that is a multiple of the unit size.
pub fn chunk_ranges_fixed(len: usize, chunk: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let mut ranges = Vec::with_capacity(len.div_ceil(chunk));
    let mut start = 0usize;
    while start < len {
        let end = (start + chunk).min(len);
        ranges.push((start, end));
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_positive() {
        assert!(num_threads() >= 1);
        assert!(num_threads() <= 64);
    }

    #[test]
    fn empty_problem_has_no_chunks() {
        assert!(chunk_ranges_fixed(0, 16).is_empty());
    }

    #[test]
    fn small_problem_is_one_chunk() {
        assert_eq!(chunk_ranges_fixed(100, FIXED_CHUNK), vec![(0, 100)]);
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        for len in [1usize, 5, 4096, 4097, 100_000, 1 << 20] {
            for chunk in [1usize, 7, 1024, FIXED_CHUNK] {
                let ranges = chunk_ranges_fixed(len, chunk);
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "chunks must be contiguous");
                    assert_eq!(w[0].1 - w[0].0, chunk, "only the last chunk is short");
                }
                assert_eq!(ranges.len(), len.div_ceil(chunk));
            }
        }
    }

    #[test]
    fn aligned_chunks_respect_alignment() {
        // A chunk size rounded up to a multiple of the block size (the
        // per-block kernels' rule) never splits a block.
        for (len, align) in [
            (12usize, 4usize),
            (1 << 16, 128),
            (4096 * 6, 4096),
            (64, 64),
            (3 << 15, 3),
        ] {
            let chunk = FIXED_CHUNK.div_ceil(align) * align;
            let ranges = chunk_ranges_fixed(len, chunk);
            assert_eq!(ranges.first().unwrap().0, 0);
            assert_eq!(ranges.last().unwrap().1, len);
            for (start, end) in &ranges {
                assert_eq!(start % align, 0, "chunk start must be aligned");
                assert_eq!(end % align, 0, "chunk end must be aligned");
            }
        }
    }
}
