//! Property tests: every parallel primitive must agree with its serial
//! counterpart regardless of chunking and pool size, on and off the pool.

use proptest::prelude::*;
use psq_parallel::{chunk_ranges_fixed, par_chunks_fixed, par_map_chunks_fixed, WorkerPool};
use std::sync::OnceLock;

/// Pools of 2, 3 and 8 workers, shared by every case.
fn pools() -> &'static [WorkerPool] {
    static POOLS: OnceLock<Vec<WorkerPool>> = OnceLock::new();
    POOLS.get_or_init(|| [2, 3, 8].into_iter().map(WorkerPool::new).collect())
}

/// Runs `job` on one of `pool`'s workers (so its sweeps run as regions the
/// pool's idle workers join) and returns its result.
fn on_pool<R: Send + 'static>(pool: &WorkerPool, job: impl FnOnce() -> R + Send + 'static) -> R {
    pool.map(vec![job])
        .pop()
        .expect("one job, one result")
        .expect("job completed")
}

/// The sweep the bit-identity property runs: `x ← shift − x`, summing the
/// written values per chunk.
fn reflect_and_sum(data: &mut [f64], chunk: usize, shift: f64) -> Vec<f64> {
    par_chunks_fixed(data, chunk, |_, c| {
        let mut acc = 0.0f64;
        for x in c.iter_mut() {
            *x = shift - *x;
            acc += *x;
        }
        acc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fixed chunk layout is a pure function of `(len, chunk)`: where
    /// the chunks run — in order on a caller off the pool, or shared with the
    /// idle workers of a 2-, 3- or 8-worker pool — must change neither the
    /// written data nor any per-chunk floating-point accumulator, bit for
    /// bit. This is the reproducibility contract the fused simulation sweeps
    /// build on.
    #[test]
    fn fixed_chunk_sweeps_are_bit_identical_across_thread_budgets(
        len in 1usize..30_000,
        chunk in 1usize..8_192,
        shift in -1.0f64..1.0,
    ) {
        let base: Vec<f64> = (0..len).map(|i| ((i * 2654435761) % 1000) as f64 / 999.0).collect();
        let mut reference_data = base.clone();
        let reference_sums = reflect_and_sum(&mut reference_data, chunk, shift);
        prop_assert_eq!(reference_sums.len(), chunk_ranges_fixed(len, chunk).len());
        for pool in pools() {
            let mut data = base.clone();
            let (data, sums) = on_pool(pool, move || {
                let sums = reflect_and_sum(&mut data, chunk, shift);
                (data, sums)
            });
            // Bit-identity, not approximate equality: same chunks, same
            // per-chunk serial order, same fold order.
            prop_assert_eq!(&data, &reference_data, "data diverged at {} workers", pool.threads());
            prop_assert_eq!(&sums, &reference_sums, "sums diverged at {} workers", pool.threads());
        }
    }

    /// The fixed layout covers the slice exactly once, in order, and never
    /// depends on anything but `(len, chunk)`.
    #[test]
    fn fixed_chunk_layout_is_a_partition_of_the_range(
        len in 0usize..50_000,
        chunk in 1usize..9_000,
    ) {
        let ranges = chunk_ranges_fixed(len, chunk);
        if len == 0 {
            prop_assert!(ranges.is_empty());
        } else {
            prop_assert_eq!(ranges.first().unwrap().0, 0);
            prop_assert_eq!(ranges.last().unwrap().1, len);
            for w in ranges.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0);
            }
            for &(start, end) in &ranges {
                prop_assert!(end - start <= chunk);
                prop_assert!(end > start);
            }
        }
    }

    #[test]
    fn parallel_increment_equals_serial(len in 0usize..20_000,
                                        pool_index in 0usize..3,
                                        chunk in 1usize..5000) {
        let mut serial: Vec<u64> = (0..len as u64).collect();
        let parallel = on_pool(&pools()[pool_index], move || {
            let mut data: Vec<u64> = (0..len as u64).collect();
            par_chunks_fixed(&mut data, chunk, |offset, c| {
                for (i, x) in c.iter_mut().enumerate() {
                    *x = x.wrapping_mul(3).wrapping_add((offset + i) as u64);
                }
            });
            data
        });
        for (i, x) in serial.iter_mut().enumerate() {
            *x = x.wrapping_mul(3).wrapping_add(i as u64);
        }
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_reduce_equals_serial(len in 0usize..20_000,
                                     pool_index in 0usize..3,
                                     chunk in 1usize..5000) {
        let data: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let serial = data.iter().fold(0u64, |a, b| a.wrapping_add(*b));
        let parallel = on_pool(&pools()[pool_index], move || {
            par_map_chunks_fixed(&data, chunk, |_, c| c.iter().fold(0u64, |a, b| a.wrapping_add(*b)))
                .into_iter()
                .fold(0u64, |a, b| a.wrapping_add(b))
        });
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn float_reduction_is_deterministic_for_fixed_layout(len in 1usize..10_000) {
        let data: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
        let fold = |data: &[f64]| -> f64 {
            par_map_chunks_fixed(data, 256, |_, c| c.iter().sum::<f64>())
                .into_iter()
                .sum()
        };
        // Same chunk layout => bitwise-identical result, off the pool and on
        // every pool.
        let reference = fold(&data).to_bits();
        for pool in pools() {
            let data = data.clone();
            prop_assert_eq!(on_pool(pool, move || fold(&data).to_bits()), reference);
        }
    }

    #[test]
    fn pool_map_matches_direct_evaluation(inputs in prop::collection::vec(0u64..1_000_000, 0..200)) {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = inputs
            .iter()
            .map(|&x| move || x.wrapping_mul(x).wrapping_add(1))
            .collect();
        let results: Vec<u64> = pool
            .map(jobs)
            .into_iter()
            .map(|outcome| outcome.expect("job completed"))
            .collect();
        let expected: Vec<u64> = inputs.iter().map(|&x| x.wrapping_mul(x).wrapping_add(1)).collect();
        prop_assert_eq!(results, expected);
    }
}
