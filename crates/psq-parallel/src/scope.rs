//! Fixed-chunk data-parallel kernels over slices.
//!
//! Each kernel cuts its slice into the fixed layout of
//! [`crate::chunks::chunk_ranges_fixed`] — a pure function of the length and
//! the chunk size, never of the thread count — runs `f` once per chunk, and
//! returns the per-chunk results in chunk order. The chunks run as a
//! parallel region of the calling worker's [`crate::WorkerPool`]: the caller
//! and any idle sibling workers claim them, and no thread is spawned. A
//! caller off the pool runs the same chunks in order on its own thread.
//!
//! A caller that folds the returned per-chunk accumulators in order
//! therefore gets a **bit-identical** floating-point result at any pool
//! size, on or off the pool — the reproducibility contract of the fused
//! simulation sweeps.

use crate::chunks::chunk_ranges_fixed;
use crate::pool::run_region;
use std::sync::{Mutex, PoisonError};

/// Runs `f` on every part — as one region chunk each — and returns the
/// results in part order. Each part travels to whichever thread claims its
/// index through its own mutex, so the disjoint borrows inside the parts
/// need no unsafe code.
fn map_parts<P: Send, A: Send>(parts: Vec<P>, f: impl Fn(P) -> A + Sync) -> Vec<A> {
    let inputs: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let outputs: Vec<Mutex<Option<A>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    run_region(inputs.len(), &|index| {
        let part = inputs[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each chunk index is claimed once");
        let value = f(part);
        *outputs[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(value);
    });
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every chunk produced a result")
        })
        .collect()
}

/// Runs `f(offset, chunk)` over the **fixed** chunk layout of `data` (see
/// [`crate::chunks::chunk_ranges_fixed`]) and returns the per-chunk results
/// in chunk order.
///
/// Because the chunk boundaries depend only on `data.len()` and `chunk`,
/// and the results come back in chunk-index order, a caller that folds the
/// returned accumulators gets a **bit-identical** floating-point result
/// however many workers help.
pub fn par_chunks_fixed<T, A, F>(data: &mut [T], chunk: usize, f: F) -> Vec<A>
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut [T]) -> A + Sync,
{
    let ranges = chunk_ranges_fixed(data.len(), chunk);
    let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for &(start, end) in &ranges {
        let (head, tail) = rest.split_at_mut(end - start);
        parts.push((start, head));
        rest = tail;
    }
    map_parts(parts, |(offset, slice)| f(offset, slice))
}

/// Read-only companion of [`par_chunks_fixed`]: maps `f` over the fixed
/// chunk layout of an immutable slice and returns per-chunk results in
/// chunk order (same determinism contract).
pub fn par_map_chunks_fixed<T, A, F>(data: &[T], chunk: usize, f: F) -> Vec<A>
where
    T: Sync,
    A: Send,
    F: Fn(usize, &[T]) -> A + Sync,
{
    let ranges = chunk_ranges_fixed(data.len(), chunk);
    map_parts(ranges, |(start, end)| f(start, &data[start..end]))
}

/// Zipped-pair variant of [`par_chunks_fixed`]: runs `f` over matching
/// fixed-layout chunks of two equal-length slices (the real and imaginary
/// planes of one state), returning per-chunk results in chunk order.
pub fn par_zip_chunks_fixed<T, A, F>(a: &mut [T], b: &mut [T], chunk: usize, f: F) -> Vec<A>
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut [T], &mut [T]) -> A + Sync,
{
    assert_eq!(a.len(), b.len(), "zipped planes must have equal length");
    let ranges = chunk_ranges_fixed(a.len(), chunk);
    let mut parts: Vec<(usize, &mut [T], &mut [T])> = Vec::with_capacity(ranges.len());
    let (mut rest_a, mut rest_b) = (a, b);
    for &(start, end) in &ranges {
        let (head_a, tail_a) = rest_a.split_at_mut(end - start);
        let (head_b, tail_b) = rest_b.split_at_mut(end - start);
        parts.push((start, head_a, head_b));
        rest_a = tail_a;
        rest_b = tail_b;
    }
    map_parts(parts, |(offset, ca, cb)| f(offset, ca, cb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkerPool;
    use std::thread;
    use std::time::Duration;

    /// Runs `job` on one of `pool`'s workers and returns its result.
    fn on_pool<R: Send + 'static>(
        pool: &WorkerPool,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        pool.map(vec![job])
            .pop()
            .expect("one job, one result")
            .expect("job completed")
    }

    #[test]
    fn chunked_mutation_touches_every_element_once() {
        let pool = WorkerPool::new(8);
        let data = on_pool(&pool, || {
            let mut data = vec![1u64; 100_000];
            par_chunks_fixed(&mut data, 1024, |offset, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x += (offset + i) as u64;
                }
            });
            data
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == 1 + i as u64));
    }

    #[test]
    fn indexed_for_each_matches_serial() {
        let mut parallel = vec![0.0f64; 50_000];
        let mut serial = vec![0.0f64; 50_000];
        par_chunks_fixed(&mut parallel, 4096, |offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = ((offset + i) as f64).sqrt();
            }
        });
        for (i, x) in serial.iter_mut().enumerate() {
            *x = (i as f64).sqrt();
        }
        assert_eq!(parallel, serial);
    }

    #[test]
    fn map_reduce_sums_correctly() {
        let pool = WorkerPool::new(4);
        let total = on_pool(&pool, || {
            let data: Vec<u64> = (0..200_000).collect();
            par_map_chunks_fixed(&data, 1024, |_, chunk| chunk.iter().sum::<u64>())
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(total, 200_000 * 199_999 / 2);
    }

    #[test]
    fn map_reduce_on_empty_slice_returns_identity() {
        let data: Vec<u64> = Vec::new();
        let partials = par_map_chunks_fixed(&data, 1024, |_, chunk| chunk.iter().sum::<u64>());
        assert!(partials.is_empty(), "an empty slice has no chunks");
        assert_eq!(partials.into_iter().fold(42u64, |a, b| a + b), 42);
    }

    #[test]
    fn small_inputs_take_the_serial_path() {
        let mut data = vec![0u8; 10];
        let caller = thread::current().id();
        let ran_on = par_chunks_fixed(&mut data, 4096, |offset, chunk| {
            assert_eq!(offset, 0);
            assert_eq!(chunk.len(), 10);
            chunk.fill(7);
            thread::current().id()
        });
        assert_eq!(ran_on, vec![caller]);
        assert!(data.iter().all(|&x| x == 7));
    }

    #[test]
    fn par_sum_matches_serial_sum() {
        let pool = WorkerPool::new(3);
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64) * 1e-3).collect();
        let serial: f64 = data.iter().map(|x| x * x).sum();
        let parallel = on_pool(&pool, move || {
            par_map_chunks_fixed(&data, 2048, |_, c| c.iter().map(|x| x * x).sum::<f64>())
                .into_iter()
                .sum::<f64>()
        });
        assert!((parallel - serial).abs() < 1e-6 * serial.abs().max(1.0));
    }

    #[test]
    fn tasks_preserve_order() {
        let pool = WorkerPool::new(4);
        let results = on_pool(&pool, || {
            let data: Vec<usize> = (0..100).collect();
            par_map_chunks_fixed(&data, 1, |i, chunk| {
                assert_eq!(chunk, [i]);
                i * i
            })
        });
        assert_eq!(results.len(), 100);
        assert!(results.iter().enumerate().all(|(i, &r)| r == i * i));
    }

    #[test]
    fn tasks_with_uneven_durations_still_collect_all_results() {
        let pool = WorkerPool::new(4);
        let results = on_pool(&pool, || {
            let data: Vec<u32> = (0..16).collect();
            par_map_chunks_fixed(&data, 1, |_, chunk| {
                if chunk[0] % 3 == 0 {
                    thread::sleep(Duration::from_millis(2));
                }
                chunk[0]
            })
        });
        assert_eq!(results, (0..16u32).collect::<Vec<u32>>());
    }

    #[test]
    fn thread_budget_of_one_is_fully_serial() {
        // On a one-worker pool the caller has no idle sibling: every chunk
        // runs on the calling worker, in chunk order.
        let pool = WorkerPool::new(1);
        let (order, data) = on_pool(&pool, || {
            let caller = thread::current().id();
            let mut data = vec![0u32; 20_000];
            let order = par_chunks_fixed(&mut data, 1000, |offset, chunk| {
                assert_eq!(thread::current().id(), caller);
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = (offset + i) as u32;
                }
                offset
            });
            (order, data)
        });
        assert_eq!(order, (0..20).map(|c| c * 1000).collect::<Vec<_>>());
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn off_pool_callers_run_chunks_in_order_on_their_own_thread() {
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        let (mut re, mut im) = (vec![1.0f64; 5000], vec![2.0f64; 5000]);
        let sums = par_zip_chunks_fixed(&mut re, &mut im, 512, |offset, a, b| {
            assert_eq!(thread::current().id(), caller);
            seen.lock().unwrap().push(offset);
            a.iter_mut()
                .zip(b.iter_mut())
                .map(|(x, y)| {
                    std::mem::swap(x, y);
                    *x
                })
                .sum::<f64>()
        });
        let offsets: Vec<usize> = chunk_ranges_fixed(5000, 512).iter().map(|r| r.0).collect();
        assert_eq!(seen.into_inner().unwrap(), offsets, "chunks ran in order");
        assert_eq!(sums.len(), offsets.len());
        assert!(re.iter().all(|&x| x == 2.0) && im.iter().all(|&x| x == 1.0));
    }
}
