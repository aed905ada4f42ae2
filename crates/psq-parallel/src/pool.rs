//! A persistent work-stealing worker pool, and the parallel regions the
//! fixed-chunk kernels run on.
//!
//! `WorkerPool` keeps a fixed set of workers alive and schedules with the
//! classic work-stealing structure (`crossbeam::deque`):
//!
//! * external submissions go to a shared [`Injector`];
//! * each worker owns a Chase–Lev [`Worker`] deque and works it LIFO,
//!   periodically refilling from the injector in batches;
//! * an idle worker steals from its siblings' deques (FIFO end) before it
//!   parks, so load imbalance self-corrects without a global lock.
//!
//! Scheduling order is therefore *not* deterministic — but results are:
//! [`WorkerPool::map`] tags every job with its submission index and
//! reassembles output in submission order, and jobs are expected to derive
//! any randomness from their own seeds, never from placement. A job that
//! panics is caught where it runs: [`WorkerPool::map`] returns the panic as
//! that job's failure, beside its batch-mates' results, and fire-and-forget
//! panics are swallowed. Workers never die mid-service, so [`Drop`] always
//! joins cleanly even after a panicked job.
//!
//! # Parallel regions
//!
//! A job that sweeps a large array splits the sweep across the same workers
//! instead of spawning threads: the fixed-chunk kernels in [`crate::scope`]
//! call `run_region`, which publishes the sweep's chunk count and chunk body
//! as a *region* in the calling worker's slot. The caller and every idle
//! sibling claim chunk indices from one atomic counter until none are left;
//! the caller then withdraws the region and waits until every helper has
//! left it. The rules:
//!
//! * a caller off the pool — or already inside a region — runs the chunks in
//!   index order on its own thread;
//! * only idle workers help: a worker busy with a job never does, so a batch
//!   that keeps every worker busy runs each job's chunks on its own worker;
//! * an idle worker sleeps on the pool's condition variable and neither
//!   spins nor takes a lock while no region is open; publishing a region
//!   wakes sleepers only when there are some;
//! * a panicking chunk stops further claims, and the caller re-raises the
//!   first panic only after every claimed chunk has finished; the workers
//!   survive.
//!
//! Where a chunk runs never changes what it computes: the caller owns the
//! chunk layout and collects per-chunk results by index, so the output is
//! bit-identical at any pool size.

use crossbeam::channel::unbounded;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::any::Any;
use std::cell::{Cell, OnceCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Coordination state guarded by the sleep mutex (see `Shared::coord`).
struct Coord {
    /// Set once by `Drop`; workers drain every queue and exit.
    shutdown: bool,
}

/// One published sweep: `chunks` calls of `body`, claimed through `next`.
struct Region<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
    /// Set by the first panicking chunk; later claims are abandoned.
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Region<'_> {
    /// Claims and runs chunks until none are left, withdrawing the region
    /// from `slot` once they are (so idle workers stop visiting it). Returns
    /// whether any chunk was claimed.
    fn work(&self, slot: &RegionSlot) -> bool {
        let mut claimed = false;
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.chunks || self.panicked.load(Ordering::Relaxed) {
                slot.region.store(ptr::null_mut(), Ordering::SeqCst);
                return claimed;
            }
            claimed = true;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(index))) {
                self.panicked.store(true, Ordering::Relaxed);
                self.panic
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
        }
    }
}

/// A worker's region slot: the region it has open (if any), and the number
/// of helpers that may be looking at it.
struct RegionSlot {
    /// Null when no region is open. The region lives on its caller's stack;
    /// its lifetime is erased here and upheld by the visitor protocol.
    region: AtomicPtr<Region<'static>>,
    /// Helpers between their increment (made before they load `region`) and
    /// their decrement (made after their last access to the region).
    visitors: AtomicUsize,
}

impl RegionSlot {
    /// Helps the region open in this slot, if any. Returns whether a chunk
    /// was claimed.
    fn help(&self) -> bool {
        if self.region.load(Ordering::Relaxed).is_null() {
            return false;
        }
        self.visitors.fetch_add(1, Ordering::SeqCst);
        let region = self.region.load(Ordering::SeqCst);
        let claimed = !region.is_null() && {
            // SAFETY: the caller publishes `region` before it claims any
            // chunk and keeps it alive until it has nulled this slot and then
            // seen `visitors` at zero (`Shared::open_region`). Our increment
            // precedes our load in the single SeqCst order, so either the
            // load saw null, or the caller's wait sees our visit and blocks
            // until the decrement below, which follows our last access.
            let region = unsafe { &*region };
            region.work(self)
        };
        self.visitors.fetch_sub(1, Ordering::Release);
        claimed
    }
}

/// State shared between the pool handle and every worker thread.
struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// One region slot per worker, indexed like `stealers`.
    regions: Vec<RegionSlot>,
    /// Workers inside (or committed to) `Condvar::wait`; changed only under
    /// the coord mutex, read without it by region publishers.
    sleepers: AtomicUsize,
    coord: Mutex<Coord>,
    wakeup: Condvar,
}

thread_local! {
    /// The pool and slot index of the worker running on this thread.
    static WORKER: OnceCell<(Arc<Shared>, usize)> = const { OnceCell::new() };
    /// Whether this thread is running region chunks; a sweep nested in a
    /// chunk runs serially.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a region until dropped.
struct InRegion;

impl InRegion {
    fn enter() -> Self {
        IN_REGION.set(true);
        InRegion
    }
}

impl Drop for InRegion {
    fn drop(&mut self) {
        IN_REGION.set(false);
    }
}

/// Nulls a region slot and waits until no helper is inside it; runs on
/// drop so the region cannot outlive its publication even on unwind.
struct Withdraw<'s>(&'s RegionSlot);

impl Drop for Withdraw<'_> {
    fn drop(&mut self) {
        self.0.region.store(ptr::null_mut(), Ordering::SeqCst);
        let mut spins = 0u32;
        // Helpers leave within one chunk's run time.
        while self.0.visitors.load(Ordering::SeqCst) != 0 {
            if spins < 64 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl Shared {
    fn lock_coord(&self) -> MutexGuard<'_, Coord> {
        self.coord.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether any queue visibly holds work or any region is open. Only
    /// called on the idle path *while holding the coord mutex*, after the
    /// `sleepers` increment: a submitter makes its job visible (injector
    /// push) before it takes that mutex to notify, and a region publisher
    /// stores its region before it reads `sleepers`, so a worker that sees
    /// nothing here is guaranteed to be woken for either.
    fn work_in_sight(&self) -> bool {
        !self.injector.is_empty()
            || self.stealers.iter().any(|s| !s.is_empty())
            || self
                .regions
                .iter()
                .any(|slot| !slot.region.load(Ordering::SeqCst).is_null())
    }

    /// Wakes sleeping workers. Must be called *after* the work is visible:
    /// the lock round trip serialises with the idle path's emptiness check,
    /// so any worker that missed the work is already waiting when the notify
    /// fires (see `work_in_sight`).
    fn signal(&self, all: bool) {
        drop(self.lock_coord());
        if all {
            self.wakeup.notify_all();
        } else {
            self.wakeup.notify_one();
        }
    }

    /// Idle worker `index` helps the first open region it finds among its
    /// siblings' slots. Returns whether it claimed a chunk.
    fn help_regions(&self, index: usize) -> bool {
        let _nested = InRegion::enter();
        let count = self.regions.len();
        (1..count).any(|offset| self.regions[(index + offset) % count].help())
    }

    /// Runs `body(0..chunks)` as a region in worker `index`'s slot, with idle
    /// siblings helping; re-raises the first chunk panic once every claimed
    /// chunk has finished.
    fn open_region(&self, index: usize, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        let _nested = InRegion::enter();
        let region = Region {
            body,
            chunks,
            next: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        let slot = &self.regions[index];
        let withdraw = Withdraw(slot);
        slot.region
            .store(ptr::from_ref(&region).cast_mut().cast(), Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.signal(true);
        }
        region.work(slot);
        drop(withdraw);
        let panic = region
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Runs `body(i)` for every `i` in `0..chunks`. On a pool worker the chunks
/// form a region that idle sibling workers join; anywhere else (and inside a
/// region) they run in index order on the calling thread. Returns after
/// every chunk has run; a chunk's panic propagates to the caller.
pub(crate) fn run_region(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    let pooled = chunks > 1
        && !IN_REGION.get()
        && WORKER.with(|worker| match worker.get() {
            Some((shared, index)) => {
                shared.open_region(*index, chunks, body);
                true
            }
            None => false,
        });
    if !pooled {
        (0..chunks).for_each(body);
    }
}

/// A fixed-size pool of worker threads executing boxed jobs over
/// work-stealing deques.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Per-worker scheduling loop: local LIFO deque first, then an injector
/// batch, then stealing from siblings, then open regions; park only when
/// everything is empty.
fn worker_loop(shared: Arc<Shared>, index: usize, local: Worker<Job>) {
    WORKER.with(|worker| {
        let _ = worker.set((Arc::clone(&shared), index));
    });
    // Claim this worker's share of the injector into `local` and return one
    // job, or steal from a sibling. `None` only after a full sweep saw every
    // queue empty (retries are resolved inside the sweep).
    let find_job = |local: &Worker<Job>| -> Option<Job> {
        if let Some(job) = local.pop() {
            return Some(job);
        }
        loop {
            let mut retry = false;
            match shared.injector.steal_batch_and_pop(local) {
                Steal::Success(job) => return Some(job),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            let siblings = shared.stealers.len();
            for offset in 1..siblings {
                match shared.stealers[(index + offset) % siblings].steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
        }
    };
    loop {
        if let Some(job) = find_job(&local) {
            // A panicking job must not take the worker down with it, so
            // Drop can still join this thread. (`map` jobs catch their own
            // panics and report them as results; this catches the
            // fire-and-forget ones.)
            let _ = catch_unwind(AssertUnwindSafe(job));
            continue;
        }
        if shared.help_regions(index) {
            continue;
        }
        let coord = shared.lock_coord();
        if coord.shutdown {
            drop(coord);
            // Final drain: take whatever is still queued, then exit.
            while let Some(job) = find_job(&local) {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            return;
        }
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        // Checked under the coord lock after the `sleepers` increment — see
        // `work_in_sight` for why this cannot miss a wakeup.
        let coord = if shared.work_in_sight() {
            coord
        } else {
            shared
                .wakeup
                .wait(coord)
                .unwrap_or_else(PoisonError::into_inner)
        };
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(coord);
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        // Deques are created up front so every thread can hold stealers for
        // all of its siblings; each single-owner `Worker` handle then moves
        // into the thread it belongs to.
        let locals: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Job>> = locals.iter().map(|w| w.stealer()).collect();
        let regions = (0..threads)
            .map(|_| RegionSlot {
                region: AtomicPtr::new(ptr::null_mut()),
                visitors: AtomicUsize::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            regions,
            sleepers: AtomicUsize::new(0),
            coord: Mutex::new(Coord { shutdown: false }),
            wakeup: Condvar::new(),
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("psq-worker-{index}"))
                    .spawn(move || worker_loop(shared, index, local))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn with_default_threads() -> Self {
        Self::new(crate::chunks::num_threads())
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a fire-and-forget job.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.shared.injector.push(Box::new(job));
        self.shared.signal(false);
    }

    /// Runs `jobs` on the pool and returns their outcomes in submission
    /// order: each job's value, or the payload of its panic. A panicking job
    /// fails alone; the rest of the batch still runs, and the caller never
    /// unwinds.
    ///
    /// Blocks until every job has completed.
    pub fn map<A, F>(&self, jobs: Vec<F>) -> Vec<std::thread::Result<A>>
    where
        A: Send + 'static,
        F: FnOnce() -> A + Send + 'static,
    {
        let (result_tx, result_rx) = unbounded::<(usize, std::thread::Result<A>)>();
        let expected = jobs.len();
        // Push the whole batch before waking anyone: one wakeup for N jobs
        // keeps small-job batches from context-switch thrash (a per-push
        // notify makes the submitter and a worker trade the core per job).
        for (index, job) in jobs.into_iter().enumerate() {
            let tx = result_tx.clone();
            self.shared.injector.push(Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                // The receiver outlives the loop below, so this send only
                // fails if the caller's receiver was dropped early, which
                // cannot happen within this function.
                let _ = tx.send((index, outcome));
            }));
        }
        self.shared.signal(true);
        drop(result_tx);
        let mut results: Vec<Option<std::thread::Result<A>>> = Vec::new();
        results.resize_with(expected, || None);
        for _ in 0..expected {
            let (index, outcome) = result_rx
                .recv()
                .expect("every job reports its outcome, panicked or not");
            results[index] = Some(outcome);
        }
        results
            .into_iter()
            .map(|r| r.expect("all job indices must be filled"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock_coord().shutdown = true;
        self.shared.wakeup.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a job (a pool bug) reports
            // Err here; swallowing it keeps Drop non-blocking either way.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Every job's value; panics if a job panicked.
    fn ok<A>(outcomes: Vec<std::thread::Result<A>>) -> Vec<A> {
        outcomes
            .into_iter()
            .map(|outcome| outcome.expect("job completed"))
            .collect()
    }

    #[test]
    fn pool_runs_every_job() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // join all workers
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn map_preserves_order() {
        let pool = WorkerPool::new(3);
        let jobs: Vec<_> = (0..50).map(|i| move || i * 2).collect();
        let results = ok(pool.map(jobs));
        assert_eq!(results, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_heterogeneous_durations() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..20)
            .map(|i| {
                move || {
                    if i % 4 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i
                }
            })
            .collect();
        assert_eq!(ok(pool.map(jobs)), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn zero_thread_request_still_gets_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(ok(pool.map(vec![|| 7])), vec![7]);
    }

    #[test]
    fn default_sized_pool_matches_chunk_policy() {
        let pool = WorkerPool::with_default_threads();
        assert_eq!(pool.threads(), crate::chunks::num_threads());
    }

    #[test]
    fn pool_is_reusable_across_map_calls() {
        let pool = WorkerPool::new(2);
        for round in 0..5 {
            let jobs: Vec<_> = (0..10).map(|i| move || i + round).collect();
            assert_eq!(
                ok(pool.map(jobs)),
                (0..10).map(|i| i + round).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn many_small_jobs_across_many_workers() {
        // Exercises injector batching + stealing: far more jobs than workers,
        // each tiny, so deques drain and refill constantly.
        let pool = WorkerPool::new(8);
        let jobs: Vec<_> = (0..5000u64).map(|i| move || i.wrapping_mul(i)).collect();
        let expected: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(i)).collect();
        assert_eq!(ok(pool.map(jobs)), expected);
    }

    #[test]
    fn drop_joins_after_a_panicked_job() {
        // A panicking job must neither kill its worker nor leave Drop
        // blocking on a closed-channel expectation.
        let pool = WorkerPool::new(2);
        let after = Arc::new(AtomicUsize::new(0));
        pool.execute(|| panic!("job panics mid-batch"));
        for _ in 0..10 {
            let after = Arc::clone(&after);
            pool.execute(move || {
                after.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // must not hang
        assert_eq!(after.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pool_stays_usable_after_a_panicked_job() {
        let pool = WorkerPool::new(2);
        pool.execute(|| panic!("first job panics"));
        let results = ok(pool.map((0..20).map(|i| move || i + 1).collect::<Vec<_>>()));
        assert_eq!(results, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn map_reports_a_panicked_job_as_its_failure() {
        let pool = WorkerPool::new(2);
        let outcomes = pool.map(
            (0..4)
                .map(|i| {
                    move || {
                        if i == 2 {
                            panic!("poisoned job");
                        }
                        i
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(outcomes.len(), 4);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(value) => assert_eq!(value, i, "batch-mates keep their results"),
                Err(payload) => {
                    assert_eq!(i, 2, "only the panicking job fails");
                    assert_eq!(panic_message(payload.as_ref()), "poisoned job");
                }
            }
        }
        // The pool keeps serving, and still shuts down cleanly afterwards.
        assert_eq!(ok(pool.map(vec![|| 7])), vec![7]);
        drop(pool);
    }

    // ----- parallel regions ---------------------------------------------

    use crate::scope::{par_chunks_fixed, par_map_chunks_fixed};
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Generous bound on waiting for a parked sibling to join a region.
    const JOIN_DEADLINE: Duration = Duration::from_secs(10);
    /// How long a chunk stays running after a sibling chunk's panic, unless
    /// the caller's unwind is caught first: a pool that waits for claimed
    /// chunks passes regardless, one that unwinds early is caught reading
    /// an unfinished chunk.
    const HOLD_AFTER_PANIC: Duration = Duration::from_millis(100);

    /// Runs `job` on one of `pool`'s workers and returns its result.
    fn on_pool<R: Send + 'static>(
        pool: &WorkerPool,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        ok(pool.map(vec![job])).pop().expect("one job, one result")
    }

    /// Sleeps in short steps until `done` holds or `deadline` passes.
    fn wait_until(deadline: Instant, done: impl Fn() -> bool) {
        while !done() && Instant::now() < deadline {
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// Counts a chunk as started on creation and as finished on drop, so a
    /// panicking chunk counts as finished once it has unwound.
    struct ChunkRun<'a>(&'a AtomicUsize);

    impl<'a> ChunkRun<'a> {
        fn start(started: &AtomicUsize, finished: &'a AtomicUsize) -> Self {
            started.fetch_add(1, Ordering::SeqCst);
            ChunkRun(finished)
        }
    }

    impl Drop for ChunkRun<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("")
    }

    /// The pool still runs jobs and regions correctly.
    fn assert_pool_usable(pool: &WorkerPool) {
        let sums = on_pool(pool, || {
            let data: Vec<u64> = (0..4096).collect();
            par_map_chunks_fixed(&data, 256, |_, c| c.iter().sum::<u64>())
        });
        assert_eq!(sums.len(), 16);
        assert_eq!(sums.iter().sum::<u64>(), 4095 * 4096 / 2);
        assert_eq!(
            ok(pool.map((0..8).map(|i| move || i * 3).collect::<Vec<_>>())),
            (0..8).map(|i| i * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lone_region_on_an_idle_pool_runs_chunks_on_more_than_one_thread() {
        let pool = WorkerPool::new(4);
        let (threads, offsets) = on_pool(&pool, || {
            let deadline = Instant::now() + JOIN_DEADLINE;
            let seen = Mutex::new(HashSet::<ThreadId>::new());
            let first = AtomicBool::new(true);
            let data = vec![0u8; 64];
            let offsets = par_map_chunks_fixed(&data, 1, |offset, _| {
                seen.lock().unwrap().insert(thread::current().id());
                // The first chunk holds its thread until a second thread
                // has run a chunk: only helping siblings can release it.
                if first.swap(false, Ordering::SeqCst) {
                    wait_until(deadline, || seen.lock().unwrap().len() > 1);
                }
                offset
            });
            (seen.into_inner().unwrap().len(), offsets)
        });
        assert!(threads > 1, "a lone region ran on {threads} thread(s)");
        assert_eq!(
            offsets,
            (0..64).collect::<Vec<_>>(),
            "results in chunk order"
        );
    }

    #[test]
    fn busy_workers_never_help_a_sibling_region() {
        let pool = WorkerPool::new(2);
        let barrier = Arc::new(Barrier::new(2));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                move || {
                    // Both workers are busy from here until the second wait.
                    barrier.wait();
                    let own = thread::current().id();
                    let mut data = vec![1u32; 256];
                    let foreign = par_chunks_fixed(&mut data, 8, |_, c| {
                        c.iter_mut().for_each(|x| *x += 1);
                        thread::current().id() != own
                    });
                    barrier.wait();
                    (foreign.iter().filter(|&&f| f).count(), data)
                }
            })
            .collect();
        for (foreign, data) in ok(pool.map(jobs)) {
            assert_eq!(foreign, 0, "a busy worker ran a sibling's chunk");
            assert!(data.iter().all(|&x| x == 2));
        }
    }

    #[test]
    fn a_panicking_caller_chunk_unwinds_after_claimed_chunks_finish() {
        let pool = WorkerPool::new(4);
        let (message, started, finished, helped) = on_pool(&pool, || {
            let deadline = Instant::now() + JOIN_DEADLINE;
            let caller = thread::current().id();
            let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let helper_running = AtomicBool::new(false);
            let caller_panicking = AtomicBool::new(false);
            let caught = AtomicBool::new(false);
            let data = vec![0u8; 64];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                par_map_chunks_fixed(&data, 1, |_, _| {
                    let _run = ChunkRun::start(&started, &finished);
                    if thread::current().id() == caller {
                        wait_until(deadline, || helper_running.load(Ordering::SeqCst));
                        caller_panicking.store(true, Ordering::SeqCst);
                        panic!("caller chunk panics");
                    }
                    helper_running.store(true, Ordering::SeqCst);
                    // Every helper chunk is still running when the caller's
                    // chunk panics, and keeps running for a while after.
                    wait_until(deadline, || caller_panicking.load(Ordering::SeqCst));
                    wait_until(Instant::now() + HOLD_AFTER_PANIC, || {
                        caught.load(Ordering::SeqCst)
                    });
                })
            }));
            let counts = (
                started.load(Ordering::SeqCst),
                finished.load(Ordering::SeqCst),
            );
            caught.store(true, Ordering::SeqCst);
            let payload = outcome.expect_err("the caller's panic propagates");
            (
                panic_message(payload.as_ref()).to_string(),
                counts.0,
                counts.1,
                helper_running.load(Ordering::SeqCst),
            )
        });
        assert_eq!(message, "caller chunk panics");
        assert!(helped, "a helper joined the region");
        assert_eq!(started, finished, "the caller unwound past a running chunk");
        assert_pool_usable(&pool);
    }

    #[test]
    fn a_panicking_helper_chunk_unwinds_the_caller_after_claimed_chunks_finish() {
        let pool = WorkerPool::new(4);
        let (message, started, finished) = on_pool(&pool, || {
            let deadline = Instant::now() + JOIN_DEADLINE;
            let caller = thread::current().id();
            let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let first_helper = AtomicBool::new(true);
            let helper_panicked = AtomicBool::new(false);
            let caught = AtomicBool::new(false);
            let mut data = vec![0u8; 64];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                par_chunks_fixed(&mut data, 1, |_, c| {
                    let _run = ChunkRun::start(&started, &finished);
                    if thread::current().id() != caller
                        && first_helper.swap(false, Ordering::SeqCst)
                    {
                        helper_panicked.store(true, Ordering::SeqCst);
                        panic!("helper chunk panics");
                    }
                    // Every other chunk, on the caller or on another helper,
                    // is still running when the helper's chunk panics, and
                    // keeps running for a while after.
                    wait_until(deadline, || helper_panicked.load(Ordering::SeqCst));
                    wait_until(Instant::now() + HOLD_AFTER_PANIC, || {
                        caught.load(Ordering::SeqCst)
                    });
                    c[0] = 1;
                })
            }));
            let counts = (
                started.load(Ordering::SeqCst),
                finished.load(Ordering::SeqCst),
            );
            caught.store(true, Ordering::SeqCst);
            let payload = outcome.expect_err("the helper's panic reaches the caller");
            (
                panic_message(payload.as_ref()).to_string(),
                counts.0,
                counts.1,
            )
        });
        assert_eq!(message, "helper chunk panics");
        assert_eq!(started, finished, "the caller unwound past a running chunk");
        assert_pool_usable(&pool);
    }
}
