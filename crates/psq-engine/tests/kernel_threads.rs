//! The state-vector kernels run on the engine's own worker pool: sweeping a
//! large state spawns no thread. This file holds a single test, so no
//! concurrently running test can move the process's thread count.

use psq_engine::{BackendHint, Engine, EngineConfig, SearchJob};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// The `Threads:` count from `/proc/self/status`.
fn threads_now() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line")
        .trim()
        .parse()
        .expect("a thread count")
}

#[test]
fn fused_sweeps_inside_an_engine_spawn_no_threads() {
    if !std::path::Path::new("/proc/self/status").exists() {
        return; // no procfs on this platform
    }
    let engine = Engine::new(EngineConfig {
        threads: Some(2),
        result_cache: false,
        ..EngineConfig::default()
    });
    // 2^17 amplitudes are four fixed chunks, so every fused iteration is a
    // region the engine's idle worker may join.
    let job = SearchJob::new(0, 1 << 17, 4, 99_999)
        .with_backend(BackendHint::StateVector)
        .with_seed(3)
        .with_trials(6);
    // A sampler polls the count for the whole run, so a thread that lives
    // only for one sweep is caught too.
    let stop = Arc::new(AtomicBool::new(false));
    let samples = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
        thread::spawn(move || {
            let mut seen = std::collections::BTreeSet::new();
            while !stop.load(Ordering::SeqCst) {
                seen.insert(threads_now());
                samples.fetch_add(1, Ordering::SeqCst);
            }
            seen
        })
    };
    while samples.load(Ordering::SeqCst) == 0 {
        thread::yield_now();
    }
    let before = threads_now();
    let result = engine.run_batch(&[job]).results[0];
    stop.store(true, Ordering::SeqCst);
    let seen = sampler.join().expect("sampler");
    // Each trial charges one query per fused iteration plus one for Step 3.
    let iterations = result.queries - u64::from(result.trials);
    assert!(iterations >= 1000, "only {iterations} fused iterations ran");
    assert!(samples.load(Ordering::SeqCst) > 1);
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![before],
        "the thread count moved during {iterations} fused iterations"
    );
    assert_eq!(threads_now(), before - 1, "only the sampler has exited");
}
