//! Per-layer numbers for the traced run: counter deltas read from the
//! program's own metrics, per-call timings of the public layer entry points
//! over the workload's own lines and jobs, kernel bandwidth against a copy
//! roofline, and the stage breakdown from the program's trace stream.
//!
//! Histogram means use only the exact `count`/`sum_us` fields (whole
//! microseconds per sample), never the log2-bucketed percentiles.

use crate::load::median;
use psq_engine::{
    Backend, Engine, EngineConfig, EngineObsSnapshot, PlanCacheStats, Planner, ResultCache,
    ResultCacheStats, SearchJob, SearchResult,
};
use psq_obs::{Histogram, HistogramSnapshot};
use psq_router::RouterMetrics;
use psq_serve::protocol::{job_line, parse_request, Response};
use psq_serve::ServeMetrics;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// How long each per-call timing loops over its inputs.
const MICRO_TIME: Duration = Duration::from_millis(150);

fn set(out: &mut Layers, name: &str, value: f64) {
    out.insert(name.to_string(), value);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `(Δcount, Δsum_us)` of a cumulative histogram between two snapshots.
fn hist_delta(before: Option<&HistogramSnapshot>, after: Option<&HistogramSnapshot>) -> (u64, u64) {
    let (c0, s0) = before.map_or((0, 0), |h| (h.count, h.sum_us));
    let (c1, s1) = after.map_or((0, 0), |h| (h.count, h.sum_us));
    (c1.saturating_sub(c0), s1.saturating_sub(s0))
}

/// Mean microseconds per call of `f` over `items`, looping for at least
/// [`MICRO_TIME`].
pub fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < MICRO_TIME {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Engine stage deltas: planner, result cache, per-backend execution.
pub fn engine_delta(
    obs: (&EngineObsSnapshot, &EngineObsSnapshot),
    plan: (PlanCacheStats, PlanCacheStats),
    cache: (ResultCacheStats, ResultCacheStats),
    out: &mut Layers,
) {
    let plan_hits = plan.1.hits - plan.0.hits;
    let plan_misses = plan.1.misses - plan.0.misses;
    set(
        out,
        "engine.planner.plan_cache_hit_frac",
        ratio(plan_hits as f64, (plan_hits + plan_misses) as f64),
    );
    let hits = cache.1.hits - cache.0.hits;
    let misses = cache.1.misses - cache.0.misses;
    set(
        out,
        "engine.cache.hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
    );
    set(
        out,
        "engine.cache.evictions",
        (cache.1.evictions - cache.0.evictions) as f64,
    );
    for backend in Backend::ALL {
        let (count, sum) = hist_delta(
            obs.0.backend_latency.get(&backend),
            obs.1.backend_latency.get(&backend),
        );
        let label = backend.label();
        set(out, &format!("engine.execute.{label}.jobs"), count as f64);
        set(
            out,
            &format!("engine.execute.{label}.mean_us"),
            ratio(sum as f64, count as f64),
        );
    }
}

/// Serving-layer deltas (coalescer, sessions) plus the engine behind it.
pub fn serve_delta(before: &ServeMetrics, after: &ServeMetrics, out: &mut Layers) {
    let batches = after.batches - before.batches;
    let batched_jobs = after.batch_jobs_mean * after.batches as f64
        - before.batch_jobs_mean * before.batches as f64;
    set(
        out,
        "serve.coalescer.batch_jobs_mean",
        ratio(batched_jobs, batches as f64),
    );
    let (count, sum) = hist_delta(Some(&before.coalesce_dwell), Some(&after.coalesce_dwell));
    set(
        out,
        "serve.coalescer.dwell_mean_us",
        ratio(sum as f64, count as f64),
    );
    set(
        out,
        "serve.session.overloaded",
        (after.jobs_overloaded - before.jobs_overloaded) as f64,
    );
    engine_delta(
        (&before.engine_obs, &after.engine_obs),
        (before.plan_cache, after.plan_cache),
        (before.result_cache, after.result_cache),
        out,
    );
}

/// Router counter deltas, cross-checked against the replies the client saw:
/// `results_seen` result lines and `errors_seen` error lines.
pub fn router_delta(
    before: &RouterMetrics,
    after: &RouterMetrics,
    results_seen: u64,
    errors_seen: u64,
    out: &mut Layers,
) {
    let completed = after.jobs_completed - before.jobs_completed;
    let errored = after.jobs_errored - before.jobs_errored;
    let shed = after.jobs_overloaded - before.jobs_overloaded;
    set(out, "router.shed", shed as f64);
    set(out, "router.errors", errored as f64);
    set(
        out,
        "router.retries",
        (after.retries - before.retries) as f64,
    );
    set(
        out,
        "router.duplicates_dropped",
        (after.duplicates_dropped - before.duplicates_dropped) as f64,
    );
    set(
        out,
        "router.counter_mismatch",
        (completed.abs_diff(results_seen) + (errored + shed).abs_diff(errors_seen)) as f64,
    );
}

/// Per-call cost of the wire codec over the workload's own traffic.
pub fn protocol(lines: &[String], jobs: &[SearchJob], results: &[SearchResult], out: &mut Layers) {
    set(
        out,
        "serve.protocol.parse_us",
        per_call_us(lines, |line| {
            black_box(parse_request(black_box(line)).expect("workload lines parse"));
        }),
    );
    let responses: Vec<Response> = results
        .iter()
        .map(|result| Response::Result(Box::new(*result)))
        .collect();
    set(
        out,
        "serve.protocol.encode_us",
        per_call_us(&responses, |response| {
            black_box(black_box(response).to_line());
        }),
    );
    set(
        out,
        "serve.protocol.job_line_us",
        per_call_us(jobs, |job| {
            black_box(job_line(black_box(job), Some(job.id)));
        }),
    );
}

/// `Histogram::record` cost in ns, over the workload's latency samples.
pub fn hist_record(samples_us: &[f64], out: &mut Layers) {
    let values: Vec<f64> = if samples_us.is_empty() {
        (0..4096).map(|i| (i * 37 % 5000) as f64).collect()
    } else {
        samples_us.to_vec()
    };
    let histogram = Histogram::new();
    let us = per_call_us(&values, |value| histogram.record(black_box(*value)));
    black_box(histogram.snapshot());
    set(out, "obs.hist_record_ns", us * 1e3);
}

/// Warm-cache planner cost per job, and result-cache lookup cost over the
/// workload's request sequence against a cache of the workload's capacity.
pub fn planner_and_cache(
    jobs: &[SearchJob],
    results: &HashMap<u64, SearchResult>,
    sequence: &[SearchJob],
    capacity: usize,
    out: &mut Layers,
) {
    let planner = Planner::new();
    for job in jobs {
        let _ = planner.plan(job);
    }
    set(
        out,
        "engine.planner.plan_mean_us",
        per_call_us(jobs, |job| {
            black_box(planner.plan(black_box(job)).expect("workload jobs plan"));
        }),
    );
    let cache = ResultCache::with_capacity(capacity);
    let backend_of: HashMap<u64, Backend> = results
        .iter()
        .map(|(id, result)| (*id, result.backend))
        .collect();
    let lookups: Vec<(SearchJob, Backend)> = sequence
        .iter()
        .filter_map(|job| backend_of.get(&job.id).map(|backend| (*job, *backend)))
        .collect();
    set(
        out,
        "engine.cache.lookup_mean_us",
        per_call_us(&lookups, |(job, backend)| {
            if black_box(cache.lookup(job, *backend)).is_none() {
                cache.insert(job, *backend, results[&job.id]);
            }
        }),
    );
}

/// Capacity of `Engine::run_batch` on `jobs` at one thread and at `nproc`
/// threads (result cache off): `cap_n / (nproc × cap_1)`.
pub fn scaling(jobs: &[SearchJob], nproc: usize, out: &mut Layers) {
    let capacity = |threads: usize| {
        let engine = Engine::new(EngineConfig {
            threads: Some(threads),
            result_cache: false,
            ..EngineConfig::default()
        });
        engine.run_batch(jobs);
        let start = Instant::now();
        let mut done = 0usize;
        while done == 0 || start.elapsed() < MICRO_TIME * 4 {
            done += engine.run_batch(jobs).results.len();
        }
        done as f64 / start.elapsed().as_secs_f64()
    };
    let one = capacity(1);
    let all = capacity(nproc);
    set(out, "parallel.scaling_eff", ratio(all, nproc as f64 * one));
}

/// Dense-kernel bandwidth (computed bytes) against a copy roofline whose
/// arrays are each at least four times the last-level cache. Returns the
/// sizes used, for the run metadata.
pub fn kernels(llc_bytes: u64, out: &mut Layers) -> BTreeMap<String, String> {
    use psq_sim::oracle::Database;
    use psq_sim::StateVector;
    let n = 1usize << 20;
    let iterations = 64u64;
    let db = Database::new(n as u64, n as u64 / 3);
    let mut sv_times = Vec::new();
    for _ in 0..3 {
        let mut state = StateVector::uniform(n);
        let start = Instant::now();
        state.grover_iterations(&db, iterations);
        sv_times.push(start.elapsed().as_secs_f64());
        black_box(state.amplitude(0));
    }
    // One real plane of f64, read and written once per fused pass.
    let sv_bytes = (iterations + 1) as f64 * n as f64 * 16.0;
    let sv_gbps = sv_bytes / median(&sv_times) / 1e9;
    set(out, "sim.statevector.gbps", sv_gbps);

    let mut plane = vec![1.0f64; n];
    let mut fwht_times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        psq_math::soa::fwht_normalized(black_box(&mut plane));
        fwht_times.push(start.elapsed().as_secs_f64());
    }
    let fwht_bytes = n as f64 * 16.0 * (n.trailing_zeros() as f64);
    set(out, "sim.fwht.gbps", fwht_bytes / median(&fwht_times) / 1e9);

    let llc = if llc_bytes > 0 { llc_bytes } else { 128 << 20 };
    let len = (4 * llc / 8) as usize;
    let src = vec![1.5f64; len];
    let mut dst = vec![0.0f64; len];
    let mut copy_times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        copy_times.push(start.elapsed().as_secs_f64());
        black_box(&dst);
    }
    let copy_gbps = 2.0 * (len * 8) as f64 / median(&copy_times) / 1e9;
    set(out, "sim.roofline.copy_gbps", copy_gbps);
    set(
        out,
        "sim.statevector.roofline_frac",
        ratio(sv_gbps, copy_gbps),
    );

    let mut sizes = BTreeMap::new();
    sizes.insert(
        "kernel_bytes".to_string(),
        "computed from plane sizes and passes".to_string(),
    );
    sizes.insert("statevector_plane_bytes".to_string(), (n * 8).to_string());
    sizes.insert("fwht_plane_bytes".to_string(), (n * 8).to_string());
    sizes.insert("copy_array_bytes".to_string(), (len * 8).to_string());
    sizes
}

/// An in-memory trace sink for the program's `psq_obs` trace stream.
#[derive(Clone, Default)]
pub struct TraceSink(Arc<Mutex<Vec<u8>>>);

impl Write for TraceSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One stage event from the program's trace stream.
pub struct StageEvent {
    pub trace: Option<u64>,
    pub stage: String,
    pub us: f64,
}

impl TraceSink {
    /// Installs a fresh sink and enables the program's tracing.
    pub fn install() -> Self {
        let sink = TraceSink::default();
        psq_obs::trace::install_writer(Box::new(sink.clone()));
        sink
    }

    /// Disables tracing and parses what was collected.
    pub fn finish(self) -> Vec<StageEvent> {
        psq_obs::trace::disable();
        let bytes = std::mem::take(&mut *self.0.lock().expect("trace buffer lock"));
        String::from_utf8_lossy(&bytes)
            .lines()
            .filter_map(|line| {
                let value = serde_json::parse_value(line).ok()?;
                let object = value.as_object()?;
                Some(StageEvent {
                    trace: object.get("trace").and_then(|v| v.as_u64()),
                    stage: object.get("stage")?.as_str()?.to_string(),
                    us: object.get("us")?.as_f64()?,
                })
            })
            .collect()
    }
}

/// Sums of stage time (µs) for the events of the given traces (all events
/// when `traces` is `None`). The engine labels every noisy execution
/// `execute:noisy`; `backend_of` maps such an event's trace to the backend
/// its request ran on, so the time lands under `execute:<backend>`.
pub fn stage_sums(
    events: &[StageEvent],
    traces: Option<&HashSet<u64>>,
    backend_of: &dyn Fn(u64) -> Option<Backend>,
) -> HashMap<String, f64> {
    let mut sums = HashMap::new();
    for event in events {
        let keep = match traces {
            None => true,
            Some(set) => event.trace.is_some_and(|trace| set.contains(&trace)),
        };
        if !keep {
            continue;
        }
        let stage = match (event.stage.as_str(), event.trace.and_then(backend_of)) {
            ("execute:noisy", Some(backend)) => backend.stage_label().to_string(),
            _ => event.stage.clone(),
        };
        *sums.entry(stage).or_insert(0.0) += event.us;
    }
    sums
}

/// Self-time shares of end-to-end time per layer. `e2e_us` is the summed
/// client-observed time of the traced requests; each layer's self time is
/// its span minus its children: client ⊃ route ⊃ coalesce + plan + cache +
/// execute.
pub fn shares(sums: &HashMap<String, f64>, e2e_us: f64, out: &mut Layers) {
    let get = |stage: &str| sums.get(stage).copied().unwrap_or(0.0);
    let exec = |backends: &[Backend]| backends.iter().map(|b| get(b.stage_label())).sum::<f64>();
    let dense = exec(&[Backend::StateVector, Backend::Circuit, Backend::Recursive]);
    let sparse = exec(&[Backend::Sparse]);
    let other = exec(&[
        Backend::Reduced,
        Backend::ClassicalDeterministic,
        Backend::ClassicalRandomized,
    ]);
    let below_route = get("coalesce") + get("plan") + get("cache") + dense + sparse + other;
    let route = get("route");
    let (router_self, client_child) = if route > 0.0 {
        ((route - below_route).max(0.0), route)
    } else {
        (0.0, below_route)
    };
    let share = |x: f64| ratio(x, e2e_us);
    set(
        out,
        "trace.self_share.client",
        share((e2e_us - client_child).max(0.0)),
    );
    set(out, "trace.self_share.router", share(router_self));
    set(out, "trace.self_share.coalesce", share(get("coalesce")));
    set(out, "trace.self_share.plan", share(get("plan")));
    set(out, "trace.self_share.cache", share(get("cache")));
    set(out, "trace.self_share.execute_dense", share(dense));
    set(out, "trace.self_share.execute_sparse", share(sparse));
    set(out, "trace.self_share.execute_other", share(other));
}
