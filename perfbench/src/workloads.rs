//! The three workloads. Each builds its inputs from the seed, computes every
//! reference result with direct `Engine::run_job` calls before the timed
//! phases, starts the system under test several times to time set-up, and
//! then measures: an open-loop phase (latency) and a closed-loop phase
//! (capacity) on the serving tiers, a closed batch loop on the engine.

use crate::layers::{self, Layers, TraceSink};
use crate::load::{median, percentile, poisson_arrivals, run_phase, Phase, Request, Schedule};
use crate::tiers::{start_and_probe, Attached, Tier};
use psq_engine::{Backend, BackendHint, Engine, EngineConfig, SearchJob, SearchResult, SweepSpec};
use psq_serve::protocol::job_line;
use psq_serve::ServeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

/// How a serving workload loads its tier.
struct Shape {
    /// Open-loop offered rate, requests/s.
    rate: f64,
    /// Open-loop bound on outstanding results, below the tier's shedding
    /// bound (see [`Schedule::Open`]).
    open_cap: u64,
    /// Closed-loop bound on outstanding results.
    window: u64,
    /// Requests generated per second of closed loop (an upper bound on
    /// capacity: a phase that runs out ends early).
    max_rate: f64,
    /// Measured phases are cut into windows of this length; capacity and
    /// latency are medians over the windows, so a host stall of a few
    /// hundred milliseconds moves one window, not the run's number.
    slice: Duration,
}

/// `route_light`: an offered rate of about a fifth of the closed-loop
/// capacity (15–30k/s on a shared 2-vCPU host, so the rate stays well below
/// it when the host is busy); outstanding results stay below the router's
/// `worker_inflight` (256), where it sheds, and the worker's per-client
/// bound (1024); windows hold ~4000 open-loop samples.
const ROUTE_LIGHT: Shape = Shape {
    rate: 4000.0,
    open_cap: 200,
    window: 128,
    max_rate: 30_000.0,
    slice: Duration::from_secs(1),
};
/// `serve_mixed`: its cost per request is heavy-tailed (a few huge noisy
/// sparse jobs hold up whichever coalesced batch they land in), so the rate
/// is about a fifth of capacity, where most batches hold none of them, and
/// the windows are longer (~3000 open-loop samples each).
const SERVE_MIXED: Shape = Shape {
    rate: 1000.0,
    open_cap: 768,
    window: 256,
    max_rate: 12_000.0,
    slice: Duration::from_secs(3),
};
/// `serve_mixed` draws uniformly from this many distinct specs, four times
/// the engine's configured result-cache capacity, so the cache hits (about a
/// quarter of lookups) and evicts. The pool is the program's own mixed batch
/// for a fixed seed: its few huge noisy sparse jobs dominate the cost, so a
/// pool drawn per run seed would make each seed a different workload; the
/// run seed draws the request stream from it.
const MIXED_POOL: usize = 4096;
const MIXED_POOL_SEED: u64 = 42;
const MIXED_CACHE_CAPACITY: usize = 1024;
/// Sweep grid of `serve_mixed` sweep lines (six points each).
const SWEEP_P: [f64; 3] = [0.0, 0.01, 0.02];
const SWEEP_K: [u64; 2] = [2, 4];
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Closed-loop warm-up before the measured phases.
const WARM_UP: Duration = Duration::from_millis(300);

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

impl Run {
    fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub phases: Vec<Phase>,
    pub end_to_end: BTreeMap<String, f64>,
    pub layers: Layers,
    pub meta: BTreeMap<String, String>,
    /// The benchmark's own spans, as NDJSON lines, written out at the end.
    pub spans: Vec<String>,
}

impl Outcome {
    fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.insert(name.to_string(), value);
    }

    fn meta(&mut self, name: &str, value: impl ToString) {
        self.meta.insert(name.to_string(), value.to_string());
    }
}

/// References from direct `Engine::run_job`, on `nproc` caller threads.
fn references(jobs: &[SearchJob], nproc: usize) -> Vec<SearchResult> {
    let engine = Engine::new(EngineConfig {
        threads: Some(1),
        result_cache: false,
        ..EngineConfig::default()
    });
    let chunk = jobs.len().div_ceil(nproc.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                let engine = &engine;
                scope.spawn(move || {
                    part.iter()
                        .map(|job| engine.run_job(job).expect("workload jobs are valid"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// The paper's saving over ideal quantum block jobs: Σ(queries/trials) /
/// Σ(π/4)√N, and the mean queries per trial.
fn query_frac(jobs: &[SearchJob], expected: &HashMap<u64, SearchResult>) -> (f64, f64) {
    let (mut queries, mut full, mut count) = (0.0, 0.0, 0usize);
    for job in jobs {
        let Some(result) = expected.get(&job.id) else {
            continue;
        };
        let quantum_block = matches!(
            result.backend,
            Backend::Reduced | Backend::StateVector | Backend::Circuit | Backend::Sparse
        );
        if quantum_block && job.effective_noise().is_none() {
            let per_trial = result.queries as f64 / result.trials as f64;
            queries += per_trial;
            full += std::f64::consts::FRAC_PI_4 * (job.n as f64).sqrt();
            count += 1;
        }
    }
    (queries / full, queries / count.max(1) as f64)
}

/// The p99 over the phase's own samples (exact nearest-rank; the sample
/// count is in the metadata). Reported with the per-layer metrics and in the
/// metadata of every run, not gated: on a shared 2-vCPU host its run-to-run
/// spread (0.25–0.45 of the median on `route_light`) is host wake-up jitter
/// and exceeds any bound the benchmark could hold it to.
fn tail_latency(phase: &Phase, out: &mut Outcome) {
    let p99_ms = percentile(&phase.latencies_us, 0.99) / 1e3;
    out.meta("latency_p99_ms", p99_ms);
    out.layers.insert("latency_p99_ms".into(), p99_ms);
}

/// A serving workload's request generator: fresh ids per request, every
/// reference computed as the requests are made (before any timed phase).
trait Traffic {
    fn requests(&mut self, count: usize, traced: bool) -> Vec<Request>;
    /// Set-up probes: requests of one cheap, fixed shape, so set-up time
    /// does not depend on which job the stream happens to start with.
    fn probes(&mut self, count: usize) -> Vec<Request>;
    fn expected(&self) -> &HashMap<u64, SearchResult>;
    fn job(&self, id: u64) -> SearchJob;
    /// Distinct job specs (for per-call timings and the scaling batch).
    fn distinct_jobs(&self) -> Vec<SearchJob>;
    fn cache_capacity(&self) -> usize;
}

/// `route_light`: ideal `Reduced`/`Auto` block jobs, all distinct.
struct LightTraffic {
    rng: StdRng,
    next_id: u64,
    nproc: usize,
    expected: HashMap<u64, SearchResult>,
    jobs: HashMap<u64, SearchJob>,
}

impl Traffic for LightTraffic {
    fn requests(&mut self, count: usize, traced: bool) -> Vec<Request> {
        let jobs: Vec<SearchJob> = (0..count)
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                let n = 1u64 << self.rng.gen_range(20u32..=40);
                let k = 1u64 << self.rng.gen_range(1u32..=6);
                let hint = if self.rng.gen_bool(0.5) {
                    BackendHint::Reduced
                } else {
                    BackendHint::Auto
                };
                SearchJob::new(id, n, k, self.rng.gen_range(0..n))
                    .with_backend(hint)
                    .with_seed(self.rng.gen())
            })
            .collect();
        for (job, result) in jobs.iter().zip(references(&jobs, self.nproc)) {
            self.expected.insert(job.id, result);
            self.jobs.insert(job.id, *job);
        }
        jobs.iter()
            .map(|job| Request {
                line: job_line(job, traced.then_some(job.id)),
                ids: vec![job.id],
            })
            .collect()
    }

    fn probes(&mut self, count: usize) -> Vec<Request> {
        self.requests(count, false)
    }

    fn expected(&self) -> &HashMap<u64, SearchResult> {
        &self.expected
    }

    fn job(&self, id: u64) -> SearchJob {
        self.jobs[&id]
    }

    fn distinct_jobs(&self) -> Vec<SearchJob> {
        let mut jobs: Vec<SearchJob> = self.jobs.values().copied().collect();
        jobs.sort_by_key(|job| job.id);
        jobs.truncate(20_000);
        jobs
    }

    fn cache_capacity(&self) -> usize {
        EngineConfig::default().result_cache_capacity
    }
}

/// `serve_mixed`: the program's own mixed batch as a pool of specs, drawn
/// with repeats; one line in ten is a sweep over a state-vector spec.
struct MixedTraffic {
    rng: StdRng,
    next_id: u64,
    nproc: usize,
    pool: Vec<SearchJob>,
    /// State-vector specs of the pool, the sweep bases.
    sweep_bases: Vec<usize>,
    /// Reference per pool spec, computed on first draw (ids are pool
    /// indices).
    pool_refs: HashMap<usize, SearchResult>,
    /// Grid points and their references per sweep base (ids are grid
    /// offsets).
    sweep_refs: HashMap<usize, Vec<(SearchJob, SearchResult)>>,
    expected: HashMap<u64, SearchResult>,
    jobs: HashMap<u64, SearchJob>,
}

impl MixedTraffic {
    fn new(seed: u64, nproc: usize) -> Self {
        let pool = psq_engine::generate_mixed_batch(MIXED_POOL, MIXED_POOL_SEED);
        let sweep_bases = (0..pool.len())
            .filter(|&i| pool[i].backend == BackendHint::StateVector)
            .collect();
        Self {
            rng: StdRng::seed_from_u64(seed),
            next_id: 1,
            nproc,
            pool,
            sweep_bases,
            pool_refs: HashMap::new(),
            sweep_refs: HashMap::new(),
            expected: HashMap::new(),
            jobs: HashMap::new(),
        }
    }

    fn sweep() -> SweepSpec {
        SweepSpec {
            p: SWEEP_P.to_vec(),
            k: SWEEP_K.to_vec(),
            ..SweepSpec::default()
        }
    }

    /// Computes, in one reference batch, the references of every picked
    /// spec and sweep not seen before.
    fn ensure_refs(&mut self, picks: &[(usize, bool)]) {
        let plain: BTreeSet<usize> = picks
            .iter()
            .filter(|&&(index, sweep)| !sweep && !self.pool_refs.contains_key(&index))
            .map(|&(index, _)| index)
            .collect();
        let sweeps: BTreeSet<usize> = picks
            .iter()
            .filter(|&&(index, sweep)| sweep && !self.sweep_refs.contains_key(&index))
            .map(|&(index, _)| index)
            .collect();
        let mut jobs: Vec<SearchJob> = plain
            .iter()
            .map(|&index| SearchJob {
                id: index as u64,
                ..self.pool[index]
            })
            .collect();
        for &index in &sweeps {
            let base = SearchJob {
                id: 0,
                ..self.pool[index]
            };
            jobs.extend(
                Self::sweep()
                    .expand(&base)
                    .expect("the sweep grid is valid"),
            );
        }
        let mut results = references(&jobs, self.nproc).into_iter();
        let mut jobs = jobs.into_iter();
        for index in plain {
            jobs.next();
            let result = results.next().expect("one reference per job");
            self.pool_refs.insert(index, result);
        }
        let points = Self::sweep().point_count();
        for index in sweeps {
            let grid = jobs.by_ref().take(points).zip(results.by_ref()).collect();
            self.sweep_refs.insert(index, grid);
        }
    }
}

impl Traffic for MixedTraffic {
    fn requests(&mut self, count: usize, traced: bool) -> Vec<Request> {
        // (pool index, is sweep) per request.
        let picks: Vec<(usize, bool)> = (0..count)
            .map(|_| {
                if self.rng.gen_range(0u32..10) == 0 {
                    let base = self.rng.gen_range(0..self.sweep_bases.len());
                    (self.sweep_bases[base], true)
                } else {
                    (self.rng.gen_range(0..self.pool.len()), false)
                }
            })
            .collect();
        self.build(picks, traced)
    }

    fn probes(&mut self, count: usize) -> Vec<Request> {
        // Pool spec 0 is a reduced-backend job (the mixed batch's cheapest
        // arm).
        self.build(vec![(0, false); count], false)
    }

    fn expected(&self) -> &HashMap<u64, SearchResult> {
        &self.expected
    }

    fn job(&self, id: u64) -> SearchJob {
        self.jobs[&id]
    }

    fn distinct_jobs(&self) -> Vec<SearchJob> {
        self.pool.clone()
    }

    fn cache_capacity(&self) -> usize {
        MIXED_CACHE_CAPACITY
    }
}

impl MixedTraffic {
    /// One request per `(pool index, is sweep)` pick, with fresh ids.
    fn build(&mut self, picks: Vec<(usize, bool)>, traced: bool) -> Vec<Request> {
        self.ensure_refs(&picks);
        let mut requests = Vec::with_capacity(picks.len());
        for (index, sweep) in picks {
            let id = self.next_id;
            let base = SearchJob {
                id,
                ..self.pool[index]
            };
            let mut value = base.serialize();
            let object = value.as_object_mut().expect("jobs serialise to objects");
            if traced {
                object.insert("trace".into(), Value::Number(serde::Number::PosInt(id)));
            }
            let answers: Vec<(SearchJob, SearchResult)> = if sweep {
                object.insert("sweep".into(), Self::sweep().serialize());
                self.sweep_refs[&index].clone()
            } else {
                vec![(
                    SearchJob { id: 0, ..base },
                    SearchResult {
                        job_id: 0,
                        ..self.pool_refs[&index]
                    },
                )]
            };
            let mut ids = Vec::with_capacity(answers.len());
            for (job, reference) in answers {
                let job_id = id + job.id;
                self.expected.insert(
                    job_id,
                    SearchResult {
                        job_id,
                        ..reference
                    },
                );
                self.jobs.insert(job_id, SearchJob { id: job_id, ..job });
                ids.push(job_id);
            }
            self.next_id += ids.len() as u64;
            requests.push(Request {
                line: serde_json::to_string(&value).expect("request lines serialise"),
                ids,
            });
        }
        requests
    }
}

fn sent_jobs(traffic: &dyn Traffic, requests: &[Request]) -> Vec<SearchJob> {
    requests
        .iter()
        .flat_map(|r| r.ids.iter().map(|&id| traffic.job(id)))
        .collect()
}

/// A started tier plus its attached client. Fields drop in declaration
/// order: the client detaches before the tier stops (and, for a router,
/// reaps its workers).
struct Live {
    attached: Attached,
    tier: Tier,
}

impl Live {
    fn start(
        start: &dyn Fn() -> Tier,
        probe: &Request,
        expected: &HashMap<u64, SearchResult>,
    ) -> (Self, f64) {
        let (tier, attached, seconds) = start_and_probe(start, probe, expected);
        (Self { attached, tier }, seconds)
    }

    fn phase(
        &self,
        name: &str,
        requests: &[Request],
        schedule: &Schedule,
        traffic: &dyn Traffic,
    ) -> Phase {
        let attached = &self.attached;
        run_phase(
            name,
            &*attached.submit,
            &attached.replies,
            requests,
            schedule,
            traffic.expected(),
        )
    }
}

/// Closed-loop request budget for `duration` at up to `max_rate` results/s.
fn closed_budget(max_rate: f64, duration: Duration) -> usize {
    (max_rate * duration.as_secs_f64()) as usize + 1000
}

/// A serving tier's counters: the router's (behind a router) and the
/// serving layer's (the worker's scraped snapshot, behind a router).
struct Counters {
    router: Option<psq_router::RouterMetrics>,
    serve: Option<psq_serve::ServeMetrics>,
}

fn counters(tier: &Tier) -> Counters {
    match tier {
        Tier::Server(server) => Counters {
            router: None,
            serve: Some(server.metrics()),
        },
        Tier::Router(router) => {
            // Worker snapshots arrive by scrape every 500 ms.
            std::thread::sleep(Duration::from_millis(1100));
            Counters {
                router: Some(router.metrics()),
                serve: router.worker_metrics().into_iter().next().flatten(),
            }
        }
    }
}

fn counter_layers(before: &Counters, after: &Counters, phases: &[&Phase], out: &mut Layers) {
    if let (Some(b), Some(a)) = (&before.router, &after.router) {
        let results_seen: u64 = phases.iter().map(|p| p.ok + p.wrong).sum();
        let errors_seen: u64 = phases.iter().map(|p| p.error_replies()).sum();
        layers::router_delta(b, a, results_seen, errors_seen, out);
    }
    if let (Some(b), Some(a)) = (&before.serve, &after.serve) {
        layers::serve_delta(b, a, out);
    }
}

/// The shared measurement sequence of `route_light` and `serve_mixed`.
fn serving(
    run: &Run,
    traffic: &mut dyn Traffic,
    start: &dyn Fn() -> Tier,
    shape: &Shape,
    out: &mut Outcome,
) {
    let Shape {
        rate,
        open_cap,
        window,
        max_rate,
        slice,
    } = *shape;
    // Untraced runs give 60% of their time to the open phase (latency needs
    // the samples) and 40% to the closed phase; traced runs give a quarter
    // to each and the rest to the traced tier (and, behind a router, the
    // in-process comparison).
    let (open_time, closed_time) = if run.trace {
        (run.share(0.25), run.share(0.25))
    } else {
        (run.share(0.6), run.share(0.4))
    };
    let probes = traffic.probes(SETUPS);
    let warm = traffic.requests(closed_budget(max_rate, WARM_UP), false);
    let arrivals = poisson_arrivals(rate, open_time, run.seed ^ 0xa11);
    let open = traffic.requests(arrivals.len(), false);
    let closed = traffic.requests(closed_budget(max_rate, closed_time), false);

    let mut setups = Vec::new();
    let mut live = None;
    for probe in &probes {
        drop(live.take());
        let (started, seconds) = Live::start(start, probe, traffic.expected());
        setups.push(seconds);
        live = Some(started);
    }
    let live = live.expect("at least one set-up");
    let warm_up = Schedule::Closed {
        window,
        duration: WARM_UP,
    };
    out.phases
        .push(live.phase("warm_up", &warm, &warm_up, traffic));
    let before = run.trace.then(|| counters(&live.tier));
    let open_schedule = Schedule::Open {
        due_ns: arrivals,
        cap: open_cap,
    };
    let open_phase = live.phase("open", &open, &open_schedule, traffic);
    let closed_schedule = Schedule::Closed {
        window,
        duration: closed_time,
    };
    // Memory is read before the closed phase, whose reply volume (kept
    // until checked) grows with the capacity being measured.
    let rss = crate::sys::peak_rss_mb("self") + live.tier.workers_peak_rss_mb();
    let closed_phase = live.phase("closed", &closed, &closed_schedule, traffic);
    if let Some(before) = before {
        let after = counters(&live.tier);
        counter_layers(
            &before,
            &after,
            &[&open_phase, &closed_phase],
            &mut out.layers,
        );
    }
    let behind_router = matches!(live.tier, Tier::Router(_));
    drop(live);

    let (frac, per_job) = query_frac(&sent_jobs(traffic, &open), traffic.expected());
    let capacity = closed_phase.sliced_capacity(closed_time, slice);
    out.e2e("setup_s", median(&setups));
    out.e2e("capacity_rps", capacity);
    out.e2e(
        "latency_p50_ms",
        open_phase.sliced_p50(open_time, slice) / 1e3,
    );
    tail_latency(&open_phase, out);
    out.e2e("query_frac", frac);
    out.e2e("peak_rss_mb", rss);
    out.meta("offered_rps", rate);
    out.meta("closed_window", window);
    out.meta("latency_samples", open_phase.latencies_us.len());
    if !run.trace {
        out.phases.push(open_phase);
        out.phases.push(closed_phase);
        return;
    }

    let l = &mut out.layers;
    l.insert("goodput_rps".into(), open_phase.goodput());
    l.insert(
        "loadgen.send_lag_p99_us".into(),
        percentile(&open_phase.send_lag_us, 0.99),
    );
    l.insert("partial.queries_per_job_mean".into(), per_job);
    let open_lines: Vec<String> = open.iter().map(|r| r.line.clone()).collect();
    let sent = sent_jobs(traffic, &open);
    let results: Vec<SearchResult> = sent.iter().map(|j| traffic.expected()[&j.id]).collect();
    layers::protocol(&open_lines, &sent, &results, &mut out.layers);
    layers::hist_record(&open_phase.latencies_us, &mut out.layers);
    layers::planner_and_cache(
        &traffic.distinct_jobs(),
        traffic.expected(),
        &sent_jobs(traffic, &closed),
        traffic.cache_capacity(),
        &mut out.layers,
    );
    layers::scaling(&traffic.distinct_jobs(), run.nproc, &mut out.layers);

    // The router↔worker hop: the same lines at the same rate through an
    // in-process server.
    if behind_router {
        let probe = traffic.probes(1);
        let (direct, _) = Live::start(
            &|| Tier::server(ServeConfig::default()),
            &probe[0],
            traffic.expected(),
        );
        let phase = direct.phase("open_in_process", &open, &open_schedule, traffic);
        let hop = percentile(&open_phase.latencies_us, 0.5) - percentile(&phase.latencies_us, 0.5);
        out.layers.insert("router.hop_p50_us".into(), hop);
        out.phases.push(phase);
    }
    out.phases.push(open_phase);
    out.phases.push(closed_phase);

    // The traced tier: a fresh one, started with the program's trace sink on
    // (so a router also collects its workers' traces).
    let traced_time = run.share(0.125);
    let probe = traffic.probes(1);
    let traced_arrivals = poisson_arrivals(rate, traced_time, run.seed ^ 0x7ace);
    let traced_open = traffic.requests(traced_arrivals.len(), true);
    let traced_closed = traffic.requests(closed_budget(max_rate, traced_time), true);
    let sink = TraceSink::install();
    let (traced, _) = Live::start(start, &probe[0], traffic.expected());
    let t_open = traced.phase(
        "traced_open",
        &traced_open,
        &Schedule::Open {
            due_ns: traced_arrivals,
            cap: open_cap,
        },
        traffic,
    );
    let t_closed = traced.phase(
        "traced_closed",
        &traced_closed,
        &Schedule::Closed {
            window,
            duration: traced_time,
        },
        traffic,
    );
    drop(traced);
    let events = sink.finish();
    let trace_ids: HashSet<u64> = traced_open[..t_open.requests_sent]
        .iter()
        .map(|r| r.ids[0])
        .collect();
    let backend_of = |trace: u64| traffic.expected().get(&trace).map(|r| r.backend);
    let sums = layers::stage_sums(&events, Some(&trace_ids), &backend_of);
    layers::shares(&sums, t_open.latencies_us.iter().sum(), &mut out.layers);
    out.layers.insert(
        "trace.overhead_frac".into(),
        capacity / t_closed.sliced_capacity(traced_time, slice) - 1.0,
    );
    out.spans = client_spans(&t_open, &traced_open, &events, &trace_ids);
    out.phases.push(t_open);
    out.phases.push(t_closed);
}

/// The benchmark's own spans for a traced open phase: per request a
/// `client.request` span (intended send → last reply) with its
/// `client.submit` child, plus the program's stage events of that trace.
fn client_spans(
    phase: &Phase,
    requests: &[Request],
    events: &[layers::StageEvent],
    traces: &HashSet<u64>,
) -> Vec<String> {
    let mut lines = Vec::new();
    for (request, sent) in requests.iter().zip(&phase.timeline) {
        let trace = request.ids[0];
        lines.push(format!(
            "{{\"trace\":{trace},\"span\":\"client.request\",\"start_ns\":{},\"end_ns\":{}}}",
            sent.intended, sent.done
        ));
        lines.push(format!(
            "{{\"trace\":{trace},\"span\":\"client.submit\",\"parent\":\"client.request\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            sent.submit_start, sent.submit_end
        ));
    }
    for event in events {
        if let Some(trace) = event.trace.filter(|t| traces.contains(t)) {
            lines.push(format!(
                "{{\"trace\":{trace},\"span\":\"{}\",\"us\":{}}}",
                event.stage, event.us
            ));
        }
    }
    lines
}

pub fn route_light(run: &Run, out: &mut Outcome) {
    let mut traffic = LightTraffic {
        rng: StdRng::seed_from_u64(run.seed),
        next_id: 1,
        nproc: run.nproc,
        expected: HashMap::new(),
        jobs: HashMap::new(),
    };
    serving(run, &mut traffic, &|| Tier::router(1), &ROUTE_LIGHT, out);
}

pub fn serve_mixed(run: &Run, out: &mut Outcome) {
    let mut traffic = MixedTraffic::new(run.seed, run.nproc);
    let config = ServeConfig {
        engine: EngineConfig {
            result_cache_capacity: MIXED_CACHE_CAPACITY,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    };
    out.meta("pool_specs", MIXED_POOL);
    out.meta("result_cache_capacity", MIXED_CACHE_CAPACITY);
    serving(
        run,
        &mut traffic,
        &move || Tier::server(config),
        &SERVE_MIXED,
        out,
    );
}

/// The fixed `kernel_exact` batch: dense exact jobs, shapes fixed (so the
/// work per batch does not depend on the seed), targets and job seeds from
/// the seed, and block counts from the seed on the cheap circuit and
/// recursive jobs.
fn kernel_batch(seed: u64) -> Vec<SearchJob> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    let mut push = |rng: &mut StdRng, n: u64, k: u64, hint: BackendHint| {
        let id = jobs.len() as u64;
        jobs.push(
            SearchJob::new(id, n, k, rng.gen_range(0..n))
                .with_backend(hint)
                .with_seed(rng.gen()),
        );
    };
    // Largest first, so the pool's two ends of the batch finish together.
    for (exp, k) in [
        (20, 4),
        (19, 4),
        (18, 2),
        (18, 8),
        (17, 8),
        (17, 4),
        (16, 4),
        (16, 16),
    ] {
        push(&mut rng, 1 << exp, k, BackendHint::StateVector);
    }
    for exp in (10..=14).rev().flat_map(|exp| [exp, exp]) {
        let k = 1 << rng.gen_range(1u32..=3);
        push(&mut rng, 1 << exp, k, BackendHint::Circuit);
    }
    for exp in 16..=24 {
        let k = 1 << rng.gen_range(1u32..=2);
        push(&mut rng, 1 << exp, k, BackendHint::Recursive);
    }
    jobs
}

/// Runs `batch` in a closed loop for `duration`, checking every result.
fn batch_loop(
    name: &str,
    engine: &Engine,
    batch: &[SearchJob],
    expected: &HashMap<u64, SearchResult>,
    duration: Duration,
) -> Phase {
    let t0 = Instant::now();
    let mut phase = Phase {
        name: name.to_string(),
        ..Phase::default()
    };
    while phase.requests_sent == 0 || t0.elapsed() < duration {
        let start = t0.elapsed().as_nanos() as u64;
        let report = engine.run_batch(batch);
        let end = t0.elapsed().as_nanos() as u64;
        phase.latencies_us.push((end - start) as f64 / 1e3);
        phase.requests_sent += 1;
        phase.attempted += batch.len() as u64;
        let mut seen: HashSet<u64> = report.rejected.iter().map(|r| r.job_id).collect();
        for result in &report.results {
            let fresh = seen.insert(result.job_id);
            match expected.get(&result.job_id) {
                Some(want) if fresh && crate::load::same_result(result, want) => phase.ok += 1,
                _ => phase.wrong += 1,
            }
        }
        if !report.rejected.is_empty() {
            *phase.errors.entry("rejected".into()).or_default() += report.rejected.len() as u64;
        }
        phase.missing += batch.iter().filter(|job| !seen.contains(&job.id)).count() as u64;
    }
    phase.elapsed_s = t0.elapsed().as_secs_f64();
    phase
}

pub fn kernel_exact(run: &Run, out: &mut Outcome) {
    let batch = kernel_batch(run.seed);
    let expected: HashMap<u64, SearchResult> = batch
        .iter()
        .zip(references(&batch, run.nproc))
        .map(|(job, result)| (job.id, result))
        .collect();
    let config = EngineConfig {
        threads: Some(run.nproc),
        result_cache: false,
        ..EngineConfig::default()
    };
    // Set-up: construction up to the first answered batch.
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..3 {
        drop(engine.take());
        let t0 = Instant::now();
        let fresh = Engine::new(config);
        let first = batch_loop("set_up", &fresh, &batch, &expected, Duration::ZERO);
        setups.push(t0.elapsed().as_secs_f64());
        out.phases.push(first);
        engine = Some(fresh);
    }
    let engine = engine.expect("at least one set-up");
    let duration = if run.trace {
        run.share(1.0 / 3.0)
    } else {
        run.share(1.0)
    };
    let obs_before = engine.obs_snapshot();
    let plan_before = engine.planner().cache().stats();
    let phase = batch_loop("closed", &engine, &batch, &expected, duration);
    let (frac, per_job) = query_frac(&batch, &expected);
    out.e2e("setup_s", median(&setups));
    // One batch in flight: capacity is the batch size over the median batch
    // latency.
    let batch_p50 = percentile(&phase.latencies_us, 0.5);
    let capacity = batch.len() as f64 / (batch_p50 / 1e6);
    out.e2e("capacity_rps", capacity);
    out.e2e("latency_p50_ms", batch_p50 / 1e3);
    tail_latency(&phase, out);
    out.e2e("query_frac", frac);
    out.e2e("peak_rss_mb", crate::sys::peak_rss_mb("self"));
    out.meta("batch_jobs", batch.len());
    out.meta("closed_window", "1 batch");
    out.meta("engine_threads", run.nproc);
    out.meta("latency_samples", phase.latencies_us.len());
    if run.trace {
        layers::engine_delta(
            (&obs_before, &engine.obs_snapshot()),
            (plan_before, engine.planner().cache().stats()),
            (Default::default(), Default::default()),
            &mut out.layers,
        );
        let l = &mut out.layers;
        l.insert("goodput_rps".into(), phase.goodput());
        l.insert("partial.queries_per_job_mean".into(), per_job);
        out.phases.push(phase);

        let sink = TraceSink::install();
        let traced = batch_loop(
            "traced_closed",
            &engine,
            &batch,
            &expected,
            run.share(1.0 / 3.0),
        );
        let events = sink.finish();
        let e2e: f64 = traced.latencies_us.iter().sum::<f64>() * run.nproc as f64;
        layers::shares(
            &layers::stage_sums(&events, None, &|_| None),
            e2e,
            &mut out.layers,
        );
        out.layers.insert(
            "trace.overhead_frac".into(),
            capacity / (batch.len() as f64 / (percentile(&traced.latencies_us, 0.5) / 1e6)) - 1.0,
        );
        out.spans = traced
            .latencies_us
            .iter()
            .enumerate()
            .map(|(i, us)| format!("{{\"trace\":{i},\"span\":\"client.run_batch\",\"us\":{us}}}"))
            .collect();
        out.phases.push(traced);

        let lines: Vec<String> = batch.iter().map(|job| job_line(job, None)).collect();
        let results: Vec<SearchResult> = batch.iter().map(|job| expected[&job.id]).collect();
        layers::protocol(&lines, &batch, &results, &mut out.layers);
        layers::hist_record(&[batch_p50], &mut out.layers);
        layers::planner_and_cache(
            &batch,
            &expected,
            &batch,
            EngineConfig::default().result_cache_capacity,
            &mut out.layers,
        );
        layers::scaling(&batch, run.nproc, &mut out.layers);
    } else {
        out.phases.push(phase);
    }
}
