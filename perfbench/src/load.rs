//! The load generator: one sender thread and one reply drainer per attached
//! client, in an open loop (Poisson arrivals, latency from each request's
//! intended send time) or a closed loop (a fixed window of outstanding
//! results). Every reply is kept with its arrival time and checked against
//! the reference results after the phase, outside the timed region.

use crossbeam::channel::{Receiver, RecvTimeoutError};
use psq_engine::SearchResult;
use psq_serve::protocol::{parse_response, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long the drainer waits for outstanding replies once sending stopped.
const DRAIN_GRACE: Duration = Duration::from_secs(30);

/// One request line and the result ids it must be answered with (one for a
/// job, one per grid point for a sweep).
#[derive(Clone, Debug)]
pub struct Request {
    pub line: String,
    pub ids: Vec<u64>,
}

/// When requests are sent.
pub enum Schedule {
    /// Send request `i` at `due_ns[i]` after the phase start, but never
    /// with more than `cap` results outstanding. The cap sits below the
    /// tier's shedding bound, so a host stall delays the requests due
    /// during it (charged to their latency, which runs from the due time,
    /// and to the send lag) instead of turning them into `overload` errors.
    Open { due_ns: Vec<u64>, cap: u64 },
    /// Keep at most `window` results outstanding; stop sending after
    /// `duration`.
    Closed { window: u64, duration: Duration },
}

/// Poisson arrival offsets (ns) at `rate_per_s` over `duration`.
pub fn poisson_arrivals(rate_per_s: f64, duration: Duration, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let end = duration.as_nanos() as f64;
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate_per_s * 1e9;
        if t >= end {
            return due;
        }
        due.push(t as u64);
    }
}

/// What one phase saw, classified from the replies the client received.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: String,
    pub requests_sent: usize,
    /// Result ids the sent requests asked for.
    pub attempted: u64,
    /// Results that matched their reference bit for bit.
    pub ok: u64,
    /// Results that differed from the reference, answered an unknown id,
    /// answered an id twice, or replies that did not parse.
    pub wrong: u64,
    /// Result ids that never got a reply.
    pub missing: u64,
    /// Error replies by `kind`.
    pub errors: BTreeMap<String, u64>,
    /// Per request whose results all matched: intended send → last reply.
    pub latencies_us: Vec<f64>,
    /// Open loop only: actual send − intended send, per request.
    pub send_lag_us: Vec<f64>,
    /// Phase start → last reply.
    pub elapsed_s: f64,
    /// Per sent request, in send order.
    pub timeline: Vec<Sent>,
}

/// One sent request's timing, in ns from the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub intended: u64,
    pub submit_start: u64,
    pub submit_end: u64,
    /// Arrival of the last reply; 0 unless every result matched.
    pub done: u64,
    /// Results the request asked for.
    pub results: u64,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.wrong + self.missing + self.errors.values().sum::<u64>()
    }

    /// Verified results per second over the phase.
    pub fn goodput(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.ok as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Error replies of every kind.
    pub fn error_replies(&self) -> u64 {
        self.errors.values().sum()
    }

    /// The first `duration` of the phase cut into equal windows of about
    /// `window` each (at least three): `(width ns, count)`.
    fn windows(duration: Duration, window: Duration) -> (u64, usize) {
        let slices = ((duration.as_secs_f64() / window.as_secs_f64()).round() as usize).max(3);
        ((duration.as_nanos() as u64 / slices as u64).max(1), slices)
    }

    /// Closed loop: the median over windows of the verified results per
    /// second completed in each window. A median of windows keeps a
    /// transient stall of the host from deciding the run's number.
    pub fn sliced_capacity(&self, duration: Duration, window: Duration) -> f64 {
        let (width, slices) = Self::windows(duration, window);
        let mut done = vec![0u64; slices];
        for sent in self.timeline.iter().filter(|s| s.done > 0) {
            if let Some(count) = done.get_mut((sent.done / width) as usize) {
                *count += sent.results;
            }
        }
        let rates: Vec<f64> = done
            .iter()
            .map(|&n| n as f64 / (width as f64 / 1e9))
            .collect();
        median(&rates)
    }

    /// Open loop: the median over windows (by intended send time) of the
    /// window's median latency, in µs.
    pub fn sliced_p50(&self, duration: Duration, window: Duration) -> f64 {
        let (width, slices) = Self::windows(duration, window);
        let mut windows = vec![Vec::new(); slices];
        for sent in self.timeline.iter().filter(|s| s.done > 0) {
            if let Some(window) = windows.get_mut((sent.intended / width) as usize) {
                window.push((sent.done - sent.intended) as f64 / 1e3);
            }
        }
        let medians: Vec<f64> = windows.iter().map(|w| median(w)).collect();
        median(&medians)
    }
}

/// Whether `got` equals `want` bit for bit, `wall_time_us` aside.
pub fn same_result(got: &SearchResult, want: &SearchResult) -> bool {
    let strip = |r: &SearchResult| {
        let mut r = *r;
        r.wall_time_us = 0.0;
        let bits = r.success_estimate.to_bits();
        r.success_estimate = 0.0;
        (r, bits)
    };
    strip(got) == strip(want)
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn wait_until(t0: Instant, due_ns: u64) {
    loop {
        let now = ns_since(t0);
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > 20_000 {
            std::thread::sleep(Duration::from_nanos(left));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs one phase: `submit` feeds a line to the system under test and the
/// replies arrive on `replies`. Returns the classified outcome.
pub fn run_phase(
    name: &str,
    submit: &(dyn Fn(&str) + Sync),
    replies: &Receiver<String>,
    requests: &[Request],
    schedule: &Schedule,
    expected: &HashMap<u64, SearchResult>,
) -> Phase {
    let received = AtomicU64::new(0);
    let sent_results = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut lines: Vec<(u64, String)> = Vec::new();
    let mut sent: Vec<[u64; 3]> = Vec::new();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut times = Vec::with_capacity(requests.len());
            let mut outstanding_goal = 0u64;
            let room = |goal: u64, m: u64, bound: u64| {
                goal + m <= received.load(Ordering::Acquire) + bound
            };
            'send: for (i, request) in requests.iter().enumerate() {
                let m = request.ids.len() as u64;
                let intended = match schedule {
                    Schedule::Open { due_ns, cap } => {
                        let Some(&due) = due_ns.get(i) else { break };
                        wait_until(t0, due);
                        while !room(outstanding_goal, m, *cap) {
                            if t0.elapsed() > Duration::from_nanos(due) + DRAIN_GRACE {
                                break 'send;
                            }
                            std::thread::park_timeout(Duration::from_micros(500));
                        }
                        due
                    }
                    Schedule::Closed { window, duration } => {
                        while !room(outstanding_goal, m, *window) && t0.elapsed() < *duration {
                            std::thread::park_timeout(Duration::from_micros(500));
                        }
                        if t0.elapsed() >= *duration {
                            break;
                        }
                        ns_since(t0)
                    }
                };
                let start = ns_since(t0);
                submit(&request.line);
                times.push([intended, start, ns_since(t0)]);
                outstanding_goal += m;
                sent_results.store(outstanding_goal, Ordering::Release);
            }
            done.store(true, Ordering::Release);
            times
        });
        let mut done_at: Option<Instant> = None;
        loop {
            match replies.recv_timeout(Duration::from_millis(20)) {
                Ok(line) => {
                    lines.push((ns_since(t0), line));
                    received.fetch_add(1, Ordering::AcqRel);
                    sender.thread().unpark();
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if done.load(Ordering::Acquire) {
                if received.load(Ordering::Acquire) >= sent_results.load(Ordering::Acquire) {
                    break;
                }
                let since = *done_at.get_or_insert_with(Instant::now);
                if since.elapsed() > DRAIN_GRACE {
                    break;
                }
            }
        }
        sent = sender.join().expect("sender thread panicked");
    });
    classify(name, requests, &sent, &lines, expected, schedule)
}

fn classify(
    name: &str,
    requests: &[Request],
    sent: &[[u64; 3]],
    lines: &[(u64, String)],
    expected: &HashMap<u64, SearchResult>,
    schedule: &Schedule,
) -> Phase {
    let mut phase = Phase {
        name: name.to_string(),
        requests_sent: sent.len(),
        ..Phase::default()
    };
    let mut owner: HashMap<u64, usize> = HashMap::new();
    for (index, request) in requests[..sent.len()].iter().enumerate() {
        for &id in &request.ids {
            owner.insert(id, index);
        }
        phase.attempted += request.ids.len() as u64;
    }
    let mut remaining: Vec<usize> = requests[..sent.len()].iter().map(|r| r.ids.len()).collect();
    let mut bad = vec![false; sent.len()];
    let mut last = vec![0u64; sent.len()];
    let mut seen: HashMap<u64, ()> = HashMap::with_capacity(owner.len());
    for (at, line) in lines {
        match parse_response(line) {
            Ok(Response::Result(result)) => {
                let id = result.job_id;
                let Some(&index) = owner.get(&id) else {
                    phase.wrong += 1;
                    continue;
                };
                if seen.insert(id, ()).is_some() {
                    phase.wrong += 1;
                    bad[index] = true;
                    continue;
                }
                remaining[index] -= 1;
                last[index] = last[index].max(*at);
                match expected.get(&id) {
                    Some(want) if same_result(&result, want) => phase.ok += 1,
                    _ => {
                        phase.wrong += 1;
                        bad[index] = true;
                    }
                }
            }
            Ok(Response::Error { id, kind, .. }) => {
                *phase.errors.entry(kind.label().to_string()).or_default() += 1;
                if let Some(&index) = id.and_then(|id| owner.get(&id)) {
                    if seen
                        .insert(id.expect("owner lookup had an id"), ())
                        .is_none()
                    {
                        remaining[index] -= 1;
                    }
                    bad[index] = true;
                }
            }
            _ => phase.wrong += 1,
        }
    }
    phase.missing = owner.len() as u64 - seen.len() as u64;
    phase.elapsed_s = lines.last().map_or(0.0, |(at, _)| *at as f64 / 1e9);
    for (index, times) in sent.iter().enumerate() {
        let complete = remaining[index] == 0 && !bad[index];
        if complete {
            phase
                .latencies_us
                .push((last[index] - times[0]) as f64 / 1e3);
        }
        if let Schedule::Open { .. } = schedule {
            phase.send_lag_us.push((times[1] - times[0]) as f64 / 1e3);
        }
        phase.timeline.push(Sent {
            intended: times[0],
            submit_start: times[1],
            submit_end: times[2],
            done: if complete { last[index] } else { 0 },
            results: requests[index].ids.len() as u64,
        });
    }
    phase
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    psq_obs::percentile(&sorted, q)
}

/// The median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}
