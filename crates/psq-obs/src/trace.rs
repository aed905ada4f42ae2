//! The per-job span/event layer: structured NDJSON trace output.
//!
//! Tracing is a process-global switch read with one relaxed atomic load,
//! so the disabled hot path costs ~a nanosecond: [`Span::enter`] does not
//! even read the clock unless tracing is on, and [`event`] returns after
//! the load. When enabled (via `--trace[=stderr|FILE]` on the binaries,
//! the `PSQ_TRACE` environment variable, [`install_stderr`] /
//! [`install_file`] / [`install_writer`] in code), every finished span and
//! emitted event becomes one line of NDJSON:
//!
//! ```text
//! {"type":"trace","job":17,"trace":902,"stage":"plan","us":3.210,"t_us":1754650000123456}
//! {"type":"trace","job":17,"trace":902,"stage":"execute:reduced","us":412.907,"t_us":1754650000123999}
//! ```
//!
//! `job` is the id the enclosing layer uses (the engine's batch index, the
//! serving layer's client-assigned id), `stage` is a stable label —
//! `plan`, `cache`, `execute:<backend>`, `coalesce` and the front-tier
//! router's `route`/`queue`/`retry`/`respawn` across this workspace — and
//! `us` is the stage's wall time in microseconds. `t_us` is the wall-clock
//! time the stage *ended* (Unix epoch microseconds), comparable across
//! processes, so a collector can stitch one job's spans from several
//! processes into a single ordered causal chain. `trace` is the optional
//! distributed trace id: minted once at the front tier, carried across
//! process boundaries on the wire, and attached here either explicitly
//! ([`event_traced`], [`Span::finish_traced`]) or through the process-local
//! job → trace binding ([`bind_trace`]), which lets deep layers (the
//! engine's stage spans) stitch into the chain without threading an extra
//! argument through every call. Lines are flushed as they are written, so
//! a crashing process loses at most the line being formatted.

use crate::clock;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Stable stage labels shared by the engine and serving layers. Backend
/// execution stages extend the set with `execute:<backend label>`.
pub mod stage {
    /// Planning a job (cost model + schedule cache).
    pub const PLAN: &str = "plan";
    /// Result-cache lookup.
    pub const CACHE: &str = "cache";
    /// Time a job waited in the coalescer for its batch to dispatch.
    pub const COALESCE: &str = "coalesce";
    /// End-to-end time a job spent inside the front-tier router
    /// (admission → answer forwarded to the client).
    pub const ROUTE: &str = "route";
    /// Time a job waited inside the router between admission and being
    /// written to a worker (slot choice, inflight caps, parking).
    pub const QUEUE: &str = "queue";
    /// A job re-dispatched to another worker after a deadline expiry or a
    /// worker failure; the value is how long the failed attempt had been
    /// outstanding.
    pub const RETRY: &str = "retry";
    /// A worker respawn; the value is the slot's downtime (failure
    /// detection → replacement process up).
    pub const RESPAWN: &str = "respawn";
    /// State-vector execution running per-query noise channels (the noisy
    /// trajectory runner, distinguishable from the ideal
    /// `execute:statevector` spans on the same stream).
    pub const EXECUTE_NOISY: &str = "execute:noisy";
    /// Expanding one sweep request into its grid of per-point sub-jobs at
    /// the serving layer; the value is the expansion's wall time.
    pub const SWEEP_EXPAND: &str = "sweep_expand";
}

/// 0 = disabled, 1 = enabled. Relaxed everywhere: tracing is diagnostic
/// and a racing enable/disable only gains or loses a line or two.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The installed sink. Separate from `LEVEL` so the hot path never touches
/// the mutex while disabled.
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Process-local job id → distributed trace id bindings. Touched only when
/// tracing is enabled (bind/lookup short-circuit on the level atomic), so
/// the traced-off hot path never takes this lock.
static BINDINGS: Mutex<Option<HashMap<u64, u64>>> = Mutex::new(None);

/// Whether trace emission is on (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != 0
}

/// Wall-clock now in Unix-epoch microseconds — the cross-process `t_us`
/// axis trace lines carry. (The TSC stamp clock is per-process; epoch time
/// is what lets a collector order spans from different processes.)
pub fn epoch_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Routes trace lines to stderr and enables emission.
pub fn install_stderr() {
    install_writer(Box::new(std::io::stderr()));
}

/// Routes trace lines to (a fresh) `path` and enables emission.
pub fn install_file(path: &str) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    install_writer(Box::new(std::io::BufWriter::new(file)));
    Ok(())
}

/// Routes trace lines into `writer` and enables emission (tests and
/// in-process capture).
pub fn install_writer(writer: Box<dyn Write + Send>) {
    let mut sink = SINK.lock().expect("trace sink lock");
    *sink = Some(writer);
    LEVEL.store(1, Ordering::Relaxed);
}

/// Disables emission, drops (flushing) any installed sink, and clears all
/// job → trace bindings.
pub fn disable() {
    LEVEL.store(0, Ordering::Relaxed);
    let mut sink = SINK.lock().expect("trace sink lock");
    if let Some(writer) = sink.as_mut() {
        let _ = writer.flush();
    }
    *sink = None;
    *BINDINGS.lock().expect("trace bindings lock") = None;
}

/// Parses a `--trace[=stderr|FILE]` flag value (`None` and `"stderr"` mean
/// stderr, anything else is a file path) and installs the sink.
pub fn install_target(target: Option<&str>) -> Result<(), String> {
    match target {
        None | Some("stderr") => {
            install_stderr();
            Ok(())
        }
        Some(path) => {
            install_file(path).map_err(|e| format!("cannot open trace file `{path}`: {e}"))
        }
    }
}

/// Binds `job` to distributed trace id `trace` for this process, so every
/// subsequent [`event`] / [`Span::finish`] for that job id carries
/// `"trace":N`. No-op while tracing is disabled. The serving layer binds on
/// admission and [`unbind_trace`]s when the answer leaves the process.
pub fn bind_trace(job: u64, trace: u64) {
    if !enabled() {
        return;
    }
    BINDINGS
        .lock()
        .expect("trace bindings lock")
        .get_or_insert_with(HashMap::new)
        .insert(job, trace);
}

/// Removes the binding for `job`, returning the trace id it carried.
pub fn unbind_trace(job: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    BINDINGS
        .lock()
        .expect("trace bindings lock")
        .as_mut()?
        .remove(&job)
}

/// The distributed trace id currently bound to `job`, if any.
pub fn trace_of(job: u64) -> Option<u64> {
    if !enabled() {
        return None;
    }
    BINDINGS
        .lock()
        .expect("trace bindings lock")
        .as_ref()?
        .get(&job)
        .copied()
}

/// Emits one already-measured trace event (the span shortcut for stages
/// whose duration the caller measured anyway). The trace id, if the job
/// has one bound, is resolved from the process-local binding table. A
/// single relaxed load when tracing is off.
#[inline]
pub fn event(job: u64, stage_label: &str, us: f64) {
    if enabled() {
        write_line(job, trace_of(job), stage_label, us);
    }
}

/// Like [`event`], but with the distributed trace id supplied by the
/// caller (layers that track it themselves, e.g. the router's pending
/// table) instead of resolved from the binding table.
#[inline]
pub fn event_traced(job: u64, trace: Option<u64>, stage_label: &str, us: f64) {
    if enabled() {
        write_line(job, trace, stage_label, us);
    }
}

/// Writes one raw, already-formatted NDJSON line into the trace sink (a
/// trailing newline is added). This is the merge point for trace
/// *collection*: the router forwards its workers' tagged trace lines here
/// so the fleet's spans interleave into one ordered stream behind a single
/// sink lock. No-op while tracing is disabled.
pub fn forward_line(line: &str) {
    if !enabled() {
        return;
    }
    let mut sink = SINK.lock().expect("trace sink lock");
    if let Some(writer) = sink.as_mut() {
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
        let _ = writer.flush();
    }
}

#[cold]
fn write_line(job: u64, trace: Option<u64>, stage_label: &str, us: f64) {
    let t_us = epoch_us();
    let line = match trace {
        Some(id) => format!(
            "{{\"type\":\"trace\",\"job\":{job},\"trace\":{id},\"stage\":\"{stage_label}\",\
             \"us\":{us:.3},\"t_us\":{t_us}}}\n"
        ),
        None => format!(
            "{{\"type\":\"trace\",\"job\":{job},\"stage\":\"{stage_label}\",\
             \"us\":{us:.3},\"t_us\":{t_us}}}\n"
        ),
    };
    let mut sink = SINK.lock().expect("trace sink lock");
    if let Some(writer) = sink.as_mut() {
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.flush();
    }
}

/// One timed stage of one job.
///
/// [`Span::enter`] starts the clock only when tracing is enabled — the
/// disabled cost is the single atomic load behind [`enabled`] — while
/// [`Span::enter_always`] times unconditionally, for stages whose duration
/// feeds an always-on histogram (the measured value is returned either
/// way, and the trace line is emitted only when tracing is on). Timing
/// reads the cheap coarse clock in [`crate::clock`] (TSC stamps on
/// x86-64), not `Instant`, so an always-on span costs ~10–20 ns.
#[must_use = "a span measures nothing until finished"]
pub struct Span {
    stage_label: &'static str,
    start: Option<clock::Stamp>,
}

impl Span {
    /// Starts a stage span when tracing is enabled; otherwise a no-op span
    /// whose construction cost is one relaxed atomic load.
    #[inline]
    pub fn enter(stage_label: &'static str) -> Self {
        Self {
            stage_label,
            start: enabled().then(clock::now),
        }
    }

    /// Starts a stage span unconditionally (the caller wants the duration
    /// regardless of tracing — e.g. to feed a histogram).
    #[inline]
    pub fn enter_always(stage_label: &'static str) -> Self {
        Self {
            stage_label,
            start: Some(clock::now()),
        }
    }

    /// Whether this span is actually reading the clock.
    pub fn is_timing(&self) -> bool {
        self.start.is_some()
    }

    /// Ends the stage for `job`: emits the trace event when tracing is on
    /// (with the job's bound trace id, if any) and returns the elapsed
    /// microseconds (`None` for a no-op span).
    #[inline]
    pub fn finish(self, job: u64) -> Option<f64> {
        let us = clock::elapsed_us(self.start?);
        event(job, self.stage_label, us);
        Some(us)
    }

    /// Like [`Span::finish`], but with the distributed trace id supplied
    /// by the caller instead of resolved from the binding table.
    #[inline]
    pub fn finish_traced(self, job: u64, trace: Option<u64>) -> Option<f64> {
        let us = clock::elapsed_us(self.start?);
        event_traced(job, trace, self.stage_label, us);
        Some(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex, OnceLock};

    /// Trace state is process-global; serialise the tests that touch it.
    fn test_lock() -> &'static StdMutex<()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
    }

    /// A cloneable in-memory sink for capturing emitted lines.
    #[derive(Clone, Default)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Capture {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .expect("trace output is UTF-8")
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    impl Write for Capture {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_spans_do_not_touch_the_clock_and_emit_nothing() {
        let _guard = test_lock().lock().unwrap();
        disable();
        let span = Span::enter(stage::PLAN);
        assert!(!span.is_timing());
        assert_eq!(span.finish(1), None);
        event(1, stage::PLAN, 10.0); // must be a no-op, not a panic
        bind_trace(1, 99); // bindings are inert while disabled
        assert_eq!(trace_of(1), None);
        forward_line("{\"type\":\"trace\"}"); // dropped, not a panic
    }

    #[test]
    fn enabled_spans_emit_one_wellformed_line_per_finish() {
        let _guard = test_lock().lock().unwrap();
        let capture = Capture::default();
        install_writer(Box::new(capture.clone()));
        let span = Span::enter(stage::CACHE);
        assert!(span.is_timing());
        let us = span.finish(42).expect("timed");
        assert!(us >= 0.0);
        event(7, stage::COALESCE, 1234.5);
        disable();
        let lines = capture.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"job\":42"));
        assert!(lines[0].contains("\"stage\":\"cache\""));
        assert!(lines[0].contains("\"t_us\":"));
        assert!(!lines[0].contains("\"trace\":"), "no binding → no trace id");
        assert!(lines[1].contains("\"stage\":\"coalesce\""));
        assert!(lines[1].contains("\"us\":1234.500"));
        // Emission stops once disabled.
        event(9, stage::PLAN, 1.0);
        assert_eq!(capture.lines().len(), 2);
    }

    #[test]
    fn bound_jobs_carry_their_trace_id_until_unbound() {
        let _guard = test_lock().lock().unwrap();
        let capture = Capture::default();
        install_writer(Box::new(capture.clone()));
        bind_trace(17, 902);
        assert_eq!(trace_of(17), Some(902));
        event(17, stage::PLAN, 3.2);
        let span = Span::enter(stage::CACHE);
        span.finish(17);
        assert_eq!(unbind_trace(17), Some(902));
        event(17, stage::PLAN, 1.0); // binding gone → no trace id
        event_traced(21, Some(555), stage::ROUTE, 9.0);
        disable();
        let lines = capture.lines();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"trace\":902"));
        assert!(lines[1].contains("\"trace\":902"));
        assert!(!lines[2].contains("\"trace\":"));
        assert!(lines[3].contains("\"trace\":555"));
        assert!(lines[3].contains("\"stage\":\"route\""));
    }

    #[test]
    fn forwarded_lines_pass_through_verbatim_in_order() {
        let _guard = test_lock().lock().unwrap();
        let capture = Capture::default();
        install_writer(Box::new(capture.clone()));
        forward_line("{\"type\":\"trace\",\"job\":1,\"stage\":\"plan\",\"us\":1.0,\"slot\":0}");
        event(2, stage::ROUTE, 5.0);
        forward_line("{\"type\":\"trace\",\"job\":3,\"stage\":\"cache\",\"us\":2.0,\"slot\":1}");
        disable();
        let lines = capture.lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].ends_with("\"slot\":0}"));
        assert!(lines[1].contains("\"stage\":\"route\""));
        assert!(lines[2].ends_with("\"slot\":1}"));
    }

    #[test]
    fn epoch_timestamps_are_monotonic_enough_to_order_spans() {
        let a = epoch_us();
        let b = epoch_us();
        assert!(b >= a, "epoch_us must not run backwards within a thread");
        assert!(a > 1_600_000_000_000_000, "epoch_us is in microseconds");
    }

    #[test]
    fn enter_always_times_even_when_disabled() {
        let _guard = test_lock().lock().unwrap();
        disable();
        let span = Span::enter_always(stage::PLAN);
        assert!(span.is_timing());
        assert!(span.finish(0).expect("timed") >= 0.0);
    }

    #[test]
    fn install_target_understands_stderr_and_files() {
        let _guard = test_lock().lock().unwrap();
        install_target(Some("stderr")).expect("stderr target");
        assert!(enabled());
        disable();
        let path = std::env::temp_dir().join("psq-obs-trace-test.ndjson");
        let path = path.to_str().expect("utf-8 temp path");
        install_target(Some(path)).expect("file target");
        event(3, stage::PLAN, 2.0);
        disable();
        let text = std::fs::read_to_string(path).expect("trace file written");
        assert!(text.contains("\"stage\":\"plan\""));
        let _ = std::fs::remove_file(path);
        assert!(install_target(Some("/nonexistent-dir/x/y.ndjson")).is_err());
    }
}
