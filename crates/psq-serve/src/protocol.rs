//! The NDJSON wire protocol: one JSON value per line, order-independent.
//!
//! **Requests** (client → server), one per line:
//!
//! * a [`SearchJob`] object — every field of the engine's wire type
//!   (`{"id":…,"n":…,"k":…,"target":…,"error_target":…,"trials":…,
//!   "seed":…,"backend":…}`). The `id` is client-assigned and echoed on the
//!   matching response; responses may arrive in any order, so clients
//!   correlate by id, never by position. An optional `"full_address": true`
//!   field asks for *full-address* resolution: the job routes to the
//!   engine's recursive backend (equivalent to `"backend":"Recursive"`;
//!   combining the flag with a different explicit backend is rejected as a
//!   parse error) and the result line carries the resolved `address_found`
//!   instead of just a block. An optional `"trace": <u64>` field carries a
//!   distributed trace id (minted by the front-tier router, or supplied by
//!   any client): the server binds it to the job for the job's lifetime,
//!   so every stage span this process emits on the NDJSON trace stream —
//!   `coalesce`, `plan`, `cache`, `execute:<backend>` — carries the same
//!   `"trace":N` as the router's `route`/`queue` spans, stitching one
//!   cross-process causal chain per request. The id rides the request
//!   only; responses stay unchanged (the sender correlates by job id).
//!   An optional `"sweep": {"p":[…],"k":[…],"error":[…],"channel":"…"}`
//!   object turns the line into a *sweep request*: the server expands the
//!   grid's cross product over the base job (`psq_engine::SweepSpec`) and
//!   answers one result line per grid point, point `i` under id
//!   `base.id + i`. Grids over the configured `--max-sweep-points` cap are
//!   refused with a `"sweep_too_large"` error before any point runs.
//! * a control command — `{"cmd":"metrics"}` (snapshot the serving
//!   metrics), `{"cmd":"health"}` (a cheap liveness probe),
//!   `{"cmd":"drain"}` (stop accepting work, flush in-flight jobs, end the
//!   session — the rolling-restart hook) or `{"cmd":"shutdown"}` (drain
//!   in-flight work and stop the server). `{"cmd":"restart"}` parses too,
//!   but only psq-router acts on it; psq-serve answers it with a `parse`
//!   error.
//!
//! **Responses** (server → client), one per line, each tagged with a
//! `"type"` discriminant:
//!
//! * `{"type":"result","result":{…SearchResult…}}` — a completed job;
//!   `result.job_id` is the client's id.
//! * `{"type":"error","id":<u64|null>,"kind":"…","reason":"…"}` — the job
//!   could not run. `id` is `null` only when the line didn't parse far
//!   enough to recover one. `kind` is one of `"parse"`, `"invalid"`
//!   (failed [`SearchJob::validate`]), `"overload"` (per-client in-flight
//!   bound hit — resubmit later; the connection stays open), `"rejected"`
//!   (the engine's planner refused it), `"deadline"` (the front-tier
//!   router's per-request budget ran out before any worker answered),
//!   `"internal"` (the job's execution panicked; by determinism a retry
//!   would fail the same way), `"shutting_down"`.
//! * `{"type":"metrics","metrics":{…ServeMetrics…}}`.
//! * `{"type":"health","status":"…","queue_depth":…,"uptime_us":…}` — the
//!   reply to `{"cmd":"health"}`: `status` is `"ok"` or `"draining"`,
//!   `queue_depth` counts admitted-but-unanswered jobs, `uptime_us` is the
//!   server's age. Served entirely from atomics — no engine lock — so a
//!   supervisor can probe as often as it likes.
//! * `{"type":"ack","cmd":"…"}` — a control command was accepted.
//!
//! The enums carry payloads, which the vendored `serde_derive` subset does
//! not handle, so serialisation is hand-written over the `serde` value tree.

use crate::metrics::ServeMetrics;
use psq_engine::{SearchJob, SearchResult, SweepSpec};
use serde::{Deserialize, Error, Map, Number, Serialize, Value};

/// Why a job line got an error response instead of a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not valid JSON / not a recognisable request.
    Parse,
    /// The job failed structural validation (`SearchJob::validate`).
    Invalid,
    /// The client's in-flight bound was hit; resubmit later.
    Overload,
    /// The engine's planner refused the job (e.g. infeasible backend hint).
    Rejected,
    /// The front-tier router's per-request deadline budget (including its
    /// bounded retries on other workers) ran out before a worker answered.
    Deadline,
    /// A sweep request's grid exceeds the configured point cap
    /// (`--max-sweep-points`); split it into smaller sweeps and resubmit.
    SweepTooLarge,
    /// The job's execution panicked (a bug). Only this job failed; jobs are
    /// pure functions of their specs, so resubmitting it fails again.
    Internal,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
}

impl ErrorKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Overload => "overload",
            ErrorKind::Rejected => "rejected",
            ErrorKind::Deadline => "deadline",
            ErrorKind::SweepTooLarge => "sweep_too_large",
            ErrorKind::Internal => "internal",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "parse" => ErrorKind::Parse,
            "invalid" => ErrorKind::Invalid,
            "overload" => ErrorKind::Overload,
            "rejected" => ErrorKind::Rejected,
            "deadline" => ErrorKind::Deadline,
            "sweep_too_large" => ErrorKind::SweepTooLarge,
            "internal" => ErrorKind::Internal,
            "shutting_down" => ErrorKind::ShuttingDown,
            _ => return None,
        })
    }
}

/// A control command (`{"cmd": …}` request line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Snapshot the serving metrics back to this client.
    Metrics,
    /// Cheap liveness probe: status, queue depth and uptime from atomics,
    /// no engine lock taken.
    Health,
    /// Stop accepting new work, flush every in-flight job, answer this
    /// client an ack and end the session — the drain half of a rolling
    /// restart (a supervisor respawns the process afterwards).
    Drain,
    /// Drain in-flight work across all clients and stop the server.
    Shutdown,
    /// Drain and respawn every worker of a psq-router fleet, one at a
    /// time. Router vocabulary: a lone psq-serve answers it with a `parse`
    /// error, as it does any command it does not know.
    Restart,
}

impl Command {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            Command::Metrics => "metrics",
            Command::Health => "health",
            Command::Drain => "drain",
            Command::Shutdown => "shutdown",
            Command::Restart => "restart",
        }
    }
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// A partial-search job to coalesce and execute.
    Job {
        /// The job itself.
        job: Box<SearchJob>,
        /// The distributed trace id the line carried (`"trace": <u64>`),
        /// if any — bound to the job so this process's stage spans stitch
        /// into the cross-process chain.
        trace: Option<u64>,
    },
    /// A sweep request: a base job plus a `"sweep"` grid object, expanded
    /// by the server into one sub-job per grid point (point `i` answers
    /// with id `base.id + i`).
    Sweep {
        /// The base job every grid point derives from.
        base: Box<SearchJob>,
        /// The grid axes (`p` / `k` / `error`, plus the driven channel).
        spec: SweepSpec,
        /// The distributed trace id the line carried, shared by every
        /// expanded point.
        trace: Option<u64>,
    },
    /// A control command.
    Command(Command),
}

/// Serialises a job (plus an optional distributed trace id) as one request
/// line — the inverse of [`parse_request`] for job lines. The front-tier
/// router uses this to forward jobs to workers with the trace context
/// spliced on.
pub fn job_line(job: &SearchJob, trace: Option<u64>) -> String {
    let mut value = job.serialize();
    if let (Some(object), Some(trace)) = (value.as_object_mut(), trace) {
        object.insert("trace".into(), Value::Number(Number::PosInt(trace)));
    }
    serde_json::to_string(&value).expect("jobs serialise")
}

/// Parses one request line. Blank lines are `Ok(None)` (skipped, so piped
/// files may end with a newline or contain separators).
pub fn parse_request(line: &str) -> Result<Option<Request>, String> {
    if line.trim().is_empty() {
        return Ok(None);
    }
    let value = serde_json::parse_value(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let object = value
        .as_object()
        .ok_or_else(|| "expected a JSON object per line".to_string())?;
    if let Some(cmd) = object.get("cmd") {
        let name = cmd
            .as_str()
            .ok_or_else(|| "\"cmd\" must be a string".to_string())?;
        let command = match name {
            "metrics" => Command::Metrics,
            "health" => Command::Health,
            "drain" => Command::Drain,
            "shutdown" => Command::Shutdown,
            "restart" => Command::Restart,
            other => return Err(format!("unknown command `{other}`")),
        };
        return Ok(Some(Request::Command(command)));
    }
    let mut job = SearchJob::deserialize(&value).map_err(|e| format!("invalid job: {e}"))?;
    if let Some(flag) = object.get("full_address") {
        use psq_engine::BackendHint;
        let full_address = flag
            .as_bool()
            .ok_or_else(|| "\"full_address\" must be a boolean".to_string())?;
        if full_address {
            // The convenience spelling of `"backend":"Recursive"`: resolve
            // the whole address by recursive partial search. An explicit
            // *other* backend contradicts the flag — reject rather than
            // silently override the client's request.
            if !matches!(job.backend, BackendHint::Auto | BackendHint::Recursive) {
                return Err(format!(
                    "\"full_address\": true conflicts with explicit backend {:?} \
                     (full-address resolution runs on the Recursive backend)",
                    job.backend
                ));
            }
            job.backend = BackendHint::Recursive;
        }
    }
    let trace = match object.get("trace") {
        None | Some(Value::Null) => None,
        Some(value) => Some(
            value
                .as_u64()
                .ok_or_else(|| "\"trace\" must be a u64 trace id".to_string())?,
        ),
    };
    if let Some(sweep) = object.get("sweep") {
        if !matches!(sweep, Value::Null) {
            let spec = SweepSpec::deserialize(sweep).map_err(|e| format!("invalid sweep: {e}"))?;
            return Ok(Some(Request::Sweep {
                base: Box::new(job),
                spec,
                trace,
            }));
        }
    }
    Ok(Some(Request::Job {
        job: Box::new(job),
        trace,
    }))
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A completed job (the result's `job_id` is the client's id).
    Result(Box<SearchResult>),
    /// A request that produced no result, and why.
    Error {
        /// The client-assigned job id, when one could be recovered.
        id: Option<u64>,
        /// Error category (stable wire labels — see [`ErrorKind::label`]).
        kind: ErrorKind,
        /// Human-readable detail.
        reason: String,
    },
    /// A metrics snapshot (reply to `{"cmd":"metrics"}`).
    Metrics(Box<ServeMetrics>),
    /// A liveness probe reply (reply to `{"cmd":"health"}`) — served from
    /// atomics, never from behind the engine lock.
    Health {
        /// `"ok"` while serving, `"draining"` once a drain or shutdown has
        /// been observed.
        status: String,
        /// Jobs admitted but not yet answered, across all clients.
        queue_depth: u64,
        /// Microseconds since the server started.
        uptime_us: u64,
    },
    /// Acknowledges a control command.
    Ack {
        /// The command's wire label.
        cmd: String,
    },
}

impl Response {
    /// Serialises to one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut map = Map::new();
        match self {
            Response::Result(result) => {
                map.insert("type".into(), Value::String("result".into()));
                map.insert("result".into(), result.serialize());
            }
            Response::Error { id, kind, reason } => {
                map.insert("type".into(), Value::String("error".into()));
                map.insert(
                    "id".into(),
                    match id {
                        Some(id) => Value::Number(Number::PosInt(*id)),
                        None => Value::Null,
                    },
                );
                map.insert("kind".into(), Value::String(kind.label().into()));
                map.insert("reason".into(), Value::String(reason.clone()));
            }
            Response::Metrics(metrics) => {
                map.insert("type".into(), Value::String("metrics".into()));
                map.insert("metrics".into(), metrics.serialize());
            }
            Response::Health {
                status,
                queue_depth,
                uptime_us,
            } => {
                map.insert("type".into(), Value::String("health".into()));
                map.insert("status".into(), Value::String(status.clone()));
                map.insert(
                    "queue_depth".into(),
                    Value::Number(Number::PosInt(*queue_depth)),
                );
                map.insert(
                    "uptime_us".into(),
                    Value::Number(Number::PosInt(*uptime_us)),
                );
            }
            Response::Ack { cmd } => {
                map.insert("type".into(), Value::String("ack".into()));
                map.insert("cmd".into(), Value::String(cmd.clone()));
            }
        }
        serde_json::to_string(&Value::Object(map)).expect("responses serialise")
    }

    /// The client-assigned job id this response answers, when it answers
    /// one (results and id-carrying errors).
    pub fn job_id(&self) -> Option<u64> {
        match self {
            Response::Result(result) => Some(result.job_id),
            Response::Error { id, .. } => *id,
            _ => None,
        }
    }
}

/// Parses one response line (the client half of the protocol; the test
/// suites and `--selftest` consume responses through this).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let value = serde_json::parse_value(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let object = value
        .as_object()
        .ok_or_else(|| "expected a JSON object per line".to_string())?;
    let tag = object
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"type\" tag".to_string())?;
    match tag {
        "result" => {
            let result = object
                .get("result")
                .ok_or_else(|| "result response without \"result\"".to_string())?;
            SearchResult::deserialize(result)
                .map(|r| Response::Result(Box::new(r)))
                .map_err(|e| format!("invalid result payload: {e}"))
        }
        "error" => {
            let id = match object.get("id") {
                None | Some(Value::Null) => None,
                Some(value) => Some(
                    value
                        .as_u64()
                        .ok_or_else(|| "error \"id\" must be a u64 or null".to_string())?,
                ),
            };
            let kind = object
                .get("kind")
                .and_then(Value::as_str)
                .and_then(ErrorKind::from_label)
                .ok_or_else(|| "error response with unknown \"kind\"".to_string())?;
            let reason = object
                .get("reason")
                .and_then(Value::as_str)
                .ok_or_else(|| "error response without \"reason\"".to_string())?
                .to_string();
            Ok(Response::Error { id, kind, reason })
        }
        "metrics" => {
            let metrics = object
                .get("metrics")
                .ok_or_else(|| "metrics response without \"metrics\"".to_string())?;
            ServeMetrics::deserialize(metrics)
                .map(|m| Response::Metrics(Box::new(m)))
                .map_err(|e: Error| format!("invalid metrics payload: {e}"))
        }
        "health" => {
            let status = object
                .get("status")
                .and_then(Value::as_str)
                .ok_or_else(|| "health response without \"status\"".to_string())?
                .to_string();
            let queue_depth = object
                .get("queue_depth")
                .and_then(Value::as_u64)
                .ok_or_else(|| "health response without \"queue_depth\"".to_string())?;
            let uptime_us = object
                .get("uptime_us")
                .and_then(Value::as_u64)
                .ok_or_else(|| "health response without \"uptime_us\"".to_string())?;
            Ok(Response::Health {
                status,
                queue_depth,
                uptime_us,
            })
        }
        "ack" => {
            let cmd = object
                .get("cmd")
                .and_then(Value::as_str)
                .ok_or_else(|| "ack response without \"cmd\"".to_string())?
                .to_string();
            Ok(Response::Ack { cmd })
        }
        other => Err(format!("unknown response type `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psq_engine::{Backend, BackendHint};

    #[test]
    fn job_lines_parse_to_requests() {
        let job = SearchJob::new(7, 1 << 10, 4, 99).with_backend(BackendHint::StateVector);
        let line = serde_json::to_string(&job).expect("job serialises");
        match parse_request(&line).expect("parses") {
            Some(Request::Job { job: parsed, trace }) => {
                assert_eq!(*parsed, job);
                assert_eq!(trace, None, "no trace field → no trace id");
            }
            other => panic!("expected a job request, got {other:?}"),
        }
    }

    #[test]
    fn trace_ids_ride_job_lines_and_round_trip_through_job_line() {
        let job = SearchJob::new(11, 1 << 10, 4, 5);
        // job_line with a trace id parses back to the same job + id.
        let line = job_line(&job, Some(902));
        assert!(line.contains("\"trace\":902"));
        match parse_request(&line).expect("parses") {
            Some(Request::Job { job: parsed, trace }) => {
                assert_eq!(*parsed, job);
                assert_eq!(trace, Some(902));
            }
            other => panic!("expected a job request, got {other:?}"),
        }
        // Without a trace id, job_line is the plain serialised job.
        let plain = job_line(&job, None);
        assert!(!plain.contains("\"trace\""));
        assert_eq!(plain, serde_json::to_string(&job).expect("serialises"));
        // An explicit null is tolerated (treated as absent); non-integers
        // are parse errors, not silent drops.
        let null = format!("{},\"trace\":null}}", &plain[..plain.len() - 1]);
        match parse_request(&null).expect("parses") {
            Some(Request::Job { trace, .. }) => assert_eq!(trace, None),
            other => panic!("expected a job request, got {other:?}"),
        }
        let bad = format!("{},\"trace\":\"abc\"}}", &plain[..plain.len() - 1]);
        assert!(parse_request(&bad).is_err());
    }

    #[test]
    fn full_address_field_routes_to_the_recursive_backend() {
        let job = SearchJob::new(9, 1 << 12, 4, 77);
        let line = serde_json::to_string(&job).expect("serialises");
        // Splice the flag into the object (the serialised job has no
        // full_address key of its own).
        let flagged = format!("{},\"full_address\":true}}", &line[..line.len() - 1]);
        match parse_request(&flagged).expect("parses") {
            Some(Request::Job { job: parsed, .. }) => {
                assert_eq!(parsed.backend, BackendHint::Recursive);
                assert_eq!(*parsed, job.with_backend(BackendHint::Recursive));
            }
            other => panic!("expected a job request, got {other:?}"),
        }
        // `false` leaves the job's own backend hint alone.
        let unflagged = format!("{},\"full_address\":false}}", &line[..line.len() - 1]);
        match parse_request(&unflagged).expect("parses") {
            Some(Request::Job { job: parsed, .. }) => assert_eq!(parsed.backend, BackendHint::Auto),
            other => panic!("expected a job request, got {other:?}"),
        }
        // A malformed flag is a parse error, not a silent default.
        let bad = format!("{},\"full_address\":\"yes\"}}", &line[..line.len() - 1]);
        assert!(parse_request(&bad).is_err());
        // A contradictory explicit backend is rejected, never overridden.
        let conflicted =
            serde_json::to_string(&job.with_backend(BackendHint::Reduced)).expect("serialises");
        let conflicted = format!(
            "{},\"full_address\":true}}",
            &conflicted[..conflicted.len() - 1]
        );
        let err = parse_request(&conflicted).expect_err("conflict is an error");
        assert!(err.contains("conflicts"), "reason explains: {err}");
        // Redundant spelling (explicit Recursive + flag) stays accepted.
        let redundant =
            serde_json::to_string(&job.with_backend(BackendHint::Recursive)).expect("serialises");
        let redundant = format!(
            "{},\"full_address\":true}}",
            &redundant[..redundant.len() - 1]
        );
        match parse_request(&redundant).expect("parses") {
            Some(Request::Job { job: parsed, .. }) => {
                assert_eq!(parsed.backend, BackendHint::Recursive)
            }
            other => panic!("expected a job request, got {other:?}"),
        }
    }

    #[test]
    fn sweep_lines_parse_to_sweep_requests() {
        let job = SearchJob::new(100, 1 << 10, 4, 99);
        let line = serde_json::to_string(&job).expect("serialises");
        let swept = format!(
            "{},\"sweep\":{{\"p\":[0.0,0.1],\"k\":[4,8]}},\"trace\":7}}",
            &line[..line.len() - 1]
        );
        match parse_request(&swept).expect("parses") {
            Some(Request::Sweep { base, spec, trace }) => {
                assert_eq!(*base, job);
                assert_eq!(spec.p, vec![0.0, 0.1]);
                assert_eq!(spec.k, vec![4, 8]);
                assert!(spec.error.is_empty());
                assert_eq!(spec.point_count(), 4);
                assert_eq!(trace, Some(7));
            }
            other => panic!("expected a sweep request, got {other:?}"),
        }
        // A null sweep is a plain job; a malformed grid is a parse error.
        let null = format!("{},\"sweep\":null}}", &line[..line.len() - 1]);
        assert!(matches!(
            parse_request(&null).expect("parses"),
            Some(Request::Job { .. })
        ));
        let bad = format!("{},\"sweep\":{{\"eps\":[0.1]}}}}", &line[..line.len() - 1]);
        let err = parse_request(&bad).expect_err("typos fail loudly");
        assert!(err.contains("unknown field"), "reason: {err}");
    }

    #[test]
    fn command_lines_parse_and_blank_lines_skip() {
        assert_eq!(
            parse_request("{\"cmd\":\"metrics\"}").expect("parses"),
            Some(Request::Command(Command::Metrics))
        );
        assert_eq!(
            parse_request(" {\"cmd\": \"shutdown\"} ").expect("parses"),
            Some(Request::Command(Command::Shutdown))
        );
        assert_eq!(
            parse_request("{\"cmd\":\"health\"}").expect("parses"),
            Some(Request::Command(Command::Health))
        );
        assert_eq!(
            parse_request("{\"cmd\":\"drain\"}").expect("parses"),
            Some(Request::Command(Command::Drain))
        );
        assert_eq!(
            parse_request("{\"cmd\":\"restart\"}").expect("parses"),
            Some(Request::Command(Command::Restart))
        );
        assert_eq!(parse_request("").expect("blank"), None);
        assert_eq!(parse_request("   ").expect("blank"), None);
        assert!(parse_request("{\"cmd\":\"dance\"}").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
    }

    #[test]
    fn responses_round_trip_through_their_lines() {
        let result = SearchResult {
            job_id: 42,
            backend: Backend::Reduced,
            block_found: 1,
            true_block: 1,
            correct: true,
            address_found: None,
            levels: 0,
            queries: 77,
            success_estimate: 0.993,
            trials: 2,
            trials_correct: 2,
            wall_time_us: 12.5,
        };
        let cases = vec![
            Response::Result(Box::new(result)),
            Response::Error {
                id: Some(9),
                kind: ErrorKind::Overload,
                reason: "too many in-flight jobs".into(),
            },
            Response::Error {
                id: None,
                kind: ErrorKind::Parse,
                reason: "invalid JSON: trailing characters at byte 2".into(),
            },
            Response::Error {
                id: Some(12),
                kind: ErrorKind::Deadline,
                reason: "deadline exceeded after 2 attempts".into(),
            },
            Response::Health {
                status: "ok".into(),
                queue_depth: 3,
                uptime_us: 1_234_567,
            },
            Response::Ack {
                cmd: "shutdown".into(),
            },
            Response::Ack {
                cmd: "drain".into(),
            },
        ];
        for response in cases {
            let line = response.to_line();
            assert!(!line.contains('\n'), "one line per response");
            let back = parse_response(&line).expect("round trips");
            assert_eq!(back, response);
        }
    }

    #[test]
    fn every_error_kind_round_trips() {
        for kind in [
            ErrorKind::Parse,
            ErrorKind::Invalid,
            ErrorKind::Overload,
            ErrorKind::Rejected,
            ErrorKind::Deadline,
            ErrorKind::SweepTooLarge,
            ErrorKind::Internal,
            ErrorKind::ShuttingDown,
        ] {
            assert_eq!(ErrorKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ErrorKind::from_label("nope"), None);
    }

    #[test]
    fn job_id_is_recovered_from_answering_responses() {
        let mut result = SearchResult {
            job_id: 3,
            backend: Backend::Reduced,
            block_found: 0,
            true_block: 0,
            correct: true,
            address_found: None,
            levels: 0,
            queries: 1,
            success_estimate: 1.0,
            trials: 1,
            trials_correct: 1,
            wall_time_us: 0.0,
        };
        result.job_id = 3;
        assert_eq!(Response::Result(Box::new(result)).job_id(), Some(3));
        assert_eq!(
            Response::Error {
                id: Some(8),
                kind: ErrorKind::Invalid,
                reason: String::new()
            }
            .job_id(),
            Some(8)
        );
        assert_eq!(
            Response::Ack {
                cmd: "metrics".into()
            }
            .job_id(),
            None
        );
    }
}
