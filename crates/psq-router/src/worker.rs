//! One supervised worker process: spawn, feed, read, kill, reap.
//!
//! A [`WorkerLink`] owns a child process speaking the psq-serve NDJSON
//! protocol on its stdin/stdout. Requests go through an unbounded channel
//! into a dedicated writer thread (so the router never blocks on a slow or
//! dead child's pipe); every stdout line comes back as a [`WorkerEvent`]
//! on the router's shared event channel, tagged with the worker's slot and
//! generation so replies from a replaced process are recognised as stale.
//!
//! When the router itself is tracing, workers are spawned in
//! **trace-collection mode**: the child gets `PSQ_TRACE=stderr`, its
//! stderr is piped instead of inherited, and a dedicated reader merges the
//! child's trace stream into the router's own sink — each
//! `{"type":"trace",...}` line re-tagged with the worker's `slot` and
//! `gen` so one NDJSON stream carries the whole fleet's causal chains.
//! Non-trace stderr lines (the worker's human log) are passed through to
//! the router's stderr unchanged.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use psq_serve::server::spawn_writer;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// What a worker's reader thread reports back to the router.
#[derive(Debug)]
pub enum WorkerEvent {
    /// One raw stdout line from the worker (not yet parsed).
    Line {
        /// The worker slot that produced it.
        slot: usize,
        /// The process generation that produced it.
        generation: u64,
        /// The line, newline stripped.
        line: String,
    },
    /// The worker's stdout reached EOF: the process exited or crashed.
    Gone {
        /// The worker slot whose process ended.
        slot: usize,
        /// The generation that ended.
        generation: u64,
    },
}

/// A live (or recently dead) worker process.
pub struct WorkerLink {
    child: Mutex<Child>,
    tx: Sender<String>,
    writer: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    /// The generation this process was spawned as.
    pub generation: u64,
}

impl WorkerLink {
    /// Spawns `argv` with piped stdin/stdout, wiring its stdout into
    /// `events` tagged `(slot, generation)`. `fault` is placed in the
    /// child's [`crate::fault::FAULT_ENV`] when set. With `collect_trace`
    /// the child is switched into trace-collection mode (see the module
    /// docs); without it stderr is inherited as before.
    pub fn spawn(
        argv: &[String],
        slot: usize,
        generation: u64,
        fault: Option<&str>,
        collect_trace: bool,
        events: Sender<WorkerEvent>,
    ) -> std::io::Result<Self> {
        let (program, args) = argv
            .split_first()
            .ok_or_else(|| std::io::Error::other("empty worker command"))?;
        let mut command = Command::new(program);
        command
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        match fault {
            Some(spec) => command.env(crate::fault::FAULT_ENV, spec),
            None => command.env_remove(crate::fault::FAULT_ENV),
        };
        if collect_trace {
            command
                .env(psq_engine::cli::PSQ_TRACE_ENV, "stderr")
                .stderr(Stdio::piped());
        } else {
            command.env_remove(psq_engine::cli::PSQ_TRACE_ENV);
        }
        let mut child = command.spawn()?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        if let Some(stderr) = child.stderr.take() {
            spawn_trace_collector(stderr, slot, generation);
        }

        // A dead child makes the writer's next write fail and its thread
        // end, so `send_line` reports it; the reader's EOF reports it to
        // the router. Once the channel disconnects, dropping stdin EOFs the
        // worker so a healthy child drains and exits on its own.
        let (tx, rx): (Sender<String>, Receiver<String>) = unbounded();
        let writer = spawn_writer(&format!("psq-router-w{slot}-writer"), rx, stdin);

        std::thread::Builder::new()
            .name(format!("psq-router-w{slot}-reader"))
            .spawn(move || {
                let reader = BufReader::new(stdout);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if events
                        .send(WorkerEvent::Line {
                            slot,
                            generation,
                            line,
                        })
                        .is_err()
                    {
                        return; // router gone: nothing left to report to
                    }
                }
                let _ = events.send(WorkerEvent::Gone { slot, generation });
            })
            .expect("failed to spawn a worker reader thread");

        Ok(Self {
            child: Mutex::new(child),
            tx,
            writer: Some(writer),
            generation,
        })
    }

    /// Tags one of the child's trace lines with its origin: splices
    /// `"slot":N,"gen":G` into the object so the merged stream says which
    /// worker (and which process generation) produced each span. Returns
    /// `None` for lines that are not trace events.
    pub(crate) fn tag_trace_line(line: &str, slot: usize, generation: u64) -> Option<String> {
        let body = line.strip_prefix("{\"type\":\"trace\",")?;
        Some(format!(
            "{{\"type\":\"trace\",\"slot\":{slot},\"gen\":{generation},{body}"
        ))
    }

    /// Queues one request line for the worker. `false` means the writer is
    /// gone (the process is dead and EOF is on its way through events).
    pub fn send_line(&self, line: String) -> bool {
        self.tx.send(line).is_ok()
    }

    /// SIGKILLs the process (crash simulation and supervisor enforcement;
    /// reaping still happens in [`WorkerLink::reap`]).
    pub fn kill(&self) {
        let _ = self.child.lock().kill();
    }

    /// The child's OS pid (for logs and tests).
    pub fn pid(&self) -> u32 {
        self.child.lock().id()
    }

    /// Kills (idempotent) and reaps the process, joining the writer thread.
    /// Call when the slot is done with this generation; without it the dead
    /// child would linger as a zombie.
    pub fn reap(self) {
        let Self {
            child, tx, writer, ..
        } = self;
        {
            let mut child = child.lock();
            let _ = child.kill();
            let _ = child.wait();
        }
        // The writer blocks on its channel when idle; dropping the sender
        // is what lets it exit, so it must happen before the join.
        drop(tx);
        if let Some(writer) = writer {
            let _ = writer.join();
        }
    }
}

/// The trace-collection half of a worker: reads the child's piped stderr,
/// merges tagged trace lines into the router's sink ([`psq_obs::trace`]'s
/// `forward_line` keeps whole lines atomic and arrival-ordered), and passes
/// everything else through to the router's own stderr so the worker's log
/// stays visible.
fn spawn_trace_collector(stderr: std::process::ChildStderr, slot: usize, generation: u64) {
    std::thread::Builder::new()
        .name(format!("psq-router-w{slot}-trace"))
        .spawn(move || {
            let reader = BufReader::new(stderr);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                match WorkerLink::tag_trace_line(&line, slot, generation) {
                    Some(tagged) => psq_obs::trace::forward_line(&tagged),
                    None => eprintln!("{line}"),
                }
            }
        })
        .expect("failed to spawn a worker trace collector");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `/bin/cat` is a perfectly protocol-free echo worker: whatever we
    /// write to stdin comes back as stdout lines.
    #[test]
    fn spawn_feed_read_and_reap_round_trips_lines() {
        let (events, rx) = unbounded();
        let link = WorkerLink::spawn(&["/bin/cat".to_string()], 3, 7, None, false, events)
            .expect("spawn cat");
        assert!(link.send_line("hello".into()));
        assert!(link.send_line("world".into()));
        for expected in ["hello", "world"] {
            match rx.recv_timeout(std::time::Duration::from_secs(5)) {
                Ok(WorkerEvent::Line {
                    slot,
                    generation,
                    line,
                }) => {
                    assert_eq!((slot, generation), (3, 7));
                    assert_eq!(line, expected);
                }
                other => panic!("expected an echoed line, got {other:?}"),
            }
        }
        link.kill();
        match rx.recv_timeout(std::time::Duration::from_secs(5)) {
            Ok(WorkerEvent::Gone { slot, generation }) => {
                assert_eq!((slot, generation), (3, 7));
            }
            other => panic!("expected EOF after kill, got {other:?}"),
        }
        link.reap();
    }

    #[test]
    fn empty_command_is_an_error_not_a_panic() {
        let (events, _rx) = unbounded();
        assert!(WorkerLink::spawn(&[], 0, 0, None, false, events).is_err());
    }

    #[test]
    fn trace_lines_are_tagged_with_slot_and_generation() {
        let line =
            "{\"type\":\"trace\",\"job\":4,\"trace\":9,\"stage\":\"plan\",\"us\":1.5,\"t_us\":1}";
        let tagged = WorkerLink::tag_trace_line(line, 2, 3).expect("trace line tags");
        assert_eq!(
            tagged,
            "{\"type\":\"trace\",\"slot\":2,\"gen\":3,\"job\":4,\"trace\":9,\
             \"stage\":\"plan\",\"us\":1.5,\"t_us\":1}"
        );
        // The tagged line is still one valid JSON object.
        let value = serde_json::parse_value(&tagged).expect("valid JSON");
        let object = value.as_object().expect("object");
        assert_eq!(object.get("slot").and_then(serde::Value::as_u64), Some(2));
        assert_eq!(object.get("gen").and_then(serde::Value::as_u64), Some(3));
        // Human log lines pass through untouched.
        assert!(WorkerLink::tag_trace_line("psq-serve: listening", 0, 1).is_none());
        assert!(WorkerLink::tag_trace_line("{\"type\":\"result\"}", 0, 1).is_none());
    }
}
