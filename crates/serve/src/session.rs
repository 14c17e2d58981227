//! Per-connection protocol session: read frames, answer them, never
//! die.
//!
//! One reader thread per connection (drawn from the connection pool)
//! owns the read half; the write half sits behind a `parking_lot` mutex
//! shared with every solve-pool worker answering this connection's
//! cache misses, so responses from different requests interleave
//! whole-line at a time. Cache hits never reach the pool: the reader
//! answers them before admission, so a hit's `RES` may overtake the
//! replies to earlier misses on the same connection (ids correlate
//! them). The writer lock is a leaf: nothing else is ever acquired
//! under it, and no channel operation happens while it is held.
//!
//! `SESSION` frames are the exception to the fan-out model: an online
//! session is inherently serial (each arrival's sleep/wake decision
//! depends on everything revealed before it), so the reader thread
//! drives the [`OnlineTracker`] synchronously and never touches the
//! solve pool for it. The one offline solve at `SESSION end` also runs
//! on the reader thread — it is the session's last act and nothing else
//! on this connection can be waiting behind it.

use crate::protocol::{self, Frame, FrameError, SessionCmd};
use crate::Shared;
use gaps_engine::pool::SubmitError;
use gaps_engine::{router, BatchInstance, OnlineTracker};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Write one reply line (the text may itself contain newlines for
/// multi-line blocks like `STATS`). Write errors mean the client went
/// away; the reader will see EOF and end the session, so they are
/// deliberately ignored here.
fn send_line(writer: &Mutex<TcpStream>, text: &str) {
    let framed = format!("{text}\n");
    let mut stream = writer.lock();
    let _ = stream.write_all(framed.as_bytes());
}

/// Decode a `REQ` payload into exactly one instance.
fn parse_one_instance(text: &str) -> Result<BatchInstance, String> {
    // Error text travels on a single `ERR` line.
    let mut instances = gaps_engine::split_stream(text).map_err(|e| e.replace('\n', "; "))?;
    match instances.len() {
        1 => Ok(instances.pop().expect("length checked")),
        0 => Err("REQ payload contains no instance".to_string()),
        n => Err(format!(
            "REQ payload contains {n} instances; exactly one expected"
        )),
    }
}

/// Render and send the `STATS` block.
fn send_stats(shared: &Shared, writer: &Mutex<TcpStream>) {
    let metrics = shared.engine.metrics();
    metrics.set_queue_depth(shared.pool.queued());
    metrics.set_pool_workers(shared.pool.workers());
    let snapshot = metrics.snapshot();
    let mut block = String::from("STATS v4\n");
    block.push_str(&format!(
        "stat uptime_s {}\n",
        shared.started.elapsed().as_secs()
    ));
    for (key, value) in snapshot.stat_rows() {
        block.push_str(&format!("stat {key} {value}\n"));
    }
    block.push_str("STATS end");
    send_line(writer, &block);
}

/// RAII ownership of one request's liveness bookkeeping: the in-flight
/// gauge and the per-connection duplicate-id set. Dropping the claim —
/// on the happy path, when admission refuses the job that owns it, or
/// while a solver panic unwinds through the pool's `catch_unwind` —
/// releases both. Answers drop the claim *before* writing their reply,
/// so a client may reuse an id as soon as it has read the answer.
struct InflightClaim {
    shared: Arc<Shared>,
    inflight: Arc<Mutex<HashSet<String>>>,
    id: String,
}

impl InflightClaim {
    /// Claim `id` for this connection, or `None` if it is already in
    /// flight.
    fn try_enter(
        shared: &Arc<Shared>,
        inflight: &Arc<Mutex<HashSet<String>>>,
        id: &str,
    ) -> Option<InflightClaim> {
        if !inflight.lock().insert(id.to_string()) {
            return None;
        }
        shared.engine.metrics().inflight_enter();
        Some(InflightClaim {
            shared: Arc::clone(shared),
            inflight: Arc::clone(inflight),
            id: id.to_string(),
        })
    }
}

impl Drop for InflightClaim {
    fn drop(&mut self) {
        self.shared.engine.metrics().inflight_exit();
        self.inflight.lock().remove(&self.id);
    }
}

/// Answer one `REQ`. Cache hits are finished answers, so the reader
/// thread writes them itself; only misses are submitted to the solve
/// pool, and so only misses can be refused with `BUSY`.
fn handle_req(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    inflight: &Arc<Mutex<HashSet<String>>>,
    id: String,
    text: String,
) {
    let metrics = shared.engine.metrics();
    if shared.draining() {
        send_line(writer, &format!("ERR {id} draining; not accepting work"));
        return;
    }
    // An instance too large for its DP is refused here, on the reader,
    // before canonicalization allocates its timeline.
    let checked = parse_one_instance(&text)
        .and_then(|inst| router::check_dp_limits(&inst, shared.objective).map(|()| inst));
    let inst = match checked {
        Ok(inst) => inst,
        Err(reason) => {
            metrics.record_protocol_error();
            send_line(writer, &format!("ERR {id} {reason}"));
            return;
        }
    };
    let Some(claim) = InflightClaim::try_enter(shared, inflight, &id) else {
        metrics.record_protocol_error();
        send_line(
            writer,
            &format!("ERR {id} duplicate request id; still in flight"),
        );
        return;
    };
    // The shed decision is made at admission (not inside the worker) so
    // it reflects the queue state the request actually experienced.
    let shed = shared.should_shed(inst.job_count());
    let pending = match shared.engine.lookup(&inst, shared.objective, shed) {
        Ok(hit) => {
            drop(claim);
            send_line(writer, &format!("RES {id} {}", hit.body));
            return;
        }
        Err(pending) => pending,
    };
    let job = {
        let shared = Arc::clone(shared);
        let writer = Arc::clone(writer);
        let id = id.clone();
        move || {
            shared
                .engine
                .metrics()
                .set_queue_depth(shared.pool.queued());
            let outcome = shared.engine.solve_pending(pending);
            drop(claim);
            send_line(&writer, &format!("RES {id} {}", outcome.body));
        }
    };
    // A refused job is dropped inside `try_submit`, and its claim with
    // it, before the refusal below is written.
    match shared.pool.try_submit(job) {
        Ok(()) => metrics.set_queue_depth(shared.pool.queued()),
        Err(SubmitError::Full) => {
            metrics.record_rejected();
            send_line(writer, &format!("BUSY {id}"));
        }
        Err(SubmitError::Closed) => {
            send_line(writer, &format!("ERR {id} shutting down"));
        }
    }
}

/// Drive the connection's (at most one) online session. Every
/// out-of-order or malformed step is answered with `ERR -` and counted
/// as a protocol error; the session — and the connection — survive.
fn handle_session(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    slot: &mut Option<OnlineTracker>,
    cmd: SessionCmd,
) {
    let metrics = shared.engine.metrics();
    match cmd {
        SessionCmd::Begin { policy, alpha } => {
            if shared.draining() {
                send_line(writer, "ERR - draining; not accepting sessions");
                return;
            }
            if slot.is_some() {
                metrics.record_protocol_error();
                send_line(writer, "ERR - SESSION already active (end it first)");
                return;
            }
            match OnlineTracker::new(&policy, alpha) {
                Ok(tracker) => {
                    send_line(
                        writer,
                        &format!(
                            "SESSION begun policy={} alpha={alpha}",
                            tracker.policy_name()
                        ),
                    );
                    *slot = Some(tracker);
                }
                Err(reason) => {
                    metrics.record_protocol_error();
                    send_line(writer, &format!("ERR - {reason}"));
                }
            }
        }
        SessionCmd::Arrive { t } => {
            let Some(tracker) = slot.as_mut() else {
                metrics.record_protocol_error();
                send_line(writer, "ERR - no SESSION active (begin first)");
                return;
            };
            match tracker.arrive(t) {
                Ok(state) => send_session_state(writer, state),
                Err(reason) => {
                    metrics.record_protocol_error();
                    send_line(writer, &format!("ERR - {reason}"));
                }
            }
        }
        SessionCmd::Step { n } => {
            let Some(tracker) = slot.as_mut() else {
                metrics.record_protocol_error();
                send_line(writer, "ERR - no SESSION active (begin first)");
                return;
            };
            match tracker.step(n) {
                Ok(state) => send_session_state(writer, state),
                Err(reason) => {
                    metrics.record_protocol_error();
                    send_line(writer, &format!("ERR - {reason}"));
                }
            }
        }
        SessionCmd::End => {
            let Some(tracker) = slot.take() else {
                metrics.record_protocol_error();
                send_line(writer, "ERR - no SESSION active (begin first)");
                return;
            };
            match tracker.finish(&shared.engine) {
                Ok(summary) => send_line(writer, &format!("SESSION end {}", summary.line())),
                Err(reason) => send_line(writer, &format!("ERR - {reason}")),
            }
        }
    }
}

fn send_session_state(writer: &Mutex<TcpStream>, state: gaps_engine::SessionState) {
    let mode = if state.awake { "awake" } else { "asleep" };
    send_line(
        writer,
        &format!(
            "SESSION t={} state={mode} online={}",
            state.frontier, state.online_cost
        ),
    );
}

/// Serve one connection until EOF, a socket error, or server shutdown
/// (which closes the socket under us). Every malformed frame is
/// answered with `ERR` and the session continues.
pub(crate) fn serve_connection(shared: Arc<Shared>, conn_id: u64, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        shared.unregister_conn(conn_id);
        return;
    };
    let mut reader = BufReader::new(read_half);
    let writer = Arc::new(Mutex::new(stream));
    let inflight: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
    // At most one online session per connection, owned by the reader
    // thread; it dies with the connection.
    let mut session: Option<OnlineTracker> = None;
    // The loop ends on EOF, an io error, or the drain path shutting the
    // socket down under us — all shapes the `while let` rejects.
    while let Ok(Some(item)) = protocol::read_line_limited(&mut reader, protocol::MAX_FRAME_BYTES) {
        let line = match item {
            Ok(line) => line,
            Err(line_err) => {
                shared.engine.metrics().record_protocol_error();
                send_line(&writer, &format!("ERR - {}", line_err.reason()));
                continue;
            }
        };
        match protocol::parse_frame(&line) {
            Ok(None) => {}
            Ok(Some(Frame::Ping)) => send_line(&writer, "PONG"),
            Ok(Some(Frame::Stats)) => send_stats(&shared, &writer),
            Ok(Some(Frame::Drain)) => {
                // Acknowledge first: once the flag flips, the accept loop
                // may shut this socket down before a later write lands.
                send_line(&writer, "DRAINING");
                shared.request_drain();
            }
            Ok(Some(Frame::Req { id, text })) => {
                handle_req(&shared, &writer, &inflight, id, text);
            }
            Ok(Some(Frame::Session(cmd))) => {
                handle_session(&shared, &writer, &mut session, cmd);
            }
            Err(FrameError { id, reason }) => {
                shared.engine.metrics().record_protocol_error();
                let id = id.as_deref().unwrap_or("-");
                send_line(&writer, &format!("ERR {id} {reason}"));
            }
        }
    }
    shared.unregister_conn(conn_id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaps_engine::pool::TaskPool;
    use gaps_engine::{Engine, EngineConfig, Objective};
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    fn shared() -> Arc<Shared> {
        Arc::new(Shared {
            engine: Engine::new(EngineConfig::default()),
            pool: TaskPool::new(1, 4),
            objective: Objective::Gaps,
            started: Instant::now(),
            shed_jobs: usize::MAX,
            shed_depth: u64::MAX,
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        })
    }

    /// A connected loopback pair: the server half goes behind the
    /// writer mutex, the client half reads the replies back.
    fn socket_pair() -> (Mutex<TcpStream>, BufReader<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (Mutex::new(server), BufReader::new(client))
    }

    fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        line.trim_end().to_string()
    }

    /// Regression for the in-flight leak: the worker closure used to
    /// clean up only after a successful send, so a panicking solver
    /// left the gauge high and the request id claimed forever. The
    /// RAII claim must release both even when the panic unwinds
    /// through `catch_unwind` (as it does in the pool's worker loop).
    #[test]
    fn inflight_claim_releases_on_solver_panic() {
        let shared = shared();
        let inflight: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
        let claim = InflightClaim::try_enter(&shared, &inflight, "r1").expect("fresh id");
        assert_eq!(shared.engine.metrics().snapshot().in_flight, 1);
        assert!(
            InflightClaim::try_enter(&shared, &inflight, "r1").is_none(),
            "a claimed id is a duplicate"
        );
        let unwound = catch_unwind(AssertUnwindSafe(move || {
            let _claim = claim;
            panic!("solver stub panics");
        }));
        assert!(unwound.is_err(), "the stub must actually panic");
        assert_eq!(
            shared.engine.metrics().snapshot().in_flight,
            0,
            "in-flight gauge leaked past the panic"
        );
        assert!(
            !inflight.lock().contains("r1"),
            "request id leaked past the panic"
        );
        // A retry under the same id must be admissible again.
        assert!(InflightClaim::try_enter(&shared, &inflight, "r1").is_some());
        shared.pool.shutdown();
    }

    #[test]
    fn inflight_claim_releases_on_happy_path_drop() {
        let shared = shared();
        let inflight: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
        let claim = InflightClaim::try_enter(&shared, &inflight, "ok").expect("fresh id");
        drop(claim);
        assert_eq!(shared.engine.metrics().snapshot().in_flight, 0);
        assert!(!inflight.lock().contains("ok"));
        shared.pool.shutdown();
    }

    /// The session state machine survives every out-of-order verb with
    /// `ERR -`, and a well-formed run reports the tracker's exact
    /// summary line.
    #[test]
    fn session_state_machine_answers_err_and_survives() {
        let shared = shared();
        let (writer, mut reader) = socket_pair();
        let mut slot: Option<OnlineTracker> = None;

        // Arrive / step / end before begin.
        handle_session(&shared, &writer, &mut slot, SessionCmd::Arrive { t: 0 });
        assert!(read_reply(&mut reader).starts_with("ERR - no SESSION active"));
        handle_session(&shared, &writer, &mut slot, SessionCmd::Step { n: 1 });
        assert!(read_reply(&mut reader).starts_with("ERR - no SESSION active"));
        handle_session(&shared, &writer, &mut slot, SessionCmd::End);
        assert!(read_reply(&mut reader).starts_with("ERR - no SESSION active"));

        // Unknown policy leaves the slot empty.
        handle_session(
            &shared,
            &writer,
            &mut slot,
            SessionCmd::Begin {
                policy: "clairvoyant".to_string(),
                alpha: 2,
            },
        );
        assert!(read_reply(&mut reader).starts_with("ERR - "));
        assert!(slot.is_none());

        // A real session: begin, double-begin refused, arrivals echo
        // state, end reports the summary.
        handle_session(
            &shared,
            &writer,
            &mut slot,
            SessionCmd::Begin {
                policy: "timeout".to_string(),
                alpha: 4,
            },
        );
        assert_eq!(
            read_reply(&mut reader),
            "SESSION begun policy=timeout alpha=4"
        );
        handle_session(
            &shared,
            &writer,
            &mut slot,
            SessionCmd::Begin {
                policy: "timeout".to_string(),
                alpha: 4,
            },
        );
        assert!(read_reply(&mut reader).starts_with("ERR - SESSION already active"));
        for (t, expect) in [
            (0, "SESSION t=1 state=awake online=5"),
            (2, "SESSION t=3 state=awake online=7"),
            (20, "SESSION t=21 state=awake online=16"),
        ] {
            handle_session(&shared, &writer, &mut slot, SessionCmd::Arrive { t });
            assert_eq!(read_reply(&mut reader), expect);
        }
        // A backwards arrival is refused but the session survives.
        handle_session(&shared, &writer, &mut slot, SessionCmd::Arrive { t: 1 });
        assert!(read_reply(&mut reader).contains("behind the frontier"));
        assert!(slot.is_some());
        handle_session(&shared, &writer, &mut slot, SessionCmd::End);
        assert_eq!(
            read_reply(&mut reader),
            "SESSION end policy=timeout alpha=4 jobs=3 online=16 offline=12 ratio=1.3333"
        );
        assert!(slot.is_none(), "end consumes the session");

        // Draining refuses new sessions.
        shared.request_drain();
        handle_session(
            &shared,
            &writer,
            &mut slot,
            SessionCmd::Begin {
                policy: "timeout".to_string(),
                alpha: 1,
            },
        );
        assert!(read_reply(&mut reader).starts_with("ERR - draining"));
        shared.pool.shutdown();
    }
}
