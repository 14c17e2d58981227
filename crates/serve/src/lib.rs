//! # gaps-serve
//!
//! A long-running scheduling service over the `gaps-engine` pipeline:
//! the ROADMAP's production-shaped surface, and the substrate the
//! online-arrivals follow-on (Chen–Kao–Lee–Rutter–Wagner-style
//! competitive tracking) needs — a continuously running engine instead
//! of a batch lifetime.
//!
//! Clients speak the line-delimited TCP protocol of [`protocol`]
//! (`REQ`/`RES` with client-chosen correlation ids, plus
//! `PING`/`STATS`/`DRAIN` control verbs and the `SESSION
//! begin/arrive/step/end` online-session family). Every request flows
//! through the same `canonicalize → cache → route → solve` loop as
//! `gaps batch` ([`gaps_engine::Engine::solve_request`], split into its
//! cache half [`gaps_engine::Engine::lookup`], run on the connection's
//! reader, and its solver half [`gaps_engine::Engine::solve_pending`],
//! run on the solve pool for misses only), so a serve round-trip is
//! bit-identical to the batch result line for the same instance — and
//! an online session drives the same [`gaps_engine::OnlineTracker`] as
//! `gaps batch --replay-online`, so its ratio line is bit-identical
//! too.
//!
//! The solve pool is *elastic*: [`ServeConfig::threads`] core workers
//! are always running, and under queue pressure the pool grows up to
//! [`ServeConfig::max_threads`], shedding the extra workers again once
//! they sit idle.
//!
//! Operationally the daemon is built around three pressure valves:
//!
//! * **Backpressure** — a cache miss is admitted to a bounded
//!   [`gaps_engine::pool::TaskPool`] queue via a non-blocking submit; a
//!   full queue answers `BUSY <id>` immediately instead of stalling
//!   the connection. Hits are answered before admission, so `BUSY`
//!   only ever refuses solver time.
//! * **Overload shedding** — an instance whose job count exceeds
//!   [`ServeConfig::shed_jobs`], or any instance arriving while the
//!   queue is at least [`ServeConfig::shed_depth`] deep, is solved with
//!   the degraded router ([`gaps_engine::RouterConfig::shed`]): a
//!   multi-interval instance gets its bounded interval in polynomial
//!   time, and the result is not cached.
//! * **Graceful drain** — SIGTERM, SIGINT, or a `DRAIN` frame stops
//!   accepting, finishes every queued and in-flight request (their
//!   `RES` lines are flushed), closes connections, and returns the
//!   final [`MetricsSnapshot`].
//!
//! Live metrics come from the engine-lifetime
//! [`gaps_engine::MetricsRegistry`], snapshotted by `STATS` and by an
//! optional stderr report ticker.

pub mod protocol;
mod session;
pub mod signal;

use gaps_engine::pool::{self, TaskPool};
use gaps_engine::{Engine, EngineConfig, MetricsSnapshot, Objective};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
// Wall-clock reads are legal here: `crates/serve` is on the analyzer's
// determinism-rule allowlist (the daemon's tickers and uptime are
// clock consumers by design; solve results never depend on them).
use std::time::{Duration, Instant};

/// Daemon construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub listen: String,
    /// Core solve-pool worker threads (always running).
    pub threads: usize,
    /// Elastic solve-pool ceiling: under queue pressure the pool grows
    /// up to this many workers, and the extras retire after
    /// [`gaps_engine::pool::DEFAULT_IDLE_TIMEOUT`] idle. Clamped up to
    /// `threads` (a ceiling below the core count means "fixed pool").
    pub max_threads: usize,
    /// Bounded admission-queue capacity for cache misses; a full queue
    /// answers `BUSY`.
    pub queue_capacity: usize,
    /// Maximum simultaneously served connections.
    pub max_conns: usize,
    /// Objective every request is solved under.
    pub objective: Objective,
    /// Shed any instance with more jobs than this (default: never).
    pub shed_jobs: usize,
    /// Shed every instance admitted while the queue is at least this
    /// deep (default: never).
    pub shed_depth: u64,
    /// Print a metrics snapshot to stderr this often (default: off).
    pub report_interval: Option<Duration>,
    /// Engine (cache + router) configuration. Its `threads` field sizes
    /// only `Engine::run_batch`, which the daemon never calls: the solve
    /// pool is sized by [`ServeConfig::threads`] and
    /// [`ServeConfig::max_threads`], and each request solves on one
    /// pool worker.
    pub engine: EngineConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:7477".to_string(),
            threads: 4,
            max_threads: 4,
            queue_capacity: 256,
            max_conns: 32,
            objective: Objective::Gaps,
            shed_jobs: usize::MAX,
            shed_depth: u64::MAX,
            report_interval: None,
            engine: EngineConfig::default(),
        }
    }
}

/// State shared between the accept loop, connection readers, and
/// solve-pool workers.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) pool: TaskPool,
    pub(crate) objective: Objective,
    /// Bind time, for the `uptime_s` stat and report-ticker prefix.
    pub(crate) started: Instant,
    shed_jobs: usize,
    shed_depth: u64,
    draining: AtomicBool,
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    /// True once shutdown has been requested by any path (`DRAIN`
    /// frame, SIGTERM/SIGINT).
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(SeqCst) || signal::termination_requested()
    }

    pub(crate) fn request_drain(&self) {
        self.draining.store(true, SeqCst);
    }

    pub(crate) fn should_shed(&self, jobs: usize) -> bool {
        jobs > self.shed_jobs || self.pool.queued() >= self.shed_depth
    }

    pub(crate) fn unregister_conn(&self, conn_id: u64) {
        self.conns.lock().retain(|(id, _)| *id != conn_id);
    }
}

/// A bound-but-not-yet-running daemon. Splitting bind from run lets
/// callers (the CLI, tests) learn the actual listen address — port 0
/// resolves at bind time — before the accept loop takes the thread.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    max_conns: usize,
    report_interval: Option<Duration>,
}

impl Server {
    /// Bind the listen socket and assemble the engine + pools.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("cannot bind {}: {e}", config.listen))?;
        let shared = Arc::new(Shared {
            engine: Engine::new(config.engine.clone()),
            pool: TaskPool::elastic(
                config.threads,
                config.max_threads.max(config.threads),
                config.queue_capacity,
                pool::DEFAULT_IDLE_TIMEOUT,
            ),
            objective: config.objective,
            started: Instant::now(),
            shed_jobs: config.shed_jobs,
            shed_depth: config.shed_depth,
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        Ok(Server {
            listener,
            shared,
            max_conns: config.max_conns.max(1),
            report_interval: config.report_interval,
        })
    }

    /// The address actually bound (resolves a `:0` request).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("cannot read local addr: {e}"))
    }

    /// Run the accept loop until drain is requested, then shut down
    /// gracefully: finish queued and in-flight requests, flush their
    /// responses, close every connection, and return the final metrics
    /// snapshot.
    pub fn run(self) -> Result<MetricsSnapshot, String> {
        signal::install();
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set listener non-blocking: {e}"))?;
        let ticker = self.report_interval.map(|interval| {
            let shared = Arc::clone(&self.shared);
            pool::background("report-ticker", move || {
                let step = Duration::from_millis(100);
                loop {
                    let mut slept = Duration::ZERO;
                    while slept < interval {
                        if shared.draining() {
                            return;
                        }
                        let chunk = step.min(interval - slept);
                        std::thread::sleep(chunk);
                        slept += chunk;
                    }
                    let metrics = shared.engine.metrics();
                    metrics.set_queue_depth(shared.pool.queued());
                    metrics.set_pool_workers(shared.pool.workers());
                    eprintln!(
                        "serve: up={}s {}",
                        shared.started.elapsed().as_secs(),
                        shared.engine.metrics().snapshot()
                    );
                }
            })
        });

        // Connection readers live in their own pool: `max_conns` workers
        // behind a queue as deep, so the capacity check below is the only
        // limit — a burst of simultaneous connects is queued for readers
        // that have not woken yet instead of being reset — and
        // over-admission is refused at accept time with a reason.
        let conn_pool = TaskPool::new(self.max_conns, self.max_conns);
        let mut next_conn_id = 0u64;
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if conn_pool.active() + conn_pool.queued() >= self.max_conns as u64 {
                        refuse_connection(stream);
                        continue;
                    }
                    // The accepted socket may inherit the listener's
                    // non-blocking mode; sessions want blocking reads.
                    // Replies are small lines: with Nagle's algorithm on,
                    // one written while an earlier reply is still
                    // unacknowledged would wait for the client's next
                    // segment.
                    if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    // Keep a handle so drain can shut the socket down
                    // under a blocked reader.
                    if let Ok(clone) = stream.try_clone() {
                        self.shared.conns.lock().push((conn_id, clone));
                    }
                    let shared = Arc::clone(&self.shared);
                    let admitted = conn_pool
                        .try_submit(move || session::serve_connection(shared, conn_id, stream));
                    if admitted.is_err() {
                        // Raced past the capacity check; the dropped
                        // closure closed the socket.
                        self.shared.unregister_conn(conn_id);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }

        // Drain sequence. Order matters: finish solving (their `RES`
        // lines need live sockets) before closing connections.
        self.shared.pool.shutdown();
        for (_, stream) in self.shared.conns.lock().iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        conn_pool.shutdown();
        if let Some(handle) = ticker {
            let _ = handle.join();
        }
        self.shared.engine.metrics().set_queue_depth(0);
        Ok(self.shared.engine.metrics().snapshot())
    }
}

/// Tell an over-capacity client why it is being dropped. Best-effort.
fn refuse_connection(mut stream: TcpStream) {
    use std::io::Write;
    let _ = stream.write_all(b"ERR - connection limit reached\n");
}

/// Bind and run in one call — the CLI entry point.
pub fn run(config: ServeConfig) -> Result<MetricsSnapshot, String> {
    Server::bind(config)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_never_shed() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.shed_jobs, usize::MAX);
        assert_eq!(cfg.shed_depth, u64::MAX);
        assert!(cfg.report_interval.is_none());
    }

    #[test]
    fn bind_resolves_port_zero_and_drain_flag_round_trips() {
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.local_addr().expect("addr");
        assert_ne!(addr.port(), 0);
        assert!(!server.shared.draining());
        server.shared.request_drain();
        assert!(server.shared.draining());
    }

    #[test]
    fn shed_policy_keys_on_jobs_and_queue_depth() {
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            shed_jobs: 8,
            shed_depth: 1_000,
            ..ServeConfig::default()
        })
        .expect("bind");
        assert!(!server.shared.should_shed(8));
        assert!(server.shared.should_shed(9));
        // Empty queue (depth 0) < 1000, so depth alone does not shed.
        assert!(!server.shared.should_shed(1));
    }

    #[test]
    fn served_sockets_disable_nagle() {
        use std::io::{BufRead, BufReader, Write};
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let shared = Arc::clone(&server.shared);
        let (tx, done) = crossbeam::channel::unbounded();
        pool::background("nodelay-daemon", move || {
            let _ = tx.send(server.run().is_ok());
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        client.write_all(b"PING\n").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        assert_eq!(line, "PONG\n");
        // The registered handle shares the served socket's options.
        let conns = shared.conns.lock();
        assert_eq!(conns.len(), 1);
        assert!(conns[0].1.nodelay().expect("read TCP_NODELAY"));
        drop(conns);
        client.write_all(b"DRAIN\n").expect("send");
        assert_eq!(done.recv().ok(), Some(true), "daemon exits cleanly");
    }

    #[test]
    fn bad_listen_address_is_a_clean_error() {
        let err = match Server::bind(ServeConfig {
            listen: "not-an-address".to_string(),
            ..ServeConfig::default()
        }) {
            Err(e) => e,
            Ok(_) => panic!("binding a junk address must fail"),
        };
        assert!(err.contains("cannot bind"), "{err}");
    }
}
