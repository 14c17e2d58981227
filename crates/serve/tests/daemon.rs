//! End-to-end daemon tests over a real TCP socket: batch parity,
//! malformed-input resilience, backpressure, shedding, stats, and
//! graceful drain.
//!
//! Each test binds an ephemeral port, runs the accept loop on a
//! background thread (via `gaps_engine::pool::background` — the
//! workspace's one sanctioned spawn point), and talks to it like a real
//! client.

use gaps_engine::pool;
use gaps_engine::{split_stream, Engine, EngineConfig, MetricsSnapshot, Objective};
use gaps_serve::protocol::{encode_payload, MAX_FRAME_BYTES};
use gaps_serve::{ServeConfig, Server};
use gaps_workloads::{multi_interval, serialize, streams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A running daemon plus the channel its final snapshot arrives on.
struct Daemon {
    addr: SocketAddr,
    done: crossbeam::channel::Receiver<Result<MetricsSnapshot, String>>,
}

fn start(config: ServeConfig) -> Daemon {
    let server = Server::bind(ServeConfig {
        listen: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let (tx, done) = crossbeam::channel::unbounded();
    pool::background("test-daemon", move || {
        let _ = tx.send(server.run());
    });
    Daemon { addr, done }
}

impl Daemon {
    /// Wait for the accept loop to return its final metrics snapshot.
    fn finish(self) -> MetricsSnapshot {
        self.done
            .recv()
            .expect("daemon thread reports")
            .expect("daemon exits cleanly")
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone read half"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send line");
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send raw bytes");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv line");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Read until `STATS end`, returning the `stat` rows as a map.
    fn recv_stats(&mut self) -> HashMap<String, String> {
        assert_eq!(self.recv(), "STATS v4");
        let mut rows = HashMap::new();
        loop {
            let line = self.recv();
            if line == "STATS end" {
                return rows;
            }
            let mut words = line.splitn(3, ' ');
            assert_eq!(words.next(), Some("stat"), "unexpected stats line {line:?}");
            let key = words.next().expect("stat key").to_string();
            let value = words.next().expect("stat value").to_string();
            rows.insert(key, value);
        }
    }
}

/// A distinct slow instance: 16 jobs over a dense 90-slot pattern is
/// routed to the exponential-in-jobs `multi_exact` solver, so one of
/// these occupies a worker far longer than admitting a request takes —
/// which makes queue-full behaviour deterministic to provoke. `salt`
/// perturbs the slot pattern so repeated requests miss the cache: its
/// parity picks the pattern's phase and the rest drops one of job 0's
/// slots, so every salt below 90 gives a different canonical instance.
fn heavy_instance_text(salt: usize) -> String {
    let mut out = String::from("multi v1\n");
    for job in 0..16 {
        out.push_str("job");
        for t in 0..90 {
            if (t + job + salt).is_multiple_of(2) && !(job == 0 && t / 2 == salt / 2) {
                out.push_str(&format!(" {t}"));
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn five_hundred_instances_bit_match_gaps_batch_at_one_and_four_threads() {
    let text = streams::mixed_stream(36);
    let chunks = streams::instance_chunks(&text);
    let instances = split_stream(&text).expect("stream parses");
    assert!(instances.len() >= 500, "want 500+, got {}", instances.len());
    let chunks = &chunks[..500];
    let engine = Engine::new(EngineConfig::default());
    let (expected, _) = engine.run_batch(&instances[..500], Objective::Gaps);

    for threads in [1usize, 4] {
        let daemon = start(ServeConfig {
            threads,
            queue_capacity: 64,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(daemon.addr);
        // Request in bounded bursts so neither the admission queue nor
        // the socket buffers are asked to hold the whole load at once.
        let mut bodies: HashMap<String, String> = HashMap::new();
        for (burst_no, burst) in chunks.chunks(50).enumerate() {
            for (offset, chunk) in burst.iter().enumerate() {
                let id = burst_no * 50 + offset;
                client.send(&format!("REQ i-{id} {}", encode_payload(chunk)));
            }
            for _ in burst {
                let line = client.recv();
                let mut words = line.splitn(3, ' ');
                assert_eq!(words.next(), Some("RES"), "unexpected reply {line:?}");
                let id = words.next().expect("id").to_string();
                let body = words.next().expect("body").to_string();
                assert!(bodies.insert(id, body).is_none(), "duplicate reply");
            }
        }
        for (index, expected_line) in expected.iter().enumerate() {
            let (_, expected_body) = expected_line.split_once(' ').expect("indexed line");
            assert_eq!(
                bodies.get(&format!("i-{index}")).map(String::as_str),
                Some(expected_body),
                "serve diverged from gaps batch at instance {index} (threads {threads})"
            );
        }
        client.send("DRAIN");
        assert_eq!(client.recv(), "DRAINING");
        let snapshot = daemon.finish();
        assert_eq!(snapshot.requests, 500);
        assert!(
            snapshot.cache_hits >= 20,
            "the stream's duplicate chunks should hit the cache: {snapshot}"
        );
        assert_eq!(snapshot.in_flight, 0, "{snapshot}");
    }
}

#[test]
fn malformed_input_corpus_is_answered_with_err_and_the_daemon_survives() {
    // One worker, so the duplicate-id probe below can park requests
    // behind slow blockers deterministically.
    let daemon = start(ServeConfig {
        threads: 1,
        max_threads: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);

    // Unknown verb.
    client.send("FROB x");
    assert!(client.recv().starts_with("ERR - unknown verb"));
    // Truncated REQ: verb alone, then id without payload.
    client.send("REQ");
    assert!(client.recv().starts_with("ERR - bad request id"));
    client.send("REQ trunc-1");
    assert!(client.recv().starts_with("ERR trunc-1 "));
    // Junk id.
    client.send("REQ b@d!id instance v1");
    assert!(client.recv().starts_with("ERR - bad request id"));
    // Payload that parses as no known instance format.
    client.send("REQ p-1 garbage v9;job 0 1");
    assert!(client.recv().starts_with("ERR p-1 "));
    // Payload with a malformed job line.
    client.send("REQ p-2 instance v1;processors 1;job zero two");
    assert!(client.recv().starts_with("ERR p-2 "));
    // Payload holding two instances where one is required.
    client.send("REQ p-3 instance v1;processors 1;job 0 1;instance v1;processors 1;job 0 1");
    let line = client.recv();
    assert!(
        line.starts_with("ERR p-3 ") && line.contains("exactly one"),
        "{line:?}"
    );
    // Oversized frame: consumed, reported, stream stays synchronized.
    let huge = format!("REQ big {}\n", "x".repeat(MAX_FRAME_BYTES + 10));
    client.send_raw(huge.as_bytes());
    assert!(client.recv().starts_with("ERR - frame exceeds"));
    // Invalid UTF-8.
    client.send_raw(b"REQ utf8 \xff\xfe instance\n");
    assert_eq!(client.recv(), "ERR - frame is not valid UTF-8");
    // Duplicate in-flight id: stack five slow blockers onto the single
    // worker, then send the same id twice back-to-back. The first copy
    // is parked in the queue behind milliseconds of blockers when the reader
    // (µs later) meets the second — which must be rejected.
    let mut burst = format!("REQ blk-0 {}\n", blocker_payload());
    for i in 1..5 {
        burst.push_str(&format!(
            "REQ blk-{i} {}\n",
            encode_payload(&heavy_instance_text(i))
        ));
    }
    let heavy = encode_payload(&heavy_instance_text(7));
    burst.push_str(&format!("REQ dup {heavy}\nREQ dup {heavy}\n"));
    client.send_raw(burst.as_bytes());
    let mut res = 0;
    let mut dup_err = 0;
    for _ in 0..7 {
        let line = client.recv();
        if line.starts_with("ERR dup duplicate request id") {
            dup_err += 1;
        } else {
            assert!(line.starts_with("RES "), "{line:?}");
            res += 1;
        }
    }
    assert_eq!(
        (res, dup_err),
        (6, 1),
        "exactly one copy of the duplicate id is served"
    );
    // …but an id becomes reusable once its response has been sent.
    client.send(&format!("REQ dup {heavy}"));
    assert!(client.recv().starts_with("RES dup "), "cache-warm reuse");

    // After all that abuse the daemon still serves normally.
    client.send("PING");
    assert_eq!(client.recv(), "PONG");
    client.send("REQ ok instance v1;processors 1;job 0 1");
    assert!(client.recv().starts_with("RES ok one n=1 "));
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    let snapshot = daemon.finish();
    assert!(
        snapshot.protocol_errors >= 10,
        "every corpus entry is counted: {snapshot}"
    );
}

#[test]
fn full_queue_answers_busy_instead_of_stalling() {
    let daemon = start(ServeConfig {
        threads: 1,
        max_threads: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    // Flood 40 distinct slow requests in one write, led by a blocker.
    // With one worker (no elastic growth) and a one-slot queue, the
    // reader admits at most a couple before every subsequent submit
    // sees a full queue.
    let mut flood = format!("REQ f-0 {}\n", blocker_payload());
    for i in 1..40 {
        flood.push_str(&format!(
            "REQ f-{i} {}\n",
            encode_payload(&heavy_instance_text(i))
        ));
    }
    client.send_raw(flood.as_bytes());
    let mut res = 0u64;
    let mut busy = 0u64;
    for _ in 0..40 {
        let line = client.recv();
        match line.split(' ').next() {
            Some("RES") => res += 1,
            Some("BUSY") => busy += 1,
            _ => panic!("unexpected reply under load: {line:?}"),
        }
    }
    assert_eq!(res + busy, 40);
    assert!(
        busy >= 1,
        "a one-slot queue under a 40-request flood must push back"
    );
    assert!(res >= 1, "admitted requests still complete");
    // Backpressure is per-request, not a wedge: the daemon keeps serving.
    client.send("PING");
    assert_eq!(client.recv(), "PONG");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    let snapshot = daemon.finish();
    assert_eq!(snapshot.rejected, busy, "{snapshot}");
    assert_eq!(snapshot.requests, res, "{snapshot}");
}

#[test]
fn shed_mode_degrades_oversized_instances_instead_of_refusing() {
    let daemon = start(ServeConfig {
        shed_jobs: 8,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    // 16 jobs > shed_jobs: served by the approximate chain, not the
    // exact solver the router would normally pick.
    client.send(&format!(
        "REQ big {}",
        encode_payload(&heavy_instance_text(1))
    ));
    let line = client.recv();
    assert!(line.starts_with("RES big multi n=16 "), "{line:?}");
    assert!(
        !line.contains("solver=multi_exact"),
        "shed requests must not reach the exact solver: {line:?}"
    );
    // A small instance on the same connection still gets full service.
    client.send("REQ small instance v1;processors 1;job 0 1");
    let line = client.recv();
    assert!(line.starts_with("RES small one n=1 gaps="), "{line:?}");
    client.send("STATS");
    let rows = client.recv_stats();
    assert_eq!(rows.get("requests").map(String::as_str), Some("2"));
    assert_eq!(rows.get("shed").map(String::as_str), Some("1"));
    assert!(rows.contains_key("uptime_s"), "{rows:?}");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    assert_eq!(daemon.finish().shed, 1);
}

#[test]
fn online_session_reports_tracker_ratio_and_stats_v2_rows() {
    let daemon = start(ServeConfig {
        threads: 2,
        max_threads: 4,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    client.send("SESSION begin timeout 4");
    assert_eq!(client.recv(), "SESSION begun policy=timeout alpha=4");
    for (t, expect) in [
        (0, "SESSION t=1 state=awake online=5"),
        (2, "SESSION t=3 state=awake online=7"),
        (20, "SESSION t=21 state=awake online=16"),
    ] {
        client.send(&format!("SESSION arrive {t}"));
        assert_eq!(client.recv(), expect);
    }
    // Trailing idle: timeout(4) stays awake 4 slots then sleeps.
    client.send("SESSION step 6");
    assert_eq!(client.recv(), "SESSION t=27 state=asleep online=20");
    client.send("SESSION end");
    assert_eq!(
        client.recv(),
        "SESSION end policy=timeout alpha=4 jobs=3 online=20 offline=12 ratio=1.6667"
    );
    // Ordinary requests still work on the same connection, and the
    // STATS v4 rows carry the per-policy ratio and pool-worker gauges.
    client.send("REQ after instance v1;processors 1;job 0 1");
    assert!(client.recv().starts_with("RES after one n=1 "));
    client.send("STATS");
    let rows = client.recv_stats();
    assert_eq!(
        rows.get("policy.timeout.sessions").map(String::as_str),
        Some("1")
    );
    assert_eq!(
        rows.get("policy.timeout.ratio_mean").map(String::as_str),
        Some("1.6667")
    );
    assert_eq!(
        rows.get("policy.timeout.ratio_max").map(String::as_str),
        Some("1.6667")
    );
    assert_eq!(rows.get("pool_workers").map(String::as_str), Some("2"));
    // The SESSION end offline solve plus the explicit REQ.
    assert_eq!(rows.get("requests").map(String::as_str), Some("2"));
    assert!(rows.contains_key("solver.forced_chain.p50_us"), "{rows:?}");
    // The search.* rows are always present (zero here — no
    // multi-exact branch-and-bound ran on this connection).
    assert_eq!(
        rows.get("search.nodes_expanded").map(String::as_str),
        Some("0")
    );
    assert!(rows.contains_key("search.components_le_1"), "{rows:?}");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    daemon.finish();
}

#[test]
fn malformed_session_corpus_is_answered_with_err_and_the_session_survives() {
    let daemon = start(ServeConfig::default());
    let mut client = Client::connect(daemon.addr);

    // Out-of-order verbs before any session exists.
    client.send("SESSION arrive 3");
    assert!(client.recv().starts_with("ERR - no SESSION active"));
    client.send("SESSION step 1");
    assert!(client.recv().starts_with("ERR - no SESSION active"));
    client.send("SESSION end");
    assert!(client.recv().starts_with("ERR - no SESSION active"));
    // Parse-level garbage.
    client.send("SESSION");
    assert!(client.recv().starts_with("ERR - "));
    client.send("SESSION commence timeout 2");
    assert!(client.recv().starts_with("ERR - unknown SESSION sub-verb"));
    client.send("SESSION begin");
    assert!(client.recv().starts_with("ERR - "));
    client.send("SESSION begin timeout nope");
    assert!(client.recv().starts_with("ERR - "));
    // Unknown and online-incapable policies.
    client.send("SESSION begin warp 2");
    assert!(client.recv().starts_with("ERR - unknown online policy"));
    client.send("SESSION begin clairvoyant 2");
    assert!(client.recv().contains("lookahead"));

    // A real session now begins; double-begin is refused without
    // killing it.
    client.send("SESSION begin timeout 2");
    assert_eq!(client.recv(), "SESSION begun policy=timeout alpha=2");
    client.send("SESSION begin timeout 2");
    assert!(client.recv().starts_with("ERR - SESSION already active"));
    client.send("SESSION arrive 5");
    assert_eq!(client.recv(), "SESSION t=6 state=awake online=3");
    // Time running backwards is refused; the session keeps going.
    client.send("SESSION arrive 2");
    assert!(client.recv().contains("behind the frontier"));
    client.send("SESSION end");
    assert!(client.recv().starts_with("SESSION end policy=timeout "));
    // End-without-begin again now that the session is consumed.
    client.send("SESSION end");
    assert!(client.recv().starts_with("ERR - no SESSION active"));

    // The connection still serves everything else.
    client.send("PING");
    assert_eq!(client.recv(), "PONG");
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    let snapshot = daemon.finish();
    assert!(
        snapshot.protocol_errors >= 12,
        "every corpus entry is counted: {snapshot}"
    );
}

#[test]
fn drain_finishes_queued_work_before_closing_connections() {
    let daemon = start(ServeConfig {
        threads: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    // Five slow requests, then DRAIN in the same write: every admitted
    // request must still be answered before the socket closes.
    let mut burst = String::new();
    for i in 0..5 {
        burst.push_str(&format!(
            "REQ d-{i} {}\n",
            encode_payload(&heavy_instance_text(10 + i))
        ));
    }
    burst.push_str("DRAIN\n");
    client.send_raw(burst.as_bytes());
    let mut res = 0;
    let mut draining = 0;
    for _ in 0..6 {
        let line = client.recv();
        if line == "DRAINING" {
            draining += 1;
        } else {
            assert!(line.starts_with("RES d-"), "{line:?}");
            res += 1;
        }
    }
    assert_eq!((res, draining), (5, 1));
    let snapshot = daemon.finish();
    assert_eq!(snapshot.requests, 5);
    assert_eq!(snapshot.in_flight, 0, "{snapshot}");
    assert_eq!(snapshot.queue_depth, 0, "{snapshot}");
}

#[test]
fn requests_after_drain_are_refused() {
    let daemon = start(ServeConfig::default());
    let mut client = Client::connect(daemon.addr);
    client.send("REQ warm instance v1;processors 1;job 0 1");
    assert!(client.recv().starts_with("RES warm "));
    client.send_raw(b"DRAIN\nREQ late instance v1;processors 1;job 0 1\n");
    assert_eq!(client.recv(), "DRAINING");
    let line = client.recv();
    assert!(
        line.starts_with("ERR late draining"),
        "late requests are refused, not silently dropped: {line:?}"
    );
    let snapshot = daemon.finish();
    assert_eq!(snapshot.requests, 1);
}

/// One instance that keeps a worker busy for milliseconds: an 18-job
/// banded multi-interval instance whose branch-and-bound must open
/// (about 2.5 ms single-threaded in a release build on a 2-CPU x86 box,
/// about 16 ms in a debug build) — far longer than the microseconds the
/// reader needs for the rest of a burst, so requests sent right behind
/// it reliably find the one-worker pool saturated.
fn blocker_payload() -> String {
    let mut rng = StdRng::seed_from_u64(2);
    let inst = multi_interval::banded(&mut rng, 18, 3, 8, 2);
    encode_payload(&serialize::multi_to_text(&inst))
}

/// `--threads` sizes the serve pool and nothing else: a heavy request
/// gets the same reply and expands the same branch-and-bound nodes on a
/// one-worker and a two-worker daemon.
#[test]
fn serve_threads_leave_the_heavy_search_sequential() {
    let mut seen = Vec::new();
    for threads in [1, 2] {
        let daemon = start(ServeConfig {
            threads,
            max_threads: threads,
            ..ServeConfig::default()
        });
        let mut client = Client::connect(daemon.addr);
        client.send(&format!("REQ heavy {}", blocker_payload()));
        let reply = client.recv();
        assert!(reply.contains("solver=multi_exact"), "{reply}");
        client.send("STATS");
        let rows = client.recv_stats();
        let nodes: u64 = rows["search.nodes_expanded"].parse().unwrap();
        assert!(nodes > 0, "threads {threads}: the search must open");
        seen.push((reply, nodes));
        client.send("DRAIN");
        assert_eq!(client.recv(), "DRAINING");
        daemon.finish();
    }
    assert_eq!(seen[0], seen[1], "one and two serve threads diverged");
}

/// A small one-interval request payload, distinct per `k` to the cache
/// (one job whose window is `k + 1` slots wide).
fn small_payload(k: usize) -> String {
    format!("instance v1;processors 1;job 0 {}", k + 1)
}

#[test]
fn warmed_hits_are_answered_inline_while_the_pool_is_saturated() {
    let daemon = start(ServeConfig {
        threads: 1,
        max_threads: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    for k in 0..10 {
        client.send(&format!("REQ w-{k} {}", small_payload(k)));
        assert!(client.recv().starts_with(&format!("RES w-{k} ")));
    }
    // One write: a blocker that holds the only worker, then distinct
    // heavy misses interleaved with warmed hits. The one-slot queue
    // refuses most misses; the hits never reach the pool, so none of
    // them may be refused.
    let mut flood = format!("REQ blk {}\n", blocker_payload());
    for i in 0..30 {
        flood.push_str(&format!(
            "REQ f-{i} {}\nREQ h-{i} {}\n",
            encode_payload(&heavy_instance_text(i)),
            small_payload(i % 10)
        ));
    }
    client.send_raw(flood.as_bytes());
    let (mut solved, mut busy, mut hits) = (0u64, 0u64, 0u64);
    for _ in 0..61 {
        let line = client.recv();
        let mut words = line.split(' ');
        let verb = words.next();
        let class = words.next().map(|id| id.split('-').next());
        match (verb, class) {
            (Some("RES"), Some(Some("h"))) => hits += 1,
            (Some("RES"), Some(Some("f" | "blk"))) => solved += 1,
            (Some("BUSY"), Some(Some("f"))) => busy += 1,
            _ => panic!("unexpected reply: {line:?}"),
        }
    }
    assert_eq!(hits, 30, "every warmed hit is answered");
    assert!(busy >= 1, "the saturated pool pushes back on misses");
    client.send("STATS");
    let rows = client.recv_stats();
    let stat = |key: &str| -> u64 {
        rows.get(key)
            .unwrap_or_else(|| panic!("missing stat {key}"))
            .parse()
            .expect("numeric stat")
    };
    assert_eq!(stat("requests"), stat("cache_hits") + stat("cache_misses"));
    assert_eq!(
        stat("requests"),
        10 + hits + solved,
        "refused misses are not requests"
    );
    assert_eq!(stat("cache_hits"), hits);
    assert_eq!(stat("rejected"), busy, "only misses are ever refused");
    assert_eq!(stat("in_flight"), 0);
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    daemon.finish();
}

#[test]
fn a_hit_whose_id_is_in_flight_on_the_pool_is_a_duplicate() {
    let daemon = start(ServeConfig {
        threads: 1,
        max_threads: 1,
        queue_capacity: 16,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(daemon.addr);
    client.send(&format!("REQ warm {}", small_payload(0)));
    assert!(client.recv().starts_with("RES warm "));
    // Park a miss under id `x` behind a slow blocker, then reuse `x`
    // for a request the cache could answer at once: the id check comes
    // first, so the hit is refused rather than answered.
    let burst = format!(
        "REQ blk {}\nREQ x {}\nREQ x {}\n",
        blocker_payload(),
        encode_payload(&heavy_instance_text(40)),
        small_payload(0)
    );
    client.send_raw(burst.as_bytes());
    let replies: Vec<String> = (0..3).map(|_| client.recv()).collect();
    let dup = replies
        .iter()
        .position(|l| l.starts_with("ERR x duplicate request id"))
        .unwrap_or_else(|| panic!("no duplicate-id refusal in {replies:?}"));
    let res = replies
        .iter()
        .position(|l| l.starts_with("RES x multi n=16 "))
        .unwrap_or_else(|| panic!("the parked miss was not answered: {replies:?}"));
    assert!(dup < res, "the refusal is immediate: {replies:?}");
    assert!(
        replies.iter().any(|l| l.starts_with("RES blk ")),
        "{replies:?}"
    );
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    let snapshot = daemon.finish();
    assert_eq!(snapshot.requests, 3, "{snapshot}");
    assert_eq!(snapshot.in_flight, 0, "{snapshot}");
}

#[test]
fn an_id_is_reusable_as_soon_as_its_answer_is_read() {
    let daemon = start(ServeConfig::default());
    let mut client = Client::connect(daemon.addr);
    for k in 0..200 {
        client.send(&format!("REQ same {}", small_payload(k)));
        let line = client.recv();
        assert!(
            line.starts_with("RES same one n=1 "),
            "iteration {k}: {line:?}"
        );
    }
    client.send("DRAIN");
    assert_eq!(client.recv(), "DRAINING");
    let snapshot = daemon.finish();
    assert_eq!(
        snapshot.cache_misses, 200,
        "every request was a miss: {snapshot}"
    );
    assert_eq!(snapshot.protocol_errors, 0, "{snapshot}");
}

#[test]
fn simultaneous_connects_are_all_served() {
    let daemon = start(ServeConfig {
        max_conns: 8,
        ..ServeConfig::default()
    });
    // Connect all eight before any speaks: they land in the listen
    // backlog together and the accept loop takes them back to back.
    let mut clients: Vec<Client> = (0..8).map(|_| Client::connect(daemon.addr)).collect();
    for client in &mut clients {
        client.send("PING");
    }
    for client in &mut clients {
        assert_eq!(client.recv(), "PONG");
    }
    clients[0].send("DRAIN");
    assert_eq!(clients[0].recv(), "DRAINING");
    daemon.finish();
}
