//! The two `gaps serve` workloads, driven over loopback by one client
//! process with at most [`inputs::THREADS`] client threads.
//!
//! * `serve_hot` is a closed loop: two connections, one request
//!   outstanding on each, cycling over the warmed small set.
//! * `serve_mixed_open` is an open loop: one pipelined connection, a
//!   request due every `1 / rate` seconds whether or not earlier ones
//!   were answered, 5% of them distinct heavy instances. Latency is
//!   timed from the due time, so a stall also delays everything queued
//!   behind it.

use crate::check::{judge, Tally, Verdict};
use crate::clock::{now, secs_since, Duration};
use crate::daemon::{self, stat_f64, Conn, Daemon, REPLY_DEADLINE};
use crate::e2e::{E2e, SETUP_REPS};
use crate::inputs::{self, Pick, SERVE_OBJECTIVE, THREADS};
use crate::stats::{percentile, supported};
use gaps_engine::BatchInstance;
use gaps_serve::protocol::encode_payload;
use std::io::{BufRead, ErrorKind, Write};
use std::path::Path;

/// Share of open-loop requests that are heavy.
pub const HEAVY_SHARE: f64 = 0.05;

/// Window length of `serve_hot`'s per-window samples. Short windows
/// give many samples per run, so their medians ride out the slow phases
/// of a shared machine.
const WINDOW_S: f64 = 0.5;

/// Window length of `serve_mixed_open`'s per-window samples: long
/// enough that each window's p99 has ten samples beyond it.
const OPEN_WINDOW_S: f64 = 2.0;

/// Untimed closed-loop warm-up after the cache is filled.
const WARMUP_S: f64 = 0.5;

/// The one-line `REQ` payload of an instance.
pub fn payload(inst: &BatchInstance) -> String {
    encode_payload(&inputs::to_text(inst))
}

/// A `REQ` frame. Every request a client sends carries an id of its own,
/// as clients that number their requests do.
pub fn req_line(id: &str, payload: &str) -> String {
    format!("REQ {id} {payload}\n")
}

/// Send each small instance once and wait for its answer: fills the
/// daemon's cache with the small set and checks every answer.
fn warm(conn: &mut Conn, payloads: &[String], expected: &[String], tally: &mut Tally) {
    for (i, (body, want)) in payloads.iter().zip(expected).enumerate() {
        let id = format!("w{i}");
        let line = req_line(&id, body);
        let verdict = match conn.send(line.as_bytes()).and_then(|()| conn.read_reply()) {
            Ok(reply) => judge(&reply, &id, want),
            Err(_) => Verdict::Timeout,
        };
        tally.add(verdict);
    }
}

/// Time set-up around a measurement: half the daemon start-ups before
/// it (plus the measured daemon's own), the rest after `measure`.
fn with_setups<T>(
    gaps: &Path,
    measure: impl FnOnce(Daemon) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let before = SETUP_REPS / 2;
    let mut setup = daemon::setup_times(gaps, before)?;
    let (daemon, secs) = Daemon::start(gaps)?;
    setup.push(secs);
    let out = measure(daemon)?;
    setup.extend(daemon::setup_times(gaps, SETUP_REPS - before - 1)?);
    Ok((out, setup))
}

/// One closed-loop client's results.
#[derive(Default)]
struct ClientRun {
    /// `(completion time since start, round trip)` of each correct
    /// answer, in seconds and milliseconds.
    done: Vec<(f64, f64)>,
    tally: Tally,
}

/// Run every connection as a closed-loop client for `seconds`, cycling
/// over the small set; request ids are `<phase><client>.<n>`. With a
/// `pid`, the daemon's CPU time is read at every window boundary.
fn closed_loop(
    conns: &mut [Conn],
    phase: &str,
    payloads: &[String],
    expected: &[String],
    seconds: f64,
    pid: Option<u32>,
) -> Result<(Vec<ClientRun>, Vec<f64>), String> {
    let start = now();
    let end = start + Duration::from_secs_f64(seconds);
    let clients = conns.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut run = ClientRun::default();
                    let first = c * payloads.len() / clients;
                    for n in 0.. {
                        if now() >= end {
                            break;
                        }
                        let i = (first + n) % payloads.len();
                        let id = format!("{phase}{c}.{n}");
                        let line = req_line(&id, &payloads[i]);
                        let sent = now();
                        let reply = conn.send(line.as_bytes()).and_then(|()| conn.read_reply());
                        let Ok(reply) = reply else {
                            // The connection is gone or out of step;
                            // this client stops.
                            run.tally.add(Verdict::Timeout);
                            break;
                        };
                        let done = now();
                        let verdict = judge(&reply, &id, &expected[i]);
                        if verdict != Verdict::Correct && run.tally.failed() < 3 {
                            eprintln!("request {id} answered {reply:?}");
                        }
                        run.tally.add(verdict);
                        if verdict == Verdict::Correct {
                            run.done.push((
                                done.duration_since(start).as_secs_f64(),
                                done.duration_since(sent).as_secs_f64() * 1e3,
                            ));
                        }
                    }
                    run
                })
            })
            .collect();
        let mut cpu_marks = Vec::new();
        if let Some(pid) = pid {
            for w in 0..=window_count(seconds) {
                let mark = start + Duration::from_secs_f64(w as f64 * WINDOW_S);
                std::thread::sleep(mark.saturating_duration_since(now()));
                cpu_marks.push(crate::procfs::cpu_us(pid)?);
            }
        }
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect();
        Ok((runs, cpu_marks))
    })
}

fn window_count(seconds: f64) -> usize {
    ((seconds / WINDOW_S).floor() as usize).max(1)
}

/// Per-window samples of a closed-loop phase: correct answers per
/// second, latency p50 and p99, and daemon CPU per answer (from the CPU
/// time read at each window boundary).
struct Windows {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    cpu_per_op: Vec<f64>,
}

fn windows(done: &[(f64, f64)], seconds: f64, cpu_marks: &[f64]) -> Windows {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); window_count(seconds)];
    for &(t, ms) in done {
        if let Some(w) = per.get_mut((t / WINDOW_S) as usize) {
            w.push(ms);
        }
    }
    let full: Vec<&Vec<f64>> = per.iter().filter(|w| supported(w.len(), 99.0)).collect();
    Windows {
        rate: per.iter().map(|w| w.len() as f64 / WINDOW_S).collect(),
        p50: full.iter().filter_map(|w| percentile(w, 50.0)).collect(),
        p99: full.iter().filter_map(|w| percentile(w, 99.0)).collect(),
        cpu_per_op: per
            .iter()
            .zip(cpu_marks.windows(2))
            .filter(|(w, _)| !w.is_empty())
            .map(|(w, m)| (m[1] - m[0]) / w.len() as f64)
            .collect(),
    }
}

/// `serve_hot`: closed loop over the warmed small set.
pub fn hot(gaps: &Path, seed: u64, seconds: f64) -> Result<E2e, String> {
    let small = inputs::small_set(seed);
    let expected = inputs::expected_bodies(&small, SERVE_OBJECTIVE);
    let payloads: Vec<String> = small.iter().map(payload).collect();
    let (mut out, setup_s) = with_setups(gaps, |daemon| {
        let (mut conns, dropped) = daemon::open_concurrently(&daemon.addr, THREADS)?;
        let mut out = E2e::default();
        warm(&mut conns[0], &payloads, &expected, &mut out.tally);
        let (warmup, _) = closed_loop(&mut conns, "u", &payloads, &expected, WARMUP_S, None)?;
        for run in &warmup {
            out.tally.merge(&run.tally);
        }
        let (runs, cpu_marks) = closed_loop(
            &mut conns,
            "t",
            &payloads,
            &expected,
            seconds,
            Some(daemon.pid),
        )?;
        out.peak_rss_mb = crate::procfs::peak_rss_mb(daemon.pid)?;
        let stats = conns[0].stats()?;
        daemon.drain(&mut conns[0])?;

        let mut done = Vec::new();
        for run in &runs {
            out.tally.merge(&run.tally);
            done.extend_from_slice(&run.done);
        }
        let w = windows(&done, seconds, &cpu_marks);
        out.throughput = w.rate;
        out.latency_p50_ms = w.p50;
        out.latency_p99_ms = w.p99;
        out.cpu_us_per_op = w.cpu_per_op;
        out.latency_count = done.len();
        let rtt: Vec<f64> = done.iter().map(|&(_, ms)| ms).collect();
        let rtt_p50_ms = percentile(&rtt, 50.0).unwrap_or(0.0);
        out.layer.insert(
            "serve.transport_us_p50",
            rtt_p50_ms * 1e3 - stat_f64(&stats, "latency_p50_us"),
        );
        out.layer
            .insert("serve.rejected", stat_f64(&stats, "rejected"));
        out.layer.insert("serve.conn_dropped", dropped as f64);
        out.layer.insert("serve.hit_latency_p50_ms", rtt_p50_ms);
        out.layer.insert(
            "serve.hit_latency_p99_ms",
            percentile(&rtt, 99.0).unwrap_or(0.0),
        );
        Ok(out)
    })?;
    out.setup_s = setup_s;
    Ok(out)
}

/// How the open loop's requests ended, judged from their due times.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpenAccount {
    /// Verdict counts.
    pub tally: Tally,
    /// Latency from the due time, in ms, of each correct answer
    /// (`None` for every other request).
    pub latency_ms: Vec<Option<f64>>,
}

/// Judge open-loop replies. `due_s[k]` is when request `k` was due and
/// `replies[k]` when (seconds, same clock) and how it was answered. A
/// reply later than `deadline_s` after its due time counts as lost.
pub fn account(due_s: &[f64], replies: &[Option<(f64, Verdict)>], deadline_s: f64) -> OpenAccount {
    let mut out = OpenAccount::default();
    for (due, reply) in due_s.iter().zip(replies) {
        let (verdict, latency) = match *reply {
            Some((at, _)) if at - due > deadline_s => (Verdict::Timeout, None),
            Some((at, Verdict::Correct)) => (Verdict::Correct, Some((at - due) * 1e3)),
            Some((_, verdict)) => (verdict, None),
            None => (Verdict::Timeout, None),
        };
        out.tally.add(verdict);
        out.latency_ms.push(latency);
    }
    out
}

/// What the open loop saw, in seconds since its start.
struct OpenRaw {
    /// When each request was sent (NaN if never).
    sent: Vec<f64>,
    /// Each reply line with its arrival time.
    replies: Vec<Option<(f64, String)>>,
    /// `(time, daemon CPU µs)` read at each window boundary.
    cpu_marks: Vec<(f64, f64)>,
}

/// Send `lines[k]` at `start + k / rate` on `conn` while reading replies
/// and reading the daemon's CPU time every [`OPEN_WINDOW_S`].
fn open_loop(conn: &mut Conn, lines: &[String], rate: f64, pid: u32) -> Result<OpenRaw, String> {
    let n = lines.len();
    conn.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("socket options: {e}"))?;
    let give_up = n as f64 / rate + REPLY_DEADLINE.as_secs_f64();
    let start = now() + Duration::from_millis(10);
    let Conn { reader, writer } = &mut *conn;
    let raw = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut sent = vec![f64::NAN; n];
            for (k, line) in lines.iter().enumerate() {
                let due = start + Duration::from_secs_f64(k as f64 / rate);
                let t = now();
                if due > t {
                    std::thread::sleep(due - t);
                }
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
                sent[k] = now().duration_since(start).as_secs_f64();
            }
            sent
        });
        let mut replies: Vec<Option<(f64, String)>> = vec![None; n];
        let mut cpu_marks = Vec::new();
        let mut got = 0;
        let mut buf = Vec::new();
        while got < n && secs_since(start) < give_up {
            let t = secs_since(start);
            if t >= cpu_marks.len() as f64 * OPEN_WINDOW_S {
                if let Ok(cpu) = crate::procfs::cpu_us(pid) {
                    cpu_marks.push((t, cpu));
                }
            }
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => break,
                Ok(_) if buf.ends_with(b"\n") => {
                    let at = now().duration_since(start).as_secs_f64();
                    let line = String::from_utf8_lossy(&buf).trim_end().to_string();
                    buf.clear();
                    let id = line
                        .split(' ')
                        .nth(1)
                        .and_then(|id| id.parse::<usize>().ok());
                    if let Some(slot) = id.and_then(|k| replies.get_mut(k)) {
                        if slot.is_none() {
                            *slot = Some((at, line));
                            got += 1;
                        }
                    }
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
        if let Ok(cpu) = crate::procfs::cpu_us(pid) {
            cpu_marks.push((secs_since(start), cpu));
        }
        let sent = writer.join().expect("writer thread does not panic");
        OpenRaw {
            sent,
            replies,
            cpu_marks,
        }
    });
    conn.reader
        .get_ref()
        .set_read_timeout(Some(REPLY_DEADLINE))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(raw)
}

/// `serve_mixed_open`: `plan`'s requests, open loop at `rate` per second.
pub fn mixed_open(gaps: &Path, plan: &OpenPlan, seconds: f64, rate: f64) -> Result<E2e, String> {
    let (mut out, setup_s) =
        with_setups(gaps, |daemon| open_measured(daemon, plan, seconds, rate))?;
    out.setup_s = setup_s;
    Ok(out)
}

fn open_measured(daemon: Daemon, plan: &OpenPlan, seconds: f64, rate: f64) -> Result<E2e, String> {
    let (mut conns, dropped) = daemon::open_concurrently(&daemon.addr, 1)?;
    let conn = &mut conns[0];
    let mut out = E2e::default();
    warm(
        conn,
        &plan.small_payloads,
        &plan.small_expected,
        &mut out.tally,
    );
    let OpenRaw {
        sent,
        replies,
        cpu_marks,
    } = open_loop(conn, &plan.lines, rate, daemon.pid)?;
    out.peak_rss_mb = crate::procfs::peak_rss_mb(daemon.pid)?;
    let stats = conn.stats()?;
    daemon.drain(conn)?;

    let due: Vec<f64> = (0..plan.lines.len()).map(|k| k as f64 / rate).collect();
    let judged: Vec<Option<(f64, Verdict)>> = replies
        .iter()
        .enumerate()
        .map(|(k, r)| {
            r.as_ref()
                .map(|(at, line)| (*at, judge(line, &k.to_string(), plan.expected(k))))
        })
        .collect();
    let acc = account(&due, &judged, REPLY_DEADLINE.as_secs_f64());
    out.tally.merge(&acc.tally);
    let windows = ((seconds / OPEN_WINDOW_S).floor() as usize).max(1);
    let mut by_due: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let (mut hits, mut misses, mut last) = (Vec::new(), Vec::new(), seconds);
    for (k, latency) in acc.latency_ms.iter().enumerate() {
        if let Some(ms) = *latency {
            if plan.is_heavy(k) {
                misses.push(ms);
            } else {
                hits.push(ms);
            }
            if let Some(w) = by_due.get_mut((due[k] / OPEN_WINDOW_S) as usize) {
                w.push(ms);
            }
            last = last.max(due[k] + ms / 1e3);
        }
    }
    out.latency_count = hits.len() + misses.len();
    out.throughput = vec![acc.tally.correct as f64 / last];
    let full: Vec<&Vec<f64>> = by_due.iter().filter(|w| supported(w.len(), 99.0)).collect();
    out.latency_p50_ms = full.iter().filter_map(|w| percentile(w, 50.0)).collect();
    out.latency_p99_ms = full.iter().filter_map(|w| percentile(w, 99.0)).collect();
    // CPU per answer between consecutive boundary reads.
    let arrivals: Vec<f64> = replies.iter().flatten().map(|(at, _)| *at).collect();
    out.cpu_us_per_op = cpu_marks
        .windows(2)
        .filter_map(|m| {
            let answered = arrivals
                .iter()
                .filter(|&&a| a >= m[0].0 && a < m[1].0)
                .count();
            (answered > 0).then(|| (m[1].1 - m[0].1) / answered as f64)
        })
        .collect();

    let rtt_us: Vec<f64> = replies
        .iter()
        .zip(&sent)
        .filter_map(|(r, s)| r.as_ref().map(|(at, _)| (at - s) * 1e6))
        .collect();
    let lag_ms: Vec<f64> = sent
        .iter()
        .zip(&due)
        .filter(|(s, _)| s.is_finite())
        .map(|(s, d)| (s - d) * 1e3)
        .collect();
    let pct = |v: &[f64], p: f64| {
        if supported(v.len(), p) {
            percentile(v, p).unwrap_or(0.0)
        } else {
            0.0
        }
    };
    out.layer.insert(
        "serve.transport_us_p50",
        pct(&rtt_us, 50.0) - stat_f64(&stats, "latency_p50_us"),
    );
    out.layer
        .insert("serve.rejected", stat_f64(&stats, "rejected"));
    out.layer.insert("serve.conn_dropped", dropped as f64);
    out.layer
        .insert("serve.hit_latency_p50_ms", pct(&hits, 50.0));
    out.layer
        .insert("serve.hit_latency_p99_ms", pct(&hits, 99.0));
    out.layer
        .insert("serve.miss_latency_p50_ms", pct(&misses, 50.0));
    out.layer
        .insert("serve.miss_latency_p95_ms", pct(&misses, 95.0));
    out.layer
        .insert("harness.gen_lag_p99_ms", pct(&lag_ms, 99.0));
    Ok(out)
}

/// The open loop's requests, built from the seed before anything runs.
pub struct OpenPlan {
    /// The warmed small set.
    pub small: Vec<BatchInstance>,
    /// `REQ` payloads of the small set.
    pub small_payloads: Vec<String>,
    /// Expected bodies of the small set.
    pub small_expected: Vec<String>,
    /// The heavy corpus, each instance requested once.
    pub heavy_set: Vec<BatchInstance>,
    /// Expected bodies of the heavy corpus.
    pub heavy_expected: Vec<String>,
    /// What each request asks for, in schedule order.
    pub mix: Vec<Pick>,
    /// The `REQ` line of every request, in schedule order.
    pub lines: Vec<String>,
}

impl OpenPlan {
    /// Build the `rate × seconds` requests for `seed`.
    pub fn new(seed: u64, seconds: f64, rate: f64) -> OpenPlan {
        let count = (rate * seconds).round().max(1.0) as usize;
        let mix = inputs::open_mix(seed, count, HEAVY_SHARE);
        let heavy = mix.iter().filter(|p| matches!(p, Pick::Heavy(_))).count();
        let heavy_set = inputs::heavy_corpus(heavy);
        let small = inputs::small_set(seed);
        let mut plan = OpenPlan {
            small_payloads: small.iter().map(payload).collect(),
            small_expected: inputs::expected_bodies(&small, SERVE_OBJECTIVE),
            heavy_expected: inputs::expected_bodies(&heavy_set, SERVE_OBJECTIVE),
            small,
            heavy_set,
            mix,
            lines: Vec::new(),
        };
        plan.lines = (0..count)
            .map(|k| req_line(&k.to_string(), &payload(plan.instance(k))))
            .collect();
        plan
    }

    /// Whether request `k` is heavy.
    pub fn is_heavy(&self, k: usize) -> bool {
        matches!(self.mix[k], Pick::Heavy(_))
    }

    /// The instance of request `k`.
    pub fn instance(&self, k: usize) -> &BatchInstance {
        match self.mix[k] {
            Pick::Small(i) => &self.small[i],
            Pick::Heavy(j) => &self.heavy_set[j],
        }
    }

    /// The expected body of request `k`.
    pub fn expected(&self, k: usize) -> &str {
        match self.mix[k] {
            Pick::Small(i) => &self.small_expected[i],
            Pick::Heavy(j) => &self.heavy_expected[j],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single FIFO server answering an open-loop schedule: request `k`
    /// is due at `k` ms and takes `service[k]` ms once the server is
    /// free. Returns (due, reply time) in seconds.
    fn fifo(service_ms: &[f64]) -> (Vec<f64>, Vec<Option<(f64, Verdict)>>) {
        let mut free = 0.0f64;
        let mut due = Vec::new();
        let mut replies = Vec::new();
        for (k, s) in service_ms.iter().enumerate() {
            let d = k as f64 / 1e3;
            free = free.max(d) + s / 1e3;
            due.push(d);
            replies.push(Some((free, Verdict::Correct)));
        }
        (due, replies)
    }

    #[test]
    fn a_stalled_reply_delays_the_requests_behind_it() {
        // Every request takes 0.1 ms except request 2, which stalls 5 ms.
        let mut service = vec![0.1; 10];
        service[2] = 5.0;
        let (due, replies) = fifo(&service);
        let acc = account(&due, &replies, 10.0);
        assert_eq!(acc.tally.correct, 10);
        let lat: Vec<f64> = acc.latency_ms.iter().map(|l| l.unwrap()).collect();
        assert!((lat[1] - 0.1).abs() < 1e-9);
        assert!((lat[2] - 5.0).abs() < 1e-9);
        // Requests 3..=6 were due while the stall lasted: their latency
        // from the due time includes the wait, although each needed only
        // 0.1 ms of service.
        for (k, l) in lat.iter().enumerate().take(7).skip(3) {
            let expected = 5.0 + 0.1 * (k as f64 - 2.0) - (k as f64 - 2.0);
            assert!(
                (l - expected).abs() < 1e-9,
                "request {k}: {l} vs {expected}"
            );
            assert!(*l > 1.0);
        }
        // Once the backlog drains, latency falls back to the service time.
        assert!((lat[9] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn late_missing_and_refused_replies_are_failures() {
        let due = [0.0, 0.001, 0.002, 0.003];
        let replies = [
            Some((0.0005, Verdict::Correct)),
            Some((20.0, Verdict::Correct)),
            None,
            Some((0.004, Verdict::Busy)),
        ];
        let acc = account(&due, &replies, 10.0);
        assert_eq!(acc.tally.correct, 1);
        assert_eq!(acc.tally.timeout, 2);
        assert_eq!(acc.tally.busy, 1);
        assert_eq!(acc.tally.failed(), 3);
        assert_eq!(acc.latency_ms[1], None);
    }
}
