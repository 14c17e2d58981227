//! The traced run: replay a workload's inputs in-process through each
//! layer's public functions, on the workload's own schedule and pool.
//!
//! Per request, in order: `protocol::parse_frame` and
//! `gaps_engine::split_stream` (serve workloads, on the submitting
//! thread as in the daemon's connection reader), a hand-off through
//! `TaskPool::try_submit` (serve) or `pool::map_ordered` (batch), then
//! `canonical::canonicalize`, `ShardedCache::get`, `router::features` +
//! `router::route`, `router::solve_observed`, `ShardedCache::insert` and
//! `MetricsRegistry::record_request`. This is `Engine::solve_request`
//! spelled out, so the replay checks its bodies against the engine's:
//! a difference means the harness's pipeline drifted from the engine's.

use crate::batch::BatchPlan;
use crate::check::{Tally, Verdict};
use crate::clock::{now, Duration};
use crate::inputs::{self, BATCH_OBJECTIVES, SERVE_OBJECTIVE, THREADS};
use crate::serve::{payload, req_line, OpenPlan};
use crate::trace::Trace;
use gaps_engine::canonical::canonicalize;
use gaps_engine::pool::{self, TaskPool};
use gaps_engine::{router, BatchInstance, MetricsRegistry, Objective, ShardedCache, SolverKind};
use gaps_serve::protocol::{self, Frame};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc;
use std::sync::Arc;

/// Closed-loop requests each `serve_hot` replay client sends.
pub const HOT_REQUESTS_PER_CLIENT: usize = 20_000;

/// Heavy instances solved twice (1 and 2 workers) for the parallel
/// efficiency figure.
const EFFICIENCY_SAMPLE: usize = 16;

/// Span name of a solver call.
pub fn solver_span(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::ForcedChain => "solver.forced_chain",
        SolverKind::BaptisteDp => "solver.baptiste_dp",
        SolverKind::MultiprocDp => "solver.multiproc_dp",
        SolverKind::PowerDp => "solver.power_dp",
        SolverKind::MultiExact => "solver.multi_exact",
        _ => "solver.other",
    }
}

/// The engine's state, rebuilt from public parts: the same cache shape,
/// router configuration and metrics registry `Engine::new` assembles.
pub struct Ctx {
    /// Result cache.
    pub cache: ShardedCache,
    /// Metrics registry (also receives the search statistics).
    pub metrics: MetricsRegistry,
    /// Router configuration, worker count resolved as `Engine::new`
    /// resolves it.
    pub router: router::RouterConfig,
    tracing: bool,
    key_bytes: AtomicU64,
    keys: AtomicU64,
}

impl Ctx {
    /// A fresh engine state.
    pub fn new(tracing: bool) -> Ctx {
        let config = inputs::engine_config();
        let mut router = config.router.clone();
        if router.multi_exact_threads == 0 {
            router.multi_exact_threads = config.threads.max(1);
        }
        Ctx {
            cache: ShardedCache::new(config.cache_capacity, config.cache_shards),
            metrics: MetricsRegistry::new(),
            router,
            tracing,
            key_bytes: AtomicU64::new(0),
            keys: AtomicU64::new(0),
        }
    }

    fn trace(&self, request: u64) -> Trace {
        Trace::new(request, self.tracing)
    }
}

/// canonicalize → cache → route → solve → insert → record, as
/// `Engine::solve_request` runs it; returns the result body.
pub fn pipeline(
    ctx: &Ctx,
    tr: &mut Trace,
    parent: u32,
    inst: &BatchInstance,
    objective: Objective,
) -> String {
    let started = now();
    let form = tr.span("canonical", parent, || canonicalize(inst, objective));
    ctx.key_bytes.fetch_add(form.key.len() as u64, Relaxed);
    ctx.keys.fetch_add(1, Relaxed);
    let cached = tr.span("cache.get", parent, || ctx.cache.get(&form.key));
    let (payload, solver, hit) = match cached {
        Some(payload) => (payload, None, true),
        None => {
            let kind = tr.span("router.route", parent, || {
                router::route(&router::features(&form.instance), objective, &ctx.router)
            });
            let (solved, body) = tr.span(solver_span(kind), parent, || {
                router::solve_observed(&form.instance, objective, &ctx.router, Some(&ctx.metrics))
            });
            let payload = format!("{body} solver={}", solved.name());
            let value = payload.clone();
            tr.span("cache.insert", parent, || ctx.cache.insert(form.key, value));
            (payload, Some(solved), false)
        }
    };
    let elapsed = started.elapsed();
    tr.span("metrics.record_request", parent, || {
        ctx.metrics
            .record_request(solver.map(SolverKind::name), hit, false, elapsed)
    });
    format!("{} n={} {payload}", inst.kind_label(), inst.job_count())
}

/// A finished replayed request.
pub struct Done {
    /// Request id (schedule position).
    pub request: u64,
    /// Result body, or how the request failed before getting one.
    pub body: Result<String, Verdict>,
    /// Its spans.
    pub trace: Trace,
    /// Time from leaving the queue to the body, ns.
    pub work_ns: u64,
}

/// Parse one `REQ` frame and its instance on this thread, then hand
/// the pipeline to `pool`; the result arrives on `done`. A frame that
/// fails before admission is reported on `done` at once.
fn submit(ctx: &Arc<Ctx>, pool: &TaskPool, request: u64, line: &str, done: &mpsc::Sender<Done>) {
    let mut tr = ctx.trace(request);
    let root = tr.open("request", None);
    let frame = tr.span("protocol.parse_frame", root, || protocol::parse_frame(line));
    let text = match frame {
        Ok(Some(Frame::Req { text, .. })) => text,
        _ => return refuse(done, request, tr, Verdict::Err),
    };
    let parsed = tr.span("serialize.split_stream", root, || {
        gaps_engine::split_stream(&text)
    });
    let inst = match parsed {
        Ok(mut list) if list.len() == 1 => list.remove(0),
        _ => return refuse(done, request, tr, Verdict::Err),
    };
    let submitted = tr.stamp();
    let job_ctx = Arc::clone(ctx);
    let job_done = done.clone();
    let admitted = pool.try_submit(move || {
        let started = tr.stamp();
        tr.record("pool.queue_wait", Some(root), submitted, started);
        let body = pipeline(&job_ctx, &mut tr, root, &inst, SERVE_OBJECTIVE);
        let ended = tr.stamp();
        tr.close_at(root, ended);
        let _ = job_done.send(Done {
            request,
            body: Ok(body),
            trace: tr,
            work_ns: ended - started,
        });
    });
    if admitted.is_err() {
        refuse(done, request, ctx.trace(request), Verdict::Busy);
    }
}

fn refuse(done: &mpsc::Sender<Done>, request: u64, trace: Trace, verdict: Verdict) {
    let _ = done.send(Done {
        request,
        body: Err(verdict),
        trace,
        work_ns: 0,
    });
}

/// The daemon's solve pool: `gaps serve --threads 2` defaults.
fn serve_pool() -> TaskPool {
    let defaults = gaps_serve::ServeConfig::default();
    TaskPool::elastic(
        THREADS,
        defaults.max_threads.max(THREADS),
        defaults.queue_capacity,
        pool::DEFAULT_IDLE_TIMEOUT,
    )
}

/// Engine counters read after a replay (summed over batch passes).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Cache lookups.
    pub gets: u64,
    /// Cache hits.
    pub hits: u64,
    /// Entries resident when each engine finished.
    pub resident: u64,
    /// Canonical key bytes built.
    pub key_bytes: u64,
    /// Canonical keys built.
    pub keys: u64,
    /// Branch-and-bound states expanded.
    pub nodes_expanded: u64,
    /// Parallel subtree tasks.
    pub subtree_tasks: u64,
    /// Subtree tasks run by a worker other than the first.
    pub subtree_steals: u64,
    /// Shared-incumbent tightenings.
    pub incumbent_updates: u64,
}

impl Counts {
    fn add(&mut self, ctx: &Ctx) {
        let cache = ctx.cache.stats();
        let search = ctx.metrics.search_totals();
        self.gets += cache.hits + cache.misses;
        self.hits += cache.hits;
        self.resident += cache.entries as u64;
        self.key_bytes += ctx.key_bytes.load(Relaxed);
        self.keys += ctx.keys.load(Relaxed);
        self.nodes_expanded += search.nodes_expanded;
        self.subtree_tasks += search.subtree_tasks;
        self.subtree_steals += search.subtree_steals;
        self.incumbent_updates += search.incumbent_updates;
    }
}

/// What one replay produced.
#[derive(Default)]
pub struct Replay {
    /// Engine counters after the replay.
    pub counts: Counts,
    /// Every request's spans (empty when untraced).
    pub traces: Vec<Trace>,
    /// Each answered request's work (queue exit → body), ns, by
    /// request id.
    pub work_by_request: HashMap<u64, u64>,
    /// Replay wall time, ns (the pool-driven part).
    pub wall_ns: u64,
    /// Body check against `Engine::solve_request` / `run_batch`.
    pub tally: Tally,
    /// `map_ordered` efficiency (batch only): Σ item time over
    /// threads × wall.
    pub map_efficiency: Option<f64>,
    /// Whole-stream parse time per pass, ms (batch only).
    pub stream_parse_ms: Vec<f64>,
    /// Instances parsed per pass (batch only).
    pub stream_instances: usize,
}

impl Replay {
    fn absorb(&mut self, done: Done, expected: &str) {
        self.tally.add(match &done.body {
            Ok(body) if body == expected => Verdict::Correct,
            Ok(_) => Verdict::Wrong,
            Err(verdict) => *verdict,
        });
        if done.body.is_ok() {
            self.work_by_request.insert(done.request, done.work_ns);
        }
        if !done.trace.spans.is_empty() {
            self.traces.push(done.trace);
        }
    }
}

/// Send each small instance once and wait, as the end-to-end run warms
/// the daemon.
fn warm(
    replay: &mut Replay,
    ctx: &Arc<Ctx>,
    pool: &TaskPool,
    small: &[String],
    expected: &[String],
) {
    let (tx, rx) = mpsc::channel();
    for (i, (line, want)) in small.iter().zip(expected).enumerate() {
        submit(ctx, pool, i as u64, line, &tx);
        match rx.recv_timeout(crate::daemon::REPLY_DEADLINE) {
            Ok(done) => replay.absorb(done, want),
            Err(_) => replay.tally.add(Verdict::Timeout),
        }
    }
}

/// `serve_hot`: warm, then two closed-loop clients cycling over the
/// small set.
pub fn hot(seed: u64, tracing: bool) -> Replay {
    let small = inputs::small_set(seed);
    let expected = inputs::expected_bodies(&small, SERVE_OBJECTIVE);
    let lines: Vec<String> = small
        .iter()
        .enumerate()
        .map(|(i, s)| req_line(&i.to_string(), &payload(s)))
        .collect();
    let mut replay = Replay::default();
    let ctx = Arc::new(Ctx::new(tracing));
    let pool = serve_pool();
    warm(&mut replay, &ctx, &pool, &lines, &expected);
    let started = now();
    let clients: Vec<(Vec<Done>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|c| {
                let (ctx, pool, lines) = (&ctx, &pool, &lines);
                s.spawn(move || {
                    let (tx, rx) = mpsc::channel();
                    let mut finished = Vec::with_capacity(HOT_REQUESTS_PER_CLIENT);
                    let mut lost = Tally::default();
                    for k in 0..HOT_REQUESTS_PER_CLIENT {
                        let i = (c * lines.len() / THREADS + k) % lines.len();
                        let request = (c * HOT_REQUESTS_PER_CLIENT + k + lines.len()) as u64;
                        submit(ctx, pool, request, &lines[i], &tx);
                        match rx.recv_timeout(crate::daemon::REPLY_DEADLINE) {
                            Ok(done) => finished.push(done),
                            Err(_) => {
                                lost.add(Verdict::Timeout);
                                break;
                            }
                        }
                    }
                    (finished, lost)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client does not panic"))
            .collect()
    });
    replay.wall_ns = started.elapsed().as_nanos() as u64;
    for (finished, lost) in clients {
        replay.tally.merge(&lost);
        for done in finished {
            let request = done.request as usize - lines.len();
            let c = request / HOT_REQUESTS_PER_CLIENT;
            let k = request % HOT_REQUESTS_PER_CLIENT;
            let i = (c * lines.len() / THREADS + k) % lines.len();
            replay.absorb(done, &expected[i]);
        }
    }
    replay.counts.add(&ctx);
    replay
}

/// `serve_mixed_open`: warm, then submit on the open-loop schedule.
pub fn mixed_open(plan: &OpenPlan, rate: f64, tracing: bool) -> Replay {
    let mut replay = Replay::default();
    let ctx = Arc::new(Ctx::new(tracing));
    let pool = serve_pool();
    let small_lines: Vec<String> = plan
        .small_payloads
        .iter()
        .enumerate()
        .map(|(i, p)| req_line(&i.to_string(), p))
        .collect();
    warm(&mut replay, &ctx, &pool, &small_lines, &plan.small_expected);
    let n = plan.lines.len();
    let (tx, rx) = mpsc::channel();
    let started = now();
    let give_up =
        started + Duration::from_secs_f64(n as f64 / rate) + crate::daemon::REPLY_DEADLINE;
    let finished: Vec<Done> = std::thread::scope(|s| {
        let (ctx, pool) = (&ctx, &pool);
        s.spawn(move || {
            for (k, line) in plan.lines.iter().enumerate() {
                let due = started + Duration::from_secs_f64(k as f64 / rate);
                let t = now();
                if due > t {
                    std::thread::sleep(due - t);
                }
                submit(ctx, pool, k as u64, line, &tx);
            }
        });
        let mut finished = Vec::with_capacity(n);
        while finished.len() < n {
            let left = give_up.saturating_duration_since(now());
            match rx.recv_timeout(left) {
                Ok(done) => finished.push(done),
                Err(_) => break,
            }
        }
        finished
    });
    replay.wall_ns = started.elapsed().as_nanos() as u64;
    let answered = finished.len();
    for done in finished {
        let k = done.request as usize;
        replay.absorb(done, plan.expected(k));
    }
    for _ in answered..n {
        replay.tally.add(Verdict::Timeout);
    }
    replay.counts.add(&ctx);
    replay
}

/// `batch_mix`: one pass per objective, each on a fresh engine as each
/// `gaps batch` process starts fresh.
pub fn batch(plan: &BatchPlan, tracing: bool) -> Replay {
    let mut replay = Replay::default();
    let (mut item_ns, mut map_ns) = (0u64, 0u64);
    for (pass, (&objective, expected)) in BATCH_OBJECTIVES.iter().zip(&plan.expected).enumerate() {
        let ctx = Arc::new(Ctx::new(tracing));
        let base = (pass as u64 + 1) * 1_000_000;
        let mut pass_trace = ctx.trace(base - 1);
        let parse_start = pass_trace.stamp();
        let instances = gaps_engine::split_stream(&plan.text).expect("the batch text parses");
        let parse_end = pass_trace.stamp();
        pass_trace.record("serialize.stream_parse", None, parse_start, parse_end);
        replay
            .stream_parse_ms
            .push((parse_end - parse_start) as f64 / 1e6);
        replay.stream_instances = instances.len();
        let refs: Vec<&BatchInstance> = instances.iter().collect();
        let map_start = pass_trace.stamp();
        let results = pool::map_ordered(refs, THREADS, |i, inst| {
            let mut tr = ctx.trace(base + i as u64);
            let started = tr.stamp();
            // Every item is queued when the pass starts.
            tr.record("pool.queue_wait", None, map_start, started);
            let root = tr.record("request", None, started, started);
            let body = pipeline(&ctx, &mut tr, root, inst, objective);
            let ended = tr.stamp();
            tr.close_at(root, ended);
            (format!("{i} {body}"), tr, ended - started)
        });
        map_ns += pass_trace.stamp() - map_start;
        if !pass_trace.spans.is_empty() {
            replay.traces.push(pass_trace);
        }
        for ((line, trace, work), want) in results.into_iter().zip(expected) {
            item_ns += work;
            replay.absorb(
                Done {
                    request: trace.request,
                    body: Ok(line),
                    trace,
                    work_ns: work,
                },
                want,
            );
        }
        replay.counts.add(&ctx);
    }
    replay.wall_ns = map_ns;
    replay.map_efficiency = Some(item_ns as f64 / (THREADS as f64 * map_ns.max(1) as f64));
    replay
}

/// Parallel efficiency of the branch-and-bound on heavy instances:
/// sequential time over (2 × two-worker time), summed over a sample.
/// Also checks that both paths give the same answer.
pub fn parallel_efficiency(heavy: &[BatchInstance]) -> Result<f64, String> {
    let base = Ctx::new(false).router;
    let sequential = router::RouterConfig {
        multi_exact_threads: 1,
        ..base.clone()
    };
    let (mut t1, mut t2) = (0.0, 0.0);
    for inst in heavy.iter().take(EFFICIENCY_SAMPLE) {
        let form = canonicalize(inst, SERVE_OBJECTIVE);
        let start = now();
        let one = router::solve(&form.instance, SERVE_OBJECTIVE, &sequential);
        t1 += start.elapsed().as_secs_f64();
        let start = now();
        let two = router::solve(&form.instance, SERVE_OBJECTIVE, &base);
        t2 += start.elapsed().as_secs_f64();
        if one != two {
            return Err(format!(
                "1- and 2-worker solves disagree: {one:?} vs {two:?}"
            ));
        }
    }
    Ok(if t2 > 0.0 {
        t1 / (THREADS as f64 * t2)
    } else {
        0.0
    })
}

/// Tracing overhead: the median over requests of traced work over
/// untraced work for the same request, minus one. Pairing each request
/// with itself keeps a slow phase of the machine during one replay from
/// passing for overhead (or for a saving).
pub fn trace_overhead(traced: &Replay, untraced: &Replay) -> f64 {
    let ratios: Vec<f64> = traced
        .work_by_request
        .iter()
        .filter_map(|(id, &t)| {
            let u = *untraced.work_by_request.get(id)?;
            (u > 0).then(|| t as f64 / u as f64)
        })
        .collect();
    crate::stats::median(&ratios).map_or(0.0, |r| r - 1.0)
}
