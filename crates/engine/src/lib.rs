//! # gaps-engine
//!
//! A concurrent batch-solving layer between the paper's solvers and the
//! outside world: accept a *stream* of scheduling instances, solve each
//! with the best-fitting algorithm, and answer at scale.
//!
//! The pipeline, per request:
//!
//! 1. **Canonicalize** ([`canonical`]) — dead-zone compression
//!    (`gaps_core::compress`) plus job sorting normalizes away time
//!    shifts, job order, and dead time, yielding a cache key under which
//!    equivalent instances collide.
//! 2. **Cache** ([`cache`]) — a sharded LRU maps canonical keys to
//!    finished result lines; hits skip solving entirely.
//! 3. **Route** ([`router`]) — misses go to a portfolio router that picks
//!    a solver from the instance's shape (one- vs. multi-interval,
//!    processor count, laxity, size, objective, α), with a configurable
//!    fallback chain for instances no exact solver can take.
//! 4. **Execute** ([`pool`]) — a fixed worker pool built on the
//!    `crossbeam` scope + bounded-channel stubs runs requests in
//!    parallel and reassembles results in input order, so output is
//!    deterministic for any thread count.
//!
//! Per-batch latency, cache, and router metrics land in an
//! [`EngineReport`] ([`metrics`]).
//!
//! ```
//! use gaps_engine::{Engine, EngineConfig, Objective};
//!
//! let text = "\
//! instance v1
//! processors 1
//! job 0 2
//! job 1 3
//! instance v1
//! processors 1
//! job 100 102
//! job 101 103
//! ";
//! let engine = Engine::new(EngineConfig::default());
//! let (out, report) = engine.run_batch_text(text, Objective::Gaps).unwrap();
//! assert_eq!(out.lines().count(), 2);
//! // The second instance is a time-shifted copy of the first: the
//! // canonicalized cache collapses them into one solve. (Served on one
//! // thread here, so the hit is guaranteed; with more threads the two
//! // requests can race to a double-miss — the *output* stays identical
//! // either way, see `tests/engine_batch.rs`.)
//! assert_eq!(report.cache_hits, 1);
//! ```

pub mod cache;
pub mod canonical;
pub mod metrics;
pub mod online;
pub mod pool;
pub mod router;

pub use cache::{CacheStats, ShardedCache};
pub use metrics::{
    summarize_latencies, EngineReport, Histogram, LatencySummary, MetricsRegistry, MetricsSnapshot,
    RatioStats, SearchTotals,
};
pub use online::{OnlineSummary, OnlineTracker, SessionState};
pub use router::{FallbackSolver, Features, RouterConfig, SolverKind};

use gaps_core::instance::{Instance, MultiInstance};
use gaps_workloads::serialize;
use std::time::Instant;

/// What to minimize, batch-wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Number of gaps (idle periods) — the paper's Theorem 1 objective.
    Gaps,
    /// Number of spans (wake-ups).
    Spans,
    /// Total power: active slots + `alpha` per wake-up (Theorem 2).
    Power {
        /// Transition (wake-up) cost.
        alpha: u64,
    },
}

impl Objective {
    /// Parse the CLI spelling (`gaps` / `spans` / `power` + alpha).
    pub fn parse(name: &str, alpha: u64) -> Result<Objective, String> {
        match name {
            "gaps" => Ok(Objective::Gaps),
            "spans" => Ok(Objective::Spans),
            "power" => Ok(Objective::Power { alpha }),
            other => Err(format!("unknown objective {other:?}")),
        }
    }

    /// The result-line label (`gaps=…`, `spans=…`, `power=…`).
    pub fn label(self) -> &'static str {
        match self {
            Objective::Gaps => "gaps",
            Objective::Spans => "spans",
            Objective::Power { .. } => "power",
        }
    }

    /// Cache-key prefix; includes `alpha` because the power optimum (and
    /// power compression) depend on it.
    pub fn cache_tag(self) -> String {
        match self {
            Objective::Gaps => "gaps".to_string(),
            Objective::Spans => "spans".to_string(),
            Objective::Power { alpha } => format!("power:{alpha}"),
        }
    }
}

/// Either flavor of instance the batch stream can carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchInstance {
    /// Release/deadline jobs on `p` processors (`instance v1`).
    One(Instance),
    /// Allowed-slot jobs on one processor (`multi v1`).
    Multi(MultiInstance),
}

impl BatchInstance {
    /// Number of jobs.
    pub fn job_count(&self) -> usize {
        match self {
            BatchInstance::One(inst) => inst.job_count(),
            BatchInstance::Multi(inst) => inst.job_count(),
        }
    }

    /// Result-line tag: `one` or `multi`.
    pub fn kind_label(&self) -> &'static str {
        match self {
            BatchInstance::One(_) => "one",
            BatchInstance::Multi(_) => "multi",
        }
    }
}

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Total result-cache entries across shards; 0 disables caching.
    pub cache_capacity: usize,
    /// Cache shard (lock) count.
    pub cache_shards: usize,
    /// Portfolio router configuration.
    pub router: RouterConfig,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            threads: 1,
            cache_capacity: 4096,
            cache_shards: 16,
            router: RouterConfig::default(),
        }
    }
}

/// The solving engine. Construct once, feed it forever: the result
/// cache and the [`MetricsRegistry`] persist across every
/// [`Engine::run_batch`] / [`Engine::solve_request`] call, so repeated
/// traffic gets warm-cache latencies and the metrics reflect the whole
/// lifetime — which is exactly what a long-running service snapshots.
pub struct Engine {
    config: EngineConfig,
    cache: ShardedCache,
    metrics: MetricsRegistry,
}

/// A cache miss between [`Engine::lookup`] and [`Engine::solve_pending`]:
/// the canonical form the router will solve (so a miss is canonicalized
/// exactly once) plus what the result line and metrics still need.
/// Owned and `Send`, so the solver half can run on another thread.
#[derive(Debug)]
pub struct Pending {
    form: canonical::CanonicalForm,
    flavor: &'static str,
    jobs: usize,
    objective: Objective,
    shed: bool,
    lookup_elapsed: std::time::Duration,
}

/// What the engine hands back for one request.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    /// Result body: `<one|multi> n=<jobs> <payload> solver=<tag>` — the
    /// batch result line minus its leading index, and the serve `RES`
    /// body after the request id, so the two surfaces are bit-identical
    /// by construction.
    pub body: String,
    /// Which solver ran (`None` on a cache hit).
    pub solver: Option<SolverKind>,
    /// Answered from the result cache.
    pub cache_hit: bool,
    /// Served by the degraded shed chain.
    pub shed: bool,
    /// Request wall clock.
    pub elapsed: std::time::Duration,
}

impl Engine {
    /// Build an engine.
    pub fn new(config: EngineConfig) -> Engine {
        let cache = ShardedCache::new(config.cache_capacity, config.cache_shards);
        Engine {
            config,
            cache,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Lifetime cache statistics (across every batch served so far).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine-lifetime metrics registry (every request ever solved,
    /// whichever surface it arrived on).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Solve one instance through the full canonicalize → cache → route
    /// pipeline. This is the shared engine loop: `run_batch` fans it out
    /// over the ordered pool; it is exactly [`Engine::lookup`] followed,
    /// on a miss, by [`Engine::solve_pending`].
    ///
    /// With `shed` set the router runs a degraded config
    /// ([`RouterConfig::shed`]) and the result is **not** cached: a shed
    /// answer may be approximate where the normal route is exact, and
    /// caching it would poison later full-service requests for the same
    /// canonical key. Cache *reads* still happen — an exact answer that
    /// is already paid for is the cheapest possible response.
    pub fn solve_request(
        &self,
        inst: &BatchInstance,
        objective: Objective,
        shed: bool,
    ) -> RequestOutcome {
        match self.lookup(inst, objective, shed) {
            Ok(hit) => hit,
            Err(pending) => self.solve_pending(pending),
        }
    }

    /// The cache half of [`Engine::solve_request`]: canonicalize and
    /// read the cache. A hit is a finished answer — recorded in the
    /// metrics and returned as `Ok`. A miss comes back as `Err` with the
    /// canonical form it needs, for [`Engine::solve_pending`] to finish
    /// (possibly later, on another thread); nothing is recorded for it
    /// yet, so a miss that is never solved never counts as a request.
    pub fn lookup(
        &self,
        inst: &BatchInstance,
        objective: Objective,
        shed: bool,
    ) -> Result<RequestOutcome, Pending> {
        let request_start = Instant::now();
        let flavor = inst.kind_label();
        let jobs = inst.job_count();
        let form = canonical::canonicalize(inst, objective);
        match self.cache.get(&form.key) {
            Some(payload) => {
                let elapsed = request_start.elapsed();
                self.metrics.record_request(None, true, shed, elapsed);
                Ok(RequestOutcome {
                    body: format!("{flavor} n={jobs} {payload}"),
                    solver: None,
                    cache_hit: true,
                    shed,
                    elapsed,
                })
            }
            None => Err(Pending {
                form,
                flavor,
                jobs,
                objective,
                shed,
                lookup_elapsed: request_start.elapsed(),
            }),
        }
    }

    /// The solver half of [`Engine::solve_request`]: route and solve a
    /// miss from its carried canonical form, cache the result (unless
    /// shed), and record the request. The recorded latency is the
    /// lookup's time plus this call's, so time spent waiting between
    /// the two halves (an admission queue) is not billed to the solver.
    pub fn solve_pending(&self, pending: Pending) -> RequestOutcome {
        let solve_start = Instant::now();
        let Pending {
            form,
            flavor,
            jobs,
            objective,
            shed,
            lookup_elapsed,
        } = pending;
        let shed_router;
        let router = if shed {
            shed_router = self.config.router.shed();
            &shed_router
        } else {
            &self.config.router
        };
        let (kind, body) =
            router::solve_observed(&form.instance, objective, router, Some(&self.metrics));
        let payload = format!("{body} solver={}", kind.name());
        let body = format!("{flavor} n={jobs} {payload}");
        if !shed {
            self.cache.insert(form.key, payload);
        }
        let elapsed = lookup_elapsed + solve_start.elapsed();
        self.metrics
            .record_request(Some(kind.name()), false, shed, elapsed);
        RequestOutcome {
            body,
            solver: Some(kind),
            cache_hit: false,
            shed,
            elapsed,
        }
    }

    /// Solve a batch, returning one result line per instance — in input
    /// order, independent of thread count — plus the batch report.
    ///
    /// Line format:
    /// `<index> <one|multi> n=<jobs> <payload> solver=<tag>` where the
    /// payload is `gaps=2` (exact), `power<=9.50` (upper bound),
    /// `gaps>=1` (lower bound), or `infeasible`.
    pub fn run_batch(
        &self,
        instances: &[BatchInstance],
        objective: Objective,
    ) -> (Vec<String>, EngineReport) {
        let start = Instant::now();
        let search_before = self.metrics.search_totals();
        let refs: Vec<&BatchInstance> = instances.iter().collect();
        let outcomes = pool::map_ordered(refs, self.config.threads, |index, inst| {
            let outcome = self.solve_request(inst, objective, false);
            (format!("{index} {}", outcome.body), outcome)
        });

        let mut report = EngineReport {
            requests: outcomes.len(),
            threads: self.config.threads.max(1),
            cache_entries: self.cache.len(),
            ..EngineReport::default()
        };
        let mut latencies = Vec::with_capacity(outcomes.len());
        let mut lines = Vec::with_capacity(outcomes.len());
        let mut by_solver: std::collections::BTreeMap<&'static str, Vec<std::time::Duration>> =
            std::collections::BTreeMap::new();
        for (line, outcome) in outcomes {
            if outcome.cache_hit {
                report.cache_hits += 1;
            } else {
                report.cache_misses += 1;
            }
            if let Some(kind) = outcome.solver {
                *report.solver_counts.entry(kind.name()).or_insert(0) += 1;
                by_solver
                    .entry(kind.name())
                    .or_default()
                    .push(outcome.elapsed);
            }
            latencies.push(outcome.elapsed);
            lines.push(line);
        }
        report.solver_latency = by_solver
            .into_iter()
            .map(|(name, samples)| (name, summarize_latencies(samples)))
            .collect();
        report.latency = summarize_latencies(latencies);
        report.search = self.metrics.search_totals().since(&search_before);
        report.wall = start.elapsed();
        (lines, report)
    }

    /// [`Engine::run_batch`] over a concatenated-instance text stream
    /// (see [`split_stream`]); returns the newline-joined result block.
    pub fn run_batch_text(
        &self,
        text: &str,
        objective: Objective,
    ) -> Result<(String, EngineReport), String> {
        let instances = split_stream(text)?;
        let (lines, report) = self.run_batch(&instances, objective);
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        Ok((out, report))
    }
}

/// Split a text stream of concatenated instances (each starting with an
/// `instance v1` or `multi v1` header, exactly the `gaps_workloads`
/// serialize format) into parsed instances. Comments and blank lines are
/// allowed anywhere, including before the first header.
pub fn split_stream(text: &str) -> Result<Vec<BatchInstance>, String> {
    let mut chunks: Vec<(usize, String)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line == "instance v1" || line == "multi v1" {
            chunks.push((lineno + 1, String::new()));
        } else if chunks.is_empty() && !line.is_empty() && !line.starts_with('#') {
            return Err(format!(
                "line {}: expected an 'instance v1' or 'multi v1' header, got {line:?}",
                lineno + 1
            ));
        }
        if let Some((_, chunk)) = chunks.last_mut() {
            chunk.push_str(raw);
            chunk.push('\n');
        }
    }
    chunks
        .into_iter()
        .map(|(lineno, chunk)| {
            let parsed = if chunk.trim_start().starts_with("multi v1") {
                serialize::multi_from_text(&chunk).map(BatchInstance::Multi)
            } else {
                serialize::instance_from_text(&chunk).map(BatchInstance::One)
            };
            parsed.map_err(|e| format!("instance starting at line {lineno}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaps_core::instance::Instance;
    use gaps_workloads::{multi_interval, one_interval};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_stream(count: usize) -> Vec<BatchInstance> {
        let mut rng = StdRng::seed_from_u64(42);
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(match i % 4 {
                0 => BatchInstance::One(one_interval::feasible(&mut rng, 6, 12, 2, 1)),
                1 => BatchInstance::One(one_interval::uniform(&mut rng, 5, 10, 3, 2)),
                2 => BatchInstance::Multi(multi_interval::feasible_slots(&mut rng, 5, 9, 2)),
                _ => BatchInstance::One(one_interval::fixed_laxity(&mut rng, 6, 14, 0, 1)),
            });
        }
        out
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let batch = mixed_stream(60);
        let mut outputs = Vec::new();
        for threads in [1, 2, 8] {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let (lines, report) = engine.run_batch(&batch, Objective::Gaps);
            assert_eq!(report.requests, 60);
            outputs.push(lines);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn cache_does_not_change_output_only_speed() {
        let batch = mixed_stream(40);
        let cached = Engine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        let uncached = Engine::new(EngineConfig {
            threads: 4,
            cache_capacity: 0,
            ..EngineConfig::default()
        });
        let (with_cache, _) = cached.run_batch(&batch, Objective::Power { alpha: 2 });
        let (without_cache, report) = uncached.run_batch(&batch, Objective::Power { alpha: 2 });
        assert_eq!(with_cache, without_cache);
        assert_eq!(report.cache_hits, 0);
    }

    #[test]
    fn warm_cache_reports_hits() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let batch = mixed_stream(30);
        let (cold_lines, cold) = engine.run_batch(&batch, Objective::Gaps);
        let (warm_lines, warm) = engine.run_batch(&batch, Objective::Gaps);
        assert_eq!(cold_lines, warm_lines);
        assert_eq!(warm.cache_hits, 30, "every repeat request should hit");
        assert!(warm.hit_rate() > 0.99);
        assert!(cold.cache_misses > 0);
    }

    #[test]
    fn report_counts_solvers_and_latencies() {
        let engine = Engine::new(EngineConfig::default());
        let (_, report) = engine.run_batch(&mixed_stream(20), Objective::Gaps);
        assert_eq!(report.requests, 20);
        let solved: usize = report.solver_counts.values().sum();
        assert_eq!(solved as u64, report.cache_misses);
        assert!(report.latency.max >= report.latency.min);
        // Per-family latencies cover exactly the families that solved.
        let count_keys: Vec<_> = report.solver_counts.keys().collect();
        let latency_keys: Vec<_> = report.solver_latency.keys().collect();
        assert_eq!(count_keys, latency_keys);
        for lat in report.solver_latency.values() {
            assert!(lat.max <= report.latency.max);
        }
    }

    #[test]
    fn split_stream_parses_concatenated_instances() {
        let text = "# leading comment\n\ninstance v1\nprocessors 2\njob 0 3\n\nmulti v1\njob 1 4\njob 2\ninstance v1\nprocessors 1\n";
        let parsed = split_stream(text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].kind_label(), "one");
        assert_eq!(parsed[1].kind_label(), "multi");
        assert_eq!(parsed[2].job_count(), 0);
    }

    #[test]
    fn split_stream_rejects_junk() {
        assert!(split_stream("not a header\n").is_err());
        let err = split_stream("instance v1\nprocessors 1\njob zero 1\n").unwrap_err();
        assert!(err.contains("starting at line 1"), "err = {err}");
        assert!(split_stream("").unwrap().is_empty());
    }

    #[test]
    fn batch_text_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = one_interval::feasible(&mut rng, 5, 10, 2, 1);
        let b = multi_interval::feasible_slots(&mut rng, 4, 8, 1);
        let text = format!(
            "{}{}",
            serialize::instance_to_text(&a),
            serialize::multi_to_text(&b)
        );
        let engine = Engine::new(EngineConfig::default());
        let (out, report) = engine.run_batch_text(&text, Objective::Spans).unwrap();
        assert_eq!(report.requests, 2);
        assert_eq!(out.lines().count(), 2);
        assert!(out.starts_with("0 one n=5 spans="), "out = {out}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::new(EngineConfig::default());
        let (out, report) = engine.run_batch_text("", Objective::Gaps).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.requests, 0);
        assert_eq!(report.hit_rate(), 0.0);
    }

    #[test]
    fn solve_request_body_matches_the_batch_line_tail() {
        let batch = mixed_stream(25);
        let batch_engine = Engine::new(EngineConfig::default());
        let (lines, _) = batch_engine.run_batch(&batch, Objective::Gaps);
        let request_engine = Engine::new(EngineConfig::default());
        for (i, inst) in batch.iter().enumerate() {
            let outcome = request_engine.solve_request(inst, Objective::Gaps, false);
            assert_eq!(format!("{i} {}", outcome.body), lines[i]);
        }
    }

    #[test]
    fn lookup_then_solve_pending_is_solve_request() {
        let batch = mixed_stream(40);
        let composed = Engine::new(EngineConfig::default());
        let split = Engine::new(EngineConfig::default());
        // Two passes: the first is mostly misses, the second all hits.
        for _ in 0..2 {
            for inst in &batch {
                let whole = composed.solve_request(inst, Objective::Power { alpha: 3 }, false);
                let before = canonical::CALLS.with(|c| c.get());
                let halves = match split.lookup(inst, Objective::Power { alpha: 3 }, false) {
                    Ok(hit) => hit,
                    Err(pending) => split.solve_pending(pending),
                };
                assert_eq!(
                    canonical::CALLS.with(|c| c.get()) - before,
                    1,
                    "a request canonicalizes exactly once, hit or miss"
                );
                assert_eq!(halves.body, whole.body);
                assert_eq!(halves.cache_hit, whole.cache_hit);
                assert_eq!(halves.solver, whole.solver);
            }
        }
        let (a, b) = (composed.metrics().snapshot(), split.metrics().snapshot());
        assert_eq!((a.requests, a.cache_hits), (b.requests, b.cache_hits));
        assert_eq!(b.requests, 80);
        assert!(b.cache_hits >= 40, "the second pass is all hits");
    }

    #[test]
    fn an_unsolved_miss_records_nothing() {
        let engine = Engine::new(EngineConfig::default());
        let inst = mixed_stream(1).pop().expect("one instance");
        let pending = engine
            .lookup(&inst, Objective::Gaps, false)
            .expect_err("cold cache misses");
        // Dropped unsolved, as when admission refuses it: no request,
        // no miss, and nothing cached.
        drop(pending);
        assert_eq!(engine.metrics().snapshot().requests, 0);
        assert!(engine.lookup(&inst, Objective::Gaps, false).is_err());
    }

    #[test]
    fn shed_requests_degrade_and_skip_the_cache_write() {
        let mut rng = StdRng::seed_from_u64(9);
        // Small multi-interval instance: normal routing is exact
        // (multi_exact); under shed it must take the fallback chain.
        let inst = BatchInstance::Multi(multi_interval::feasible_slots(&mut rng, 5, 9, 2));
        let engine = Engine::new(EngineConfig::default());
        let shed = engine.solve_request(&inst, Objective::Gaps, true);
        assert!(shed.shed);
        assert!(!shed.cache_hit);
        let solver = shed.solver.expect("shed requests still solve");
        assert!(
            matches!(solver, SolverKind::Lemma3Greedy | SolverKind::LowerBound),
            "shed routed to {solver:?}"
        );
        // The shed (possibly inexact) answer must not have been cached:
        // the same request at full service misses and solves exactly.
        let full = engine.solve_request(&inst, Objective::Gaps, false);
        assert!(!full.cache_hit, "shed result must not poison the cache");
        assert_eq!(full.solver, Some(SolverKind::MultiExact));
        // …and the exact answer IS cached, and served even to shed
        // requests (cache reads stay enabled under shed).
        let warm = engine.solve_request(&inst, Objective::Gaps, true);
        assert!(warm.cache_hit);
        assert_eq!(warm.body, full.body);
    }

    #[test]
    fn engine_metrics_accumulate_across_calls() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let batch = mixed_stream(30);
        engine.run_batch(&batch, Objective::Gaps);
        engine.run_batch(&batch, Objective::Gaps);
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.requests, 60);
        assert_eq!(snap.cache_hits + snap.cache_misses, 60);
        assert!(snap.cache_hits >= 30, "second pass should be all hits");
        assert_eq!(snap.latency.count(), 60);
        assert!(!snap.per_solver.is_empty());
    }

    #[test]
    fn batch_report_scopes_search_effort_to_the_batch() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // An 18-job coupled banded core (the second `perf::coupled_batch`
        // instance): no dead zone splits it and its lower bounds sit
        // below the optimum, so the search must open.
        let mut rng = StdRng::seed_from_u64(0xC09E);
        let _first = multi_interval::banded(&mut rng, 18, 3, 8, 2);
        let inst = BatchInstance::Multi(multi_interval::banded(&mut rng, 18, 3, 8, 2));
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let (lines, report) = engine.run_batch(std::slice::from_ref(&inst), Objective::Gaps);
        assert!(
            lines[0].contains("solver=multi_exact"),
            "raised caps should keep this on the exact path: {}",
            lines[0]
        );
        assert!(report.search.nodes_expanded > 0);
        assert!(report.search.components.iter().sum::<u64>() > 0);
        // A second identical batch is a pure cache hit: its report must
        // show zero *new* search effort even though the lifetime totals
        // kept their history.
        let (_, warm) = engine.run_batch(std::slice::from_ref(&inst), Objective::Gaps);
        assert!(warm.search.is_empty(), "cache hit must not re-search");
        assert!(!engine.metrics().search_totals().is_empty());
    }

    #[test]
    fn equivalent_instances_collide_in_the_cache() {
        let engine = Engine::new(EngineConfig::default());
        let base = Instance::from_windows([(0, 2), (4, 5)], 1).unwrap();
        let shifted = Instance::from_windows([(1_000, 1_002), (1_004, 1_005)], 1).unwrap();
        let (lines, report) = engine.run_batch(
            &[BatchInstance::One(base), BatchInstance::One(shifted)],
            Objective::Gaps,
        );
        assert_eq!(report.cache_hits, 1, "shifted copy should hit");
        // Identical payload after the index column.
        let tail = |s: &str| s.split_once(' ').unwrap().1.to_string();
        assert_eq!(tail(&lines[0]), tail(&lines[1]));
    }
}
