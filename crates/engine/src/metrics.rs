//! Observability for both engine lifecycles: the batch-lifetime
//! [`EngineReport`] (one summary per finite batch) and the continuously
//! updated [`MetricsRegistry`] a long-running service snapshots at any
//! instant (latency histograms per solver, cache hit rate, queue depth,
//! in-flight gauge).
//!
//! Both deliberately travel on side channels (stderr report, `STATS`
//! responses): result lines on stdout must be byte-identical across
//! thread counts, and wall-clock numbers are not.
//!
//! The registry never reads a clock itself — callers hand it measured
//! [`Duration`]s — but this module stays on the determinism-rule exempt
//! list because the batch report stores wall-clock durations.

use gaps_core::multi_exact::SearchStats;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::Duration;

/// Upper edges of the per-component job-count histogram buckets
/// (log₂-spaced up to the solver's 64-job mask cap).
pub const COMPONENT_BUCKET_EDGES: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Accumulated branch-and-bound search effort across multi-exact solves:
/// the aggregate view of [`gaps_core::multi_exact::SearchStats`] that
/// `STATS v4` and the batch report print.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchTotals {
    /// Branch-and-bound states expanded (memo misses) across solves.
    pub nodes_expanded: u64,
    /// Always 0; kept only because `perfbench/` still reads it.
    pub subtree_tasks: u64,
    /// Always 0; kept only because `perfbench/` still reads it.
    pub subtree_steals: u64,
    /// Always 0; kept only because `perfbench/` still reads it.
    pub incumbent_updates: u64,
    /// Decomposed-component size histogram; bucket `i` counts components
    /// with at most [`COMPONENT_BUCKET_EDGES`]`[i]` jobs (first bucket
    /// that fits).
    pub components: [u64; COMPONENT_BUCKET_EDGES.len()],
}

impl SearchTotals {
    /// Fold one solve's statistics in.
    pub fn record(&mut self, stats: &SearchStats) {
        self.nodes_expanded += stats.nodes_expanded;
        for &jobs in &stats.component_jobs {
            let bucket = COMPONENT_BUCKET_EDGES
                .iter()
                .position(|&edge| jobs as u64 <= edge)
                .unwrap_or(COMPONENT_BUCKET_EDGES.len() - 1);
            self.components[bucket] += 1;
        }
    }

    /// Componentwise difference (`self − earlier`), used to scope the
    /// lifetime registry's totals down to one batch.
    pub fn since(&self, earlier: &SearchTotals) -> SearchTotals {
        let mut components = [0u64; COMPONENT_BUCKET_EDGES.len()];
        for (i, slot) in components.iter_mut().enumerate() {
            *slot = self.components[i].saturating_sub(earlier.components[i]);
        }
        SearchTotals {
            nodes_expanded: self.nodes_expanded.saturating_sub(earlier.nodes_expanded),
            components,
            ..SearchTotals::default()
        }
    }

    /// True iff no search effort was recorded.
    pub fn is_empty(&self) -> bool {
        *self == SearchTotals::default()
    }
}

/// Order statistics over per-request latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Fastest request.
    pub min: Duration,
    /// Median request.
    pub median: Duration,
    /// 95th-percentile request (nearest-rank).
    pub p95: Duration,
    /// Slowest request.
    pub max: Duration,
}

/// Summarize a latency sample set (all zeros when empty).
pub fn summarize_latencies(mut samples: Vec<Duration>) -> LatencySummary {
    if samples.is_empty() {
        return LatencySummary::default();
    }
    samples.sort_unstable();
    let rank = |q_num: usize, q_den: usize| {
        // Nearest-rank percentile: ceil(q * n) as a 1-based rank.
        let n = samples.len();
        samples[(q_num * n).div_ceil(q_den).clamp(1, n) - 1]
    };
    LatencySummary {
        min: samples[0],
        median: rank(1, 2),
        p95: rank(19, 20),
        max: *samples.last().expect("non-empty"),
    }
}

/// Everything the engine observed while serving one batch.
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    /// Requests served (= result lines emitted).
    pub requests: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Requests answered from the result cache in this batch.
    pub cache_hits: u64,
    /// Requests that went to a solver in this batch.
    pub cache_misses: u64,
    /// Entries resident in the cache after the batch.
    pub cache_entries: usize,
    /// How many requests each solver handled (cache hits excluded).
    pub solver_counts: BTreeMap<&'static str, usize>,
    /// Per-solver-family latency order statistics (cache hits excluded):
    /// where the batch's time actually went, solver by solver — the
    /// router-mix view the portfolio is tuned against.
    pub solver_latency: BTreeMap<&'static str, LatencySummary>,
    /// Per-request latency order statistics.
    pub latency: LatencySummary,
    /// Branch-and-bound search effort spent by this batch's multi-exact
    /// solves (all zeros when none ran).
    pub search: SearchTotals,
    /// End-to-end batch wall clock.
    pub wall: Duration,
}

impl EngineReport {
    /// Fraction of requests answered from the cache (0.0 for an empty
    /// batch).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Requests per second of batch wall clock (0.0 for an instant or
    /// empty batch).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine: {} request(s) on {} thread(s) in {:.1?} ({:.0} req/s)",
            self.requests,
            self.threads,
            self.wall,
            self.throughput()
        )?;
        writeln!(
            f,
            "cache:  {} hit(s) / {} miss(es) ({:.1}% hit rate), {} entrie(s) resident",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.hit_rate(),
            self.cache_entries
        )?;
        write!(f, "router:")?;
        if self.solver_counts.is_empty() {
            write!(f, " (all requests served from cache)")?;
        }
        for (solver, count) in &self.solver_counts {
            write!(f, " {solver}={count}")?;
        }
        writeln!(f)?;
        for (solver, lat) in &self.solver_latency {
            writeln!(
                f,
                "        {solver}: median {:.1?} / p95 {:.1?} / max {:.1?}",
                lat.median, lat.p95, lat.max
            )?;
        }
        if !self.search.is_empty() {
            write!(
                f,
                "search: {} node(s) expanded, components",
                self.search.nodes_expanded,
            )?;
            for (edge, count) in COMPONENT_BUCKET_EDGES.iter().zip(&self.search.components) {
                if *count > 0 {
                    write!(f, " le{edge}={count}")?;
                }
            }
            writeln!(f)?;
        }
        write!(
            f,
            "latency: min {:.1?} / median {:.1?} / p95 {:.1?} / max {:.1?}",
            self.latency.min, self.latency.median, self.latency.p95, self.latency.max
        )
    }
}

/// Log₂-bucketed latency histogram over microseconds.
///
/// Bucket `b > 0` covers `[2^(b-1), 2^b)` µs; bucket 0 is sub-µs. The
/// shape makes [`Histogram::merge`] a plain vector add, so per-thread
/// recorders can be combined without rebanking, and quantiles degrade
/// gracefully (nearest rank over buckets, reported at the bucket's upper
/// edge, clamped to the observed min/max).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; Histogram::BUCKETS],
    count: u64,
    sum_us: u128,
    min_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; Histogram::BUCKETS],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }
}

impl Histogram {
    /// Bucket count: log₂ µs up to ~2³⁸ µs (≈ 3 days), then saturating.
    const BUCKETS: usize = 40;

    fn bucket(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(Histogram::BUCKETS - 1)
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, sample: Duration) {
        let us = u64::try_from(sample.as_micros()).unwrap_or(u64::MAX);
        self.counts[Histogram::bucket(us)] += 1;
        self.count += 1;
        self.sum_us += u128::from(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Fold another histogram into this one (bucket-wise add).
    pub fn merge(&mut self, other: &Histogram) {
        for (into, from) in self.counts.iter_mut().zip(other.counts.iter()) {
            *into += from;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True iff nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (zero when empty).
    pub fn min(&self) -> Duration {
        if self.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_micros(self.min_us)
        }
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us)
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_micros((self.sum_us / u128::from(self.count)) as u64)
        }
    }

    /// Nearest-rank quantile `num/den` (e.g. `1/2`, `19/20`), reported
    /// at the containing bucket's upper edge and clamped to the observed
    /// range. Zero when empty.
    pub fn quantile(&self, num: u64, den: u64) -> Duration {
        assert!(den > 0 && num <= den, "quantile must be within [0, 1]");
        if self.is_empty() {
            return Duration::ZERO;
        }
        let rank = (num * self.count).div_ceil(den).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if idx == 0 {
                    0
                } else if idx == Histogram::BUCKETS - 1 {
                    // The saturating top bucket has no finite upper edge
                    // (it absorbs everything from 2^(BUCKETS-2) µs up to
                    // u64::MAX µs), so the only honest report is the
                    // observed maximum.
                    self.max_us
                } else {
                    (1u64 << idx) - 1
                };
                return Duration::from_micros(upper.clamp(self.min_us, self.max_us));
            }
        }
        Duration::from_micros(self.max_us)
    }
}

/// Running competitive-ratio statistics for one online policy: session
/// count, mean, and worst case. Small enough to copy into snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RatioStats {
    /// Completed online sessions under this policy.
    pub sessions: u64,
    sum: f64,
    /// Worst realized ratio.
    pub max: f64,
}

impl RatioStats {
    /// Fold in one completed session's realized ratio.
    pub fn record(&mut self, ratio: f64) {
        self.sessions += 1;
        self.sum += ratio;
        if ratio > self.max {
            self.max = ratio;
        }
    }

    /// Mean realized ratio (zero when no sessions completed).
    pub fn mean(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.sum / self.sessions as f64
        }
    }
}

/// Continuously updated service metrics, shared by reference across
/// recorder threads and snapshotted at any instant by `STATS` / the
/// stderr ticker.
///
/// Counter discipline: a recorder bumps `requests` *first*, then the
/// breakdown counters (hit/miss/shed); [`MetricsRegistry::snapshot`]
/// reads the breakdowns *before* `requests`. Every breakdown increment
/// therefore has its request increment ordered before it, which gives
/// every snapshot the invariant `cache_hits + cache_misses ≤ requests`
/// without a global lock around the counters.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    protocol_errors: AtomicU64,
    in_flight: AtomicU64,
    queue_depth: AtomicU64,
    pool_workers: AtomicU64,
    latency: Mutex<Histogram>,
    per_solver: Mutex<BTreeMap<&'static str, Histogram>>,
    per_policy: Mutex<BTreeMap<&'static str, RatioStats>>,
    search: Mutex<SearchTotals>,
}

impl MetricsRegistry {
    /// Fresh registry, all zeros.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Record one completed request: which solver ran (`None` on a cache
    /// hit), whether the cache answered, whether the shed chain served
    /// it, and the measured latency.
    pub fn record_request(
        &self,
        solver: Option<&'static str>,
        cache_hit: bool,
        shed: bool,
        elapsed: Duration,
    ) {
        // `requests` first — see the struct docs for the snapshot
        // invariant this ordering buys.
        self.requests.fetch_add(1, SeqCst);
        if cache_hit {
            self.cache_hits.fetch_add(1, SeqCst);
        } else {
            self.cache_misses.fetch_add(1, SeqCst);
        }
        if shed {
            self.shed.fetch_add(1, SeqCst);
        }
        self.latency.lock().record(elapsed);
        if let Some(name) = solver {
            self.per_solver
                .lock()
                .entry(name)
                .or_default()
                .record(elapsed);
        }
    }

    /// Record an admission refusal (`BUSY`): the queue was full.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, SeqCst);
    }

    /// Record a malformed frame answered with `ERR`.
    pub fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, SeqCst);
    }

    /// A request entered the engine (admitted, not yet answered).
    pub fn inflight_enter(&self) {
        self.in_flight.fetch_add(1, SeqCst);
    }

    /// A request left the engine (answered or failed).
    pub fn inflight_exit(&self) {
        // Saturating: a stray exit must never wrap the gauge to 2⁶⁴.
        let _ = self
            .in_flight
            .fetch_update(SeqCst, SeqCst, |v| Some(v.saturating_sub(1)));
    }

    /// Publish the admission queue's current depth.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, SeqCst);
    }

    /// Publish the solve pool's current live worker count (elastic
    /// pools grow and shrink it between snapshots).
    pub fn set_pool_workers(&self, workers: u64) {
        self.pool_workers.store(workers, SeqCst);
    }

    /// Record one multi-exact solve's branch-and-bound effort (nodes
    /// expanded, component histogram). Once per solve, so a plain mutex
    /// is fine.
    pub fn record_search(&self, stats: &SearchStats) {
        self.search.lock().record(stats);
    }

    /// The lifetime search-effort totals (batch reports subtract two of
    /// these to scope effort down to one batch).
    pub fn search_totals(&self) -> SearchTotals {
        self.search.lock().clone()
    }

    /// Record one completed online session's realized competitive ratio
    /// under the named policy.
    pub fn record_session_ratio(&self, policy: &'static str, ratio: f64) {
        self.per_policy
            .lock()
            .entry(policy)
            .or_default()
            .record(ratio);
    }

    /// A consistent point-in-time copy of every counter, gauge, and
    /// histogram. See the struct docs for the ordering invariant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Breakdown counters strictly before `requests`.
        let cache_hits = self.cache_hits.load(SeqCst);
        let cache_misses = self.cache_misses.load(SeqCst);
        let shed = self.shed.load(SeqCst);
        let requests = self.requests.load(SeqCst);
        MetricsSnapshot {
            requests,
            cache_hits,
            cache_misses,
            shed,
            rejected: self.rejected.load(SeqCst),
            protocol_errors: self.protocol_errors.load(SeqCst),
            in_flight: self.in_flight.load(SeqCst),
            queue_depth: self.queue_depth.load(SeqCst),
            pool_workers: self.pool_workers.load(SeqCst),
            latency: self.latency.lock().clone(),
            per_solver: self.per_solver.lock().clone(),
            per_policy: self.per_policy.lock().clone(),
            search: self.search.lock().clone(),
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Requests answered (hits + misses, including shed requests).
    pub requests: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Requests that went to a solver.
    pub cache_misses: u64,
    /// Requests served by the degraded (shed) chain.
    pub shed: u64,
    /// Admissions refused with `BUSY`.
    pub rejected: u64,
    /// Malformed frames answered with `ERR`.
    pub protocol_errors: u64,
    /// Requests admitted but not yet answered.
    pub in_flight: u64,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Live solve-pool workers at snapshot time (0 when no pool
    /// publishes it).
    pub pool_workers: u64,
    /// Latency distribution over every answered request.
    pub latency: Histogram,
    /// Latency distribution per solver family (cache hits excluded).
    pub per_solver: BTreeMap<&'static str, Histogram>,
    /// Competitive-ratio running statistics per online policy.
    pub per_policy: BTreeMap<&'static str, RatioStats>,
    /// Lifetime branch-and-bound search effort (multi-exact solves).
    pub search: SearchTotals,
}

impl MetricsSnapshot {
    /// Fraction of requests answered from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Flat `(key, value)` rows, stable order — the `STATS` wire body
    /// and the ticker line are both rendered from this.
    pub fn stat_rows(&self) -> Vec<(String, String)> {
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let mut rows = vec![
            ("requests".to_string(), self.requests.to_string()),
            ("cache_hits".to_string(), self.cache_hits.to_string()),
            ("cache_misses".to_string(), self.cache_misses.to_string()),
            (
                "cache_hit_rate".to_string(),
                format!("{:.4}", self.hit_rate()),
            ),
            ("shed".to_string(), self.shed.to_string()),
            ("rejected".to_string(), self.rejected.to_string()),
            (
                "protocol_errors".to_string(),
                self.protocol_errors.to_string(),
            ),
            ("in_flight".to_string(), self.in_flight.to_string()),
            ("queue_depth".to_string(), self.queue_depth.to_string()),
            ("pool_workers".to_string(), self.pool_workers.to_string()),
            (
                "latency_p50_us".to_string(),
                us(self.latency.quantile(1, 2)).to_string(),
            ),
            (
                "latency_p95_us".to_string(),
                us(self.latency.quantile(19, 20)).to_string(),
            ),
            (
                "latency_max_us".to_string(),
                us(self.latency.max()).to_string(),
            ),
        ];
        for (solver, hist) in &self.per_solver {
            rows.push((format!("solver.{solver}.count"), hist.count().to_string()));
            rows.push((
                format!("solver.{solver}.p50_us"),
                us(hist.quantile(1, 2)).to_string(),
            ));
            rows.push((
                format!("solver.{solver}.p95_us"),
                us(hist.quantile(19, 20)).to_string(),
            ));
        }
        rows.push((
            "search.nodes_expanded".to_string(),
            self.search.nodes_expanded.to_string(),
        ));
        for (edge, count) in COMPONENT_BUCKET_EDGES.iter().zip(&self.search.components) {
            rows.push((format!("search.components_le_{edge}"), count.to_string()));
        }
        for (policy, stats) in &self.per_policy {
            rows.push((
                format!("policy.{policy}.sessions"),
                stats.sessions.to_string(),
            ));
            rows.push((
                format!("policy.{policy}.ratio_mean"),
                format!("{:.4}", stats.mean()),
            ));
            rows.push((
                format!("policy.{policy}.ratio_max"),
                format!("{:.4}", stats.max),
            ));
        }
        rows
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "req={} hit={:.1}% shed={} busy={} err={} inflight={} queue={} \
             p50={:.1?} p95={:.1?} max={:.1?}",
            self.requests,
            100.0 * self.hit_rate(),
            self.shed,
            self.rejected,
            self.protocol_errors,
            self.in_flight,
            self.queue_depth,
            self.latency.quantile(1, 2),
            self.latency.quantile(19, 20),
            self.latency.max(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn summary_orders_statistics() {
        let s = summarize_latencies(vec![ms(5), ms(1), ms(3), ms(2), ms(4)]);
        assert_eq!(s.min, ms(1));
        assert_eq!(s.median, ms(3));
        assert_eq!(s.max, ms(5));
        assert_eq!(s.p95, ms(5));
    }

    #[test]
    fn summary_of_empty_is_zero() {
        assert_eq!(summarize_latencies(vec![]), LatencySummary::default());
    }

    #[test]
    fn p95_uses_nearest_rank() {
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        let s = summarize_latencies(samples);
        assert_eq!(s.p95, ms(95));
        assert_eq!(s.median, ms(50));
    }

    #[test]
    fn hit_rate_and_throughput_handle_edges() {
        let empty = EngineReport::default();
        assert_eq!(empty.hit_rate(), 0.0);
        assert_eq!(empty.throughput(), 0.0);

        let report = EngineReport {
            requests: 100,
            cache_hits: 75,
            cache_misses: 25,
            wall: Duration::from_secs(2),
            ..EngineReport::default()
        };
        assert_eq!(report.hit_rate(), 0.75);
        assert_eq!(report.throughput(), 50.0);
    }

    #[test]
    fn display_mentions_every_section() {
        let mut report = EngineReport {
            requests: 3,
            threads: 2,
            cache_hits: 1,
            cache_misses: 2,
            cache_entries: 2,
            ..EngineReport::default()
        };
        report.solver_counts.insert("baptiste_dp", 2);
        report.solver_latency.insert(
            "baptiste_dp",
            summarize_latencies(vec![ms(1), ms(2), ms(3)]),
        );
        let text = report.to_string();
        for needle in [
            "engine:",
            "cache:",
            "router:",
            "latency:",
            "baptiste_dp=2",
            "baptiste_dp: median",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }

    #[test]
    fn histogram_records_and_bounds_quantiles() {
        let mut h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(1, 2), Duration::ZERO);
        for n in [1u64, 2, 3, 10, 100, 1_000] {
            h.record(ms(n));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), ms(1));
        assert_eq!(h.max(), ms(1_000));
        // Bucketed quantiles over-report by at most 2×, never under min
        // or over max, and stay monotone in q.
        let p50 = h.quantile(1, 2);
        let p95 = h.quantile(19, 20);
        assert!(p50 >= ms(3) && p50 <= ms(10), "p50 = {p50:?}");
        assert!(p95 >= ms(100), "p95 = {p95:?}");
        assert!(p50 <= p95 && p95 <= h.quantile(1, 1));
        assert_eq!(h.quantile(1, 1), h.max());
    }

    /// Pin the bucket boundaries the quantile math leans on: 1µs is the
    /// sole member of bucket 1 (upper edge 1µs), 2µs opens bucket 2
    /// (upper edge 3µs, clamped to the observed max), and samples past
    /// the saturating top bucket's lower edge must be reported at the
    /// observed maximum — not the former phantom `2^39 - 1` edge.
    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        let us = |n: u64| Duration::from_micros(n);

        // 1µs: bucket 1 covers [1, 2); quantile reports its upper edge
        // (2^1 - 1 = 1µs) exactly.
        let mut h = Histogram::default();
        h.record(us(1));
        assert_eq!(h.quantile(1, 2), us(1));
        assert_eq!(h.quantile(1, 1), us(1));

        // 2µs: bucket 2 covers [2, 4) with raw upper edge 3µs; the
        // observed-range clamp pulls the report back to the true max.
        let mut h = Histogram::default();
        h.record(us(2));
        assert_eq!(h.quantile(1, 2), us(2));
        let mut h = Histogram::default();
        h.record(us(2));
        h.record(us(3));
        assert_eq!(h.quantile(1, 1), us(3));

        // Top-bucket overflow: with {1µs, 2^45µs} the max lands in the
        // saturating bucket (index BUCKETS-1). Asking for the max
        // quantile must report 2^45µs; the deleted dead arm used to
        // leave the raw edge at 2^39 - 1 µs, *below* the sample.
        let mut h = Histogram::default();
        h.record(us(1));
        h.record(us(1 << 45));
        assert_eq!(h.quantile(1, 1), us(1 << 45));
        assert_eq!(h.quantile(1, 2), us(1));
        // Two top-bucket samples: every quantile rank resolves there.
        let mut h = Histogram::default();
        h.record(us(1 << 40));
        h.record(us(1 << 45));
        assert_eq!(h.quantile(1, 2), us(1 << 45));
        assert_eq!(h.quantile(1, 1), us(1 << 45));
    }

    #[test]
    fn histogram_merge_is_bucketwise_add() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for n in 1..=50u64 {
            a.record(ms(n));
            both.record(ms(n));
        }
        for n in 51..=100u64 {
            b.record(ms(n));
            both.record(ms(n));
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), ms(1));
        assert_eq!(a.max(), ms(100));
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
    }

    #[test]
    fn histogram_mean_and_zero_samples() {
        let mut h = Histogram::default();
        h.record(Duration::ZERO);
        h.record(ms(2));
        assert_eq!(h.mean(), ms(1));
        assert_eq!(h.min(), Duration::ZERO);
        assert!(h.quantile(1, 4) <= h.quantile(3, 4));
    }

    #[test]
    fn registry_records_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.record_request(Some("baptiste_dp"), false, false, ms(2));
        reg.record_request(None, true, false, ms(1));
        reg.record_request(Some("theorem3_approx"), false, true, ms(3));
        reg.record_rejected();
        reg.record_protocol_error();
        reg.inflight_enter();
        reg.inflight_enter();
        reg.inflight_exit();
        reg.set_queue_depth(5);
        let snap = reg.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.protocol_errors, 1);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.queue_depth, 5);
        assert_eq!(snap.latency.count(), 3);
        assert_eq!(snap.per_solver.len(), 2);
        assert_eq!(snap.per_solver["baptiste_dp"].count(), 1);
        assert!((snap.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn inflight_gauge_saturates_at_zero() {
        let reg = MetricsRegistry::new();
        reg.inflight_exit();
        assert_eq!(reg.snapshot().in_flight, 0);
    }

    #[test]
    fn ratio_stats_track_mean_and_max() {
        let mut stats = RatioStats::default();
        assert_eq!(stats.mean(), 0.0);
        stats.record(1.0);
        stats.record(2.0);
        stats.record(1.5);
        assert_eq!(stats.sessions, 3);
        assert!((stats.mean() - 1.5).abs() < 1e-12);
        assert_eq!(stats.max, 2.0);

        let reg = MetricsRegistry::new();
        reg.record_session_ratio("timeout", 1.2);
        reg.record_session_ratio("timeout", 1.8);
        reg.record_session_ratio("never-sleep", 3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.per_policy.len(), 2);
        assert_eq!(snap.per_policy["timeout"].sessions, 2);
        assert!((snap.per_policy["timeout"].mean() - 1.5).abs() < 1e-12);
        assert_eq!(snap.per_policy["never-sleep"].max, 3.0);
    }

    #[test]
    fn stat_rows_cover_the_wire_keys() {
        let reg = MetricsRegistry::new();
        reg.record_request(Some("brute_force"), false, false, ms(1));
        reg.record_session_ratio("timeout", 1.25);
        reg.set_pool_workers(4);
        let rows = reg.snapshot().stat_rows();
        let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
        for key in [
            "requests",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "shed",
            "rejected",
            "protocol_errors",
            "in_flight",
            "queue_depth",
            "pool_workers",
            "latency_p50_us",
            "latency_p95_us",
            "latency_max_us",
            "solver.brute_force.count",
            "solver.brute_force.p50_us",
            "solver.brute_force.p95_us",
            "policy.timeout.sessions",
            "policy.timeout.ratio_mean",
            "policy.timeout.ratio_max",
            "search.nodes_expanded",
            "search.components_le_1",
            "search.components_le_64",
        ] {
            assert!(keys.contains(&key), "missing {key} in {keys:?}");
        }
        // Keys are single tokens: the wire format is `stat <key> <value>`.
        for (k, v) in &rows {
            assert!(!k.contains(' ') && !v.contains(' '), "{k}={v}");
        }
        let text = reg.snapshot().to_string();
        assert!(text.contains("req=1"), "{text}");
    }

    #[test]
    fn search_totals_bucket_components_and_diff() {
        let mut totals = SearchTotals::default();
        totals.record(&SearchStats {
            nodes_expanded: 100,
            component_jobs: vec![1, 2, 3, 9, 64],
        });
        assert_eq!(totals.nodes_expanded, 100);
        // 1 → le1, 2 → le2, 3 → le4, 9 → le16, 64 → le64.
        assert_eq!(totals.components, [1, 1, 1, 0, 1, 0, 1]);

        let mut later = totals.clone();
        later.record(&SearchStats {
            nodes_expanded: 50,
            component_jobs: vec![5],
        });
        let delta = later.since(&totals);
        assert_eq!(delta.nodes_expanded, 50);
        assert_eq!(delta.components, [0, 0, 0, 1, 0, 0, 0]);
        assert!(!delta.is_empty());
        assert!(later.since(&later).is_empty());
    }

    #[test]
    fn registry_accumulates_search_effort() {
        let reg = MetricsRegistry::new();
        assert!(reg.search_totals().is_empty());
        reg.record_search(&SearchStats {
            nodes_expanded: 10,
            component_jobs: vec![4],
        });
        reg.record_search(&SearchStats {
            nodes_expanded: 5,
            component_jobs: vec![30],
        });
        let snap = reg.snapshot();
        assert_eq!(snap.search.nodes_expanded, 15);
        let rows = snap.stat_rows();
        let get = |key: &str| {
            rows.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("search.nodes_expanded"), "15");
        assert_eq!(get("search.components_le_4"), "1");
        assert_eq!(get("search.components_le_32"), "1");
    }

    #[test]
    fn report_display_includes_search_only_when_present() {
        let quiet = EngineReport::default();
        assert!(!quiet.to_string().contains("search:"));
        let mut busy = EngineReport::default();
        busy.search.record(&SearchStats {
            nodes_expanded: 42,
            component_jobs: vec![2, 2],
        });
        let text = busy.to_string();
        assert!(
            text.contains("search: 42 node(s) expanded, components"),
            "{text}"
        );
        assert!(text.contains("le2=2"), "{text}");
    }

    #[test]
    fn snapshot_breakdowns_never_exceed_requests_under_contention() {
        let reg = MetricsRegistry::new();
        crossbeam::scope(|s| {
            for t in 0..4 {
                let reg = &reg;
                s.spawn(move |_| {
                    for i in 0..500u64 {
                        reg.record_request(
                            Some("trivial"),
                            (i + t) % 3 == 0,
                            false,
                            Duration::from_micros(i),
                        );
                    }
                });
            }
            // Snapshot concurrently with the recorders: the breakdown
            // totals must never outrun the request counter, and counters
            // must be monotone across snapshots.
            let mut last = 0u64;
            for _ in 0..200 {
                let snap = reg.snapshot();
                assert!(
                    snap.cache_hits + snap.cache_misses <= snap.requests,
                    "hits {} + misses {} > requests {}",
                    snap.cache_hits,
                    snap.cache_misses,
                    snap.requests
                );
                assert!(snap.requests >= last, "requests went backwards");
                last = snap.requests;
            }
        })
        .expect("scope join");
        let final_snap = reg.snapshot();
        assert_eq!(final_snap.requests, 2_000);
        assert_eq!(
            final_snap.cache_hits + final_snap.cache_misses,
            final_snap.requests
        );
        assert_eq!(final_snap.latency.count(), 2_000);
    }
}
