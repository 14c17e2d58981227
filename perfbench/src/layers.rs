//! Per-layer metrics of a traced run.
//!
//! Span timings come from the traced replay; counters from the engine
//! state the replay leaves behind; `serve.*`, `fail.*` and the
//! generator lag from the end-to-end part of the same run. A layer a
//! workload never reaches (the wire protocol under `batch_mix`, the
//! power DP under the `gaps` objective) reports 0 with a sample count of
//! 0.

use crate::e2e::E2e;
use crate::replay::Replay;
use crate::report::Metric;
use crate::stats::{mean, median, percentile};
use crate::trace::self_times;
use std::collections::HashMap;

/// Solvers with their own per-layer rows, by span name suffix.
const SOLVERS: [&str; 5] = [
    "forced_chain",
    "baptiste_dp",
    "multiproc_dp",
    "power_dp",
    "multi_exact",
];

/// Per-layer figures only the end-to-end run can see: the daemon from
/// the client's side, the open-loop generator's lateness, and the
/// end-to-end tail.
const OUTSIDE: [(&str, &str); 9] = [
    ("serve.transport_us_p50", "us"),
    ("serve.rejected", "count"),
    ("serve.conn_dropped", "count"),
    ("serve.hit_latency_p50_ms", "ms"),
    ("serve.hit_latency_p99_ms", "ms"),
    ("serve.miss_latency_p50_ms", "ms"),
    ("serve.miss_latency_p95_ms", "ms"),
    ("harness.gen_lag_p99_ms", "ms"),
    ("e2e.latency_p99_ms", "ms"),
];

/// The `serve.*` rows of [`OUTSIDE`].
const SERVE_ROWS: usize = 7;

/// [`OUTSIDE`]'s figures from an end-to-end run; 0 with a sample count
/// of 0 where the workload has no such figure.
pub fn seen_from_outside(e2e: &E2e) -> Vec<Metric> {
    OUTSIDE
        .iter()
        .map(|&(name, unit)| {
            if name == "e2e.latency_p99_ms" {
                return Metric {
                    spread: e2e.latency_p99_ms.clone(),
                    ..Metric::new(
                        name,
                        median(&e2e.latency_p99_ms).unwrap_or(0.0),
                        unit,
                        e2e.latency_count,
                    )
                };
            }
            let value = e2e.layer.get(name).copied();
            Metric::new(
                name,
                value.unwrap_or(0.0),
                unit,
                usize::from(value.is_some()),
            )
        })
        .collect()
}

/// Durations (µs) and total self time (ns) of every span name.
#[derive(Default)]
struct SpanStats {
    us: HashMap<&'static str, Vec<f64>>,
    self_ns: HashMap<&'static str, u64>,
}

impl SpanStats {
    fn of(replay: &Replay) -> SpanStats {
        let mut s = SpanStats::default();
        for trace in &replay.traces {
            for (span, own) in trace.spans.iter().zip(self_times(&trace.spans)) {
                s.us.entry(span.name)
                    .or_default()
                    .push(span.duration_ns() as f64 / 1e3);
                *s.self_ns.entry(span.name).or_default() += own;
            }
        }
        s
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.us.get(name).map_or(&[], Vec::as_slice)
    }

    /// Percentile `p` of a span's durations, µs.
    fn pct(&self, name: &'static str, p: f64, metric: &str) -> Metric {
        let v = self.samples(name);
        Metric::new(metric, percentile(v, p).unwrap_or(0.0), "us", v.len())
    }

    fn count(&self, name: &str) -> usize {
        self.samples(name).len()
    }
}

/// Every per-layer metric of one traced run.
pub fn per_layer(
    e2e: &E2e,
    traced: &Replay,
    untraced: &Replay,
    parallel_efficiency: Option<f64>,
) -> Vec<Metric> {
    let s = SpanStats::of(traced);
    let c = &traced.counts;
    let mut out = vec![s.pct("protocol.parse_frame", 50.0, "protocol.parse_frame_us_p50")];
    // The batch path parses the whole stream at once; its per-instance
    // figure is that time spread over the instances.
    let parse = if traced.stream_parse_ms.is_empty() {
        s.pct("serialize.split_stream", 50.0, "serialize.parse_us_p50")
    } else {
        let per_instance_us = mean(&traced.stream_parse_ms).unwrap_or(0.0) * 1e3
            / traced.stream_instances.max(1) as f64;
        Metric::new(
            "serialize.parse_us_p50",
            per_instance_us,
            "us",
            traced.stream_parse_ms.len(),
        )
    };
    out.push(parse);
    out.push(Metric::new(
        "serialize.stream_parse_ms",
        mean(&traced.stream_parse_ms).unwrap_or(0.0),
        "ms",
        traced.stream_parse_ms.len(),
    ));
    out.push(s.pct("canonical", 50.0, "canonical.us_p50"));
    out.push(Metric::new(
        "canonical.key_bytes_mean",
        c.key_bytes as f64 / c.keys.max(1) as f64,
        "bytes",
        c.keys as usize,
    ));
    out.push(s.pct("cache.get", 50.0, "cache.get_us_p50"));
    out.push(s.pct("cache.insert", 50.0, "cache.insert_us_p50"));
    out.push(Metric::new(
        "cache.hit_rate",
        c.hits as f64 / c.gets.max(1) as f64,
        "ratio",
        c.gets as usize,
    ));
    let inserts = s.count("cache.insert") as u64;
    out.push(Metric::new(
        "cache.evictions",
        inserts.saturating_sub(c.resident) as f64,
        "count",
        inserts as usize,
    ));
    out.push(s.pct("router.route", 50.0, "router.route_us_p50"));
    for solver in SOLVERS {
        let span = format!("solver.{solver}");
        out.push(Metric::new(
            format!("router.count.{solver}"),
            s.count(&span) as f64,
            "count",
            s.count(&span),
        ));
    }
    let request_ns: u64 = s
        .samples("request")
        .iter()
        .map(|us| (us * 1e3) as u64)
        .sum();
    for solver in SOLVERS {
        let span = format!("solver.{solver}");
        let v = s.samples(&span);
        let own = s.self_ns.get(span.as_str()).copied().unwrap_or(0);
        out.push(Metric::new(
            format!("solver.{solver}.us_p50"),
            percentile(v, 50.0).unwrap_or(0.0),
            "us",
            v.len(),
        ));
        out.push(Metric::new(
            format!("solver.{solver}.us_p99"),
            percentile(v, 99.0).unwrap_or(0.0),
            "us",
            v.len(),
        ));
        out.push(Metric::new(
            format!("solver.{solver}.self_share"),
            own as f64 / request_ns.max(1) as f64,
            "ratio",
            v.len(),
        ));
    }
    for (name, value) in [
        ("search.nodes_expanded", c.nodes_expanded),
        ("search.subtree_tasks", c.subtree_tasks),
        ("search.subtree_steals", c.subtree_steals),
        ("search.incumbent_updates", c.incumbent_updates),
    ] {
        out.push(Metric::new(name, value as f64, "count", 1));
    }
    out.push(Metric::new(
        "search.parallel_efficiency",
        parallel_efficiency.unwrap_or(0.0),
        "ratio",
        usize::from(parallel_efficiency.is_some()),
    ));
    out.push(s.pct("pool.queue_wait", 50.0, "pool.queue_wait_us_p50"));
    out.push(s.pct("pool.queue_wait", 99.0, "pool.queue_wait_us_p99"));
    out.push(Metric::new(
        "pool.busy_share",
        traced.work_by_request.values().sum::<u64>() as f64
            / (crate::inputs::THREADS as f64 * traced.wall_ns.max(1) as f64),
        "ratio",
        traced.tally.sent as usize,
    ));
    out.push(Metric::new(
        "pool.map_ordered_efficiency",
        traced.map_efficiency.unwrap_or(0.0),
        "ratio",
        usize::from(traced.map_efficiency.is_some()),
    ));
    out.push(s.pct("metrics.record_request", 50.0, "metrics.record_us_p50"));
    out.extend(seen_from_outside(e2e).into_iter().take(SERVE_ROWS));
    // A replayed body that differs from the engine's is a wrong answer
    // too: the harness's pipeline drifted from `Engine::solve_request`.
    let wrong = e2e.tally.wrong + traced.tally.wrong + untraced.tally.wrong;
    for (name, value) in [
        ("fail.busy", e2e.tally.busy),
        ("fail.err", e2e.tally.err),
        ("fail.timeout", e2e.tally.timeout),
        ("fail.wrong", wrong),
    ] {
        out.push(Metric::new(
            name,
            value as f64,
            "count",
            e2e.tally.sent as usize,
        ));
    }
    out.push(Metric::new(
        "failed_share",
        e2e.tally.failed() as f64 / e2e.tally.sent.max(1) as f64,
        "ratio",
        e2e.tally.sent as usize,
    ));
    out.extend(seen_from_outside(e2e).into_iter().skip(SERVE_ROWS));
    out.push(Metric::new(
        "harness.trace_overhead",
        crate::replay::trace_overhead(traced, untraced),
        "ratio",
        traced.tally.sent as usize,
    ));
    out
}
