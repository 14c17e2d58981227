//! Machine-readable performance trajectory for the batch engine.
//!
//! `experiments --json PATH` runs [`engine_trajectory`] and writes the
//! per-benchmark median wall-clock times as JSON (`BENCH_engine.json` by
//! convention), seeding the perf-trajectory files that later PRs compare
//! against. The same workload builder feeds the criterion bench
//! (`benches/bench_engine.rs`), so the two views measure the same thing.
//!
//! JSON is hand-rolled (the workspace is offline — no serde); the schema
//! is deliberately flat:
//!
//! ```json
//! {
//!   "suite": "engine",
//!   "benchmarks": [
//!     {"name": "batch_cold/threads=1", "median_ns": 123, "samples": 3}
//!   ],
//!   "derived": {"speedup_threads4_over_threads1": 2.5, "warm_hit_rate": 1.0}
//! }
//! ```

use gaps_engine::{BatchInstance, Engine, EngineConfig, Objective};
use gaps_workloads::{multi_interval, one_interval};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One measured benchmark: a name and its median wall clock.
#[derive(Clone, Debug)]
pub struct PerfResult {
    /// Benchmark id, e.g. `batch_cold/threads=4`.
    pub name: String,
    /// Median wall-clock over the samples, in nanoseconds.
    pub median_ns: u128,
    /// Number of timed samples behind the median.
    pub samples: usize,
}

/// A named set of results plus derived scalar metrics.
#[derive(Clone, Debug, Default)]
pub struct PerfSuite {
    /// Suite id (`engine`).
    pub suite: String,
    /// Measured benchmarks, in execution order.
    pub results: Vec<PerfResult>,
    /// Derived metrics (`(name, value)`), e.g. thread speedups.
    pub derived: Vec<(String, f64)>,
}

impl PerfSuite {
    /// Serialize the suite; stable key order, no external crates.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape(&self.suite)));
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns\": {}, \"samples\": {}}}{comma}\n",
                escape(&r.name),
                r.median_ns,
                r.samples
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"derived\": {");
        for (i, (name, value)) in self.derived.iter().enumerate() {
            let comma = if i + 1 < self.derived.len() { "," } else { "" };
            out.push_str(&format!("\n    \"{}\": {value:.4}{comma}", escape(name)));
        }
        if !self.derived.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A deterministic mixed batch exercising every router path: single- and
/// multi-processor one-interval instances (DP-heavy), zero-laxity chains
/// (forced fast path), and multi-interval instances (optimized exact
/// search). Instances are pairwise distinct, so a cold run gets no free
/// cache hits. The one-interval sizes were scaled ~1.5× in PR 3; the
/// multi-interval fifth was scaled again (12-job/2-slot `feasible_slots`
/// → 14-job/3-slot `banded`) alongside the `multi_exact` solver it now
/// routes to, so trajectory numbers before that change are not directly
/// comparable.
pub fn mixed_batch(count: usize) -> Vec<BatchInstance> {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    (0..count)
        .map(|i| match i % 5 {
            0 => BatchInstance::One(one_interval::feasible(&mut rng, 36, 72, 3, 1)),
            1 => BatchInstance::One(one_interval::uniform(&mut rng, 30, 60, 4, 2)),
            2 => BatchInstance::One(one_interval::bursty(&mut rng, 5, 6, 9, 3, 3, 2)),
            3 => BatchInstance::One(one_interval::fixed_laxity(&mut rng, 36, 90, 0, 1)),
            _ => BatchInstance::Multi(multi_interval::banded(&mut rng, 14, 3, 8, 2)),
        })
        .collect()
}

/// The scaled multi-interval bench family on its own: banded feasible
/// 12–14-job instances, alternating band shapes. Feeds the
/// `multi_cold/multi_exact` row of [`engine_trajectory`] and the
/// `bench_multi_exact` criterion group.
pub fn multi_batch(count: usize) -> Vec<BatchInstance> {
    let mut rng = StdRng::seed_from_u64(0x4D171);
    (0..count)
        .map(|i| match i % 2 {
            0 => BatchInstance::Multi(multi_interval::banded(&mut rng, 14, 3, 8, 2)),
            _ => BatchInstance::Multi(multi_interval::banded(&mut rng, 12, 4, 5, 3)),
        })
        .collect()
}

/// Coupled-core family: banded instances whose `extra` slots are drawn
/// across bands, so the width-3 inter-band zones are (almost always)
/// crossed and decomposition cannot split the search. At 18 jobs each
/// instance clears the router's parallel threshold (17), making this the
/// workload behind `multi_exact_parallel_speedup`: the whole win must
/// come from the shared-incumbent subtree fan-out, not from peeling.
pub fn coupled_batch(count: usize) -> Vec<BatchInstance> {
    let mut rng = StdRng::seed_from_u64(0xC09E);
    (0..count)
        .map(|_| BatchInstance::Multi(multi_interval::banded(&mut rng, 18, 3, 8, 2)))
        .collect()
}

/// Decomposable family: four 6-job clusters separated by uncrossed dead
/// zones. The dead-zone decomposition peels each instance into (at
/// least) four independent searches; `decomposition_speedup` compares
/// the production decomposed path against a monolithic search over the
/// same instances.
pub fn decomposable_batch(count: usize) -> Vec<BatchInstance> {
    let mut rng = StdRng::seed_from_u64(0xDEC0);
    (0..count)
        .map(|_| BatchInstance::Multi(multi_interval::clustered(&mut rng, 4, 6, 8, 2, 5)))
        .collect()
}

fn median_wall(samples: usize, mut run: impl FnMut()) -> Duration {
    let mut timings: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .collect();
    timings.sort_unstable();
    timings[timings.len() / 2]
}

/// Measure engine batch throughput cold (fresh cache, threads 1/2/4) and
/// warm (second pass over the same engine), and derive thread speedups
/// plus the warm-cache hit rate.
pub fn engine_trajectory(instances: usize, samples: usize) -> PerfSuite {
    let batch = mixed_batch(instances);
    let mut suite = PerfSuite {
        suite: "engine".to_string(),
        ..PerfSuite::default()
    };
    let mut cold_medians = Vec::new();
    for threads in [1usize, 2, 4] {
        let median = median_wall(samples, || {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let (lines, _) = engine.run_batch(&batch, Objective::Gaps);
            assert_eq!(lines.len(), batch.len());
        });
        cold_medians.push((threads, median));
        suite.results.push(PerfResult {
            name: format!("batch_cold/threads={threads}"),
            median_ns: median.as_nanos(),
            samples,
        });
    }

    // Warm pass: same engine, second time around — measures cache + pool
    // overhead with solving almost fully short-circuited.
    let engine = Engine::new(EngineConfig {
        threads: 4,
        ..EngineConfig::default()
    });
    let (_, _) = engine.run_batch(&batch, Objective::Gaps);
    let mut warm_hit_rate = 0.0;
    let warm = median_wall(samples, || {
        let (_, report) = engine.run_batch(&batch, Objective::Gaps);
        warm_hit_rate = report.hit_rate();
    });
    suite.results.push(PerfResult {
        name: "batch_warm/threads=4".to_string(),
        median_ns: warm.as_nanos(),
        samples,
    });

    // Multi-interval exact path on the scaled batch (cold cache per
    // sample, one thread — a solver measurement, not a scaling test).
    let multi = multi_batch((instances / 5).max(20));
    let multi_cold = median_wall(samples, || {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let (lines, report) = engine.run_batch(&multi, Objective::Gaps);
        assert_eq!(lines.len(), multi.len());
        assert_eq!(
            report
                .solver_counts
                .get("multi_exact")
                .copied()
                .unwrap_or(0) as u64,
            report.cache_misses,
            "whole batch must take the multi_exact path"
        );
    });
    suite.results.push(PerfResult {
        name: "multi_cold/multi_exact".to_string(),
        median_ns: multi_cold.as_nanos(),
        samples,
    });

    // PR-10 levers, measured solver-side (no engine cache in the way).
    // (a) Decomposition: the production decomposed path vs a monolithic
    // search over the same clustered instances.
    use gaps_core::multi_exact::{self, MultiObjective};
    let decomposable: Vec<_> = decomposable_batch((instances / 10).max(10))
        .into_iter()
        .filter_map(|b| match b {
            BatchInstance::Multi(m) => Some(m),
            BatchInstance::One(_) => None,
        })
        .collect();
    let dec = median_wall(samples, || {
        for inst in &decomposable {
            let (res, stats) = multi_exact::solve_multi_stats(inst, MultiObjective::Gaps);
            assert!(res.is_some() && stats.component_jobs.len() >= 4);
        }
    });
    let undec = median_wall(samples, || {
        for inst in &decomposable {
            assert!(multi_exact::solve_multi_undecomposed(inst, MultiObjective::Gaps).is_some());
        }
    });
    suite.results.push(PerfResult {
        name: "multi_decomposed/clustered".to_string(),
        median_ns: dec.as_nanos(),
        samples,
    });
    suite.results.push(PerfResult {
        name: "multi_undecomposed/clustered".to_string(),
        median_ns: undec.as_nanos(),
        samples,
    });

    // (b) Parallel branch-and-bound: the shared-incumbent subtree
    // fan-out at 8 workers vs 1 on coupled cores decomposition cannot
    // split. Optima and witness schedules must be bit-identical — a
    // nondeterministic speedup would be worthless.
    let coupled: Vec<_> = coupled_batch((instances / 10).max(10))
        .into_iter()
        .filter_map(|b| match b {
            BatchInstance::Multi(m) => Some(m),
            BatchInstance::One(_) => None,
        })
        .collect();
    let reference: Vec<_> = coupled
        .iter()
        .map(|inst| gaps_engine::parallel::solve_multi_parallel(inst, MultiObjective::Gaps, 1).0)
        .collect();
    let mut parallel_medians = Vec::new();
    for threads in [1usize, 8] {
        let median = median_wall(samples, || {
            for (inst, expect) in coupled.iter().zip(&reference) {
                let (res, _) = gaps_engine::parallel::solve_multi_parallel(
                    inst,
                    MultiObjective::Gaps,
                    threads,
                );
                assert_eq!(
                    &res, expect,
                    "parallel optimum diverged at {threads} workers"
                );
            }
        });
        parallel_medians.push(median);
        suite.results.push(PerfResult {
            name: format!("multi_parallel/threads={threads}"),
            median_ns: median.as_nanos(),
            samples,
        });
    }

    let cold1 = cold_medians[0].1.as_secs_f64();
    for &(threads, median) in &cold_medians[1..] {
        suite.derived.push((
            format!("speedup_threads{threads}_over_threads1"),
            cold1 / median.as_secs_f64().max(f64::EPSILON),
        ));
    }
    suite.derived.push((
        "warm_speedup_over_cold_threads4".to_string(),
        cold_medians[2].1.as_secs_f64() / warm.as_secs_f64().max(f64::EPSILON),
    ));
    suite
        .derived
        .push(("warm_hit_rate".to_string(), warm_hit_rate));
    suite.derived.push((
        "decomposition_speedup".to_string(),
        undec.as_secs_f64() / dec.as_secs_f64().max(f64::EPSILON),
    ));
    suite.derived.push((
        "multi_exact_parallel_speedup".to_string(),
        parallel_medians[0].as_secs_f64() / parallel_medians[1].as_secs_f64().max(f64::EPSILON),
    ));
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_batch_is_deterministic_and_distinctly_shaped() {
        let a = mixed_batch(10);
        let b = mixed_batch(10);
        assert_eq!(a, b);
        assert!(a.iter().any(|i| i.kind_label() == "one"));
        assert!(a.iter().any(|i| i.kind_label() == "multi"));
    }

    #[test]
    fn trajectory_produces_benchmarks_and_derived_metrics() {
        let suite = engine_trajectory(20, 1);
        assert_eq!(suite.suite, "engine");
        assert_eq!(suite.results.len(), 9);
        assert!(suite.results.iter().all(|r| r.median_ns > 0));
        let names: Vec<&str> = suite.derived.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"warm_hit_rate"));
        assert!(names.contains(&"speedup_threads4_over_threads1"));
        assert!(names.contains(&"decomposition_speedup"));
        assert!(names.contains(&"multi_exact_parallel_speedup"));
        let hit_rate = suite
            .derived
            .iter()
            .find(|(n, _)| n == "warm_hit_rate")
            .unwrap()
            .1;
        assert!(hit_rate > 0.99, "warm pass should hit: {hit_rate}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let suite = PerfSuite {
            suite: "engine".into(),
            results: vec![PerfResult {
                name: "a/b=1".into(),
                median_ns: 42,
                samples: 3,
            }],
            derived: vec![("quote\"test".into(), 1.5)],
        };
        let json = suite.to_json();
        assert!(json.contains("\"median_ns\": 42"));
        assert!(json.contains("quote\\\"test"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  ]"), "no trailing commas:\n{json}");
    }
}
