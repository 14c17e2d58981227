//! Seeded workload inputs and the answers they must get.
//!
//! Every input is drawn from the `gaps_workloads` generator families
//! with a `StdRng` seeded from the command-line seed, so one seed always
//! yields the same instances. Sets are deduplicated on the engine's own
//! canonical cache key, so "distinct" means distinct to the cache, not
//! merely distinct as text.

use gaps_engine::canonical::canonicalize;
use gaps_engine::{pool, BatchInstance, Engine, EngineConfig, Objective};
use gaps_workloads::{multi_interval, one_interval, serialize};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Worker threads of the daemon, of `gaps batch`, and of every
/// in-process replay.
pub const THREADS: usize = 2;

/// Size of the warmed small set both serve workloads draw from.
pub const SMALL_SET: usize = 256;

/// Instances in the batch file.
pub const BATCH_INSTANCES: usize = 6_000;

/// Objective of both serve workloads.
pub const SERVE_OBJECTIVE: Objective = Objective::Gaps;

/// The two passes of one batch sample: Theorem 1's objective, then
/// Theorem 2's.
pub const BATCH_OBJECTIVES: [Objective; 2] = [Objective::Gaps, Objective::Power { alpha: 3 }];

/// Distinct seeds per input family, so the families never share a
/// random stream.
fn rng(seed: u64, family: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ family)
}

/// Draw from `next` until `count` instances with pairwise-distinct
/// canonical keys under every objective in `objectives` are collected.
fn distinct(
    count: usize,
    objectives: &[Objective],
    mut next: impl FnMut(usize) -> BatchInstance,
) -> Vec<BatchInstance> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut draws = 0usize;
    while out.len() < count {
        assert!(
            draws < count * 20,
            "generator family too narrow for {count} distinct instances"
        );
        let inst = next(draws);
        draws += 1;
        let keys: Vec<String> = objectives
            .iter()
            .map(|&o| canonicalize(&inst, o).key)
            .collect();
        if keys.iter().any(|k| seen.contains(k)) {
            continue;
        }
        seen.extend(keys);
        out.push(inst);
    }
    out
}

/// The small set: `streams::mixed_stream`'s 8-job one-interval families
/// (feasible with slack 2, and zero-laxity chains; both on one
/// processor) and its 7-job multi-interval family, in rotation. They
/// route to `baptiste_dp`, `forced_chain` and `multi_exact`.
pub fn small_set(seed: u64) -> Vec<BatchInstance> {
    let mut r = rng(seed, 1);
    distinct(SMALL_SET, &[SERVE_OBJECTIVE], |i| match i % 3 {
        0 => BatchInstance::One(one_interval::feasible(&mut r, 8, 16, 2, 1)),
        1 => BatchInstance::One(one_interval::fixed_laxity(&mut r, 8, 18, 0, 1)),
        _ => BatchInstance::Multi(multi_interval::feasible_slots(&mut r, 7, 10, 1)),
    })
}

/// Seed of the heavy corpus (the `perf::coupled_batch` family).
const HEAVY_CORPUS_SEED: u64 = 0xC09E;

/// The heavy corpus: `count` distinct 18-job coupled banded
/// multi-interval instances, above the router's parallel threshold.
///
/// Unlike every other input this corpus does not depend on the run's
/// seed. Its instances differ widely in search effort and memory, so a
/// per-seed draw of a few hundred of them moved the open loop's tail
/// latency, CPU per request and peak memory by about 30% from seed to
/// seed, far more than any change worth measuring. The seed still picks
/// where in the schedule each heavy request falls and in which order the
/// corpus is requested.
pub fn heavy_corpus(count: usize) -> Vec<BatchInstance> {
    let mut r = StdRng::seed_from_u64(HEAVY_CORPUS_SEED);
    distinct(count, &[SERVE_OBJECTIVE], |_| {
        BatchInstance::Multi(multi_interval::banded(&mut r, 18, 3, 8, 2))
    })
}

/// The batch file's instances: the five `perf::mixed_batch` families in
/// rotation, distinct under both batch objectives.
pub fn batch_set(seed: u64) -> Vec<BatchInstance> {
    let mut r = rng(seed, 3);
    distinct(BATCH_INSTANCES, &BATCH_OBJECTIVES, |i| match i % 5 {
        0 => BatchInstance::One(one_interval::feasible(&mut r, 36, 72, 3, 1)),
        1 => BatchInstance::One(one_interval::uniform(&mut r, 30, 60, 4, 2)),
        2 => BatchInstance::One(one_interval::bursty(&mut r, 5, 6, 9, 3, 3, 2)),
        3 => BatchInstance::One(one_interval::fixed_laxity(&mut r, 36, 90, 0, 1)),
        _ => BatchInstance::Multi(multi_interval::banded(&mut r, 14, 3, 8, 2)),
    })
}

/// What one open-loop request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// Small-set instance `i` (a cache hit once warmed).
    Small(usize),
    /// Heavy-corpus instance `j` (each requested once: a miss).
    Heavy(usize),
}

/// The open-loop traffic mix of `count` requests: one heavy request in
/// every block of `round(1 / heavy_share)` consecutive requests, at a
/// seeded position within its block and in seeded corpus order; every
/// other request uniform over the small set. Spreading the heavy
/// requests over blocks keeps the seed from deciding how many arrive
/// back to back, which alone moved the open loop's tail latency by a
/// third between seeds.
pub fn open_mix(seed: u64, count: usize, heavy_share: f64) -> Vec<Pick> {
    let mut r = rng(seed, 4);
    let block = ((1.0 / heavy_share).round() as usize).max(1);
    let heavy = count / block;
    let mut order: Vec<usize> = (0..heavy).collect();
    order.shuffle(&mut r);
    let mut mix: Vec<Pick> = (0..count)
        .map(|_| Pick::Small(r.gen_range(0..SMALL_SET)))
        .collect();
    for (b, j) in order.into_iter().enumerate() {
        mix[b * block + r.gen_range(0..block)] = Pick::Heavy(j);
    }
    mix
}

/// The `serialize` text of one instance.
pub fn to_text(inst: &BatchInstance) -> String {
    match inst {
        BatchInstance::One(one) => serialize::instance_to_text(one),
        BatchInstance::Multi(multi) => serialize::multi_to_text(multi),
    }
}

/// The engine configuration of the daemon and of `gaps batch` at
/// `--threads 2`.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: THREADS,
        ..EngineConfig::default()
    }
}

/// The body every request must get: `Engine::solve_request` on a fresh
/// engine (fanned over the ordered pool; bodies do not depend on the
/// thread count or on order).
pub fn expected_bodies(instances: &[BatchInstance], objective: Objective) -> Vec<String> {
    let engine = Engine::new(engine_config());
    let refs: Vec<&BatchInstance> = instances.iter().collect();
    pool::map_ordered(refs, THREADS, |_, inst| {
        engine.solve_request(inst, objective, false).body
    })
}

/// The lines `gaps batch` must print: `Engine::run_batch` on a fresh
/// engine.
pub fn expected_batch_lines(instances: &[BatchInstance], objective: Objective) -> Vec<String> {
    Engine::new(engine_config())
        .run_batch(instances, objective)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seeded_and_distinct() {
        let a = small_set(5);
        assert_eq!(a.len(), SMALL_SET);
        assert_eq!(a, small_set(5));
        assert_ne!(a, small_set(6));
        let keys: HashSet<String> = a
            .iter()
            .map(|i| canonicalize(i, SERVE_OBJECTIVE).key)
            .collect();
        assert_eq!(keys.len(), SMALL_SET);
        let heavy = heavy_corpus(4);
        assert!(heavy.iter().all(|h| h.job_count() == 18));
        let mix = open_mix(5, 2_000, 0.05);
        assert_eq!(mix, open_mix(5, 2_000, 0.05));
        assert_ne!(mix, open_mix(6, 2_000, 0.05));
        let mut heavy_picks: Vec<usize> = mix
            .iter()
            .filter_map(|p| match p {
                Pick::Heavy(j) => Some(*j),
                Pick::Small(_) => None,
            })
            .collect();
        heavy_picks.sort_unstable();
        assert_eq!(heavy_picks, (0..100).collect::<Vec<_>>());
    }
}
