//! Golden pins for the exact multi-interval solver's dead-zone component
//! decomposition, run through `multi_exact::solve_multi_stats`.
//!
//! The instance below is hand-built so every structural claim is
//! checkable on paper: three components separated by dead zones no job
//! window crosses, a coupled 5-job core whose every lower bound (the
//! union is one contiguous run) sits strictly below its optimum — so the
//! branch-and-bound *must* open nodes and cannot take the closed-form
//! shortcut — and two trivial satellites that decomposition should peel
//! off without search. Optima on all three objectives are pinned as
//! literals and cross-checked against the exhaustive reference.

use gap_scheduling::brute_force;
use gap_scheduling::engine::{BatchInstance, Engine, EngineConfig, Objective};
use gap_scheduling::instance::MultiInstance;
use gap_scheduling::multi_exact::{self, MultiObjective};

/// Core: slots 0,1,8,9 are forced; one job covers the middle; the union
/// 0..=9 is contiguous, so span lower bounds say 1 while the optimum is
/// 2 ({0,1,2} + {8,9}). Satellites: a 2-job cluster at 40..=42 and a
/// singleton at 60, across dead zones of width 30 and 17.
fn coupled_instance() -> MultiInstance {
    MultiInstance::from_times([
        vec![0, 1],
        vec![0, 1],
        vec![8, 9],
        vec![8, 9],
        vec![2, 3, 4, 5, 6, 7],
        vec![40, 41],
        vec![41, 42],
        vec![60],
    ])
    .unwrap()
}

#[test]
fn golden_component_structure_and_optima() {
    let inst = coupled_instance();
    // Spans: core 2 + cluster 1 + singleton 1.
    let (res, stats) = multi_exact::solve_multi_stats(&inst, MultiObjective::Spans);
    let (spans, sched) = res.expect("feasible");
    assert_eq!(spans, 4);
    sched.verify(&inst).unwrap();
    assert_eq!(sched.span_count(), 4);
    assert_eq!(stats.component_jobs, vec![5, 2, 1], "decomposition shape");
    assert!(
        stats.nodes_expanded > 0,
        "the coupled core must defeat the closed-form shortcut: {stats:?}"
    );

    // Gaps = spans - 1 on a single processor.
    let (res, stats) = multi_exact::solve_multi_stats(&inst, MultiObjective::Gaps);
    let (gaps, _) = res.expect("feasible");
    assert_eq!(gaps, 3);
    assert_eq!(stats.component_jobs, vec![5, 2, 1]);

    // Power, α = 2: 8 busy slots + α for the first wake + three
    // between-span holes each clipped to α: 8 + 2 + 3·2 = 16.
    let (res, stats) = multi_exact::solve_multi_stats(&inst, MultiObjective::Power { alpha: 2 });
    let (power, sched) = res.expect("feasible");
    assert_eq!(power, 16);
    assert_eq!(gap_scheduling::power::power_cost_single(&sched, 2), 16);
    assert_eq!(stats.component_jobs, vec![5, 2, 1]);

    // Every pinned literal re-derived by the exhaustive reference.
    assert_eq!(brute_force::min_spans_multi(&inst).unwrap().0, 4);
    assert_eq!(brute_force::min_gaps_multi(&inst).unwrap().0, 3);
    assert_eq!(brute_force::min_power_multi(&inst, 2).unwrap().0, 16);
}

/// `--threads` fans a batch out across instances and nothing else: the
/// engine's line and search effort for the coupled instance are the same
/// at one, two and eight threads, on every objective.
#[test]
fn thread_counts_one_two_eight_are_bit_identical() {
    let batch = [BatchInstance::Multi(coupled_instance())];
    for (objective, payload) in [
        (Objective::Gaps, "gaps=3"),
        (Objective::Spans, "spans=4"),
        (Objective::Power { alpha: 2 }, "power=16"),
    ] {
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let engine = Engine::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            let (lines, report) = engine.run_batch(&batch, objective);
            assert_eq!(
                lines,
                vec![format!("0 multi n=8 {payload} solver=multi_exact")],
                "--threads {threads} diverged on {objective:?}"
            );
            // One component each of 5, 2 and 1 jobs (buckets ≤8, ≤2, ≤1).
            assert_eq!(report.search.components, [1, 1, 0, 1, 0, 0, 0]);
            assert!(report.search.nodes_expanded > 0, "the core must search");
            let nodes = *reference.get_or_insert(report.search.nodes_expanded);
            assert_eq!(
                report.search.nodes_expanded, nodes,
                "--threads {threads} changed the search on {objective:?}"
            );
        }
    }
}

/// A dead zone narrower than α must *not* be cut for the power
/// objective (a sleep decision spans it), while the span objective cuts
/// it — and both still agree with the exhaustive reference.
#[test]
fn objective_dependent_cuts_stay_exact() {
    let inst = MultiInstance::from_times([vec![0, 1], vec![4, 5], vec![5, 6]]).unwrap();
    let alpha = 6;
    let (_, span_stats) = multi_exact::solve_multi_stats(&inst, MultiObjective::Spans);
    assert_eq!(
        span_stats.component_jobs,
        vec![1, 2],
        "spans cut at the 2-wide zone"
    );
    let (res, power_stats) = multi_exact::solve_multi_stats(&inst, MultiObjective::Power { alpha });
    assert_eq!(
        power_stats.component_jobs,
        vec![3],
        "a zone narrower than α stays coupled under power"
    );
    assert_eq!(
        res.map(|(v, _)| v),
        brute_force::min_power_multi(&inst, alpha).map(|(v, _)| v)
    );
}
