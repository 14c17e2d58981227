//! Cross-solver differential suite: the optimized exact DPs must bit-match
//! the (deliberately unoptimized) exhaustive reference on random instances.
//!
//! The hot-path engineering inside `multiproc_dp` / `power_dp` (interval
//! memoization, dominance pruning, flat state tables) is only safe if
//! optimality is continuously checked — this suite is that check. Every
//! run draws fresh random instances across the one-/multi-interval
//! models, processor counts 1..=4, and a sweep of α values, and demands
//! *exact* equality of optima (and of feasibility verdicts) against
//! `brute_force`. Witness schedules are verified against their instances
//! and their claimed objective values.
//!
//! Together the one-interval properties draw 640 instances per run — 160
//! cases each, comfortably over the ≥ 500 acceptance floor — and the
//! multi-interval block below adds 200 more, each checked on all three
//! objectives against the exhaustive reference; on failure the proptest
//! stub prints the case number and `PROPTEST_SEED` to replay it (see
//! README §Testing).

use gap_scheduling::instance::{Instance, MultiInstance};
use gap_scheduling::{baptiste, brute_force, multi_exact, multiproc_dp, power_dp};
use proptest::prelude::*;

/// Random one-interval instance: up to `n_max` jobs with windows inside
/// `[0, t_max]`, 1..=`p_max` processors.
fn arb_instance(n_max: usize, t_max: i64, p_max: u32) -> impl Strategy<Value = Instance> {
    (1..=p_max).prop_flat_map(move |p| {
        proptest::collection::vec((0..=t_max, 0..=t_max), 1..=n_max).prop_map(move |ws| {
            let jobs = ws
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect::<Vec<_>>();
            Instance::from_windows(jobs, p).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Theorem 1 DP ≡ exhaustive search on both the span and the
    /// finite-gap objective, across processor counts.
    #[test]
    fn multiproc_dp_bit_matches_brute_force(inst in arb_instance(7, 9, 4)) {
        let p = inst.processors();
        let dp = multiproc_dp::min_span_schedule(&inst);
        let bf = brute_force::min_spans_multiproc(&inst);
        prop_assert_eq!(dp.is_some(), bf.is_some(), "span feasibility diverged");
        if let (Some(dp), Some((bf, _))) = (dp, bf) {
            prop_assert_eq!(dp.spans, bf, "span optimum diverged");
            dp.schedule.verify(&inst).unwrap();
            prop_assert_eq!(dp.schedule.span_count(p), dp.spans);
        }
        let dp = multiproc_dp::min_gap_schedule(&inst);
        let bf = brute_force::min_gaps_multiproc(&inst);
        prop_assert_eq!(dp.is_some(), bf.is_some(), "gap feasibility diverged");
        if let (Some(dp), Some((bf, _))) = (dp, bf) {
            prop_assert_eq!(dp.gaps, bf, "gap optimum diverged");
            dp.schedule.verify(&inst).unwrap();
            prop_assert_eq!(dp.schedule.gap_count(p), dp.gaps);
        }
    }

    /// Theorem 2 power DP ≡ exhaustive search across α (sleeping,
    /// crossover, and bridging regimes).
    #[test]
    fn power_dp_bit_matches_brute_force(inst in arb_instance(6, 8, 3), alpha in 0u64..8) {
        let dp = power_dp::min_power_schedule(&inst, alpha);
        let bf = brute_force::min_power_multiproc(&inst, alpha);
        prop_assert_eq!(dp.is_some(), bf.is_some(), "power feasibility diverged");
        if let (Some(dp), Some((bf, _))) = (dp, bf) {
            prop_assert_eq!(dp.power, bf, "power optimum diverged (alpha {})", alpha);
            dp.schedule.verify(&inst).unwrap();
        }
    }

    /// One-interval p = 1 instances re-solved through the *multi-interval*
    /// model: expanding each window to its allowed-slot set and running the
    /// multi-interval exhaustive solver must reproduce the DP optima (the
    /// two models count gaps identically at p = 1).
    #[test]
    fn single_processor_dp_matches_multi_interval_reference(inst in arb_instance(5, 7, 1)) {
        let multi = inst.to_multi_interval(100);
        let dp_gaps = multiproc_dp::min_gap_value(&inst);
        let bf_gaps = brute_force::min_gaps_multi(&multi).map(|(v, _)| v);
        prop_assert_eq!(dp_gaps, bf_gaps, "gap optimum diverged across models");
        for alpha in [0u64, 1, 3, 6] {
            let dp_power = power_dp::min_power_value(&inst, alpha);
            let bf_power = brute_force::min_power_multi(&multi, alpha).map(|(v, _)| v);
            prop_assert_eq!(dp_power, bf_power, "power optimum diverged (alpha {})", alpha);
        }
    }

    /// Baptiste's single-processor DP, the Theorem 1/2 DPs, and brute
    /// force agree pairwise at p = 1 — three independent implementations,
    /// one optimum.
    #[test]
    fn three_way_single_processor_agreement(inst in arb_instance(6, 9, 1), alpha in 0u64..6) {
        let spans_dp = multiproc_dp::min_span_value(&inst);
        prop_assert_eq!(spans_dp, baptiste::min_spans_value(&inst));
        prop_assert_eq!(
            spans_dp,
            brute_force::min_spans_multiproc(&inst).map(|(v, _)| v)
        );
        let power_dp_v = power_dp::min_power_value(&inst, alpha);
        prop_assert_eq!(power_dp_v, baptiste::min_power_value(&inst, alpha));
        prop_assert_eq!(
            power_dp_v,
            brute_force::min_power_multiproc(&inst, alpha).map(|(v, _)| v)
        );
    }
}

/// Random multi-interval instance: up to `n_max` jobs, each with 1..=
/// `k_max` allowed slots drawn from `[0, t_max]`. Infeasible draws are
/// kept — feasibility verdicts must match too.
fn arb_multi(n_max: usize, t_max: i64, k_max: usize) -> impl Strategy<Value = MultiInstance> {
    proptest::collection::vec(proptest::collection::vec(0..=t_max, 1..=k_max), 1..=n_max)
        .prop_map(|times| MultiInstance::from_times(times).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The optimized multi-interval exact solver (`multi_exact`: slot-sweep
    /// branch and bound, fasthash memo, dominance pruning, lower-bound
    /// cutoffs) must bit-match the exhaustive reference on **all three
    /// objectives** — 200 instances per objective per run. Witnesses are
    /// verified against their instances and claimed values.
    #[test]
    fn multi_exact_bit_matches_brute_force(inst in arb_multi(7, 16, 3), alpha in 0u64..8) {
        let me = multi_exact::min_gaps_multi(&inst);
        let bf = brute_force::min_gaps_multi(&inst);
        prop_assert_eq!(me.is_some(), bf.is_some(), "gap feasibility diverged");
        if let (Some((v, sched)), Some((bfv, _))) = (me, bf) {
            prop_assert_eq!(v, bfv, "gap optimum diverged");
            sched.verify(&inst).unwrap();
            prop_assert_eq!(sched.gap_count(), v);
        }

        let me = multi_exact::min_spans_multi(&inst);
        let bf = brute_force::min_spans_multi(&inst);
        prop_assert_eq!(me.is_some(), bf.is_some(), "span feasibility diverged");
        if let (Some((v, sched)), Some((bfv, _))) = (me, bf) {
            prop_assert_eq!(v, bfv, "span optimum diverged");
            sched.verify(&inst).unwrap();
            prop_assert_eq!(sched.span_count(), v);
        }

        let me = multi_exact::min_power_multi(&inst, alpha);
        let bf = brute_force::min_power_multi(&inst, alpha);
        prop_assert_eq!(me.is_some(), bf.is_some(), "power feasibility diverged");
        if let (Some((v, sched)), Some((bfv, _))) = (me, bf) {
            prop_assert_eq!(v, bfv, "power optimum diverged (alpha {})", alpha);
            sched.verify(&inst).unwrap();
            prop_assert_eq!(gap_scheduling::power::power_cost_single(&sched, alpha), v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Dead-zone component decomposition must be invisible in the
    /// answers. 200 instances per run, each solved on all three
    /// objectives two ways: decomposed (the production path) and
    /// undecomposed (single monolithic search). Values must agree, and
    /// the decomposed witness must verify and attain its value. The wide
    /// `t_max` makes multi-component draws common.
    #[test]
    fn decomposition_preserves_the_optimum(
        inst in arb_multi(7, 24, 3),
        alpha in 0u64..8,
    ) {
        use gap_scheduling::multi_exact::MultiObjective;
        for objective in [
            MultiObjective::Gaps,
            MultiObjective::Spans,
            MultiObjective::Power { alpha },
        ] {
            let (dec, stats) = multi_exact::solve_multi_stats(&inst, objective);
            let undec = multi_exact::solve_multi_undecomposed(&inst, objective);
            prop_assert_eq!(
                dec.as_ref().map(|(v, _)| *v),
                undec.as_ref().map(|(v, _)| *v),
                "decomposed vs undecomposed diverged ({:?})",
                objective
            );
            if let Some((value, sched)) = &dec {
                sched.verify(&inst).unwrap();
                prop_assert!(stats.component_jobs.iter().sum::<usize>() == inst.job_count());
                // Witness attains the claimed value under the objective.
                let attained = match objective {
                    MultiObjective::Gaps => sched.gap_count(),
                    MultiObjective::Spans => sched.span_count(),
                    MultiObjective::Power { alpha } => {
                        gap_scheduling::power::power_cost_single(sched, alpha)
                    }
                };
                prop_assert_eq!(attained, *value, "witness misses its value ({:?})", objective);
            }
        }
    }
}

/// The multi-interval exhaustive reference itself is pinned against the
/// matching-based feasibility oracle: whenever `brute_force` says
/// infeasible, the Hall-violator certificate must exist, and vice versa.
/// (Keeps the reference honest — the differential suite is only as good
/// as its oracle.)
#[test]
fn brute_force_feasibility_matches_matching_oracle() {
    use gap_scheduling::feasibility;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for case in 0..120 {
        let n = rng.gen_range(1..=6);
        let jobs: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                let k = rng.gen_range(1..=3);
                (0..k).map(|_| rng.gen_range(0..10)).collect()
            })
            .collect();
        let inst = MultiInstance::from_times(jobs).unwrap();
        let by_bf = brute_force::min_gaps_multi(&inst).is_some();
        let by_matching = feasibility::is_feasible(&inst);
        assert_eq!(by_bf, by_matching, "case {case}: {inst:?}");
    }
}
