//! Portfolio routing: pick the right solver for each instance's shape.
//!
//! The paper's algorithms have sharply different sweet spots — Baptiste's
//! single-processor DP, the Theorem 1/2 multiprocessor DPs, the
//! multi-interval branch-and-bound (exponential in the coupled job count,
//! so capped), and the Theorem 3 approximation (power only, but
//! polynomial for any size).
//! Related work makes the same point from the other direction:
//! Baptiste–Chrobak–Dürr (arXiv:0908.3505) and Bidlingmaier's greedy
//! minimum-energy scheduling (arXiv:2307.00949) both key their algorithm
//! choice on instance shape (unit vs. arbitrary jobs, laxity, processor
//! count). The router reads those features off the canonical instance and
//! dispatches. A multi-interval instance past the exact solver's caps is
//! NP-hard territory: it gets one **interval** answer, a polynomial lower
//! bound paired with the value of a schedule (Theorem 3 under power,
//! Lemma 3's completion otherwise), which is exact when the two meet.
//!
//! Routing is a pure function of the canonical form, so a cached result
//! and a freshly routed one can never disagree on the solver tag.

use crate::{BatchInstance, Objective};
use gaps_core::instance::Instance;
use gaps_core::time::run_count;
use gaps_core::{
    baptiste, compress, lower_bounds, multi_exact, multi_interval, multiproc_dp, power, power_dp,
};
use std::fmt;

/// Every solver the portfolio can dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SolverKind {
    /// Zero jobs: every objective is 0 by definition.
    Trivial,
    /// One-interval, `p = 1`, zero laxity: the schedule is forced, so the
    /// objective is read directly off the sorted release times.
    ForcedChain,
    /// Baptiste's `p = 1` dynamic program (\[Bap06\]), all objectives.
    BaptisteDp,
    /// Theorem 1 multiprocessor gap/span DP.
    MultiprocDp,
    /// Theorem 2 multiprocessor power DP.
    PowerDp,
    /// Multi-interval exact solver (branch-and-bound with memoization;
    /// see [`gaps_core::multi_exact`]).
    MultiExact,
    /// Theorem 3 `(1 + (2/3 + ε)α)`-approximation: the upper end of a
    /// large multi-interval instance's power interval.
    Theorem3Approx,
    /// Lemma 3 completion (any feasible schedule, ≤ 1 gap per job): the
    /// upper end of a large multi-interval instance's gap/span interval.
    Lemma3Greedy,
}

impl SolverKind {
    /// Stable tag used in result lines and metrics.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Trivial => "trivial",
            SolverKind::ForcedChain => "forced_chain",
            SolverKind::BaptisteDp => "baptiste_dp",
            SolverKind::MultiprocDp => "multiproc_dp",
            SolverKind::PowerDp => "power_dp",
            SolverKind::MultiExact => "multi_exact",
            SolverKind::Theorem3Approx => "theorem3_approx",
            SolverKind::Lemma3Greedy => "lemma3_greedy",
        }
    }
}

/// A solved request's result, kept typed until the output edge renders
/// it as one whitespace-free token: `gaps=2`, `gaps=[3,5]` or
/// `infeasible`. `label` names the objective (`gaps`, `spans`, `power`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// The proven optimum.
    Exact { label: &'static str, value: u64 },
    /// The optimum lies in `lower..=upper` (`lower < upper`): a
    /// polynomial lower bound and the value of a schedule.
    Within {
        label: &'static str,
        lower: u64,
        upper: u64,
    },
    /// No feasible schedule exists.
    Infeasible,
}

impl Answer {
    /// The optimum, or `Infeasible` when the solver found no schedule.
    fn exact(objective: Objective, value: Option<u64>) -> Answer {
        match value {
            Some(value) => Answer::Exact {
                label: objective.label(),
                value,
            },
            None => Answer::Infeasible,
        }
    }

    /// The interval `lower..=upper`, collapsed to `Exact` when the
    /// bounds meet.
    fn within(objective: Objective, lower: u64, upper: u64) -> Answer {
        debug_assert!(
            lower <= upper,
            "lower bound {lower} above a schedule's {upper}"
        );
        if lower == upper {
            return Answer::exact(objective, Some(upper));
        }
        Answer::Within {
            label: objective.label(),
            lower,
            upper,
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Answer::Exact { label, value } => write!(f, "{label}={value}"),
            Answer::Within {
                label,
                lower,
                upper,
            } => write!(f, "{label}=[{lower},{upper}]"),
            Answer::Infeasible => f.write_str("infeasible"),
        }
    }
}

/// Local-search rounds for the Theorem 3 set packing (the paper's ε).
const APPROX_ROUNDS: usize = 64;

/// Router knobs: how large a multi-interval instance the exact solver
/// takes. Every exact solve runs on the calling thread; `--threads`
/// parallelizes across instances only.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The exact solver's state space is exponential in the *job* count,
    /// not the slot count — and component decomposition means only the
    /// largest coupled core pays that cost — so it accepts many slots…
    pub multi_exact_max_slots: usize,
    /// …but at most this many jobs (64 is the solver's hard mask-width
    /// cap; 0 sends every multi-interval instance to the interval
    /// answer).
    pub multi_exact_max_jobs: usize,
    /// Unread by the engine; kept only because `perfbench/` still sets it.
    pub multi_exact_threads: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            multi_exact_max_slots: 384,
            multi_exact_max_jobs: 64,
            multi_exact_threads: 0,
        }
    }
}

impl RouterConfig {
    /// Degraded copy used under overload shedding: the exponential
    /// multi-interval exact solver is switched off, so every
    /// multi-interval instance gets the (polynomial) interval answer.
    /// One-interval routing is untouched — the DPs are polynomial and
    /// not worth shedding.
    pub fn shed(&self) -> RouterConfig {
        RouterConfig {
            multi_exact_max_jobs: 0,
            ..self.clone()
        }
    }
}

/// Shape features the router keys on, extracted from a canonical instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Features {
    /// Multi-interval (`multi v1`) vs. one-interval (`instance v1`).
    pub multi_interval: bool,
    /// Number of jobs `n`.
    pub jobs: usize,
    /// Processor count (1 for multi-interval instances).
    pub processors: u32,
    /// Maximum window length (one-interval: max laxity + 1; multi: max
    /// allowed-set size). 1 means the schedule is fully forced.
    pub max_window: u64,
    /// Live slots (size of the union of allowed/usable slots).
    pub slots: usize,
}

/// Extract routing features.
pub fn features(inst: &BatchInstance) -> Features {
    match inst {
        BatchInstance::One(one) => Features {
            multi_interval: false,
            jobs: one.job_count(),
            processors: one.processors(),
            max_window: one.jobs().iter().map(|j| j.window_len()).max().unwrap_or(0),
            slots: one.horizon().map_or(0, |h| h.len() as usize),
        },
        BatchInstance::Multi(multi) => Features {
            multi_interval: true,
            jobs: multi.job_count(),
            processors: 1,
            max_window: multi
                .jobs()
                .iter()
                .map(|j| j.times().len() as u64)
                .max()
                .unwrap_or(0),
            slots: multi.slot_union().len(),
        },
    }
}

/// Pick a solver for an instance with the given features.
pub fn route(feat: &Features, objective: Objective, cfg: &RouterConfig) -> SolverKind {
    if feat.jobs == 0 {
        return SolverKind::Trivial;
    }
    if !feat.multi_interval {
        if feat.processors == 1 {
            return if feat.max_window == 1 {
                SolverKind::ForcedChain
            } else {
                SolverKind::BaptisteDp
            };
        }
        return match objective {
            Objective::Power { .. } => SolverKind::PowerDp,
            Objective::Gaps | Objective::Spans => SolverKind::MultiprocDp,
        };
    }
    if feat.slots <= cfg.multi_exact_max_slots && feat.jobs <= cfg.multi_exact_max_jobs {
        return SolverKind::MultiExact;
    }
    match objective {
        Objective::Power { .. } => SolverKind::Theorem3Approx,
        Objective::Gaps | Objective::Spans => SolverKind::Lemma3Greedy,
    }
}

/// Refuse a one-interval instance too large for the DP it routes to.
/// The compressed horizon comes from the merged windows, so untrusted
/// input is checked before canonicalization materializes a slot. A
/// forced chain has no limit.
pub fn check_dp_limits(inst: &BatchInstance, objective: Objective) -> Result<(), String> {
    let BatchInstance::One(one) = inst else {
        return Ok(());
    };
    let feat = features(inst);
    let kind = route(&feat, objective, &RouterConfig::default());
    let (max_timeline, max_jobs) = match kind {
        SolverKind::BaptisteDp => (baptiste::MAX_TIMELINE, usize::MAX),
        SolverKind::MultiprocDp => (multiproc_dp::MAX_TIMELINE, multiproc_dp::MAX_JOBS),
        SolverKind::PowerDp => (power_dp::MAX_TIMELINE, power_dp::MAX_JOBS),
        _ => return Ok(()),
    };
    let alpha = match objective {
        Objective::Power { alpha } => Some(alpha),
        Objective::Gaps | Objective::Spans => None,
    };
    // The DP pads the horizon with a sentinel slot at each end.
    // Compression never widens the raw horizon (`feat.slots`), so only
    // an instance whose raw horizon is too wide gets measured.
    let fits = |horizon: u64| horizon.saturating_add(2) <= max_timeline as u64;
    if feat.jobs <= max_jobs
        && (fits(feat.slots as u64) || fits(compress::compressed_len(one, alpha)))
    {
        return Ok(());
    }
    Err(format!(
        "{} jobs over a {}-slot compressed horizon exceed what {} takes",
        feat.jobs,
        compress::compressed_len(one, alpha),
        kind.name()
    ))
}

/// Route and solve a **canonical** instance, returning the chosen solver
/// and its [`Answer`].
///
/// The answer is a pure function of `(instance, objective, cfg)` — no
/// randomness, clocks, or thread-dependence (every solve runs on the
/// calling thread) — which is what makes both the result cache and the
/// deterministic batch output sound.
pub fn solve(
    inst: &BatchInstance,
    objective: Objective,
    cfg: &RouterConfig,
) -> (SolverKind, Answer) {
    solve_observed(inst, objective, cfg, None)
}

/// [`solve`] with search-effort observation: multi-exact solves report
/// their [`gaps_core::multi_exact::SearchStats`] (nodes expanded,
/// component histogram) into the registry. The answer is unaffected —
/// observation never alters routing or results.
pub fn solve_observed(
    inst: &BatchInstance,
    objective: Objective,
    cfg: &RouterConfig,
    observer: Option<&crate::metrics::MetricsRegistry>,
) -> (SolverKind, Answer) {
    let kind = route(&features(inst), objective, cfg);
    let answer = match (kind, inst) {
        (SolverKind::Trivial, _) => Answer::exact(objective, Some(0)),
        (SolverKind::ForcedChain, BatchInstance::One(one)) => {
            Answer::exact(objective, forced_chain(one, objective))
        }
        (SolverKind::BaptisteDp, BatchInstance::One(one)) => {
            let value = match objective {
                Objective::Gaps => baptiste::min_gaps_value(one),
                Objective::Spans => baptiste::min_spans_value(one),
                Objective::Power { alpha } => baptiste::min_power_value(one, alpha),
            };
            Answer::exact(objective, value)
        }
        (SolverKind::MultiprocDp, BatchInstance::One(one)) => {
            let value = match objective {
                Objective::Gaps => multiproc_dp::min_gap_value(one),
                Objective::Spans => multiproc_dp::min_span_value(one),
                Objective::Power { .. } => unreachable!("power routes to PowerDp"),
            };
            Answer::exact(objective, value)
        }
        (SolverKind::PowerDp, BatchInstance::One(one)) => {
            let Objective::Power { alpha } = objective else {
                unreachable!("PowerDp only routes for the power objective")
            };
            Answer::exact(objective, power_dp::min_power_value(one, alpha))
        }
        (SolverKind::MultiExact, BatchInstance::Multi(multi)) => {
            let multi_objective = match objective {
                Objective::Gaps => multi_exact::MultiObjective::Gaps,
                Objective::Spans => multi_exact::MultiObjective::Spans,
                Objective::Power { alpha } => multi_exact::MultiObjective::Power { alpha },
            };
            let (result, stats) = multi_exact::solve_multi_stats(multi, multi_objective);
            if let Some(metrics) = observer {
                metrics.record_search(&stats);
            }
            Answer::exact(objective, result.map(|(v, _)| v))
        }
        (SolverKind::Theorem3Approx, BatchInstance::Multi(multi)) => {
            let Objective::Power { alpha } = objective else {
                unreachable!("Theorem3Approx only routes for the power objective")
            };
            let Some(res) = multi_interval::approx_min_power(multi, alpha as f64, APPROX_ROUNDS)
            else {
                return (kind, Answer::Infeasible);
            };
            let lower = lower_bounds::polynomial_power_lower_bound(multi, alpha);
            let upper = power::power_cost_single(&res.schedule, alpha);
            Answer::within(objective, lower, upper)
        }
        (SolverKind::Lemma3Greedy, BatchInstance::Multi(multi)) => {
            let Some(sched) =
                multi_interval::complete_schedule(multi, &vec![None; multi.job_count()])
            else {
                return (kind, Answer::Infeasible);
            };
            let spans = lower_bounds::polynomial_spans_lower_bound(multi);
            match objective {
                Objective::Gaps => {
                    Answer::within(objective, spans.saturating_sub(1), sched.gap_count())
                }
                Objective::Spans => Answer::within(objective, spans, sched.span_count()),
                Objective::Power { .. } => unreachable!("power routes to Theorem3Approx"),
            }
        }
        (kind, _) => unreachable!("router dispatched {kind:?} to the wrong instance flavor"),
    };
    (kind, answer)
}

/// Zero-laxity single-processor fast path: every job's slot is forced, so
/// feasibility is just "no duplicate releases" and the objective falls
/// out of the run structure of the release times.
fn forced_chain(inst: &Instance, objective: Objective) -> Option<u64> {
    let mut times: Vec<_> = inst.jobs().iter().map(|j| j.release).collect();
    times.sort_unstable();
    if times.windows(2).any(|w| w[0] == w[1]) {
        return None;
    }
    Some(match objective {
        Objective::Gaps => (run_count(&times) as u64).saturating_sub(1),
        Objective::Spans => run_count(&times) as u64,
        Objective::Power { alpha } => power::processor_power(&times, alpha),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaps_core::brute_force;
    use gaps_core::instance::{Instance, MultiInstance};

    fn one(windows: &[(i64, i64)], p: u32) -> BatchInstance {
        BatchInstance::One(Instance::from_windows(windows.iter().copied(), p).unwrap())
    }

    fn multi(times: &[Vec<i64>]) -> BatchInstance {
        BatchInstance::Multi(MultiInstance::from_times(times.to_vec()).unwrap())
    }

    #[test]
    fn routing_matches_instance_shape() {
        let cfg = RouterConfig::default();
        let gaps = Objective::Gaps;
        let power = Objective::Power { alpha: 2 };
        let pick = |inst: &BatchInstance, obj| route(&features(inst), obj, &cfg);

        assert_eq!(
            pick(&BatchInstance::One(Instance::new(vec![], 1).unwrap()), gaps),
            SolverKind::Trivial
        );
        assert_eq!(
            pick(&one(&[(0, 0), (2, 2)], 1), gaps),
            SolverKind::ForcedChain
        );
        assert_eq!(
            pick(&one(&[(0, 1), (2, 2)], 1), gaps),
            SolverKind::BaptisteDp
        );
        assert_eq!(pick(&one(&[(0, 1)], 2), gaps), SolverKind::MultiprocDp);
        assert_eq!(pick(&one(&[(0, 1)], 2), power), SolverKind::PowerDp);
        assert_eq!(
            pick(&multi(&[vec![0, 2], vec![1]]), gaps),
            SolverKind::MultiExact
        );

        // 80 jobs clears even the raised 64-job multi-exact ceiling.
        let big: Vec<Vec<i64>> = (0..80).map(|i| vec![2 * i, 2 * i + 1]).collect();
        assert_eq!(pick(&multi(&big), power), SolverKind::Theorem3Approx);
        assert_eq!(pick(&multi(&big), gaps), SolverKind::Lemma3Greedy);
    }

    #[test]
    fn raised_caps_keep_multi_exact_routing_at_64_jobs_384_slots() {
        let cfg = RouterConfig::default();
        assert_eq!(cfg.multi_exact_max_jobs, 64);
        assert_eq!(cfg.multi_exact_max_slots, 384);
        // Exactly at the ceiling: 64 jobs, 384 distinct slots.
        let at_cap: Vec<Vec<i64>> = (0..64)
            .map(|i| (0..6).map(|k| 6 * i + k).collect())
            .collect();
        let at_cap = multi(&at_cap);
        assert_eq!(
            route(&features(&at_cap), Objective::Gaps, &cfg),
            SolverKind::MultiExact
        );
        // One past either cap gets the interval answer. 65 one-slot
        // jobs pin every span, so the capacity bound meets the schedule
        // and the interval collapses to the optimum.
        let too_many_jobs = multi(&(0..65).map(|i| vec![2 * i]).collect::<Vec<_>>());
        let (kind, answer) = solve(&too_many_jobs, Objective::Gaps, &cfg);
        assert_eq!(kind, SolverKind::Lemma3Greedy);
        assert_eq!(answer.to_string(), "gaps=64");
        let (kind, answer) = solve(&too_many_jobs, Objective::Power { alpha: 3 }, &cfg);
        assert_eq!(kind, SolverKind::Theorem3Approx);
        assert_eq!(answer.to_string(), "power=132");
    }

    #[test]
    fn shed_sends_multi_to_the_interval_only() {
        let cfg = RouterConfig::default();
        let shed = cfg.shed();
        let pick = |inst: &BatchInstance, obj, cfg: &RouterConfig| route(&features(inst), obj, cfg);
        // Even a 1-job multi-interval instance skips the exact solver.
        let tiny = multi(&[vec![3, 4]]);
        assert_eq!(pick(&tiny, Objective::Gaps, &cfg), SolverKind::MultiExact);
        assert_eq!(
            solve(&tiny, Objective::Gaps, &shed),
            (
                SolverKind::Lemma3Greedy,
                Answer::exact(Objective::Gaps, Some(0))
            )
        );
        let power = Objective::Power { alpha: 2 };
        assert_eq!(pick(&tiny, power, &shed), SolverKind::Theorem3Approx);
        // One-interval routing is unchanged.
        for inst in [
            one(&[(0, 0), (2, 2)], 1),
            one(&[(0, 1), (2, 2)], 1),
            one(&[(0, 1)], 2),
        ] {
            for obj in [Objective::Gaps, Objective::Spans, power] {
                assert_eq!(pick(&inst, obj, &shed), pick(&inst, obj, &cfg));
            }
        }
    }

    #[test]
    fn forced_chain_agrees_with_the_dp() {
        let inst = one(&[(0, 0), (1, 1), (5, 5), (9, 9)], 1);
        let cfg = RouterConfig::default();
        let (kind, payload) = solve(&inst, Objective::Gaps, &cfg);
        assert_eq!(kind, SolverKind::ForcedChain);
        let BatchInstance::One(raw) = &inst else {
            unreachable!()
        };
        let expected = multiproc_dp::min_gap_value(raw).unwrap();
        assert_eq!(payload.to_string(), format!("gaps={expected}"));

        let (_, power_payload) = solve(&inst, Objective::Power { alpha: 3 }, &cfg);
        let expected = power_dp::min_power_value(raw, 3).unwrap();
        assert_eq!(power_payload.to_string(), format!("power={expected}"));
    }

    #[test]
    fn forced_chain_detects_collisions() {
        let inst = one(&[(4, 4), (4, 4)], 1);
        let (_, payload) = solve(&inst, Objective::Gaps, &RouterConfig::default());
        assert_eq!(payload, Answer::Infeasible);
    }

    #[test]
    fn baptiste_and_multiproc_payloads_are_exact() {
        let cfg = RouterConfig::default();
        let single = one(&[(0, 2), (0, 2), (5, 7)], 1);
        let (kind, payload) = solve(&single, Objective::Gaps, &cfg);
        assert_eq!(kind, SolverKind::BaptisteDp);
        assert_eq!(payload.to_string(), "gaps=1");

        let dual = one(&[(0, 1), (0, 1), (0, 1)], 2);
        let (kind, payload) = solve(&dual, Objective::Spans, &cfg);
        assert_eq!(kind, SolverKind::MultiprocDp);
        assert_eq!(payload.to_string(), "spans=2");
    }

    #[test]
    fn multi_exact_and_intervals_cover_multi() {
        let cfg = RouterConfig::default();
        let small = multi(&[vec![0, 1], vec![0, 1]]);
        let (kind, payload) = solve(&small, Objective::Gaps, &cfg);
        assert_eq!(kind, SolverKind::MultiExact);
        assert_eq!(payload.to_string(), "gaps=0");

        // The exhaustive oracle agrees — the bit-identical-optimum
        // contract in miniature.
        let BatchInstance::Multi(raw) = &small else {
            unreachable!()
        };
        let oracle = brute_force::min_gaps_multi(raw).map(|(v, _)| v);
        assert_eq!(payload, Answer::exact(Objective::Gaps, oracle));

        // 80 jobs on one 160-slot run: the capacity bound says one span,
        // the schedules need more, so both objectives answer an interval
        // whose lower end is the bound.
        let big: Vec<Vec<i64>> = (0..80).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let big = multi(&big);
        let (kind, payload) = solve(&big, Objective::Power { alpha: 2 }, &cfg);
        assert_eq!(kind, SolverKind::Theorem3Approx);
        let Answer::Within {
            label: "power",
            lower: 82,
            upper,
        } = payload
        else {
            panic!("payload = {payload:?}");
        };
        assert_eq!(payload.to_string(), format!("power=[82,{upper}]"));

        let (kind, payload) = solve(&big, Objective::Gaps, &cfg);
        assert_eq!(kind, SolverKind::Lemma3Greedy);
        assert!(
            matches!(payload, Answer::Within { label: "gaps", lower: 0, upper } if upper > 0),
            "payload = {payload:?}"
        );
    }

    #[test]
    fn multi_exact_records_the_sequential_search_whatever_the_component_shape() {
        use crate::metrics::MetricsRegistry;
        use gaps_workloads::multi_interval;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let cfg = RouterConfig::default();
        let check = |inst: &BatchInstance| {
            let metrics = MetricsRegistry::new();
            let (kind, payload) = solve_observed(inst, Objective::Gaps, &cfg, Some(&metrics));
            assert_eq!(kind, SolverKind::MultiExact);
            let BatchInstance::Multi(m) = inst else {
                unreachable!()
            };
            let (seq, stats) = multi_exact::solve_multi_stats(m, multi_exact::MultiObjective::Gaps);
            assert_eq!(payload, Answer::exact(Objective::Gaps, seq.map(|(v, _)| v)));
            assert_eq!(metrics.search_totals().nodes_expanded, stats.nodes_expanded);
            stats.nodes_expanded
        };
        // 24 jobs in four 6-job clusters behind uncrossed dead zones.
        let mut rng = StdRng::seed_from_u64(0xDEC0);
        let clustered = multi_interval::clustered(&mut rng, 4, 6, 8, 2, 5);
        assert_eq!(clustered.job_count(), 24);
        check(&BatchInstance::Multi(clustered));
        // An 18-job coupled core the decomposition cannot split (the
        // second `perf::coupled_batch` instance) opens the search.
        let mut rng = StdRng::seed_from_u64(0xC09E);
        let _first = multi_interval::banded(&mut rng, 18, 3, 8, 2);
        let coupled = multi_interval::banded(&mut rng, 18, 3, 8, 2);
        assert!(check(&BatchInstance::Multi(coupled)) > 0);
    }

    #[test]
    fn infeasible_instances_say_so() {
        let cfg = RouterConfig::default();
        // Two jobs forced into one slot.
        let clash = multi(&[vec![3], vec![3]]);
        let (_, payload) = solve(&clash, Objective::Gaps, &cfg);
        assert_eq!(payload, Answer::Infeasible);
        // …and past the caps, where the interval arm must say so too.
        let (_, payload) = solve(&clash, Objective::Power { alpha: 2 }, &cfg.shed());
        assert_eq!(payload, Answer::Infeasible);
        // One-interval: three unit-window jobs on one processor, same slot.
        let overfull = one(&[(1, 1), (1, 1), (1, 1)], 1);
        let (_, payload) = solve(&overfull, Objective::Spans, &cfg);
        assert_eq!(payload, Answer::Infeasible);
    }

    #[test]
    fn interval_answers_render_as_one_token() {
        let gaps = Objective::Gaps;
        let power = Objective::Power { alpha: 4 };
        assert_eq!(Answer::exact(gaps, Some(2)).to_string(), "gaps=2");
        assert_eq!(Answer::exact(power, None).to_string(), "infeasible");
        assert_eq!(Answer::within(power, 9, 12).to_string(), "power=[9,12]");
        // Meeting bounds prove the optimum.
        assert_eq!(Answer::within(gaps, 3, 3), Answer::exact(gaps, Some(3)));
    }

    #[test]
    fn solver_names_are_stable() {
        // These tags appear in result lines; renaming them is a
        // wire-format change.
        assert_eq!(SolverKind::BaptisteDp.name(), "baptiste_dp");
        assert_eq!(SolverKind::MultiExact.name(), "multi_exact");
        assert_eq!(SolverKind::Theorem3Approx.name(), "theorem3_approx");
    }
}
