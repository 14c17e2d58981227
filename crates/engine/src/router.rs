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
//! dispatches; instances no exact solver can handle flow down a
//! configurable **fallback chain** of approximate/bounding solvers.
//!
//! Routing is a pure function of the canonical form, so a cached result
//! and a freshly routed one can never disagree on the solver tag.

use crate::{BatchInstance, Objective};
use gaps_core::instance::Instance;
use gaps_core::time::run_count;
use gaps_core::{
    baptiste, lower_bounds, multi_exact, multi_interval, multiproc_dp, power, power_dp,
};

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
    /// Theorem 3 `(1 + (2/3 + ε)α)`-approximation (multi-interval power).
    Theorem3Approx,
    /// Lemma 3 completion: any feasible schedule, ≤ 1 gap per job — an
    /// upper bound for large multi-interval instances.
    Lemma3Greedy,
    /// Report the objective's lower bound only (last-resort fallback;
    /// does not certify feasibility).
    LowerBound,
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
            SolverKind::LowerBound => "lower_bound",
        }
    }
}

/// Solvers eligible for the large-multi-interval fallback chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackSolver {
    /// Theorem 3 approximation — applicable to the power objective only.
    Theorem3Approx,
    /// Lemma 3 feasible completion — applicable to every objective.
    Lemma3Greedy,
    /// Objective lower bound — applicable to every objective.
    LowerBound,
}

impl FallbackSolver {
    /// Parse a CLI-facing fallback name.
    pub fn parse(name: &str) -> Result<FallbackSolver, String> {
        match name {
            "approx" | "theorem3" => Ok(FallbackSolver::Theorem3Approx),
            "greedy" | "lemma3" => Ok(FallbackSolver::Lemma3Greedy),
            "bound" | "lower-bound" => Ok(FallbackSolver::LowerBound),
            other => Err(format!(
                "unknown fallback solver {other:?} (expected approx|greedy|bound)"
            )),
        }
    }

    fn applies_to(self, objective: Objective) -> bool {
        match self {
            FallbackSolver::Theorem3Approx => matches!(objective, Objective::Power { .. }),
            FallbackSolver::Lemma3Greedy | FallbackSolver::LowerBound => true,
        }
    }

    fn kind(self) -> SolverKind {
        match self {
            FallbackSolver::Theorem3Approx => SolverKind::Theorem3Approx,
            FallbackSolver::Lemma3Greedy => SolverKind::Lemma3Greedy,
            FallbackSolver::LowerBound => SolverKind::LowerBound,
        }
    }
}

/// Local-search rounds for the Theorem 3 set packing (the paper's ε).
const APPROX_ROUNDS: usize = 64;

/// Router knobs: how large a multi-interval instance the exact solver
/// takes and what to do past its caps. Every exact solve runs on the
/// calling thread; `--threads` parallelizes across instances only.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The exact solver's state space is exponential in the *job* count,
    /// not the slot count — and component decomposition means only the
    /// largest coupled core pays that cost — so it accepts many slots…
    pub multi_exact_max_slots: usize,
    /// …but at most this many jobs (64 is the solver's hard mask-width
    /// cap; 0 sends every multi-interval instance to the fallback chain).
    pub multi_exact_max_jobs: usize,
    /// Unread by the engine; kept only because `perfbench/` still sets it.
    pub multi_exact_threads: usize,
    /// Tried in order for multi-interval instances past the exact
    /// solver's caps; the first chain entry applicable to the objective
    /// wins. An empty or inapplicable chain degrades to
    /// [`FallbackSolver::LowerBound`].
    pub fallback: Vec<FallbackSolver>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            multi_exact_max_slots: 384,
            multi_exact_max_jobs: 64,
            multi_exact_threads: 0,
            fallback: vec![FallbackSolver::Theorem3Approx, FallbackSolver::Lemma3Greedy],
        }
    }
}

impl RouterConfig {
    /// Degraded copy used under overload shedding: the exponential
    /// multi-interval exact solver is switched off, so every
    /// multi-interval instance flows straight down the (polynomial)
    /// fallback chain. One-interval routing is untouched — the DPs are
    /// polynomial and not worth shedding.
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
    cfg.fallback
        .iter()
        .find(|f| f.applies_to(objective))
        .map(|f| f.kind())
        .unwrap_or(SolverKind::LowerBound)
}

/// Route and solve a **canonical** instance, returning the chosen solver
/// and the result payload (e.g. `gaps=2`, `power<=9.50`, `infeasible`).
///
/// The payload is a pure function of `(instance, objective, cfg)` — no
/// randomness, clocks, or thread-dependence (every solve runs on the
/// calling thread) — which is what makes both the result cache and the
/// deterministic batch output sound.
pub fn solve(
    inst: &BatchInstance,
    objective: Objective,
    cfg: &RouterConfig,
) -> (SolverKind, String) {
    solve_observed(inst, objective, cfg, None)
}

/// [`solve`] with search-effort observation: multi-exact solves report
/// their [`gaps_core::multi_exact::SearchStats`] (nodes expanded,
/// component histogram) into the registry. The payload is unaffected —
/// observation never alters routing or results.
pub fn solve_observed(
    inst: &BatchInstance,
    objective: Objective,
    cfg: &RouterConfig,
    observer: Option<&crate::metrics::MetricsRegistry>,
) -> (SolverKind, String) {
    let kind = route(&features(inst), objective, cfg);
    let payload = match (kind, inst) {
        (SolverKind::Trivial, _) => exact(objective.label(), Some(0)),
        (SolverKind::ForcedChain, BatchInstance::One(one)) => forced_chain(one, objective),
        (SolverKind::BaptisteDp, BatchInstance::One(one)) => {
            let value = match objective {
                Objective::Gaps => baptiste::min_gaps_value(one),
                Objective::Spans => baptiste::min_spans_value(one),
                Objective::Power { alpha } => baptiste::min_power_value(one, alpha),
            };
            exact(objective.label(), value)
        }
        (SolverKind::MultiprocDp, BatchInstance::One(one)) => {
            let value = match objective {
                Objective::Gaps => multiproc_dp::min_gap_value(one),
                Objective::Spans => multiproc_dp::min_span_value(one),
                Objective::Power { .. } => unreachable!("power routes to PowerDp"),
            };
            exact(objective.label(), value)
        }
        (SolverKind::PowerDp, BatchInstance::One(one)) => {
            let Objective::Power { alpha } = objective else {
                unreachable!("PowerDp only routes for the power objective")
            };
            exact(objective.label(), power_dp::min_power_value(one, alpha))
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
            exact(objective.label(), result.map(|(v, _)| v))
        }
        (SolverKind::Theorem3Approx, BatchInstance::Multi(multi)) => {
            let Objective::Power { alpha } = objective else {
                unreachable!("Theorem3Approx only routes for the power objective")
            };
            match multi_interval::approx_min_power(multi, alpha as f64, APPROX_ROUNDS) {
                Some(res) => format!("power<={:.2}", res.power),
                None => "infeasible".to_string(),
            }
        }
        (SolverKind::Lemma3Greedy, BatchInstance::Multi(multi)) => {
            match multi_interval::complete_schedule(multi, &vec![None; multi.job_count()]) {
                Some(sched) => match objective {
                    Objective::Gaps => format!("gaps<={}", sched.gap_count()),
                    Objective::Spans => format!("spans<={}", sched.span_count()),
                    Objective::Power { alpha } => {
                        format!("power<={}", power::power_cost_single(&sched, alpha))
                    }
                },
                None => "infeasible".to_string(),
            }
        }
        (SolverKind::LowerBound, BatchInstance::Multi(multi)) => {
            let bound = match objective {
                Objective::Gaps => lower_bounds::min_gaps_lower_bound(multi),
                Objective::Spans => lower_bounds::min_spans_lower_bound(multi),
                Objective::Power { alpha } => lower_bounds::min_power_lower_bound(multi, alpha),
            };
            format!("{}>={bound}", objective.label())
        }
        (kind, _) => unreachable!("router dispatched {kind:?} to the wrong instance flavor"),
    };
    (kind, payload)
}

fn exact(label: &str, value: Option<u64>) -> String {
    match value {
        Some(v) => format!("{label}={v}"),
        None => "infeasible".to_string(),
    }
}

/// Zero-laxity single-processor fast path: every job's slot is forced, so
/// feasibility is just "no duplicate releases" and the objective falls
/// out of the run structure of the release times.
fn forced_chain(inst: &Instance, objective: Objective) -> String {
    let mut times: Vec<_> = inst.jobs().iter().map(|j| j.release).collect();
    times.sort_unstable();
    if times.windows(2).any(|w| w[0] == w[1]) {
        return "infeasible".to_string();
    }
    let value = match objective {
        Objective::Gaps => (run_count(&times) as u64).saturating_sub(1),
        Objective::Spans => run_count(&times) as u64,
        Objective::Power { alpha } => power::processor_power(&times, alpha),
    };
    format!("{}={value}", objective.label())
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

        let no_fallback = RouterConfig {
            fallback: vec![],
            ..RouterConfig::default()
        };
        assert_eq!(
            route(&features(&multi(&big)), gaps, &no_fallback),
            SolverKind::LowerBound
        );
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
        // One past either cap falls to the fallback chain.
        let too_many_jobs: Vec<Vec<i64>> = (0..65).map(|i| vec![2 * i]).collect();
        assert_eq!(
            route(&features(&multi(&too_many_jobs)), Objective::Gaps, &cfg),
            SolverKind::Lemma3Greedy
        );
    }

    #[test]
    fn shed_sends_multi_to_the_fallback_chain_only() {
        let cfg = RouterConfig::default();
        let shed = cfg.shed();
        let pick = |inst: &BatchInstance, obj, cfg: &RouterConfig| route(&features(inst), obj, cfg);
        // Even a 1-job multi-interval instance skips the exact solver.
        let tiny = multi(&[vec![3, 4]]);
        assert_eq!(pick(&tiny, Objective::Gaps, &cfg), SolverKind::MultiExact);
        assert_eq!(
            pick(&tiny, Objective::Gaps, &shed),
            SolverKind::Lemma3Greedy
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
        assert_eq!(payload, format!("gaps={expected}"));

        let (_, power_payload) = solve(&inst, Objective::Power { alpha: 3 }, &cfg);
        let expected = power_dp::min_power_value(raw, 3).unwrap();
        assert_eq!(power_payload, format!("power={expected}"));
    }

    #[test]
    fn forced_chain_detects_collisions() {
        let inst = one(&[(4, 4), (4, 4)], 1);
        let (_, payload) = solve(&inst, Objective::Gaps, &RouterConfig::default());
        assert_eq!(payload, "infeasible");
    }

    #[test]
    fn baptiste_and_multiproc_payloads_are_exact() {
        let cfg = RouterConfig::default();
        let single = one(&[(0, 2), (0, 2), (5, 7)], 1);
        let (kind, payload) = solve(&single, Objective::Gaps, &cfg);
        assert_eq!(kind, SolverKind::BaptisteDp);
        assert_eq!(payload, "gaps=1");

        let dual = one(&[(0, 1), (0, 1), (0, 1)], 2);
        let (kind, payload) = solve(&dual, Objective::Spans, &cfg);
        assert_eq!(kind, SolverKind::MultiprocDp);
        assert_eq!(payload, "spans=2");
    }

    #[test]
    fn multi_exact_and_fallbacks_cover_multi() {
        let cfg = RouterConfig::default();
        let small = multi(&[vec![0, 1], vec![0, 1]]);
        let (kind, payload) = solve(&small, Objective::Gaps, &cfg);
        assert_eq!(kind, SolverKind::MultiExact);
        assert_eq!(payload, "gaps=0");

        // The exhaustive oracle agrees — the bit-identical-optimum
        // contract in miniature.
        let BatchInstance::Multi(raw) = &small else {
            unreachable!()
        };
        let oracle = brute_force::min_gaps_multi(raw).map(|(v, _)| v);
        assert_eq!(payload, exact("gaps", oracle));

        let big: Vec<Vec<i64>> = (0..80).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let big = multi(&big);
        let (kind, payload) = solve(&big, Objective::Power { alpha: 2 }, &cfg);
        assert_eq!(kind, SolverKind::Theorem3Approx);
        assert!(payload.starts_with("power<="), "payload = {payload}");

        let (kind, payload) = solve(&big, Objective::Gaps, &cfg);
        assert_eq!(kind, SolverKind::Lemma3Greedy);
        assert!(payload.starts_with("gaps<="), "payload = {payload}");
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
            assert_eq!(payload, exact("gaps", seq.map(|(v, _)| v)));
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
        assert_eq!(payload, "infeasible");
        // One-interval: three unit-window jobs on one processor, same slot.
        let overfull = one(&[(1, 1), (1, 1), (1, 1)], 1);
        let (_, payload) = solve(&overfull, Objective::Spans, &cfg);
        assert_eq!(payload, "infeasible");
    }

    #[test]
    fn fallback_parsing_round_trips() {
        assert_eq!(
            FallbackSolver::parse("approx").unwrap(),
            FallbackSolver::Theorem3Approx
        );
        assert_eq!(
            FallbackSolver::parse("greedy").unwrap(),
            FallbackSolver::Lemma3Greedy
        );
        assert_eq!(
            FallbackSolver::parse("bound").unwrap(),
            FallbackSolver::LowerBound
        );
        assert!(FallbackSolver::parse("magic").is_err());
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
