//! Combinatorial lower bounds on the gap/span/power optima.
//!
//! The exhaustive solvers in [`crate::brute_force`] certify optimality
//! only at toy sizes. For larger multi-interval instances (where the
//! problems are NP-hard and only the Theorem 3 approximation runs), these
//! bounds sandwich the optimum from below, which the experiment harness
//! uses to report honest optimality *gaps* instead of unverifiable ratios.
//!
//! All bounds exploit the **run structure** of the slot union: the allowed
//! slots of an instance split into maximal runs `R_1, …, R_m` separated by
//! dead zones, and no span of any schedule can cross a dead zone.

use crate::feasibility::slot_graph;
use crate::instance::MultiInstance;
use crate::time::{runs_of, TimeInterval};
use gaps_matching::{hopcroft_karp, BipartiteGraph};
use gaps_setcover::{greedy_cover, SetCoverInstance};

/// Lower bound on the minimum number of **spans** of any complete
/// schedule: the best of
///
/// 1. the polynomial bounds of [`polynomial_spans_lower_bound`], and
/// 2. the minimum number of runs that can host all jobs (each occupied
///    run hosts ≥ 1 span), found by branch and bound over run subsets
///    with matching feasibility — exact when the run count is ≤ 20,
///    else skipped (part 1 alone stays a valid bound).
pub fn min_spans_lower_bound(inst: &MultiInstance) -> u64 {
    floors(inst, true).1
}

/// The polynomial part of [`min_spans_lower_bound`]: the best of
/// `⌈n / max run length⌉` (each occupied run hosts at most its length in
/// jobs, and a span fits inside one run) and the
/// [`skeleton_spans_lower_bound`]. Never runs the hosting-runs search,
/// so it stays cheap past any run count.
pub fn polynomial_spans_lower_bound(inst: &MultiInstance) -> u64 {
    floors(inst, false).1
}

/// Lower bounds `(runs, spans)` on the runs a schedule occupies and on
/// its spans: the capacity and skeleton floors, plus the exact
/// hosting-runs count when `hosting` is set and there are ≤ 20 runs.
fn floors(inst: &MultiInstance, hosting: bool) -> (u64, u64) {
    let n = inst.job_count() as u64;
    if n == 0 {
        return (0, 0);
    }
    let runs = runs_of(&inst.slot_union());
    let longest = runs.iter().map(|r| r.len()).max().unwrap_or(1);
    let mut occupied = n.div_ceil(longest);
    if hosting && runs.len() <= 20 {
        // `None` (infeasible instance): any bound is vacuous.
        if let Some(k) = min_hosting_runs(inst, &runs) {
            occupied = occupied.max(k);
        }
    }
    (occupied, occupied.max(skeleton_spans_lower_bound(inst)))
}

/// Skeleton lower bound on the minimum number of **spans**, after
/// Antoniadis–Kumar–Kumar's *skeleton* structure: jobs with a single
/// allowed slot are **mandatory** — every schedule occupies their slot —
/// so the sorted mandatory times form a fixed backbone. Two consecutive
/// mandatory times `t < t'` with `d = t' − t − 1 > 0` intermediate slots
/// can share a span only if the span covers all of `(t, t')`, which
/// requires every intermediate time to be an allowed slot of the union
/// *and* at least `d` distinct other jobs with an allowed slot strictly
/// inside `(t, t')` (each busy slot of a valid schedule hosts a job).
/// When either fails, a span break between `t` and `t'` is forced; the
/// bound is `forced breaks + 1`. Returns 0 when no job is mandatory (the
/// skeleton is empty and says nothing).
///
/// This is incomparable to the hosting-runs bound: it sees breaks
/// *inside* one run (too few jobs to pave the backbone) that run
/// structure alone cannot, which is exactly the regime the
/// [`crate::multi_exact`] branch-and-bound hits after decomposition.
pub fn skeleton_spans_lower_bound(inst: &MultiInstance) -> u64 {
    let mut mandatory: Vec<i64> = inst
        .jobs()
        .iter()
        .filter(|j| j.times().len() == 1)
        .map(|j| j.times()[0])
        .collect();
    if mandatory.is_empty() {
        return 0;
    }
    mandatory.sort_unstable();
    mandatory.dedup();
    // fillers[i]: distinct jobs with an allowed slot strictly inside
    // (mandatory[i], mandatory[i + 1]). One binary search per allowed
    // slot; a job's slots are sorted, so its repeats in one gap are
    // adjacent.
    let mut fillers = vec![0u64; mandatory.len() - 1];
    for job in inst.jobs() {
        let mut last = None;
        for &u in job.times() {
            let Err(i) = mandatory.binary_search(&u) else {
                continue;
            };
            if i == 0 || i == mandatory.len() || last == Some(i) {
                continue;
            }
            fillers[i - 1] += 1;
            last = Some(i);
        }
    }
    let slots = inst.slot_union();
    let mut breaks = 0u64;
    for (w, &fillers) in mandatory.windows(2).zip(&fillers) {
        let (t, next) = (w[0], w[1]);
        let d = (next - t - 1) as u64;
        if d == 0 {
            continue;
        }
        // Same span ⇒ all of (t, t') is busy ⇒ every intermediate time is
        // an allowed slot…
        let all_allowed = (t + 1..next).all(|u| slots.binary_search(&u).is_ok());
        // …and d distinct jobs fill them (mandatory jobs at t/t' cannot:
        // their only slot is outside the open interval).
        if !all_allowed || fillers < d {
            breaks += 1;
        }
    }
    breaks + 1
}

/// Lower bound on the minimum number of **gaps** (spans − 1 convention).
pub fn min_gaps_lower_bound(inst: &MultiInstance) -> u64 {
    min_spans_lower_bound(inst).saturating_sub(1)
}

/// Set-cover relaxation lower bound on the minimum number of **spans**,
/// via the greedy cover's approximation guarantee (the paper's Section 4
/// connection run *backwards*):
///
/// any schedule with `S` spans covers every job with at most `S` occupied
/// runs, so the cover instance *(universe = jobs, one set per run `R` =
/// jobs with an allowed slot in `R`)* has `OPT_cover ≤ S`. The greedy
/// cover of size `g` satisfies `g ≤ H(d) · OPT_cover` (`d` = largest set),
/// hence `S ≥ ⌈g / H(d)⌉` — admissible, and computable in polynomial time
/// where [`min_spans_lower_bound`]'s hosting-runs search is exponential in
/// the run count. [`crate::multi_exact`] uses the max of both for its
/// early cutoff. Returns 0 for empty or cover-infeasible instances (the
/// bound is vacuous there).
pub fn setcover_spans_relaxation(inst: &MultiInstance) -> u64 {
    let n = inst.job_count();
    if n == 0 {
        return 0;
    }
    let runs = runs_of(&inst.slot_union());
    let sets: Vec<Vec<u32>> = runs
        .iter()
        .map(|r| {
            (0..n as u32)
                .filter(|&j| {
                    inst.jobs()[j as usize]
                        .times()
                        .iter()
                        .any(|&t| r.contains(t))
                })
                .collect()
        })
        .collect();
    let d = sets.iter().map(Vec::len).max().unwrap_or(0);
    let Ok(cover) = SetCoverInstance::new(n as u32, sets) else {
        return 0; // malformed cover instance: keep the bound vacuous
    };
    let Some(chosen) = greedy_cover(&cover) else {
        return 0; // unreachable for well-formed instances; stay vacuous
    };
    let harmonic: f64 = (1..=d.max(1)).map(|i| 1.0 / i as f64).sum();
    // Round conservatively (the 1e-6 slack dwarfs f64 error at these
    // magnitudes and can only *weaken* the bound, never unsound it).
    (chosen.len() as f64 / harmonic - 1e-6).ceil().max(0.0) as u64
}

/// Lower bound on the minimum **power** with transition cost `alpha`:
///
/// `n + α + (r − 1) · min(α, w_min) + (k − r) · min(α, 1)` where `r` and
/// `k` are the occupied-run and span bounds of [`min_spans_lower_bound`]
/// and `w_min` the narrowest dead zone. Any schedule occupying `r' ≥ r`
/// runs in `k' ≥ max(k, r')` spans crosses `r' − 1` dead zones, paying at
/// least `min(α, w_min)` for each (idle-active bridge or sleep/wake), and
/// breaks `k' − r'` times inside a run, paying at least `min(α, 1)` for
/// each; that total is smallest at `r' = r`, `k' = k`.
pub fn min_power_lower_bound(inst: &MultiInstance, alpha: u64) -> u64 {
    power_floor(inst, alpha, floors(inst, true))
}

/// The polynomial part of [`min_power_lower_bound`]: the same formula
/// over the floors of [`polynomial_spans_lower_bound`].
pub fn polynomial_power_lower_bound(inst: &MultiInstance, alpha: u64) -> u64 {
    power_floor(inst, alpha, floors(inst, false))
}

fn power_floor(inst: &MultiInstance, alpha: u64, (runs, spans): (u64, u64)) -> u64 {
    let n = inst.job_count() as u64;
    if n == 0 {
        return 0;
    }
    let w_min = runs_of(&inst.slot_union())
        .windows(2)
        .map(|w| (w[1].start - w[0].end - 1) as u64)
        .min()
        .unwrap_or(0);
    n + alpha + runs.saturating_sub(1) * alpha.min(w_min) + (spans - runs) * alpha.min(1)
}

/// Exact minimum number of runs that can host a complete schedule
/// (`None` if the instance is infeasible). Branch and bound over run
/// subsets in decreasing-capacity order, feasibility via matching
/// restricted to the chosen runs.
fn min_hosting_runs(inst: &MultiInstance, runs: &[TimeInterval]) -> Option<u64> {
    let (graph, slots) = slot_graph(inst);
    // Map each slot index to its run index.
    let run_of_slot: Vec<usize> = slots
        .iter()
        .map(|&t| {
            runs.iter()
                .position(|r| r.contains(t))
                // analyzer: allow(panic-free): runs_of partitions the slot union, so every slot lies in some run
                .expect("slot in a run")
        })
        .collect();
    let n = inst.job_count();

    let feasible_with = |chosen: &[bool]| -> bool {
        let mut g = BipartiteGraph::new(n, slots.len());
        for u in 0..n as u32 {
            for &v in graph.neighbors(u) {
                if chosen[run_of_slot[v as usize]] {
                    g.add_edge(u, v);
                }
            }
        }
        g.dedup();
        hopcroft_karp(&g).size() == n
    };

    if !feasible_with(&vec![true; runs.len()]) {
        return None;
    }

    // Order runs by decreasing capacity so good solutions appear early.
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(runs[i].len()));

    let mut best = runs.len() as u64;
    // Iterative deepening on the subset size: for small run counts this
    // is fast and exact.
    'sizes: for size in 1..=runs.len() {
        if size as u64 >= best {
            break;
        }
        // Capacity prune: the `size` biggest runs must fit n slots.
        let cap: u64 = order.iter().take(size).map(|&i| runs[i].len()).sum();
        if cap < n as u64 {
            continue;
        }
        let mut chosen = vec![false; runs.len()];
        if search_subsets(&order, 0, size, &mut chosen, &feasible_with) {
            best = size as u64;
            break 'sizes;
        }
    }
    Some(best)
}

fn search_subsets(
    order: &[usize],
    from: usize,
    remaining: usize,
    chosen: &mut Vec<bool>,
    feasible: &impl Fn(&[bool]) -> bool,
) -> bool {
    if remaining == 0 {
        return feasible(chosen);
    }
    if order.len() - from < remaining {
        return false;
    }
    for i in from..order.len() {
        chosen[order[i]] = true;
        if search_subsets(order, i + 1, remaining - 1, chosen, feasible) {
            chosen[order[i]] = false;
            return true;
        }
        chosen[order[i]] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::{min_power_multi, min_spans_multi};

    #[test]
    fn bounds_are_tight_on_forced_instances() {
        // Three far-apart pinned jobs: 3 runs, all mandatory.
        let inst = MultiInstance::from_times([vec![0], vec![10], vec![20]]).unwrap();
        assert_eq!(min_spans_lower_bound(&inst), 3);
        assert_eq!(min_gaps_lower_bound(&inst), 2);
        let (opt, _) = min_spans_multi(&inst).unwrap();
        assert_eq!(opt, 3);
    }

    #[test]
    fn hosting_bound_beats_capacity_bound() {
        // Two runs of length 3 each, 3 jobs; capacity bound says 1 but
        // jobs 0 and 2 live in different runs: hosting bound = 2.
        let inst =
            MultiInstance::from_times([vec![0, 1, 2], vec![0, 1, 2], vec![10, 11, 12]]).unwrap();
        assert_eq!(min_spans_lower_bound(&inst), 2);
    }

    #[test]
    fn capacity_bound_beats_hosting_bound() {
        // One run of length 2 can't host 2 jobs in one span... it can.
        // Use: run lengths 1 and 1 and 1 but all jobs flexible — hosting
        // bound may be n/1: 3 unit runs, 3 jobs each allowed anywhere:
        // hosting = 3, capacity = ceil(3/1) = 3; tie. Make capacity win:
        // single long run, many jobs: capacity = 1, hosting = 1. Tie too.
        // Capacity strictly wins when one run must hold several spans...
        // impossible: spans merge inside a run. So capacity bound's role
        // is runs > 20 fallback; just check consistency here.
        let inst =
            MultiInstance::from_times([vec![0, 1, 2, 3], vec![0, 1, 2, 3], vec![2, 3]]).unwrap();
        let lb = min_spans_lower_bound(&inst);
        let (opt, _) = min_spans_multi(&inst).unwrap();
        assert!(lb <= opt);
        assert_eq!(lb, 1);
        assert_eq!(opt, 1);
    }

    #[test]
    fn bounds_never_exceed_optimum_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let jobs: Vec<Vec<i64>> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| rng.gen_range(0..14))
                        .collect()
                })
                .collect();
            let inst = MultiInstance::from_times(jobs).unwrap();
            let Some((opt_spans, _)) = min_spans_multi(&inst) else {
                continue;
            };
            assert!(
                min_spans_lower_bound(&inst) <= opt_spans,
                "seed {seed}: spans LB unsound"
            );
            for alpha in [0u64, 1, 3] {
                let (opt_power, _) = min_power_multi(&inst, alpha).unwrap();
                assert!(
                    min_power_lower_bound(&inst, alpha) <= opt_power,
                    "seed {seed}, alpha {alpha}: power LB unsound"
                );
            }
        }
    }

    #[test]
    fn setcover_relaxation_is_sound_and_sometimes_tight() {
        // Three far-apart pinned jobs: 3 singleton run-sets, greedy cover
        // = 3, H(1) = 1 → bound 3, tight.
        let inst = MultiInstance::from_times([vec![0], vec![10], vec![20]]).unwrap();
        assert_eq!(setcover_spans_relaxation(&inst), 3);

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5C);
            let jobs: Vec<Vec<i64>> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| rng.gen_range(0..16))
                        .collect()
                })
                .collect();
            let inst = MultiInstance::from_times(jobs).unwrap();
            let Some((opt_spans, _)) = min_spans_multi(&inst) else {
                continue;
            };
            assert!(
                setcover_spans_relaxation(&inst) <= opt_spans,
                "seed {seed}: set-cover relaxation unsound"
            );
        }
    }

    #[test]
    fn skeleton_bound_sees_breaks_inside_a_single_run() {
        // One contiguous run 0..=4; mandatory jobs at 0 and 4 with only
        // one flexible job between them: the 3 intermediate slots cannot
        // all be busy, so the backbone must break. Hosting-runs says 1.
        let inst = MultiInstance::from_times([vec![0], vec![4], vec![1, 2, 3]]).unwrap();
        assert_eq!(skeleton_spans_lower_bound(&inst), 2);
        assert_eq!(min_spans_lower_bound(&inst), 2);
        let (opt, _) = min_spans_multi(&inst).unwrap();
        assert_eq!(opt, 2);
    }

    #[test]
    fn skeleton_bound_accepts_paveable_backbones() {
        // Mandatory at 0 and 3 with two flexible fillers covering 1, 2:
        // one span is genuinely possible; the skeleton must not break.
        let inst = MultiInstance::from_times([vec![0], vec![3], vec![1, 2], vec![1, 2]]).unwrap();
        assert_eq!(skeleton_spans_lower_bound(&inst), 1);
        let (opt, _) = min_spans_multi(&inst).unwrap();
        assert_eq!(opt, 1);
    }

    #[test]
    fn skeleton_bound_is_sound_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xAB);
            // Bias toward singleton jobs so the skeleton is non-trivial.
            let jobs: Vec<Vec<i64>> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    (0..rng.gen_range(1..=2))
                        .map(|_| rng.gen_range(0..12))
                        .collect()
                })
                .collect();
            let inst = MultiInstance::from_times(jobs).unwrap();
            let Some((opt_spans, _)) = min_spans_multi(&inst) else {
                continue;
            };
            assert!(
                skeleton_spans_lower_bound(&inst) <= opt_spans,
                "seed {seed}: skeleton bound unsound"
            );
        }
    }

    #[test]
    fn power_bound_counts_dead_zone_crossings() {
        // Two mandatory runs separated by a width-2 dead zone, α = 5:
        // power ≥ 2 + 5 + min(5, 2) = 9; optimum = 2 + 5 + 2 = 9 (bridge).
        let inst = MultiInstance::from_times([vec![0], vec![3]]).unwrap();
        assert_eq!(min_power_lower_bound(&inst, 5), 9);
        let (opt, _) = min_power_multi(&inst, 5).unwrap();
        assert_eq!(opt, 9);
    }

    #[test]
    fn power_bound_charges_a_break_inside_a_run_at_most_one_slot() {
        // The skeleton forces a break inside the run 0..=4 (one filler
        // for three slots), and the only dead zone is 95 wide. The break
        // costs min(α, 1), not min(α, 95): optimum 4 + 10 + 2 + 10 = 26.
        let inst = MultiInstance::from_times([vec![0], vec![4], vec![1, 2, 3], vec![100]]).unwrap();
        let (opt, _) = min_power_multi(&inst, 10).unwrap();
        assert_eq!(opt, 26);
        assert_eq!(min_power_lower_bound(&inst, 10), 25);
        assert_eq!(polynomial_power_lower_bound(&inst, 10), 16);
    }

    #[test]
    fn empty_instance_bounds_are_zero() {
        let inst = MultiInstance::new(vec![]).unwrap();
        assert_eq!(min_spans_lower_bound(&inst), 0);
        assert_eq!(min_power_lower_bound(&inst, 9), 0);
    }

    #[test]
    fn infeasible_instance_degrades_gracefully() {
        let inst = MultiInstance::from_times([vec![0], vec![0]]).unwrap();
        // The bound is vacuous but must not panic.
        let _ = min_spans_lower_bound(&inst);
    }
}
