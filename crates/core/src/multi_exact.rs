//! Optimized exact solver for multi-interval instances — the engine's
//! replacement for routing multi-interval traffic to the deliberately
//! unoptimized [`crate::brute_force`] reference.
//!
//! All three objectives (gaps, spans, power) are supported and return
//! bit-identical optima to `brute_force`, which stays around as the
//! differential oracle (`tests/solver_differential.rs` re-proves the
//! equality on every run).
//!
//! # Why it is fast
//!
//! * **Time compression to critical times.** The solver never sweeps the
//!   timeline: it works on the sorted slot union (the instance's critical
//!   times) and the distances between consecutive occupied slots. A dead
//!   zone of any width contributes only its capped cost `min(width, α)`
//!   through the distance — the same argument `crate::compress` proves
//!   for the compression bijections, applied implicitly.
//! * **Connected-component decomposition.** Before any search opens, the
//!   timeline is cut at dead zones that no job's allowed window crosses
//!   (and, under power, that are at least `α` wide — see
//!   [`Cost::min_zone`]). No span of any schedule crosses such a zone and
//!   the crossing pair cost equals the split-off side's own
//!   first-placement cost, so the components solve independently and
//!   their optima **add** exactly. Exponential cost is paid only by the
//!   coupled core, never by the instance's full job count.
//! * **Left-to-right branch and bound.** Within a component, occupied
//!   slots are chosen in increasing time order, branching on *(next
//!   occupied slot, job placed there)*. Objective costs accrue
//!   incrementally per consecutive pair (`+1` span when a hole opens;
//!   `min(hole, α)` for power), so there is no per-leaf cost evaluation,
//!   and distinct slots are guaranteed by construction — no occupancy
//!   bitmask over slots.
//! * **Memoization keyed by [`crate::fasthash`].** The suffix value
//!   depends only on *(last occupied slot, set of placed jobs)*, packed
//!   into one `u128` key (16-bit slot, 64-bit job mask). That flips
//!   `brute_force`'s `jobs × 2^slots` state space to `slots × 2^jobs` —
//!   exponential in the (component-local, router-capped) job count
//!   instead of the slot count.
//! * **Dominance pruning between interchangeable jobs.** Jobs with
//!   identical allowed-interval sets are interchangeable; branching
//!   places them in canonical index order, collapsing the `c!`
//!   permutations of each duplicate class to one.
//! * **Admissible lower bounds for early cutoff.** Feasibility is decided
//!   up front by matching (no tree exhaustion on infeasible instances);
//!   a Lemma 3 completion supplies an upper bound, and when the best of
//!   [`crate::lower_bounds`] (including the skeleton bound
//!   [`crate::lower_bounds::skeleton_spans_lower_bound`]) and the
//!   set-cover greedy relaxation
//!   ([`crate::lower_bounds::setcover_spans_relaxation`]) meets it, the
//!   search is skipped entirely.
//! * **Budgeted branch and bound.** Every state is searched against a
//!   *budget*: it returns its exact optimum when that is `< budget`, and
//!   otherwise only a lower bound `≥ budget`. The root's budget is the
//!   Lemma 3 upper bound `+ 1`, so the root answer is always exact; each
//!   child gets `min(best so far, budget) − pair cost`, so the incumbent
//!   flows down the tree instead of each state being solved exactly.
//!   Branches iterate in non-decreasing pair-cost order and a branch is
//!   skipped once `pair + floor` reaches its bound, where the admissible
//!   floor counts the remaining busy slots under power plus the
//!   **run-capacity** term: when more jobs remain than union slots
//!   continue the current run at consecutive times, another hole must
//!   open (`+1` span; `+min(1, α)` under power).
//! * **Exact-or-bound memo facts.** Each memo entry packs its value with
//!   a flag saying whether it is the state's exact optimum or only a
//!   lower bound. A hit is used when it is exact or its bound reaches the
//!   query's budget; a weaker bound is re-searched and overwritten, so
//!   the memo only ever gains information. Reconstruction queries each
//!   child with budget `target − pair + 1` and takes the first `(slot,
//!   job)` branch attaining the target, so values and witnesses are
//!   exactly those of an unbudgeted search.
//!
//! # One sequential path
//!
//! Each component is searched on the calling thread with one memo. The
//! budgeted search gets its speed from facts that memo shares across
//! branches, and splitting a component's root frontier into parallel
//! subtrees would give each subtree its own memo to re-derive them in:
//! measured on 18- and 24-job coupled cores, such a fan-out expanded
//! 1.8–3× the nodes and was slower than this path on two CPUs.
//! Parallelism lives one level up, across instances (the engine's batch
//! fan-out and serve pool), where it shares no state, keeps node counts
//! independent of the thread count, and never exceeds the daemon's
//! thread cap.

use crate::fasthash::FastMap;
use crate::instance::MultiInstance;
use crate::lower_bounds;
use crate::multi_interval::complete_schedule;
use crate::power::power_cost_single;
use crate::schedule::MultiSchedule;
use crate::time::Time;

/// "No completion". Also the largest representable cost, which leaves
/// the top bit of a memo entry free for [`BOUND`].
const INF: u64 = u64::MAX >> 1;
/// Memo-entry flag: the stored value is a lower bound `≥` the budget it
/// was searched with, not the state's exact optimum.
const BOUND: u64 = 1 << 63;

/// Hard cap on jobs: placed-job sets are packed into a `u64` mask, and
/// the router caps multi-exact routing at exactly this job count.
const MAX_JOBS: usize = 64;
/// Hard cap on distinct slots (slot indices are packed into `u16`).
const MAX_SLOTS: usize = 4096;

// The branching masks and the memo key layout both encode "one bit per
// job in a u64"; widening MAX_JOBS past the mask width would silently
// truncate placed-job sets.
const _: () = assert!(
    MAX_JOBS <= u64::BITS as usize,
    "MAX_JOBS must fit the u64 placed-job mask"
);

/// The objective a multi-interval solve minimizes — the public selector
/// for [`solve_multi_stats`] and [`solve_multi_undecomposed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiObjective {
    /// Idle periods (spans − 1, Theorem 6's convention).
    Gaps,
    /// Wake-ups (Section 5's "gaps" = spans convention).
    Spans,
    /// Busy slots + `alpha` per wake-up, holes capped at `alpha`.
    Power {
        /// Transition (wake-up) cost.
        alpha: u64,
    },
}

impl MultiObjective {
    fn cost(self) -> Cost {
        match self {
            // Gaps reuse the span minimizer: gaps = spans − 1.
            MultiObjective::Gaps | MultiObjective::Spans => Cost::Spans,
            MultiObjective::Power { alpha } => Cost::Power { alpha },
        }
    }

    fn finalize(self, spans_or_power: u64) -> u64 {
        match self {
            MultiObjective::Gaps => spans_or_power.saturating_sub(1),
            _ => spans_or_power,
        }
    }
}

/// Counters describing one solve's search effort — the observability
/// feed for `STATS v4` (`search.*` rows) and `EngineReport`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Branch-and-bound states expanded (memo misses).
    pub nodes_expanded: u64,
    /// Job count of each decomposed component, left to right.
    pub component_jobs: Vec<usize>,
}

impl SearchStats {
    fn note_components(&mut self, comps: &[Vec<usize>]) {
        self.component_jobs = comps.iter().map(Vec::len).collect();
    }
}

/// Minimum-gap schedule of a multi-interval instance, or `None` if
/// infeasible. Gaps are counted as spans − 1 (Theorem 6's convention),
/// so the span minimizer is the gap minimizer.
pub fn min_gaps_multi(inst: &MultiInstance) -> Option<(u64, MultiSchedule)> {
    solve_multi_stats(inst, MultiObjective::Gaps).0
}

/// Minimum number of spans (Section 5 convention: "gaps" = spans), or
/// `None` if infeasible.
pub fn min_spans_multi(inst: &MultiInstance) -> Option<(u64, MultiSchedule)> {
    solve_multi_stats(inst, MultiObjective::Spans).0
}

/// Minimum-power schedule under transition cost `alpha` (Theorem 3's
/// problem, solved exactly), or `None` if infeasible.
pub fn min_power_multi(inst: &MultiInstance, alpha: u64) -> Option<(u64, MultiSchedule)> {
    solve_multi_stats(inst, MultiObjective::Power { alpha }).0
}

/// Decomposed sequential solve with search statistics: cut the timeline
/// into independent components, solve each with the branch-and-bound,
/// and add the optima (spans and power both add across qualifying dead
/// zones; gaps are finalized as spans − 1). On an infeasible instance
/// the statistics carry the component sizes and no search effort.
pub fn solve_multi_stats(
    inst: &MultiInstance,
    objective: MultiObjective,
) -> (Option<(u64, MultiSchedule)>, SearchStats) {
    let cost = objective.cost();
    let n = inst.job_count();
    let mut stats = SearchStats::default();
    if n == 0 {
        return (
            Some((objective.finalize(0), MultiSchedule::new(vec![]))),
            stats,
        );
    }
    check_caps(inst);
    let comps = decompose_jobs(inst, cost.min_zone());
    stats.note_components(&comps);
    // Every component's Lemma 3 matching before any search opens: one
    // infeasible component makes the whole instance infeasible (the
    // matching decomposes along the same cuts).
    let mut matched = Vec::with_capacity(comps.len());
    for jobs in &comps {
        let sub = sub_instance(inst, jobs);
        let Some(greedy) = complete_schedule(&sub, &vec![None; jobs.len()]) else {
            return (None, stats);
        };
        matched.push((sub, greedy));
    }
    let mut times = vec![0; n];
    let mut total = 0u64;
    for (jobs, (sub, greedy)) in comps.iter().zip(matched) {
        let (value, sched) = solve_component(&sub, cost, greedy, &mut stats);
        total += value;
        for (&j, &t) in jobs.iter().zip(sched.times()) {
            times[j] = t;
        }
    }
    (
        Some((objective.finalize(total), MultiSchedule::new(times))),
        stats,
    )
}

/// The pre-decomposition solver: one branch-and-bound over the whole
/// instance. Kept public as the **differential reference** that pins the
/// decomposition's exactness (`tests/solver_differential.rs` asserts
/// equal optima against [`solve_multi_stats`] and `brute_force`).
pub fn solve_multi_undecomposed(
    inst: &MultiInstance,
    objective: MultiObjective,
) -> Option<(u64, MultiSchedule)> {
    let cost = objective.cost();
    if inst.job_count() == 0 {
        return Some((objective.finalize(0), MultiSchedule::new(vec![])));
    }
    check_caps(inst);
    // Exact feasibility + upper bound in one matching pass (Lemma 3).
    let greedy = complete_schedule(inst, &vec![None; inst.job_count()])?;
    let (value, sched) = solve_component(inst, cost, greedy, &mut SearchStats::default());
    Some((objective.finalize(value), sched))
}

fn check_caps(inst: &MultiInstance) {
    let n = inst.job_count();
    assert!(
        n <= MAX_JOBS,
        "multi_exact supports at most {MAX_JOBS} jobs, got {n}"
    );
    let slots = inst.slot_union().len();
    assert!(
        slots <= MAX_SLOTS,
        "multi_exact supports at most {MAX_SLOTS} distinct slots, got {slots}"
    );
}

/// The objective being minimized. Gaps reuse the span minimizer.
#[derive(Clone, Copy)]
enum Cost {
    Spans,
    Power { alpha: u64 },
}

impl Cost {
    /// Cost of occupying `slot` right after `prev` (`None` = first
    /// placement): busy cost, wake-ups, and the capped hole in between.
    #[inline]
    fn pair(self, prev: Option<Time>, slot: Time) -> u64 {
        match self {
            Cost::Spans => match prev {
                None => 1,
                Some(p) => u64::from(slot != p + 1),
            },
            Cost::Power { alpha } => match prev {
                None => 1 + alpha,
                Some(p) => 1 + ((slot - p - 1) as u64).min(alpha),
            },
        }
    }

    /// Admissible bound on the suffix cost of `r` still-unplaced jobs:
    /// each costs at least its busy slot under power, nothing provable
    /// under spans.
    #[inline]
    fn suffix_floor(self, r: usize) -> u64 {
        match self {
            Cost::Spans => 0,
            Cost::Power { .. } => r as u64,
        }
    }

    /// Least extra cost of one more hole: a new span, or under power the
    /// hole's capped cost `min(width, α)` with width ≥ 1.
    #[inline]
    fn hole_floor(self) -> u64 {
        match self {
            Cost::Spans => 1,
            Cost::Power { alpha } => alpha.min(1),
        }
    }

    /// Minimum dead-zone width at which the timeline may be cut exactly.
    ///
    /// Spans: any dead zone (width ≥ 1) — no span crosses it, and the
    /// crossing pair cost (1) equals the right side's first-placement
    /// cost. Power: the crossing pair costs `1 + min(hole, α)`; with
    /// `hole ≥ width ≥ α` that is `1 + α`, exactly the split-off side's
    /// own wake-up, so cuts are exact only at zones of width ≥ `α`.
    #[inline]
    fn min_zone(self) -> u64 {
        match self {
            Cost::Spans => 1,
            Cost::Power { alpha } => alpha.max(1),
        }
    }

    fn of_schedule(self, sched: &MultiSchedule) -> u64 {
        match self {
            Cost::Spans => sched.span_count(),
            Cost::Power { alpha } => power_cost_single(sched, alpha),
        }
    }

    fn instance_bound(self, inst: &MultiInstance) -> u64 {
        match self {
            Cost::Spans => lower_bounds::min_spans_lower_bound(inst)
                .max(lower_bounds::setcover_spans_relaxation(inst)),
            Cost::Power { alpha } => lower_bounds::min_power_lower_bound(inst, alpha),
        }
    }
}

/// Cut the instance at dead zones of width ≥ `min_zone` that no job's
/// allowed window crosses; returns original job indices grouped per
/// component, left to right (each job's relative order preserved).
fn decompose_jobs(inst: &MultiInstance, min_zone: u64) -> Vec<Vec<usize>> {
    let slots = inst.slot_union();
    let n = inst.job_count();
    if slots.is_empty() {
        return Vec::new();
    }
    // Job windows [first, last allowed time]; every valid job has ≥ 1
    // slot, so first/last exist.
    let mut firsts: Vec<(Time, usize)> = (0..n).map(|j| (inst.jobs()[j].times()[0], j)).collect();
    firsts.sort_unstable();
    // Sweep the union left to right. A cut between consecutive union
    // slots is valid iff the zone is wide enough AND no started job's
    // window reaches past it.
    let mut cuts: Vec<Time> = Vec::new(); // cut = last slot time before the zone
    let mut started = 0usize;
    let mut reach = Time::MIN; // max last-allowed-time over started jobs
    for w in slots.windows(2) {
        let (here, next) = (w[0], w[1]);
        while started < n && firsts[started].0 <= here {
            let job = firsts[started].1;
            // analyzer: allow(panic-free): every valid MultiJob has ≥ 1 slot
            let last = *inst.jobs()[job].times().last().expect("job has slots");
            reach = reach.max(last);
            started += 1;
        }
        let width = (next - here - 1) as u64;
        if width >= min_zone && reach <= here {
            cuts.push(here);
        }
    }
    let mut comps: Vec<Vec<usize>> = vec![Vec::new(); cuts.len() + 1];
    for j in 0..n {
        let first = inst.jobs()[j].times()[0];
        // Segment = number of cuts strictly left of the job's window.
        let seg = cuts.partition_point(|&c| c < first);
        comps[seg].push(j);
    }
    // Every segment holds ≥ 1 job (each union slot belongs to some job
    // that lies entirely within its segment), but keep this robust.
    comps.retain(|c| !c.is_empty());
    comps
}

/// Sub-instance over the given original job indices.
fn sub_instance(inst: &MultiInstance, jobs: &[usize]) -> MultiInstance {
    let times = jobs.iter().map(|&j| inst.jobs()[j].times().to_vec());
    // analyzer: allow(panic-free): sub-jobs of a valid instance each keep ≥ 1 slot
    MultiInstance::from_times(times).expect("component jobs are valid")
}

/// Optimum and canonical witness of one feasible component, given its
/// Lemma 3 witness `greedy`: the witness itself when an admissible
/// bound meets its cost, otherwise the budgeted search below it.
fn solve_component(
    inst: &MultiInstance,
    cost: Cost,
    greedy: MultiSchedule,
    stats: &mut SearchStats,
) -> (u64, MultiSchedule) {
    let upper = cost.of_schedule(&greedy);
    if cost.instance_bound(inst) >= upper {
        // Certified optimal without opening the search at all.
        return (upper, greedy);
    }
    let mut solver = Solver::new(inst, &inst.slot_union(), cost);
    // Budget `upper + 1` makes the root answer exact: the optimum is at
    // most the greedy witness's cost.
    let best = solver.suffix(None, 0, upper + 1);
    assert!(best <= upper, "matching said feasible, search must agree");
    let times = solver.reconstruct(best);
    stats.nodes_expanded += solver.nodes;
    let sched = MultiSchedule::new(times);
    debug_assert_eq!(sched.verify(inst), Ok(()));
    debug_assert_eq!(cost.of_schedule(&sched), best);
    (best, sched)
}

struct Solver {
    n: usize,
    cost: Cost,
    /// Sorted slot-union times (the critical times).
    times: Vec<Time>,
    /// Jobs allowed at each slot, ascending job index.
    jobs_at: Vec<Vec<u8>>,
    /// Last allowed slot index of each job.
    max_slot: Vec<u16>,
    /// Union slots following each slot at consecutive times: how many
    /// more jobs the run through that slot can absorb without a hole.
    run_left: Vec<u16>,
    /// For each job, the previous job with the identical allowed set
    /// (duplicate-class chain used by the dominance pruning).
    twin_before: Vec<Option<u8>>,
    /// Suffix memo: `(last slot + 1) << 64 | placed mask` → value, with
    /// [`BOUND`] set when the value is only a lower bound.
    memo: FastMap<u128, u64>,
    /// Branch-and-bound states expanded (memo misses).
    nodes: u64,
    /// Re-entrancy guard for the debug-build memo audit: while a hit is
    /// being re-derived, nested hits must return without re-verifying or
    /// the recomputation becomes exponential again.
    #[cfg(debug_assertions)]
    verifying: bool,
}

impl Solver {
    fn new(inst: &MultiInstance, slots: &[Time], cost: Cost) -> Solver {
        let n = inst.job_count();
        let mut jobs_at = vec![Vec::new(); slots.len()];
        let mut max_slot = vec![0u16; n];
        for (j, job) in inst.jobs().iter().enumerate() {
            for t in job.times() {
                // analyzer: allow(panic-free): slot_union() is the sorted set of exactly these job times
                let s = slots.binary_search(t).expect("slot in union");
                jobs_at[s].push(j as u8);
                max_slot[j] = max_slot[j].max(s as u16);
            }
        }
        // Duplicate classes: jobs share a class iff their allowed sets
        // (hence interval structures) are identical.
        let mut twin_before: Vec<Option<u8>> = vec![None; n];
        for (j, twin) in twin_before.iter_mut().enumerate().skip(1) {
            *twin = (0..j)
                .rev()
                .find(|&i| inst.jobs()[i].times() == inst.jobs()[j].times())
                .map(|i| i as u8);
        }
        let mut run_left = vec![0u16; slots.len()];
        for s in (0..slots.len().saturating_sub(1)).rev() {
            if slots[s + 1] == slots[s] + 1 {
                run_left[s] = run_left[s + 1] + 1;
            }
        }
        Solver {
            n,
            cost,
            times: slots.to_vec(),
            jobs_at,
            max_slot,
            run_left,
            twin_before,
            memo: FastMap::with_capacity_and_hasher(1 << 10, Default::default()),
            nodes: 0,
            #[cfg(debug_assertions)]
            verifying: false,
        }
    }

    /// Debug-build memo audit: re-derive a hit state once (children are
    /// served from the memo) and check the fact the entry records — an
    /// exact entry must equal the recomputed optimum (re-derived under
    /// budget `value + 1`, the least budget that pins it), a bound must
    /// still reach the `budget` it is used with. A stale or clobbered
    /// entry would silently corrupt the optimum and every reconstruction
    /// step that follows it. Audit work is not counted in `nodes`.
    #[cfg(debug_assertions)]
    fn audit_memo_hit(&mut self, last: Option<u16>, mask: u64, entry: u64, budget: u64) {
        if self.verifying {
            return;
        }
        self.verifying = true;
        let nodes = self.nodes;
        let value = entry & !BOUND;
        if entry & BOUND == 0 {
            let fresh = self.suffix_compute(last, mask, value + 1);
            debug_assert_eq!(
                value, fresh,
                "multi_exact exact memo entry diverged from recomputation"
            );
        } else {
            let fresh = self.suffix_compute(last, mask, budget);
            debug_assert!(
                fresh >= budget,
                "multi_exact memo bound {value} ≥ {budget} contradicted by optimum {fresh}"
            );
        }
        self.nodes = nodes;
        self.verifying = false;
    }

    #[inline]
    fn full(&self) -> u64 {
        if self.n == MAX_JOBS {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        }
    }

    /// A job may be branched on only if every unplaced twin with a
    /// smaller index is gone — interchangeable jobs go in index order.
    #[inline]
    fn canonical(&self, job: u8, mask: u64) -> bool {
        match self.twin_before[job as usize] {
            None => true,
            Some(prev) => mask & (1u64 << prev) != 0,
        }
    }

    /// Admissible floor on the cost of the `r` jobs still unplaced after
    /// a placement at slot `s`: their busy slots under power, plus one
    /// more hole when they cannot all continue the run through `s`.
    #[inline]
    fn floor_after(&self, s: u16, r: usize) -> u64 {
        let floor = self.cost.suffix_floor(r);
        if r > self.run_left[s as usize] as usize {
            floor + self.cost.hole_floor()
        } else {
            floor
        }
    }

    /// Budgeted suffix search: the minimum cost of placing every job not
    /// in `mask` at slots strictly after `last`, including the pair cost
    /// back to `last`, when that minimum is `< budget`; otherwise some
    /// lower bound `≥ budget` on it. `INF` iff no completion exists.
    fn suffix(&mut self, last: Option<u16>, mask: u64, budget: u64) -> u64 {
        if mask == self.full() {
            return 0;
        }
        let key = (last.map_or(0, |i| i as u128 + 1)) << 64 | mask as u128;
        if let Some(&entry) = self.memo.get(&key) {
            let value = entry & !BOUND;
            if entry & BOUND == 0 || value >= budget {
                #[cfg(debug_assertions)]
                self.audit_memo_hit(last, mask, entry, budget);
                return value;
            }
        }
        // A miss, or a bound too weak for this budget: search and
        // (over)write. The new fact is exact or a bound ≥ this budget,
        // so it is never weaker than the entry it replaces.
        let value = self.suffix_compute(last, mask, budget);
        let entry = if value < budget { value } else { value | BOUND };
        self.memo.insert(key, entry);
        value
    }

    /// The uncached body of [`Solver::suffix`]: branch over the next
    /// occupied slot and the canonical job placed there.
    fn suffix_compute(&mut self, last: Option<u16>, mask: u64, budget: u64) -> u64 {
        self.nodes += 1;
        let r = self.n - mask.count_ones() as usize;
        // Every unplaced job lands at or after the *next* occupied slot,
        // so that slot is bounded by the tightest remaining deadline —
        // and must leave r − 1 free slots behind it.
        let mut hi = (self.times.len() - r) as u16;
        for j in 0..self.n {
            if mask & (1u64 << j) == 0 {
                hi = hi.min(self.max_slot[j]);
            }
        }
        let lo = last.map_or(0, |i| i + 1);
        let prev_time = last.map(|i| self.times[i as usize]);
        let base = self.cost.suffix_floor(r - 1);
        // `best`: least cost over searched branches (exact below the
        // budget). `lower`: least floor over branches cut unsearched.
        let mut best = INF;
        let mut lower = INF;
        for s in lo..=hi {
            let pair = self.cost.pair(prev_time, self.times[s as usize]);
            // Pair costs are non-decreasing in the slot (holes only grow),
            // so once the slot-independent floor reaches the bound every
            // remaining branch is dominated — cut the whole loop.
            let cut = pair.saturating_add(base);
            if cut >= best.min(budget) {
                lower = lower.min(cut);
                break;
            }
            let floor = pair.saturating_add(self.floor_after(s, r - 1));
            for k in 0..self.jobs_at[s as usize].len() {
                let job = self.jobs_at[s as usize][k];
                if mask & (1u64 << job) != 0 || !self.canonical(job, mask) {
                    continue;
                }
                let bound = best.min(budget);
                if floor >= bound {
                    lower = lower.min(floor);
                    break;
                }
                let v = self.suffix(Some(s), mask | 1u64 << job, bound - pair);
                best = best.min(pair.saturating_add(v));
            }
        }
        // Below the budget `best` is the exact optimum (every cut branch
        // costs at least the bound it was cut against); otherwise both
        // terms are lower bounds ≥ the budget.
        best.min(lower)
    }

    /// Re-walk the memoized search along an optimal branch, returning the
    /// per-job times (original job order). The walk always takes the
    /// *first* `(slot, job)` branch in canonical scan order that attains
    /// the remaining target, which is what makes the witness
    /// deterministic.
    fn reconstruct(&mut self, mut target: u64) -> Vec<Time> {
        let mut last: Option<u16> = None;
        let mut mask = 0u64;
        let mut times = vec![0; self.n];
        while mask != self.full() {
            let prev_time = last.map(|i| self.times[i as usize]);
            let lo = last.map_or(0, |i| i + 1);
            let mut stepped = false;
            'slots: for s in lo..self.times.len() as u16 {
                let pair = self.cost.pair(prev_time, self.times[s as usize]);
                if pair > target {
                    break;
                }
                for k in 0..self.jobs_at[s as usize].len() {
                    let job = self.jobs_at[s as usize][k];
                    if mask & (1u64 << job) != 0 || !self.canonical(job, mask) {
                        continue;
                    }
                    // Budget `target − pair + 1`: exact whenever the
                    // child can attain the target, a bound above it
                    // otherwise.
                    let v = self.suffix(Some(s), mask | 1u64 << job, target - pair + 1);
                    if pair.saturating_add(v) == target {
                        times[job as usize] = self.times[s as usize];
                        mask |= 1u64 << job;
                        last = Some(s);
                        target -= pair;
                        stepped = true;
                        break 'slots;
                    }
                }
            }
            assert!(stepped, "reconstruction must follow an optimal branch");
        }
        // Duplicate-class members are interchangeable: the canonical
        // ordering may have assigned a twin's slot; any bijection within
        // a class is valid, and index order is what the walk produced.
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;

    fn inst(times: &[Vec<i64>]) -> MultiInstance {
        MultiInstance::from_times(times.to_vec()).unwrap()
    }

    #[test]
    fn matches_brute_force_on_worked_examples() {
        let cases = [
            vec![vec![0, 4], vec![5]],
            vec![vec![0, 1], vec![0, 1], vec![10, 11], vec![10, 11]],
            vec![vec![0, 10], vec![1, 11], vec![5]],
            vec![vec![0, 2], vec![1, 3], vec![4, 6], vec![5, 7]],
            vec![vec![0], vec![1, 5], vec![2, 6], vec![7]],
            vec![vec![3], vec![3, 4], vec![4, 5]],
        ];
        for times in cases {
            let i = inst(&times);
            assert_eq!(
                min_gaps_multi(&i).map(|(v, _)| v),
                brute_force::min_gaps_multi(&i).map(|(v, _)| v),
                "gaps diverged on {times:?}"
            );
            assert_eq!(
                min_spans_multi(&i).map(|(v, _)| v),
                brute_force::min_spans_multi(&i).map(|(v, _)| v),
                "spans diverged on {times:?}"
            );
            for alpha in [0u64, 1, 2, 5, 9] {
                assert_eq!(
                    min_power_multi(&i, alpha).map(|(v, _)| v),
                    brute_force::min_power_multi(&i, alpha).map(|(v, _)| v),
                    "power diverged on {times:?} α={alpha}"
                );
            }
        }
    }

    #[test]
    fn witnesses_verify_and_attain_their_values() {
        let i = inst(&[vec![0, 7], vec![3], vec![8, 9], vec![4, 5], vec![12]]);
        let (gaps, sched) = min_gaps_multi(&i).unwrap();
        sched.verify(&i).unwrap();
        assert_eq!(sched.gap_count(), gaps);
        let (power, psched) = min_power_multi(&i, 3).unwrap();
        psched.verify(&i).unwrap();
        assert_eq!(power_cost_single(&psched, 3), power);
    }

    #[test]
    fn infeasible_detected_without_search() {
        let i = inst(&[vec![3], vec![3]]);
        assert_eq!(min_gaps_multi(&i), None);
        assert_eq!(min_spans_multi(&i), None);
        assert_eq!(min_power_multi(&i, 4), None);
    }

    #[test]
    fn empty_instance() {
        let i = MultiInstance::new(vec![]).unwrap();
        assert_eq!(min_gaps_multi(&i).unwrap().0, 0);
        assert_eq!(min_power_multi(&i, 7).unwrap().0, 0);
    }

    #[test]
    fn duplicate_jobs_exercise_the_dominance_pruning() {
        // Eight interchangeable jobs over one window: one span, and the
        // canonical ordering must still produce a valid bijection.
        let times: Vec<Vec<i64>> = (0..8).map(|_| (0..10).collect()).collect();
        let i = inst(&times);
        let (spans, sched) = min_spans_multi(&i).unwrap();
        assert_eq!(spans, 1);
        sched.verify(&i).unwrap();
    }

    #[test]
    fn early_cutoff_agrees_with_search_on_forced_instances() {
        // Three far-apart pinned jobs: LB = UB = 3 spans; the shortcut
        // path must return the same value the search would.
        let i = inst(&[vec![0], vec![10], vec![20]]);
        assert_eq!(min_spans_multi(&i).unwrap().0, 3);
        assert_eq!(
            min_spans_multi(&i).unwrap().0,
            brute_force::min_spans_multi(&i).unwrap().0
        );
    }

    #[test]
    fn decomposition_cuts_at_uncrossed_dead_zones() {
        // Three bands nobody crosses → three components for spans.
        let i = inst(&[
            vec![0, 1],
            vec![1, 2],
            vec![10, 11],
            vec![20, 21],
            vec![21, 22],
        ]);
        let comps = decompose_jobs(&i, 1);
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
        // A job bridging the first zone glues the first two bands.
        let bridged = inst(&[
            vec![0, 1],
            vec![1, 2],
            vec![10, 11],
            vec![20, 21],
            vec![21, 22],
            vec![2, 10],
        ]);
        let comps = decompose_jobs(&bridged, 1);
        assert_eq!(comps, vec![vec![0, 1, 2, 5], vec![3, 4]]);
    }

    #[test]
    fn power_decomposition_respects_the_alpha_zone_width() {
        // Zone widths 7 (between 1 and 9) and 2 (between 10 and 13).
        let i = inst(&[vec![0, 1], vec![9, 10], vec![13]]);
        // α = 2: both zones qualify → 3 components.
        assert_eq!(decompose_jobs(&i, 2).len(), 3);
        // α = 5: only the width-7 zone qualifies → 2 components.
        assert_eq!(decompose_jobs(&i, 5), vec![vec![0], vec![1, 2]]);
        // The optima stay exact either way (vs. the undecomposed search).
        for alpha in [0u64, 1, 2, 3, 5, 8, 20] {
            let obj = MultiObjective::Power { alpha };
            assert_eq!(
                solve_multi_stats(&i, obj).0.map(|(v, _)| v),
                solve_multi_undecomposed(&i, obj).map(|(v, _)| v),
                "power decomposition diverged at α={alpha}"
            );
        }
    }

    #[test]
    fn decomposed_solves_report_component_stats() {
        let i = inst(&[vec![0, 1], vec![1, 2], vec![50, 51], vec![100]]);
        let (res, stats) = solve_multi_stats(&i, MultiObjective::Spans);
        let (spans, sched) = res.unwrap();
        sched.verify(&i).unwrap();
        assert_eq!(spans, 3);
        assert_eq!(stats.component_jobs, vec![2, 1, 1]);
    }

    #[test]
    fn budgeted_search_keeps_its_contract() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xB0D6));
            let jobs: Vec<Vec<i64>> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| rng.gen_range(0..14))
                        .collect()
                })
                .collect();
            let i = inst(&jobs);
            let slots = i.slot_union();
            for cost in [Cost::Spans, Cost::Power { alpha: 2 }] {
                let opt = match cost {
                    Cost::Spans => brute_force::min_spans_multi(&i),
                    Cost::Power { alpha } => brute_force::min_power_multi(&i, alpha),
                };
                let Some((opt, _)) = opt else { continue };
                let check = |b: u64, v: u64| {
                    if opt < b {
                        assert_eq!(v, opt, "seed {seed}: budget {b} on {jobs:?}");
                    } else {
                        assert!(
                            (b..=opt).contains(&v),
                            "seed {seed}: budget {b} gave {v}, optimum {opt}, on {jobs:?}"
                        );
                    }
                };
                // Fresh memo per budget, then one memo across budgets in
                // shuffled order (bound entries met by larger budgets).
                let mut budgets: Vec<u64> = (0..=opt + 1).collect();
                for &b in &budgets {
                    check(b, Solver::new(&i, &slots, cost).suffix(None, 0, b));
                }
                budgets.shuffle(&mut rng);
                let mut shared = Solver::new(&i, &slots, cost);
                for &b in &budgets {
                    check(b, shared.suffix(None, 0, b));
                }
            }
        }
    }

    #[test]
    fn randomized_bit_match_against_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37));
            let jobs: Vec<Vec<i64>> = (0..rng.gen_range(1..=7))
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| rng.gen_range(0..18))
                        .collect()
                })
                .collect();
            let i = inst(&jobs);
            assert_eq!(
                min_gaps_multi(&i).map(|(v, _)| v),
                brute_force::min_gaps_multi(&i).map(|(v, _)| v),
                "seed {seed}: gaps diverged on {jobs:?}"
            );
            for alpha in [0u64, 1, 3, 6] {
                assert_eq!(
                    min_power_multi(&i, alpha).map(|(v, _)| v),
                    brute_force::min_power_multi(&i, alpha).map(|(v, _)| v),
                    "seed {seed}: power diverged on {jobs:?} α={alpha}"
                );
            }
        }
    }

    #[test]
    fn wide_job_counts_fit_the_u64_mask() {
        // 33+ jobs would have overflowed the old u32 mask; keep them
        // decomposable so the test stays fast.
        let times: Vec<Vec<i64>> = (0..36).map(|j| vec![10 * j, 10 * j + 1]).collect();
        let i = inst(&times);
        let (spans, sched) = min_spans_multi(&i).unwrap();
        assert_eq!(spans, 36);
        sched.verify(&i).unwrap();
    }
}
