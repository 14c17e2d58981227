//! **Theorems 1 & 2 (gap side)**: exact multiprocessor gap scheduling in
//! polynomial time.
//!
//! # What the DP minimizes, made precise
//!
//! For a schedule with occupancy profile `ℓ(t)` (# jobs at time `t`), the
//! number of **spans** (maximal busy runs, = wake-up transitions) over all
//! processors is at least `R(ℓ) = Σ_t (ℓ(t) − ℓ(t−1))⁺` in *any*
//! arrangement, and the prefix (staircase) arrangement of Lemma 1 attains
//! it. The DP below therefore computes
//!
//! ```text
//! G(p)  =  min { R(ℓ) : ℓ a feasible profile with ℓ(t) ≤ p }
//! ```
//!
//! which answers both of the paper's objectives:
//!
//! * **span / transition objective** (the intro's "minimize the total
//!   number of transitions"): optimum `G(p)`, prefix witness —
//!   [`min_span_schedule`];
//! * **finite-gap objective** (Section 2's literal definition): optimum
//!   `max(0, G(p) − p)` — every arrangement has ≥ `R(ℓ)` runs on ≤
//!   `min(p, runs)` processors and `gaps = runs − used`; spreading the
//!   staircase runs over processors attains the bound
//!   ([`crate::schedule::Schedule::spread_for_min_gaps`]) —
//!   [`min_gap_schedule`].
//!
//! The distinction matters: the paper's Lemma 1 proof counts span starts,
//! and prefix rearrangement can strictly *increase* finite gaps (see
//! DESIGN.md and the tests below). For `p = 1` the objectives coincide up
//! to the constant 1.
//!
//! # The recursion
//!
//! A state `C(t1, t2, k, q, o1, o2)` schedules the `k` earliest-deadline
//! jobs among those *released* in `[t1, t2]`, with exactly `o1` of them at
//! `t1`, `o2` of them at `t2`, and `q` ancestor jobs already pinned at `t2`
//! below them (total occupancy `q + o2` at `t2`). Its value is the number
//! of span starts at the boundaries `(t1, t1+1], …, (t2−1, t2]`. Following
//! the paper, the recursion peels the latest-deadline job `jk`, placed at a
//! time `t′`:
//!
//! * `t′ = t2`: `jk` joins the ancestors → `C(t1, t2, k−1, q+1, o1, o2−1)`;
//! * `t′ < t2`: the exchange argument in the paper's proof pins the right
//!   child's job count to `i = #{window jobs released after t′}`; children
//!   are `C(t1, t′, k−i−1, 1, o1, ℓ′)` (`jk` sits at the bottom of column
//!   `t′`) and `C(t′+1, t2, i, q, ℓ″, o2)`; the parent pays the boundary
//!   `(occ(t′+1) − (1 + ℓ′))⁺`.
//!
//! The timeline is padded with one empty sentinel slot on each side so the
//! top-level state has `o1 = o2 = q = 0` and every real start is counted.
//! Run [`crate::compress::compress_instance_gap`] first if the horizon is
//! long; the DP is polynomial in the horizon length, `n`, and `p`.
//!
//! # Implementation notes (hot-path engineering)
//!
//! The recursion is the batch engine's dominant exact path, so the state
//! evaluation is tuned (in the style of Baptiste–Chrobak–Dürr's
//! interval-structure memoization):
//!
//! * **interval memoization** — the deadline-ordered job list of a window
//!   `[t1, t2]` (and its releases) is computed once per distinct interval
//!   and shared by every state over that interval, instead of rescanning
//!   all jobs per state. Windows sit back to back in one arena and a
//!   state holds a `Copy` handle, so a new window allocates nothing of
//!   its own (see [`crate::dp_interval`], shared with the other interval
//!   DPs);
//! * **dominance pruning** — states whose `k` window jobs cannot fit the
//!   column capacities (`o1` at `t1`, `o2` at `t2`, `≤ cap` per interior
//!   column) are cut to `INF` without expanding children;
//! * **flat split counting** — the split loop derives `i(t′)` from a
//!   reusable per-depth counting buffer (one pass over the `k` releases
//!   plus a running prefix), replacing the per-state sort;
//! * **fast memo hashing** — the packed-`u64` state memo uses
//!   [`crate::fasthash`] instead of SipHash;
//! * **value-only solves** — [`min_span_value`] and [`min_gap_value`]
//!   return the memoized optimum; only the `min_*_schedule` functions
//!   walk the memo to build a witness. Debug builds re-derive the
//!   witness in the value path too and check its cost.
//!
//! None of this changes the recursion: optima and witnesses are identical
//! to the reference formulation, which `tests/solver_differential.rs`
//! re-proves against `brute_force` on every run.

use crate::dp_interval::{IntervalIndex, Window};
use crate::fasthash::FastMap;
use crate::instance::Instance;
use crate::schedule::{Assignment, Schedule};

const INF: u32 = u32::MAX;

/// Longest padded timeline (compressed horizon + two sentinels) and most
/// jobs the DP's packed state keys take.
pub const MAX_TIMELINE: i64 = 4_000;
pub const MAX_JOBS: usize = 4_000;

fn add(a: u32, b: u32) -> u32 {
    if a == INF || b == INF {
        INF
    } else {
        a + b
    }
}

/// Result of the exact multiprocessor solver.
#[derive(Clone, Debug)]
pub struct GapSolution {
    /// Optimal value of the requested objective (gaps or spans).
    pub gaps: u64,
    /// A witness schedule achieving it.
    pub schedule: Schedule,
    /// Minimum span count `G(p)` (= wake-up transitions of the witness).
    pub spans: u64,
}

/// Solve the **span / transition** objective exactly: fewest maximal busy
/// runs (= sleep→active transitions) over all processors. Returns a
/// prefix-structured witness. `None` iff infeasible.
pub fn min_span_schedule(inst: &Instance) -> Option<GapSolution> {
    let (spans, schedule) = solve(inst)?;
    Some(GapSolution {
        gaps: spans,
        schedule,
        spans,
    })
}

/// Solve the **finite-gap** objective exactly (Section 2's literal
/// definition: a gap is a finite maximal idle interval on one processor).
/// Returns a run-spread witness using `min(p, spans)` processors.
/// `None` iff infeasible.
///
/// ```
/// use gaps_core::instance::Instance;
/// use gaps_core::multiproc_dp::min_gap_schedule;
/// // Two far-apart pinned jobs: on p = 2 each gets its own processor and
/// // no finite gap remains; the span count is still 2.
/// let inst = Instance::from_windows([(0, 0), (6, 6)], 2).unwrap();
/// let sol = min_gap_schedule(&inst).unwrap();
/// assert_eq!(sol.gaps, 0);
/// assert_eq!(sol.spans, 2);
/// ```
pub fn min_gap_schedule(inst: &Instance) -> Option<GapSolution> {
    let (spans, schedule) = solve(inst)?;
    let gaps = spans.saturating_sub(inst.processors() as u64);
    let spread = schedule.spread_for_min_gaps(inst.processors());
    debug_assert_eq!(spread.gap_count(inst.processors()), gaps);
    Some(GapSolution {
        gaps,
        schedule: spread,
        spans,
    })
}

/// Optimal finite-gap count only: `max(0, G(p) − p)` from the memoized
/// optimum, without building a witness.
pub fn min_gap_value(inst: &Instance) -> Option<u64> {
    let spans = min_span_value(inst)?;
    Some(spans.saturating_sub(inst.processors() as u64))
}

/// Optimal span/transition count `G(p)` only: the memoized optimum,
/// without building a witness.
pub fn min_span_value(inst: &Instance) -> Option<u64> {
    if inst.job_count() == 0 {
        return Some(0);
    }
    let mut ctx = Ctx::feasible(inst)?;
    let spans = ctx.optimum();
    // Debug builds re-derive the witness once from the same memo: its
    // span count and its spread's gap count must match the values the
    // two value-only entry points return.
    #[cfg(debug_assertions)]
    {
        let p = inst.processors();
        let witness = ctx.witness(inst);
        debug_assert_eq!(
            witness.span_count(p),
            spans,
            "witness spans disagree with the value-only optimum"
        );
        debug_assert_eq!(
            witness.spread_for_min_gaps(p).gap_count(p),
            spans.saturating_sub(p as u64),
            "witness gaps disagree with the value-only optimum"
        );
    }
    Some(spans)
}

/// Core solver: `(G(p), prefix witness)`.
fn solve(inst: &Instance) -> Option<(u64, Schedule)> {
    if inst.job_count() == 0 {
        return Some((0, Schedule::new(vec![])));
    }
    let mut ctx = Ctx::feasible(inst)?;
    let spans = ctx.optimum();
    let schedule = ctx.witness(inst);
    debug_assert_eq!(schedule.span_count(inst.processors()), spans);
    Some((spans, schedule))
}

/// A DP state (times are indices into the padded timeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct State {
    t1: u16,
    t2: u16,
    k: u16,
    q: u16,
    o1: u16,
    o2: u16,
}

fn key(s: State) -> u64 {
    (s.t1 as u64)
        | (s.t2 as u64) << 12
        | (s.k as u64) << 24
        | (s.q as u64) << 36
        | (s.o1 as u64) << 45
        | (s.o2 as u64) << 54
}

/// Solver context: jobs sorted by deadline, times shifted so the padded
/// timeline is `0..=t_max` with sentinels at both ends, plus the memo and
/// interval tables that make the recursion cheap.
struct Ctx {
    /// Original time of padded index 0.
    t0: i64,
    /// Last padded index (right sentinel).
    t_max: u16,
    /// Occupancy cap: `min(p, n)`.
    cap: u16,
    /// Job ids in deadline order.
    order: Vec<u32>,
    /// `(release, deadline)` in padded indices, deadline order.
    jobs: Vec<(u16, u16)>,
    /// Memoized interval windows + pooled split-counting buffers.
    intervals: IntervalIndex,
    /// Packed-state memo.
    memo: FastMap<u64, u32>,
}

impl Ctx {
    fn new(inst: &Instance) -> Ctx {
        // analyzer: allow(panic-free): the public entry points return early for zero-job instances before building a Ctx
        let horizon = inst.horizon().expect("non-empty instance");
        let t0 = horizon.start - 1;
        let len = horizon.end - horizon.start + 3; // two sentinels
        assert!(
            len <= MAX_TIMELINE,
            "horizon too long ({len}); compress the instance first"
        );
        assert!(
            inst.job_count() <= MAX_JOBS,
            "too many jobs for the DP key packing"
        );
        let order: Vec<u32> = inst.deadline_order().iter().map(|&i| i as u32).collect();
        let jobs: Vec<(u16, u16)> = order
            .iter()
            .map(|&i| {
                let j = &inst.jobs()[i as usize];
                ((j.release - t0) as u16, (j.deadline - t0) as u16)
            })
            .collect();
        let len = len as usize;
        Ctx {
            t0,
            t_max: (len - 1) as u16,
            cap: (inst.processors() as usize).min(inst.job_count()).min(511) as u16,
            order,
            jobs,
            intervals: IntervalIndex::new(len),
            memo: FastMap::with_capacity_and_hasher(1 << 12, Default::default()),
        }
    }

    fn top_state(&self) -> State {
        State {
            t1: 0,
            t2: self.t_max,
            k: self.jobs.len() as u16,
            q: 0,
            o1: 0,
            o2: 0,
        }
    }

    /// The DP context of a non-empty instance, or `None` if it is
    /// infeasible (EDF is exact for unit jobs).
    fn feasible(inst: &Instance) -> Option<Ctx> {
        crate::edf::edf(inst).ok()?;
        Some(Ctx::new(inst))
    }

    /// The optimum `G(p)` of the top state.
    fn optimum(&mut self) -> u64 {
        let spans = self.value(self.top_state());
        assert_ne!(spans, INF, "EDF said feasible, DP must agree");
        spans as u64
    }

    /// One optimal prefix witness, walked down the memo.
    fn witness(&mut self, inst: &Instance) -> Schedule {
        let mut placements: Vec<(i64, u32)> = vec![(i64::MIN, 0); self.jobs.len()];
        self.walk(self.top_state(), &mut placements);
        let assignments = placements
            .iter()
            .map(|&(t, q)| {
                debug_assert!(t != i64::MIN, "every job must be placed");
                Assignment {
                    time: self.t0 + t,
                    processor: q,
                }
            })
            .collect();
        let schedule = Schedule::new(assignments);
        debug_assert_eq!(schedule.verify(inst), Ok(()));
        debug_assert!(schedule.is_prefix_structured());
        schedule
    }

    /// The memoized window of `[t1, t2]`.
    fn window(&mut self, t1: u16, t2: u16) -> Window {
        self.intervals.window(&self.jobs, t1, t2)
    }

    /// Memoized DP evaluation.
    fn value(&mut self, s: State) -> u32 {
        if let Some(&v) = self.memo.get(&key(s)) {
            return v;
        }
        let v = self.compute(s);
        self.memo.insert(key(s), v);
        v
    }

    fn compute(&mut self, s: State) -> u32 {
        let State {
            t1,
            t2,
            k,
            q,
            o1,
            o2,
        } = s;
        let m = self.cap;
        // Structural validity.
        if o1 > k || o2 > k || q + o2 > m || o1 > m {
            return INF;
        }
        let window = self.window(t1, t2);
        if k as u32 > window.len {
            return INF;
        }

        // Base: single-point window. All k jobs sit at t1 = t2 on top of
        // the q ancestors; no boundary lies inside, so the cost is 0.
        if t1 == t2 {
            return if o1 == o2 && o1 == k && q + k <= m {
                0
            } else {
                INF
            };
        }

        // Base: nothing to schedule. The q ancestors at t2 rise from an
        // empty column t2−1, costing q starts.
        if k == 0 {
            return if o1 == 0 && o2 == 0 { q as u32 } else { INF };
        }

        // Dominance pruning: with t1 < t2 the o1 edge jobs and o2 edge
        // jobs are disjoint, and the remaining window jobs must fit the
        // interior columns at ≤ cap each. States violating either bound
        // have no feasible completion and are cut without expansion.
        if o1 + o2 > k {
            return INF;
        }
        let interior_capacity = (t2 - t1 - 1) as u32 * m as u32;
        if (k - o1 - o2) as u32 > interior_capacity {
            return INF;
        }

        let jk = self.intervals.job(window, (k - 1) as usize);
        let (rk, dk) = self.jobs[jk as usize];
        let mut best = INF;

        // Case A: jk at t2, joining the ancestors.
        if o2 >= 1 && dk >= t2 {
            let child = self.value(State {
                t1,
                t2,
                k: k - 1,
                q: q + 1,
                o1,
                o2: o2 - 1,
            });
            best = best.min(child);
        }

        // Split cases: jk at t′ ∈ [max(t1, rk), min(dk, t2−1)]. The split
        // count i(t′) = #{window releases > t′ among the first k jobs}
        // comes from a counting pass over a pooled buffer plus a running
        // prefix — no sort, no allocation.
        let lo = t1.max(rk);
        let hi = dk.min(t2 - 1);
        if lo > hi {
            return best;
        }
        let mut split = self.intervals.split_counter(window, k, t1, t2, lo);
        for tp in lo..=hi {
            let i = (k as u32 - split.advance(tp)) as u16;
            debug_assert!(i < k, "jk has release ≤ t′, so i ≤ k − 1");
            let k1 = k - 1 - i;

            if tp == t1 {
                // jk at the left edge: every window job released at t1 must
                // be there too, so o1 = k1 + 1 (jk included).
                if o1 != k1 + 1 {
                    continue;
                }
                let sub1 = self.value(State {
                    t1,
                    t2: t1,
                    k: k1,
                    q: 1,
                    o1: o1 - 1,
                    o2: o1 - 1,
                });
                if sub1 == INF {
                    continue;
                }
                best = best.min(self.best_right(s, tp, o1 - 1, i, sub1));
            } else {
                // jk at the bottom of column t′; ℓ′ sub1 jobs above it.
                for lp in 0..=k1.min(m - 1) {
                    let sub1 = self.value(State {
                        t1,
                        t2: tp,
                        k: k1,
                        q: 1,
                        o1,
                        o2: lp,
                    });
                    if sub1 == INF {
                        continue;
                    }
                    best = best.min(self.best_right(s, tp, lp, i, sub1));
                }
            }
        }
        self.intervals.recycle(split);
        best
    }

    /// Best completion with the right child, given `sub1` (left child value
    /// with `lp` own jobs above jk in column `t′ = tp`); the parent pays the
    /// boundary `(occ(t′+1) − (1 + lp))⁺`.
    fn best_right(&mut self, s: State, tp: u16, lp: u16, i: u16, sub1: u32) -> u32 {
        let State { t2, q, o2, .. } = s;
        let col_tp = 1 + lp as u32; // occupancy at t′
        if tp + 1 == t2 {
            // Right child is the single-point state at t2.
            let sub2 = self.value(State {
                t1: t2,
                t2,
                k: i,
                q,
                o1: o2,
                o2,
            });
            let boundary = (q as u32 + o2 as u32).saturating_sub(col_tp);
            add(add(sub1, sub2), boundary)
        } else {
            let mut best = INF;
            for l2 in 0..=i.min(self.cap) {
                let sub2 = self.value(State {
                    t1: tp + 1,
                    t2,
                    k: i,
                    q,
                    o1: l2,
                    o2,
                });
                if sub2 == INF {
                    continue;
                }
                let boundary = (l2 as u32).saturating_sub(col_tp);
                best = best.min(add(add(sub1, sub2), boundary));
            }
            best
        }
    }

    /// Reconstruct one optimal witness by re-deriving a transition whose
    /// value matches the memoized optimum, then descending. Jobs are placed
    /// on prefix processors. Transition order mirrors [`Ctx::compute`], so
    /// the witness is identical to the reference formulation's.
    fn walk(&mut self, s: State, placements: &mut Vec<(i64, u32)>) {
        let target = self.value(s);
        assert_ne!(target, INF, "walking an infeasible state");
        let State {
            t1,
            t2,
            k,
            q,
            o1,
            o2,
        } = s;
        let window = self.window(t1, t2);

        // Single-point base: place all k jobs at t1 on processors q..q+k.
        if t1 == t2 {
            for rank in 0..k as usize {
                let j = self.intervals.job(window, rank);
                let job = self.order[j as usize] as usize;
                placements[job] = (t1 as i64, q as u32 + rank as u32);
            }
            return;
        }
        if k == 0 {
            return;
        }

        let jk = self.intervals.job(window, (k - 1) as usize);
        let job_k = self.order[jk as usize] as usize;
        let (rk, dk) = self.jobs[jk as usize];

        // Case A.
        if o2 >= 1 && dk >= t2 {
            let child_state = State {
                t1,
                t2,
                k: k - 1,
                q: q + 1,
                o1,
                o2: o2 - 1,
            };
            if self.value(child_state) == target {
                placements[job_k] = (t2 as i64, q as u32);
                self.walk(child_state, placements);
                return;
            }
        }

        let lo = t1.max(rk);
        let hi = dk.min(t2 - 1);
        let mut split = self.intervals.split_counter(window, k, t1, t2, lo);
        for tp in lo..=hi {
            let i = (k as u32 - split.advance(tp)) as u16;
            let k1 = k - 1 - i;
            let lp_range = if tp == t1 {
                if o1 != k1 + 1 {
                    continue;
                }
                o1 - 1..=o1 - 1
            } else {
                0..=k1.min(self.cap - 1)
            };
            for lp in lp_range {
                let st1 = if tp == t1 {
                    State {
                        t1,
                        t2: t1,
                        k: k1,
                        q: 1,
                        o1: o1 - 1,
                        o2: lp,
                    }
                } else {
                    State {
                        t1,
                        t2: tp,
                        k: k1,
                        q: 1,
                        o1,
                        o2: lp,
                    }
                };
                let col_tp = 1 + lp as u32;
                let sub1 = self.value(st1);
                if sub1 == INF {
                    continue;
                }
                let l2_range = if tp + 1 == t2 {
                    o2..=o2
                } else {
                    0..=i.min(self.cap)
                };
                for l2 in l2_range {
                    let st2 = if tp + 1 == t2 {
                        State {
                            t1: t2,
                            t2,
                            k: i,
                            q,
                            o1: o2,
                            o2,
                        }
                    } else {
                        State {
                            t1: tp + 1,
                            t2,
                            k: i,
                            q,
                            o1: l2,
                            o2,
                        }
                    };
                    let sub2 = self.value(st2);
                    let occ_next = if tp + 1 == t2 {
                        q as u32 + o2 as u32
                    } else {
                        st2.o1 as u32
                    };
                    let boundary = occ_next.saturating_sub(col_tp);
                    if add(add(sub1, sub2), boundary) == target {
                        placements[job_k] = (tp as i64, 0);
                        self.intervals.recycle(split);
                        self.walk(st1, placements);
                        self.walk(st2, placements);
                        return;
                    }
                }
            }
        }
        unreachable!("no transition reproduces the memoized optimum");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::{min_gaps_multiproc, min_spans_multiproc};

    fn check(windows: &[(i64, i64)], p: u32) {
        let inst = Instance::from_windows(windows.iter().copied(), p).unwrap();
        // Span objective.
        let dp = min_span_schedule(&inst);
        let bf = min_spans_multiproc(&inst);
        match (&dp, &bf) {
            (None, None) => {}
            (Some(dp), Some((bf_spans, _))) => {
                assert_eq!(dp.spans, *bf_spans, "spans: DP vs BF on {windows:?} p={p}");
                dp.schedule.verify(&inst).unwrap();
                assert_eq!(dp.schedule.span_count(p), dp.spans);
            }
            _ => panic!("span feasibility disagreement on {windows:?} p={p}"),
        }
        // Finite-gap objective.
        let dp = min_gap_schedule(&inst);
        let bf = min_gaps_multiproc(&inst);
        match (dp, bf) {
            (None, None) => {}
            (Some(dp), Some((bf_gaps, _))) => {
                assert_eq!(dp.gaps, bf_gaps, "gaps: DP vs BF on {windows:?} p={p}");
                dp.schedule.verify(&inst).unwrap();
                assert_eq!(dp.schedule.gap_count(p), dp.gaps);
            }
            _ => panic!("gap feasibility disagreement on {windows:?} p={p}"),
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 2).unwrap();
        assert_eq!(min_gap_schedule(&inst).unwrap().gaps, 0);
        assert_eq!(min_span_schedule(&inst).unwrap().spans, 0);
    }

    #[test]
    fn single_job() {
        check(&[(5, 9)], 1);
        let inst = Instance::from_windows([(5, 9)], 3).unwrap();
        assert_eq!(min_gap_value(&inst), Some(0));
        assert_eq!(min_span_value(&inst), Some(1));
    }

    #[test]
    fn two_pinned_far_jobs() {
        // p = 1: spans 2, gaps 1. p = 2: spans 2, gaps 0 (park each run).
        check(&[(0, 0), (5, 5)], 1);
        check(&[(0, 0), (5, 5)], 2);
        let inst1 = Instance::from_windows([(0, 0), (5, 5)], 1).unwrap();
        assert_eq!(min_gap_value(&inst1), Some(1));
        let inst2 = inst1.with_processors(2).unwrap();
        assert_eq!(min_gap_value(&inst2), Some(0));
        assert_eq!(min_span_value(&inst2), Some(2));
    }

    #[test]
    fn lemma_1_counterexample_is_solved_correctly() {
        // DESIGN.md counterexample: {0},{1},{2},{5} on p = 2.
        let inst = Instance::from_windows([(0, 0), (1, 1), (2, 2), (5, 5)], 2).unwrap();
        let sol = min_gap_schedule(&inst).unwrap();
        assert_eq!(sol.spans, 2);
        assert_eq!(sol.gaps, 0, "run {{5}} parks on its own processor");
        check(&[(0, 0), (1, 1), (2, 2), (5, 5)], 2);
    }

    #[test]
    fn stacked_pinned_jobs() {
        check(&[(0, 0), (0, 0)], 2);
        let inst = Instance::from_windows([(0, 0), (0, 0)], 2).unwrap();
        assert_eq!(min_span_value(&inst), Some(2));
        assert_eq!(min_gap_value(&inst), Some(0));
    }

    #[test]
    fn profile_choice_matters() {
        // Three jobs pinned at 0, one at 2, flexible filler (0..2), p = 3.
        check(&[(0, 0), (0, 0), (0, 0), (2, 2), (0, 2)], 3);
    }

    #[test]
    fn infeasible_detected() {
        let inst = Instance::from_windows([(0, 0), (0, 0), (0, 0)], 2).unwrap();
        assert!(min_gap_schedule(&inst).is_none());
        assert!(min_span_schedule(&inst).is_none());
    }

    #[test]
    fn fixed_cases_vs_brute_force() {
        check(&[(0, 3), (1, 2), (2, 5), (4, 4), (0, 5)], 2);
        check(&[(0, 1), (0, 1), (3, 4), (3, 4)], 2);
        check(&[(0, 2), (0, 2), (0, 2), (4, 6), (4, 6), (4, 6)], 3);
        check(&[(0, 7), (2, 3), (5, 5), (1, 6), (0, 0)], 1);
        check(&[(0, 0), (2, 2), (4, 4), (0, 4)], 2);
        check(&[(1, 1), (1, 3), (3, 3), (5, 6), (6, 6)], 2);
        check(&[(0, 0), (0, 0), (9, 9)], 2);
        check(&[(0, 3), (0, 3), (0, 3), (0, 3)], 4);
    }

    #[test]
    fn flexible_jobs_stack_into_one_span() {
        let inst = Instance::from_windows([(0, 3), (0, 3), (0, 3), (0, 3)], 4).unwrap();
        let sol = min_span_schedule(&inst).unwrap();
        assert_eq!(sol.spans, 1, "one contiguous run on a single processor");
        assert_eq!(min_gap_value(&inst), Some(0));
    }
}
