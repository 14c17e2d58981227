//! **Theorem 2**: exact multiprocessor *power* minimization in polynomial
//! time, with processors allowed to idle in the active state.
//!
//! # Model
//!
//! The total power of a schedule-plus-active-profile is
//!
//! ```text
//! power = Σ_t a(t) + α · Σ_t (a(t) − a(t−1))⁺
//! ```
//!
//! where `a(t)` is the number of active processors at time `t` (every
//! active slot costs 1, every wake-up costs α — including a processor's
//! first). Jobs need an active slot: `ℓ(t) ≤ a(t) ≤ p`. Lemma 2 makes the
//! active sets prefix-structured, so only the counts matter. Unlike the
//! gap objective, spreading runs across processors cannot help here (every
//! wake-up costs α no matter where it happens), so the prefix optimum *is*
//! the optimum — the paper's Lemma 2 is exactly right.
//!
//! # The recursion
//!
//! Identical skeleton to [`crate::multiproc_dp`], except the edge state
//! variables `a1, a2` count **active** processors (≥ the jobs there), the
//! window cost is `Σ_{t=t1+1}^{t2} [a(t) + α·(a(t) − a(t−1))⁺]`, and an
//! empty window has the closed-form optimum
//!
//! ```text
//! (q+a2) + min(a1, q+a2) · min(L, α) + (q+a2 − a1)⁺ · α,   L = t2 − t1 − 1:
//! ```
//!
//! each active level continuing across the window either *bridges* (pays
//! the `L` idle-active slots) or *sleeps and re-wakes* (pays `α`), and
//! levels with no left-edge continuation must pay the wake-up.
//!
//! The DP returns the optimal cost and a prefix witness schedule; the
//! witness's power under per-gap `min(len, α)` accounting
//! ([`crate::power::power_cost_multiproc`]) equals the DP value, which the
//! solver debug-asserts.
//!
//! # Implementation notes
//!
//! The state evaluation shares the hot-path engineering of
//! [`crate::multiproc_dp`] (via [`crate::dp_interval`]): per-interval
//! window memoization (arena-backed `Copy` window handles, flat
//! preallocated interval table on short horizons), dominance pruning of
//! states whose jobs cannot fit the edge/interior capacities, pooled
//! counting buffers for the split loop, and a [`crate::fasthash`] memo.
//! [`min_power_value`] returns the memoized optimum without building a
//! witness (debug builds re-derive one and check its power); only
//! [`min_power_schedule`] walks the memo. The recursion itself is
//! unchanged; `tests/solver_differential.rs` re-proves exactness against
//! `brute_force` on every run.

use crate::dp_interval::{IntervalIndex, Window};
use crate::fasthash::FastMap;
use crate::instance::Instance;
use crate::schedule::{Assignment, Schedule};

const INF: u64 = u64::MAX;

/// Longest padded timeline (compressed horizon + two sentinels) and most
/// jobs the DP's packed state keys take.
pub const MAX_TIMELINE: i64 = 4_000;
pub const MAX_JOBS: usize = 4_000;

fn add(a: u64, b: u64) -> u64 {
    if a == INF || b == INF {
        INF
    } else {
        a + b
    }
}

/// Result of the Theorem 2 solver.
#[derive(Clone, Debug)]
pub struct PowerSolution {
    /// Minimum total power: active slots + α per wake-up.
    pub power: u64,
    /// A prefix-structured witness schedule achieving it (with optimal
    /// per-gap sleep decisions, cost `min(gap, α)`).
    pub schedule: Schedule,
}

/// Solve multiprocessor power minimization exactly (Theorem 2).
/// Returns `None` iff the instance is infeasible.
///
/// ```
/// use gaps_core::instance::Instance;
/// use gaps_core::power_dp::min_power_schedule;
/// // Two jobs 3 slots apart: with α = 1 sleep between them
/// // (2 + 2·1 wake-ups = 4); with α = 5 bridge (2 + 5 + 2 idle = 9).
/// let inst = Instance::from_windows([(0, 0), (3, 3)], 1).unwrap();
/// assert_eq!(min_power_schedule(&inst, 1).unwrap().power, 4);
/// assert_eq!(min_power_schedule(&inst, 5).unwrap().power, 9);
/// ```
pub fn min_power_schedule(inst: &Instance, alpha: u64) -> Option<PowerSolution> {
    if inst.job_count() == 0 {
        return Some(PowerSolution {
            power: 0,
            schedule: Schedule::new(vec![]),
        });
    }
    let mut ctx = Ctx::feasible(inst, alpha)?;
    let power = ctx.optimum();
    let schedule = ctx.witness(inst);
    debug_assert_eq!(
        crate::power::power_cost_multiproc(&schedule, inst.processors(), alpha),
        power,
        "witness power must equal the DP optimum"
    );
    Some(PowerSolution { power, schedule })
}

/// Just the optimal power: the memoized optimum, without building a
/// witness.
pub fn min_power_value(inst: &Instance, alpha: u64) -> Option<u64> {
    if inst.job_count() == 0 {
        return Some(0);
    }
    let mut ctx = Ctx::feasible(inst, alpha)?;
    let power = ctx.optimum();
    // Debug builds re-derive the witness once from the same memo and
    // check its power against the value returned.
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        crate::power::power_cost_multiproc(&ctx.witness(inst), inst.processors(), alpha),
        power,
        "witness power disagrees with the value-only optimum"
    );
    Some(power)
}

/// DP state; `a1`, `a2` are **active** counts at the edges (own actives;
/// `q` ancestors additionally sit at `t2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct State {
    t1: u16,
    t2: u16,
    k: u16,
    q: u16,
    a1: u16,
    a2: u16,
}

fn key(s: State) -> u64 {
    (s.t1 as u64)
        | (s.t2 as u64) << 12
        | (s.k as u64) << 24
        | (s.q as u64) << 36
        | (s.a1 as u64) << 45
        | (s.a2 as u64) << 54
}

struct Ctx {
    t0: i64,
    t_max: u16,
    /// Active-count cap `min(p, n)` (an active level that never runs a job
    /// can be deleted, so peaks beyond `n` are never useful).
    cap: u16,
    alpha: u64,
    order: Vec<u32>,
    jobs: Vec<(u16, u16)>,
    /// Memoized interval windows + pooled split-counting buffers.
    intervals: IntervalIndex,
    memo: FastMap<u64, u64>,
}

impl Ctx {
    fn new(inst: &Instance, alpha: u64) -> Ctx {
        // analyzer: allow(panic-free): the public entry points return early for zero-job instances before building a Ctx
        let horizon = inst.horizon().expect("non-empty instance");
        let t0 = horizon.start - 1;
        let len = horizon.end - horizon.start + 3;
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
            alpha,
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
            a1: 0,
            a2: 0,
        }
    }

    /// The DP context of a non-empty instance, or `None` if it is
    /// infeasible (EDF is exact for unit jobs).
    fn feasible(inst: &Instance, alpha: u64) -> Option<Ctx> {
        crate::edf::edf(inst).ok()?;
        Some(Ctx::new(inst, alpha))
    }

    /// The optimal power of the top state.
    fn optimum(&mut self) -> u64 {
        let power = self.value(self.top_state());
        assert_ne!(power, INF, "EDF said feasible, DP must agree");
        power
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

    fn window(&mut self, t1: u16, t2: u16) -> Window {
        self.intervals.window(&self.jobs, t1, t2)
    }

    /// Closed-form optimum of an empty window `[t1, t2]`, `t1 < t2`: pay
    /// the `t2` column, bridge-or-rewake each level continuing from `a1`,
    /// and wake the levels with no continuation.
    fn empty_window_cost(&self, t1: u16, t2: u16, a1: u16, right_total: u16) -> u64 {
        let interior = (t2 - t1 - 1) as u64;
        let cont = a1.min(right_total) as u64;
        let fresh = (right_total.saturating_sub(a1)) as u64;
        right_total as u64 + cont * interior.min(self.alpha) + fresh * self.alpha
    }

    fn value(&mut self, s: State) -> u64 {
        if let Some(&v) = self.memo.get(&key(s)) {
            return v;
        }
        let v = self.compute(s);
        self.memo.insert(key(s), v);
        v
    }

    fn compute(&mut self, s: State) -> u64 {
        let State {
            t1,
            t2,
            k,
            q,
            a1,
            a2,
        } = s;
        let m = self.cap;
        if q + a2 > m || a1 > m {
            return INF;
        }
        let window = self.window(t1, t2);
        if k as u32 > window.len {
            return INF;
        }

        // Base: single-point window — all k jobs at t1 = t2 inside the own
        // active block (k ≤ a2); no interior columns.
        if t1 == t2 {
            return if a1 == a2 && k <= a2 { 0 } else { INF };
        }

        // Base: empty window.
        if k == 0 {
            return self.empty_window_cost(t1, t2, a1, q + a2);
        }

        // Dominance pruning: jobs occupy active slots — at most a1 at t1,
        // a2 (own) at t2, and cap per interior column. A state whose k
        // jobs cannot fit has no feasible completion.
        let slot_capacity = a1 as u32 + a2 as u32 + (t2 - t1 - 1) as u32 * m as u32;
        if k as u32 > slot_capacity {
            return INF;
        }

        let jk = self.intervals.job(window, (k - 1) as usize);
        let (rk, dk) = self.jobs[jk as usize];
        let mut best = INF;

        // Case A: jk at t2, taking one of the own active slots there.
        if a2 >= 1 && dk >= t2 {
            let child = self.value(State {
                t1,
                t2,
                k: k - 1,
                q: q + 1,
                a1,
                a2: a2 - 1,
            });
            best = best.min(child);
        }

        // Split cases: jk at t′ ∈ [max(t1, rk), min(dk, t2−1)], with the
        // split count i(t′) from a pooled counting pass (see multiproc_dp).
        let lo = t1.max(rk);
        let hi = dk.min(t2 - 1);
        if lo > hi {
            return best;
        }
        let mut split = self.intervals.split_counter(window, k, t1, t2, lo);
        for tp in lo..=hi {
            let i = (k as u32 - split.advance(tp)) as u16;
            debug_assert!(i < k);
            let k1 = k - 1 - i;

            if tp == t1 {
                // jk at the left edge: all window jobs released at t1 are
                // scheduled at t1, inside the a1 own actives (jk at bottom).
                if a1 < 1 {
                    continue;
                }
                let sub1 = self.value(State {
                    t1,
                    t2: t1,
                    k: k1,
                    q: 1,
                    a1: a1 - 1,
                    a2: a1 - 1,
                });
                if sub1 == INF {
                    continue;
                }
                best = best.min(self.best_right(s, tp, a1 - 1, i, sub1));
            } else {
                for lp in 0..m {
                    let sub1 = self.value(State {
                        t1,
                        t2: tp,
                        k: k1,
                        q: 1,
                        a1,
                        a2: lp,
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

    /// Best completion with the right child: the parent pays the column
    /// `t′+1` and its wake-ups, `X + α·(X − (1 + lp))⁺`.
    fn best_right(&mut self, s: State, tp: u16, lp: u16, i: u16, sub1: u64) -> u64 {
        let State { t2, q, a2, .. } = s;
        let col_tp = 1 + lp as u64; // total active at t′
        if tp + 1 == t2 {
            let sub2 = self.value(State {
                t1: t2,
                t2,
                k: i,
                q,
                a1: a2,
                a2,
            });
            let x = q as u64 + a2 as u64;
            let boundary = x + self.alpha * x.saturating_sub(col_tp);
            add(add(sub1, sub2), boundary)
        } else {
            let mut best = INF;
            for l2 in 0..=self.cap {
                let sub2 = self.value(State {
                    t1: tp + 1,
                    t2,
                    k: i,
                    q,
                    a1: l2,
                    a2,
                });
                if sub2 == INF {
                    continue;
                }
                let x = l2 as u64;
                let boundary = x + self.alpha * x.saturating_sub(col_tp);
                best = best.min(add(add(sub1, sub2), boundary));
            }
            best
        }
    }

    /// Witness reconstruction; transition order mirrors [`Ctx::compute`].
    fn walk(&mut self, s: State, placements: &mut Vec<(i64, u32)>) {
        let target = self.value(s);
        assert_ne!(target, INF, "walking an infeasible state");
        let State {
            t1,
            t2,
            k,
            q,
            a1,
            a2,
        } = s;
        let window = self.window(t1, t2);

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

        if a2 >= 1 && dk >= t2 {
            let child_state = State {
                t1,
                t2,
                k: k - 1,
                q: q + 1,
                a1,
                a2: a2 - 1,
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
                if a1 < 1 {
                    continue;
                }
                a1 - 1..=a1 - 1
            } else {
                #[allow(clippy::reversed_empty_ranges)]
                match self.cap {
                    0 => 1..=0, // empty; cap ≥ 1 whenever jobs exist
                    c => 0..=c - 1,
                }
            };
            for lp in lp_range {
                let st1 = if tp == t1 {
                    State {
                        t1,
                        t2: t1,
                        k: k1,
                        q: 1,
                        a1: a1 - 1,
                        a2: lp,
                    }
                } else {
                    State {
                        t1,
                        t2: tp,
                        k: k1,
                        q: 1,
                        a1,
                        a2: lp,
                    }
                };
                let col_tp = 1 + lp as u64;
                let sub1 = self.value(st1);
                if sub1 == INF {
                    continue;
                }
                let l2_range = if tp + 1 == t2 { a2..=a2 } else { 0..=self.cap };
                for l2 in l2_range {
                    let st2 = if tp + 1 == t2 {
                        State {
                            t1: t2,
                            t2,
                            k: i,
                            q,
                            a1: a2,
                            a2,
                        }
                    } else {
                        State {
                            t1: tp + 1,
                            t2,
                            k: i,
                            q,
                            a1: l2,
                            a2,
                        }
                    };
                    let sub2 = self.value(st2);
                    if sub2 == INF {
                        continue;
                    }
                    let x = if tp + 1 == t2 {
                        q as u64 + a2 as u64
                    } else {
                        st2.a1 as u64
                    };
                    let boundary = x + self.alpha * x.saturating_sub(col_tp);
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
    use crate::brute_force::min_power_multiproc;

    fn check(windows: &[(i64, i64)], p: u32, alpha: u64) {
        let inst = Instance::from_windows(windows.iter().copied(), p).unwrap();
        let dp = min_power_schedule(&inst, alpha);
        let bf = min_power_multiproc(&inst, alpha);
        match (dp, bf) {
            (None, None) => {}
            (Some(dp), Some((bf_power, _))) => {
                assert_eq!(
                    dp.power, bf_power,
                    "power DP vs BF on {windows:?} p={p} alpha={alpha}"
                );
                dp.schedule.verify(&inst).unwrap();
            }
            (dp, bf) => panic!(
                "feasibility disagreement on {windows:?} p={p} alpha={alpha}: dp={:?} bf={:?}",
                dp.map(|s| s.power),
                bf.map(|(c, _)| c)
            ),
        }
    }

    #[test]
    fn empty_instance_costs_nothing() {
        let inst = Instance::new(vec![], 2).unwrap();
        assert_eq!(min_power_schedule(&inst, 7).unwrap().power, 0);
    }

    #[test]
    fn single_job_costs_one_plus_alpha() {
        for alpha in 0..5 {
            let inst = Instance::from_windows([(3, 8)], 2).unwrap();
            assert_eq!(min_power_value(&inst, alpha), Some(1 + alpha));
        }
    }

    #[test]
    fn doc_example_bridging_crossover() {
        let inst = Instance::from_windows([(0, 0), (3, 3)], 1).unwrap();
        assert_eq!(min_power_value(&inst, 1), Some(4));
        assert_eq!(min_power_value(&inst, 5), Some(9));
        // At α = 2 both choices tie: 2 + 2 + 2 = 6.
        assert_eq!(min_power_value(&inst, 2), Some(6));
    }

    #[test]
    fn stacking_beats_spreading_for_power() {
        // Two flexible jobs, p = 2: running both in one slot on two
        // processors costs 2 + 2α; consecutive on one processor 2 + α.
        let inst = Instance::from_windows([(0, 1), (0, 1)], 2).unwrap();
        assert_eq!(min_power_value(&inst, 3), Some(5));
    }

    #[test]
    fn forced_stacking_pays_two_wakeups() {
        let inst = Instance::from_windows([(0, 0), (0, 0)], 2).unwrap();
        assert_eq!(min_power_value(&inst, 3), Some(2 + 6));
    }

    #[test]
    fn fixed_cases_vs_brute_force() {
        for alpha in [0, 1, 2, 4, 9] {
            check(&[(0, 3), (1, 2), (2, 5), (4, 4)], 2, alpha);
            check(&[(0, 0), (2, 2), (4, 4)], 2, alpha);
            check(&[(0, 1), (0, 1), (3, 4), (3, 4)], 2, alpha);
            check(&[(0, 7), (2, 3), (5, 5), (1, 6), (0, 0)], 1, alpha);
            check(&[(0, 2), (0, 2), (0, 2), (4, 6), (4, 6)], 3, alpha);
        }
    }

    #[test]
    fn infeasible_detected() {
        let inst = Instance::from_windows([(0, 0), (0, 0)], 1).unwrap();
        assert!(min_power_schedule(&inst, 3).is_none());
    }

    #[test]
    fn alpha_zero_power_is_just_n() {
        let inst = Instance::from_windows([(0, 0), (5, 5), (9, 9)], 1).unwrap();
        assert_eq!(min_power_value(&inst, 0), Some(3));
    }
}
