//! **\[Bap06\] substrate**: Baptiste's single-processor dynamic program,
//! the algorithm the paper's Theorem 1 generalizes.
//!
//! For `p = 1` the span/gap distinction is trivial (`gaps = spans − 1` for
//! any non-empty schedule), so Baptiste's "minimum number of idle periods"
//! is exactly the span objective. This module provides an **independently
//! coded** specialization of the window DP with boolean edge states —
//! single-processor occupancy at a column is 0 or 1, which collapses the
//! boundary bookkeeping (a column adjacent to the peeled job can never
//! start a new span: `(X − 1)⁺ = 0` for `X ≤ 1`). The values are
//! cross-checked against both the general multiprocessor DP at `p = 1`
//! and exhaustive search in the test suite; witness schedules delegate to
//! [`crate::multiproc_dp`] / [`crate::power_dp`].
//!
//! The state evaluation shares the hot-path engineering of
//! [`crate::multiproc_dp`] via [`crate::dp_interval`] (per-interval
//! window memoization in an arena of `Copy` window handles, pooled split
//! counting, [`crate::fasthash`] memo) — this is the solver the batch
//! engine routes every `p = 1` one-interval request to.
//!
//! # Critical-time restriction
//!
//! Candidate columns for the peeled job are restricted to the
//! **critical times** `⋃_i [r_i − n, r_i + n] ∪ [d_i − n, d_i + n]`
//! (Baptiste's state-space argument): any maximal busy block of any
//! schedule can be shifted toward whichever extreme does not increase
//! the objective until it merges with a neighbor or a job inside it hits
//! its release (left shift) or deadline (right shift) — the per-block
//! cost `min(gap_left, α) + min(gap_right, α)` is piecewise linear in
//! the block position with its minimum at an extreme, and the span count
//! is shift-invariant. In the resulting optimal schedule every block is
//! anchored, so every busy column lies within `n − 1` slots of some
//! release or deadline. On sparse instances (few jobs, long windows)
//! this shrinks the reachable state space by an order of magnitude; on
//! dense instances every column is critical and nothing changes. The
//! restriction is exactness-preserving and re-proved against
//! `brute_force` by the differential suite on every run.

use crate::dp_interval::{IntervalIndex, Window};
use crate::fasthash::FastMap;
use crate::instance::Instance;

const INF: u64 = u64::MAX;

/// Longest padded timeline (compressed horizon + two sentinels) the DP's
/// packed state keys take.
pub const MAX_TIMELINE: i64 = 16_000;

fn add(a: u64, b: u64) -> u64 {
    if a == INF || b == INF {
        INF
    } else {
        a + b
    }
}

/// Minimum number of gaps (idle periods strictly between busy periods) on
/// one processor — Baptiste's objective. `None` iff infeasible.
///
/// # Panics
/// Panics if the instance has more than one processor.
///
/// ```
/// use gaps_core::instance::Instance;
/// use gaps_core::baptiste::min_gaps_value;
/// let inst = Instance::from_windows([(0, 0), (2, 5), (5, 5)], 1).unwrap();
/// // Schedule {0, 4, 5}: one gap. Nothing can glue 0 to the rest.
/// assert_eq!(min_gaps_value(&inst), Some(1));
/// ```
pub fn min_gaps_value(inst: &Instance) -> Option<u64> {
    min_spans_value(inst).map(|s| s.saturating_sub(1))
}

/// Minimum number of spans (= wake-up transitions) on one processor.
/// `None` iff infeasible.
pub fn min_spans_value(inst: &Instance) -> Option<u64> {
    assert_eq!(
        inst.processors(),
        1,
        "baptiste handles single-processor instances"
    );
    if inst.job_count() == 0 {
        return Some(0);
    }
    crate::edf::edf(inst).ok()?;
    let mut ctx = Ctx::new(inst, 0);
    let top = ctx.top();
    let v = ctx.spans(top);
    assert_ne!(v, INF, "EDF said feasible, DP must agree");
    Some(v)
}

/// Minimum power on one processor with transition cost `alpha`
/// (gap of length `g` costs `min(g, α)`; the first wake-up costs `α`).
/// `None` iff infeasible.
pub fn min_power_value(inst: &Instance, alpha: u64) -> Option<u64> {
    assert_eq!(
        inst.processors(),
        1,
        "baptiste handles single-processor instances"
    );
    if inst.job_count() == 0 {
        return Some(0);
    }
    crate::edf::edf(inst).ok()?;
    let mut ctx = Ctx::new(inst, alpha);
    let top = ctx.top();
    let v = ctx.power(top);
    assert_ne!(v, INF, "EDF said feasible, DP must agree");
    Some(v)
}

/// Witness schedule for [`min_gaps_value`] (delegates to the general DP).
pub fn min_gaps_schedule(inst: &Instance) -> Option<(u64, crate::schedule::Schedule)> {
    assert_eq!(
        inst.processors(),
        1,
        "baptiste handles single-processor instances"
    );
    let sol = crate::multiproc_dp::min_gap_schedule(inst)?;
    debug_assert_eq!(
        sol.schedule.verify(inst),
        Ok(()),
        "emitted schedule violates job windows"
    );
    debug_assert_eq!(
        min_gaps_value(inst),
        Some(sol.gaps),
        "delegated witness disagrees with the window DP's optimum"
    );
    Some((sol.gaps, sol.schedule))
}

/// Witness schedule for [`min_power_value`] (delegates to the general DP).
pub fn min_power_schedule(inst: &Instance, alpha: u64) -> Option<(u64, crate::schedule::Schedule)> {
    assert_eq!(
        inst.processors(),
        1,
        "baptiste handles single-processor instances"
    );
    let sol = crate::power_dp::min_power_schedule(inst, alpha)?;
    debug_assert_eq!(
        sol.schedule.verify(inst),
        Ok(()),
        "emitted schedule violates job windows"
    );
    debug_assert_eq!(
        min_power_value(inst, alpha),
        Some(sol.power),
        "delegated witness disagrees with the window DP's optimum"
    );
    Some((sol.power, sol.schedule))
}

/// State of the boolean-edge window DP. Booleans are packed as 0/1:
/// for the span DP, `e1`/`e2` say whether a *job* occupies `t1`/`t2`
/// (with `anc` = 1 if an ancestor job sits at `t2`); for the power DP they
/// say whether the processor is *active* there.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct St {
    t1: u16,
    t2: u16,
    k: u16,
    anc: bool,
    e1: bool,
    e2: bool,
}

/// Pack a state for the memo. The `power` bit keeps the two objectives'
/// entries disjoint, so a `Ctx` reused for both can never serve a span
/// value to a power query (or vice versa).
fn key(s: St, power: bool) -> u64 {
    (s.t1 as u64)
        | (s.t2 as u64) << 14
        | (s.k as u64) << 28
        | (s.anc as u64) << 42
        | (s.e1 as u64) << 43
        | (s.e2 as u64) << 44
        | (power as u64) << 45
}

struct Ctx {
    t_max: u16,
    alpha: u64,
    /// `(release, deadline)` in padded indices, deadline order.
    jobs: Vec<(u16, u16)>,
    /// Columns within `n` of a release or deadline — the only candidate
    /// placement columns the DP needs to consider (see the module docs).
    critical: Vec<bool>,
    /// Memoized interval windows + pooled split-counting buffers.
    intervals: IntervalIndex,
    memo: FastMap<u64, u64>,
    /// Re-entrancy guard for the debug-build memo audit: while a hit is
    /// being re-derived, nested hits must return without re-verifying or
    /// the recomputation becomes exponential again.
    #[cfg(debug_assertions)]
    verifying: bool,
}

impl Ctx {
    fn new(inst: &Instance, alpha: u64) -> Ctx {
        Ctx::with_restriction(inst, alpha, true)
    }

    /// `restrict = false` disables the critical-time restriction; kept
    /// for the state-count instrumentation test below.
    fn with_restriction(inst: &Instance, alpha: u64, restrict: bool) -> Ctx {
        // analyzer: allow(panic-free): both public entry points return early for zero-job instances before building a Ctx
        let horizon = inst.horizon().expect("non-empty");
        let t0 = horizon.start - 1;
        let len = horizon.end - horizon.start + 3;
        assert!(
            len <= MAX_TIMELINE,
            "horizon too long; compress the instance first"
        );
        let jobs: Vec<(u16, u16)> = inst
            .deadline_order()
            .iter()
            .map(|&i| {
                let j = &inst.jobs()[i];
                ((j.release - t0) as u16, (j.deadline - t0) as u16)
            })
            .collect();
        let len = len as usize;
        let mut critical = vec![!restrict; len];
        if restrict {
            let radius = jobs.len();
            for &(r, d) in &jobs {
                for anchor in [r as usize, d as usize] {
                    let lo = anchor.saturating_sub(radius);
                    let hi = (anchor + radius).min(len - 1);
                    critical[lo..=hi].fill(true);
                }
            }
        }
        Ctx {
            t_max: (len - 1) as u16,
            alpha,
            jobs,
            critical,
            intervals: IntervalIndex::new(len),
            memo: FastMap::with_capacity_and_hasher(1 << 12, Default::default()),
            #[cfg(debug_assertions)]
            verifying: false,
        }
    }

    /// Debug-build memo audit: re-derive a hit state once (children are
    /// served from the memo) and check the cached value is still the
    /// exact recomputed one — a stale or clobbered entry would silently
    /// corrupt every optimum derived from it.
    #[cfg(debug_assertions)]
    fn audit_memo_hit(&mut self, s: St, power: bool, cached: u64) {
        if self.verifying {
            return;
        }
        self.verifying = true;
        let fresh = if power {
            self.power_compute(s)
        } else {
            self.spans_compute(s)
        };
        debug_assert_eq!(
            cached, fresh,
            "baptiste memo entry diverged from recomputation (power = {power})"
        );
        self.verifying = false;
    }

    fn top(&self) -> St {
        St {
            t1: 0,
            t2: self.t_max,
            k: self.jobs.len() as u16,
            anc: false,
            e1: false,
            e2: false,
        }
    }

    /// Memoized per-interval window (see [`crate::dp_interval`]).
    fn window(&mut self, t1: u16, t2: u16) -> Window {
        self.intervals.window(&self.jobs, t1, t2)
    }

    // ---------------- span objective ----------------

    fn spans(&mut self, s: St) -> u64 {
        if let Some(&v) = self.memo.get(&key(s, false)) {
            #[cfg(debug_assertions)]
            self.audit_memo_hit(s, false, v);
            return v;
        }
        let v = self.spans_compute(s);
        self.memo.insert(key(s, false), v);
        v
    }

    fn spans_compute(&mut self, s: St) -> u64 {
        let St {
            t1,
            t2,
            k,
            anc,
            e1,
            e2,
        } = s;
        if anc && e2 {
            return INF; // one processor: t2 cannot hold two jobs
        }
        let window = self.window(t1, t2);
        if k as u32 > window.len {
            return INF;
        }
        if t1 == t2 {
            let occ = k == 1;
            return if k <= 1 && e1 == occ && e2 == occ && !(anc && occ) {
                0
            } else {
                INF
            };
        }
        if k == 0 {
            return if !e1 && !e2 { anc as u64 } else { INF };
        }

        let jk = self.intervals.job(window, (k - 1) as usize);
        let (rk, dk) = self.jobs[jk as usize];
        let mut best = INF;

        // jk at t2 (joins as the ancestor).
        if e2 && !anc && dk >= t2 {
            best = best.min(self.spans(St {
                t1,
                t2,
                k: k - 1,
                anc: true,
                e1,
                e2: false,
            }));
        }

        let lo = t1.max(rk);
        let hi = dk.min(t2 - 1);
        if lo > hi {
            return best;
        }
        let mut split = self.intervals.split_counter(window, k, t1, t2, lo);
        for tp in lo..=hi {
            // The counter accumulates per column, so it advances even
            // over columns the critical-time restriction rules out.
            let i = (k as u32 - split.advance(tp)) as u16;
            if !self.critical[tp as usize] {
                continue;
            }
            let k1 = k - 1 - i;
            // Left part: jobs strictly left of jk's column.
            let sub1 = if tp == t1 {
                if !e1 || k1 != 0 {
                    continue; // p = 1: jk alone occupies t1
                }
                0
            } else {
                self.spans(St {
                    t1,
                    t2: tp,
                    k: k1,
                    anc: true,
                    e1,
                    e2: false,
                })
            };
            if sub1 == INF {
                continue;
            }
            // Right part. The column after jk never *starts* a span beyond
            // what the child counts: (X − 1)⁺ = 0 on one processor, because
            // jk keeps column t′ busy.
            let sub2 = if tp + 1 == t2 {
                self.spans(St {
                    t1: t2,
                    t2,
                    k: i,
                    anc,
                    e1: e2,
                    e2,
                })
            } else {
                let mut b = INF;
                for x in [false, true] {
                    let v = self.spans(St {
                        t1: tp + 1,
                        t2,
                        k: i,
                        anc,
                        e1: x,
                        e2,
                    });
                    b = b.min(v);
                }
                b
            };
            if sub2 == INF {
                continue;
            }
            best = best.min(add(sub1, sub2));
        }
        self.intervals.recycle(split);
        best
    }

    // ---------------- power objective ----------------

    fn power(&mut self, s: St) -> u64 {
        if let Some(&v) = self.memo.get(&key(s, true)) {
            #[cfg(debug_assertions)]
            self.audit_memo_hit(s, true, v);
            return v;
        }
        let v = self.power_compute(s);
        self.memo.insert(key(s, true), v);
        v
    }

    fn power_compute(&mut self, s: St) -> u64 {
        let St {
            t1,
            t2,
            k,
            anc,
            e1,
            e2,
        } = s;
        if anc && e2 {
            return INF;
        }
        let window = self.window(t1, t2);
        if k as u32 > window.len {
            return INF;
        }
        if t1 == t2 {
            // Own active bit e2 must cover the k ≤ 1 own jobs; e1 == e2.
            return if k <= 1 && e1 == e2 && (k == 0 || e2) {
                0
            } else {
                INF
            };
        }
        if k == 0 {
            // Empty window: right column is active iff anc || e2.
            let right = (anc || e2) as u64;
            let left = e1 as u64;
            let interior = (t2 - t1 - 1) as u64;
            let cont = left.min(right);
            let fresh = right - cont;
            return right + cont * interior.min(self.alpha) + fresh * self.alpha;
        }

        let jk = self.intervals.job(window, (k - 1) as usize);
        let (rk, dk) = self.jobs[jk as usize];
        let mut best = INF;

        if e2 && !anc && dk >= t2 {
            best = best.min(self.power(St {
                t1,
                t2,
                k: k - 1,
                anc: true,
                e1,
                e2: false,
            }));
        }

        let lo = t1.max(rk);
        let hi = dk.min(t2 - 1);
        if lo > hi {
            return best;
        }
        let mut split = self.intervals.split_counter(window, k, t1, t2, lo);
        for tp in lo..=hi {
            let i = (k as u32 - split.advance(tp)) as u16;
            if !self.critical[tp as usize] {
                continue;
            }
            let k1 = k - 1 - i;
            let sub1 = if tp == t1 {
                if !e1 || k1 != 0 {
                    continue;
                }
                0
            } else {
                self.power(St {
                    t1,
                    t2: tp,
                    k: k1,
                    anc: true,
                    e1,
                    e2: false,
                })
            };
            if sub1 == INF {
                continue;
            }
            // Right child; parent pays the t′+1 column (wake-up impossible:
            // t′ is active).
            if tp + 1 == t2 {
                let right_active = anc || e2;
                let sub2 = self.power(St {
                    t1: t2,
                    t2,
                    k: i,
                    anc,
                    e1: e2,
                    e2,
                });
                if sub2 != INF {
                    best = best.min(add(add(sub1, sub2), right_active as u64));
                }
            } else {
                for x in [false, true] {
                    let sub2 = self.power(St {
                        t1: tp + 1,
                        t2,
                        k: i,
                        anc,
                        e1: x,
                        e2,
                    });
                    if sub2 != INF {
                        best = best.min(add(add(sub1, sub2), x as u64));
                    }
                }
            }
        }
        self.intervals.recycle(split);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;
    use crate::instance::Instance;

    fn single(windows: &[(i64, i64)]) -> Instance {
        Instance::from_windows(windows.iter().copied(), 1).unwrap()
    }

    #[test]
    fn matches_brute_force_on_gaps() {
        for windows in [
            vec![(0, 0), (2, 5), (5, 5)],
            vec![(0, 3), (1, 2), (2, 5), (4, 4), (0, 5)],
            vec![(0, 7), (2, 3), (5, 5), (1, 6), (0, 0)],
            vec![(0, 0), (2, 2), (4, 4)],
            vec![(0, 10), (9, 10)],
            vec![(1, 1)],
        ] {
            let inst = single(&windows);
            let multi = inst.to_multi_interval(1000);
            let bf = brute_force::min_gaps_multi(&multi).map(|(g, _)| g);
            assert_eq!(min_gaps_value(&inst), bf, "windows {windows:?}");
        }
    }

    #[test]
    fn matches_general_dp_at_p1() {
        for windows in [
            vec![(0, 4), (2, 2), (6, 9), (7, 8)],
            vec![(0, 1), (1, 2), (4, 6), (5, 6), (6, 6)],
            vec![(0, 2), (0, 2), (0, 2)],
        ] {
            let inst = single(&windows);
            assert_eq!(
                min_spans_value(&inst),
                crate::multiproc_dp::min_span_value(&inst),
                "windows {windows:?}"
            );
        }
    }

    #[test]
    fn power_matches_brute_force() {
        for alpha in [0u64, 1, 2, 3, 7] {
            for windows in [
                vec![(0, 0), (3, 3)],
                vec![(0, 0), (2, 5), (5, 5)],
                vec![(0, 4), (2, 2), (6, 9)],
                vec![(0, 1), (0, 1), (4, 4)],
            ] {
                let inst = single(&windows);
                let multi = inst.to_multi_interval(1000);
                let bf = brute_force::min_power_multi(&multi, alpha).map(|(c, _)| c);
                assert_eq!(min_power_value(&inst, alpha), bf, "{windows:?} α={alpha}");
            }
        }
    }

    #[test]
    fn infeasible_returns_none() {
        let inst = single(&[(0, 0), (0, 0)]);
        assert_eq!(min_gaps_value(&inst), None);
        assert_eq!(min_power_value(&inst, 3), None);
    }

    /// Span-DP value and memoized state count with the critical-time
    /// restriction on or off.
    fn spans_states(inst: &Instance, restrict: bool) -> (u64, usize, usize) {
        let mut ctx = Ctx::with_restriction(inst, 0, restrict);
        let top = ctx.top();
        let v = ctx.spans(top);
        let critical = ctx.critical.iter().filter(|&&c| c).count();
        (v, ctx.memo.len(), critical)
    }

    /// The critical-time restriction must preserve the optimum while
    /// shrinking the state space on sparse instances — the ROADMAP (b)
    /// claim, pinned.
    #[test]
    fn critical_time_restriction_shrinks_state_counts() {
        // Four jobs with wide, widely spaced windows over an ~1200-slot
        // horizon: almost no column is within n of a release/deadline.
        let inst = single(&[(0, 280), (300, 580), (610, 880), (900, 1180)]);
        let (restricted_v, restricted_states, critical) = spans_states(&inst, true);
        let (full_v, full_states, columns) = spans_states(&inst, false);
        assert_eq!(restricted_v, full_v, "restriction changed the optimum");
        assert_eq!(restricted_v, 4, "four isolated windows: one span each");
        assert!(
            critical * 4 < columns,
            "restriction should rule out most columns: {critical}/{columns}"
        );
        assert!(
            restricted_states * 4 < full_states,
            "state count must shrink ≥ 4×: {restricted_states} vs {full_states}"
        );
        // Absolute pin so a future edit that quietly disables the
        // restriction fails loudly.
        assert!(
            restricted_states < 1000,
            "restricted state count regressed: {restricted_states}"
        );
    }

    /// Same instrumentation through the power DP: equal optima both ways.
    #[test]
    fn critical_time_restriction_preserves_power_optima() {
        let inst = single(&[(0, 60), (70, 130), (140, 200), (20, 180)]);
        for alpha in [0u64, 1, 3, 8] {
            let mut full = Ctx::with_restriction(&inst, alpha, false);
            let top = full.top();
            let unrestricted = full.power(top);
            assert_eq!(
                min_power_value(&inst, alpha),
                Some(unrestricted),
                "alpha {alpha}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "single-processor")]
    fn rejects_multiprocessor_instances() {
        let inst = Instance::from_windows([(0, 1)], 2).unwrap();
        min_gaps_value(&inst);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 1).unwrap();
        assert_eq!(min_gaps_value(&inst), Some(0));
        assert_eq!(min_power_value(&inst, 5), Some(0));
    }

    #[test]
    fn schedule_wrappers_agree_with_values() {
        let inst = single(&[(0, 0), (2, 5), (5, 5)]);
        let (gaps, sched) = min_gaps_schedule(&inst).unwrap();
        assert_eq!(Some(gaps), min_gaps_value(&inst));
        sched.verify(&inst).unwrap();
        let (power, psched) = min_power_schedule(&inst, 2).unwrap();
        assert_eq!(Some(power), min_power_value(&inst, 2));
        psched.verify(&inst).unwrap();
    }
}
