//! Shared hot-path machinery for the interval-structure DPs
//! ([`crate::multiproc_dp`], [`crate::power_dp`], [`crate::baptiste`]).
//!
//! All three solvers recurse over states keyed by a time interval
//! `[t1, t2]` plus edge bookkeeping, and all three repeatedly need (a)
//! the deadline-ordered jobs released inside the interval and (b) the
//! split count `i(t′) = #{releases > t′}` among a prefix of those jobs.
//! This module centralizes both so the solvers cannot drift apart:
//!
//! * [`IntervalIndex::window`] memoizes the per-interval job list — built
//!   once per distinct interval and shared by every state over it. Every
//!   window's job positions and releases sit back to back in two arena
//!   vectors, and a window is a `Copy` handle ([`Window`]) into them, so
//!   a new window costs no allocation of its own. Intervals are indexed
//!   through a flat preallocated table on short horizons (hash map
//!   fallback on long ones);
//! * [`IntervalIndex::split_counter`] hands out a pooled counting buffer
//!   ([`SplitCounter`]) that replaces the former per-state
//!   sort + `partition_point` with one O(k) counting pass and a running
//!   prefix — no sort, no allocation in the steady state.

use crate::fasthash::FastMap;

/// The deadline-ordered jobs of one interval `[t1, t2]`: a handle to
/// `len` consecutive arena entries of its [`IntervalIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Window {
    /// First arena entry.
    start: u32,
    /// Number of jobs released in the interval.
    pub len: u32,
}

/// Horizon-squared budget under which intervals are indexed through a
/// flat preallocated table (4 MiB of `u32` at the limit); longer padded
/// horizons fall back to a hash map.
const FLAT_INTERVAL_LIMIT: usize = 1 << 20;

/// Memoized interval → [`Window`] index plus the counting-buffer pool.
/// One per solver context.
pub(crate) struct IntervalIndex {
    /// Padded horizon length (`t_max + 1`).
    t_len: u32,
    /// Flat `(t1, t2) → window id + 1` table (0 = not built), used when
    /// `t_len²` fits [`FLAT_INTERVAL_LIMIT`].
    slots: Vec<u32>,
    /// Fallback interval index for long horizons.
    map: FastMap<u32, u32>,
    /// Window handles; ids index here.
    windows: Vec<Window>,
    /// Arena of every window's job positions (into the solver's
    /// deadline-ordered job array), deadline order within a window.
    positions: Vec<u16>,
    /// Release of each arena entry, same layout as `positions`.
    releases: Vec<u16>,
    /// Pool of reusable counting buffers (one per recursion depth in
    /// flight).
    scratch: Vec<Vec<u32>>,
}

impl IntervalIndex {
    /// An index for a padded timeline of `len` slots (`t_max = len − 1`).
    pub(crate) fn new(len: usize) -> IntervalIndex {
        let flat = len * len <= FLAT_INTERVAL_LIMIT;
        IntervalIndex {
            t_len: len as u32,
            slots: if flat { vec![0; len * len] } else { Vec::new() },
            map: FastMap::default(),
            windows: Vec::new(),
            positions: Vec::new(),
            releases: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The memoized window of `[t1, t2]`: the jobs (given as
    /// `(release, deadline)` pairs in deadline order) released inside.
    pub(crate) fn window(&mut self, jobs: &[(u16, u16)], t1: u16, t2: u16) -> Window {
        let iid = t1 as u32 * self.t_len + t2 as u32;
        let slot = if self.slots.is_empty() {
            self.map.get(&iid).copied().unwrap_or(0)
        } else {
            self.slots[iid as usize]
        };
        if slot != 0 {
            return self.windows[(slot - 1) as usize];
        }
        let start = self.positions.len();
        for (i, &(r, _)) in jobs.iter().enumerate() {
            if t1 <= r && r <= t2 {
                self.positions.push(i as u16);
                self.releases.push(r);
            }
        }
        let window = Window {
            start: start as u32,
            len: (self.positions.len() - start) as u32,
        };
        self.windows.push(window);
        let id = self.windows.len() as u32;
        if self.slots.is_empty() {
            self.map.insert(iid, id);
        } else {
            self.slots[iid as usize] = id;
        }
        window
    }

    /// Position (into the solver's deadline-ordered job array) of the
    /// `idx`-th job of `window`, deadline order.
    #[inline]
    pub(crate) fn job(&self, window: Window, idx: usize) -> u16 {
        debug_assert!(idx < window.len as usize);
        self.positions[window.start as usize + idx]
    }

    /// A counter for the split loop over `t′ ∈ [lo, ..]` of a state on
    /// `[t1, t2]` that splits the first `k` jobs of `window` (the window
    /// of `[t1, t2]`). Call [`SplitCounter::advance`] with strictly
    /// increasing `t′` starting at `lo`; return the counter via
    /// [`IntervalIndex::recycle`] when done.
    pub(crate) fn split_counter(
        &mut self,
        window: Window,
        k: u16,
        t1: u16,
        t2: u16,
        lo: u16,
    ) -> SplitCounter {
        debug_assert!(k as u32 <= window.len);
        let mut cnt = self.scratch.pop().unwrap_or_default();
        cnt.clear();
        cnt.resize((t2 - t1 + 1) as usize, 0);
        let start = window.start as usize;
        for &r in &self.releases[start..start + k as usize] {
            cnt[(r - t1) as usize] += 1;
        }
        let mut released_le = 0u32;
        for t in t1..lo {
            released_le += cnt[(t - t1) as usize];
        }
        SplitCounter {
            cnt,
            t1,
            released_le,
        }
    }

    /// Return a counter's buffer to the pool.
    pub(crate) fn recycle(&mut self, counter: SplitCounter) {
        self.scratch.push(counter.cnt);
    }
}

/// Running release-prefix counter for one split loop (see
/// [`IntervalIndex::split_counter`]).
pub(crate) struct SplitCounter {
    cnt: Vec<u32>,
    t1: u16,
    released_le: u32,
}

impl SplitCounter {
    /// Advance to `t′ = tp` and return `#{releases ≤ tp}` — equal to
    /// `releases.partition_point(|&r| r <= tp)` on the sorted releases,
    /// without the sort.
    #[inline]
    pub(crate) fn advance(&mut self, tp: u16) -> u32 {
        self.released_le += self.cnt[(tp - self.t1) as usize];
        self.released_le
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_memoizes_and_filters() {
        let jobs = vec![(1u16, 3u16), (2, 2), (5, 6), (0, 9)];
        let mut index = IntervalIndex::new(12);
        let w = index.window(&jobs, 1, 5);
        let positions: Vec<u16> = (0..w.len as usize).map(|i| index.job(w, i)).collect();
        assert_eq!(positions, vec![0, 1, 2]);
        // A second window lands after the first, filtered on its own.
        let v = index.window(&jobs, 0, 2);
        let positions: Vec<u16> = (0..v.len as usize).map(|i| index.job(v, i)).collect();
        assert_eq!(positions, vec![0, 1, 3]);
        assert_eq!(index.releases, vec![1, 2, 5, 1, 2, 0]);
        assert_eq!(
            index.window(&jobs, 6, 8).len,
            0,
            "no job released in [6, 8]"
        );
        // Repeated lookups return the same handle without growing the arena.
        let arena = index.positions.len();
        assert_eq!(
            index.window(&jobs, 1, 5),
            w,
            "second lookup must be memoized"
        );
        assert_eq!(index.window(&jobs, 0, 2), v);
        assert_eq!(
            (index.positions.len(), index.releases.len()),
            (arena, arena)
        );
        assert_eq!(index.windows.len(), 3);
    }

    #[test]
    fn split_counter_equals_sorted_partition_point() {
        let releases = [4u16, 2, 7, 2, 5];
        let (t1, t2, lo) = (1u16, 9u16, 3u16);
        let mut sorted = releases.to_vec();
        sorted.sort_unstable();
        let jobs: Vec<(u16, u16)> = releases.iter().map(|&r| (r, 9)).collect();
        let mut index = IntervalIndex::new(10);
        let window = index.window(&jobs, t1, t2);
        assert_eq!(window.len, releases.len() as u32);
        let mut counter = index.split_counter(window, releases.len() as u16, t1, t2, lo);
        for tp in lo..=t2 {
            let expected = sorted.partition_point(|&r| r <= tp) as u32;
            assert_eq!(counter.advance(tp), expected, "tp = {tp}");
        }
        index.recycle(counter);
        assert_eq!(index.scratch.len(), 1, "buffer returned to the pool");
    }
}
