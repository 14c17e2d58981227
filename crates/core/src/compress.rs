//! Dead-zone compression: shrink stretches of time no job can use.
//!
//! The hardness gadgets of Theorems 4–8 place intervals more than n³ apart,
//! far beyond what a dense-timeline DP can sweep. Compression exploits that
//! slots usable by *no* job ("dead zones") only matter through their
//! *presence* (they split spans) and, for the power objective, their
//! *length capped at α + 1*:
//!
//! * **gap objective** — a gap costs 1 regardless of length, and no span
//!   can cross a dead slot, so any dead zone can shrink to width 1;
//! * **power objective** (transition cost α) — an idle period of length `g`
//!   costs `min(g, α)`, so any dead zone of length `> α + 1` can shrink to
//!   width `α + 1` (then `min(g, α)` is unchanged for every schedule).
//!
//! Both transformations are bijections on schedules preserving the
//! objective; [`TimeMap`] maps compressed times back to originals.

use crate::instance::{Instance, Job, MultiInstance, MultiJob};
use crate::time::Time;

/// A monotone partial map from compressed times back to original times.
///
/// Built from the sorted list of *live* (non-dead) original times and their
/// compressed images; compressed dead slots map to an arbitrary original
/// slot inside their zone (schedules never use them).
#[derive(Clone, Debug)]
pub struct TimeMap {
    /// `(compressed, original)` pairs for live slots, sorted by both.
    pairs: Vec<(Time, Time)>,
}

impl TimeMap {
    /// Map a compressed live time back to its original. Panics on a time
    /// that was not a live slot (schedules only use live slots).
    pub fn to_original(&self, compressed: Time) -> Time {
        let i = self
            .pairs
            .binary_search_by_key(&compressed, |&(c, _)| c)
            // analyzer: allow(panic-free): documented API contract — the doc comment above promises a panic on non-live slots
            .unwrap_or_else(|_| panic!("{compressed} is not a live compressed slot"));
        self.pairs[i].1
    }

    /// Map an original live time to its compressed image.
    pub fn to_compressed(&self, original: Time) -> Time {
        let i = self
            .pairs
            .binary_search_by_key(&original, |&(_, o)| o)
            // analyzer: allow(panic-free): documented API contract — the doc comment above promises a panic on non-live slots
            .unwrap_or_else(|_| panic!("{original} is not a live original slot"));
        self.pairs[i].0
    }

    fn from_live_slots(live: &[Time], alpha: Option<u64>) -> TimeMap {
        let mut pairs = Vec::with_capacity(live.len());
        let mut next_compressed: Time = 0;
        let mut prev: Option<Time> = None;
        for &t in live {
            if let Some(p) = prev {
                let hole = (t - p - 1) as u64;
                next_compressed += zone_width(hole, alpha) as Time;
            }
            pairs.push((next_compressed, t));
            next_compressed += 1;
            prev = Some(t);
        }
        TimeMap { pairs }
    }
}

/// Compress a multi-interval instance for the **gap** objective: every dead
/// zone shrinks to width 1. Returns the compressed instance and the time
/// map. Gap counts of corresponding schedules are identical.
pub fn compress_multi_gap(inst: &MultiInstance) -> (MultiInstance, TimeMap) {
    compress_multi(inst, None)
}

/// Compress a multi-interval instance for the **power** objective with
/// transition cost `alpha`: every dead zone longer than `alpha + 1` shrinks
/// to width `alpha + 1`. Power costs of corresponding schedules are
/// identical.
pub fn compress_multi_power(inst: &MultiInstance, alpha: u64) -> (MultiInstance, TimeMap) {
    compress_multi(inst, Some(alpha))
}

fn compress_multi(inst: &MultiInstance, alpha: Option<u64>) -> (MultiInstance, TimeMap) {
    let live = inst.slot_union();
    let map = TimeMap::from_live_slots(&live, alpha);
    let jobs = inst
        .jobs()
        .iter()
        .map(|j| MultiJob::new(j.times().iter().map(|&t| map.to_compressed(t)).collect()))
        .collect();
    (
        // analyzer: allow(panic-free): to_compressed is a bijection on live slots, so every job keeps its slot count
        MultiInstance::new(jobs).expect("compression preserves non-emptiness"),
        map,
    )
}

/// Compress a one-interval instance for the gap objective. Dead zones are
/// stretches covered by no job window; windows never straddle them, so the
/// remap applies cleanly to window endpoints.
pub fn compress_instance_gap(inst: &Instance) -> (Instance, TimeMap) {
    compress_instance(inst, None)
}

/// Compress a one-interval instance for the power objective with
/// transition cost `alpha`.
pub fn compress_instance_power(inst: &Instance, alpha: u64) -> (Instance, TimeMap) {
    compress_instance(inst, Some(alpha))
}

/// Compressed width of a dead zone of `hole` slots: 1 under the gap
/// objective (`alpha = None`), at most `α + 1` under power.
fn zone_width(hole: u64, alpha: Option<u64>) -> u64 {
    hole.min(alpha.map_or(1, |alpha| alpha.saturating_add(1)))
}

/// Horizon length of the instance [`compress_instance_gap`]
/// (`alpha = None`) or [`compress_instance_power`] would return, in
/// `O(n log n)` from the merged windows: a caller can refuse an instance
/// too wide for a DP before compression spends `O(width)` on its slots.
/// Saturates at `u64::MAX`.
pub fn compressed_len(inst: &Instance, alpha: Option<u64>) -> u64 {
    let blocks = live_blocks(inst);
    let zones = blocks
        .windows(2)
        .map(|w| zone_width(w[1].0.abs_diff(w[0].1) - 1, alpha));
    let lens = blocks.iter().map(|&(r, d)| d.abs_diff(r).saturating_add(1));
    lens.chain(zones).fold(0, u64::saturating_add)
}

/// The union of the job windows as sorted, disjoint `(first, last)`
/// blocks.
fn live_blocks(inst: &Instance) -> Vec<(Time, Time)> {
    let mut windows: Vec<(Time, Time)> = inst
        .jobs()
        .iter()
        .map(|j| (j.release, j.deadline))
        .collect();
    windows.sort_unstable();
    // Fold each window that overlaps the block before it into that block.
    windows.dedup_by(|next, block| {
        let overlaps = next.0 <= block.1;
        if overlaps {
            block.1 = block.1.max(next.1);
        }
        overlaps
    });
    windows
}

fn compress_instance(inst: &Instance, alpha: Option<u64>) -> (Instance, TimeMap) {
    let mut live: Vec<Time> = Vec::new();
    for (r, d) in live_blocks(inst) {
        live.extend(r..=d);
    }
    let map = TimeMap::from_live_slots(&live, alpha);
    let jobs = inst
        .jobs()
        .iter()
        .map(|j| Job::new(map.to_compressed(j.release), map.to_compressed(j.deadline)))
        .collect();
    (
        // analyzer: allow(panic-free): the time map is monotone, so release <= deadline survives compression
        Instance::new(jobs, inst.processors()).expect("compression preserves windows"),
        map,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::{min_gaps_multi, min_power_multi};
    use crate::schedule::MultiSchedule;

    #[test]
    fn gap_compression_shrinks_dead_zones_to_one() {
        let inst = MultiInstance::from_times([vec![0, 1], vec![1_000_000]]).unwrap();
        let (c, map) = compress_multi_gap(&inst);
        assert_eq!(c.jobs()[0].times(), &[0, 1]);
        assert_eq!(c.jobs()[1].times(), &[3]); // one dead slot at 2
        assert_eq!(map.to_original(3), 1_000_000);
        assert_eq!(map.to_compressed(1_000_000), 3);
    }

    #[test]
    fn gap_compression_preserves_optimum() {
        let inst = MultiInstance::from_times([vec![0, 500], vec![501], vec![2000, 2001]]).unwrap();
        let (c, _) = compress_multi_gap(&inst);
        let (g1, _) = min_gaps_multi(&inst).unwrap();
        let (g2, _) = min_gaps_multi(&c).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn power_compression_caps_zone_at_alpha_plus_one() {
        let alpha = 3;
        let inst = MultiInstance::from_times([vec![0], vec![100]]).unwrap();
        let (c, _) = compress_multi_power(&inst, alpha);
        // Dead zone 99 → 4, so slot 100 → 5.
        assert_eq!(c.jobs()[1].times(), &[5]);
        let (p1, _) = min_power_multi(&inst, alpha).unwrap();
        let (p2, _) = min_power_multi(&c, alpha).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn power_compression_keeps_short_zones_exact() {
        let alpha = 5;
        let inst = MultiInstance::from_times([vec![0], vec![3]]).unwrap();
        let (c, _) = compress_multi_power(&inst, alpha);
        // Zone of 2 < α + 1: unchanged.
        assert_eq!(c.jobs()[1].times(), &[3]);
    }

    #[test]
    fn schedule_maps_back_through_time_map() {
        let inst = MultiInstance::from_times([vec![0], vec![7_000], vec![7_001]]).unwrap();
        let (c, map) = compress_multi_gap(&inst);
        let (_, sched) = min_gaps_multi(&c).unwrap();
        let back: Vec<Time> = sched.times().iter().map(|&t| map.to_original(t)).collect();
        let back_sched = MultiSchedule::new(back);
        back_sched.verify(&inst).unwrap();
        assert_eq!(back_sched.gap_count(), sched.gap_count());
    }

    #[test]
    fn instance_compression_remaps_windows() {
        let inst = Instance::from_windows([(0, 2), (1_000, 1_001)], 1).unwrap();
        let (c, map) = compress_instance_gap(&inst);
        assert_eq!(c.jobs()[0].release, 0);
        assert_eq!(c.jobs()[0].deadline, 2);
        assert_eq!(c.jobs()[1].release, 4); // dead slot at 3
        assert_eq!(c.jobs()[1].deadline, 5);
        assert_eq!(map.to_original(4), 1_000);
    }

    #[test]
    fn instance_compression_handles_overlapping_windows() {
        let inst = Instance::from_windows([(0, 5), (3, 8), (20, 21)], 2).unwrap();
        let (c, _) = compress_instance_gap(&inst);
        // Live: 0..=8 and 20..=21 → 20 maps to 10.
        assert_eq!(c.jobs()[2].release, 10);
        assert_eq!(c.jobs()[2].deadline, 11);
    }

    #[test]
    fn compressed_len_matches_the_compressed_horizon() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for _ in 0..300 {
            // Nested, overlapping, adjacent and disjoint windows.
            let windows: Vec<(Time, Time)> = (0..rng.gen_range(1..=6))
                .map(|_| {
                    let r: Time = rng.gen_range(0..40);
                    (r, r + rng.gen_range(0..8i64))
                })
                .collect();
            let inst = Instance::from_windows(windows, 1).unwrap();
            let len = |c: &Instance| c.horizon().unwrap().len();
            assert_eq!(
                compressed_len(&inst, None),
                len(&compress_instance_gap(&inst).0)
            );
            for alpha in [0, 2, 5] {
                let (c, _) = compress_instance_power(&inst, alpha);
                assert_eq!(compressed_len(&inst, Some(alpha)), len(&c));
            }
        }
        // A wide window is measured, not materialized.
        let wide =
            Instance::from_windows([(0, 999_999), (5, 7), (2_000_000, 2_000_000)], 1).unwrap();
        assert_eq!(compressed_len(&wide, None), 1_000_002);
        assert_eq!(compressed_len(&wide, Some(9)), 1_000_011);
    }

    #[test]
    fn adjacent_zones_of_zero_width_are_noops() {
        let inst = MultiInstance::from_times([vec![0, 1, 2]]).unwrap();
        let (c, _) = compress_multi_gap(&inst);
        assert_eq!(c, inst);
    }
}
