//! Instance canonicalization: the cache key is the instance *modulo*
//! everything the objective value cannot see.
//!
//! Two requests hit the same cache entry iff they are equivalent under
//!
//! 1. **dead-zone compression** (`gaps_core::compress`) — stretches of
//!    time no job can use are shrunk to width 1 (gap/span objectives) or
//!    `α + 1` (power objective), which also normalizes the time origin:
//!    the first live slot always maps to 0, so time-shifted copies of an
//!    instance collide;
//! 2. **job reordering** — every solver is invariant under permuting the
//!    job list, so jobs are sorted (`(release, deadline)` for one-interval
//!    jobs, lexicographic slot lists for multi-interval jobs);
//! 3. the **objective tag** — gap and power compression disagree, and the
//!    power value depends on `α`, so the tag (`gaps` / `spans` /
//!    `power:α`) is part of the key.
//!
//! Both transformations preserve the optimal objective value (the
//! invariants proven and tested in `gaps_core::compress`), so a cached
//! result line is valid verbatim for every instance sharing the key —
//! solving the canonical instance gives bit-identical output to solving
//! the original.

use crate::{BatchInstance, Objective};
use gaps_core::compress;
use gaps_core::instance::{Instance, MultiInstance};
use gaps_workloads::serialize;

/// A canonicalized request: the cache key and the equivalent (compressed,
/// sorted) instance the router actually solves.
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// Objective tag + canonical serialization; equal keys ⇒ equal
    /// optimal objective values.
    pub key: String,
    /// The canonical instance (same optimal value as the original).
    pub instance: BatchInstance,
}

#[cfg(test)]
thread_local! {
    /// Calls to [`canonicalize`] on this thread, so unit tests can pin
    /// how often a request pays for canonicalization.
    pub(crate) static CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Canonicalize an instance for `objective`.
pub fn canonicalize(inst: &BatchInstance, objective: Objective) -> CanonicalForm {
    #[cfg(test)]
    CALLS.with(|calls| calls.set(calls.get() + 1));
    let instance = match inst {
        BatchInstance::One(one) => BatchInstance::One(canonical_one(one, objective)),
        BatchInstance::Multi(multi) => BatchInstance::Multi(canonical_multi(multi, objective)),
    };
    let body = match &instance {
        BatchInstance::One(one) => serialize::instance_to_text(one),
        BatchInstance::Multi(multi) => serialize::multi_to_text(multi),
    };
    CanonicalForm {
        key: format!("{}\n{body}", objective.cache_tag()),
        instance,
    }
}

fn canonical_one(inst: &Instance, objective: Objective) -> Instance {
    let (compressed, _map) = match objective {
        Objective::Power { alpha } => compress::compress_instance_power(inst, alpha),
        Objective::Gaps | Objective::Spans => compress::compress_instance_gap(inst),
    };
    let mut jobs = compressed.jobs().to_vec();
    jobs.sort_unstable_by_key(|j| (j.release, j.deadline));
    Instance::new(jobs, compressed.processors()).expect("sorting preserves validity")
}

fn canonical_multi(inst: &MultiInstance, objective: Objective) -> MultiInstance {
    let (compressed, _map) = match objective {
        Objective::Power { alpha } => compress::compress_multi_power(inst, alpha),
        Objective::Gaps | Objective::Spans => compress::compress_multi_gap(inst),
    };
    let mut jobs = compressed.jobs().to_vec();
    jobs.sort_unstable_by(|a, b| a.times().cmp(b.times()));
    MultiInstance::new(jobs).expect("sorting preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaps_core::instance::{Instance, MultiInstance};

    fn one(windows: &[(i64, i64)], p: u32) -> BatchInstance {
        BatchInstance::One(Instance::from_windows(windows.iter().copied(), p).unwrap())
    }

    #[test]
    fn time_shifted_copies_share_a_key() {
        let a = one(&[(0, 2), (5, 6)], 1);
        let b = one(&[(100, 102), (105, 106)], 1);
        assert_eq!(
            canonicalize(&a, Objective::Gaps).key,
            canonicalize(&b, Objective::Gaps).key
        );
    }

    #[test]
    fn job_order_does_not_matter() {
        let a = one(&[(0, 2), (4, 6)], 2);
        let b = one(&[(4, 6), (0, 2)], 2);
        assert_eq!(
            canonicalize(&a, Objective::Spans).key,
            canonicalize(&b, Objective::Spans).key
        );
    }

    #[test]
    fn dead_zones_collapse_under_the_gap_tag() {
        let near = BatchInstance::Multi(MultiInstance::from_times([vec![0], vec![10]]).unwrap());
        let far = BatchInstance::Multi(MultiInstance::from_times([vec![0], vec![1_000]]).unwrap());
        assert_eq!(
            canonicalize(&near, Objective::Gaps).key,
            canonicalize(&far, Objective::Gaps).key
        );
        // Power compression keeps zone lengths up to α + 1, so with a
        // large α these two instances are genuinely different.
        let alpha = Objective::Power { alpha: 50 };
        assert_ne!(
            canonicalize(&near, alpha).key,
            canonicalize(&far, alpha).key
        );
    }

    #[test]
    fn objective_and_alpha_partition_the_key_space() {
        let inst = one(&[(0, 3), (2, 5)], 1);
        let keys = [
            canonicalize(&inst, Objective::Gaps).key,
            canonicalize(&inst, Objective::Spans).key,
            canonicalize(&inst, Objective::Power { alpha: 1 }).key,
            canonicalize(&inst, Objective::Power { alpha: 2 }).key,
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn processor_count_is_part_of_the_key() {
        let a = one(&[(0, 3)], 1);
        let b = one(&[(0, 3)], 2);
        assert_ne!(
            canonicalize(&a, Objective::Gaps).key,
            canonicalize(&b, Objective::Gaps).key
        );
    }

    #[test]
    fn empty_instances_canonicalize() {
        let empty = BatchInstance::One(Instance::new(vec![], 2).unwrap());
        let form = canonicalize(&empty, Objective::Power { alpha: 3 });
        assert!(form.key.contains("power:3"));
        let empty_multi = BatchInstance::Multi(MultiInstance::new(vec![]).unwrap());
        let form = canonicalize(&empty_multi, Objective::Gaps);
        assert!(form.key.starts_with("gaps"));
    }
}
