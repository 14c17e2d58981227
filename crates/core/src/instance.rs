//! Problem instances: one-interval jobs on `p` processors, and
//! multi-interval jobs on a single processor.
//!
//! Terminology follows the paper:
//!
//! * a **one-interval** job has an integer release time `r` and deadline `d`
//!   and may execute in any slot `t` with `r ≤ t ≤ d`;
//! * a **multi-interval** job has an explicit finite set of allowed slots
//!   `T_i` (Sections 3–6);
//! * all jobs have **unit processing time**.

use crate::time::{Time, TimeInterval};
use std::fmt;

/// Errors raised by instance construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// A job's deadline precedes its release time.
    EmptyWindow {
        job: usize,
        release: Time,
        deadline: Time,
    },
    /// A multi-interval job has no allowed times at all.
    NoAllowedTimes { job: usize },
    /// Processor count must be at least 1.
    NoProcessors,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::EmptyWindow {
                job,
                release,
                deadline,
            } => write!(
                f,
                "job {job} has empty window [release {release}, deadline {deadline}]"
            ),
            InstanceError::NoAllowedTimes { job } => {
                write!(f, "job {job} has no allowed execution times")
            }
            InstanceError::NoProcessors => write!(f, "processor count must be >= 1"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// A unit job with a release time and a deadline (one-interval model).
///
/// The job may be executed in any slot `t` with `release ≤ t ≤ deadline`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Job {
    /// First slot in which the job may run.
    pub release: Time,
    /// Last slot in which the job may run (inclusive).
    pub deadline: Time,
}

impl Job {
    /// Build a job; `deadline ≥ release` is validated by [`Instance::new`].
    pub fn new(release: Time, deadline: Time) -> Job {
        Job { release, deadline }
    }

    /// The execution window as an interval.
    pub fn window(&self) -> TimeInterval {
        TimeInterval::new(self.release, self.deadline)
    }

    /// Window length in slots (the job's slack plus one), saturating at
    /// `u64::MAX` for a window spanning all of `Time`.
    pub fn window_len(&self) -> u64 {
        self.window().len()
    }
}

/// A one-interval scheduling instance on `p ≥ 1` identical processors.
///
/// This is the input of the paper's Theorems 1 and 2 (for `p ≥ 2`) and of
/// the Baptiste single-processor DP (`p = 1`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    jobs: Vec<Job>,
    processors: u32,
}

impl Instance {
    /// Build and validate an instance.
    pub fn new(jobs: Vec<Job>, processors: u32) -> Result<Instance, InstanceError> {
        if processors == 0 {
            return Err(InstanceError::NoProcessors);
        }
        for (i, j) in jobs.iter().enumerate() {
            if j.deadline < j.release {
                return Err(InstanceError::EmptyWindow {
                    job: i,
                    release: j.release,
                    deadline: j.deadline,
                });
            }
        }
        Ok(Instance { jobs, processors })
    }

    /// Single-processor convenience constructor.
    pub fn single(jobs: Vec<Job>) -> Result<Instance, InstanceError> {
        Instance::new(jobs, 1)
    }

    /// Build from `(release, deadline)` pairs.
    pub fn from_windows(
        windows: impl IntoIterator<Item = (Time, Time)>,
        processors: u32,
    ) -> Result<Instance, InstanceError> {
        Instance::new(
            windows.into_iter().map(|(r, d)| Job::new(r, d)).collect(),
            processors,
        )
    }

    /// The jobs, in input order.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of processors `p`.
    #[inline]
    pub fn processors(&self) -> u32 {
        self.processors
    }

    /// The hull `[min release, max deadline]`, or `None` with no jobs.
    pub fn horizon(&self) -> Option<TimeInterval> {
        let start = self.jobs.iter().map(|j| j.release).min()?;
        let end = self.jobs.iter().map(|j| j.deadline).max()?;
        Some(TimeInterval::new(start, end))
    }

    /// Job indices sorted by `(deadline, release, index)` — the order every
    /// DP in this crate presorts by (the paper's `j_1, …, j_k` with
    /// earliest deadlines first).
    pub fn deadline_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by_key(|&i| (self.jobs[i].deadline, self.jobs[i].release, i));
        order
    }

    /// Reinterpret on a different processor count.
    pub fn with_processors(&self, processors: u32) -> Result<Instance, InstanceError> {
        Instance::new(self.jobs.clone(), processors)
    }

    /// Convert to the multi-interval model (single processor): each job's
    /// allowed set becomes the explicit expansion of its window.
    ///
    /// Only meaningful for `p = 1`; for `p ≥ 2` the paper instead views the
    /// processors laid out one after another on the timeline (see
    /// [`Instance::to_multi_interval_arithmetic`]).
    ///
    /// # Panics
    /// Panics if a window is longer than `max_expansion` slots
    /// (guarding against accidentally materializing huge gadget windows).
    pub fn to_multi_interval(&self, max_expansion: u64) -> MultiInstance {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                assert!(
                    j.window_len() <= max_expansion,
                    "window of length {} exceeds expansion budget {}",
                    j.window_len(),
                    max_expansion
                );
                MultiJob::new(j.window().iter().collect())
            })
            .collect();
        // analyzer: allow(panic-free): Job::new enforces release <= deadline, so every expanded window has a slot
        MultiInstance::new(jobs).expect("windows are non-empty")
    }

    /// The paper's Section 2 correspondence: lay the `p` processors one
    /// after another on a single timeline, each shifted by `period`, so a
    /// job with window `[r, d]` becomes executable in the arithmetic family
    /// of intervals `[r, d], [r + period, d + period], …,
    /// [r + (p−1)·period, d + (p−1)·period]`.
    ///
    /// `period` must exceed the horizon length so the copies do not
    /// interleave (the paper: "each processor runs for less than x units").
    ///
    /// # Panics
    /// Panics if there are no jobs or `period` is not strictly larger than
    /// the horizon length.
    pub fn to_multi_interval_arithmetic(&self, period: Time) -> MultiInstance {
        // analyzer: allow(panic-free): documented API contract — the doc comment above promises a panic on empty instances
        let horizon = self.horizon().expect("instance has jobs");
        assert!(
            period > horizon.end - horizon.start,
            "period {period} must exceed the horizon length {}",
            horizon.end - horizon.start
        );
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                let mut times = Vec::new();
                for q in 0..self.processors as i64 {
                    for t in j.window().iter() {
                        times.push(t + q * period);
                    }
                }
                MultiJob::new(times)
            })
            .collect();
        // analyzer: allow(panic-free): Job::new enforces release <= deadline, so every shifted copy has a slot
        MultiInstance::new(jobs).expect("windows are non-empty")
    }
}

/// A unit job with an explicit set of allowed execution slots
/// (multi-interval model, Sections 3–6 of the paper).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MultiJob {
    /// Allowed slots, sorted and deduplicated.
    times: Vec<Time>,
}

impl MultiJob {
    /// Build a job from allowed slots (sorted and deduplicated here).
    pub fn new(mut times: Vec<Time>) -> MultiJob {
        times.sort_unstable();
        times.dedup();
        MultiJob { times }
    }

    /// Build from a list of intervals (the paper's "list of time
    /// intervals during which it can execute").
    pub fn from_intervals(intervals: &[TimeInterval]) -> MultiJob {
        let mut times = Vec::new();
        for iv in intervals {
            times.extend(iv.iter());
        }
        MultiJob::new(times)
    }

    /// Allowed slots, sorted.
    #[inline]
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// Can the job run at `t`?
    pub fn allows(&self, t: Time) -> bool {
        self.times.binary_search(&t).is_ok()
    }

    /// The allowed set as maximal intervals (the `k` of "k-interval job").
    pub fn intervals(&self) -> Vec<TimeInterval> {
        crate::time::runs_of(&self.times)
    }
}

/// A multi-interval scheduling instance (single processor).
///
/// The input of the paper's Theorems 3–11: each job must be assigned a
/// distinct slot from its allowed set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiInstance {
    jobs: Vec<MultiJob>,
}

impl MultiInstance {
    /// Build and validate an instance (every job needs ≥ 1 allowed slot).
    pub fn new(jobs: Vec<MultiJob>) -> Result<MultiInstance, InstanceError> {
        for (i, j) in jobs.iter().enumerate() {
            if j.times.is_empty() {
                return Err(InstanceError::NoAllowedTimes { job: i });
            }
        }
        Ok(MultiInstance { jobs })
    }

    /// Build from per-job slot lists.
    pub fn from_times(
        jobs: impl IntoIterator<Item = Vec<Time>>,
    ) -> Result<MultiInstance, InstanceError> {
        MultiInstance::new(jobs.into_iter().map(MultiJob::new).collect())
    }

    /// The jobs, in input order.
    #[inline]
    pub fn jobs(&self) -> &[MultiJob] {
        &self.jobs
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Union of all allowed slots, sorted and deduplicated. These are the
    /// only slots any schedule can use.
    pub fn slot_union(&self) -> Vec<Time> {
        let mut slots: Vec<Time> = self
            .jobs
            .iter()
            .flat_map(|j| j.times.iter().copied())
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Maximum number of intervals of any job (the `k` in "k-interval gap
    /// scheduling"); 0 for an empty instance.
    pub fn max_intervals_per_job(&self) -> usize {
        self.jobs
            .iter()
            .map(|j| j.intervals().len())
            .max()
            .unwrap_or(0)
    }

    /// True iff every allowed interval of every job has unit length
    /// ("unit" in the paper's 2-unit / 3-unit problems).
    pub fn is_unit_interval(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| j.intervals().iter().all(|iv| iv.len() == 1))
    }

    /// True iff the allowed sets are pairwise disjoint
    /// ("disjoint-interval gap scheduling" of Theorem 9/10).
    pub fn is_disjoint(&self) -> bool {
        let mut slots: Vec<Time> = self
            .jobs
            .iter()
            .flat_map(|j| j.times.iter().copied())
            .collect();
        let before = slots.len();
        slots.sort_unstable();
        slots.dedup();
        slots.len() == before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_validates_windows() {
        assert!(Instance::from_windows([(0, 3), (2, 2)], 1).is_ok());
        let err = Instance::from_windows([(3, 1)], 1).unwrap_err();
        assert_eq!(
            err,
            InstanceError::EmptyWindow {
                job: 0,
                release: 3,
                deadline: 1
            }
        );
        assert_eq!(
            Instance::new(vec![], 0).unwrap_err(),
            InstanceError::NoProcessors
        );
    }

    #[test]
    fn horizon_and_deadline_order() {
        let inst = Instance::from_windows([(5, 9), (0, 3), (2, 3)], 2).unwrap();
        assert_eq!(inst.horizon(), Some(TimeInterval::new(0, 9)));
        assert_eq!(inst.deadline_order(), vec![1, 2, 0]);
        assert_eq!(Instance::new(vec![], 1).unwrap().horizon(), None);
    }

    #[test]
    fn multi_job_from_intervals() {
        let j = MultiJob::from_intervals(&[TimeInterval::new(0, 2), TimeInterval::new(5, 5)]);
        assert_eq!(j.times(), &[0, 1, 2, 5]);
        assert!(j.allows(1));
        assert!(!j.allows(3));
        assert_eq!(j.intervals().len(), 2);
    }

    #[test]
    fn multi_instance_rejects_empty_job() {
        let err = MultiInstance::from_times([vec![]]).unwrap_err();
        assert_eq!(err, InstanceError::NoAllowedTimes { job: 0 });
    }

    #[test]
    fn one_interval_expansion() {
        let inst = Instance::from_windows([(0, 2), (1, 1)], 1).unwrap();
        let multi = inst.to_multi_interval(100);
        assert_eq!(multi.jobs()[0].times(), &[0, 1, 2]);
        assert_eq!(multi.jobs()[1].times(), &[1]);
        assert_eq!(multi.max_intervals_per_job(), 1);
    }

    #[test]
    fn arithmetic_expansion_matches_section_2() {
        // 2 processors, horizon [0, 2], period 10: job windows replicate at
        // +0 and +10.
        let inst = Instance::from_windows([(0, 1), (2, 2)], 2).unwrap();
        let multi = inst.to_multi_interval_arithmetic(10);
        assert_eq!(multi.jobs()[0].times(), &[0, 1, 10, 11]);
        assert_eq!(multi.jobs()[1].times(), &[2, 12]);
        // Each job's allowed set is an arithmetic family of p intervals.
        assert_eq!(multi.jobs()[0].intervals().len(), 2);
    }

    #[test]
    #[should_panic(expected = "must exceed the horizon length")]
    fn arithmetic_expansion_rejects_small_period() {
        let inst = Instance::from_windows([(0, 5)], 2).unwrap();
        inst.to_multi_interval_arithmetic(3);
    }

    #[test]
    fn unit_and_disjoint_classification() {
        let unit = MultiInstance::from_times([vec![0, 2, 4], vec![6]]).unwrap();
        assert!(unit.is_unit_interval());
        assert!(unit.is_disjoint());
        let overlapping = MultiInstance::from_times([vec![0, 1], vec![1, 5]]).unwrap();
        assert!(!overlapping.is_unit_interval());
        assert!(!overlapping.is_disjoint());
        assert_eq!(overlapping.slot_union(), vec![0, 1, 5]);
    }
}
