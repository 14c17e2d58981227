//! Integer time, intervals, and timeline helpers.
//!
//! All problems in the paper use unit-length jobs on an integer timeline; a
//! "time" names one unit-length slot. We use `i64` so that hardness gadgets
//! with super-polynomial separations (the paper places intervals more than
//! n³ apart in Theorem 4) fit comfortably.

/// A discrete time slot (the unit interval `[t, t+1)` of the paper).
pub type Time = i64;

/// A closed integer interval `[start, end]` of time slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeInterval {
    /// First slot of the interval.
    pub start: Time,
    /// Last slot of the interval (inclusive); `end >= start`.
    pub end: Time,
}

impl TimeInterval {
    /// Build `[start, end]`.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(start: Time, end: Time) -> TimeInterval {
        assert!(end >= start, "empty interval [{start}, {end}]");
        TimeInterval { start, end }
    }

    /// Number of slots in the interval, saturating at `u64::MAX` for the
    /// whole of `Time` (whose width does not fit).
    #[inline]
    pub fn len(&self) -> u64 {
        self.end.abs_diff(self.start).saturating_add(1)
    }

    /// Intervals are never empty by construction; kept for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Does the interval contain slot `t`?
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t <= self.end
    }

    /// Do two intervals share at least one slot?
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Iterate the slots of the interval in order.
    pub fn iter(&self) -> impl Iterator<Item = Time> {
        self.start..=self.end
    }
}

/// Group a sorted, deduplicated slice of times into maximal runs of
/// consecutive values. Each run is returned as a [`TimeInterval`].
///
/// This is the primitive behind span/gap counting: the busy times of a
/// processor split into runs (spans), and the paper's *gaps* are the finite
/// holes between consecutive runs.
///
/// # Panics
/// Debug-asserts that the input is strictly increasing.
pub fn runs_of(times: &[Time]) -> Vec<TimeInterval> {
    debug_assert!(
        times.windows(2).all(|w| w[0] < w[1]),
        "input must be strictly increasing"
    );
    let mut runs = Vec::new();
    let mut iter = times.iter().copied();
    let Some(first) = iter.next() else {
        return runs;
    };
    let mut start = first;
    let mut prev = first;
    for t in iter {
        if t != prev + 1 {
            runs.push(TimeInterval::new(start, prev));
            start = t;
        }
        prev = t;
    }
    runs.push(TimeInterval::new(start, prev));
    runs
}

/// Number of maximal runs in a sorted, deduplicated slice of times.
/// Equivalent to `runs_of(times).len()` without allocating.
pub fn run_count(times: &[Time]) -> usize {
    debug_assert!(
        times.windows(2).all(|w| w[0] < w[1]),
        "input must be strictly increasing"
    );
    if times.is_empty() {
        return 0;
    }
    1 + times.windows(2).filter(|w| w[1] != w[0] + 1).count()
}

/// The finite holes between consecutive runs: for busy times with runs
/// `R1, …, Rm`, returns the `m − 1` idle intervals strictly between them.
/// These are exactly the paper's *gaps* (the two infinite idle intervals on
/// the outside are not counted).
pub fn gaps_between(times: &[Time]) -> Vec<TimeInterval> {
    let runs = runs_of(times);
    runs.windows(2)
        .map(|w| TimeInterval::new(w[0].end + 1, w[1].start - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let iv = TimeInterval::new(3, 5);
        assert_eq!(iv.len(), 3);
        assert!(iv.contains(3) && iv.contains(5) && !iv.contains(6));
        assert!(iv.overlaps(&TimeInterval::new(5, 9)));
        assert!(!iv.overlaps(&TimeInterval::new(6, 9)));
        assert_eq!(iv.iter().collect::<Vec<_>>(), vec![3, 4, 5]);
        // The whole of `Time` saturates instead of wrapping to 0.
        assert_eq!(TimeInterval::new(Time::MIN, Time::MAX).len(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn interval_rejects_reversed() {
        TimeInterval::new(5, 3);
    }

    #[test]
    fn runs_of_splits_on_holes() {
        assert_eq!(runs_of(&[]), vec![]);
        assert_eq!(runs_of(&[7]), vec![TimeInterval::new(7, 7)]);
        assert_eq!(
            runs_of(&[1, 2, 3, 7, 9, 10]),
            vec![
                TimeInterval::new(1, 3),
                TimeInterval::new(7, 7),
                TimeInterval::new(9, 10)
            ]
        );
    }

    #[test]
    fn run_count_matches_runs_of() {
        for times in [
            vec![],
            vec![0],
            vec![0, 1],
            vec![0, 2],
            vec![-5, -4, 0, 1, 2, 9],
        ] {
            assert_eq!(run_count(&times), runs_of(&times).len());
        }
    }

    #[test]
    fn gaps_between_runs() {
        assert_eq!(
            gaps_between(&[1, 2, 5, 8, 9]),
            vec![TimeInterval::new(3, 4), TimeInterval::new(6, 7),]
        );
        assert_eq!(gaps_between(&[1, 2, 3]), vec![]);
        assert_eq!(gaps_between(&[]), vec![]);
    }

    #[test]
    fn negative_times_work() {
        let runs = runs_of(&[-3, -2, 4]);
        assert_eq!(
            runs,
            vec![TimeInterval::new(-3, -2), TimeInterval::new(4, 4)]
        );
    }
}
