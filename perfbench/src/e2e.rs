//! What one untraced end-to-end run measured, before it becomes
//! metrics.

use crate::check::Tally;
use std::collections::BTreeMap;

/// Daemon or batch start-ups timed per run; the reported set-up time
/// is their median. They are spread over the run (some before the timed
/// phase, some after or between samples), so one slow phase of a shared
/// machine cannot decide the median.
pub const SETUP_REPS: usize = 31;

/// Raw results of one end-to-end run. Each end-to-end metric is the
/// median of its list: one value per window or sample where the workload
/// measures in windows or samples, else the single value of the run.
#[derive(Clone, Debug, Default)]
pub struct E2e {
    /// Every set-up time measured, in seconds.
    pub setup_s: Vec<f64>,
    /// How every request ended.
    pub tally: Tally,
    /// Correct answers per second.
    pub throughput: Vec<f64>,
    /// Median client-side latency, ms.
    pub latency_p50_ms: Vec<f64>,
    /// 99th-percentile client-side latency, ms. Reported, not gated:
    /// on the shared machine the open loop's tail did not repeat within
    /// the largest bound the benchmark may set.
    pub latency_p99_ms: Vec<f64>,
    /// Latency samples behind the percentiles.
    pub latency_count: usize,
    /// CPU time of the process under test per answer, µs.
    pub cpu_us_per_op: Vec<f64>,
    /// Peak resident set of the process under test, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer figures that only the end-to-end run can see
    /// (`serve.*`, `harness.gen_lag_p99_ms`).
    pub layer: BTreeMap<&'static str, f64>,
}
