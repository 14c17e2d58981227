//! The `batch_mix` workload: `gaps batch --threads 2` over one file of
//! 6,000 pairwise-distinct instances, once per objective of Theorems 1
//! and 2. Every answer misses the cache, and the file holds more keys
//! than the cache does, so inserts evict.

use crate::check::{check_batch_output, Tally};
use crate::clock::{now, secs_since};
use crate::e2e::{E2e, SETUP_REPS};
use crate::inputs::{self, BATCH_OBJECTIVES, THREADS};
use crate::procfs;
use crate::stats::{median, percentile};
use gaps_engine::{BatchInstance, Objective};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The batch file's text and parsed instances, with the lines each
/// objective's pass must print.
pub struct BatchPlan {
    /// Concatenated `serialize` text, as written to the file.
    pub text: String,
    /// The instances `split_stream` reads back from `text`.
    pub instances: Vec<BatchInstance>,
    /// Expected stdout lines, per objective of [`BATCH_OBJECTIVES`].
    pub expected: Vec<Vec<String>>,
}

impl BatchPlan {
    /// Generate the batch for `seed` and compute its answers.
    pub fn new(seed: u64) -> Result<BatchPlan, String> {
        let text: String = inputs::batch_set(seed)
            .iter()
            .map(inputs::to_text)
            .collect();
        let instances = gaps_engine::split_stream(&text)?;
        let expected = BATCH_OBJECTIVES
            .iter()
            .map(|&o| inputs::expected_batch_lines(&instances, o))
            .collect();
        Ok(BatchPlan {
            text,
            instances,
            expected,
        })
    }
}

/// The `gaps batch` flags selecting `objective`.
fn objective_args(objective: Objective) -> Vec<String> {
    let mut args = vec!["--objective".to_string(), objective.label().to_string()];
    if let Objective::Power { alpha } = objective {
        args.extend(["--alpha".to_string(), alpha.to_string()]);
    }
    args
}

/// Run `gaps batch` once; returns its stdout and wall time in seconds.
fn run_batch(gaps: &Path, input: &Path, objective: Objective) -> Result<(String, f64), String> {
    let started = now();
    let out = Command::new(gaps)
        .arg("batch")
        .arg("--input")
        .arg(input)
        .args(["--threads", &THREADS.to_string()])
        .args(objective_args(objective))
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run gaps batch: {e}"))?;
    let wall = secs_since(started);
    if !out.status.success() {
        return Err(format!(
            "gaps batch exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|_| "non-UTF-8 batch output")?;
    Ok((stdout, wall))
}

/// Write `text` to `work_dir/name`.
fn write_input(work_dir: &Path, name: &str, text: &str) -> Result<PathBuf, String> {
    let path = work_dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Time `gaps batch` on an empty input: the batch set-up time.
fn setup_time(gaps: &Path, empty: &Path) -> Result<f64, String> {
    let (stdout, wall) = run_batch(gaps, empty, Objective::Gaps)?;
    if !stdout.is_empty() {
        return Err(format!("gaps batch printed {stdout:?} for an empty input"));
    }
    Ok(wall)
}

/// Set-up times taken before each sample; the rest follow the last one.
const SETUPS_PER_SAMPLE: usize = 4;

/// `batch_mix`: samples of one pass per objective, for `seconds`, with
/// set-up times taken between them.
pub fn run(gaps: &Path, work_dir: &Path, plan: &BatchPlan, seconds: f64) -> Result<E2e, String> {
    let empty = write_input(work_dir, "batch-empty.txt", "")?;
    let input = write_input(work_dir, "batch-input.txt", &plan.text)?;
    let mut out = E2e::default();
    let answers_per_sample = (plan.instances.len() * BATCH_OBJECTIVES.len()) as f64;
    let started = now();
    let mut pass_ms: Vec<f64> = Vec::new();
    let mut sample_walls: Vec<f64> = Vec::new();
    // Start another sample only while it is expected to end in time;
    // always take at least one.
    while sample_walls.is_empty()
        || secs_since(started) + median(&sample_walls).unwrap_or(0.0) <= seconds
    {
        for _ in 0..SETUPS_PER_SAMPLE.min(SETUP_REPS - out.setup_s.len()) {
            out.setup_s.push(setup_time(gaps, &empty)?);
        }
        let usage_before = procfs::children()?;
        let mut sample = 0.0;
        let mut tally = Tally::default();
        for (objective, expected) in BATCH_OBJECTIVES.iter().zip(&plan.expected) {
            let (stdout, wall) = run_batch(gaps, &input, *objective)?;
            tally.merge(&check_batch_output(expected, &stdout));
            pass_ms.push(wall * 1e3);
            sample += wall;
        }
        let cpu_us = procfs::children()?.cpu_us - usage_before.cpu_us;
        out.tally.merge(&tally);
        sample_walls.push(sample);
        out.throughput.push(tally.correct as f64 / sample);
        out.cpu_us_per_op.push(cpu_us / answers_per_sample);
    }
    while out.setup_s.len() < SETUP_REPS {
        out.setup_s.push(setup_time(gaps, &empty)?);
    }
    // Every answer of a pass reaches the client when the pass ends, so
    // each has its pass's wall time as its latency; the percentiles are
    // over answers, every pass weighing as many answers as it holds.
    let per_pass = plan.instances.len();
    let answers: Vec<f64> = pass_ms
        .iter()
        .flat_map(|&ms| std::iter::repeat_n(ms, per_pass))
        .collect();
    out.latency_p50_ms = vec![percentile(&answers, 50.0).unwrap_or(0.0)];
    out.latency_p99_ms = vec![percentile(&answers, 99.0).unwrap_or(0.0)];
    out.latency_count = answers.len();
    out.peak_rss_mb = procfs::children()?.max_rss_mb;
    Ok(out)
}
