//! One benchmark run:
//!
//! ```text
//! gaps-perfbench --gaps PATH --work-dir DIR --workload NAME --seed N
//!                --seconds S --trace 0|1 --open-rate R
//!                [--git-rev REV] [--rustc VERSION]
//! ```
//!
//! Prints a metric table on stderr and, as the last line of stdout, the
//! result object. Writes the result file (and, traced, the spans) under
//! `DIR`. Exits 1 on any wrong answer and 2 when the run cannot finish.

use gaps_perfbench::batch::{self, BatchPlan};
use gaps_perfbench::check::Tally;
use gaps_perfbench::e2e::E2e;
use gaps_perfbench::replay::{self, Replay};
use gaps_perfbench::report::{self, Metric, Provenance};
use gaps_perfbench::serve::{self, OpenPlan};
use gaps_perfbench::{layers, trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Workloads this harness runs.
const WORKLOADS: [&str; 3] = ["serve_hot", "serve_mixed_open", "batch_mix"];

struct Args {
    gaps: PathBuf,
    work_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    open_rate: f64,
    git_rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let num = |k: &str| -> Result<f64, String> {
        let v = get(k)?;
        v.parse().map_err(|_| format!("bad --{k} {v:?}"))
    };
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
    };
    let seconds = num("seconds")?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        gaps: PathBuf::from(get("gaps")?),
        work_dir: PathBuf::from(get("work-dir")?),
        seed: get("seed")?.parse().map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace,
        open_rate: num("open-rate")?,
        git_rev: flags
            .get("git-rev")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
        rustc: flags
            .get("rustc")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
        workload,
    })
}

/// A traced run's two replays (untraced first, for the overhead) and,
/// for the open loop, the parallel-efficiency figure.
struct Replays {
    untraced: Replay,
    traced: Replay,
    efficiency: Option<f64>,
}

/// Run the workload; returns its end-to-end results and, traced, the
/// replays.
fn measure(a: &Args) -> Result<(E2e, Option<Replays>), String> {
    let seconds = a.seconds;
    Ok(match a.workload.as_str() {
        "serve_hot" => {
            let e2e = serve::hot(&a.gaps, a.seed, seconds)?;
            let replays = a.trace.then(|| {
                let untraced = replay::hot(a.seed, false);
                let traced = replay::hot(a.seed, true);
                Replays {
                    untraced,
                    traced,
                    efficiency: None,
                }
            });
            (e2e, replays)
        }
        "serve_mixed_open" => {
            let plan = OpenPlan::new(a.seed, seconds, a.open_rate);
            let e2e = serve::mixed_open(&a.gaps, &plan, seconds, a.open_rate)?;
            let replays = if a.trace {
                let untraced = replay::mixed_open(&plan, a.open_rate, false);
                let traced = replay::mixed_open(&plan, a.open_rate, true);
                let efficiency = replay::parallel_efficiency(&plan.heavy_set)?;
                Some(Replays {
                    untraced,
                    traced,
                    efficiency: Some(efficiency),
                })
            } else {
                None
            };
            (e2e, replays)
        }
        _ => {
            let plan = BatchPlan::new(a.seed)?;
            let e2e = batch::run(&a.gaps, &a.work_dir, &plan, seconds)?;
            let replays = a.trace.then(|| {
                let untraced = replay::batch(&plan, false);
                let traced = replay::batch(&plan, true);
                Replays {
                    untraced,
                    traced,
                    efficiency: None,
                }
            });
            (e2e, replays)
        }
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run() -> Result<i32, String> {
    let a = parse_args()?;
    let results = a.work_dir.join("results");
    std::fs::create_dir_all(&results)
        .map_err(|e| format!("cannot create {}: {e}", results.display()))?;
    let (e2e, replays) = measure(&a)?;
    let mut tally: Tally = e2e.tally;
    let metrics: Vec<Metric> = match &replays {
        None => report::end_to_end(&e2e),
        Some(r) => {
            tally.merge(&r.untraced.tally);
            tally.merge(&r.traced.tally);
            let spans = a
                .work_dir
                .join(format!("spans-{}-seed{}.tsv", a.workload, a.seed));
            trace::write_tsv(&spans, &r.traced.traces)?;
            eprintln!("spans written to {}", spans.display());
            layers::per_layer(&e2e, &r.traced, &r.untraced, r.efficiency)
        }
    };
    let correct = tally.wrong == 0;
    let provenance = Provenance {
        workload: a.workload.clone(),
        seed: a.seed,
        trace: a.trace,
        seconds: a.seconds,
        open_rate: a.open_rate,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        git_rev: a.git_rev.clone(),
        rustc: a.rustc.clone(),
    };
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    // Untraced result files also keep what the client saw of the layers.
    let mut recorded = metrics.clone();
    if replays.is_none() {
        recorded.extend(layers::seen_from_outside(&e2e));
    }
    write(
        &file,
        &report::result_file(&provenance, correct, &tally, &recorded),
    )?;
    eprint!("{}", report::table(&a.workload, &metrics));
    eprintln!(
        "sent {} correct {} wrong {} busy {} err {} timeout {}; result file {}",
        tally.sent,
        tally.correct,
        tally.wrong,
        tally.busy,
        tally.err,
        tally.timeout,
        file.display()
    );
    println!("{}", report::result_line(correct, &tally, &metrics));
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
