//! `gaps` — command-line front end for the gap-scheduling toolkit.
//!
//! ```text
//! gaps info     --input FILE                       inspect an instance
//! gaps solve    --input FILE [--objective gaps|spans|power] [--alpha N]
//! gaps batch    --input FILE [--threads N] [--objective O] ...  bulk solving
//! gaps batch    --input FILE --replay-online POLICY [--alpha N]  replay arrivals
//! gaps approx   --input FILE --alpha F [--rounds N]   Theorem 3 (multi)
//! gaps simulate --input FILE --alpha N [--policy P]   run on the simulator
//! gaps generate --kind K --seed S [--n N] ...         emit an instance
//! gaps serve    --listen ADDR [--threads N] [--queue N] ...  daemon
//! gaps lint     [--root DIR] [--format text|json] [--rules]
//!               [--baseline FILE] [--dot FILE|-]    static analysis
//! ```
//!
//! Instances use the text format of `gaps_workloads::serialize`
//! (`instance v1` for release/deadline jobs, `multi v1` for allowed-slot
//! jobs); `gaps` auto-detects which one it read. `--input -` reads the
//! instance from stdin, so subcommands compose as
//! `gaps generate ... | gaps solve --input -`.
//!
//! `gaps batch` accepts a *stream* of concatenated instances and drives
//! the `gaps-engine` portfolio (canonicalized result cache + per-instance
//! solver routing + worker pool). Result lines go to stdout — one per
//! instance, in input order, byte-identical for any `--threads` value —
//! and the `EngineReport` (cache hit rate, router mix, latencies) goes to
//! stderr.
//!
//! `gaps batch --replay-online POLICY` switches the input format to
//! `arrivals v1` blocks (`gaps generate --kind arrivals` emits them) and
//! replays each block as one online session through
//! `gaps_engine::OnlineTracker` — the identical code path the serve
//! daemon's `SESSION` verbs drive — printing one
//! `policy=… ratio=…` summary line per block.
//!
//! `gaps serve` runs the same engine loop as a long-lived TCP daemon
//! (see `gaps_serve::protocol` for the wire format): `REQ <id>
//! <instance>` frames are answered with `RES <id> <body>` where `<body>`
//! is byte-identical to the corresponding `gaps batch` result-line tail.
//! Control frames: `PING`, `STATS`, `DRAIN`, and the `SESSION
//! begin/arrive/step/end` online-session family. The daemon prints
//! `listening on <addr>` to stderr once ready and a final metrics report
//! when drained (by `DRAIN`, SIGTERM, or SIGINT).

use gap_scheduling::instance::{Instance, MultiInstance};
use gap_scheduling::multi_interval::approx_min_power;
use gap_scheduling::sim::{
    simulate_schedule, Clairvoyant, NeverSleep, PowerPolicy, SleepImmediately, Timeout,
};
use gap_scheduling::workloads::{adversarial, arrivals, multi_interval, one_interval, serialize};
use gap_scheduling::{edf, lower_bounds, multi_exact, multiproc_dp, power_dp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `lint` distinguishes "findings" (exit 1) from "usage error"
    // (exit 2), so it bypasses the plain Ok/Err printing below.
    if args.first().map(String::as_str) == Some("lint") {
        match cmd_lint(&args) {
            Ok((out, clean)) => {
                print!("{out}");
                if !clean {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        return;
    }
    match run(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// `gaps lint`: run the gaps-analyzer rule catalog over the workspace.
/// Returns the rendered report plus whether the workspace is clean.
fn cmd_lint(raw: &[String]) -> Result<(String, bool), String> {
    let args = parse_args(raw)?;
    if args.get("rules").is_some() {
        return Ok((gaps_analyzer::rule_catalog_text(), true));
    }
    // Resolve to the *workspace* root no matter where we were invoked
    // from or what `--root` points at (a subdirectory resolves up), so
    // diagnostic paths — and therefore fingerprints — are always
    // workspace-relative and stable.
    let start = match args.get("root") {
        Some(dir) => std::path::PathBuf::from(dir)
            .canonicalize()
            .map_err(|e| format!("cannot resolve --root {dir}: {e}"))?,
        None => std::env::current_dir().map_err(|e| format!("cannot get cwd: {e}"))?,
    };
    let root = gaps_analyzer::find_workspace_root(&start)
        .ok_or("no workspace Cargo.toml found at or above the start directory; pass --root DIR")?;
    let sources = gaps_analyzer::load_sources(&root)?;
    let manifests = gaps_analyzer::load_manifests(&root);
    let mut diags = gaps_analyzer::analyze_sources(manifests, &sources);

    // `--dot FILE` renders the lock-acquisition graph (`-` = stdout).
    let mut out = String::new();
    if let Some(target) = args.get("dot") {
        let graph = gaps_analyzer::rules::lock_order::build_graph(&sources);
        let dot = gaps_analyzer::rules::lock_order::render_dot(&graph);
        if target == "-" {
            out.push_str(&dot);
        } else {
            std::fs::write(target, &dot).map_err(|e| format!("cannot write {target}: {e}"))?;
        }
    }

    // `--baseline FILE` drops findings whose fingerprint is baselined.
    let mut suppressed = 0usize;
    if let Some(path) = args.get("baseline") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let baseline = gaps_analyzer::baseline::parse(&text);
        (diags, suppressed) = gaps_analyzer::baseline::apply(diags, &baseline);
    }

    let clean = !diags
        .iter()
        .any(|d| d.severity == gaps_analyzer::Severity::Error);
    match args.get("format").unwrap_or("text") {
        "text" => {
            out.push_str(&gaps_analyzer::render_text(&diags));
            if suppressed > 0 {
                out.push_str(&format!(
                    "gaps lint: {suppressed} baselined finding{} suppressed\n",
                    if suppressed == 1 { "" } else { "s" }
                ));
            }
        }
        "json" => out.push_str(&gaps_analyzer::render_json(&diags)),
        other => return Err(format!("unknown --format {other:?} (text|json)")),
    }
    Ok((out, clean))
}

const USAGE: &str = "\
usage:
  gaps info     --input FILE
  gaps solve    --input FILE [--objective gaps|spans|power] [--alpha N]
  gaps batch    --input FILE [--objective gaps|spans|power] [--alpha N]
                [--threads N] [--cache-capacity N]
                [--fallback approx,greedy,bound]
                [--replay-online timeout|sleep|never]
                (--threads N solves that many instances at once; each
                 instance is solved on one thread)
  gaps approx   --input FILE --alpha F [--rounds N]
  gaps simulate --input FILE --alpha N [--policy clairvoyant|timeout|sleep|never]
  gaps generate --kind uniform|feasible|bursty|multi|consultant|online|arrivals
                [--seed S] [--n N] [--horizon H] [--slack L] [--processors P]
                [--pattern uniform|bursty|heavy] [--max-gap G]
  gaps serve    [--listen ADDR] [--threads N] [--max-threads N] [--queue N]
                [--max-conns N] [--objective gaps|spans|power] [--alpha N]
                [--shed-jobs N] [--shed-depth N] [--report-interval SECS]
                [--cache-capacity N]
  gaps lint     [--root DIR] [--format text|json] [--rules list]
                [--baseline FILE] [--dot FILE|-]";

/// The flags each subcommand reads. Any other flag is a usage error, so
/// a typo (`--thread 2`) cannot silently run with the default.
const FLAGS: &[(&str, &str)] = &[
    ("info", "input"),
    ("solve", "input objective alpha"),
    (
        "batch",
        "input objective alpha threads cache-capacity fallback replay-online",
    ),
    ("approx", "input alpha rounds"),
    ("simulate", "input alpha policy"),
    (
        "generate",
        "kind seed n horizon slack processors pattern max-gap",
    ),
    (
        "serve",
        "listen threads max-threads queue max-conns objective alpha shed-jobs shed-depth \
         report-interval cache-capacity",
    ),
    ("lint", "root format rules baseline dot"),
];

/// Parsed `--flag value` arguments plus the leading subcommand.
struct Args {
    command: String,
    flags: BTreeMap<String, String>,
}

/// Split `<command> --flag value ...`, rejecting flags the command does
/// not read. An unknown command is left for the dispatcher to report.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let command = it.next().ok_or("missing subcommand")?.clone();
    let known = FLAGS.iter().find(|(cmd, _)| *cmd == command);
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        if let Some((_, allowed)) = known {
            if !allowed.split_whitespace().any(|f| f == key) {
                return Err(format!("unknown flag --{key} for gaps {command}"));
            }
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(Args { command, flags })
}

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }
    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value {v:?}")),
        }
    }
}

/// Either flavor of instance, as auto-detected from the file header.
enum AnyInstance {
    One(Instance),
    Multi(MultiInstance),
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

fn load(path: &str) -> Result<AnyInstance, String> {
    let text = read_input(path)?;
    let head = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .unwrap_or("");
    match head {
        "instance v1" => Ok(AnyInstance::One(serialize::instance_from_text(&text)?)),
        "multi v1" => Ok(AnyInstance::Multi(serialize::multi_from_text(&text)?)),
        other => Err(format!("unrecognized header {other:?} in {path}")),
    }
}

fn run(raw: &[String]) -> Result<String, String> {
    let args = parse_args(raw)?;
    match args.command.as_str() {
        "info" => cmd_info(&args),
        "solve" => cmd_solve(&args),
        "batch" => cmd_batch(&args),
        "approx" => cmd_approx(&args),
        "simulate" => cmd_simulate(&args),
        "generate" => cmd_generate(&args),
        "serve" => cmd_serve(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_info(args: &Args) -> Result<String, String> {
    let mut out = String::new();
    match load(args.require("input")?)? {
        AnyInstance::One(inst) => {
            out += "one-interval instance\n";
            out += &gap_scheduling::analysis::analyze_instance(&inst).to_string();
            out += &format!("feasible: {}\n", edf::is_feasible(&inst));
        }
        AnyInstance::Multi(inst) => {
            out += "multi-interval instance\n";
            out += &gap_scheduling::analysis::analyze_multi(&inst).to_string();
            out += &format!(
                "feasible: {}\n",
                gap_scheduling::feasibility::is_feasible(&inst)
            );
            out += &format!(
                "span lower bound: {}\n",
                lower_bounds::min_spans_lower_bound(&inst)
            );
        }
    }
    Ok(out)
}

fn cmd_solve(args: &Args) -> Result<String, String> {
    let objective = args.get("objective").unwrap_or("gaps");
    let alpha: u64 = args.parse_or("alpha", 1u64)?;
    let mut out = String::new();
    match load(args.require("input")?)? {
        AnyInstance::One(inst) => match objective {
            "gaps" => match multiproc_dp::min_gap_schedule(&inst) {
                Some(sol) => {
                    out += &format!("optimal gaps: {}\n", sol.gaps);
                    out += &format!("spans (wake-ups): {}\n", sol.spans);
                    out += &render_schedule(&sol.schedule);
                    out += &render_timeline_for(&inst, &sol.schedule);
                }
                None => out += "infeasible\n",
            },
            "spans" => match multiproc_dp::min_span_schedule(&inst) {
                Some(sol) => {
                    out += &format!("optimal spans: {}\n", sol.spans);
                    out += &render_schedule(&sol.schedule);
                    out += &render_timeline_for(&inst, &sol.schedule);
                }
                None => out += "infeasible\n",
            },
            "power" => match power_dp::min_power_schedule(&inst, alpha) {
                Some(sol) => {
                    out += &format!("optimal power (alpha = {alpha}): {}\n", sol.power);
                    out += &render_schedule(&sol.schedule);
                    out += &render_timeline_for(&inst, &sol.schedule);
                }
                None => out += "infeasible\n",
            },
            other => return Err(format!("unknown --objective {other:?}")),
        },
        AnyInstance::Multi(inst) => {
            // Exact solving is exponential in the (decomposed) job
            // count; guard with the multi-exact solver's router caps and
            // be explicit about it.
            let caps = gap_scheduling::engine::RouterConfig::default();
            if inst.slot_union().len() > caps.multi_exact_max_slots
                || inst.job_count() > caps.multi_exact_max_jobs
            {
                return Err(
                    "multi-interval exact solving is exponential; instance too large \
                     (use `gaps approx` for the Theorem 3 approximation)"
                        .into(),
                );
            }
            let result = match objective {
                "gaps" => multi_exact::min_gaps_multi(&inst),
                "spans" => multi_exact::min_spans_multi(&inst),
                "power" => multi_exact::min_power_multi(&inst, alpha),
                other => return Err(format!("unknown --objective {other:?}")),
            };
            match result {
                Some((v, sched)) => {
                    out += &format!("optimal {objective}: {v}\n");
                    out += &format!("slots used: {:?}\n", sched.occupied());
                }
                None => out += "infeasible\n",
            }
        }
    }
    Ok(out)
}

/// `gaps batch`: stream many instances through the `gaps-engine`
/// portfolio. Deterministic result lines go to stdout (the function's
/// return value); the engine report goes to stderr so stdout stays
/// byte-identical across thread counts.
fn cmd_batch(args: &Args) -> Result<String, String> {
    let text = read_input(args.require("input")?)?;
    let objective = gap_scheduling::engine::Objective::parse(
        args.get("objective").unwrap_or("gaps"),
        args.parse_or("alpha", 1u64)?,
    )?;
    // `--threads` fans the batch out across instances; each instance
    // is solved on one worker.
    let mut router = gap_scheduling::engine::RouterConfig::default();
    if let Some(list) = args.get("fallback") {
        router.fallback = list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(gap_scheduling::engine::FallbackSolver::parse)
            .collect::<Result<_, _>>()?;
    }
    let config = gap_scheduling::engine::EngineConfig {
        threads: args.parse_or("threads", 4usize)?,
        cache_capacity: args.parse_or("cache-capacity", 4096usize)?,
        cache_shards: 16,
        router,
    };
    let engine = gap_scheduling::engine::Engine::new(config);
    if let Some(policy) = args.get("replay-online") {
        return replay_online(&engine, &text, policy, args.parse_or("alpha", 1u64)?);
    }
    let (out, report) = engine.run_batch_text(&text, objective)?;
    eprintln!("{report}");
    Ok(out)
}

/// `gaps batch --replay-online POLICY`: replay `arrivals v1` blocks as
/// online sessions through the same [`gap_scheduling::engine::OnlineTracker`]
/// the serve daemon's `SESSION` verbs drive. One summary line per block
/// goes to stdout, byte-identical to the corresponding live
/// `SESSION end` reply for the same stream.
fn replay_online(
    engine: &gap_scheduling::engine::Engine,
    text: &str,
    policy: &str,
    alpha: u64,
) -> Result<String, String> {
    let streams = arrivals::arrival_streams_from_text(text)?;
    if streams.is_empty() {
        return Err("no `arrivals v1` block in the input (generate one with \
             `gaps generate --kind arrivals`)"
            .to_string());
    }
    let mut out = String::new();
    for stream in &streams {
        let mut tracker = gap_scheduling::engine::OnlineTracker::new(policy, alpha)?;
        for &t in stream {
            tracker.arrive(t)?;
        }
        let summary = tracker.finish(engine)?;
        out.push_str(&summary.line());
        out.push('\n');
    }
    eprintln!(
        "replayed {} online session(s) under policy {policy} (alpha {alpha})",
        streams.len()
    );
    Ok(out)
}

/// `gaps serve`: run the engine as a long-lived TCP daemon. Blocks
/// until drained (`DRAIN` frame, SIGTERM, or SIGINT); the ready line
/// (`listening on <addr>`) and the final metrics report go to stderr so
/// stdout stays free for redirection.
fn cmd_serve(args: &Args) -> Result<String, String> {
    let objective = gap_scheduling::engine::Objective::parse(
        args.get("objective").unwrap_or("gaps"),
        args.parse_or("alpha", 1u64)?,
    )?;
    let defaults = gap_scheduling::serve::ServeConfig::default();
    let report_interval = match args.get("report-interval") {
        None => None,
        Some(v) => {
            let secs: u64 = v
                .parse()
                .map_err(|_| format!("bad --report-interval value {v:?}"))?;
            (secs > 0).then(|| std::time::Duration::from_secs(secs))
        }
    };
    let config = gap_scheduling::serve::ServeConfig {
        listen: args
            .get("listen")
            .unwrap_or(defaults.listen.as_str())
            .to_string(),
        threads: args.parse_or("threads", defaults.threads)?,
        // `Server::bind` clamps the ceiling up to `threads`, so a bare
        // `--threads 8` gets a fixed 8-worker pool.
        max_threads: args.parse_or("max-threads", defaults.max_threads)?,
        queue_capacity: args.parse_or("queue", defaults.queue_capacity)?,
        max_conns: args.parse_or("max-conns", defaults.max_conns)?,
        objective,
        shed_jobs: args.parse_or("shed-jobs", defaults.shed_jobs)?,
        shed_depth: args.parse_or("shed-depth", defaults.shed_depth)?,
        report_interval,
        engine: gap_scheduling::engine::EngineConfig {
            cache_capacity: args.parse_or("cache-capacity", 4096usize)?,
            ..gap_scheduling::engine::EngineConfig::default()
        },
    };
    let server = gap_scheduling::serve::Server::bind(config)?;
    eprintln!("listening on {}", server.local_addr()?);
    let final_snapshot = server.run()?;
    eprintln!("serve final: {final_snapshot}");
    Ok(String::new())
}

fn cmd_approx(args: &Args) -> Result<String, String> {
    let alpha: f64 = args.parse_or("alpha", 1.0f64)?;
    let rounds: usize = args.parse_or("rounds", 64usize)?;
    let AnyInstance::Multi(inst) = load(args.require("input")?)? else {
        return Err("`gaps approx` expects a multi-interval instance".into());
    };
    let mut out = String::new();
    match approx_min_power(&inst, alpha, rounds) {
        Some(res) => {
            out += &format!("approximate power (alpha = {alpha}): {:.2}\n", res.power);
            out += &format!(
                "packed 2-blocks: {} (parity {})\n",
                res.packed_blocks, res.parity
            );
            out += &format!(
                "power lower bound: {}\n",
                lower_bounds::min_power_lower_bound(&inst, alpha.round() as u64)
            );
            out += &format!("slots used: {:?}\n", res.schedule.occupied());
        }
        None => out += "infeasible\n",
    }
    Ok(out)
}

fn cmd_simulate(args: &Args) -> Result<String, String> {
    let alpha: u64 = args.parse_or("alpha", 1u64)?;
    let policy_name = args.get("policy").unwrap_or("clairvoyant");
    let policy: Box<dyn PowerPolicy> = match policy_name {
        "clairvoyant" => Box::new(Clairvoyant { alpha }),
        "timeout" => Box::new(Timeout { threshold: alpha }),
        "sleep" => Box::new(SleepImmediately),
        "never" => Box::new(NeverSleep),
        other => return Err(format!("unknown --policy {other:?}")),
    };
    let AnyInstance::One(inst) = load(args.require("input")?)? else {
        return Err("`gaps simulate` expects a one-interval instance".into());
    };
    let sched = power_dp::min_power_schedule(&inst, alpha)
        .ok_or("instance is infeasible")?
        .schedule;
    let report = simulate_schedule(&inst, &sched, alpha, policy.as_ref());
    let mut out =
        format!("simulated power-optimal schedule under policy {policy_name} (alpha = {alpha})\n");
    out += &format!("total energy: {}\n", report.energy);
    for (q, r) in report.per_processor.iter().enumerate() {
        out += &format!(
            "  P{q}: {} jobs, {} active slots, {} wake-ups, energy {}\n",
            r.jobs_run, r.active_slots, r.wakeups, r.energy
        );
    }
    Ok(out)
}

fn cmd_generate(args: &Args) -> Result<String, String> {
    let kind = args.require("kind")?;
    let seed: u64 = args.parse_or("seed", 0u64)?;
    let n: usize = args.parse_or("n", 10usize)?;
    let horizon: i64 = args.parse_or("horizon", 20i64)?;
    let slack: i64 = args.parse_or("slack", 3i64)?;
    let p: u32 = args.parse_or("processors", 1u32)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let out = match kind {
        "uniform" => {
            serialize::instance_to_text(&one_interval::uniform(&mut rng, n, horizon, slack, p))
        }
        "feasible" => {
            serialize::instance_to_text(&one_interval::feasible(&mut rng, n, horizon, slack, p))
        }
        "bursty" => serialize::instance_to_text(&one_interval::bursty(
            &mut rng,
            (n / 4).max(1),
            4,
            horizon.max(4),
            slack.max(1),
            2,
            p,
        )),
        "multi" => {
            serialize::multi_to_text(&multi_interval::feasible_slots(&mut rng, n, horizon, 2))
        }
        "consultant" => serialize::multi_to_text(&adversarial::consultant(
            &mut rng,
            5,
            horizon.clamp(4, 24),
            n,
            2,
            2,
        )),
        "online" => serialize::instance_to_text(&adversarial::online_lower_bound(n)),
        "arrivals" => {
            let pattern = arrivals::ArrivalPattern::parse(
                args.get("pattern").unwrap_or("uniform"),
                args.parse_or("max-gap", 8u64)?,
            )?;
            arrivals::arrivals_to_text(&arrivals::seeded_arrivals(seed, n, &pattern))
        }
        other => return Err(format!("unknown --kind {other:?}")),
    };
    Ok(out)
}

fn render_schedule(sched: &gap_scheduling::schedule::Schedule) -> String {
    let mut out = String::from("assignments (job: time/processor):");
    for (i, a) in sched.assignments().iter().enumerate() {
        if i % 6 == 0 {
            out += "\n  ";
        }
        out += &format!("j{i}:{}@P{}  ", a.time, a.processor);
    }
    out.push('\n');
    out
}

fn render_timeline_for(inst: &Instance, sched: &gap_scheduling::schedule::Schedule) -> String {
    format!(
        "timeline:\n{}",
        gap_scheduling::render::render_timeline(inst, sched, 100)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(format!("gaps-cli-test-{name}"));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run_str(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_flags() {
        let a = parse_args(&["solve".into(), "--alpha".into(), "3".into()]).unwrap();
        assert_eq!(a.command, "solve");
        assert_eq!(a.get("alpha"), Some("3"));
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["x".into(), "bare".into()]).is_err());
        assert!(parse_args(&["x".into(), "--dangling".into()]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        let err = run_str(&["batch", "--input", "-", "--multi-exact", "false"]).unwrap_err();
        assert_eq!(err, "unknown flag --multi-exact for gaps batch");
        let err = run_str(&["batch", "--input", "-", "--thread", "2"]).unwrap_err();
        assert_eq!(err, "unknown flag --thread for gaps batch");
        // A flag valid for one subcommand is still unknown to another.
        assert!(run_str(&["info", "--input", "-", "--threads", "2"]).is_err());
        assert!(lint_str(&["lint", "--input", "x"]).is_err());
    }

    #[test]
    fn usage_and_flag_lists_agree() {
        // Every flag USAGE documents is accepted by its subcommand, and
        // every accepted flag is documented.
        let mut documented: Vec<(String, String)> = Vec::new();
        let mut command = String::new();
        for line in USAGE.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("gaps ") {
                command = rest.split_whitespace().next().unwrap().to_string();
            }
            for token in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(flag) = token.strip_prefix("--") {
                    documented.push((command.clone(), flag.to_string()));
                }
            }
        }
        for (cmd, flag) in &documented {
            let raw = [cmd.clone(), format!("--{flag}"), "v".to_string()];
            assert!(parse_args(&raw).is_ok(), "gaps {cmd} rejects --{flag}");
        }
        for (cmd, flags) in FLAGS {
            for flag in flags.split_whitespace() {
                assert!(
                    documented.contains(&(cmd.to_string(), flag.to_string())),
                    "gaps {cmd} --{flag} is missing from USAGE"
                );
            }
        }
    }

    #[test]
    fn generate_then_info_then_solve() {
        let text = run_str(&[
            "generate",
            "--kind",
            "feasible",
            "--seed",
            "7",
            "--n",
            "6",
            "--horizon",
            "10",
            "--processors",
            "2",
        ])
        .unwrap();
        let path = write_temp("roundtrip.txt", &text);
        let info = run_str(&["info", "--input", &path]).unwrap();
        assert!(info.contains("6 jobs"));
        assert!(info.contains("feasible: true"));
        let solved = run_str(&["solve", "--input", &path, "--objective", "spans"]).unwrap();
        assert!(solved.contains("optimal spans:"));
    }

    #[test]
    fn solve_power_and_simulate_agree() {
        let text = run_str(&[
            "generate",
            "--kind",
            "feasible",
            "--seed",
            "3",
            "--n",
            "5",
            "--horizon",
            "9",
        ])
        .unwrap();
        let path = write_temp("power.txt", &text);
        let solved = run_str(&[
            "solve",
            "--input",
            &path,
            "--objective",
            "power",
            "--alpha",
            "2",
        ])
        .unwrap();
        let simulated = run_str(&["simulate", "--input", &path, "--alpha", "2"]).unwrap();
        // Extract the two numbers and compare.
        let solved_power: u64 = solved
            .lines()
            .find(|l| l.starts_with("optimal power"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|w| w.parse().ok())
            .unwrap();
        let sim_energy: u64 = simulated
            .lines()
            .find(|l| l.starts_with("total energy"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|w| w.parse().ok())
            .unwrap();
        assert_eq!(solved_power, sim_energy);
    }

    #[test]
    fn approx_requires_multi() {
        let text = run_str(&["generate", "--kind", "feasible", "--seed", "1"]).unwrap();
        let path = write_temp("one.txt", &text);
        let err = run_str(&["approx", "--input", &path, "--alpha", "2"]).unwrap_err();
        assert!(err.contains("multi-interval"));
    }

    #[test]
    fn approx_on_multi_instance() {
        let text = run_str(&["generate", "--kind", "multi", "--seed", "5", "--n", "6"]).unwrap();
        let path = write_temp("multi.txt", &text);
        let out = run_str(&["approx", "--input", &path, "--alpha", "2"]).unwrap();
        assert!(out.contains("approximate power"));
        assert!(out.contains("lower bound"));
    }

    #[test]
    fn solve_multi_guard_rejects_large() {
        // 80 jobs / ~480 union slots: past both raised caps (64 jobs,
        // 384 slots), so the exact solver must still refuse.
        let mut rng = StdRng::seed_from_u64(1);
        let inst = multi_interval::feasible_slots(&mut rng, 80, 600, 2);
        let path = write_temp("big.txt", &serialize::multi_to_text(&inst));
        let err = run_str(&["solve", "--input", &path]).unwrap_err();
        assert!(err.contains("exponential"));

        // 65 one-slot jobs: one past the 64-job cap, well inside the slot
        // cap. `solve` refuses; `batch` answers via the fallback chain.
        let times: Vec<Vec<i64>> = (0..65).map(|i| vec![2 * i]).collect();
        let inst = MultiInstance::from_times(times).unwrap();
        let path = write_temp("cap65.txt", &serialize::multi_to_text(&inst));
        let err = run_str(&["solve", "--input", &path]).unwrap_err();
        assert!(err.contains("exponential"), "{err}");
        let out = run_str(&["batch", "--input", &path, "--threads", "1"]).unwrap();
        assert!(
            out.starts_with("0 multi n=65 gaps<=") && out.contains("solver=lemma3_greedy"),
            "{out}"
        );
    }

    #[test]
    fn unknown_inputs_error_cleanly() {
        assert!(run_str(&["frobnicate"]).is_err());
        assert!(run_str(&["solve", "--input", "/nonexistent/x.txt"]).is_err());
        let path = write_temp("garbage.txt", "not an instance\n");
        assert!(run_str(&["info", "--input", &path]).is_err());
        let ok = write_temp("mini.txt", "instance v1\nprocessors 1\njob 0 1\n");
        assert!(run_str(&["solve", "--input", &ok, "--objective", "velocity"]).is_err());
        assert!(run_str(&["simulate", "--input", &ok, "--policy", "nap"]).is_err());
        assert!(run_str(&["generate", "--kind", "chaotic"]).is_err());
    }

    #[test]
    fn batch_streams_many_instances_deterministically() {
        // Concatenate three generated instances (two identical modulo
        // nothing — exact duplicates — to exercise the cache).
        let a = run_str(&["generate", "--kind", "feasible", "--seed", "11", "--n", "5"]).unwrap();
        let b = run_str(&["generate", "--kind", "multi", "--seed", "12", "--n", "4"]).unwrap();
        let stream = format!("{a}{b}{a}");
        let path = write_temp("batch.txt", &stream);
        let once = run_str(&["batch", "--input", &path, "--threads", "1"]).unwrap();
        let many = run_str(&["batch", "--input", &path, "--threads", "8"]).unwrap();
        assert_eq!(once, many, "batch output must not depend on threads");
        let lines: Vec<&str> = once.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].starts_with("0 one n=5 gaps="),
            "line = {}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("1 multi n=4 gaps="),
            "line = {}",
            lines[1]
        );
        // The duplicate instance must produce an identical payload.
        assert_eq!(
            lines[0].split_once(' ').unwrap().1,
            lines[2].split_once(' ').unwrap().1
        );
    }

    #[test]
    fn batch_matches_solve_on_a_single_instance() {
        let text = run_str(&[
            "generate",
            "--kind",
            "feasible",
            "--seed",
            "4",
            "--n",
            "6",
            "--horizon",
            "12",
        ])
        .unwrap();
        let path = write_temp("batch-single.txt", &text);
        let solved = run_str(&[
            "solve",
            "--input",
            &path,
            "--objective",
            "power",
            "--alpha",
            "3",
        ])
        .unwrap();
        let solved_power: u64 = solved
            .lines()
            .find(|l| l.starts_with("optimal power"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|w| w.parse().ok())
            .unwrap();
        let batched = run_str(&[
            "batch",
            "--input",
            &path,
            "--objective",
            "power",
            "--alpha",
            "3",
        ])
        .unwrap();
        assert!(
            batched.contains(&format!("power={solved_power} ")),
            "batch {batched:?} disagrees with solve {solved_power}"
        );
    }

    #[test]
    fn batch_flags_are_validated() {
        let path = write_temp("batch-bad.txt", "instance v1\nprocessors 1\njob 0 1\n");
        assert!(run_str(&["batch", "--input", &path, "--objective", "vibes"]).is_err());
        assert!(run_str(&["batch", "--input", &path, "--fallback", "magic"]).is_err());
        assert!(run_str(&["batch", "--input", &path, "--threads", "x"]).is_err());
        let ok = run_str(&["batch", "--input", &path, "--fallback", "greedy,bound"]).unwrap();
        assert!(ok.contains("solver="));
    }

    #[test]
    fn online_family_generation() {
        let text = run_str(&["generate", "--kind", "online", "--n", "4"]).unwrap();
        let inst = serialize::instance_from_text(&text).unwrap();
        assert_eq!(inst.job_count(), 8);
    }

    #[test]
    fn generate_arrivals_emits_a_replayable_stream() {
        let text = run_str(&[
            "generate",
            "--kind",
            "arrivals",
            "--seed",
            "9",
            "--n",
            "30",
            "--pattern",
            "bursty",
            "--max-gap",
            "12",
        ])
        .unwrap();
        assert!(text.starts_with("arrivals v1\narrive 0\n"), "{text}");
        let streams = arrivals::arrival_streams_from_text(&text).unwrap();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].len(), 30);
        // Same flags, same stream.
        let again = run_str(&[
            "generate",
            "--kind",
            "arrivals",
            "--seed",
            "9",
            "--n",
            "30",
            "--pattern",
            "bursty",
            "--max-gap",
            "12",
        ])
        .unwrap();
        assert_eq!(text, again);
        assert!(run_str(&["generate", "--kind", "arrivals", "--pattern", "psychic"]).is_err());
    }

    #[test]
    fn replay_online_reports_one_ratio_line_per_block() {
        let stream =
            run_str(&["generate", "--kind", "arrivals", "--seed", "5", "--n", "40"]).unwrap();
        // Two blocks = two sessions.
        let path = write_temp("replay.txt", &format!("{stream}{stream}"));
        let out = run_str(&[
            "batch",
            "--input",
            &path,
            "--replay-online",
            "timeout",
            "--alpha",
            "3",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], lines[1], "identical blocks replay identically");
        assert!(
            lines[0].starts_with("policy=timeout alpha=3 jobs=40 online="),
            "{}",
            lines[0]
        );
        let ratio: f64 = lines[0]
            .rsplit("ratio=")
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(
            (1.0..=2.0).contains(&ratio),
            "timeout is 2-competitive: {}",
            lines[0]
        );
        // Replay validates its own input and policy names.
        assert!(run_str(&["batch", "--input", &path, "--replay-online", "clairvoyant"]).is_err());
        let junk = write_temp("replay-junk.txt", "instance v1\nprocessors 1\njob 0 1\n");
        assert!(run_str(&["batch", "--input", &junk, "--replay-online", "timeout"]).is_err());
        let empty = write_temp("replay-empty.txt", "# nothing here\n");
        let err = run_str(&["batch", "--input", &empty, "--replay-online", "timeout"]).unwrap_err();
        assert!(err.contains("no `arrivals v1` block"), "{err}");
    }

    fn lint_str(args: &[&str]) -> Result<(String, bool), String> {
        cmd_lint(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn lint_rules_catalog_lists_lock_order() {
        let (out, clean) = lint_str(&["lint", "--rules", "list"]).unwrap();
        assert!(clean);
        assert!(out.contains("lock-order"), "catalog lists the new rule");
        assert!(out.contains("allow("), "catalog documents the escape hatch");
    }

    #[test]
    fn lint_resolves_workspace_root_from_a_subdirectory() {
        let root = env!("CARGO_MANIFEST_DIR");
        let (from_root, clean) = lint_str(&["lint", "--root", root]).unwrap();
        assert!(clean, "live workspace must lint clean:\n{from_root}");
        // Pointing --root at a crate subdirectory must resolve *up* to
        // the workspace root and produce the identical report.
        let sub = format!("{root}/crates/engine/src");
        let (from_sub, sub_clean) = lint_str(&["lint", "--root", &sub]).unwrap();
        assert!(sub_clean);
        assert_eq!(from_root, from_sub, "report is invocation-dir independent");
    }

    #[test]
    fn lint_dot_renders_the_acquisition_graph() {
        let root = env!("CARGO_MANIFEST_DIR");
        let (out, clean) = lint_str(&["lint", "--root", root, "--dot", "-"]).unwrap();
        assert!(clean);
        assert!(out.starts_with("digraph lock_order"), "{out}");
        assert!(out.contains("rankdir"), "{out}");
    }

    #[test]
    fn lint_accepts_the_committed_baseline() {
        let root = env!("CARGO_MANIFEST_DIR");
        let baseline = format!("{root}/lint-baseline.json");
        let (out, clean) = lint_str(&["lint", "--root", root, "--baseline", &baseline]).unwrap();
        assert!(clean, "baseline run stays clean:\n{out}");
    }

    #[test]
    fn lint_flags_are_validated() {
        assert!(lint_str(&["lint", "--root", "/nonexistent/dir"]).is_err());
        assert!(lint_str(&["lint", "--format", "xml"]).is_err());
        assert!(lint_str(&["lint", "--baseline", "/nonexistent/base.json"]).is_err());
    }
}
