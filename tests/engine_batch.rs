//! Cross-crate engine correctness: `gaps batch` output must be
//! byte-identical for any `--threads` value, and the values it reports
//! must bit-match direct `gaps-core` solver calls — on every workload
//! family `gaps-workloads` can generate.
//!
//! The thread-count check runs through the real binary (stdin → stdout),
//! because that is the surface the determinism promise is made on; the
//! solver cross-check runs through the library so it can compare against
//! reference solvers instance by instance. The reference path is chosen
//! to be *different* from the engine's routed path wherever possible
//! (e.g. the engine routes `p = 1` to Baptiste's DP or the forced-chain
//! fast path; the reference recomputes with the Theorem 1/2
//! multiprocessor DPs), so agreement is a genuine cross-validation, not
//! an identity.

use gap_scheduling::engine::{split_stream, BatchInstance, Engine, EngineConfig, Objective};
use gap_scheduling::workloads::streams;
use gap_scheduling::{brute_force, multiproc_dp, power_dp};
use std::io::Write;
use std::process::{Command, Stdio};

/// The shared ~1,000-instance family-complete stream. It lives in
/// `gaps-workloads` (`streams::mixed_stream`) so the serve parity suite
/// feeds the byte-identical input to the daemon.
fn mixed_stream_text() -> String {
    streams::mixed_stream(72)
}

fn run_batch_cli(stream: &str, threads: &str, objective: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gaps"))
        .args([
            "batch",
            "--input",
            "-",
            "--threads",
            threads,
            "--objective",
            objective,
            "--alpha",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gaps batch");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stream.as_bytes())
        .expect("write stream");
    let out = child.wait_with_output().expect("gaps batch runs");
    assert!(
        out.status.success(),
        "gaps batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn cli_output_is_byte_identical_across_thread_counts() {
    let stream = mixed_stream_text();
    let instances = split_stream(&stream).expect("stream parses");
    assert!(
        instances.len() >= 1_000,
        "want a 1,000-instance stream, got {}",
        instances.len()
    );
    for objective in ["gaps", "power"] {
        let reference = run_batch_cli(&stream, "1", objective);
        assert_eq!(
            reference.lines().count(),
            instances.len(),
            "one line per instance"
        );
        for threads in ["2", "8"] {
            let out = run_batch_cli(&stream, threads, objective);
            assert_eq!(
                out, reference,
                "--threads {threads} output diverged for --objective {objective}"
            );
        }
    }
}

/// Largest multi-interval instance the exhaustive oracle checks: the
/// range where it is cheap.
const ORACLE_MAX_SLOTS: usize = 64;
const ORACLE_MAX_JOBS: usize = 14;

/// Reference payload computed with solvers the engine's router mostly
/// does *not* pick for the instance (multiprocessor DPs for `p = 1`
/// instances, exhaustive search for small multi-interval instances).
/// Returns `None` when no independent exact reference applies.
fn reference_value(inst: &BatchInstance, objective: Objective) -> Option<Option<u64>> {
    match inst {
        BatchInstance::One(one) => Some(match objective {
            Objective::Gaps => multiproc_dp::min_gap_value(one),
            Objective::Spans => multiproc_dp::min_span_value(one),
            Objective::Power { alpha } => power_dp::min_power_value(one, alpha),
        }),
        BatchInstance::Multi(multi) => {
            // Gate on where the exhaustive oracle is cheap: inside it the
            // engine's `multi_exact` answer must bit-match the oracle.
            // Beyond it the oracle is too slow even where the engine
            // still answers exactly.
            if multi.slot_union().len() > ORACLE_MAX_SLOTS || multi.job_count() > ORACLE_MAX_JOBS {
                return None;
            }
            Some(match objective {
                Objective::Gaps => brute_force::min_gaps_multi(multi).map(|(v, _)| v),
                Objective::Spans => brute_force::min_spans_multi(multi).map(|(v, _)| v),
                Objective::Power { alpha } => {
                    brute_force::min_power_multi(multi, alpha).map(|(v, _)| v)
                }
            })
        }
    }
}

#[test]
fn engine_values_bit_match_direct_solver_calls() {
    let stream = mixed_stream_text();
    // The full 1,000 would re-solve everything three times over; a
    // deterministic slice still covers every family (they interleave
    // with period 14 < 100).
    let instances: Vec<BatchInstance> = split_stream(&stream)
        .expect("stream parses")
        .into_iter()
        .take(100)
        .collect();
    for objective in [
        Objective::Gaps,
        Objective::Spans,
        Objective::Power { alpha: 2 },
    ] {
        let engine = Engine::new(EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        });
        let (lines, report) = engine.run_batch(&instances, objective);
        assert_eq!(report.requests, instances.len());
        let mut checked = 0;
        for (inst, line) in instances.iter().zip(&lines) {
            let payload = line
                .splitn(4, ' ')
                .nth(3)
                .unwrap_or_else(|| panic!("malformed line {line:?}"));
            match reference_value(inst, objective) {
                Some(Some(value)) => {
                    let expected = format!("{}={value} ", objective.label());
                    assert!(
                        payload.starts_with(&expected),
                        "engine said {payload:?}, reference value is {value} \
                         (objective {objective:?})"
                    );
                    checked += 1;
                }
                Some(None) => {
                    assert!(
                        payload.starts_with("infeasible"),
                        "engine said {payload:?}, reference says infeasible"
                    );
                    checked += 1;
                }
                None => {
                    // Bound-only answers still have a fixed shape.
                    let label = objective.label();
                    assert!(
                        payload.starts_with(&format!("{label}<="))
                            || payload.starts_with(&format!("{label}>="))
                            || payload.starts_with("infeasible"),
                        "unexpected fallback payload {payload:?}"
                    );
                }
            }
        }
        assert!(
            checked >= 80,
            "expected most of the slice to be exactly checkable, got {checked}"
        );
    }
}

#[test]
fn duplicate_instances_hit_the_cache_without_changing_output() {
    let stream = mixed_stream_text();
    let instances = split_stream(&stream).expect("stream parses");
    let doubled: Vec<BatchInstance> = instances
        .iter()
        .take(60)
        .chain(instances.iter().take(60))
        .cloned()
        .collect();
    let engine = Engine::new(EngineConfig {
        threads: 8,
        ..EngineConfig::default()
    });
    let (lines, report) = engine.run_batch(&doubled, Objective::Gaps);
    assert!(
        report.cache_hits >= 60,
        "second copy of each instance should hit the cache: {report}"
    );
    for i in 0..60 {
        let strip = |s: &str| s.split_once(' ').unwrap().1.to_string();
        assert_eq!(
            strip(&lines[i]),
            strip(&lines[i + 60]),
            "cached and solved payloads diverged at {i}"
        );
    }
}
