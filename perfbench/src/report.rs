//! Turning measurements into named metrics, the result line and the
//! result file.

use crate::check::Tally;
use crate::e2e::E2e;
use crate::stats::{median, quartiles};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `latency_p50_ms`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub count: usize,
    /// Per-window or per-sample values, for the result file's quartiles.
    pub spread: Vec<f64>,
}

impl Metric {
    /// A metric with no per-window spread.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, count: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            count,
            spread: Vec::new(),
        }
    }
}

/// The end-to-end metrics of an untraced run: each the median of its
/// per-window or per-sample values.
pub fn end_to_end(e: &E2e) -> Vec<Metric> {
    let answers = e.tally.answers() as usize;
    let rows: [(&str, &Vec<f64>, &'static str, usize); 4] = [
        ("setup_s", &e.setup_s, "s", e.setup_s.len()),
        ("throughput_per_s", &e.throughput, "1/s", answers),
        ("latency_p50_ms", &e.latency_p50_ms, "ms", e.latency_count),
        ("cpu_us_per_op", &e.cpu_us_per_op, "us", answers),
    ];
    let mut out: Vec<Metric> = rows
        .into_iter()
        .map(|(name, values, unit, count)| Metric {
            spread: values.clone(),
            ..Metric::new(name, median(values).unwrap_or(0.0), unit, count)
        })
        .collect();
    out.insert(
        3,
        Metric::new(
            "ok_share",
            e.tally.correct as f64 / e.tally.sent.max(1) as f64,
            "ratio",
            e.tally.sent as usize,
        ),
    );
    out.push(Metric::new("peak_rss_mb", e.peak_rss_mb, "MB", 1));
    out
}

/// Format a float with all the digits it has (JSON has no NaN or
/// infinity; those become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            esc(&m.name),
            num(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.sent.max(1),
        tally.failed()
    )
}

/// Provenance recorded in every result file.
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced (1) or untraced (0) run.
    pub trace: bool,
    /// Requested run length, seconds.
    pub seconds: f64,
    /// Open-loop rate, requests per second.
    pub open_rate: f64,
    /// Available CPUs.
    pub nproc: usize,
    /// Source revision, or `unknown`.
    pub git_rev: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
}

/// The result file: provenance, the tally, and each metric's value with
/// its sample count and the quartiles of its per-window values.
pub fn result_file(p: &Provenance, correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", esc(&p.workload));
    let _ = writeln!(out, "  \"seed\": {},", p.seed);
    let _ = writeln!(out, "  \"trace\": {},", u8::from(p.trace));
    let _ = writeln!(out, "  \"run_seconds\": {},", num(p.seconds));
    let _ = writeln!(out, "  \"open_rate_per_s\": {},", num(p.open_rate));
    let _ = writeln!(out, "  \"nproc\": {},", p.nproc);
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", esc(&p.git_rev));
    let _ = writeln!(out, "  \"rustc\": \"{}\",", esc(&p.rustc));
    let _ = writeln!(out, "  \"correct\": {correct},");
    let _ = writeln!(
        out,
        "  \"tally\": {{\"sent\": {}, \"correct\": {}, \"wrong\": {}, \"busy\": {}, \"err\": {}, \"timeout\": {}}},",
        tally.sent, tally.correct, tally.wrong, tally.busy, tally.err, tally.timeout
    );
    out.push_str("  \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        let spread = if m.spread.is_empty() {
            vec![m.value]
        } else {
            m.spread.clone()
        };
        let (q1, q2, q3) = quartiles(&spread).unwrap_or((m.value, m.value, m.value));
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"windows\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}}}{comma}",
            esc(&m.name),
            num(m.value),
            m.unit,
            m.count,
            spread.len(),
            num(q2),
            num(q1),
            num(q3)
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// A readable table of the metrics, for stderr.
pub fn table(workload: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{workload}:\n");
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<32} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let tally = Tally {
            sent: 10,
            correct: 9,
            busy: 1,
            ..Tally::default()
        };
        let line = result_line(true, &tally, &[Metric::new("setup_s", 0.25, "s", 7)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
