//! Spans recorded around each layer call of the in-process replay.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! process's first clock read), the span that caused it, and the id of the request it
//! belongs to. Spans stay in memory until the run ends and are then
//! written out as one tab-separated file. A span's *self time* is its
//! duration minus the part of its interval that its children cover.

use crate::clock::since_epoch_ns;
use std::io::Write;
use std::path::Path;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of this span within its request's spans.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Layer call, e.g. `canonical` or `solver.multi_exact`.
    pub name: &'static str,
    /// Start, ns since the epoch of [`since_epoch_ns`].
    pub start_ns: u64,
    /// End, ns since the same epoch.
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one request. With recording off no span is kept, but
/// [`Trace::stamp`] still reads the clock, so untraced and traced runs
/// can measure the same work.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Request id shared by all of this trace's spans.
    pub request: u64,
    on: bool,
    /// Spans, indexed by their ids.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace for `request`.
    pub fn new(request: u64, on: bool) -> Trace {
        Trace {
            request,
            on,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn stamp(&self) -> u64 {
        since_epoch_ns()
    }

    /// Record a span with known times; returns its id.
    pub fn record(&mut self, name: &'static str, parent: Option<u32>, start: u64, end: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    /// Open a span starting now; end it with [`Trace::close_at`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        if !self.on {
            return 0;
        }
        let t = self.stamp();
        self.record(name, parent, t, t)
    }

    /// End span `id` at `end_ns`.
    pub fn close_at(&mut self, id: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Time `f` as a child span of `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.stamp();
        let out = f();
        let end = self.stamp();
        self.record(name, Some(parent), start, end);
        out
    }
}

/// Self time of each span of one request (same order as `spans`):
/// duration minus the union of its children's intervals, each clipped
/// to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Write every span, with its self time, as tab-separated rows.
pub fn write_tsv(path: &Path, traces: &[Trace]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let file = std::fs::File::create(path).map_err(err)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(
        out,
        "request\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns"
    )
    .map_err(err)?;
    for trace in traces {
        for (span, own) in trace.spans.iter().zip(self_times(&trace.spans)) {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}\t{}\t{own}",
                trace.request, span.id, span.name, span.start_ns, span.end_ns
            )
            .map_err(err)?;
        }
    }
    out.flush().map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(0, None, 0, 100),
            // Two overlapping children cover [10, 60): 50 ns.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            // A child running past its parent counts only inside it.
            span(3, Some(0), 90, 130),
            // A grandchild is covered by its own parent, not the root.
            span(4, Some(1), 15, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 50 - 10);
        assert_eq!(own[1], 30 - 5);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 5);
    }

    #[test]
    fn untraced_runs_keep_no_spans() {
        let mut t = Trace::new(1, false);
        let root = t.open("request", None);
        assert_eq!(t.span("canonical", root, || 7), 7);
        assert!(t.spans.is_empty());
        let mut t = Trace::new(1, true);
        let root = t.open("request", None);
        t.span("canonical", root, || ());
        let end = t.stamp();
        t.close_at(root, end);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(root));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
