//! Spans recorded by the ledger around its calls into the stack.
//!
//! Tracing lives here, outside the program: a span is opened and closed by
//! ledger code on either side of a public call, kept in memory, and written
//! as JSON lines when the benchmark ends.  Spans inside the crates are a
//! later change (ROADMAP item 2).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use cvm_service::json::Value;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval.  `parent` indexes the op's span list; the root of an
/// op (`run` or `job`) has none.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Child spans one simulated process records inside a program body; the
/// caller hangs them under the op's root afterwards.
#[derive(Default)]
pub struct ProcLog(Mutex<Vec<(&'static str, u64, u64)>>);

impl ProcLog {
    /// Times `f` as a span called `name`.
    #[inline]
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = now_ns();
        let out = f();
        let end = now_ns();
        // A process killed by the fault plan unwinds through here; its log
        // stays valid because entries are pushed whole.
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((name, start, end));
        out
    }

    /// Drains the log.
    pub fn take(&self) -> Vec<(&'static str, u64, u64)> {
        std::mem::take(
            &mut self
                .0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }
}

/// Runs `f` with an optional log: the untraced path pays one branch.
#[inline]
pub fn maybe_span<T>(log: Option<&ProcLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => log.span(name, f),
        None => f(),
    }
}

/// Time per span name: calls, total and self nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time of every span of one op: its duration minus the part of that
/// interval its children cover (children of parallel processes overlap, so
/// the cover is a union, not a sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Everything the traced pass keeps: per-name totals over all traced ops,
/// root coverage, and the spans of the first ops up to a size cap.
#[derive(Default)]
pub struct Recorder {
    totals: BTreeMap<&'static str, NameTotals>,
    root_ns: u64,
    kept: Vec<Span>,
    next_op: u64,
}

/// Spans kept for the file; totals keep counting past it.
const KEEP_SPANS: usize = 50_000;

impl Recorder {
    /// Adds one op: a root span plus flat children from each process log.
    pub fn add_op(
        &mut self,
        root: &'static str,
        start_ns: u64,
        end_ns: u64,
        children: impl IntoIterator<Item = (&'static str, u64, u64)>,
    ) {
        let op_id = self.next_op;
        self.next_op += 1;
        let mut spans = vec![Span {
            name: root,
            start_ns,
            end_ns,
            parent: None,
            op_id,
        }];
        spans.extend(children.into_iter().map(|(name, s, e)| Span {
            name,
            start_ns: s,
            end_ns: e,
            parent: Some(0),
            op_id,
        }));
        self.root_ns += end_ns.saturating_sub(start_ns);
        for (span, self_ns) in spans.iter().zip(self_times(&spans)) {
            let t = self.totals.entry(span.name).or_default();
            t.calls += 1;
            t.total_ns += span.duration();
            t.self_ns += self_ns;
        }
        if self.kept.len() + spans.len() <= KEEP_SPANS {
            self.kept.extend(spans);
        }
    }

    /// Adds one op whose children were logged per process.
    pub fn add_run(&mut self, start_ns: u64, end_ns: u64, logs: &[ProcLog]) {
        let children: Vec<_> = logs.iter().flat_map(ProcLog::take).collect();
        self.add_op("run", start_ns, end_ns, children);
    }

    pub fn ops(&self) -> u64 {
        self.next_op
    }

    /// Summed duration of the root spans.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, NameTotals> {
        &self.totals
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(out, "{}", span_json(s))?;
        }
        out.flush()
    }
}

fn span_json(s: &Span) -> Value {
    Value::obj([
        ("name", Value::Str(s.name.into())),
        ("start_ns", Value::Int(s.start_ns as i64)),
        ("end_ns", Value::Int(s.end_ns as i64)),
        (
            "parent",
            s.parent.map_or(Value::Null, |p| Value::Int(i64::from(p))),
        ),
        ("op_id", Value::Int(s.op_id as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("run", 0, 100, None),
            // Two processes' children overlap on [20, 30]: covered once.
            span("lock", 10, 30, Some(0)),
            span("lock", 20, 50, Some(0)),
            span("barrier", 70, 120, Some(0)), // Clipped to the parent.
            span("inner", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 14, 30, 50, 6]);
    }

    #[test]
    fn recorder_totals_and_lines() {
        let mut rec = Recorder::default();
        rec.add_op("job", 0, 50, [("submit", 0, 10), ("run", 20, 50)]);
        rec.add_op("job", 100, 130, [("submit", 100, 105)]);
        assert_eq!(rec.ops(), 2);
        assert_eq!(rec.root_ns(), 80);
        let job = rec.totals()["job"];
        assert_eq!((job.calls, job.total_ns, job.self_ns), (2, 80, 35));
        assert_eq!(rec.totals()["submit"].self_ns, 15);
        let line = span_json(&rec.kept[1]).to_string();
        let back = cvm_service::json::parse(&line).expect("valid JSON");
        assert_eq!(back.get("name").and_then(Value::as_str), Some("submit"));
        assert_eq!(back.get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(back.get("op_id").and_then(Value::as_u64), Some(0));
        assert_eq!(span_json(&rec.kept[0]).get("parent"), Some(&Value::Null));
    }

    #[test]
    fn proc_log_collects_in_order() {
        let log = ProcLog::default();
        assert_eq!(maybe_span(Some(&log), "a", || 7), 7);
        assert_eq!(maybe_span(None, "b", || 8), 8);
        let got = log.take();
        assert_eq!(got.len(), 1);
        assert!(got[0].0 == "a" && got[0].1 <= got[0].2);
    }
}
