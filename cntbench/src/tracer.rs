//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! repository's crates — nothing inside the program is instrumented. They
//! stay in memory until the run ends and are written out once, as JSONL,
//! by the caller.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span this call happened inside, if any.
    pub parent: Option<u64>,
    /// What was called (`trace.read`, `core.run_batch.adaptive`, …).
    pub name: String,
    /// The iteration, round, or session the call belongs to.
    pub group: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Starts the traced window now.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("runs last less than 584 years")
    }

    /// Closes the traced window and hands back its spans, ordered by id.
    pub fn finish(self) -> Trace {
        let end_ns = self.now_ns();
        let mut spans = self.spans.into_inner().expect("no span recorder panicked");
        spans.sort_by_key(|s| s.id);
        Trace { spans, end_ns }
    }
}

/// Runs `f` inside a span when a tracer is given, or plainly otherwise,
/// so traced and untraced runs share one code path. `f` receives the
/// span's id, for children to name as their parent.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<u64>,
    group: u64,
    f: impl FnOnce(Option<u64>) -> R,
) -> R {
    let Some(tracer) = tracer else {
        return f(None);
    };
    let id = tracer.next.fetch_add(1, Ordering::Relaxed);
    let start_ns = tracer.now_ns();
    let result = f(Some(id));
    let end_ns = tracer.now_ns();
    tracer
        .spans
        .lock()
        .expect("no span recorder panicked")
        .push(Span {
            id,
            parent,
            name: name.to_string(),
            group,
            start_ns,
            end_ns,
        });
    result
}

/// A finished traced window.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every span, ordered by id.
    pub spans: Vec<Span>,
    /// End of the window, nanoseconds since it opened.
    pub end_ns: u64,
}

impl Trace {
    /// Summed seconds of the spans called any of `names`, per group.
    pub fn by_group(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name.as_str()))
        {
            *out.entry(s.group).or_insert(0.0) += s.secs();
        }
        out
    }

    /// The durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Share of the traced window spent inside calls into the program:
    /// spans with a parent. Root spans only group calls (an iteration, a
    /// session, a round), so time in a root outside all of its calls —
    /// or outside every root — is time the trace cannot attribute.
    pub fn coverage(&self) -> f64 {
        if self.end_ns == 0 {
            return 0.0;
        }
        let mut calls: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        calls.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (start, end) in calls {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered as f64 / self.end_ns as f64
    }

    /// The spans as JSONL, one object per line.
    ///
    /// # Panics
    ///
    /// Never: spans hold only integers and strings.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Value::Map(vec![
                ("id".into(), Value::U64(s.id)),
                ("parent".into(), s.parent.map_or(Value::Null, Value::U64)),
                ("name".into(), Value::Str(s.name.clone())),
                ("group".into(), Value::U64(s.group)),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
            ]);
            out.push_str(&serde_json::to_string(&line).expect("spans always serialize"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_untraced_runs_record_nothing() {
        let tracer = Tracer::new();
        let got = span(Some(&tracer), "outer", None, 3, |outer| {
            span(Some(&tracer), "inner", outer, 3, |_| 7)
        });
        assert_eq!(got, 7);
        assert_eq!(span(None, "ignored", None, 0, |id| id), None);
        let trace = tracer.finish();
        assert_eq!(trace.spans.len(), 2);
        let outer = &trace.spans[0];
        let inner = &trace.spans[1];
        assert_eq!(
            (outer.name.as_str(), inner.parent),
            ("outer", Some(outer.id))
        );
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(
            trace
                .by_group(&["inner"])
                .keys()
                .copied()
                .collect::<Vec<_>>(),
            [3]
        );
        assert_eq!(trace.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn coverage_counts_overlapping_calls_once() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x".into(),
            group: 0,
            start_ns,
            end_ns,
        };
        let trace = Trace {
            spans: vec![
                span(0, None, 0, 100),
                span(1, Some(0), 0, 40),
                span(2, Some(0), 20, 60),
                span(3, Some(2), 30, 50),
                span(4, None, 80, 90),
                span(5, Some(4), 85, 90),
            ],
            end_ns: 100,
        };
        // Calls cover [0, 60) and [85, 90); roots 0 and 4 only group them.
        assert!((trace.coverage() - 0.65).abs() < 1e-12);
    }
}
