//! Spans recorded by the runner around the calls it makes.
//!
//! `pass` › `op` › `setup` / `run` / `check`, `calibrate` slices, and one
//! `layer.<metric>` span per replay kernel. Spans stay in memory and
//! are written as JSONL when the run ends; a span's self time is its
//! duration minus the part its children cover.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Index of this span, unique within the trace.
    pub id: u64,
    /// The span that was open when this one started.
    pub parent: Option<u64>,
    /// Workload name.
    pub workload: String,
    /// Pass number (0 = warm-up).
    pub pass: u32,
    /// Operation name, empty outside an operation.
    pub op: String,
    /// `pass`, `op`, `setup`, `run`, `check`, `calibrate`, `layer.*`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Token returned by [`Tracer::enter`]; hand it back to
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder. Disabled, `enter`/`exit` do nothing and
/// never read the clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    pass: u32,
    op: String,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `workload`; records only if `enabled`.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_owned(),
            pass: 0,
            op: String::new(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Set the pass number stamped on subsequent spans.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Set the operation name stamped on subsequent spans.
    pub fn set_op(&mut self, op: &str) {
        op.clone_into(&mut self.op);
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u64,
            parent: self.stack.last().map(|&p| p as u64),
            workload: self.workload.clone(),
            pass: self.pass,
            op: self.op.clone(),
            name: name.to_owned(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Close every span deeper than `depth`: a panic unwinding through
    /// an operation skips the `exit` calls of the spans it had open.
    pub fn close_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            let idx = self.stack.pop().expect("stack is deeper than depth");
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the part of the interval
/// its direct children cover, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        let Some(parent) = child.parent.and_then(|p| spans.get(p as usize)) else {
            continue;
        };
        // Clip to the parent's interval; children of one parent never
        // overlap (single thread, strict nesting).
        let start = child.start_ns.max(parent.start_ns);
        let end = child.end_ns.min(parent.end_ns);
        let covered = end.saturating_sub(start);
        let slot = &mut own[parent.id as usize];
        *slot = slot.saturating_sub(covered);
    }
    own
}

/// Share of the timed pass's `pass` span covered by `op` spans.
pub fn op_coverage(spans: &[Span], pass: u32) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.pass == pass && s.name == "pass")
        .map(Span::duration_ns)
        .sum();
    let ops: u64 = spans
        .iter()
        .filter(|s| s.pass == pass && s.name == "op")
        .map(Span::duration_ns)
        .sum();
    if total == 0 {
        0.0
    } else {
        ops as f64 / total as f64
    }
}

/// JSONL: the manifest on the first line, then one span per line.
pub fn to_jsonl(manifest_json: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str(manifest_json);
    out.push('\n');
    for s in spans {
        out.push_str(&serde_json::to_string(s).expect("spans serialize"));
        out.push('\n');
    }
    out
}

/// Parse [`to_jsonl`] output back: `(manifest line, spans)`.
#[cfg(test)]
fn parse_jsonl(text: &str) -> Result<(String, Vec<Span>), String> {
    let mut lines = text.lines();
    let manifest = lines.next().ok_or("empty trace")?.to_owned();
    let spans = lines
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str::<Span>(l).map_err(|e| format!("{e}: {l}")))
        .collect::<Result<_, _>>()?;
    Ok((manifest, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            workload: "w".into(),
            pass: 1,
            op: "o".into(),
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "op", 10, 60),
            span(2, Some(1), "run", 20, 50),
            span(3, Some(0), "op", 60, 90),
        ];
        // pass: 100 − (50 + 30); first op: 50 − 30; leaves keep theirs.
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span(0, None, "op", 10, 20), span(1, Some(0), "run", 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn coverage_is_ops_over_pass() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "op", 0, 40),
            span(2, Some(0), "op", 40, 97),
        ];
        assert!((op_coverage(&spans, 1) - 0.97).abs() < 1e-12);
        assert_eq!(op_coverage(&spans, 2), 0.0);
    }

    #[test]
    fn tracer_nests_and_stamps() {
        let mut t = Tracer::new("dense-full", true);
        t.set_pass(3);
        let outer = t.enter("pass");
        t.set_op("eager");
        let op = t.enter("op");
        let run = t.enter("run");
        t.exit(run);
        t.exit(op);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[2].pass, s[2].op.as_str()), (3, "eager"));
        assert!(s[0].end_ns >= s[2].end_ns && s[2].end_ns >= s[2].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", false);
        let pass = t.enter("pass");
        let op = t.enter("op");
        assert_eq!(t.depth(), 0);
        t.exit(op);
        t.exit(pass);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn close_to_ends_spans_a_panic_left_open() {
        let mut t = Tracer::new("w", true);
        let pass = t.enter("pass");
        let _op = t.enter("op");
        let _run = t.enter("run");
        t.close_to(1);
        assert_eq!(t.depth(), 1);
        t.exit(pass);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "layer.sim.queue.ns_per_event", 7, 42),
        ];
        let text = to_jsonl("{\"schema\":1}", &spans);
        assert_eq!(text.lines().count(), 3);
        let (manifest, back) = parse_jsonl(&text).expect("parses");
        assert_eq!(manifest, "{\"schema\":1}");
        assert_eq!(back, spans);
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{}\nnot json\n").is_err());
    }
}
