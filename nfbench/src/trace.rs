//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around each public
//! call into a layer of the library: name, start, end, parent span and op
//! id. They stay in memory until the run ends, when [`Tracer::write_jsonl`]
//! writes them out and [`Tracer::layers`] aggregates them. A disabled
//! tracer runs the wrapped call and nothing else, so untraced runs pay
//! one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, or [`NO_PARENT`].
    pub parent: u32,
    pub op: u32,
}

/// Per-layer aggregate of the recorded spans.
#[derive(Clone, Debug, Default)]
pub struct LayerAgg {
    pub calls: u64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_ns: u64,
    /// Duration of every call, in microseconds.
    pub call_us: Vec<f64>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the open op span, if any.
    open_op: Option<u32>,
    next_op: u32,
}

/// The name of the span around one whole op.
pub const OP: &str = "op";

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open_op: None, next_op: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the span of one op; layer spans recorded until
    /// [`Tracer::end_op`] become its children.
    pub fn begin_op(&mut self) {
        if !self.on {
            return;
        }
        let start = self.now_ns();
        self.open_op = Some(self.spans.len() as u32);
        self.spans.push(Span {
            name: OP,
            start_ns: start,
            end_ns: start,
            parent: NO_PARENT,
            op: self.next_op,
        });
    }

    pub fn end_op(&mut self) {
        if let Some(i) = self.open_op.take() {
            self.spans[i as usize].end_ns = self.now_ns();
            self.next_op += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn layer<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.record(name, start, end);
        r
    }

    /// Records a span under the open op, if there is one.
    fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.open_op.unwrap_or(NO_PARENT);
        self.spans.push(Span { name, start_ns, end_ns, parent, op: self.next_op });
    }

    /// Aggregates the spans by name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerAgg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerAgg> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let agg = out.entry(s.name).or_default();
            agg.calls += 1;
            agg.self_ns += dur.saturating_sub(children);
            agg.call_us.push(dur as f64 / 1e3);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin_op();
        t.record("a", 10, 30);
        t.record("b", 40, 45);
        t.end_op();
        // Pin the op span's bounds so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        let layers = t.layers();
        assert_eq!(layers[OP].self_ns, 75);
        assert_eq!(layers["a"].self_ns, 20);
        assert_eq!(layers["b"].calls, 1);
        assert_eq!(t.spans[1].parent, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op();
        assert_eq!(t.layer("a", || 7), 7);
        t.end_op();
        assert!(t.layers().is_empty());
    }
}
