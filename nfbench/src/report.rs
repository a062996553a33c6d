//! Metric collection, the human-readable report, the results file, and
//! the one-line JSON result.

use crate::stats::{self, Latency};
use crate::trace::{LayerAgg, Tracer, OP};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The end-to-end metrics every workload prints with `--trace 0`. The
/// p99 latencies are printed beside them but are not bounded metrics:
/// on a shared two-core machine they swing with scheduler stalls (the
/// `serve` light-phase p99 ranged 5–34 ms over ten seeds).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("busy_latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Layers timed by spans: each reports calls, self time, share of op
/// wall time, and call-duration p50/p99.
pub const TIMED_LAYERS: [&str; 10] = [
    "core.parse",
    "core.check",
    "core.backward",
    "core.bound",
    "core.fingerprint",
    "bounds.interval",
    "interp.validate",
    "optimize.search",
    "serve.handler",
    "serve.loop",
];

/// The five values of a timed layer, with their units.
pub const LAYER_FIELDS: [(&str, &str); 5] =
    [("calls", "count"), ("self_ms", "ms"), ("share", "ratio"), ("p50_us", "us"), ("p99_us", "us")];

/// Every other per-layer metric: the counters of the layer table, the
/// base counts of its ratios, and the trace's own figures.
pub const COUNTERS: [(&str, &str); 32] = [
    ("core.parse.mb_per_s", "MB/s"),
    ("core.check.nodes_per_s", "1/s"),
    ("core.backward.rejected", "count"),
    ("bounds.interval.abstained", "count"),
    ("interp.validate.vacuous", "count"),
    ("optimize.search.candidates", "count"),
    ("optimize.search.candidates_per_s", "1/s"),
    ("optimize.search.certified", "count"),
    ("optimize.search.certified_ratio", "ratio"),
    ("optimize.search.rejected_check", "count"),
    ("optimize.search.rejected_interval", "count"),
    ("optimize.search.rejected_oracle", "count"),
    ("serve.handler.check_p50_us", "us"),
    ("serve.handler.bound_p50_us", "us"),
    ("serve.handler.edit_p50_us", "us"),
    ("serve.handler.batch_p50_us", "us"),
    ("serve.cache.calls", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.memo.calls", "count"),
    ("serve.memo.reuse_ratio", "ratio"),
    ("serve.memo.reused", "count"),
    ("serve.memo.total", "count"),
    ("serve.queue.calls", "count"),
    ("serve.queue.peak", "count"),
    ("serve.queue.admission_rejected", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.untraced_ms", "ms"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in TIMED_LAYERS {
        for (field, unit) in LAYER_FIELDS {
            out.push((format!("{layer}.{field}"), unit));
        }
    }
    out.extend(COUNTERS.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}

/// Mismatches printed per run (all are counted).
const MAX_PRINTED: usize = 20;

#[derive(Clone, Debug)]
struct Metric {
    value: f64,
    unit: &'static str,
    samples: Option<u64>,
}

/// Outcome counts and every mismatch against a reference answer.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Checks {
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn mismatch(&mut self, m: &str) {
        self.mismatches.push(m.to_string());
    }
}

/// Per-layer figures of one traced run, before they become metrics.
pub struct Layers {
    aggs: BTreeMap<&'static str, LayerAgg>,
    /// Summed wall time of the traced ops: the base of every share.
    op_ms: f64,
    ops: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn from_tracer(t: &Tracer) -> Layers {
        let mut aggs = t.layers();
        let op = aggs.remove(OP).unwrap_or_default();
        let op_ms = op.call_us.iter().sum::<f64>() / 1e3;
        Layers { aggs, op_ms, ops: op.calls, counters: BTreeMap::new() }
    }

    /// Layers whose spans were measured outside a [`Tracer`] op (the
    /// serve replay): `op_ms` over `ops` is the base of the shares.
    pub fn from_parts(aggs: BTreeMap<&'static str, LayerAgg>, op_ms: f64, ops: u64) -> Layers {
        Layers { aggs, op_ms, ops, counters: BTreeMap::new() }
    }

    /// Self time of `layer` in milliseconds (0 when never called).
    pub fn total_ms(&self, layer: &str) -> f64 {
        self.aggs.get(layer).map_or(0.0, |a| a.self_ns as f64 / 1e6)
    }

    pub fn counter(&mut self, name: &'static str, value: f64) {
        debug_assert!(COUNTERS.iter().any(|(n, _)| *n == name), "unknown counter {name}");
        self.counters.insert(name, value);
    }

    /// Records the tracing overhead: traced over untraced time of the same
    /// ops, minus 1, with the untraced time as its base.
    pub fn overhead(&mut self, traced_s: f64, untraced_s: f64) {
        self.counters.insert("trace.overhead", traced_s / untraced_s - 1.0);
        self.counters.insert("trace.untraced_ms", untraced_s * 1e3);
    }
}

/// The result of one run.
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    out_dir: PathBuf,
    metrics: BTreeMap<String, Metric>,
    notes: Vec<String>,
    checks: Checks,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool, out_dir: PathBuf) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            out_dir,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            checks: Checks::default(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.insert(name.to_string(), Metric { value, unit, samples: Some(samples) });
    }

    /// `setup_s`: the median of the repeated set-ups.
    pub fn setup(&mut self, setups_s: &[f64]) {
        self.metric("setup_s", stats::median(setups_s), "s", setups_s.len() as u64);
        let s = stats::sorted(setups_s);
        let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&p| format!("{:.6}", stats::percentile(&s, p)))
            .collect();
        self.note(format!("set-up s min/q1/median/q3/max {}", q.join(" ")));
    }

    /// `<prefix>_p50_ms`, and the p99 with its sample counts as a note.
    pub fn latency(&mut self, prefix: &str, l: &Latency) {
        self.metric(&format!("{prefix}_p50_ms"), l.p50_ms, "ms", l.samples as u64);
        self.note(format!(
            "{prefix}_p99_ms {:.6} ms (n={}, {} beyond p99; printed, not bounded)",
            l.p99_ms, l.samples, l.beyond_p99
        ));
    }

    /// `peak_rss_mib`: the `VmHWM` line of a `/proc/<pid>/status` file.
    pub fn peak_rss(&mut self, status_path: &str) {
        let kib = std::fs::read_to_string(status_path).ok().and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        });
        match kib {
            Some(kib) => self.metric("peak_rss_mib", kib as f64 / 1024.0, "MiB", 1),
            None => self.note(format!("could not read VmHWM from {status_path}")),
        }
    }

    pub fn layers(&mut self, l: Layers) {
        let mut covered_ms = 0.0;
        for layer in TIMED_LAYERS {
            let agg = l.aggs.get(layer).cloned().unwrap_or_default();
            let self_ms = agg.self_ns as f64 / 1e6;
            covered_ms += self_ms;
            let s = stats::sorted(&agg.call_us);
            let pct = |q| if s.is_empty() { 0.0 } else { stats::percentile(&s, q) };
            let values =
                [agg.calls as f64, self_ms, stats::ratio(self_ms, l.op_ms), pct(0.5), pct(0.99)];
            for ((field, unit), value) in LAYER_FIELDS.iter().zip(values) {
                let name = format!("{layer}.{field}");
                self.metrics.insert(name, Metric { value, unit, samples: None });
            }
        }
        let mut counters = l.counters;
        // A workload whose layers are not all children of its ops (serve)
        // states its own coverage.
        counters.entry("trace.coverage").or_insert(stats::ratio(covered_ms, l.op_ms));
        counters.insert("trace.op_ms", l.op_ms);
        counters.insert("trace.ops", l.ops as f64);
        for (name, unit) in COUNTERS {
            let value = counters.get(name).copied().unwrap_or(0.0);
            self.metrics.insert(name.to_string(), Metric { value, unit, samples: None });
        }
    }

    pub fn checks(&mut self, c: Checks) {
        self.checks = c;
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn out_dir(&self) -> &std::path::Path {
        &self.out_dir
    }

    pub fn spans_path(&self) -> PathBuf {
        self.out_dir.join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }

    /// The metric names this run must print, in order.
    fn expected(&self) -> Vec<(String, &'static str)> {
        if self.trace {
            per_layer()
        } else {
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
        }
    }

    /// Prints the report and the final JSON line, writes the results
    /// file, and says whether every reference matched.
    pub fn finish(self, provenance: &str) -> bool {
        let mut human = String::new();
        let _ = writeln!(
            human,
            "nfbench {} seed={} trace={} {provenance}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        let mut json_metrics = Vec::new();
        let mut harness_ok = true;
        for (name, unit) in self.expected() {
            let Some(m) = self.metrics.get(&name) else {
                let _ = writeln!(human, "  {name:<40} MISSING");
                harness_ok = false;
                continue;
            };
            debug_assert_eq!(m.unit, unit, "{name}");
            let samples = match m.samples {
                Some(n) => format!("  (n={n})"),
                None => String::new(),
            };
            let _ = writeln!(human, "  {name:<40} {:>16.6} {unit}{samples}", m.value);
            json_metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(m.value)
            ));
        }
        let c = &self.checks;
        let ratio = stats::ratio(c.failed as f64, c.attempted as f64);
        let _ = writeln!(
            human,
            "  {:<40} {:>16.6} ratio  ({} failed of {} attempted)",
            "failed_ratio", ratio, c.failed, c.attempted
        );
        for m in c.mismatches.iter().take(MAX_PRINTED) {
            let _ = writeln!(human, "  MISMATCH {m}");
        }
        if c.mismatches.len() > MAX_PRINTED {
            let _ = writeln!(human, "  ... and {} more", c.mismatches.len() - MAX_PRINTED);
        }
        for n in &self.notes {
            let _ = writeln!(human, "  note: {n}");
        }
        let correct = harness_ok && c.failed == 0 && c.attempted > 0;
        let json = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            c.attempted,
            c.failed,
            json_metrics.join(",")
        );
        print!("{human}");
        let file = self.out_dir.join(format!(
            "{}-seed{}-trace{}.txt",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        if let Err(e) = std::fs::write(&file, format!("{human}{json}\n")) {
            println!("  note: could not write {}: {e}", file.display());
        }
        println!("{json}");
        correct
    }
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, print as -1 so the line stays valid JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}
