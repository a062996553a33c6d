//! The three closed-loop workloads — `verdict`, `certify`, `optimize` —
//! and the loop that drives them: one thread, which starts an op only
//! after the previous one finished.

use crate::corpus::{self, Entry, Expect};
use crate::report::{Checks, Report};
use crate::rng::SplitMix;
use crate::speed::{thread_cpu_s, Speed};
use crate::stats::{self, Latency};
use crate::trace::Tracer;
use numfuzz::core::Ty;
use numfuzz::exact::{RatInterval, Rational};
use numfuzz::optimize::OptimizeConfig;
use numfuzz::prelude::{Analyzer, Inputs};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which closed-loop workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Verdict,
    Certify,
    Optimize,
}

/// The fixed optimizer budget; the committed winners are pinned at it.
pub const OPTIMIZE_BUDGET: usize = 64;

/// Exact winning grades of `numfuzz optimize` at [`OPTIMIZE_BUDGET`] and
/// the default seed; every other Table 1 file keeps its own grade.
const OPTIMIZE_WINNERS: [(&str, &str); 3] =
    [("verhulst", "3*eps"), ("predatorPrey", "4*eps"), ("one_by_sqrtxx", "eps")];

/// Sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seconds: f64,
    /// Distinct generated programs in the corpus.
    pub generated: usize,
    /// The self-test size: `optimize` leaves out `test02_sum8`, whose
    /// 64-candidate search is most of a pass.
    pub tiny: bool,
}

/// Set-up (the corpus build) runs before the first timed op and again
/// after every this many seconds of ops, timed apart from them, so that
/// `setup_s`, a median, samples the machine over the whole run as the op
/// metrics do: on a shared machine, back-to-back set-ups at the start
/// varied by up to 50% from one run to the next.
const SETUP_EVERY_S: f64 = 1.0;

/// The op sequence of a workload: indices into its corpus.
#[derive(Default)]
struct Workload {
    corpus: Vec<Entry>,
    schedule: Vec<usize>,
    /// Ops per complete pass over the schedule (`optimize` runs only
    /// whole passes, so a slow file cannot fall in or out of a run).
    pass: usize,
}

/// Builds the corpus and the seeded schedule. No record of real use
/// exists to take the mixes from; they are chosen, and unverified:
///
/// * `verdict`: blocks of 100 ops — 3 large Table 4 renderings (2 of
///   `serial_sum(5000)`, 1 of `serial_sum(1000)`), 20 Table 1 (each file
///   twice), 4 Table 5, 73 generated — shuffled within the block. Large
///   programs are a few percent of ops, enough to put the p99 inside the
///   `serial_sum(5000)` ops; every committed program appears in every
///   block; generated programs fill the rest because they alone cover
///   both instantiations and every format and rounding mode.
/// * `certify`: blocks of 40 ops — each Table 1 file once, 30 generated.
///   A Table 1 row validates several times slower than a generated case,
///   so three cases per file keep either source from taking nearly all of
///   the validation time.
/// * `optimize`: every Table 1 file once per pass, in a seeded order.
fn build(kind: Kind, seed: u64, plan: &Plan) -> Result<Workload, String> {
    let mut rng = SplitMix::new(seed);
    let table1 = corpus::table1()?;
    let mut corpus = table1.clone();
    let t1: Vec<usize> = (0..table1.len()).collect();
    if kind == Kind::Optimize {
        let mut schedule: Vec<usize> =
            t1.into_iter().filter(|&i| !(plan.tiny && corpus[i].name == "test02_sum8")).collect();
        rng.shuffle(&mut schedule);
        let pass = schedule.len();
        return Ok(Workload { corpus, schedule, pass });
    }
    let first_gen = corpus.len();
    corpus.extend((0..plan.generated).map(|i| corpus::generated(seed, i)));
    let generated: Vec<usize> = (first_gen..corpus.len()).collect();
    let mut t5 = Vec::new();
    let mut large = Vec::new();
    if kind == Kind::Verdict {
        let start = corpus.len();
        corpus.extend(corpus::table5());
        t5 = (start..corpus.len()).collect();
        let start = corpus.len();
        corpus.extend(corpus::table4_large());
        large = (start..corpus.len()).collect();
    }
    let blocks = plan.generated.div_ceil(if kind == Kind::Verdict { 73 } else { 30 });
    let mut gen_order = generated.clone();
    rng.shuffle(&mut gen_order);
    let mut gen_iter = gen_order.iter().copied().cycle();
    let mut schedule = Vec::new();
    for _ in 0..blocks.max(1) {
        let mut block: Vec<usize> = Vec::new();
        match kind {
            Kind::Verdict => {
                block.extend([large[0], large[0], large[1]]);
                block.extend(t1.iter().chain(&t1).copied());
                block.extend(&t5);
                block.extend(gen_iter.by_ref().take(73));
            }
            Kind::Certify => {
                block.extend(&t1);
                block.extend(gen_iter.by_ref().take(30));
            }
            Kind::Optimize => unreachable!("handled above"),
        }
        rng.shuffle(&mut block);
        schedule.extend(block);
    }
    let pass = schedule.len();
    Ok(Workload { corpus, schedule, pass })
}

/// Per-op facts the per-layer counters need.
#[derive(Default)]
struct OpFacts {
    src_bytes: u64,
    nodes: u64,
    backward_rejected: u64,
    interval_abstained: u64,
    vacuous: u64,
    candidates: u64,
    certified: u64,
    rejected_check: u64,
    rejected_interval: u64,
    rejected_oracle: u64,
}

/// Runs one op; `Err` is a mismatch against the reference answer (or a
/// harness error), which fails the op.
fn run_op(kind: Kind, e: &Entry, t: &mut Tracer, f: &mut OpFacts) -> Result<(), String> {
    match kind {
        Kind::Verdict => verdict(e, t, f),
        Kind::Certify => certify(e, t, f),
        Kind::Optimize => optimize(e, t, f),
    }
}

/// One program as `numfuzz check`/`bound [--backward]` run it, in a
/// fresh session.
fn verdict(e: &Entry, t: &mut Tracer, f: &mut OpFacts) -> Result<(), String> {
    let analyzer = e.session.analyzer();
    let program = t.layer("core.parse", || analyzer.parse_named(&e.name, &e.src));
    let program = program.map_err(|d| format!("parse: {}", d.code.as_str()))?;
    f.src_bytes += e.src.len() as u64;
    f.nodes += program.store().len() as u64;
    let typed = t.layer("core.check", || analyzer.check(&program));
    let typed = typed.map_err(|d| format!("check: {}", d.code.as_str()))?;
    e.expect.check(&typed.grade().ok_or("root type has no grade")?.to_string())?;
    let bound = t.layer("core.bound", || analyzer.bound(&typed));
    bound.map_err(|d| format!("bound: {}", d.code.as_str()))?;
    let backward = t.layer("core.backward", || {
        analyzer.check_backward(&program).and_then(|b| analyzer.bound_backward(&b))
    });
    match backward {
        Ok(_) => Ok(()),
        // Bean's strict linearity rejects many forward programs: a
        // spanned E05xx rejection is an answer, not a failure.
        Err(d) if d.code.as_str().starts_with("E05") => {
            f.backward_rejected += 1;
            Ok(())
        }
        Err(d) => Err(format!("backward: {}", d.code.as_str())),
    }
}

/// One differential row: check → bound → interval engine → validate.
fn certify(e: &Entry, t: &mut Tracer, f: &mut OpFacts) -> Result<(), String> {
    let analyzer = e.session.analyzer();
    let program = t.layer("core.parse", || analyzer.parse_named(&e.name, &e.src));
    let program = program.map_err(|d| format!("parse: {}", d.code.as_str()))?;
    f.src_bytes += e.src.len() as u64;
    f.nodes += program.store().len() as u64;
    let typed = t.layer("core.check", || analyzer.check(&program));
    let typed = typed.map_err(|d| format!("check: {}", d.code.as_str()))?;
    e.expect.check(&typed.grade().ok_or("root type has no grade")?.to_string())?;
    let bound = t.layer("core.bound", || analyzer.bound(&typed));
    bound.map_err(|d| format!("bound: {}", d.code.as_str()))?;
    let interval = match &e.principal {
        Some(name) => {
            let f = typed.function(name).ok_or_else(|| format!("no function `{name}`"))?;
            let mut arity = 0;
            let mut ty = &f.assigned;
            while let Ty::Lolli(_, cod) = ty {
                arity += 1;
                ty = cod;
            }
            let range = RatInterval::new(Rational::ratio(1, 10), Rational::ratio(1000, 1));
            let ranges = vec![range; arity];
            t.layer("bounds.interval", || analyzer.bound_interval_fn(&program, name, &ranges))
        }
        None => t.layer("bounds.interval", || analyzer.bound_interval(&program)),
    };
    match (&interval, &e.principal) {
        (Ok(_), _) => {}
        // Every Table 1 row has an interval bound (`numfuzz table1`).
        (Err(d), Some(_)) => return Err(format!("interval: {}", d.code.as_str())),
        // Generated programs may fall outside the engine's fragment.
        (Err(_), None) => f.interval_abstained += 1,
    }
    let report = t.layer("interp.validate", || analyzer.validate(&program, &Inputs::none()));
    let report = report.map_err(|d| format!("validate: {}", d.code.as_str()))?;
    if !report.holds() {
        return Err(format!("Cor. 4.20 violated: grade {}", report.grade));
    }
    if report.fp.is_none() {
        f.vacuous += 1;
    }
    if let Some(want) = &e.ideal {
        if report.ideal.as_point() != Some(want) {
            return Err(format!("ideal {:?} != reference {want}", report.ideal));
        }
    }
    Ok(())
}

/// `Analyzer::optimize` on one Table 1 file.
fn optimize(e: &Entry, t: &mut Tracer, f: &mut OpFacts) -> Result<(), String> {
    let analyzer = Analyzer::new();
    let program = t.layer("core.parse", || analyzer.parse_named(&e.name, &e.src));
    let program = program.map_err(|d| format!("parse: {}", d.code.as_str()))?;
    f.src_bytes += e.src.len() as u64;
    f.nodes += program.store().len() as u64;
    let cfg = OptimizeConfig { budget: OPTIMIZE_BUDGET, ..OptimizeConfig::default() };
    let outcome = t.layer("optimize.search", || analyzer.optimize(&program, &cfg));
    let o = outcome.map_err(|d| format!("optimize: {}", d.code.as_str()))?;
    f.candidates += o.evaluated as u64;
    f.certified += o.certified as u64;
    f.rejected_check += o.rejected_check as u64;
    f.rejected_interval += o.rejected_interval as u64;
    f.rejected_oracle += o.rejected_oracle as u64;
    let Expect::Grade(orig) = &e.expect else { unreachable!("Table 1 entries pin a grade") };
    let want = OPTIMIZE_WINNERS.iter().find(|(n, _)| *n == e.name).map_or(orig.as_str(), |w| w.1);
    if o.original.grade != *orig || o.best.grade != want {
        return Err(format!(
            "optimize {} -> {} != reference {orig} -> {want}",
            o.original.grade, o.best.grade
        ));
    }
    Ok(())
}

/// Latencies and outcome counts of one phase.
#[derive(Default)]
struct Phase {
    /// Wall-clock latency of each op, in op order.
    latencies_ms: Vec<f64>,
    /// Each op's thread CPU time at reference speed (see [`crate::speed`]).
    ref_ms: Vec<f64>,
    /// The corpus entry of each op.
    entries: Vec<usize>,
    /// Start of each op, in seconds on the [`Speed`] clock.
    starts_s: Vec<f64>,
    /// Wall time of the ops and the harness between them, without set-up
    /// and speed samples.
    wall_s: f64,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    facts: OpFacts,
}

impl Phase {
    /// Seconds of op CPU time at reference speed.
    fn ref_s(&self) -> f64 {
        self.ref_ms.iter().sum::<f64>() / 1e3
    }
}

/// Repeated set-ups during a phase.
struct Setups<'a> {
    build: &'a dyn Fn() -> Result<Workload, String>,
    /// (start on the [`Speed`] clock, wall time, thread CPU time) of each
    /// set-up, in seconds.
    samples_s: Vec<(f64, f64, f64)>,
}

impl Setups<'_> {
    /// Times `build` and makes it the current workload.
    fn run(&mut self, speed: &Speed) -> Result<Workload, String> {
        let (t0, cpu0) = (Instant::now(), thread_cpu_s());
        let w = (self.build)()?;
        let cpu = thread_cpu_s() - cpu0;
        self.samples_s.push((speed.at(t0), t0.elapsed().as_secs_f64(), cpu));
        Ok(w)
    }

    /// Each set-up's CPU time at reference speed.
    fn ref_s(&self, speed: &Speed) -> Vec<f64> {
        self.samples_s
            .iter()
            .map(|&(at, wall, cpu)| speed.at_reference(cpu, at, at + wall))
            .collect()
    }
}

/// One `optimize` pass over the ten Table 1 files takes about this long
/// at reference speed.
const OPTIMIZE_PASS_S: f64 = 8.0;

/// How long a phase of `seconds` runs: until that much op time has passed
/// (`(seconds, usize::MAX)`), or for `optimize` a fixed number of whole
/// passes — `seconds` over [`OPTIMIZE_PASS_S`], rounded, at least two — so
/// that every run does the same work and gives each file the same number
/// of samples.
fn extent(kind: Kind, w: &Workload, seconds: f64) -> (f64, usize) {
    if kind == Kind::Optimize {
        let passes = (seconds / OPTIMIZE_PASS_S).round().max(2.0) as usize;
        (f64::INFINITY, passes * w.pass)
    } else {
        (seconds, usize::MAX)
    }
}

/// Runs ops from `schedule` until `seconds` of ops have passed or `limit`
/// ops are done. With `setups` it rebuilds `w` every [`SETUP_EVERY_S`]
/// seconds of ops; set-up time counts in neither `seconds` nor the phase's
/// wall time. Between ops it samples the machine's speed, and reports
/// every op's latency at reference speed as well as measured.
fn run_phase(
    kind: Kind,
    w: &mut Workload,
    (seconds, limit): (f64, usize),
    t: &mut Tracer,
    speed: &mut Speed,
    mut setups: Option<&mut Setups>,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let start = Instant::now();
    // Set-up and speed samples, kept out of the phase's time.
    let spent_before = speed.spent_s;
    let mut setup_s = 0.0;
    let paused = |setup_s: f64, speed: &Speed| setup_s + speed.spent_s - spent_before;
    let mut next_setup_s = SETUP_EVERY_S;
    let mut cpu_ms = Vec::new();
    let mut done = 0usize;
    while done < limit {
        let elapsed = start.elapsed().as_secs_f64() - paused(setup_s, speed);
        if elapsed >= seconds && done > 0 {
            break;
        }
        if let Some(s) = setups.as_deref_mut().filter(|_| elapsed >= next_setup_s) {
            // The measured corpus goes first, as before the first set-up.
            *w = Workload::default();
            let t0 = Instant::now();
            *w = s.run(speed)?;
            setup_s += t0.elapsed().as_secs_f64();
            next_setup_s = elapsed + SETUP_EVERY_S;
        }
        speed.between_ops();
        let entry = w.schedule[done % w.schedule.len()];
        let e = &w.corpus[entry];
        let (t0, cpu0) = (Instant::now(), thread_cpu_s());
        t.begin_op();
        let r = run_op(kind, e, t, &mut p.facts);
        t.end_op();
        cpu_ms.push((thread_cpu_s() - cpu0) * 1e3);
        p.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        p.starts_s.push(speed.at(t0));
        p.entries.push(entry);
        p.attempted += 1;
        if let Err(m) = r {
            p.failed += 1;
            p.mismatches.push(format!("{}: {m}", e.name));
        }
        done += 1;
    }
    // The speed samples that close the last op's window.
    speed.sample(1);
    p.wall_s = start.elapsed().as_secs_f64() - paused(setup_s, speed);
    p.ref_ms = (0..cpu_ms.len())
        .map(|i| {
            let at = p.starts_s[i];
            speed.at_reference(cpu_ms[i], at, at + p.latencies_ms[i] / 1e3)
        })
        .collect();
    Ok(p)
}

/// The median over corpus entries of each entry's median latency.
fn median_of_entry_medians(p: &Phase, latencies_ms: &[f64]) -> f64 {
    let mut by_entry: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (&entry, &ms) in p.entries.iter().zip(latencies_ms) {
        by_entry.entry(entry).or_default().push(ms);
    }
    let medians: Vec<f64> = by_entry.values().map(|v| stats::median(v)).collect();
    stats::median(&medians)
}

/// Runs a closed-loop workload and fills `report`.
pub fn run(
    kind: Kind,
    seed: u64,
    plan: &Plan,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let rebuild = || build(kind, seed, plan);
    let mut speed = Speed::new();
    let mut setups = Setups { build: &rebuild, samples_s: Vec::new() };
    let mut w = setups.run(&speed)?;
    speed.sample(5);
    // One untimed answer (the first Table 1 file) pays the one-time costs
    // — allocator growth, page faults — that the timed ops should not.
    let first = &w.corpus[0];
    run_op(kind, first, &mut Tracer::new(false), &mut OpFacts::default())
        .map_err(|m| format!("warm-up {}: {m}", first.name))?;
    let mut checks = Checks::default();

    if !trace {
        let mut off = Tracer::new(false);
        let extent = extent(kind, &w, plan.seconds);
        let p = run_phase(kind, &mut w, extent, &mut off, &mut speed, Some(&mut setups))?;
        report.peak_rss("/proc/self/status");
        // Thread CPU times at reference speed are the metrics; the wall-clock
        // figures follow as notes.
        let mut l = Latency::of_ms(&p.ref_ms);
        let mut wall = Latency::of_ms(&p.latencies_ms);
        if kind == Kind::Optimize {
            // `optimize` runs each of its ten files once a pass, two or
            // three passes a run: a plain p50 is one run of the middle
            // file, so one slow run moves it. Its p50 is the median over
            // files of each file's median latency instead.
            l.p50_ms = median_of_entry_medians(&p, &p.ref_ms);
            wall.p50_ms = median_of_entry_medians(&p, &p.latencies_ms);
        }
        report.setup(&setups.ref_s(&speed));
        report.metric("ops_per_s", p.attempted as f64 / p.ref_s(), "1/s", p.attempted);
        report.latency("latency", &l);
        // A one-thread closed loop always runs at its own capacity: it has
        // no lighter or busier offered rate, so its busy latency is the
        // same figure.
        report.metric("busy_latency_p50_ms", l.p50_ms, "ms", l.samples as u64);
        checks.count(p.attempted, p.failed);
        for m in &p.mismatches {
            checks.mismatch(m);
        }
        let s = stats::sorted(&p.ref_ms);
        let q = |x| stats::percentile(&s, x);
        report.note(format!(
            "{} ops in {:.3} s of op CPU time at reference speed; latency ms p90 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
            p.attempted,
            p.ref_s(),
            q(0.9),
            q(0.95),
            q(0.99),
            q(1.0)
        ));
        let raw: Vec<f64> = setups.samples_s.iter().map(|&(_, wall, _)| wall).collect();
        report.note(format!(
            "wall clock: {} ops in {:.3} s ({:.3} ops/s), latency p50 {:.4} ms p99 {:.4} ms, set-up median {:.6} s",
            p.attempted,
            p.wall_s,
            p.attempted as f64 / p.wall_s,
            wall.p50_ms,
            wall.p99_ms,
            stats::median(&raw)
        ));
    } else {
        // Untraced, then the same ops traced: the difference is the
        // tracing overhead. Each pass gets half of `--seconds`.
        let mut off = Tracer::new(false);
        let extent = extent(kind, &w, plan.seconds / 2.0);
        let plain = run_phase(kind, &mut w, extent, &mut off, &mut speed, None)?;
        let mut on = Tracer::new(true);
        let same_ops = (f64::INFINITY, plain.attempted as usize);
        let traced = run_phase(kind, &mut w, same_ops, &mut on, &mut speed, None)?;
        checks.count(plain.attempted + traced.attempted, plain.failed + traced.failed);
        for m in plain.mismatches.iter().chain(&traced.mismatches) {
            checks.mismatch(m);
        }
        let f = &traced.facts;
        let mut layers = crate::report::Layers::from_tracer(&on);
        // At reference speed, so that a change in the machine's speed
        // between the two passes does not read as overhead.
        layers.overhead(traced.ref_s(), plain.ref_s());
        let parse_s = layers.total_ms("core.parse") / 1e3;
        let check_s = layers.total_ms("core.check") / 1e3;
        let search_s = layers.total_ms("optimize.search") / 1e3;
        layers.counter("core.parse.mb_per_s", stats::ratio(f.src_bytes as f64 / 1e6, parse_s));
        layers.counter("core.check.nodes_per_s", stats::ratio(f.nodes as f64, check_s));
        layers.counter("core.backward.rejected", f.backward_rejected as f64);
        layers.counter("bounds.interval.abstained", f.interval_abstained as f64);
        layers.counter("interp.validate.vacuous", f.vacuous as f64);
        layers.counter("optimize.search.candidates", f.candidates as f64);
        layers.counter(
            "optimize.search.candidates_per_s",
            stats::ratio(f.candidates as f64, search_s),
        );
        layers.counter("optimize.search.certified", f.certified as f64);
        layers.counter(
            "optimize.search.certified_ratio",
            stats::ratio(f.certified as f64, f.candidates as f64),
        );
        layers.counter("optimize.search.rejected_check", f.rejected_check as f64);
        layers.counter("optimize.search.rejected_interval", f.rejected_interval as f64);
        layers.counter("optimize.search.rejected_oracle", f.rejected_oracle as f64);
        report.layers(layers);
        if let Err(e) = on.write_jsonl(&report.spans_path()) {
            report.note(format!("could not write spans: {e}"));
        }
    }
    report.note(speed.summary());
    report.checks(checks);
    Ok(())
}
