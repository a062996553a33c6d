//! Error-soundness sweep (Corollary 4.20): for every Table 3 kernel and
//! every recorded sample input, run the ideal and floating-point
//! semantics in several formats and modes and *rigorously* check
//! `RP(ideal, fp) <= inferred bound` — one `Analyzer` session per
//! format/mode, one `Program` per benchmark. Also sweeps the Table 5
//! conditionals and a couple of generated Table 4 programs.
//!
//! The Table 3 and Table 5 sweeps are sharded across worker threads
//! (`--jobs N`, default one per core): every worker builds its own
//! sessions — its own arenas — so shards never contend, and per-bench
//! output is collected by input index, so the report reads identically
//! for every job count.
//!
//! Exits nonzero on any violation (none exist; this is the empirical
//! witness to the soundness theorem).

use numfuzz::prelude::*;
use numfuzz_benchsuite::{horner, serial_sum, table3, table5, CondBench, SmallBench};
use numfuzz_core::pool;

/// Tallies from one benchmark's sweep, merged in input order.
struct Outcome {
    report: String,
    runs: usize,
    violations: usize,
    faults: usize,
    worst_slack: f64,
}

/// One fresh session per format/mode combination, arena-private to the
/// calling worker.
fn sessions() -> Vec<Analyzer> {
    let formats = [Format::BINARY64, Format::new(12, 60), Format::new(6, 40)];
    formats
        .iter()
        .flat_map(|&format| {
            RoundingMode::ALL
                .into_iter()
                .map(move |mode| Analyzer::builder().format(format).mode(mode).build())
        })
        .collect()
}

fn sweep_table3(b: &SmallBench, sessions: &[Analyzer]) -> Outcome {
    let program = Program::from_kernel(&b.kernel).expect("translatable");
    let mut outcome = Outcome {
        report: String::new(),
        runs: 0,
        violations: 0,
        faults: 0,
        worst_slack: f64::INFINITY,
    };
    for sample in &b.samples {
        let inputs = Inputs::positional(sample.iter().map(|q| Value::num(q.clone())));
        for session in sessions {
            let rep = session.validate(&program, &inputs).unwrap_or_else(|e| {
                panic!("{} {} {}: {e}", b.kernel.name, session.format(), session.mode())
            });
            outcome.runs += 1;
            if rep.fp.is_none() {
                outcome.faults += 1; // over/underflow: Cor. 7.5 is vacuous
            }
            if !rep.holds() {
                outcome.violations += 1;
                outcome.report.push_str(&format!(
                    "VIOLATION: {} sample {sample:?} {} {}\n",
                    b.kernel.name,
                    session.format(),
                    session.mode()
                ));
            }
            if let Some(m) = rep.measured {
                let bound = rep.bound.to_f64();
                if bound > 0.0 && m > 0.0 {
                    outcome.worst_slack = outcome.worst_slack.min(bound / m);
                }
            }
        }
    }
    outcome.report.push_str(&format!(
        "  {:<20} ok ({} samples x {} format/mode combos)\n",
        b.kernel.name,
        b.samples.len(),
        sessions.len()
    ));
    outcome
}

fn sweep_table5(b: &CondBench, sessions: &[Analyzer]) -> Outcome {
    let program =
        Program::parse_named(b.name, &format!("{}\n{}", b.source, b.sample)).expect("parses");
    let mut outcome = Outcome {
        report: String::new(),
        runs: 0,
        violations: 0,
        faults: 0,
        worst_slack: f64::INFINITY,
    };
    for session in sessions {
        let rep = session.validate(&program, &Inputs::none()).expect("validation harness");
        outcome.runs += 1;
        if !rep.holds() {
            outcome.violations += 1;
            outcome.report.push_str(&format!(
                "VIOLATION: {} {} {}\n",
                b.name,
                session.format(),
                session.mode()
            ));
        }
    }
    outcome.report.push_str(&format!("  {:<20} ok\n", b.name));
    outcome
}

fn main() {
    let mut jobs = 0usize; // one worker per core
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--jobs" => {
                jobs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("validate: --jobs needs a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("validate: unknown option `{other}` (usage: validate [--jobs N])");
                std::process::exit(2);
            }
        }
    }

    fn merge(outcomes: Vec<Outcome>, tally: &mut (usize, usize, usize, f64)) {
        for o in outcomes {
            print!("{}", o.report);
            tally.0 += o.runs;
            tally.1 += o.violations;
            tally.2 += o.faults;
            tally.3 = tally.3.min(o.worst_slack);
        }
    }
    let mut tally = (0usize, 0usize, 0usize, f64::INFINITY);

    println!("Error-soundness validation (Cor. 4.20): RP(ideal, fp) <= grade bound\n");

    let t3 = table3();
    let outcomes =
        pool::ordered_map_with(jobs, &t3, |_w| sessions(), |s, _i, b| sweep_table3(b, s));
    merge(outcomes, &mut tally);

    let t5 = table5();
    let outcomes =
        pool::ordered_map_with(jobs, &t5, |_w| sessions(), |s, _i, b| sweep_table5(b, s));
    merge(outcomes, &mut tally);
    let (mut runs, mut violations, faults, worst_slack) = tally;

    // Generated programs: Horner50 at a sample point, SerialSum(64).
    let formats = [Format::BINARY64, Format::new(12, 60), Format::new(6, 40)];
    for g in [horner(50), serial_sum(64)] {
        let program = Program::from_generated(g);
        let name = program.name().expect("named").to_string();
        let inputs =
            Inputs::positional(program.free().iter().map(|_| Value::num(Rational::ratio(7, 2))));
        for format in formats {
            let session =
                Analyzer::builder().format(format).mode(RoundingMode::TowardPositive).build();
            let rep = session.validate(&program, &inputs).expect("validation harness");
            runs += 1;
            if !rep.holds() {
                violations += 1;
                println!("VIOLATION: {name} {format}");
            }
        }
        println!("  {name:<20} ok");
    }

    println!(
        "\n{runs} validations, {violations} violations, {faults} vacuous (over/underflow -> err)."
    );
    if worst_slack.is_finite() {
        println!("tightest observed bound/measured ratio: {worst_slack:.2}x");
    }
    if violations > 0 {
        std::process::exit(1);
    }
}
