//! `nfbench`: the end-to-end and per-layer benchmark of numfuzz.
//!
//! ```text
//! nfbench --workload verdict|certify|optimize|serve --seed N
//!         --seconds S --trace 0|1 [--numfuzz PATH] [--out-dir DIR] [--tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records spans
//! around every call into a layer and prints the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. See
//! `nfbench/README.md` for the workloads and the layer table.
//!
//! One process runs one workload, so per-process figures such as peak RSS
//! belong to that workload alone; `run.sh --workload all` runs the four in
//! turn, each in its own process.

mod closed;
mod corpus;
mod report;
mod rng;
mod serve;
mod speed;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["verdict", "certify", "optimize", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    numfuzz: Option<PathBuf>,
    out_dir: PathBuf,
    tiny: bool,
}

fn usage() -> String {
    "usage: nfbench --workload verdict|certify|optimize|serve --seed N --seconds S \
     --trace 0|1 [--numfuzz PATH] [--out-dir DIR] [--tiny]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        numfuzz: None,
        out_dir: PathBuf::from(".bench_out"),
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            a.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--numfuzz" => a.numfuzz = Some(PathBuf::from(value)),
            "--out-dir" => a.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(usage());
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err(format!("--seconds must be positive\n{}", usage()));
    }
    Ok(a)
}

/// Seed, commit, core count and compiler of this run.
fn provenance() -> String {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "commit={} nproc={nproc} rustc=\"{}\"",
        cmd("git", &["rev-parse", "--short=12", "HEAD"]),
        cmd("rustc", &["--version"])
    )
}

/// Runs one workload; `Ok(true)` when every answer matched its reference.
fn run_one(a: &Args, provenance: &str) -> Result<bool, String> {
    let workload = a.workload.as_str();
    let mut report = Report::new(workload, a.seed, a.trace, a.out_dir.clone());
    let plan =
        closed::Plan { seconds: a.seconds, generated: if a.tiny { 73 } else { 730 }, tiny: a.tiny };
    match workload {
        "verdict" => closed::run(closed::Kind::Verdict, a.seed, &plan, a.trace, &mut report)?,
        "certify" => {
            // Generated cases differ a lot in cost (a sixth take ~16 ms), so
            // a run draws enough distinct ones that no case repeats.
            let plan = closed::Plan { generated: if a.tiny { 30 } else { 3000 }, ..plan };
            closed::run(closed::Kind::Certify, a.seed, &plan, a.trace, &mut report)?
        }
        "optimize" => closed::run(closed::Kind::Optimize, a.seed, &plan, a.trace, &mut report)?,
        "serve" => {
            let numfuzz = a.numfuzz.as_ref().ok_or("the serve workload needs --numfuzz PATH")?;
            serve::run(numfuzz, a.seed, a.seconds, a.tiny, a.trace, &mut report)?
        }
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(report.finish(provenance))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("nfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    match run_one(&args, &provenance()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            // A harness error prints no result line.
            eprintln!("nfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
