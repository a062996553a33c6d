//! The `numfuzz` command-line interface, built on the
//! [`Analyzer`]/[`Program`] facade.
//!
//! ```text
//! numfuzz check FILE [options]       type-check a Λnum program
//!     --backward     backward-error mode: Bean's strictly linear
//!                    judgment, one backward-error grade per input
//! numfuzz bound FILE [options]       print the eq. (8) error bound of
//!                                    every function (and the program);
//!                                    with --backward, the numeric
//!                                    per-input backward bounds
//! numfuzz run   FILE [options]       run ideal + floating-point
//!                                    semantics and verify the bound
//! numfuzz batch DIR [options]        check + bound every .nf file under
//!                                    DIR concurrently (ordered output)
//! numfuzz watch FILE [options]       live re-check: poll FILE and, on
//!                                    every change, re-type it through a
//!                                    session-persistent judgment cache,
//!                                    printing diagnostics / eq. (8)
//!                                    bounds plus reused/recomputed
//!                                    judgment counts
//!     --poll-ms N    poll interval in milliseconds (default 100)
//!     --iterations N stop after N rechecks (default 0 = watch forever)
//! numfuzz serve [serve options]      resident NDJSON analysis service
//!                                    with a content-addressed result
//!                                    cache (see docs/serve.md)
//! numfuzz client --connect HOST:PORT pipe NDJSON requests from stdin to
//!                                    a serving `numfuzz serve --listen`
//! numfuzz loadgen [loadgen options]  deterministic mixed-traffic load
//!                                    harness against a serve event loop
//!                                    (self-spawned unless --connect),
//!                                    emits BENCH_serve.json
//! numfuzz table1 [--dir DIR]         differential bound verification over
//!                                    the committed Table 1 corpus
//!                                    (benches/table1/*.nf): bound every
//!                                    benchmark with BOTH the typing
//!                                    judgment and the independent
//!                                    interval engine, check the true
//!                                    error at the sample point against
//!                                    both, and print a tightness +
//!                                    wall-time comparison table
//! numfuzz optimize FILE [opts]       search sound algebraic rewrites (and,
//!                                    with --precision-search, per-program
//!                                    precision assignments) minimizing the
//!                                    typed error bound under an op-count
//!                                    cost model; every candidate re-checks
//!                                    through the full pipeline (type check,
//!                                    eq. 8 bound, interval cross-check,
//!                                    exact-oracle spot validation)
//!     --budget N     rewrite candidates to evaluate (default 192)
//!     --seed S       candidate-shuffle seed (default 42)
//!     --precision-search  also rank the fuzzer's format palette
//!     --target-rel R relative-error target for the precision search
//!                    (a rational like 1/100000; default: the original
//!                    program's bound at the session format)
//!     --out FILE     write the rewritten .nf program to FILE
//! numfuzz bench [bench options]      measure check+bound throughput over
//!                                    the benchsuite corpus, emit JSON
//!     --prec P       precision bits, 2..=237 (default 53)
//!     --emax E       maximum exponent, 1..=262143 (default 1023)
//!     --mode M       ru | rd | rz | rn (default ru)
//!     --abs          absolute-error instantiation (default: relative)
//!     --jobs N       batch/serve: worker threads (0 = one per core, the
//!                    default)
//! serve options:
//!     --listen ADDR  serve over TCP on ADDR (e.g. 127.0.0.1:7878; port 0
//!                    picks a free port, printed to stderr). Default:
//!                    stdin/stdout framing
//!     --cache-bytes N  result-cache byte budget (default 64 MiB)
//!     --cache-file F   persist the reply cache to F (atomic rename) at
//!                      shutdown and restore it at startup, so a restarted
//!                      server answers repeated programs from the snapshot
//!                      without re-analysis
//!     --cache-file-cap N  compact the snapshot to at most N bytes at
//!                      write time, dropping least-recently-used replies
//!                      first (default 8 MiB)
//!     --idle-ms N    close a TCP connection after N ms without traffic
//!                    (default 300000)
//!     --max-pending N  per-tenant admission limit: requests in flight
//!                    before new ones are rejected with EBUSY (default 64)
//! loadgen options:
//!     --connect HOST:PORT  drive an already-running server (default:
//!                    spawn an in-process server on a loopback port)
//!     --connections N  concurrent connections (default 4)
//!     --requests M   requests per connection (default 25)
//!     --seed S       stream seed; same seed, same byte-identical request
//!                    stream (default 42)
//!     --out FILE     JSON report path (default BENCH_serve.json)
//!     --gate F       compare requests_per_sec against report F and exit 1
//!                    on regression beyond the tolerance
//!     --tolerance P  allowed regression percentage for --gate (default 75
//!                    — latency-bound, noisy on small containers)
//! bench options:
//!     --iters N      corpus passes to time, best-of-N (default 5)
//!     --out FILE     where to write the JSON report (default
//!                    BENCH_core.json; relative paths resolve against the
//!                    current directory, and the resolved path is printed)
//!     --baseline F   a previous report; its nodes_per_sec is embedded and
//!                    a speedup factor computed
//!     --gate F       compare cold check+bound throughput against report F
//!                    and exit 1 on regression beyond the tolerance
//!     --tolerance P  allowed regression percentage for --gate (default 40)
//!     --gate-incremental R  exit 1 unless this run's single-leaf-edit
//!                    recheck replayed at least ratio R of its judgments
//!                    (machine-independent, so no baseline file is needed)
//! ```
//!
//! Exit codes: `0` success, `1` the program is ill-typed / violates its
//! bound (a *program* error, printed as a spanned diagnostic) — or, for
//! `bench --gate`, a throughput regression, `2` usage or I/O error.

use numfuzz::prelude::*;
use std::process::ExitCode;

/// Exit code for ill-typed / failing programs.
const EXIT_PROGRAM: u8 = 1;
/// Exit code for usage and I/O errors.
const EXIT_USAGE: u8 = 2;

enum Failure {
    /// The analyzed program is at fault: spanned diagnostic, exit 1.
    Program(Diagnostic),
    /// Some programs of a batch failed (their diagnostics were already
    /// printed): summary message, exit 1.
    Batch(String),
    /// The invocation is at fault: message + usage, exit 2.
    Usage(String),
}

impl From<Diagnostic> for Failure {
    fn from(d: Diagnostic) -> Self {
        if d.code.is_program_error() {
            Failure::Program(d)
        } else {
            // Bad inputs / mismatched sessions are invocation problems,
            // not defects in the analyzed program.
            Failure::Usage(d.to_string())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Program(d)) => {
            eprintln!("{}", d.render());
            ExitCode::from(EXIT_PROGRAM)
        }
        Err(Failure::Batch(msg)) => {
            eprintln!("numfuzz: {msg}");
            ExitCode::from(EXIT_PROGRAM)
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("numfuzz: {msg}");
            eprintln!("{}", usage());
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), Failure> {
    let (cmd, rest) = args.split_first().ok_or_else(|| Failure::Usage("missing command".into()))?;
    match cmd.as_str() {
        "check" => {
            let (program, analyzer, backward) = load(rest)?;
            check(&program, &analyzer, backward)
        }
        "bound" => {
            let (program, analyzer, backward) = load(rest)?;
            bound(&program, &analyzer, backward)
        }
        "run" => {
            let (program, analyzer, backward) = load(rest)?;
            if backward {
                return Err(Failure::Usage(
                    "`run` has no --backward mode (the backward judgment is static)".into(),
                ));
            }
            run(&program, &analyzer)
        }
        "batch" => batch(rest),
        "optimize" => optimize(rest),
        "table1" => table1(rest),
        "watch" => watch(rest),
        "bench" => bench(rest),
        "fuzz" => fuzz(rest),
        "serve" => serve(rest),
        "client" => client(rest),
        "loadgen" => loadgen(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(Failure::Usage(format!("unknown command `{other}`"))),
    }
}

fn usage() -> String {
    "usage: numfuzz <check|bound> FILE [--backward] [--prec P] [--emax E] [--mode ru|rd|rz|rn] [--abs]\n\
     \x20      numfuzz run FILE [--prec P] [--emax E] [--mode ru|rd|rz|rn] [--abs]\n\
     \x20      numfuzz batch DIR [--backward] [--jobs N] [--prec P] [--emax E] [--mode ru|rd|rz|rn] [--abs]\n\
     \x20      numfuzz watch FILE [--poll-ms N] [--iterations N] [--backward] [--prec P] [--emax E] [--mode M] [--abs]\n\
     \x20      numfuzz serve [--listen ADDR] [--jobs N] [--cache-bytes N] [--cache-file F] [--cache-file-cap N] [--idle-ms N] [--max-pending N] [--prec P] [--emax E] [--mode M] [--abs]\n\
     \x20      numfuzz client --connect HOST:PORT [--retry SECONDS]\n\
     \x20      numfuzz loadgen [--connect HOST:PORT] [--connections N] [--requests M] [--seed S] [--jobs N] [--out FILE] [--gate FILE] [--tolerance P]\n\
     \x20      numfuzz bench [--iters N] [--out FILE] [--baseline FILE] [--gate FILE] [--tolerance P] [--gate-incremental R]\n\
     \x20      numfuzz optimize FILE [--budget N] [--seed S] [--jobs J] [--precision-search] [--target-rel R] [--out FILE] [--prec P] [--emax E] [--mode M]\n\
     \x20      numfuzz table1 [--dir DIR] [--prec P] [--emax E] [--mode ru|rd|rz|rn]\n\
     \x20      numfuzz fuzz [--backward] [--incremental] [--cases N] [--seed S] [--jobs N] [--repro PREFIX]"
        .to_string()
}

/// `numfuzz serve`: the resident analysis service — NDJSON over stdio by
/// default, over TCP with `--listen`. Every connection gets a forked
/// session; all sessions share one content-addressed result cache, so
/// repeated programs — within a connection, across connections, inside
/// `batch` requests — are analyzed once. Protocol: `docs/serve.md`.
fn serve(rest: &[String]) -> Result<(), Failure> {
    let mut listen: Option<String> = None;
    let mut cache_bytes: usize = 64 << 20;
    let mut config = numfuzz::serve::ServeConfig::default();
    let mut passthrough = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| Failure::Usage(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--listen" => listen = Some(value("--listen")?),
            "--cache-bytes" => {
                cache_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|e| Failure::Usage(format!("--cache-bytes: {e}")))?;
            }
            "--cache-file" => {
                config.cache_file = Some(std::path::PathBuf::from(value("--cache-file")?));
            }
            "--cache-file-cap" => {
                config.cache_file_cap = value("--cache-file-cap")?
                    .parse()
                    .map_err(|e| Failure::Usage(format!("--cache-file-cap: {e}")))?;
            }
            "--idle-ms" => {
                let ms: u64 = value("--idle-ms")?
                    .parse()
                    .map_err(|e| Failure::Usage(format!("--idle-ms: {e}")))?;
                config.idle_timeout = std::time::Duration::from_millis(ms);
            }
            "--max-pending" => {
                config.max_pending = value("--max-pending")?
                    .parse()
                    .map_err(|e| Failure::Usage(format!("--max-pending: {e}")))?;
                if config.max_pending == 0 {
                    return Err(Failure::Usage("--max-pending must be at least 1".into()));
                }
            }
            other => passthrough.push(other.to_string()),
        }
    }
    let (opts, jobs) = parse_opts_with_jobs(&passthrough).map_err(Failure::Usage)?;
    if opts.backward {
        return Err(Failure::Usage(
            "serve has no --backward flag; set \"mode\": \"backward\" per request instead".into(),
        ));
    }
    let jobs = jobs.unwrap_or(0); // serve defaults to one worker per core
    config.persist_budget = cache_bytes;
    // Test-only fault-injection ops (docs/serve.md): environment-gated so
    // no production request stream can trip them by accident.
    config.debug_ops = std::env::var("NUMFUZZ_SERVE_DEBUG_OPS").as_deref() == Ok("1");
    let analyzer = Analyzer::builder()
        .signature(opts.instantiation)
        .format(opts.format)
        .mode(opts.mode)
        .cache(AnalysisCache::with_budget(cache_bytes))
        // The judgment-level cache behind the `edit` op: sub-term results
        // persist across requests and connections, so an edited program
        // only recomputes the spine from the edit to the root. Same byte
        // budget as the whole-program cache.
        .judgment_cache_bytes(cache_bytes)
        .build();
    let service = std::sync::Arc::new(numfuzz::serve::Service::with_config(analyzer, jobs, config));
    let result = match listen {
        Some(addr) => numfuzz::serve::serve_tcp(&service, &addr),
        None => numfuzz::serve::serve_stdio(&service),
    };
    result.map_err(|e| Failure::Usage(format!("serve: {e}")))
}

/// `numfuzz client`: pipe NDJSON request lines from stdin to a serving
/// `numfuzz serve --listen`, one response line per request to stdout.
/// Exits with the worst `exit` field seen in a response.
fn client(rest: &[String]) -> Result<(), Failure> {
    let mut connect: Option<String> = None;
    let mut retry = std::time::Duration::from_secs(10);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect").map_err(Failure::Usage)?),
            "--retry" => {
                retry = value("--retry")
                    .and_then(|v| v.parse().map_err(|e| format!("--retry: {e}")))
                    .and_then(|secs| {
                        std::time::Duration::try_from_secs_f64(secs)
                            .map_err(|e| format!("--retry {secs}: {e}"))
                    })
                    .map_err(Failure::Usage)?
            }
            other => return Err(Failure::Usage(format!("unknown option `{other}`"))),
        }
    }
    let addr = connect.ok_or_else(|| Failure::Usage("client needs --connect HOST:PORT".into()))?;
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    let worst = numfuzz::serve::client(&addr, retry, &mut stdin.lock(), &mut stdout)
        .map_err(|e| Failure::Usage(format!("client: {e}")))?;
    match worst {
        0 => Ok(()),
        1 => Err(Failure::Batch("a request failed with a program error".into())),
        _ => Err(Failure::Usage("a request failed with a protocol/usage error".into())),
    }
}

/// `numfuzz loadgen`: the deterministic mixed-traffic harness behind
/// `BENCH_serve.json`. Without `--connect` it spawns an in-process serve
/// event loop on a loopback port, drives it, and shuts it down; the
/// committed report is gated in CI like `BENCH_core.json` (throughput
/// tolerance band, plus hard zero-tolerance on dropped connections and
/// verdict flips).
fn loadgen(rest: &[String]) -> Result<(), Failure> {
    let mut connect: Option<String> = None;
    let mut connections = 4usize;
    let mut requests = 25usize;
    let mut seed = 42u64;
    let mut jobs = 0usize;
    let mut out = "BENCH_serve.json".to_string();
    let mut gate: Option<String> = None;
    let mut tolerance = 75.0f64;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--connect" => connect = Some(value("--connect").map_err(Failure::Usage)?),
            "--connections" => {
                connections = value("--connections")
                    .and_then(|v| v.parse().map_err(|e| format!("--connections: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--requests" => {
                requests = value("--requests")
                    .and_then(|v| v.parse().map_err(|e| format!("--requests: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--seed" => {
                seed = value("--seed")
                    .and_then(|v| v.parse().map_err(|e| format!("--seed: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--jobs" => {
                jobs = value("--jobs")
                    .and_then(|v| v.parse().map_err(|e| format!("--jobs: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--out" => out = value("--out").map_err(Failure::Usage)?,
            "--gate" => gate = Some(value("--gate").map_err(Failure::Usage)?),
            "--tolerance" => {
                tolerance = value("--tolerance")
                    .and_then(|v| v.parse().map_err(|e| format!("--tolerance: {e}")))
                    .map_err(Failure::Usage)?
            }
            other => return Err(Failure::Usage(format!("unknown option `{other}`"))),
        }
    }
    if connections == 0 || requests == 0 {
        return Err(Failure::Usage("--connections and --requests must be at least 1".into()));
    }
    if !(0.0..100.0).contains(&tolerance) {
        return Err(Failure::Usage("--tolerance must be in [0, 100)".into()));
    }
    let out_path = std::env::current_dir()
        .map(|cwd| cwd.join(&out))
        .map_err(|e| Failure::Usage(format!("cannot resolve current directory: {e}")))?;

    let report = match connect {
        Some(addr) => numfuzz::loadgen::run(&addr, connections, requests, seed),
        None => {
            // Self-spawned server: the same construction as `numfuzz
            // serve`, on an ephemeral loopback port, torn down with a
            // shutdown request once the run completes (success or not).
            let analyzer = Analyzer::builder()
                .cache(AnalysisCache::with_budget(64 << 20))
                .judgment_cache_bytes(64 << 20)
                .build();
            let service = std::sync::Arc::new(numfuzz::serve::Service::new(analyzer, jobs));
            let listener = std::net::TcpListener::bind("127.0.0.1:0")
                .map_err(|e| Failure::Usage(format!("loadgen: cannot bind loopback: {e}")))?;
            let addr = listener
                .local_addr()
                .map_err(|e| Failure::Usage(format!("loadgen: {e}")))?
                .to_string();
            let server = {
                let service = std::sync::Arc::clone(&service);
                std::thread::spawn(move || numfuzz::serve::serve_listener(&service, listener))
            };
            let result = numfuzz::loadgen::run(&addr, connections, requests, seed);
            loadgen_shutdown(&addr);
            let _ = server.join();
            result
        }
    }
    .map_err(|e| Failure::Usage(format!("loadgen: {e}")))?;

    let json = report.to_json();
    std::fs::write(&out_path, &json)
        .map_err(|e| Failure::Usage(format!("{}: {e}", out_path.display())))?;
    print!("{json}");
    eprintln!("report written: {}", out_path.display());
    eprintln!(
        "loadgen: {} requests over {} connections: p50 {:.2} ms, p99 {:.2} ms, \
         {:.0} req/s, {} dropped",
        report.total_requests,
        report.connections,
        report.p50_ms,
        report.p99_ms,
        report.requests_per_sec,
        report.dropped_connections
    );
    // Correctness is never inside the tolerance band: a dropped
    // connection or a verdict flip fails the run outright.
    if report.dropped_connections > 0 {
        return Err(Failure::Batch(format!(
            "{} connection(s) dropped mid-stream",
            report.dropped_connections
        )));
    }
    if report.unexpected_errors > 0 {
        return Err(Failure::Batch(format!(
            "{} response(s) did not match the deterministic stream's expectation",
            report.unexpected_errors
        )));
    }
    if let Some(gate_path) = gate {
        let text = std::fs::read_to_string(&gate_path)
            .map_err(|e| Failure::Usage(format!("{gate_path}: {e}")))?;
        let base = extract_json_number(&text, "requests_per_sec")
            .ok_or_else(|| Failure::Usage(format!("{gate_path}: no `requests_per_sec` field")))?;
        let floor = base * (1.0 - tolerance / 100.0);
        eprintln!(
            "gate: fresh {:.2} req/s vs baseline {base:.2} req/s \
             (floor {floor:.2} at {tolerance}% tolerance)",
            report.requests_per_sec
        );
        if report.requests_per_sec < floor {
            return Err(Failure::Batch(format!(
                "serve throughput regression: {:.2} req/s is below the gate floor {floor:.2} \
                 ({tolerance}% under baseline {base:.2} from {gate_path})",
                report.requests_per_sec
            )));
        }
    }
    Ok(())
}

/// Asks the self-spawned loadgen server to exit: one shutdown request,
/// one response line, best-effort.
fn loadgen_shutdown(addr: &str) {
    use std::io::{BufRead, BufReader, Write};
    if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
        let _ = stream.write_all(b"{\"id\":0,\"op\":\"shutdown\"}\n");
        let mut line = String::new();
        let _ = BufReader::new(stream).read_line(&mut line);
    }
}

/// `numfuzz fuzz`: the generator-driven differential soundness fuzzer
/// (see `docs/testing.md`). Deterministic per seed: the report is
/// byte-identical for every `--jobs` value and across repeated runs.
/// Exit 1 with a written reproducer on any counterexample.
fn fuzz(rest: &[String]) -> Result<(), Failure> {
    let mut cfg = numfuzz::fuzz::FuzzConfig::default();
    let mut repro_prefix = "fuzz-reproducer".to_string();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--cases" => {
                cfg.cases = value("--cases")
                    .and_then(|v| v.parse().map_err(|e| format!("--cases: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--seed" => {
                cfg.seed = value("--seed")
                    .and_then(|v| v.parse().map_err(|e| format!("--seed: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--jobs" => {
                cfg.jobs = value("--jobs")
                    .and_then(|v| v.parse().map_err(|e| format!("--jobs: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--repro" => repro_prefix = value("--repro").map_err(Failure::Usage)?,
            "--backward" => cfg.backward = true,
            "--incremental" => cfg.incremental = true,
            other => return Err(Failure::Usage(format!("unknown option `{other}`"))),
        }
    }

    let outcome = numfuzz::fuzzing::fuzz_campaign(&cfg);
    print!("{}", outcome.report);
    if outcome.ok() {
        return Ok(());
    }
    for cx in &outcome.counterexamples {
        let path = format!("{repro_prefix}-{}.nf", cx.index);
        std::fs::write(&path, &cx.shrunk).map_err(|e| Failure::Usage(format!("{path}: {e}")))?;
        println!("reproducer written: {path} ({})", cx.failure.kind.name());
        println!("--- detail (case {}) ---", cx.index);
        println!("{}", cx.failure.detail);
        println!("--- original (case {}) ---", cx.index);
        println!("{}", cx.original);
    }
    Err(Failure::Batch(format!(
        "{} of {} fuzz cases failed (seed {})",
        outcome.counterexamples.len(),
        cfg.cases,
        cfg.seed
    )))
}

/// `numfuzz optimize FILE`: the sound rewrite + precision optimizer
/// (see `docs/optimize.md`). The report on stdout is deterministic —
/// byte-identical across repeated runs and every `--jobs` value — so it
/// can be golden-pinned; wall time goes to stderr.
fn optimize(rest: &[String]) -> Result<(), Failure> {
    let file = rest.first().ok_or_else(|| Failure::Usage("missing FILE argument".into()))?;
    let mut cfg = numfuzz::optimize::OptimizeConfig::default();
    let mut out: Option<String> = None;
    let mut passthrough = Vec::new();
    let mut it = rest[1..].iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--budget" => {
                cfg.budget = value("--budget")
                    .and_then(|v| v.parse().map_err(|e| format!("--budget: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--seed" => {
                cfg.seed = value("--seed")
                    .and_then(|v| v.parse().map_err(|e| format!("--seed: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--jobs" => {
                cfg.jobs = value("--jobs")
                    .and_then(|v| v.parse().map_err(|e| format!("--jobs: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--precision-search" => cfg.precision_search = true,
            "--target-rel" => {
                let v = value("--target-rel").map_err(Failure::Usage)?;
                cfg.target_rel = Some(parse_rational(&v).ok_or_else(|| {
                    Failure::Usage(format!(
                        "--target-rel: `{v}` is not a rational (n/d or decimal)"
                    ))
                })?);
            }
            "--out" => out = Some(value("--out").map_err(Failure::Usage)?),
            other => passthrough.push(other.to_string()),
        }
    }
    let opts = parse_opts(&passthrough).map_err(Failure::Usage)?;
    if opts.backward || opts.instantiation == Instantiation::AbsoluteError {
        return Err(Failure::Usage(
            "optimize works on the forward relative-precision instantiation (no --abs / --backward)".into(),
        ));
    }
    let src = std::fs::read_to_string(file).map_err(|e| Failure::Usage(format!("{file}: {e}")))?;
    let analyzer = Analyzer::builder()
        .signature(opts.instantiation)
        .format(opts.format)
        .mode(opts.mode)
        .build();
    let program = analyzer.parse_named(file, &src)?;
    let t0 = std::time::Instant::now();
    let outcome = analyzer.optimize(&program, &cfg)?;
    let elapsed = t0.elapsed().as_secs_f64();
    print!("{}", outcome.report);
    eprintln!(
        "optimize: {} candidates in {:.2}s ({:.1} candidates/s)",
        outcome.evaluated,
        elapsed,
        if elapsed > 0.0 { outcome.evaluated as f64 / elapsed } else { 0.0 }
    );
    if let Some(out) = out {
        std::fs::write(&out, &outcome.rewritten)
            .map_err(|e| Failure::Usage(format!("{out}: {e}")))?;
        eprintln!("rewritten program written: {out}");
    }
    Ok(())
}

/// Parses `n/d`, an integer, or a decimal into an exact [`Rational`].
fn parse_rational(s: &str) -> Option<Rational> {
    if let Some((n, d)) = s.split_once('/') {
        let d: i64 = d.trim().parse().ok()?;
        if d == 0 {
            return None;
        }
        return Some(Rational::ratio(n.trim().parse().ok()?, d));
    }
    Rational::from_decimal_str(s.trim()).ok()
}

/// `numfuzz batch DIR`: check and bound every `.nf` file under `DIR`
/// (recursively) on `--jobs` worker threads — each worker is its own
/// session with its own arena, so workers never contend.
/// Output is printed in sorted-path order whatever the scheduling, so a
/// batch run is byte-for-byte reproducible across job counts.
fn batch(rest: &[String]) -> Result<(), Failure> {
    let dir = rest.first().ok_or_else(|| Failure::Usage("missing DIR argument".into()))?;
    let (opts, jobs) = parse_opts_with_jobs(&rest[1..]).map_err(Failure::Usage)?;
    let jobs = jobs.unwrap_or(0); // batch defaults to one worker per core

    let mut files: Vec<std::path::PathBuf> = Vec::new();
    collect_nf_files(std::path::Path::new(dir), &mut files)
        .map_err(|e| Failure::Usage(format!("{dir}: {e}")))?;
    if files.is_empty() {
        return Err(Failure::Usage(format!("no .nf files under `{dir}`")));
    }
    files.sort();

    // One analyzer session per worker: parse, check, and bound all
    // happen against worker-local arenas.
    let reports = numfuzz::core::pool::ordered_map_with(
        jobs,
        &files,
        |_worker| {
            Analyzer::builder()
                .signature(opts.instantiation)
                .format(opts.format)
                .mode(opts.mode)
                .build()
        },
        |analyzer, _i, path| batch_one(analyzer, path, opts.backward),
    );

    let mut ok = 0usize;
    let mut failed = 0usize;
    for report in &reports {
        match report {
            Ok((line, true)) => {
                ok += 1;
                println!("{line}");
            }
            Ok((rendered, false)) => {
                failed += 1;
                println!("{rendered}");
            }
            Err(io) => return Err(Failure::Usage(io.clone())),
        }
    }
    println!("{} programs: {ok} ok, {failed} failed", reports.len());
    if failed > 0 {
        return Err(Failure::Batch(format!(
            "{failed} of {} programs under `{dir}` failed",
            reports.len()
        )));
    }
    Ok(())
}

/// `numfuzz watch FILE`: the live-recheck surface over the incremental
/// analysis path. The file is polled (`--poll-ms`); whenever its content
/// changes — including the initial read — it is re-parsed and re-typed
/// through a session-persistent judgment cache, so each recheck only
/// recomputes the judgments on the spine from the edited sub-term to the
/// root. Every recheck prints the same report `numfuzz check` + `bound`
/// would (or the spanned E0xxx diagnostic) plus one `judgments:` line
/// with the reuse split. `--iterations N` stops after N rechecks (for
/// scripted use); the default 0 watches until interrupted.
fn watch(rest: &[String]) -> Result<(), Failure> {
    let file = rest.first().ok_or_else(|| Failure::Usage("missing FILE argument".into()))?;
    let mut poll_ms = 100u64;
    let mut iterations = 0u64;
    let mut passthrough = Vec::new();
    let mut it = rest[1..].iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--poll-ms" => {
                poll_ms = value("--poll-ms")
                    .and_then(|v| v.parse().map_err(|e| format!("--poll-ms: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--iterations" => {
                iterations = value("--iterations")
                    .and_then(|v| v.parse().map_err(|e| format!("--iterations: {e}")))
                    .map_err(Failure::Usage)?
            }
            other => passthrough.push(other.to_string()),
        }
    }
    let opts = parse_opts(&passthrough).map_err(Failure::Usage)?;
    let analyzer = Analyzer::builder()
        .signature(opts.instantiation)
        .format(opts.format)
        .mode(opts.mode)
        .judgment_cache_bytes(64 << 20)
        .build();

    use std::io::Write as _;
    let mut last_src: Option<String> = None;
    let mut last_stamp: Option<(std::time::SystemTime, u64, u64)> = None;
    let mut rechecks = 0u64;
    loop {
        // The change key is (mtime, length, content hash) — mtime alone
        // misses a rewrite that lands within the filesystem's timestamp
        // granularity (editor save-then-format flows do this routinely),
        // and an atomic rename-over even preserves the old mtime. Hashing
        // costs one content read per poll, which is what a poll costs
        // anyway once stat alone cannot be trusted. A changed stamp falls
        // through to the content comparison, which is what actually
        // triggers work (editors rewrite files without changing a byte
        // all the time); a read error (the file briefly missing
        // mid-save) just waits.
        let src = match std::fs::read_to_string(file) {
            Ok(src) => src,
            Err(e) => {
                if last_src.is_none() {
                    return Err(Failure::Usage(format!("{file}: {e}")));
                }
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                continue;
            }
        };
        let stamp = {
            let mut h = numfuzz::core::cache::StableHasher::new();
            h.write_str(&src);
            std::fs::metadata(file)
                .ok()
                .and_then(|m| m.modified().ok().map(|t| (t, m.len(), h.finish64())))
        };
        if stamp.is_some() && stamp == last_stamp {
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
            continue;
        }
        last_stamp = stamp;
        if last_src.as_deref() != Some(src.as_str()) {
            last_src = Some(src.clone());
            rechecks += 1;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            let _ = writeln!(out, "--- {file} (recheck {rechecks}) ---");
            let report = watch_recheck(&analyzer, file, &src, opts.backward);
            let _ = write!(out, "{report}");
            let _ = out.flush();
            if iterations > 0 && rechecks >= iterations {
                return Ok(());
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

/// One `watch` recheck: parse + incremental check (+ bound), rendered
/// with the same report functions as `check`/`bound`/`serve`, followed by
/// the judgment reuse split. Program errors render as their spanned
/// diagnostic; the watch loop keeps running either way.
fn watch_recheck(analyzer: &Analyzer, file: &str, src: &str, backward: bool) -> String {
    let program = match analyzer.parse_named(file, src) {
        Ok(p) => p,
        Err(d) => return format!("{}\n", d.render()),
    };
    if backward {
        match analyzer.check_backward_incremental(&program) {
            Ok((typed, counts)) => {
                let mut report = numfuzz::serve::backward_check_report(&typed);
                if let Ok(bound) = analyzer.bound_backward(&typed) {
                    report.push_str(&numfuzz::serve::backward_bound_report(analyzer, &bound));
                }
                report.push_str(&judgment_line(&counts));
                report
            }
            Err(d) => format!("{}\n", d.render()),
        }
    } else {
        match analyzer.check_incremental(&program) {
            Ok((typed, counts)) => {
                let mut report = numfuzz::serve::check_report(&typed);
                report.push_str(&numfuzz::serve::bound_report(analyzer, &typed));
                report.push_str(&judgment_line(&counts));
                report
            }
            Err(d) => format!("{}\n", d.render()),
        }
    }
}

/// The `watch` reuse summary line.
fn judgment_line(counts: &numfuzz::JudgmentCounts) -> String {
    format!(
        "judgments: {} reused, {} recomputed of {}\n",
        counts.reused, counts.recomputed, counts.total
    )
}

/// [`parse_opts`] plus the batch/serve `--jobs N` knob (`None` when the
/// flag is absent).
fn parse_opts_with_jobs(rest: &[String]) -> Result<(Opts, Option<usize>), String> {
    let mut jobs = None;
    let mut passthrough = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--jobs" {
            let v = it.next().ok_or("--jobs needs a value")?;
            jobs = Some(v.parse().map_err(|e| format!("--jobs: {e}"))?);
        } else {
            passthrough.push(flag.clone());
        }
    }
    Ok((parse_opts(&passthrough)?, jobs))
}

/// One file of a [`batch`] run: `Ok((line, true))` for a checked program
/// (its type and, when monadic, its eq. 8 bound), `Ok((diagnostic,
/// false))` for a program error, `Err(message)` for an I/O failure.
/// The rendering is shared with the `serve` protocol's `batch` op
/// ([`numfuzz::serve::batch_entry`]).
fn batch_one(
    analyzer: &mut Analyzer,
    path: &std::path::Path,
    backward: bool,
) -> Result<(String, bool), String> {
    let shown = path.display().to_string();
    let src = std::fs::read_to_string(path).map_err(|e| format!("{shown}: {e}"))?;
    Ok(if backward {
        numfuzz::serve::backward_batch_entry(analyzer, &shown, &src)
    } else {
        numfuzz::serve::batch_entry(analyzer, &shown, &src)
    })
}

/// Recursively collects `.nf` files under `dir`.
fn collect_nf_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_nf_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "nf") {
            out.push(path);
        }
    }
    Ok(())
}

/// `numfuzz table1`: differential bound verification over the committed
/// Table 1 corpus (`benches/table1/*.nf`).
///
/// Every benchmark is bounded by **both** engines — the graded typing
/// judgment (`check` + eq. (8)) and the independent interval/Taylor
/// engine ([`Analyzer::bound_interval_fn`], ranged over `[0.1, 1000]`
/// per input as in Section 6.2) — and the committed sample application
/// is executed under both semantics to confirm the true rounding error
/// lies below both bounds. One row per benchmark: the symbolic grade,
/// both eq. (8) relative bounds, which engine was tighter, the
/// sample-point soundness verdict, and per-engine wall time.
fn table1(rest: &[String]) -> Result<(), Failure> {
    let mut dir: Option<String> = None;
    let mut passthrough = Vec::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--dir" {
            dir = Some(
                it.next().cloned().ok_or_else(|| Failure::Usage("--dir needs a value".into()))?,
            );
        } else {
            passthrough.push(flag.clone());
        }
    }
    let opts = parse_opts(&passthrough).map_err(Failure::Usage)?;
    if opts.backward || opts.instantiation == Instantiation::AbsoluteError {
        return Err(Failure::Usage(
            "the Table 1 corpus is forward relative-precision (no --abs / --backward)".into(),
        ));
    }
    // Corpus resolution: explicit --dir, else `benches/table1` relative to
    // the current directory, else the copy committed next to the crate
    // (so `cargo run -- table1` works from anywhere).
    let dir = match dir {
        Some(d) => std::path::PathBuf::from(d),
        None => {
            let local = std::path::Path::new("benches/table1");
            if local.is_dir() {
                local.to_path_buf()
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benches/table1")
            }
        }
    };
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    collect_nf_files(&dir, &mut files)
        .map_err(|e| Failure::Usage(format!("{}: {e}", dir.display())))?;
    if files.is_empty() {
        return Err(Failure::Usage(format!("no .nf files under `{}`", dir.display())));
    }
    files.sort();

    let analyzer = Analyzer::builder()
        .signature(opts.instantiation)
        .format(opts.format)
        .mode(opts.mode)
        .build();
    // Section 6.2 runs every benchmark over this input box.
    let std_range = RatInterval::new(Rational::ratio(1, 10), Rational::ratio(1000, 1));

    println!(
        "numfuzz table1: differential bound verification ({} benchmarks, {}, {}, inputs in [0.1, 1000])",
        files.len(),
        opts.format,
        opts.mode,
    );
    println!(
        "{:<14} {:<9} {:>10} {:>10}  {:<8} {:<6} {:>10} {:>12}",
        "benchmark", "grade", "typed", "interval", "tighter", "sound", "typed-ms", "interval-ms"
    );

    let mut failed = 0usize;
    let mut tighter_typed = 0usize;
    let mut tighter_interval = 0usize;
    let mut ties = 0usize;
    let mut sound = 0usize;
    for path in &files {
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let src = std::fs::read_to_string(path)
            .map_err(|e| Failure::Usage(format!("{}: {e}", path.display())))?;
        match table1_row(&analyzer, &stem, &src, &std_range) {
            Ok(row) => {
                match row.tighter {
                    std::cmp::Ordering::Less => tighter_typed += 1,
                    std::cmp::Ordering::Greater => tighter_interval += 1,
                    std::cmp::Ordering::Equal => ties += 1,
                }
                if row.sound {
                    sound += 1;
                } else {
                    failed += 1;
                }
                let tighter = match row.tighter {
                    std::cmp::Ordering::Less => "typed",
                    std::cmp::Ordering::Greater => "interval",
                    std::cmp::Ordering::Equal => "tie",
                };
                println!(
                    "{:<14} {:<9} {:>10} {:>10}  {:<8} {:<6} {:>10} {:>12}",
                    stem,
                    row.grade,
                    row.typed_rel,
                    row.interval_rel,
                    tighter,
                    if row.sound { "ok" } else { "FAIL" },
                    format!("{:.2}", row.typed_ms),
                    format!("{:.2}", row.interval_ms),
                );
            }
            Err(d) => {
                failed += 1;
                println!("{}", d.render());
            }
        }
    }
    println!(
        "table1: {} benchmarks, interval tighter on {tighter_interval}, typed tighter on \
         {tighter_typed}, ties {ties}; sample points sound on {sound}/{}",
        files.len(),
        files.len(),
    );
    if failed > 0 {
        return Err(Failure::Batch(format!(
            "{failed} of {} Table 1 benchmarks failed differential verification",
            files.len()
        )));
    }
    Ok(())
}

/// One [`table1`] benchmark row.
struct Table1Row {
    /// The symbolic typed grade (e.g. `5/2*eps`).
    grade: String,
    /// The typing judgment's eq. (8) relative bound.
    typed_rel: String,
    /// The interval engine's eq. (8) relative bound over the input box.
    interval_rel: String,
    /// Raw metric-bound comparison: `Less` = typed tighter, `Greater` =
    /// interval tighter.
    tighter: std::cmp::Ordering,
    /// Did the sample point's true error stay below **both** bounds?
    sound: bool,
    typed_ms: f64,
    interval_ms: f64,
}

/// Runs both engines over one Table 1 benchmark: the typed bound from the
/// judgment, the ranged interval bound of the principal function (named
/// by the file stem), and the sample-point soundness check against both.
fn table1_row(
    analyzer: &Analyzer,
    stem: &str,
    src: &str,
    std_range: &RatInterval,
) -> Result<Table1Row, Diagnostic> {
    let program = analyzer.parse_named(stem, src)?;

    // Typed leg: check + eq. (8) bound of the root monadic type.
    let t0 = std::time::Instant::now();
    let typed = analyzer.check(&program)?;
    let bound = analyzer.bound(&typed)?;
    let typed_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Interval leg: the principal function, one `[0.1, 1000]` enclosure
    // per curried parameter.
    let fn_report = typed.function(stem).ok_or_else(|| {
        Diagnostic::new(
            ErrorCode::EvalFailed,
            format!("no top-level function `{stem}` (Table 1 files are named after them)"),
        )
    })?;
    let mut arity = 0usize;
    let mut ty = &fn_report.assigned;
    while let Ty::Lolli(_, cod) = ty {
        arity += 1;
        ty = &**cod;
    }
    let ranges = vec![std_range.clone(); arity];
    let t1 = std::time::Instant::now();
    let ranged = analyzer.bound_interval_fn(&program, stem, &ranges)?;
    let interval_ms = t1.elapsed().as_secs_f64() * 1e3;

    // Sample-point differential check: the committed application at the
    // bottom of each file, under both semantics, against both bounds.
    let report = analyzer.validate(&program, &Inputs::none())?;
    let point = analyzer.bound_interval(&program)?;
    let interval_holds = match &report.fp {
        None => true, // faulted to err: vacuous, as in Cor. 7.5
        Some(fp) => {
            let oracle = point.oracle_bound().map_err(|e| {
                Diagnostic::new(ErrorCode::EvalFailed, e.to_string()).with_file(stem)
            })?;
            numfuzz::interp::metric_for(analyzer.signature().instantiation()).within(
                &report.ideal,
                fp,
                &oracle,
            ) == Within::Yes
        }
    };

    let rel = |alpha: &Rational| match numfuzz::metrics::rp::rp_to_rel_bound(alpha) {
        Some(r) => r.to_sci_string(3),
        None => "inf".to_string(),
    };
    Ok(Table1Row {
        grade: bound.grade.to_string(),
        typed_rel: rel(&bound.alpha),
        interval_rel: rel(ranged.bound()),
        tighter: bound.alpha.cmp(ranged.bound()),
        sound: report.holds() && interval_holds,
        typed_ms,
        interval_ms,
    })
}

/// `numfuzz bench`: check+bound throughput over the benchsuite corpus.
///
/// The corpus mixes the paper's Table 3 kernels (via the IR translation),
/// the Table 5 conditional programs (via the parser), and scaled-down
/// Table 4 generated workloads, so the timing covers both type-heavy and
/// grade-heavy checking. One *pass* checks and bounds every program once;
/// the reported throughput is the best of `--iters` passes.
fn bench(rest: &[String]) -> Result<(), Failure> {
    let mut iters = 5usize;
    let mut out = "BENCH_core.json".to_string();
    let mut baseline: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut tolerance = 40.0f64;
    let mut gate_incremental: Option<f64> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--iters" => {
                iters = value("--iters")
                    .and_then(|v| v.parse().map_err(|e| format!("--iters: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--out" => out = value("--out").map_err(Failure::Usage)?,
            "--baseline" => baseline = Some(value("--baseline").map_err(Failure::Usage)?),
            "--gate" => gate = Some(value("--gate").map_err(Failure::Usage)?),
            "--tolerance" => {
                tolerance = value("--tolerance")
                    .and_then(|v| v.parse().map_err(|e| format!("--tolerance: {e}")))
                    .map_err(Failure::Usage)?
            }
            "--gate-incremental" => {
                gate_incremental = Some(
                    value("--gate-incremental")
                        .and_then(|v| v.parse().map_err(|e| format!("--gate-incremental: {e}")))
                        .map_err(Failure::Usage)?,
                )
            }
            other => return Err(Failure::Usage(format!("unknown option `{other}`"))),
        }
    }
    if iters == 0 {
        return Err(Failure::Usage("--iters must be at least 1".into()));
    }
    if !(0.0..100.0).contains(&tolerance) {
        return Err(Failure::Usage("--tolerance must be in [0, 100)".into()));
    }
    if gate_incremental.is_some_and(|r| !(0.0..=1.0).contains(&r)) {
        return Err(Failure::Usage("--gate-incremental must be a ratio in [0, 1]".into()));
    }
    // Relative --out paths resolve against the invocation directory, and
    // the resolved path is printed below, so a CI gate and a local run
    // always agree on where the report landed.
    let out_path = std::env::current_dir()
        .map(|cwd| cwd.join(&out))
        .map_err(|e| Failure::Usage(format!("cannot resolve current directory: {e}")))?;

    // Everything below shares the session's interning arena, exactly as
    // a long-lived service would.
    let analyzer = Analyzer::new();
    let tys = || analyzer.arena().clone();
    let mut corpus: Vec<Program> = Vec::new();
    for b in numfuzz::benchsuite::table3() {
        // Kernels outside the RP fragment (none today) would be skipped.
        if let Ok(p) = analyzer.program_from_kernel(&b.kernel) {
            corpus.push(p);
        }
    }
    for b in numfuzz::benchsuite::table5() {
        corpus.push(analyzer.parse_named(b.name, b.source)?);
    }
    corpus.push(Program::from_generated(numfuzz::benchsuite::horner_in(tys(), 100)));
    corpus.push(Program::from_generated(numfuzz::benchsuite::horner_in(tys(), 2000)));
    corpus.push(Program::from_generated(numfuzz::benchsuite::serial_sum_in(tys(), 5000)));
    corpus.push(Program::from_generated(numfuzz::benchsuite::matrix_multiply_in(tys(), 10)));
    corpus.push(Program::from_generated(numfuzz::benchsuite::poly_naive_in(tys(), 80)));

    let total_nodes: usize = corpus.iter().map(|p| p.store().len()).sum();
    // One untimed pass warms the session arena exactly like a session
    // reusing it would; timed passes then measure steady-state throughput.
    // Rendering for the byte-identical comparison happens after the clock
    // stops. Every forward corpus program must check.
    let serial = timed_passes(iters, || forward_pass(&analyzer, &corpus));
    if let Some(d) = serial.last.iter().find_map(|r| r.as_ref().err()) {
        return Err(d.clone().into());
    }
    let best = serial.best_seconds;
    let serial_rendered: Vec<String> =
        serial.last.iter().map(|r| render_check(&analyzer, r)).collect();

    // The cache measurement: the same corpus through a cache-enabled
    // session — the resident-service profile (`numfuzz serve` answering a
    // repeated corpus). The cold pass pays full analysis plus fingerprint
    // and insert; warm passes replay memoized results, and must still be
    // byte-identical to the serial pass.
    let cache = AnalysisCache::with_budget(256 << 20);
    let cached_analyzer = Analyzer::builder().cache(cache.clone()).build();
    let cached = timed_passes(iters, || forward_pass(&cached_analyzer, &corpus));
    let (cache_cold, cache_warm) = (cached.first_seconds, cached.best_seconds);
    for (label, results) in [("cold", &cached.first), ("warm", &cached.last)] {
        let rendered: Vec<String> =
            results.iter().map(|r| render_check(&cached_analyzer, r)).collect();
        if rendered != serial_rendered {
            return Err(Failure::Usage(format!(
                "{label} cached results differ from uncached results (cache bug)"
            )));
        }
    }
    let cache_stats = cache.stats();

    // The backward-mode measurement: the same corpus through the Bean
    // judgment (check_backward + bound_backward). Most forward corpus
    // programs reuse variables and are *rejected* backward — rejections
    // are part of the measured work and of the byte-identity comparison.
    let bwd_serial = timed_passes(iters, || backward_pass(&analyzer, &corpus));
    let bwd_best = bwd_serial.best_seconds;
    let bwd_rendered: Vec<String> = bwd_serial.last.iter().map(render_backward).collect();

    // Backward warm-cache profile, on its own cache so the counters are
    // purely backward traffic (forward and backward keys are disjoint
    // either way — the mode is part of the config fingerprint).
    let bwd_cache = AnalysisCache::with_budget(256 << 20);
    let bwd_cached_analyzer = Analyzer::builder().cache(bwd_cache.clone()).build();
    let bwd_cached = timed_passes(iters, || backward_pass(&bwd_cached_analyzer, &corpus));
    let (bwd_cache_cold, bwd_cache_warm) = (bwd_cached.first_seconds, bwd_cached.best_seconds);
    for (label, results) in [("cold", &bwd_cached.first), ("warm", &bwd_cached.last)] {
        let rendered: Vec<String> = results.iter().map(render_backward).collect();
        if rendered != bwd_rendered {
            return Err(Failure::Usage(format!(
                "{label} cached backward results differ from uncached results (cache bug)"
            )));
        }
    }
    let bwd_cache_stats = bwd_cache.stats();
    let bwd_ok = bwd_serial.last.iter().filter(|r| r.is_ok()).count();

    // The incremental measurement: the `numfuzz watch` / serve-`edit`
    // profile — one session keeps its judgment cache while a program is
    // edited one leaf at a time. Programs reach this section as source
    // text (parsed corpus programs keep theirs, closed generated programs
    // pretty-print), so the single-leaf edit is textual: the first
    // standalone numeric literal is bumped by one, which changes exactly
    // one `Const` leaf of the lowered term. Programs with a free-variable
    // interface (no surface syntax for one) or whose pretty roundtrip
    // lowers differently are skipped and counted.
    const INC_BUDGET: usize = 256 << 20;
    let inc_analyzer = Analyzer::builder().judgment_cache_bytes(INC_BUDGET).build();
    let mut inc_pairs: Vec<(Program, Program)> = Vec::new();
    let mut inc_skipped = 0usize;
    for (program, expect) in corpus.iter().zip(&serial_rendered) {
        let src = match program.source() {
            Some(s) => s.to_string(),
            None => program.pretty(u32::MAX),
        };
        let Some(edited_src) = bump_first_literal(&src) else {
            inc_skipped += 1;
            continue;
        };
        let roundtrip = inc_analyzer
            .parse(&src)
            .ok()
            .filter(|p| render_check(&inc_analyzer, &inc_analyzer.check(p)) == *expect);
        match (roundtrip, inc_analyzer.parse(&edited_src)) {
            (Some(orig), Ok(edited)) => inc_pairs.push((orig, edited)),
            _ => inc_skipped += 1,
        }
    }

    // Cold pass: every judgment is a miss; this also populates the cache
    // the edited rechecks replay from, exactly like a watch session's
    // first check.
    let t0 = std::time::Instant::now();
    for (orig, _) in &inc_pairs {
        let _ = inc_analyzer.check_incremental(orig)?;
    }
    let inc_cold_seconds = t0.elapsed().as_secs_f64();

    // The edited programs from scratch (the non-incremental cost of the
    // same recheck)...
    let t0 = std::time::Instant::now();
    let inc_scratch: Vec<Result<Typed, Diagnostic>> =
        inc_pairs.iter().map(|(_, edited)| inc_analyzer.check(edited)).collect();
    let inc_scratch_seconds = t0.elapsed().as_secs_f64();

    // ...and through the judgment cache. Each program is rechecked once —
    // a second pass would replay itself at 100% and say nothing.
    let mut inc = numfuzz::JudgmentCounts::default();
    let t0 = std::time::Instant::now();
    let mut inc_results: Vec<Result<Typed, Diagnostic>> = Vec::with_capacity(inc_pairs.len());
    for (_, edited) in &inc_pairs {
        match inc_analyzer.check_incremental(edited) {
            Ok((typed, counts)) => {
                inc.reused += counts.reused;
                inc.recomputed += counts.recomputed;
                inc.total += counts.total;
                inc_results.push(Ok(typed));
            }
            Err(d) => inc_results.push(Err(d)),
        }
    }
    let inc_edit_seconds = t0.elapsed().as_secs_f64();
    let scratch_rendered: Vec<String> =
        inc_scratch.iter().map(|r| render_check(&inc_analyzer, r)).collect();
    let inc_rendered: Vec<String> =
        inc_results.iter().map(|r| render_check(&inc_analyzer, r)).collect();
    if inc_rendered != scratch_rendered {
        return Err(Failure::Usage(
            "incremental edited results differ from from-scratch results (memoization bug)".into(),
        ));
    }
    let reuse_ratio = inc.reuse_ratio();

    // The bounds measurement: the committed Table 1 corpus through both
    // engines — the same differential surface as `numfuzz table1`. The
    // tightness/soundness counts are exact rational comparisons, so they
    // are machine-independent and gated as exact equalities below; the
    // pass times ride along as context. A benchmark failing the
    // differential check fails the bench outright, gate file or not.
    let bounds_dir = {
        let local = std::path::Path::new("benches/table1");
        if local.is_dir() {
            local.to_path_buf()
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benches/table1")
        }
    };
    let mut bounds_files: Vec<std::path::PathBuf> = Vec::new();
    collect_nf_files(&bounds_dir, &mut bounds_files)
        .map_err(|e| Failure::Usage(format!("{}: {e}", bounds_dir.display())))?;
    bounds_files.sort();
    // The corpus is the paper's relative-precision Table 1; like the rest
    // of the bench it runs under the default session (binary64, RP).
    let bounds_analyzer = Analyzer::new();
    let bounds_range = RatInterval::new(Rational::ratio(1, 10), Rational::ratio(1000, 1));
    let mut bounds_typed_seconds = 0.0f64;
    let mut bounds_interval_seconds = 0.0f64;
    let mut bounds_tighter_typed = 0usize;
    let mut bounds_tighter_interval = 0usize;
    let mut bounds_ties = 0usize;
    for path in &bounds_files {
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let src = std::fs::read_to_string(path)
            .map_err(|e| Failure::Usage(format!("{}: {e}", path.display())))?;
        let row = table1_row(&bounds_analyzer, &stem, &src, &bounds_range)
            .map_err(|d| Failure::Batch(format!("bounds: {stem}: {d}")))?;
        if !row.sound {
            return Err(Failure::Batch(format!(
                "bounds: {stem}: sample-point error exceeds an engine's bound"
            )));
        }
        bounds_typed_seconds += row.typed_ms / 1e3;
        bounds_interval_seconds += row.interval_ms / 1e3;
        match row.tighter {
            std::cmp::Ordering::Less => bounds_tighter_typed += 1,
            std::cmp::Ordering::Greater => bounds_tighter_interval += 1,
            std::cmp::Ordering::Equal => bounds_ties += 1,
        }
    }

    // The optimize measurement: the rewrite optimizer over the same Table
    // 1 corpus, small fixed budget. The bound columns are exact eps
    // multiples (deterministic rational arithmetic), so the gate below
    // holds them to zero tolerance: an optimized bound above its
    // committed value means the optimizer lost a rewrite it used to
    // find. Throughput (candidates/sec) rides along as context.
    let opt_analyzer = Analyzer::new();
    let opt_cfg = numfuzz::optimize::OptimizeConfig {
        budget: 64,
        ..numfuzz::optimize::OptimizeConfig::default()
    };
    let opt_u = opt_analyzer.format().unit_roundoff(opt_analyzer.mode());
    let mut opt_rows: Vec<(String, f64, f64)> = Vec::new();
    let mut opt_improved = 0usize;
    let mut opt_candidates = 0usize;
    let mut opt_seconds = 0.0f64;
    let mut opt_ratio_sum = 0.0f64;
    for path in &bounds_files {
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let src = std::fs::read_to_string(path)
            .map_err(|e| Failure::Usage(format!("{}: {e}", path.display())))?;
        let program = opt_analyzer.parse_named(&stem, &src)?;
        let t0 = std::time::Instant::now();
        let outcome = opt_analyzer
            .optimize(&program, &opt_cfg)
            .map_err(|d| Failure::Batch(format!("optimize: {stem}: {d}")))?;
        opt_seconds += t0.elapsed().as_secs_f64();
        opt_candidates += outcome.evaluated;
        if outcome.improved {
            opt_improved += 1;
        }
        let eps_of = |alpha: &Rational| alpha.div(&opt_u).to_f64();
        let (orig_eps, opt_eps) = (eps_of(&outcome.original.alpha), eps_of(&outcome.best.alpha));
        opt_ratio_sum += opt_eps / orig_eps;
        opt_rows.push((stem, orig_eps, opt_eps));
    }
    let opt_mean_ratio =
        if opt_rows.is_empty() { 1.0 } else { opt_ratio_sum / opt_rows.len() as f64 };
    let opt_cps = if opt_seconds > 0.0 { opt_candidates as f64 / opt_seconds } else { 0.0 };

    let checks_per_sec = corpus.len() as f64 / best;
    let nodes_per_sec = total_nodes as f64 / best;
    // The speedup compares wall time for the identically constructed
    // corpus: node *counts* are not comparable across revisions (term
    // hash-consing changed what one "node" means), pass seconds are.
    let baseline_seconds = baseline
        .as_deref()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| Failure::Usage(format!("{path}: {e}")))?;
            extract_json_number(&text, "best_pass_seconds")
                .ok_or_else(|| Failure::Usage(format!("{path}: no `best_pass_seconds` field")))
        })
        .transpose()?;

    let mut json = String::from("{\n");
    json.push_str("  \"harness\": \"numfuzz bench: best-of-N corpus passes of Analyzer::check + Analyzer::bound\",\n");
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"programs\": {},\n", corpus.len()));
    json.push_str(&format!("  \"total_nodes\": {total_nodes},\n"));
    json.push_str(&format!("  \"best_pass_seconds\": {best:.6},\n"));
    json.push_str(&format!("  \"checks_per_sec\": {checks_per_sec:.2},\n"));
    json.push_str(&format!("  \"nodes_per_sec\": {nodes_per_sec:.2}"));
    // What the baseline fields measure, recorded in the report itself so
    // a reader of a committed BENCH_core.json needs no CLI archaeology.
    json.push_str(
        ",\n  \"baseline_note\": \"baseline_best_pass_seconds is the --baseline report's \
         top-level best_pass_seconds (cold serial check+bound wall time over the identically \
         constructed corpus, best of N passes), copied verbatim; speedup divides it by this \
         run's best_pass_seconds and is only meaningful when both reports come from the same \
         machine\"",
    );
    if let Some(base) = baseline_seconds {
        json.push_str(&format!(",\n  \"baseline_best_pass_seconds\": {base:.6}"));
        json.push_str(&format!(",\n  \"speedup\": {:.2}", base / best));
    }
    json.push_str(",\n  \"cache\": {\n");
    json.push_str(&format!("    \"budget_bytes\": {},\n", cache_stats.budget));
    json.push_str(&format!("    \"cold_pass_seconds\": {cache_cold:.6},\n"));
    json.push_str(&format!("    \"warm_pass_seconds\": {cache_warm:.6},\n"));
    json.push_str(&format!(
        "    \"cold_checks_per_sec\": {:.2},\n",
        corpus.len() as f64 / cache_cold
    ));
    json.push_str(&format!(
        "    \"warm_checks_per_sec\": {:.2},\n",
        corpus.len() as f64 / cache_warm
    ));
    json.push_str(&format!("    \"warm_speedup_vs_cold\": {:.2},\n", cache_cold / cache_warm));
    json.push_str(&format!("    \"hits\": {},\n", cache_stats.hits));
    json.push_str(&format!("    \"misses\": {},\n", cache_stats.misses));
    json.push_str(&format!("    \"entries\": {},\n", cache_stats.entries));
    json.push_str("    \"matches_serial\": true\n  }");
    // The incremental section: the single-leaf-edit recheck profile. Like
    // every section, it comes after the top-level forward keys so
    // `extract_json_number`'s first-occurrence reads keep finding them.
    json.push_str(",\n  \"incremental\": {\n");
    json.push_str(
        "    \"harness\": \"cold check_incremental over the source-roundtrippable corpus, then \
         one single-leaf edit per program (first numeric literal bumped) rechecked from scratch \
         vs. through the session's judgment cache\",\n",
    );
    json.push_str(&format!("    \"budget_bytes\": {INC_BUDGET},\n"));
    json.push_str(&format!("    \"programs\": {},\n", inc_pairs.len()));
    json.push_str(&format!("    \"skipped_no_source_roundtrip\": {inc_skipped},\n"));
    json.push_str(&format!("    \"cold_pass_seconds\": {inc_cold_seconds:.6},\n"));
    json.push_str(&format!("    \"scratch_edit_pass_seconds\": {inc_scratch_seconds:.6},\n"));
    json.push_str(&format!("    \"incremental_edit_pass_seconds\": {inc_edit_seconds:.6},\n"));
    json.push_str(&format!(
        "    \"edit_speedup_vs_scratch\": {:.2},\n",
        inc_scratch_seconds / inc_edit_seconds
    ));
    json.push_str(&format!("    \"reused\": {},\n", inc.reused));
    json.push_str(&format!("    \"recomputed\": {},\n", inc.recomputed));
    json.push_str(&format!("    \"total\": {},\n", inc.total));
    json.push_str(&format!("    \"reuse_ratio\": {reuse_ratio:.4},\n"));
    json.push_str("    \"matches_scratch\": true\n  }");
    // The backward section comes after every top-level forward key:
    // `extract_json_number` reads first occurrences, so gates/baselines
    // keep comparing forward throughput.
    json.push_str(",\n  \"backward\": {\n");
    json.push_str(&format!("    \"programs_accepted\": {bwd_ok},\n"));
    json.push_str(&format!("    \"best_pass_seconds\": {bwd_best:.6},\n"));
    json.push_str(&format!("    \"checks_per_sec\": {:.2}", corpus.len() as f64 / bwd_best));
    json.push_str(",\n    \"cache\": {\n");
    json.push_str(&format!("      \"cold_pass_seconds\": {bwd_cache_cold:.6},\n"));
    json.push_str(&format!("      \"warm_pass_seconds\": {bwd_cache_warm:.6},\n"));
    json.push_str(&format!(
        "      \"warm_speedup_vs_cold\": {:.2},\n",
        bwd_cache_cold / bwd_cache_warm
    ));
    json.push_str(&format!("      \"hits\": {},\n", bwd_cache_stats.hits));
    json.push_str(&format!("      \"misses\": {},\n", bwd_cache_stats.misses));
    json.push_str(&format!("      \"entries\": {},\n", bwd_cache_stats.entries));
    json.push_str("      \"matches_serial\": true\n    }\n  }");
    // The bounds section: the Table 1 differential corpus through both
    // engines. Like every section, it comes after the top-level forward
    // keys so first-occurrence reads keep finding them; its own keys are
    // unique so the gate can read them the same way.
    json.push_str(",\n  \"bounds\": {\n");
    json.push_str(
        "    \"harness\": \"the committed Table 1 corpus (benches/table1/*.nf) bounded by both \
         the graded judgment (eq. 8) and the independent interval engine over [0.1, 1000] \
         inputs; tightness counts are exact rational comparisons, and every sample point's \
         true error was verified below both bounds\",\n",
    );
    json.push_str(&format!("    \"benchmarks\": {},\n", bounds_files.len()));
    json.push_str(&format!("    \"typed_pass_seconds\": {bounds_typed_seconds:.6},\n"));
    json.push_str(&format!("    \"interval_pass_seconds\": {bounds_interval_seconds:.6},\n"));
    json.push_str(&format!("    \"tighter_typed\": {bounds_tighter_typed},\n"));
    json.push_str(&format!("    \"tighter_interval\": {bounds_tighter_interval},\n"));
    json.push_str(&format!("    \"ties\": {bounds_ties},\n"));
    json.push_str(&format!("    \"sound\": {}\n  }}", bounds_files.len()));
    // The optimize section: exact eps-multiple bounds per benchmark
    // (original and optimized), gated to zero tolerance below; the
    // throughput keys are context only. Keys are `<stem>_orig_eps` /
    // `<stem>_opt_eps` — unique across the whole report, so the gate's
    // first-occurrence reads are unambiguous.
    json.push_str(",\n  \"optimize\": {\n");
    json.push_str(
        "    \"harness\": \"numfuzz optimize over the committed Table 1 corpus, budget 64, \
         default seed; bounds are exact eps multiples of the typed grade, so the gate allows \
         zero regression above committed values\",\n",
    );
    json.push_str(&format!("    \"budget\": {},\n", opt_cfg.budget));
    json.push_str(&format!("    \"benchmarks\": {},\n", opt_rows.len()));
    json.push_str(&format!("    \"improved_benchmarks\": {opt_improved},\n"));
    json.push_str(&format!("    \"mean_bound_ratio\": {opt_mean_ratio:.4},\n"));
    json.push_str(&format!("    \"candidates_evaluated\": {opt_candidates},\n"));
    json.push_str(&format!("    \"optimize_pass_seconds\": {opt_seconds:.6},\n"));
    json.push_str(&format!("    \"candidates_per_sec\": {opt_cps:.2}"));
    for (stem, orig_eps, opt_eps) in &opt_rows {
        json.push_str(&format!(",\n    \"{stem}_orig_eps\": {orig_eps}"));
        json.push_str(&format!(",\n    \"{stem}_opt_eps\": {opt_eps}"));
    }
    json.push_str("\n  }");
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json)
        .map_err(|e| Failure::Usage(format!("{}: {e}", out_path.display())))?;
    print!("{json}");
    eprintln!("report written: {}", out_path.display());

    // The CI regression gate: cold serial check+bound throughput must not
    // fall more than the tolerance below the baseline report's.
    if let Some(gate_path) = gate {
        let text = std::fs::read_to_string(&gate_path)
            .map_err(|e| Failure::Usage(format!("{gate_path}: {e}")))?;
        let base = extract_json_number(&text, "checks_per_sec")
            .ok_or_else(|| Failure::Usage(format!("{gate_path}: no `checks_per_sec` field")))?;
        let floor = base * (1.0 - tolerance / 100.0);
        eprintln!(
            "gate: fresh {checks_per_sec:.2} checks/s vs baseline {base:.2} checks/s \
             (floor {floor:.2} at {tolerance}% tolerance)"
        );
        if checks_per_sec < floor {
            return Err(Failure::Batch(format!(
                "throughput regression: {checks_per_sec:.2} checks/s is below the gate floor \
                 {floor:.2} ({tolerance}% under baseline {base:.2} from {gate_path})"
            )));
        }
        // The bounds gate is exact, not a tolerance band: tightness counts
        // are deterministic rational comparisons, so any drift means an
        // engine changed its answer. Older baselines without the section
        // skip the check (the next regenerated report carries it).
        let bounds_gate = [
            ("tighter_typed", bounds_tighter_typed),
            ("tighter_interval", bounds_tighter_interval),
            ("ties", bounds_ties),
        ];
        if bounds_gate.iter().all(|(key, _)| extract_json_number(&text, key).is_some()) {
            for (key, fresh) in bounds_gate {
                let base = extract_json_number(&text, key).unwrap_or_default();
                eprintln!("gate-bounds: {key} fresh {fresh} vs baseline {base}");
                if base != fresh as f64 {
                    return Err(Failure::Batch(format!(
                        "bounds drift: `{key}` is {fresh}, baseline {gate_path} has {base} \
                         (an engine changed its Table 1 answer; regenerate the baseline if \
                         intended)"
                    )));
                }
            }
        } else {
            eprintln!("gate-bounds: baseline {gate_path} has no bounds section, skipping");
        }
        // The optimize gate is zero-tolerance: optimized bounds are exact
        // eps multiples, so a fresh value above the committed one means a
        // rewrite the optimizer used to certify no longer wins. Fresh
        // values *below* committed are improvements and pass (regenerate
        // the baseline to lock them in). Baselines predating the section
        // skip the check.
        if opt_rows
            .iter()
            .any(|(stem, _, _)| extract_json_number(&text, &format!("{stem}_opt_eps")).is_some())
        {
            for (stem, _, fresh) in &opt_rows {
                let key = format!("{stem}_opt_eps");
                let Some(committed) = extract_json_number(&text, &key) else {
                    eprintln!("gate-optimize: baseline {gate_path} has no `{key}`, skipping");
                    continue;
                };
                eprintln!("gate-optimize: {key} fresh {fresh} vs committed {committed}");
                if *fresh > committed {
                    return Err(Failure::Batch(format!(
                        "optimization regression: `{stem}` optimizes to {fresh}*eps, above its \
                         committed {committed}*eps in {gate_path} (zero tolerance: the optimizer \
                         lost a certified rewrite)"
                    )));
                }
            }
        } else {
            eprintln!("gate-optimize: baseline {gate_path} has no optimize section, skipping");
        }
    }

    // The incremental gate compares this run against itself (a reuse
    // ratio, not a wall time), so it needs no baseline file and is
    // machine-independent.
    if let Some(min_ratio) = gate_incremental {
        eprintln!("gate-incremental: reuse ratio {reuse_ratio:.4} (floor {min_ratio})");
        if reuse_ratio < min_ratio {
            return Err(Failure::Batch(format!(
                "incremental reuse regression: the single-leaf-edit recheck replayed only \
                 {reuse_ratio:.4} of its judgments (floor {min_ratio})"
            )));
        }
    }
    Ok(())
}

/// The bench's timed region in the forward mode: check + bound of every
/// corpus program through `analyzer` (which answers from its result cache
/// when it has one), keeping each program's check outcome. It is the same
/// region every previous report timed, so `--baseline` comparisons stay
/// meaningful.
fn forward_pass(analyzer: &Analyzer, corpus: &[Program]) -> Vec<Result<Typed, Diagnostic>> {
    corpus
        .iter()
        .map(|program| {
            let typed = analyzer.check(program);
            if let Ok(t) = &typed {
                let _ = analyzer.bound(t);
            }
            typed
        })
        .collect()
}

/// [`forward_pass`] under the backward judgment: check_backward +
/// bound_backward of every corpus program.
fn backward_pass(
    analyzer: &Analyzer,
    corpus: &[Program],
) -> Vec<Result<BackwardTyped, Diagnostic>> {
    corpus
        .iter()
        .map(|program| {
            let typed = analyzer.check_backward(program);
            if let Ok(t) = &typed {
                let _ = analyzer.bound_backward(t);
            }
            typed
        })
        .collect()
}

/// `1 + iters` timed runs of one corpus pass: the first is a warm-up for
/// an uncached session and the cold pass for a cached one; the rest are
/// reported best-of-`iters`.
struct Passes<T> {
    first_seconds: f64,
    first: Vec<T>,
    best_seconds: f64,
    last: Vec<T>,
}

fn timed_passes<T>(iters: usize, mut pass: impl FnMut() -> Vec<T>) -> Passes<T> {
    let mut timed = || {
        let t0 = std::time::Instant::now();
        let results = pass();
        (t0.elapsed().as_secs_f64(), results)
    };
    let (first_seconds, first) = timed();
    let mut passes = Passes { first_seconds, first, best_seconds: f64::INFINITY, last: Vec::new() };
    for _ in 0..iters {
        let (seconds, results) = timed();
        passes.best_seconds = passes.best_seconds.min(seconds);
        passes.last = results;
    }
    passes
}

/// The bench's single-leaf edit: bumps the first standalone integer
/// digit run in `src` by one (`14.643` → `15.643`) — never a digit
/// inside an identifier or a fraction part, and never a constant inside
/// a `[...]` type/grade annotation or a `{grade}` application (those
/// change declared interfaces, not a term leaf). The edit therefore
/// changes exactly one `Const` leaf of the lowered term and stays
/// parseable.
fn bump_first_literal(src: &str) -> Option<String> {
    let bytes = src.as_bytes();
    let mut bracket_depth = 0usize;
    let mut prev_glyph = ' ';
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '[' => bracket_depth += 1,
            ']' => bracket_depth = bracket_depth.saturating_sub(1),
            _ if c.is_ascii_digit() => {
                let standalone = i == 0 || {
                    let p = bytes[i - 1] as char;
                    !(p.is_ascii_alphanumeric() || p == '_' || p == '.')
                };
                // A `{` immediately before the literal is a grade
                // application (`u [x]{2.0}`), not a function body.
                let in_annotation = bracket_depth > 0 || prev_glyph == '{';
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if standalone && !in_annotation && i - start <= 12 {
                    let bumped = src[start..i].parse::<u64>().ok()? + 1;
                    return Some(format!("{}{bumped}{}", &src[..start], &src[i..]));
                }
                continue;
            }
            _ => {}
        }
        if !c.is_whitespace() {
            prev_glyph = c;
        }
        i += 1;
    }
    None
}

/// Renders one corpus result the same way for the uncached, cached, and
/// incremental bench passes, so the byte-identical comparison is
/// meaningful: the inferred type plus its eq. (8) bound, or the rendered
/// diagnostic.
fn render_check(analyzer: &Analyzer, result: &Result<Typed, Diagnostic>) -> String {
    match result {
        Ok(typed) => match analyzer.bound_of_ty(typed.ty()) {
            Some(bound) => format!("{} — {bound}", typed.ty()),
            None => typed.ty().to_string(),
        },
        Err(d) => d.render(),
    }
}

/// Renders one backward corpus result identically for the uncached and
/// cached bench passes: the full backward check report, or
/// the rendered diagnostic (backward rejections are expected for most of
/// the forward corpus and compare byte-for-byte like any other output).
fn render_backward(result: &Result<BackwardTyped, Diagnostic>) -> String {
    match result {
        Ok(typed) => numfuzz::serve::backward_check_report(typed),
        Err(d) => d.render(),
    }
}

/// Pulls `"key": <number>` out of a report produced by [`bench`] (the
/// format is our own, so a full JSON parser is not needed).
fn extract_json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    rest[..end].parse().ok()
}

/// Parses options, reads the file, and builds the session. The third
/// element is the `--backward` flag.
fn load(rest: &[String]) -> Result<(Program, Analyzer, bool), Failure> {
    let file = rest.first().ok_or_else(|| Failure::Usage("missing FILE argument".into()))?;
    let opts = parse_opts(&rest[1..]).map_err(Failure::Usage)?;
    let src = std::fs::read_to_string(file).map_err(|e| Failure::Usage(format!("{file}: {e}")))?;
    let analyzer = Analyzer::builder()
        .signature(opts.instantiation)
        .format(opts.format)
        .mode(opts.mode)
        .build();
    let program = analyzer.parse_named(file, &src)?;
    Ok((program, analyzer, opts.backward))
}

struct Opts {
    format: Format,
    mode: RoundingMode,
    instantiation: Instantiation,
    /// Backward-error analysis mode (`--backward`): Bean's strictly
    /// linear judgment with per-input backward bounds.
    backward: bool,
}

fn parse_opts(rest: &[String]) -> Result<Opts, String> {
    let mut prec = 53u32;
    let mut emax = 1023i64;
    let mut mode = RoundingMode::TowardPositive;
    let mut instantiation = Instantiation::RelativePrecision;
    let mut backward = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--prec" => prec = value("--prec")?.parse().map_err(|e| format!("--prec: {e}"))?,
            "--emax" => emax = value("--emax")?.parse().map_err(|e| format!("--emax: {e}"))?,
            "--mode" => {
                mode = match value("--mode")?.as_str() {
                    "ru" => RoundingMode::TowardPositive,
                    "rd" => RoundingMode::TowardNegative,
                    "rz" => RoundingMode::TowardZero,
                    "rn" => RoundingMode::NearestEven,
                    other => return Err(format!("unknown mode `{other}`")),
                }
            }
            "--abs" => instantiation = Instantiation::AbsoluteError,
            "--backward" => backward = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    // `Format::new` asserts on degenerate formats, and huge ones make
    // evaluation allocate or loop without bound; binary256 is the widest
    // IEEE 754 interchange format.
    if !(2..=237).contains(&prec) {
        return Err(format!("--prec {prec} is out of range (2..=237)"));
    }
    if !(1..=262143).contains(&emax) {
        return Err(format!("--emax {emax} is out of range (1..=262143)"));
    }
    Ok(Opts { format: Format::new(prec, emax), mode, instantiation, backward })
}

/// `numfuzz check`: every function's inferred type, plus the program's.
/// The output text is shared with the `serve` protocol's `check` op
/// ([`numfuzz::serve::check_report`] — with `--backward`,
/// [`numfuzz::serve::backward_check_report`]), byte for byte.
fn check(program: &Program, analyzer: &Analyzer, backward: bool) -> Result<(), Failure> {
    if backward {
        let typed = analyzer.check_backward(program)?;
        print!("{}", numfuzz::serve::backward_check_report(&typed));
        return Ok(());
    }
    let typed = analyzer.check(program)?;
    print!("{}", numfuzz::serve::check_report(&typed));
    Ok(())
}

/// `numfuzz bound`: the eq. (8) error bound for every function and for
/// the program, in the session's format/mode — with `--backward`, the
/// numeric per-input backward bounds instead. Output shared with the
/// `serve` protocol's `bound` op ([`numfuzz::serve::bound_report`] /
/// [`numfuzz::serve::backward_bound_report`]).
fn bound(program: &Program, analyzer: &Analyzer, backward: bool) -> Result<(), Failure> {
    if backward {
        let typed = analyzer.check_backward(program)?;
        let bound = analyzer.bound_backward(&typed)?;
        print!("{}", numfuzz::serve::backward_bound_report(analyzer, &bound));
        return Ok(());
    }
    let typed = analyzer.check(program)?;
    print!("{}", numfuzz::serve::bound_report(analyzer, &typed));
    Ok(())
}

/// `numfuzz run`: both semantics, the measured distance, and the
/// rigorous verdict.
fn run(program: &Program, analyzer: &Analyzer) -> Result<(), Failure> {
    let exec = analyzer.run(program, &Inputs::none())?;
    println!("type    : {}", exec.ty);
    println!("ideal   : {}", exec.ideal);
    println!("fp      : {}   ({} in {})", exec.fp, exec.mode, exec.format);
    if let Some(rep) = &exec.report {
        println!("bound   : d <= {} ({})", rep.bound.to_sci_string(3), rep.grade);
        match rep.measured {
            Some(m) => println!("measured: d  = {m:.3e}"),
            None => println!("measured: (err outcome or undefined)"),
        }
        if let Some(ulp) = &rep.ulp {
            println!("ulp err : {ulp} (floats spanned, eq. 4)");
        }
        println!("verdict : {}", if rep.holds() { "bound holds (rigorous)" } else { "VIOLATION" });
        if !rep.holds() {
            return Err(Failure::Program(
                Diagnostic::new(
                    ErrorCode::BoundViolated,
                    "error-soundness violation (this would be an implementation bug)",
                )
                .with_file(program.name().unwrap_or("<source>")),
            ));
        }
    }
    Ok(())
}
