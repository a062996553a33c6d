//! The `numfuzz` command-line interface, built on the
//! [`Analyzer`]/[`Program`] facade. `numfuzz --help` lists every command
//! and flag; `cli.rs` holds the tables it prints and the one parser every
//! command calls, and `paper.rs` the paper's tables and soundness sweep.
//!
//! Exit codes: `0` success, `1` the program is ill-typed / violates its
//! bound (a *program* error, printed as a spanned diagnostic) — or a
//! failed gate, `2` usage or I/O error.

mod cli;
mod paper;

use cli::Args;
use numfuzz::prelude::*;
use std::path::{Path, PathBuf};
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
            eprint!("{}", cli::usage(args.first().map(String::as_str)));
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn dispatch(words: &[String]) -> Result<(), Failure> {
    let (command, rest) =
        words.split_first().ok_or_else(|| Failure::Usage("missing command".into()))?;
    let args = match command.as_str() {
        "--help" | "-h" | "help" => None,
        _ => cli::parse(command, rest).map_err(Failure::Usage)?,
    };
    let Some(args) = args else {
        print!("{}", cli::help());
        return Ok(());
    };
    match args.command() {
        "check" => {
            let (program, analyzer) = load(&args)?;
            print!("{}", analyzer.analyze(&program, analysis_mode(&args))?.check_text());
            Ok(())
        }
        "bound" => {
            let (program, analyzer) = load(&args)?;
            let analysis = analyzer.analyze(&program, analysis_mode(&args))?;
            print!("{}", analysis.bound_text(&analyzer)?);
            Ok(())
        }
        "run" => {
            let (program, analyzer) = load(&args)?;
            run(&program, &analyzer)
        }
        "batch" => batch(&args),
        "optimize" => optimize(&args),
        "table1" => table1(&args),
        "watch" => watch(&args),
        "bench" => bench(&args),
        "fuzz" => fuzz(&args),
        "serve" => serve(&args),
        "client" => client(&args),
        "loadgen" => loadgen(&args),
        "paper" => paper::table(args.arg()).map_err(Failure::Usage),
        "validate" => match paper::validate(args.value("--jobs")) {
            0 => Ok(()),
            n => Err(Failure::Batch(format!("{n} error-soundness violations"))),
        },
        other => unreachable!("`{other}` is in the command table but has no handler"),
    }
}

/// `numfuzz serve`: the resident analysis service — NDJSON over stdio by
/// default, over TCP with `--listen`. Every connection gets a forked
/// session; all sessions share one content-addressed result cache, so
/// repeated programs — within a connection, across connections, inside
/// `batch` requests — are analyzed once. Protocol: `docs/serve.md`.
fn serve(args: &Args) -> Result<(), Failure> {
    let cache_bytes: usize = args.value("--cache-bytes");
    let config = numfuzz::serve::ServeConfig {
        idle_timeout: std::time::Duration::from_millis(args.value("--idle-ms")),
        max_pending: args.value("--max-pending"),
        // Test-only fault-injection ops (docs/serve.md): environment-gated
        // so no production request stream can trip them by accident.
        debug_ops: std::env::var("NUMFUZZ_SERVE_DEBUG_OPS").as_deref() == Ok("1"),
    };
    let analyzer = args
        .session()
        .cache(AnalysisCache::with_budget(cache_bytes))
        // The judgment-level cache behind the `edit` op: sub-term results
        // persist across requests and connections, so an edited program
        // only recomputes the spine from the edit to the root. Same byte
        // budget as the whole-program cache.
        .judgment_cache_bytes(cache_bytes)
        .build();
    let jobs = args.value("--jobs");
    let service = std::sync::Arc::new(numfuzz::serve::Service::with_config(analyzer, jobs, config));
    let result = match args.get::<String>("--listen") {
        Some(addr) => numfuzz::serve::serve_tcp(&service, &addr),
        None => numfuzz::serve::serve_stdio(&service),
    };
    result.map_err(|e| Failure::Usage(format!("serve: {e}")))
}

/// `numfuzz client`: pipe NDJSON request lines from stdin to a serving
/// `numfuzz serve --listen`, one response line per request to stdout.
/// Exits with the worst `exit` field seen in a response.
fn client(args: &Args) -> Result<(), Failure> {
    let addr: String = args
        .get("--connect")
        .ok_or_else(|| Failure::Usage("client needs --connect HOST:PORT".into()))?;
    // In range: `cli::parse` checked it with `Duration::try_from_secs_f64`.
    let retry = std::time::Duration::from_secs_f64(args.value("--retry"));
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
fn loadgen(args: &Args) -> Result<(), Failure> {
    let connections: usize = args.value("--connections");
    let requests: usize = args.value("--requests");
    let seed: u64 = args.value("--seed");
    let out: String = args.value("--out");
    let tolerance: f64 = args.value("--tolerance");
    let out_path = std::env::current_dir()
        .map(|cwd| cwd.join(&out))
        .map_err(|e| Failure::Usage(format!("cannot resolve current directory: {e}")))?;

    let report = match args.get::<String>("--connect") {
        Some(addr) => numfuzz::loadgen::run(&addr, connections, requests, seed),
        None => {
            // Self-spawned server: the same construction as `numfuzz
            // serve`, on an ephemeral loopback port, torn down with a
            // shutdown request once the run completes (success or not).
            let analyzer = Analyzer::builder()
                .cache(AnalysisCache::with_budget(64 << 20))
                .judgment_cache_bytes(64 << 20)
                .build();
            let service =
                std::sync::Arc::new(numfuzz::serve::Service::new(analyzer, args.value("--jobs")));
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
    if let Some(gate_path) = args.get::<String>("--gate") {
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
fn fuzz(args: &Args) -> Result<(), Failure> {
    let cfg = numfuzz::fuzz::FuzzConfig {
        cases: args.value("--cases"),
        seed: args.value("--seed"),
        jobs: args.value("--jobs"),
        backward: args.switch("--backward"),
        incremental: args.switch("--incremental"),
        ..numfuzz::fuzz::FuzzConfig::default()
    };
    let repro_prefix: String = args.value("--repro");

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
fn optimize(args: &Args) -> Result<(), Failure> {
    let cfg = numfuzz::optimize::OptimizeConfig {
        budget: args.value("--budget"),
        seed: args.value("--seed"),
        jobs: args.value("--jobs"),
        precision_search: args.switch("--precision-search"),
        target_rel: args.get::<String>("--target-rel").as_deref().and_then(cli::parse_rational),
        ..numfuzz::optimize::OptimizeConfig::default()
    };
    let file = args.arg();
    let src = std::fs::read_to_string(file).map_err(|e| Failure::Usage(format!("{file}: {e}")))?;
    let analyzer = args.session().build();
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
    if let Some(out) = args.get::<String>("--out") {
        std::fs::write(&out, &outcome.rewritten)
            .map_err(|e| Failure::Usage(format!("{out}: {e}")))?;
        eprintln!("rewritten program written: {out}");
    }
    Ok(())
}

/// `numfuzz batch DIR`: check and bound every `.nf` file under `DIR`
/// (recursively) on `--jobs` worker threads — each worker is its own
/// session with its own arena, so workers never contend.
/// Output is printed in sorted-path order whatever the scheduling, so a
/// batch run is byte-for-byte reproducible across job counts.
fn batch(args: &Args) -> Result<(), Failure> {
    let dir = args.arg();
    let files = nf_files(Path::new(dir))?;
    let mode = analysis_mode(args);

    // One analyzer session per worker: parse, check, and bound all
    // happen against worker-local arenas.
    let reports = numfuzz::core::pool::ordered_map_with(
        args.value("--jobs"),
        &files,
        |_worker| args.session().build(),
        |analyzer, _i, path| batch_one(analyzer, path, mode),
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
fn watch(args: &Args) -> Result<(), Failure> {
    let file = args.arg();
    let poll_ms: u64 = args.value("--poll-ms");
    let iterations: u64 = args.value("--iterations");
    let analyzer = args.session().judgment_cache_bytes(64 << 20).build();

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
            let report = watch_recheck(&analyzer, file, &src, analysis_mode(args));
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
/// as `check` and `bound` print it, followed by the judgment reuse
/// split. Program errors render as their spanned diagnostic; the watch
/// loop keeps running either way.
fn watch_recheck(analyzer: &Analyzer, file: &str, src: &str, mode: AnalysisMode) -> String {
    let analyzed =
        analyzer.parse_named(file, src).and_then(|p| analyzer.analyze_incremental(&p, mode));
    let (analysis, counts) = match analyzed {
        Ok(done) => done,
        Err(d) => return format!("{}\n", d.render()),
    };
    let mut report = analysis.check_text();
    // A backward bound can fail (E0202) where the check succeeded; the
    // recheck then shows the check alone.
    if let Ok(bound) = analysis.bound_text(analyzer) {
        report.push_str(&bound);
    }
    report.push_str(&format!(
        "judgments: {} reused, {} recomputed of {}\n",
        counts.reused, counts.recomputed, counts.total
    ));
    report
}

/// One file of a [`batch`] run: `Ok((line, true))` for a checked program
/// (its [`Analysis::batch_line`], as the `serve` protocol's `batch` op
/// renders it), `Ok((diagnostic, false))` for a program error,
/// `Err(message)` for an I/O failure.
fn batch_one(
    analyzer: &mut Analyzer,
    path: &std::path::Path,
    mode: AnalysisMode,
) -> Result<(String, bool), String> {
    let shown = path.display().to_string();
    let src = std::fs::read_to_string(path).map_err(|e| format!("{shown}: {e}"))?;
    Ok(match analyzer.parse_named(&shown, &src).and_then(|p| analyzer.analyze(&p, mode)) {
        Ok(analysis) => (analysis.batch_line(analyzer, &shown), true),
        Err(d) => (d.render(), false),
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

/// Every `.nf` file under `dir`, recursively, in sorted order; an empty
/// directory is a usage error.
fn nf_files(dir: &Path) -> Result<Vec<PathBuf>, Failure> {
    let mut files = Vec::new();
    collect_nf_files(dir, &mut files)
        .map_err(|e| Failure::Usage(format!("{}: {e}", dir.display())))?;
    if files.is_empty() {
        return Err(Failure::Usage(format!("no .nf files under `{}`", dir.display())));
    }
    files.sort();
    Ok(files)
}

/// The Table 1 corpus that `table1` and `bench` read: `dir`, else
/// `benches/table1` under the current directory, else the copy committed
/// next to the crate (so `cargo run -- table1` works from anywhere).
fn table1_corpus(dir: Option<PathBuf>) -> Result<Vec<PathBuf>, Failure> {
    let dir = dir.unwrap_or_else(|| {
        let local = Path::new("benches/table1");
        if local.is_dir() {
            local.to_path_buf()
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("benches/table1")
        }
    });
    nf_files(&dir)
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
fn table1(args: &Args) -> Result<(), Failure> {
    let files = table1_corpus(args.get("--dir"))?;
    let analyzer = args.session().build();
    // Section 6.2 runs every benchmark over this input box.
    let std_range = RatInterval::new(Rational::ratio(1, 10), Rational::ratio(1000, 1));

    println!(
        "numfuzz table1: differential bound verification ({} benchmarks, {}, {}, inputs in [0.1, 1000])",
        files.len(),
        analyzer.format(),
        analyzer.mode(),
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
    /// The parsed benchmark and its principal function's input box, so
    /// `numfuzz bench` can time both legs again.
    program: Program,
    ranges: Vec<RatInterval>,
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

    Ok(Table1Row {
        grade: bound.grade.to_string(),
        typed_rel: paper::rp_bound_string(&bound.alpha),
        interval_rel: paper::rp_bound_string(ranged.bound()),
        tighter: bound.alpha.cmp(ranged.bound()),
        sound: report.holds() && interval_holds,
        typed_ms,
        interval_ms,
        program,
        ranges,
    })
}

/// `numfuzz bench`: check+bound throughput over the benchsuite corpus,
/// and parse throughput over its renderings.
///
/// The corpus mixes the paper's Table 3 kernels (via the IR translation),
/// the Table 5 conditional programs (via the parser), and scaled-down
/// Table 4 generated workloads, so the timing covers both type-heavy and
/// grade-heavy checking. One *pass* checks and bounds every program once;
/// the reported throughput is the best of `--iters` passes.
fn bench(args: &Args) -> Result<(), Failure> {
    let iters: usize = args.value("--iters");
    let out: String = args.value("--out");
    let tolerance: f64 = args.value("--tolerance");
    let gate_incremental: Option<f64> = args.get("--gate-incremental");
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

    // The parse measurement: the front end alone, over the
    // `Program::pretty` renderings of the corpus programs that re-parse
    // (open programs print their inputs unbound), the 300 KB
    // `serial_sum(5000)` among them. Rendering happens before the clock
    // starts, and a session of its own parses, so no other section's
    // counts move.
    let parse_analyzer = Analyzer::new();
    let parse_corpus: Vec<String> = corpus
        .iter()
        .map(|p| p.pretty(u32::MAX))
        .filter(|src| parse_analyzer.parse(src).is_ok())
        .collect();
    let parse_bytes: usize = parse_corpus.iter().map(String::len).sum();
    let parsed = timed_passes(iters, || {
        parse_corpus.iter().map(|src| parse_analyzer.parse_named("bench", src)).collect()
    });
    let parse_best = parsed.best_seconds;

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
        serial.last.iter().map(|r| render(&analyzer, r.clone().map(Analysis::Forward))).collect();

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
        let rendered: Vec<String> = results
            .iter()
            .map(|r| render(&cached_analyzer, r.clone().map(Analysis::Forward)))
            .collect();
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
    let render_backward = |r: &Result<BackwardTyped, Diagnostic>| {
        render(&analyzer, r.clone().map(Analysis::Backward))
    };
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
        let roundtrip = inc_analyzer.parse(&src).ok().filter(|p| {
            render(&inc_analyzer, inc_analyzer.analyze(p, AnalysisMode::Forward)) == *expect
        });
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
        let _ = inc_analyzer.analyze_incremental(orig, AnalysisMode::Forward)?;
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
    let mut inc_results: Vec<Result<Analysis, Diagnostic>> = Vec::with_capacity(inc_pairs.len());
    for (_, edited) in &inc_pairs {
        let result = inc_analyzer.analyze_incremental(edited, AnalysisMode::Forward);
        inc_results.push(result.map(|(analysis, counts)| {
            inc.reused += counts.reused;
            inc.recomputed += counts.recomputed;
            inc.total += counts.total;
            analysis
        }));
    }
    let inc_edit_seconds = t0.elapsed().as_secs_f64();
    let scratch_rendered: Vec<String> =
        inc_scratch.into_iter().map(|r| render(&inc_analyzer, r.map(Analysis::Forward))).collect();
    let inc_rendered: Vec<String> =
        inc_results.into_iter().map(|r| render(&inc_analyzer, r)).collect();
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
    // pass times (each leg best-of-`--iters`, like every other section)
    // ride along as context. A benchmark failing the differential check
    // fails the bench outright, gate file or not.
    let bounds_files = table1_corpus(None)?;
    // The corpus is the paper's relative-precision Table 1; like the rest
    // of the bench it runs under the default session (binary64, RP).
    let bounds_analyzer = Analyzer::new();
    let bounds_range = RatInterval::new(Rational::ratio(1, 10), Rational::ratio(1000, 1));
    let mut bounds_legs: Vec<(String, Program, Vec<RatInterval>)> = Vec::new();
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
        match row.tighter {
            std::cmp::Ordering::Less => bounds_tighter_typed += 1,
            std::cmp::Ordering::Greater => bounds_tighter_interval += 1,
            std::cmp::Ordering::Equal => bounds_ties += 1,
        }
        bounds_legs.push((stem, row.program, row.ranges));
    }
    let bounds_typed_seconds = timed_passes(iters, || {
        let typed = bounds_legs.iter().map(|(_, program, _)| bounds_analyzer.check(program));
        typed.map(|t| bounds_analyzer.bound(&t?)).collect::<Vec<_>>()
    })
    .best_seconds;
    let bounds_interval_seconds = timed_passes(iters, || {
        let legs = bounds_legs.iter();
        legs.map(|(stem, p, ranges)| bounds_analyzer.bound_interval_fn(p, stem, ranges)).collect()
    })
    .best_seconds;

    // The optimize measurement: the rewrite optimizer over the same Table
    // 1 corpus, small fixed budget, best-of-`--iters` whole passes like
    // every other section. The bound columns are exact eps multiples
    // (deterministic rational arithmetic), so the gate below holds them
    // to zero tolerance: an optimized bound above its committed value
    // means the optimizer lost a rewrite it used to find. Throughput
    // (candidates/sec) has a floor at the gate's tolerance.
    let opt_analyzer = Analyzer::new();
    let opt_cfg = numfuzz::optimize::OptimizeConfig {
        budget: 64,
        ..numfuzz::optimize::OptimizeConfig::default()
    };
    let mut opt_programs = Vec::new();
    for (stem, program, _) in &bounds_legs {
        let src = program.source().expect("Table 1 programs are parsed from source");
        opt_programs.push((stem, opt_analyzer.parse_named(stem, src)?));
    }
    let opt_passes = timed_passes(iters, || {
        let programs = opt_programs.iter();
        programs.map(|(stem, program)| (stem, opt_analyzer.optimize(program, &opt_cfg))).collect()
    });
    let opt_seconds = opt_passes.best_seconds;
    let opt_u = opt_analyzer.format().unit_roundoff(opt_analyzer.mode());
    let mut opt_rows: Vec<(String, f64, f64)> = Vec::new();
    let mut opt_improved = 0usize;
    let mut opt_candidates = 0usize;
    let mut opt_ratio_sum = 0.0f64;
    for (stem, outcome) in opt_passes.last {
        let outcome = outcome.map_err(|d| Failure::Batch(format!("optimize: {stem}: {d}")))?;
        opt_candidates += outcome.evaluated;
        if outcome.improved {
            opt_improved += 1;
        }
        let eps_of = |alpha: &Rational| alpha.div(&opt_u).to_f64();
        let (orig_eps, opt_eps) = (eps_of(&outcome.original.alpha), eps_of(&outcome.best.alpha));
        opt_ratio_sum += opt_eps / orig_eps;
        opt_rows.push((stem.to_string(), orig_eps, opt_eps));
    }
    let opt_mean_ratio =
        if opt_rows.is_empty() { 1.0 } else { opt_ratio_sum / opt_rows.len() as f64 };
    let opt_cps = if opt_seconds > 0.0 { opt_candidates as f64 / opt_seconds } else { 0.0 };

    let checks_per_sec = corpus.len() as f64 / best;
    let nodes_per_sec = total_nodes as f64 / best;
    // The speedup compares wall time for the identically constructed
    // corpus: node *counts* are not comparable across revisions (term
    // hash-consing changed what one "node" means), pass seconds are.
    let baseline_seconds = args
        .get::<String>("--baseline")
        .map(|path| {
            let text = std::fs::read_to_string(&path)
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
    // The parse section, like every section, comes after the top-level
    // forward keys; its own keys are unique so the gate reads them too.
    json.push_str(",\n  \"parse\": {\n");
    json.push_str(
        "    \"harness\": \"best-of-N passes of Analyzer::parse_named over the pretty-printed \
         corpus programs that re-parse, serial_sum(5000) among them; rendering is untimed\",\n",
    );
    json.push_str(&format!("    \"programs\": {},\n", parse_corpus.len()));
    json.push_str(&format!("    \"bytes\": {parse_bytes},\n"));
    json.push_str(&format!("    \"best_pass_seconds\": {parse_best:.6},\n"));
    json.push_str(&format!("    \"mb_per_sec\": {:.2},\n", parse_bytes as f64 / 1e6 / parse_best));
    json.push_str(&format!(
        "    \"programs_per_sec\": {:.2}\n  }}",
        parse_corpus.len() as f64 / parse_best
    ));
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
        "    \"harness\": \"cold analyze_incremental over the source-roundtrippable corpus, then \
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
    // (original and optimized), gated to zero tolerance below, and
    // `candidates_per_sec`, floored at the gate's tolerance. Keys are
    // `<stem>_orig_eps` / `<stem>_opt_eps` — unique across the whole
    // report, so the gate's first-occurrence reads are unambiguous.
    json.push_str(",\n  \"optimize\": {\n");
    json.push_str(
        "    \"harness\": \"best-of-N passes of numfuzz optimize over the committed Table 1 \
         corpus, budget 64, default seed; bounds are exact eps multiples of the typed grade, so \
         the gate allows zero regression above committed values\",\n",
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
    if let Some(gate_path) = args.get::<String>("--gate") {
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
        // The front end's and the optimizer's floors, at the same
        // tolerance. Baselines predating a section skip its check.
        let parse_mbps = parse_bytes as f64 / 1e6 / parse_best;
        let parse = ("parse", "mb_per_sec", "MB/s");
        throughput_floor(&text, &gate_path, tolerance, parse, parse_mbps)?;
        let optimize = ("optimize", "candidates_per_sec", "candidates/s");
        throughput_floor(&text, &gate_path, tolerance, optimize, opt_cps)?;
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

/// One optional `--gate` floor, named `(section, key, unit)`: `fresh` must
/// not fall more than `tolerance` percent below the baseline's `key`. A
/// baseline without the key skips the check.
fn throughput_floor(
    baseline: &str,
    gate_path: &str,
    tolerance: f64,
    (section, key, unit): (&str, &str, &str),
    fresh: f64,
) -> Result<(), Failure> {
    let Some(base) = extract_json_number(baseline, key) else {
        eprintln!("gate-{section}: baseline {gate_path} has no `{key}`, skipping");
        return Ok(());
    };
    let floor = base * (1.0 - tolerance / 100.0);
    eprintln!(
        "gate-{section}: fresh {fresh:.2} {unit} vs baseline {base:.2} {unit} \
         (floor {floor:.2} at {tolerance}% tolerance)"
    );
    if fresh < floor {
        return Err(Failure::Batch(format!(
            "{section} throughput regression: {fresh:.2} {unit} is below the gate floor \
             {floor:.2} ({tolerance}% under baseline {base:.2} from {gate_path})"
        )));
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

/// Renders one corpus outcome the same way for the uncached, cached,
/// and incremental bench passes, so their byte-identical comparison is
/// meaningful: the `check` and `bound` reports, or the rendered
/// diagnostic (backward rejections are expected for most of the forward
/// corpus and compare like any other output).
fn render(analyzer: &Analyzer, result: Result<Analysis, Diagnostic>) -> String {
    match result.and_then(|a| Ok(a.check_text() + &a.bound_text(analyzer)?)) {
        Ok(text) => text,
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

/// The judgment `--backward` selects: Bean's backward judgment, or by
/// default NumFuzz's forward one.
fn analysis_mode(args: &Args) -> AnalysisMode {
    if args.switch("--backward") {
        AnalysisMode::Backward
    } else {
        AnalysisMode::Forward
    }
}

/// Reads FILE and parses it in the session the flags describe.
fn load(args: &Args) -> Result<(Program, Analyzer), Failure> {
    let file = args.arg();
    let src = std::fs::read_to_string(file).map_err(|e| Failure::Usage(format!("{file}: {e}")))?;
    let analyzer = args.session().build();
    let program = analyzer.parse_named(file, &src)?;
    Ok((program, analyzer))
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
