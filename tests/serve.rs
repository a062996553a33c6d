//! End-to-end tests of the resident analysis service: `numfuzz serve`
//! driven over stdio and TCP, byte-identity with the one-shot CLI,
//! cache-hit behavior across requests and connections, protocol errors,
//! and the `docs/serve.md` wire-protocol examples replayed verbatim.

use numfuzz::serve::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_numfuzz");

/// A `numfuzz serve` child process on stdio framing, with line-oriented
/// request/response helpers.
struct StdioServer {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

impl StdioServer {
    fn spawn(extra_args: &[&str]) -> Self {
        let mut child = Command::new(BIN)
            .arg("serve")
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn numfuzz serve");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        StdioServer { child, stdin, stdout }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut response = String::new();
        self.stdout.read_line(&mut response).expect("read response");
        assert!(response.ends_with('\n'), "responses are newline-terminated: {response:?}");
        response.trim_end_matches('\n').to_string()
    }

    /// Sends `shutdown` and asserts the process exits successfully.
    fn shutdown(mut self) {
        let reply = self.request(r#"{"id":999,"op":"shutdown"}"#);
        let v = Json::parse(&reply).expect("shutdown response parses");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let status = self.child.wait().expect("server exits after shutdown");
        assert!(status.success(), "clean exit after shutdown: {status:?}");
    }
}

fn parse(response: &str) -> Json {
    Json::parse(response).unwrap_or_else(|e| panic!("bad response JSON: {e}\n{response}"))
}

/// Runs a one-shot CLI command, returning (stdout, success).
fn cli(args: &[&str]) -> (String, bool) {
    let out = Command::new(BIN).args(args).output().expect("run numfuzz");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), out.status.success())
}

#[test]
fn serve_output_is_byte_identical_to_one_shot_cli() {
    let dir = std::env::temp_dir().join(format!("numfuzz-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let defs = "function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }";
    // The forward request leaves `mode` out (forward is the default);
    // the backward one sends the definitions alone, the idiomatic
    // backward query (docs/serve.md).
    let cases = [
        (None, "ma.nf", format!("{defs}\nmulfp (2, 3)")),
        (Some("backward"), "defs.nf", defs.to_string()),
    ];
    let mut server = StdioServer::spawn(&[]);
    for (mode, name, src) in cases {
        let file = dir.join(name);
        std::fs::write(&file, &src).unwrap();
        let path = file.to_str().unwrap();
        let flags: &[&str] = if mode.is_some() { &["--backward"] } else { &[] };
        // `edit` answers with what `check` prints.
        for (op, command) in [("check", "check"), ("bound", "bound"), ("edit", "check")] {
            let (expected, ok) = cli(&[&[command, path], flags].concat());
            assert!(ok, "{command} {flags:?}");
            let mut fields = vec![("id", Json::int(1)), ("op", Json::str(op))];
            if let Some(mode) = mode {
                fields.push(("mode", Json::str(mode)));
            }
            fields.push(("src", Json::str(src.clone())));
            fields.push(("name", Json::str(path)));
            let v = parse(&server.request(&Json::obj(fields).to_string()));
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{op} {mode:?}");
            assert_eq!(
                v.get("output").and_then(Json::as_str),
                Some(expected.as_str()),
                "serve `{op}` ({mode:?}) output must be byte-identical to `numfuzz {command}`"
            );
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A forward bound whose grade names a symbol other than `eps` has no
/// value: `numfuzz bound`, `numfuzz run` and the serve `bound` op all
/// answer with the E0202 golden diagnostic, as the backward bound does.
#[test]
fn unresolved_forward_grade_is_e0202_on_cli_and_serve() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/E0202.nf");
    let expected = include_str!("golden/E0202.expected");
    for command in ["bound", "run"] {
        let out = Command::new(BIN).args([command, path]).output().expect("run numfuzz");
        assert_eq!(out.status.code(), Some(1), "{command}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{command}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), expected, "{command}");
    }
    let mut server = StdioServer::spawn(&[]);
    let request = Json::obj(vec![
        ("id", Json::int(1)),
        ("op", Json::str("bound")),
        ("src", Json::str(std::fs::read_to_string(path).expect("golden input"))),
        ("name", Json::str(path)),
    ]);
    let v = parse(&server.request(&request.to_string()));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("exit").and_then(Json::as_f64), Some(1.0));
    let error = v.get("error").expect("an error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("E0202"));
    let rendered = error.get("rendered").and_then(Json::as_str).expect("rendered");
    assert_eq!(format!("{rendered}\n"), expected);
    server.shutdown();
}

/// An infinite grade has no value either, and is worded as what it is:
/// `numfuzz bound`, `numfuzz run` and the serve `bound` op answer the same
/// E0202 with exit 1, without claiming the grade names unknown symbols.
#[test]
fn infinite_forward_grade_is_e0202_on_cli_and_serve() {
    let src = "function f (x: num) : M[inf]num { rnd x }\nf 1.5\n";
    let expected = "error[E0202]: grade `inf` is infinite, so it has no numeric value\n  \
                    note: an infinite grade promises no finite rounding-error bound\n";
    let path = std::env::temp_dir().join(format!("numfuzz-inf-grade-{}.nf", std::process::id()));
    std::fs::write(&path, src).unwrap();
    for command in ["bound", "run"] {
        let out = Command::new(BIN).arg(command).arg(&path).output().expect("run numfuzz");
        assert_eq!(out.status.code(), Some(1), "{command}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{command}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), expected, "{command}");
    }
    let _ = std::fs::remove_file(&path);
    let mut server = StdioServer::spawn(&[]);
    let request =
        Json::obj(vec![("id", Json::int(1)), ("op", Json::str("bound")), ("src", Json::str(src))]);
    let v = parse(&server.request(&request.to_string()));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("exit").and_then(Json::as_f64), Some(1.0));
    let error = v.get("error").expect("an error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("E0202"));
    let rendered = error.get("rendered").and_then(Json::as_str).expect("rendered");
    assert_eq!(format!("{rendered}\n"), expected);
    server.shutdown();
}

#[test]
fn serve_batch_lines_match_cli_batch() {
    let dir = std::env::temp_dir().join(format!("numfuzz-serve-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let entries = [
        ("a.nf", "rnd 1.5"),
        ("bad.nf", "2 3"),
        ("dup.nf", "rnd 1.5"),
        ("fun.nf", "function f (x: num) : M[eps]num { rnd x }"),
    ];
    for (name, src) in entries {
        std::fs::write(dir.join(name), src).unwrap();
    }
    let dir_arg = dir.to_str().unwrap();
    // The serve `batch` op over the same (path, src) pairs, sorted like
    // the CLI sorts files.
    let mut names: Vec<String> =
        entries.iter().map(|(n, _)| dir.join(n).to_str().unwrap().to_string()).collect();
    names.sort();
    let programs: Vec<Json> = names
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).unwrap();
            Json::obj(vec![("src", Json::str(src)), ("name", Json::str(path.clone()))])
        })
        .collect();
    let mut server = StdioServer::spawn(&["--jobs", "2"]);
    for mode in [None, Some("backward")] {
        let flags: &[&str] = if mode.is_some() { &["--backward"] } else { &[] };
        let (batch_stdout, ok) = cli(&[&["batch", dir_arg, "--jobs", "2"], flags].concat());
        assert!(!ok, "bad.nf fails the batch");
        let mut fields = vec![("id", Json::int(1)), ("op", Json::str("batch"))];
        if let Some(mode) = mode {
            fields.push(("mode", Json::str(mode)));
        }
        fields.push(("programs", Json::Arr(programs.clone())));
        let v = parse(&server.request(&Json::obj(fields).to_string()));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let results = v.get("results").and_then(Json::as_array).unwrap();
        let serve_lines: Vec<&str> =
            results.iter().map(|r| r.get("line").and_then(Json::as_str).unwrap()).collect();
        let cli_lines: Vec<&str> = batch_stdout.lines().collect();
        // CLI output ends with the summary line; everything before it is
        // the per-file lines (diagnostics may span multiple lines).
        let summary = *cli_lines.last().unwrap();
        assert_eq!(
            cli_lines[..cli_lines.len() - 1].join("\n"),
            serve_lines.join("\n"),
            "per-file batch lines ({mode:?}) must match the CLI byte for byte"
        );
        assert_eq!(v.get("summary").and_then(Json::as_str), Some(summary));
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_requests_hit_the_cache_and_stats_report_it() {
    let mut server = StdioServer::spawn(&[]);
    let check = r#"{"id":1,"op":"check","src":"s = mul (3, 3); rnd s"}"#;
    let r1 = server.request(check);
    let r2 = server.request(check);
    assert_eq!(r1, r2, "replayed response is byte-identical");
    let stats = parse(&server.request(r#"{"id":2,"op":"stats"}"#));
    let cache = stats.get("cache").expect("serve always runs with a cache");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("requests").and_then(Json::as_f64), Some(3.0));
    server.shutdown();
}

#[test]
fn protocol_errors_answer_eproto_and_keep_serving() {
    let mut server = StdioServer::spawn(&[]);
    for (bad, why) in [
        ("this is not json", "invalid JSON"),
        (r#"{"id":1}"#, "missing op"),
        (r#"{"id":1,"op":"frobnicate"}"#, "unknown op"),
        (r#"{"id":1,"op":"check"}"#, "missing src"),
        (r#"{"id":1,"op":"batch"}"#, "missing programs"),
    ] {
        let v = parse(&server.request(bad));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{why}");
        assert_eq!(v.get("exit").and_then(Json::as_f64), Some(2.0), "{why}");
        assert_eq!(
            v.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("EPROTO"),
            "{why}"
        );
    }
    // Ill-typed programs are *program* errors, with the E0xxx payload.
    let v = parse(&server.request(r#"{"id":9,"op":"check","src":"rnd y"}"#));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("exit").and_then(Json::as_f64), Some(1.0));
    let error = v.get("error").unwrap();
    assert_eq!(error.get("code").and_then(Json::as_str), Some("E0002"));
    assert!(error.get("rendered").and_then(Json::as_str).unwrap().starts_with("error[E0002]"));
    // The server is still alive and answering.
    let v = parse(&server.request(r#"{"id":10,"op":"check","src":"rnd 1.5"}"#));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

/// Spawns `serve --listen 127.0.0.1:0` and reads the bound address off
/// stderr.
fn spawn_tcp_server(extra_args: &[&str]) -> (Child, String) {
    spawn_tcp_server_env(extra_args, &[])
}

/// Like [`spawn_tcp_server`], with extra environment variables (the
/// fault-injection tests gate `debug-panic`/`debug-sleep` on
/// `NUMFUZZ_SERVE_DEBUG_OPS=1`).
fn spawn_tcp_server_env(extra_args: &[&str], envs: &[(&str, &str)]) -> (Child, String) {
    let mut child = Command::new(BIN)
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra_args)
        .envs(envs.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn numfuzz serve --listen");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("numfuzz serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn tcp_serve_answers_concurrent_connections_with_a_shared_cache() {
    let (mut child, addr) = spawn_tcp_server(&[]);
    // Two concurrent connections, each analyzing the same program many
    // times; whichever connection computes it first, the other hits.
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(&addr).expect("connect");
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut outputs = Vec::new();
                for i in 0..10 {
                    let req =
                        format!(r#"{{"id":{i},"op":"check","src":"s = mul ({w}, 7); rnd s"}}"#);
                    writeln!(writer, "{req}").unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    let v = Json::parse(response.trim_end()).expect("response parses");
                    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
                    outputs.push(v.get("output").and_then(Json::as_str).unwrap().to_string());
                }
                outputs
            })
        })
        .collect();
    for worker in workers {
        let outputs = worker.join().expect("worker");
        assert!(outputs.windows(2).all(|w| w[0] == w[1]), "stable replies per connection");
    }
    // A third connection reads stats and shuts the server down: the two
    // distinct programs were analyzed once each, everything else hit.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"id":100,"op":"stats"}}"#).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let v = Json::parse(response.trim_end()).unwrap();
    let cache = v.get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(2.0), "{response}");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(18.0), "{response}");
    writeln!(writer, r#"{{"id":101,"op":"shutdown"}}"#).unwrap();
    response.clear();
    reader.read_line(&mut response).unwrap();
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success(), "server exits cleanly after shutdown: {status:?}");
}

#[test]
fn wildcard_bind_still_shuts_down() {
    // A shutdown self-wake against a 0.0.0.0 bind must reach the accept
    // loop via loopback.
    let mut child = Command::new(BIN)
        .args(["serve", "--listen", "0.0.0.0:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn numfuzz serve");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line.trim().strip_prefix("numfuzz serve: listening on ").unwrap();
    let port = addr.rsplit(':').next().unwrap();
    let stream = TcpStream::connect(format!("127.0.0.1:{port}")).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"id":1,"op":"shutdown"}}"#).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success(), "wildcard-bound server exits after shutdown: {status:?}");
}

#[test]
fn client_mode_pipes_requests_and_propagates_exit_codes() {
    let (mut child, addr) = spawn_tcp_server(&[]);
    let run_client = |input: &str| {
        let mut client = Command::new(BIN)
            .args(["client", "--connect", &addr])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn numfuzz client");
        client.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
        let out = client.wait_with_output().expect("client exits");
        (String::from_utf8(out.stdout).unwrap(), out.status.code().unwrap_or(-1))
    };

    let (stdout, code) = run_client(
        "{\"id\":1,\"op\":\"check\",\"src\":\"rnd 1.5\"}\n{\"id\":2,\"op\":\"stats\"}\n",
    );
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(stdout.lines().count(), 2, "one response line per request");

    // A program error propagates as exit 1.
    let (stdout, code) = run_client("{\"id\":3,\"op\":\"check\",\"src\":\"2 3\"}\n");
    assert_eq!(code, 1, "{stdout}");
    // A protocol error propagates as exit 2.
    let (stdout, code) = run_client("{\"id\":4,\"op\":\"frobnicate\"}\n");
    assert_eq!(code, 2, "{stdout}");

    // Fifty requests in sequence answer within a second. A newline sent
    // apart from its line would wait for the server's delayed
    // acknowledgement, ~40 ms a request (over 2 s for these fifty).
    let requests: String = (0..50)
        .map(|i| format!("{{\"id\":{},\"op\":\"check\",\"src\":\"rnd 1.5\"}}\n", 100 + i))
        .collect();
    let started = Instant::now();
    let (stdout, code) = run_client(&requests);
    let elapsed = started.elapsed();
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(stdout.lines().count(), 50, "one response line per request");
    assert!(elapsed < Duration::from_secs(1), "50 sequential requests took {elapsed:?}");

    let (_, code) = run_client("{\"id\":5,\"op\":\"shutdown\"}\n");
    assert_eq!(code, 0);
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

#[test]
fn client_rejects_unusable_retry_values() {
    // Negative, non-finite and out-of-range windows are usage errors, and
    // so is a window the clock cannot add to `now` — never a panic.
    for retry in ["-1", "NaN", "inf", "1e30", "1e19"] {
        let mut client = Command::new(BIN)
            .args(["client", "--connect", "127.0.0.1:1", "--retry", retry])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn numfuzz client");
        let status = wait_timeout(&mut client, Duration::from_secs(10));
        assert_eq!(status.code(), Some(2), "--retry {retry}: {status:?}");
    }
}

/// One request/response exchange over an existing TCP connection pair.
fn tcp_request(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(writer, "{line}").expect("write request");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    parse(response.trim_end())
}

fn tcp_connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn deeply_nested_request_gets_an_error_reply() {
    // 2,000 nested parentheses (a 4 KB request) used to overflow a worker
    // thread's stack and abort the whole server; the parser's nesting
    // limit turns them into an ordinary syntax error.
    let (mut child, addr) = spawn_tcp_server(&[]);
    let (mut writer, mut reader) = tcp_connect(&addr);
    let deep = format!("s = mul ({}2{}, 3); rnd s", "(".repeat(2000), ")".repeat(2000));
    let request = format!(r#"{{"id":1,"op":"check","src":"{deep}"}}"#);
    let v = tcp_request(&mut writer, &mut reader, &request);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("error").unwrap().get("code").and_then(Json::as_str), Some("E0001"));
    // The same connection keeps serving.
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":2,"op":"check","src":"rnd 1.5"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":3,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

#[test]
fn thousands_of_definitions_get_a_normal_reply() {
    // 4,000 definitions (a 143 KB request) used to overflow a worker
    // thread's stack in lowering, which recursed once per definition,
    // and abort the whole server.
    let (mut child, addr) = spawn_tcp_server(&[]);
    let (mut writer, mut reader) = tcp_connect(&addr);
    let defs: String =
        (0..4000).map(|i| format!("function f{i} (x: num) : num {{ x }}\\n")).collect();
    let request = format!(r#"{{"id":1,"op":"check","src":"{defs}"}}"#);
    let v = tcp_request(&mut writer, &mut reader, &request);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    // The same connection keeps serving.
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":2,"op":"check","src":"rnd 1.5"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":3,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let (mut child, addr) = spawn_tcp_server(&["--jobs", "2"]);
    let (mut writer, mut reader) = tcp_connect(&addr);
    // All three requests land in one write: the server dispatches them
    // concurrently but must reply strictly in request order.
    let burst = concat!(
        r#"{"id":1,"op":"check","src":"s = mul (11, 3); rnd s"}"#,
        "\n",
        r#"{"id":2,"op":"check","src":"s = mul (12, 3); rnd s"}"#,
        "\n",
        r#"{"id":3,"op":"check","src":"s = mul (13, 3); rnd s"}"#,
        "\n",
    );
    writer.write_all(burst.as_bytes()).unwrap();
    for expected_id in 1..=3 {
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let v = parse(response.trim_end());
        assert_eq!(
            v.get("id").and_then(Json::as_f64),
            Some(f64::from(expected_id)),
            "pipelined replies must come back in request order"
        );
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":4,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

#[test]
fn idle_connections_are_closed_and_the_server_keeps_serving() {
    let (mut child, addr) = spawn_tcp_server(&["--idle-ms", "250"]);
    // A slow client: half a request, then silence. The idle deadline
    // must close the connection rather than hold its buffer forever.
    let (mut slow, mut slow_reader) = tcp_connect(&addr);
    slow.write_all(br#"{"id":1,"op":"check","#).unwrap();
    slow.flush().unwrap();
    let mut buf = String::new();
    let n = slow_reader.read_line(&mut buf).expect("read until server closes");
    assert_eq!(n, 0, "idle connection gets EOF, not a response: {buf:?}");
    // The server is unharmed: a live connection still gets answers.
    let (mut writer, mut reader) = tcp_connect(&addr);
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":2,"op":"metrics"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let idle_closed = v
        .get("connections")
        .and_then(|c| c.get("idle_closed"))
        .and_then(Json::as_f64)
        .expect("metrics reports idle_closed");
    assert!(idle_closed >= 1.0, "the slow client was reaped on the idle deadline");
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":3,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

#[test]
fn handler_panic_answers_epanic_and_the_server_survives() {
    let (mut child, addr) = spawn_tcp_server_env(&[], &[("NUMFUZZ_SERVE_DEBUG_OPS", "1")]);
    let (mut writer, mut reader) = tcp_connect(&addr);
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":1,"op":"debug-panic"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("exit").and_then(Json::as_f64), Some(2.0));
    assert_eq!(
        v.get("error").unwrap().get("code").and_then(Json::as_str),
        Some("EPANIC"),
        "a handler panic must answer a well-formed error reply"
    );
    // The same connection keeps working — the worker rebuilt its session.
    let v = tcp_request(
        &mut writer,
        &mut reader,
        r#"{"id":2,"op":"check","src":"s = mul (3, 3); rnd s"}"#,
    );
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":3,"op":"metrics"}"#);
    assert_eq!(
        v.get("connections").and_then(|c| c.get("panics_caught")).and_then(Json::as_f64),
        Some(1.0),
        "the panic is counted, not swallowed"
    );
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":4,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success(), "server exits cleanly after surviving a panic");
}

#[test]
fn per_tenant_admission_rejects_with_ebusy_and_does_not_hang() {
    let (mut child, addr) = spawn_tcp_server_env(
        &["--jobs", "1", "--max-pending", "1"],
        &[("NUMFUZZ_SERVE_DEBUG_OPS", "1")],
    );
    let (mut writer, mut reader) = tcp_connect(&addr);
    // One write carries both requests, so the slow one is still in
    // flight when the second is admitted — which the tenant's limit of 1
    // must refuse. Replies stay in request order: the sleep's reply
    // first, then the (immediately computed) rejection.
    let burst = concat!(
        r#"{"id":1,"op":"debug-sleep","ms":700,"tenant":"acme"}"#,
        "\n",
        r#"{"id":2,"op":"check","src":"rnd 1.5","tenant":"acme"}"#,
        "\n",
    );
    let t0 = Instant::now();
    writer.write_all(burst.as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let v = parse(response.trim_end());
    assert_eq!(v.get("id").and_then(Json::as_f64), Some(1.0));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    response.clear();
    reader.read_line(&mut response).unwrap();
    let v = parse(response.trim_end());
    assert_eq!(v.get("id").and_then(Json::as_f64), Some(2.0));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("exit").and_then(Json::as_f64), Some(2.0));
    assert_eq!(
        v.get("error").unwrap().get("code").and_then(Json::as_str),
        Some("EBUSY"),
        "over-limit tenant traffic is rejected, not queued: {response}"
    );
    assert!(t0.elapsed() < Duration::from_secs(10), "backpressure must answer promptly, not hang");
    // Another tenant was never over its own limit.
    let v = tcp_request(
        &mut writer,
        &mut reader,
        r#"{"id":3,"op":"check","src":"rnd 1.5","tenant":"other"}"#,
    );
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":4,"op":"metrics"}"#);
    assert_eq!(
        v.get("admission").and_then(|a| a.get("rejected")).and_then(Json::as_f64),
        Some(1.0)
    );
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":5,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

#[test]
fn optimize_of_a_long_let_chain_gets_an_error_reply() {
    // A 6,000-statement chain (a 226 KB request) used to overflow a
    // worker's stack in the optimizer's extraction and abort the server.
    let (mut child, addr) = spawn_tcp_server(&[]);
    let mut src = String::from(
        "function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }\n\
         function chain (x: num) : M[6000*eps]num {\n    let s1 = addfp (| x, 1 |);\n",
    );
    for k in 2..6000 {
        src.push_str(&format!("    let s{k} = addfp (| s{}, 1 |);\n", k - 1));
    }
    src.push_str("    addfp (| s5999, 1 |)\n}\nchain 0.5\n");
    let request = Json::obj(vec![
        ("id", Json::int(1)),
        ("op", Json::str("optimize")),
        ("src", Json::str(src)),
    ]);
    let (mut writer, mut reader) = tcp_connect(&addr);
    let v = tcp_request(&mut writer, &mut reader, &request.to_string());
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let error = v.get("error").expect("an error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("E0203"));
    let message = error.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("36011 term nodes"), "{message}");
    // The server is alive: a new connection gets answers.
    let (mut writer, mut reader) = tcp_connect(&addr);
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":2,"op":"stats"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":3,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

#[test]
fn shutdown_with_idle_connections_open_exits_and_frees_the_port() {
    let (mut child, addr) = spawn_tcp_server(&[]);
    // Two connections, each answered once so the server has surely taken
    // them, then left idle: their readers are blocked on the sockets.
    let idle: Vec<_> = (0..2)
        .map(|i| {
            let (mut writer, mut reader) = tcp_connect(&addr);
            let v = tcp_request(&mut writer, &mut reader, &format!(r#"{{"id":{i},"op":"stats"}}"#));
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
            (writer, reader)
        })
        .collect();
    let (mut writer, mut reader) = tcp_connect(&addr);
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":9,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(5));
    assert!(status.success(), "server exits after shutdown with idle connections open: {status:?}");
    for (_writer, mut reader) in idle {
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("read to EOF"), 0, "{rest:?}");
    }
    std::net::TcpListener::bind(&addr).expect("the port is free again");
}

/// An idle server sleeps until a socket or a deadline wakes it: with one
/// open, idle connection it must use at most 1% of a core.
#[cfg(target_os = "linux")]
#[test]
fn idle_server_does_not_poll() {
    /// utime + stime of a process, in seconds (`/proc` counts in
    /// USER_HZ, which is 100 on Linux).
    fn cpu_seconds(pid: u32) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
        // Fields after the parenthesized command name start at field 3.
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..].split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        ticks as f64 / 100.0
    }
    let (mut child, addr) = spawn_tcp_server(&[]);
    let (mut writer, mut reader) = tcp_connect(&addr);
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":1,"op":"stats"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let (cpu0, t0) = (cpu_seconds(child.id()), Instant::now());
    std::thread::sleep(Duration::from_secs(3));
    let share = (cpu_seconds(child.id()) - cpu0) / t0.elapsed().as_secs_f64();
    assert!(share <= 0.01, "an idle server used {:.1}% of a core", share * 100.0);
    let v = tcp_request(&mut writer, &mut reader, r#"{"id":2,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

#[test]
fn the_257th_connection_gets_ebusy_and_the_rest_keep_serving() {
    let (mut child, addr) = spawn_tcp_server(&[]);
    let (mut first, mut first_reader) = tcp_connect(&addr);
    let v = tcp_request(&mut first, &mut first_reader, r#"{"id":1,"op":"stats"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    // 255 more idle connections fill the cap of 256; the server takes
    // them in the order they connect.
    let open: Vec<TcpStream> =
        (1..256).map(|_| TcpStream::connect(&addr).expect("connect")).collect();
    let (_extra, mut extra_reader) = tcp_connect(&addr);
    let mut line = String::new();
    extra_reader.read_line(&mut line).expect("the refusal line");
    let v = parse(line.trim_end());
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("exit").and_then(Json::as_f64), Some(2.0));
    assert_eq!(v.get("error").unwrap().get("code").and_then(Json::as_str), Some("EBUSY"), "{line}");
    line.clear();
    assert_eq!(extra_reader.read_line(&mut line).expect("EOF after the refusal"), 0, "{line:?}");
    let v = tcp_request(&mut first, &mut first_reader, r#"{"id":2,"op":"metrics"}"#);
    assert_eq!(
        v.get("admission").and_then(|a| a.get("rejected")).and_then(Json::as_f64),
        Some(1.0),
        "the refused connection counts as an admission rejection"
    );
    let v = tcp_request(&mut first, &mut first_reader, r#"{"id":3,"op":"stats"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    drop(open);
    let v = tcp_request(&mut first, &mut first_reader, r#"{"id":4,"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let status = wait_timeout(&mut child, Duration::from_secs(10));
    assert!(status.success());
}

fn wait_timeout(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("process did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Extracts the `>` request / `<` response pairs from every ```jsonl
/// fence in `docs/serve.md`.
fn doc_examples(md: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    let mut lines = md.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "```jsonl" {
            continue;
        }
        let mut request: Option<String> = None;
        for inner in lines.by_ref() {
            let inner = inner.trim_end();
            if inner.trim() == "```" {
                break;
            }
            if let Some(req) = inner.strip_prefix("> ") {
                assert!(request.is_none(), "request without a response in docs: {req}");
                request = Some(req.to_string());
            } else if let Some(resp) = inner.strip_prefix("< ") {
                let req = request.take().expect("response without a request in docs");
                pairs.push((req, resp.to_string()));
            }
        }
        assert!(request.is_none(), "trailing unanswered request in docs");
    }
    pairs
}

#[test]
fn docs_serve_examples_replay_verbatim() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/serve.md"))
        .expect("docs/serve.md exists");
    let pairs = doc_examples(&md);
    assert!(
        pairs.len() >= 8,
        "expected at least 8 request/response examples in docs/serve.md, found {}",
        pairs.len()
    );
    // All examples run through one server, in document order, so the doc
    // reads as a single honest session transcript (stats counters
    // included). `--jobs 1` pins the machine-dependent `jobs` field.
    let mut server = StdioServer::spawn(&["--jobs", "1"]);
    for (request, expected) in pairs {
        let response = server.request(&request);
        assert_eq!(
            response, expected,
            "docs/serve.md example drifted from the live server\nrequest: {request}"
        );
    }
    server.shutdown();
}
