//! The resident analysis service behind `numfuzz serve` — and the small
//! newline-delimited JSON (NDJSON) toolkit it is built on.
//!
//! A [`Service`] wraps a configured [`Analyzer`] whose
//! [`AnalysisCache`](crate::AnalysisCache) is shared by every session the
//! service forks: one session per connection (so concurrent parsing never
//! contends on an arena lock) and one per batch worker (dispatched onto
//! the scoped worker pool), all answering from one content-addressed
//! result table. Requests and responses are single JSON objects, one per
//! line; the wire grammar is documented in `docs/serve.md` and every
//! example there is replayed against a live server by `tests/serve.rs`.
//!
//! The build environment has no crates.io access, so the JSON layer
//! ([`Json`]) is hand-rolled: a strict recursive-descent parser and a
//! compact writer with deterministic key order (insertion order — the
//! server always emits the same bytes for the same request).
//!
//! Response payloads embed the *exact* stdout of the one-shot CLI: a
//! `check` response's `output` field is byte-identical to what
//! `numfuzz check FILE` prints, because both render the same
//! [`Analysis`](crate::Analysis) of [`Analyzer::analyze`]. The
//! `check`/`bound`/`edit`/`batch` ops accept an optional `mode` field
//! (`"forward"`, the default, or `"backward"`) selecting the judgment;
//! the mode is part of every cache key (see [`AnalysisMode`]).
//!
//! The `edit` op is the incremental variant of `check`: it rechecks
//! through the analyzer's judgment-level memo table
//! ([`Analyzer::analyze_incremental`]) and reports
//! `reused`/`recomputed`/`total` judgment counts alongside the usual
//! `output` — which stays byte-identical to a `check` of the same
//! source. `numfuzz watch` is built on the same entry point.
//!
//! The TCP transport is an event loop woken by its sockets
//! ([`serve_listener`]): each connection has a reader thread that
//! blocks on the socket and hands complete request lines to the loop,
//! and a writer thread that sends the loop's in-order replies with
//! `TCP_NODELAY` set, so a request is seen and its reply sent as soon as
//! they exist. The loop thread owns everything else: requests pipeline
//! per connection (responses always in request order), analysis runs on
//! a resident [`pool::TaskPool`] of forked sessions, at most 256
//! connections are open at once, and each request's `tenant` is held to
//! a bounded admission budget — over-budget requests and connections get
//! an immediate `EBUSY` backpressure reply instead of queueing without
//! bound. Every transport routes requests through a panic firewall
//! ([`Service::handle_guarded`]): a panicking handler is logged,
//! answered with a well-formed `EPANIC` reply, and the server keeps
//! serving. The `metrics` op reports per-op counters, queue depth,
//! admission rejections, and cache hit rates.

use crate::analyzer::Analyzer;
use crate::diag::Diagnostic;
use crate::program::Program;
use numfuzz_core::cache::AnalysisMode;
use numfuzz_core::pool;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A JSON value. Objects preserve insertion order (the writer emits keys
/// in that order, so server responses are deterministic byte streams).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are emitted without a decimal point).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, anything
    /// else after the document is an error).
    ///
    /// ```
    /// use numfuzz::serve::Json;
    ///
    /// let v = Json::parse(r#"{"op":"check","n":2,"tags":["a","b"]}"#).unwrap();
    /// assert_eq!(v.get("op").and_then(Json::as_str), Some("check"));
    /// assert_eq!(v.get("n").and_then(Json::as_f64), Some(2.0));
    /// assert!(Json::parse("{\"unterminated\":").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the compact form (no whitespace) into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Convenience: an object from ordered pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an integer value.
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Integers inside the interoperable 53-bit range print without a
/// decimal point; other finite values print as Rust's shortest-roundtrip
/// float. JSON has no representation for non-finite numbers (which can
/// enter via an overflowing literal like `1e999` in a request `id`), so
/// those emit `null` rather than invalid output.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth limit: protocol messages are shallow, and a hostile
/// `[[[[...` must not overflow the parser's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected `{}` at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            // Surrogate pairs encode astral-plane chars.
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                if !(self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u'))
                                {
                                    return Err("unpaired surrogate".to_string());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 character (input is &str, so the
                    // byte stream is valid UTF-8). Only its own bytes are
                    // decoded: validating the rest of the input for each
                    // character made a string's parse quadratic.
                    let width = match lead {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let c = self
                        .bytes
                        .get(self.pos..self.pos + width)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or("invalid UTF-8")?;
                    if (c as u32) < 0x20 {
                        return Err(format!("unescaped control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four hex digits (after `\u`), leaving `pos` past
    /// them.
    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(digits)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// Exit-code conventions mirrored into error payloads: `1` means the
/// *analyzed program* is at fault, `2` means the request is (same split
/// as the CLI's exit codes).
const EXIT_PROGRAM: u8 = 1;
const EXIT_USAGE: u8 = 2;

/// One response: the JSON line to send back, and whether the server
/// should shut down after sending it.
#[derive(Clone, Debug)]
pub struct Reply {
    /// The serialized response object (no trailing newline).
    pub json: String,
    /// `true` after a `shutdown` request.
    pub shutdown: bool,
}

/// Tunables for the resident transports. `Default` matches the
/// historical service behavior closely enough that the pinned wire
/// transcripts keep passing: no debug ops, a generous admission budget,
/// a five-minute idle deadline.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Close a TCP connection after this long with nothing in flight and
    /// neither a complete request line nor a reply in that time (the
    /// replacement for per-socket read/write timeouts — only the
    /// connection's own reader and writer threads ever block on its
    /// socket, so a stalled client holds only its own connection, and
    /// only until this deadline, which also frees a writer stuck on a
    /// client that stopped reading).
    pub idle_timeout: Duration,
    /// Per-tenant admission budget: how many of a tenant's requests may
    /// be in flight at once. One more is refused with an `EBUSY` reply
    /// until a slot drains.
    pub max_pending: usize,
    /// Enable the test-only `debug-panic` / `debug-sleep` ops
    /// (`NUMFUZZ_SERVE_DEBUG_OPS=1` in the CLI).
    pub debug_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { idle_timeout: Duration::from_secs(300), max_pending: 64, debug_ops: false }
    }
}

/// Service counters behind the `metrics` op. All relaxed atomics: these
/// are operational telemetry, not synchronization.
#[derive(Default)]
struct Metrics {
    op_check: AtomicU64,
    op_bound: AtomicU64,
    op_optimize: AtomicU64,
    op_batch: AtomicU64,
    op_edit: AtomicU64,
    op_stats: AtomicU64,
    op_metrics: AtomicU64,
    op_shutdown: AtomicU64,
    proto_errors: AtomicU64,
    panics: AtomicU64,
    admission_rejected: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    accepted: AtomicU64,
    closed: AtomicU64,
    idle_closed: AtomicU64,
}

impl Metrics {
    fn enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serve-side logging that cannot take the server down: `eprintln!`
/// panics when stderr is closed (a supervisor that stopped reading the
/// pipe, a detached terminal), and a panic inside the panic *handler*
/// would lose the reply it was about to send. Log lines are best-effort
/// by design.
fn log_line(args: std::fmt::Arguments<'_>) {
    let _ = std::io::stderr().lock().write_fmt(format_args!("{args}\n"));
}

macro_rules! serve_log {
    ($($arg:tt)*) => { log_line(format_args!($($arg)*)) };
}

/// A resident analysis service: a base [`Analyzer`] (whose caches, if
/// configured, are shared by everything the service does), a worker
/// count for `batch` requests, service tunables ([`ServeConfig`]), and
/// telemetry. See the [module docs](self) for the wire protocol.
pub struct Service {
    base: Analyzer,
    jobs: usize,
    requests: AtomicU64,
    config: ServeConfig,
    metrics: Metrics,
}

impl Service {
    /// Wraps an analyzer with default tunables. `jobs` is the worker
    /// count for `batch` requests and the TCP worker pool (0 = one per
    /// core).
    pub fn new(analyzer: Analyzer, jobs: usize) -> Self {
        Service::with_config(analyzer, jobs, ServeConfig::default())
    }

    /// Wraps an analyzer with explicit tunables.
    pub fn with_config(analyzer: Analyzer, jobs: usize, config: ServeConfig) -> Self {
        let requests = AtomicU64::new(0);
        Service { base: analyzer, jobs, requests, config, metrics: Metrics::default() }
    }

    /// The base analyzer (e.g. to read cache statistics).
    pub fn analyzer(&self) -> &Analyzer {
        &self.base
    }

    /// The service tunables this instance runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Handles one request line within `session` (a
    /// [`Analyzer::fork_session`] of the base, so concurrent connections
    /// never share an arena) and produces the response line.
    pub fn handle_line(&self, session: &Analyzer, line: &str) -> Reply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let request = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.metrics.proto_errors.fetch_add(1, Ordering::Relaxed);
                return proto_error(Json::Null, &format!("invalid JSON: {e}"));
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let Some(op) = request.get("op").and_then(Json::as_str) else {
            self.metrics.proto_errors.fetch_add(1, Ordering::Relaxed);
            return proto_error(id, "missing string field `op`");
        };
        match op {
            "check" | "bound" | "edit" => {
                let counter = match op {
                    "check" => &self.metrics.op_check,
                    "bound" => &self.metrics.op_bound,
                    _ => &self.metrics.op_edit,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.analysis_op(session, id, op, &request)
            }
            "optimize" => {
                self.metrics.op_optimize.fetch_add(1, Ordering::Relaxed);
                self.optimize_op(session, id, &request)
            }
            "batch" => {
                self.metrics.op_batch.fetch_add(1, Ordering::Relaxed);
                self.batch(id, &request)
            }
            "stats" => {
                self.metrics.op_stats.fetch_add(1, Ordering::Relaxed);
                Reply { json: self.stats(id), shutdown: false }
            }
            "metrics" => {
                self.metrics.op_metrics.fetch_add(1, Ordering::Relaxed);
                Reply { json: self.metrics_report(id), shutdown: false }
            }
            "shutdown" => {
                self.metrics.op_shutdown.fetch_add(1, Ordering::Relaxed);
                let response = Json::obj(vec![
                    ("id", id),
                    ("op", Json::str("shutdown")),
                    ("ok", Json::Bool(true)),
                ]);
                Reply { json: response.to_string(), shutdown: true }
            }
            // Test-only fault injection, off unless explicitly enabled:
            // `debug-panic` exercises the panic firewall, `debug-sleep`
            // occupies a worker so admission control can be observed.
            "debug-panic" if self.config.debug_ops => {
                panic!("debug-panic op requested")
            }
            "debug-sleep" if self.config.debug_ops => {
                let ms =
                    request.get("ms").and_then(Json::as_f64).unwrap_or(0.0).clamp(0.0, 60_000.0);
                std::thread::sleep(Duration::from_millis(ms as u64));
                let response = Json::obj(vec![
                    ("id", id),
                    ("op", Json::str("debug-sleep")),
                    ("ok", Json::Bool(true)),
                ]);
                Reply { json: response.to_string(), shutdown: false }
            }
            other => {
                self.metrics.proto_errors.fetch_add(1, Ordering::Relaxed);
                proto_error(id, &format!("unknown op `{other}`"))
            }
        }
    }

    /// [`handle_line`](Self::handle_line) behind the panic firewall
    /// every transport uses: a panicking handler is caught, logged as
    /// one stderr line, counted, and answered with a well-formed
    /// `EPANIC` reply — the server keeps serving. The session is rebuilt
    /// afterwards (its arena may have been mid-mutation when the panic
    /// unwound through it).
    pub fn handle_guarded(&self, session: &mut Analyzer, line: &str) -> Reply {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| self.handle_line(session, line)));
        match result {
            Ok(reply) => reply,
            Err(payload) => {
                self.metrics.panics.fetch_add(1, Ordering::Relaxed);
                serve_log!(
                    "numfuzz serve: request handler panicked: {}",
                    panic_message(payload.as_ref())
                );
                *session = self.base.fork_session();
                let id = Json::parse(line)
                    .ok()
                    .and_then(|request| request.get("id").cloned())
                    .unwrap_or(Json::Null);
                let response = Json::obj(vec![
                    ("id", id),
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        Json::obj(vec![
                            ("code", Json::str("EPANIC")),
                            (
                                "message",
                                Json::str(
                                    "internal error: the request handler panicked; \
                                     the server is still serving",
                                ),
                            ),
                        ]),
                    ),
                    ("exit", Json::int(EXIT_USAGE as u64)),
                ]);
                Reply { json: response.to_string(), shutdown: false }
            }
        }
    }

    /// The `optimize` op: the `numfuzz optimize` pipeline over `src`,
    /// answering with the deterministic report (and the rewritten
    /// program in its own field). Optional fields: `name`, `budget`,
    /// `seed`, `precision` (bool).
    fn optimize_op(&self, session: &Analyzer, id: Json, request: &Json) -> Reply {
        let Some(src) = request.get("src").and_then(Json::as_str) else {
            return proto_error(id, "op `optimize` needs a string field `src`");
        };
        let mut cfg = crate::optimize::OptimizeConfig::default();
        if let Some(b) = request.get("budget").and_then(Json::as_f64) {
            cfg.budget = b.max(0.0) as usize;
        }
        if let Some(s) = request.get("seed").and_then(Json::as_f64) {
            cfg.seed = s.max(0.0) as u64;
        }
        if let Some(Json::Bool(p)) = request.get("precision") {
            cfg.precision_search = *p;
        }
        let outcome = parse_src(session, request, src).and_then(|program| {
            let o = session.optimize(&program, &cfg)?;
            Ok(vec![
                ("improved", Json::Bool(o.improved)),
                ("output", Json::str(o.report)),
                ("rewritten", Json::str(o.rewritten)),
            ])
        });
        program_reply(id, "optimize", outcome)
    }

    /// The `check`, `bound` and `edit` ops: analyze `src` under the
    /// request's `mode` and answer with what `numfuzz check` (`bound`)
    /// prints. `edit` rechecks through the session's judgment memo
    /// ([`Analyzer::analyze_incremental`]) and adds how much of the
    /// previous checks replayed; its `output` is byte-identical to a
    /// `check` of the same source, because incrementality changes
    /// counts, never results. Without a memo table the op still answers,
    /// with everything recomputed.
    fn analysis_op(&self, session: &Analyzer, id: Json, op: &str, request: &Json) -> Reply {
        let Some(src) = request.get("src").and_then(Json::as_str) else {
            return proto_error(id, &format!("op `{op}` needs a string field `src`"));
        };
        let mode = match request_mode(request) {
            Ok(mode) => mode,
            Err(message) => return proto_error(id, &message),
        };
        let outcome = parse_src(session, request, src).and_then(|program| {
            if op == "edit" {
                let (analysis, counts) = session.analyze_incremental(&program, mode)?;
                return Ok(vec![
                    ("output", Json::str(analysis.check_text())),
                    ("reused", Json::int(counts.reused)),
                    ("recomputed", Json::int(counts.recomputed)),
                    ("total", Json::int(counts.total)),
                ]);
            }
            let analysis = session.analyze(&program, mode)?;
            let output =
                if op == "check" { analysis.check_text() } else { analysis.bound_text(session)? };
            Ok(vec![("output", Json::str(output))])
        });
        program_reply(id, op, outcome)
    }

    fn batch(&self, id: Json, request: &Json) -> Reply {
        let Some(items) = request.get("programs").and_then(Json::as_array) else {
            return proto_error(id, "op `batch` needs an array field `programs`");
        };
        let mode = match request_mode(request) {
            Ok(mode) => mode,
            Err(message) => return proto_error(id, &message),
        };
        let mut jobs_items: Vec<(String, String)> = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let Some(src) = item.get("src").and_then(Json::as_str) else {
                return proto_error(id, &format!("batch item {i} needs a string field `src`"));
            };
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .map(String::from)
                .unwrap_or_else(|| format!("<batch-{i}>"));
            jobs_items.push((name, src.to_string()));
        }
        // Dispatch onto the scoped worker pool: every worker is a forked
        // session (own arena, shared content cache), exactly like
        // `numfuzz batch` over a directory.
        let entries = pool::ordered_map_with(
            self.jobs,
            &jobs_items,
            |_worker| self.base.fork_session(),
            |worker, _i, (name, src)| match worker
                .parse_named(name, src)
                .and_then(|p| worker.analyze(&p, mode))
            {
                Ok(analysis) => (analysis.batch_line(worker, name), true),
                Err(d) => (d.render(), false),
            },
        );
        let ok_count = entries.iter().filter(|(_, ok)| *ok).count();
        let failed = entries.len() - ok_count;
        let results: Vec<Json> = jobs_items
            .iter()
            .zip(&entries)
            .map(|((name, _), (line, ok))| {
                Json::obj(vec![
                    ("name", Json::str(name.clone())),
                    ("ok", Json::Bool(*ok)),
                    ("line", Json::str(line.clone())),
                ])
            })
            .collect();
        let response = Json::obj(vec![
            ("id", id),
            ("op", Json::str("batch")),
            ("ok", Json::Bool(failed == 0)),
            ("results", Json::Arr(results)),
            (
                "summary",
                Json::str(format!("{} programs: {ok_count} ok, {failed} failed", entries.len())),
            ),
        ]);
        Reply { json: response.to_string(), shutdown: false }
    }

    fn stats(&self, id: Json) -> String {
        let mut fields = vec![
            ("id", id),
            ("op", Json::str("stats")),
            ("ok", Json::Bool(true)),
            ("requests", Json::int(self.requests.load(Ordering::Relaxed))),
            ("jobs", Json::int(pool::effective_jobs(self.jobs, usize::MAX) as u64)),
        ];
        if let Some(stats) = self.base.cache_stats() {
            fields.push((
                "cache",
                Json::obj(vec![
                    ("hits", Json::int(stats.hits)),
                    ("misses", Json::int(stats.misses)),
                    ("insertions", Json::int(stats.insertions)),
                    ("evictions", Json::int(stats.evictions)),
                    ("entries", Json::int(stats.entries as u64)),
                    ("bytes", Json::int(stats.bytes as u64)),
                    ("budget", Json::int(stats.budget as u64)),
                ]),
            ));
        }
        if let Some(stats) = self.base.judgment_cache_stats() {
            fields.push((
                "judgments",
                Json::obj(vec![
                    ("hits", Json::int(stats.hits)),
                    ("misses", Json::int(stats.misses)),
                    ("insertions", Json::int(stats.insertions)),
                    ("evictions", Json::int(stats.evictions)),
                    ("entries", Json::int(stats.entries as u64)),
                    ("bytes", Json::int(stats.bytes as u64)),
                    ("budget", Json::int(stats.budget as u64)),
                ]),
            ));
        }
        Json::obj(fields).to_string()
    }

    /// The `metrics` op: per-op counters, queue depth/peak, admission
    /// budget and rejections, connection lifecycle counts, and cache hit
    /// rates.
    fn metrics_report(&self, id: Json) -> String {
        let m = &self.metrics;
        let get = |c: &AtomicU64| Json::int(c.load(Ordering::Relaxed));
        let mut fields = vec![
            ("id", id),
            ("op", Json::str("metrics")),
            ("ok", Json::Bool(true)),
            ("requests", Json::int(self.requests.load(Ordering::Relaxed))),
            (
                "ops",
                Json::obj(vec![
                    ("check", get(&m.op_check)),
                    ("bound", get(&m.op_bound)),
                    ("optimize", get(&m.op_optimize)),
                    ("batch", get(&m.op_batch)),
                    ("edit", get(&m.op_edit)),
                    ("stats", get(&m.op_stats)),
                    ("metrics", get(&m.op_metrics)),
                    ("shutdown", get(&m.op_shutdown)),
                    ("proto_errors", get(&m.proto_errors)),
                ]),
            ),
            (
                "queue",
                Json::obj(vec![("depth", get(&m.queue_depth)), ("peak", get(&m.queue_peak))]),
            ),
            (
                "admission",
                Json::obj(vec![
                    ("max_pending", Json::int(self.config.max_pending as u64)),
                    ("rejected", get(&m.admission_rejected)),
                ]),
            ),
            (
                "connections",
                Json::obj(vec![
                    ("accepted", get(&m.accepted)),
                    ("closed", get(&m.closed)),
                    ("idle_closed", get(&m.idle_closed)),
                    ("panics_caught", get(&m.panics)),
                ]),
            ),
        ];
        if let Some(stats) = self.base.cache_stats() {
            fields.push(("cache", hit_rate_json(stats.hits, stats.misses)));
        }
        if let Some(stats) = self.base.judgment_cache_stats() {
            fields.push(("judgments", hit_rate_json(stats.hits, stats.misses)));
        }
        Json::obj(fields).to_string()
    }
}

/// `{"hits":H,"misses":M,"hit_rate":R}` with the rate rounded to four
/// decimals (deterministic bytes; `0` for an untouched cache).
fn hit_rate_json(hits: u64, misses: u64) -> Json {
    let total = hits + misses;
    let rate = if total == 0 { 0.0 } else { (hits as f64 / total as f64 * 1e4).round() / 1e4 };
    Json::obj(vec![
        ("hits", Json::int(hits)),
        ("misses", Json::int(misses)),
        ("hit_rate", Json::Num(rate)),
    ])
}

/// The panic payload as text (covers the two payload types `panic!`
/// produces).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Parses a request's `src` in `session`, under its optional `name`.
fn parse_src(session: &Analyzer, request: &Json, src: &str) -> Result<Program, Diagnostic> {
    match request.get("name").and_then(Json::as_str) {
        Some(name) => session.parse_named(name, src),
        None => session.parse(src),
    }
}

/// The reply to an op on one program: `"ok":true` and the op's fields,
/// or the program's diagnostic and its exit code.
fn program_reply(id: Json, op: &str, outcome: Result<Vec<(&str, Json)>, Diagnostic>) -> Reply {
    let mut fields = vec![("id", id), ("op", Json::str(op))];
    match outcome {
        Ok(payload) => {
            fields.push(("ok", Json::Bool(true)));
            fields.extend(payload);
        }
        Err(d) => fields.extend([
            ("ok", Json::Bool(false)),
            ("error", diagnostic_json(&d)),
            ("exit", Json::int(diagnostic_exit(&d) as u64)),
        ]),
    }
    Reply { json: Json::obj(fields).to_string(), shutdown: false }
}

fn diagnostic_json(d: &Diagnostic) -> Json {
    let mut fields = vec![
        ("code", Json::str(d.code.as_str())),
        ("message", Json::str(d.message.clone())),
        ("rendered", Json::str(d.render())),
    ];
    if let Some(file) = &d.file {
        fields.push(("file", Json::str(file.clone())));
    }
    if let Some(span) = d.span {
        fields.push(("line", Json::int(span.line as u64)));
        fields.push(("col", Json::int(span.col as u64)));
    }
    Json::obj(fields)
}

fn diagnostic_exit(d: &Diagnostic) -> u8 {
    if d.code.is_program_error() {
        EXIT_PROGRAM
    } else {
        EXIT_USAGE
    }
}

/// Reads the optional `mode` field of a `check`/`bound`/`edit`/`batch` request:
/// absent means forward; anything but `"forward"`/`"backward"` is a
/// protocol error.
fn request_mode(request: &Json) -> Result<AnalysisMode, String> {
    match request.get("mode") {
        None => Ok(AnalysisMode::Forward),
        Some(m) => match m.as_str() {
            Some("forward") => Ok(AnalysisMode::Forward),
            Some("backward") => Ok(AnalysisMode::Backward),
            _ => Err("field `mode` must be \"forward\" or \"backward\"".to_string()),
        },
    }
}

fn proto_error(id: Json, message: &str) -> Reply {
    let response = Json::obj(vec![
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::obj(vec![("code", Json::str("EPROTO")), ("message", Json::str(message))])),
        ("exit", Json::int(EXIT_USAGE as u64)),
    ]);
    Reply { json: response.to_string(), shutdown: false }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// Serves NDJSON over stdin/stdout: one response line per request line,
/// flushed immediately; returns after `shutdown` or end of input.
///
/// # Errors
///
/// Only I/O errors on the standard streams.
pub fn serve_stdio(service: &Service) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    let mut session = service.analyzer().fork_session();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = service.handle_guarded(&mut session, &line);
        stdout.write_all(reply.json.as_bytes())?;
        stdout.write_all(b"\n")?;
        stdout.flush()?;
        if reply.shutdown {
            break;
        }
    }
    Ok(())
}

/// Cap on one buffered request line (and thus on what the reader of a
/// client that never sends a newline holds): past this the connection is
/// dropped rather than buffered without bound.
const MAX_REQUEST_BYTES: usize = 64 << 20;

/// Most TCP connections open at once (`numfuzz loadgen --connections`
/// goes as high). Each open connection has a reader and a writer thread,
/// so this also bounds the server's threads; one more connection gets an
/// `EBUSY` line and is closed.
const MAX_CONNECTIONS: usize = 256;

/// Stack size of the acceptor and of every reader and writer thread.
/// They only move bytes between a socket and a channel — request JSON is
/// parsed on the loop and the pool — so a small stack suffices and a full
/// house of connections costs little memory.
const IO_STACK_BYTES: usize = 64 << 10;

/// How long the acceptor waits after a failed `accept` (say, out of file
/// descriptors) before trying again, rather than spinning on the error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a shutdown drain may take before the loop exits with
/// responses still unflushed (a client that stopped reading must not be
/// able to keep the server alive).
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// What wakes the event loop. The acceptor, every reader and writer
/// thread and the worker pool report on one channel, so the loop sleeps
/// until something happens and sees it at once.
enum Event {
    /// The acceptor took a new connection (`TCP_NODELAY` already set).
    Accepted(TcpStream),
    /// A connection's reader split off one complete request line.
    Line { conn: u64, line: String },
    /// A connection's reader stopped: end of input, or (`dead`) a read
    /// error or a line longer than [`MAX_REQUEST_BYTES`].
    Hangup { conn: u64, dead: bool },
    /// A connection's writer stopped: the loop closed the connection and
    /// the queue ran dry, or a write failed.
    Flushed { conn: u64 },
    /// A worker finished a request.
    Done(Completion),
}

/// One pipelined TCP connection as the event loop sees it. Its reader
/// and writer threads share the socket; the loop keeps a handle only to
/// shut it down.
struct Conn {
    stream: Arc<TcpStream>,
    /// The writer's queue of in-order reply bytes; `None` once the loop
    /// has closed the connection (the writer then sends what is queued,
    /// shuts the socket down and stops).
    replies: Option<mpsc::Sender<Vec<u8>>>,
    /// Sequence number the next request line will get.
    next_seq: u64,
    /// Sequence number whose reply must be written next — responses go
    /// out strictly in request order, so pipelining never reorders.
    next_write: u64,
    /// Completed replies waiting for their turn in the write order.
    ready: BTreeMap<u64, Reply>,
    /// This connection's requests currently dispatched to the pool.
    in_flight: usize,
    /// Last request line or reply hand-off: the idle clock.
    last_activity: Instant,
    /// The reader has stopped: the peer half-closed (serve what's
    /// pending, then close) or the socket failed.
    reader_done: bool,
    /// The writer has stopped.
    writer_done: bool,
    /// Unrecoverable socket error — close as soon as noticed.
    dead: bool,
}

impl Conn {
    fn drained(&self) -> bool {
        self.in_flight == 0 && self.ready.is_empty()
    }

    /// Stops handing replies to the writer. `abort` also shuts the socket
    /// down at once, dropping unsent replies and waking both threads;
    /// otherwise the writer sends its queue first.
    fn close(&mut self, abort: bool) {
        if abort {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        self.replies = None;
    }
}

/// One finished request coming back from the worker pool.
struct Completion {
    conn: u64,
    seq: u64,
    tenant: String,
    reply: Reply,
}

/// Serves NDJSON over TCP: binds `addr` (port 0 picks a free port),
/// prints `listening on HOST:PORT` to stderr, and runs the event loop —
/// see [`serve_listener`].
///
/// # Errors
///
/// Binding or socket-configuration I/O errors.
pub fn serve_tcp(service: &Arc<Service>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    serve_log!("numfuzz serve: listening on {}", listener.local_addr()?);
    serve_listener(service, listener)
}

/// The event loop behind `numfuzz serve --listen`, exposed separately so
/// `numfuzz loadgen` can drive an in-process server on an ephemeral
/// port. Analysis runs on a resident [`pool::TaskPool`] of forked
/// sessions (one per worker, sharing the content-addressed caches).
///
/// Threads do the blocking, because the standard library has no
/// readiness API: an acceptor thread blocks in `accept` and sets
/// `TCP_NODELAY` on each new socket, so a reply leaves as soon as it is
/// written rather than waiting for the client's next acknowledgement.
/// Each connection gets a reader thread, which blocks in `read` and
/// hands every complete line (at most `MAX_REQUEST_BYTES`) to the loop,
/// and a writer thread, which sends the loop's in-order reply bytes with
/// `write_all`. All of them, and the pool's completions, report on one
/// channel, and the loop blocks on it until the next event or idle
/// deadline: an idle server uses no CPU, and nothing waits for a timer.
///
/// The loop alone decides. It admits connections up to
/// `MAX_CONNECTIONS` (one more — or one whose threads fail to start —
/// gets an `EBUSY` line, counts as `admission.rejected` and is closed);
/// dispatches each line to the pool, or — when the line's `tenant`
/// (default `"default"`) already has [`ServeConfig::max_pending`]
/// requests outstanding — answers it at once with an `EBUSY` reply;
/// hands completed replies to the writer strictly in request order; and
/// closes connections that failed, half-closed and drained, or sat idle
/// past [`ServeConfig::idle_timeout`]. Every close shuts the socket down,
/// so no reader or writer stays blocked on it.
///
/// A `shutdown` reply (from any connection) stops the acceptor and the
/// reading of new requests; in-flight work drains, the writers send
/// what is left (bounded by a drain deadline so a non-reading client
/// cannot pin the process), and the loop returns once every I/O thread
/// has been joined.
///
/// # Errors
///
/// Listener configuration failures, or the acceptor thread failing to
/// start; per-connection I/O errors close that connection and are not
/// fatal to the loop.
pub fn serve_listener(service: &Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(false)?;
    let mut acceptor = listener.local_addr()?;
    // The loop stops the acceptor by connecting to it; a wildcard bind
    // is reached over loopback.
    if acceptor.ip().is_unspecified() {
        acceptor.set_ip(match acceptor {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let (events, rx) = mpsc::channel::<Event>();
    let pool = {
        let base = Arc::clone(service);
        pool::TaskPool::new(service.jobs, move |_worker| base.analyzer().fork_session())
    };
    let stopping = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let accept_events = events.clone();
        let stopping = &stopping;
        spawn_io(scope, "serve-accept", move || {
            accept_connections(&listener, stopping, &accept_events)
        })?;
        let mut event_loop = EventLoop {
            service,
            pool,
            events,
            stopping,
            acceptor,
            conns: HashMap::new(),
            tenants: HashMap::new(),
            next_conn_id: 0,
            in_flight: 0,
            next_reap: None,
            drain_deadline: None,
            drain_closed: false,
        };
        event_loop.run(scope, &rx);
        Ok(())
    })
}

/// Starts one I/O thread of the scope with a small stack.
fn spawn_io<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    name: &str,
    body: impl FnOnce() + Send + 'scope,
) -> std::io::Result<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .stack_size(IO_STACK_BYTES)
        .spawn_scoped(scope, body)
        .map(drop)
}

/// The acceptor thread: blocking `accept`s, each new socket handed to the
/// loop with `TCP_NODELAY` set. It returns at the first connection after
/// `stopping` is set, which the loop makes itself
/// ([`EventLoop::stop_accepting`]), and drops the listener.
fn accept_connections(listener: &TcpListener, stopping: &AtomicBool, events: &mpsc::Sender<Event>) {
    loop {
        let accepted = listener.accept();
        if stopping.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if stream.set_nodelay(true).is_ok() && events.send(Event::Accepted(stream)).is_err()
                {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::ConnectionAborted) => {
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// A connection's reader thread: blocking reads, each complete line sent
/// to the loop as soon as its newline arrives. Stops at end of input, on
/// a read error or an over-long line, or once the loop is gone.
fn read_lines(conn: u64, mut stream: &TcpStream, events: &mpsc::Sender<Event>) {
    let mut chunk = vec![0u8; 16 * 1024];
    let mut partial = Vec::new();
    let dead = loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break false,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break true,
        };
        let mut rest = &chunk[..n];
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            partial.extend_from_slice(&rest[..nl]);
            rest = &rest[nl + 1..];
            let line = String::from_utf8(std::mem::take(&mut partial))
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            if events.send(Event::Line { conn, line }).is_err() {
                return;
            }
        }
        partial.extend_from_slice(rest);
        if partial.len() > MAX_REQUEST_BYTES {
            break true;
        }
    };
    let _ = events.send(Event::Hangup { conn, dead });
}

/// A connection's writer thread: sends the loop's reply bytes with
/// `write_all`, joining whatever queued up meanwhile into one write. When
/// the queue closes (the loop closed the connection) or a write fails, it
/// shuts the socket down, which also ends a reader still blocked on it.
fn write_replies(
    conn: u64,
    mut stream: &TcpStream,
    replies: &mpsc::Receiver<Vec<u8>>,
    events: &mpsc::Sender<Event>,
) {
    while let Ok(mut bytes) = replies.recv() {
        for more in replies.try_iter() {
            bytes.extend_from_slice(&more);
        }
        if stream.write_all(&bytes).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    let _ = events.send(Event::Flushed { conn });
}

/// The state the event loop owns: connections, tenant budgets and the
/// worker pool.
struct EventLoop<'a> {
    service: &'a Arc<Service>,
    pool: pool::TaskPool<Analyzer>,
    /// Cloned into every I/O thread and pool task.
    events: mpsc::Sender<Event>,
    stopping: &'a AtomicBool,
    /// Where the listener is reached, to wake the acceptor.
    acceptor: SocketAddr,
    conns: HashMap<u64, Conn>,
    /// In-flight requests per tenant.
    tenants: HashMap<String, usize>,
    next_conn_id: u64,
    /// Requests dispatched to the pool and not yet completed.
    in_flight: usize,
    /// No open connection can be idle past its deadline before this
    /// (`None` while none can be).
    next_reap: Option<Instant>,
    /// Set by the first `shutdown` reply.
    drain_deadline: Option<Instant>,
    /// Every connection has been closed for the shutdown drain.
    drain_closed: bool,
}

impl EventLoop<'_> {
    fn run<'scope>(
        &mut self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        rx: &mpsc::Receiver<Event>,
    ) {
        loop {
            let wake_by = self.drain_deadline.or(self.next_reap);
            let event = match wake_by {
                Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())).ok(),
                None => rx.recv().ok(),
            };
            match event {
                Some(Event::Accepted(stream)) => self.open(scope, stream),
                Some(Event::Line { conn, line }) => self.admit(conn, line),
                Some(Event::Hangup { conn, dead }) => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.reader_done = true;
                        c.dead |= dead;
                    }
                    self.settle(conn);
                }
                Some(Event::Flushed { conn }) => {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.writer_done = true;
                        // A writer that stops before the loop closed its
                        // queue failed to write.
                        c.dead |= c.replies.is_some();
                    }
                    self.settle(conn);
                }
                Some(Event::Done(done)) => self.complete(done),
                None => {}
            }
            let now = Instant::now();
            match self.drain_deadline {
                None => self.reap_idle(now),
                Some(deadline) => {
                    if !self.drain_closed && self.in_flight == 0 {
                        // Every reply is with its writer: close all
                        // connections and let the writers finish.
                        for conn in self.conns.values_mut().filter(|c| c.replies.is_some()) {
                            conn.close(false);
                            self.service.metrics.closed.fetch_add(1, Ordering::Relaxed);
                        }
                        self.drain_closed = true;
                    }
                    if (self.drain_closed && self.conns.is_empty()) || now >= deadline {
                        break;
                    }
                }
            }
        }
        // Past the drain deadline, shut down whatever is left so no
        // reader or writer stays blocked: the scope joins them all.
        self.stop_accepting();
        for (_, mut conn) in self.conns.drain() {
            conn.close(true);
        }
    }

    /// Gives a new connection its reader and writer, or refuses it.
    fn open<'scope>(&mut self, scope: &'scope std::thread::Scope<'scope, '_>, stream: TcpStream) {
        if self.drain_deadline.is_some() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if self.conns.len() >= MAX_CONNECTIONS {
            let message = format!(
                "the server already has {MAX_CONNECTIONS} connections open; \
                 try again when one closes"
            );
            self.refuse(&stream, &message);
            return;
        }
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        let stream = Arc::new(stream);
        let (replies, queue) = mpsc::channel::<Vec<u8>>();
        let (writer, writer_events) = (Arc::clone(&stream), self.events.clone());
        let (reader, reader_events) = (Arc::clone(&stream), self.events.clone());
        let started = spawn_io(scope, "serve-write", move || {
            write_replies(id, &writer, &queue, &writer_events)
        })
        .and_then(|()| {
            spawn_io(scope, "serve-read", move || read_lines(id, &reader, &reader_events))
        });
        if let Err(e) = started {
            serve_log!("numfuzz serve: cannot start a connection's I/O threads: {e}");
            // Refused before `replies` drops, so a writer that did start
            // cannot close the socket ahead of the line.
            self.refuse(&stream, "the server cannot take another connection now; try again later");
            return;
        }
        self.service.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            id,
            Conn {
                stream,
                replies: Some(replies),
                next_seq: 0,
                next_write: 0,
                ready: BTreeMap::new(),
                in_flight: 0,
                last_activity: Instant::now(),
                reader_done: false,
                writer_done: false,
                dead: false,
            },
        );
        self.settle(id);
    }

    /// Answers a connection the loop will not serve with one `EBUSY`
    /// line, written without blocking (a fresh socket's send buffer takes
    /// it whole), then shuts it down.
    fn refuse(&self, mut stream: &TcpStream, message: &str) {
        self.service.metrics.admission_rejected.fetch_add(1, Ordering::Relaxed);
        let mut line = busy_reply(Json::Null, message).json;
        line.push('\n');
        let _ = stream.set_nonblocking(true);
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Takes one request line: admits it to the pool, or answers `EBUSY`
    /// when its tenant is over budget. Lines stop being read once a
    /// shutdown is draining.
    fn admit(&mut self, conn_id: u64, line: String) {
        if self.drain_deadline.is_some() {
            return;
        }
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        if conn.replies.is_none() {
            return;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let line = if trimmed.len() == line.len() { line } else { trimmed.to_string() };
        conn.last_activity = Instant::now();
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let request = Json::parse(&line).ok();
        let tenant = request
            .as_ref()
            .and_then(|r| r.get("tenant").and_then(Json::as_str))
            .unwrap_or("default")
            .to_string();
        let metrics = &self.service.metrics;
        let max_pending = self.service.config.max_pending;
        let pending = self.tenants.get(&tenant).copied().unwrap_or(0);
        if pending >= max_pending {
            metrics.admission_rejected.fetch_add(1, Ordering::Relaxed);
            let id = request.as_ref().and_then(|r| r.get("id").cloned()).unwrap_or(Json::Null);
            let message = format!(
                "tenant `{tenant}` already has {max_pending} requests pending; \
                 try again when responses drain"
            );
            conn.ready.insert(seq, busy_reply(id, &message));
            self.settle(conn_id);
            return;
        }
        *self.tenants.entry(tenant.clone()).or_insert(0) += 1;
        conn.in_flight += 1;
        self.in_flight += 1;
        metrics.enqueue();
        let job_service = Arc::clone(self.service);
        let job_events = self.events.clone();
        self.pool.submit(move |session| {
            let reply = job_service.handle_guarded(session, &line);
            let _ = job_events.send(Event::Done(Completion { conn: conn_id, seq, tenant, reply }));
        });
    }

    /// Files a worker's reply in its connection's reorder buffer.
    fn complete(&mut self, done: Completion) {
        self.in_flight -= 1;
        self.service.metrics.dequeue();
        if let Some(count) = self.tenants.get_mut(&done.tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.tenants.remove(&done.tenant);
            }
        }
        if done.reply.shutdown && self.drain_deadline.is_none() {
            self.drain_deadline = Some(Instant::now() + SHUTDOWN_DRAIN);
            self.stop_accepting();
        }
        if let Some(conn) = self.conns.get_mut(&done.conn) {
            conn.in_flight -= 1;
            conn.ready.insert(done.seq, done.reply);
            conn.last_activity = Instant::now();
        }
        self.settle(done.conn);
    }

    /// Hands a connection's in-order replies to its writer, closes it
    /// when it failed or half-closed and drained, schedules its idle
    /// deadline when it drained, and forgets it once both of its threads
    /// have stopped.
    fn settle(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        let mut bytes = Vec::new();
        while let Some(reply) = conn.ready.remove(&conn.next_write) {
            conn.next_write += 1;
            bytes.extend_from_slice(reply.json.as_bytes());
            bytes.push(b'\n');
        }
        if !bytes.is_empty() {
            conn.last_activity = Instant::now();
            if let Some(replies) = &conn.replies {
                let _ = replies.send(bytes);
            }
        }
        if conn.replies.is_some() && (conn.dead || (conn.reader_done && conn.drained())) {
            conn.close(conn.dead);
            self.service.metrics.closed.fetch_add(1, Ordering::Relaxed);
        }
        if conn.replies.is_some() && conn.drained() {
            // Idle from here on, unless traffic comes first.
            let due = conn.last_activity.checked_add(self.service.config.idle_timeout);
            self.next_reap = self.next_reap.into_iter().chain(due).min();
        }
        if conn.replies.is_none() && conn.reader_done && conn.writer_done {
            self.conns.remove(&conn_id);
        }
    }

    /// Closes the open connections that have had nothing in flight and
    /// no traffic for the idle timeout, once the earliest of them is due.
    fn reap_idle(&mut self, now: Instant) {
        if self.next_reap.is_none_or(|at| now < at) {
            return;
        }
        self.next_reap = None;
        let timeout = self.service.config.idle_timeout;
        for conn in self.conns.values_mut().filter(|c| c.replies.is_some() && c.drained()) {
            let due = conn.last_activity.checked_add(timeout);
            if due.is_some_and(|at| at <= now) {
                conn.close(true);
                self.service.metrics.idle_closed.fetch_add(1, Ordering::Relaxed);
                self.service.metrics.closed.fetch_add(1, Ordering::Relaxed);
            } else {
                self.next_reap = self.next_reap.into_iter().chain(due).min();
            }
        }
    }

    /// Stops the acceptor: sets its flag, then connects to the listener
    /// so the blocking `accept` returns and sees it.
    fn stop_accepting(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Err(e) = TcpStream::connect_timeout(&self.acceptor, Duration::from_secs(1)) {
            serve_log!("numfuzz serve: cannot wake the acceptor at {}: {e}", self.acceptor);
        }
    }
}

/// The backpressure reply for a request or connection refused at
/// admission (a tenant over its budget, or too many connections).
/// `EBUSY`, exit 2 — the program was never looked at.
fn busy_reply(id: Json, message: &str) -> Reply {
    let response = Json::obj(vec![
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::obj(vec![("code", Json::str("EBUSY")), ("message", Json::str(message))])),
        ("exit", Json::int(EXIT_USAGE as u64)),
    ]);
    Reply { json: response.to_string(), shutdown: false }
}

/// The client mode behind `numfuzz client`: connects to a serving
/// `numfuzz serve --listen` (retrying for up to `retry` while the server
/// starts), pipes request lines from `input` to the socket, and writes
/// each response line to `output`.
///
/// Returns the worst `exit` value seen in a response (`0` when every
/// response had `"ok":true`), so scripts can gate on analysis outcomes.
///
/// # Errors
///
/// `InvalidInput` when `retry` reaches past the clock's range, connection
/// failure after retries, or I/O errors on either side.
pub fn client(
    addr: &str,
    retry: Duration,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> std::io::Result<u8> {
    let deadline = Instant::now().checked_add(retry).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("a retry window of {}s is beyond the clock's range", retry.as_secs()),
        )
    })?;
    let stream = 'connect: loop {
        // Try every resolved address each round: a hostname may resolve
        // IPv6-first while the server is bound to the IPv4 address.
        let resolved: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("cannot resolve `{addr}`: {e}"),
                )
            })?
            .collect();
        if resolved.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("`{addr}` resolves to no addresses"),
            ));
        }
        let mut last_err = None;
        for a in &resolved {
            match TcpStream::connect(a) {
                Ok(stream) => break 'connect stream,
                Err(e) => last_err = Some(e),
            }
        }
        if Instant::now() >= deadline {
            return Err(last_err.expect("at least one address was tried"));
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    // One write per request, without Nagle's algorithm: a request split
    // over two writes holds its second segment until the server's delayed
    // acknowledgement of the first, ~40 ms.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut worst = 0u8;
    for line in input.lines() {
        let mut line = line?;
        if line.trim().is_empty() {
            continue;
        }
        line.push('\n');
        writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        output.write_all(response.as_bytes())?;
        output.flush()?;
        if let Ok(parsed) = Json::parse(response.trim_end()) {
            if parsed.get("ok").and_then(Json::as_bool) == Some(false) {
                let exit = parsed.get("exit").and_then(Json::as_f64).map(|e| e as u8).unwrap_or(1);
                worst = worst.max(exit);
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisCache;

    #[test]
    fn json_roundtrip_and_escapes() {
        let cases = [
            r#"{"a":1,"b":[true,false,null],"c":"x\ny\"z\\"}"#,
            r#"[1.5,-2,0.25,1e3]"#,
            r#""Aé😀""#,
            "[]",
            "{}",
        ];
        for case in cases {
            let v = Json::parse(case).unwrap_or_else(|e| panic!("{case}: {e}"));
            let emitted = v.to_string();
            let v2 = Json::parse(&emitted).unwrap_or_else(|e| panic!("{emitted}: {e}"));
            assert_eq!(v, v2, "reparse of {emitted}");
        }
        assert_eq!(Json::parse("[1e3]").unwrap().to_string(), "[1000]");
        assert_eq!(Json::Str("tab\there".into()).to_string(), "\"tab\\there\"");
    }

    #[test]
    fn non_finite_numbers_never_reach_the_wire() {
        // An overflowing literal like 1e999 parses to infinity; echoing
        // it back must still produce valid JSON.
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        let service = Service::new(Analyzer::new(), 1);
        let session = service.analyzer().fork_session();
        let r = service.handle_line(&session, r#"{"id":1e999,"op":"stats"}"#);
        Json::parse(&r.json).expect("response with overflowed id is still valid JSON");
        assert!(r.json.starts_with(r#"{"id":null"#), "{}", r.json);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 2 MB source string: every character used to re-validate the
        // rest of the input, about a minute of work at this size.
        let src = "é // ".repeat(400_000);
        let started = std::time::Instant::now();
        let v = Json::parse(&format!(r#"{{"src":"{src}"}}"#)).expect("parses");
        assert_eq!(v.get("src").and_then(Json::as_str), Some(src.as_str()));
        assert!(started.elapsed() < std::time::Duration::from_secs(5), "{:?}", started.elapsed());
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\"}", "nul", "1 2", "{\"a\":01x}", "[\u{1}]"] {
            assert!(Json::parse(bad).is_err(), "accepted malformed `{bad}`");
        }
        // Deep nesting is rejected, not a stack overflow.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn service_answers_check_and_counts_hits() {
        let analyzer = Analyzer::builder().cache(AnalysisCache::with_budget(1 << 20)).build();
        let service = Service::new(analyzer, 1);
        let session = service.analyzer().fork_session();
        let r1 = service.handle_line(&session, r#"{"id":1,"op":"check","src":"rnd 1.5"}"#);
        let r2 = service.handle_line(&session, r#"{"id":2,"op":"check","src":"rnd 1.5"}"#);
        assert!(!r1.shutdown);
        let v1 = Json::parse(&r1.json).unwrap();
        assert_eq!(v1.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v1.get("output").and_then(Json::as_str), Some("program : M[eps]num\n"));
        assert_eq!(r1.json, r2.json.replace("\"id\":2", "\"id\":1"), "replayed result identical");
        let stats = service.analyzer().cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn service_reports_errors_with_exit_codes() {
        let service = Service::new(Analyzer::new(), 1);
        let session = service.analyzer().fork_session();
        // Ill-typed program: exit 1, E0102.
        let r = service.handle_line(&session, r#"{"id":7,"op":"check","src":"2 3"}"#);
        let v = Json::parse(&r.json).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("exit").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("error").unwrap().get("code").and_then(Json::as_str), Some("E0102"));
        // Protocol misuse: exit 2, EPROTO.
        for bad in ["not json", r#"{"op":"nope"}"#, r#"{"op":"check"}"#, r#"{"id":1}"#] {
            let r = service.handle_line(&session, bad);
            let v = Json::parse(&r.json).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{bad}");
            assert_eq!(v.get("exit").and_then(Json::as_f64), Some(2.0), "{bad}");
            assert_eq!(
                v.get("error").unwrap().get("code").and_then(Json::as_str),
                Some("EPROTO"),
                "{bad}"
            );
        }
    }

    #[test]
    fn service_edit_reports_reuse_counts() {
        let analyzer = Analyzer::builder().judgment_cache_bytes(1 << 20).build();
        let service = Service::new(analyzer, 1);
        let session = service.analyzer().fork_session();
        let r1 =
            service.handle_line(&session, r#"{"id":1,"op":"edit","src":"s = mul (2, 3); rnd s"}"#);
        let v1 = Json::parse(&r1.json).unwrap();
        assert_eq!(v1.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v1.get("reused").and_then(Json::as_f64), Some(0.0), "{}", r1.json);
        // One leaf edited: the helper subterms replay, and the output is
        // what a plain `check` of the edited source prints.
        let r2 =
            service.handle_line(&session, r#"{"id":2,"op":"edit","src":"s = mul (2, 4); rnd s"}"#);
        let v2 = Json::parse(&r2.json).unwrap();
        assert_eq!(v2.get("ok").and_then(Json::as_bool), Some(true));
        assert!(v2.get("reused").and_then(Json::as_f64).unwrap() > 0.0, "{}", r2.json);
        assert_eq!(v2.get("output").and_then(Json::as_str), Some("program : M[eps]num\n"));
        let c =
            service.handle_line(&session, r#"{"id":3,"op":"check","src":"s = mul (2, 4); rnd s"}"#);
        let vc = Json::parse(&c.json).unwrap();
        assert_eq!(
            v2.get("output").and_then(Json::as_str),
            vc.get("output").and_then(Json::as_str),
            "edit output diverged from check"
        );
        // Backward mode answers through the same table without aliasing.
        let rb = service.handle_line(
            &session,
            r#"{"id":4,"op":"edit","mode":"backward","src":"function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }"}"#,
        );
        let vb = Json::parse(&rb.json).unwrap();
        assert_eq!(vb.get("ok").and_then(Json::as_bool), Some(true), "{}", rb.json);
        assert_eq!(vb.get("reused").and_then(Json::as_f64), Some(0.0), "{}", rb.json);
    }

    #[test]
    fn handle_guarded_catches_panics_and_keeps_serving() {
        let config = ServeConfig { debug_ops: true, ..ServeConfig::default() };
        let service = Service::with_config(Analyzer::new(), 1, config);
        let mut session = service.analyzer().fork_session();
        let r = service.handle_guarded(&mut session, r#"{"id":5,"op":"debug-panic"}"#);
        let v = Json::parse(&r.json).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(5.0));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").unwrap().get("code").and_then(Json::as_str), Some("EPANIC"));
        assert_eq!(v.get("exit").and_then(Json::as_f64), Some(2.0));
        assert!(!r.shutdown);
        // The rebuilt session still answers.
        let ok = service.handle_guarded(&mut session, r#"{"id":6,"op":"check","src":"rnd 1.5"}"#);
        let v = Json::parse(&ok.json).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        // And the metrics op saw the panic.
        let m = service.handle_guarded(&mut session, r#"{"id":7,"op":"metrics"}"#);
        let v = Json::parse(&m.json).unwrap();
        let conns = v.get("connections").unwrap();
        assert_eq!(conns.get("panics_caught").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn debug_ops_stay_off_by_default() {
        let service = Service::new(Analyzer::new(), 1);
        let mut session = service.analyzer().fork_session();
        for op in ["debug-panic", "debug-sleep"] {
            let line = format!(r#"{{"id":1,"op":"{op}"}}"#);
            let r = service.handle_guarded(&mut session, &line);
            let v = Json::parse(&r.json).unwrap();
            assert_eq!(
                v.get("error").unwrap().get("code").and_then(Json::as_str),
                Some("EPROTO"),
                "{op} must be an unknown op unless explicitly enabled"
            );
        }
    }

    #[test]
    fn service_batch_matches_cli_lines() {
        let service = Service::new(Analyzer::new(), 2);
        let session = service.analyzer().fork_session();
        let req = r#"{"id":3,"op":"batch","programs":[{"src":"rnd 1.5","name":"a.nf"},{"src":"2 3","name":"b.nf"},{"src":"rnd 1.5","name":"c.nf"}]}"#;
        let r = service.handle_line(&session, req);
        let v = Json::parse(&r.json).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "one program fails");
        let results = v.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 3);
        let (a, b) = (&results[0], &results[1]);
        assert_eq!(a.get("ok").and_then(Json::as_bool), Some(true));
        assert!(a.get("line").and_then(Json::as_str).unwrap().starts_with("a.nf: M[eps]num"));
        assert_eq!(b.get("ok").and_then(Json::as_bool), Some(false));
        assert!(b.get("line").and_then(Json::as_str).unwrap().starts_with("error[E0102]"));
        assert_eq!(v.get("summary").and_then(Json::as_str), Some("3 programs: 2 ok, 1 failed"));
    }
}
