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
//! `numfuzz check FILE` prints, because both go through the same
//! [`check_report`]/[`bound_report`]/[`batch_entry`] renderers. The
//! `check`/`bound`/`batch` ops accept an optional `mode` field
//! (`"forward"`, the default, or `"backward"`) selecting the analysis;
//! backward requests go through
//! [`backward_check_report`]/[`backward_bound_report`]/
//! [`backward_batch_entry`] and are cached under a disjoint key space
//! (see [`AnalysisMode`]).
//!
//! The `edit` op is the incremental variant of `check`: it rechecks
//! through the analyzer's judgment-level memo table (attached with
//! [`AnalyzerBuilder::judgment_cache_bytes`](crate::AnalyzerBuilder::judgment_cache_bytes))
//! and reports `reused`/`recomputed`/`total` judgment counts alongside
//! the usual `output` — which stays byte-identical to a `check` of the
//! same source. `numfuzz watch` is built on the same entry points.
//!
//! The TCP transport is a nonblocking event loop ([`serve_listener`]):
//! one thread owns every socket, requests pipeline per connection
//! (responses always in request order), analysis runs on a resident
//! [`pool::TaskPool`] of forked sessions, and each request's `tenant`
//! is held to a bounded admission budget — over-budget requests get an
//! immediate `EBUSY` backpressure reply instead of queueing without
//! bound. Every transport routes requests through a panic firewall
//! ([`Service::handle_guarded`]): a panicking handler is logged,
//! answered with a well-formed `EPANIC` reply, and the server keeps
//! serving. A [`ServeConfig::cache_file`] adds a disk-persisted reply
//! cache (content-addressed by the structural program fingerprint;
//! snapshot written on shutdown, restored — corruption-tolerantly — on
//! the next start). The `metrics` op reports per-op counters, queue
//! depth, admission rejections, and cache hit rates.

use crate::analyzer::{Analyzer, BackwardBound, BackwardTyped, InputBackwardBound, Typed};
use crate::diag::Diagnostic;
use crate::program::Program;
use numfuzz_core::cache::{
    persist_atomically, AnalysisMode, CacheKey, ConfigFingerprint, ResultCache,
};
use numfuzz_core::{pool, Grade, Instantiation};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
// Shared renderers (one-shot CLI and service emit identical bytes)
// ---------------------------------------------------------------------

/// The stdout of `numfuzz check FILE` for a checked program: one line per
/// `function`, then the program's type. Trailing newline included.
pub fn check_report(typed: &Typed) -> String {
    let mut out = String::new();
    for f in typed.functions() {
        out.push_str(&format!("{} : {}\n", f.name, f.inferred));
    }
    out.push_str(&format!("program : {}\n", typed.ty()));
    out
}

/// The stdout of `numfuzz bound FILE` for a checked program: the eq. (8)
/// bound of every function and of the program, plus the session's
/// format/mode setting line. Trailing newline included.
pub fn bound_report(analyzer: &Analyzer, typed: &Typed) -> String {
    let mut out = String::new();
    let setting = format!("{} {}", analyzer.format(), analyzer.mode());
    for f in typed.functions() {
        match analyzer.bound_of_ty(&f.inferred) {
            Some(b) => out.push_str(&format!("{:<24} {}\n", f.name, b)),
            None => {
                out.push_str(&format!("{:<24} {} (no rounding-error bound)\n", f.name, f.inferred))
            }
        }
    }
    match analyzer.bound_of_ty(typed.ty()) {
        Some(b) => out.push_str(&format!("{:<24} {}\n", "program", b)),
        None => {
            out.push_str(&format!("{:<24} {} (no rounding-error bound)\n", "program", typed.ty()))
        }
    }
    out.push_str(&format!(
        "({setting}, unit roundoff {})\n",
        analyzer.rounding_unit().to_sci_string(3)
    ));
    out
}

/// One entry of a batch — shared by `numfuzz batch` (per file) and the
/// service's `batch` op (per request item): parse, check (through the
/// session's cache when configured), and bound. Returns the output line
/// (a `name: type — bound` summary, or the fully rendered diagnostic)
/// and whether the program passed.
pub fn batch_entry(analyzer: &Analyzer, name: &str, src: &str) -> (String, bool) {
    match analyzer.parse_named(name, src).and_then(|program| analyzer.check(&program)) {
        Ok(typed) => match analyzer.bound_of_ty(typed.ty()) {
            Some(bound) => (format!("{name}: {} — {bound}", typed.ty()), true),
            None => (format!("{name}: {}", typed.ty()), true),
        },
        Err(d) => (d.render(), false),
    }
}

/// The bracketed per-input grade list appended to backward report lines:
/// `" [x <= eps, y <= 2*eps]"`, or the empty string when there are no
/// linear inputs.
fn backward_grades_suffix(inputs: &[(String, Grade)]) -> String {
    if inputs.is_empty() {
        return String::new();
    }
    let list: Vec<String> = inputs.iter().map(|(n, g)| format!("{n} <= {g}")).collect();
    format!(" [{}]", list.join(", "))
}

/// The stdout of `numfuzz check --backward FILE` for a backward-checked
/// program: one line per `function` (its assigned type plus the
/// per-parameter backward-error grades), then the program's type and the
/// root's per-input grades. Trailing newline included.
pub fn backward_check_report(typed: &BackwardTyped) -> String {
    let mut out = String::new();
    for f in typed.functions() {
        out.push_str(&format!(
            "{} : {}{}\n",
            f.name,
            f.assigned,
            backward_grades_suffix(&f.inputs)
        ));
    }
    out.push_str(&format!("program : {}{}\n", typed.ty(), backward_grades_suffix(typed.inputs())));
    out
}

/// One input's numeric backward bound, e.g.
/// `x <= 2*eps (relative error <= 4.44e-16)`; infinite grades render as a
/// bare `x <= inf` (no finite backward bound exists for that input).
fn backward_input_line(b: &InputBackwardBound, instantiation: Instantiation) -> String {
    let kind = match instantiation {
        Instantiation::RelativePrecision => "relative error",
        Instantiation::AbsoluteError => "absolute error",
    };
    match (&b.alpha, &b.relative) {
        (None, _) => format!("{} <= {}", b.name, b.grade),
        (Some(_), Some(r)) => {
            format!("{} <= {} ({kind} <= {})", b.name, b.grade, r.to_sci_string(3))
        }
        (Some(_), None) => format!("{} <= {} (no finite {kind} bound)", b.name, b.grade),
    }
}

/// The stdout of `numfuzz bound --backward FILE`: the numeric per-input
/// backward bound of every function and of the program, plus the
/// session's format/mode setting line. Trailing newline included.
pub fn backward_bound_report(analyzer: &Analyzer, bound: &BackwardBound) -> String {
    let mut out = String::new();
    let render = |inputs: &[InputBackwardBound]| -> String {
        if inputs.is_empty() {
            "(no linear inputs)".to_string()
        } else {
            inputs
                .iter()
                .map(|b| backward_input_line(b, bound.instantiation))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    for f in &bound.fns {
        out.push_str(&format!("{:<24} {}\n", f.name, render(&f.inputs)));
    }
    out.push_str(&format!("{:<24} {}\n", "program", render(&bound.root)));
    out.push_str(&format!(
        "({} {}, unit roundoff {})\n",
        analyzer.format(),
        analyzer.mode(),
        analyzer.rounding_unit().to_sci_string(3)
    ));
    out
}

/// The backward analogue of [`batch_entry`]: parse, backward-check
/// (through the session's cache when configured), and summarize as
/// `name: type [per-input grades]` — or the rendered diagnostic.
pub fn backward_batch_entry(analyzer: &Analyzer, name: &str, src: &str) -> (String, bool) {
    match analyzer.parse_named(name, src).and_then(|program| analyzer.check_backward(&program)) {
        Ok(typed) => {
            (format!("{name}: {}{}", typed.ty(), backward_grades_suffix(typed.inputs())), true)
        }
        Err(d) => (d.render(), false),
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
/// transcripts keep passing: no persistence, no debug ops, a generous
/// admission budget, a five-minute idle deadline.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Close a TCP connection after this long with no traffic and
    /// nothing in flight (the event-loop replacement for per-socket
    /// read/write timeouts — the loop never blocks on one socket, so a
    /// stalled client can only hold its own connection, and only until
    /// this deadline).
    pub idle_timeout: Duration,
    /// Per-tenant admission budget: how many of a tenant's requests may
    /// be in flight at once. One more is refused with an `EBUSY` reply
    /// until a slot drains.
    pub max_pending: usize,
    /// Snapshot file for the persistent reply cache. `None` disables
    /// persistence entirely: no disk I/O, and no extra `stats` section.
    pub cache_file: Option<PathBuf>,
    /// Byte budget of the persistent reply cache.
    pub persist_budget: usize,
    /// Size cap for the on-disk snapshot itself. The in-memory reply
    /// cache may carry `persist_budget` bytes, but the file written at
    /// shutdown is compacted to at most this many bytes by dropping
    /// LRU entries at snapshot-write time, so a long-lived server's
    /// snapshot cannot grow without bound.
    pub cache_file_cap: usize,
    /// Enable the test-only `debug-panic` / `debug-sleep` ops
    /// (`NUMFUZZ_SERVE_DEBUG_OPS=1` in the CLI).
    pub debug_ops: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            idle_timeout: Duration::from_secs(300),
            max_pending: 64,
            cache_file: None,
            persist_budget: 64 << 20,
            cache_file_cap: 8 << 20,
            debug_ops: false,
        }
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
    persist_hits: AtomicU64,
    persist_misses: AtomicU64,
    persist_restored: AtomicU64,
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

/// The disk-persisted reply cache: rendered response *tails* (the bytes
/// after the leading `"id"` field, which is the only request-specific
/// part of a `check`/`bound` response) keyed by content — see
/// [`Service::persist_key`] for the derivation and `docs/serve.md` for
/// the on-disk snapshot format.
struct ReplyCache {
    entries: Mutex<ResultCache<String>>,
    path: PathBuf,
}

impl ReplyCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, ResultCache<String>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
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

/// A resident analysis service: a base [`Analyzer`] (whose cache, if
/// configured, is shared by everything the service does), a worker count
/// for `batch` requests, service tunables ([`ServeConfig`]), telemetry,
/// and — when configured — the persistent reply cache. See the
/// [module docs](self) for the wire protocol.
pub struct Service {
    base: Analyzer,
    jobs: usize,
    requests: AtomicU64,
    config: ServeConfig,
    metrics: Metrics,
    persist: Option<ReplyCache>,
}

impl Service {
    /// Wraps an analyzer with default tunables. `jobs` is the worker
    /// count for `batch` requests and the TCP worker pool (0 = one per
    /// core).
    pub fn new(analyzer: Analyzer, jobs: usize) -> Self {
        Service::with_config(analyzer, jobs, ServeConfig::default())
    }

    /// Wraps an analyzer with explicit tunables. When
    /// `config.cache_file` is set, a previous snapshot at that path is
    /// restored immediately; a corrupt or truncated snapshot degrades to
    /// whatever intact prefix it still has (one stderr note, never a
    /// refusal to start).
    pub fn with_config(analyzer: Analyzer, jobs: usize, config: ServeConfig) -> Self {
        let metrics = Metrics::default();
        let persist = config.cache_file.as_ref().map(|path| {
            let mut entries = ResultCache::new(config.persist_budget);
            if let Ok(bytes) = std::fs::read(path) {
                let load = entries.restore(&bytes);
                metrics.persist_restored.store(load.restored as u64, Ordering::Relaxed);
                if load.truncated {
                    serve_log!(
                        "numfuzz serve: cache snapshot {} is damaged; restored {} intact entries and moving on",
                        path.display(),
                        load.restored
                    );
                }
            }
            ReplyCache { entries: Mutex::new(entries), path: path.clone() }
        });
        Service { base: analyzer, jobs, requests: AtomicU64::new(0), config, metrics, persist }
    }

    /// The base analyzer (e.g. to read cache statistics).
    pub fn analyzer(&self) -> &Analyzer {
        &self.base
    }

    /// The service tunables this instance runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Writes the persistent reply cache back to its snapshot file, via
    /// a temp file and an atomic rename. A no-op without a cache file.
    /// Errors are reported on stderr and swallowed: failing to persist
    /// must not turn a clean shutdown into a failure.
    pub fn persist_now(&self) {
        let Some(pc) = &self.persist else { return };
        let bytes = pc.lock().snapshot_within(self.config.cache_file_cap);
        if let Err(e) = persist_atomically(&pc.path, &bytes) {
            serve_log!("numfuzz serve: could not persist cache to {}: {e}", pc.path.display());
        }
    }

    /// The content address of one `check`/`bound` reply in the
    /// persistent cache. The `program` half is the structural (alpha-
    /// invariant) fingerprint; the `config` half folds the analysis
    /// mode's session configuration, the op, the display fingerprint
    /// (rendered types and diagnostics quote concrete source names), and
    /// the request's `name` (diagnostics embed it as the file).
    fn persist_key(
        &self,
        session: &Analyzer,
        program: &Program,
        op: &str,
        mode: AnalysisMode,
        name: Option<&str>,
    ) -> CacheKey {
        let mut config = ConfigFingerprint::new(mode);
        config.write_u64(session.config_fingerprint(mode));
        config.write_u8(if op == "check" { 1 } else { 2 });
        config.write_u128(program.display_fingerprint());
        config.write_str(name.unwrap_or(""));
        CacheKey { program: program.fingerprint(), config: config.finish() }
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
            "check" | "bound" => {
                let counter =
                    if op == "check" { &self.metrics.op_check } else { &self.metrics.op_bound };
                counter.fetch_add(1, Ordering::Relaxed);
                self.check_or_bound(session, id, op, &request)
            }
            "edit" => {
                self.metrics.op_edit.fetch_add(1, Ordering::Relaxed);
                self.edit(session, id, &request)
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
        let name = request.get("name").and_then(Json::as_str);
        let parsed = match name {
            Some(n) => session.parse_named(n, src),
            None => session.parse(src),
        };
        let outcome = parsed.and_then(|program| session.optimize(&program, &cfg));
        let response = match outcome {
            Ok(o) => Json::obj(vec![
                ("id", id),
                ("op", Json::str("optimize")),
                ("ok", Json::Bool(true)),
                ("improved", Json::Bool(o.improved)),
                ("output", Json::str(o.report)),
                ("rewritten", Json::str(o.rewritten)),
            ]),
            Err(d) => Json::obj(vec![
                ("id", id),
                ("op", Json::str("optimize")),
                ("ok", Json::Bool(false)),
                ("error", diagnostic_json(&d)),
                ("exit", Json::int(diagnostic_exit(&d) as u64)),
            ]),
        };
        Reply { json: response.to_string(), shutdown: false }
    }

    fn check_or_bound(&self, session: &Analyzer, id: Json, op: &str, request: &Json) -> Reply {
        let Some(src) = request.get("src").and_then(Json::as_str) else {
            return proto_error(id, &format!("op `{op}` needs a string field `src`"));
        };
        let mode = match request_mode(request) {
            Ok(mode) => mode,
            Err(message) => return proto_error(id, &message),
        };
        let name = request.get("name").and_then(Json::as_str);
        let parsed = match name {
            Some(n) => session.parse_named(n, src),
            None => session.parse(src),
        };
        // Persistent reply cache: any parseable program addresses a
        // rendered reply tail; a hit replays the stored bytes under the
        // request's own `id` without touching the analyzer at all.
        let key = match (&self.persist, &parsed) {
            (Some(_), Ok(program)) => Some(self.persist_key(session, program, op, mode, name)),
            _ => None,
        };
        if let (Some(pc), Some(key)) = (&self.persist, key) {
            if let Some(tail) = pc.lock().get(&key) {
                self.metrics.persist_hits.fetch_add(1, Ordering::Relaxed);
                return Reply { json: splice_id(&id, &tail), shutdown: false };
            }
            self.metrics.persist_misses.fetch_add(1, Ordering::Relaxed);
        }
        let outcome = parsed.and_then(|program| match mode {
            AnalysisMode::Forward => {
                let typed = session.check(&program)?;
                Ok(match op {
                    "check" => check_report(&typed),
                    _ => bound_report(session, &typed),
                })
            }
            AnalysisMode::Backward => {
                let typed = session.check_backward(&program)?;
                Ok(match op {
                    "check" => backward_check_report(&typed),
                    _ => backward_bound_report(session, &session.bound_backward(&typed)?),
                })
            }
        });
        let response = match outcome {
            Ok(output) => Json::obj(vec![
                ("id", id),
                ("op", Json::str(op)),
                ("ok", Json::Bool(true)),
                ("output", Json::str(output)),
            ]),
            Err(d) => Json::obj(vec![
                ("id", id),
                ("op", Json::str(op)),
                ("ok", Json::Bool(false)),
                ("error", diagnostic_json(&d)),
                ("exit", Json::int(diagnostic_exit(&d) as u64)),
            ]),
        };
        if let (Some(pc), Some(key)) = (&self.persist, key) {
            pc.lock().insert(key, response_tail(&response));
        }
        Reply { json: response.to_string(), shutdown: false }
    }

    /// The `edit` op: recheck a (typically just-edited) program through
    /// the session's judgment-level memo table and report how much of the
    /// previous check replayed. The `output` field is byte-identical to a
    /// `check` response for the same source — incrementality changes
    /// counts, never results. Requires the service's analyzer to carry a
    /// judgment memo table for judgments to actually replay; without one
    /// the op still answers, with everything recomputed.
    fn edit(&self, session: &Analyzer, id: Json, request: &Json) -> Reply {
        let Some(src) = request.get("src").and_then(Json::as_str) else {
            return proto_error(id, "op `edit` needs a string field `src`");
        };
        let mode = match request_mode(request) {
            Ok(mode) => mode,
            Err(message) => return proto_error(id, &message),
        };
        let name = request.get("name").and_then(Json::as_str);
        let parsed = match name {
            Some(n) => session.parse_named(n, src),
            None => session.parse(src),
        };
        let outcome = parsed.and_then(|program| match mode {
            AnalysisMode::Forward => {
                let (typed, counts) = session.check_incremental(&program)?;
                Ok((check_report(&typed), counts))
            }
            AnalysisMode::Backward => {
                let (typed, counts) = session.check_backward_incremental(&program)?;
                Ok((backward_check_report(&typed), counts))
            }
        });
        let response = match outcome {
            Ok((output, counts)) => Json::obj(vec![
                ("id", id),
                ("op", Json::str("edit")),
                ("ok", Json::Bool(true)),
                ("output", Json::str(output)),
                ("reused", Json::int(counts.reused)),
                ("recomputed", Json::int(counts.recomputed)),
                ("total", Json::int(counts.total)),
            ]),
            Err(d) => Json::obj(vec![
                ("id", id),
                ("op", Json::str("edit")),
                ("ok", Json::Bool(false)),
                ("error", diagnostic_json(&d)),
                ("exit", Json::int(diagnostic_exit(&d) as u64)),
            ]),
        };
        Reply { json: response.to_string(), shutdown: false }
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
            |worker, _i, (name, src)| match mode {
                AnalysisMode::Forward => batch_entry(worker, name, src),
                AnalysisMode::Backward => backward_batch_entry(worker, name, src),
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
        if let Some(pc) = &self.persist {
            let s = pc.lock().stats();
            fields.push((
                "persistent",
                Json::obj(vec![
                    ("restored", Json::int(self.metrics.persist_restored.load(Ordering::Relaxed))),
                    ("hits", Json::int(self.metrics.persist_hits.load(Ordering::Relaxed))),
                    ("misses", Json::int(self.metrics.persist_misses.load(Ordering::Relaxed))),
                    ("entries", Json::int(s.entries as u64)),
                    ("bytes", Json::int(s.bytes as u64)),
                ]),
            ));
        }
        Json::obj(fields).to_string()
    }

    /// The `metrics` op: per-op counters, queue depth/peak, admission
    /// budget and rejections, connection lifecycle counts, and cache hit
    /// rates. The `persistent` section appears only when a cache file is
    /// configured (so the pinned transcripts, which run without one,
    /// stay stable).
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
        if let Some(pc) = &self.persist {
            let entries = pc.lock().stats().entries;
            fields.push((
                "persistent",
                Json::obj(vec![
                    ("restored", get(&m.persist_restored)),
                    ("hits", get(&m.persist_hits)),
                    ("misses", get(&m.persist_misses)),
                    ("entries", Json::int(entries as u64)),
                ]),
            ));
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

/// The reply bytes after the leading `"id"` field — everything about a
/// response except its one request-specific part. The renderers always
/// emit `id` first, so `{"id":` + id + tail reassembles the exact line.
fn response_tail(response: &Json) -> String {
    let Json::Obj(fields) = response else { unreachable!("responses are objects") };
    let mut out = String::new();
    for (k, v) in &fields[1..] {
        out.push(',');
        write_escaped(k, &mut out);
        out.push(':');
        v.write(&mut out);
    }
    out.push('}');
    out
}

/// Reassembles a full response line from a request `id` and a cached
/// tail (see [`response_tail`]).
fn splice_id(id: &Json, tail: &str) -> String {
    let mut out = String::with_capacity(8 + tail.len());
    out.push_str("{\"id\":");
    id.write(&mut out);
    out.push_str(tail);
    out
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

/// Reads the optional `mode` field of a `check`/`bound`/`batch` request:
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
/// flushed immediately; returns after `shutdown` or end of input. The
/// persistent reply cache (if configured) is snapshotted on the way out.
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
    service.persist_now();
    Ok(())
}

/// Cap on one buffered request line (and thus on the inbox of a client
/// that never sends a newline): past this the connection is dropped
/// rather than buffered without bound.
const MAX_REQUEST_BYTES: usize = 64 << 20;

/// How long a shutdown drain may take before the loop exits with
/// responses still unflushed (a client that stopped reading must not be
/// able to keep the server alive).
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// One pipelined TCP connection in the event loop.
struct Conn {
    stream: TcpStream,
    /// Unparsed bytes read so far (at most one partial line after each
    /// tick).
    inbox: Vec<u8>,
    /// Response bytes accepted for writing but not yet taken by the
    /// socket.
    outbox: Vec<u8>,
    /// Sequence number the next request line will get.
    next_seq: u64,
    /// Sequence number whose reply must be written next — responses go
    /// out strictly in request order, so pipelining never reorders.
    next_write: u64,
    /// Completed replies waiting for their turn in the write order.
    ready: BTreeMap<u64, Reply>,
    /// This connection's requests currently dispatched to the pool.
    in_flight: usize,
    last_activity: Instant,
    /// Peer half-closed its write side — serve what's pending, then
    /// close.
    eof: bool,
    /// Unrecoverable socket error — drop as soon as noticed.
    dead: bool,
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

/// The nonblocking event loop behind `numfuzz serve --listen`, exposed
/// separately so `numfuzz loadgen` can drive an in-process server on an
/// ephemeral port. One thread owns every socket; analysis runs on a
/// resident [`pool::TaskPool`] of forked sessions (one per worker,
/// sharing the content-addressed caches).
///
/// Each tick the loop: accepts whatever connections are waiting; drains
/// worker completions into per-connection reorder buffers; reads
/// available bytes, splitting complete lines and either dispatching
/// them to the pool or — when the line's `tenant` (default `"default"`)
/// already has [`ServeConfig::max_pending`] requests outstanding —
/// answering immediately with an `EBUSY` backpressure reply; promotes
/// completed replies to the write queue strictly in request order;
/// flushes what the sockets will take; and closes connections that
/// errored, half-closed and drained, or sat idle past
/// [`ServeConfig::idle_timeout`]. When a tick makes no progress at all,
/// the loop parks on the completion channel for a millisecond instead
/// of spinning.
///
/// A `shutdown` reply (from any connection) stops accepting and
/// reading; in-flight work drains, buffered responses flush (bounded by
/// a drain deadline so a non-reading client cannot pin the process),
/// the persistent cache is snapshotted, and the loop returns. No
/// self-connection wake-up is needed — the loop never blocks in
/// `accept`.
///
/// # Errors
///
/// Only listener configuration failures; per-connection I/O errors
/// close that connection and are not fatal to the loop.
pub fn serve_listener(service: &Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let (tx, rx) = mpsc::channel::<Completion>();
    let pool = {
        let base = Arc::clone(service);
        pool::TaskPool::new(service.jobs, move |_worker| base.analyzer().fork_session())
    };
    let metrics = &service.metrics;
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut tenants: HashMap<String, usize> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    let mut in_flight_total: usize = 0;
    let mut shutting_down = false;
    let mut drain_deadline: Option<Instant> = None;
    let mut stashed: Option<Completion> = None;

    loop {
        let mut progress = false;

        // New connections (none once a shutdown is draining).
        if !shutting_down {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        metrics.accepted.fetch_add(1, Ordering::Relaxed);
                        conns.insert(
                            next_conn_id,
                            Conn {
                                stream,
                                inbox: Vec::new(),
                                outbox: Vec::new(),
                                next_seq: 0,
                                next_write: 0,
                                ready: BTreeMap::new(),
                                in_flight: 0,
                                last_activity: Instant::now(),
                                eof: false,
                                dead: false,
                            },
                        );
                        next_conn_id += 1;
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Transient accept failures (peer reset before
                    // accept, fd pressure): try again next tick.
                    Err(_) => break,
                }
            }
        }

        // Worker completions → per-connection reorder buffers.
        while let Some(done) = stashed.take().or_else(|| rx.try_recv().ok()) {
            progress = true;
            in_flight_total -= 1;
            metrics.dequeue();
            if let Some(count) = tenants.get_mut(&done.tenant) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    tenants.remove(&done.tenant);
                }
            }
            if done.reply.shutdown {
                shutting_down = true;
            }
            if let Some(conn) = conns.get_mut(&done.conn) {
                conn.in_flight -= 1;
                conn.ready.insert(done.seq, done.reply);
                conn.last_activity = Instant::now();
            }
        }

        // Read, split complete lines, admit or dispatch.
        if !shutting_down {
            for (&conn_id, conn) in conns.iter_mut() {
                if conn.eof || conn.dead {
                    continue;
                }
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            conn.eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.inbox.extend_from_slice(&chunk[..n]);
                            conn.last_activity = Instant::now();
                            progress = true;
                            if conn.inbox.len() > MAX_REQUEST_BYTES {
                                conn.dead = true;
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                while let Some(nl) = conn.inbox.iter().position(|&b| b == b'\n') {
                    let line_bytes: Vec<u8> = conn.inbox.drain(..=nl).collect();
                    let text = String::from_utf8_lossy(&line_bytes[..nl]);
                    let line = text.trim();
                    if line.is_empty() {
                        continue;
                    }
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let request = Json::parse(line).ok();
                    let tenant = request
                        .as_ref()
                        .and_then(|r| r.get("tenant").and_then(Json::as_str))
                        .unwrap_or("default")
                        .to_string();
                    let pending = tenants.get(&tenant).copied().unwrap_or(0);
                    if pending >= service.config.max_pending {
                        metrics.admission_rejected.fetch_add(1, Ordering::Relaxed);
                        let id = request
                            .as_ref()
                            .and_then(|r| r.get("id").cloned())
                            .unwrap_or(Json::Null);
                        let reply = admission_reject(id, &tenant, service.config.max_pending);
                        conn.ready.insert(seq, reply);
                        continue;
                    }
                    *tenants.entry(tenant.clone()).or_insert(0) += 1;
                    conn.in_flight += 1;
                    in_flight_total += 1;
                    metrics.enqueue();
                    let job_service = Arc::clone(service);
                    let job_tx = tx.clone();
                    let line = line.to_string();
                    pool.submit(move |session| {
                        let reply = job_service.handle_guarded(session, &line);
                        let _ = job_tx.send(Completion { conn: conn_id, seq, tenant, reply });
                    });
                }
            }
        }

        // Promote in-order replies, then write what the sockets accept.
        for conn in conns.values_mut() {
            while let Some(reply) = conn.ready.remove(&conn.next_write) {
                conn.next_write += 1;
                conn.outbox.extend_from_slice(reply.json.as_bytes());
                conn.outbox.push(b'\n');
                progress = true;
            }
            while !conn.outbox.is_empty() && !conn.dead {
                match conn.stream.write(&conn.outbox) {
                    Ok(0) => conn.dead = true,
                    Ok(n) => {
                        conn.outbox.drain(..n);
                        conn.last_activity = Instant::now();
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => conn.dead = true,
                }
            }
        }

        // Reap dead, drained-after-EOF, and idle connections.
        let idle_timeout = service.config.idle_timeout;
        conns.retain(|_, conn| {
            let drained = conn.in_flight == 0 && conn.ready.is_empty() && conn.outbox.is_empty();
            if conn.dead || (conn.eof && drained) {
                metrics.closed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if drained && conn.last_activity.elapsed() >= idle_timeout {
                metrics.idle_closed.fetch_add(1, Ordering::Relaxed);
                metrics.closed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            true
        });

        if shutting_down {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN);
            let flushed = in_flight_total == 0
                && conns.values().all(|c| c.ready.is_empty() && c.outbox.is_empty());
            if flushed || Instant::now() >= deadline {
                break;
            }
        }

        if !progress {
            // Nothing happened: park on the completion channel rather
            // than spinning. Completions wake the loop instantly; new
            // socket bytes wait at most one park interval.
            let park = if conns.is_empty() && !shutting_down {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(1)
            };
            if let Ok(done) = rx.recv_timeout(park) {
                stashed = Some(done);
            }
        }
    }

    drop(pool);
    service.persist_now();
    Ok(())
}

/// The backpressure reply for a request refused at admission: its
/// tenant already has the configured maximum number of requests in
/// flight. `EBUSY`, exit 2 — the program was never looked at.
fn admission_reject(id: Json, tenant: &str, max_pending: usize) -> Reply {
    let response = Json::obj(vec![
        ("id", id),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("code", Json::str("EBUSY")),
                (
                    "message",
                    Json::str(format!(
                        "tenant `{tenant}` already has {max_pending} requests pending; \
                         try again when responses drain"
                    )),
                ),
            ]),
        ),
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
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut worst = 0u8;
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
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
    fn response_tail_splices_back_byte_identically() {
        let service = Service::new(Analyzer::new(), 1);
        let session = service.analyzer().fork_session();
        for req in [
            r#"{"id":9,"op":"check","src":"rnd 1.5"}"#,
            r#"{"id":"x","op":"bound","src":"rnd 1.5","name":"a.nf"}"#,
            r#"{"id":null,"op":"check","src":"2 3"}"#,
        ] {
            let reply = service.handle_line(&session, req);
            let response = Json::parse(&reply.json).unwrap();
            let id = response.get("id").cloned().unwrap_or(Json::Null);
            assert_eq!(splice_id(&id, &response_tail(&response)), reply.json, "{req}");
        }
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
    fn persistent_reply_cache_round_trips_across_service_instances() {
        let dir = std::env::temp_dir().join(format!("numfuzz-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit-replies.bin");
        let _ = std::fs::remove_file(&path);
        let config = ServeConfig { cache_file: Some(path.clone()), ..ServeConfig::default() };
        let req = r#"{"id":1,"op":"check","src":"s = mul (2, 3); rnd s","name":"p.nf"}"#;

        let first = {
            let service = Service::with_config(Analyzer::new(), 1, config.clone());
            let session = service.analyzer().fork_session();
            let r1 = service.handle_line(&session, req);
            // Same session, second ask: answered from the reply cache.
            let r2 = service.handle_line(&session, req);
            assert_eq!(r1.json, r2.json);
            assert_eq!(service.metrics.persist_hits.load(Ordering::Relaxed), 1);
            service.persist_now();
            r1.json
        };

        // A fresh service over a fresh analyzer: the snapshot answers
        // without any analysis (the analysis cache is never consulted).
        let analyzer = Analyzer::builder().cache(AnalysisCache::with_budget(1 << 20)).build();
        let service = Service::with_config(analyzer, 1, config.clone());
        assert_eq!(service.metrics.persist_restored.load(Ordering::Relaxed), 1);
        let session = service.analyzer().fork_session();
        let r = service.handle_line(&session, req);
        assert_eq!(r.json, first, "restored reply is byte-identical");
        assert_eq!(service.metrics.persist_hits.load(Ordering::Relaxed), 1);
        let stats = service.analyzer().cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (0, 0), "no re-analysis on a warm hit");

        // A different id replays the same tail under the new id.
        let r9 = service.handle_line(&session, &req.replace(r#""id":1"#, r#""id":9"#));
        assert_eq!(r9.json, first.replace(r#""id":1"#, r#""id":9"#));

        // Corruption tolerance: garbage snapshot, service still starts.
        std::fs::write(&path, b"not a snapshot").unwrap();
        let service = Service::with_config(Analyzer::new(), 1, config);
        assert_eq!(service.metrics.persist_restored.load(Ordering::Relaxed), 0);
        let r = service.handle_line(&service.analyzer().fork_session(), req);
        assert_eq!(r.json, first, "recomputed reply matches the original bytes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn persistent_cache_snapshot_respects_size_cap() {
        let dir = std::env::temp_dir().join(format!("numfuzz-persist-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capped-replies.bin");
        let _ = std::fs::remove_file(&path);
        // A cap far below what three replies need: the snapshot must
        // compact down to whatever newest suffix fits.
        let cap = 220usize;
        let config = ServeConfig {
            cache_file: Some(path.clone()),
            cache_file_cap: cap,
            ..ServeConfig::default()
        };
        let req = |i: u64| {
            format!(
                r#"{{"id":{i},"op":"bound","src":"s = mul ({i}.5, 3); rnd s","name":"p{i}.nf"}}"#
            )
        };

        let newest = {
            let service = Service::with_config(Analyzer::new(), 1, config.clone());
            let session = service.analyzer().fork_session();
            for i in 1..=3 {
                let _ = service.handle_line(&session, &req(i));
            }
            service.persist_now();
            service.handle_line(&session, &req(3)).json
        };
        let written = std::fs::metadata(&path).unwrap().len() as usize;
        assert!(written <= cap, "snapshot is {written} bytes, cap is {cap}");
        assert!(written > 8, "something beyond the magic survived the cap");

        // The restored service still answers the newest program from the
        // snapshot (LRU entries were the ones compacted away).
        let service = Service::with_config(Analyzer::new(), 1, config);
        let restored = service.metrics.persist_restored.load(Ordering::Relaxed);
        assert!(
            (1..3).contains(&restored),
            "a capped snapshot keeps a strict, non-empty suffix (got {restored})"
        );
        let session = service.analyzer().fork_session();
        assert_eq!(service.handle_line(&session, &req(3)).json, newest);
        assert_eq!(service.metrics.persist_hits.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_file(&path);
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
