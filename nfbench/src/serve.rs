//! The `serve` workload: an open loop over two TCP connections to the
//! release `numfuzz serve` binary with default flags.
//!
//! Requests follow a seeded Poisson schedule; each request's latency
//! counts from its due time, so a stall also charges the requests it
//! delays. Phases: an untimed warm-up, a light and a busy fixed offered
//! rate, then saturation: a fixed batch of requests all due at once, whose
//! completion rate is the rate above which a backlog grows. The server's
//! `stats` and `metrics` ops are read before and after each phase.
//!
//! Every reply is checked against a reference that does not come from
//! the checker (see [`crate::corpus`]); ill-typed programs must be
//! refused with the diagnostic code they were built to trigger.

use crate::corpus::{self, Entry, Expect};
use crate::report::{Checks, Layers, Report};
use crate::rng::SplitMix;
use crate::speed::{Speed, Steal};
use crate::stats::{self, Latency};
use crate::trace::{LayerAgg, Tracer};
use numfuzz::prelude::{AnalysisCache, Analyzer};
use numfuzz::serve::{Json, ServeConfig, Service};
use std::collections::{HashSet, VecDeque};
use std::fs::OpenOptions;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered rate of the light phase, requests per second: about a tenth
/// of the saturation throughput on a 2-core VM (1800–2700 req/s over
/// twenty seeds, as the machine's speed varies). With one request in
/// flight per connection, a slow spell that stretches round trips to
/// 4–5 ms made 300 req/s queue in the client, and the light p50 rose
/// three- to sixfold; at 200 req/s the two connections keep twice the
/// headroom.
pub const LIGHT_RATE: f64 = 200.0;
/// Offered rate of the busy phase: 20–35% of saturation throughput. The
/// client and the server share two cores, so at higher rates a slow spell
/// of the machine tips the phase into queueing: at 700 req/s one such
/// spell moved the busy p50 from 2.5 ms to 3.2–5.5 ms for six runs.
pub const BUSY_RATE: f64 = 600.0;
/// Requests of the saturation phase (about four seconds of work: a
/// shorter phase samples the machine's speed over too short a time).
const SATURATION_REQUESTS: usize = 10_000;
/// The op mix, in percent, is the one `numfuzz loadgen` documents for
/// its request stream (`docs/serve.md`, `src/loadgen.rs`): 40% `check`,
/// 20% `bound`, 20% `edit`, 13% `batch`, 7% ill-typed `check`s.
pub const MIX_PCT: [u64; 5] = [40, 20, 20, 13, 7];
/// Programs per `batch` request, as in `loadgen`.
const BATCH_SIZE: usize = 3;
/// Chosen, unverified: share of fresh `check`/`bound` requests sent with
/// `"mode":"backward"`. `loadgen` sends none; half gives the backward
/// judgment the same weight as the forward one, as `verdict` does by
/// running both on every program.
pub const BACKWARD_SHARE: f64 = 0.5;
/// Chosen, unverified: share of `check`/`bound` requests that resend an
/// earlier one of the same op byte for byte. `loadgen` draws its programs
/// from 48 sources, so almost all of a long run would repeat and the
/// cache would hide the analysis; at 30% both the result-cache hit path
/// and the full analysis carry a large part of the traffic.
pub const REPEAT_SHARE: f64 = 0.3;
/// Chosen, unverified: `edit` requests come in runs of this many
/// one-literal bumps of one Table 1 file, the editing session the
/// judgment memo serves (`docs/serve.md`); `loadgen`'s edits vary a leaf
/// of one fixed shape.
const EDIT_RUN: u32 = 6;
/// The server's default result-cache budget (`--cache-bytes`).
const CACHE_BUDGET: u64 = 64 << 20;
/// Requests in flight per connection in the light phase, as `numfuzz
/// client` and `loadgen` keep them: a request due while both connections
/// are busy waits in the client, and its latency still counts from its
/// due time. The light phase does not pipeline because the server leaves
/// Nagle's algorithm on: a pipelined reply waits for the client's delayed
/// acknowledgement, and light-load latency would flip between ~1 ms and
/// ~5 ms from run to run.
const LIGHT_WINDOW: usize = 1;
/// Requests in flight per connection in the busy and saturation phases:
/// together the server's default per-tenant admission budget (64), so it
/// never has to refuse one.
const PIPELINE_WINDOW: usize = 32;
/// Requests due in a half-second window in which the hypervisor took at
/// most this share of the VM's CPU time are the calm ones, whose latencies
/// the light and busy metrics report (see [`Steal`]).
const CALM_STEAL: f64 = 0.02;
/// When calm windows hold fewer than this share of a phase's requests,
/// the least-stolen windows stand in for them.
const CALM_MIN_SHARE: f64 = 0.25;
/// A request unanswered this long after its due time has failed.
const TIMEOUT: Duration = Duration::from_secs(10);

/// What a request asks for, for per-op figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    Check,
    Bound,
    Edit,
    Batch,
}

/// What a reply must say.
#[derive(Clone, Debug)]
enum Want {
    /// `ok`, with this root grade (forward `check`/`bound`/`edit`).
    Forward(Expect),
    /// `ok`, or a spanned E05xx rejection (`"mode":"backward"`).
    Backward,
    /// `ok` for every item, each with its root grade.
    Batch(Vec<Expect>),
    /// Refused with this diagnostic code.
    Error(&'static str),
}

#[derive(Clone, Debug)]
struct Req {
    line: String,
    kind: OpKind,
    want: Want,
}

/// The seeded request stream: [`MIX_PCT`] over single `check` and
/// `bound` requests ([`BACKWARD_SHARE`] backward, [`REPEAT_SHARE`]
/// repeats; fresh programs are half Table 1 files with a new call literal
/// and half generated relative-precision programs), [`EDIT_RUN`]-long
/// `edit` runs, `batch` requests of fresh programs and ill-typed programs.
struct Traffic {
    rng: SplitMix,
    seed: u64,
    table1: Vec<Entry>,
    ill: Vec<(String, &'static str)>,
    /// Fresh `check` and `bound` requests, for repeats: (backward, src,
    /// expect).
    history: [Vec<(bool, String, Expect)>; 2],
    next_literal: u64,
    next_case: usize,
    /// The Table 1 file being edited and the edits left in its sequence.
    editing: Option<(usize, u32)>,
    next_id: u64,
    seen: HashSet<u64>,
    singles: u64,
    repeats: u64,
    distinct_bytes: u64,
}

impl Traffic {
    fn new(seed: u64) -> Result<Traffic, String> {
        let table1 = corpus::table1()?;
        let hypot = table1
            .iter()
            .find(|e| e.name == "hypot")
            .ok_or("the Table 1 corpus has no hypot")?
            .src
            .clone();
        // Ill-typed by construction, each with the code it must get.
        let ill = vec![
            // A declared grade below the inferred 5/2*eps.
            (hypot.replace("M[5/2*eps]num {", "M[2*eps]num {"), "E0109"),
            ("function f (x: num) : M[eps]num { s = mul (x, y); rnd s }\nf 2\n".into(), "E0002"),
            ("function f (x: num : M[eps]num { rnd x }\n".into(), "E0001"),
        ];
        Ok(Traffic {
            rng: SplitMix::new(seed ^ 0x5E4E),
            seed,
            table1,
            ill,
            history: [Vec::new(), Vec::new()],
            next_literal: 0,
            next_case: 0,
            editing: None,
            next_id: 0,
            seen: HashSet::new(),
            singles: 0,
            repeats: 0,
            distinct_bytes: 0,
        })
    }

    fn note(&mut self, src: &str) {
        let mut h = DefaultHasher::new();
        src.hash(&mut h);
        if self.seen.insert(h.finish()) {
            self.distinct_bytes += src.len() as u64;
        }
    }

    /// A program the server has not seen, with its reference grade.
    fn fresh(&mut self) -> (String, Expect) {
        if self.rng.below(2) == 0 {
            let e = &self.table1[self.rng.below(self.table1.len())];
            self.next_literal += 1;
            return (corpus::variant(&e.src, self.next_literal), e.expect.clone());
        }
        loop {
            let e = corpus::generated(self.seed, self.next_case);
            self.next_case += 1;
            if corpus::is_relative(&e) {
                return (e.src, Expect::Finite);
            }
        }
    }

    fn next(&mut self) -> Req {
        let id = self.next_id;
        self.next_id += 1;
        let [check, bound, edit, batch, _] = MIX_PCT;
        let roll = self.rng.below(100) as u64;
        if roll < check + bound {
            self.singles += 1;
            let (kind, slot) = if roll < check { (OpKind::Check, 0) } else { (OpKind::Bound, 1) };
            let history = &self.history[slot];
            let (backward, src, expect) = if !history.is_empty() && self.rng.unit() < REPEAT_SHARE {
                self.repeats += 1;
                history[self.rng.below(history.len())].clone()
            } else {
                let backward = self.rng.unit() < BACKWARD_SHARE;
                let (src, expect) = self.fresh();
                self.history[slot].push((backward, src.clone(), expect.clone()));
                (backward, src, expect)
            };
            self.note(&src);
            let op = if kind == OpKind::Bound { "bound" } else { "check" };
            let mut fields = vec![("id", Json::int(id)), ("op", Json::str(op))];
            if backward {
                fields.push(("mode", Json::str("backward")));
            }
            fields.push(("src", Json::str(src)));
            let want = if backward { Want::Backward } else { Want::Forward(expect) };
            Req { line: Json::obj(fields).to_string(), kind, want }
        } else if roll < check + bound + edit {
            let (file, left) = match self.editing {
                Some((file, left)) if left > 0 => (file, left),
                _ => (self.rng.below(self.table1.len()), EDIT_RUN),
            };
            self.editing = Some((file, left - 1));
            self.next_literal += 1;
            let e = &self.table1[file];
            let src = corpus::variant(&e.src, self.next_literal);
            let want = Want::Forward(e.expect.clone());
            self.note(&src);
            let fields =
                vec![("id", Json::int(id)), ("op", Json::str("edit")), ("src", Json::str(src))];
            Req { line: Json::obj(fields).to_string(), kind: OpKind::Edit, want }
        } else if roll < check + bound + edit + batch {
            let mut items = Vec::new();
            let mut wants = Vec::new();
            for i in 0..BATCH_SIZE {
                let (src, expect) = self.fresh();
                self.note(&src);
                items.push(Json::obj(vec![
                    ("name", Json::str(format!("p{i}"))),
                    ("src", Json::str(src)),
                ]));
                wants.push(expect);
            }
            let fields = vec![
                ("id", Json::int(id)),
                ("op", Json::str("batch")),
                ("programs", Json::Arr(items)),
            ];
            Req {
                line: Json::obj(fields).to_string(),
                kind: OpKind::Batch,
                want: Want::Batch(wants),
            }
        } else {
            let (src, code) = self.ill[self.rng.below(self.ill.len())].clone();
            self.note(&src);
            let fields =
                vec![("id", Json::int(id)), ("op", Json::str("check")), ("src", Json::str(src))];
            Req {
                line: Json::obj(fields).to_string(),
                kind: OpKind::Check,
                want: Want::Error(code),
            }
        }
    }
}

/// The grade inside a `M[...]num` type.
fn monad_grade(ty: &str) -> Option<&str> {
    let inner = ty.trim().strip_prefix("M[")?;
    inner.rfind(']').map(|end| &inner[..end])
}

/// The root grade of a reply's `output`: the `program : TYPE` line of a
/// check report, or the `program  GRADE (…)` line of a bound report.
fn output_grade(kind: OpKind, out: &str) -> Option<&str> {
    let line = out.lines().find(|l| l.starts_with("program"))?;
    match kind {
        OpKind::Bound => line["program".len()..].trim_start().split(" (").next(),
        _ => monad_grade(line.strip_prefix("program : ")?),
    }
}

/// Judgment-memo counts of an `edit` reply.
#[derive(Default, Clone, Copy)]
struct Memo {
    edits: u64,
    reused: u64,
    total: u64,
}

/// Checks one reply against the request's reference answer.
fn judge(req: &Req, reply: &str, memo: &mut Memo) -> Result<(), String> {
    let j = Json::parse(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    let ok = j.get("ok").and_then(Json::as_bool) == Some(true);
    let code = j.get("error").and_then(|e| e.get("code")).and_then(Json::as_str).unwrap_or("");
    match &req.want {
        Want::Forward(expect) => {
            if !ok {
                return Err(format!("refused with {code}"));
            }
            let out = j.get("output").and_then(Json::as_str).ok_or("reply has no output")?;
            let grade = output_grade(req.kind, out).ok_or("output has no program line")?;
            expect.check(grade)?;
            if req.kind == OpKind::Edit {
                let n = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                memo.edits += 1;
                memo.reused += n("reused");
                memo.total += n("total");
            }
            Ok(())
        }
        Want::Backward if ok || code.starts_with("E05") => Ok(()),
        Want::Backward => Err(format!("backward refused with {code}")),
        Want::Batch(wants) => {
            let results =
                j.get("results").and_then(Json::as_array).ok_or("batch has no results")?;
            if !ok || results.len() != wants.len() {
                return Err(format!("batch not ok ({} results)", results.len()));
            }
            for (r, want) in results.iter().zip(wants) {
                let line = r.get("line").and_then(Json::as_str).unwrap_or("");
                // `name: TYPE — BOUND`
                let ty = line.split_once(": ").map_or("", |(_, rest)| rest);
                let ty = ty.split(" — ").next().unwrap_or("");
                let grade = monad_grade(ty).ok_or_else(|| format!("batch line `{line}`"))?;
                want.check(grade)?;
            }
            Ok(())
        }
        Want::Error(want) if !ok && code == *want => Ok(()),
        Want::Error(want) => Err(format!("expected {want}, got ok={ok} code={code}")),
    }
}

/// One client connection. During a phase it is nonblocking and polled by
/// the client loop; between phases it carries blocking control calls.
struct Conn {
    stream: TcpStream,
    inbox: Vec<u8>,
    outbox: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Conn { stream, inbox: Vec::new(), outbox: Vec::new() })
    }

    /// Moves complete reply lines out of the inbox.
    fn lines(&mut self, out: &mut Vec<String>) {
        while let Some(nl) = self.inbox.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.inbox.drain(..=nl).collect();
            out.push(String::from_utf8_lossy(&line[..nl]).into_owned());
        }
    }

    /// One request/reply round trip (control ops between phases).
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.stream.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
        self.stream.write_all(format!("{line}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut got = Vec::new();
        let mut buf = [0u8; 64 * 1024];
        while got.is_empty() {
            let n = self.stream.read(&mut buf).map_err(|e| format!("control reply: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.inbox.extend_from_slice(&buf[..n]);
            self.lines(&mut got);
        }
        Json::parse(&got[0]).map_err(|e| format!("control reply: {e}"))
    }

    /// Writes what the socket takes; `Err` when the connection is gone.
    fn flush(&mut self) -> Result<bool, String> {
        let mut wrote = false;
        while !self.outbox.is_empty() {
            match self.stream.write(&self.outbox) {
                Ok(0) => return Err("connection closed while sending".into()),
                Ok(n) => {
                    self.outbox.drain(..n);
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(wrote)
    }

    /// Reads what has arrived; `Err` when the connection is gone.
    fn fill(&mut self, buf: &mut [u8]) -> Result<bool, String> {
        let mut read = false;
        loop {
            match self.stream.read(buf) {
                Ok(0) => return Err("connection dropped".into()),
                Ok(n) => {
                    self.inbox.extend_from_slice(&buf[..n]);
                    read = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(read),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// What the client saw in one phase.
#[derive(Default)]
struct ClientRun {
    /// (request index, latency from due time in ms, reply).
    replies: Vec<(usize, f64, String)>,
    late_ms: Vec<f64>,
    /// Requests that got no reply (timeout or dropped connection).
    lost: Vec<(usize, String)>,
}

/// How long the client loop sleeps when nothing is due and nothing
/// arrived: the resolution of send times and reply timestamps.
const POLL: Duration = Duration::from_micros(50);

/// The client loop: one thread, both connections nonblocking. Sends each
/// request of `plan` (request index, due time) when it falls due, on the
/// connection with fewer requests in flight — as a connection pool
/// would — and timestamps every reply as it arrives.
fn drive(
    conns: &mut [Conn; 2],
    reqs: &[Req],
    plan: &[(usize, Instant)],
    window: usize,
    steal: &mut Steal,
) -> ClientRun {
    let mut run = ClientRun::default();
    steal.read();
    let mut next = 0usize;
    let mut in_flight: [VecDeque<(usize, Instant)>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut alive = [true; 2];
    let mut buf = vec![0u8; 256 * 1024];
    let mut lines = Vec::new();
    for c in conns.iter() {
        if let Err(e) = c.stream.set_nonblocking(true) {
            run.lost.extend(plan.iter().map(|&(i, _)| (i, format!("nonblocking: {e}"))));
            return run;
        }
    }
    loop {
        steal.tick();
        let now = Instant::now();
        while next < plan.len() && plan[next].1 <= now {
            let Some(c) = (0..2)
                .filter(|&c| alive[c] && in_flight[c].len() < window)
                .min_by_key(|&c| (in_flight[c].len(), (c + next) % 2))
            else {
                break;
            };
            let (i, due) = plan[next];
            conns[c].outbox.extend_from_slice(reqs[i].line.as_bytes());
            conns[c].outbox.push(b'\n');
            run.late_ms.push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            in_flight[c].push_back((i, due));
            next += 1;
        }
        let mut progress = false;
        for c in 0..2 {
            if !alive[c] {
                continue;
            }
            let (conn, fl) = (&mut conns[c], &mut in_flight[c]);
            let io = conn.flush().and_then(|w| Ok(w | conn.fill(&mut buf)?));
            let at = Instant::now();
            conn.lines(&mut lines);
            for reply in lines.drain(..) {
                match fl.pop_front() {
                    Some((i, due)) => {
                        let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
                        run.replies.push((i, ms, reply));
                    }
                    None => run.lost.push((usize::MAX, format!("unsolicited reply {reply}"))),
                }
            }
            let failure = match io {
                Err(e) => Some(e),
                Ok(moved) => {
                    progress |= moved;
                    fl.front()
                        .filter(|&&(_, due)| at.saturating_duration_since(due) > TIMEOUT)
                        .map(|_| "timeout".to_string())
                }
            };
            if let Some(why) = failure {
                alive[c] = false;
                run.lost.extend(fl.drain(..).map(|(i, _)| (i, why.clone())));
            }
        }
        if !alive.contains(&true) {
            run.lost.extend(plan[next..].iter().map(|&(i, _)| (i, "no connection left".into())));
            break;
        }
        if next == plan.len() && in_flight.iter().all(VecDeque::is_empty) {
            break;
        }
        if !progress {
            let due = plan.get(next).map_or(POLL, |&(_, due)| due.saturating_duration_since(now));
            std::thread::sleep(due.min(POLL));
        }
    }
    for c in conns.iter() {
        let _ = c.stream.set_nonblocking(false);
    }
    steal.read();
    run
}

/// The outcome of one phase at one offered rate.
struct Phase {
    rate: f64,
    /// From the first due time to the last reply.
    wall_s: f64,
    /// Latency of every request; a failed request counts as infinite.
    latencies_ms: Vec<f64>,
    /// Latencies of the requests due in calm windows ([`calm`]).
    calm_ms: Vec<f64>,
    /// The VM's steal counter over the phase.
    steal: Steal,
    late_ms: Vec<f64>,
    /// (request index, latency) of answered requests, in send order.
    answered: Vec<(usize, f64)>,
    attempted: u64,
    mismatches: Vec<String>,
    memo: Memo,
}

/// Offers `n` requests at `rate` (seeded Poisson arrivals; an infinite
/// rate makes them all due at once) on the two connections, at most
/// `window` in flight on each, and waits for every reply.
fn phase(
    conns: &mut [Conn; 2],
    traffic: &mut Traffic,
    reqs: &mut Vec<Req>,
    rate: f64,
    n: usize,
    window: usize,
) -> Phase {
    let first = reqs.len();
    reqs.extend((0..n).map(|_| traffic.next()));
    let start = Instant::now() + Duration::from_millis(20);
    let mut t = 0.0;
    let mut plan = Vec::with_capacity(n);
    for k in 0..n {
        t += -(1.0 - traffic.rng.unit()).ln() / rate;
        plan.push((first + k, start + Duration::from_secs_f64(t)));
    }
    let reqs_ref: &[Req] = reqs;
    let mut steal = Steal::default();
    let run = drive(conns, reqs_ref, &plan, window, &mut steal);
    let wall_s = Instant::now().saturating_duration_since(start).as_secs_f64();
    let mut p = Phase {
        rate,
        wall_s,
        latencies_ms: Vec::new(),
        calm_ms: Vec::new(),
        steal,
        late_ms: Vec::new(),
        answered: Vec::new(),
        attempted: n as u64,
        mismatches: Vec::new(),
        memo: Memo::default(),
    };
    p.late_ms = run.late_ms;
    // (due time, latency) of every request, for the calm selection.
    let due = |i: usize| plan.get(i.wrapping_sub(first)).map_or(start, |&(_, d)| d);
    let mut timed = Vec::new();
    for (i, ms, reply) in run.replies {
        let ms = match judge(&reqs_ref[i], &reply, &mut p.memo) {
            Ok(()) => {
                p.answered.push((i, ms));
                ms
            }
            Err(m) => {
                p.mismatches.push(format!("request {i} ({:?}): {m}", reqs_ref[i].kind));
                f64::INFINITY
            }
        };
        p.latencies_ms.push(ms);
        timed.push((due(i), ms));
    }
    for (i, why) in run.lost {
        p.latencies_ms.push(f64::INFINITY);
        timed.push((due(i), f64::INFINITY));
        p.mismatches.push(format!("request {i}: {why}"));
    }
    p.calm_ms = calm(&timed, &p.steal);
    p.answered.sort_by_key(|&(i, _)| i);
    p
}

/// Latencies of the requests due in half-second windows in which the
/// hypervisor took at most [`CALM_STEAL`] of the VM's CPU time, or, when
/// those hold fewer than [`CALM_MIN_SHARE`] of the requests, of that share
/// of requests from the least-stolen windows.
fn calm(timed: &[(Instant, f64)], steal: &Steal) -> Vec<f64> {
    let mut by_steal: Vec<(f64, f64)> =
        timed.iter().map(|&(due, ms)| (steal.share_at(due).unwrap_or(1.0), ms)).collect();
    by_steal.sort_by(|a, b| a.0.total_cmp(&b.0));
    let calm = by_steal.iter().filter(|r| r.0 <= CALM_STEAL).count();
    let least = (by_steal.len() as f64 * CALM_MIN_SHARE).ceil() as usize;
    by_steal[..calm.max(least).min(by_steal.len())].iter().map(|r| r.1).collect()
}

/// A spawned `numfuzz serve --listen 127.0.0.1:0`. Dropping it kills the
/// process if it is still running and waits for it.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns the server with its stderr appended to `log`, and waits
    /// for its `listening on HOST:PORT` line.
    fn spawn(bin: &Path, log: &Path) -> Result<Server, String> {
        let offset = std::fs::metadata(log).map_or(0, |m| m.len()) as usize;
        let err = OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server { child, addr: String::new() };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read(log).unwrap_or_default();
            let text = String::from_utf8_lossy(text.get(offset..).unwrap_or_default());
            if let Some(rest) = text.split("listening on ").nth(1) {
                if let Some(addr) = rest.lines().next().filter(|_| rest.contains('\n')) {
                    server.addr = addr.trim().to_string();
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "server exited before listening ({status}); see {}",
                    log.display()
                ));
            }
            if Instant::now() > deadline {
                return Err("server did not start listening within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown`, waits for the process to exit, and checks that
    /// its port is free again.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.call("{\"id\":\"bye\",\"op\":\"shutdown\"}")?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("shutdown refused: {reply}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("server still running 30 s after shutdown".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
        TcpListener::bind(&self.addr)
            .map(drop)
            .map_err(|e| format!("port {} not freed after shutdown: {e}", self.addr))
    }
}

/// The `stats` and `metrics` replies at one moment.
struct Snapshot {
    stats: Json,
    metrics: Json,
}

impl Snapshot {
    fn take(conn: &mut Conn) -> Result<Snapshot, String> {
        Ok(Snapshot {
            stats: conn.call("{\"id\":\"stats\",\"op\":\"stats\"}")?,
            metrics: conn.call("{\"id\":\"metrics\",\"op\":\"metrics\"}")?,
        })
    }

    fn num(j: &Json, path: &[&str]) -> f64 {
        let mut cur = Some(j);
        for k in path {
            cur = cur.and_then(|c| c.get(k));
        }
        cur.and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn stat(&self, path: &[&str]) -> f64 {
        Self::num(&self.stats, path)
    }

    fn metric(&self, path: &[&str]) -> f64 {
        Self::num(&self.metrics, path)
    }
}

/// Sizes of one run.
struct Sizes {
    /// Set-up runs at least `setups` times and until `setup_s` have passed.
    setups: usize,
    setup_s: f64,
    warmup_s: f64,
    light_s: f64,
    busy_s: f64,
    saturation: usize,
}

/// Runs the `serve` workload and fills `report`.
pub fn run(
    bin: &Path,
    seed: u64,
    seconds: f64,
    tiny: bool,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    // The light phase gets the most time: at its rate, ten samples beyond
    // the p99 take a thousand requests. A spawn takes a few milliseconds,
    // so set-up is repeated more often than in the closed loops.
    let (setups, setup_s, warmup_s, saturation) =
        if tiny { (1, 0.0, 0.1, 100) } else { (9, 0.5, 1.0, SATURATION_REQUESTS) };
    let sizes = Sizes {
        setups,
        setup_s,
        warmup_s,
        light_s: 0.55 * seconds,
        busy_s: 0.3 * seconds,
        saturation,
    };
    let count = |rate: f64, s: f64| (rate * s).round().max(1.0) as usize;
    let log = report.out_dir().join(format!("serve-seed{seed}-stderr.txt"));
    let _ = std::fs::remove_file(&log);
    let mut traffic = Traffic::new(seed)?;

    // Set-up: spawn → listening → both connections open, repeated; the
    // last server is the one measured. A speed sample before each set-up
    // puts it at reference speed (see `crate::speed`).
    let mut speed = Speed::new();
    let mut setups = Vec::new();
    let mut live: Option<(Server, [Conn; 2])> = None;
    let started = Instant::now();
    while setups.len() < sizes.setups.max(1) || started.elapsed().as_secs_f64() < sizes.setup_s {
        if let Some((server, mut conns)) = live.take() {
            server.shutdown(&mut conns[0])?;
        }
        speed.sample(1);
        let t0 = Instant::now();
        let server = Server::spawn(bin, &log)?;
        let conns = [Conn::connect(&server.addr)?, Conn::connect(&server.addr)?];
        setups.push((speed.at(t0), t0.elapsed().as_secs_f64()));
        live = Some((server, conns));
    }
    let (server, mut conns) = live.ok_or("no set-up ran")?;

    let mut reqs: Vec<Req> = Vec::new();
    let mut checks = Checks::default();
    // `stats`/`metrics` before and after every phase.
    let mut snaps = vec![("start", Snapshot::take(&mut conns[0])?)];
    let warm = phase(
        &mut conns,
        &mut traffic,
        &mut reqs,
        LIGHT_RATE,
        count(LIGHT_RATE, sizes.warmup_s),
        LIGHT_WINDOW,
    );
    tally(&warm, &mut checks);
    snaps.push(("warm-up", Snapshot::take(&mut conns[0])?));
    let measured_from = reqs.len();
    let light = phase(
        &mut conns,
        &mut traffic,
        &mut reqs,
        LIGHT_RATE,
        count(LIGHT_RATE, sizes.light_s),
        LIGHT_WINDOW,
    );
    tally(&light, &mut checks);
    snaps.push(("light", Snapshot::take(&mut conns[0])?));
    let busy = phase(
        &mut conns,
        &mut traffic,
        &mut reqs,
        BUSY_RATE,
        count(BUSY_RATE, sizes.busy_s),
        PIPELINE_WINDOW,
    );
    tally(&busy, &mut checks);
    snaps.push(("busy", Snapshot::take(&mut conns[0])?));
    let measured_to = reqs.len();
    // Peak RSS after the fixed-rate phases, so the saturation phase's
    // extra programs do not move it.
    report.peak_rss(&format!("/proc/{}/status", server.pid()));

    // Saturation: a batch of requests all due at once keeps both
    // connections busy; their completion rate is the highest rate the
    // service sustains, above which the backlog grows.
    let saturation = if trace {
        None
    } else {
        let p = phase(
            &mut conns,
            &mut traffic,
            &mut reqs,
            f64::INFINITY,
            sizes.saturation,
            PIPELINE_WINDOW,
        );
        tally(&p, &mut checks);
        snaps.push(("saturation", Snapshot::take(&mut conns[0])?));
        Some(p)
    };
    server.shutdown(&mut conns[0])?;
    drop(conns);

    report.note(format!(
        "traffic: {} requests, {} single-program of which {} repeats ({:.3}); distinct program bytes {} against the {} byte cache; server cache holds {} bytes in {} entries",
        reqs.len(),
        traffic.singles,
        traffic.repeats,
        stats::ratio(traffic.repeats as f64, traffic.singles as f64),
        traffic.distinct_bytes,
        CACHE_BUDGET,
        snaps[snaps.len() - 1].1.stat(&["cache", "bytes"]),
        snaps[snaps.len() - 1].1.stat(&["cache", "entries"]),
    ));
    for pair in snaps.windows(2) {
        let ((_, a), (name, b)) = (&pair[0], &pair[1]);
        let d = |path: &[&str]| b.stat(path) - a.stat(path);
        report.note(format!(
            "server during {name}: {} requests, cache hits {} misses {}, judgment memo hits {} misses {}, queue peak so far {}, admission rejected {}",
            b.metric(&["requests"]) - a.metric(&["requests"]),
            d(&["cache", "hits"]),
            d(&["cache", "misses"]),
            d(&["judgments", "hits"]),
            d(&["judgments", "misses"]),
            b.metric(&["queue", "peak"]),
            b.metric(&["admission", "rejected"]) - a.metric(&["admission", "rejected"]),
        ));
    }
    for (name, p) in [("light", &light), ("busy", &busy)] {
        let late = Latency::of_ms(&p.late_ms);
        let s = stats::sorted(&p.latencies_ms);
        let deciles: Vec<String> =
            (1..10).map(|d| format!("{:.2}", stats::percentile(&s, d as f64 / 10.0))).collect();
        report.note(format!(
            "{name} phase at {} req/s: gen_late_ms p50 {:.4} p99 {:.4} (n={}); latency deciles ms {}",
            p.rate,
            late.p50_ms,
            late.p99_ms,
            late.samples,
            deciles.join(" ")
        ));
        report.note(format!(
            "{name} phase: steal {:.4} of the VM's CPU time; {} of {} requests due in calm windows, p50 {:.4} ms (all requests: {:.4} ms)",
            p.steal.share(),
            p.calm_ms.len(),
            p.latencies_ms.len(),
            stats::median(&p.calm_ms),
            stats::median(&p.latencies_ms)
        ));
    }
    report.note(format!("server stderr kept in {}", log.display()));
    let [check, bound, edit, batch, ill] = MIX_PCT;
    report.note(format!(
        "settings: light={LIGHT_RATE} busy={BUSY_RATE} saturation={} \
         mix={check}/{bound}/{edit}/{batch}/{ill} backward_pct={} repeat_pct={}",
        sizes.saturation,
        BACKWARD_SHARE * 100.0,
        REPEAT_SHARE * 100.0
    ));

    if !trace {
        let ref_setups: Vec<f64> =
            setups.iter().map(|&(at, s)| speed.at_reference(s, at, at + s)).collect();
        report.setup(&ref_setups);
        if let Some(p) = &saturation {
            // The rate had the host taken none of the VM's CPU time. The
            // rate spans both cores and both processes, which the client
            // thread's kernel does not track: over ten seeds, scaling it by
            // the kernel's slowdown just before and after the phase took
            // its spread from 0.05 to 0.14 of the median.
            let rate = p.attempted as f64 / p.wall_s;
            let ops_per_s = rate / (1.0 - p.steal.share()).max(0.5);
            report.metric("ops_per_s", ops_per_s, "1/s", p.attempted);
            let raw: Vec<f64> = setups.iter().map(|&(_, s)| s).collect();
            report.note(format!(
                "wall clock: saturation {rate:.3} req/s (steal {:.4}), set-up median {:.6} s",
                p.steal.share(),
                stats::median(&raw)
            ));
        }
        // Most of a light- or busy-phase latency is the server loop's 1 ms
        // idle park, the network and queueing, which do not scale with the
        // CPU's speed: these two are reported as measured, over the
        // requests due in calm windows.
        report.latency("latency", &Latency::of_ms(&light.calm_ms));
        report.latency("busy_latency", &Latency::of_ms(&busy.calm_ms));
        report.note(speed.summary());
    } else {
        let measured = &reqs[measured_from..measured_to];
        let client: Vec<(usize, f64)> = light
            .answered
            .iter()
            .chain(&busy.answered)
            .map(|&(i, ms)| (i - measured_from, ms))
            .collect();
        let light_n = light.answered.len();
        let (mut layers, spans) = replay_layers(&reqs[..measured_from], measured, &client, light_n);
        if let Err(e) = spans.write_jsonl(&report.spans_path()) {
            report.note(format!("could not write spans: {e}"));
        }
        let (before, after) = (&snaps[1].1, &snaps[3].1);
        let cache_hits = after.stat(&["cache", "hits"]) - before.stat(&["cache", "hits"]);
        let cache_misses = after.stat(&["cache", "misses"]) - before.stat(&["cache", "misses"]);
        layers.counter("serve.cache.calls", cache_hits + cache_misses);
        layers.counter("serve.cache.hits", cache_hits);
        layers.counter("serve.cache.misses", cache_misses);
        layers
            .counter("serve.cache.hit_ratio", stats::ratio(cache_hits, cache_hits + cache_misses));
        let memo = Memo {
            edits: light.memo.edits + busy.memo.edits,
            reused: light.memo.reused + busy.memo.reused,
            total: light.memo.total + busy.memo.total,
        };
        layers.counter("serve.memo.calls", memo.edits as f64);
        layers.counter("serve.memo.reused", memo.reused as f64);
        layers.counter("serve.memo.total", memo.total as f64);
        layers
            .counter("serve.memo.reuse_ratio", stats::ratio(memo.reused as f64, memo.total as f64));
        layers.counter(
            "serve.queue.calls",
            after.metric(&["requests"]) - before.metric(&["requests"]),
        );
        layers.counter("serve.queue.peak", after.metric(&["queue", "peak"]));
        layers.counter(
            "serve.queue.admission_rejected",
            after.metric(&["admission", "rejected"]) - before.metric(&["admission", "rejected"]),
        );
        report.layers(layers);
    }
    report.checks(checks);
    Ok(())
}

/// Adds a phase's outcome counts and mismatches to `checks`.
fn tally(p: &Phase, checks: &mut Checks) {
    checks.count(p.attempted, p.mismatches.len() as u64);
    for m in &p.mismatches {
        checks.mismatch(m);
    }
}

/// A fresh in-process `Service` configured like `numfuzz serve`'s
/// defaults: 64 MiB result cache and judgment memo, one worker per core.
fn service() -> Service {
    let analyzer = Analyzer::builder()
        .cache(AnalysisCache::with_budget(CACHE_BUDGET as usize))
        .judgment_cache_bytes(CACHE_BUDGET as usize)
        .build();
    Service::with_config(analyzer, 0, ServeConfig::default())
}

/// Replays the run's request lines through `Service::handle_line`
/// in-process — once untraced, once traced — and derives the serve
/// layers: `serve.handler` from the traced replay, `serve.loop` as each
/// request's client latency minus its handler time, `core.fingerprint`
/// from `Program::fingerprint` on every distinct single-program source.
fn replay_layers(
    warmup: &[Req],
    measured: &[Req],
    client: &[(usize, f64)],
    light_n: usize,
) -> (Layers, Tracer) {
    let replay = |t: &mut Tracer| {
        let svc = service();
        let session = svc.analyzer().fork_session();
        for r in warmup {
            svc.handle_line(&session, &r.line);
        }
        let t0 = Instant::now();
        for r in measured {
            t.begin_op();
            t.layer("serve.handler", || svc.handle_line(&session, &r.line));
            t.end_op();
        }
        t0.elapsed().as_secs_f64()
    };
    let untraced_s = replay(&mut Tracer::new(false));
    let mut t = Tracer::new(true);
    let traced_s = replay(&mut t);
    let handler_us: Vec<f64> = {
        let aggs = t.layers();
        aggs.get("serve.handler").map(|a| a.call_us.clone()).unwrap_or_default()
    };
    // Fingerprints of every distinct single-program source.
    let mut fp = Tracer::new(true);
    let mut seen = HashSet::new();
    for r in measured {
        let Ok(j) = Json::parse(&r.line) else { continue };
        let Some(src) = j.get("src").and_then(Json::as_str) else { continue };
        if !seen.insert(src.to_string()) {
            continue;
        }
        if let Ok(p) = Analyzer::new().parse(src) {
            fp.layer("core.fingerprint", || std::hint::black_box(p.fingerprint()));
        }
    }
    let mut aggs = t.layers();
    aggs.remove(crate::trace::OP);
    if let Some(f) = fp.layers().remove("core.fingerprint") {
        aggs.insert("core.fingerprint", f);
    }
    // serve.loop: calls and self time over every measured request; its
    // p50/p99 at the light rate only, where the loop's own costs show.
    let mut lp = LayerAgg::default();
    let mut op_ms = 0.0;
    let mut covered_ms = 0.0;
    for (k, &(i, ms)) in client.iter().enumerate() {
        let handler_ms = handler_us.get(i).copied().unwrap_or(0.0) / 1e3;
        let loop_ms = (ms - handler_ms).max(0.0);
        op_ms += ms;
        covered_ms += handler_ms + loop_ms;
        lp.calls += 1;
        lp.self_ns += (loop_ms * 1e6) as u64;
        if k < light_n {
            lp.call_us.push(loop_ms * 1e3);
        }
    }
    aggs.insert("serve.loop", lp);
    // Only answered requests have a client latency; the handler layer
    // keeps every replayed call. `serve.loop` is the remainder of each
    // request's latency, so handler + loop cover it by construction;
    // `core.fingerprint` runs inside the handler and is not added.
    let mut layers = Layers::from_parts(aggs, op_ms, client.len() as u64);
    layers.counter("trace.coverage", stats::ratio(covered_ms, op_ms));
    layers.overhead(traced_s, untraced_s);
    for (kind, name) in [
        (OpKind::Check, "serve.handler.check_p50_us"),
        (OpKind::Bound, "serve.handler.bound_p50_us"),
        (OpKind::Edit, "serve.handler.edit_p50_us"),
        (OpKind::Batch, "serve.handler.batch_p50_us"),
    ] {
        let us: Vec<f64> = measured
            .iter()
            .zip(&handler_us)
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, &us)| us)
            .collect();
        layers.counter(name, if us.is_empty() { 0.0 } else { stats::median(&us) });
    }
    (layers, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grades_are_read_off_each_reply_shape() {
        assert_eq!(
            output_grade(OpKind::Check, "f : x\nprogram : M[5/2*eps]num\n"),
            Some("5/2*eps")
        );
        let bound = "program                  5/2*eps (relative error <= 5.55e-16)\n(binary64 …)\n";
        assert_eq!(output_grade(OpKind::Bound, bound), Some("5/2*eps"));
        assert_eq!(monad_grade("M[eps]num"), Some("eps"));
    }

    #[test]
    fn traffic_is_deterministic_per_seed() {
        let mut a = Traffic::new(7).expect("corpus");
        let mut b = Traffic::new(7).expect("corpus");
        for _ in 0..200 {
            assert_eq!(a.next().line, b.next().line);
        }
        assert!(a.repeats > 0 && a.repeats < a.singles);
    }

    #[test]
    fn traffic_follows_the_stated_mix() {
        let mut t = Traffic::new(11).expect("corpus");
        let n = 4000;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            let r = t.next();
            let slot = match (&r.want, r.kind) {
                (Want::Error(_), _) => 4,
                (_, OpKind::Check) => 0,
                (_, OpKind::Bound) => 1,
                (_, OpKind::Edit) => 2,
                (_, OpKind::Batch) => 3,
            };
            counts[slot] += 1;
        }
        for (got, pct) in counts.iter().zip(MIX_PCT) {
            let share = *got as f64 * 100.0 / n as f64;
            assert!((share - pct as f64).abs() < 3.0, "{counts:?} against {MIX_PCT:?}");
        }
        let repeat = t.repeats as f64 / t.singles as f64;
        assert!((repeat - REPEAT_SHARE).abs() < 0.05, "repeat share {repeat}");
    }
}
