//! The command line: one table of commands, one table of flags, the one
//! parser every command calls, and the `--help` text printed from both
//! tables (README's `## CLI` block is that text verbatim).

use numfuzz::prelude::*;
use std::fmt::Write as _;
use std::str::FromStr;

/// One command: its name, the placeholder of its positional argument
/// (`""` when it takes none), and one help line.
struct Command {
    name: &'static str,
    arg: &'static str,
    help: &'static str,
}

const fn command(name: &'static str, arg: &'static str, help: &'static str) -> Command {
    Command { name, arg, help }
}

const COMMANDS: &[Command] = &[
    command("check", "FILE", "inferred type of every function and of the program"),
    command("bound", "FILE", "eq. (8) error bound of every function and of the program"),
    command("run", "FILE", "ideal + floating-point semantics and the rigorous verdict"),
    command("batch", "DIR", "check + bound every .nf under DIR on the worker pool"),
    command("watch", "FILE", "re-check FILE on every change through a judgment cache"),
    command("optimize", "FILE", "sound rewrites + precisions minimizing the typed bound"),
    command("serve", "", "resident NDJSON analysis service (docs/serve.md)"),
    command("client", "", "pipe NDJSON requests from stdin to a `serve --listen`"),
    command("loadgen", "", "mixed-traffic load harness against a serve event loop"),
    command("bench", "", "check+bound and parse throughput over the benchsuite corpus"),
    command("fuzz", "", "differential soundness fuzzing, shrunk reproducers on failure"),
    command("table1", "", "both bound engines over the committed benches/table1 corpus"),
    command("paper", "N", "the paper's Table N (1 to 5)"),
    command("validate", "", "the Cor. 4.20 error-soundness sweep over the paper's kernels"),
];

/// What a flag's value may be.
#[derive(Clone, Copy)]
enum Range {
    /// A switch: the flag takes no value.
    Switch,
    /// An integer in `lo..=hi`.
    Int(u64, u64),
    /// A number in `lo..hi`, or in `lo..=hi` when the flag is `true`.
    Real(f64, f64, bool),
    /// A duration in seconds, as `Duration::try_from_secs_f64` takes it.
    Seconds,
    /// An exact rational: `n/d`, an integer, or a decimal.
    Exact,
    /// One of these words.
    Word(&'static [&'static str]),
    /// Any text: a path or an address.
    Text,
}

/// One flag: the placeholder of its value, the values it accepts, its
/// default (`""` for none), the commands that take it, and one help
/// line. A name may have several rows when its default or meaning
/// differs between commands; no command takes two rows of one name.
struct Flag {
    name: &'static str,
    value: &'static str,
    range: Range,
    default: &'static str,
    commands: &'static [&'static str],
    help: &'static str,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    range: Range,
    default: &'static str,
    commands: &'static [&'static str],
    help: &'static str,
) -> Flag {
    Flag { name, value, range, default, commands, help }
}

const NO_LIMIT: u64 = u64::MAX;
/// The commands that take the session flags `--prec`, `--emax` and `--mode`.
const SESSION: &[&str] =
    &["check", "bound", "run", "batch", "watch", "serve", "optimize", "table1"];

use Range::*;
const FLAGS: &[Flag] = &[
    // `Format::new` asserts on degenerate formats, and huge ones make
    // evaluation allocate or loop without bound; binary256 is the widest
    // IEEE 754 interchange format.
    flag("--prec", "P", Int(2, 237), "53", SESSION, "precision bits of the format"),
    flag("--emax", "E", Int(1, 262143), "1023", SESSION, "maximum exponent of the format"),
    flag("--mode", "M", Word(&["ru", "rd", "rz", "rn"]), "ru", SESSION, "rounding mode"),
    flag(
        "--abs",
        "",
        Switch,
        "",
        &["check", "bound", "run", "batch", "watch", "serve"],
        "absolute-error instantiation (default: relative precision)",
    ),
    flag(
        "--backward",
        "",
        Switch,
        "",
        &["check", "bound", "batch", "watch", "fuzz"],
        "backward-error judgment (Bean); serve takes \"mode\":\"backward\"",
    ),
    // `--jobs`, `--connections`, `--requests` and `--cases` start threads
    // or size allocations, so they are bounded: a typo must not ask for
    // millions of threads or overflow a capacity.
    flag(
        "--jobs",
        "N",
        Int(0, 256),
        "0",
        &["batch", "serve", "loadgen", "validate"],
        "worker threads; 0 = one per core",
    ),
    flag(
        "--jobs",
        "N",
        Int(0, 256),
        "1",
        &["optimize", "fuzz"],
        "worker threads; 0 = one per core",
    ),
    flag("--poll-ms", "N", Int(0, NO_LIMIT), "100", &["watch"], "poll interval in milliseconds"),
    flag(
        "--iterations",
        "N",
        Int(0, NO_LIMIT),
        "0",
        &["watch"],
        "stop after N rechecks; 0 = never",
    ),
    flag(
        "--listen",
        "ADDR",
        Text,
        "",
        &["serve"],
        "serve TCP on ADDR (port 0: any); default stdio",
    ),
    flag(
        "--cache-bytes",
        "N",
        Int(0, NO_LIMIT),
        "67108864",
        &["serve"],
        "byte budget of the result and judgment caches",
    ),
    flag("--cache-file", "FILE", Text, "", &["serve"], "persist the reply cache to FILE"),
    flag(
        "--cache-file-cap",
        "N",
        Int(0, NO_LIMIT),
        "8388608",
        &["serve"],
        "snapshot byte cap; LRU replies go first",
    ),
    flag("--idle-ms", "N", Int(0, NO_LIMIT), "300000", &["serve"], "close idle TCP connections"),
    flag(
        "--max-pending",
        "N",
        Int(1, NO_LIMIT),
        "64",
        &["serve"],
        "per-tenant requests in flight before EBUSY",
    ),
    flag("--connect", "ADDR", Text, "", &["client"], "the `serve --listen` address (required)"),
    flag("--retry", "S", Seconds, "10", &["client"], "seconds to retry while the server starts"),
    flag("--connect", "ADDR", Text, "", &["loadgen"], "drive this server (default: spawn one)"),
    flag("--connections", "N", Int(1, 256), "4", &["loadgen"], "concurrent connections"),
    flag("--requests", "N", Int(1, 100_000), "25", &["loadgen"], "requests per connection"),
    flag(
        "--seed",
        "S",
        Int(0, NO_LIMIT),
        "42",
        &["loadgen", "optimize", "fuzz"],
        "the request-stream, shuffle or case seed",
    ),
    flag("--out", "FILE", Text, "BENCH_serve.json", &["loadgen"], "JSON report path"),
    flag("--out", "FILE", Text, "BENCH_core.json", &["bench"], "JSON report path"),
    flag("--out", "FILE", Text, "", &["optimize"], "write the rewritten program to FILE"),
    flag("--gate", "FILE", Text, "", &["loadgen"], "exit 1 if requests/s regress vs report FILE"),
    flag(
        "--gate",
        "FILE",
        Text,
        "",
        &["bench"],
        "exit 1 if speed or exact pins regress vs report FILE",
    ),
    flag("--tolerance", "P", Real(0.0, 100.0, false), "75", &["loadgen"], "--gate slack, percent"),
    flag("--tolerance", "P", Real(0.0, 100.0, false), "40", &["bench"], "--gate slack, percent"),
    flag("--iters", "N", Int(1, NO_LIMIT), "5", &["bench"], "timed corpus passes, best of N"),
    flag("--baseline", "FILE", Text, "", &["bench"], "earlier report to compute a speedup against"),
    flag(
        "--gate-incremental",
        "R",
        Real(0.0, 1.0, true),
        "",
        &["bench"],
        "exit 1 unless an edit replays ratio R of judgments",
    ),
    flag("--budget", "N", Int(0, NO_LIMIT), "192", &["optimize"], "rewrite candidates to evaluate"),
    flag("--precision-search", "", Switch, "", &["optimize"], "also rank the fuzzer's formats"),
    flag(
        "--target-rel",
        "R",
        Exact,
        "",
        &["optimize"],
        "relative-error target of the precision search",
    ),
    flag("--cases", "N", Int(0, 1_000_000), "200", &["fuzz"], "generated programs"),
    flag("--repro", "PREFIX", Text, "fuzz-reproducer", &["fuzz"], "reproducer path prefix"),
    flag(
        "--incremental",
        "",
        Switch,
        "",
        &["fuzz"],
        "random edits; memoized rechecks must match from-scratch checks",
    ),
    flag(
        "--dir",
        "DIR",
        Text,
        "",
        &["table1"],
        "corpus directory (default: benches/table1 here, else in the source tree)",
    ),
];

impl Range {
    /// Whether `v` is an accepted value; `Err` when it is not a value of
    /// this kind at all.
    fn accepts(self, v: &str) -> Result<bool, String> {
        let number = |e: &dyn std::fmt::Display| format!("`{v}` is not a number ({e})");
        Ok(match self {
            Switch | Text => true,
            Int(lo, hi) => (lo..=hi).contains(&v.parse::<u64>().map_err(|e| number(&e))?),
            Real(lo, hi, closed) => {
                let x: f64 = v.parse().map_err(|e| number(&e))?;
                lo <= x && (x < hi || closed && x == hi)
            }
            Seconds => {
                std::time::Duration::try_from_secs_f64(v.parse().map_err(|e| number(&e))?).is_ok()
            }
            Exact => parse_rational(v).is_some(),
            Word(words) => words.contains(&v),
        })
    }
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Switch | Text | Seconds | Int(0, NO_LIMIT) => Ok(()),
            Int(lo, NO_LIMIT) => write!(f, "{lo}.."),
            Int(lo, hi) => write!(f, "{lo}..={hi}"),
            Real(lo, hi, closed) => write!(f, "{lo}..{}{hi}", if closed { "=" } else { "" }),
            Exact => write!(f, "n/d or a decimal"),
            Word(words) => write!(f, "{}", words.join("|")),
        }
    }
}

/// Parses `n/d`, an integer, or a decimal into an exact [`Rational`].
pub fn parse_rational(s: &str) -> Option<Rational> {
    if let Some((n, d)) = s.split_once('/') {
        let d: i64 = d.trim().parse().ok()?;
        if d == 0 {
            return None;
        }
        return Some(Rational::ratio(n.trim().parse().ok()?, d));
    }
    Rational::from_decimal_str(s.trim()).ok()
}

/// A checked command line: the command, its positional argument, and
/// the flags given, every value already in its flag's range.
pub struct Args {
    command: &'static Command,
    arg: Option<String>,
    given: Vec<(&'static Flag, String)>,
}

/// Parses everything after the command name: flags and the positional
/// argument in any order, a repeated flag's last value winning. Unknown
/// commands and flags, a missing or out-of-range value, and a missing or
/// extra positional are errors; `Ok(None)` means `--help` was asked for.
pub fn parse(name: &str, words: &[String]) -> Result<Option<Args>, String> {
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`"))?;
    let mut args = Args { command, arg: None, given: Vec::new() };
    let mut words = words.iter();
    while let Some(word) = words.next() {
        if word == "--help" || word == "-h" {
            return Ok(None);
        }
        if !word.starts_with("--") {
            if args.arg.is_some() || command.arg.is_empty() {
                return Err(format!("unexpected argument `{word}`"));
            }
            args.arg = Some(word.clone());
            continue;
        }
        let flag = FLAGS.iter().find(|f| f.name == word && f.commands.contains(&name)).ok_or_else(
            || {
                if FLAGS.iter().any(|f| f.name == word) {
                    format!("`{name}` does not take {word}")
                } else {
                    format!("unknown option `{word}`")
                }
            },
        )?;
        let value = match flag.range {
            Switch => String::new(),
            range => {
                let v = words.next().ok_or_else(|| format!("{word} needs a value"))?;
                if !range.accepts(v).map_err(|e| format!("{word}: {e}"))? {
                    return Err(format!("{word} {v} is out of range ({range})"));
                }
                v.clone()
            }
        };
        args.given.push((flag, value));
    }
    if args.arg.is_none() && !command.arg.is_empty() {
        return Err(format!("missing {} argument", command.arg));
    }
    Ok(Some(args))
}

impl Args {
    pub fn command(&self) -> &'static str {
        self.command.name
    }

    /// The positional argument (`""` for a command that takes none).
    pub fn arg(&self) -> &str {
        self.arg.as_deref().unwrap_or_default()
    }

    /// Whether the switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(f, _)| f.name == name)
    }

    /// The flag's value, given or default, or `None` when it has
    /// neither. Panics if this command does not take the flag.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = match self.given.iter().rev().find(|(f, _)| f.name == name) {
            Some((_, v)) => v.as_str(),
            None => {
                let row =
                    FLAGS.iter().find(|f| f.name == name && f.commands.contains(&self.command()));
                row.unwrap_or_else(|| panic!("`{}` does not take {name}", self.command())).default
            }
        };
        let parsed = raw.parse().ok();
        assert!(raw.is_empty() || parsed.is_some(), "{name} {raw}: checked by `parse`");
        parsed.filter(|_| !raw.is_empty())
    }

    /// [`Args::get`] for a flag that has a default.
    pub fn value<T: FromStr>(&self, name: &str) -> T {
        self.get(name).unwrap_or_else(|| panic!("{name} has a default"))
    }

    /// The session `--prec`, `--emax`, `--mode` and `--abs` describe.
    pub fn session(&self) -> AnalyzerBuilder {
        let mode = match self.value::<String>("--mode").as_str() {
            "rd" => RoundingMode::TowardNegative,
            "rz" => RoundingMode::TowardZero,
            "rn" => RoundingMode::NearestEven,
            _ => RoundingMode::TowardPositive,
        };
        let instantiation = if self.switch("--abs") {
            Instantiation::AbsoluteError
        } else {
            Instantiation::RelativePrecision
        };
        Analyzer::builder()
            .signature(instantiation)
            .format(Format::new(self.value("--prec"), self.value("--emax")))
            .mode(mode)
    }
}

/// What a usage error prints after its message: the command's synopsis
/// (`numfuzz check FILE [--prec P] ...`), or the whole help when the
/// command is missing or unknown.
pub fn usage(name: Option<&str>) -> String {
    let Some(command) = COMMANDS.iter().find(|c| Some(c.name) == name) else {
        return help();
    };
    let mut line =
        format!("usage: numfuzz {} {}", command.name, command.arg).trim_end().to_string();
    for flag in FLAGS.iter().filter(|f| f.commands.contains(&command.name)) {
        let _ = write!(line, " [{}]", format!("{} {}", flag.name, flag.value).trim_end());
    }
    line + "\n(`numfuzz --help` describes every flag)\n"
}

/// The `--help` text.
pub fn help() -> String {
    let mut out = String::from(
        "usage: numfuzz COMMAND [ARG] [FLAGS]   (flags go before or after ARG)\n\ncommands:\n",
    );
    for c in COMMANDS {
        let _ = writeln!(out, "  {:<15} {}", format!("{} {}", c.name, c.arg).trim_end(), c.help);
    }
    out.push_str("\nflags (the commands that take each flag are listed below it):\n");
    for f in FLAGS {
        let range = f.range.to_string();
        let default =
            if f.default.is_empty() { String::new() } else { format!("default {}", f.default) };
        let notes = [range, default].into_iter().filter(|n| !n.is_empty()).collect::<Vec<_>>();
        let notes =
            if notes.is_empty() { String::new() } else { format!(" ({})", notes.join(", ")) };
        let _ = writeln!(
            out,
            "  {:<21} {}{notes}",
            format!("{} {}", f.name, f.value).trim_end(),
            f.help
        );
        let _ = writeln!(out, "  {:<21}   {}", "", f.commands.join(" "));
    }
    out.push_str(
        "\nexit status: 0 success; 1 an ill-typed or bound-violating program, or a failed\n\
         gate; 2 a usage or I/O error\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_default_is_in_range_and_no_command_takes_a_name_twice() {
        for f in FLAGS {
            if !f.default.is_empty() {
                assert!(f.range.accepts(f.default) == Ok(true), "{} {}", f.name, f.default);
            }
            for c in f.commands {
                assert!(COMMANDS.iter().any(|k| k.name == *c), "{}: no command `{c}`", f.name);
                let rows = FLAGS.iter().filter(|g| g.name == f.name && g.commands.contains(c));
                assert_eq!(rows.count(), 1, "`{c}` takes {} twice", f.name);
            }
        }
    }
}
