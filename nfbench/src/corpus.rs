//! The programs the workloads analyse, each with a reference answer that
//! does not come from the checker:
//!
//! * the ten `benches/table1` files, against the paper's Table 1 grade
//!   column as pinned in `tests/golden/table1.expected`;
//! * the Table 5 conditionals and `Program::pretty` renderings of Table 4
//!   generators, against the generators' `expected_eps_coeff`;
//! * `numfuzz::fuzz::generate_case` programs, which must be accepted with
//!   a finite grade (and, where the workload runs the oracles, satisfy
//!   Cor. 4.20 with the ideal value of the fuzz crate's own evaluator).

use numfuzz::core::{Grade, Instantiation};
use numfuzz::exact::Rational;
use numfuzz::fuzz::{generate_case, CasePlan};
use numfuzz::prelude::{Analyzer, Program};
use std::path::{Path, PathBuf};

/// What a forward check of a program must produce.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exactly this root grade, as the checker prints it.
    Grade(String),
    /// Any finite grade.
    Finite,
}

impl Expect {
    /// Checks a root grade, as the checker prints it (`inf` when
    /// infinite), against the reference.
    pub fn check(&self, grade: &str) -> Result<(), String> {
        match self {
            Expect::Grade(want) if grade == want => Ok(()),
            Expect::Finite if !grade.contains("inf") => Ok(()),
            Expect::Grade(want) => Err(format!("grade {grade} != reference {want}")),
            Expect::Finite => Err(format!("grade {grade} is not finite")),
        }
    }
}

/// The session configuration a program is analysed under.
#[derive(Clone, Debug)]
pub enum Session {
    /// `Analyzer::new()`: relative precision, binary64, toward +inf.
    Default,
    /// A generated case's own plan (instantiation, format, mode, unit).
    Plan(Box<CasePlan>),
}

impl Session {
    pub fn analyzer(&self) -> Analyzer {
        match self {
            Session::Default => Analyzer::new(),
            Session::Plan(plan) => {
                let mut b = Analyzer::builder()
                    .signature(plan.instantiation)
                    .format(plan.format)
                    .mode(plan.mode);
                if let Some(unit) = &plan.rnd_unit {
                    b = b.rounding_unit(unit.clone());
                }
                b.build()
            }
        }
    }
}

/// One closed source program with its reference answers.
#[derive(Clone, Debug)]
pub struct Entry {
    pub name: String,
    pub src: String,
    pub session: Session,
    pub expect: Expect,
    /// The Table 1 principal function, bounded over `[0.1, 1000]` by the
    /// interval engine; `None` bounds the committed point instead.
    pub principal: Option<String>,
    /// The fuzz crate's own ideal result, when the program has one.
    pub ideal: Option<Rational>,
}

/// The repository root: the working directory when it holds the Table 1
/// corpus (the benchmark runs from the root of a checkout), else the
/// directory above this package.
pub fn repo_root() -> PathBuf {
    if Path::new("benches/table1").is_dir() {
        PathBuf::from(".")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// The Table 1 corpus, sorted by name, with the golden grade column.
pub fn table1() -> Result<Vec<Entry>, String> {
    let root = repo_root();
    let golden_path = root.join("tests/golden/table1.expected");
    let golden = std::fs::read_to_string(&golden_path)
        .map_err(|e| format!("{}: {e}", golden_path.display()))?;
    let dir = root.join("benches/table1");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "nf"))
        .collect();
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let stem = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        // Golden rows read `stem grade typed interval tighter sound ...`.
        let grade = golden
            .lines()
            .find_map(|l| {
                let mut cols = l.split_whitespace();
                (cols.next() == Some(stem.as_str())).then(|| cols.next().map(str::to_string))?
            })
            .ok_or_else(|| format!("{stem}: no row in {}", golden_path.display()))?;
        out.push(Entry {
            name: stem.clone(),
            src,
            session: Session::Default,
            expect: Expect::Grade(grade),
            principal: Some(stem),
            ideal: None,
        });
    }
    if out.is_empty() {
        return Err(format!("no .nf files under {}", dir.display()));
    }
    Ok(out)
}

fn eps_grade(coeff: &Rational) -> String {
    Grade::symbol("eps").scale(coeff).to_string()
}

/// The Table 5 conditionals, closed by their committed sample call.
pub fn table5() -> Vec<Entry> {
    numfuzz::benchsuite::table5()
        .into_iter()
        .map(|b| Entry {
            name: b.name.to_string(),
            src: format!("{}\n{}\n", b.source, b.sample),
            session: Session::Default,
            expect: Expect::Grade(eps_grade(&b.expected_eps_coeff)),
            principal: None,
            ideal: None,
        })
        .collect()
}

/// `Program::pretty` renderings of the Table 4 `serial_sum` generator at
/// 5000 terms (300 KB) and 1000 terms (58 KB). The other generators'
/// renderings are left out: `matrix_multiply`'s fail to re-check with a
/// nonlinear-grade diagnostic, and `horner`'s and `poly_naive`'s keep a
/// free `x`.
pub fn table4_large() -> Vec<Entry> {
    use numfuzz::benchsuite::serial_sum;
    [serial_sum(5000), serial_sum(1000)]
        .into_iter()
        .map(|g| {
            let expect = Expect::Grade(eps_grade(&g.expected_eps_coeff));
            let name = g.name.clone();
            let src = Program::from_generated(g).pretty(u32::MAX);
            Entry { name, src, session: Session::Default, expect, principal: None, ideal: None }
        })
        .collect()
}

/// Generated case `index` of the run seeded with `seed`.
pub fn generated(seed: u64, index: usize) -> Entry {
    let case = generate_case(seed, index);
    Entry {
        name: format!("case-{index}"),
        src: case.program.render(),
        expect: Expect::Finite,
        principal: None,
        ideal: case.expected_ideal,
        session: Session::Plan(Box::new(case.plan)),
    }
}

/// Whether a generated entry lowers under the default (relative
/// precision) signature, so a default `numfuzz serve` can answer it.
pub fn is_relative(e: &Entry) -> bool {
    match &e.session {
        Session::Default => true,
        Session::Plan(p) => p.instantiation == Instantiation::RelativePrecision,
    }
}

/// `src` with the first value literal of its last line (the committed
/// call) extended by `0`, the digits of `n`, and `1`: a distinct value
/// for every `n` (no trailing zero), hence a program with a new content
/// fingerprint whose grade is unchanged, because grades do not depend on
/// input values. Literals inside `{...}` are box grades and are skipped.
pub fn variant(src: &str, n: u64) -> String {
    let body = src.trim_end();
    let line_start = body.rfind('\n').map_or(0, |i| i + 1);
    let line = &body[line_start..];
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => depth = depth.saturating_sub(1),
            b'0'..=b'9' if depth == 0 && (i == 0 || !is_ident(bytes[i - 1])) => {
                let mut end = i;
                while end < bytes.len() && (bytes[end].is_ascii_digit() || bytes[end] == b'.') {
                    end += 1;
                }
                let lit = &line[i..end];
                let dot = if lit.contains('.') { "" } else { "." };
                return format!(
                    "{}{}{lit}{dot}0{n}1{}\n",
                    &body[..line_start],
                    &line[..i],
                    &line[end..]
                );
            }
            _ => {}
        }
        i += 1;
    }
    format!("{body}\n")
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_extend_the_first_value_literal_only() {
        assert_eq!(variant("f x\nhypot 3.7 0.51\n", 12), "f x\nhypot 3.70121 0.51\n");
        assert_eq!(variant("verhulst [0.27]{2}", 5), "verhulst [0.27051]{2}\n");
        assert_eq!(variant("sqrt_add 42", 7), "sqrt_add 42.071\n");
        assert_eq!(variant("test02_sum8 0.1 2", 3), "test02_sum8 0.1031 2\n");
    }
}
