//! The [`Analyzer`]-backed differential oracle behind `numfuzz fuzz`.
//!
//! The generator, shrinker and campaign driver live in
//! [`numfuzz_fuzz`]; this module supplies the piece that must sit on the
//! public API: for every generated case it drives the full production
//! pipeline and cross-checks it against independent references.
//!
//! Per case, the oracle verifies that the program
//!
//! 1. **parses and lowers** (`Analyzer::parse` — the generator only
//!    emits well-formed surface syntax);
//! 2. **type-checks with a finite monadic grade** (`Analyzer::check` —
//!    the generator's sensitivity discipline guarantees typability, so
//!    any rejection is a checker or generator bug worth a reproducer);
//! 3. **satisfies Corollary 4.20 rigorously** (`Analyzer::validate`:
//!    ideal vs. floating-point run, exact rational enclosures, the
//!    inferred grade as the bound);
//! 4. **agrees with the reference evaluator** on the ideal result
//!    (interpreter machine vs. the fuzz crate's structural evaluator);
//! 5. **round-trips**: pretty-printing, re-parsing and re-checking
//!    yields the identical root type and grade.

use crate::{AnalysisMode, Analyzer, Inputs};
use numfuzz_core::{Instantiation, Node, Signature, TermId, VarId};
use numfuzz_fuzz::{
    validate_backward_fn, BackwardFacts, CaseFailure, CasePass, CasePlan, FailureKind, FuzzConfig,
    FuzzOutcome, IncrementalFacts, IntervalFacts, LensOutcome, Oracle,
};

/// The production differential oracle (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalyzerOracle;

fn fail(kind: FailureKind, detail: impl Into<String>) -> CaseFailure {
    CaseFailure { kind, detail: detail.into() }
}

impl Oracle for AnalyzerOracle {
    fn run_case(
        &self,
        plan: &CasePlan,
        src: &str,
        expected_ideal: Option<&crate::exact::Rational>,
    ) -> Result<CasePass, CaseFailure> {
        let mut builder =
            Analyzer::builder().signature(plan.instantiation).format(plan.format).mode(plan.mode);
        if let Some(unit) = &plan.rnd_unit {
            builder = builder.rounding_unit(unit.clone());
        }
        let analyzer = builder.build();
        let name = format!("fuzz-case-{}", plan.index);

        let program =
            analyzer.parse_named(&name, src).map_err(|d| fail(FailureKind::Parse, d.render()))?;
        let typed = analyzer.check(&program).map_err(|d| fail(FailureKind::Check, d.render()))?;
        let grade = typed.grade().ok_or_else(|| {
            fail(FailureKind::Check, format!("root type `{}` is not monadic", typed.ty()))
        })?;
        if grade.is_infinite() {
            return Err(fail(
                FailureKind::InfiniteGrade,
                format!("inferred grade is `inf` (type `{}`)", typed.ty()),
            ));
        }

        let report = analyzer
            .validate(&program, &Inputs::none())
            .map_err(|d| fail(FailureKind::Harness, d.render()))?;
        if !report.holds() {
            return Err(fail(
                FailureKind::BoundViolation,
                format!(
                    "grade {} (bound {}) violated: ideal {:?}, fp {:?}, verdict {:?}",
                    report.grade,
                    report.bound.to_sci_string(6),
                    report.ideal,
                    report.fp,
                    report.verdict
                ),
            ));
        }

        // Differential check against the independent reference
        // evaluator (interval-free programs only).
        if let Some(expected) = expected_ideal {
            match report.ideal.as_point() {
                Some(got) if got == expected => {}
                got => {
                    return Err(fail(
                        FailureKind::IdealMismatch,
                        format!(
                            "interpreter ideal result {got:?} disagrees with the reference \
                             evaluator's {expected}"
                        ),
                    ))
                }
            }
        }

        // pretty → re-parse → re-check must reproduce the exact type.
        let pretty = program.pretty(u32::MAX);
        let reparsed = analyzer.parse(&pretty).map_err(|d| {
            fail(
                FailureKind::RoundTrip,
                format!("pretty-printed program failed to re-parse: {}\n---\n{pretty}", d.render()),
            )
        })?;
        let rechecked = analyzer.check(&reparsed).map_err(|d| {
            fail(
                FailureKind::RoundTrip,
                format!("pretty-printed program failed to re-check: {}\n---\n{pretty}", d.render()),
            )
        })?;
        if rechecked.ty().to_string() != typed.ty().to_string() {
            return Err(fail(
                FailureKind::RoundTrip,
                format!(
                    "re-checked type `{}` differs from original `{}`",
                    rechecked.ty(),
                    typed.ty()
                ),
            ));
        }

        // Engines-agree leg (always on, no flag): the independent
        // interval engine must also bound the true error. The engine
        // deliberately ignores the plan's rounding-unit override and the
        // typing judgment — that independence is what gives the check
        // teeth. An abstention (program outside the engine's fragment, a
        // rounding fault, undefined enclosure slop) is a *fact*; a
        // produced bound that the true error escapes is a counterexample.
        let mut interval = IntervalFacts::default();
        if let Ok(ib) = analyzer.bound_interval(&program) {
            if let Ok(oracle_bound) = ib.oracle_bound() {
                interval.checked = true;
                if let Some(fp) = &report.fp {
                    let verdict = crate::interp::metric_for(plan.instantiation).within(
                        &report.ideal,
                        fp,
                        &oracle_bound,
                    );
                    if verdict != crate::metrics::Within::Yes {
                        return Err(fail(
                            FailureKind::IntervalViolation,
                            format!(
                                "interval bound {} (containment bound {}) escaped: ideal {:?}, \
                                 fp {:?}, verdict {verdict:?} (typed bound {})",
                                ib.bound().to_sci_string(6),
                                oracle_bound.to_sci_string(6),
                                report.ideal,
                                fp,
                                report.bound.to_sci_string(6),
                            ),
                        ));
                    }
                }
                // Raw (slop-free) bounds are the comparable numbers; a
                // tie counts for neither engine.
                interval.tighter_typed = &report.bound < ib.bound();
                interval.tighter_interval = ib.bound() < &report.bound;
            }
        }

        // Backward leg (fuzz --backward): static acceptance/rejection
        // are both facts; the lens certifies accepted functions and only
        // an uncertifiable canonical witness is a failure.
        let backward =
            if plan.backward { Some(backward_leg(&analyzer, &program, plan, src)?) } else { None };

        // Incremental leg (fuzz --incremental): an edit sequence through
        // the judgment-memoized path must stay byte-identical to the
        // from-scratch checker, forward and backward.
        let incremental = if plan.incremental { Some(incremental_leg(plan, src)?) } else { None };

        Ok(CasePass {
            ty: typed.ty().to_string(),
            vacuous: report.fp.is_none(),
            interval,
            backward,
            incremental,
        })
    }
}

/// Runs the backward analysis mode over one generated case.
///
/// The generator aims at the *forward* discipline, so Bean's strict
/// linearity routinely rejects whole programs (duplicated uses, unused
/// binders, forward-graded declarations) — those rejections are counted,
/// not failed. For the differential teeth the leg re-lowers the source,
/// strips the declared (forward-graded) function types, replaces the
/// main expression with `()`, and backward-types the definitions alone;
/// every function the judgment accepts is then handed to the
/// backward-stability lens ([`numfuzz_fuzz::validate_backward_fn`]),
/// which must exhibit perturbed inputs within the typed per-input
/// bounds on a deterministic grid.
fn backward_leg(
    analyzer: &Analyzer,
    program: &crate::Program,
    plan: &CasePlan,
    src: &str,
) -> Result<BackwardFacts, CaseFailure> {
    let mut facts = BackwardFacts::default();
    match analyzer.check_backward(program) {
        Ok(_) => facts.accepted = true,
        Err(_) => facts.rejected = true,
    }

    let sig = match plan.instantiation {
        Instantiation::RelativePrecision => Signature::relative_precision(),
        Instantiation::AbsoluteError => Signature::absolute_error(),
    };
    let mut lowered = numfuzz_core::compile(src, &sig)
        .map_err(|e| fail(FailureKind::Harness, format!("backward re-lowering failed: {e}")))?;
    let mut spine: Vec<(VarId, TermId)> = Vec::new();
    let mut cur = lowered.root;
    while let Node::LetFun(v, _, lam, rest) = *lowered.store.node(cur) {
        spine.push((v, lam));
        cur = rest;
    }
    let mut rebuilt = lowered.store.unit();
    for (v, lam) in spine.iter().rev() {
        rebuilt = lowered.store.let_fun_at(*v, None, *lam, rebuilt);
    }
    let result = match numfuzz_core::infer_backward(&lowered.store, &sig, rebuilt, &[]) {
        Ok(result) => result,
        // Some definition is backward-untypeable on its own: a fact.
        Err(_) => return Ok(facts),
    };
    for report in &result.fns {
        let named = |v: &VarId| lowered.store.var_name(*v) == report.name;
        let Some(&(_, lam)) = spine.iter().rev().find(|(v, _)| named(v)) else { continue };
        match validate_backward_fn(
            &lowered.store,
            lam,
            &report.inputs,
            plan.instantiation,
            plan.format,
            plan.mode,
        ) {
            LensOutcome::Validated { points } => {
                facts.validated_fns += 1;
                facts.grid_points += points;
            }
            LensOutcome::Skipped { .. } => facts.skipped_fns += 1,
            LensOutcome::Violation { detail } => {
                return Err(fail(
                    FailureKind::BackwardViolation,
                    format!("function `{}` ({}): {detail}", report.name, plan.describe()),
                ));
            }
        }
    }
    Ok(facts)
}

/// Runs the incremental analysis mode over one generated case: the
/// original program plus a deterministic sequence of single-constant
/// edits, each analyzed in both modes from scratch *and* through a
/// session-persistent judgment cache ([`Analyzer::analyze_incremental`]).
/// Outputs must match byte for byte on every variant — forward reports,
/// backward reports, and diagnostics alike. The edits replay a `numfuzz watch` session:
/// the cache carries over from variant to variant, so later variants
/// exercise genuine cross-edit replay, not just cold insertion.
fn incremental_leg(plan: &CasePlan, src: &str) -> Result<IncrementalFacts, CaseFailure> {
    let mut builder =
        Analyzer::builder().signature(plan.instantiation).format(plan.format).mode(plan.mode);
    if let Some(unit) = &plan.rnd_unit {
        builder = builder.rounding_unit(unit.clone());
    }
    let analyzer = builder.judgment_cache_bytes(8 << 20).build();

    let mut variants = vec![src.to_string()];
    variants.extend(constant_mutations(src, plan.case_seed, 3));
    let mut facts = IncrementalFacts::default();
    for (n, variant) in variants.iter().enumerate() {
        // Constant mutations keep the surface syntax well-formed by
        // construction; a parse failure would be a mutator bug, and
        // parsing happens before any memoization anyway.
        let program = match analyzer.parse_named(&format!("fuzz-edit-{n}"), variant) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let mismatch = |leg: &str, plain: &str, memo: &str| {
            fail(
                FailureKind::IncrementalMismatch,
                format!(
                    "{leg} output diverged on edit {n} ({}):\n--- from scratch ---\n{plain}\n\
                     --- incremental ---\n{memo}\n--- program ---\n{variant}",
                    plan.describe()
                ),
            )
        };

        for mode in [AnalysisMode::Forward, AnalysisMode::Backward] {
            let leg = mode.as_str();
            let plain = analyzer.analyze(&program, mode).map(|a| a.check_text());
            let memo = analyzer.analyze_incremental(&program, mode);
            match (&plain, &memo) {
                (Ok(p), Ok((a, counts))) => {
                    let m = a.check_text();
                    if *p != m {
                        return Err(mismatch(leg, p, &m));
                    }
                    facts.reused += counts.reused;
                    facts.recomputed += counts.recomputed;
                }
                (Err(dp), Err(dm)) => {
                    if dp.render() != dm.render() {
                        return Err(mismatch(leg, &dp.render(), &dm.render()));
                    }
                }
                _ => {
                    let p = match &plain {
                        Ok(s) => s.clone(),
                        Err(d) => d.render(),
                    };
                    return Err(mismatch(leg, &p, "opposite outcome"));
                }
            }
        }
        facts.edits += 1;
    }
    Ok(facts)
}

/// Deterministic single-constant edits of a rendered program: each pick
/// bumps one standalone integer digit run (never a digit inside an
/// identifier), so the variant stays parseable and differs from the
/// original in exactly one `Const` leaf (or one annotation constant).
fn constant_mutations(src: &str, seed: u64, count: usize) -> Vec<String> {
    let runs = literal_runs(src);
    if runs.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let pick = (seed.wrapping_add(i as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 32) as usize
            % runs.len();
        let (start, end) = runs[pick];
        if let Ok(v) = src[start..end].parse::<u64>() {
            out.push(format!("{}{}{}", &src[..start], v + 1, &src[end..]));
        }
    }
    out
}

/// Byte ranges of standalone integer digit runs in `src` (bounded length,
/// not preceded by an identifier character or `.`).
fn literal_runs(src: &str) -> Vec<(usize, usize)> {
    let bytes = src.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let standalone = i == 0 || {
                let p = bytes[i - 1] as char;
                !(p.is_ascii_alphanumeric() || p == '_' || p == '.')
            };
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if standalone && i - start <= 12 {
                runs.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    runs
}

/// Runs a fuzz campaign with the production oracle.
pub fn fuzz_campaign(cfg: &FuzzConfig) -> FuzzOutcome {
    numfuzz_fuzz::run(cfg, &AnalyzerOracle)
}
