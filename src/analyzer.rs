//! The [`Analyzer`] session: one configured analysis context —
//! signature, target format, rounding mode, rounding-unit value — that
//! replaces hand-threading those five values through `compile` → `infer`
//! → `eval` → `decide` → `report_for`.
//!
//! Build one with [`Analyzer::builder`] (or [`Analyzer::new`] for the
//! paper's defaults: relative precision, binary64, round toward +∞),
//! then reuse it across any number of [`Program`]s:
//!
//! * [`Analyzer::analyze`] — one type-checking pass in either mode:
//!   NumFuzz's forward judgment, whose grade on the monadic type *is*
//!   the rounding-error bound (the paper's headline), or Bean's
//!   backward judgment, one bound per input. The [`Analysis`] renders
//!   what `check`, `bound`, `batch`, `watch` and `numfuzz serve` print;
//!   [`Analyzer::check`] and [`Analyzer::check_backward`] are its typed
//!   projections;
//! * [`Analyzer::bound`] — the eq. (8) conversion from an RP grade to
//!   the relative error bound the paper's tables report;
//! * [`Analyzer::run`] — ideal + floating-point execution, with the
//!   rigorous Corollary 4.20 report attached for `M[r]num` programs;
//! * [`Analyzer::validate`] — that report alone, and
//!   [`Analyzer::validate_with_rounding`] — the same check under a
//!   caller's §7 rounding strategy.
//!
//! Caching is session policy: a session built with
//! [`AnalyzerBuilder::cache`] answers [`Analyzer::analyze`] through that
//! shared result cache, and every other session computes from scratch.
//! [`Analyzer::analyze_incremental`] goes through the other cache, the
//! judgment memo of [`AnalyzerBuilder::judgment_cache_bytes`].
//!
//! There is no batch method: `numfuzz batch`, the serve `batch` op,
//! `optimize`, and `fuzz` map their programs over the scoped worker pool
//! ([`numfuzz_core::pool`]) with one session per worker, typically an
//! [`Analyzer::fork_session`] (same configuration and caches, private
//! arena), so workers never contend on an arena lock.

use crate::diag::{Diagnostic, ErrorCode};
use crate::program::Program;
use numfuzz_benchsuite::Kernel;
use numfuzz_bounds::{BoundConfig, IntervalBound};
use numfuzz_core::cache::{
    AnalysisMode, CacheKey, CacheStats, CacheWeight, ConfigFingerprint, ResultCache,
};
use numfuzz_core::{
    cache, infer, infer_backward, infer_backward_memoized, infer_memoized, BackwardFnReport,
    BackwardInferred, BackwardResult, CheckError, CheckResult, CoreArena, FnReport, Grade,
    Inferred, Instantiation, JudgmentCache, JudgmentCounts, Signature, Ty, VarId,
};
use numfuzz_exact::{RatInterval, Rational};
use numfuzz_interp::{
    eval,
    rounding::{CheckedRounding, IdentityRounding},
    Decision, EvalConfig, Rounding, SoundnessReport, Value,
};
use numfuzz_metrics::rp::rp_to_rel_bound;
use numfuzz_softfloat::{Format, RoundingMode};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A configured analysis session: signature, target format, rounding
/// mode, and rounding-unit value, reused across programs.
///
/// The session owns a hash-consing [`CoreArena`]: every program parsed or
/// translated through this analyzer interns its types and grades into the
/// same table, so repeated [`Analyzer::check`]/[`Analyzer::bound`] calls
/// share interned ids and the memoized subtype/`max`/`min` caches.
/// (Cloning an `Analyzer` shares the arena — clones are cheap handles.)
#[derive(Clone, Debug)]
pub struct Analyzer {
    sig: Signature,
    format: Format,
    mode: RoundingMode,
    /// Turns grades into numbers: the rounding symbol at the rounding unit.
    grades: GradeResolver,
    /// Enclosure precision for `sqrt` in the ideal semantics and the
    /// interval engine, derived from the format ([`sqrt_bits_for`]).
    sqrt_bits: u32,
    /// The session's shared type/grade interning arena.
    tys: CoreArena,
    /// Optional content-addressed result cache (see [`AnalysisCache`]).
    cache: Option<AnalysisCache>,
    /// Optional judgment-level memo table (see [`JudgmentMemo`]): the
    /// *subterm*-granular companion of [`AnalysisCache`], consulted by
    /// [`Analyzer::analyze_incremental`].
    judgments: Option<JudgmentMemo>,
    /// Stable fingerprint of everything that can influence a result:
    /// signature, format, mode, rounding unit, sqrt precision — under the
    /// **forward** analysis mode. Computed once at build time; the config
    /// half of every forward cache key.
    config_fp: u64,
    /// The same configuration fingerprinted under the **backward**
    /// analysis mode. Forward and backward results can never replay each
    /// other: the mode is the first byte of the fingerprint
    /// ([`AnalysisMode`]).
    config_fp_backward: u64,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Analyzer {
    /// The paper's defaults: relative precision, binary64, round toward
    /// +∞ (`u = 2^-52`).
    pub fn new() -> Self {
        Analyzer::builder().build()
    }

    /// Starts a builder with the defaults of [`Analyzer::new`].
    pub fn builder() -> AnalyzerBuilder {
        AnalyzerBuilder {
            sig: None,
            instantiation: Instantiation::RelativePrecision,
            format: Format::BINARY64,
            mode: RoundingMode::TowardPositive,
            rnd_unit: None,
            cache: None,
            judgments: None,
        }
    }

    /// The operation signature Σ this session checks against.
    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    /// The session's shared type/grade interning arena. Programs built
    /// into it (e.g. via [`numfuzz_benchsuite::horner_in`]) interchange
    /// interned ids with everything this session parses.
    pub fn arena(&self) -> &CoreArena {
        &self.tys
    }

    /// The floating-point format of [`Analyzer::run`] / [`Analyzer::validate`].
    pub fn format(&self) -> Format {
        self.format
    }

    /// Counters of the session's result cache, when one was configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(AnalysisCache::stats)
    }

    /// Counters of the session's judgment memo table, when one was
    /// configured.
    pub fn judgment_cache_stats(&self) -> Option<CacheStats> {
        self.judgments.as_ref().map(JudgmentMemo::stats)
    }

    /// A new session with this session's exact configuration (and shared
    /// result cache, if any) but a **fresh, private arena**. Workers of a
    /// service use forked sessions so concurrent parsing never contends
    /// on one arena lock, while the content-addressed cache still hits
    /// across all of them.
    pub fn fork_session(&self) -> Analyzer {
        Analyzer { tys: CoreArena::new(), ..self.clone() }
    }

    /// The session's configuration fingerprint under `mode`: a stable
    /// digest of signature, format, rounding mode, rounding unit, and
    /// sqrt precision — the config half of every key this session mints
    /// in either cache, so forward and backward entries live in disjoint
    /// key spaces by construction.
    fn config_fingerprint(&self, mode: AnalysisMode) -> u64 {
        match mode {
            AnalysisMode::Forward => self.config_fp,
            AnalysisMode::Backward => self.config_fp_backward,
        }
    }

    /// The rounding mode of [`Analyzer::run`] / [`Analyzer::validate`].
    pub fn mode(&self) -> RoundingMode {
        self.mode
    }

    /// The numeric value substituted for the rounding-grade symbol
    /// (`eps`, `delta`, ...) when evaluating bounds: the configured
    /// override, or the format/mode unit roundoff.
    pub fn rounding_unit(&self) -> Rational {
        self.grades.unit.clone()
    }

    /// Parses and lowers source against *this session's* signature (use
    /// this instead of [`Program::parse`] for non-default signatures).
    ///
    /// # Errors
    ///
    /// A spanned [`Diagnostic`], as [`Program::parse`].
    pub fn parse(&self, src: &str) -> Result<Program, Diagnostic> {
        Program::parse_sig_in(self.tys.clone(), None, src, &self.sig)
    }

    /// [`Analyzer::parse`] with a file name attached to diagnostics.
    ///
    /// # Errors
    ///
    /// See [`Analyzer::parse`].
    pub fn parse_named(&self, name: &str, src: &str) -> Result<Program, Diagnostic> {
        Program::parse_sig_in(self.tys.clone(), Some(name), src, &self.sig)
    }

    /// [`Program::from_kernel`] into this session's arena: the kernel's
    /// types intern alongside everything else the session has checked.
    ///
    /// # Errors
    ///
    /// See [`Program::from_kernel`].
    pub fn program_from_kernel(&self, kernel: &Kernel) -> Result<Program, Diagnostic> {
        Program::from_kernel_in(self.tys.clone(), kernel)
    }

    /// Analyzes a program under one judgment: NumFuzz's forward
    /// rounding-error inference (the Fig. 10 algorithmic rules) or Bean's
    /// backward-error judgment. The [`Analysis`] renders what the `check`,
    /// `bound`, `batch` and `watch` commands and the serve ops print.
    ///
    /// A session built with an [`AnalysisCache`] ([`AnalyzerBuilder::cache`])
    /// answers through it: a content hit replays the memoized outcome
    /// (with the program's own name re-attached to any diagnostic), and a
    /// miss is analyzed and stored. Results are byte-identical either way,
    /// because a judgment is a pure function of the term content, the
    /// session configuration and the mode. The mode is part of the key
    /// ([`AnalysisMode`]), so a forward entry never replays for a backward
    /// request or vice versa.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    ///
    /// let analyzer = Analyzer::new();
    /// let program = analyzer.parse("function f (x: num) : M[eps]num { rnd x }")?;
    /// let forward = analyzer.analyze(&program, AnalysisMode::Forward)?;
    /// assert_eq!(forward.check_text(), "f : num -o M[eps]num\nprogram : num -o M[eps]num\n");
    /// let backward = analyzer.analyze(&program, AnalysisMode::Backward)?;
    /// assert_eq!(backward.batch_line(&analyzer, "f.nf"), "f.nf: num -o M[eps]num");
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    ///
    /// # Errors
    ///
    /// A spanned [`Diagnostic`] for any program the judgment rejects (see
    /// [`Analyzer::check`] and [`Analyzer::check_backward`] for the
    /// codes), or [`ErrorCode::SignatureMismatch`] when the program was
    /// lowered against a different instantiation's signature.
    pub fn analyze(&self, program: &Program, mode: AnalysisMode) -> Result<Analysis, Diagnostic> {
        let Some(cache) = &self.cache else { return self.judge(program, mode) };
        let key =
            CacheKey { program: program.fingerprint(), config: self.config_fingerprint(mode) };
        let display = program.display_fingerprint();
        if let Some(hit) = cache.get_admissible(&key, display) {
            return localize(hit, program);
        }
        let result = self.judge(program, mode);
        cache.insert(key, CachedResult { result: strip_file(result.clone()), display });
        result
    }

    /// One pass of `mode`'s judgment, bypassing both caches.
    fn judge(&self, program: &Program, mode: AnalysisMode) -> Result<Analysis, Diagnostic> {
        self.ensure_instantiation(program)?;
        let (store, root, free) = (program.store(), program.root(), program.free());
        match mode {
            AnalysisMode::Forward => infer(store, &self.sig, root, free).map(Analysis::forward),
            AnalysisMode::Backward => {
                infer_backward(store, &self.sig, root, free).map(Analysis::backward)
            }
        }
        .map_err(rejected(program))
    }

    /// [`Analyzer::analyze`] through the session's judgment memo table
    /// ([`AnalyzerBuilder::judgment_cache_bytes`]) instead of the result
    /// cache: every *subterm* judgment is keyed on its content fingerprint
    /// and scope chain, so a recheck after an edit replays the untouched
    /// subtrees and recomputes only the spine from the edited node to the
    /// root. The returned [`JudgmentCounts`] say how much was replayed.
    /// Without a memo table every judgment is recomputed (the result
    /// cache is not consulted, so the counts stay truthful). The outcome —
    /// success or diagnostic — is byte-identical to the from-scratch path
    /// (enforced by the edit-sequence fuzzer, `numfuzz fuzz --incremental`).
    /// Forward and backward judgments share the table without aliasing:
    /// the mode is the first byte of the configuration fingerprint each
    /// scope chain is seeded with.
    ///
    /// # Errors
    ///
    /// See [`Analyzer::analyze`].
    pub fn analyze_incremental(
        &self,
        program: &Program,
        mode: AnalysisMode,
    ) -> Result<(Analysis, JudgmentCounts), Diagnostic> {
        let Some(memo) = &self.judgments else {
            let analysis = self.judge(program, mode)?;
            let total = program.store().len() as u64;
            return Ok((analysis, JudgmentCounts { reused: 0, recomputed: total, total }));
        };
        self.ensure_instantiation(program)?;
        let (store, root, free) = (program.store(), program.root(), program.free());
        let (cache, config) = (&mut *memo.lock(), self.config_fingerprint(mode));
        match mode {
            AnalysisMode::Forward => infer_memoized(store, &self.sig, root, free, cache, config)
                .map(|(result, counts)| (Analysis::forward(result), counts)),
            AnalysisMode::Backward => {
                infer_backward_memoized(store, &self.sig, root, free, cache, config)
                    .map(|(result, counts)| (Analysis::backward(result), counts))
            }
        }
        .map_err(rejected(program))
    }

    /// Type-checks a program: one pass of the Fig. 10 algorithmic rules,
    /// the forward projection of [`Analyzer::analyze`] (through the
    /// session's result cache, when it has one). The resulting [`Typed`]
    /// carries the root judgment and one report per `function`
    /// definition.
    ///
    /// # Errors
    ///
    /// A spanned [`Diagnostic`] for any ill-typed program, or
    /// [`ErrorCode::SignatureMismatch`] when the program was lowered
    /// against a different instantiation's signature (operation names
    /// differ between instantiations, so cross-checking would only
    /// produce misleading unknown-operation errors).
    pub fn check(&self, program: &Program) -> Result<Typed, Diagnostic> {
        self.analyze(program, AnalysisMode::Forward).map(Analysis::into_forward)
    }

    /// Rejects programs lowered against another instantiation's
    /// signature with a clear diagnostic (cross-checking would only
    /// produce misleading unknown-operation errors).
    fn ensure_instantiation(&self, program: &Program) -> Result<(), Diagnostic> {
        if program.instantiation() == self.sig.instantiation() {
            return Ok(());
        }
        let mut d = Diagnostic::new(
            ErrorCode::SignatureMismatch,
            format!(
                "program was lowered for the {:?} instantiation, but this analyzer is configured for {:?}",
                program.instantiation(),
                self.sig.instantiation()
            ),
        )
        .with_note(
            "re-parse the source with `Analyzer::parse` so operation names resolve against this session's signature",
        );
        if let Some(name) = program.name() {
            d = d.with_file(name);
        }
        Err(d)
    }

    /// The eq. (8) error bound of a checked program's *root* type, with
    /// the rounding symbol at [`Analyzer::rounding_unit`].
    ///
    /// ```
    /// use numfuzz::prelude::*;
    ///
    /// let analyzer = Analyzer::new(); // binary64, round toward +∞
    /// let typed = analyzer.check(&analyzer.parse("rnd 1.5")?)?;
    /// let bound = analyzer.bound(&typed)?;
    /// assert_eq!(bound.grade.to_string(), "eps");
    /// assert_eq!(bound.relative.unwrap().to_sci_string(3), "2.22e-16");
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NotMonadicNum`] when the type carries no bound, or
    /// [`ErrorCode::UnresolvedGrade`] when the grade mentions a symbol
    /// other than the signature's rounding symbol, or is infinite.
    pub fn bound(&self, typed: &Typed) -> Result<ErrorBound, Diagnostic> {
        self.grades.bound(typed.ty())?.ok_or_else(|| no_bound(typed.ty()))
    }

    /// The eq. (8) bound read off an arbitrary type, walking through
    /// curried `⊸` codomains to the monadic result (so a `function`
    /// type yields the bound of calling it). `None` when the type has no
    /// monadic codomain or the grade does not resolve numerically.
    pub fn bound_of_ty(&self, ty: &Ty) -> Option<ErrorBound> {
        self.grades.bound(ty).ok().flatten()
    }

    /// The interval-engine configuration mirroring this session's
    /// machine model (instantiation, format, mode, `sqrt` precision).
    fn interval_config(&self) -> BoundConfig {
        BoundConfig {
            instantiation: self.sig.instantiation(),
            format: self.format,
            mode: self.mode,
            sqrt_bits: self.sqrt_bits,
        }
    }

    fn interval_diag(program: &Program, e: numfuzz_bounds::BoundError) -> Diagnostic {
        let d = Diagnostic::new(ErrorCode::EvalFailed, e.to_string());
        match program.name() {
            Some(name) => d.with_file(name),
            None => d,
        }
    }

    /// Bounds a closed program's roundoff error with the **independent
    /// interval/Taylor engine** (`numfuzz-bounds`) — no part of the
    /// graded typing judgment is consulted, which is what makes the
    /// result a meaningful cross-check of [`Analyzer::bound`] (the
    /// engines-agree oracle of `numfuzz fuzz`, and the second column of
    /// the `numfuzz table1` comparison).
    ///
    /// ```
    /// use numfuzz::prelude::*;
    ///
    /// let analyzer = Analyzer::new(); // binary64, round toward +∞
    /// let program = analyzer.parse("rnd 1.5")?;
    /// let b = analyzer.bound_interval(&program)?;
    /// // One rounding step: exactly one unit roundoff, same as the
    /// // typed grade `eps`.
    /// assert_eq!(b.bound(), &Format::BINARY64.unit_roundoff(RoundingMode::TowardPositive));
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ErrorCode::EvalFailed`] when the program is outside the
    /// engine's fragment (non-robust branch, sign-indefinite RP sum,
    /// rounding fault, open term).
    pub fn bound_interval(&self, program: &Program) -> Result<IntervalBound, Diagnostic> {
        numfuzz_bounds::analyze(program.store(), program.root(), &self.interval_config())
            .map_err(|e| Self::interval_diag(program, e))
    }

    /// Range-parameterized interval bound of a named top-level
    /// `function`: applies it to one input enclosure per curried `num`
    /// parameter and bounds the roundoff over the whole box — how the
    /// Table 1 comparison runs each benchmark over `[0.1, 1000]`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::EvalFailed`] as for [`Analyzer::bound_interval`],
    /// or when no top-level function named `fname` exists.
    pub fn bound_interval_fn(
        &self,
        program: &Program,
        fname: &str,
        ranges: &[RatInterval],
    ) -> Result<IntervalBound, Diagnostic> {
        numfuzz_bounds::analyze_fn(
            program.store(),
            program.root(),
            &self.interval_config(),
            fname,
            ranges,
        )
        .map_err(|e| Self::interval_diag(program, e))
    }

    /// Type-checks a program under the **backward-error** judgment (the
    /// Bean discipline), the backward projection of [`Analyzer::analyze`]:
    /// every linear variable must be consumed exactly once, and the result
    /// reports one backward-error grade *per input* instead of one forward
    /// grade on the output. A grade `r` on input `x` means the computed
    /// result is the *exact* ideal result of some perturbed input `x̃`
    /// within distance `r` of `x`.
    ///
    /// ```
    /// use numfuzz::prelude::*;
    ///
    /// let analyzer = Analyzer::new();
    /// let program = analyzer.parse(
    ///     "function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }",
    /// )?;
    /// let typed = analyzer.check_backward(&program)?;
    /// let f = typed.function("mulfp").unwrap();
    /// assert_eq!(f.inputs[0].0, "xy");
    /// assert_eq!(f.inputs[0].1.to_string(), "eps");
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    ///
    /// # Errors
    ///
    /// A spanned [`Diagnostic`]: the shape errors of [`Analyzer::check`],
    /// plus the backward-only `E05xx` family — [`ErrorCode::UnusedLinear`],
    /// [`ErrorCode::DuplicatedUse`], [`ErrorCode::BackwardIncompatible`],
    /// [`ErrorCode::NoCarrier`], [`ErrorCode::BranchSupport`].
    pub fn check_backward(&self, program: &Program) -> Result<BackwardTyped, Diagnostic> {
        self.analyze(program, AnalysisMode::Backward).map(Analysis::into_backward)
    }

    /// Numeric per-input backward-error bounds of a backward-checked
    /// program, with the rounding symbol at [`Analyzer::rounding_unit`]:
    /// the backward analogue of [`Analyzer::bound`]. Infinite grades stay
    /// symbolic (`alpha: None`) — they mean "no finite backward bound for
    /// this input", not an error.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnresolvedGrade`] when a finite input grade mentions
    /// symbols other than the rounding symbol.
    pub fn bound_backward(&self, typed: &BackwardTyped) -> Result<BackwardBound, Diagnostic> {
        let root = self.backward_input_bounds(typed.inputs())?;
        let fns = typed
            .functions()
            .iter()
            .map(|f| {
                let inputs = self.backward_input_bounds(&f.inputs)?;
                Ok(FnBackwardBound { name: f.name.clone(), inputs })
            })
            .collect::<Result<Vec<_>, Diagnostic>>()?;
        Ok(BackwardBound { root, fns, instantiation: self.sig.instantiation() })
    }

    fn backward_input_bounds(
        &self,
        inputs: &[(String, Grade)],
    ) -> Result<Vec<InputBackwardBound>, Diagnostic> {
        inputs
            .iter()
            .map(|(name, grade)| {
                let alpha =
                    if grade.is_infinite() { None } else { Some(self.grades.alpha(grade)?) };
                Ok(InputBackwardBound {
                    name: name.clone(),
                    grade: grade.clone(),
                    relative: alpha.as_ref().and_then(|a| self.grades.relative(a)),
                    alpha,
                })
            })
            .collect()
    }

    /// Runs both semantics: the ideal one (`rnd` = identity) and the
    /// floating-point one in this session's format/mode (§7.1 faulting
    /// semantics). When the program's type is `M[r]num`, the execution
    /// also carries the rigorous [`SoundnessReport`] of
    /// [`Analyzer::validate`].
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] for type errors, unbound/missing inputs, an
    /// `M[r]num` grade with unassigned symbols, or evaluation failures.
    pub fn run(&self, program: &Program, inputs: &Inputs) -> Result<Execution, Diagnostic> {
        self.execute(program, inputs, &mut self.session_rounding())
    }

    /// The rigorous error-soundness check (Corollary 4.20): type-check,
    /// run both semantics, and decide `d(⟦e⟧_id, ⟦e⟧_fp) ≤ r` exactly,
    /// with the rounding symbol at [`Analyzer::rounding_unit`]. The
    /// report [`Analyzer::run`] attaches.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] as for [`Analyzer::run`], or
    /// [`ErrorCode::NotMonadicNum`] when the program is not `M[r]num`
    /// (an unapplied function included, though [`Analyzer::bound`] gives
    /// its type a bound).
    pub fn validate(
        &self,
        program: &Program,
        inputs: &Inputs,
    ) -> Result<SoundnessReport, Diagnostic> {
        let exec = self.run(program, inputs)?;
        exec.report.ok_or_else(|| not_validatable(&exec.ty))
    }

    /// [`Analyzer::validate`] under a caller-supplied rounding strategy
    /// (the §7 extensions: mode-per-step choice, state-dependent,
    /// stochastic, ...).
    ///
    /// # Errors
    ///
    /// See [`Analyzer::validate`].
    pub fn validate_with_rounding(
        &self,
        program: &Program,
        inputs: &Inputs,
        fp_rounding: &mut dyn Rounding,
    ) -> Result<SoundnessReport, Diagnostic> {
        let exec = self.execute(program, inputs, fp_rounding)?;
        exec.report.ok_or_else(|| not_validatable(&exec.ty))
    }

    /// The one Cor. 4.20 body behind [`Analyzer::run`] and the
    /// `validate*` projections: [`Analyzer::run_ideal`], then
    /// [`Analyzer::decide`] under `fp_rounding`, then the report's
    /// display-only figures ([`Decision::report`]) when the type is
    /// `M[r]num`.
    fn execute(
        &self,
        program: &Program,
        inputs: &Inputs,
        fp_rounding: &mut dyn Rounding,
    ) -> Result<Execution, Diagnostic> {
        let run = self.run_ideal(program, inputs)?;
        let (fp, decision) = self.decide(program, &run, fp_rounding)?;
        let IdealRun { ty, graded, ideal, .. } = run;
        let format = fp_rounding.target_format();
        let report = graded.zip(decision).map(|((grade, bound), decision)| {
            decision.report(self.sig.instantiation(), grade, bound, format)
        });
        Ok(Execution { ty, ideal, fp, report, format: self.format, mode: self.mode })
    }

    /// The ideal half of [`Analyzer::execute`], and its first step: checks
    /// through the session (once), binds the inputs to the program's
    /// declared free variables, resolves an `M[r]num` grade, and runs the
    /// ideal semantics (`rnd` = identity) alone. The optimizer's
    /// exact-oracle legs read nothing else, so they skip the
    /// floating-point run and the report.
    pub(crate) fn run_ideal(
        &self,
        program: &Program,
        inputs: &Inputs,
    ) -> Result<IdealRun, Diagnostic> {
        let typed = self.check(program)?;
        let inputs = inputs.resolve(program)?;
        let graded = match typed.ty() {
            Ty::Monad(grade, inner) if **inner == Ty::Num => {
                Some((grade.clone(), self.grades.alpha(grade)?))
            }
            _ => None,
        };
        let ideal = self.evaluate(program, &inputs, &mut IdentityRounding)?;
        Ok(IdealRun { ty: typed.ty().clone(), inputs, graded, ideal })
    }

    /// The second step of [`Analyzer::execute`]: runs `fp_rounding` over
    /// `run`'s inputs and, when the type is `M[r]num`, makes the rigorous
    /// Cor. 4.20 decision ([`numfuzz_interp::decide`]) against its bound.
    /// It computes none of the report's display-only figures, so the
    /// optimizer's end-to-end leg calls it directly, under
    /// [`Analyzer::session_rounding`].
    pub(crate) fn decide(
        &self,
        program: &Program,
        run: &IdealRun,
        fp_rounding: &mut dyn Rounding,
    ) -> Result<(Value, Option<Decision>), Diagnostic> {
        let fp = self.evaluate(program, &run.inputs, fp_rounding)?;
        let decision = run
            .graded
            .as_ref()
            .map(|(_, bound)| {
                numfuzz_interp::decide(self.sig.instantiation(), bound, &run.ideal, &fp)
                    .map_err(|e| Diagnostic::from_eval(&e))
            })
            .transpose()?;
        Ok((fp, decision))
    }

    /// The session's floating-point semantics, the one [`Analyzer::run`]
    /// uses: its format and mode, faulting to `err` on overflow and
    /// underflow (§7.1).
    pub(crate) fn session_rounding(&self) -> CheckedRounding {
        CheckedRounding { format: self.format, mode: self.mode }
    }

    /// One run of `program` under `rounding`, with `inputs` bound.
    fn evaluate(
        &self,
        program: &Program,
        inputs: &[(VarId, Value)],
        rounding: &mut dyn Rounding,
    ) -> Result<Value, Diagnostic> {
        let config =
            EvalConfig { instantiation: self.sig.instantiation(), sqrt_bits: self.sqrt_bits };
        eval(program.store(), program.root(), rounding, config, inputs)
            .map_err(|e| Diagnostic::from_eval(&e))
    }

    /// Runs the sound rewrite + precision optimizer over `program`; see
    /// [`crate::optimize`].
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the program falls outside the
    /// optimizable fragment (first-order add/mul/div/sqrt with a
    /// constant-argument trailing application) or when the session is
    /// not the relative-precision instantiation.
    pub fn optimize(
        &self,
        program: &Program,
        cfg: &crate::optimize::OptimizeConfig,
    ) -> Result<crate::optimize::OptimizeOutcome, Diagnostic> {
        crate::optimize::optimize(self, program, cfg)
    }
}

/// Builder for [`Analyzer`]; see [`Analyzer::builder`].
#[derive(Clone, Debug)]
pub struct AnalyzerBuilder {
    sig: Option<Signature>,
    instantiation: Instantiation,
    format: Format,
    mode: RoundingMode,
    rnd_unit: Option<Rational>,
    cache: Option<AnalysisCache>,
    judgments: Option<JudgmentMemo>,
}

impl AnalyzerBuilder {
    /// Selects one of the paper's Section 5 instantiations.
    pub fn signature(mut self, instantiation: Instantiation) -> Self {
        self.instantiation = instantiation;
        self.sig = None;
        self
    }

    /// Supplies a custom signature (overrides [`AnalyzerBuilder::signature`]).
    pub fn custom_signature(mut self, sig: Signature) -> Self {
        self.sig = Some(sig);
        self
    }

    /// Target floating-point format (default binary64).
    pub fn format(mut self, format: Format) -> Self {
        self.format = format;
        self
    }

    /// Rounding mode (default round toward +∞, the paper's convention).
    pub fn mode(mut self, mode: RoundingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the value substituted for the rounding-grade symbol
    /// (default: the format/mode unit roundoff). The absolute-error
    /// instantiation needs this: its `delta` is `u·M` for a range bound
    /// `M`, not the bare unit roundoff.
    pub fn rounding_unit(mut self, unit: Rational) -> Self {
        self.rnd_unit = Some(unit);
        self
    }

    /// Attaches a (possibly shared) content-addressed result cache:
    /// [`Analyzer::analyze`] (and so [`Analyzer::check`] and
    /// [`Analyzer::check_backward`]) replays and stores its outcomes
    /// through it. The handle is cheap to clone — share one cache across
    /// the sessions of a service so content hits regardless of which
    /// session computed the result.
    pub fn cache(mut self, cache: AnalysisCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a fresh judgment-level memo table of the given byte
    /// budget: [`Analyzer::analyze_incremental`] keys every subterm
    /// judgment on content and scope, so rechecks after edits replay the
    /// untouched subtrees. Every [`Analyzer::fork_session`] of the built
    /// session shares the table, so judgments computed by any worker
    /// replay for all of them.
    pub fn judgment_cache_bytes(mut self, budget_bytes: usize) -> Self {
        self.judgments = Some(JudgmentMemo::with_budget(budget_bytes));
        self
    }

    /// Finishes the session.
    pub fn build(self) -> Analyzer {
        let sig = self.sig.unwrap_or_else(|| match self.instantiation {
            Instantiation::RelativePrecision => Signature::relative_precision(),
            Instantiation::AbsoluteError => Signature::absolute_error(),
        });
        let sqrt_bits = sqrt_bits_for(self.format);
        let unit = self.rnd_unit.unwrap_or_else(|| self.format.unit_roundoff(self.mode));
        let fingerprint =
            |analysis| config_fingerprint(analysis, &sig, self.format, self.mode, &unit, sqrt_bits);
        let (config_fp, config_fp_backward) =
            (fingerprint(AnalysisMode::Forward), fingerprint(AnalysisMode::Backward));
        let grades = GradeResolver::new(&sig, unit);
        Analyzer {
            sig,
            format: self.format,
            mode: self.mode,
            grades,
            sqrt_bits,
            tys: CoreArena::new(),
            cache: self.cache,
            judgments: self.judgments,
            config_fp,
            config_fp_backward,
        }
    }
}

/// The `sqrt` enclosure precision (bits) for programs rounding into
/// `format`: `max(192, 2p + 64)`. That is 192 for every format up to
/// p = 64, and for wider formats it keeps the enclosure far narrower than
/// the unit roundoff, so the rigorous verdict can still separate the
/// ideal result from the rounded one.
fn sqrt_bits_for(format: Format) -> u32 {
    format.precision().saturating_mul(2).saturating_add(64).max(192)
}

/// The configuration half of a cache key: a stable hash of everything
/// about a session that can influence a check/bound outcome. The analysis
/// mode is absorbed first ([`ConfigFingerprint`]), so forward and backward
/// results for an otherwise identical configuration can never replay each
/// other.
fn config_fingerprint(
    analysis: AnalysisMode,
    sig: &Signature,
    format: Format,
    mode: RoundingMode,
    unit: &Rational,
    sqrt_bits: u32,
) -> u64 {
    let mut h = ConfigFingerprint::new(analysis);
    h.write_u8(match sig.instantiation() {
        Instantiation::RelativePrecision => 0,
        Instantiation::AbsoluteError => 1,
    });
    h.write_str(&sig.rnd_grade().to_string());
    h.write_u64(sig.ops().len() as u64);
    for op in sig.ops() {
        h.write_str(&op.name);
        h.write_u128(cache::hash_ty_tree(&op.arg));
        h.write_u128(cache::hash_ty_tree(&op.ret));
    }
    h.write_u32(format.precision());
    h.write_u64(format.emax() as u64);
    h.write_str(mode.name());
    // The *effective* rounding unit, so an explicit override equal to the
    // format default keys identically to the default.
    h.write_str(&unit.to_string());
    h.write_u32(sqrt_bits);
    h.finish()
}

/// Turns grades into numbers for a session: the signature's rounding
/// symbol (`eps`, `delta`, ...) at the session's rounding unit, both fixed
/// when the session is built. Every eq. (8) bound, forward or backward,
/// and every Cor. 4.20 report resolves its grade here.
#[derive(Clone, Debug)]
struct GradeResolver {
    symbol: String,
    unit: Rational,
    instantiation: Instantiation,
}

impl GradeResolver {
    fn new(sig: &Signature, unit: Rational) -> Self {
        let symbol = match sig.rnd_grade() {
            Grade::Finite(e) if e.terms().len() == 1 => e.terms()[0].0.to_string(),
            _ => "eps".to_string(),
        };
        GradeResolver { symbol, unit, instantiation: sig.instantiation() }
    }

    /// `grade` with the rounding symbol at the rounding unit.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnresolvedGrade`] when the grade mentions any other
    /// symbol, or is infinite.
    fn alpha(&self, grade: &Grade) -> Result<Rational, Diagnostic> {
        grade.eval(&|s| (s == self.symbol).then(|| self.unit.clone())).ok_or_else(|| {
            let (message, note) = if grade.is_infinite() {
                (
                    format!("grade `{grade}` is infinite, so it has no numeric value"),
                    "an infinite grade promises no finite rounding-error bound".to_string(),
                )
            } else {
                (
                    format!("grade `{grade}` has symbols without assigned values"),
                    format!(
                        "only the rounding symbol `{}` has a value, the session's rounding unit",
                        self.symbol
                    ),
                )
            };
            Diagnostic::new(ErrorCode::UnresolvedGrade, message).with_note(note)
        })
    }

    /// The eq. (8) error bound for a resolved grade: `e^α - 1` rounded up
    /// for the RP instantiation, `α` itself for the absolute one.
    fn relative(&self, alpha: &Rational) -> Option<Rational> {
        match self.instantiation {
            Instantiation::RelativePrecision => rp_to_rel_bound(alpha),
            Instantiation::AbsoluteError => Some(alpha.clone()),
        }
    }

    /// The eq. (8) bound of `ty`, read through curried `⊸` codomains to
    /// the monadic result; `None` when there is no monadic result.
    ///
    /// # Errors
    ///
    /// See [`GradeResolver::alpha`].
    fn bound(&self, ty: &Ty) -> Result<Option<ErrorBound>, Diagnostic> {
        let mut t = ty;
        while let Ty::Lolli(_, cod) = t {
            t = cod;
        }
        let Ty::Monad(grade, _) = t else { return Ok(None) };
        let alpha = self.alpha(grade)?;
        Ok(Some(ErrorBound {
            grade: grade.clone(),
            relative: self.relative(&alpha),
            alpha,
            instantiation: self.instantiation,
        }))
    }
}

/// The diagnostic for a type that carries no rounding-error bound.
fn no_bound(ty: &Ty) -> Diagnostic {
    Diagnostic::new(
        ErrorCode::NotMonadicNum,
        format!("type `{ty}` carries no rounding-error bound"),
    )
    .with_note("only `M[r]...` types (possibly under ⊸) have eq. (8) bounds")
}

/// The diagnostic for a Cor. 4.20 check of a program that is not a closed
/// `M[r]num` term. The corollary compares the ideal and floating-point
/// numbers such a program computes, so a function, even one whose type
/// has an eq. (8) bound, must first be applied.
fn not_validatable(ty: &Ty) -> Diagnostic {
    let d = Diagnostic::new(
        ErrorCode::NotMonadicNum,
        format!("type `{ty}` has no Cor. 4.20 check: it needs a closed `M[r]num` program"),
    );
    match ty {
        Ty::Lolli(..) => d.with_note("apply the function to its arguments to validate it"),
        _ => d,
    }
}

/// One memoized analysis outcome (the value type of [`AnalysisCache`]),
/// tagged with the [`Program::display_fingerprint`] of the program that
/// produced it. Cached diagnostics are stored with the `file` field
/// stripped: the file name is presentation, not content, and is
/// re-attached per program on retrieval so identical programs under
/// different names share an entry yet still render their own paths.
/// Everything *else* about a diagnostic (message, span, snippet) quotes
/// binder spellings and source lines, so an `Err` outcome is only
/// admissible for a program whose display fingerprint matches; `Ok`
/// outcomes depend on the structural fingerprint alone.
#[derive(Clone, Debug)]
struct CachedResult {
    result: Result<Analysis, Diagnostic>,
    display: u128,
}

/// Rough heap footprint of a [`Ty`] tree (per-node costs, not exact).
fn ty_weight(ty: &Ty) -> usize {
    match ty {
        Ty::Unit | Ty::Num => 8,
        Ty::Tensor(a, b) | Ty::With(a, b) | Ty::Sum(a, b) | Ty::Lolli(a, b) => {
            16 + ty_weight(a) + ty_weight(b)
        }
        Ty::Bang(_, t) | Ty::Monad(_, t) => 48 + ty_weight(t),
    }
}

fn diag_weight(d: &Diagnostic) -> usize {
    64 + d.message.len()
        + d.file.as_deref().map_or(0, str::len)
        + d.snippet.as_deref().map_or(0, str::len)
        + d.notes.iter().map(String::len).sum::<usize>()
}

impl CacheWeight for CachedResult {
    fn weight(&self) -> usize {
        match &self.result {
            Ok(Analysis::Forward(typed)) => {
                64 + ty_weight(typed.ty())
                    + typed
                        .functions()
                        .iter()
                        .map(|f| {
                            48 + f.name.len() + ty_weight(&f.inferred) + ty_weight(&f.assigned)
                        })
                        .sum::<usize>()
            }
            Ok(Analysis::Backward(typed)) => {
                64 + ty_weight(typed.ty())
                    + backward_inputs_weight(typed.inputs())
                    + typed
                        .functions()
                        .iter()
                        .map(|f| {
                            48 + f.name.len()
                                + ty_weight(&f.assigned)
                                + backward_inputs_weight(&f.inputs)
                        })
                        .sum::<usize>()
            }
            Err(d) => diag_weight(d),
        }
    }
}

/// Rough heap footprint of a per-input grade list.
fn backward_inputs_weight(inputs: &[(String, Grade)]) -> usize {
    inputs.iter().map(|(n, g)| 48 + n.len() + g.to_string().len()).sum()
}

/// A shareable, thread-safe, content-addressed cache of analysis results,
/// built on [`ResultCache`] (byte-budgeted LRU with hit/miss accounting).
///
/// Keys are *content* addresses: [`Program::fingerprint`] (structural term
/// hash — names don't matter, internal interned ids don't matter) plus the
/// session's configuration fingerprint. Caching is sound because every
/// cached outcome is a pure function of exactly those two inputs: Fig. 10
/// inference reads nothing but the term, the signature, and the lattice
/// (see `docs/paper-map.md`). Cloning the handle shares the underlying
/// table — give one handle to many [`Analyzer`] sessions (even across
/// threads) and content computed by any of them hits for all.
///
/// ```
/// use numfuzz::prelude::*;
///
/// let cache = AnalysisCache::with_budget(16 << 20);
/// let analyzer = Analyzer::builder().cache(cache.clone()).build();
/// let program = analyzer.parse("rnd 1.5")?;
/// analyzer.check(&program)?; // miss: computed and stored
/// analyzer.check(&program)?; // hit: replayed
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// # Ok::<(), numfuzz::Diagnostic>(())
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisCache {
    inner: Arc<Mutex<ResultCache<CachedResult>>>,
}

impl AnalysisCache {
    /// A fresh cache bounded by ~`budget_bytes` of resident results.
    pub fn with_budget(budget_bytes: usize) -> Self {
        AnalysisCache { inner: Arc::new(Mutex::new(ResultCache::new(budget_bytes))) }
    }

    /// Current counters (hits, misses, residency, evictions).
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ResultCache<CachedResult>> {
        // Cache operations never panic mid-mutation; a poisoned lock still
        // guards a consistent table.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetches the outcome stored under `key` if it may be replayed for a
    /// program with the given display fingerprint: any `Ok`, or an `Err`
    /// rendered from the same display. An inadmissible resident entry
    /// counts as a miss.
    fn get_admissible(
        &self,
        key: &CacheKey,
        display: u128,
    ) -> Option<Result<Analysis, Diagnostic>> {
        let hit = self.lock().get_if(key, |v| v.result.is_ok() || v.display == display);
        hit.map(|v| v.result)
    }

    fn insert(&self, key: CacheKey, value: CachedResult) {
        self.lock().insert(key, value)
    }
}

/// A shareable, thread-safe judgment-level memo table: the handle an
/// [`Analyzer`] session (and every [`Analyzer::fork_session`] of it)
/// consults from [`Analyzer::analyze_incremental`]. Sessions get one from
/// [`AnalyzerBuilder::judgment_cache_bytes`].
///
/// Where [`AnalysisCache`] memoizes whole-program outcomes, this table
/// memoizes one entry per *subterm* judgment, keyed on the subterm's
/// content fingerprint and its scope-chain fingerprint (see
/// [`numfuzz_core::JudgmentCache`]). After an edit, the spine from the
/// edited node to the root misses and everything else replays:
///
/// ```
/// use numfuzz::prelude::*;
///
/// let analyzer = Analyzer::builder().judgment_cache_bytes(16 << 20).build();
/// let v1 = analyzer.parse("s = mul (2, 3); rnd s")?;
/// let (_, cold) = analyzer.analyze_incremental(&v1, AnalysisMode::Forward)?;
/// assert_eq!(cold.reused, 0);
/// let v2 = analyzer.parse("s = mul (2, 4); rnd s")?; // one leaf edited
/// let (_, warm) = analyzer.analyze_incremental(&v2, AnalysisMode::Forward)?;
/// assert!(warm.reused > 0);
/// # Ok::<(), numfuzz::Diagnostic>(())
/// ```
#[derive(Clone, Debug)]
pub(crate) struct JudgmentMemo {
    inner: Arc<Mutex<JudgmentCache>>,
}

impl JudgmentMemo {
    /// A fresh table bounded by ~`budget_bytes` of resident judgments.
    fn with_budget(budget_bytes: usize) -> Self {
        JudgmentMemo { inner: Arc::new(Mutex::new(JudgmentCache::new(budget_bytes))) }
    }

    /// Current counters (hits, misses, residency, evictions) across every
    /// session sharing this handle.
    fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JudgmentCache> {
        // Judgment-cache operations never panic mid-mutation; a poisoned
        // lock still guards a consistent table.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The spanned diagnostic for either judgment's rejection of `program`.
fn rejected(program: &Program) -> impl Fn(CheckError) -> Diagnostic + '_ {
    |e| Diagnostic::from_check(&e, program.source(), program.name())
}

/// Re-attaches the presentation-only `file` field for `program` to a
/// result replayed from the cache.
fn localize<T>(result: Result<T, Diagnostic>, program: &Program) -> Result<T, Diagnostic> {
    result.map_err(|mut d| {
        d.file = program.name().map(String::from);
        d
    })
}

/// Strips the presentation-only `file` field before a result is stored.
fn strip_file<T>(result: Result<T, Diagnostic>) -> Result<T, Diagnostic> {
    result.map_err(|mut d| {
        d.file = None;
        d
    })
}

/// A successfully checked program: the root judgment plus per-`function`
/// reports, produced by [`Analyzer::check`].
#[derive(Clone, Debug)]
pub struct Typed {
    root: Inferred,
    fns: Vec<FnReport>,
}

impl Typed {
    /// The root term's inferred type.
    pub fn ty(&self) -> &Ty {
        &self.root.ty
    }

    /// The root judgment (environment and type).
    pub fn root(&self) -> &Inferred {
        &self.root
    }

    /// The monadic grade of the root type, when it has one.
    pub fn grade(&self) -> Option<&Grade> {
        match &self.root.ty {
            Ty::Monad(g, _) => Some(g),
            _ => None,
        }
    }

    /// One report per `function` definition, in source order.
    pub fn functions(&self) -> &[FnReport] {
        &self.fns
    }

    /// Looks up a function report by name (last definition wins).
    pub fn function(&self, name: &str) -> Option<&FnReport> {
        self.fns.iter().rev().find(|f| f.name == name)
    }
}

/// A successfully **backward**-checked program: the root judgment's
/// per-input backward-error grades plus per-`function` reports, produced
/// by [`Analyzer::check_backward`]. The backward analogue of [`Typed`].
#[derive(Clone, Debug)]
pub struct BackwardTyped {
    root: BackwardInferred,
    fns: Vec<BackwardFnReport>,
}

impl BackwardTyped {
    /// The root term's type (same shapes as forward inference).
    pub fn ty(&self) -> &Ty {
        &self.root.ty
    }

    /// The root judgment (per-input grades and type).
    pub fn root(&self) -> &BackwardInferred {
        &self.root
    }

    /// Per-input backward-error grades of the root term, in binding
    /// order: the computed result is the exact ideal result of inputs
    /// perturbed within these distances.
    pub fn inputs(&self) -> &[(String, Grade)] {
        &self.root.inputs
    }

    /// One report per `function` definition, in source order.
    pub fn functions(&self) -> &[BackwardFnReport] {
        &self.fns
    }

    /// Looks up a function report by name (last definition wins).
    pub fn function(&self, name: &str) -> Option<&BackwardFnReport> {
        self.fns.iter().rev().find(|f| f.name == name)
    }
}

/// A program analyzed by [`Analyzer::analyze`] under one judgment. It
/// renders the text every surface prints for the program — the `check`
/// report (also the serve `edit` output), the `bound` report and the
/// `batch` line — so the CLI, `numfuzz watch` and `numfuzz serve` print
/// the same bytes in either mode.
#[derive(Clone, Debug)]
pub enum Analysis {
    /// NumFuzz's forward judgment: one rounding-error grade on the output.
    Forward(Typed),
    /// Bean's backward judgment: one backward-error grade per input.
    Backward(BackwardTyped),
}

impl Analysis {
    fn forward(result: CheckResult) -> Analysis {
        Analysis::Forward(Typed { root: result.root, fns: result.fns })
    }

    fn backward(result: BackwardResult) -> Analysis {
        Analysis::Backward(BackwardTyped { root: result.root, fns: result.fns })
    }

    fn into_forward(self) -> Typed {
        match self {
            Analysis::Forward(typed) => typed,
            Analysis::Backward(_) => unreachable!("the forward judgment yields a forward analysis"),
        }
    }

    fn into_backward(self) -> BackwardTyped {
        match self {
            Analysis::Backward(typed) => typed,
            Analysis::Forward(_) => {
                unreachable!("the backward judgment yields a backward analysis")
            }
        }
    }

    /// What `numfuzz check` prints: one line per `function`, then the
    /// program's type. Backward lines end with the per-input grades,
    /// e.g. ` [x <= eps, y <= 2*eps]`. Trailing newline included.
    pub fn check_text(&self) -> String {
        let mut out = String::new();
        match self {
            Analysis::Forward(typed) => {
                for f in typed.functions() {
                    out.push_str(&format!("{} : {}\n", f.name, f.inferred));
                }
                out.push_str(&format!("program : {}\n", typed.ty()));
            }
            Analysis::Backward(typed) => {
                for f in typed.functions() {
                    let grades = grades_suffix(&f.inputs);
                    out.push_str(&format!("{} : {}{grades}\n", f.name, f.assigned));
                }
                out.push_str(&format!(
                    "program : {}{}\n",
                    typed.ty(),
                    grades_suffix(typed.inputs())
                ));
            }
        }
        out
    }

    /// What `numfuzz bound` prints: the eq. (8) bound of every function
    /// and of the program (backward: every input's bound), then the
    /// session's format, rounding mode and unit roundoff. Trailing
    /// newline included.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnresolvedGrade`] when a grade mentions symbols other
    /// than the rounding symbol, or a forward grade is infinite (see
    /// [`Analyzer::bound`] and [`Analyzer::bound_backward`]).
    pub fn bound_text(&self, analyzer: &Analyzer) -> Result<String, Diagnostic> {
        let mut out = String::new();
        match self {
            Analysis::Forward(typed) => {
                let line = |name: &str, ty: &Ty| {
                    Ok(match analyzer.grades.bound(ty)? {
                        Some(b) => format!("{name:<24} {b}\n"),
                        None => format!("{name:<24} {ty} (no rounding-error bound)\n"),
                    })
                };
                for f in typed.functions() {
                    out.push_str(&line(&f.name, &f.inferred)?);
                }
                out.push_str(&line("program", typed.ty())?);
            }
            Analysis::Backward(typed) => {
                let bound = analyzer.bound_backward(typed)?;
                let line = |name: &str, inputs: &[InputBackwardBound]| {
                    let list = if inputs.is_empty() {
                        "(no linear inputs)".to_string()
                    } else {
                        let each = inputs.iter().map(|b| input_bound(b, bound.instantiation));
                        each.collect::<Vec<_>>().join(", ")
                    };
                    format!("{name:<24} {list}\n")
                };
                for f in &bound.fns {
                    out.push_str(&line(&f.name, &f.inputs));
                }
                out.push_str(&line("program", &bound.root));
            }
        }
        out.push_str(&format!(
            "({} {}, unit roundoff {})\n",
            analyzer.format(),
            analyzer.mode(),
            analyzer.rounding_unit().to_sci_string(3)
        ));
        Ok(out)
    }

    /// The line `numfuzz batch` prints for the program `name`: its type
    /// and, forward, the eq. (8) bound when the type has one (`name:
    /// type — bound`), backward, the per-input grades (`name: type
    /// [grades]`). No trailing newline.
    pub fn batch_line(&self, analyzer: &Analyzer, name: &str) -> String {
        match self {
            Analysis::Forward(typed) => match analyzer.bound_of_ty(typed.ty()) {
                Some(bound) => format!("{name}: {} — {bound}", typed.ty()),
                None => format!("{name}: {}", typed.ty()),
            },
            Analysis::Backward(typed) => {
                format!("{name}: {}{}", typed.ty(), grades_suffix(typed.inputs()))
            }
        }
    }
}

/// The bracketed per-input grade list of a backward report line:
/// `" [x <= eps, y <= 2*eps]"`, or the empty string when there are no
/// linear inputs.
fn grades_suffix(inputs: &[(String, Grade)]) -> String {
    if inputs.is_empty() {
        return String::new();
    }
    let list: Vec<String> = inputs.iter().map(|(n, g)| format!("{n} <= {g}")).collect();
    format!(" [{}]", list.join(", "))
}

/// One input's numeric backward bound, e.g.
/// `x <= 2*eps (relative error <= 4.44e-16)`; an infinite grade renders
/// as a bare `x <= inf` (no finite backward bound exists for that input).
fn input_bound(b: &InputBackwardBound, instantiation: Instantiation) -> String {
    let kind = error_kind(instantiation);
    match (&b.alpha, &b.relative) {
        (None, _) => format!("{} <= {}", b.name, b.grade),
        (Some(_), Some(r)) => {
            format!("{} <= {} ({kind} <= {})", b.name, b.grade, r.to_sci_string(3))
        }
        (Some(_), None) => format!("{} <= {} (no finite {kind} bound)", b.name, b.grade),
    }
}

/// The metric an instantiation's bounds are stated in, as reports name it.
fn error_kind(instantiation: Instantiation) -> &'static str {
    match instantiation {
        Instantiation::RelativePrecision => "relative error",
        Instantiation::AbsoluteError => "absolute error",
    }
}

/// Numeric per-input backward-error bounds of a whole program, produced
/// by [`Analyzer::bound_backward`]: the backward analogue of
/// [`ErrorBound`], with one bound per input instead of one on the output.
#[derive(Clone, Debug)]
pub struct BackwardBound {
    /// Bounds for the root term's inputs, in binding order.
    pub root: Vec<InputBackwardBound>,
    /// Bounds for each `function` definition's parameters, in source
    /// order.
    pub fns: Vec<FnBackwardBound>,
    /// Which metric the bounds are stated in.
    pub instantiation: Instantiation,
}

impl BackwardBound {
    /// Looks up a function's bounds by name (last definition wins).
    pub fn function(&self, name: &str) -> Option<&FnBackwardBound> {
        self.fns.iter().rev().find(|f| f.name == name)
    }
}

/// Per-parameter backward bounds of one `function` definition.
#[derive(Clone, Debug)]
pub struct FnBackwardBound {
    /// The function's name.
    pub name: String,
    /// One bound per named parameter, in parameter order.
    pub inputs: Vec<InputBackwardBound>,
}

/// The backward-error bound on one input: how far the exhibited perturbed
/// input x̃ may lie from the actual input x.
#[derive(Clone, Debug)]
pub struct InputBackwardBound {
    /// The input's surface name.
    pub name: String,
    /// The exact symbolic grade (e.g. `2*eps`).
    pub grade: Grade,
    /// The grade with the rounding symbol substituted; `None` when the
    /// grade is infinite (no finite backward bound for this input).
    pub alpha: Option<Rational>,
    /// For the RP instantiation, the relative perturbation bound
    /// `e^α - 1` rounded up (eq. 8); for the absolute instantiation,
    /// `alpha` itself. `None` when `alpha` is `None` or too large.
    pub relative: Option<Rational>,
}

/// An eq. (8) rounding-error bound read off a checked type.
#[derive(Clone, Debug)]
pub struct ErrorBound {
    /// The exact symbolic grade (e.g. `5/2*eps`).
    pub grade: Grade,
    /// The grade with symbols substituted: the RP (or absolute) bound.
    pub alpha: Rational,
    /// The relative error bound the paper's tables report: for the RP
    /// instantiation `(e^α - 1)` rounded up (eq. 8); for the absolute
    /// instantiation, `alpha` itself. `None` when `α` is too large for a
    /// meaningful relative bound.
    pub relative: Option<Rational>,
    /// Which metric the bound is stated in.
    pub instantiation: Instantiation,
}

impl fmt::Display for ErrorBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = error_kind(self.instantiation);
        match &self.relative {
            Some(b) => write!(f, "{} ({kind} <= {})", self.grade, b.to_sci_string(3)),
            None => write!(f, "{} (no finite {kind} bound)", self.grade),
        }
    }
}

/// The outcome of [`Analyzer::run`]: both semantics' results and, for
/// `M[r]num` programs, the rigorous soundness report.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The checked root type.
    pub ty: Ty,
    /// Result under the ideal semantics (`rnd` = identity).
    pub ideal: Value,
    /// Result under the floating-point semantics (possibly `err`, §7.1).
    pub fp: Value,
    /// The Corollary 4.20 verdict, when the type carries a bound.
    pub report: Option<SoundnessReport>,
    /// Format the floating-point run used.
    pub format: Format,
    /// Mode the floating-point run used.
    pub mode: RoundingMode,
}

/// The outcome of [`Analyzer::run_ideal`]: the ideal result, with what
/// [`Analyzer::decide`] needs to run the floating-point semantics and
/// decide Cor. 4.20 after it.
pub(crate) struct IdealRun {
    /// The checked root type.
    ty: Ty,
    /// The inputs, bound to the program's free variables.
    inputs: Vec<(VarId, Value)>,
    /// The `M[r]num` grade and its value at the rounding unit.
    graded: Option<(Grade, Rational)>,
    /// Result under the ideal semantics (`rnd` = identity).
    pub(crate) ideal: Value,
}

/// Input values for a program's free variables, by name and/or position.
///
/// Parsed programs are closed (no inputs); programs imported from IR
/// kernels ([`Program::from_kernel`]) or generated
/// ([`Program::from_generated`]) expose their inputs as free variables:
///
/// ```
/// use numfuzz::benchsuite::table3;
/// use numfuzz::prelude::*;
///
/// let bench = &table3()[0]; // hypot(x, y)
/// let program = Program::from_kernel(&bench.kernel)?;
/// let inputs = Inputs::positional(
///     bench.samples[0].iter().map(|q| Value::num(q.clone())),
/// );
/// let report = Analyzer::new().validate(&program, &inputs)?;
/// assert!(report.holds());
/// # Ok::<(), numfuzz::Diagnostic>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    positional: Vec<Value>,
    named: Vec<(String, Value)>,
}

impl Inputs {
    /// No inputs (closed programs).
    pub fn none() -> Self {
        Inputs::default()
    }

    /// Values for the program's free variables, in input order.
    pub fn positional(values: impl IntoIterator<Item = Value>) -> Self {
        Inputs { positional: values.into_iter().collect(), named: Vec::new() }
    }

    /// Adds (or overrides) a named input.
    pub fn with(mut self, name: impl Into<String>, value: Value) -> Self {
        self.named.push((name.into(), value));
        self
    }

    /// Convenience for numeric inputs.
    pub fn with_num(self, name: impl Into<String>, q: Rational) -> Self {
        self.with(name, Value::num(q))
    }

    /// Binds this input set to a program's free variables.
    pub(crate) fn resolve(&self, program: &Program) -> Result<Vec<(VarId, Value)>, Diagnostic> {
        let free = program.free();
        if self.positional.len() > free.len() {
            return Err(Diagnostic::new(
                ErrorCode::BadInput,
                format!(
                    "{} positional inputs supplied, but the program has {} free variables",
                    self.positional.len(),
                    free.len()
                ),
            ));
        }
        let mut bound: Vec<(VarId, Option<Value>)> = free.iter().map(|(v, _)| (*v, None)).collect();
        for (slot, value) in bound.iter_mut().zip(self.positional.iter().cloned()) {
            slot.1 = Some(value);
        }
        for (name, value) in &self.named {
            let store = program.store();
            match bound.iter_mut().find(|(v, _)| store.var_name(*v) == name) {
                Some(slot) => slot.1 = Some(value.clone()),
                None => {
                    let names = program.free_names();
                    let note = if names.is_empty() {
                        "the program is closed (no free variables)".to_string()
                    } else {
                        format!(
                            "free variables: {}",
                            names.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(", ")
                        )
                    };
                    return Err(Diagnostic::new(
                        ErrorCode::BadInput,
                        format!("input `{name}` names no free variable of the program"),
                    )
                    .with_note(note));
                }
            }
        }
        bound
            .into_iter()
            .map(|(v, val)| {
                val.map(|val| (v, val)).ok_or_else(|| {
                    Diagnostic::new(
                        ErrorCode::BadInput,
                        format!(
                            "free variable `{}` has no input value",
                            program.store().var_name(v)
                        ),
                    )
                })
            })
            .collect()
    }
}

impl<S: Into<String>> FromIterator<(S, Value)> for Inputs {
    fn from_iter<I: IntoIterator<Item = (S, Value)>>(iter: I) -> Self {
        Inputs {
            positional: Vec::new(),
            named: iter.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_ideal` is `run` without the floating-point run and the
    /// report, so both give the same ideal value; `decide` after it is
    /// `validate` without the display-only figures, so it reaches the
    /// same decision on the same values.
    fn assert_steps_agree(analyzer: &Analyzer, program: &Program, what: &str) {
        let inputs = Inputs::none();
        let run = analyzer.run_ideal(program, &inputs).expect(what);
        let (fp, decision) =
            analyzer.decide(program, &run, &mut analyzer.session_rounding()).expect(what);
        let Some(decision) = decision else {
            let exec = analyzer.run(program, &inputs).expect(what);
            assert!(exec.report.is_none(), "{what}");
            assert_eq!(format!("{:?}", run.ideal), format!("{:?}", exec.ideal), "{what}");
            assert_eq!(format!("{fp:?}"), format!("{:?}", exec.fp), "{what}");
            return;
        };
        let report = analyzer.validate(program, &inputs).expect(what);
        assert_eq!(decision.holds(), report.holds(), "{what}");
        assert_eq!(decision.verdict, report.verdict, "{what}");
        assert_eq!(decision.ideal, report.ideal, "{what}");
        assert_eq!(decision.fp, report.fp, "{what}");
    }

    #[test]
    fn run_ideal_matches_run_on_tables_and_generated_programs() {
        let analyzer = Analyzer::new();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/benches/table1");
        let mut table1 = 0;
        for entry in std::fs::read_dir(dir).expect("Table 1 corpus") {
            let path = entry.expect("directory entry").path();
            let src = std::fs::read_to_string(&path).expect("Table 1 file");
            let name = path.display().to_string();
            assert_steps_agree(&analyzer, &analyzer.parse_named(&name, &src).expect(&name), &name);
            table1 += 1;
        }
        assert_eq!(table1, 10);
        for b in numfuzz_benchsuite::table5() {
            let program = analyzer.parse_named(b.name, &format!("{}\n{}", b.source, b.sample));
            assert_steps_agree(&analyzer, &program.expect(b.name), b.name);
        }
        // Generated programs, each in the session its plan describes (as
        // the fuzz oracle builds it), every instantiation and format.
        for index in 0..200 {
            let case = numfuzz_fuzz::generate_case(23, index);
            let plan = &case.plan;
            let mut builder = Analyzer::builder()
                .signature(plan.instantiation)
                .format(plan.format)
                .mode(plan.mode);
            if let Some(unit) = &plan.rnd_unit {
                builder = builder.rounding_unit(unit.clone());
            }
            let session = builder.build();
            let what = format!("generated case {index}");
            let program = session.parse(&case.program.render()).expect(&what);
            assert_steps_agree(&session, &program, &what);
        }
    }
}
