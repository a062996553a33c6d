//! The [`Program`] artifact: a parsed, lowered Λnum program that owns its
//! term arena, root, free variables, and interned source text.
//!
//! A `Program` is produced once and analyzed many times — by
//! [`crate::Analyzer::check`], [`crate::Analyzer::run`], and
//! [`crate::Analyzer::validate`]. It replaces hand-threading
//! `TermStore` + `TermId` + free-variable lists through free functions.

use crate::diag::Diagnostic;
use numfuzz_benchsuite::{kernel_to_core_in, Generated, Kernel};
use numfuzz_core::{
    cache, compile_in, pretty_term, CoreArena, Instantiation, Signature, TermId, TermStore, Ty,
    VarId,
};
use std::sync::{Arc, OnceLock};

/// A lowered Λnum program, ready for analysis.
#[derive(Clone, Debug)]
pub struct Program {
    name: Option<String>,
    source: Option<Arc<str>>,
    /// Which instantiation's signature the surface syntax was lowered
    /// against (operation names differ between instantiations).
    instantiation: Instantiation,
    store: TermStore,
    root: TermId,
    free: Vec<(VarId, Ty)>,
    /// Lazily computed (content, display) fingerprints (see
    /// [`Program::fingerprint`]).
    fp: OnceLock<(u128, u128)>,
}

impl Program {
    /// Parses and lowers Λnum source against the paper's leading
    /// instantiation ([`Signature::relative_precision`]).
    ///
    /// For the absolute-error instantiation (or a custom signature), use
    /// [`crate::Analyzer::parse`], which lowers against the analyzer's
    /// own signature. The surface syntax is documented in
    /// `docs/language.md`.
    ///
    /// ```
    /// use numfuzz::Program;
    ///
    /// let program = Program::parse("function fp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }\nfp (|1, 2|)")?;
    /// assert_eq!(program.free().len(), 0); // parsed programs are closed
    /// # Ok::<(), numfuzz::Diagnostic>(())
    /// ```
    ///
    /// # Errors
    ///
    /// A spanned [`Diagnostic`] for lexical, grammatical, scoping, or
    /// operation-usage errors.
    pub fn parse(src: &str) -> Result<Self, Diagnostic> {
        Self::parse_sig(None, src, &Signature::relative_precision())
    }

    /// [`Program::parse`] with a file (or synthetic) name attached to
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// See [`Program::parse`].
    pub fn parse_named(name: &str, src: &str) -> Result<Self, Diagnostic> {
        Self::parse_sig(Some(name), src, &Signature::relative_precision())
    }

    /// Parses and lowers against an explicit signature.
    ///
    /// # Errors
    ///
    /// See [`Program::parse`].
    pub fn parse_with(src: &str, sig: &Signature) -> Result<Self, Diagnostic> {
        Self::parse_sig(None, src, sig)
    }

    pub(crate) fn parse_sig(
        name: Option<&str>,
        src: &str,
        sig: &Signature,
    ) -> Result<Self, Diagnostic> {
        Self::parse_sig_in(CoreArena::new(), name, src, sig)
    }

    /// Parses into a store sharing the session arena `tys`, so the
    /// session's programs interchange interned type/grade ids and reuse
    /// the memoized subtype/`max`/`min` caches.
    pub(crate) fn parse_sig_in(
        tys: CoreArena,
        name: Option<&str>,
        src: &str,
        sig: &Signature,
    ) -> Result<Self, Diagnostic> {
        let lowered =
            compile_in(tys, src, sig).map_err(|e| Diagnostic::from_syntax(&e, Some(src), name))?;
        Ok(Program {
            name: name.map(String::from),
            source: Some(Arc::from(src)),
            instantiation: sig.instantiation(),
            store: lowered.store,
            root: lowered.root,
            free: Vec::new(),
            fp: OnceLock::new(),
        })
    }

    /// Translates a straight-line IR [`Kernel`] (the FPBench fragment)
    /// into an open Λnum program; the kernel's inputs become free
    /// variables, in order.
    ///
    /// For batches, prefer [`crate::Analyzer::program_from_kernel`],
    /// which emits into the session's shared arena.
    ///
    /// # Errors
    ///
    /// [`Diagnostic`] with [`crate::ErrorCode::Untranslatable`] for
    /// kernels outside the RP fragment (e.g. containing subtraction).
    pub fn from_kernel(kernel: &Kernel) -> Result<Self, Diagnostic> {
        Self::from_kernel_in(CoreArena::new(), kernel)
    }

    pub(crate) fn from_kernel_in(tys: CoreArena, kernel: &Kernel) -> Result<Self, Diagnostic> {
        let ck = kernel_to_core_in(tys, kernel).map_err(|e| {
            Diagnostic::new(crate::ErrorCode::Untranslatable, e.to_string())
                .with_file(kernel.name.clone())
        })?;
        Ok(Program {
            name: Some(kernel.name.clone()),
            source: None,
            instantiation: Instantiation::RelativePrecision,
            store: ck.store,
            root: ck.root,
            free: ck.free,
            fp: OnceLock::new(),
        })
    }

    /// Wraps a generated benchmark (the Table 4 workloads) as a program.
    pub fn from_generated(g: Generated) -> Self {
        Program {
            name: Some(g.name),
            source: None,
            instantiation: Instantiation::RelativePrecision,
            store: g.store,
            root: g.root,
            free: g.free,
            fp: OnceLock::new(),
        }
    }

    /// Assembles a program from raw arena parts (the low-level escape
    /// hatch for programmatic term construction). Tagged for the
    /// relative-precision instantiation; use
    /// [`Program::with_instantiation`] for terms whose operations belong
    /// to another signature.
    pub fn from_parts(store: TermStore, root: TermId, free: Vec<(VarId, Ty)>) -> Self {
        Program {
            name: None,
            source: None,
            instantiation: Instantiation::RelativePrecision,
            store,
            root,
            free,
            fp: OnceLock::new(),
        }
    }

    /// The program's name (file path, kernel name, ...), when known.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Renames the program (affects diagnostics only).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The interned source text, when the program came from source.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// Which instantiation the surface syntax was lowered against.
    pub fn instantiation(&self) -> Instantiation {
        self.instantiation
    }

    /// Re-tags which instantiation the program's operations belong to
    /// (for [`Program::from_parts`]-built terms; parsed programs are
    /// tagged by the signature they were lowered against).
    pub fn with_instantiation(mut self, instantiation: Instantiation) -> Self {
        self.instantiation = instantiation;
        // The tag participates in the content fingerprint.
        self.fp = OnceLock::new();
        self
    }

    /// The program's 128-bit content fingerprint: a stable hash of the
    /// term DAG, the free-variable interface, and the instantiation tag —
    /// computed once and memoized. Structurally identical programs (even
    /// parsed in different sessions, with different interned ids or
    /// differently spelled non-`function` binders) fingerprint
    /// identically; the program's *name* does not participate. `function`
    /// names do — they appear in per-function reports, so they are
    /// content. This is the content half of the [`crate::AnalysisCache`]
    /// address.
    pub fn fingerprint(&self) -> u128 {
        self.fingerprints().0
    }

    /// The program's *display* fingerprint: every binder spelling (in
    /// canonical order) plus the exact source text, when there is one.
    /// Two programs with equal [`Program::fingerprint`]s compute the same
    /// results, but only equal display fingerprints guarantee identical
    /// *diagnostics* (error messages quote binder names, spans, and
    /// source lines) — the [`crate::AnalysisCache`] replays a memoized
    /// `Err` outcome only when both match.
    pub fn display_fingerprint(&self) -> u128 {
        self.fingerprints().1
    }

    fn fingerprints(&self) -> (u128, u128) {
        *self.fp.get_or_init(|| {
            let (term, names) =
                cache::fingerprint_term_with_display(&self.store, self.root, &self.free);
            let tag = match self.instantiation {
                Instantiation::RelativePrecision => 0,
                Instantiation::AbsoluteError => 1,
            };
            let mut h = cache::StableHasher::new();
            h.write_u128(term);
            h.write_u8(tag);
            let mut d = cache::StableHasher::new();
            d.write_u128(names);
            d.write_u8(tag);
            match &self.source {
                Some(src) => {
                    d.write_u8(1);
                    d.write_str(src);
                }
                None => d.write_u8(0),
            }
            (h.finish128(), d.finish128())
        })
    }

    /// The term arena.
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// The root term.
    pub fn root(&self) -> TermId {
        self.root
    }

    /// Free variables (program inputs) with their types, in input order.
    pub fn free(&self) -> &[(VarId, Ty)] {
        &self.free
    }

    /// Free-variable names with their types, in input order.
    pub fn free_names(&self) -> Vec<(String, Ty)> {
        self.free.iter().map(|(v, t)| (self.store.var_name(*v).to_string(), t.clone())).collect()
    }

    /// Pretty-prints the term to `max_depth` (deeper structure elides as
    /// `...`).
    pub fn pretty(&self, max_depth: u32) -> String {
        pretty_term(&self.store, self.root, max_depth)
    }

    /// Releases the arena parts (for direct small-step experiments and
    /// other low-level uses).
    pub fn into_parts(self) -> (TermStore, TermId, Vec<(VarId, Ty)>) {
        (self.store, self.root, self.free)
    }
}
