//! Content-addressed result caching for the analysis pipeline.
//!
//! A resident analysis service (`numfuzz serve`) sees the same programs
//! over and over; so does a batch run over a corpus with duplicated
//! kernels. Every analysis outcome in this system — checking, bounding,
//! validation — is a *pure function* of the hash-consed term, its free
//! variables, and the analyzer configuration (signature, format, mode,
//! rounding unit): inference (Fig. 10) consults nothing else, so a result
//! computed once may be replayed for any structurally identical program
//! under the same configuration. This module provides the two halves of
//! that memoization:
//!
//! * [`fingerprint_term`] — a stable 128-bit *content* fingerprint of a
//!   term DAG. Alpha-equivalent programs (same structure, different
//!   internal [`VarId`] numbering or binder spellings) fingerprint
//!   identically: variables are renumbered canonically in traversal
//!   order, annotations are resolved out of the arena and hashed
//!   structurally, and constants hash by canonical rational value. Two
//!   deliberate exceptions, because they are visible in *results*:
//!   `function` names (they appear in per-function reports) and the
//!   free-variable interface (names and raw ids — inferred environments
//!   mention them). The hash is FNV-1a/128 over a canonical byte
//!   encoding — deterministic across processes and platforms (no
//!   per-process seed), so keys are true content addresses. The
//!   companion [`fingerprint_term_with_display`] additionally hashes
//!   every binder spelling, which gates the replay of memoized
//!   *diagnostics* (error messages quote names and source lines).
//! * [`ResultCache`] — a byte-budgeted LRU table from [`CacheKey`]
//!   (program fingerprint + configuration fingerprint) to any clonable
//!   result, with hit/miss/insert/evict accounting ([`CacheStats`]).
//!
//! The facade crate wraps a `ResultCache` in an `Arc<Mutex<..>>` handle
//! (`numfuzz::AnalysisCache`) shared by every session of a service:
//! `Analyzer::analyze` answers through it whenever a session was built
//! with one.

use crate::check::FnReport;
use crate::grade::{Coeffect, Grade};
use crate::intern::SeededMap;
use crate::term::{grow_to, Node, TermId, TermStore, VarId};
use crate::ty::Ty;
use crate::TyId;
use std::collections::{hash_map, BTreeMap};
use std::ops::Range;
use std::sync::Arc;

/// FNV-1a offset basis for the 128-bit variant.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a prime for the 128-bit variant.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incremental FNV-1a/128 hasher over a canonical byte stream.
///
/// Deliberately *not* `std::hash::Hasher`: `DefaultHasher` is seeded per
/// process, and content addresses must be stable across processes
/// (`tests/golden/lowering.expected` pins fingerprints). FNV is not
/// collision-resistant against an adversary, but at 128 bits accidental
/// collisions are negligible for a memoization table whose worst failure
/// is a wrong-but-well-typed reply.
#[derive(Clone, Copy, Debug)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV128_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs one byte (a node/type tag).
    pub fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u128` (little-endian) — e.g. a child fingerprint.
    pub fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The 128-bit digest.
    pub fn finish128(&self) -> u128 {
        self.state
    }

    /// The digest folded to 64 bits (for configuration keys).
    pub fn finish64(&self) -> u64 {
        (self.state as u64) ^ ((self.state >> 64) as u64)
    }
}

// Tag bytes for the canonical term encoding. Annotation-bearing variants
// get their own tags so `inl v : σ+τ` and `inr v : τ+σ` cannot collide.
const TAG_VAR: u8 = 1;
const TAG_UNIT: u8 = 2;
const TAG_CONST: u8 = 3;
const TAG_PAIR_W: u8 = 4;
const TAG_PAIR_T: u8 = 5;
const TAG_INL: u8 = 6;
const TAG_INR: u8 = 7;
const TAG_LAM: u8 = 8;
const TAG_BOX: u8 = 9;
const TAG_RND: u8 = 10;
const TAG_RET: u8 = 11;
const TAG_ERR: u8 = 12;
const TAG_APP: u8 = 13;
const TAG_PROJ1: u8 = 14;
const TAG_PROJ2: u8 = 15;
const TAG_LET_TENSOR: u8 = 16;
const TAG_CASE: u8 = 17;
const TAG_LET_BOX: u8 = 18;
const TAG_LET_BIND: u8 = 19;
const TAG_LET: u8 = 20;
const TAG_LET_FUN: u8 = 21;
const TAG_OP: u8 = 22;

// Tags for the canonical type encoding.
const TY_UNIT: u8 = 32;
const TY_NUM: u8 = 33;
const TY_TENSOR: u8 = 34;
const TY_WITH: u8 = 35;
const TY_SUM: u8 = 36;
const TY_LOLLI: u8 = 37;
const TY_BANG: u8 = 38;
const TY_MONAD: u8 = 39;

/// Computes the content fingerprint of a program: the term DAG under
/// `root` plus its free-variable interface `free`, both resolved to
/// canonical form (see the [module docs](self) for what "canonical"
/// guarantees). Runs in `O(distinct nodes)`: shared subterms hash once.
///
/// Free variables contribute their *raw* ids and display names as well as
/// their canonical numbers: a cached result (e.g. an inferred environment)
/// mentions free variables by identity, so two programs may only share a
/// cache entry when their input interfaces match exactly, not merely up
/// to renaming. Bound variables, by contrast, never escape into results
/// and hash canonically.
///
/// ```
/// use numfuzz_core::cache::fingerprint_term;
/// use numfuzz_core::{compile, Signature};
///
/// let sig = Signature::relative_precision();
/// let a = compile("s = mul (2, 2); rnd s", &sig)?;
/// let b = compile("s = mul (2, 2); rnd s", &sig)?;
/// let c = compile("s = mul (2, 3); rnd s", &sig)?;
/// assert_eq!(
///     fingerprint_term(&a.store, a.root, &[]),
///     fingerprint_term(&b.store, b.root, &[]),
/// );
/// assert_ne!(
///     fingerprint_term(&a.store, a.root, &[]),
///     fingerprint_term(&c.store, c.root, &[]),
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn fingerprint_term(store: &TermStore, root: TermId, free: &[(VarId, Ty)]) -> u128 {
    fingerprint_term_with_display(store, root, free).0
}

/// [`fingerprint_term`] plus a *display* fingerprint: a hash of every
/// variable's display name in canonical traversal order.
///
/// The structural fingerprint decides whether two programs compute the
/// same *results*; the display fingerprint decides whether they would
/// render the same *diagnostics*. Error messages quote binder names and
/// source snippets, so a memoized `Err` outcome may only be replayed for
/// a program whose display fingerprint (and source text, which the
/// caller mixes in) also matches — successful outcomes depend only on
/// the structural half (plus `function` names, which are part of it).
pub fn fingerprint_term_with_display(
    store: &TermStore,
    root: TermId,
    free: &[(VarId, Ty)],
) -> (u128, u128) {
    let mut fp = Fingerprinter::new(store, free);
    let root_hash = fp.hash_term(root);

    let mut h = StableHasher::new();
    h.write_u128(root_hash);
    h.write_u64(free.len() as u64);
    for (v, ty) in free {
        h.write_u32(fp.canon_var(*v));
        h.write_u32(v.0);
        h.write_str(store.var_name(*v));
        h.write_u128(hash_ty_tree(ty));
    }

    let mut d = StableHasher::new();
    d.write_u64(fp.vars.len() as u64);
    for v in &fp.vars {
        d.write_str(store.var_name(*v));
    }
    (h.finish128(), d.finish128())
}

/// The canonical structural hash of an owned [`Ty`] tree (annotations are
/// shallow, so plain recursion is fine here).
pub fn hash_ty_tree(ty: &Ty) -> u128 {
    let mut h = StableHasher::new();
    match ty {
        Ty::Unit => h.write_u8(TY_UNIT),
        Ty::Num => h.write_u8(TY_NUM),
        Ty::Tensor(a, b) => {
            h.write_u8(TY_TENSOR);
            h.write_u128(hash_ty_tree(a));
            h.write_u128(hash_ty_tree(b));
        }
        Ty::With(a, b) => {
            h.write_u8(TY_WITH);
            h.write_u128(hash_ty_tree(a));
            h.write_u128(hash_ty_tree(b));
        }
        Ty::Sum(a, b) => {
            h.write_u8(TY_SUM);
            h.write_u128(hash_ty_tree(a));
            h.write_u128(hash_ty_tree(b));
        }
        Ty::Lolli(a, b) => {
            h.write_u8(TY_LOLLI);
            h.write_u128(hash_ty_tree(a));
            h.write_u128(hash_ty_tree(b));
        }
        Ty::Bang(s, t) => {
            h.write_u8(TY_BANG);
            // Grades are canonical linear expressions with a total display
            // order, so their rendering is a faithful canonical form.
            h.write_str(&s.to_string());
            h.write_u128(hash_ty_tree(t));
        }
        Ty::Monad(u, t) => {
            h.write_u8(TY_MONAD);
            h.write_str(&u.to_string());
            h.write_u128(hash_ty_tree(t));
        }
    }
    h.finish128()
}

/// Marks a node not yet hashed, or a variable not yet numbered, in the
/// fingerprinting tables indexed by [`TermId`] and [`VarId`].
const UNSEEN: u32 = u32::MAX;

/// Memoized canonical hashing of one store's term DAG.
///
/// Its node and variable tables are vectors indexed by the store-local
/// [`TermId`]/[`VarId`]; only annotation hashes, keyed by the
/// session-wide [`TyId`], stay in a map.
struct Fingerprinter<'a> {
    store: &'a TermStore,
    /// Per node, its position in `hashes` ([`UNSEEN`] until hashed).
    index: Vec<u32>,
    /// Node hashes, in completion order.
    hashes: Vec<u128>,
    tys: SeededMap<TyId, u128>,
    /// Per variable, its canonical number ([`UNSEEN`] until met), assigned
    /// in deterministic traversal order (free interface first, then
    /// binders as encountered).
    canon: Vec<u32>,
    /// The variables by canonical number (the inverse of `canon`).
    vars: Vec<VarId>,
}

impl<'a> Fingerprinter<'a> {
    /// A fingerprinter over `store` with the free interface numbered first,
    /// in interface order, so its canonical numbers are independent of
    /// where the variables first occur in the body.
    fn new(store: &'a TermStore, free: &[(VarId, Ty)]) -> Self {
        let mut fp = Fingerprinter {
            store,
            index: vec![UNSEEN; store.len()],
            hashes: Vec::new(),
            tys: SeededMap::default(),
            canon: vec![UNSEEN; store.num_vars()],
            vars: Vec::new(),
        };
        for (v, _) in free {
            fp.canon_var(*v);
        }
        fp
    }

    fn canon_var(&mut self, v: VarId) -> u32 {
        let n = grow_to(&mut self.canon, v.0 as usize, UNSEEN);
        if *n == UNSEEN {
            *n = self.vars.len() as u32;
            self.vars.push(v);
        }
        *n
    }

    fn hashed(&self, id: TermId) -> bool {
        self.index[id.0 as usize] != UNSEEN
    }

    /// The hash of an already hashed node.
    fn term(&self, id: TermId) -> u128 {
        self.hashes[self.index[id.0 as usize] as usize]
    }

    fn hash_ty(&mut self, id: TyId) -> u128 {
        if let Some(&h) = self.tys.get(&id) {
            return h;
        }
        let h = hash_ty_tree(&self.store.ty(id));
        self.tys.insert(id, h);
        h
    }

    /// Post-order DAG hash with an explicit stack: million-node let chains
    /// must not overflow the call stack, and shared subterms hash once.
    fn hash_term(&mut self, root: TermId) -> u128 {
        enum Task {
            Enter(TermId),
            Exit(TermId),
        }
        let mut stack = vec![Task::Enter(root)];
        while let Some(task) = stack.pop() {
            match task {
                Task::Enter(id) => {
                    if self.hashed(id) {
                        continue;
                    }
                    stack.push(Task::Exit(id));
                    // Binders claim their canonical numbers on entry, so a
                    // variable's number is assigned before any use of it is
                    // visited. Children enter in reverse so they are
                    // *visited* left-to-right (deterministic numbering).
                    match *self.store.node(id) {
                        Node::Var(v) => {
                            self.canon_var(v);
                        }
                        Node::UnitVal | Node::Const(_) | Node::Err(..) => {}
                        Node::PairW(a, b) | Node::PairT(a, b) | Node::App(a, b) => {
                            stack.push(Task::Enter(b));
                            stack.push(Task::Enter(a));
                        }
                        Node::Inl(v, _)
                        | Node::Inr(v, _)
                        | Node::BoxIntro(_, v)
                        | Node::Rnd(v)
                        | Node::Ret(v)
                        | Node::Proj(_, v)
                        | Node::Op(_, v) => stack.push(Task::Enter(v)),
                        Node::Lam(x, _, body) => {
                            self.canon_var(x);
                            stack.push(Task::Enter(body));
                        }
                        Node::LetTensor(x, y, v, e) => {
                            self.canon_var(x);
                            self.canon_var(y);
                            stack.push(Task::Enter(e));
                            stack.push(Task::Enter(v));
                        }
                        Node::Case(v, x, e1, y, e2) => {
                            self.canon_var(x);
                            self.canon_var(y);
                            stack.push(Task::Enter(e2));
                            stack.push(Task::Enter(e1));
                            stack.push(Task::Enter(v));
                        }
                        Node::LetBox(x, v, e) | Node::LetBind(x, v, e) | Node::Let(x, v, e) => {
                            self.canon_var(x);
                            stack.push(Task::Enter(e));
                            stack.push(Task::Enter(v));
                        }
                        Node::LetFun(x, _, body, rest) => {
                            self.canon_var(x);
                            stack.push(Task::Enter(rest));
                            stack.push(Task::Enter(body));
                        }
                    }
                }
                Task::Exit(id) => {
                    if self.hashed(id) {
                        continue;
                    }
                    let h = self.hash_node(id);
                    self.index[id.0 as usize] = self.hashes.len() as u32;
                    self.hashes.push(h);
                }
            }
        }
        self.term(root)
    }

    /// Hashes one node whose children (and binder variables) are already
    /// processed.
    fn hash_node(&mut self, id: TermId) -> u128 {
        let mut h = StableHasher::new();
        match *self.store.node(id) {
            Node::Var(v) => {
                h.write_u8(TAG_VAR);
                h.write_u32(self.canon_var(v));
            }
            Node::UnitVal => h.write_u8(TAG_UNIT),
            Node::Const(k) => {
                h.write_u8(TAG_CONST);
                // Rationals are kept canonical (reduced, sign-normalized),
                // so the rendering is a canonical form.
                h.write_str(&self.store.constant(k).to_string());
            }
            Node::PairW(a, b) => {
                h.write_u8(TAG_PAIR_W);
                h.write_u128(self.term(a));
                h.write_u128(self.term(b));
            }
            Node::PairT(a, b) => {
                h.write_u8(TAG_PAIR_T);
                h.write_u128(self.term(a));
                h.write_u128(self.term(b));
            }
            Node::Inl(v, ty) => {
                h.write_u8(TAG_INL);
                h.write_u128(self.term(v));
                h.write_u128(self.hash_ty(ty));
            }
            Node::Inr(v, ty) => {
                h.write_u8(TAG_INR);
                h.write_u128(self.term(v));
                h.write_u128(self.hash_ty(ty));
            }
            Node::Lam(x, ty, body) => {
                h.write_u8(TAG_LAM);
                h.write_u32(self.canon_var(x));
                h.write_u128(self.hash_ty(ty));
                h.write_u128(self.term(body));
            }
            Node::BoxIntro(s, v) => {
                h.write_u8(TAG_BOX);
                h.write_str(&self.store.grade(s).to_string());
                h.write_u128(self.term(v));
            }
            Node::Rnd(v) => {
                h.write_u8(TAG_RND);
                h.write_u128(self.term(v));
            }
            Node::Ret(v) => {
                h.write_u8(TAG_RET);
                h.write_u128(self.term(v));
            }
            Node::Err(u, ty) => {
                h.write_u8(TAG_ERR);
                h.write_str(&self.store.grade(u).to_string());
                h.write_u128(self.hash_ty(ty));
            }
            Node::App(a, b) => {
                h.write_u8(TAG_APP);
                h.write_u128(self.term(a));
                h.write_u128(self.term(b));
            }
            Node::Proj(first, v) => {
                h.write_u8(if first { TAG_PROJ1 } else { TAG_PROJ2 });
                h.write_u128(self.term(v));
            }
            Node::LetTensor(x, y, v, e) => {
                h.write_u8(TAG_LET_TENSOR);
                h.write_u32(self.canon_var(x));
                h.write_u32(self.canon_var(y));
                h.write_u128(self.term(v));
                h.write_u128(self.term(e));
            }
            Node::Case(v, x, e1, y, e2) => {
                h.write_u8(TAG_CASE);
                h.write_u128(self.term(v));
                h.write_u32(self.canon_var(x));
                h.write_u128(self.term(e1));
                h.write_u32(self.canon_var(y));
                h.write_u128(self.term(e2));
            }
            Node::LetBox(x, v, e) => {
                h.write_u8(TAG_LET_BOX);
                h.write_u32(self.canon_var(x));
                h.write_u128(self.term(v));
                h.write_u128(self.term(e));
            }
            Node::LetBind(x, v, e) => {
                h.write_u8(TAG_LET_BIND);
                h.write_u32(self.canon_var(x));
                h.write_u128(self.term(v));
                h.write_u128(self.term(e));
            }
            Node::Let(x, v, e) => {
                h.write_u8(TAG_LET);
                h.write_u32(self.canon_var(x));
                h.write_u128(self.term(v));
                h.write_u128(self.term(e));
            }
            Node::LetFun(x, declared, body, rest) => {
                h.write_u8(TAG_LET_FUN);
                h.write_u32(self.canon_var(x));
                // Function names are *content*, not presentation: they
                // appear in per-function reports (and therefore in
                // check/bound output), so `function f` and `function g`
                // may not share a cache entry.
                h.write_str(self.store.var_name(x));
                match declared {
                    Some(ty) => {
                        h.write_u8(1);
                        h.write_u128(self.hash_ty(ty));
                    }
                    None => h.write_u8(0),
                }
                h.write_u128(self.term(body));
                h.write_u128(self.term(rest));
            }
            Node::Op(op, v) => {
                h.write_u8(TAG_OP);
                h.write_str(self.store.op_name(op));
                h.write_u128(self.term(v));
            }
        }
        h.finish128()
    }
}

/// Per-node content fingerprints of one store's reachable term DAG: the
/// substrate of judgment-level memoization ([`JudgmentCache`]).
///
/// [`TermId`]s are store-local — every parse builds a fresh hash-consed
/// store, so ids do not survive an edit. The per-subterm *content*
/// fingerprints computed here do: they are exactly the hashes
/// [`fingerprint_term`] computes for every node on the way to the root
/// (alpha-invariant, annotation-resolving, process-stable), so a subterm
/// untouched by an edit fingerprints identically in the re-parsed store
/// and can address the same memoized judgment. The canonical variable
/// numbering (free interface first, then binders in traversal order) is
/// exposed in both directions: memoized environments store canonical
/// numbers, and replaying them into a new store translates numbers back
/// to that store's [`VarId`]s.
#[derive(Debug)]
pub struct NodeFingerprints {
    /// Per node, its position in `hashes` ([`UNSEEN`] when unreachable).
    index: Vec<u32>,
    hashes: Vec<u128>,
    /// Per variable, its canonical number ([`UNSEEN`] when absent).
    canon: Vec<u32>,
    /// The variables by canonical number.
    vars: Vec<VarId>,
}

impl NodeFingerprints {
    /// The content fingerprint of the subterm rooted at `id`, if `id` is
    /// reachable from the fingerprinted root.
    pub fn node(&self, id: TermId) -> Option<u128> {
        match self.index.get(id.0 as usize) {
            Some(&i) if i != UNSEEN => Some(self.hashes[i as usize]),
            _ => None,
        }
    }

    /// The canonical number of a variable occurring in the program.
    pub fn canon(&self, v: VarId) -> Option<u32> {
        self.canon.get(v.0 as usize).copied().filter(|&n| n != UNSEEN)
    }

    /// The store's [`VarId`] behind a canonical number (the inverse of
    /// [`NodeFingerprints::canon`]).
    pub fn var(&self, canon: u32) -> Option<VarId> {
        self.vars.get(canon as usize).copied()
    }

    /// Number of distinct reachable nodes — the number of judgments a
    /// from-scratch checking pass computes.
    pub fn reachable(&self) -> usize {
        self.hashes.len()
    }
}

/// Fingerprints every node reachable from `root` (see
/// [`NodeFingerprints`]). One `O(distinct nodes)` hashing pass, the
/// incremental analogue of [`fingerprint_term`]: the root's fingerprint
/// here equals the per-node hash that function folds into its result.
pub fn node_fingerprints(
    store: &TermStore,
    root: TermId,
    free: &[(VarId, Ty)],
) -> NodeFingerprints {
    let mut fp = Fingerprinter::new(store, free);
    let _ = fp.hash_term(root);
    NodeFingerprints { index: fp.index, hashes: fp.hashes, canon: fp.canon, vars: fp.vars }
}

/// Extends a scope-chain fingerprint with one binder.
///
/// A judgment depends on its subterm *and* on the types its free
/// variables carry, so the memo key pairs the subterm fingerprint with a
/// hash of the whole scope chain: each binder in scope contributes its
/// canonical number and the structural hash of its assigned type, in
/// binding order, on top of the configuration fingerprint the chain was
/// seeded with. Matching chains therefore assign every canonical
/// variable the same type — which, together with a matching subterm
/// fingerprint, makes the memoized judgment sound to replay (see
/// `docs/paper-map.md`).
pub fn scope_extend(parent: u64, canon_var: u32, ty_fp: u128) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(parent);
    h.write_u32(canon_var);
    h.write_u128(ty_fp);
    h.finish64()
}

/// A memoized forward judgment for one subtree: everything
/// [`crate::infer`] computes for it, in store- and arena-independent
/// form.
#[derive(Clone, Debug)]
pub struct ForwardJudgment {
    /// `(canonical variable, sensitivity)` entries of the minimal
    /// environment, sorted by canonical number.
    pub env: Vec<(u32, Grade)>,
    /// The inferred type, resolved out of the arena (portable across
    /// sessions and their private arenas).
    pub ty: Ty,
    /// Function reports emitted while checking this subtree, in emission
    /// order (function names are part of the content fingerprint, so they
    /// replay verbatim).
    pub fns: ReportWindow<FnReport>,
}

/// One still-unapplied parameter of a memoized backward function value.
#[derive(Clone, Debug)]
pub struct BackwardParamEntry {
    /// The parameter binder's canonical number.
    pub var: u32,
    /// Whether the parameter carries data (non-unit).
    pub named: bool,
    /// The demand its consumption places on an argument.
    pub demand: Coeffect,
}

/// One memoized backward per-function report. Parameter *names* are
/// presentation (not content), so inputs are stored by canonical number
/// and renamed from the replaying store.
#[derive(Clone, Debug)]
pub struct BackwardFnEntry {
    /// The function's name (content — part of the subterm fingerprint).
    pub name: String,
    /// The type assigned in the context.
    pub assigned: Ty,
    /// Per-parameter backward error bounds, by canonical number.
    pub inputs: Vec<(u32, Grade)>,
}

/// A memoized backward judgment for one subtree: everything
/// [`crate::infer_backward`] computes for it, in store- and
/// arena-independent form.
#[derive(Clone, Debug)]
pub struct BackwardJudgment {
    /// `(canonical variable, coeffect)` entries of the consumed context,
    /// sorted by canonical number.
    pub env: Vec<(u32, Coeffect)>,
    /// The subtree's type, resolved out of the arena.
    pub ty: Ty,
    /// Parameter demands if the subtree is a (possibly partially
    /// applied) function value.
    pub fun: Option<Vec<BackwardParamEntry>>,
    /// Per-function reports emitted while checking this subtree.
    pub fns: ReportWindow<BackwardFnEntry>,
}

/// One memoized judgment — the value type of a [`JudgmentCache`]. The
/// scope chain is seeded with a mode-separated configuration fingerprint
/// so forward and backward entries never share an address, but replay
/// sites still match on the variant defensively (a mismatch is a miss).
#[derive(Clone, Debug)]
pub enum JudgmentEntry {
    /// A [`crate::infer`] subtree judgment.
    Forward(ForwardJudgment),
    /// A [`crate::infer_backward`] subtree judgment.
    Backward(BackwardJudgment),
}

/// The function reports one memoized pass emitted, in store-independent
/// form, frozen when the pass ends and shared by every entry it memoized.
///
/// Each entry addresses the reports its own subtree emitted as a
/// [`ReportWindow`] into this log. A chain of `N` function definitions
/// therefore keeps its `N` reports once, where a copy per enclosing
/// definition would keep `N²/2`; and the cache counts the log's weight
/// once, however many entries hold it ([`CacheWeight::shared`]).
#[derive(Debug)]
pub(crate) struct ReportLog<C> {
    reports: Vec<C>,
    /// Summed weight of `reports`.
    weight: usize,
}

impl<C: CacheWeight> ReportLog<C> {
    /// Freezes a pass's reports in emission order, or `None` when one of
    /// them did not canonicalize.
    pub(crate) fn freeze(reports: impl Iterator<Item = Option<C>>) -> Option<Arc<Self>> {
        let reports = reports.collect::<Option<Vec<C>>>()?;
        let weight = reports.iter().map(C::weight).sum();
        Some(Arc::new(ReportLog { reports, weight }))
    }
}

/// The function reports one memoized subtree emitted: a range of the
/// report list its pass froze when it ended, shared by every entry the
/// pass memoized. An empty window holds no list.
#[derive(Debug)]
pub struct ReportWindow<C> {
    log: Option<Arc<ReportLog<C>>>,
    start: u32,
    end: u32,
}

impl<C> Default for ReportWindow<C> {
    fn default() -> Self {
        ReportWindow { log: None, start: 0, end: 0 }
    }
}

impl<C> Clone for ReportWindow<C> {
    fn clone(&self) -> Self {
        ReportWindow { log: self.log.clone(), start: self.start, end: self.end }
    }
}

impl<C> ReportWindow<C> {
    /// The reports at positions `range` of `log`.
    pub(crate) fn new(log: &Arc<ReportLog<C>>, range: Range<usize>) -> Self {
        let (start, end) = (range.start as u32, range.end as u32);
        ReportWindow { log: Some(Arc::clone(log)), start, end }
    }

    /// The window's reports, in emission order.
    pub fn reports(&self) -> &[C] {
        match &self.log {
            None => &[],
            Some(log) => &log.reports[self.start as usize..self.end as usize],
        }
    }

    /// The log this window keeps alive, as [`CacheWeight::shared`] counts it.
    fn shared(&self) -> Option<(usize, usize)> {
        self.log.as_ref().map(|log| (Arc::as_ptr(log) as usize, log.weight))
    }
}

fn ty_weight(t: &Ty) -> usize {
    24 + match t {
        Ty::Unit | Ty::Num => 0,
        Ty::Tensor(a, b) | Ty::With(a, b) | Ty::Sum(a, b) | Ty::Lolli(a, b) => {
            ty_weight(a) + ty_weight(b)
        }
        Ty::Bang(_, t) | Ty::Monad(_, t) => 32 + ty_weight(t),
    }
}

impl CacheWeight for FnReport {
    fn weight(&self) -> usize {
        32 + self.name.len() + ty_weight(&self.inferred) + ty_weight(&self.assigned)
    }
}

impl CacheWeight for BackwardFnEntry {
    fn weight(&self) -> usize {
        32 + self.name.len() + ty_weight(&self.assigned) + 48 * self.inputs.len()
    }
}

impl CacheWeight for JudgmentEntry {
    fn weight(&self) -> usize {
        match self {
            JudgmentEntry::Forward(j) => 48 + 48 * j.env.len() + ty_weight(&j.ty),
            JudgmentEntry::Backward(j) => {
                48 + 80 * j.env.len()
                    + ty_weight(&j.ty)
                    + j.fun.as_ref().map_or(0, |ps| 88 * ps.len())
            }
        }
    }

    fn shared(&self) -> Option<(usize, usize)> {
        match self {
            JudgmentEntry::Forward(j) => j.fns.shared(),
            JudgmentEntry::Backward(j) => j.fns.shared(),
        }
    }
}

/// Reuse accounting for one memoized checking pass.
///
/// A replayed subtree judgment transitively stands in for every judgment
/// beneath it, so `reused` counts *all* judgments a from-scratch pass
/// would have computed that this pass did not (`total - recomputed`),
/// not merely the direct cache hits.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct JudgmentCounts {
    /// Judgments replayed from the memo table, directly or transitively.
    pub reused: u64,
    /// Judgments actually computed by this pass.
    pub recomputed: u64,
    /// Judgments a from-scratch pass computes (distinct reachable nodes).
    pub total: u64,
}

impl JudgmentCounts {
    /// `reused / total` in `[0, 1]` (1.0 for an empty program).
    pub fn reuse_ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.reused as f64 / self.total as f64
        }
    }
}

/// A byte-budgeted LRU table of subterm-level typing judgments, shared
/// by [`crate::infer_memoized`] and [`crate::infer_backward_memoized`].
///
/// Keys are `(subterm content fingerprint, scope-chain fingerprint)`
/// pairs — the chain is seeded with the caller's configuration
/// fingerprint, so one table safely serves both analysis modes and any
/// number of sessions. Values ([`JudgmentEntry`]) are store- and
/// arena-independent, which is what makes the table correct across
/// forked sessions with private arenas: a judgment memoized in one
/// session re-interns its types into whichever arena replays it.
#[derive(Debug)]
pub struct JudgmentCache {
    inner: ResultCache<JudgmentEntry>,
}

impl JudgmentCache {
    /// An empty cache holding at most ~`budget_bytes` of judgment weight.
    pub fn new(budget_bytes: usize) -> Self {
        JudgmentCache { inner: ResultCache::new(budget_bytes) }
    }

    /// Looks up the judgment memoized for a subterm under a scope chain.
    pub fn get(&mut self, node: u128, scope: u64) -> Option<JudgmentEntry> {
        self.inner.get(&CacheKey { program: node, config: scope })
    }

    /// Memoizes one judgment, evicting least-recently-used entries to
    /// respect the byte budget.
    pub fn insert(&mut self, node: u128, scope: u64, entry: JudgmentEntry) {
        self.inner.insert(CacheKey { program: node, config: scope }, entry);
    }

    /// Current counters (same semantics as [`ResultCache::stats`]).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// Which analysis produced (or is requesting) a cached result.
///
/// The forward judgment (NumFuzz: one rounding-error bound on the output)
/// and the backward judgment (Bean: one perturbation bound per input)
/// disagree on *everything* observable — accepted programs, reported
/// grades, diagnostics — so the mode is a mandatory component of every
/// configuration fingerprint: a warm forward entry must be a **miss** for
/// a backward request on the very same program, and vice versa.
/// [`ConfigFingerprint`] writes the mode discriminant first so the two
/// key spaces diverge at the first absorbed byte.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AnalysisMode {
    /// NumFuzz forward rounding-error inference ([`crate::infer`]).
    Forward,
    /// Bean backward-error inference ([`crate::infer_backward`]).
    Backward,
}

impl AnalysisMode {
    /// The stable discriminant byte absorbed into fingerprints.
    pub fn discriminant(self) -> u8 {
        match self {
            AnalysisMode::Forward => 1,
            AnalysisMode::Backward => 2,
        }
    }

    /// The protocol / CLI spelling (`"forward"` / `"backward"`).
    pub fn as_str(self) -> &'static str {
        match self {
            AnalysisMode::Forward => "forward",
            AnalysisMode::Backward => "backward",
        }
    }
}

/// Builder for the configuration half of a [`CacheKey`]: the analysis
/// mode plus whatever the caller's configuration contributes (signature,
/// format, rounding unit). Constructing one *requires* an
/// [`AnalysisMode`], making it impossible to mint a config fingerprint
/// that two analysis modes share.
///
/// ```
/// use numfuzz_core::cache::{AnalysisMode, ConfigFingerprint};
///
/// let mut fwd = ConfigFingerprint::new(AnalysisMode::Forward);
/// let mut bwd = ConfigFingerprint::new(AnalysisMode::Backward);
/// for f in [&mut fwd, &mut bwd] {
///     f.write_str("binary64");
///     f.write_u8(0); // instantiation: relative precision
/// }
/// assert_ne!(fwd.finish(), bwd.finish());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ConfigFingerprint {
    hasher: StableHasher,
}

impl ConfigFingerprint {
    /// Starts a configuration fingerprint for `mode` (absorbed first).
    pub fn new(mode: AnalysisMode) -> Self {
        let mut hasher = StableHasher::new();
        hasher.write_u8(mode.discriminant());
        ConfigFingerprint { hasher }
    }

    /// Absorbs one configuration byte (e.g. an instantiation tag).
    pub fn write_u8(&mut self, b: u8) {
        self.hasher.write_u8(b);
    }

    /// Absorbs a configuration integer.
    pub fn write_u64(&mut self, v: u64) {
        self.hasher.write_u64(v);
    }

    /// Absorbs a configuration integer.
    pub fn write_u32(&mut self, v: u32) {
        self.hasher.write_u32(v);
    }

    /// Absorbs a wide configuration digest (e.g. a hashed type tree).
    pub fn write_u128(&mut self, v: u128) {
        self.hasher.write_u128(v);
    }

    /// Absorbs a length-prefixed configuration string (format name,
    /// rounding unit rendering, signature digest…).
    pub fn write_str(&mut self, s: &str) {
        self.hasher.write_str(s);
    }

    /// The 64-bit configuration fingerprint for [`CacheKey::config`].
    pub fn finish(&self) -> u64 {
        self.hasher.finish64()
    }
}

/// The address of one memoized result: *what* was analyzed
/// ([`fingerprint_term`]) under *which* configuration (a caller-supplied
/// fingerprint of analysis mode, signature, format, rounding mode, and
/// rounding unit).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Content fingerprint of the program.
    pub program: u128,
    /// Fingerprint of the analyzer configuration.
    pub config: u64,
}

/// Running counters of one [`ResultCache`]. All counters are cumulative
/// over the cache's lifetime except `entries`/`bytes`, which are current.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values stored (including replacements).
    pub insertions: u64,
    /// Entries removed to respect the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate bytes currently resident (entry weights + overhead).
    pub bytes: usize,
    /// The configured byte budget.
    pub budget: usize,
}

/// Approximate in-memory size of a cached value, used to enforce the
/// byte budget. Estimates only need to be consistent (the cache accounts
/// removal with the weight it recorded at insert), not exact.
pub trait CacheWeight {
    /// Approximate heap footprint in bytes, not counting
    /// [`CacheWeight::shared`].
    fn weight(&self) -> usize;

    /// A heap block this value shares with other values, as `(address,
    /// bytes)`: a [`ResultCache`] counts its bytes once, for as long as
    /// any resident entry holds it. `None` (the default) for values that
    /// share nothing.
    fn shared(&self) -> Option<(usize, usize)> {
        None
    }
}

/// Fixed per-entry accounting overhead (key, recency index, map slots).
const ENTRY_OVERHEAD: usize = 96;

/// A byte-budgeted LRU map from [`CacheKey`] to a clonable analysis
/// outcome.
///
/// Recency is tracked with a monotonically increasing sequence number and
/// a `BTreeMap<seq, key>` index: `get` and `insert` are `O(log n)`, and
/// eviction pops the smallest live sequence number. The structure is not
/// internally synchronized — wrap it in a `Mutex` to share (the facade's
/// `AnalysisCache` does).
///
/// ```
/// use numfuzz_core::cache::{CacheKey, CacheWeight, ResultCache};
///
/// struct Blob(usize);
/// impl CacheWeight for Blob {
///     fn weight(&self) -> usize {
///         self.0
///     }
/// }
/// impl Clone for Blob {
///     fn clone(&self) -> Self {
///         Blob(self.0)
///     }
/// }
///
/// let key = |n| CacheKey { program: n, config: 0 };
/// let mut cache = ResultCache::new(4096);
/// assert!(cache.get(&key(1)).is_none()); // miss
/// cache.insert(key(1), Blob(100));
/// assert!(cache.get(&key(1)).is_some()); // hit
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct ResultCache<V> {
    budget: usize,
    map: SeededMap<CacheKey, Entry<V>>,
    recency: BTreeMap<u64, CacheKey>,
    /// Blocks resident entries share ([`CacheWeight::shared`]), by address:
    /// their bytes and how many resident entries hold them.
    shared: SeededMap<usize, (usize, usize)>,
    seq: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: usize,
    seq: u64,
}

impl<V: Clone + CacheWeight> ResultCache<V> {
    /// An empty cache that will hold at most ~`budget_bytes` of entry
    /// weight (plus fixed per-entry overhead).
    pub fn new(budget_bytes: usize) -> Self {
        ResultCache {
            budget: budget_bytes,
            map: SeededMap::default(),
            recency: BTreeMap::new(),
            shared: SeededMap::default(),
            seq: 0,
            bytes: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Looks up a result, counting a hit or a miss and refreshing the
    /// entry's recency on hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        self.get_if(key, |_| true)
    }

    /// [`ResultCache::get`] with an admission guard: a resident entry the
    /// guard rejects counts as a **miss** (the caller will recompute and
    /// re-insert), not a hit. The facade uses this to refuse replaying a
    /// memoized diagnostic for a program whose display fingerprint
    /// differs — same analysis outcome, different rendering.
    pub fn get_if(&mut self, key: &CacheKey, admit: impl FnOnce(&V) -> bool) -> Option<V> {
        match self.map.get_mut(key) {
            Some(entry) if admit(&entry.value) => {
                self.hits += 1;
                self.recency.remove(&entry.seq);
                self.seq += 1;
                entry.seq = self.seq;
                self.recency.insert(self.seq, *key);
                Some(entry.value.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a result, replacing any previous entry for the key, then
    /// evicts least-recently-used entries until the byte budget holds. A
    /// value heavier than the whole budget is evicted immediately (the
    /// insert is still counted).
    pub fn insert(&mut self, key: CacheKey, value: V) {
        self.insertions += 1;
        let weight = value.weight() + ENTRY_OVERHEAD;
        if let Some(old) = self.map.remove(&key) {
            self.recency.remove(&old.seq);
            self.release(old);
        }
        self.seq += 1;
        self.bytes += weight;
        if let Some((addr, bytes)) = value.shared() {
            let held = self.shared.entry(addr).or_insert((bytes, 0));
            if held.1 == 0 {
                self.bytes += bytes;
            }
            held.1 += 1;
        }
        self.map.insert(key, Entry { value, weight, seq: self.seq });
        self.recency.insert(self.seq, key);
        while self.bytes > self.budget {
            let Some((_, victim)) = self.recency.pop_first() else { break };
            let entry = self.map.remove(&victim).expect("recency index tracks the map");
            self.release(entry);
            self.evictions += 1;
        }
    }

    /// Uncounts a removed entry's bytes, and those of a shared block it
    /// was the last resident holder of.
    fn release(&mut self, entry: Entry<V>) {
        self.bytes -= entry.weight;
        let Some((addr, _)) = entry.value.shared() else { return };
        if let hash_map::Entry::Occupied(mut held) = self.shared.entry(addr) {
            held.get_mut().1 -= 1;
            if held.get().1 == 0 {
                self.bytes -= held.remove().0;
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, Signature};

    #[derive(Clone, Debug, PartialEq)]
    struct Blob(&'static str, usize);
    impl CacheWeight for Blob {
        fn weight(&self) -> usize {
            self.1
        }
    }

    fn key(n: u128) -> CacheKey {
        CacheKey { program: n, config: 7 }
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Budget fits exactly two entries of weight 100 (+overhead each).
        let mut cache = ResultCache::new(2 * (100 + ENTRY_OVERHEAD));
        cache.insert(key(1), Blob("a", 100));
        cache.insert(key(2), Blob("b", 100));
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(&key(1)), Some(Blob("a", 100)));
        cache.insert(key(3), Blob("c", 100));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= stats.budget);
        assert!(cache.get(&key(1)).is_some(), "recently used survives");
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn oversized_value_does_not_stick() {
        let mut cache = ResultCache::new(64);
        cache.insert(key(1), Blob("huge", 1 << 20));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn replacement_updates_bytes_exactly() {
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(key(1), Blob("a", 100));
        let before = cache.stats().bytes;
        cache.insert(key(1), Blob("a2", 300));
        assert_eq!(cache.stats().bytes, before + 200);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().insertions, 2);
    }

    /// An entry holding a shared block of `*0` bytes.
    #[derive(Clone, Debug)]
    struct Holder(Arc<usize>);
    impl CacheWeight for Holder {
        fn weight(&self) -> usize {
            10
        }
        fn shared(&self) -> Option<(usize, usize)> {
            Some((Arc::as_ptr(&self.0) as usize, *self.0))
        }
    }

    #[test]
    fn shared_block_counts_once_while_any_holder_is_resident() {
        let own = 10 + ENTRY_OVERHEAD;
        let block = Arc::new(1000);
        // Room for two holders and one block.
        let mut cache = ResultCache::new(2 * own + 1000);
        cache.insert(key(1), Holder(Arc::clone(&block)));
        cache.insert(key(2), Holder(Arc::clone(&block)));
        cache.insert(key(1), Holder(Arc::clone(&block)));
        assert_eq!(cache.stats().bytes, 2 * own + 1000);
        assert_eq!(cache.stats().evictions, 0);
        // A holder of another block evicts the LRU holder (key 2); key 1
        // still holds the first block.
        cache.insert(key(3), Holder(Arc::new(0)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes, 2 * own + 1000);
        // Evicting its last holder uncounts the block.
        cache.insert(key(4), Holder(Arc::new(0)));
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().bytes, 2 * own);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut cache = ResultCache::new(1 << 20);
        assert!(cache.get(&key(9)).is_none());
        cache.insert(key(9), Blob("x", 10));
        assert!(cache.get(&key(9)).is_some());
        assert!(cache.get(&key(10)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        // Different config under the same program fingerprint is a
        // different address.
        assert!(cache.get(&CacheKey { program: 9, config: 8 }).is_none());
    }

    #[test]
    fn fingerprint_is_alpha_invariant_and_content_sensitive() {
        let sig = Signature::relative_precision();
        // Same structure, differently named binders: same fingerprint.
        let a = compile("s = mul (2, 2); rnd s", &sig).unwrap();
        let b = compile("t = mul (2, 2); rnd t", &sig).unwrap();
        assert_eq!(
            fingerprint_term(&a.store, a.root, &[]),
            fingerprint_term(&b.store, b.root, &[])
        );
        // A different constant changes it.
        let c = compile("s = mul (2, 3); rnd s", &sig).unwrap();
        assert_ne!(
            fingerprint_term(&a.store, a.root, &[]),
            fingerprint_term(&c.store, c.root, &[])
        );
        // A different operation changes it.
        let d = compile("s = div (2, 2); rnd s", &sig).unwrap();
        assert_ne!(
            fingerprint_term(&a.store, a.root, &[]),
            fingerprint_term(&d.store, d.root, &[])
        );
    }

    #[test]
    fn fingerprint_is_stable_across_store_construction_order() {
        // The same program compiled after unrelated programs shared the
        // session arena must fingerprint identically: ids shift, content
        // does not.
        let sig = Signature::relative_precision();
        let arena = crate::CoreArena::new();
        let noise = crate::compile_in(arena.clone(), "rnd (|1, 2|)", &sig).unwrap();
        let _ = noise;
        let a = crate::compile_in(arena, "s = mul (2, 2); rnd s", &sig).unwrap();
        let b = compile("s = mul (2, 2); rnd s", &sig).unwrap();
        assert_eq!(
            fingerprint_term(&a.store, a.root, &[]),
            fingerprint_term(&b.store, b.root, &[])
        );
    }

    #[test]
    fn fingerprint_distinguishes_annotations() {
        let sig = Signature::relative_precision();
        let a = compile("inl {num} ()", &sig).unwrap();
        let b = compile("inl {unit} ()", &sig).unwrap();
        assert_ne!(
            fingerprint_term(&a.store, a.root, &[]),
            fingerprint_term(&b.store, b.root, &[])
        );
    }

    #[test]
    fn config_fingerprint_separates_analysis_modes() {
        // Identical configuration payloads under different modes must
        // produce different addresses — a warm forward entry can never
        // answer a backward request.
        let payload = |mode| {
            let mut f = ConfigFingerprint::new(mode);
            f.write_str("binary64");
            f.write_str("nearest-even");
            f.write_u8(1);
            f.finish()
        };
        assert_ne!(payload(AnalysisMode::Forward), payload(AnalysisMode::Backward));
        // And the fingerprint is deterministic per mode.
        assert_eq!(payload(AnalysisMode::Forward), payload(AnalysisMode::Forward));
        assert_eq!(AnalysisMode::Forward.as_str(), "forward");
        assert_eq!(AnalysisMode::Backward.as_str(), "backward");
    }

    #[test]
    fn stable_hasher_is_deterministic() {
        let mut h1 = StableHasher::new();
        h1.write_str("numfuzz");
        h1.write_u32(42);
        let mut h2 = StableHasher::new();
        h2.write_str("numfuzz");
        h2.write_u32(42);
        assert_eq!(h1.finish128(), h2.finish128());
        assert_eq!(h1.finish64(), h2.finish64());
        // Length prefixing: ("ab","c") != ("a","bc").
        let mut h3 = StableHasher::new();
        h3.write_str("ab");
        h3.write_str("c");
        let mut h4 = StableHasher::new();
        h4.write_str("a");
        h4.write_str("bc");
        assert_ne!(h3.finish128(), h4.finish128());
    }
}
