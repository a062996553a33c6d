//! Typing environments: finite maps from variables to sensitivity grades.
//!
//! The checker manipulates environments constantly (every rule of Fig. 10
//! sums, scales, or joins them), and Table 4 programs have hundreds of
//! thousands of live variables, so [`Env`] is adaptive: the common tiny
//! environments (empty, or a handful of variables along a `let` chain)
//! live inline without touching a hash map — a one-variable environment
//! allocates nothing at all — and only environments past a spill
//! threshold move to a `HashMap`, where merges use the classic
//! smaller-into-larger trick to keep a whole-program check quasi-linear.
//! Absent variables implicitly carry grade `0`; zero entries are not
//! stored.

use crate::grade::{Coeffect, Grade};
use crate::intern::SeededMap;
use crate::term::VarId;

/// Inline capacity: environments at most this large stay a flat vector
/// (linear scans beat hashing at this size).
const SPILL: usize = 16;

/// A sensitivity environment `Γ` (variable types are tracked separately by
/// the checker; two environments over the same program always agree on
/// types because binders are alpha-renamed).
#[derive(Clone, Debug, Default)]
pub struct Env {
    rep: Rep,
}

#[derive(Clone, Debug, Default)]
enum Rep {
    /// No entries (allocation-free).
    #[default]
    Empty,
    /// Exactly one entry (allocation-free).
    One(VarId, Grade),
    /// 2..=SPILL entries, unsorted, no duplicate variables.
    Small(Vec<(VarId, Grade)>),
    /// Past the spill threshold.
    Large(SeededMap<VarId, Grade>),
}

/// Consumes a representation into its entries.
fn into_entries(rep: Rep) -> Box<dyn Iterator<Item = (VarId, Grade)>> {
    match rep {
        Rep::Empty => Box::new(std::iter::empty()),
        Rep::One(x, g) => Box::new(std::iter::once((x, g))),
        Rep::Small(v) => Box::new(v.into_iter()),
        Rep::Large(m) => Box::new(m.into_iter()),
    }
}

impl Env {
    /// The empty environment.
    pub fn empty() -> Self {
        Env::default()
    }

    /// `{ x :_g }`.
    pub fn singleton(x: VarId, g: Grade) -> Self {
        if g.is_zero() {
            Env::empty()
        } else {
            Env { rep: Rep::One(x, g) }
        }
    }

    fn get_ref(&self, x: VarId) -> Option<&Grade> {
        match &self.rep {
            Rep::Empty => None,
            Rep::One(y, g) => (*y == x).then_some(g),
            Rep::Small(v) => v.iter().find(|(y, _)| *y == x).map(|(_, g)| g),
            Rep::Large(m) => m.get(&x),
        }
    }

    /// The sensitivity of `x` (zero when absent).
    pub fn get(&self, x: VarId) -> Grade {
        self.get_ref(x).cloned().unwrap_or_else(Grade::zero)
    }

    /// Removes `x`, returning its sensitivity (zero when absent).
    pub fn remove(&mut self, x: VarId) -> Grade {
        match &mut self.rep {
            Rep::Empty => Grade::zero(),
            Rep::One(y, _) => {
                if *y == x {
                    match std::mem::take(&mut self.rep) {
                        Rep::One(_, g) => g,
                        _ => unreachable!(),
                    }
                } else {
                    Grade::zero()
                }
            }
            Rep::Small(v) => match v.iter().position(|(y, _)| *y == x) {
                None => Grade::zero(),
                Some(i) => {
                    let (_, g) = v.swap_remove(i);
                    if v.len() == 1 {
                        let (y, h) = v.pop().expect("len checked");
                        self.rep = Rep::One(y, h);
                    }
                    g
                }
            },
            Rep::Large(m) => m.remove(&x).unwrap_or_else(Grade::zero),
        }
    }

    /// Number of variables with nonzero sensitivity.
    pub fn len(&self) -> usize {
        match &self.rep {
            Rep::Empty => 0,
            Rep::One(..) => 1,
            Rep::Small(v) => v.len(),
            Rep::Large(m) => m.len(),
        }
    }

    /// Whether no variable has nonzero sensitivity.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(variable, grade)` pairs (unordered).
    pub fn iter(&self) -> Box<dyn Iterator<Item = (&VarId, &Grade)> + '_> {
        match &self.rep {
            Rep::Empty => Box::new(std::iter::empty()),
            Rep::One(x, g) => Box::new(std::iter::once((x, g))),
            Rep::Small(v) => Box::new(v.iter().map(|(x, g)| (x, g))),
            Rep::Large(m) => Box::new(m.iter()),
        }
    }

    /// Union-merge, applying `f` where both sides bind a variable. Both
    /// `f`s used here (`add`, `sup`) are commutative and cannot produce a
    /// zero from nonzero non-negative inputs, so the no-zeros invariant
    /// is preserved without re-checking.
    fn merge(self, other: Env, f: impl Fn(&Grade, &Grade) -> Grade) -> Env {
        if other.is_empty() {
            return self;
        }
        if self.is_empty() {
            return other;
        }
        // Hash-map path: merge the smaller side into the larger map.
        let (big, small) = if self.len() >= other.len() { (self, other) } else { (other, self) };
        if let Rep::Large(mut m) = big.rep {
            for (x, g) in into_entries(small.rep) {
                match m.entry(x) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let merged = f(e.get(), &g);
                        *e.get_mut() = merged;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(g);
                    }
                }
            }
            return Env { rep: Rep::Large(m) };
        }
        // Inline path: linear merge into the bigger vector.
        let mut v: Vec<(VarId, Grade)> = match big.rep {
            Rep::One(x, g) => vec![(x, g)],
            Rep::Small(v) => v,
            _ => unreachable!("empty and large handled above"),
        };
        for (x, g) in into_entries(small.rep) {
            match v.iter_mut().find(|(y, _)| *y == x) {
                Some(e) => e.1 = f(&e.1, &g),
                None => v.push((x, g)),
            }
        }
        Env::from_vec(v)
    }

    fn from_vec(v: Vec<(VarId, Grade)>) -> Env {
        match v.len() {
            0 => Env::empty(),
            1 => {
                let (x, g) = v.into_iter().next().expect("len checked");
                Env { rep: Rep::One(x, g) }
            }
            n if n > SPILL => Env { rep: Rep::Large(v.into_iter().collect()) },
            _ => Env { rep: Rep::Small(v) },
        }
    }

    /// Environment sum `Γ + Δ` (pointwise grade addition), consuming both
    /// and merging the smaller into the larger.
    pub fn add(self, other: Env) -> Env {
        self.merge(other, |a, b| a.add(b))
    }

    /// Environment scaling `s * Γ`. Returns `None` when a product of two
    /// genuinely symbolic grades would be required.
    pub fn scale(self, s: &Grade) -> Option<Env> {
        if let Some(c) = s.as_constant() {
            if c == &numfuzz_exact::Rational::one() {
                return Some(self);
            }
        }
        if s.is_zero() {
            return Some(Env::empty()); // 0 · ∞ = 0: everything drops out
        }
        let mut v = Vec::with_capacity(self.len().min(SPILL + 1));
        let mut m: Option<SeededMap<VarId, Grade>> = None;
        if let Rep::Large(_) = self.rep {
            m = Some(SeededMap::with_capacity_and_hasher(self.len(), Default::default()));
        }
        for (x, g) in into_entries(self.rep) {
            let scaled = s.checked_mul(&g)?;
            if scaled.is_zero() {
                continue;
            }
            match &mut m {
                Some(m) => {
                    m.insert(x, scaled);
                }
                None => v.push((x, scaled)),
            }
        }
        Some(match m {
            Some(m) => Env { rep: Rep::Large(m) },
            None => Env::from_vec(v),
        })
    }

    /// Rebuilds an environment from raw entries (judgment-cache replay).
    /// Zero grades are dropped to preserve the no-zeros invariant;
    /// entries must not repeat a variable.
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (VarId, Grade)>) -> Env {
        Env::from_vec(entries.into_iter().filter(|(_, g)| !g.is_zero()).collect())
    }

    /// Pointwise least upper bound `max(Γ, Δ)` (absent = 0).
    pub fn sup(self, other: Env) -> Env {
        self.merge(other, |a, b| a.sup(b))
    }

    /// Pointwise comparison: `self(x) <= other(x)` for every variable.
    pub fn le(&self, other: &Env) -> bool {
        self.iter().all(|(x, g)| match other.get_ref(*x) {
            Some(h) => g.le(h),
            None => g.is_zero(),
        })
    }
}

/// A backward-error context Δ: a finite map from variables to
/// [`Coeffect`]s, as manipulated by Bean's linear judgment.
///
/// Unlike [`Env`], *presence* matters independently of the grades: an
/// entry records that the variable has been consumed (exactly once —
/// [`BackwardEnv::merge_disjoint`] rejects overlap, which is how general
/// contraction is caught), and a zero-error entry is still an entry.
/// Entries are kept sorted by [`VarId`] so iteration order — and
/// therefore every rendered report — is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackwardEnv {
    /// Sorted by variable id; no duplicates.
    entries: Vec<(VarId, Coeffect)>,
}

impl BackwardEnv {
    /// The empty context.
    pub fn empty() -> Self {
        BackwardEnv::default()
    }

    /// The context consuming exactly `x`, at the identity coeffect.
    pub fn consume(x: VarId) -> Self {
        BackwardEnv { entries: vec![(x, Coeffect::var())] }
    }

    /// Number of consumed variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no variable is consumed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The coeffect of `x`, if consumed.
    pub fn get(&self, x: VarId) -> Option<&Coeffect> {
        self.entries.binary_search_by_key(&x, |(v, _)| *v).ok().map(|i| &self.entries[i].1)
    }

    /// Removes `x`, returning its coeffect if it was consumed.
    pub fn remove(&mut self, x: VarId) -> Option<Coeffect> {
        match self.entries.binary_search_by_key(&x, |(v, _)| *v) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Iterates in ascending [`VarId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Coeffect)> {
        self.entries.iter().map(|(v, c)| (v, c))
    }

    /// Linearity-enforcing union: both sides' consumptions, or the first
    /// variable consumed by *both* (a duplicated use).
    ///
    /// # Errors
    ///
    /// The offending [`VarId`] on overlap.
    pub fn merge_disjoint(self, other: Self) -> Result<Self, VarId> {
        let (mut a, mut b) =
            (self.entries.into_iter().peekable(), other.entries.into_iter().peekable());
        let mut out = Vec::with_capacity(a.len() + b.len());
        loop {
            match (a.peek(), b.peek()) {
                (Some((va, _)), Some((vb, _))) => match va.cmp(vb) {
                    std::cmp::Ordering::Equal => return Err(*va),
                    std::cmp::Ordering::Less => out.push(a.next().expect("peeked")),
                    std::cmp::Ordering::Greater => out.push(b.next().expect("peeked")),
                },
                (Some(_), None) => out.push(a.next().expect("peeked")),
                (None, Some(_)) => out.push(b.next().expect("peeked")),
                (None, None) => return Ok(BackwardEnv { entries: out }),
            }
        }
    }

    /// Pointwise least upper bound of two contexts that must consume the
    /// *same* variables (Bean's `case` branches).
    ///
    /// # Errors
    ///
    /// The first variable consumed by one side only.
    pub fn sup_same_support(self, other: Self) -> Result<Self, VarId> {
        let (mut a, mut b) =
            (self.entries.into_iter().peekable(), other.entries.into_iter().peekable());
        let mut out = Vec::with_capacity(a.len() + b.len());
        loop {
            match (a.peek(), b.peek()) {
                (Some((va, _)), Some((vb, _))) => match va.cmp(vb) {
                    std::cmp::Ordering::Equal => {
                        let (v, ca) = a.next().expect("peeked");
                        let (_, cb) = b.next().expect("peeked");
                        out.push((v, ca.sup(&cb)));
                    }
                    std::cmp::Ordering::Less => return Err(*va),
                    std::cmp::Ordering::Greater => return Err(*vb),
                },
                (Some((va, _)), None) => return Err(*va),
                (None, Some((vb, _))) => return Err(*vb),
                (None, None) => return Ok(BackwardEnv { entries: out }),
            }
        }
    }

    /// Rebuilds a context from raw entries (judgment-cache replay).
    /// Entries are re-sorted; they must not repeat a variable.
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (VarId, Coeffect)>) -> Self {
        let mut entries: Vec<_> = entries.into_iter().collect();
        entries.sort_by_key(|(v, _)| *v);
        BackwardEnv { entries }
    }

    /// Applies a coeffect transformer to every entry (`charge`, `amplify`,
    /// `seq` against one binder). `None` from the transformer (a
    /// non-linear grade product) aborts the whole update.
    pub fn try_update(self, f: impl Fn(&Coeffect) -> Option<Coeffect>) -> Option<Self> {
        let mut entries = self.entries;
        for (_, c) in entries.iter_mut() {
            *c = f(c)?;
        }
        Some(BackwardEnv { entries })
    }
}

impl PartialEq for Env {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.iter().all(|(x, g)| other.get_ref(*x).is_some_and(|h| g == h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numfuzz_exact::Rational;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn g(n: i64) -> Grade {
        Grade::constant(Rational::from_int(n))
    }

    #[test]
    fn add_sums_grades() {
        let a = Env::singleton(v(0), g(1)).add(Env::singleton(v(1), g(2)));
        let b = Env::singleton(v(0), g(3));
        let sum = a.add(b);
        assert_eq!(sum.get(v(0)), g(4));
        assert_eq!(sum.get(v(1)), g(2));
        assert_eq!(sum.get(v(2)), Grade::zero());
        assert_eq!(sum.len(), 2);
    }

    #[test]
    fn scale_zero_and_one() {
        let e = Env::singleton(v(0), Grade::infinite());
        assert_eq!(e.clone().scale(&Grade::zero()).unwrap(), Env::empty());
        assert_eq!(e.clone().scale(&Grade::one()).unwrap(), e);
        let doubled = Env::singleton(v(0), g(3)).scale(&g(2)).unwrap();
        assert_eq!(doubled.get(v(0)), g(6));
        // Symbolic * symbolic is rejected.
        let sym = Env::singleton(v(0), Grade::symbol("eps"));
        assert!(sym.scale(&Grade::symbol("u")).is_none());
    }

    #[test]
    fn sup_pointwise() {
        let a = Env::singleton(v(0), g(1)).add(Env::singleton(v(1), g(5)));
        let b = Env::singleton(v(0), g(3));
        let s = a.sup(b);
        assert_eq!(s.get(v(0)), g(3));
        assert_eq!(s.get(v(1)), g(5));
    }

    #[test]
    fn le_pointwise() {
        let a = Env::singleton(v(0), g(1));
        let b = Env::singleton(v(0), g(2)).add(Env::singleton(v(1), g(1)));
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(Env::empty().le(&a));
    }

    #[test]
    fn remove_returns_grade() {
        let mut e = Env::singleton(v(0), g(7));
        assert_eq!(e.remove(v(0)), g(7));
        assert_eq!(e.remove(v(0)), Grade::zero());
        assert!(e.is_empty());
    }

    #[test]
    fn spills_to_map_and_stays_correct() {
        // Build an environment well past the inline capacity and verify
        // every entry, through adds in both directions.
        let mut e = Env::empty();
        for i in 0..(2 * SPILL as u32) {
            e = e.add(Env::singleton(v(i), g(i as i64 + 1)));
        }
        assert_eq!(e.len(), 2 * SPILL);
        for i in 0..(2 * SPILL as u32) {
            assert_eq!(e.get(v(i)), g(i as i64 + 1));
        }
        // Merging small into large applies the op on collisions.
        let bump = Env::singleton(v(3), g(10));
        let summed = e.clone().add(bump);
        assert_eq!(summed.get(v(3)), g(14));
        // Removing down from the map still works.
        let mut shrunk = summed;
        for i in 0..(2 * SPILL as u32) {
            shrunk.remove(v(i));
        }
        assert!(shrunk.is_empty());
        // Equality is order-insensitive across representations.
        let a = Env::singleton(v(0), g(1)).add(Env::singleton(v(1), g(2)));
        let b = Env::singleton(v(1), g(2)).add(Env::singleton(v(0), g(1)));
        assert_eq!(a, b);
    }

    #[test]
    fn backward_env_enforces_linearity() {
        let a = BackwardEnv::consume(v(0)).merge_disjoint(BackwardEnv::consume(v(2))).unwrap();
        let b = BackwardEnv::consume(v(1));
        let merged = a.clone().merge_disjoint(b).unwrap();
        assert_eq!(merged.len(), 3);
        // Sorted iteration.
        let order: Vec<u32> = merged.iter().map(|(x, _)| x.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
        // Overlap is a duplicated use, reporting the offender.
        assert_eq!(merged.clone().merge_disjoint(BackwardEnv::consume(v(2))), Err(v(2)));
        // Same-support sup accepts equal supports and rejects others.
        assert!(merged.clone().sup_same_support(merged.clone()).is_ok());
        assert_eq!(merged.clone().sup_same_support(a).unwrap_err(), v(1));
        // Removal reports presence.
        let mut m = merged;
        assert!(m.remove(v(1)).is_some());
        assert!(m.remove(v(1)).is_none());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn backward_env_updates_every_entry() {
        let eps = Grade::symbol("eps");
        let env = BackwardEnv::consume(v(0)).merge_disjoint(BackwardEnv::consume(v(1))).unwrap();
        let charged = env.try_update(|c| c.charge(&eps)).unwrap();
        for (_, c) in charged.iter() {
            assert_eq!(c.err, eps);
        }
        assert!(BackwardEnv::empty().try_update(|c| c.charge(&eps)).unwrap().is_empty());
    }
}
