//! Generators for the large benchmarks of the paper's Table 4.
//!
//! These build arena terms directly (no parsing): `MatrixMultiply128` is
//! 4.2 million floating-point operations and tens of millions of AST
//! nodes, which is exactly what the arena + iterative checker are for.
//! Every generator returns the term, its operation count, and the exact
//! grade coefficient the paper's Λnum column reports.

use numfuzz_core::{CoreArena, TermId, TermStore, Ty, VarId};
use numfuzz_exact::Rational;

/// A generated large benchmark.
#[derive(Debug)]
pub struct Generated {
    /// Benchmark name (Table 4 row).
    pub name: String,
    /// The arena.
    pub store: TermStore,
    /// Root term (type `M[...]num`).
    pub root: TermId,
    /// Free variables with types (empty for constant-input benchmarks).
    pub free: Vec<(VarId, Ty)>,
    /// Number of floating-point operations (Table 4 Ops column).
    pub ops: usize,
    /// Expected grade coefficient (×`eps`).
    pub expected_eps_coeff: Rational,
}

/// `c = term; let x = c; body` — monadic sequencing with the Fig. 1 value
/// restriction respected (the plain `let` names the computation).
fn bind_named(store: &mut TermStore, x: VarId, term: TermId, body: TermId) -> TermId {
    if store.is_value(term) {
        return store.let_bind(x, term, body);
    }
    let c = store.fresh_var("c");
    let cv = store.var(c);
    let bind = store.let_bind(x, cv, body);
    store.let_in(c, term, bind)
}

/// Deterministic positive pseudo-random rationals (LCG), so generated
/// benchmarks are reproducible without RNG dependencies in this crate.
struct Lcg(u64);

impl Lcg {
    fn next_rat(&mut self) -> Rational {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // In (0, 16): positive, away from zero.
        let num = 1 + (self.0 >> 33) % 65_536;
        Rational::ratio(num as i64, 4096)
    }
}

/// `rnd`-per-step FMA Horner evaluation of degree `n` at a free `x`
/// (paper Table 4 rows Horner50/75/100; also the Table 3 Horner family).
///
/// Grade: `n·eps`; ops: `2n`.
pub fn horner(n: usize) -> Generated {
    horner_in(CoreArena::new(), n)
}

/// [`horner`] built into a store sharing `tys` (one session's arena).
pub fn horner_in(tys: CoreArena, n: usize) -> Generated {
    let mut store = TermStore::with_arena(tys);
    let x = store.fresh_var("x");
    let mut rng = Lcg(0x5eed + n as u64);
    // acc := a_n; acc := rnd(acc*x + a_i) for i = n-1 .. 0.
    let first = store.num(rng.next_rat());
    let acc0 = store.fresh_var("acc0");
    let mut acc = acc0;
    // Bind chain built innermost-last: collect steps then fold.
    let mut steps: Vec<(VarId, TermId)> = vec![(acc0, { store.ret(first) })];
    for i in 0..n {
        let next = store.fresh_var(&format!("acc{}", i + 1));
        let xv = store.var(x);
        let av = store.var(acc);
        let prod_var = store.fresh_var("m");
        let pair = store.pair_tensor(av, xv);
        let mul = store.op("mul", pair);
        let coeffv = store.num(rng.next_rat());
        let mv = store.var(prod_var);
        let sum_pair = store.pair_with(mv, coeffv);
        let add = store.op("add", sum_pair);
        let s = store.fresh_var("s");
        let sv = store.var(s);
        let rnd = store.rnd(sv);
        let fma_body = {
            let inner = store.let_in(s, add, rnd);
            store.let_in(prod_var, mul, inner)
        };
        steps.push((next, fma_body));
        acc = next;
    }
    // Fold: let-bind each step (naming the computation first, so the
    // let-bind scrutinee is a value per Fig. 1), final body returns the
    // accumulator; each acc_i is used once at sensitivity 1.
    let last = steps.last().expect("nonempty").0;
    let lv = store.var(last);
    let mut body = store.ret(lv);
    for (var, term) in steps.into_iter().rev() {
        body = bind_named(&mut store, var, term, body);
    }
    Generated {
        name: format!("Horner{n}"),
        store,
        root: body,
        free: vec![(x, Ty::Num)],
        ops: 2 * n,
        expected_eps_coeff: Rational::from_int(n as i64),
    }
}

/// Serial summation of `terms` pseudo-random positive constants with a
/// rounding after every addition (Table 4 SerialSum: 1024 terms, 1023
/// ops, grade `(terms-1)·eps`).
pub fn serial_sum(terms: usize) -> Generated {
    serial_sum_in(CoreArena::new(), terms)
}

/// [`serial_sum`] built into a store sharing `tys`.
pub fn serial_sum_in(tys: CoreArena, terms: usize) -> Generated {
    assert!(terms >= 2);
    let mut store = TermStore::with_arena(tys);
    let mut rng = Lcg(0xacc);
    let mut acc_var = store.fresh_var("s1");
    let first = store.num(rng.next_rat());
    let mut steps: Vec<(VarId, TermId)> = vec![(acc_var, store.ret(first))];
    for i in 1..terms {
        let next = store.fresh_var(&format!("s{}", i + 1));
        let av = store.var(acc_var);
        let kv = store.num(rng.next_rat());
        let pair = store.pair_with(av, kv);
        let add = store.op("add", pair);
        let s = store.fresh_var("t");
        let sv = store.var(s);
        let rnd = store.rnd(sv);
        let step = store.let_in(s, add, rnd);
        steps.push((next, step));
        acc_var = next;
    }
    let lv = store.var(acc_var);
    let mut body = store.ret(lv);
    for (var, term) in steps.into_iter().rev() {
        body = bind_named(&mut store, var, term, body);
    }
    Generated {
        name: format!("SerialSum({terms})"),
        store,
        root: body,
        free: Vec::new(),
        ops: terms - 1,
        expected_eps_coeff: Rational::from_int(terms as i64 - 1),
    }
}

/// `n×n` matrix multiplication over pseudo-random positive constants,
/// every multiply and add rounded (Table 4 MatrixMultiply rows).
///
/// All `n²` dot products are computed; the program returns the last
/// element, whose grade `(2n-1)·eps` is the element-wise bound the paper
/// reports. Ops: `n²·(2n-1)`.
pub fn matrix_multiply(n: usize) -> Generated {
    matrix_multiply_in(CoreArena::new(), n)
}

/// [`matrix_multiply`] built into a store sharing `tys`.
pub fn matrix_multiply_in(tys: CoreArena, n: usize) -> Generated {
    assert!(n >= 1);
    let mut store = TermStore::with_arena(tys);
    let mut rng = Lcg(0x3a7 + n as u64);
    let a: Vec<Vec<Rational>> = (0..n).map(|_| (0..n).map(|_| rng.next_rat()).collect()).collect();
    let b: Vec<Vec<Rational>> = (0..n).map(|_| (0..n).map(|_| rng.next_rat()).collect()).collect();

    // One dot product: binds of rounded mul / rounded add steps, value is
    // the final accumulator (a monadic computation of grade (2n-1)eps).
    let dot = |store: &mut TermStore, i: usize, j: usize| -> TermId {
        let mut steps: Vec<(VarId, TermId)> = Vec::with_capacity(2 * n);
        let mut acc: Option<VarId> = None;
        for k in 0..n {
            // m_k = rnd(a[i][k] * b[k][j])
            let m = store.fresh_var("m");
            let av = store.num(a[i][k].clone());
            let bv = store.num(b[k][j].clone());
            let pair = store.pair_tensor(av, bv);
            let mul = store.op("mul", pair);
            let t = store.fresh_var("t");
            let tv = store.var(t);
            let rnd = store.rnd(tv);
            let mul_step = store.let_in(t, mul, rnd);
            steps.push((m, mul_step));
            acc = Some(match acc {
                None => m,
                Some(prev) => {
                    // acc' = rnd(acc + m_k)
                    let s = store.fresh_var("acc");
                    let pv = store.var(prev);
                    let mv = store.var(m);
                    let pair = store.pair_with(pv, mv);
                    let add = store.op("add", pair);
                    let t = store.fresh_var("t");
                    let tv = store.var(t);
                    let rnd = store.rnd(tv);
                    let add_step = store.let_in(t, add, rnd);
                    steps.push((s, add_step));
                    s
                }
            });
        }
        let last = acc.expect("n >= 1");
        let lv = store.var(last);
        let mut body = store.ret(lv);
        for (var, term) in steps.into_iter().rev() {
            body = bind_named(store, var, term, body);
        }
        body
    };

    // Compute every element; earlier elements are let-bound (and unused),
    // the last one is the program's result, carrying the element-wise
    // grade.
    let mut elements: Vec<(VarId, TermId)> = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            if i == n - 1 && j == n - 1 {
                break;
            }
            let e = dot(&mut store, i, j);
            let v = store.fresh_var(&format!("c{i}_{j}"));
            elements.push((v, e));
        }
    }
    let mut body = dot(&mut store, n - 1, n - 1);
    for (var, term) in elements.into_iter().rev() {
        body = store.let_in(var, term, body);
    }
    Generated {
        name: format!("MatrixMultiply{n}"),
        store,
        root: body,
        free: Vec::new(),
        ops: n * n * (2 * n - 1),
        expected_eps_coeff: Rational::from_int(2 * n as i64 - 1),
    }
}

/// Degree-`n` polynomial evaluated the naive way (fresh power chains per
/// monomial), every operation rounded — the Table 4 `Poly50` row.
///
/// Term `i >= 2` costs `i` roundings (`i-1` for the power chain, one for
/// the coefficient), term 1 costs one, and each of the `n` additions one:
/// ops = grade coefficient = `Σ_{i=2..n} i + 1 + n`.
pub fn poly_naive(n: usize) -> Generated {
    poly_naive_in(CoreArena::new(), n)
}

/// [`poly_naive`] built into a store sharing `tys`.
pub fn poly_naive_in(tys: CoreArena, n: usize) -> Generated {
    assert!(n >= 2);
    let mut store = TermStore::with_arena(tys);
    let x = store.fresh_var("x");
    let mut rng = Lcg(0x90137 + n as u64);
    let mut steps: Vec<(VarId, TermId)> = Vec::new();

    // Rounded multiply of two value terms.
    let rmul = |store: &mut TermStore, lhs: TermId, rhs: TermId| -> TermId {
        let pair = store.pair_tensor(lhs, rhs);
        let mul = store.op("mul", pair);
        let t = store.fresh_var("t");
        let tv = store.var(t);
        let rnd = store.rnd(tv);
        store.let_in(t, mul, rnd)
    };

    // term_i variables, i = 1..n (term 0 is an exact constant).
    let mut terms: Vec<VarId> = Vec::new();
    for i in 1..=n {
        // p_1 = x; p_k = rnd(p_{k-1} * x) for k = 2..i; t_i = rnd(a_i * p_i).
        let mut power: Option<VarId> = None;
        for _ in 2..=i {
            let prev: TermId = match power {
                None => store.var(x),
                Some(pv) => store.var(pv),
            };
            let xv = store.var(x);
            let m = rmul(&mut store, prev, xv);
            let pvar = store.fresh_var("p");
            steps.push((pvar, m));
            power = Some(pvar);
        }
        let coeff = store.num(rng.next_rat());
        let base = match power {
            None => store.var(x), // i == 1
            Some(pv) => store.var(pv),
        };
        let t = rmul(&mut store, coeff, base);
        let tvar = store.fresh_var(&format!("term{i}"));
        steps.push((tvar, t));
        terms.push(tvar);
    }
    // Accumulate: acc_0 = a_0 (exact); acc_i = rnd(acc + term_i).
    let a0 = store.num(rng.next_rat());
    let acc0 = store.fresh_var("acc");
    steps.push((acc0, store.ret(a0)));
    let mut acc = acc0;
    for t in terms {
        let av = store.var(acc);
        let tv = store.var(t);
        let pair = store.pair_with(av, tv);
        let add = store.op("add", pair);
        let s = store.fresh_var("t");
        let sv = store.var(s);
        let rnd = store.rnd(sv);
        let step = store.let_in(s, add, rnd);
        let next = store.fresh_var("acc");
        steps.push((next, step));
        acc = next;
    }
    let lv = store.var(acc);
    let mut body = store.ret(lv);
    for (var, term) in steps.into_iter().rev() {
        body = bind_named(&mut store, var, term, body);
    }
    let coeff_total: i64 = (2..=n as i64).sum::<i64>() + 1 + n as i64;
    Generated {
        name: format!("Poly{n}"),
        store,
        root: body,
        free: vec![(x, Ty::Num)],
        ops: coeff_total as usize,
        expected_eps_coeff: Rational::from_int(coeff_total),
    }
}

/// The paper's published Table 4 values: (name, ops, Λnum bound, Std.
/// bound, Λnum seconds). `SerialSum` is [`serial_sum`]`(1024)`.
pub const PAPER_TABLE4: &[(&str, usize, &str, &str, &str)] = &[
    ("Horner50", 100, "1.11e-14", "1.11e-14", "9e-03"),
    ("MatrixMultiply4", 112, "1.55e-15", "8.88e-16", "3e-03"),
    ("Horner75", 150, "1.66e-14", "1.66e-14", "2e-02"),
    ("Horner100", 200, "2.22e-14", "2.22e-14", "4e-02"),
    ("SerialSum", 1023, "2.27e-13", "2.27e-13", "5"),
    ("Poly50", 1325, "2.94e-13", "-", "2.12"),
    ("MatrixMultiply16", 7936, "6.88e-15", "3.55e-15", "4e-02"),
    ("MatrixMultiply64", 520192, "2.82e-14", "1.42e-14", "10"),
    ("MatrixMultiply128", 4177920, "5.66e-14", "2.84e-14", "1080"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use numfuzz_core::{infer, Grade, Signature};

    fn grade_of(g: &Generated) -> (String, String) {
        assert!(g.store.conforms_to_value_restriction(g.root), "{}: Fig. 1 syntax", g.name);
        let sig = Signature::relative_precision();
        let res =
            infer(&g.store, &sig, g.root, &g.free).unwrap_or_else(|e| panic!("{}: {e}", g.name));
        let expected = Ty::monad(Grade::symbol("eps").scale(&g.expected_eps_coeff), Ty::Num);
        (res.root.ty.to_string(), expected.to_string())
    }

    #[test]
    fn horner_grades() {
        for n in [2, 5, 50] {
            let g = horner(n);
            let (got, want) = grade_of(&g);
            assert_eq!(got, want, "Horner{n}");
            assert_eq!(g.ops, 2 * n);
        }
    }

    #[test]
    fn serial_sum_grade() {
        let g = serial_sum(64);
        let (got, want) = grade_of(&g);
        assert_eq!(got, want);
        assert_eq!(g.ops, 63);
    }

    #[test]
    fn matrix_multiply_grade() {
        let g = matrix_multiply(4);
        let (got, want) = grade_of(&g);
        // (2·4-1) = 7 eps: the paper's 1.55e-15 for MatrixMultiply4.
        assert_eq!(got, want);
        assert_eq!(got, "M[7*eps]num");
        assert_eq!(g.ops, 112);
    }

    #[test]
    fn poly_grade_matches_table4() {
        // Poly50: 1325 ops and 1325·eps = 2.94e-13 (Table 4).
        let g = poly_naive(50);
        assert_eq!(g.ops, 1325);
        let (got, want) = grade_of(&g);
        assert_eq!(got, want);
        let bound = g.expected_eps_coeff.mul(&Rational::pow2(-52));
        assert_eq!(bound.to_sci_string(3), "2.94e-13");
    }

    #[test]
    fn table4_bounds_render_like_the_paper() {
        let u = Rational::pow2(-52);
        let rows: &[(usize, &str)] = &[(50, "1.11e-14"), (100, "2.22e-14")];
        for (n, s) in rows {
            let g = horner(*n);
            assert_eq!(g.expected_eps_coeff.mul(&u).to_sci_string(3), *s, "Horner{n}");
        }
        let ss = serial_sum(1024);
        assert_eq!(ss.expected_eps_coeff.mul(&u).to_sci_string(3), "2.27e-13");
        for (n, s) in [(4usize, "1.55e-15"), (16, "6.88e-15"), (64, "2.82e-14")] {
            let g = matrix_multiply(n.min(4)); // grade formula only
            let _ = g;
            let coeff = Rational::from_int(2 * n as i64 - 1);
            assert_eq!(coeff.mul(&u).to_sci_string(3), s, "MatrixMultiply{n}");
        }
    }
}
