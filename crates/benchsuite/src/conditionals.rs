//! The conditional benchmarks of the paper's Table 5, as Λnum surface
//! programs (Section 5.1 style: boolean guards via infinitely-sensitive
//! tests, both executions assumed to take the same branch).

use numfuzz_exact::Rational;

/// One Table 5 row: a surface program, the function to report, and the
/// expected grade coefficient (×`eps`).
#[derive(Clone, Debug)]
pub struct CondBench {
    /// Row name.
    pub name: &'static str,
    /// Whether it is an FPBench kernel (starred in the paper).
    pub fpbench: bool,
    /// Surface source.
    pub source: &'static str,
    /// Name of the function whose type carries the bound.
    pub function: &'static str,
    /// Expected grade coefficient (×eps).
    pub expected_eps_coeff: Rational,
    /// A closed sample expression exercising the program.
    pub sample: &'static str,
}

/// All Table 5 rows.
pub fn table5() -> Vec<CondBench> {
    vec![
        CondBench {
            name: "PythagoreanSum",
            fpbench: false,
            // Dahlquist & Björck p.119: p ⊕ q = max·sqrt(1 + (min/max)²),
            // avoiding overflow in the squares.
            source: r#"
function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
function divfp (xy: (num, num)) : M[eps]num { s = div xy; rnd s }
function sqrtfp (x: ![1/2]num) : M[eps]num { s = sqrt x; rnd s }
function scaled (p: ![2.0]num) (q: num) : M[4*eps]num {
    let [p1] = p;
    let r = divfp (q, p1);
    let s = mulfp (r, r);
    let t = addfp (|1, s|);
    let w = sqrtfp [t]{1/2};
    mulfp (p1, w)
}
function PythagoreanSum (x: ![inf]num) (y: ![inf]num) : M[4*eps]num {
    let [x1] = x;
    let [y1] = y;
    c = is_gt (x1, y1);
    if c then { w = scaled; u = w [x1]{2.0}; u y1 }
    else { w = scaled; u = w [y1]{2.0}; u x1 }
}
"#,
            function: "PythagoreanSum",
            expected_eps_coeff: Rational::from_int(4),
            sample: "PythagoreanSum [3]{inf} [4]{inf}",
        },
        CondBench {
            name: "HammarlingDistance",
            fpbench: false,
            // One step of Hammarling's scaled sum-of-squares update (the
            // LAPACK nrm2 recurrence): ssq' = 1 + ssq·(scale/|x|)², with
            // the guard selecting the larger scale.
            source: r#"
function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
function divfp (xy: (num, num)) : M[eps]num { s = div xy; rnd s }
function update (scale: ![2.0]num) (ssq: num) (x: ![2.0]num) : M[5*eps]num {
    let [s1] = scale;
    let [x1] = x;
    let r = divfp (s1, x1);
    let q = mulfp (r, r);
    let m = mulfp (ssq, q);
    addfp (|1, m|)
}
function HammarlingDistance (scale: ![inf]num) (ssq: ![inf]num) (x: ![inf]num) : M[5*eps]num {
    let [s1] = scale;
    let [q1] = ssq;
    let [x1] = x;
    c = is_gt (x1, s1);
    if c then { u = update [s1]{2.0}; v = u q1; v [x1]{2.0} }
    else { u = update [x1]{2.0}; v = u q1; v [s1]{2.0} }
}
"#,
            function: "HammarlingDistance",
            expected_eps_coeff: Rational::from_int(5),
            sample: "HammarlingDistance [3]{inf} [1.5]{inf} [4]{inf}",
        },
        CondBench {
            name: "squareRoot3",
            fpbench: true,
            // FPBench: x < 1e-5 ? 1 + 0.5·x : sqrt(1 + x).
            source: r#"
function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
function sqrtfp (x: ![1/2]num) : M[eps]num { s = sqrt x; rnd s }
function squareRoot3 (x: ![inf]num) : M[2*eps]num {
    let [x1] = x;
    c = is_gt (0.00001, x1);
    if c then {
        let h = mulfp (0.5, x1);
        addfp (|1, h|)
    } else {
        let t = addfp (|1, x1|);
        sqrtfp [t]{1/2}
    }
}
"#,
            function: "squareRoot3",
            expected_eps_coeff: Rational::from_int(2),
            sample: "squareRoot3 [0.375]{inf}",
        },
        CondBench {
            name: "squareRoot3Invalid",
            fpbench: true,
            // The FPBench variant with the (numerically invalid) guard
            // x < 1e4: identical shape, identical bound.
            source: r#"
function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
function sqrtfp (x: ![1/2]num) : M[eps]num { s = sqrt x; rnd s }
function squareRoot3Invalid (x: ![inf]num) : M[2*eps]num {
    let [x1] = x;
    c = is_gt (10000, x1);
    if c then {
        let h = mulfp (0.5, x1);
        addfp (|1, h|)
    } else {
        let t = addfp (|1, x1|);
        sqrtfp [t]{1/2}
    }
}
"#,
            function: "squareRoot3Invalid",
            expected_eps_coeff: Rational::from_int(2),
            sample: "squareRoot3Invalid [123456]{inf}",
        },
    ]
}

/// The paper's published Table 5 values: (name, Λnum bound, milliseconds).
pub const PAPER_TABLE5: &[(&str, &str, &str)] = &[
    ("PythagoreanSum", "8.88e-16", "2"),
    ("HammarlingDistance", "1.11e-15", "2"),
    ("squareRoot3", "4.44e-16", "2"),
    ("squareRoot3Invalid", "4.44e-16", "2"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use numfuzz_core::{compile, infer, Signature};

    #[test]
    fn all_table5_grades_match_the_paper() {
        let sig = Signature::relative_precision();
        for b in table5() {
            let lowered = compile(b.source, &sig).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let res = infer(&lowered.store, &sig, lowered.root, &[])
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let rep = res.fn_report(b.function).unwrap();
            let grade = numfuzz_core::Grade::symbol("eps").scale(&b.expected_eps_coeff);
            let suffix = format!("M[{grade}]num");
            assert!(
                rep.inferred.to_string().ends_with(&suffix),
                "{}: inferred {} (wanted …{suffix})",
                b.name,
                rep.inferred
            );
        }
    }

    #[test]
    fn table5_bounds_render_like_the_paper() {
        let u = Rational::pow2(-52);
        let expect: &[(&str, &str)] = &[
            ("PythagoreanSum", "8.88e-16"),
            ("HammarlingDistance", "1.11e-15"),
            ("squareRoot3", "4.44e-16"),
            ("squareRoot3Invalid", "4.44e-16"),
        ];
        let rows = table5();
        for (name, s) in expect {
            let b = rows.iter().find(|b| &b.name == name).unwrap();
            assert_eq!(b.expected_eps_coeff.mul(&u).to_sci_string(3), *s, "{name}");
        }
    }

    #[test]
    fn samples_parse_against_their_programs() {
        // Actual evaluation + soundness checks live in the root
        // integration tests (tests/soundness.rs), which may depend on
        // numfuzz-interp; here we only check the samples compile.
        let sig = Signature::relative_precision();
        for b in table5() {
            let src = format!(
                "{}
{}",
                b.source, b.sample
            );
            let lowered = compile(&src, &sig).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let res = infer(&lowered.store, &sig, lowered.root, &[])
                .unwrap_or_else(|e| panic!("{} sample: {e}", b.name));
            assert!(res.root.ty.to_string().starts_with("M["), "{}", b.name);
        }
    }
}
