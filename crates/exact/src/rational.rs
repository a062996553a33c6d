//! Exact rational numbers.
//!
//! [`Rational`] is the numeric workhorse of the whole workspace: grades in
//! the Λnum type system, floating-point values in the softfloat substrate,
//! and interval endpoints in the bound engine are all exact rationals, so no
//! part of the trusted computation path depends on host floating point.
//!
//! # Representation
//!
//! A value is stored inline as a machine-word fraction `i64/u64` whenever
//! it fits, and only promotes to a heap-allocated [`BigInt`]/[`BigUint`]
//! pair on overflow. Grade arithmetic — small multiples of `eps = 2⁻⁵²`
//! and friends — therefore never touches the heap, which is what makes
//! whole-program checking allocation-free on the numeric side. The two
//! forms are kept *canonical*: any value whose reduced numerator fits in
//! `i64` and whose denominator fits in `u64` is always stored small, so
//! derived equality and hashing agree across construction routes.

use crate::bigint::{BigInt, Sign};
use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// An exact rational number `num/den` with `den > 0` and `gcd(num, den) = 1`.
///
/// # Examples
///
/// ```
/// use numfuzz_exact::Rational;
///
/// let a = Rational::from_decimal_str("0.1")?;
/// let b = Rational::ratio(1, 10);
/// assert_eq!(a, b);
/// let c = &a + &b;
/// assert_eq!(c, Rational::ratio(1, 5));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    repr: Repr,
}

/// Internal representation. Invariants:
///
/// * both variants are in lowest terms with a positive denominator;
/// * `Big` is used **only** when the value does not fit `Small` (numerator
///   outside `i64` or denominator outside `u64`), so structurally derived
///   `Eq`/`Hash` are canonical.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small { num: i64, den: u64 },
    Big { num: BigInt, den: BigUint },
}

/// Euclid's algorithm on machine words.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn bigint_of_i128(v: i128) -> BigInt {
    if v == 0 {
        return BigInt::zero();
    }
    let sign = if v < 0 { Sign::Minus } else { Sign::Plus };
    BigInt::from_sign_mag(sign, BigUint::from(v.unsigned_abs()))
}

fn bigint_to_i64(n: &BigInt) -> Option<i64> {
    let mag = n.magnitude().to_u64()?;
    match n.sign() {
        Sign::Zero => Some(0),
        Sign::Plus => (mag <= i64::MAX as u64).then_some(mag as i64),
        Sign::Minus => {
            if mag <= i64::MAX as u64 {
                Some(-(mag as i64))
            } else if mag == (i64::MAX as u64) + 1 {
                Some(i64::MIN)
            } else {
                None
            }
        }
    }
}

impl Rational {
    /// The canonical zero.
    pub fn zero() -> Self {
        Rational { repr: Repr::Small { num: 0, den: 1 } }
    }

    /// The canonical one.
    pub fn one() -> Self {
        Rational { repr: Repr::Small { num: 1, den: 1 } }
    }

    /// Builds `num/den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        let num = if den.is_negative() { num.neg() } else { num };
        Rational::new_unsigned(num, den.into_magnitude())
    }

    /// Reduces `num/den` (den > 0) and picks the canonical representation.
    fn new_unsigned(num: BigInt, den: BigUint) -> Self {
        if num.is_zero() {
            return Rational::zero();
        }
        let g = num.magnitude().gcd(&den);
        if g.is_one() {
            Rational::demote(num, den)
        } else {
            let (nq, _) = num.magnitude().div_rem(&g);
            let (dq, _) = den.div_rem(&g);
            Rational::demote(BigInt::from_sign_mag(num.sign(), nq), dq)
        }
    }

    /// Canonicalizes an already-reduced big pair: store small if it fits.
    fn demote(num: BigInt, den: BigUint) -> Self {
        if let (Some(n), Some(d)) = (bigint_to_i64(&num), den.to_u64()) {
            return Rational { repr: Repr::Small { num: n, den: d } };
        }
        Rational { repr: Repr::Big { num, den } }
    }

    /// Reduces a word-sized fraction (`den > 0`) without touching the heap
    /// unless the reduced parts overflow the small representation.
    fn from_i128_frac(num: i128, den: u128) -> Self {
        debug_assert!(den > 0);
        if num == 0 {
            return Rational::zero();
        }
        let g = gcd_u128(num.unsigned_abs(), den);
        let (n, d) = (num / g as i128, den / g);
        if let Ok(n64) = i64::try_from(n) {
            if let Ok(d64) = u64::try_from(d) {
                return Rational { repr: Repr::Small { num: n64, den: d64 } };
            }
        }
        Rational { repr: Repr::Big { num: bigint_of_i128(n), den: BigUint::from(d) } }
    }

    /// The big-integer view of the value (clones the small form).
    fn to_big(&self) -> (BigInt, BigUint) {
        match &self.repr {
            Repr::Small { num, den } => (BigInt::from(*num), BigUint::from(*den)),
            Repr::Big { num, den } => (num.clone(), den.clone()),
        }
    }

    /// Builds `n/d` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn ratio(n: i64, d: i64) -> Self {
        assert!(d != 0, "rational with zero denominator");
        let (n, d) =
            if d < 0 { (-(n as i128), (d as i128).unsigned_abs()) } else { (n as i128, d as u128) };
        Rational::from_i128_frac(n, d)
    }

    /// Builds the integer `n`.
    pub fn from_int(n: i64) -> Self {
        Rational { repr: Repr::Small { num: n, den: 1 } }
    }

    /// `2^k` for any (possibly negative) `k`.
    pub fn pow2(k: i64) -> Self {
        if (0..=62).contains(&k) {
            return Rational { repr: Repr::Small { num: 1i64 << k, den: 1 } };
        }
        if (-63..0).contains(&k) {
            return Rational { repr: Repr::Small { num: 1, den: 1u64 << (-k) } };
        }
        if k >= 0 {
            Rational::demote(BigInt::one().shl_bits(k as u64), BigUint::one())
        } else {
            Rational::demote(BigInt::one(), BigUint::one().shl_bits((-k) as u64))
        }
    }

    /// The numerator (signed, in lowest terms).
    pub fn numer(&self) -> BigInt {
        match &self.repr {
            Repr::Small { num, .. } => BigInt::from(*num),
            Repr::Big { num, .. } => num.clone(),
        }
    }

    /// The denominator (positive, in lowest terms).
    pub fn denom(&self) -> BigUint {
        match &self.repr {
            Repr::Small { den, .. } => BigUint::from(*den),
            Repr::Big { den, .. } => den.clone(),
        }
    }

    /// Number of significant bits of the numerator's magnitude (`0` for
    /// zero), read without materializing a big integer. Together with
    /// [`Rational::denom_bit_len`] this keeps exponent estimation in the
    /// softfloat rounding path allocation-free for inline values.
    pub fn numer_bit_len(&self) -> u64 {
        match &self.repr {
            Repr::Small { num, .. } => (64 - num.unsigned_abs().leading_zeros()) as u64,
            Repr::Big { num, .. } => num.magnitude().bit_len(),
        }
    }

    /// Number of significant bits of the denominator (always `>= 1`),
    /// read without materializing a big integer.
    pub fn denom_bit_len(&self) -> u64 {
        match &self.repr {
            Repr::Small { den, .. } => (64 - den.leading_zeros()) as u64,
            Repr::Big { den, .. } => den.bit_len(),
        }
    }

    /// Whether the value currently fits the inline machine-word form
    /// (always true when it *can*: the representation is canonical).
    pub fn is_small(&self) -> bool {
        matches!(self.repr, Repr::Small { .. })
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num == 0,
            Repr::Big { num, .. } => num.is_zero(),
        }
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num > 0,
            Repr::Big { num, .. } => num.is_positive(),
        }
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num < 0,
            Repr::Big { num, .. } => num.is_negative(),
        }
    }

    /// Whether the value is an integer.
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Small { den, .. } => *den == 1,
            Repr::Big { den, .. } => den.is_one(),
        }
    }

    /// The sign of the value.
    pub fn sign(&self) -> Sign {
        match &self.repr {
            Repr::Small { num, .. } => match num.cmp(&0) {
                Ordering::Less => Sign::Minus,
                Ordering::Equal => Sign::Zero,
                Ordering::Greater => Sign::Plus,
            },
            Repr::Big { num, .. } => num.sign(),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        if let (Repr::Small { num: an, den: ad }, Repr::Small { num: bn, den: bd }) =
            (&self.repr, &other.repr)
        {
            let n1 = (*an as i128).checked_mul(*bd as i128);
            let n2 = (*bn as i128).checked_mul(*ad as i128);
            if let (Some(n1), Some(n2)) = (n1, n2) {
                if let Some(n) = n1.checked_add(n2) {
                    return Rational::from_i128_frac(n, *ad as u128 * *bd as u128);
                }
            }
        }
        let (an, ad) = self.to_big();
        let (bn, bd) = other.to_big();
        let num = an.mul(&BigInt::from(bd.clone())).add(&bn.mul(&BigInt::from(ad.clone())));
        Rational::new_unsigned(num, ad.mul(&bd))
    }

    /// `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// `self * other`.
    pub fn mul(&self, other: &Self) -> Self {
        if let (Repr::Small { num: an, den: ad }, Repr::Small { num: bn, den: bd }) =
            (&self.repr, &other.repr)
        {
            // Cross-reduce first so products usually stay in one word.
            let g1 = gcd_u128(an.unsigned_abs() as u128, *bd as u128).max(1);
            let g2 = gcd_u128(bn.unsigned_abs() as u128, *ad as u128).max(1);
            let n1 = *an as i128 / g1 as i128;
            let n2 = *bn as i128 / g2 as i128;
            let d1 = *ad as u128 / g2;
            let d2 = *bd as u128 / g1;
            if let (Some(n), Some(d)) = (n1.checked_mul(n2), d1.checked_mul(d2)) {
                return Rational::from_i128_frac(n, d);
            }
        }
        let (an, ad) = self.to_big();
        let (bn, bd) = other.to_big();
        Rational::new_unsigned(an.mul(&bn), ad.mul(&bd))
    }

    /// `self / other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div(&self, other: &Self) -> Self {
        assert!(!other.is_zero(), "division by zero rational");
        if let (Repr::Small { num: an, den: ad }, Repr::Small { num: bn, den: bd }) =
            (&self.repr, &other.repr)
        {
            // a/b ÷ c/d = (a·d)/(b·c), sign moved to the numerator.
            let g1 = gcd_u128(an.unsigned_abs() as u128, bn.unsigned_abs() as u128).max(1);
            let g2 = gcd_u128(*ad as u128, *bd as u128).max(1);
            let n1 = *an as i128 / g1 as i128;
            let d2 = *bd as u128 / g2;
            let d1 = *ad as u128 / g2;
            let n2 = *bn as i128 / g1 as i128;
            let num = n1.checked_mul(d2 as i128);
            let den = (d1 as i128).checked_mul(n2);
            if let (Some(num), Some(den)) = (num, den) {
                let (num, den) = if den < 0 {
                    (num.checked_neg(), den.unsigned_abs())
                } else {
                    (Some(num), den as u128)
                };
                if let Some(num) = num {
                    return Rational::from_i128_frac(num, den);
                }
            }
        }
        let (an, ad) = self.to_big();
        let (bn, bd) = other.to_big();
        let num = an.mul(&BigInt::from(bd));
        let den = BigInt::from_sign_mag(bn.sign(), ad.mul(bn.magnitude()));
        Rational::new(num, den)
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        match &self.repr {
            Repr::Small { num, den } => {
                if let Some(n) = num.checked_neg() {
                    Rational { repr: Repr::Small { num: n, den: *den } }
                } else {
                    // -(i64::MIN) = 2^63 needs the big form.
                    Rational {
                        repr: Repr::Big { num: BigInt::from(*num).neg(), den: BigUint::from(*den) },
                    }
                }
            }
            Repr::Big { num, den } => Rational::demote(num.neg(), den.clone()),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        if self.is_negative() {
            self.neg()
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero");
        if let Repr::Small { num, den } = &self.repr {
            let mag = num.unsigned_abs();
            if mag <= i64::MAX as u64 {
                let n = if *num < 0 { -(*den as i128) } else { *den as i128 };
                return Rational::from_i128_frac(n, mag as u128);
            }
        }
        let (num, den) = self.to_big();
        Rational::demote(BigInt::from_sign_mag(num.sign(), den), num.into_magnitude())
    }

    /// `self^exp` for a signed exponent.
    ///
    /// # Panics
    ///
    /// Panics when raising zero to a negative power.
    pub fn pow(&self, exp: i64) -> Self {
        if exp >= 0 {
            let (num, den) = self.to_big();
            Rational::demote(num.pow(exp as u64), den.pow(exp as u64))
        } else {
            self.recip().pow(-exp)
        }
    }

    /// `floor(self)` as an integer.
    pub fn floor(&self) -> BigInt {
        if let Repr::Small { num, den } = &self.repr {
            // div_euclid floors for positive divisors.
            return BigInt::from((*num as i128).div_euclid(*den as i128) as i64);
        }
        let (num, den) = self.to_big();
        let (q, r) = num.div_rem(&BigInt::from(den));
        if num.is_negative() && !r.is_zero() {
            q.sub(&BigInt::one())
        } else {
            q
        }
    }

    /// `ceil(self)` as an integer.
    pub fn ceil(&self) -> BigInt {
        self.neg().floor().neg()
    }

    /// `floor(self * 2^k)` as an integer, for any (possibly negative) `k`.
    ///
    /// This is the primitive used by the softfloat rounding code and the
    /// enclosure routines: it extracts `k` fractional bits exactly.
    pub fn floor_mul_pow2(&self, k: i64) -> BigInt {
        let (num, den) = self.to_big();
        let scaled_num = if k >= 0 { num.shl_bits(k as u64) } else { num.clone() };
        let scaled_den = if k >= 0 { den.clone() } else { den.shl_bits((-k) as u64) };
        let (q, r) = scaled_num.div_rem(&BigInt::from(scaled_den));
        if scaled_num.is_negative() && !r.is_zero() {
            q.sub(&BigInt::one())
        } else {
            q
        }
    }

    /// Approximate conversion to `f64` (accurate to well under one ulp;
    /// intended for display and plotting, never for the trusted path).
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        if let Repr::Small { num, den } = &self.repr {
            // Both parts exactly representable: one correctly-rounded op.
            if num.unsigned_abs() <= (1 << 53) && *den <= (1 << 53) {
                return *num as f64 / *den as f64;
            }
        }
        let (num, den) = self.to_big();
        let num_bits = num.magnitude().bit_len() as i64;
        let den_bits = den.bit_len() as i64;
        // Scale so the integer quotient has ~80 significant bits.
        let shift = 80 - (num_bits - den_bits);
        let t = self.abs().floor_mul_pow2(shift);
        let tf = t.to_f64();
        // Apply 2^-shift in chunks so intermediates never over/underflow
        // (f64 exponents only span ~[-1074, 1023]).
        let mag = ldexp(tf, -shift);
        if self.is_negative() {
            -mag
        } else {
            mag
        }
    }

    /// Parses decimal notation: `"3"`, `"-0.25"`, `"1e-5"`, `"2.5e3"`, or an
    /// exact fraction `"3/4"`.
    pub fn from_decimal_str(s: &str) -> Result<Self, ParseRationalError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseRationalError(s.to_string()));
        }
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse().map_err(|_| ParseRationalError(s.to_string()))?;
            let den: BigInt = d.trim().parse().map_err(|_| ParseRationalError(s.to_string()))?;
            if den.is_zero() {
                return Err(ParseRationalError(s.to_string()));
            }
            return Ok(Rational::new(num, den));
        }
        let (mantissa, exp10) = match s.split_once(['e', 'E']) {
            Some((m, e)) => {
                let exp: i64 = e.parse().map_err(|_| ParseRationalError(s.to_string()))?;
                (m, exp)
            }
            None => (s, 0),
        };
        let (sign, digits) = match mantissa.strip_prefix('-') {
            Some(rest) => (Sign::Minus, rest),
            None => (Sign::Plus, mantissa.strip_prefix('+').unwrap_or(mantissa)),
        };
        let (int_part, frac_part) = match digits.split_once('.') {
            Some((i, f)) => (i, f),
            None => (digits, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(ParseRationalError(s.to_string()));
        }
        let joined = format!("{int_part}{frac_part}");
        let mag = BigUint::from_decimal_str(if joined.is_empty() { "0" } else { &joined })
            .map_err(|_| ParseRationalError(s.to_string()))?;
        let num = if mag.is_zero() { BigInt::zero() } else { BigInt::from_sign_mag(sign, mag) };
        let exp = exp10 - frac_part.len() as i64;
        let ten = BigUint::from(10u32);
        Ok(if exp >= 0 {
            Rational::new_unsigned(num.mul(&BigInt::from(ten.pow(exp as u64))), BigUint::one())
        } else {
            Rational::new_unsigned(num, ten.pow((-exp) as u64))
        })
    }

    /// Formats in scientific notation with `sig` significant digits,
    /// e.g. `5.55e-16`. Rounds to nearest.
    ///
    /// # Panics
    ///
    /// Panics if `sig == 0`.
    pub fn to_sci_string(&self, sig: usize) -> String {
        assert!(sig > 0, "need at least one significant digit");
        if self.is_zero() {
            return "0".to_string();
        }
        let neg = self.is_negative();
        let q = self.abs();
        // Initial decimal-exponent estimate from digit counts.
        let mut e = q.numer().magnitude().to_decimal_string().len() as i64
            - q.denom().to_decimal_string().len() as i64;
        let ten = Rational::from_int(10);
        // Adjust so that 10^e <= q < 10^(e+1).
        while q < ten.pow(e) {
            e -= 1;
        }
        while q >= ten.pow(e + 1) {
            e += 1;
        }
        // mantissa = round(q * 10^(sig-1-e)).
        let scaled = q.mul(&ten.pow(sig as i64 - 1 - e));
        let mut m = scaled.add(&Rational::ratio(1, 2)).floor();
        let limit = BigInt::from(10u64).pow(sig as u64);
        if m >= limit {
            let (q10, _) = m.div_rem(&BigInt::from(10i64));
            m = q10;
            e += 1;
        }
        let digits = m.to_string();
        debug_assert_eq!(digits.len(), sig);
        let body = if sig == 1 { digits } else { format!("{}.{}", &digits[..1], &digits[1..]) };
        format!(
            "{}{}e{}{:02}",
            if neg { "-" } else { "" },
            body,
            if e < 0 { "-" } else { "+" },
            e.abs()
        )
    }
}

/// `x * 2^e` with chunked scaling to avoid spurious intermediate
/// overflow/underflow. Results entering the subnormal range may be rounded
/// twice; this helper backs display-only conversions.
fn ldexp(x: f64, e: i64) -> f64 {
    let mut r = x;
    let mut e = e;
    while e > 900 {
        r *= 2f64.powi(900);
        e -= 900;
        if r.is_infinite() {
            return r;
        }
    }
    while e < -900 {
        r *= 2f64.powi(-900);
        e += 900;
        if r == 0.0 {
            return r;
        }
    }
    r * 2f64.powi(e as i32)
}

/// Error returned when parsing a [`Rational`] from an invalid string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError(String);

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {:?}", self.0)
    }
}

impl std::error::Error for ParseRationalError {}

impl std::str::FromStr for Rational {
    type Err = ParseRationalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Rational::from_decimal_str(s)
    }
}

impl From<BigInt> for Rational {
    fn from(num: BigInt) -> Self {
        Rational::demote(num, BigUint::one())
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from_int(v)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        if let (Repr::Small { num: an, den: ad }, Repr::Small { num: bn, den: bd }) =
            (&self.repr, &other.repr)
        {
            // |i64|·u64 < 2^127: the cross products always fit i128.
            return (*an as i128 * *bd as i128).cmp(&(*bn as i128 * *ad as i128));
        }
        let (an, ad) = self.to_big();
        let (bn, bd) = other.to_big();
        an.mul(&BigInt::from(bd)).cmp(&bn.mul(&BigInt::from(ad)))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small { num, den: 1 } => write!(f, "{num}"),
            Repr::Small { num, den } => write!(f, "{num}/{den}"),
            Repr::Big { num, den } => {
                if den.is_one() {
                    write!(f, "{num}")
                } else {
                    write!(f, "{num}/{den}")
                }
            }
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

macro_rules! forward_binop_rat {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl std::ops::$trait<&Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                Rational::$inner(self, rhs)
            }
        }
        impl std::ops::$trait<Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                Rational::$inner(&self, &rhs)
            }
        }
        impl std::ops::$trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                Rational::$inner(&self, rhs)
            }
        }
    };
}

forward_binop_rat!(Add, add, add);
forward_binop_rat!(Sub, sub, sub);
forward_binop_rat!(Mul, mul, mul);
forward_binop_rat!(Div, div, div);

impl std::ops::Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational::neg(self)
    }
}

impl std::ops::Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(s: &str) -> Rational {
        Rational::from_decimal_str(s).expect("valid test literal")
    }

    #[test]
    fn normalization() {
        assert_eq!(Rational::ratio(2, 4), Rational::ratio(1, 2));
        assert_eq!(Rational::ratio(-2, 4), Rational::ratio(1, -2));
        assert_eq!(Rational::ratio(0, 7), Rational::zero());
        assert_eq!(Rational::ratio(6, 3), Rational::from_int(2));
    }

    #[test]
    fn field_ops() {
        let a = Rational::ratio(1, 3);
        let b = Rational::ratio(1, 6);
        assert_eq!(a.add(&b), Rational::ratio(1, 2));
        assert_eq!(a.sub(&b), Rational::ratio(1, 6));
        assert_eq!(a.mul(&b), Rational::ratio(1, 18));
        assert_eq!(a.div(&b), Rational::from_int(2));
        assert_eq!(a.recip(), Rational::from_int(3));
        assert_eq!(a.neg().abs(), a);
    }

    #[test]
    fn pow_and_pow2() {
        assert_eq!(Rational::ratio(2, 3).pow(3), Rational::ratio(8, 27));
        assert_eq!(Rational::ratio(2, 3).pow(-2), Rational::ratio(9, 4));
        assert_eq!(Rational::pow2(-3), Rational::ratio(1, 8));
        assert_eq!(Rational::pow2(5), Rational::from_int(32));
        assert_eq!(Rational::pow2(-52), Rational::ratio(1, 4503599627370496));
    }

    #[test]
    fn ordering_cross_mul() {
        assert!(Rational::ratio(1, 3) < Rational::ratio(1, 2));
        assert!(Rational::ratio(-1, 2) < Rational::ratio(-1, 3));
        assert!(Rational::ratio(7, 7) == Rational::one());
        assert_eq!(rat("0.1").max(rat("0.2")), rat("0.2"));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(rat("2.5").floor(), BigInt::from(2i64));
        assert_eq!(rat("-2.5").floor(), BigInt::from(-3i64));
        assert_eq!(rat("2.5").ceil(), BigInt::from(3i64));
        assert_eq!(rat("-2.5").ceil(), BigInt::from(-2i64));
        assert_eq!(rat("4").floor(), BigInt::from(4i64));
        assert_eq!(rat("4").ceil(), BigInt::from(4i64));
    }

    #[test]
    fn floor_mul_pow2_fraction_extraction() {
        // floor(3/4 * 2^2) = 3
        assert_eq!(Rational::ratio(3, 4).floor_mul_pow2(2), BigInt::from(3i64));
        // floor(5 * 2^-1) = 2
        assert_eq!(Rational::from_int(5).floor_mul_pow2(-1), BigInt::from(2i64));
        // Negative values floor toward -infinity.
        assert_eq!(Rational::ratio(-3, 4).floor_mul_pow2(1), BigInt::from(-2i64));
    }

    #[test]
    fn parse_decimal_forms() {
        assert_eq!(rat("0.1"), Rational::ratio(1, 10));
        assert_eq!(rat("-0.25"), Rational::ratio(-1, 4));
        assert_eq!(rat("1e-5"), Rational::ratio(1, 100_000));
        assert_eq!(rat("2.5e3"), Rational::from_int(2500));
        assert_eq!(rat("2.5E+1"), Rational::from_int(25));
        assert_eq!(rat("3/4"), Rational::ratio(3, 4));
        assert_eq!(rat(" 7 "), Rational::from_int(7));
        assert!(Rational::from_decimal_str("").is_err());
        assert!(Rational::from_decimal_str("1/0").is_err());
        assert!(Rational::from_decimal_str("abc").is_err());
    }

    #[test]
    fn to_f64_close() {
        assert_eq!(rat("0.5").to_f64(), 0.5);
        assert_eq!(Rational::from_int(-3).to_f64(), -3.0);
        let third = Rational::ratio(1, 3).to_f64();
        assert!((third - 1.0 / 3.0).abs() < 1e-16);
        assert_eq!(Rational::zero().to_f64(), 0.0);
        // 2^-52 exactly.
        assert_eq!(Rational::pow2(-52).to_f64(), 2f64.powi(-52));
    }

    #[test]
    fn sci_string_matches_paper_style() {
        // 7 * 2^-52 = 1.55e-15, the Horner2_with_error bound from the paper.
        let u = Rational::pow2(-52);
        let bound = Rational::from_int(7).mul(&u);
        assert_eq!(bound.to_sci_string(3), "1.55e-15");
        assert_eq!(u.to_sci_string(3), "2.22e-16");
        assert_eq!(rat("0").to_sci_string(3), "0");
        assert_eq!(rat("-123.45").to_sci_string(4), "-1.235e+02");
        assert_eq!(rat("999.96").to_sci_string(4), "1.000e+03");
        assert_eq!(rat("1").to_sci_string(1), "1e+00");
    }

    #[test]
    fn small_values_stay_inline_and_canonical() {
        // Common grade arithmetic never promotes.
        assert!(Rational::pow2(-52).is_small());
        assert!(Rational::ratio(5, 2).mul(&Rational::pow2(-52)).is_small());
        assert!(rat("0.1").add(&rat("0.3")).is_small());
        // A big-route construction of a small value demotes to the same
        // canonical form (equality and hashing agree).
        let via_big = Rational::new(BigInt::from(10i64).pow(3), BigInt::from(4i64));
        let small = Rational::ratio(250, 1);
        assert!(via_big.is_small());
        assert_eq!(via_big, small);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |r: &Rational| {
            let mut s = DefaultHasher::new();
            r.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&via_big), h(&small));
    }

    #[test]
    fn overflow_promotes_and_demotes() {
        let huge = Rational::from_int(i64::MAX).mul(&Rational::from_int(3));
        assert!(!huge.is_small());
        // Arithmetic that shrinks back re-enters the inline form.
        let back = huge.div(&Rational::from_int(3));
        assert!(back.is_small());
        assert_eq!(back, Rational::from_int(i64::MAX));
        // Negation at the i64 boundary.
        let min = Rational::from_int(i64::MIN);
        let negmin = min.neg();
        assert!(!negmin.is_small());
        assert_eq!(negmin.neg(), min);
        // pow2 beyond the word promotes; reciprocal relations still hold.
        let p100 = Rational::pow2(100);
        assert!(!p100.is_small());
        assert_eq!(p100.recip(), Rational::pow2(-100));
        assert_eq!(p100.mul(&Rational::pow2(-100)), Rational::one());
    }
}
