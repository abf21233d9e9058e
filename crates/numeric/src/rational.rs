//! Arbitrary-precision rational numbers with machine-word fast paths.
//!
//! The exact LP backend performs millions of rational add/mul/div/cmp operations whose
//! operands are almost always tiny — Handelman coefficient-matching rows carry integer
//! coefficients in the hundreds, and most pivot chains keep numerators and denominators
//! within a couple of machine words. Routing every one of those operations through
//! heap-allocating [`BigInt`] limb vectors is what made exact pivots expensive, so
//! [`Rational`] stores small values inline and picks the cheapest of three tiers per
//! operation:
//!
//! * **64-bit tier.** When all four parts of the two inline operands have magnitude
//!   below `2^63`, the operation runs on `u64` binary gcds and hardware 64-bit
//!   division, and forms its products as `i64 × i64 → i128`, which cannot overflow.
//!   Addition is Knuth's (TAOCP 4.5.1), with shortcuts for coprime denominators and
//!   for integers; every result is reduced by construction, with no final gcd.
//! * **128-bit tier.** [`Repr::Small`] holds `num/den` as two `i128`s (denominator
//!   positive, fraction reduced). Operands beyond the 64-bit tier use
//!   overflow-*checked* `i128` arithmetic — no allocation, no limb loops.
//! * **BigInt tier.** [`Repr::Big`] holds the [`BigInt`] pair and is used **only**
//!   when the value does not fit the small form. Every constructor demotes eagerly,
//!   so the representation is canonical and derived equality/hashing are exact.
//!
//! The tiers share one representation: a 64-bit result is an ordinary `Small` value.
//! On any checked overflow the operation transparently re-runs in [`BigInt`]
//! arithmetic; correctness never depends on operands staying small. The two wider
//! tiers live out of line (`*_wide` and `big_*`), so the hot 64-bit path inlines.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bigint::{BigInt, ParseBigIntError};

/// Error returned when parsing a [`Rational`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    kind: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.kind)
    }
}

impl std::error::Error for ParseRationalError {}

impl From<ParseBigIntError> for ParseRationalError {
    fn from(e: ParseBigIntError) -> Self {
        ParseRationalError { kind: e.to_string() }
    }
}

/// Binary GCD on unsigned 64-bit magnitudes.
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary GCD on unsigned 128-bit magnitudes (no allocation, no division loop). Hands
/// off to [`gcd_u64`] as soon as both operands fit 64 bits.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if (a | b) >> 64 == 0 {
        return gcd_u64(a as u64, b as u64) as u128;
    }
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if b >> 64 == 0 {
            // a <= b < 2^64, both odd: the common factor of two is already in `shift`.
            return (gcd_u64(a as u64, b as u64) as u128) << shift;
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `true` when both `Small` operands qualify for the 64-bit tier: every part has
/// magnitude below `2^63`, so each part fits `i64` together with its negation
/// (`i64::MIN` is excluded) and every pairwise product fits `i128`.
#[inline]
fn fits_64(an: i128, ad: i128, bn: i128, bd: i128) -> bool {
    (an.unsigned_abs() | ad.unsigned_abs() | bn.unsigned_abs() | bd.unsigned_abs()) >> 63 == 0
}

/// Widening `i64 × i64 → i128` product (one hardware multiply; cannot overflow).
#[inline]
fn wide(a: i64, b: i64) -> i128 {
    a as i128 * b as i128
}

/// `t / g` for a positive `g` that divides `t`, on hardware 64-bit division whenever
/// the magnitude of `t` fits.
#[inline]
fn div_exact(t: i128, g: u64) -> i128 {
    if g == 1 {
        return t;
    }
    let magnitude = t.unsigned_abs();
    if magnitude >> 64 == 0 {
        let quotient = ((magnitude as u64) / g) as i128;
        if t < 0 {
            -quotient
        } else {
            quotient
        }
    } else {
        t / g as i128
    }
}

/// `a/b + c/d` on the 64-bit tier (reduced operands, `|a|, |c| < 2^63`,
/// `0 < b, d < 2^63`). Knuth's addition: with `g = gcd(b, d)`,
/// `t = a·(d/g) + c·(b/g)` and `g2 = gcd(t, g)`, the sum is
/// `(t/g2) / ((b/g)·(d/g2))`, already reduced. Every product is an `i64 × i64`
/// widening multiply and `|t| < 2^127`.
#[inline]
fn add_64(a: i64, b: i64, c: i64, d: i64) -> Rational {
    if b == 1 && d == 1 {
        return Rational { repr: Repr::Small(a as i128 + c as i128, 1) };
    }
    if b == 1 {
        // gcd(a·d + c, d) = gcd(c, d) = 1.
        return Rational::small_coprime(wide(a, d) + c as i128, d as i128);
    }
    if d == 1 {
        return Rational::small_coprime(a as i128 + wide(c, b), b as i128);
    }
    let g = gcd_u64(b as u64, d as u64);
    if g == 1 {
        // Coprime denominators: no prime of b·d can divide a·d + c·b.
        return Rational::small_coprime(wide(a, d) + wide(c, b), wide(b, d));
    }
    let (bg, dg) = (b / g as i64, d / g as i64);
    let t = wide(a, dg) + wide(c, bg);
    if t == 0 {
        return Rational::zero();
    }
    // Only the factors of g can be shared by t and the denominator (b/g)·d.
    let magnitude = t.unsigned_abs();
    let t_mod_g = if magnitude >> 64 == 0 {
        (magnitude as u64) % g
    } else {
        (magnitude % g as u128) as u64
    };
    let g2 = gcd_u64(t_mod_g, g);
    Rational::small_coprime(div_exact(t, g2), wide(bg, d / g2 as i64))
}

/// `a/b · c/d` on the 64-bit tier (non-zero reduced operands, parts below `2^63`).
/// Cross-reducing by `gcd(|a|, d)` and `gcd(|c|, b)` leaves a reduced product.
#[inline]
fn mul_64(a: i64, b: i64, c: i64, d: i64) -> Rational {
    let g1 = if d == 1 { 1 } else { gcd_u64(a.unsigned_abs(), d as u64) as i64 };
    let g2 = if b == 1 { 1 } else { gcd_u64(c.unsigned_abs(), b as u64) as i64 };
    let (a, d) = if g1 == 1 { (a, d) } else { (a / g1, d / g1) };
    let (c, b) = if g2 == 1 { (c, b) } else { (c / g2, b / g2) };
    Rational::small_coprime(wide(a, c), wide(b, d))
}

/// `(a/b) / (c/d)` on the 64-bit tier (`a, c` non-zero, parts below `2^63`): the
/// product `(a·d) / (b·c)` cross-reduced by `gcd(|a|, |c|)` and `gcd(b, d)`. The
/// denominator carries `c`'s sign, which `small_coprime` moves to the numerator.
#[inline]
fn div_64(a: i64, b: i64, c: i64, d: i64) -> Rational {
    let g1 = gcd_u64(a.unsigned_abs(), c.unsigned_abs()) as i64;
    let g2 = if b == 1 || d == 1 { 1 } else { gcd_u64(b as u64, d as u64) as i64 };
    let (a, c) = if g1 == 1 { (a, c) } else { (a / g1, c / g1) };
    let (b, d) = if g2 == 1 { (b, d) } else { (b / g2, d / g2) };
    Rational::small_coprime(wide(a, d), wide(b, c))
}

/// GCD of two `i128`s as a non-negative `i128` (`None` if the result is `2^127`,
/// which only happens for `gcd(i128::MIN, 0|i128::MIN)`).
fn gcd_i128(a: i128, b: i128) -> Option<i128> {
    let g = gcd_u128(a.unsigned_abs(), b.unsigned_abs());
    i128::try_from(g).ok()
}

/// The canonical storage: `Small` whenever the reduced fraction fits two `i128`s.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `num/den` with `den > 0` and `gcd(|num|, den) = 1`; zero is `0/1`.
    Small(i128, i128),
    /// Reduced big fraction with positive denominator. Canonically used **only** when
    /// the value does not fit `Small` (constructors demote eagerly), so derived
    /// equality and hashing over the enum are exact.
    Big(BigInt, BigInt),
}

/// An exact rational number `numerator / denominator`.
///
/// Invariants: the denominator is strictly positive, and the fraction is fully reduced
/// (gcd of numerator and denominator is 1); zero is represented as `0 / 1`. Values
/// whose reduced numerator and denominator fit in `i128` are stored inline (see the
/// module docs).
///
/// # Examples
///
/// ```
/// use dca_numeric::Rational;
/// let r = Rational::new(6, -8);
/// assert_eq!(r.to_string(), "-3/4");
/// assert_eq!(r + Rational::new(3, 4), Rational::zero());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    repr: Repr,
}

impl Rational {
    /// Builds the canonical `Small` repr from a *not necessarily reduced* fraction.
    /// Falls back to the `Big` path when reduction itself cannot be represented.
    #[inline]
    fn small(num: i128, den: i128) -> Rational {
        debug_assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rational { repr: Repr::Small(0, 1) };
        }
        let (num_mag, den_mag) = (num.unsigned_abs(), den.unsigned_abs());
        if (num_mag | den_mag) >> 64 == 0 {
            // Both magnitudes fit u64: 64-bit gcd and division, and the reduced
            // magnitudes re-sign without any i128::MIN corner.
            let g = gcd_u64(num_mag as u64, den_mag as u64);
            let (n, d) = if g == 1 {
                (num_mag as i128, den_mag as i128)
            } else {
                (((num_mag as u64) / g) as i128, ((den_mag as u64) / g) as i128)
            };
            let n = if (num < 0) != (den < 0) { -n } else { n };
            return Rational { repr: Repr::Small(n, d) };
        }
        Rational::small_wide(num, den)
    }

    /// [`Rational::small`] for fractions with a part beyond 64 bits.
    #[inline(never)]
    fn small_wide(num: i128, den: i128) -> Rational {
        let g = gcd_u128(num.unsigned_abs(), den.unsigned_abs());
        let Ok(g) = i128::try_from(g) else {
            // gcd = 2^127 means both operands are i128::MIN: the value is exactly 1.
            return Rational { repr: Repr::Small(1, 1) };
        };
        // Division by the positive gcd never overflows (i128::MIN / 1 is itself).
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            match (num.checked_neg(), den.checked_neg()) {
                (Some(n), Some(d)) => {
                    num = n;
                    den = d;
                }
                _ => {
                    // One of the reduced parts is i128::MIN, whose negation does not
                    // fit — the normalized pair genuinely needs the big form (the
                    // fraction is already reduced, so construct it directly rather
                    // than bouncing through `from_bigints`, which would demote-retry).
                    return Rational {
                        repr: Repr::Big(-BigInt::from(num), -BigInt::from(den)),
                    };
                }
            }
        }
        Rational { repr: Repr::Small(num, den) }
    }

    /// Builds `Small` from a pair the caller has proven coprime (the cross-reduced
    /// products of `Mul`/`Div`), skipping the gcd: only sign normalization remains.
    /// This is the hottest constructor in exact pivoting — the second gcd would be
    /// pure waste, since it mathematically always returns 1 here.
    #[inline]
    fn small_coprime(num: i128, den: i128) -> Rational {
        debug_assert!(den != 0, "rational with zero denominator");
        debug_assert!(
            num == 0 || gcd_u128(num.unsigned_abs(), den.unsigned_abs()) == 1,
            "small_coprime caller broke the coprimality contract"
        );
        if num == 0 {
            return Rational { repr: Repr::Small(0, 1) };
        }
        if den < 0 {
            return match (num.checked_neg(), den.checked_neg()) {
                (Some(num), Some(den)) => Rational { repr: Repr::Small(num, den) },
                // i128::MIN cannot be negated: the normalized pair needs the big
                // form (already reduced, so construct it directly).
                _ => Rational { repr: Repr::Big(-BigInt::from(num), -BigInt::from(den)) },
            };
        }
        Rational { repr: Repr::Small(num, den) }
    }

    /// Creates a rational from machine-integer numerator and denominator.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        Rational::small(num as i128, den as i128)
    }

    /// Creates a rational from big-integer numerator and denominator, normalizing
    /// (and demoting to the inline `i128` form whenever the reduced value fits).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_bigints(num: BigInt, den: BigInt) -> Rational {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Rational { repr: Repr::Small(0, 1) };
        }
        if let (Some(n), Some(d)) = (num.to_i128(), den.to_i128()) {
            return Rational::small(n, d);
        }
        let (num, den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        let g = num.gcd(&den);
        let (num, _) = num.div_rem(&g);
        let (den, _) = den.div_rem(&g);
        // Reduction may have shrunk the value back into the inline range.
        if let (Some(n), Some(d)) = (num.to_i128(), den.to_i128()) {
            return Rational { repr: Repr::Small(n, d) };
        }
        Rational { repr: Repr::Big(num, den) }
    }

    /// Creates a rational equal to the given integer.
    pub fn from_int(v: i64) -> Rational {
        Rational { repr: Repr::Small(v as i128, 1) }
    }

    /// The value `0`.
    pub fn zero() -> Rational {
        Rational { repr: Repr::Small(0, 1) }
    }

    /// The value `1`.
    pub fn one() -> Rational {
        Rational { repr: Repr::Small(1, 1) }
    }

    /// `true` when the value is stored in the inline `i128` fast path (diagnostics
    /// and tests; the arithmetic is representation-transparent).
    pub fn is_small(&self) -> bool {
        matches!(self.repr, Repr::Small(..))
    }

    /// Approximate storage (and arithmetic) cost of this value in 128-bit words:
    /// `1` on the inline fast path, the combined numerator/denominator limb count
    /// scaled to 128-bit units otherwise. Cheap (no allocation); used by the exact
    /// LP basis to decide when accumulated eta-file entries have grown expensive
    /// enough that a fresh factorization pays for itself.
    pub fn storage_weight(&self) -> usize {
        match &self.repr {
            Repr::Small(..) => 1,
            Repr::Big(n, d) => 1 + (n.bits() + d.bits()) / 128,
        }
    }

    /// Numerator (sign-carrying).
    pub fn numerator(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, _) => BigInt::from(*n),
            Repr::Big(n, _) => n.clone(),
        }
    }

    /// Denominator (always strictly positive).
    pub fn denominator(&self) -> BigInt {
        match &self.repr {
            Repr::Small(_, d) => BigInt::from(*d),
            Repr::Big(_, d) => d.clone(),
        }
    }

    /// Returns `true` if this value is zero.
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n == 0,
            Repr::Big(n, _) => n.is_zero(),
        }
    }

    /// Returns `true` if this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n < 0,
            Repr::Big(n, _) => n.is_negative(),
        }
    }

    /// Returns `true` if this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n > 0,
            Repr::Big(n, _) => n.is_positive(),
        }
    }

    /// Returns `true` if the value is an integer (denominator 1).
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Small(_, d) => *d == 1,
            Repr::Big(_, d) => *d == BigInt::one(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            -self.clone()
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            Repr::Small(n, d) => Rational::small(*d, *n),
            Repr::Big(n, d) => Rational::from_bigints(d.clone(), n.clone()),
        }
    }

    /// Largest integer less than or equal to the value.
    pub fn floor(&self) -> BigInt {
        match &self.repr {
            // `den > 0`, so Euclidean division is exactly the floor.
            Repr::Small(n, d) => BigInt::from(n.div_euclid(*d)),
            Repr::Big(n, d) => {
                let (q, r) = n.div_rem(d);
                if r.is_zero() || !n.is_negative() {
                    q
                } else {
                    &q - &BigInt::one()
                }
            }
        }
    }

    /// Smallest integer greater than or equal to the value.
    pub fn ceil(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, d) => {
                let q = n.div_euclid(*d);
                if n.rem_euclid(*d) == 0 {
                    BigInt::from(q)
                } else {
                    &BigInt::from(q) + &BigInt::one()
                }
            }
            Repr::Big(n, d) => {
                let (q, r) = n.div_rem(d);
                if r.is_zero() || n.is_negative() {
                    q
                } else {
                    &q + &BigInt::one()
                }
            }
        }
    }

    /// Rounds to the nearest integer (half away from zero).
    pub fn round(&self) -> BigInt {
        let two = Rational::from_int(2);
        if self.is_negative() {
            -((&-self.clone() + &(Rational::one() / two)).floor())
        } else {
            (self + &(Rational::one() / two)).floor()
        }
    }

    /// Approximate conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(n, d) => *n as f64 / *d as f64,
            Repr::Big(num, den) => {
                let n = num.to_f64();
                let d = den.to_f64();
                if n.is_finite() && d.is_finite() && d != 0.0 {
                    n / d
                } else {
                    // Fall back to a digit-level approximation for extreme magnitudes.
                    let bits = num.bits() as i64 - den.bits() as i64;
                    if num.is_negative() {
                        -(2f64.powi(bits.clamp(-1000, 1000) as i32))
                    } else {
                        2f64.powi(bits.clamp(-1000, 1000) as i32)
                    }
                }
            }
        }
    }

    /// Creates a rational that approximates an `f64` exactly (binary expansion).
    ///
    /// # Panics
    ///
    /// Panics if the input is NaN or infinite.
    pub fn from_f64(v: f64) -> Rational {
        assert!(v.is_finite(), "cannot convert non-finite float to rational");
        if v == 0.0 {
            return Rational::zero();
        }
        let bits = v.to_bits();
        let sign: i128 = if bits >> 63 == 1 { -1 } else { 1 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = if exponent == 0 {
            (bits & 0xf_ffff_ffff_ffff) << 1
        } else {
            (bits & 0xf_ffff_ffff_ffff) | 0x10_0000_0000_0000
        };
        // value = sign * mantissa * 2^(exponent - 1075); the mantissa is 53 bits, so
        // shifts up to 74 (below) / down to 127 stay within i128.
        let shift = exponent - 1075;
        let m = sign * mantissa as i128;
        if (0..=73).contains(&shift) {
            // |m| < 2^53 and the factor is at most 2^73, so the product fits i128.
            return Rational::small(m * (1i128 << shift), 1);
        }
        if (-126..0).contains(&shift) {
            return Rational::small(m, 1i128 << (-shift));
        }
        let mut num = BigInt::from(m);
        let mut den = BigInt::one();
        if shift >= 0 {
            num = &num * &BigInt::from(2i64).pow(shift as u32);
        } else {
            den = BigInt::from(2i64).pow((-shift) as u32);
        }
        Rational::from_bigints(num, den)
    }

    /// Returns the smaller of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Raise to a small non-negative power.
    ///
    /// A reduced fraction's power is automatically reduced (and keeps its positive
    /// denominator), so both arms skip the gcd normalization entirely.
    pub fn pow(&self, exp: u32) -> Rational {
        match &self.repr {
            Repr::Small(n, d) => match (n.checked_pow(exp), d.checked_pow(exp)) {
                (Some(num), Some(den)) => Rational { repr: Repr::Small(num, den) },
                _ => Rational {
                    repr: Repr::Big(BigInt::from(*n).pow(exp), BigInt::from(*d).pow(exp)),
                },
            },
            Repr::Big(n, d) => {
                if exp == 0 {
                    return Rational::one();
                }
                // A canonical Big value has a component beyond i128; its power
                // (exp ≥ 1) is at least as large, so no demotion check is needed.
                Rational { repr: Repr::Big(n.pow(exp), d.pow(exp)) }
            }
        }
    }

    /// The value as a reduced `(numerator, denominator)` BigInt pair.
    fn to_bigint_pair(&self) -> (BigInt, BigInt) {
        match &self.repr {
            Repr::Small(n, d) => (BigInt::from(*n), BigInt::from(*d)),
            Repr::Big(n, d) => (n.clone(), d.clone()),
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational::from_int(v)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Rational {
        Rational::from_int(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Rational {
        match v.to_i128() {
            Some(n) => Rational { repr: Repr::Small(n, 1) },
            None => Rational { repr: Repr::Big(v, BigInt::one()) },
        }
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a"`, `"a/b"`, or a decimal literal `"a.b"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den: BigInt = d.trim().parse()?;
            if den.is_zero() {
                return Err(ParseRationalError { kind: "zero denominator".into() });
            }
            return Ok(Rational::from_bigints(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            if frac_part.is_empty() || !frac_part.chars().all(|c| c.is_ascii_digit()) {
                return Err(ParseRationalError { kind: "bad fractional part".into() });
            }
            let frac: BigInt = frac_part.parse()?;
            let scale = BigInt::from(10i64).pow(frac_part.len() as u32);
            let mag = &(&int.abs() * &scale) + &frac;
            let num = if negative { -mag } else { mag };
            return Ok(Rational::from_bigints(num, scale));
        }
        Ok(Rational::from(s.parse::<BigInt>()?))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small(n, d) => {
                if *d == 1 {
                    write!(f, "{n}")
                } else {
                    write!(f, "{n}/{d}")
                }
            }
            Repr::Big(n, d) => {
                if self.is_integer() {
                    write!(f, "{n}")
                } else {
                    write!(f, "{n}/{d}")
                }
            }
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({})", self)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &other.repr) {
            // Cheap screens first: sign classes, then equal denominators.
            match (an.signum(), bn.signum()) {
                (x, y) if x < y => return Ordering::Less,
                (x, y) if x > y => return Ordering::Greater,
                (0, 0) => return Ordering::Equal,
                _ => {}
            }
            if ad == bd {
                return an.cmp(bn);
            }
            if fits_64(*an, *ad, *bn, *bd) {
                return wide(*an as i64, *bd as i64).cmp(&wide(*bn as i64, *ad as i64));
            }
        }
        cmp_wide(self, other)
    }
}

/// [`Ord::cmp`] beyond the 64-bit tier: checked `i128` cross products, then BigInt.
#[inline(never)]
fn cmp_wide(a: &Rational, b: &Rational) -> Ordering {
    if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&a.repr, &b.repr) {
        if let (Some(lhs), Some(rhs)) = (an.checked_mul(*bd), bn.checked_mul(*ad)) {
            return lhs.cmp(&rhs);
        }
    }
    let (an, ad) = a.to_bigint_pair();
    let (bn, bd) = b.to_bigint_pair();
    (&an * &bd).cmp(&(&bn * &ad))
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.repr {
            Repr::Small(n, d) => match n.checked_neg() {
                Some(n) => Rational { repr: Repr::Small(n, d) },
                None => Rational::from_bigints(-BigInt::from(n), BigInt::from(d)),
            },
            Repr::Big(n, d) => Rational::from_bigints(-n, d),
        }
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -self.clone()
    }
}

/// The big-arithmetic fallback shared by `+`/`-`/`*`/`/` when the `i128` path
/// overflows (or an operand is already big).
fn big_add(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = a.to_bigint_pair();
    let (bn, bd) = b.to_bigint_pair();
    Rational::from_bigints(&(&an * &bd) + &(&bn * &ad), &ad * &bd)
}

fn big_mul(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = a.to_bigint_pair();
    let (bn, bd) = b.to_bigint_pair();
    Rational::from_bigints(&an * &bn, &ad * &bd)
}

fn big_div(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = a.to_bigint_pair();
    let (bn, bd) = b.to_bigint_pair();
    Rational::from_bigints(&an * &bd, &ad * &bn)
}

/// `a + b` beyond the 64-bit tier: checked `i128` Knuth addition, then BigInt.
#[inline(never)]
fn add_wide(a: &Rational, b: &Rational) -> Rational {
    if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&a.repr, &b.repr) {
        // Knuth's reduced cross-multiplication: dividing both denominators by
        // their gcd first keeps the intermediates (and overflow frequency) down.
        if let Some(g) = gcd_i128(*ad, *bd) {
            let (adg, bdg) = (ad / g, bd / g);
            let num = an
                .checked_mul(bdg)
                .and_then(|l| bn.checked_mul(adg).and_then(|r| l.checked_add(r)));
            let den = adg.checked_mul(*bd);
            if let (Some(num), Some(den)) = (num, den) {
                return Rational::small(num, den);
            }
        }
    }
    big_add(a, b)
}

/// `a - b` beyond the 64-bit tier: checked `i128` arithmetic, then `a + (-b)`.
#[inline(never)]
fn sub_wide(a: &Rational, b: &Rational) -> Rational {
    if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&a.repr, &b.repr) {
        if let Some(g) = gcd_i128(*ad, *bd) {
            let (adg, bdg) = (ad / g, bd / g);
            let num = an
                .checked_mul(bdg)
                .and_then(|l| bn.checked_mul(adg).and_then(|r| l.checked_sub(r)));
            let den = adg.checked_mul(*bd);
            if let (Some(num), Some(den)) = (num, den) {
                return Rational::small(num, den);
            }
        }
    }
    add_wide(a, &(-b.clone()))
}

/// `a · b` beyond the 64-bit tier: cross-reduced checked `i128` products, then BigInt.
#[inline(never)]
fn mul_wide(a: &Rational, b: &Rational) -> Rational {
    if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&a.repr, &b.repr) {
        // Cross-reduce before multiplying: gcd(|a_n|, b_d) and gcd(|b_n|, a_d)
        // divide out, so the products are already fully reduced (each numerator
        // factor is coprime to each denominator factor) and much less likely to
        // overflow.
        if let (Some(g1), Some(g2)) = (gcd_i128(*an, *bd), gcd_i128(*bn, *ad)) {
            let num = (an / g1).checked_mul(bn / g2);
            let den = (ad / g2).checked_mul(bd / g1);
            if let (Some(num), Some(den)) = (num, den) {
                return Rational::small_coprime(num, den);
            }
        }
    }
    big_mul(a, b)
}

/// `a / b` beyond the 64-bit tier: cross-reduced checked `i128` products, then BigInt.
#[inline(never)]
fn div_wide(a: &Rational, b: &Rational) -> Rational {
    if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&a.repr, &b.repr) {
        if let (Some(g1), Some(g2)) = (gcd_i128(*an, *bn), gcd_i128(*ad, *bd)) {
            let num = (an / g1).checked_mul(bd / g2);
            let den = (ad / g2).checked_mul(bn / g1);
            if let (Some(num), Some(den)) = (num, den) {
                // Already coprime by the same cross-reduction argument; the
                // denominator carries `bn`'s sign, which small_coprime fixes.
                return Rational::small_coprime(num, den);
            }
        }
    }
    big_div(a, b)
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &rhs.repr) {
            // Fast outs for the most common operands in LP pivoting.
            if *an == 0 {
                return rhs.clone();
            }
            if *bn == 0 {
                return self.clone();
            }
            if fits_64(*an, *ad, *bn, *bd) {
                return add_64(*an as i64, *ad as i64, *bn as i64, *bd as i64);
            }
        }
        add_wide(self, rhs)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &rhs.repr) {
            if *bn == 0 {
                return self.clone();
            }
            if fits_64(*an, *ad, *bn, *bd) {
                // |bn| < 2^63, so its negation fits i64 too.
                return add_64(*an as i64, *ad as i64, -(*bn as i64), *bd as i64);
            }
        }
        sub_wide(self, rhs)
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &rhs.repr) {
            if *an == 0 || *bn == 0 {
                return Rational::zero();
            }
            if fits_64(*an, *ad, *bn, *bd) {
                return mul_64(*an as i64, *ad as i64, *bn as i64, *bd as i64);
            }
        }
        mul_wide(self, rhs)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational division by zero");
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &rhs.repr) {
            if *an == 0 {
                return Rational::zero();
            }
            if fits_64(*an, *ad, *bn, *bd) {
                return div_64(*an as i64, *ad as i64, *bn as i64, *bd as i64);
            }
        }
        div_wide(self, rhs)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = &*self + &rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = &*self - &rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = &*self * &rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    /// A deterministic grid of rationals covering signs, integers, and ratios with
    /// shared and coprime factors (offline stand-in for property testing).
    fn sample_rationals() -> Vec<Rational> {
        let numerators = [-1000i64, -999, -17, -3, -1, 0, 1, 2, 5, 64, 501, 999];
        let denominators = [1i64, 2, 3, 7, 64, 99, 1000];
        let mut samples = Vec::new();
        for n in numerators {
            for d in denominators {
                samples.push(r(n, d));
            }
        }
        samples
    }

    #[test]
    fn normalization() {
        assert_eq!(r(6, 8), r(3, 4));
        assert_eq!(r(6, -8), r(-3, 4));
        assert_eq!(r(-6, -8), r(3, 4));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(0, -5), Rational::zero());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(2, 3) / r(4, 3), r(1, 2));
        assert_eq!(-r(2, 3), r(-2, 3));
    }

    #[test]
    fn comparisons() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 1) > r(13, 2));
        assert_eq!(r(2, 4).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(6, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(6, 2).ceil(), BigInt::from(3i64));
        assert_eq!(r(5, 2).round(), BigInt::from(3i64));
        assert_eq!(r(-5, 2).round(), BigInt::from(-3i64));
        assert_eq!(r(9, 4).round(), BigInt::from(2i64));
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(r(3, 4).to_string(), "3/4");
        assert_eq!(r(8, 4).to_string(), "2");
        assert_eq!("3/4".parse::<Rational>().unwrap(), r(3, 4));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("7".parse::<Rational>().unwrap(), r(7, 1));
        assert_eq!("2.5".parse::<Rational>().unwrap(), r(5, 2));
        assert_eq!("-0.25".parse::<Rational>().unwrap(), r(-1, 4));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x".parse::<Rational>().is_err());
    }

    #[test]
    fn f64_conversions() {
        assert_eq!(Rational::from_f64(0.5), r(1, 2));
        assert_eq!(Rational::from_f64(-0.25), r(-1, 4));
        assert_eq!(Rational::from_f64(3.0), r(3, 1));
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(Rational::from_f64(0.0), Rational::zero());
        // Tiny and huge doubles exercise the shift edges of the small path.
        assert_eq!(Rational::from_f64(2f64.powi(-100)).to_f64(), 2f64.powi(-100));
        assert_eq!(Rational::from_f64(2f64.powi(100)).to_f64(), 2f64.powi(100));
        // Beyond the inline shifts the conversion stays exact even though it takes
        // the BigInt route (2^200 · 19 is a 205-bit numerator).
        let big = Rational::from_f64(19.0) * Rational::from(BigInt::from(2i64).pow(200));
        assert_eq!(big.numerator(), &BigInt::from(19i64) * &BigInt::from(2i64).pow(200));
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
        assert_eq!(r(2, 3).pow(3), r(8, 27));
        assert_eq!(r(2, 3).pow(0), Rational::one());
    }

    #[test]
    fn min_max() {
        assert_eq!(r(1, 2).min(r(1, 3)), r(1, 3));
        assert_eq!(r(1, 2).max(r(1, 3)), r(1, 2));
    }

    #[test]
    fn assign_ops() {
        let mut x = r(1, 2);
        x += r(1, 3);
        assert_eq!(x, r(5, 6));
        x -= r(1, 6);
        assert_eq!(x, r(2, 3));
        x *= r(3, 2);
        assert_eq!(x, Rational::one());
    }

    #[test]
    fn add_commutes_and_sub_is_add_neg() {
        let samples = sample_rationals();
        for x in &samples {
            for y in &samples {
                assert_eq!(x + y, y + x);
                assert_eq!(x - y, x + &(-y.clone()));
            }
        }
    }

    #[test]
    fn add_is_associative() {
        let samples = sample_rationals();
        // A coarser sub-grid keeps the triple loop fast.
        let subset: Vec<&Rational> = samples.iter().step_by(5).collect();
        for &x in &subset {
            for &y in &subset {
                for &z in &subset {
                    assert_eq!(&(x + y) + z, x + &(y + z));
                }
            }
        }
    }

    #[test]
    fn mul_inverse_gives_one() {
        for x in sample_rationals() {
            if !x.is_zero() {
                assert_eq!(&x * &x.recip(), Rational::one());
            }
        }
    }

    #[test]
    fn floor_le_value_le_ceil() {
        for x in sample_rationals() {
            let fl = Rational::from(x.floor());
            let ce = Rational::from(x.ceil());
            assert!(fl <= x && x <= ce);
            assert!(&ce - &fl <= Rational::one());
        }
    }

    #[test]
    fn f64_roundtrip_close() {
        for x in sample_rationals() {
            let back = Rational::from_f64(x.to_f64());
            let diff = (&x - &back).abs();
            assert!(diff < r(1, 1_000_000), "roundtrip drift for {x}");
        }
    }

    #[test]
    fn ordering_consistent_with_f64() {
        let samples = sample_rationals();
        for x in &samples {
            for y in &samples {
                if x < y {
                    assert!(x.to_f64() <= y.to_f64());
                }
            }
        }
    }

    // ----- i128 fast-path specifics ---------------------------------------------------

    /// A value beyond i128 (2^200) forced through the big path.
    fn huge() -> Rational {
        Rational::from(BigInt::from(2i64).pow(200))
    }

    #[test]
    fn small_values_stay_inline() {
        assert!(r(355, 113).is_small());
        assert!((r(999, 1000) + r(1, 3)).is_small());
        assert!(Rational::from_f64(1.0 / 3.0f64.sqrt()).is_small());
        assert!(!huge().is_small());
    }

    #[test]
    fn overflow_promotes_and_reduction_demotes() {
        // (2^100 / 3) * (3 / 2^100) = 1 — the product overflows i128 before the
        // cross-reduction brings it back; either way the result must be inline.
        let a = Rational::from_bigints(BigInt::from(2i64).pow(100), BigInt::from(3i64));
        assert!(a.is_small(), "2^100/3 fits i128");
        let b = a.recip();
        assert_eq!(&a * &b, Rational::one());
        assert!((&a * &b).is_small());
        // Squaring 2^100/3 exceeds i128 and must promote without losing exactness.
        let sq = &a * &a;
        assert!(!sq.is_small());
        assert_eq!(sq.numerator(), BigInt::from(2i64).pow(200));
        assert_eq!(sq.denominator(), BigInt::from(9i64));
        // Dividing back demotes to the inline form again (canonical representation).
        let back = &sq / &a;
        assert!(back.is_small());
        assert_eq!(back, a);
    }

    #[test]
    fn mixed_repr_arithmetic_is_exact() {
        let h = huge();
        let one = Rational::one();
        assert_eq!(&(&h + &one) - &h, one);
        assert_eq!(&h - &h, Rational::zero());
        assert_eq!(&(&h * &r(3, 7)) / &r(3, 7), h);
        assert!(h > r(1_000_000, 1));
        assert!(-h.clone() < r(-1_000_000, 1));
    }

    #[test]
    fn equality_and_hash_are_representation_independent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // The same value built through the big constructor and the small one.
        let via_big = Rational::from_bigints(
            &BigInt::from(2i64).pow(150) * &BigInt::from(6i64),
            &BigInt::from(2i64).pow(150) * &BigInt::from(4i64),
        );
        let via_small = r(3, 2);
        assert!(via_big.is_small(), "reduction must demote to the inline form");
        assert_eq!(via_big, via_small);
        let hash = |v: &Rational| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&via_big), hash(&via_small));
    }

    #[test]
    fn extreme_i128_magnitudes_survive() {
        let min = Rational::from(BigInt::from(i128::MIN));
        assert!(min.is_small());
        let negated = -min.clone();
        assert_eq!(&negated + &min, Rational::zero());
        assert_eq!(&min * &r(1, 1), min);
        assert!((&min - &Rational::one()) < min);
        assert_eq!(min.floor(), BigInt::from(i128::MIN));
        assert_eq!(min.ceil(), BigInt::from(i128::MIN));
    }

    // ----- 64-bit tier against BigInt -------------------------------------------------

    /// The reduced `(numerator, denominator)` of `num/den`, normalized with BigInt
    /// arithmetic only (independent of every machine-word path).
    fn reference(num: BigInt, den: BigInt) -> (BigInt, BigInt) {
        let (num, den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        if num.is_zero() {
            return (BigInt::zero(), BigInt::one());
        }
        let g = num.gcd(&den);
        (num.div_rem(&g).0, den.div_rem(&g).0)
    }

    /// Asserts `value` is the canonical form of `num/den`: the reduced parts match
    /// the BigInt reference, and the value is inline exactly when both parts fit i128.
    fn assert_canonical(value: &Rational, num: BigInt, den: BigInt, context: &str) {
        let (n, d) = reference(num, den);
        assert_eq!((value.numerator(), value.denominator()), (n.clone(), d.clone()), "{context}");
        let fits = n.to_i128().is_some() && d.to_i128().is_some();
        assert_eq!(value.is_small(), fits, "{context}: non-canonical representation");
    }

    /// Integer magnitudes around every tier boundary: 0, ±1, ±2, ±2^31, ±(2^63 − 1),
    /// i64::MIN, ±2^63, ±2^64 and values next to the i128 limits.
    fn boundary_integers() -> Vec<i128> {
        let p63 = 1i128 << 63;
        let mut out = vec![
            0,
            1,
            2,
            3,
            1 << 31,
            (1 << 31) + 1,
            p63 - 1,
            p63,
            p63 + 1,
            1 << 64,
            (1 << 64) - 1,
            1 << 100,
            i128::MAX,
            i128::MAX - 1,
            1 << 126,
        ];
        out.extend(out.clone().into_iter().map(|v| -v));
        out.push(i128::MIN);
        out.push(i128::MIN + 1);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Boundary integers as numerators over boundary denominators, plus seeded
    /// coprime pairs of 20–62-bit parts (reduced fractions that stay on the 64-bit
    /// tier but whose products do not fit 64 bits).
    fn boundary_grid() -> Vec<(i128, i128)> {
        let integers = boundary_integers();
        let denominators: Vec<i128> = integers.iter().copied().filter(|&d| d > 0).collect();
        let mut grid = Vec::new();
        for &num in &integers {
            for &den in [1i128, 2, 3, 1 << 31, (1 << 63) - 1, 1 << 63, i128::MAX].iter() {
                grid.push((num, den));
            }
        }
        for &den in &denominators {
            grid.push((1, den));
            grid.push((-7, den));
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coprime = 0;
        while coprime < 48 {
            let bits_n = 20 + next() % 43;
            let bits_d = 20 + next() % 43;
            let num = (next() >> (64 - bits_n)) as i128;
            let den = (next() >> (64 - bits_d)) as i128 | 1;
            if num != 0 && gcd_u128(num as u128, den as u128) == 1 {
                grid.push((if next() % 2 == 0 { num } else { -num }, den));
                coprime += 1;
            }
        }
        grid
    }

    /// Every operation on every pair of the boundary grid agrees with BigInt: add,
    /// sub, mul, div (against both the `big_*` fallbacks and an independent BigInt
    /// normalization), cmp (against BigInt cross products), and the constructors
    /// `new` and `from_bigints`. In debug builds the 64-bit kernels also run the
    /// `small_coprime` coprimality assertion on every result.
    #[test]
    fn machine_word_tiers_agree_with_bigint_on_the_boundary_grid() {
        let grid = boundary_grid();
        let values: Vec<(Rational, BigInt, BigInt)> = grid
            .iter()
            .map(|&(n, d)| {
                let value = Rational::from_bigints(BigInt::from(n), BigInt::from(d));
                assert_canonical(&value, BigInt::from(n), BigInt::from(d), &format!("{n}/{d}"));
                let (num, den) = reference(BigInt::from(n), BigInt::from(d));
                (value, num, den)
            })
            .collect();
        for (x, xn, xd) in &values {
            for (y, yn, yd) in &values {
                let context = format!("{x:?} and {y:?}");
                let sum = x + y;
                assert_eq!(sum, big_add(x, y), "add {context}");
                assert_canonical(&sum, &(xn * yd) + &(yn * xd), xd * yd, &format!("add {context}"));
                let difference = x - y;
                assert_eq!(difference, big_add(x, &-y), "sub {context}");
                assert_canonical(
                    &difference,
                    &(xn * yd) - &(yn * xd),
                    xd * yd,
                    &format!("sub {context}"),
                );
                let product = x * y;
                assert_eq!(product, big_mul(x, y), "mul {context}");
                assert_canonical(&product, xn * yn, xd * yd, &format!("mul {context}"));
                if !y.is_zero() {
                    let quotient = x / y;
                    assert_eq!(quotient, big_div(x, y), "div {context}");
                    assert_canonical(&quotient, xn * yd, xd * yn, &format!("div {context}"));
                }
                assert_eq!(x.cmp(y), (xn * yd).cmp(&(yn * xd)), "cmp {context}");
            }
        }
        // `new` over the i64 corners (including i64::MIN, which the 64-bit tier
        // excludes as an operand but `new` must still normalize).
        let corners = [0i64, 1, -1, 2, -2, 1 << 31, -(1 << 31), i64::MAX, -i64::MAX, i64::MIN];
        for &n in &corners {
            for &d in corners.iter().filter(|&&d| d != 0) {
                assert_canonical(
                    &Rational::new(n, d),
                    BigInt::from(n),
                    BigInt::from(d),
                    &format!("new({n}, {d})"),
                );
            }
        }
    }

    #[test]
    fn gcd_helpers() {
        assert_eq!(gcd_u128(0, 7), 7);
        assert_eq!(gcd_u128(48, 36), 12);
        assert_eq!(gcd_i128(-48, 36), Some(12));
        assert_eq!(gcd_i128(i128::MIN, 0), None);
        assert_eq!(gcd_i128(i128::MIN, 3), Some(1));
    }
}
