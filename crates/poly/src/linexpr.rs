//! Affine (degree ≤ 1) expressions over program variables.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::{Add, Mul, Neg, Sub};

use dca_numeric::Rational;

use crate::polynomial::Polynomial;
use crate::vars::{VarId, VarPool};
use crate::Valuation;

/// An affine expression `c0 + c1*x1 + ... + cn*xn`.
///
/// Affine expressions appear throughout the analysis as transition guards, initial
/// conditions and invariants; the convention used by the whole pipeline is that a
/// constraint is the assertion `LinExpr ≥ 0`.
///
/// # Examples
///
/// ```
/// use dca_poly::{LinExpr, VarPool};
/// use dca_numeric::Rational;
///
/// let mut pool = VarPool::new();
/// let x = pool.intern("x");
/// // x - 3 ≥ 0, i.e. x ≥ 3
/// let e = LinExpr::var(x) - LinExpr::constant(Rational::from_int(3));
/// assert_eq!(e.to_string(&pool), "x - 3");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    constant: Rational,
    coeffs: BTreeMap<VarId, Rational>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rational) -> LinExpr {
        LinExpr { constant: c, coeffs: BTreeMap::new() }
    }

    /// A constant expression from a machine integer.
    pub fn from_int(c: i64) -> LinExpr {
        LinExpr::constant(Rational::from_int(c))
    }

    /// The expression consisting of a single variable.
    pub fn var(v: VarId) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, Rational::one());
        LinExpr { constant: Rational::zero(), coeffs }
    }

    /// Builds an expression from a constant and `(variable, coefficient)` pairs.
    pub fn from_parts(
        constant: Rational,
        coeffs: impl IntoIterator<Item = (VarId, Rational)>,
    ) -> LinExpr {
        let mut e = LinExpr::constant(constant);
        for (v, c) in coeffs {
            e.set_coeff(v, c);
        }
        e
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rational {
        &self.constant
    }

    /// Coefficient of a variable (zero if absent).
    pub fn coeff(&self, v: VarId) -> Rational {
        self.coeffs.get(&v).cloned().unwrap_or_default()
    }

    /// Sets the coefficient of a variable (removing it when zero).
    pub fn set_coeff(&mut self, v: VarId, c: Rational) {
        if c.is_zero() {
            self.coeffs.remove(&v);
        } else {
            self.coeffs.insert(v, c);
        }
    }

    /// Sets the constant term.
    pub fn set_constant(&mut self, c: Rational) {
        self.constant = c;
    }

    /// Iterates over `(variable, coefficient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &Rational)> {
        self.coeffs.iter()
    }

    /// Variables with non-zero coefficients.
    pub fn vars(&self) -> Vec<VarId> {
        self.coeffs.keys().copied().collect()
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns `true` if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.constant.is_zero() && self.coeffs.is_empty()
    }

    /// Multiplies the expression by a scalar.
    pub fn scale(&self, factor: &Rational) -> LinExpr {
        if factor.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            constant: &self.constant * factor,
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, c * factor)).collect(),
        }
    }

    /// Evaluates the expression at a valuation (missing variables default to 0).
    pub fn eval(&self, valuation: &Valuation) -> Rational {
        let mut acc = self.constant.clone();
        for (v, c) in &self.coeffs {
            if let Some(x) = valuation.get(v) {
                acc = &acc + &(c * x);
            }
        }
        acc
    }

    /// Converts the affine expression to a [`Polynomial`].
    pub fn to_polynomial(&self) -> Polynomial {
        let mut p = Polynomial::constant(self.constant.clone());
        for (v, c) in &self.coeffs {
            p += &Polynomial::var(*v).scale(c);
        }
        p
    }

    /// Attempts to convert a polynomial into an affine expression.
    ///
    /// Returns `None` if the polynomial has degree greater than 1.
    pub fn try_from_polynomial(p: &Polynomial) -> Option<LinExpr> {
        if p.degree() > 1 {
            return None;
        }
        let mut e = LinExpr::zero();
        for (m, c) in p.iter() {
            if m.is_unit() {
                e.constant = c.clone();
            } else {
                let (v, exp) = m.powers()[0];
                debug_assert_eq!(exp, 1);
                e.set_coeff(v, c.clone());
            }
        }
        Some(e)
    }

    /// Normalizes the expression so that all coefficients are coprime integers.
    ///
    /// This preserves the sign of the expression at every point (the scaling factor is
    /// strictly positive), so `e ≥ 0` and `e.normalize() ≥ 0` are equivalent constraints.
    pub fn normalize(&self) -> LinExpr {
        if self.is_zero() {
            return LinExpr::zero();
        }
        // Multiply by the lcm of denominators, then divide by the gcd of numerators.
        let mut scale = Rational::one();
        let mut values: Vec<Rational> = vec![self.constant.clone()];
        values.extend(self.coeffs.values().cloned());
        for v in &values {
            if !v.is_zero() {
                let den = Rational::from(v.denominator());
                // lcm accumulation on the scale denominator
                scale = &scale * &den;
            }
        }
        let scaled: Vec<Rational> = values.iter().map(|v| v * &scale).collect();
        let mut gcd = dca_numeric::BigInt::zero();
        for v in &scaled {
            gcd = gcd.gcd(&v.numerator());
        }
        let divisor = if gcd.is_zero() {
            Rational::one()
        } else {
            Rational::from(gcd)
        };
        let factor = &scale / &divisor;
        self.scale(&factor)
    }

    /// Renders the expression using variable names from the pool.
    pub fn to_string(&self, pool: &VarPool) -> String {
        let mut out = String::new();
        let mut first = true;
        for (v, c) in &self.coeffs {
            let mag = c.abs();
            if first {
                if c.is_negative() {
                    out.push('-');
                }
                first = false;
            } else if c.is_negative() {
                out.push_str(" - ");
            } else {
                out.push_str(" + ");
            }
            if mag == Rational::one() {
                let _ = write!(out, "{}", pool.name(*v));
            } else {
                let _ = write!(out, "{}*{}", mag, pool.name(*v));
            }
        }
        if first {
            let _ = write!(out, "{}", self.constant);
        } else if !self.constant.is_zero() {
            if self.constant.is_negative() {
                let _ = write!(out, " - {}", self.constant.abs());
            } else {
                let _ = write!(out, " + {}", self.constant);
            }
        }
        out
    }
}

impl Add for &LinExpr {
    type Output = LinExpr;
    fn add(self, rhs: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.constant = &out.constant + &rhs.constant;
        for (v, c) in &rhs.coeffs {
            let new = &out.coeff(*v) + c;
            out.set_coeff(*v, new);
        }
        out
    }
}

impl Sub for &LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: &LinExpr) -> LinExpr {
        self + &(-rhs.clone())
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scale(&-Rational::one())
    }
}

impl Neg for &LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scale(&-Rational::one())
    }
}

impl Mul<&Rational> for &LinExpr {
    type Output = LinExpr;
    fn mul(self, rhs: &Rational) -> LinExpr {
        self.scale(rhs)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for LinExpr {
            type Output = LinExpr;
            fn $method(self, rhs: LinExpr) -> LinExpr {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&LinExpr> for LinExpr {
            type Output = LinExpr;
            fn $method(self, rhs: &LinExpr) -> LinExpr {
                (&self).$method(rhs)
            }
        }
        impl $trait<LinExpr> for &LinExpr {
            type Output = LinExpr;
            fn $method(self, rhs: LinExpr) -> LinExpr {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VarPool, VarId, VarId) {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        (pool, x, y)
    }

    #[test]
    fn construction_and_access() {
        let (_, x, y) = setup();
        let e = LinExpr::from_parts(
            Rational::from_int(3),
            [(x, Rational::from_int(2)), (y, Rational::from_int(-1))],
        );
        assert_eq!(e.coeff(x), Rational::from_int(2));
        assert_eq!(e.coeff(y), Rational::from_int(-1));
        assert_eq!(*e.constant_term(), Rational::from_int(3));
        assert_eq!(e.vars(), vec![x, y]);
        assert!(!e.is_constant());
    }

    #[test]
    fn arithmetic() {
        let (_, x, y) = setup();
        let a = LinExpr::var(x) + LinExpr::from_int(1);
        let b = LinExpr::var(y) - LinExpr::from_int(2);
        let s = &a + &b;
        assert_eq!(s.coeff(x), Rational::one());
        assert_eq!(s.coeff(y), Rational::one());
        assert_eq!(*s.constant_term(), Rational::from_int(-1));
        let d = &a - &a;
        assert!(d.is_zero());
    }

    #[test]
    fn evaluation() {
        let (_, x, y) = setup();
        let e = LinExpr::var(x).scale(&Rational::from_int(2)) + LinExpr::var(y) - LinExpr::from_int(5);
        let mut v = Valuation::new();
        v.insert(x, Rational::from_int(3));
        v.insert(y, Rational::from_int(4));
        assert_eq!(e.eval(&v), Rational::from_int(5));
    }

    #[test]
    fn polynomial_roundtrip() {
        let (_, x, y) = setup();
        let e = LinExpr::var(x).scale(&Rational::new(1, 2)) - LinExpr::var(y) + LinExpr::from_int(7);
        let p = e.to_polynomial();
        assert_eq!(LinExpr::try_from_polynomial(&p), Some(e));
        let nonlinear = Polynomial::var(x) * Polynomial::var(y);
        assert_eq!(LinExpr::try_from_polynomial(&nonlinear), None);
    }

    #[test]
    fn normalization_clears_denominators() {
        let (_, x, y) = setup();
        let e = LinExpr::var(x).scale(&Rational::new(1, 2)) + LinExpr::var(y).scale(&Rational::new(1, 3));
        let n = e.normalize();
        // multiplied by 6: 3x + 2y
        assert_eq!(n.coeff(x), Rational::from_int(3));
        assert_eq!(n.coeff(y), Rational::from_int(2));
        // the two must have the same sign everywhere -- sample a point
        let mut v = Valuation::new();
        v.insert(x, Rational::from_int(-1));
        v.insert(y, Rational::from_int(1));
        assert_eq!(e.eval(&v).is_negative(), n.eval(&v).is_negative());
    }

    #[test]
    fn normalization_reduces_common_factor() {
        let (_, x, _) = setup();
        let e = LinExpr::var(x).scale(&Rational::from_int(4)) + LinExpr::from_int(6);
        let n = e.normalize();
        assert_eq!(n.coeff(x), Rational::from_int(2));
        assert_eq!(*n.constant_term(), Rational::from_int(3));
    }

    #[test]
    fn display() {
        let (pool, x, y) = setup();
        let e = LinExpr::var(x).scale(&Rational::from_int(-2)) + LinExpr::var(y) + LinExpr::from_int(3);
        assert_eq!(e.to_string(&pool), "-2*x + y + 3");
        assert_eq!(LinExpr::zero().to_string(&pool), "0");
        assert_eq!(LinExpr::from_int(-4).to_string(&pool), "-4");
    }
}
