//! Minimal complex arithmetic for state-vector simulation.
//!
//! The workspace deliberately avoids an external complex-number dependency:
//! the simulator only needs addition, multiplication, conjugation, and norm —
//! implemented here as a `Copy` struct of two `f64`s so gate kernels stay
//! allocation-free and auto-vectorizable.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity 0.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity 1.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit i.
    pub(crate) const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Construct from real and imaginary parts.
    pub(crate) const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// A purely real value.
    pub(crate) const fn real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// e^{iθ} = cos θ + i sin θ.
    pub(crate) fn from_phase(theta: f64) -> Self {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude |z|².
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude |z|.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase) in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scale by a real factor.
    pub(crate) fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Approximate equality within `eps` on both components.
    pub fn approx_eq(self, other: Complex64, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!((z - z), Complex64::ZERO);
        assert_eq!(-z, Complex64::new(-3.0, 4.0));
    }

    #[test]
    fn multiplication_and_conjugate() {
        let z = Complex64::new(1.0, 2.0);
        let w = Complex64::new(3.0, -1.0);
        let p = z * w;
        assert!(p.approx_eq(Complex64::new(5.0, 5.0), EPS));
        assert!((z * z.conj()).approx_eq(Complex64::real(z.norm_sqr()), EPS));
    }

    #[test]
    fn magnitude_and_phase() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        let p = Complex64::from_phase(std::f64::consts::FRAC_PI_2);
        assert!(p.approx_eq(Complex64::I, EPS));
        assert!((p.arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex64::I * Complex64::I).approx_eq(-Complex64::ONE, EPS));
    }

    #[test]
    fn phase_multiplication_adds_angles() {
        let a = Complex64::from_phase(0.7);
        let b = Complex64::from_phase(1.1);
        assert!((a * b).approx_eq(Complex64::from_phase(1.8), 1e-10));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(
            format!("{}", Complex64::new(1.0, -2.0)),
            "1.000000-2.000000i"
        );
        assert_eq!(
            format!("{}", Complex64::new(0.0, 1.0)),
            "0.000000+1.000000i"
        );
    }

    #[test]
    fn scale_and_mul_f64_agree() {
        let z = Complex64::new(2.0, -3.0);
        assert_eq!(z.scale(0.5), z * 0.5);
    }
}
