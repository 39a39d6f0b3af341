//! Complex scalar types.
//!
//! The paper adds "support for float and double complex numbers" because the
//! main application of the library is scientific data (§3.4); scalar complex
//! numbers were implemented as SQL Server UDTs. Here they are plain `Copy`
//! structs with the usual field arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! complex_impl {
    ($name:ident, $t:ty, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        pub struct $name {
            /// Real part.
            pub re: $t,
            /// Imaginary part.
            pub im: $t,
        }

        impl $name {
            /// Creates a complex number from its real and imaginary parts.
            #[inline]
            pub const fn new(re: $t, im: $t) -> Self {
                Self { re, im }
            }

            /// The multiplicative identity.
            pub const ONE: Self = Self::new(1.0, 0.0);
            /// The imaginary unit.
            pub const I: Self = Self::new(0.0, 1.0);

            /// Squared modulus `re² + im²`.
            #[inline]
            pub fn norm_sqr(self) -> $t {
                self.re * self.re + self.im * self.im
            }

            /// Multiplicative inverse. Returns NaN components for zero input.
            #[inline]
            fn recip(self) -> Self {
                let d = self.norm_sqr();
                Self::new(self.re / d, -self.im / d)
            }
        }

        impl From<$t> for $name {
            #[inline]
            fn from(re: $t) -> Self {
                Self::new(re, 0.0)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, o: Self) -> Self {
                Self::new(self.re + o.re, self.im + o.im)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, o: Self) -> Self {
                Self::new(self.re - o.re, self.im - o.im)
            }
        }

        impl Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, o: Self) -> Self {
                Self::new(
                    self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re,
                )
            }
        }

        impl Div for $name {
            type Output = Self;
            #[inline]
            #[allow(clippy::suspicious_arithmetic_impl, reason = "z/w = z * w⁻¹")]
            fn div(self, o: Self) -> Self {
                self * o.recip()
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self::new(-self.re, -self.im)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, o: Self) {
                *self = *self + o;
            }
        }
        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, o: Self) {
                *self = *self - o;
            }
        }
        impl MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, o: Self) {
                *self = *self * o;
            }
        }
        impl DivAssign for $name {
            #[inline]
            fn div_assign(&mut self, o: Self) {
                *self = *self / o;
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if self.im < 0.0 {
                    write!(f, "{}{}i", self.re, self.im)
                } else {
                    write!(f, "{}+{}i", self.re, self.im)
                }
            }
        }
    };
}

complex_impl!(
    Complex32,
    f32,
    "Single-precision complex number (the SQL `complex` UDT over `real`)."
);
complex_impl!(
    Complex64,
    f64,
    "Double-precision complex number (the SQL `complex` UDT over `float`)."
);

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Self = Self::new(0.0, 0.0);

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Modulus (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// `e^{iθ}` on the unit circle; the workhorse of FFT twiddles.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Scales both components by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// Widens from single precision.
    #[inline]
    pub(crate) fn from_c32(c: Complex32) -> Self {
        Self::new(c.re as f64, c.im as f64)
    }
}

impl Complex32 {
    /// Narrows from double precision (lossy).
    #[inline]
    pub(crate) fn from_c64(c: Complex64) -> Self {
        Self::new(c.re as f32, c.im as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.5, 4.0);
        let c = a + b - b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn multiplication_matches_definition() {
        // (1+2i)(3+4i) = 3+4i+6i+8i^2 = -5+10i
        let p = Complex64::new(1.0, 2.0) * Complex64::new(3.0, 4.0);
        assert!(close(p.re, -5.0) && close(p.im, 10.0));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(2.0, -3.0);
        let b = Complex64::new(0.5, 1.5);
        let q = (a * b) / b;
        assert!(close(q.re, a.re) && close(q.im, a.im));
    }

    #[test]
    fn conj_and_norm() {
        let a = Complex64::new(3.0, 4.0);
        assert!(close(a.abs(), 5.0));
        assert!(close(a.norm_sqr(), 25.0));
        let c = a * a.conj();
        assert!(close(c.re, 25.0) && close(c.im, 0.0));
    }

    #[test]
    fn cis_lands_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex64::cis(theta);
            assert!(close(z.abs(), 1.0));
            assert!(close(
                z.im.atan2(z.re).rem_euclid(2.0 * std::f64::consts::PI),
                theta.rem_euclid(2.0 * std::f64::consts::PI)
            ));
        }
    }

    #[test]
    fn i_squares_to_minus_one() {
        let m = Complex64::I * Complex64::I;
        assert!(close(m.re, -1.0) && close(m.im, 0.0));
    }

    #[test]
    fn single_precision_arithmetic() {
        let p = Complex32::new(1.0, 1.0) * Complex32::new(1.0, -1.0);
        assert_eq!(p, Complex32::new(2.0, 0.0));
        assert_eq!(
            Complex32::from_c64(Complex64::new(1.0, 2.0)),
            Complex32::new(1.0, 2.0)
        );
        assert_eq!(
            Complex64::from_c32(Complex32::new(1.0, 2.0)),
            Complex64::new(1.0, 2.0)
        );
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn recip_of_zero_is_nan() {
        let r = Complex64::ZERO.recip();
        assert!(r.re.is_nan() && r.im.is_nan());
    }
}
