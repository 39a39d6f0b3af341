//! An order-independent, exactly rounded `f64` accumulator.
//!
//! Parallel aggregation splits a reduction over workers, which changes the
//! shape of the floating-point reduction tree; with a naive `+=` the result
//! of `SUM(v1)` would then depend on the degree of parallelism. [`ExactSum`]
//! sidesteps the problem the way long-accumulator hardware proposals do
//! (Kulisch accumulation): every addend is expanded into a ~2200-bit
//! fixed-point register wide enough to hold any finite `f64` exactly, so
//! addition is genuinely associative and commutative. The final
//! [`value`](ExactSum::value) is the correctly rounded (nearest-even) `f64`
//! of the true sum — identical no matter how the inputs were partitioned.
//!
//! The register is held in carry-save form, Neal's "small
//! superaccumulator" (arXiv:1505.05571): 68 signed 64-bit digits, each
//! standing for 32 bits of the fixed-point number. An addend's 53-bit
//! mantissa lands in three adjacent digits with three plain adds and no
//! carry chain; the carries the digits build up are propagated in one pass
//! every 1 024 addends, and whenever the register is read. The propagated
//! form — the sum as a 2176-bit two's-complement number in 34 `u64` limbs —
//! is what [`value`](ExactSum::value) rounds and
//! [`to_bytes`](ExactSum::to_bytes) writes, so equal sums serialize to
//! equal bytes however their addends arrived.
//!
//! The engine's built-in `SUM`/`AVG` accumulate through this type, which is
//! what lets the executor promise bit-identical results for serial and
//! parallel plans.
//!
//! ```
//! use sqlarray_core::exact::ExactSum;
//!
//! let xs = [1e100, 1.0, -1e100, 1e-30];
//! let mut forward = ExactSum::new();
//! let mut backward = ExactSum::new();
//! for x in xs {
//!     forward.add(x);
//! }
//! for x in xs.iter().rev() {
//!     backward.add(*x);
//! }
//! // Naive summation loses the 1.0 in one of the two orders; the exact
//! // accumulator is order independent and correctly rounded.
//! assert_eq!(forward.value(), backward.value());
//! assert_eq!(forward.value(), 1.0 + 1e-30);
//! ```

/// Number of 64-bit limbs in the register's propagated (and serialized)
/// form.
///
/// Finite `f64` values occupy bit positions `0` (2⁻¹⁰⁷⁴, the smallest
/// subnormal) through `2097` (the top mantissa bit of `f64::MAX`). Another
/// 64 bits of headroom absorb up to 2⁶⁴ worst-case addends before the sign
/// bit (the top bit of the last limb) could be disturbed; 34 limbs = 2176
/// bits covers both. The register is exact modulo 2²¹⁷⁶: a carry out of
/// the top is dropped.
const LIMBS: usize = 34;

/// Number of carry-save digits: one per 32 bits of the register.
const DIGITS: usize = 2 * LIMBS;

/// Bit position of 2⁰ inside the register: the exponent of the smallest
/// subnormal is −1074, so bit 0 (of digit 0 and of limb 0) represents
/// 2⁻¹⁰⁷⁴.
const EXP_BIAS: i32 = 1074;

/// Addends between two carry passes. A propagated digit lies in
/// `[0, 2³²)` and an addend moves a digit by less than 2³², so after `n`
/// addends every digit stays below `(n + 1) · 2³²` in magnitude. A merge
/// counts as its operand's addends plus one, so `n` never exceeds twice
/// this interval — digits stay far inside `i64`.
const CARRY_INTERVAL: u32 = 1 << 10;

/// An exact accumulator for `f64` addends.
///
/// Internally a carry-save fixed-point integer of 68 × 32 bits plus
/// out-of-band tracking for non-finite addends (infinities of either
/// sign, NaN). `Clone`-able, `Send`, and mergeable: [`merge`](Self::merge)
/// adds two accumulators exactly, so partial sums computed by parallel
/// workers combine without any rounding at the merge points.
#[derive(Debug, Clone)]
pub struct ExactSum {
    /// The register is `Σ digits[k] · 2^(32·k)` modulo 2²¹⁷⁶.
    digits: [i64; DIGITS],
    /// Addends (and merges) since the last carry pass.
    pending: u32,
    pos_inf: u64,
    neg_inf: u64,
    nan: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl ExactSum {
    /// An empty accumulator (sum of zero addends = `+0.0`).
    pub fn new() -> ExactSum {
        ExactSum {
            digits: [0; DIGITS],
            pending: 0,
            pos_inf: 0,
            neg_inf: 0,
            nan: false,
        }
    }

    /// Adds one `f64` addend, exactly: three digit adds, no carry chain.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let exp_field = (bits >> 52) as u32 & 0x7FF;
        if exp_field == 0x7FF {
            return self.add_non_finite(x);
        }
        // Mantissa m and exponent e such that |x| = m · 2^(e), with the
        // register's bit 0 standing for 2^(−EXP_BIAS). A subnormal (field
        // 0) has no implicit bit and the exponent of field 1; a zero is
        // mantissa 0 and adds nothing.
        let mantissa = (bits & ((1u64 << 52) - 1)) | (((exp_field != 0) as u64) << 52);
        let exp = exp_field.max(1) as i32 - 1075;
        let pos = (exp + EXP_BIAS) as u32; // bit position of mantissa bit 0, ≤ 2045
        let (k, shift) = ((pos / 32) as usize, pos % 32);
        // ±m · 2^shift spans three digits (≤ 53 + 31 bits plus the sign):
        // its low 64 bits as two unsigned pieces, the rest as a signed one.
        let sign = (bits as i64) >> 63; // 0 or −1
        let m = (mantissa as i64 ^ sign) - sign;
        let low = (m << shift) as u64;
        self.digits[k] += low as u32 as i64;
        self.digits[k + 1] += (low >> 32) as i64;
        self.digits[k + 2] += (m >> 32) >> (32 - shift);
        self.pending += 1;
        if self.pending >= CARRY_INTERVAL {
            self.carry();
        }
    }

    #[cold]
    fn add_non_finite(&mut self, x: f64) {
        if x.is_nan() {
            self.nan = true;
        } else if x > 0.0 {
            self.pos_inf += 1;
        } else {
            self.neg_inf += 1;
        }
    }

    /// The carry pass: every digit back in `[0, 2³²)`, same register.
    #[cold]
    fn carry(&mut self) {
        self.digits = digits_of(&self.limbs());
        self.pending = 0;
    }

    /// The register in propagated form: the sum modulo 2²¹⁷⁶ as
    /// little-endian two's-complement limbs.
    fn limbs(&self) -> [u64; LIMBS] {
        let mut limbs = [0u64; LIMBS];
        let mut carry = 0i64;
        for (k, &d) in self.digits.iter().enumerate() {
            let v = d + carry;
            carry = v >> 32;
            limbs[k / 2] |= (v as u32 as u64) << (32 * (k % 2));
        }
        limbs
    }

    /// Adds another accumulator into this one, exactly. This is the
    /// parallel-combine step: digit-wise addition commutes and associates,
    /// so any merge tree yields the same register.
    pub fn merge(&mut self, other: &ExactSum) {
        for (d, o) in self.digits.iter_mut().zip(&other.digits) {
            *d += o;
        }
        self.pending += other.pending + 1;
        if self.pending >= CARRY_INTERVAL {
            self.carry();
        }
        self.pos_inf += other.pos_inf;
        self.neg_inf += other.neg_inf;
        self.nan |= other.nan;
    }

    /// The correctly rounded (round-to-nearest, ties-to-even) `f64` value
    /// of the accumulated sum.
    pub fn value(&self) -> f64 {
        if self.nan || (self.pos_inf > 0 && self.neg_inf > 0) {
            return f64::NAN;
        }
        if self.pos_inf > 0 {
            return f64::INFINITY;
        }
        if self.neg_inf > 0 {
            return f64::NEG_INFINITY;
        }
        round(self.limbs())
    }

    /// Size of the fixed-width serialization produced by
    /// [`to_bytes`](Self::to_bytes).
    pub const SERIALIZED_LEN: usize = LIMBS * 8 + 17;

    /// Serializes the full register (propagated limbs LE, infinity
    /// counters, NaN flag) — aggregate states embed this so partial sums
    /// survive the serialize/merge round trips of the UDA contract without
    /// rounding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::SERIALIZED_LEN);
        for l in self.limbs() {
            out.extend_from_slice(&l.to_le_bytes());
        }
        out.extend_from_slice(&self.pos_inf.to_le_bytes());
        out.extend_from_slice(&self.neg_inf.to_le_bytes());
        out.push(self.nan as u8);
        out
    }

    /// Rebuilds an accumulator from [`to_bytes`](Self::to_bytes) output;
    /// `None` if `buf` is not exactly [`SERIALIZED_LEN`](Self::SERIALIZED_LEN)
    /// bytes.
    pub fn from_bytes(buf: &[u8]) -> Option<ExactSum> {
        if buf.len() != Self::SERIALIZED_LEN {
            return None;
        }
        let limbs: [u64; LIMBS] = std::array::from_fn(|i| crate::le::u64_at(buf, i * 8));
        let off = LIMBS * 8;
        Some(ExactSum {
            digits: digits_of(&limbs),
            pending: 0,
            pos_inf: crate::le::u64_at(buf, off),
            neg_inf: crate::le::u64_at(buf, off + 8),
            nan: buf[off + 16] != 0,
        })
    }

    /// True if no finite or non-finite addend has been folded in.
    pub fn is_zero(&self) -> bool {
        !self.nan && self.pos_inf == 0 && self.neg_inf == 0 && self.limbs() == [0; LIMBS]
    }
}

/// The carry-save digits of a propagated register, each in `[0, 2³²)`.
fn digits_of(limbs: &[u64; LIMBS]) -> [i64; DIGITS] {
    std::array::from_fn(|k| (limbs[k / 2] >> (32 * (k % 2))) as u32 as i64)
}

/// The correctly rounded `f64` of a propagated register.
fn round(limbs: [u64; LIMBS]) -> f64 {
    // Read the two's-complement register: sign, then magnitude.
    let negative = limbs[LIMBS - 1] >> 63 == 1;
    let mut mag = limbs;
    if negative {
        // mag = -register (two's complement negate).
        let mut carry = true;
        for limb in mag.iter_mut() {
            let (s, c) = (!*limb).overflowing_add(carry as u64);
            *limb = s;
            carry = c;
        }
    }
    // Highest set bit.
    let top = match (0..LIMBS).rev().find(|&i| mag[i] != 0) {
        Some(i) => i * 64 + 63 - mag[i].leading_zeros() as usize,
        None => return 0.0,
    };
    let exp = top as i32 - EXP_BIAS; // value ≈ 2^exp
    if top <= 52 {
        // Entirely within the subnormal/smallest-normal window: the
        // magnitude is exactly representable, no rounding needed.
        let v = f64::from_bits(mag[0]);
        return if negative { -v } else { v };
    }
    // Extract the 53-bit mantissa [top-52, top], the guard bit, and the
    // sticky OR of everything below the guard.
    let mantissa = extract_bits(&mag, top - 52, 53);
    let guard = extract_bits(&mag, top - 53, 1) == 1;
    let sticky = {
        let mut any = false;
        let low_bits = top - 53; // number of bits strictly below the guard
        let full = low_bits / 64;
        for limb in mag.iter().take(full) {
            any |= *limb != 0;
        }
        let rem = low_bits % 64;
        if rem > 0 {
            any |= mag[full] & ((1u64 << rem) - 1) != 0;
        }
        any
    };
    let mut q = mantissa;
    let mut e = exp;
    if guard && (sticky || q & 1 == 1) {
        q += 1;
        if q == 1u64 << 53 {
            q >>= 1;
            e += 1;
        }
    }
    if e > 1023 {
        return if negative {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
    }
    let bits = ((negative as u64) << 63) | (((e + 1023) as u64) << 52) | (q & ((1u64 << 52) - 1));
    f64::from_bits(bits)
}

/// Reads `count` bits (≤ 64) starting at bit position `pos` from a
/// little-endian limb array.
fn extract_bits(limbs: &[u64; LIMBS], pos: usize, count: usize) -> u64 {
    assert!(count <= 64);
    let limb = pos / 64;
    let shift = pos % 64;
    let mut v = limbs[limb] >> shift;
    if shift != 0 && limb + 1 < LIMBS {
        v |= limbs[limb + 1]
            .checked_shl((64 - shift) as u32)
            .unwrap_or(0);
    }
    if count < 64 {
        v &= (1u64 << count) - 1;
    }
    v
}

/// The limb-at-a-time register the carry-save one replaced, kept as the
/// property test's oracle: every addend is a 116-bit shifted mantissa
/// added to (or subtracted from) 34 two's-complement `u64` limbs with a
/// full carry (borrow) chain.
#[cfg(test)]
mod reference {
    use super::{round, EXP_BIAS, LIMBS};

    pub struct LimbSum {
        limbs: [u64; LIMBS],
        pos_inf: u64,
        neg_inf: u64,
        nan: bool,
    }

    impl LimbSum {
        pub fn new() -> LimbSum {
            LimbSum {
                limbs: [0u64; LIMBS],
                pos_inf: 0,
                neg_inf: 0,
                nan: false,
            }
        }

        pub fn add(&mut self, x: f64) {
            if x == 0.0 {
                return;
            }
            if x.is_nan() {
                self.nan = true;
                return;
            }
            if x.is_infinite() {
                if x > 0.0 {
                    self.pos_inf += 1;
                } else {
                    self.neg_inf += 1;
                }
                return;
            }
            let bits = x.to_bits();
            let negative = bits >> 63 == 1;
            let exp_field = ((bits >> 52) & 0x7FF) as i32;
            let frac = bits & ((1u64 << 52) - 1);
            let (mantissa, exp) = if exp_field == 0 {
                (frac, -EXP_BIAS)
            } else {
                (frac | (1u64 << 52), exp_field - 1075)
            };
            let pos = (exp + EXP_BIAS) as usize;
            let limb = pos / 64;
            let wide = (mantissa as u128) << (pos % 64);
            let (lo, hi) = (wide as u64, (wide >> 64) as u64);
            if negative {
                self.sub_at(limb, lo, hi);
            } else {
                self.add_at(limb, lo, hi);
            }
        }

        fn add_at(&mut self, limb: usize, lo: u64, hi: u64) {
            let (s, mut carry) = self.limbs[limb].overflowing_add(lo);
            self.limbs[limb] = s;
            let mut i = limb + 1;
            let mut add = hi;
            while (carry || add != 0) && i < LIMBS {
                let (s1, c1) = self.limbs[i].overflowing_add(add);
                let (s2, c2) = s1.overflowing_add(carry as u64);
                self.limbs[i] = s2;
                carry = c1 || c2;
                add = 0;
                i += 1;
            }
        }

        fn sub_at(&mut self, limb: usize, lo: u64, hi: u64) {
            let (s, mut borrow) = self.limbs[limb].overflowing_sub(lo);
            self.limbs[limb] = s;
            let mut i = limb + 1;
            let mut sub = hi;
            while (borrow || sub != 0) && i < LIMBS {
                let (s1, b1) = self.limbs[i].overflowing_sub(sub);
                let (s2, b2) = s1.overflowing_sub(borrow as u64);
                self.limbs[i] = s2;
                borrow = b1 || b2;
                sub = 0;
                i += 1;
            }
        }

        pub fn value(&self) -> f64 {
            if self.nan || (self.pos_inf > 0 && self.neg_inf > 0) {
                return f64::NAN;
            }
            if self.pos_inf > 0 {
                return f64::INFINITY;
            }
            if self.neg_inf > 0 {
                return f64::NEG_INFINITY;
            }
            round(self.limbs)
        }

        pub fn to_bytes(&self) -> Vec<u8> {
            let mut out = Vec::new();
            for l in &self.limbs {
                out.extend_from_slice(&l.to_le_bytes());
            }
            out.extend_from_slice(&self.pos_inf.to_le_bytes());
            out.extend_from_slice(&self.neg_inf.to_le_bytes());
            out.push(self.nan as u8);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};

    fn exact_of(xs: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        for &x in xs {
            s.add(x);
        }
        s.value()
    }

    #[test]
    fn matches_naive_on_exact_cases() {
        assert_eq!(exact_of(&[]), 0.0);
        assert_eq!(exact_of(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(exact_of(&[0.5, 0.25, -0.75]), 0.0);
        let ints: Vec<f64> = (0..1000).map(|k| k as f64).collect();
        assert_eq!(exact_of(&ints), 499_500.0);
    }

    #[test]
    fn recovers_catastrophic_cancellation() {
        assert_eq!(exact_of(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(exact_of(&[1.0, 1e100, -1e100]), 1.0);
        assert_eq!(exact_of(&[1e308, 1e308, -1e308, -1e308]), 0.0);
    }

    #[test]
    fn order_independent_under_permutation() {
        let xs: Vec<f64> = (0..500)
            .map(|k| {
                let t = (k as f64 * 0.7391).sin();
                t * 10f64.powi((k % 40) - 20)
            })
            .collect();
        let forward = exact_of(&xs);
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(forward.to_bits(), exact_of(&rev).to_bits());
        // Interleaved order.
        let mut inter: Vec<f64> = Vec::new();
        for i in 0..xs.len() / 2 {
            inter.push(xs[i]);
            inter.push(xs[xs.len() - 1 - i]);
        }
        assert_eq!(forward.to_bits(), exact_of(&inter).to_bits());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..256)
            .map(|k| ((k * 37 % 101) as f64 - 50.0) * 1e-3)
            .collect();
        let total = exact_of(&xs);
        for split in [1usize, 7, 128, 255] {
            let mut a = ExactSum::new();
            let mut b = ExactSum::new();
            for &x in &xs[..split] {
                a.add(x);
            }
            for &x in &xs[split..] {
                b.add(x);
            }
            a.merge(&b);
            assert_eq!(a.value().to_bits(), total.to_bits(), "split {split}");
        }
    }

    #[test]
    fn subnormals_sum_exactly() {
        let tiny = f64::from_bits(3); // 3 · 2⁻¹⁰⁷⁴
        assert_eq!(exact_of(&[tiny, tiny]), f64::from_bits(6));
        assert_eq!(exact_of(&[tiny, -tiny]), 0.0);
        assert_eq!(exact_of(&[f64::MIN_POSITIVE, -tiny]).to_bits(), {
            f64::MIN_POSITIVE.to_bits() - 3
        });
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-53 rounds to 1 (tie to even); 1 + 2^-53 + 2^-100 must
        // round up because the sticky bit breaks the tie.
        let ulp_half = (2f64).powi(-53);
        assert_eq!(exact_of(&[1.0, ulp_half]), 1.0);
        assert_eq!(
            exact_of(&[1.0, ulp_half, (2f64).powi(-100)]),
            1.0 + 2.0 * ulp_half
        );
        // Tie with odd mantissa rounds up to the even neighbour.
        let odd = 1.0 + 2.0 * ulp_half; // mantissa ...01
        assert_eq!(exact_of(&[odd, ulp_half]), odd + 2.0 * ulp_half);
    }

    #[test]
    fn non_finite_addends() {
        assert!(exact_of(&[1.0, f64::NAN]).is_nan());
        assert_eq!(exact_of(&[f64::INFINITY, 1.0]), f64::INFINITY);
        assert_eq!(exact_of(&[f64::NEG_INFINITY, 1e300]), f64::NEG_INFINITY);
        assert!(exact_of(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        let mut s = ExactSum::new();
        for _ in 0..4 {
            s.add(f64::MAX);
        }
        assert_eq!(s.value(), f64::INFINITY);
        let mut n = ExactSum::new();
        for _ in 0..4 {
            n.add(-f64::MAX);
        }
        assert_eq!(n.value(), f64::NEG_INFINITY);
        // ...but cancelling the overflow recovers the exact remainder.
        s.merge(&n);
        assert_eq!(s.value(), 0.0);
        assert!(s.is_zero());
    }

    #[test]
    fn a_zero_sum_is_zero_before_its_carries_are_propagated() {
        // 2³¹ + 2³¹ − 2³² in units of 2⁻¹⁰⁷⁴: digit 0 holds 2³², digit 1
        // holds −1 — a zero register whose digits are not all zero.
        let half = f64::from_bits(1 << 31);
        let mut s = ExactSum::new();
        s.add(half);
        s.add(half);
        assert!(!s.is_zero());
        s.add(-2.0 * half);
        assert!(s.is_zero());
        assert_eq!(s.to_bytes(), ExactSum::new().to_bytes());
    }

    #[test]
    fn negative_totals_round_symmetrically() {
        let xs = [0.1, 0.2, 0.3];
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert_eq!(exact_of(&xs), -exact_of(&neg));
    }

    #[test]
    fn serialization_round_trips_the_register() {
        let mut s = ExactSum::new();
        for x in [1e-300, -2.5, 1e100, f64::INFINITY] {
            s.add(x);
        }
        let buf = s.to_bytes();
        assert_eq!(buf.len(), ExactSum::SERIALIZED_LEN);
        let back = ExactSum::from_bytes(&buf).unwrap();
        assert_eq!(back.value(), s.value());
        let mut merged = ExactSum::new();
        merged.merge(&back);
        merged.add(f64::NEG_INFINITY);
        assert!(merged.value().is_nan());
        assert!(ExactSum::from_bytes(&buf[1..]).is_none());
    }

    #[test]
    fn matches_serial_fold_for_integral_values() {
        // Integer-valued f64 sums are exact under naive folding too, so the
        // two must agree bit for bit.
        let xs: Vec<f64> = (0..10_000).map(|k| (k % 97) as f64).collect();
        let naive: f64 = xs.iter().sum();
        assert_eq!(exact_of(&xs).to_bits(), naive.to_bits());
    }

    /// Checks the carry-save register against [`reference::LimbSum`] over
    /// one addend sequence: the value bits and bytes of the whole sum, of
    /// every prefix merged with the rest, and of every prefix sent through
    /// `to_bytes`/`from_bytes` before that merge.
    fn agrees_with_reference(xs: &[f64]) {
        let mut oracle = reference::LimbSum::new();
        for &x in xs {
            oracle.add(x);
        }
        let want = (oracle.value().to_bits(), oracle.to_bytes());
        // The carry-save bound the digits rely on to never overflow.
        let got = |s: &ExactSum| {
            assert!(s.pending < CARRY_INTERVAL, "a carry pass was skipped");
            let bound = (s.pending as u64 + 1) << 32;
            assert!(
                s.digits.iter().all(|d| d.unsigned_abs() < bound),
                "digits outgrew {} pending addends",
                s.pending
            );
            (s.value().to_bits(), s.to_bytes())
        };
        // suffixes[k] holds xs[k..], built back to front.
        let mut suffixes = vec![ExactSum::new()];
        for &x in xs.iter().rev() {
            let mut s = suffixes[suffixes.len() - 1].clone();
            s.add(x);
            suffixes.push(s);
        }
        suffixes.reverse();
        let mut prefix = ExactSum::new();
        for (k, rest) in suffixes.iter().enumerate() {
            let mut merged = prefix.clone();
            merged.merge(rest);
            assert_eq!(got(&merged), want, "merge at split {k} of {}", xs.len());
            let mut back = ExactSum::from_bytes(&prefix.to_bytes()).unwrap();
            back.merge(rest);
            assert_eq!(got(&back), want, "round trip at split {k} of {}", xs.len());
            if let Some(&x) = xs.get(k) {
                prefix.add(x);
            }
        }
        assert_eq!(got(&prefix), want);
        assert_eq!(ExactSum::from_bytes(&want.1).unwrap().to_bytes(), want.1);
    }

    fn shuffle(xs: &mut [f64], rng: &mut StdRng) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, rng.gen_range(0..=i));
        }
    }

    /// One of the edge values an arbitrary bit pattern rarely hits.
    fn special(rng: &mut StdRng) -> f64 {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.0,
        ];
        let k = rng.gen_range(0..SPECIAL.len() + 2);
        match k {
            // The smallest and the largest subnormal, either sign.
            10 => f64::from_bits(rng.gen_range(1u64..4) | (rng.gen::<u64>() & (1 << 63))),
            11 => f64::from_bits(((1u64 << 52) - 1) | (rng.gen::<u64>() & (1 << 63))),
            _ => SPECIAL[k],
        }
    }

    #[test]
    fn the_carry_save_register_is_the_limb_register() {
        let mut rng = StdRng::seed_from_u64(0x5EED_E7AC);
        // Arbitrary bit patterns, with ±0, subnormals, ±∞ and NaN mixed in.
        for _ in 0..120 {
            let n = rng.gen_range(0..40usize);
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        special(&mut rng)
                    } else {
                        f64::from_bits(rng.gen::<u64>())
                    }
                })
                .collect();
            agrees_with_reference(&xs);
        }
        // Finite patterns only, so the register decides the value.
        for _ in 0..120 {
            let n = rng.gen_range(0..40usize);
            let xs: Vec<f64> = (0..n)
                .map(|_| loop {
                    let x = f64::from_bits(rng.gen::<u64>());
                    if x.is_finite() {
                        break x;
                    }
                })
                .collect();
            agrees_with_reference(&xs);
        }
        // Catastrophic cancellation: values and their negations, shuffled
        // around a few small survivors.
        for _ in 0..60 {
            let n = rng.gen_range(1..20usize);
            let mut xs = Vec::new();
            for _ in 0..n {
                let x = f64::from_bits(rng.gen::<u64>() & !(1 << 63) & !(1 << 62));
                let big = x * 2f64.powi(rng.gen_range(0..900i32));
                xs.extend([big, -big]);
            }
            for _ in 0..rng.gen_range(0..3usize) {
                xs.push(rng.gen_range(-1.0..1.0) * 2f64.powi(rng.gen_range(-1074..0i32)));
            }
            shuffle(&mut xs, &mut rng);
            agrees_with_reference(&xs);
        }
    }

    #[test]
    fn runs_longer_than_the_carry_interval_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(0xCA77_1E55);
        // 5 000 × MAX against 4 999 × −MAX: the register climbs far past
        // f64 range and back, across several carry passes.
        let mut xs: Vec<f64> = [vec![f64::MAX; 5000], vec![-f64::MAX; 4999]].concat();
        agrees_with_reference(&xs);
        shuffle(&mut xs, &mut rng);
        agrees_with_reference(&xs);
        // 3 000 mantissas of all ones at one bit position, either sign:
        // every addend fills its digits as far as an addend can.
        for field in [1u64, 12, 32, 2046] {
            let ones = f64::from_bits((field << 52) | ((1 << 52) - 1));
            agrees_with_reference(&vec![ones; 3000]);
            agrees_with_reference(&vec![-ones; 3000]);
        }
    }
}
