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
//! There are two ways in, and they leave the same register:
//!
//! * [`add`](ExactSum::add) takes one addend: three digit adds.
//! * [`add_iter`](ExactSum::add_iter) takes many, gathering a block of at
//!   most 1 024 values at a time into a stack buffer; the block kernel,
//!   `add_slice` (also behind [`sum_f64`](crate::batch::sum_f64), which
//!   passes its slice straight in), sums a block by two-level error-free
//!   extraction (Rump,
//!   Ogita & Oishi, "Accurate floating-point summation part I", SIAM J.
//!   Sci. Comput. 31(1), 2008, Algorithm ExtractVector). With 2^e above the
//!   block's largest magnitude, each value `x` is split at σ₁ = 1.5·2^(e+10)
//!   into `q₁ = (σ₁ + x) − σ₁`, a multiple of 2^(e−42), and the exact
//!   remainder `r = x − q₁`, |r| ≤ 2^(e−43); `r` is split the same way at
//!   σ₂ = 1.5·2^(e−33) into `q₂`, a multiple of 2^(e−85), and `x − q₁ − q₂`.
//!   A block's `q₁` sum to at most 2^(e+10) and its `q₂` to at most
//!   2^(e−33), so both columns are exact `f64` sums in any order; they
//!   enter the register as two addends, and only the second remainders
//!   that are not zero (a value more than 2³³ below the block's largest)
//!   go in one by one. A block holding a NaN or ±∞, or whose `e` lies
//!   outside −980..=1012 (where σ₂ would be subnormal or σ₁ overflow),
//!   goes in value by value, and so does a slice under 8 values.
//!
//! Because the register is exact, both ways give the same sum modulo 2²¹⁷⁶,
//! hence the same [`value`](ExactSum::value), [`to_bytes`](ExactSum::to_bytes)
//! and [`merge`](ExactSum::merge) results bit for bit. The split is exact
//! only if every `f64` operation is carried out as written: Rust neither
//! fuses a multiply into an add nor reassociates floating-point operations
//! on its own, and nothing here may call `mul_add`.
//!
//! The engine's built-in `SUM`/`AVG` and the array aggregates
//! (`ops::agg::{sum, mean, stddev, norm2}`) accumulate through this type,
//! which is what lets the executor promise bit-identical results for
//! serial and parallel plans.
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

/// Values per extraction block of [`ExactSum::add_slice`]: 2¹⁰ values of
/// magnitude at most 2^e sum to at most 2^(e+10), which a column of
/// multiples of 2^(e−42) holds exactly.
const BLOCK: usize = 1 << 10;

/// The block exponents `e` (2^e above the block's largest magnitude) that
/// [`ExactSum::add_slice`] splits at: both split constants, 1.5·2^(e+10)
/// and 1.5·2^(e−33), are then normal and finite with room to spare.
const SPLIT_EXPONENTS: std::ops::RangeInclusive<i32> = -980..=1012;

/// Slices shorter than this go to the register value by value: below it
/// the block's maximum pass and two column addends cost more than the
/// per-value adds they save (measured on hot data: even at 8 values, 2×
/// faster at 16, 2.5× at 960).
const SLICE_CUTOFF: usize = 8;

/// One level of error-free extraction around σ = 1.5·2^k.
#[derive(Clone, Copy)]
struct Split(f64);

impl Split {
    fn at(k: i32) -> Split {
        Split(f64::from_bits(((k + 1023) as u64) << 52 | 1 << 51))
    }

    /// `(q, x − q)`, both exact, where `q` is `x` rounded to a multiple of
    /// 2^(k−52): for |x| < 2^(k−1), σ + x stays in σ's binade
    /// [2^k, 2^(k+1)), whose spacing is 2^(k−52), and taking σ back off is
    /// exact there (Sterbenz). So |x − q| ≤ 2^(k−53).
    #[inline(always)]
    fn split(self, x: f64) -> (f64, f64) {
        let q = (self.0 + x) - self.0;
        (q, x - q)
    }
}

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

    /// Adds every value of `xs`, exactly: the register ends as it would
    /// after one [`add`](Self::add) per value, a block at a time.
    ///
    /// Each block of at most 1 024 values is split around its largest
    /// magnitude (see the module docs) into two columns of partial sums
    /// that `f64` holds exactly, so a block costs the register two addends
    /// plus one per value whose bits reach more than 2³³ below the block's
    /// largest. A block holding a non-finite value or with its largest
    /// magnitude outside [2⁻⁹⁸¹, 2¹⁰¹²), and a slice of fewer than 8
    /// values, go through [`add`](Self::add) value by value.
    pub(crate) fn add_slice(&mut self, xs: &[f64]) {
        if xs.len() < SLICE_CUTOFF {
            return self.add_each(xs);
        }
        for block in xs.chunks(BLOCK) {
            self.add_block(block);
        }
    }

    /// Adds every value `xs` yields, exactly: the register ends as it would
    /// after one [`add`](Self::add) per value. Each block of at most 1 024
    /// values is gathered into one stack buffer and summed by `add_slice`.
    pub fn add_iter(&mut self, xs: impl IntoIterator<Item = f64>) {
        let mut buf = [0.0; BLOCK];
        let mut xs = xs.into_iter();
        loop {
            let mut n = 0;
            // `zip` takes from the buffer first, so it stops at a full
            // buffer without drawing a value it cannot store.
            for (slot, x) in buf.iter_mut().zip(&mut xs) {
                *slot = x;
                n += 1;
            }
            self.add_slice(&buf[..n]);
            if n < BLOCK {
                return;
            }
        }
    }

    /// [`add_slice`](Self::add_slice) over one block of at most [`BLOCK`]
    /// values.
    fn add_block(&mut self, xs: &[f64]) {
        // The largest magnitude, four lanes wide; a NaN never wins a
        // comparison, so it shows up in the columns instead.
        let mut tops = [0.0f64; 4];
        let mut quads = xs.chunks_exact(4);
        for quad in &mut quads {
            for j in 0..4 {
                let a = quad[j].abs();
                tops[j] = if a > tops[j] { a } else { tops[j] };
            }
        }
        let top = tops
            .iter()
            .chain(quads.remainder())
            .fold(0.0f64, |m, x| m.max(x.abs()));
        // 2^e > max|x|: one above the top value's binade; ±∞ has the
        // exponent field 0x7FF, which puts `e` out of range.
        let e = (top.to_bits() >> 52) as i32 - 1022;
        if !SPLIT_EXPONENTS.contains(&e) {
            return self.add_each(xs);
        }
        let (hi, lo) = (Split::at(e + 10), Split::at(e - 33));
        let (mut hi_sums, mut lo_sums, mut rest) = ([0.0; 4], [0.0; 4], [0u64; 4]);
        let mut quads = xs.chunks_exact(4);
        for quad in &mut quads {
            for j in 0..4 {
                let (q, r) = hi.split(quad[j]);
                let (p, s) = lo.split(r);
                hi_sums[j] += q;
                lo_sums[j] += p;
                // Collects whether any second remainder is nonzero (the
                // shift drops the sign of a −0.0).
                rest[j] |= s.to_bits() << 1;
            }
        }
        for &x in quads.remainder() {
            let (q, r) = hi.split(x);
            let (p, s) = lo.split(r);
            hi_sums[0] += q;
            lo_sums[0] += p;
            rest[0] |= s.to_bits() << 1;
        }
        // Every subset of a column sums exactly, so the four lanes combine
        // in any order.
        let hi_sum = (hi_sums[0] + hi_sums[1]) + (hi_sums[2] + hi_sums[3]);
        let lo_sum = (lo_sums[0] + lo_sums[1]) + (lo_sums[2] + lo_sums[3]);
        if hi_sum.is_nan() {
            return self.add_each(xs);
        }
        if rest != [0; 4] {
            for &x in xs {
                let s = lo.split(hi.split(x).1).1;
                if s != 0.0 {
                    self.add(s);
                }
            }
        }
        self.add(hi_sum);
        self.add(lo_sum);
    }

    /// One [`add`](Self::add) per value.
    fn add_each(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
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
pub(crate) mod reference {
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
        assert_eq!(s.to_bytes(), ExactSum::new().to_bytes());
    }

    #[test]
    fn a_zero_sum_is_zero_before_its_carries_are_propagated() {
        // 2³¹ + 2³¹ − 2³² in units of 2⁻¹⁰⁷⁴: digit 0 holds 2³², digit 1
        // holds −1 — a zero register whose digits are not all zero.
        let half = f64::from_bits(1 << 31);
        let mut s = ExactSum::new();
        s.add(half);
        s.add(half);
        assert_ne!(s.to_bytes(), ExactSum::new().to_bytes());
        s.add(-2.0 * half);
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

    /// A register's value bits and bytes, once it has passed the carry-save
    /// bound its digits rely on to never overflow.
    fn observed(s: &ExactSum) -> (u64, Vec<u8>) {
        assert!(s.pending < CARRY_INTERVAL, "a carry pass was skipped");
        let bound = (s.pending as u64 + 1) << 32;
        assert!(
            s.digits.iter().all(|d| d.unsigned_abs() < bound),
            "digits outgrew {} pending addends",
            s.pending
        );
        (s.value().to_bits(), s.to_bytes())
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
            assert_eq!(
                observed(&merged),
                want,
                "merge at split {k} of {}",
                xs.len()
            );
            let mut back = ExactSum::from_bytes(&prefix.to_bytes()).unwrap();
            back.merge(rest);
            assert_eq!(
                observed(&back),
                want,
                "round trip at split {k} of {}",
                xs.len()
            );
            if let Some(&x) = xs.get(k) {
                prefix.add(x);
            }
        }
        assert_eq!(observed(&prefix), want);
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

    /// Checks [`ExactSum::add_slice`] over `xs`, after `start` went in
    /// value by value: the register must read as one `add` per value does
    /// and as [`reference::LimbSum`] does, in value bits and bytes. Returns
    /// the addends the slice cost the register since its last carry pass.
    fn slice_agrees(start: &[f64], xs: &[f64]) -> u32 {
        let mut oracle = reference::LimbSum::new();
        let mut each = ExactSum::new();
        for &x in start {
            oracle.add(x);
            each.add(x);
        }
        let mut sliced = each.clone();
        for &x in xs {
            oracle.add(x);
            each.add(x);
        }
        let before = sliced.pending;
        sliced.add_slice(xs);
        let want = (oracle.value().to_bits(), oracle.to_bytes());
        let n = xs.len();
        assert_eq!(observed(&each), want, "one add per value, {n} values");
        assert_eq!(observed(&sliced), want, "add_slice, {n} values");
        sliced.pending.wrapping_sub(before)
    }

    /// `n` values of random sign and mantissa with magnitudes in
    /// [2^lo, 2^hi).
    fn spread(rng: &mut StdRng, n: usize, lo: i32, hi: i32) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let m = f64::from_bits(0x3FF0_0000_0000_0000 | rng.gen::<u64>() >> 12);
                let x = m * 2f64.powi(rng.gen_range(lo..hi));
                if rng.gen_bool(0.5) {
                    -x
                } else {
                    x
                }
            })
            .collect()
    }

    const SLICE_LENGTHS: [usize; 8] = [0, 1, 7, 8, 31, 1024, 1025, 2049];

    #[test]
    fn a_slice_is_its_values_added_one_by_one() {
        let mut rng = StdRng::seed_from_u64(0x51_1CE);
        for n in SLICE_LENGTHS {
            for (lo, hi) in [(0, 1), (-20, 20), (-30, 3), (500, 530), (-900, -880)] {
                let xs = spread(&mut rng, n, lo, hi);
                let cost = slice_agrees(&[], &xs);
                if n >= 31 && hi - lo <= 33 {
                    // Not vacuous: every block went in as its two columns.
                    assert_eq!(
                        cost as usize,
                        2 * n.div_ceil(BLOCK),
                        "{n} in [2^{lo}, 2^{hi})"
                    );
                }
            }
        }
        // Random lengths, spreads and edge values, far more blocks than the
        // lengths above.
        for _ in 0..200 {
            let n = rng.gen_range(0..3000usize);
            let lo: i32 = rng.gen_range(-1074..1000);
            let hi = 1024.min(lo + rng.gen_range(1..120));
            let mut xs = spread(&mut rng, n, lo, hi);
            if n > 0 && rng.gen_bool(0.3) {
                for _ in 0..rng.gen_range(1..4) {
                    let k = rng.gen_range(0..n);
                    xs[k] = special(&mut rng);
                }
            }
            slice_agrees(&[], &xs);
        }
    }

    #[test]
    fn non_finite_values_inside_a_block() {
        let mut rng = StdRng::seed_from_u64(0x4A4E);
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for n in [8, 31, 1024, 1025, 2049] {
                for at in [0, n / 2, n - 1] {
                    let mut xs = spread(&mut rng, n, -5, 5);
                    xs[at] = bad;
                    slice_agrees(&[], &xs);
                }
            }
        }
        // Both infinities in one block, and in two.
        let mut xs = spread(&mut rng, 2049, -5, 5);
        (xs[3], xs[900]) = (f64::INFINITY, f64::NEG_INFINITY);
        slice_agrees(&[], &xs);
        (xs[900], xs[2000]) = (1.0, f64::NEG_INFINITY);
        slice_agrees(&[], &xs);
    }

    #[test]
    fn zeros_and_subnormals() {
        let mut rng = StdRng::seed_from_u64(0x2E50);
        let tiny = |rng: &mut StdRng| {
            f64::from_bits(rng.gen_range(0..1u64 << 52) | rng.gen::<u64>() << 63)
        };
        for n in SLICE_LENGTHS {
            slice_agrees(&[], &vec![0.0; n]);
            slice_agrees(&[], &vec![-0.0; n]);
            let subnormal: Vec<f64> = (0..n).map(|_| tiny(&mut rng)).collect();
            slice_agrees(&[], &subnormal);
            // Subnormals and zeros under normal values of every scale: their
            // bits reach below the second column.
            for hi in [-1000, -980, -900, 0] {
                let mut xs = spread(&mut rng, n, hi - 30, hi);
                for x in xs.iter_mut().step_by(3) {
                    *x = tiny(&mut rng);
                }
                for x in xs.iter_mut().skip(1).step_by(5) {
                    *x = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
                }
                slice_agrees(&[], &xs);
            }
        }
    }

    #[test]
    fn blocks_at_the_edges_of_the_split_range() {
        let mut rng = StdRng::seed_from_u64(0xED6E);
        // A block's e is one above its top binade: top = 2^(e−1) and the
        // largest value below 2^e, at both ends of the range and one step
        // outside each.
        let (first, last) = (*SPLIT_EXPONENTS.start(), *SPLIT_EXPONENTS.end());
        for e in [first - 1, first, first + 1, last - 1, last, last + 1] {
            let low = 2f64.powi(e - 1);
            let high = f64::from_bits(2f64.powi(e).to_bits() - 1);
            for top in [low, high, -low, -high] {
                for n in [8, 31, 1024, 1025] {
                    let mut xs = spread(&mut rng, n, e - 60, e - 1);
                    xs[rng.gen_range(0..n)] = top;
                    slice_agrees(&[], &xs);
                    // Every value at the top: a column's largest sum.
                    slice_agrees(&[], &vec![top; n]);
                }
            }
            // A block of one sign and full mantissas, all in the top
            // binade: the first column's sum nears its bound.
            for n in [1024, 2049, 4100] {
                let xs: Vec<f64> = spread(&mut rng, n, e - 1, e)
                    .iter()
                    .map(|x| x.abs())
                    .collect();
                slice_agrees(&[], &xs);
            }
        }
        for top in [f64::MAX, f64::MIN, f64::MIN_POSITIVE, -f64::MIN_POSITIVE] {
            slice_agrees(&[], &vec![top; 1025]);
            let mut xs = spread(&mut rng, 1025, -1074, 1024);
            xs[17] = top;
            slice_agrees(&[], &xs);
        }
    }

    #[test]
    fn clusters_far_apart_go_through_the_remainder() {
        let mut rng = StdRng::seed_from_u64(0xC1A5);
        for gap in [33, 40, 52, 60, 90, 200] {
            for n in SLICE_LENGTHS {
                let big = spread(&mut rng, n, 0, 2);
                let small = spread(&mut rng, n, -gap - 2, -gap);
                let mut xs: Vec<f64> = big
                    .into_iter()
                    .zip(small)
                    .flat_map(|(a, b)| [a, b])
                    .collect();
                xs.truncate(n);
                slice_agrees(&[], &xs);
                shuffle(&mut xs, &mut rng);
                slice_agrees(&[], &xs);
            }
        }
        // One far value in a block, in each of the four lanes and the tail.
        for at in 0..11 {
            let mut xs = spread(&mut rng, 11, 0, 2);
            xs[at] = spread(&mut rng, 1, -70, -60)[0];
            slice_agrees(&[], &xs);
        }
        // Cancellation inside a block: what survives is the small cluster.
        let mut xs = spread(&mut rng, 512, 0, 30);
        let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
        xs.extend(negated);
        xs.extend(spread(&mut rng, 100, -70, -40));
        shuffle(&mut xs, &mut rng);
        slice_agrees(&[], &xs);
    }

    #[test]
    fn a_slice_crosses_the_carry_interval() {
        let mut rng = StdRng::seed_from_u64(0xCA22);
        let start = spread(&mut rng, CARRY_INTERVAL as usize - 1, -10, 10);
        for n in SLICE_LENGTHS {
            for (lo, hi) in [(-10, 10), (-100, 0)] {
                slice_agrees(&start, &spread(&mut rng, n, lo, hi));
            }
        }
        // Many slices into one register: the columns' addends pile up to
        // several carry passes.
        let (mut sliced, mut oracle) = (ExactSum::new(), reference::LimbSum::new());
        for _ in 0..1500 {
            let n = rng.gen_range(8..40usize);
            let xs = spread(&mut rng, n, -50, 50);
            xs.iter().for_each(|&x| oracle.add(x));
            sliced.add_slice(&xs);
        }
        assert_eq!(
            observed(&sliced),
            (oracle.value().to_bits(), oracle.to_bytes())
        );
    }

    #[test]
    fn an_iterator_sums_as_its_slice() {
        let mut rng = StdRng::seed_from_u64(0x17E2);
        for n in [0, 1, 7, 8, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3000] {
            let mut xs = spread(&mut rng, n, -60, 60);
            if n > 2 {
                xs[n / 2] = special(&mut rng);
            }
            let mut sliced = ExactSum::new();
            sliced.add_slice(&xs);
            let mut iterated = ExactSum::new();
            iterated.add_iter(xs.iter().copied());
            assert_eq!(observed(&iterated), observed(&sliced), "{n} values");
        }
    }
}
