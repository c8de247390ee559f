//! Arbitrary-width two-state bit-vector values.
//!
//! [`Value`] is the constant domain of the netlist IR: every literal in an
//! RTL expression, every register reset value and every simulation result is
//! a `Value`. Bits are stored little-endian in 64-bit words; all operations
//! keep the invariant that bits above `width` are zero.

use std::fmt;

/// An arbitrary-width two-state (0/1) bit-vector constant.
///
/// # Examples
///
/// ```
/// use veridic_netlist::Value;
///
/// let v = Value::from_u64(4, 0b1010);
/// assert_eq!(v.bit(1), true);
/// assert_eq!(v.xor_reduce(), false);
/// assert_eq!(v.to_string(), "4'b1010");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value {
    width: u32,
    words: Vec<u64>,
}

fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

impl Value {
    /// Creates an all-zero value of the given width.
    ///
    /// Zero-width values are permitted and behave as the empty bit string.
    pub fn zero(width: u32) -> Self {
        Value {
            width,
            words: vec![0; words_for(width)],
        }
    }

    /// Creates an all-ones value of the given width.
    pub fn ones(width: u32) -> Self {
        let mut v = Value {
            width,
            words: vec![!0u64; words_for(width)],
        };
        v.mask_top();
        v
    }

    /// Creates a value from the low `width` bits of `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has significant bits above `width`.
    pub fn from_u64(width: u32, bits: u64) -> Self {
        if width < 64 {
            assert!(
                bits >> width == 0,
                "literal {bits:#x} does not fit in {width} bits"
            );
        }
        let mut v = Value::zero(width);
        if !v.words.is_empty() {
            v.words[0] = bits;
        }
        v.mask_top();
        v
    }

    /// Creates a single-bit value.
    pub fn bit_value(b: bool) -> Self {
        Value::from_u64(1, b as u64)
    }

    /// Creates a value from booleans listed LSB-first.
    pub fn from_bits_lsb_first<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = Value::zero(bits.len() as u32);
        for (i, b) in bits.iter().enumerate() {
            v.set_bit(i as u32, *b);
        }
        v
    }

    /// The number of bits in this value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns bit `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set_bit(&mut self, i: u32, b: bool) {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let w = (i / 64) as usize;
        let m = 1u64 << (i % 64);
        if b {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Returns the value as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in 64 bits.
    pub fn to_u64(&self) -> u64 {
        for w in &self.words[1..] {
            assert_eq!(*w, 0, "value wider than 64 bits");
        }
        self.words.first().copied().unwrap_or(0)
    }

    /// True if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// XOR-reduction of all bits (parity).
    pub fn xor_reduce(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    /// AND-reduction of all bits. The reduction of a zero-width value is true.
    pub fn and_reduce(&self) -> bool {
        self.count_ones() == self.width
    }

    /// OR-reduction of all bits.
    pub fn or_reduce(&self) -> bool {
        !self.is_zero()
    }

    /// Concatenates `hi` above `self` (`self` keeps the low bits).
    pub fn concat(&self, hi: &Value) -> Value {
        let mut out = Value::zero(self.width + hi.width);
        for i in 0..self.width {
            out.set_bit(i, self.bit(i));
        }
        for i in 0..hi.width {
            out.set_bit(self.width + i, hi.bit(i));
        }
        out
    }

    /// Extracts bits `lo..=hi` as a new value.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= width`.
    pub fn slice(&self, hi: u32, lo: u32) -> Value {
        assert!(
            hi >= lo && hi < self.width,
            "bad slice [{hi}:{lo}] of width {}",
            self.width
        );
        let mut out = Value::zero(hi - lo + 1);
        for i in lo..=hi {
            out.set_bit(i - lo, self.bit(i));
        }
        out
    }

    /// Zero-extends or truncates to `width`.
    pub fn resize(&self, width: u32) -> Value {
        let mut out = Value::zero(width);
        for i in 0..width.min(self.width) {
            out.set_bit(i, self.bit(i));
        }
        out
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Value {
        let mut out = self.clone();
        for w in &mut out.words {
            *w = !*w;
        }
        out.mask_top();
        out
    }

    fn zip_with(&self, rhs: &Value, f: impl Fn(u64, u64) -> u64) -> Value {
        assert_eq!(self.width, rhs.width, "width mismatch in bitwise op");
        let words = self
            .words
            .iter()
            .zip(&rhs.words)
            .map(|(a, b)| f(*a, *b))
            .collect();
        let mut out = Value {
            width: self.width,
            words,
        };
        out.mask_top();
        out
    }

    /// Bitwise AND. Panics on width mismatch.
    pub fn and(&self, rhs: &Value) -> Value {
        self.zip_with(rhs, |a, b| a & b)
    }

    /// Bitwise OR. Panics on width mismatch.
    pub fn or(&self, rhs: &Value) -> Value {
        self.zip_with(rhs, |a, b| a | b)
    }

    /// Bitwise XOR. Panics on width mismatch.
    pub fn xor(&self, rhs: &Value) -> Value {
        self.zip_with(rhs, |a, b| a ^ b)
    }

    /// Wrapping addition at this width. Panics on width mismatch.
    pub fn add(&self, rhs: &Value) -> Value {
        assert_eq!(self.width, rhs.width, "width mismatch in add");
        let mut out = Value::zero(self.width);
        let mut carry = 0u64;
        for i in 0..self.words.len() {
            let (s1, c1) = self.words[i].overflowing_add(rhs.words[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.words[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.mask_top();
        out
    }

    /// Wrapping subtraction at this width. Panics on width mismatch.
    pub fn sub(&self, rhs: &Value) -> Value {
        // a - b == a + ~b + 1 at fixed width.
        let one = {
            let mut v = Value::zero(self.width);
            if self.width > 0 {
                v.set_bit(0, true);
            }
            v
        };
        self.add(&rhs.not()).add(&one)
    }

    /// Wrapping multiplication at this width. Panics on width mismatch.
    pub fn mul(&self, rhs: &Value) -> Value {
        assert_eq!(self.width, rhs.width, "width mismatch in mul");
        let mut acc = Value::zero(self.width);
        let mut addend = self.clone();
        for i in 0..self.width {
            if rhs.bit(i) {
                acc = acc.add(&addend);
            }
            addend = addend.shl(1);
        }
        acc
    }

    /// Logical shift left by `n` (bits shifted out are lost).
    pub fn shl(&self, n: u32) -> Value {
        let mut out = Value::zero(self.width);
        for i in n..self.width {
            out.set_bit(i, self.bit(i - n));
        }
        out
    }

    /// Logical shift right by `n`.
    pub fn shr(&self, n: u32) -> Value {
        let mut out = Value::zero(self.width);
        if n < self.width {
            for i in 0..self.width - n {
                out.set_bit(i, self.bit(i + n));
            }
        }
        out
    }

    /// Unsigned less-than. Panics on width mismatch.
    pub fn ult(&self, rhs: &Value) -> bool {
        assert_eq!(self.width, rhs.width, "width mismatch in compare");
        for i in (0..self.words.len()).rev() {
            if self.words[i] != rhs.words[i] {
                return self.words[i] < rhs.words[i];
            }
        }
        false
    }

    fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        // Normalise word count (guards against over-long vectors from concat).
        self.words.truncate(words_for(self.width));
        while self.words.len() < words_for(self.width) {
            self.words.push(0);
        }
    }
}

impl fmt::Display for Value {
    /// Formats as a Verilog binary literal, e.g. `4'b1010`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b", self.width)?;
        if self.width == 0 {
            return write!(f, "0");
        }
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::LowerHex for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h", self.width)?;
        let digits = (self.width as usize).div_ceil(4);
        for d in (0..digits).rev() {
            let mut nib = 0u8;
            for b in 0..4 {
                let i = (d * 4 + b) as u32;
                if i < self.width && self.bit(i) {
                    nib |= 1 << b;
                }
            }
            write!(f, "{:x}", nib)?;
        }
        Ok(())
    }
}

impl fmt::Binary for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_ones() {
        assert!(Value::zero(130).is_zero());
        let v = Value::ones(130);
        assert_eq!(v.count_ones(), 130);
        assert!(v.and_reduce());
    }

    #[test]
    fn from_u64_masks_and_checks() {
        let v = Value::from_u64(4, 0b1010);
        assert_eq!(v.to_u64(), 0b1010);
        assert_eq!(v.width(), 4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_u64_rejects_oversized() {
        let _ = Value::from_u64(3, 0b1010);
    }

    #[test]
    fn bit_roundtrip_across_word_boundary() {
        let mut v = Value::zero(100);
        v.set_bit(63, true);
        v.set_bit(64, true);
        v.set_bit(99, true);
        assert!(v.bit(63) && v.bit(64) && v.bit(99));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn parity_reductions() {
        let v = Value::from_u64(8, 0b1011_0001);
        assert_eq!(v.count_ones(), 4);
        assert!(!v.xor_reduce());
        assert!(v.or_reduce());
        assert!(!v.and_reduce());
        assert!(Value::zero(0).and_reduce());
        assert!(!Value::zero(0).or_reduce());
    }

    #[test]
    fn concat_and_slice() {
        let lo = Value::from_u64(4, 0b0011);
        let hi = Value::from_u64(4, 0b1100);
        let c = lo.concat(&hi);
        assert_eq!(c.width(), 8);
        assert_eq!(c.to_u64(), 0b1100_0011);
        assert_eq!(c.slice(7, 4).to_u64(), 0b1100);
        assert_eq!(c.slice(3, 0).to_u64(), 0b0011);
        assert_eq!(c.slice(4, 1).to_u64(), 0b1000_0011 >> 1 & 0xF);
    }

    #[test]
    fn arithmetic_wraps() {
        let a = Value::from_u64(4, 0xF);
        let b = Value::from_u64(4, 1);
        assert_eq!(a.add(&b).to_u64(), 0);
        assert_eq!(b.sub(&a).to_u64(), 2);
        let c = Value::from_u64(4, 5);
        assert_eq!(c.mul(&c).to_u64(), 25 % 16);
    }

    #[test]
    fn wide_arithmetic_carries_across_words() {
        let a = Value::ones(64).resize(65);
        let b = Value::from_u64(65, 1);
        let s = a.add(&b);
        assert!(s.bit(64));
        assert_eq!(s.slice(63, 0).to_u64(), 0);
    }

    #[test]
    fn shifts() {
        let v = Value::from_u64(8, 0b0000_1111);
        assert_eq!(v.shl(4).to_u64(), 0b1111_0000);
        assert_eq!(v.shr(2).to_u64(), 0b0000_0011);
        assert_eq!(v.shl(9).to_u64(), 0);
        assert_eq!(v.shr(9).to_u64(), 0);
    }

    #[test]
    fn compare() {
        let a = Value::from_u64(8, 3);
        let b = Value::from_u64(8, 200);
        assert!(a.ult(&b));
        assert!(!b.ult(&a));
        assert!(!a.ult(&a));
    }

    #[test]
    fn display_formats() {
        let v = Value::from_u64(4, 0b1010);
        assert_eq!(format!("{v}"), "4'b1010");
        assert_eq!(format!("{v:x}"), "4'ha");
        let w = Value::from_u64(9, 0x1ff);
        assert_eq!(format!("{w:x}"), "9'h1ff");
    }

    #[test]
    fn from_bits_lsb_first_orders_correctly() {
        let v = Value::from_bits_lsb_first([true, false, true]);
        assert_eq!(v.to_u64(), 0b101);
    }
}
