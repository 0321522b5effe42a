//! Bit-packed DRAM rows and bulk bitwise operations.
//!
//! A [`Row`] models one DRAM row across the rank: `width` independent bit
//! columns packed into 64-bit words. All logic operations act on every
//! column simultaneously, exactly like a multi-row activation does in the
//! real substrate.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{BitAndAssign, BitOrAssign};

/// One DRAM row: `width` bit columns, bit-packed. Bits past `width` in the
/// last word are always zero.
#[derive(PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Row {
    width: usize,
    words: Vec<u64>,
}

impl Clone for Row {
    fn clone(&self) -> Self {
        Self {
            width: self.width,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s word buffer (the derived impl would reallocate).
    fn clone_from(&mut self, source: &Self) {
        self.width = source.width;
        self.words.clone_from(&source.words);
    }
}

impl Row {
    /// Creates an all-zero row of `width` columns.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn zeros(width: usize) -> Self {
        assert!(width > 0, "row width must be positive");
        Self {
            width,
            words: vec![0; width.div_ceil(64)],
        }
    }

    /// Creates an all-one row of `width` columns.
    #[must_use]
    pub fn ones(width: usize) -> Self {
        let mut r = Self::zeros(width);
        for w in &mut r.words {
            *w = u64::MAX;
        }
        r.mask_tail();
        r
    }

    /// Builds a row from an iterator of booleans (column 0 first).
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut r = Self::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            r.set(i, *b);
        }
        r
    }

    /// Number of columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads the bit in column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "column {i} out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit in column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.width, "column {i} out of range");
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips the bit in column `i`.
    pub fn flip(&mut self, i: usize) {
        let cur = self.get(i);
        self.set(i, !cur);
    }

    /// Number of set columns.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND of two rows.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn and(&self, other: &Row) -> Row {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR of two rows.
    #[must_use]
    pub fn or(&self, other: &Row) -> Row {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR of two rows.
    #[must_use]
    pub fn xor(&self, other: &Row) -> Row {
        self.zip(other, |a, b| a ^ b)
    }

    /// Bitwise NOR of two rows (MAGIC's primitive).
    #[must_use]
    pub fn nor(&self, other: &Row) -> Row {
        let mut r = self.zip(other, |a, b| !(a | b));
        r.mask_tail();
        r
    }

    /// Bitwise NOT.
    #[must_use]
    pub fn not(&self) -> Row {
        let mut r = self.clone();
        r.invert();
        r
    }

    /// Column-wise majority of three rows — the triple-row-activation
    /// primitive (MAJ3).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn maj3(a: &Row, b: &Row, c: &Row) -> Row {
        let mut r = Row {
            width: a.width,
            words: Vec::with_capacity(a.words.len()),
        };
        r.assign_maj3(a, b, c);
        r
    }

    /// The packed 64-bit words, column 0 in bit 0 of word 0; bits past
    /// `width` are zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Clears every column in place.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place bitwise NOT.
    pub fn invert(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// In place `self = a & !m`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn assign_and_not(&mut self, a: &Row, m: &Row) {
        self.assign_with(a, m, |x, y| x & !y);
    }

    /// In-place [`Row::maj3`]: `self = MAJ3(a, b, c)`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn assign_maj3(&mut self, a: &Row, b: &Row, c: &Row) {
        assert_eq!(a.width, b.width, "row width mismatch");
        assert_eq!(a.width, c.width, "row width mismatch");
        self.width = a.width;
        self.words.clear();
        self.words.extend(
            a.words
                .iter()
                .zip(&b.words)
                .zip(&c.words)
                .map(|((&x, &y), &z)| (x & y) | (y & z) | (x & z)),
        );
    }

    /// Iterates over the column bits (column 0 first).
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(move |i| self.get(i))
    }

    /// Counts columns where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn hamming_distance(&self, other: &Row) -> usize {
        self.xor(other).count_ones()
    }

    /// Even parity over all columns (true = odd number of ones).
    #[must_use]
    pub fn parity(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    fn zip(&self, other: &Row, f: impl Fn(u64, u64) -> u64) -> Row {
        let mut r = Row {
            width: self.width,
            words: Vec::with_capacity(self.words.len()),
        };
        r.assign_with(self, other, f);
        r
    }

    /// `self = f(a, b)` word by word; `f` must map zero tails to zero.
    fn assign_with(&mut self, a: &Row, b: &Row, f: impl Fn(u64, u64) -> u64) {
        assert_eq!(a.width, b.width, "row width mismatch");
        self.width = a.width;
        self.words.clear();
        self.words
            .extend(a.words.iter().zip(&b.words).map(|(&x, &y)| f(x, y)));
    }

    fn zip_assign(&mut self, other: &Row, f: impl Fn(u64, u64) -> u64) {
        assert_eq!(self.width, other.width, "row width mismatch");
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w = f(*w, o);
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl BitAndAssign<&Row> for Row {
    fn bitand_assign(&mut self, rhs: &Row) {
        self.zip_assign(rhs, |a, b| a & b);
    }
}

impl BitOrAssign<&Row> for Row {
    fn bitor_assign(&mut self, rhs: &Row) {
        self.zip_assign(rhs, |a, b| a | b);
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Row[{}; ", self.width)?;
        let shown = self.width.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.width > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Row::zeros(100);
        let o = Row::ones(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(z.width(), 100);
    }

    #[test]
    fn tail_masking_not() {
        // width not a multiple of 64: NOT must not set bits past width.
        let z = Row::zeros(70);
        let n = z.not();
        assert_eq!(n.count_ones(), 70);
    }

    #[test]
    fn get_set_flip() {
        let mut r = Row::zeros(65);
        r.set(64, true);
        assert!(r.get(64));
        r.flip(64);
        assert!(!r.get(64));
        r.flip(0);
        assert!(r.get(0));
    }

    #[test]
    fn maj3_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let ra = Row::from_bits([a]);
                    let rb = Row::from_bits([b]);
                    let rc = Row::from_bits([c]);
                    let m = Row::maj3(&ra, &rb, &rc);
                    let expect = (a && b) || (c && (a || b));
                    assert_eq!(m.get(0), expect, "maj({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn maj_with_zero_is_and_with_one_is_or() {
        let a = Row::from_bits([false, false, true, true]);
        let b = Row::from_bits([false, true, false, true]);
        let zero = Row::zeros(4);
        let one = Row::ones(4);
        assert_eq!(Row::maj3(&a, &b, &zero), a.and(&b));
        assert_eq!(Row::maj3(&a, &b, &one), a.or(&b));
    }

    #[test]
    fn nor_matches_definition() {
        let a = Row::from_bits([false, false, true, true]);
        let b = Row::from_bits([false, true, false, true]);
        assert_eq!(a.nor(&b), a.or(&b).not());
    }

    #[test]
    fn hamming_and_parity() {
        let a = Row::from_bits([true, false, true]);
        let b = Row::from_bits([false, false, true]);
        assert_eq!(a.hamming_distance(&b), 1);
        assert!(!a.parity()); // two ones -> even
        assert!(b.parity()); // one one -> odd
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_panic() {
        let _ = Row::zeros(4).and(&Row::zeros(5));
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        for width in [1usize, 5, 63, 64, 65, 200] {
            let a = Row::from_bits((0..width).map(|i| i % 3 == 0));
            let b = Row::from_bits((0..width).map(|i| i % 5 < 2));
            let c = Row::from_bits((0..width).map(|i| i % 7 > 3));
            let mut r = a.clone();
            r &= &b;
            assert_eq!(r, a.and(&b));
            r.clone_from(&a);
            r |= &b;
            assert_eq!(r, a.or(&b));
            r.invert();
            assert_eq!(r, a.or(&b).not());
            let mut s = Row::zeros(1);
            s.assign_and_not(&a, &b);
            assert_eq!(s, a.and(&b.not()));
            s.assign_maj3(&a, &b, &c);
            assert_eq!(s, Row::maj3(&a, &b, &c));
            s.clear();
            assert_eq!(s, Row::zeros(width));
            assert_eq!(s.words().len(), width.div_ceil(64));
        }
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = [true, false, true, true, false];
        let r = Row::from_bits(bits);
        let back: Vec<bool> = r.iter_bits().collect();
        assert_eq!(back, bits);
    }
}
