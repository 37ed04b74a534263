//! Qualifying-row representations: bit-vectors and RID-lists.
//!
//! RAPID's filter produces "either a list of row-offset identifiers (RIDs)
//! or a bit-vector depending on the expected number of qualifying rows"
//! (§5.4): when fewer than 1/32 of rows qualify a 32-bit RID-list is denser
//! than a bit-vector, otherwise the bit-vector wins. Both representations
//! feed the DMS's selective gather path and the `BVLD` instruction.

use serde::{Deserialize, Serialize};

/// The threshold selectivity below which a RID-list is denser than a
/// bit-vector (a RID is 32 bits, a bit-vector costs 1 bit per row).
pub const RID_SELECTIVITY_THRESHOLD: f64 = 1.0 / 32.0;

/// A bit per row; bit set ⇒ the row qualifies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zero bit-vector of `len` rows.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one bit-vector of `len` rows.
    pub fn ones(len: usize) -> Self {
        let mut bv = BitVec {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        bv.mask_tail();
        bv
    }

    /// An empty bit-vector with room for `bits` rows.
    pub fn with_capacity(bits: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Build from a bool iterator.
    pub fn from_bools<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut bv = BitVec::with_capacity(iter.size_hint().0);
        for b in iter {
            bv.push(b);
        }
        bv
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Append every bit of `other`, a word at a time.
    pub fn extend_from(&mut self, other: &BitVec) {
        let off = self.len % 64;
        if off == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // Bits past `len` are always clear, so OR-ing the shifted word
            // into the partial last word is exact.
            for &w in &other.words {
                if let Some(last) = self.words.last_mut() {
                    *last |= w << off;
                }
                self.words.push(w >> (64 - off));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Append `n` clear bits.
    pub fn extend_zeros(&mut self, n: usize) {
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
    }

    /// Get bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `bit`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of set bits (0 for an empty vector).
    pub fn selectivity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// In-place AND with another bit-vector of equal length — how
    /// conjunctive predicates combine.
    pub fn and_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// In-place OR with another bit-vector of equal length.
    pub fn or_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// In-place NOT.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Iterate over set-bit positions (the `BVLD` gather order).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Convert to a RID-list.
    pub fn to_rids(&self) -> RidList {
        let mut rids = Vec::with_capacity(self.count_ones());
        rids.extend(self.iter_ones().map(|i| i as u32));
        RidList { rids }
    }

    /// Raw 64-bit words (for size accounting and `BVLD`-style access).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size in bytes of the in-DMEM representation.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// A list of 32-bit row offsets — the sparse qualifying-row representation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RidList {
    /// Row offsets in ascending order of production.
    pub rids: Vec<u32>,
}

impl RidList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of qualifying rows.
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// Whether no rows qualify.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// Size in bytes of the in-DMEM representation.
    pub fn size_bytes(&self) -> usize {
        self.rids.len() * 4
    }
}

/// Either qualifying-row representation, as flowed between operators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RowSet {
    /// Dense representation.
    Bits(BitVec),
    /// Sparse representation.
    Rids(RidList),
}

impl RowSet {
    /// Number of qualifying rows.
    pub fn count(&self) -> usize {
        match self {
            RowSet::Bits(b) => b.count_ones(),
            RowSet::Rids(r) => r.len(),
        }
    }

    /// Pick the representation the paper's rule prescribes for an expected
    /// selectivity over `len` rows: RIDs below 1/32, bits otherwise.
    pub fn choose(expected_selectivity: f64) -> RowSetKind {
        if expected_selectivity < RID_SELECTIVITY_THRESHOLD {
            RowSetKind::Rids
        } else {
            RowSetKind::Bits
        }
    }

    /// Iterate qualifying row offsets in ascending order.
    pub fn for_each_row(&self, mut f: impl FnMut(usize)) {
        match self {
            RowSet::Bits(b) => {
                for i in b.iter_ones() {
                    f(i);
                }
            }
            RowSet::Rids(r) => {
                for &i in &r.rids {
                    f(i as usize);
                }
            }
        }
    }
}

/// Tag for the two qualifying-row representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSetKind {
    /// Bit-vector.
    Bits,
    /// RID-list.
    Rids,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut bv = BitVec::zeros(0);
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        for i in 0..200 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {i}");
        }
        bv.set(1, true);
        assert!(bv.get(1));
    }

    #[test]
    fn word_wise_extend_equals_bit_wise_push() {
        // Every alignment of the seam, including empty pieces.
        for (a, b, zeros) in [
            (0, 70, 3),
            (1, 64, 0),
            (63, 129, 65),
            (64, 0, 64),
            (100, 5, 0),
        ] {
            let first: Vec<bool> = (0..a).map(|i| i % 3 == 0).collect();
            let second: Vec<bool> = (0..b).map(|i| i % 5 != 0).collect();
            let mut word_wise = BitVec::from_bools(first.iter().copied());
            word_wise.extend_from(&BitVec::from_bools(second.iter().copied()));
            word_wise.extend_zeros(zeros);
            let bit_wise = BitVec::from_bools(
                first
                    .iter()
                    .chain(&second)
                    .copied()
                    .chain(std::iter::repeat_n(false, zeros)),
            );
            assert_eq!(word_wise, bit_wise, "{a} + {b} + {zeros} zeros");
        }
    }

    #[test]
    fn ones_masks_tail() {
        let bv = BitVec::ones(70);
        assert_eq!(bv.count_ones(), 70);
        let mut neg = bv.clone();
        neg.negate();
        assert_eq!(neg.count_ones(), 0);
    }

    #[test]
    fn and_or_negate() {
        let a = BitVec::from_bools([true, true, false, false]);
        let b = BitVec::from_bools([true, false, true, false]);
        let mut and = a.clone();
        and.and_with(&b);
        assert_eq!(and, BitVec::from_bools([true, false, false, false]));
        let mut or = a.clone();
        or.or_with(&b);
        assert_eq!(or, BitVec::from_bools([true, true, true, false]));
        let mut not = a.clone();
        not.negate();
        assert_eq!(not, BitVec::from_bools([false, false, true, true]));
    }

    #[test]
    fn iter_ones_matches_gets() {
        let bv = BitVec::from_bools((0..300).map(|i| i % 7 == 2));
        let ones: Vec<usize> = bv.iter_ones().collect();
        let expect: Vec<usize> = (0..300).filter(|i| i % 7 == 2).collect();
        assert_eq!(ones, expect);
    }

    #[test]
    fn rid_list_holds_the_set_bits() {
        let bv = BitVec::from_bools((0..100).map(|i| i % 13 == 5));
        let rids = bv.to_rids();
        assert_eq!(rids.rids, [5, 18, 31, 44, 57, 70, 83, 96]);
        assert_eq!(rids.len(), bv.count_ones());
    }

    #[test]
    fn representation_choice_follows_one_thirtysecond_rule() {
        assert_eq!(RowSet::choose(0.01), RowSetKind::Rids);
        assert_eq!(RowSet::choose(0.05), RowSetKind::Bits);
        assert_eq!(RowSet::choose(1.0 / 32.0), RowSetKind::Bits); // boundary: not below
    }

    #[test]
    fn selectivity_and_sizes() {
        let bv = BitVec::from_bools((0..128).map(|i| i < 32));
        assert!((bv.selectivity() - 0.25).abs() < 1e-12);
        assert_eq!(bv.size_bytes(), 16);
        assert_eq!(bv.to_rids().size_bytes(), 32 * 4);
    }

    #[test]
    fn rowset_for_each_row_agrees_between_reprs() {
        let bv = BitVec::from_bools((0..64).map(|i| i % 5 == 0));
        let mut from_bits = Vec::new();
        RowSet::Bits(bv.clone()).for_each_row(|i| from_bits.push(i));
        let mut from_rids = Vec::new();
        RowSet::Rids(bv.to_rids()).for_each_row(|i| from_rids.push(i));
        assert_eq!(from_bits, from_rids);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let mut a = BitVec::zeros(10);
        a.and_with(&BitVec::zeros(11));
    }
}
