//! Small utilities shared by operators.

/// A mutable array of fixed-width small integers — the storage behind the
/// compact hash table of §6.3: "If we store N items in the hash table, each
/// element is only ⌈log₂N⌉ bits."
///
/// Entries are stored little-endian in a `u64` word stream and are writable
/// in place (hash-table builds mutate buckets as rows stream in). It is the
/// repository's one bit-packed integer array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallIntArray {
    words: Vec<u64>,
    bits: u8,
    len: usize,
}

impl SmallIntArray {
    /// `len` zeroed entries of `bits` bits each (1..=64).
    pub fn new(len: usize, bits: u8) -> Self {
        assert!((1..=64).contains(&bits), "bits must be 1..=64");
        SmallIntArray {
            words: vec![0; Self::size_bytes_of(len, bits) / 8],
            bits,
            len,
        }
    }

    /// Bits needed to address `n` distinct values (⌈log₂ n⌉, min 1).
    pub fn bits_for(n: usize) -> u8 {
        (usize::BITS - n.max(2).next_power_of_two().leading_zeros() - 1) as u8
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are zero entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per entry.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Bytes of backing storage — what counts against the DMEM budget.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// [`size_bytes`](Self::size_bytes) of an array of `len` entries of
    /// `bits` bits, without building it.
    pub fn size_bytes_of(len: usize, bits: u8) -> usize {
        (bits as usize * len).div_ceil(64) * 8
    }

    /// Read entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let bit = i * self.bits as usize;
        let (word, off) = (bit / 64, bit % 64);
        let mask = if self.bits == 64 {
            !0
        } else {
            (1u64 << self.bits) - 1
        };
        let mut v = self.words[word] >> off;
        if off + self.bits as usize > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        v & mask
    }

    /// Write entry `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        debug_assert!(i < self.len);
        let mask = if self.bits == 64 {
            !0
        } else {
            (1u64 << self.bits) - 1
        };
        debug_assert!(value <= mask, "value does not fit in {} bits", self.bits);
        let bit = i * self.bits as usize;
        let (word, off) = (bit / 64, bit % 64);
        self.words[word] = (self.words[word] & !(mask << off)) | ((value & mask) << off);
        if off + self.bits as usize > 64 {
            let spill = 64 - off;
            let high_mask = mask >> spill;
            self.words[word + 1] = (self.words[word + 1] & !high_mask) | ((value & mask) >> spill);
        }
    }

    /// Reset all entries to zero (reuse across partitions).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Round `n` up to the next power of two, at least `min`.
pub fn next_pow2_at_least(n: usize, min: usize) -> usize {
    n.max(min).max(1).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_various_widths() {
        for bits in [1u8, 3, 7, 11, 16, 21, 32, 63, 64] {
            let n = 100;
            let mask = if bits == 64 {
                !0u64
            } else {
                (1u64 << bits) - 1
            };
            let mut a = SmallIntArray::new(n, bits);
            for i in 0..n {
                a.set(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask);
            }
            for i in 0..n {
                assert_eq!(
                    a.get(i),
                    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask,
                    "bits={bits} i={i}"
                );
            }
        }
    }

    #[test]
    fn overwrite_does_not_leak_into_neighbors() {
        let mut a = SmallIntArray::new(10, 5);
        for i in 0..10 {
            a.set(i, 31);
        }
        a.set(4, 0);
        assert_eq!(a.get(3), 31);
        assert_eq!(a.get(4), 0);
        assert_eq!(a.get(5), 31);
    }

    #[test]
    fn bits_for_counts() {
        assert_eq!(SmallIntArray::bits_for(0), 1);
        assert_eq!(SmallIntArray::bits_for(2), 1);
        assert_eq!(SmallIntArray::bits_for(3), 2);
        assert_eq!(SmallIntArray::bits_for(8), 3);
        assert_eq!(SmallIntArray::bits_for(9), 4);
        assert_eq!(SmallIntArray::bits_for(1 << 20), 20);
    }

    #[test]
    fn compactness_vs_u32_array() {
        // 1000 items: 10 bits each vs 32-bit pointers -> >3x smaller.
        let a = SmallIntArray::new(1000, SmallIntArray::bits_for(1000));
        assert!(a.size_bytes() * 3 < 1000 * 4);
    }

    #[test]
    fn clear_resets() {
        let mut a = SmallIntArray::new(10, 9);
        a.set(7, 300);
        a.clear();
        assert_eq!(a.get(7), 0);
    }

    #[test]
    fn next_pow2() {
        assert_eq!(next_pow2_at_least(5, 1), 8);
        assert_eq!(next_pow2_at_least(8, 1), 8);
        assert_eq!(next_pow2_at_least(0, 4), 4);
        assert_eq!(next_pow2_at_least(3, 16), 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn matches_vec_u64_model(
            bits in 1u8..=64,
            ops in proptest::collection::vec((0usize..50, any::<u64>()), 1..100)
        ) {
            let mask = if bits == 64 { !0u64 } else { (1u64 << bits) - 1 };
            let mut a = SmallIntArray::new(50, bits);
            let mut model = vec![0u64; 50];
            for (i, v) in ops {
                let v = v & mask;
                a.set(i, v);
                model[i] = v;
            }
            for (i, &m) in model.iter().enumerate().take(50) {
                prop_assert_eq!(a.get(i), m);
            }
        }
    }
}
