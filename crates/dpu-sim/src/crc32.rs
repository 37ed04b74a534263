//! Software model of the DPU's hardware CRC32 hash engine.
//!
//! The dpCore ISA exposes a single-cycle `CRC32` instruction, and the DMS
//! hash engine applies the same checksum while staging rows for hash
//! partitioning (§5.4). All hash values in the engine — partition IDs,
//! hash-table bucket indices, heavy-hitter sketches — derive from this one
//! function, exactly as on the real chip, so the *distribution* of rows to
//! partitions and buckets matches between the hardware-partitioning path
//! and the software-partitioning path.
//!
//! The polynomial is CRC-32C (Castagnoli), the common choice for hardware
//! CRC units. Byte strings go through the standard table-driven loop;
//! 8-byte keys — every hash the engine takes — go through slicing-by-8,
//! which folds a whole key in eight independent table reads. The tables
//! are generated at first use.

use std::sync::OnceLock;

const CRC32C_POLY: u32 = 0x82F6_3B78; // reflected Castagnoli polynomial

/// `tables()[0]` is the bytewise table; `tables()[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes (the slicing-by-8 tables).
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC32C_POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            let (done, rest) = t.split_at_mut(k);
            for (entry, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *entry = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32C of a byte slice (init `!0`, final xor `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0, data) ^ !0
}

/// Continue a CRC computation from a running state (no init/final xor),
/// a byte at a time.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &tables()[0];
    for &b in data {
        state = (state >> 8) ^ t[((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// [`crc32_update`] over the eight little-endian bytes of `key`, by
/// slicing-by-8: the same state, eight table reads with no dependency
/// between them.
#[inline]
fn crc32_update_u64(state: u32, key: u64) -> u32 {
    let t = tables();
    let lo = state ^ key as u32;
    let hi = (key >> 32) as u32;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Hash a 64-bit key as the hardware does: CRC32 over its little-endian
/// bytes. This is the hash used for partitioning and hash-table buckets.
#[inline]
pub fn hash_u64(key: u64) -> u32 {
    crc32_update_u64(!0, key) ^ !0
}

/// Hash a multi-column key: the CRC state is chained across the columns'
/// values, matching the DMS "hash with 1, 2 or 4 keys" modes of Figure 8.
pub fn hash_keys(keys: &[u64]) -> u32 {
    hash_key_iter(keys.iter().copied())
}

/// [`hash_keys`] over key values produced one at a time (a row's values
/// read straight from its columns, no tuple buffer).
#[inline]
pub fn hash_key_iter(keys: impl IntoIterator<Item = u64>) -> u32 {
    keys.into_iter().fold(!0, crc32_update_u64) ^ !0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_crc32c_vector() {
        // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
    }

    /// The bytewise loop is the oracle for the slicing-by-8 path.
    fn bytewise_hash_keys(keys: &[u64]) -> u32 {
        let mut state = !0u32;
        for &k in keys {
            state = crc32_update(state, &k.to_le_bytes());
        }
        state ^ !0
    }

    #[test]
    fn sliced_keys_equal_the_bytewise_crc() {
        // The known vector, read as one 8-byte key plus a trailing byte.
        let head = u64::from_le_bytes(*b"12345678");
        assert_eq!(
            crc32_update(crc32_update_u64(!0, head), b"9") ^ !0,
            0xE306_9283
        );
        // 1 M pseudo-random keys (splitmix64), singly and chained in
        // tuples of 1-5.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut tuple = [0u64; 5];
        for i in 0..1_000_000usize {
            let k = next();
            assert_eq!(hash_u64(k), crc32(&k.to_le_bytes()), "key {k:#x}");
            let n = i % 5 + 1;
            tuple.rotate_left(1);
            tuple[4] = k;
            assert_eq!(
                hash_keys(&tuple[..n]),
                bytewise_hash_keys(&tuple[..n]),
                "tuple {:x?}",
                &tuple[..n]
            );
        }
        for k in [
            0u64,
            1,
            u64::MAX,
            1 << 63,
            0xFFFF_FFFF,
            0xFFFF_FFFF_0000_0000,
        ] {
            assert_eq!(hash_u64(k), crc32(&k.to_le_bytes()), "key {k:#x}");
        }
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_key_matches_multi_key_with_one_key() {
        for k in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(hash_u64(k), hash_keys(&[k]));
        }
    }

    #[test]
    fn multi_key_order_matters() {
        assert_ne!(hash_keys(&[1, 2]), hash_keys(&[2, 1]));
    }

    #[test]
    fn distribution_over_radix_bits_is_roughly_uniform() {
        // Hash sequential keys into 32 buckets via the low 5 bits of the
        // CRC; no bucket should be pathologically over- or under-loaded.
        let n = 32_000u64;
        let mut buckets = [0u32; 32];
        for k in 0..n {
            buckets[(hash_u64(k) & 31) as usize] += 1;
        }
        let expect = n as f64 / 32.0;
        for &b in &buckets {
            assert!(
                (b as f64) > expect * 0.8 && (b as f64) < expect * 1.2,
                "bucket load {b} far from expected {expect}"
            );
        }
    }
}
