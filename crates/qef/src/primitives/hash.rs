//! Hash primitives: CRC32 over 1–4 key columns.
//!
//! The same hash feeds hardware partitioning (the DMS CRC engine),
//! software partitioning (Listing 2 consumes "a vector of CRC32 hash
//! values computed in hardware") and the hash-join/group-by bucket
//! indices — one function family, exactly like the chip.

use dpu_sim::account::Kernel;
use rapid_storage::vector::Vector;

use crate::batch::Positions;
use crate::exec::CoreCtx;
use crate::primitives::costs;

/// CRC32 hash of each row over the key columns. The DMS hash engine
/// chains at most 4 keys in hardware; the software path (this function,
/// used by joins and group-bys) chains any number with the same CRC.
pub fn hash_rows(ctx: &mut CoreCtx, keys: &[&Vector]) -> Vec<u32> {
    assert!(!keys.is_empty(), "hash takes at least one key column");
    let rows = keys[0].len();
    debug_assert!(keys.iter().all(|k| k.len() == rows));
    let mut out = vec![0; rows];
    let all = Positions::dense(0, rows);
    hash_pieces_into(
        ctx,
        std::iter::once(keys.iter().map(|k| (*k, all))),
        &mut out,
    );
    out
}

/// [`hash_rows`] over rows of an input that arrives in pieces (each item:
/// one piece's key columns, each with where the piece's rows lie in it),
/// written back to back into `out` and charged as the one logical input the
/// rows are. A partition lane hashes the rows it owns into its slice of the
/// round's hash buffer this way.
pub fn hash_pieces_into<'a, K>(ctx: &mut CoreCtx, pieces: impl Iterator<Item = K>, out: &mut [u32])
where
    K: Iterator<Item = (&'a Vector, Positions<'a>)> + Clone,
{
    let nkeys = crc_pieces_into(pieces, out);
    ctx.charge_kernel(
        Kernel::Hash,
        &costs::hash_per_row_per_key().scaled((out.len() * nkeys) as f64),
    );
}

/// The hashes of [`hash_pieces_into`], charged to no core: for work the
/// host carries out once for lanes each charged for it already. Returns the
/// keys a row.
pub(crate) fn crc_pieces_into<'a, K>(pieces: impl Iterator<Item = K>, out: &mut [u32]) -> usize
where
    K: Iterator<Item = (&'a Vector, Positions<'a>)> + Clone,
{
    let mut done = 0;
    let mut nkeys = 0;
    for keys in pieces {
        nkeys = keys.clone().count();
        let mut single = keys.clone();
        let Some((first, at)) = single.next() else {
            panic!("hash takes at least one key column");
        };
        let out = &mut out[done..done + at.len()];
        done += at.len();
        if nkeys == 1 {
            // Single keys hash straight from their column.
            for (o, i) in out.iter_mut().zip(at.iter()) {
                *o = dpu_sim::crc32::hash_u64(first.data.get_i64(i) as u64);
            }
        } else {
            for (r, o) in out.iter_mut().enumerate() {
                *o = dpu_sim::crc32::hash_key_iter(
                    keys.clone().map(|(k, at)| k.data.get_i64(at.get(r)) as u64),
                );
            }
        }
    }
    debug_assert_eq!(done, out.len());
    nkeys
}

/// Bucket index from a hash value: "a fast modulo using a bit-mask and a
/// shift on top of the hardware computed CRC32 hash values" (§6.3) — the
/// hash's top `log2(table_size)` bits, one shift.
///
/// Which bits matters twice. Partitioning rounds consume the hash's low
/// radix bits, so every key inside one partition shares them: indexing
/// buckets with the raw low bits would degenerate every chain by the
/// fan-out factor. And the CRC is linear over GF(2): the keys of a key
/// range differ in their low bits only, so their hashes span a subspace,
/// which a fold of the low bits with the high ones (`h ^ h >> 16`) maps
/// onto half the buckets — a ranged lane's chains twice as long as a hash
/// partition's. The top bits spread a range's keys over every bucket.
/// `table_size` must be a power of two.
#[inline]
pub fn bucket_of(hash: u32, table_size: usize) -> usize {
    debug_assert!(table_size.is_power_of_two());
    ((hash as u64) >> (32 - table_size.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecContext;
    use rapid_storage::vector::ColumnData;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    #[test]
    fn single_key_matches_crc_engine() {
        let mut c = ctx();
        let col = Vector::new(ColumnData::I64(vec![1, 2, 3]));
        let h = hash_rows(&mut c, &[&col]);
        assert_eq!(h[0], dpu_sim::crc32::hash_u64(1));
        assert_eq!(h[2], dpu_sim::crc32::hash_u64(3));
    }

    #[test]
    fn multi_key_hash_chains_columns() {
        let mut c = ctx();
        let a = Vector::new(ColumnData::I64(vec![1]));
        let b = Vector::new(ColumnData::I64(vec![2]));
        let h = hash_rows(&mut c, &[&a, &b]);
        assert_eq!(h[0], dpu_sim::crc32::hash_keys(&[1, 2]));
        assert_ne!(h[0], dpu_sim::crc32::hash_u64(1));
    }

    #[test]
    fn bucket_mixing_decorrelates_partition_bits() {
        // Keys that share their low 5 hash bits (same partition after a
        // 32-way round) must still spread across buckets.
        let mut buckets = std::collections::HashSet::new();
        let mut n = 0;
        for k in 0..100_000u64 {
            let h = dpu_sim::crc32::hash_u64(k);
            if h & 31 == 7 {
                buckets.insert(bucket_of(h, 256));
                n += 1;
            }
        }
        assert!(n > 1000, "enough same-partition keys sampled");
        assert!(
            buckets.len() > 200,
            "only {} of 256 buckets used",
            buckets.len()
        );
    }

    #[test]
    fn five_keys_hash_in_software() {
        // Beyond the DMS engine's 4-key limit, the software CRC chain
        // keeps going (group-bys with wide keys need it).
        let mut c = ctx();
        let v = Vector::new(ColumnData::I64(vec![1]));
        let h = hash_rows(&mut c, &[&v, &v, &v, &v, &v]);
        assert_eq!(h[0], dpu_sim::crc32::hash_keys(&[1, 1, 1, 1, 1]));
    }
}
