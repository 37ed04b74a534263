//! Per-row cost declarations of the primitive families.
//!
//! These constants are the per-element operation counts of the
//! hand-scheduled dpCore loops the paper shows (Listings 1–3), expressed as
//! [`KernelCost`]s. Together with the per-tile control-flow overhead in the
//! [`dpu_sim::isa::CostModel`] they reproduce the paper's operating points:
//!
//! * filter: ~1.65 cycles/tuple ⇒ 482 M tuples/s/core at 800 MHz (§7.2),
//!   at the filter's natural tile size (a full 16 KiB vector of 4-byte
//!   keys = 4096 rows — the filter task holds few operators, so task
//!   formation gives it large vectors),
//! * join build: ~46 M rows/s/core at 256-row tiles, +39 % at 1024 (§7.3),
//! * join probe: 880 M – 1.35 B rows/s per 32-core DPU (§7.3),
//! * software partitioning: ~948 M rows/s per DPU at 32-way (§7.2).
//!
//! The pinning tests live in `crates/bench` (figure harness) and in the
//! operator modules.

use dpu_sim::isa::KernelCost;

/// Filter compare loop (Listing 1): `bvld` + `filteq` dual-issue per value,
/// one backward branch per unrolled pair.
pub fn filter_per_row() -> KernelCost {
    KernelCost {
        alu: 1.0,
        lsu: 1.0,
        dual_issue_frac: 1.0,
        mul: 0.0,
        branches: 0.5,
        mispredicts: 0.005,
    }
}

/// Extra cost when the filter emits RIDs instead of bits: a conditional
/// append (data-dependent forward branch).
pub fn filter_rid_emit_per_match() -> KernelCost {
    KernelCost {
        alu: 1.0,
        lsu: 1.0,
        dual_issue_frac: 0.0,
        branches: 1.0,
        mispredicts: 0.15,
        ..Default::default()
    }
}

/// Arithmetic map loop: load, op, store — dual-issued.
pub fn arith_per_row() -> KernelCost {
    KernelCost {
        alu: 1.0,
        lsu: 2.0,
        dual_issue_frac: 1.0,
        mul: 0.0,
        branches: 1.0 / 8.0,
        mispredicts: 0.0,
    }
}

/// Multiply variant: the low-power multiplier stalls the pipeline.
pub fn mul_per_row() -> KernelCost {
    KernelCost {
        mul: 1.0,
        ..arith_per_row()
    }
}

/// CRC32 hash per row per key column (single-cycle CRC instruction plus
/// load, dual-issued).
pub fn hash_per_row_per_key() -> KernelCost {
    KernelCost {
        alu: 1.0,
        lsu: 1.0,
        dual_issue_frac: 1.0,
        branches: 1.0 / 16.0,
        ..Default::default()
    }
}

/// `compute_partition_map` (Listing 2): mask/shift on a hash value plus a
/// histogram update, tight branch-free loops.
pub fn partition_map_per_row() -> KernelCost {
    KernelCost {
        alu: 3.0,
        lsu: 3.0,
        dual_issue_frac: 0.8,
        branches: 1.0 / 8.0,
        mispredicts: 0.0,
        mul: 0.0,
    }
}

/// `swpart` column gather (Listing 3): load rid, load value, store value —
/// per projected column.
pub fn swpart_gather_per_row() -> KernelCost {
    KernelCost {
        alu: 2.0,
        lsu: 5.0,
        dual_issue_frac: 0.7,
        branches: 1.0 / 8.0,
        ..Default::default()
    }
}

/// Reading a row a predicate kept where it lies, in a loop that reads
/// `cols` columns of the tiles the DMS streamed: the row's tile offset is
/// loaded from the selection vector once, and added to the base of each
/// column — dual-issued, the loop's own loads, stores and branch counted by
/// its own kernel.
pub fn select_read_per_row(cols: usize) -> KernelCost {
    KernelCost {
        alu: cols as f64,
        lsu: 1.0,
        dual_issue_frac: 1.0,
        ..Default::default()
    }
}

/// Hash-join build kernel per row: bucket index (mask+shift on the
/// hardware CRC), load bucket, chain into link array, store rowid, store
/// key copy (§6.3's compact bit-array updates are multi-op).
pub fn join_build_per_row() -> KernelCost {
    KernelCost {
        alu: 8.0,
        lsu: 8.0,
        dual_issue_frac: 0.4,
        mul: 0.0,
        branches: 1.0,
        mispredicts: 0.02,
    }
}

/// Hash-join probe kernel fixed part per probe row: bucket index, bucket
/// load, first comparison.
pub fn join_probe_per_row() -> KernelCost {
    KernelCost {
        alu: 7.0,
        lsu: 6.0,
        dual_issue_frac: 0.5,
        mul: 0.0,
        branches: 1.0,
        mispredicts: 0.05,
    }
}

/// Per chain-link traversed during probe (link load + key compare).
pub fn join_probe_per_link() -> KernelCost {
    KernelCost {
        alu: 3.0,
        lsu: 3.0,
        dual_issue_frac: 0.5,
        branches: 1.0,
        mispredicts: 0.1,
        mul: 0.0,
    }
}

/// Per produced match (output rid pair store).
pub fn join_emit_per_match() -> KernelCost {
    KernelCost {
        alu: 1.0,
        lsu: 2.0,
        dual_issue_frac: 0.5,
        branches: 0.0,
        mispredicts: 0.0,
        mul: 0.0,
    }
}

/// Setting a build key's bit in a join filter, per row: the bit within its
/// slice from the row's CRC32 — the hash plus itself shifted, then the top
/// bits: a shift, an add and a shift — the bit's mask, the word's load, the
/// OR and its store. A slice is one lane's, so its partition bits are not
/// read.
pub fn join_filter_set_per_row() -> KernelCost {
    KernelCost {
        alu: 4.0,
        lsu: 2.0,
        dual_issue_frac: 1.0,
        branches: 1.0 / 8.0,
        ..Default::default()
    }
}

/// Testing a probe row's CRC32 against a join filter, per row: the bit's
/// place — its slice from the partition bits, ORed with the bit within it
/// found as [`join_filter_set_per_row`] finds it — the word's load (the
/// bit-vector load of the filter loop) and the bit's test, then the row
/// id's branch-free append to the kept rows: stored at the cursor, which
/// the test's result advances.
pub fn join_filter_test_per_row() -> KernelCost {
    KernelCost {
        alu: 4.0,
        lsu: 2.0,
        dual_issue_frac: 1.0,
        branches: 1.0 / 8.0,
        ..Default::default()
    }
}

/// Ungrouped aggregation per row (load + accumulate, dual-issued).
pub fn agg_per_row() -> KernelCost {
    KernelCost {
        alu: 1.0,
        lsu: 1.0,
        dual_issue_frac: 1.0,
        branches: 1.0 / 8.0,
        ..Default::default()
    }
}

/// Grouped aggregation per row (group index load, accumulator load,
/// update, store).
pub fn grouped_agg_per_row() -> KernelCost {
    KernelCost {
        alu: 2.0,
        lsu: 3.0,
        dual_issue_frac: 0.7,
        branches: 1.0 / 8.0,
        mispredicts: 0.01,
        mul: 0.0,
    }
}

/// Group-by hash-table lookup/insert per row (same family as join build).
pub fn group_lookup_per_row() -> KernelCost {
    KernelCost {
        alu: 6.0,
        lsu: 6.0,
        dual_issue_frac: 0.5,
        branches: 1.5,
        mispredicts: 0.05,
        mul: 0.0,
    }
}

/// Group slot from `nkeys` code keys per row, where an on-the-fly table
/// indexes its groups by slot: per key a load, the subtraction of its base,
/// a shift to its power-of-two stride and an OR into the slot — no CRC, no
/// chain walk, no key compare and no multiply — then the slot's group index
/// is loaded. Stands in for [`hash_per_row_per_key`] × keys plus
/// [`group_lookup_per_row`].
pub fn group_slot_per_row(nkeys: usize) -> KernelCost {
    let keys = nkeys as f64;
    KernelCost {
        alu: 3.0 * keys,
        lsu: keys + 1.0,
        dual_issue_frac: 1.0,
        branches: 1.0 / 8.0,
        ..Default::default()
    }
}

/// Radix-sort per row per pass (counting + scatter).
pub fn radix_sort_per_row_per_pass() -> KernelCost {
    KernelCost {
        alu: 3.0,
        lsu: 4.0,
        dual_issue_frac: 0.7,
        branches: 1.0 / 8.0,
        ..Default::default()
    }
}

/// Extra per-row overhead of **non**-vectorized (row-at-a-time) execution:
/// per-row operator dispatch through the interpreter — extra call/branch
/// work and hard-to-predict branches. This is the cost that Figure 13's
/// vectorization ablation removes.
pub fn row_at_a_time_overhead_per_row() -> KernelCost {
    KernelCost {
        alu: 4.0,
        lsu: 2.0,
        dual_issue_frac: 0.0,
        branches: 2.0,
        mispredicts: 0.3,
        mul: 0.0,
    }
}

/// Top-K heap update per row (comparison + conditional sift).
pub fn topk_per_row() -> KernelCost {
    KernelCost {
        alu: 3.0,
        lsu: 2.0,
        dual_issue_frac: 0.5,
        branches: 1.5,
        mispredicts: 0.1,
        mul: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_sim::isa::CostModel;

    #[test]
    fn filter_hits_482m_tuples_per_sec_at_full_vector_tiles() {
        // 482 M tuples/s at 800 MHz = 1.66 cycles/tuple, including the
        // per-tile control overhead amortized over a 4096-row vector.
        let cm = CostModel::default();
        let per_row = cm.kernel_cycles(&filter_per_row());
        let per_tile = cm.per_tile_overhead_cycles / 4096.0;
        let total = per_row + per_tile;
        let tuples_per_sec = cm.freq_hz / total;
        assert!(
            (430.0e6..540.0e6).contains(&tuples_per_sec),
            "filter = {:.0} M tuples/s ({total:.2} cy/row)",
            tuples_per_sec / 1e6
        );
    }

    #[test]
    fn join_build_near_46m_rows_per_sec_per_core_at_256() {
        let cm = CostModel::default();
        let per_row = cm.kernel_cycles(&join_build_per_row());
        let total = per_row + cm.per_tile_overhead_cycles / 256.0;
        let rows_per_sec = cm.freq_hz / total;
        assert!(
            (40.0e6..55.0e6).contains(&rows_per_sec),
            "build = {:.1} M rows/s/core ({total:.2} cy/row)",
            rows_per_sec / 1e6
        );
    }

    #[test]
    fn join_build_tile_1024_vs_64_improves_about_39_pct() {
        let cm = CostModel::default();
        let per_row = cm.kernel_cycles(&join_build_per_row());
        let t64 = per_row + cm.per_tile_overhead_cycles / 64.0;
        let t1024 = per_row + cm.per_tile_overhead_cycles / 1024.0;
        let gain = t64 / t1024 - 1.0;
        assert!((0.25..0.55).contains(&gain), "tile gain = {:.2}", gain);
    }

    #[test]
    fn probe_throughput_band_covers_paper_range() {
        // 32 cores; 50 % hit ratio ~ expected 1.5 links traversed per row
        // (first candidate + occasional chain step), ~0.5 matches emitted.
        let cm = CostModel::default();
        let per_row = cm.kernel_cycles(&join_probe_per_row())
            + 1.0 * cm.kernel_cycles(&join_probe_per_link())
            + 0.5 * cm.kernel_cycles(&join_emit_per_match());
        for (tile, lo, hi) in [(64usize, 0.7e9, 1.2e9), (1024, 0.9e9, 1.6e9)] {
            let total = per_row + cm.per_tile_overhead_cycles / tile as f64;
            let dpu_rows_per_sec = 32.0 * cm.freq_hz / total;
            assert!(
                (lo..hi).contains(&dpu_rows_per_sec),
                "probe tile {tile} = {:.2} B rows/s/DPU",
                dpu_rows_per_sec / 1e9
            );
        }
    }

    #[test]
    fn a_group_slot_is_cheaper_than_a_hash_and_a_lookup_and_never_multiplies() {
        let cm = CostModel::default();
        for keys in 1..=4 {
            let slot = group_slot_per_row(keys);
            assert_eq!(slot.mul, 0.0);
            let hashed = keys as f64 * cm.kernel_cycles(&hash_per_row_per_key())
                + cm.kernel_cycles(&group_lookup_per_row());
            assert!(cm.kernel_cycles(&slot) < hashed, "{keys} keys");
        }
        // Q1's two code keys: 6.125 cycles a row where hashing took 12.775.
        assert_eq!(cm.kernel_cycles(&group_slot_per_row(2)), 6.125);
    }

    #[test]
    fn reading_a_kept_row_in_place_is_cheaper_per_column_than_compacting_it() {
        let cm = CostModel::default();
        let compact = cm.kernel_cycles(&swpart_gather_per_row());
        for cols in 1..=16 {
            let select = cm.kernel_cycles(&select_read_per_row(cols));
            assert!(select / (cols as f64) < compact, "{cols} columns");
        }
        // An add per column, the offset's load paired with the first.
        assert_eq!(cm.kernel_cycles(&select_read_per_row(6)), 6.0);
        assert_eq!(compact, 5.725);
    }

    #[test]
    fn row_at_a_time_overhead_is_roughly_half_of_join_work() {
        // Figure 13: vectorization gains ~46 % on the Q3 join — i.e. the
        // row-at-a-time version is ~1.46x slower.
        let cm = CostModel::default();
        let vec_row =
            cm.kernel_cycles(&join_probe_per_row()) + cm.kernel_cycles(&join_probe_per_link());
        let slow = vec_row + cm.kernel_cycles(&row_at_a_time_overhead_per_row());
        let ratio = slow / vec_row;
        assert!(
            (1.3..1.7).contains(&ratio),
            "row-at-a-time ratio = {ratio:.2}"
        );
    }
}
