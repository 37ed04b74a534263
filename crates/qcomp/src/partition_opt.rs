//! Partition schemes (§5.3).
//!
//! A partition pass splits its input into [`required_partitions`] —
//! `max(data_size / DMEM, cores)`, a power of two — over one or more
//! rounds. Every round is a software round on the dpCores
//! (`rapid_qef::ops::partition`): the paper's 32-way hardware partitioner
//! is modelled in `dpu_sim` but drives no query stage, so nothing here
//! multiplies a fan-out by it. The scheme is the paper's heuristics
//! applied directly, with no search:
//!
//! a. fan-out at each round must be a power of two,
//! b. fan-out is bounded by the relation's max fan-out (buffer budget),
//! c. minimize the number of rounds,
//! d. favor symmetric fan-outs (8×8 over 16×4).
//!
//! [`scheme_cost`] prices a scheme for the join-order search, which weighs
//! the partition rounds a join order costs; it chooses no scheme.

use dpu_sim::isa::CostModel;
use rapid_qef::budget::{max_buffered_fanout, HASH_BITS, MAX_ROUND_FANOUT, SKEW_RESERVED_BITS};
use rapid_qef::exec::ExecContext;
use rapid_qef::ops::join::broadcast_capacity;

/// The required number of partitions (§5.3): `rows` rows of `row_bytes`
/// divided by DMEM, raised to the core count, rounded to a power of two.
/// `rows` is an estimate and may be saturated: the data size saturates too.
pub fn required_partitions(rows: u64, row_bytes: usize, dmem_bytes: usize, cores: usize) -> usize {
    let data_bytes = (rows as usize).saturating_mul(row_bytes);
    // A join kernel wants its build partition in roughly half of DMEM
    // (the rest holds I/O vectors).
    let by_size = data_bytes.div_ceil((dmem_bytes / 2).max(1));
    by_size.max(cores).max(1).next_power_of_two()
}

/// The scheme of a partition pass, for joins and group-bys alike: as many
/// partitions as `rows` rows of `kernel_row_bytes` — the row as the kernel
/// that consumes a partition holds it — need to fit DMEM, never fewer than
/// the cores, in the fewest rounds the buffer cap of rows of `row_bytes` as
/// they are encoded allows (`max_buffered_fanout`, at most
/// `MAX_ROUND_FANOUT` ways), the hash bits split evenly across them, wider
/// rounds first. The verifier checks (R-FANOUT-BUFFER) and the engine
/// refuses with the same cap over the same widths, so a scheme fails
/// neither.
pub fn partition_scheme(
    rows: f64,
    row_bytes: usize,
    kernel_row_bytes: usize,
    ctx: &ExecContext,
) -> Vec<usize> {
    let partitions = required_partitions(rows as u64, kernel_row_bytes, ctx.dmem_bytes, ctx.cores);
    let cap = max_buffered_fanout(row_bytes, ctx.dmem_bytes).min(MAX_ROUND_FANOUT);
    even_rounds(partitions, cap)
}

/// The scheme of a join's partition pass: as many partitions as `rows`
/// build rows need for each partition's rows to fit the table a lane builds
/// of them in half of DMEM — the bucket and link arrays, keys and row ids
/// `ops::join::broadcast_bytes` counts, and `table_row_bytes` of each row
/// the table holds beside them (none for a pair join's table, which holds
/// row ids; a ranged lane's holds the build rows) — never fewer than the
/// cores, in the fewest rounds the buffer cap of rows of `row_bytes` as they
/// are encoded allows, as [`partition_scheme`] cuts them.
pub fn join_scheme(
    rows: f64,
    row_bytes: usize,
    (nkeys, table_row_bytes): (usize, usize),
    ctx: &ExecContext,
) -> Vec<usize> {
    let half = ctx.dmem_bytes / 2;
    let fits = broadcast_capacity(half, nkeys, table_row_bytes, half).max(1);
    // A saturated estimate takes every schedulable hash bit (`even_rounds`).
    let most = (1u64 << (HASH_BITS - SKEW_RESERVED_BITS)) as f64;
    let by_size = (rows.max(0.0) / fits as f64).ceil().min(most) as usize;
    let partitions = by_size.max(ctx.cores).max(1).next_power_of_two();
    let cap = max_buffered_fanout(row_bytes, ctx.dmem_bytes).min(MAX_ROUND_FANOUT);
    even_rounds(partitions, cap)
}

/// Power-of-two `partitions` in the fewest rounds of at most `cap` (≥ 2)
/// ways, `cap` rounded down to a power of two. A scheme consumes one hash
/// bit per doubling; the top [`SKEW_RESERVED_BITS`] of the [`HASH_BITS`]
/// stay reserved for skew re-partitioning (§6.4), so the partition count is
/// capped at 2^(`HASH_BITS` − `SKEW_RESERVED_BITS`).
fn even_rounds(partitions: usize, cap: usize) -> Vec<usize> {
    let bits = partitions.ilog2().min(HASH_BITS - SKEW_RESERVED_BITS);
    let rounds = bits.div_ceil(cap.ilog2()).max(1);
    (0..rounds)
        .map(|i| 1 << (bits / rounds + u32::from(i < bits % rounds)))
        .collect()
}

/// Cost one scheme over `rows` rows of `row_bytes` with `dmem_bytes` of
/// DMEM a core: every round streams all rows through the partitioner
/// (read + write), with a penalty when the round's fan-out exceeds what
/// the per-partition DMEM buffers support without spilling.
pub fn scheme_cost(
    cm: &CostModel,
    rows: u64,
    row_bytes: usize,
    dmem_bytes: usize,
    rounds: &[usize],
) -> f64 {
    let bytes = rows as f64 * row_bytes as f64;
    let mut total = 0.0;
    for &fanout in rounds {
        // Stream through the DMS: read + write each row once.
        let wire = 2.0 * bytes / cm.dms_bytes_per_cycle();
        // Software partition-map + gather cycles per row.
        let sw = rows as f64 * 4.0;
        // Local-buffer pressure: with `fanout` buffers in half the DMEM,
        // each buffer is dmem/2/fanout bytes; smaller buffers flush more
        // often and amortize descriptor setup worse.
        let buf_bytes = (dmem_bytes / 2) as f64 / fanout as f64;
        let flushes = bytes / buf_bytes.max(64.0);
        let flush_overhead = flushes * cm.dms_descriptor_setup_cycles;
        // Spill penalty: local buffers below a minimum burst (16 rows)
        // stop amortizing DMS bursts and thrash DRAM row buffers; the
        // penalty grows with the deficit (the bound heuristic b caps a
        // round's fan-out at).
        let min_buf = 16.0 * row_bytes as f64;
        let spill = if buf_bytes < min_buf {
            wire * (min_buf / buf_bytes.max(1.0) - 1.0)
        } else {
            0.0
        };
        total += wire.max(sw) + flush_overhead + spill;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn required(rows: u64) -> usize {
        let dpu = ExecContext::dpu();
        required_partitions(rows, 8, dpu.dmem_bytes, dpu.cores)
    }

    #[test]
    fn required_partitions_respects_cores_floor() {
        // Tiny relation: still 32 partitions (one per core).
        assert_eq!(required(100), 32);
    }

    #[test]
    fn required_partitions_scales_with_data() {
        // 100M rows x 8B = 800MB over 16KiB halves -> ~49k -> 65536.
        assert_eq!(required(100_000_000), 65536);
    }

    #[test]
    fn a_saturated_estimate_takes_every_schedulable_hash_bit() {
        // An estimate past u64 saturates its row count; the data size
        // saturates with it, and the scheme stops at 2^28 partitions.
        let dpu = ExecContext::dpu();
        let scheme = partition_scheme(u64::MAX as f64, 8, 8, &dpu);
        assert_eq!(scheme.iter().product::<usize>(), 1 << 28);
        assert_eq!(scheme, [128, 128, 128, 128]);
        assert_eq!(join_scheme(f64::MAX, 8, (1, 8), &dpu), scheme);
    }

    #[test]
    fn schemes_are_the_heuristics() {
        // Every target 2^0..=2^30 under every power-of-two cap 2..=1024,
        // and a cap that is no power of two.
        let caps = (1..=10).map(|b| 1usize << b).chain([24]);
        for cap in caps {
            let floor = 1 << cap.ilog2();
            for target_bits in 0..=30u32 {
                let bits = target_bits.min(HASH_BITS - SKEW_RESERVED_BITS);
                let s = even_rounds(1 << target_bits, cap);
                let case = format!("2^{target_bits} under {cap}: {s:?}");
                assert_eq!(s.iter().product::<usize>(), 1 << bits, "{case}");
                assert!(s.iter().all(|&f| f <= floor), "{case}");
                let fewest = bits.div_ceil(floor.ilog2()).max(1);
                assert_eq!(s.len(), fewest as usize, "{case}");
                assert!(s.windows(2).all(|w| w[0] >= w[1]), "{case}");
                assert!(s[0] / s[s.len() - 1] <= 2, "{case}");
            }
        }
        // §5.3's example: 64 ways over two rounds are 8 x 8, not 16 x 4.
        assert_eq!(even_rounds(64, 16), [8, 8]);
        assert_eq!(even_rounds(512, 32), [32, 16]);
    }

    #[test]
    fn more_rounds_cost_more() {
        let cm = CostModel::default();
        let dmem = ExecContext::dpu().dmem_bytes;
        let cost = |rounds: &[usize]| scheme_cost(&cm, 1 << 22, 8, dmem, rounds);
        let one = cost(&[1024]);
        let two = cost(&[32, 32]);
        // One spill-free 1024-way round beats two rounds only if buffers
        // hold up; at 16 KiB DMEM 1024 buffers of 16B thrash, so two
        // rounds should win here.
        assert!(
            two < one,
            "two rounds {two} vs oversized single round {one}"
        );
    }
}
