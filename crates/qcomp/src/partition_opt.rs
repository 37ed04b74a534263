//! Partition scheme optimization (§5.3).
//!
//! The required number of partitions is `max(data_size / DMEM, cores)`; a
//! *scheme* is a factorization of that number into per-round fan-outs.
//! More rounds mean re-scanning the data; bigger fan-outs per round mean
//! smaller per-partition DMEM buffers and eventually spill. Every round is
//! a software round on the dpCores (`rapid_qef::ops::partition`): the
//! paper's 32-way hardware partitioner is modelled in `dpu_sim` but drives
//! no query stage, so nothing here multiplies a fan-out by it. The
//! optimizer explores factorizations with the paper's heuristics:
//!
//! a. fan-out at each round must be a power of two,
//! b. fan-out is bounded by the relation's max fan-out (buffer budget),
//! c. minimize the number of rounds,
//! d. favor symmetric fan-outs (8×8 over 16×4),
//!
//! and costs each candidate with the calibrated cost function, keeping the
//! cheapest.

use dpu_sim::isa::CostModel;
use rapid_qef::budget::MAX_ROUND_FANOUT;
use rapid_qef::exec::ExecContext;

/// A partitioning scheme: fan-out per round.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionScheme {
    /// Fan-out of each round, in execution order.
    pub rounds: Vec<usize>,
    /// Modelled cost in cycles.
    pub cost_cycles: f64,
}

impl PartitionScheme {
    /// Total partitions produced.
    pub fn total_partitions(&self) -> usize {
        self.rounds.iter().product()
    }
}

/// Inputs to the scheme optimizer.
#[derive(Debug, Clone)]
pub struct PartitionOptInput {
    /// Rows to partition.
    pub rows: u64,
    /// Bytes per row across partitioned columns. What a round moves and
    /// buffers is the width the columns are encoded in
    /// (`PlanNode::output_widths`); [`required_partitions`] is asked at
    /// the width the kernel consuming a partition holds a row in: the
    /// declared one a join kernel widens keys to, 8-byte keys and a chain
    /// entry for a group table.
    pub row_bytes: usize,
    /// DMEM bytes available per core.
    pub dmem_bytes: usize,
    /// Cores (the minimum useful number of partitions).
    pub cores: usize,
    /// Maximum single-round fan-out: the radix bits one software round may
    /// take (`budget::MAX_ROUND_FANOUT`), or fewer where the per-partition
    /// local buffers stop fitting in DMEM (`budget::max_buffered_fanout`).
    pub max_round_fanout: usize,
}

impl Default for PartitionOptInput {
    fn default() -> Self {
        let dpu = ExecContext::dpu();
        PartitionOptInput {
            rows: 0,
            row_bytes: 8,
            dmem_bytes: dpu.dmem_bytes,
            cores: dpu.cores,
            max_round_fanout: MAX_ROUND_FANOUT,
        }
    }
}

/// The required number of partitions (§5.3): estimated data size divided
/// by DMEM, raised to the core count, rounded to a power of two.
pub fn required_partitions(input: &PartitionOptInput) -> usize {
    let data_bytes = input.rows as usize * input.row_bytes;
    // A join kernel wants its build partition in roughly half of DMEM
    // (the rest holds I/O vectors).
    let by_size = data_bytes.div_ceil((input.dmem_bytes / 2).max(1));
    by_size.max(input.cores).max(1).next_power_of_two()
}

/// Cost one scheme: every round streams all rows through the partitioner
/// (read + write), with a penalty when the round's fan-out exceeds what
/// the per-partition DMEM buffers support without spilling.
pub fn scheme_cost(cm: &CostModel, input: &PartitionOptInput, rounds: &[usize]) -> f64 {
    let bytes = input.rows as f64 * input.row_bytes as f64;
    let mut total = 0.0;
    for &fanout in rounds {
        // Stream through the DMS: read + write each row once.
        let wire = 2.0 * bytes / cm.dms_bytes_per_cycle();
        // Software partition-map + gather cycles per row.
        let sw = input.rows as f64 * 4.0;
        // Local-buffer pressure: with `fanout` buffers in half the DMEM,
        // each buffer is dmem/2/fanout bytes; smaller buffers flush more
        // often and amortize descriptor setup worse.
        let buf_bytes = (input.dmem_bytes / 2) as f64 / fanout as f64;
        let flushes = bytes / buf_bytes.max(64.0);
        let flush_overhead = flushes * cm.dms_descriptor_setup_cycles;
        // Spill penalty: local buffers below a minimum burst (16 rows)
        // stop amortizing DMS bursts and thrash DRAM row buffers; the
        // penalty grows with the deficit. This is what caps the useful
        // per-round fan-out (heuristic b).
        let min_buf = 16.0 * input.row_bytes as f64;
        let spill = if buf_bytes < min_buf {
            wire * (min_buf / buf_bytes.max(1.0) - 1.0)
        } else {
            0.0
        };
        total += wire.max(sw) + flush_overhead + spill;
    }
    total
}

/// The cheapest scheme making [`required_partitions`] of `input`.
pub fn optimize_partition_scheme(cm: &CostModel, input: &PartitionOptInput) -> PartitionScheme {
    optimize_for_partitions(cm, input, required_partitions(input))
}

/// Enumerate candidate factorizations of `partitions` into power-of-two
/// rounds bounded by `max_round_fanout` (heuristics a–d), cost each over
/// `input`, and return the cheapest. The count is the caller's so that it
/// can be sized from other widths than the rounds are priced at.
pub fn optimize_for_partitions(
    cm: &CostModel,
    input: &PartitionOptInput,
    partitions: usize,
) -> PartitionScheme {
    // A scheme consumes one hash bit per doubling; the top 4 of the 32
    // hash bits stay reserved for skew re-partitioning (§6.4), so the
    // total partition count is capped at 2^28.
    let target = partitions.next_power_of_two().min(1 << 28);
    let max_f = input.max_round_fanout.next_power_of_two();
    let mut best: Option<PartitionScheme> = None;
    let mut candidates: Vec<Vec<usize>> = Vec::new();
    enumerate_factorizations(target, max_f, &mut Vec::new(), &mut candidates);
    for rounds in candidates {
        let cost = scheme_cost(cm, input, &rounds);
        let better = match &best {
            None => true,
            Some(b) => {
                cost < b.cost_cycles - 1e-9
                    || ((cost - b.cost_cycles).abs() <= 1e-9 && prefer(&rounds, &b.rounds))
            }
        };
        if better {
            best = Some(PartitionScheme {
                rounds,
                cost_cycles: cost,
            });
        }
    }
    // The enumeration always yields at least one factorization of a
    // power-of-two target, but stay total: fall back to one round.
    best.unwrap_or_else(|| PartitionScheme {
        cost_cycles: scheme_cost(cm, input, &[target]),
        rounds: vec![target],
    })
}

/// Tie-break per the paper: fewer rounds first, then more symmetric
/// fan-outs (smaller max/min ratio).
fn prefer(a: &[usize], b: &[usize]) -> bool {
    if a.len() != b.len() {
        return a.len() < b.len();
    }
    let spread = |r: &[usize]| {
        let max = r.iter().max().copied().unwrap_or(1);
        let min = r.iter().min().copied().unwrap_or(1).max(1);
        max / min
    };
    spread(a) < spread(b)
}

/// All non-increasing power-of-two factorizations of `target` with each
/// factor ≤ `max_f` (order within a scheme does not change its cost model;
/// non-increasing avoids duplicate permutations).
fn enumerate_factorizations(
    target: usize,
    max_f: usize,
    prefix: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if target == 1 {
        if prefix.is_empty() {
            out.push(vec![1]);
        } else {
            out.push(prefix.clone());
        }
        return;
    }
    let cap = prefix
        .last()
        .copied()
        .unwrap_or(max_f)
        .min(max_f)
        .min(target);
    let mut f = cap.next_power_of_two();
    if f > cap {
        f /= 2;
    }
    while f >= 2 {
        if target.is_multiple_of(f) {
            prefix.push(f);
            enumerate_factorizations(target / f, max_f, prefix, out);
            prefix.pop();
        }
        f /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(rows: u64) -> PartitionOptInput {
        PartitionOptInput {
            rows,
            ..Default::default()
        }
    }

    #[test]
    fn required_partitions_respects_cores_floor() {
        // Tiny relation: still 32 partitions (one per core).
        assert_eq!(required_partitions(&input(100)), 32);
    }

    #[test]
    fn required_partitions_scales_with_data() {
        // 100M rows x 8B = 800MB over 16KiB halves -> ~49k -> 65536.
        let p = required_partitions(&input(100_000_000));
        assert_eq!(p, 65536);
    }

    #[test]
    fn single_round_preferred_when_target_fits() {
        // 100k rows x 8B = 800 KB over 16 KiB halves -> 49 -> 64
        // partitions, which one 64-way round delivers without spilling.
        let cm = CostModel::default();
        let scheme = optimize_partition_scheme(&cm, &input(100_000));
        assert_eq!(scheme.total_partitions(), 64);
        assert_eq!(scheme.rounds, vec![64], "64-way fits one round");
    }

    #[test]
    fn symmetric_factorization_preferred_on_ties() {
        // For a 64-way target the paper's example favors 8x8 over 16x4
        // when two rounds are needed; cap the round fan-out to force two
        // rounds.
        let cm = CostModel::default();
        let inp = PartitionOptInput {
            rows: 1 << 20,
            max_round_fanout: 16,
            ..Default::default()
        };
        // target = max(8GB/16KiB...) compute: 1M rows x 8B / 16KiB = 512 -> 512 partitions
        let scheme = optimize_partition_scheme(&cm, &inp);
        assert!(scheme.rounds.iter().all(|&f| f <= 16));
        assert_eq!(scheme.total_partitions(), required_partitions(&inp));
        // Non-increasing and reasonably symmetric.
        assert!(scheme.rounds.windows(2).all(|w| w[0] >= w[1]));
        let spread = scheme.rounds.iter().max().unwrap() / scheme.rounds.iter().min().unwrap();
        assert!(spread <= 4, "rounds {:?} too asymmetric", scheme.rounds);
    }

    #[test]
    fn factorizations_are_exhaustive_for_64() {
        let mut out = Vec::new();
        enumerate_factorizations(64, 32, &mut Vec::new(), &mut out);
        // {32x2, 16x4, 8x8, 16x2x2, 8x4x2, 4x4x4, 8x2x2x2, 4x4x2x2(dup? no:
        // non-increasing), ...} — verify every candidate multiplies to 64
        // and respects constraints, and the canonical ones are present.
        assert!(out.iter().all(|r| r.iter().product::<usize>() == 64));
        assert!(out
            .iter()
            .all(|r| r.iter().all(|&f| f.is_power_of_two() && f <= 32)));
        assert!(out.contains(&vec![8, 8]));
        assert!(out.contains(&vec![16, 4]));
        assert!(out.contains(&vec![32, 2]));
    }

    #[test]
    fn more_rounds_cost_more() {
        let cm = CostModel::default();
        let inp = input(1 << 22);
        let one = scheme_cost(&cm, &inp, &[1024]);
        let two = scheme_cost(&cm, &inp, &[32, 32]);
        // One spill-free 1024-way round beats two rounds only if buffers
        // hold up; at 16 KiB DMEM 1024 buffers of 16B thrash, so two
        // rounds should win here — the crossover the optimizer navigates.
        assert!(
            two < one,
            "two rounds {two} vs oversized single round {one}"
        );
    }

    #[test]
    fn optimizer_picks_min_cost_among_enumerated() {
        let cm = CostModel::default();
        let inp = PartitionOptInput {
            rows: 1 << 24,
            ..Default::default()
        };
        let best = optimize_partition_scheme(&cm, &inp);
        let mut all = Vec::new();
        enumerate_factorizations(required_partitions(&inp), 1024, &mut Vec::new(), &mut all);
        for cand in all {
            assert!(
                scheme_cost(&cm, &inp, &cand) >= best.cost_cycles - 1e-6,
                "{cand:?} beats chosen {:?}",
                best.rounds
            );
        }
    }
}
