//! Hardware partitioning: the DMS partition-while-transfer engines.
//!
//! §5.4 of the paper: the DMS buffers rows from DDR in CMEM banks, runs a
//! CRC32 checksum into CRC memory (hash strategies) or matches against up to
//! 32 pre-programmed range boundaries (range strategy), derives a target
//! dpCore id per row into CID memory, and finally scatters each row into
//! the target core's DMEM — all without involving the dpCores. Fan-out per
//! round is limited to the 32 cores.
//!
//! [`HwPartitioner`] is *functional*: it really computes the target core of
//! every row (using the same CRC32 the software path uses, so row placement
//! agrees between hardware and software partitioning), and returns the
//! modelled engine cost. The stages are pipelined on the real chip, so the
//! cost is the **max** of the stage costs, not their sum — this is what
//! keeps all strategies of Figure 8 at the same ~9.3 GiB/s.

use crate::crc32;
use crate::isa::CostModel;

use super::engine::{DmsCost, DmsEngine};

/// Maximum hardware fan-out: one target per dpCore.
pub const MAX_HW_FANOUT: usize = 32;

/// The partitioning strategies the DMS supports (§5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Use `bits` bits of the key value itself, starting at `shift`.
    /// The paper's micro-benchmark uses the least significant 5 bits.
    ///
    /// Keys are viewed through the order-preserving sign-biased encoding
    /// (bit 63 flipped), so radix bit-fields place negative keys before
    /// positive ones — consistent with [`PartitionStrategy::Range`].
    Radix {
        /// Number of radix bits (fan-out = 2^bits, at most 32 targets).
        bits: u32,
        /// Right-shift applied to the key before taking the radix bits.
        shift: u32,
    },
    /// CRC32-hash 1–4 key columns, then use the low `bits` bits.
    Hash {
        /// Number of radix bits taken from the hash value.
        bits: u32,
    },
    /// Match the single key column against ≤ 32 pre-programmed *upper*
    /// bounds; row goes to the first range whose bound exceeds its key
    /// (rows above the last bound go to the last target).
    Range {
        /// Sorted, exclusive upper bounds; fan-out = `bounds.len() + 1`.
        bounds: Vec<i64>,
    },
    /// Cyclic distribution. `targets` allows assigning a frequent value
    /// range to several cores to absorb skew (§5.4's skew mechanism);
    /// plain round-robin over `fanout` cores is `targets == None`.
    RoundRobin {
        /// Fan-out of the cyclic distribution.
        fanout: usize,
    },
}

impl PartitionStrategy {
    /// Number of partitions this strategy produces.
    pub fn fanout(&self) -> usize {
        match self {
            PartitionStrategy::Radix { bits, .. } => 1usize << bits,
            PartitionStrategy::Hash { bits } => 1usize << bits,
            PartitionStrategy::Range { bounds } => bounds.len() + 1,
            PartitionStrategy::RoundRobin { fanout } => *fanout,
        }
    }
}

/// Error from hardware-partitioning configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwPartitionError {
    /// Fan-out exceeds the 32 dpCores or is zero.
    BadFanout(usize),
    /// Hash strategy got zero or more than 4 key columns.
    BadKeyColumns(usize),
    /// Key columns have differing lengths.
    RaggedKeys,
}

impl std::fmt::Display for HwPartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwPartitionError::BadFanout(n) => write!(f, "hardware fan-out {n} not in 1..=32"),
            HwPartitionError::BadKeyColumns(n) => {
                write!(f, "hash engine takes 1..=4 keys, got {n}")
            }
            HwPartitionError::RaggedKeys => write!(f, "key columns have differing lengths"),
        }
    }
}

impl std::error::Error for HwPartitionError {}

/// The hardware partitioner: strategy + timing.
#[derive(Debug, Clone)]
pub struct HwPartitioner {
    strategy: PartitionStrategy,
    cm: CostModel,
}

impl HwPartitioner {
    /// Configure the engine; fails if the fan-out exceeds the hardware.
    pub fn new(strategy: PartitionStrategy, cm: CostModel) -> Result<Self, HwPartitionError> {
        let fanout = strategy.fanout();
        if fanout == 0 || fanout > MAX_HW_FANOUT {
            return Err(HwPartitionError::BadFanout(fanout));
        }
        Ok(HwPartitioner { strategy, cm })
    }

    /// The configured strategy.
    pub fn strategy(&self) -> &PartitionStrategy {
        &self.strategy
    }

    /// Fan-out of this configuration.
    pub fn fanout(&self) -> usize {
        self.strategy.fanout()
    }

    /// Compute the target core of every row.
    ///
    /// `keys` holds one slice per key column (1–4 for [`PartitionStrategy::Hash`],
    /// exactly one for radix/range, none for round-robin — pass the row
    /// count via any single column or use [`HwPartitioner::assign_n`]).
    pub fn assign(&self, keys: &[&[i64]]) -> Result<Vec<u32>, HwPartitionError> {
        let rows = keys.first().map_or(0, |k| k.len());
        if keys.iter().any(|k| k.len() != rows) {
            return Err(HwPartitionError::RaggedKeys);
        }
        match &self.strategy {
            PartitionStrategy::Radix { bits, shift } => {
                let key = keys.first().ok_or(HwPartitionError::BadKeyColumns(0))?;
                let mask = (1u64 << bits) - 1;
                // Sign-biased view: flipping bit 63 maps i64 order onto u64
                // order, so negative keys take the low partitions instead of
                // wrapping into the top ones.
                Ok(key
                    .iter()
                    .map(|&k| (((k as u64 ^ (1u64 << 63)) >> shift) & mask) as u32)
                    .collect())
            }
            PartitionStrategy::Hash { bits } => {
                if keys.is_empty() || keys.len() > 4 {
                    return Err(HwPartitionError::BadKeyColumns(keys.len()));
                }
                let mask = (1u32 << bits) - 1;
                let mut out = Vec::with_capacity(rows);
                match keys {
                    [k0] => out.extend(k0.iter().map(|&k| crc32::hash_u64(k as u64) & mask)),
                    _ => {
                        let mut buf = [0u64; 4];
                        for i in 0..rows {
                            for (j, col) in keys.iter().enumerate() {
                                buf[j] = col[i] as u64;
                            }
                            out.push(crc32::hash_keys(&buf[..keys.len()]) & mask);
                        }
                    }
                }
                Ok(out)
            }
            PartitionStrategy::Range { bounds } => {
                let key = keys.first().ok_or(HwPartitionError::BadKeyColumns(0))?;
                Ok(key
                    .iter()
                    .map(|&k| bounds.partition_point(|&b| b <= k) as u32)
                    .collect())
            }
            PartitionStrategy::RoundRobin { fanout } => {
                Ok((0..rows as u32).map(|i| i % *fanout as u32).collect())
            }
        }
    }

    /// Round-robin assignment for `rows` rows without key columns.
    pub fn assign_n(&self, rows: usize) -> Result<Vec<u32>, HwPartitionError> {
        match &self.strategy {
            PartitionStrategy::RoundRobin { fanout } => {
                Ok((0..rows as u32).map(|i| i % *fanout as u32).collect())
            }
            _ => Err(HwPartitionError::BadKeyColumns(0)),
        }
    }

    /// Engine cost of partitioning `rows` rows of `cols` columns of `width`
    /// bytes, staged in CMEM buffers of `tile` rows.
    ///
    /// Pipeline stages — DDR read, CRC/range matching, CID generation and
    /// DMEM scatter — overlap, so the cost is the slowest stage (plus the
    /// read's per-buffer overheads, which are in the engine read cost).
    pub fn partition_cost(&self, rows: usize, cols: usize, width: usize, tile: usize) -> DmsCost {
        let engine = DmsEngine::new(self.cm.clone());
        let read = engine.sequential_read(cols, width, rows, tile);

        let crc_cycles = match &self.strategy {
            PartitionStrategy::Hash { .. } => {
                // The CRC engine is sized to keep up with DDR even for
                // 4-key hashing (Fig 8 shows no strategy gap); charge the
                // worst case of 4 key columns.
                (rows as f64) * 4.0 * width as f64 / self.cm.dms_hash_bytes_per_cycle
            }
            PartitionStrategy::Range { bounds } => {
                // Parallel compare against ≤32 bounds: ~log2 comparator tree,
                // one row per cycle per bank.
                (rows as f64) * (1.0 + (bounds.len().max(2) as f64).log2() / 32.0)
            }
            _ => 0.0,
        };
        let stage_cycles = rows as f64 * self.cm.dms_partition_stage_cycles_per_row;
        let scatter_cycles = rows as f64 * self.cm.dms_scatter_burst_cycles;

        let pipeline = read
            .cycles
            .max(crc_cycles)
            .max(stage_cycles)
            .max(scatter_cycles * width as f64 * cols as f64 / 16.0);

        DmsCost {
            cycles: pipeline,
            bytes: read.bytes,
            descriptors: read.descriptors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{rates, Cycles};

    fn bw_gibps(cost: &DmsCost) -> f64 {
        let cm = CostModel::default();
        rates::gib_per_sec(cost.bytes, Cycles(cost.cycles).to_time(cm.freq_hz))
    }

    fn all_strategies() -> Vec<PartitionStrategy> {
        vec![
            PartitionStrategy::Radix { bits: 5, shift: 0 },
            PartitionStrategy::Hash { bits: 5 },
            PartitionStrategy::Range {
                bounds: (1..32).map(|i| i * 1000).collect(),
            },
            PartitionStrategy::RoundRobin { fanout: 32 },
        ]
    }

    #[test]
    fn calibration_fig8_all_strategies_near_9_gibps() {
        // Paper Fig 8: 32-way hardware partitioning of a 4x4-byte relation
        // sustains ~9.3 GiB/s for radix, hash(1,2,4 keys) and range alike.
        for strat in all_strategies() {
            let hw = HwPartitioner::new(strat.clone(), CostModel::default()).unwrap();
            let cost = hw.partition_cost(1 << 22, 4, 4, 128);
            let bw = bw_gibps(&cost);
            assert!((8.0..10.5).contains(&bw), "{strat:?}: {bw} GiB/s");
        }
    }

    #[test]
    fn radix_uses_low_bits_of_key() {
        let hw = HwPartitioner::new(
            PartitionStrategy::Radix { bits: 5, shift: 0 },
            CostModel::default(),
        )
        .unwrap();
        let keys: Vec<i64> = (0..100).collect();
        let a = hw.assign(&[&keys]).unwrap();
        for (i, &t) in a.iter().enumerate() {
            assert_eq!(t, (i % 32) as u32);
        }
    }

    #[test]
    fn radix_orders_negative_keys_like_range() {
        // Top-bits radix on signed keys must agree with range partitioning's
        // ordering: negative keys go to lower partitions than positive ones.
        let hw = HwPartitioner::new(
            PartitionStrategy::Radix { bits: 2, shift: 62 },
            CostModel::default(),
        )
        .unwrap();
        let keys = vec![i64::MIN, -1, 0, i64::MAX];
        let a = hw.assign(&[&keys]).unwrap();
        assert_eq!(a, vec![0, 1, 2, 3]);
        // Monotone: partition index never decreases as the key grows.
        let sorted: Vec<i64> = vec![i64::MIN, -5_000_000, -1, 0, 1, 5_000_000, i64::MAX];
        let parts = hw.assign(&[&sorted]).unwrap();
        assert!(parts.windows(2).all(|w| w[0] <= w[1]), "{parts:?}");
    }

    #[test]
    fn hash_assignment_is_deterministic_and_bounded() {
        let hw =
            HwPartitioner::new(PartitionStrategy::Hash { bits: 5 }, CostModel::default()).unwrap();
        let keys: Vec<i64> = (0..10_000).collect();
        let a = hw.assign(&[&keys]).unwrap();
        let b = hw.assign(&[&keys]).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| t < 32));
        // Roughly uniform across targets.
        for target in 0..32 {
            let rows = a.iter().filter(|&&t| t == target).count();
            let frac = rows as f64 / keys.len() as f64;
            assert!((frac - 1.0 / 32.0).abs() < 0.01, "load {frac}");
        }
    }

    #[test]
    fn multi_key_hash_differs_from_single_key() {
        let hw =
            HwPartitioner::new(PartitionStrategy::Hash { bits: 5 }, CostModel::default()).unwrap();
        let k1: Vec<i64> = (0..1000).collect();
        let k2: Vec<i64> = (0..1000).rev().collect();
        let single = hw.assign(&[&k1]).unwrap();
        let double = hw.assign(&[&k1, &k2]).unwrap();
        assert_ne!(single, double);
    }

    #[test]
    fn range_respects_bounds() {
        let hw = HwPartitioner::new(
            PartitionStrategy::Range {
                bounds: vec![10, 20, 30],
            },
            CostModel::default(),
        )
        .unwrap();
        assert_eq!(hw.fanout(), 4);
        let keys = vec![-5i64, 9, 10, 19, 25, 30, 1000];
        let a = hw.assign(&[&keys]).unwrap();
        assert_eq!(a, vec![0, 0, 1, 1, 2, 3, 3]);
    }

    #[test]
    fn round_robin_cycles() {
        let hw = HwPartitioner::new(
            PartitionStrategy::RoundRobin { fanout: 3 },
            CostModel::default(),
        )
        .unwrap();
        assert_eq!(hw.assign_n(7).unwrap(), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn fanout_above_32_rejected() {
        let err = HwPartitioner::new(PartitionStrategy::Hash { bits: 6 }, CostModel::default());
        assert_eq!(err.unwrap_err(), HwPartitionError::BadFanout(64));
    }

    #[test]
    fn ragged_keys_rejected() {
        let hw =
            HwPartitioner::new(PartitionStrategy::Hash { bits: 5 }, CostModel::default()).unwrap();
        let a: Vec<i64> = vec![1, 2, 3];
        let b: Vec<i64> = vec![1, 2];
        assert_eq!(
            hw.assign(&[&a, &b]).unwrap_err(),
            HwPartitionError::RaggedKeys
        );
    }
}
