//! Timing model of DMS transfers, calibrated against Figure 9.
//!
//! The model charges three cost components per descriptor execution (one
//! buffer of one column):
//!
//! 1. **wire time** — `bytes / (peak × efficiency)`; gathers through
//!    RID-lists or bit-vectors run at a reduced efficiency because they lose
//!    DRAM row-buffer locality,
//! 2. **descriptor setup** — a fixed engine-configuration cost, amortized by
//!    larger tiles (this is why `128_rw` beats `64_rw` in Figure 9),
//! 3. **page-open overhead** — a DRAM row-activation cost that grows mildly
//!    with the number of column streams interleaved in the loop (this is
//!    the "small latency overhead in fetching non-contiguous DRAM pages"
//!    responsible for the gentle slope of Figure 9),
//!
//! plus a bus-turnaround penalty per write buffer when a loop mixes reads
//! and writes.

use crate::isa::CostModel;

use super::descriptor::{Descriptor, DescriptorLoop, Direction};

/// Cost of executing a descriptor program.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DmsCost {
    /// Engine-occupancy cycles.
    pub cycles: f64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Descriptor executions.
    pub descriptors: u64,
}

impl DmsCost {
    /// Combine two costs executed back-to-back on the engine.
    pub fn merged(&self, other: &DmsCost) -> DmsCost {
        DmsCost {
            cycles: self.cycles + other.cycles,
            bytes: self.bytes + other.bytes,
            descriptors: self.descriptors + other.descriptors,
        }
    }

    /// The cost of `n` repetitions. A descriptor loop costs its iteration
    /// `n` times over, so the cost of one iteration repeated is
    /// bit-identical to [`DmsEngine::loop_cost`] of the `n`-iteration loop.
    pub fn times(&self, n: usize) -> DmsCost {
        DmsCost {
            cycles: self.cycles * n as f64,
            bytes: self.bytes * n as u64,
            descriptors: self.descriptors * n as u64,
        }
    }
}

/// The DMS timing engine. Stateless: all state lives in the cost model.
#[derive(Debug, Clone)]
pub struct DmsEngine {
    cm: CostModel,
}

impl DmsEngine {
    /// Engine with the given calibration.
    pub fn new(cm: CostModel) -> Self {
        DmsEngine { cm }
    }

    /// The calibration in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cm
    }

    /// Page-open overhead per buffer for a loop interleaving `streams`
    /// column streams.
    fn page_open_cycles(&self, streams: usize) -> f64 {
        let locality_loss = 1.0 + 0.15 * (streams.max(1) as f64).log2();
        self.cm.dram_page_open_cycles * locality_loss
    }

    /// Cycles to execute a single descriptor within a loop of `streams`
    /// interleaved column streams.
    pub fn descriptor_cycles(&self, d: &Descriptor, streams: usize) -> f64 {
        let eff = if d.gather {
            self.cm.dms_bytes_per_cycle() * self.cm.dms_gather_efficiency
        } else {
            self.cm.dms_bytes_per_cycle()
        };
        let wire = d.bytes() as f64 / eff;
        let turnaround = if d.direction == Direction::Write {
            self.cm.rw_turnaround_cycles
        } else {
            0.0
        };
        wire + self.cm.dms_descriptor_setup_cycles + self.page_open_cycles(streams) + turnaround
    }

    /// Total engine cost of a descriptor loop.
    pub fn loop_cost(&self, l: &DescriptorLoop) -> DmsCost {
        self.chain_cost(l.descriptors.iter().copied(), l.iterations)
    }

    /// [`loop_cost`](Self::loop_cost) of the loop that executes the chain
    /// `descriptors` `iterations` times, for callers that describe the
    /// chain without materializing it.
    pub fn chain_cost(
        &self,
        descriptors: impl ExactSizeIterator<Item = Descriptor> + Clone,
        iterations: usize,
    ) -> DmsCost {
        let streams = descriptors.len();
        let per_iter: f64 = descriptors
            .clone()
            .map(|d| self.descriptor_cycles(&d, streams))
            .sum();
        DmsCost {
            cycles: per_iter * iterations as f64,
            bytes: descriptors.map(|d| d.bytes()).sum::<u64>() * iterations as u64,
            descriptors: (streams * iterations) as u64,
        }
    }

    /// Cost of streaming `rows_total` rows of `cols` columns (each `width`
    /// bytes) from DRAM into DMEM in tiles of `tile` rows.
    pub fn sequential_read(
        &self,
        cols: usize,
        width: usize,
        rows_total: usize,
        tile: usize,
    ) -> DmsCost {
        self.loop_cost(&DescriptorLoop::sequential_read(
            cols, width, rows_total, tile,
        ))
    }

    /// Cost of a streaming read-transform-write of the same shape.
    pub fn sequential_read_write(
        &self,
        cols: usize,
        width: usize,
        rows_total: usize,
        tile: usize,
    ) -> DmsCost {
        self.loop_cost(&DescriptorLoop::sequential_read_write(
            cols, width, rows_total, tile,
        ))
    }

    /// Cost of gathering `rows` selected rows of one `width`-byte column via
    /// a RID-list or bit-vector (Figure: filter's subsequent predicates).
    pub fn gather(&self, cols: usize, width: usize, rows: usize, tile: usize) -> DmsCost {
        self.selective(Direction::Read, cols, width, rows, tile)
    }

    /// Cost of scattering `rows` rows of one `width`-byte column to DRAM via
    /// a RID-list (materialization of partitioned output).
    pub fn scatter(&self, cols: usize, width: usize, rows: usize, tile: usize) -> DmsCost {
        self.selective(Direction::Write, cols, width, rows, tile)
    }

    /// A loop of `cols` row-set-driven descriptors over `rows` rows.
    fn selective(
        &self,
        direction: Direction,
        cols: usize,
        width: usize,
        rows: usize,
        tile: usize,
    ) -> DmsCost {
        let tile = tile.max(1);
        let descriptor = Descriptor {
            direction,
            rows: tile,
            width,
            gather: true,
        };
        self.chain_cost((0..cols).map(|_| descriptor), rows.div_ceil(tile))
    }
}

impl Default for DmsEngine {
    fn default() -> Self {
        DmsEngine::new(CostModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{rates, Cycles};

    fn eff_gibps(cost: &DmsCost) -> f64 {
        let cm = CostModel::default();
        rates::gib_per_sec(cost.bytes, Cycles(cost.cycles).to_time(cm.freq_hz))
    }

    #[test]
    fn calibration_fig9_read_128_rows_4_cols_hits_9_gibps_band() {
        // Paper (Fig 9): DMS achieves >= ~9 GiB/s-class bandwidth for the
        // 128-row, 4x4-byte operating point, ~75 % of peak DDR3.
        let e = DmsEngine::default();
        let c = e.sequential_read(4, 4, 1 << 22, 128);
        let bw = eff_gibps(&c);
        assert!((8.3..10.5).contains(&bw), "streaming read bw = {bw} GiB/s");
    }

    #[test]
    fn calibration_fig9_small_tiles_pay_setup() {
        // 64-row tiles amortize setup worse than 128-row tiles (64_rw vs
        // 128_rw in Fig 9).
        let e = DmsEngine::default();
        let b64 = eff_gibps(&e.sequential_read_write(4, 4, 1 << 22, 64));
        let b128 = eff_gibps(&e.sequential_read_write(4, 4, 1 << 22, 128));
        let b256 = eff_gibps(&e.sequential_read_write(4, 4, 1 << 22, 256));
        assert!(b64 < b128 && b128 < b256, "{b64} < {b128} < {b256}");
    }

    #[test]
    fn calibration_fig9_more_columns_slightly_slower() {
        let e = DmsEngine::default();
        let b2 = eff_gibps(&e.sequential_read(2, 4, 1 << 22, 128));
        let b32 = eff_gibps(&e.sequential_read(32, 4, 1 << 22, 128));
        assert!(b32 < b2, "expected mild degradation: {b32} !< {b2}");
        // ... but only mild: within 15 %.
        assert!(b32 > b2 * 0.85, "degradation too steep: {b32} vs {b2}");
    }

    #[test]
    fn calibration_fig9_rw_close_to_but_below_read() {
        let e = DmsEngine::default();
        let r = eff_gibps(&e.sequential_read(4, 4, 1 << 22, 128));
        let rw = eff_gibps(&e.sequential_read_write(4, 4, 1 << 22, 128));
        assert!(rw < r, "rw {rw} should be below r {r}");
        assert!(rw > r * 0.9, "rw should be close to r: {rw} vs {r}");
    }

    #[test]
    fn gathers_are_slower_than_streams() {
        let e = DmsEngine::default();
        let s = e.sequential_read(1, 4, 1 << 20, 128);
        let g = e.gather(1, 4, 1 << 20, 128);
        assert!(g.cycles > s.cycles * 1.5);
        assert_eq!(g.bytes, s.bytes);
    }

    #[test]
    fn cost_merge_adds_components() {
        let e = DmsEngine::default();
        let a = e.sequential_read(1, 4, 1000, 128);
        let b = e.sequential_read(1, 4, 2000, 128);
        let m = a.merged(&b);
        assert!((m.cycles - (a.cycles + b.cycles)).abs() < 1e-9);
        assert_eq!(m.bytes, a.bytes + b.bytes);
        assert_eq!(m.descriptors, a.descriptors + b.descriptors);
    }

    #[test]
    fn one_iteration_repeated_is_the_loop_bit_for_bit() {
        let e = DmsEngine::default();
        let one = e.loop_cost(&DescriptorLoop::sequential_read_write(3, 8, 100, 100));
        for n in [0usize, 1, 7, 468, 100_003] {
            let whole = e.loop_cost(&DescriptorLoop::sequential_read_write(3, 8, n * 100, 100));
            let repeated = one.times(n);
            assert_eq!(repeated.cycles.to_bits(), whole.cycles.to_bits(), "n = {n}");
            assert_eq!(repeated, whole);
        }
    }
}
