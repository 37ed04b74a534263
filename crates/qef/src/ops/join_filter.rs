//! Join filters: a probe row that cannot match is dropped before it is
//! partitioned or probed — and before its scan reads it past its keys.
//!
//! A partitioned join (§6) partitions both inputs fully before it builds
//! and probes partition by partition, so every probe row is hashed,
//! gathered, written to DRAM, read back and probed whether or not a build
//! row could match it; a broadcast join probes every row its lanes hold.
//! Where the compiler's estimate says most probe rows miss, the join
//! declares a **join filter** (`PlanNode::HashJoin::filter`, its size in
//! bits): a bit array over the CRC32 hashes of the build side's keys, one
//! bit a hash (a Bloom filter of one hash function).
//!
//! * **Built** over the build side's keys; a NULL key sets no bit: it joins
//!   nothing. On a partitioned join a `join.filter` stage runs after the
//!   build side's pass: a lane takes one round-one partition, reads its
//!   keys, hashes them and sets their bits in that partition's **slice** of
//!   the array — the slice a row's round-one partition bits pick ([`place`])
//!   — and writes the slice out ([`build_slice`]). Lanes set bits in
//!   disjoint slices, so nothing merges them. A broadcast join's filter is
//!   one slice ([`slices`]), built where its table is: every lane of its
//!   `join.probe` reads the whole build side and hashes every key to build
//!   the table, and sets the bits of a copy from those hashes, in the DMEM
//!   its stage declares for the filter ([`charge_set`]). The host fills the
//!   words once for all of them ([`JoinFilter::beside_tables`]).
//! * **Tested** once per probe row, by the stage that holds its key first.
//!   Every lane of that stage reads the whole array from DRAM once where a
//!   `join.filter` stage wrote it ([`JoinFilter::charge_read`]); a
//!   broadcast join's lanes hold their copy already. Where the probe side is
//!   a scan-fed task whose scan takes the gather path, the scan tests it in
//!   its **key pass**
//!   ([`crate::ops::filter::KeyTest`]): it reads the key columns, hashes and
//!   tests them, and gathers its other columns only at the rows whose bit is
//!   set. Otherwise — the scan streams, or the probe side arrives in batches
//!   — round one of a partitioned probe side tests every row's hash, the one
//!   it computes anyway, before Listing 2's map
//!   ([`crate::ops::partition::RoundStep`]), and a broadcast join's probe
//!   tests it before it probes (`ops::join::Broadcast::lane`). Only the
//!   rows whose bit is set are mapped, gathered, written and probed. A row
//!   whose bit is set may still match nothing (a false positive); a row
//!   whose bit is clear matches no build row, so the join's result is the
//!   unfiltered one. An anti or outer join keeps the rows that match
//!   nothing, and never has a filter ([`check`]).
//!
//! Its size comes from one function, [`size_bits`]: [`BITS_PER_KEY`] bits an
//! estimated build key, rounded up to a power of two and capped at the room
//! the probe side's first stage leaves at the tile it runs at without one
//! (`crate::stages::probe_room`). The array is state the probe stage declares
//! (`crate::stages::first_stage`), so engine, task tile and verifier size the
//! task with it. The share of probe rows it keeps is [`kept_fraction`] —
//! the compiler's estimate of a filtered join prices it, and the engine's
//! scan weighs its key pass by it ([`JoinFilter::kept_share`]) — and what a
//! probe lane pays to read one a `join.filter` stage wrote [`read_cost`].

use dpu_sim::account::Kernel;
use dpu_sim::dms::engine::DmsCost;
use dpu_sim::isa::CostModel;
use rapid_storage::vector::Vector;

use crate::batch::{Batch, Positions, Run};
use crate::error::{QefError, QefResult};
use crate::exec::CoreCtx;
use crate::plan::JoinType;
use crate::primitives::costs;
use crate::primitives::hash::{crc_pieces_into, hash_pieces_into};
use crate::ra::RelationAccessor;

/// Bits a filter spends on each estimated build key, before its size is
/// rounded up to a power of two: 8 to 16 bits a key, so that with one hash
/// function a probe row that matches nothing still passes with a chance of
/// 1 − e^(−keys/bits), 6 to 12 %.
pub const BITS_PER_KEY: usize = 8;

/// The least bits of a slice: a 64-bit word for each round-one partition.
pub const MIN_SLICE_BITS: usize = 64;

/// Bytes a word of the filter takes.
const WORD_BYTES: usize = std::mem::size_of::<u64>();

/// Bytes of a filter of `bits` bits.
pub fn bytes(bits: usize) -> usize {
    bits / 8
}

/// The slices of a filter on a join of `scheme`: one for each of round
/// one's partitions, and one for a broadcast join, which partitions nothing.
pub fn slices(scheme: &[usize]) -> usize {
    scheme.first().copied().unwrap_or(1)
}

/// Whether a filter of `bits` bits may run on a join of `join_type` over
/// `scheme`: a join that keeps only the probe rows that match (inner or
/// semi), partitioned or broadcast, of a power of two of at least
/// [`MIN_SLICE_BITS`] bits a slice ([`slices`]). `Err` says why not. The
/// engine refuses such a plan with it and the verifier reports it
/// (S-JOIN-FILTER).
pub fn check(bits: usize, join_type: JoinType, scheme: &[usize]) -> Result<(), String> {
    if !matches!(join_type, JoinType::Inner | JoinType::LeftSemi) {
        let shape = if scheme.is_empty() {
            "broadcast"
        } else {
            "partitioned"
        };
        return Err(format!(
            "a {shape} {join_type:?} join keeps probe rows that match nothing: it has no join \
             filter"
        ));
    }
    let slices = slices(scheme);
    let least = slices.saturating_mul(MIN_SLICE_BITS);
    if !bits.is_power_of_two() || bits < least || bits > 1 << 32 {
        return Err(format!(
            "a join filter of {bits} bits is not a power of two of {least} bits or more \
             (a {MIN_SLICE_BITS}-bit word for each of its {slices} slices) up to 2^32"
        ));
    }
    Ok(())
}

/// The size of the filter a join of `build_rows` estimated build rows, its
/// filter cut into `fanout` slices ([`slices`]), declares where its probe
/// side's first stage has `room_bytes` to hold it: [`BITS_PER_KEY`] bits a
/// row, rounded up to a power of two and to a word a slice, at most what
/// fits the room. `None` where not even a word a slice fits.
pub fn size_bits(build_rows: f64, fanout: usize, room_bytes: usize) -> Option<usize> {
    let wanted = (build_rows.max(1.0) * BITS_PER_KEY as f64).ceil() as usize;
    // The largest power of two that fits the room.
    let room = 1usize << room_bytes.checked_mul(8)?.checked_ilog2()?.min(32);
    let least = fanout.max(1) * MIN_SLICE_BITS;
    let bits = wanted.next_power_of_two().max(least).min(room);
    (bits >= least).then_some(bits)
}

/// The share of probe rows a filter of `bits` bits over `build_rows` keys
/// keeps, where a share `matching` of them matches a build row: those, and
/// of the rest the ones whose bit another key set, 1 − e^(−keys/bits) of
/// them.
pub fn kept_fraction(matching: f64, build_rows: f64, bits: usize) -> f64 {
    let matching = matching.clamp(0.0, 1.0);
    let false_positive = 1.0 - (-build_rows.max(0.0) / bits.max(1) as f64).exp();
    matching + (1.0 - matching) * false_positive
}

/// What a lane of the probe side's task pays to read a filter of `bits`
/// bits a `join.filter` stage wrote to DRAM: its words in one descriptor.
pub fn read_cost(cm: &CostModel, bits: usize) -> DmsCost {
    let words = bits / 64;
    RelationAccessor::seq_read_cost(cm, [WORD_BYTES].into_iter(), words, words)
}

/// The bit `hash` sets or tests in a filter whose round-one partitions are
/// `fanout` slices of `slice_bits` bits: the slice its round-one bits pick
/// (the low bits, which round one partitions by), and within it the place
/// [`within`] picks.
pub fn place(hash: u32, fanout: usize, slice_bits: usize) -> usize {
    let partition = hash as usize & (fanout - 1);
    partition * slice_bits + within(hash, slice_bits)
}

/// The place `hash` picks within a slice of `slice_bits` bits: the top bits
/// of the hash plus itself shifted up 16 bits. CRC32 is linear over GF(2),
/// so any fixed choice of its bits maps keys of a regular pattern —
/// consecutive, or a stride apart, as key columns hold them — onto a few
/// places: measured on consecutive keys, 46 % of the probe rows that matched
/// nothing passed a filter of 9 % expected false positives. The addition's
/// carries are not linear, and mix the low bits into the top ones: a shift
/// and an add, the multiply by 2^16 + 1 without the multiplier.
fn within(hash: u32, slice_bits: usize) -> usize {
    match slice_bits.trailing_zeros() {
        0 => 0,
        bits => (hash.wrapping_add(hash << 16) >> (32 - bits)) as usize,
    }
}

/// A built join filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinFilter {
    words: Vec<u64>,
    /// Round one's fan-out: the slices.
    fanout: usize,
    /// The build rows whose keys set its bits.
    build_rows: usize,
    /// Where it lives: in DRAM, where a `join.filter` stage wrote it and
    /// every lane that tests it reads it; or else in the DMEM of each lane
    /// of a broadcast join's probe, which set the bits of its copy itself.
    in_dram: bool,
}

impl JoinFilter {
    /// The filter whose `words` the `join.filter` stage's lanes filled over
    /// `build_rows` build rows, a slice of them for each of the `fanout`
    /// slices ([`slices`]), in partition order, and wrote to DRAM.
    pub fn of_slices(words: Vec<u64>, fanout: usize, build_rows: usize) -> JoinFilter {
        JoinFilter {
            words,
            fanout,
            build_rows,
            in_dram: true,
        }
    }

    /// A broadcast join's filter of `bits` bits, one slice, over the `keys`
    /// of `build`, its concatenated build side: the copy every lane of its
    /// `join.probe` builds beside its table, from the hashes the table's
    /// build computes, and is charged for ([`charge_set`]). The host fills
    /// the words once for all of them, and charges nothing.
    pub fn beside_tables(build: &Batch, keys: &[usize], bits: usize) -> QefResult<JoinFilter> {
        let rows = build.rows();
        let mut words = vec![0; bits / 64];
        if rows > 0 {
            if keys.iter().any(|&k| k >= build.width()) {
                let why = "join key out of the build side's columns";
                return Err(QefError::BadPlan(why.into()));
            }
            let all = Positions::dense(0, rows);
            let keys = keys.iter().map(|&k| (build.column(k), all));
            let mut hashes = vec![0; rows];
            crc_pieces_into(std::iter::once(keys.clone()), &mut hashes);
            set_bits(&mut words, keys, &hashes);
        }
        Ok(JoinFilter {
            words,
            fanout: 1,
            build_rows: rows,
            in_dram: false,
        })
    }

    /// Its size in bits.
    pub fn bits(&self) -> usize {
        self.words.len() * 64
    }

    /// The share of the rows of a probe side whose keys take `probe_ndv`
    /// distinct values that the filter keeps ([`kept_fraction`]): a build
    /// row matches at most build rows ÷ `probe_ndv` of them.
    pub fn kept_share(&self, probe_ndv: f64) -> f64 {
        let build_rows = self.build_rows as f64;
        kept_fraction(build_rows / probe_ndv.max(1.0), build_rows, self.bits())
    }

    /// Whether a row of this hash may match a build row: its bit is set.
    pub fn may_match(&self, hash: u32) -> bool {
        let bit = place(hash, self.fanout, self.bits() / self.fanout);
        self.words[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Whether every lane that tests rows against the filter reads it from
    /// DRAM ([`JoinFilter::charge_read`]): a partitioned join's, which a
    /// `join.filter` stage wrote.
    pub fn in_dram(&self) -> bool {
        self.in_dram
    }

    /// Charge one lane's read of the whole filter from DRAM, where a
    /// `join.filter` stage wrote it. A lane that holds its own copy reads
    /// nothing.
    pub fn charge_read(&self, ctx: &mut CoreCtx) {
        if self.in_dram {
            let cm = ctx.cost_model.clone();
            ctx.charge_dms(&read_cost(&cm, self.bits()));
        }
    }

    /// Charge the test of `rows` rows' hashes.
    pub(crate) fn charge_test(&self, ctx: &mut CoreCtx, rows: usize) {
        ctx.charge_kernel(
            Kernel::Join,
            &costs::join_filter_test_per_row().scaled(rows as f64),
        );
    }

    /// Test every row of `hashes` and move the hashes of the rows that pass
    /// to the front, in order, their places in `hashes` to the front of
    /// `ids`; returns how many passed. Charges a test a row.
    pub(crate) fn keep(&self, ctx: &mut CoreCtx, hashes: &mut [u32], ids: &mut [u32]) -> usize {
        let mut kept = 0;
        for i in 0..hashes.len() {
            let hash = hashes[i];
            if self.may_match(hash) {
                (hashes[kept], ids[kept]) = (hash, i as u32);
                kept += 1;
            }
        }
        self.charge_test(ctx, hashes.len());
        kept
    }
}

/// Set in `slice` — one slice of a filter — the bit of each row whose
/// hash is in `hashes` and whose `keys` (each with where the rows lie in
/// it) hold no NULL: the bit setting both builders share.
fn set_bits<'v>(
    slice: &mut [u64],
    keys: impl Iterator<Item = (&'v Vector, Positions<'v>)> + Clone,
    hashes: &[u32],
) {
    let slice_bits = slice.len() * 64;
    for (r, &hash) in hashes.iter().enumerate() {
        if keys.clone().any(|(c, at)| c.is_null(at.get(r))) {
            continue;
        }
        let bit = within(hash, slice_bits);
        slice[bit / 64] |= 1 << (bit % 64);
    }
}

/// Charge the setting of `rows` build rows' bits, from hashes computed
/// already.
pub(crate) fn charge_set(ctx: &mut CoreCtx, rows: usize) {
    ctx.charge_kernel(
        Kernel::Join,
        &costs::join_filter_set_per_row().scaled(rows as f64),
    );
}

/// One lane of a partitioned join's `join.filter` stage: `slice`, the
/// words of the round-one partition whose final partitions are the rows of
/// `parts`, built over their `keys` (stored `widths` bytes each) at `tile`
/// rows a tile. Charges the read of the keys from DRAM, their hashes, a bit
/// set a row, a trip round the control loop a tile and the write of the
/// slice.
pub fn build_slice<'b>(
    ctx: &mut CoreCtx,
    parts: impl IntoIterator<Item = Run<'b>>,
    keys: &[usize],
    widths: &[usize],
    slice: &mut [u64],
    tile: usize,
) -> QefResult<()> {
    let slice_bits = slice.len() * 64;
    if keys.is_empty() || slice_bits < MIN_SLICE_BITS || !slice_bits.is_power_of_two() {
        return Err(QefError::BadPlan(format!(
            "a join filter slice of {slice_bits} bits over {} keys",
            keys.len()
        )));
    }
    let cm = ctx.cost_model.clone();
    // The hashes of a run of rows at a time, on the stack.
    let mut hashes = [0u32; 256];
    for part in parts.into_iter().filter(|run| !run.is_empty()) {
        let (rows, first) = (part.len(), part.rows.start);
        ctx.charge_dms(&RelationAccessor::seq_read_cost(
            &cm,
            widths.iter().copied(),
            rows,
            tile,
        ));
        for at in (0..rows).step_by(hashes.len()) {
            let run = &mut hashes[..(rows - at).min(256)];
            let of_run = Positions::dense(first + at, run.len());
            let columns = keys.iter().map(|&k| (part.cols.column(k), of_run));
            hash_pieces_into(ctx, std::iter::once(columns.clone()), run);
            // Round one sent the rows to this slice's partition.
            set_bits(slice, columns, run);
        }
        charge_set(ctx, rows);
        for _ in 0..rows.div_ceil(tile.max(1)) {
            ctx.charge_tile();
        }
    }
    let words = slice.len();
    ctx.charge_dms(&RelationAccessor::seq_write_cost(
        &cm,
        [WORD_BYTES].into_iter(),
        words,
        words,
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::exec::ExecContext;
    use rapid_storage::bitvec::BitVec;
    use rapid_storage::vector::{ColumnData, Vector};

    #[test]
    fn only_an_inner_or_semi_join_has_a_filter_of_a_word_a_slice() {
        assert_eq!(check(2048, JoinType::Inner, &[32]), Ok(()));
        assert_eq!(check(4096, JoinType::LeftSemi, &[8, 4]), Ok(()));
        // A broadcast join's filter is one slice.
        assert_eq!(check(64, JoinType::Inner, &[]), Ok(()));
        assert_eq!(check(4096, JoinType::LeftSemi, &[]), Ok(()));
        assert!(check(32, JoinType::Inner, &[]).is_err(), "half a word");
        for join_type in [JoinType::LeftAnti, JoinType::LeftOuter] {
            for scheme in [&[32][..], &[]] {
                let why = check(2048, join_type, scheme).unwrap_err();
                assert!(why.contains("match nothing"), "{why}");
            }
        }
        assert!(
            check(3000, JoinType::Inner, &[32]).is_err(),
            "not a power of two"
        );
        assert!(
            check(1024, JoinType::Inner, &[32]).is_err(),
            "half a word a slice"
        );
    }

    #[test]
    fn a_filter_takes_eight_to_sixteen_bits_a_key_in_the_room_it_has() {
        // 3101 keys: 24,808 bits, rounded up.
        assert_eq!(size_bits(3101.0, 32, 24_960), Some(32_768));
        // Capped at the largest power of two the room holds.
        assert_eq!(size_bits(3101.0, 32, 3000), Some(16_384));
        // At least a word a partition, and none where that does not fit.
        assert_eq!(size_bits(5.0, 32, 1000), Some(2048));
        assert_eq!(size_bits(5.0, 32, 255), None);
        assert_eq!(size_bits(5.0, 32, 0), None);
        // A broadcast join's one slice needs a word.
        assert_eq!(size_bits(5.0, 1, 8), Some(64));
        assert_eq!(size_bits(5.0, 1, 7), None);
        // The false positives of a filter of 8 bits a key.
        let kept = kept_fraction(0.0, 4096.0, 32_768);
        assert!((kept - (1.0 - (-0.125f64).exp())).abs() < 1e-12, "{kept}");
        assert_eq!(kept_fraction(1.0, 4096.0, 32_768), 1.0);
        let read = read_cost(&dpu_sim::isa::CostModel::default(), 32_768);
        assert_eq!((read.bytes, read.descriptors), (4096, 1));
    }

    /// A filter over `keys`, built as round one's `fanout` lanes build it.
    fn filter_of(keys: &[i64], bits: usize, fanout: usize) -> JoinFilter {
        let mut ctx = CoreCtx::new(&ExecContext::dpu(), 0);
        let hash = |k: i64| dpu_sim::crc32::hash_u64(k as u64);
        let mut words = vec![0; bits / 64];
        for (p, slice) in words.chunks_mut(bits / 64 / fanout).enumerate() {
            let of_p: Vec<i64> = keys
                .iter()
                .copied()
                .filter(|&k| hash(k) as usize % fanout == p)
                .collect();
            let part = Batch::new(vec![Vector::new(ColumnData::I64(of_p))]);
            build_slice(&mut ctx, [Run::of_batch(&part)], &[0], &[8], slice, 256).unwrap();
        }
        JoinFilter::of_slices(words, fanout, keys.len())
    }

    #[test]
    fn every_build_key_passes_and_few_others_do() {
        // Keys a stride apart, as key columns hold them: the pattern a
        // fixed choice of CRC bits maps onto few places.
        let keys: Vec<i64> = (0..3000).map(|i| 4 * i).collect();
        let filter = filter_of(&keys, 32_768, 32);
        assert_eq!(filter.bits(), 32_768);
        let hash = |k: i64| dpu_sim::crc32::hash_u64(k as u64);
        assert!(keys.iter().all(|&k| filter.may_match(hash(k))));
        let others = (0..20_000).map(|i| 4 * (3000 + i) + i % 4);
        let passed = others.filter(|&k| filter.may_match(hash(k))).count();
        let expected = 20_000.0 * kept_fraction(0.0, 3000.0, 32_768);
        assert!(
            (passed as f64) < 1.25 * expected,
            "{passed} of 20000 passed, {expected:.0} expected"
        );
    }

    #[test]
    fn a_lane_sets_the_bits_of_its_slice_and_charges_what_it_moved() {
        let e = ExecContext::dpu();
        let mut ctx = CoreCtx::new(&e, 0);
        // 300 keys stored in 2 bytes, one of them NULL.
        let mut nulls = BitVec::zeros(300);
        nulls.set(7, true);
        let keys = Vector::with_nulls(ColumnData::I16((0..300).collect()), nulls);
        let part = Batch::new(vec![keys]);
        let mut slice = [0; 16];
        build_slice(
            &mut ctx,
            [Run::of_batch(&part)],
            &[0],
            &[2],
            &mut slice,
            256,
        )
        .unwrap();
        let set: u32 = slice.iter().map(|w| w.count_ones()).sum();
        assert!((250..300).contains(&set), "{set} bits for 299 keys");
        let c = ctx.account.counters();
        // The keys read (two tiles of 2 bytes a row), the slice written.
        assert_eq!(c.dms_bytes, 300 * 2 + 1024 / 8);
        assert_eq!(c.tiles, 2);
        let cm = &e.cost_model;
        let compute = cm.kernel_cycles(&costs::hash_per_row_per_key()) * 300.0
            + cm.kernel_cycles(&costs::join_filter_set_per_row()) * 300.0
            + 2.0 * cm.per_tile_overhead_cycles;
        assert!((ctx.account.compute_cycles().get() - compute).abs() < 1e-6);
        // A slice of three words is no power of two of bits, and a join
        // has keys.
        let bad = build_slice(&mut ctx, [], &[0], &[2], &mut [0; 3], 256);
        assert!(matches!(bad, Err(QefError::BadPlan(_))));
        let bad = build_slice(&mut ctx, [], &[], &[], &mut [0; 1], 256);
        assert!(matches!(bad, Err(QefError::BadPlan(_))));
    }

    #[test]
    fn the_host_fills_a_broadcast_filter_as_a_lane_sets_its_bits_and_no_lane_reads_it() {
        let e = ExecContext::dpu();
        // 300 keys stored in 2 bytes, one of them NULL.
        let mut nulls = BitVec::zeros(300);
        nulls.set(7, true);
        let keys = Vector::with_nulls(ColumnData::I16((0..300).collect()), nulls);
        let build = Batch::new(vec![keys]);
        let mut slice = [0; 16];
        let part = [Run::of_batch(&build)];
        build_slice(&mut CoreCtx::new(&e, 0), part, &[0], &[2], &mut slice, 256).unwrap();
        let filter = JoinFilter::beside_tables(&build, &[0], 1024).unwrap();
        assert_eq!(filter.words, slice);
        assert_eq!(filter.build_rows, 300);
        let mut ctx = CoreCtx::new(&e, 0);
        filter.charge_read(&mut ctx);
        assert_eq!(
            ctx.account.counters(),
            CoreCtx::new(&e, 0).account.counters()
        );
        // A slice a `join.filter` lane wrote is read whole.
        JoinFilter::of_slices(slice.to_vec(), 1, 300).charge_read(&mut ctx);
        assert_eq!(ctx.account.counters().dms_bytes, 128);
        // No build row sets no bit, and a key the build side lacks is a bad
        // plan.
        let empty = JoinFilter::beside_tables(&Batch::empty(0), &[0], 64).unwrap();
        assert_eq!(empty.words, [0]);
        let bad = JoinFilter::beside_tables(&build, &[1], 64);
        assert!(matches!(bad, Err(QefError::BadPlan(_))));
    }
}

#[cfg(test)]
mod proptests {
    //! A filtered join against the join of the same plan with no filter:
    //! the same batches, for inner and semi joins, partitioned (one round or
    //! two) or broadcast, over NULL keys, one key or two, an empty build
    //! side, keys stored at different widths on the two sides, and a probe
    //! side in its scan's task — on three lanes across chunks or one over
    //! runs of several, with a predicate pass before the key pass or none,
    //! its keys mostly missing the build side's or not but holding every
    //! build row's among them; the scan gathers and tests them in a key
    //! pass, or streams and the stage tests them — or over batches. Each
    //! probe row is tested once, by the stage that holds its key first, and
    //! only a partitioned join has a `join.filter` stage.

    use std::sync::Arc;

    use proptest::prelude::*;
    use rapid_storage::schema::{Field, Schema};
    use rapid_storage::table::TableBuilder;
    use rapid_storage::types::{DataType, Value};

    use crate::engine::Engine;
    use crate::exec::ExecContext;
    use crate::expr::Pred;
    use crate::plan::{JoinType, PlanNode};
    use crate::primitives::filter::CmpOp;
    use crate::trace::MemorySink;

    /// A row: two keys (either may be NULL) and a payload.
    type Row = (Option<i64>, Option<i64>, i64);

    fn table(name: &str, rows: &[Row], chunk_rows: usize) -> Arc<rapid_storage::table::Table> {
        let schema = Schema::new(vec![
            Field::nullable("k1", DataType::Int),
            Field::nullable("k2", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        let mut b = TableBuilder::new(name, schema).chunk_rows(chunk_rows);
        let value = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        for &(k1, k2, v) in rows {
            b.push_row(vec![value(k1), value(k2), Value::Int(v)]);
        }
        Arc::new(b.finish())
    }

    /// Up to `n` rows, keys drawn from `keys` and NULL a quarter of the time.
    fn rows(keys: std::ops::Range<i64>, n: usize) -> impl Strategy<Value = Vec<Row>> {
        let key = move || proptest::option::of(keys.clone());
        proptest::collection::vec((key(), key(), any::<i32>().prop_map(i64::from)), 0..n)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96 })]
        #[test]
        fn a_filtered_join_keeps_every_row_that_joins(
            // Build keys stored in 1 byte, probe keys in 2 — or, spread
            // over a wide range, in 4: the filter is built from one width
            // and tested at the other.
            build in rows(0..120, 300),
            probe in rows(-400..400, 900),
            flags in 0u32..1024,
        ) {
            let (mut build, mut probe) = (build, probe);
            let flag = |bit: u32| flags >> bit & 1 == 1;
            let (semi, two_keys, empty_build) = (flag(0), flag(1), flag(2));
            let (over_batches, two_rounds, wide) = (flag(3), flag(4), flag(5));
            let (broadcast, predicated, sparse) = (flag(6), flag(7), flag(8));
            // Three lanes across chunks of 128 rows, or one lane over runs
            // of 512: on one core, where compute is the stage, the scan
            // tends to gather.
            let (cores, chunk_rows) = if flag(9) { (3, 128) } else { (1, 512) };
            if sparse {
                // Few build keys, and probe keys that mostly miss them.
                build.truncate(30);
                let spread = |k: &mut Option<i64>| *k = k.map(|k| k * 2503);
                probe.iter_mut().for_each(|(k1, k2, _)| {
                    spread(k1);
                    spread(k2);
                });
            }
            // The probe side holds every build row's keys too: a build key
            // whose bit a filter lacks drops a probe row that joins.
            probe.extend(build.iter().copied());
            let engine = {
                let mut e = Engine::new(ExecContext::dpu().with_cores(cores));
                e.load_table(table("b", &build, 128));
                e.load_table(table("p", &probe, chunk_rows));
                e
            };
            let scan = |table: &str, pred| PlanNode::Scan {
                table: table.into(),
                columns: vec![0, 1, 2],
                pred,
            };
            // A predicate on the payload: a pass before the key pass.
            let kept_by_pred = predicated.then_some(Pred::CmpConst {
                col: 2,
                op: CmpOp::Ge,
                value: 0,
            });
            let probe_scan = scan("p", kept_by_pred);
            let probe_side = match over_batches {
                false => probe_scan,
                true => PlanNode::Limit {
                    input: Box::new(probe_scan),
                    n: usize::MAX,
                },
            };
            let keys = if two_keys { vec![0, 1] } else { vec![0] };
            let scheme = match (broadcast, two_rounds) {
                (true, _) => vec![],
                (false, false) => vec![4],
                (false, true) => vec![4, 2],
            };
            let join = |filter| PlanNode::HashJoin {
                build: Box::new(scan("b", empty_build.then_some(Pred::Const(false)))),
                probe: Box::new(probe_side.clone()),
                build_keys: keys.clone(),
                probe_keys: keys.clone(),
                join_type: if semi { JoinType::LeftSemi } else { JoinType::Inner },
                scheme: scheme.clone(),
                filter,
                ranged: crate::plan::ByRange::Neither,
                output: if semi { (0..3).collect() } else { (0..6).collect() },
            };
            let bits = match (wide, broadcast) {
                (true, _) => 1 << 12,
                (false, false) => 4 * 64,
                (false, true) => 64,
            };
            let (plain, _) = engine.execute(&join(None)).unwrap();
            let sink = MemorySink::new();
            let traced = engine.fork(ExecContext::dpu().with_cores(cores).with_trace(sink.clone()));
            let (filtered, _) = traced.execute(&join(Some(bits))).unwrap();
            prop_assert_eq!(&filtered.batch, &plain.batch);
            let events = sink.take();
            // A partitioned join's filter is built by a stage of its own;
            // a broadcast join's lanes build theirs beside their tables.
            let built = events.iter().filter(|e| e.operator == "join.filter");
            prop_assert_eq!(built.count(), usize::from(!broadcast));
            // One stage tests each row: the probe's scan in a key pass, or
            // else round one of the probe side or the broadcast probe.
            let tested: Vec<_> = events.iter().filter(|e| e.filter.is_some()).collect();
            prop_assert_eq!(tested.len(), 1, "{:?}", tested);
            let (stage, filter) = (tested[0], tested[0].filter.expect("tested"));
            let probes = if broadcast { "join.probe" } else { "join.partition-probe" };
            prop_assert_eq!(&stage.operator, probes);
            prop_assert!(filter.kept <= filter.tested);
            // The rows that entered the test are the ones the probe's
            // predicate kept, whoever tested them.
            let entering = probe.iter().filter(|row| !predicated || row.2 >= 0).count();
            prop_assert_eq!(filter.tested as usize, entering);
            let keyed = stage.scan.is_some_and(|s| s.keyed);
            prop_assert!(!(keyed && over_batches), "a stage over batches has no scan");
            if let (Some(scan), false) = (stage.scan, over_batches) {
                // The scan hands on what its predicate kept, as ever.
                prop_assert_eq!(stage.fused.last().map(|op| op.rows), Some(filter.tested));
                prop_assert_eq!(scan.passes as usize, match (keyed, predicated) {
                    (false, _) => scan.passes as usize,
                    (true, p) => usize::from(p) + 2,
                });
            }
        }
    }
}
