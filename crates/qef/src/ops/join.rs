//! Hash join (§6): partitioned join with the compact bit-array hash table,
//! DMEM-overflow resilience and skew handling — and, where the whole build
//! side's table fits the state a probe stage declares, the broadcast join
//! ([`Broadcast`]): nothing is partitioned, every lane builds the table and
//! probes its own rows.
//!
//! ## The join kernel (§6.3)
//!
//! The hash table is "bucket-chained, albeit without any memory pointers":
//! a `hash-buckets` array of ⌈log₂(N+1)⌉-bit entries holding the row id of
//! the **last** build tuple that hashed to the bucket, and a `link` array
//! of the same width chaining earlier tuples backwards. A sentinel (N)
//! marks empty buckets / chain ends. Bucket index = CRC32 & mask (the
//! "fast modulo using a bit-mask and a shift").
//!
//! ## Resilience (§6.4)
//!
//! * **Small skew** — the table is sized from the compiler's estimate and
//!   lives in DMEM; when more rows arrive than estimated, the extra rows
//!   *overflow gracefully to DRAM*: a second table segment that is also
//!   probed. Mis-estimates cost a little bandwidth, never correctness.
//! * **Large skew** — when a partition exceeds a configurable factor of
//!   the estimate, the engine re-partitions it on the fly (extra rounds).
//! * **Heavy hitters** — a space-saving sketch detects keys so frequent
//!   that chains degenerate; their rows are joined in a dense broadcast
//!   pass instead (the flow-join technique, the paper's ref 30).
//!
//! ## Probe rows that cannot match (join filters)
//!
//! An inner or semi join whose estimate says most probe rows miss declares
//! a join filter ([`crate::ops::join_filter`]): a bit array over the hashes
//! of the build side's keys. On a partitioned join a `join.filter` stage
//! builds it, round one of the probe side partitions only the rows whose
//! bit is set, and what reaches [`join_partition`] is the probe rows that
//! may match. On a broadcast join each lane of [`Broadcast`] sets the bits
//! of its own copy beside its table, from the hashes the table's build
//! computes, and tests every row's hash — the one it probes with — before it
//! probes: a row whose bit is clear is not probed, and of it only the keys
//! are read.
//! Where the probe's scan gathers, it has tested the rows in its key pass
//! already, and neither stage tests them again. The rest were never
//! gathered, written or probed, and none of them joined, so the join returns
//! what it returns unfiltered.
//!
//! ## What a join writes
//!
//! A join writes the columns its plan lists ([`Output`], the
//! `PlanNode::HashJoin` `output`) of the rows it pairs or keeps, in that
//! order, and no other: a probe reads its keys and the probe columns listed,
//! and gathers the build columns listed.

use dpu_sim::account::Kernel;
use dpu_sim::dmem::DmemReservation;
use rapid_storage::vector::Vector;

use crate::batch::{Batch, Positions, Rows};
use crate::error::{QefError, QefResult};
use crate::exec::CoreCtx;
use crate::ops::join_filter::{self, JoinFilter};
use crate::ops::partition::gather_column;
use crate::plan::JoinType;
use crate::primitives::costs;
use crate::primitives::hash::{bucket_of, crc_pieces_into, hash_pieces_into};
use crate::ra::RelationAccessor;
use crate::util::{next_pow2_at_least, SmallIntArray};

/// Default ratio of hash-buckets to build rows: the paper reduces the
/// bucket array "by 2-4X with respect to number of rows".
pub const BUCKETS_PER_ROW_SHRINK: usize = 2;

/// A partition is "large skew" when its actual size exceeds the estimate
/// by this factor (configurable in §6.4; this is the default).
pub const LARGE_SKEW_FACTOR: usize = 4;

/// A key is a heavy hitter when it makes up more than this fraction of a
/// partition's build rows.
pub const HEAVY_HITTER_FRACTION: f64 = 0.125;

/// One segment of the compact chained table (one in DMEM, one in DRAM for
/// overflow).
#[derive(Debug)]
struct Segment {
    buckets: SmallIntArray,
    link: SmallIntArray,
    /// Key columns of the rows in this segment (column-major).
    keys: Vec<Vec<i64>>,
    /// Original build-row ids.
    rowids: Vec<u32>,
    sentinel: u64,
    mask: usize,
}

impl Segment {
    fn new(capacity: usize, nkeys: usize, shrink: usize) -> Segment {
        let cap = capacity.max(1);
        Self::with_buckets(cap, nkeys, next_pow2_at_least(cap / shrink.max(1), 4))
    }

    fn with_buckets(capacity: usize, nkeys: usize, bucket_count: usize) -> Segment {
        let cap = capacity.max(1);
        let bucket_count = bucket_count.next_power_of_two().max(4);
        let bits = SmallIntArray::bits_for(cap + 1);
        let sentinel = cap as u64;
        let mut buckets = SmallIntArray::new(bucket_count, bits);
        for i in 0..bucket_count {
            buckets.set(i, sentinel);
        }
        Segment {
            buckets,
            link: SmallIntArray::new(cap, bits),
            keys: (0..nkeys).map(|_| Vec::with_capacity(cap)).collect(),
            rowids: Vec::with_capacity(cap),
            sentinel,
            mask: bucket_count - 1,
        }
    }

    fn bytes(&self) -> usize {
        self.buckets.size_bytes() + self.link.size_bytes() + self.keys.len() * self.capacity() * 8
    }

    fn capacity(&self) -> usize {
        self.link.len()
    }

    fn len(&self) -> usize {
        self.rowids.len()
    }

    fn is_full(&self) -> bool {
        self.len() >= self.capacity()
    }

    /// Insert one row; caller guarantees capacity.
    fn insert(&mut self, hash: u32, key: &[i64], rowid: u32) {
        let slot = self.rowids.len();
        let b = bucket_of(hash, self.mask + 1);
        let prev = self.buckets.get(b);
        self.link.set(slot, prev);
        self.buckets.set(b, slot as u64);
        for (kc, &k) in self.keys.iter_mut().zip(key) {
            kc.push(k);
        }
        self.rowids.push(rowid);
    }

    /// Walk the chain for `hash`, calling `on_match` for key-equal rows.
    /// Returns the number of links traversed (for cost accounting).
    fn probe(&self, hash: u32, key: &[i64], mut on_match: impl FnMut(u32)) -> usize {
        let mut links = 0usize;
        let mut slot = self.buckets.get(bucket_of(hash, self.mask + 1));
        while slot != self.sentinel {
            links += 1;
            let s = slot as usize;
            if self.keys.iter().zip(key).all(|(kc, &k)| kc[s] == k) {
                on_match(self.rowids[s]);
            }
            slot = self.link.get(s);
        }
        links
    }
}

/// The DMEM-resilient join hash table over one build partition.
#[derive(Debug)]
pub struct JoinTable {
    /// Primary segment, sized from the estimate, resident in DMEM.
    dmem_seg: Segment,
    /// Overflow segment in DRAM (created lazily on mis-estimates).
    dram_seg: Option<Segment>,
    /// DMEM reservation held for the primary segment's lifetime.
    _dmem_hold: Option<DmemReservation>,
    /// Heavy-hitter keys excluded from the chained table, with their rows
    /// stored densely (flow-join broadcast list).
    heavy: Vec<(Vec<i64>, Vec<u32>)>,
    nkeys: usize,
    build_rows: usize,
}

/// Statistics of one build, for tests and EXPLAIN output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Rows placed in the DMEM segment.
    pub in_dmem: usize,
    /// Rows that overflowed to DRAM.
    pub overflowed: usize,
    /// Rows routed to the heavy-hitter list.
    pub heavy_rows: usize,
    /// Distinct heavy-hitter keys detected.
    pub heavy_keys: usize,
}

impl JoinTable {
    /// Build over a partition's key columns. `estimated_rows` comes from
    /// the compiler; the real row count may exceed it (small skew).
    pub fn build(
        ctx: &mut CoreCtx,
        keys: &[&Vector],
        estimated_rows: usize,
        detect_heavy_hitters: bool,
    ) -> QefResult<(JoinTable, BuildStats)> {
        Self::build_with_buckets(ctx, keys, estimated_rows, detect_heavy_hitters, None)
    }

    /// [`JoinTable::build`] with an explicit hash-buckets array size
    /// (the Figures 11/12 sweep parameter); `None` uses the 2x shrink
    /// default.
    pub fn build_with_buckets(
        ctx: &mut CoreCtx,
        keys: &[&Vector],
        estimated_rows: usize,
        detect_heavy_hitters: bool,
        bucket_count: Option<usize>,
    ) -> QefResult<(JoinTable, BuildStats)> {
        Self::build_into(ctx, keys, detect_heavy_hitters, |ctx, rows, nkeys| {
            let est = estimated_rows.max(1).min(rows.max(1));
            let mut dmem_seg = match bucket_count {
                Some(b) => Segment::with_buckets(est, nkeys, b),
                None => Segment::new(est, nkeys, BUCKETS_PER_ROW_SHRINK),
            };
            // Reserve the primary segment in DMEM; if even the estimate does
            // not fit, shrink until it does and let the rest overflow — the
            // resilient path keeps execution correct regardless.
            let mut hold = ctx.dmem.reserve_raw(dmem_seg.bytes()).ok();
            while hold.is_none() && dmem_seg.capacity() > 64 {
                dmem_seg = Segment::new(dmem_seg.capacity() / 2, nkeys, BUCKETS_PER_ROW_SHRINK);
                hold = ctx.dmem.reserve_raw(dmem_seg.bytes()).ok();
            }
            (dmem_seg, hold)
        })
    }

    /// A broadcast join's table: its DMEM segment holds up to `capacity`
    /// rows in the state the lane's stage already holds — the table makes
    /// no reservation of its own — and the rows past it overflow to DRAM,
    /// charged like any overflow.
    pub fn build_within(
        ctx: &mut CoreCtx,
        keys: &[&Vector],
        capacity: usize,
    ) -> QefResult<(JoinTable, BuildStats)> {
        let built = Self::within_on_host(keys, capacity)?;
        Self::charge_build(ctx, keys.len(), keys[0].len(), &built.1);
        Ok(built)
    }

    /// [`JoinTable::build_within`] on the host, charged to no core: the one
    /// table that stands for the identical tables a stage's lanes build,
    /// each lane charged its own build ([`JoinTable::charge_build`]).
    pub fn within_on_host(keys: &[&Vector], capacity: usize) -> QefResult<(JoinTable, BuildStats)> {
        Self::build_on_host(keys, true, |rows, nkeys| {
            let segment = Segment::new(capacity.min(rows), nkeys, BUCKETS_PER_ROW_SHRINK);
            (segment, None)
        })
    }

    /// Hash the build keys, then fill the DMEM segment `segment` makes for
    /// the rows and keys there are (with the reservation it holds, if any),
    /// overflowing to DRAM; charged as [`JoinTable::charge_build`] charges.
    fn build_into(
        ctx: &mut CoreCtx,
        keys: &[&Vector],
        detect_heavy_hitters: bool,
        segment: impl FnOnce(&mut CoreCtx, usize, usize) -> (Segment, Option<DmemReservation>),
    ) -> QefResult<(JoinTable, BuildStats)> {
        let built = Self::build_on_host(keys, detect_heavy_hitters, |rows, nkeys| {
            segment(ctx, rows, nkeys)
        })?;
        Self::charge_build(ctx, keys.len(), keys[0].len(), &built.1);
        Ok(built)
    }

    /// The work of [`JoinTable::build_into`], charged to no core.
    fn build_on_host(
        keys: &[&Vector],
        detect_heavy_hitters: bool,
        segment: impl FnOnce(usize, usize) -> (Segment, Option<DmemReservation>),
    ) -> QefResult<(JoinTable, BuildStats)> {
        let nkeys = keys.len();
        if nkeys == 0 {
            return Err(QefError::BadPlan("join requires at least one key".into()));
        }
        let rows = keys[0].len();
        let mut hashes = vec![0; rows];
        let all = Positions::dense(0, rows);
        crc_pieces_into(std::iter::once(keys.iter().map(|k| (*k, all))), &mut hashes);

        // Heavy-hitter detection with a space-saving sketch (flow-join).
        let heavy_keys: Vec<Vec<i64>> = if detect_heavy_hitters && rows >= 64 {
            detect_heavy(keys, rows)
        } else {
            Vec::new()
        };

        let (dmem_seg, hold) = segment(rows, nkeys);
        let mut table = JoinTable {
            dmem_seg,
            dram_seg: None,
            _dmem_hold: hold,
            heavy: heavy_keys.into_iter().map(|k| (k, Vec::new())).collect(),
            nkeys,
            build_rows: rows,
        };
        let mut stats = BuildStats {
            heavy_keys: table.heavy.len(),
            ..BuildStats::default()
        };

        let mut keybuf = vec![0i64; nkeys];
        for (i, &hash) in hashes.iter().enumerate().take(rows) {
            if keys.iter().any(|k| k.is_null(i)) {
                continue; // SQL: NULL keys never join
            }
            for (j, k) in keys.iter().enumerate() {
                keybuf[j] = k.data.get_i64(i);
            }
            if let Some(h) = table.heavy.iter_mut().find(|(hk, _)| hk == &keybuf) {
                h.1.push(i as u32);
                stats.heavy_rows += 1;
                continue;
            }
            if !table.dmem_seg.is_full() {
                table.dmem_seg.insert(hash, &keybuf, i as u32);
                stats.in_dmem += 1;
            } else {
                // Small-skew overflow to DRAM.
                let seg = table
                    .dram_seg
                    .get_or_insert_with(|| Segment::new(rows, nkeys, BUCKETS_PER_ROW_SHRINK));
                seg.insert(hash, &keybuf, i as u32);
                stats.overflowed += 1;
            }
        }
        Ok((table, stats))
    }

    /// Charge one core the build of a table over `rows` rows of `nkeys`
    /// keys that went as `stats` says: hashing the keys, placing every row
    /// and — the rows that overflowed — their writes to DRAM.
    pub fn charge_build(ctx: &mut CoreCtx, nkeys: usize, rows: usize, stats: &BuildStats) {
        ctx.charge_kernel(
            Kernel::Hash,
            &costs::hash_per_row_per_key().scaled((rows * nkeys) as f64),
        );
        ctx.charge_kernel(
            Kernel::Join,
            &costs::join_build_per_row().scaled(rows as f64),
        );
        if !ctx.vectorized {
            ctx.charge_kernel(
                Kernel::Other,
                &costs::row_at_a_time_overhead_per_row().scaled(rows as f64),
            );
        }
        // Overflow inserts hit DRAM latency rather than DMEM: charge the
        // extra transfer (one cache-line-ish access per overflow row).
        if stats.overflowed > 0 {
            ctx.charge_dms(&dpu_sim::dms::engine::DmsCost {
                cycles: stats.overflowed as f64 * 4.0,
                bytes: (stats.overflowed * 16) as u64,
                descriptors: 1,
            });
        }
    }

    /// Number of build rows (including NULL-key skips).
    pub fn build_rows(&self) -> usize {
        self.build_rows
    }

    /// Whether any rows overflowed to DRAM.
    pub fn overflowed(&self) -> bool {
        self.dram_seg.is_some()
    }

    /// Probe with a batch of keys; `on_match(probe_row, build_row)` fires
    /// per matching pair. Returns per-probe-row match counts.
    pub fn probe(
        &self,
        ctx: &mut CoreCtx,
        keys: &[&Vector],
        on_match: &mut dyn FnMut(u32, u32),
    ) -> QefResult<Vec<u32>> {
        let all = Positions::dense(0, keys.first().map_or(0, |k| k.len()));
        let pieces = std::iter::once(keys.iter().map(|k| (*k, all)));
        Ok(self.probe_pieces(ctx, pieces, None, on_match)?.0)
    }

    /// [`JoinTable::probe`] over rows of an input that arrives in pieces
    /// (each item: one piece's key columns, each with where the piece's rows
    /// lie in it), numbered back to back — the runs of rows a lane holds,
    /// probed where they lie. With a join filter every row's hash is tested
    /// first, and a row whose bit is clear is not probed: it matches
    /// nothing. Returns the match counts and how many rows were probed.
    pub fn probe_pieces<'v, K>(
        &self,
        ctx: &mut CoreCtx,
        pieces: impl Iterator<Item = K> + Clone,
        filter: Option<&JoinFilter>,
        on_match: &mut dyn FnMut(u32, u32),
    ) -> QefResult<(Vec<u32>, usize)>
    where
        K: Iterator<Item = (&'v Vector, Positions<'v>)> + Clone,
    {
        if let Some(arity) = pieces
            .clone()
            .map(Iterator::count)
            .find(|&n| n != self.nkeys)
        {
            return Err(QefError::BadPlan(format!(
                "probe key arity {arity} != build key arity {}",
                self.nkeys
            )));
        }
        let piece_rows = |keys: &K| keys.clone().next().map_or(0, |(_, at)| at.len());
        let rows: usize = pieces.clone().map(|keys| piece_rows(&keys)).sum();
        let mut hashes = vec![0; rows];
        hash_pieces_into(ctx, pieces.clone(), &mut hashes);
        if let Some(filter) = filter {
            filter.charge_test(ctx, rows);
        }
        let mut probed = rows;
        let mut match_counts = vec![0u32; rows];
        let mut total_links = 0usize;
        let mut total_matches = 0usize;
        let mut keybuf = vec![0i64; self.nkeys];
        let mut p = 0;
        for keys in pieces {
            for r in 0..piece_rows(&keys) {
                let at = p;
                p += 1;
                if filter.is_some_and(|f| !f.may_match(hashes[at])) {
                    probed -= 1;
                    continue;
                }
                if keys.clone().any(|(k, of)| k.is_null(of.get(r))) {
                    continue;
                }
                for (slot, (k, of)) in keybuf.iter_mut().zip(keys.clone()) {
                    *slot = k.data.get_i64(of.get(r));
                }
                let mut count = 0u32;
                total_links += self.dmem_seg.probe(hashes[at], &keybuf, |b| {
                    count += 1;
                    on_match(at as u32, b);
                });
                if let Some(seg) = &self.dram_seg {
                    total_links += seg.probe(hashes[at], &keybuf, |b| {
                        count += 1;
                        on_match(at as u32, b);
                    });
                }
                // Heavy hitters: dense broadcast list.
                for (hk, rows_of_key) in &self.heavy {
                    if hk == &keybuf {
                        for &b in rows_of_key {
                            count += 1;
                            on_match(at as u32, b);
                        }
                    }
                }
                match_counts[at] = count;
                total_matches += count as usize;
            }
        }
        ctx.charge_kernel(
            Kernel::Join,
            &costs::join_probe_per_row().scaled(probed as f64),
        );
        ctx.charge_kernel(
            Kernel::Join,
            &costs::join_probe_per_link().scaled(total_links as f64),
        );
        ctx.charge_kernel(
            Kernel::Join,
            &costs::join_emit_per_match().scaled(total_matches as f64),
        );
        if !ctx.vectorized {
            ctx.charge_kernel(
                Kernel::Other,
                &costs::row_at_a_time_overhead_per_row().scaled(rows as f64),
            );
        }
        Ok((match_counts, probed))
    }
}

/// Space-saving heavy-hitter detection over build keys.
fn detect_heavy(keys: &[&Vector], rows: usize) -> Vec<Vec<i64>> {
    const SKETCH_SLOTS: usize = 16;
    let nkeys = keys.len();
    // Slot `s` counts `counts[s]` sightings of key `slots[s * nkeys..][..nkeys]`.
    let mut slots: Vec<i64> = Vec::with_capacity(SKETCH_SLOTS * nkeys);
    let mut counts: Vec<usize> = Vec::with_capacity(SKETCH_SLOTS);
    let mut keybuf = vec![0i64; nkeys];
    let key_of = |s: usize| s * nkeys..(s + 1) * nkeys;
    for i in 0..rows {
        for (j, k) in keys.iter().enumerate() {
            keybuf[j] = k.data.get_i64(i);
        }
        if let Some(s) = (0..counts.len()).find(|&s| slots[key_of(s)] == keybuf[..]) {
            counts[s] += 1;
        } else if counts.len() < SKETCH_SLOTS {
            slots.extend_from_slice(&keybuf);
            counts.push(1);
        } else if let Some(min) = (0..counts.len()).min_by_key(|&s| counts[s]) {
            // Space-saving: replace the minimum, inheriting its count.
            let at = key_of(min);
            slots[at].copy_from_slice(&keybuf);
            counts[min] += 1;
        }
    }
    let threshold = ((rows as f64) * HEAVY_HITTER_FRACTION) as usize;
    (0..counts.len())
        .filter(|&s| counts[s] > threshold.max(8))
        .map(|s| slots[key_of(s)].to_vec())
        .collect()
}

/// `rows` NULLs stored `width` bytes a value — the build side of an
/// unmatched outer-join row. The width must be the one matched rows
/// gather, or concatenating the two mixes physical widths.
pub(crate) fn null_column(width: usize, rows: usize) -> Vector {
    let mut data = rapid_storage::vector::ColumnData::with_width(width, rows);
    for _ in 0..rows {
        data.push_i64(0);
    }
    Vector::with_nulls(data, rapid_storage::bitvec::BitVec::ones(rows))
}

/// What a join writes of the rows it pairs or keeps: the columns
/// `columns` lists, in its order — positions in the probe side's
/// `probe_width` columns followed, for an inner or outer join, by the build
/// side's, which are stored at `build_widths`.
#[derive(Debug, Clone, Copy)]
pub struct Output<'a> {
    /// The plan's list (`PlanNode::HashJoin` `output`).
    pub columns: &'a [usize],
    /// Columns of the probe side.
    pub probe_width: usize,
    /// The build side's `PlanNode::output_widths`: what an outer join's
    /// NULLs are stored at, so they concatenate with matched rows.
    pub build_widths: &'a [usize],
}

impl Output<'_> {
    /// The probe columns listed, in the list's order.
    pub fn probe_columns(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        let width = self.probe_width;
        self.columns.iter().copied().filter(move |&c| c < width)
    }

    /// The columns listed, each written by `probe` (a probe column) or by
    /// `build` (a build column, counted from the build side's first).
    fn write(
        &self,
        mut probe: impl FnMut(usize) -> Vector,
        mut build: impl FnMut(usize) -> Vector,
    ) -> Batch {
        let columns = self
            .columns
            .iter()
            .map(|&c| match c.checked_sub(self.probe_width) {
                None => probe(c),
                Some(b) => build(b),
            });
        Batch::new(columns.collect())
    }

    /// The rows of `rows` at `at`, each beside the build row of `build` at
    /// the same place of its list — NULLs where there is none.
    fn gathered(&self, rows: &Rows<'_>, at: &[u32], build: Option<(&Batch, &[u32])>) -> Batch {
        if at.is_empty() {
            return Batch::empty(0);
        }
        self.write(
            |c| gather_column(rows, at, c),
            |b| match build {
                Some((build, rids)) => build.column(b).gather(rids),
                None => self.nulls(b, at.len()),
            },
        )
    }

    /// Every row of `rows`, none beside a build row: what a semi or anti
    /// join keeps whole, and an outer join's probe rows where no build row
    /// exists, its build columns NULL.
    pub fn unmatched(&self, rows: Rows<'_>) -> Batch {
        let n = rows.rows();
        if n == 0 {
            return Batch::empty(0);
        }
        if self.columns.iter().all(|&c| c < self.probe_width) {
            // No build column listed: the rows are what is written.
            return rows.materialize_columns(self.columns.iter().copied());
        }
        let mut probe = rows
            .materialize_columns(self.probe_columns())
            .columns
            .into_iter();
        self.write(
            |_| probe.next().unwrap_or_else(crate::batch::empty_vector),
            |b| self.nulls(b, n),
        )
    }

    /// `rows` NULLs of build column `b`.
    fn nulls(&self, b: usize, rows: usize) -> Vector {
        let width = self.build_widths.get(b).copied().unwrap_or(8);
        null_column(width, rows)
    }
}

/// How many of its probe side's `probe_width` columns a join's probe reads
/// of a row: its keys and the probe columns it writes (`output`), each once.
pub fn probe_reads(probe_keys: &[usize], output: &[usize], probe_width: usize) -> usize {
    let read = probe_keys
        .iter()
        .chain(output.iter().filter(|&&c| c < probe_width));
    (0..probe_width)
        .filter(|c| read.clone().any(|r| r == c))
        .count()
}

/// The probe rows whose match count passes `keep`, ascending.
fn passing(counts: &[u32], keep: impl Fn(u32) -> bool) -> Vec<u32> {
    (0..counts.len() as u32)
        .filter(|&i| keep(counts[i as usize]))
        .collect()
}

/// Join one partition pair, producing the columns `output` lists of the
/// joined rows.
#[allow(clippy::too_many_arguments)]
pub fn join_partition(
    ctx: &mut CoreCtx,
    build: &Batch,
    probe: Batch,
    build_keys: &[usize],
    probe_keys: &[usize],
    join_type: JoinType,
    output: &[usize],
    estimated_build_rows: usize,
) -> QefResult<Batch> {
    use JoinType::*;
    if probe.is_empty() {
        // Preserve layout: zero-row output with the right column count is
        // assembled by the engine from metadata; empty is fine here.
        return Ok(Batch::empty(0));
    }
    let widths: Vec<usize> = build.columns.iter().map(|c| c.data.width()).collect();
    let output = Output {
        columns: output,
        probe_width: probe.width(),
        build_widths: &widths,
    };
    if build.is_empty() {
        return match join_type {
            Inner | LeftSemi => Ok(Batch::empty(0)),
            LeftAnti => Ok(output.unmatched(Rows::Owned(probe))),
            LeftOuter => Err(QefError::Internal(
                "outer join with empty build handled by engine padding".into(),
            )),
        };
    }
    let bkeys: Vec<&Vector> = build_keys.iter().map(|&c| build.column(c)).collect();
    // The table's DMEM segment holds no more than the half of DMEM a pair
    // stage declares; the rows past it overflow.
    let half = ctx.dmem.capacity() / 2;
    let fits = broadcast_capacity(build.rows(), bkeys.len(), 0, half);
    let (table, _stats) = JoinTable::build(ctx, &bkeys, estimated_build_rows.min(fits), true)?;
    let probe = Rows::Owned(probe);
    let probed = probe_rows(
        ctx, &table, build, output, probe_keys, join_type, probe, None,
    )?;
    Ok(probed.0)
}

/// DMEM a broadcast join's table over `rows` build rows holds: the bucket,
/// link, key and row-id arrays of a DMEM segment of that capacity, and the
/// build rows themselves, `row_bytes` encoded bytes each.
pub fn broadcast_bytes(rows: usize, nkeys: usize, row_bytes: usize) -> usize {
    let capacity = rows.max(1);
    let buckets = next_pow2_at_least(capacity / BUCKETS_PER_ROW_SHRINK, 4);
    let bits = SmallIntArray::bits_for(capacity + 1);
    let per_row = nkeys * std::mem::size_of::<i64>() + std::mem::size_of::<u32>() + row_bytes;
    SmallIntArray::size_bytes_of(buckets, bits)
        + SmallIntArray::size_bytes_of(capacity, bits)
        + capacity * per_row
}

/// How many of `rows` build rows a broadcast table holds in `state_bytes`
/// ([`broadcast_bytes`]): the capacity of a lane's DMEM segment. Rows past
/// it overflow to DRAM.
pub fn broadcast_capacity(
    rows: usize,
    nkeys: usize,
    row_bytes: usize,
    state_bytes: usize,
) -> usize {
    // The bytes grow with the rows: the most that fit, by bisection.
    let (mut fits, mut over) = (0, rows + 1);
    while over - fits > 1 {
        let mid = fits + (over - fits) / 2;
        if broadcast_bytes(mid, nkeys, row_bytes) <= state_bytes {
            fits = mid;
        } else {
            over = mid;
        }
    }
    fits
}

/// A broadcast join (§6, for a build side whose table fits the state its
/// probe stage declares): every lane holds all of the table. A lane reads
/// the whole build side from DRAM, builds the table in its own DMEM and
/// probes the rows it holds against it, where they lie — the rows of its
/// scan's task, or batches dealt to it. Nothing is partitioned, and no pair
/// of partitions waits for one core.
#[derive(Debug)]
pub struct Broadcast<'a> {
    /// The build side, concatenated.
    pub build: &'a Batch,
    /// Key positions in the build side.
    pub build_keys: &'a [usize],
    /// Key positions in the probe side.
    pub probe_keys: &'a [usize],
    /// Join variant.
    pub join_type: JoinType,
    /// The build side's `PlanNode::output_widths`: what a lane reads, and
    /// what an outer join's NULL pad is stored at.
    pub build_widths: &'a [usize],
    /// The columns the join writes (`PlanNode::HashJoin` `output`).
    pub output: &'a [usize],
    /// Build rows a lane's DMEM segment holds ([`broadcast_capacity`] of
    /// the probe stage's state); the rest overflow to DRAM.
    pub capacity: usize,
    /// The join's filter, where it declares one
    /// ([`JoinFilter::beside_tables`]): every lane that builds a table sets
    /// the bits of its copy beside it, whoever tests the rows.
    pub filter: Option<&'a JoinFilter>,
}

impl Broadcast<'_> {
    /// One lane's work: read the build side and build its table, then probe
    /// `parts` — the rows the lane holds, in order — against it, a trip
    /// round the control loop per tile. One output batch per part. The
    /// lane's table is `built`, the stage's one host table
    /// ([`Broadcast::host_table`]): every lane builds the same table, and
    /// each is charged its own build. The probe reads the columns of the
    /// rows it needs where they lie ([`Rows::charge_select`]): their keys,
    /// and the probe columns the join writes. With a join filter the lane
    /// sets a bit a build row beside its table, from the hashes the table's
    /// build computed, and — where it `tests` its rows, which its scan did
    /// not — tests every row's hash before it probes: a row whose bit is
    /// clear is not probed, and of it only the keys are read. Returns the
    /// batches and how many rows were probed.
    pub fn lane<'r>(
        &self,
        ctx: &mut CoreCtx,
        built: Option<&(JoinTable, BuildStats)>,
        parts: impl IntoIterator<Item = Rows<'r>>,
        tile: usize,
        tests: bool,
    ) -> QefResult<(Vec<Batch>, usize)> {
        let tile = tile.max(1);
        self.charge_build_side(ctx, built, tile);
        let table = built.map(|(table, _)| table);
        let (mut out, mut probed) = (Vec::new(), 0);
        for rows in parts {
            let (batch, of_part) = self.probe(ctx, table, rows, tile, tests)?;
            out.push(batch);
            probed += of_part;
        }
        Ok((out, probed))
    }

    /// Charge a lane what it does before it probes a row: read the build
    /// side at `tile` rows a vector and build `built`, its table.
    pub fn charge_build_side(
        &self,
        ctx: &mut CoreCtx,
        built: Option<&(JoinTable, BuildStats)>,
        tile: usize,
    ) {
        if !self.build.is_empty() {
            let cm = ctx.cost_model.clone();
            let widths = self.build_widths.iter().copied();
            ctx.charge_dms(&RelationAccessor::seq_read_cost(
                &cm,
                widths,
                self.build.rows(),
                tile.max(1),
            ));
        }
        if let Some((_, stats)) = built {
            self.charge_table(ctx, stats);
        }
    }

    /// About what probing one row costs a lane that reads `columns` of its
    /// columns: its keys hashed and looked up, a link followed and a match
    /// emitted, and those columns read.
    pub fn probe_row_cycles(&self, cm: &dpu_sim::isa::CostModel, columns: usize) -> f64 {
        let hash = cm.kernel_cycles(&costs::hash_per_row_per_key()) * self.probe_keys.len() as f64;
        hash + cm.kernel_cycles(&costs::join_probe_per_row())
            + cm.kernel_cycles(&costs::join_probe_per_link())
            + cm.kernel_cycles(&costs::join_emit_per_match())
            + cm.kernel_cycles(&costs::select_read_per_row(columns))
    }

    /// The table a lane builds over the build rows, on the host and charged
    /// to no core — `None` where there are none.
    pub fn host_table(&self) -> QefResult<Option<(JoinTable, BuildStats)>> {
        if self.build.is_empty() {
            return Ok(None);
        }
        let keys: Vec<&Vector> = self
            .build_keys
            .iter()
            .map(|&c| self.build.column(c))
            .collect();
        JoinTable::within_on_host(&keys, self.capacity).map(Some)
    }

    /// Charge a lane the build of its table, which went as `stats` says,
    /// and, where the join has a filter, the bits it sets beside it from
    /// the hashes the build computed.
    fn charge_table(&self, ctx: &mut CoreCtx, stats: &BuildStats) {
        JoinTable::charge_build(ctx, self.build_keys.len(), self.build.rows(), stats);
        if self.filter.is_some() {
            join_filter::charge_set(ctx, self.build.rows());
        }
    }

    /// The lane's table over the build rows it holds — `None` where there
    /// are none — with, where the join has a filter, its bits set beside it
    /// from the hashes the build computed.
    pub fn table(&self, ctx: &mut CoreCtx) -> QefResult<Option<JoinTable>> {
        let built = self.host_table()?;
        if let Some((_, stats)) = &built {
            self.charge_table(ctx, stats);
        }
        Ok(built.map(|(table, _)| table))
    }

    /// Probe `rows` against the lane's `table`, a trip round the control
    /// loop per tile, testing the filter first where the lane `tests` its
    /// rows. Returns the batch and how many rows were probed.
    pub fn probe(
        &self,
        ctx: &mut CoreCtx,
        table: Option<&JoinTable>,
        rows: Rows<'_>,
        tile: usize,
        tests: bool,
    ) -> QefResult<(Batch, usize)> {
        for _ in 0..rows.rows().div_ceil(tile.max(1)) {
            ctx.charge_tile();
        }
        let output = Output {
            columns: self.output,
            probe_width: rows.width(),
            build_widths: self.build_widths,
        };
        let Some(table) = table else {
            // No build row: the variant alone says what a probe row becomes.
            // An anti or outer join hands on every probe row, reading the
            // columns it writes.
            let batch = match self.join_type {
                JoinType::Inner | JoinType::LeftSemi => Batch::empty(0),
                JoinType::LeftAnti | JoinType::LeftOuter => {
                    rows.charge_select(ctx, output.probe_columns());
                    output.unmatched(rows)
                }
            };
            return Ok((batch, 0));
        };
        probe_rows(
            ctx,
            table,
            self.build,
            output,
            self.probe_keys,
            self.join_type,
            rows,
            self.filter.filter(|_| tests),
        )
    }
}

/// Probe `rows` against `table`, built over `build`: of the matched probe
/// rows and, beside them for an inner or outer join, their build rows — or
/// NULLs, for an outer join's unmatched rows — the columns `output` lists.
/// The probe reads its keys and the probe columns it writes of the rows
/// where they lie; with a join filter, the keys of every row and the rest of
/// the rows whose bit is set. Returns the batch and how many rows were
/// probed.
#[allow(clippy::too_many_arguments)]
fn probe_rows(
    ctx: &mut CoreCtx,
    table: &JoinTable,
    build: &Batch,
    output: Output<'_>,
    probe_keys: &[usize],
    join_type: JoinType,
    rows: Rows<'_>,
    filter: Option<&JoinFilter>,
) -> QefResult<(Batch, usize)> {
    let n = rows.rows();
    let read = || probe_keys.iter().copied().chain(output.probe_columns());
    match filter {
        None => rows.charge_select(ctx, read()),
        Some(_) => rows.charge_select_of(ctx, probe_keys.iter().copied(), n),
    }
    if n == 0 {
        return Ok((Batch::empty(0), 0));
    }
    let pieces = rows
        .runs()
        .map(|run| probe_keys.iter().map(move |&c| run.column(c)));
    // Semi and anti joins keep probe rows by their match counts alone.
    let pairs = matches!(join_type, JoinType::Inner | JoinType::LeftOuter);
    let expected = if pairs { rows.rows() } else { 0 };
    let (mut matched, mut build_rids) =
        (Vec::with_capacity(expected), Vec::with_capacity(expected));
    let (counts, probed) = table.probe_pieces(ctx, pieces, filter, &mut |p, b| {
        if pairs {
            matched.push(p);
            build_rids.push(b);
        }
    })?;
    if filter.is_some() {
        rows.charge_select_of(ctx, read(), probed);
    }
    let paired = Some((build, &build_rids[..]));
    let batch = match join_type {
        JoinType::Inner => output.gathered(&rows, &matched, paired),
        JoinType::LeftSemi => keep(output, rows, &passing(&counts, |c| c > 0)),
        JoinType::LeftAnti => keep(output, rows, &passing(&counts, |c| c == 0)),
        JoinType::LeftOuter => {
            // The matched rows beside their build rows, then the unmatched
            // rows beside NULLs.
            let unmatched = passing(&counts, |c| c == 0);
            let bottom = output.gathered(&rows, &unmatched, None);
            Batch::concat(vec![output.gathered(&rows, &matched, paired), bottom])
        }
    };
    Ok((batch, probed))
}

/// What `output` lists of the rows of `rows` at `positions`, distinct and
/// ascending; where that is all of them, the columns are handed on as they
/// came.
fn keep(output: Output<'_>, rows: Rows<'_>, positions: &[u32]) -> Batch {
    if positions.len() == rows.rows() {
        output.unmatched(rows)
    } else {
        output.gathered(&rows, positions, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{CoreCtx, ExecContext};
    use crate::plan::JoinType;
    use rapid_storage::vector::ColumnData;

    fn ctx() -> CoreCtx {
        CoreCtx::new(&ExecContext::dpu(), 0)
    }

    fn vcol(v: Vec<i64>) -> Vector {
        Vector::new(ColumnData::I64(v))
    }

    #[test]
    fn build_probe_finds_all_matches() {
        let mut c = ctx();
        let bkeys = vcol(vec![1, 2, 3, 2, 1]);
        let (t, stats) = JoinTable::build(&mut c, &[&bkeys], 5, false).unwrap();
        assert_eq!(stats.in_dmem, 5);
        let pkeys = vcol(vec![2, 4, 1]);
        let mut pairs = Vec::new();
        let counts = t
            .probe(&mut c, &[&pkeys], &mut |p, b| pairs.push((p, b)))
            .unwrap();
        assert_eq!(counts, vec![2, 0, 2]);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 3), (2, 0), (2, 4)]);
    }

    #[test]
    fn bit_array_table_mimics_figure6() {
        // Figure 6's example: 8 tuples, 4 buckets; chains link backwards.
        let mut c = ctx();
        let bkeys = vcol(vec![10, 11, 12, 13, 10, 11, 12, 10]);
        let (t, _) = JoinTable::build(&mut c, &[&bkeys], 8, false).unwrap();
        let pkeys = vcol(vec![10]);
        let mut matched = Vec::new();
        t.probe(&mut c, &[&pkeys], &mut |_, b| matched.push(b))
            .unwrap();
        matched.sort_unstable();
        assert_eq!(matched, vec![0, 4, 7], "all three 10s found via chain");
    }

    #[test]
    fn small_skew_overflows_to_dram_and_stays_correct() {
        let mut c = ctx();
        let n = 2000usize;
        let bkeys = vcol((0..n as i64).collect());
        // Estimate of 500 rows: 1500 rows overflow.
        let (t, stats) = JoinTable::build(&mut c, &[&bkeys], 500, false).unwrap();
        assert!(t.overflowed());
        assert_eq!(stats.in_dmem, 500);
        assert_eq!(stats.overflowed, 1500);
        // Every key still found exactly once.
        let pkeys = vcol((0..n as i64).collect());
        let counts = t.probe(&mut c, &[&pkeys], &mut |_, _| {}).unwrap();
        assert!(counts.iter().all(|&x| x == 1));
    }

    #[test]
    fn heavy_hitters_detected_and_joined() {
        let mut c = ctx();
        // 60% of rows share one key.
        let mut keys: Vec<i64> = vec![42; 600];
        keys.extend(1000..1400);
        let bkeys = vcol(keys);
        let (t, stats) = JoinTable::build(&mut c, &[&bkeys], 1000, true).unwrap();
        assert!(stats.heavy_keys >= 1, "42 should be detected");
        // The space-saving sketch may over-admit a key or two; all 600
        // rows of the true heavy hitter must be routed to the dense list.
        assert!(stats.heavy_rows >= 600);
        let pkeys = vcol(vec![42, 1007]);
        let counts = t.probe(&mut c, &[&pkeys], &mut |_, _| {}).unwrap();
        assert_eq!(counts[0], 600);
        assert_eq!(counts[1], 1);
    }

    #[test]
    fn null_keys_never_match() {
        use rapid_storage::bitvec::BitVec;
        let mut c = ctx();
        let mut nulls = BitVec::zeros(3);
        nulls.set(1, true);
        let bkeys = Vector::with_nulls(ColumnData::I64(vec![1, 1, 2]), nulls.clone());
        let (t, _) = JoinTable::build(&mut c, &[&bkeys], 3, false).unwrap();
        let pkeys = Vector::with_nulls(ColumnData::I64(vec![1, 1]), {
            let mut n = BitVec::zeros(2);
            n.set(1, true);
            n
        });
        let counts = t.probe(&mut c, &[&pkeys], &mut |_, _| {}).unwrap();
        assert_eq!(
            counts,
            vec![1, 0],
            "null build row and null probe row drop out"
        );
    }

    #[test]
    fn multi_key_join() {
        let mut c = ctx();
        let k1 = vcol(vec![1, 1, 2]);
        let k2 = vcol(vec![10, 20, 10]);
        let (t, _) = JoinTable::build(&mut c, &[&k1, &k2], 3, false).unwrap();
        let p1 = vcol(vec![1, 2]);
        let p2 = vcol(vec![20, 20]);
        let counts = t.probe(&mut c, &[&p1, &p2], &mut |_, _| {}).unwrap();
        assert_eq!(counts, vec![1, 0]);
    }

    #[test]
    fn join_partition_inner_output_layout() {
        let mut c = ctx();
        let build = Batch::new(vec![vcol(vec![1, 2]), vcol(vec![100, 200])]);
        let probe = Batch::new(vec![vcol(vec![2, 1, 3]), vcol(vec![-2, -1, -3])]);
        let out = join_partition(
            &mut c,
            &build,
            probe.clone(),
            &[0],
            &[0],
            JoinType::Inner,
            &[0, 1, 2, 3],
            2,
        )
        .unwrap();
        assert_eq!(out.width(), 4);
        assert_eq!(out.rows(), 2);
        // Row for probe key 2: probe cols (2, -2), build cols (2, 200).
        let k: Vec<i64> = out.column(0).data.to_i64_vec();
        let bval: Vec<i64> = out.column(3).data.to_i64_vec();
        for (i, key) in k.iter().enumerate() {
            assert_eq!(bval[i], key * 100);
        }
        // Of the same pairs it writes only the columns it lists, in the
        // list's order: a build column first, a probe column twice.
        let listed = join_partition(
            &mut c,
            &build,
            probe,
            &[0],
            &[0],
            JoinType::Inner,
            &[3, 1, 1],
            2,
        )
        .unwrap();
        assert_eq!(listed.width(), 3);
        let col = |i: usize| listed.column(i).data.to_i64_vec();
        assert_eq!(col(0).iter().map(|b| -b / 100).collect::<Vec<_>>(), col(1));
        assert_eq!(col(1), col(2));
    }

    #[test]
    fn semi_and_anti_partition() {
        let mut c = ctx();
        let build = Batch::new(vec![vcol(vec![1, 2, 2])]);
        let probe = Batch::new(vec![vcol(vec![1, 2, 3, 4])]);
        let semi = join_partition(
            &mut c,
            &build,
            probe.clone(),
            &[0],
            &[0],
            JoinType::LeftSemi,
            &[0],
            3,
        )
        .unwrap();
        assert_eq!(semi.column(0).data.to_i64_vec(), vec![1, 2]);
        let anti = join_partition(
            &mut c,
            &build,
            probe.clone(),
            &[0],
            &[0],
            JoinType::LeftAnti,
            &[0],
            3,
        )
        .unwrap();
        assert_eq!(anti.column(0).data.to_i64_vec(), vec![3, 4]);
    }

    #[test]
    fn outer_join_pads_unmatched_with_nulls() {
        let mut c = ctx();
        let build = Batch::new(vec![vcol(vec![1]), vcol(vec![100])]);
        let probe = Batch::new(vec![vcol(vec![1, 9])]);
        let out = join_partition(
            &mut c,
            &build,
            probe.clone(),
            &[0],
            &[0],
            JoinType::LeftOuter,
            &[0, 1, 2],
            1,
        )
        .unwrap();
        assert_eq!(out.rows(), 2);
        // Probe row 9 has NULL build columns.
        let probe_keys = out.column(0).data.to_i64_vec();
        let idx9 = probe_keys.iter().position(|&k| k == 9).unwrap();
        assert_eq!(out.column(1).get(idx9), None);
        assert_eq!(out.column(2).get(idx9), None);
        let idx1 = probe_keys.iter().position(|&k| k == 1).unwrap();
        assert_eq!(out.column(2).get(idx1), Some(100));
    }

    #[test]
    fn a_broadcast_table_is_what_its_segment_and_rows_hold() {
        // The segment's bucket, link and key arrays, a row id and the
        // encoded row per build row.
        for rows in [1, 63, 64, 700, 5000] {
            for nkeys in [1, 2] {
                let segment = Segment::new(rows, nkeys, BUCKETS_PER_ROW_SHRINK);
                let expect = segment.bytes() + rows * (4 + 6);
                assert_eq!(broadcast_bytes(rows, nkeys, 6), expect, "{rows} {nkeys}");
            }
        }
        // The capacity is the most rows that fit, never more than there are.
        let state = 16 * 1024;
        let capacity = broadcast_capacity(5000, 1, 6, state);
        assert!(broadcast_bytes(capacity, 1, 6) <= state);
        assert!(broadcast_bytes(capacity + 1, 1, 6) > state);
        assert_eq!(broadcast_capacity(10, 1, 6, state), 10);
        assert_eq!(broadcast_capacity(5000, 1, 6, 0), 0);
    }

    #[test]
    fn a_table_built_within_a_stage_reserves_nothing_and_overflows_past_it() {
        let mut c = ctx();
        let keys = vcol((0..2000).collect());
        let (t, stats) = JoinTable::build_within(&mut c, &[&keys], 500).unwrap();
        // The stage's own reservation holds the segment.
        assert_eq!(c.dmem.peak(), 0);
        assert_eq!((stats.in_dmem, stats.overflowed), (500, 1500));
        // The overflow is charged, and every key is still found once.
        assert_eq!(c.account.counters().dms_bytes, 1500 * 16);
        let counts = t.probe(&mut c, &[&keys], &mut |_, _| {}).unwrap();
        assert!(counts.iter().all(|&n| n == 1));
    }

    #[test]
    fn a_broadcast_lane_reads_the_build_side_once_and_probes_its_rows_where_they_lie() {
        use crate::batch::{Pick, Projection, Span};
        use rapid_storage::chunk::Chunk;
        let build = Batch::new(vec![vcol(vec![1, 2, 2, 7]), vcol(vec![10, 20, 21, 70])]);
        let chunk = Chunk::new(vec![
            Vector::new(ColumnData::I16((0..100).collect())),
            Vector::new(ColumnData::I32((0..100).map(|i| i * 3).collect())),
        ]);
        let join = |join_type| Broadcast {
            build: &build,
            build_keys: &[0],
            probe_keys: &[1],
            join_type,
            build_widths: &[8, 8],
            output: if join_type.pairs() {
                &[0, 1, 2, 3]
            } else {
                &[0, 1]
            },
            capacity: 4,
            filter: None,
        };
        // Rows 1, 2, 5 and 7 of the chunk, picked by a scan.
        let in_place = || Rows::InPlace {
            span: Span::new(std::slice::from_ref(&chunk), 0..100),
            projection: Projection::Scan(&[1, 0]),
            pick: Pick::Selected(vec![1, 2, 5, 7]),
            written: Vec::new(),
        };
        let mut c = ctx();
        let lane = |c: &mut CoreCtx, join: Broadcast<'_>| {
            let built = join.host_table().unwrap();
            join.lane(c, built.as_ref(), [in_place()], 64, false)
                .unwrap()
        };
        let (out, probed) = lane(&mut c, join(JoinType::Inner));
        assert_eq!(probed, 4);
        // The build side's 4 rows of 16 bytes, read once.
        assert_eq!(c.account.counters().dms_bytes, 4 * 16);
        let rows: Vec<Vec<i64>> = (0..out[0].rows())
            .map(|i| out[0].columns.iter().map(|c| c.data.get_i64(i)).collect())
            .collect();
        assert_eq!(
            rows,
            [
                vec![3, 1, 1, 10],
                vec![6, 2, 2, 21],
                vec![6, 2, 2, 20],
                vec![21, 7, 7, 70]
            ]
        );
        // Probe columns at the widths the chunk stores them in.
        let widths: Vec<usize> = out[0].columns.iter().map(|c| c.data.width()).collect();
        assert_eq!(widths, [4, 2, 8, 8]);
        let kept = |join_type| {
            let (out, _) = lane(&mut ctx(), join(join_type));
            out[0].column(1).data.to_i64_vec()
        };
        assert_eq!(kept(JoinType::LeftSemi), [1, 2, 7]);
        assert_eq!(kept(JoinType::LeftAnti), [5]);
        let (outer, _) = lane(&mut ctx(), join(JoinType::LeftOuter));
        assert_eq!(outer[0].rows(), 5);
        assert_eq!(outer[0].column(3).get(4), None, "row 5 is padded");
    }

    #[test]
    fn a_filtered_broadcast_lane_sets_its_copy_beside_its_table_and_reads_no_filter() {
        use crate::batch::{Pick, Projection, Span};
        use rapid_storage::chunk::Chunk;
        let build = Batch::new(vec![
            vcol(vec![2, 7, 7, 40, 61]),
            vcol(vec![20, 70, 71, 400, 610]),
        ]);
        let filter = JoinFilter::beside_tables(&build, &[0], 64).unwrap();
        let chunk = Chunk::new(vec![Vector::new(ColumnData::I16((0..100).collect()))]);
        // The even keys, picked by a scan: 2 and 40 join, and of the rest
        // the filter keeps the few whose bit another key set.
        let picked = || Rows::InPlace {
            span: Span::new(std::slice::from_ref(&chunk), 0..100),
            projection: Projection::Scan(&[0]),
            pick: Pick::Selected((0..100).step_by(2).collect()),
            written: Vec::new(),
        };
        let join = Broadcast {
            build: &build,
            build_keys: &[0],
            probe_keys: &[0],
            join_type: JoinType::Inner,
            build_widths: &[8, 8],
            output: &[0, 1, 2],
            capacity: 5,
            filter: Some(&filter),
        };
        // A lane that tests its rows in the probe, and one whose scan tested
        // them in its key pass.
        let mut joined = Vec::new();
        for tests in [true, false] {
            let mut got = ctx();
            let built = join.host_table().unwrap();
            let (out, probed) = join
                .lane(&mut got, built.as_ref(), [picked()], 64, tests)
                .unwrap();
            // The reference: the build side read from DRAM, its table built,
            // a bit set a build row from the build's hashes — no filter read
            // — then the probe, a trip round the control loop a tile.
            let mut expect = ctx();
            let cm = expect.cost_model.clone();
            expect.charge_dms(&RelationAccessor::seq_read_cost(
                &cm,
                [8, 8].into_iter(),
                5,
                64,
            ));
            let (table, _) = JoinTable::build_within(&mut expect, &[build.column(0)], 5).unwrap();
            join_filter::charge_set(&mut expect, 5);
            expect.charge_tile();
            let tested = tests.then_some(&filter);
            let output = Output {
                columns: &[0, 1, 2],
                probe_width: 1,
                build_widths: &[8, 8],
            };
            let (want, want_probed) = probe_rows(
                &mut expect,
                &table,
                &build,
                output,
                &[0],
                JoinType::Inner,
                picked(),
                tested,
            )
            .unwrap();
            assert_eq!((out, probed), (vec![want], want_probed), "tests: {tests}");
            assert_eq!(got.account.counters(), expect.account.counters());
            let clocks = |c: &CoreCtx| {
                let a = &c.account;
                [a.compute_cycles(), a.dms_cycles()].map(|c| c.get().to_bits())
            };
            assert_eq!(clocks(&got), clocks(&expect), "tests: {tests}");
            // The lane read the build side and nothing else.
            assert_eq!(got.account.counters().dms_bytes, 5 * 16);
            joined.push((got.account.counters().instructions, probed));
        }
        // Testing drops most of the 50 rows before the probe; the rows a
        // scan kept are all probed.
        let (tested, untested) = (joined[0], joined[1]);
        assert!(2 <= tested.1 && tested.1 < 10, "{tested:?}");
        assert_eq!(untested.1, 50);
    }

    #[test]
    fn probe_arity_mismatch_is_error() {
        let mut c = ctx();
        let bkeys = vcol(vec![1]);
        let (t, _) = JoinTable::build(&mut c, &[&bkeys], 1, false).unwrap();
        let p1 = vcol(vec![1]);
        let p2 = vcol(vec![2]);
        assert!(t.probe(&mut c, &[&p1, &p2], &mut |_, _| {}).is_err());
    }

    #[test]
    fn nonvectorized_probe_charges_more() {
        let e = ExecContext::dpu();
        let bkeys = vcol((0..500).collect());
        let pkeys = vcol((0..500).collect());
        let mut c1 = CoreCtx::new(&e, 0);
        let (t1, _) = JoinTable::build(&mut c1, &[&bkeys], 500, false).unwrap();
        let base = c1.account.compute_cycles().get();
        t1.probe(&mut c1, &[&pkeys], &mut |_, _| {}).unwrap();
        let vec_cost = c1.account.compute_cycles().get() - base;

        let e2 = ExecContext::dpu().with_vectorized(false);
        let mut c2 = CoreCtx::new(&e2, 0);
        let (t2, _) = JoinTable::build(&mut c2, &[&bkeys], 500, false).unwrap();
        let base2 = c2.account.compute_cycles().get();
        t2.probe(&mut c2, &[&pkeys], &mut |_, _| {}).unwrap();
        let row_cost = c2.account.compute_cycles().get() - base2;
        let ratio = row_cost / vec_cost;
        assert!(
            ratio > 1.15,
            "row-at-a-time should cost noticeably more: {ratio:.2}"
        );
    }
}
