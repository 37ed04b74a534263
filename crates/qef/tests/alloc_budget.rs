//! Allocation budgets of the operator data path: an operator owns a buffer
//! only where the DMS writes one, so what it may allocate is bounded by
//! what it produces — not by the width or row count of what it reads.
//!
//! Counts are per thread (the test harness runs tests side by side), and a
//! reallocation counts as one allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dpu_sim::account::Kernel;
use dpu_sim::isa::KernelCost;
use rapid_qef::actor::run_stage;
use rapid_qef::batch::Span;
use rapid_qef::exec::{CoreCtx, ExecContext};
use rapid_qef::expr::Expr;
use rapid_qef::expr::Pred;
use rapid_qef::ops::filter::{touched_columns, ScanPlan};
use rapid_qef::ops::groupby::GroupTable;
use rapid_qef::ops::join::JoinTable;
use rapid_qef::ops::map::map_rows;
use rapid_qef::ops::partition::{partition_pass, partition_scheme};
use rapid_qef::ops::topk::TopK;
use rapid_qef::plan::{AggSpec, NamedExpr, SortKey};
use rapid_qef::primitives::agg::AggFunc;
use rapid_qef::primitives::filter::CmpOp;
use rapid_qef::ra::AccessPath;
use rapid_qef::task::KeptRows;
use rapid_qef::Batch;
use rapid_storage::chunk::Chunk;
use rapid_storage::schema::{Field, Schema};
use rapid_storage::table::TableBuilder;
use rapid_storage::types::{DataType, Value};
use rapid_storage::vector::{ColumnData, Vector};

thread_local! {
    // Const-initialised and without destructors: reading them inside the
    // allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while a thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; counting touches only
// const-initialised thread locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // that is from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result with the allocations and bytes this
/// thread made meanwhile.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    (r, ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0)
}

fn core() -> CoreCtx {
    CoreCtx::new(&ExecContext::dpu(), 0)
}

fn i64_col(rows: usize, f: impl Fn(i64) -> i64) -> Vector {
    Vector::new(ColumnData::I64((0..rows as i64).map(f).collect()))
}

const ROWS: usize = 4096;

/// Sixteen 8-byte columns: 512 KiB that a filter must not copy.
fn wide_chunk() -> Chunk {
    Chunk::new((0..16).map(|c| i64_col(ROWS, |i| i + c)).collect())
}

/// `plan`'s scan of all of `chunk`: the rows it keeps, and what finding
/// them allocated.
fn kept(plan: &ScanPlan<'_>, chunk: &Chunk) -> (usize, u64, u64) {
    let mut c = core();
    let (rows, allocs, bytes) =
        measured(|| plan.scan_rows(&mut c, Span::new(std::slice::from_ref(chunk), 0..ROWS), 256));
    (rows.unwrap().0.rows(), allocs, bytes)
}

#[test]
fn one_conjunct_allocates_the_row_set_not_the_chunk() {
    let chunk = wide_chunk();
    let conjuncts = [Pred::CmpConst {
        col: 3,
        op: CmpOp::Lt,
        value: 2048,
    }];
    let plan = ScanPlan::forced(AccessPath::Gather, &conjuncts, &[3], 0.5);
    let (rows, allocs, bytes) = kept(&plan, &chunk);
    assert_eq!(rows, 2045);
    // The ids of the rows it keeps and nothing else — the projected column
    // is read where it lies: the plan names the columns and the DMS is
    // costed without building its descriptor chain.
    assert!(allocs <= 2, "{allocs} allocations");
    let ids = 4 * 2045u64;
    assert!(
        bytes <= ids + 64,
        "{bytes} bytes to produce a {ids}-byte row set"
    );
}

#[test]
fn a_later_conjunct_gathers_only_the_columns_it_names() {
    let chunk = wide_chunk();
    let conjuncts = [
        Pred::CmpConst {
            col: 3,
            op: CmpOp::Lt,
            value: 2048,
        },
        Pred::CmpConst {
            col: 7,
            op: CmpOp::Ge,
            value: 1000,
        },
    ];
    let plan = ScanPlan::forced(AccessPath::Gather, &conjuncts, &[3], 0.5);
    let (rows, _, bytes) = kept(&plan, &chunk);
    assert_eq!(rows, 2045 - 993);
    // After the first conjunct 2045 rows qualify: their row ids. The
    // second may allocate ONE gathered 8-byte column and its verdict — the
    // survivors stay in the row-id list — plus, once for the lane, the
    // sixteen placeholder headers.
    let n = 2045u64;
    let budget = 4 * n + 8 * n + n.div_ceil(8) + 16 * std::mem::size_of::<Vector>() as u64 + 256;
    assert!(
        bytes <= budget,
        "{bytes} bytes against a budget of {budget}"
    );
}

#[test]
fn a_streamed_chunk_allocates_per_column_not_per_tile() {
    // The same 4096 rows as one 4096-row tile and as 64 tiles of 64.
    let chunk = wide_chunk();
    let conjuncts = [Pred::CmpConst {
        col: 3,
        op: CmpOp::Lt,
        value: 2048,
    }];
    let proj = [0, 5, 9];
    let scan = |conjuncts: &[Pred], tile: usize| {
        let plan = ScanPlan::forced(AccessPath::Stream, conjuncts, &proj, 0.5);
        let mut c = core();
        let (b, allocs, _) = measured(|| {
            let rows = plan.scan_rows(
                &mut c,
                Span::new(std::slice::from_ref(&chunk), 0..ROWS),
                tile,
            );
            rows.map(|(rows, _)| rows.into_batch(&mut c))
        });
        assert_eq!(c.account.counters().tiles, (ROWS / tile) as u64);
        (b.unwrap().rows(), allocs)
    };
    for conjuncts in [&conjuncts[..], &[]] {
        let ((rows, one_tile), (_, many_tiles)) = (scan(conjuncts, ROWS), scan(conjuncts, 64));
        assert_eq!(rows, if conjuncts.is_empty() { ROWS } else { 2045 });
        assert_eq!(one_tile, many_tiles, "allocations at 1 tile and at 64");
        // One batch per lane: its column list and a buffer per projected
        // column, and with a predicate the verdict and the row ids.
        assert!(
            one_tile <= proj.len() as u64 + 1 + 2 * conjuncts.len() as u64,
            "{one_tile} allocations for {} columns",
            proj.len()
        );
    }
}

#[test]
fn planning_a_one_pass_scan_allocates_for_its_conjunct_and_nothing_else() {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("w", DataType::Int),
    ]);
    let mut t = TableBuilder::new("t", schema).chunk_rows(1024);
    for i in 0..8192i64 {
        t.push_row(vec![Value::Int(i), Value::Int(i % 97), Value::Int(i * 3)]);
    }
    let t = t.finish();
    let ectx = ExecContext::dpu();
    let point = Pred::CmpConst {
        col: 0,
        op: CmpOp::Eq,
        value: 4711,
    };
    let proj = [1, 2];
    let kept = KeptRows {
        reads: Vec::new(),
        writes: proj.len(),
    };
    for pred in [Some(&point), None] {
        let (plan, allocs, _) = measured(|| {
            let touched = touched_columns(&proj, pred);
            ScanPlan::decide(&ectx, &t, &t.chunks, &proj, pred, touched, 256, &kept, None)
        });
        assert_eq!(plan.dms_passes(), 1 + pred.iter().count());
        // The touched columns (grown once), the statistics view, the
        // per-lane compute sums, and per conjunct its pass, its slot in it
        // and its column list: no probe core, no cloned predicate, no pass
        // orders, and both paths costed on every chunk without a
        // descriptor chain or a width list being built.
        assert!(
            allocs <= 3 + 5 * pred.iter().count() as u64,
            "{allocs} allocations to plan {pred:?}"
        );
    }
}

#[test]
fn topk_consume_allocations_do_not_grow_with_the_batch() {
    let consume = |rows: usize| {
        let batch = Batch::new(vec![
            i64_col(rows, |i| (i * 7919) % 10_007),
            i64_col(rows, |i| i),
        ]);
        let mut c = core();
        let mut acc = TopK::new(vec![SortKey { col: 0, desc: true }], 5);
        let ((), allocs, _) = measured(|| acc.consume(&mut c, batch).unwrap());
        allocs
    };
    let (small, large) = (consume(1_000), consume(16_000));
    assert_eq!(small, large, "allocations for 1 000 vs 16 000 rows");
    assert!(small <= 4, "{small} allocations in one consume");
}

#[test]
fn join_build_allocations_do_not_grow_with_the_build_side() {
    // 64 distinct keys: the heavy-hitter sketch fills its 16 slots and
    // replaces its minimum for most rows.
    let build = |rows: usize| {
        let keys = i64_col(rows, |i| (i * 31) % 64);
        let mut c = core();
        let (r, allocs, _) = measured(|| JoinTable::build(&mut c, &[&keys], rows / 2, true));
        let (table, stats) = r.unwrap();
        assert!(table.overflowed(), "half the rows must spill to DRAM");
        assert_eq!(stats.in_dmem + stats.overflowed + stats.heavy_rows, rows);
        allocs
    };
    let (small, large) = (build(1_000), build(16_000));
    // What may differ: shrinking the DMEM segment until it fits, and the
    // growth steps of the match lists.
    assert!(
        large.abs_diff(small) <= 16,
        "{small} allocations for 1 000 build rows, {large} for 16 000"
    );
}

#[test]
fn one_round_partition_writes_its_input_once() {
    let batches: Vec<Batch> = (0..4)
        .map(|b| Batch::new((0..4).map(|c| i64_col(ROWS, |i| i * 4 + b + c)).collect()))
        .collect();
    let rows = 4 * ROWS as u64;
    let input: u64 = batches.iter().map(|b| b.size_bytes() as u64).sum();
    let fanout = 32u64;
    // The map: one row id per row, and the offsets with their cursor copy.
    let map = 4 * rows + 2 * 4 * (fanout + 1);
    let mut c = core();
    let (parts, _, bytes) = measured(|| partition_scheme(&mut c, batches, &[0], &[32], 256));
    let parts = parts.unwrap();
    assert_eq!(parts.iter().map(Batch::rows).sum::<usize>() as u64, rows);
    assert!(
        bytes <= input * 3 / 2 + map,
        "{bytes} bytes to partition {input} (budget {})",
        input * 3 / 2 + map
    );
}

#[test]
fn a_partition_round_allocates_per_round_not_per_lane() {
    // 64 tiles of 256 rows: one lane on one core, 32 lanes on 32.
    let pass = |cores: usize| {
        let batches: Vec<Batch> = (0..4)
            .map(|b| Batch::new((0..4).map(|c| i64_col(ROWS, |i| i * 4 + b + c)).collect()))
            .collect();
        let ectx = ExecContext::dpu().with_cores(cores);
        let mut lanes = 0;
        let (parts, allocs, bytes) = measured(|| {
            partition_pass(&ectx, batches, &[0], &[32], 256, None, |t, _, _| {
                lanes = t.parallelism
            })
        });
        assert_eq!(parts.unwrap().len(), 32);
        assert_eq!(lanes, cores);
        (allocs, bytes)
    };
    let ((one, one_bytes), (all, all_bytes)) = (pass(1), pass(32));
    // A lane owns its core's DMEM budget handle and nothing else: the
    // hashes, row ids and histograms of all lanes are slices of the
    // round's three buffers, and the tile's DMS cost is computed once.
    assert!(
        all <= one + 31 + 2,
        "{one} allocations on one lane, {all} on 32"
    );
    // 31 more histograms of 33 offsets, lane headers and budget handles.
    assert!(
        all_bytes <= one_bytes + 31 * (33 * 4 + 256),
        "{one_bytes} bytes on one lane, {all_bytes} on 32"
    );
}

#[test]
fn a_dpu_stage_allocates_per_stage_not_per_lane() {
    // No router: 4 items on 4 lanes, 64 on all 32 cores, two each.
    let ctx = ExecContext::dpu();
    let stage = |n: usize| {
        let items: Vec<usize> = (0..n).collect();
        let (out, allocs, _) = measured(|| {
            run_stage(&ctx, items, |core, i| {
                core.charge_kernel(Kernel::Other, &KernelCost::paired(10.0, 10.0));
                Ok(i)
            })
        });
        let (out, t) = out.unwrap();
        assert_eq!((out.len(), t.parallelism), (n, n.min(32)));
        allocs
    };
    let (four, sixty_four) = (stage(4), stage(64));
    // The lanes run in turn on one core handle: the stage's results and
    // items, and that handle's budget, whatever the lane count.
    assert_eq!(four, sixty_four);
    // Three, as when each backend had a runner of its own.
    assert!(four <= 3, "{four} allocations");
}

#[test]
fn a_map_over_kept_rows_allocates_for_what_it_computes_not_what_it_passes_through() {
    // A lane of a task scan -> map -> groupby.consume on the stream path:
    // the scan keeps half the rows of the sixteen-column chunk, the map
    // computes one sum and passes `passed` columns through, and the group
    // table reads the sum.
    let chunk = wide_chunk();
    let conjuncts = [Pred::CmpConst {
        col: 3,
        op: CmpOp::Lt,
        value: 2048,
    }];
    let aggs = [AggSpec {
        func: AggFunc::Sum,
        col: 0,
    }];
    let lane = |passed: usize| {
        let proj: Vec<usize> = (0..passed + 2).collect();
        let exprs: Vec<NamedExpr> = std::iter::once(Expr::add(Expr::Col(0), Expr::Col(1)))
            .chain((2..passed + 2).map(Expr::Col))
            .map(|expr| NamedExpr {
                expr,
                name: "e".into(),
                dtype: DataType::Int,
                scale: 0,
                dict: None,
            })
            .collect();
        let plan = ScanPlan::forced(AccessPath::Stream, &conjuncts, &proj, 0.5);
        let mut c = core();
        let mut table = GroupTable::new(0, &aggs, 16);
        let (done, allocs, _) = measured(|| {
            let (rows, _) = plan.scan_rows(
                &mut c,
                Span::new(std::slice::from_ref(&chunk), 0..ROWS),
                256,
            )?;
            let rows = map_rows(&mut c, rows, &exprs)?;
            table.consume_rows(&mut c, &rows, &[])
        });
        done.unwrap();
        assert_eq!(table.groups(), 1);
        allocs
    };
    // The kept rows stay in the tiles: a column the map only hands on is
    // neither compacted nor copied, whether it passes two or twelve.
    assert_eq!(lane(2), lane(12));
}
