//! Allocation budgets of the wire codec: a frame is written into one
//! buffer and read straight from its bytes, so encoding a row batch costs a
//! few buffer growths whatever its size, and decoding costs the values it
//! hands back — each row's vector and each string — and nothing per cell
//! beyond that.
//!
//! Counts are per thread (the test harness runs tests side by side), and a
//! reallocation counts as one allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rapid_server::protocol::{decode, write_frame, Response};
use rapid_storage::types::Value;

thread_local! {
    // Const-initialised and without destructors: reading them inside the
    // allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; counting touches only a
// const-initialised thread local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while a thread's locals are torn down.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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

/// Run `f`, returning its result with the allocations this thread made
/// meanwhile.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

const ROWS: usize = 512;

/// A batch shaped like `SELECT o_orderkey, o_custkey, o_orderstatus,
/// o_totalprice, o_orderdate, o_orderpriority, o_shippriority FROM
/// orders`: five numbers and two strings a row.
fn orders_batch() -> (Response, usize) {
    const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
    let rows = (0..ROWS as i64)
        .map(|i| {
            vec![
                Value::Int(4 * i + 1),
                Value::Int(7 * i % 1499 + 1),
                Value::Str(["O", "F", "P"][i as usize % 3].into()),
                Value::Decimal {
                    unscaled: 15_000_000 + 7919 * i,
                    scale: 2,
                },
                Value::Date(8035 + (i as i32 * 13) % 2405),
                Value::Str(PRIORITIES[i as usize % 5].into()),
                Value::Int(0),
            ]
        })
        .collect();
    (Response::RowBatch { rows }, 2 * ROWS)
}

#[test]
fn encoding_a_row_batch_is_a_few_buffer_growths() {
    let (batch, _) = orders_batch();
    let mut frame = Vec::new();
    let (written, allocs) = measured(|| write_frame(&mut frame, &batch));
    written.unwrap();
    assert!(frame.len() > 40 * ROWS, "a {}-byte frame", frame.len());
    assert!(allocs <= 64, "{allocs} allocations to encode {ROWS} rows");
}

#[test]
fn decoding_a_row_batch_allocates_the_rows_and_strings_it_returns() {
    let (batch, string_cells) = orders_batch();
    let mut frame = Vec::new();
    write_frame(&mut frame, &batch).unwrap();
    let (decoded, allocs) = measured(|| decode::<Response>(&frame[4..]));
    assert_eq!(decoded.unwrap(), batch);
    let budget = (2 * ROWS + string_cells + 64) as u64;
    assert!(
        allocs <= budget,
        "{allocs} allocations to decode {ROWS} rows with {string_cells} strings, budget {budget}"
    );
}
