//! A counting allocator: how many heap allocations the program makes, and
//! for how many bytes. Unlike any clock on a shared VM these counts repeat,
//! so they are the host-side cost an end-to-end bound can hold: cloned
//! batches, per-row values and JSON trees all show up here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counters are spread over shards so that threads do not share a cache
/// line on every allocation.
const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTS: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without destructors, so reading them inside
    // the allocator neither allocates nor registers anything.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    // `try_with` fails only while a thread's locals are torn down; those
    // last allocations go to shard 0.
    if PAUSED.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    let shard = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    // Relaxed: statistics that publish no other data.
    COUNTS[shard].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[shard]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The system allocator with every allocation counted. A reallocation
/// counts as one allocation of its new size.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; counting touches only atomics
// and const-initialised thread locals and never allocates.
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

/// Allocations and bytes requested so far, all threads: `(count, bytes)`.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(n, b), s| {
        (
            n + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Run `f` on this thread without counting what it allocates: the
/// benchmark's own checking is not the program's cost.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.replace(true);
    let r = f();
    PAUSED.set(was);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_counted_unless_paused() {
        // Other tests allocate on their own threads meanwhile, so only
        // lower bounds hold for the counted part.
        let (n0, b0) = totals();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        let (n1, b1) = totals();
        assert!(n1 > n0 && b1 >= b0 + 4096);
        drop(v);

        std::thread::scope(|s| {
            s.spawn(|| {
                let paused = PAUSED.get();
                let v = uncounted(|| {
                    assert!(PAUSED.get());
                    std::hint::black_box(vec![0u8; 1 << 20])
                });
                assert_eq!(PAUSED.get(), paused, "the flag is restored");
                drop(v);
            });
        });
    }
}
