//! The 32 KiB per-core scratchpad (DMEM) budget allocator.
//!
//! On the DPU, DMEM is a software-managed SRAM with single-cycle access
//! latency — the engine's most precious resource. Query compilation (task
//! formation, vector sizing, partition fan-out selection) is *driven* by the
//! 32 KiB capacity, so the simulator enforces it for real: operators obtain
//! their buffers through [`Dmem::alloc`], which fails when the budget is
//! exhausted, exercising exactly the spill/overflow code paths the paper
//! describes (e.g. the DMEM-resilient hash join of §6.4).
//!
//! Buffers themselves live on the host heap ([`DmemBuf`] wraps a `Vec<T>`);
//! what the type enforces is the *capacity discipline*, and what the cost
//! model charges is the single-cycle access latency. Dropping a `DmemBuf`
//! returns its reservation, RAII-style.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default DMEM capacity: 32 KiB per dpCore.
pub const DMEM_BYTES: usize = 32 * 1024;

/// Error returned when a DMEM reservation does not fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmemError {
    /// Bytes requested by the failed allocation.
    pub requested: usize,
    /// Bytes that were still free.
    pub available: usize,
}

impl fmt::Display for DmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DMEM exhausted: requested {} B, {} B available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for DmemError {}

#[derive(Debug)]
struct Budget {
    capacity: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
}

/// A per-core DMEM budget.
///
/// Cloning a `Dmem` yields another handle onto the *same* budget (the
/// scratchpad is physically one SRAM), so an operator pipeline sharing a
/// core also shares its DMEM.
#[derive(Debug, Clone)]
pub struct Dmem {
    budget: Arc<Budget>,
}

impl Dmem {
    /// A scratchpad with the DPU's 32 KiB capacity.
    pub fn new() -> Self {
        Self::with_capacity(DMEM_BYTES)
    }

    /// A scratchpad with a custom capacity (used by tests and by task
    /// formation experiments that sweep the budget).
    pub fn with_capacity(capacity: usize) -> Self {
        Dmem {
            budget: Arc::new(Budget {
                capacity,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.budget.capacity
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.budget.used.load(Ordering::Relaxed)
    }

    /// Bytes still free.
    pub fn available(&self) -> usize {
        self.capacity().saturating_sub(self.used())
    }

    /// High-water mark: the largest number of bytes ever reserved at once.
    /// Reported per stage by the tracing subsystem as DMEM occupancy.
    pub fn peak(&self) -> usize {
        self.budget.peak.load(Ordering::Relaxed)
    }

    /// Forget the high-water mark: the scratchpad of the next simulated
    /// core. Nothing may be reserved (what is would be released into the
    /// next core's budget).
    pub fn reset(&self) {
        debug_assert_eq!(self.used(), 0, "a reservation outlives its core");
        self.budget.peak.store(0, Ordering::Relaxed);
    }

    /// Reserve space for `len` elements of `T`, zero-initialised.
    ///
    /// Fails with [`DmemError`] when the reservation exceeds the remaining
    /// budget — callers are expected to either shrink their vectors (task
    /// formation) or overflow to DRAM (resilient hash join).
    pub fn alloc<T: Default + Clone>(&self, len: usize) -> Result<DmemBuf<T>, DmemError> {
        let bytes = len * std::mem::size_of::<T>();
        self.reserve(bytes)?;
        Ok(DmemBuf {
            data: vec![T::default(); len],
            bytes,
            budget: Arc::clone(&self.budget),
        })
    }

    /// Reserve raw bytes without creating a buffer (used for operator state
    /// that is modelled but not materialised, e.g. descriptor rings).
    pub fn reserve_raw(&self, bytes: usize) -> Result<DmemReservation, DmemError> {
        self.reserve(bytes)?;
        Ok(DmemReservation {
            bytes,
            budget: Arc::clone(&self.budget),
        })
    }

    fn reserve(&self, bytes: usize) -> Result<(), DmemError> {
        let mut cur = self.budget.used.load(Ordering::Relaxed);
        loop {
            let new = cur + bytes;
            if new > self.budget.capacity {
                return Err(DmemError {
                    requested: bytes,
                    available: self.budget.capacity - cur,
                });
            }
            match self.budget.used.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.budget.peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Default for Dmem {
    fn default() -> Self {
        Self::new()
    }
}

/// A typed buffer resident in (budgeted) DMEM. Derefs to a slice.
#[derive(Debug)]
pub struct DmemBuf<T> {
    data: Vec<T>,
    bytes: usize,
    budget: Arc<Budget>,
}

impl<T> DmemBuf<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes reserved against the DMEM budget.
    pub fn reserved_bytes(&self) -> usize {
        self.bytes
    }
}

impl<T> Deref for DmemBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> DerefMut for DmemBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for DmemBuf<T> {
    fn drop(&mut self) {
        self.budget.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// An untyped DMEM reservation released on drop.
#[derive(Debug)]
pub struct DmemReservation {
    bytes: usize,
    budget: Arc<Budget>,
}

impl DmemReservation {
    /// Bytes reserved.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for DmemReservation {
    fn drop(&mut self) {
        self.budget.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_release_roundtrip() {
        let dmem = Dmem::new();
        assert_eq!(dmem.capacity(), 32 * 1024);
        {
            let buf: DmemBuf<u32> = dmem.alloc(1024).unwrap();
            assert_eq!(buf.len(), 1024);
            assert_eq!(dmem.used(), 4096);
            assert!(buf.iter().all(|&x| x == 0));
        }
        assert_eq!(dmem.used(), 0);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let dmem = Dmem::with_capacity(100);
        let _a: DmemBuf<u8> = dmem.alloc(60).unwrap();
        let err = dmem.alloc::<u8>(60).unwrap_err();
        assert_eq!(err.requested, 60);
        assert_eq!(err.available, 40);
    }

    #[test]
    fn clones_share_one_budget() {
        let dmem = Dmem::with_capacity(64);
        let other = dmem.clone();
        let _buf: DmemBuf<u8> = dmem.alloc(48).unwrap();
        assert_eq!(other.available(), 16);
        assert!(other.alloc::<u8>(32).is_err());
    }

    #[test]
    fn raw_reservations_release_on_drop() {
        let dmem = Dmem::with_capacity(64);
        let r = dmem.reserve_raw(40).unwrap();
        assert_eq!(r.bytes(), 40);
        assert_eq!(dmem.available(), 24);
        drop(r);
        assert_eq!(dmem.available(), 64);
    }

    #[test]
    fn peak_tracks_high_water_not_current_use() {
        let dmem = Dmem::with_capacity(128);
        assert_eq!(dmem.peak(), 0);
        let a = dmem.reserve_raw(48).unwrap();
        let b = dmem.reserve_raw(32).unwrap();
        drop(a);
        drop(b);
        assert_eq!(dmem.used(), 0);
        assert_eq!(dmem.peak(), 80);
        let _c = dmem.reserve_raw(16).unwrap();
        assert_eq!(dmem.peak(), 80);
    }

    #[test]
    fn reset_forgets_the_peak() {
        let dmem = Dmem::with_capacity(128);
        drop(dmem.reserve_raw(48).unwrap());
        assert_eq!(dmem.peak(), 48);
        dmem.reset();
        assert_eq!((dmem.used(), dmem.peak()), (0, 0));
        let _r = dmem.reserve_raw(16).unwrap();
        assert_eq!(dmem.peak(), 16);
    }

    #[test]
    fn buffers_are_writable_slices() {
        let dmem = Dmem::new();
        let mut buf: DmemBuf<u64> = dmem.alloc(8).unwrap();
        buf[3] = 42;
        assert_eq!(buf[3], 42);
        assert_eq!(buf.reserved_bytes(), 64);
    }
}
