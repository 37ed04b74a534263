//! Data Movement System (DMS): descriptor-programmed transfers between DRAM
//! and DMEM, with hash/range/radix/round-robin partitioning applied *while*
//! the data moves.
//!
//! On the DPU, "the majority of data accesses go through the DMEM using the
//! DMS" (§2.3): software programs **descriptors** (source, destination,
//! amount), chains them into **loops** for double buffering, and the engine
//! streams column buffers while the dpCores compute. For partitioning, the
//! engine buffers rows in dedicated SRAM (CMEM), runs CRC32/range matching
//! into CRC/CID memories, and scatters each row to the destination core's
//! DMEM.
//!
//! The simulator keeps that structure:
//!
//! * [`descriptor`] — descriptors and descriptor loops as data,
//! * [`engine`] — the timing model for streaming reads/writes/gathers
//!   ([`engine::DmsEngine`]), calibrated against Figure 9,
//! * [`partition`] — functional hardware partitioning (it really assigns
//!   every row to a target core) with timing calibrated against Figure 8.

pub mod descriptor;
pub mod engine;
pub mod partition;

pub use engine::{DmsCost, DmsEngine};
pub use partition::{HwPartitioner, PartitionStrategy};
