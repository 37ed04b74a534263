//! # rapid-storage — the RAPID data and storage model (§4 of the paper)
//!
//! RAPID stores relations entirely in memory, organised for the DPU:
//!
//! ```text
//! Table ─▶ Chunks (row slices, in heap-slot order)
//!            └▶ one Vector per column
//!                 (flat fixed-width array, 16 KiB sweet spot)
//! Operators consume Tiles of ≥ 64 rows.
//! ```
//!
//! The DPU has no floating-point unit and strict alignment rules, so
//! **everything is fixed width**: decimals become *decimal scaled binary*
//! (DSB) integers at one common scale per column; strings become
//! order-preserving dictionary codes supporting range and prefix
//! predicates; and every column is stored at the narrowest of 1, 2, 4 or 8
//! bytes its values need.
//!
//! [`TableBuilder`] is the one way rows become a [`Table`]: the TPC-H
//! generator, `LOAD` and every checkpoint build through it. A chunk's
//! vectors are shared by `Arc`, so a checkpoint re-encodes only the chunks
//! whose heap slots a commit changed and shares the rest with the table
//! RAPID already holds. The crate also
//! owns the SCN timestamps and the row changes of a host commit (§3.3); a
//! table records the SCN it was built at.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bitvec;
pub mod chunk;
pub mod encoding;
pub mod like;
pub mod schema;
pub mod scn;
pub mod stats;
pub mod table;
pub mod types;
pub mod vector;

pub use bitvec::{BitVec, RidList};
pub use chunk::Chunk;
pub use schema::{Field, Schema};
pub use scn::Scn;
pub use stats::{ColumnStats, TableStats};
pub use table::{Table, TableBuilder};
pub use types::{DataType, Value};
pub use vector::{ColumnData, Vector};

/// The vector size sweet spot on the DPU: 16 KiB (§4.1), chosen to enable
/// double buffering and DMS/compute overlap.
pub const VECTOR_BYTES: usize = 16 * 1024;

/// Default rows per chunk: a 16 KiB vector of 4-byte elements.
pub const DEFAULT_CHUNK_ROWS: usize = VECTOR_BYTES / 4;
