//! Column encodings (§4.2): the type-level transforms that make every
//! value fixed-width — [`dsb`] (decimal scaled binary at one common scale
//! per column) for numerics and [`dict`] (order-preserving, updatable
//! dictionary) for strings.
//!
//! The one at-rest encoding a scan reads is the stored width: the load path
//! keeps each column at the narrowest of 1, 2, 4 or 8 bytes its values need
//! (see [`crate::table::TableBuilder`]). §4.2's per-vector lightweight
//! compression (RLE, bit-packing) is not reproduced.

pub mod dict;
pub mod dsb;
