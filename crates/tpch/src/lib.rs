//! # tpch — TPC-H-style workload for the RAPID reproduction
//!
//! The paper evaluates RAPID on "a representative half of the TPC-H
//! queries" at scale factor 1000 on an 8-node cluster. This crate provides
//! the laptop-scale substitute: a deterministic generator for all eight
//! TPC-H tables ([`gen`]) and eleven queries
//! (Q1, Q3, Q4, Q5, Q6, Q9, Q10, Q12, Q14, Q18, Q19) as SQL statements
//! ([`queries`]), planned by the host database's front end for the RAPID
//! compiler — the operator mix
//! (scans, selective filters, multi-way joins, low- and high-NDV
//! group-bys, top-k) matches the spec's, which is what the figure shapes
//! depend on.
//!
//! Deviations from `dbgen` (documented in `DESIGN.md`): free-text comment
//! columns are omitted (no query among the eleven touches them), string
//! pools are spec-shaped but abbreviated, and order keys are dense rather
//! than sparse.

#![warn(missing_docs)]

pub mod gen;
pub mod queries;

pub use gen::{generate, TpchConfig, TpchData};
