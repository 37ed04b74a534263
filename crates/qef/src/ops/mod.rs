//! Data processing operators (§5.4, §6).
//!
//! Operators are vectorized: they consume and produce [`crate::batch::Batch`]es
//! (tiles), calling the primitive library for all per-row work. Pipeline
//! placement (which operators share a task, what the vector sizes are) is
//! the compiler's job; the engine invokes these implementations per stage.

pub mod filter;
pub mod groupby;
pub mod join;
pub mod join_filter;
pub mod map;
pub mod partition;
pub mod ranges;
pub mod setops;
pub mod sort;
pub mod topk;
pub mod window;
