//! `rapid_bench`: the repository's benchmark. Five workloads, both clocks,
//! every layer timed from outside — see `README.md` beside `Cargo.toml`.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod setup;
pub mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
