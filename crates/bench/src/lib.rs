//! The reproduction harness: one function per table/figure of the paper's
//! evaluation, shared between the `repro` binary, the golden-figure tests
//! and the self-benchmark package (`benchmark/`).
//!
//! Every function prints a paper-vs-measured table (via
//! [`wsc_fleet::report::Table`]) and returns the measured numbers so
//! integration tests can assert directions. `EXPERIMENTS.md` quotes the
//! output of `cargo run --release -p wsc-bench --bin repro -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod scale;

pub use scale::Scale;
/// The deterministic parallel execution engine (re-export of
/// [`wsc_parallel`]): experiments shard across `Scale::engine`'s worker
/// threads and merge in canonical task order, so every figure and table is
/// bit-identical at any `--threads` setting.
pub use wsc_parallel as parallel;
