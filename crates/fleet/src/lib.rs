//! The warehouse-scale fleet model and A/B experimentation framework.
//!
//! The paper's results are *fleet* results: weighted aggregates over
//! thousands of binaries (Figure 3) running co-located on heterogeneous
//! machines, measured by an experimentation framework that applies an
//! allocator change to 1% of machines and compares against a 1% control
//! group (§2.2). This crate reproduces that structure at laptop scale:
//!
//! * [`population`] — the Zipf-weighted binary population (Figure 3),
//! * [`experiment`] — paired fleet-wide and per-workload A/B runs yielding
//!   the deltas of Figures 10/14 and Tables 1/2, plus the streaming
//!   10⁵-machine survey (constant-size [`experiment::CellSummary`] folds),
//! * [`rollout`] — the §4.5 multiplicative composition of the four designs
//!   and the staged canary→100% wave schedule,
//! * [`report`] — fixed-width table output used by the `repro` harness.
//!
//! # Example
//!
//! ```no_run
//! use wsc_fleet::experiment::{try_run_fleet_ab, FleetExperimentConfig};
//! use wsc_parallel::Engine;
//! use wsc_tcmalloc::TcmallocConfig;
//!
//! let cfg = FleetExperimentConfig::quick(42);
//! let result = try_run_fleet_ab(
//!     &Engine::from_env(),
//!     TcmallocConfig::baseline(),
//!     TcmallocConfig::optimized(),
//!     &cfg,
//! )
//! .expect("no cell panics");
//! println!("throughput {:+.2}%", result.fleet.throughput_pct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod population;
pub mod report;
pub mod rollout;

pub use experiment::{
    CellSummary, Comparison, FleetExperimentConfig, FleetSurveyConfig, MetricSet,
};
pub use population::Population;
pub use rollout::RolloutSchedule;
