//! The warehouse-scale fleet model and A/B experimentation framework.
//!
//! The paper's results are *fleet* results: weighted aggregates over
//! thousands of binaries (Figure 3) running co-located on heterogeneous
//! machines, measured by an experimentation framework that applies an
//! allocator change to 1% of machines and compares against a 1% control
//! group (§2.2). This crate reproduces that structure at laptop scale:
//!
//! * [`population`] — the Zipf-weighted binary population (Figure 3),
//! * [`experiment`] — the paired fleet-wide and per-workload A/B arms whose
//!   comparisons are the deltas of Figures 10/14 and Tables 1/2, plus the
//!   streaming 10⁵-machine survey (constant-size
//!   [`experiment::CellSummary`] folds),
//! * [`rollout`] — the §4.5 multiplicative composition of the four designs
//!   and the staged canary→100% wave schedule,
//! * [`report`] — fixed-width table output used by the `repro` harness.
//!
//! # Example
//!
//! ```no_run
//! use wsc_fleet::experiment::{try_run_fleet_arm, Comparison, FleetExperimentConfig};
//! use wsc_parallel::Engine;
//! use wsc_tcmalloc::TcmallocConfig;
//!
//! let (engine, cfg) = (Engine::from_env(), FleetExperimentConfig::quick(42));
//! let arm = |tcm_cfg| try_run_fleet_arm(&engine, tcm_cfg, &cfg).expect("no cell panics");
//! let ab = Comparison {
//!     control: arm(TcmallocConfig::baseline()).weighted_means(),
//!     experiment: arm(TcmallocConfig::optimized()).weighted_means(),
//! };
//! println!("throughput {:+.2}%", ab.throughput_pct());
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
