//! Warehouse-scale workload models and the request-level driver.
//!
//! The paper evaluates its allocator redesigns on production workloads
//! (Spanner, Monarch, Bigtable, F1 query, Disk), dedicated-server benchmarks
//! (Redis, a data-processing pipeline, an image-processing server,
//! TensorFlow Serving), SPEC CPU2006, and the fleet-wide binary mix. This
//! crate provides:
//!
//! * [`spec`] — the workload model vocabulary: size mixtures, size-
//!   conditional lifetime models, worker-thread dynamics, request structure;
//! * [`profiles`] — the concrete calibrated profiles for every workload the
//!   paper names (DESIGN.md documents each calibration);
//! * [`driver`] — the closed loop that replays a profile against a
//!   [`wsc_tcmalloc::Tcmalloc`] instance plus the LLC/dTLB models, yielding
//!   the paper's metrics (throughput, CPI, LLC MPKI, dTLB walk %, RAM);
//! * [`trace`] — recording the driver's workload (one generator feeds
//!   both) as a portable event sequence and replaying it against any
//!   allocator configuration.
//!
//! # Example
//!
//! ```
//! use wsc_workload::{driver, profiles};
//! use wsc_tcmalloc::TcmallocConfig;
//! use wsc_sim_hw::topology::Platform;
//!
//! let platform = Platform::chiplet("m", 1, 2, 4, 2);
//! let cfg = driver::DriverConfig::new(500, 42, &platform);
//! let (report, _tcm) = driver::run(
//!     &profiles::fleet_mix(), &platform, TcmallocConfig::baseline(), &cfg);
//! assert!(report.throughput > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
mod due;
mod generator;
pub mod profiles;
pub mod spec;
pub mod trace;

pub use driver::{DriverConfig, RunReport};
pub use spec::WorkloadSpec;
