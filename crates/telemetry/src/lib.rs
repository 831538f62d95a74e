//! GWP-style continuous-profiling primitives for the warehouse-scale
//! allocator study.
//!
//! The paper collects fleet statistics with Google-Wide Profiling (GWP): a
//! sampling profiler that picks a small fraction of machines each day and
//! records allocator telemetry. This crate provides the building blocks that
//! the rest of the workspace uses to reproduce those measurements:
//!
//! * [`histogram::LogHistogram`] — log2-bucketed weighted histograms used for
//!   object-size and lifetime distributions (paper Figures 7 and 8),
//! * [`stats`] — summary statistics plus Pearson and Spearman correlation
//!   (the paper reports a Spearman coefficient of −0.75 in Figure 16),
//! * [`timeseries::TimeSeries`] — time-indexed samples (Figure 9a),
//! * [`summary::MetricSummary`] / [`summary::BucketSeries`] — constant-size,
//!   exactly-mergeable accumulators the streaming fleet engine folds
//!   per-cell telemetry into (any thread/shard partition reduces to the
//!   same bytes),
//! * [`gwp`] — the byte-threshold allocation sampler (1 sample / 2 MiB, as in
//!   production TCMalloc) and profile aggregation across machines.
//!
//! # Example
//!
//! ```
//! use wsc_telemetry::histogram::LogHistogram;
//!
//! let mut sizes = LogHistogram::new();
//! for s in [8u64, 24, 24, 1024, 1 << 20] {
//!     sizes.record(s, 1.0);
//! }
//! assert_eq!(sizes.count(), 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gwp;
pub mod histogram;
pub mod stats;
pub mod summary;
pub mod timeseries;

pub use histogram::LogHistogram;
pub use summary::{BucketSeries, Coverage, MetricSummary};
pub use timeseries::TimeSeries;
