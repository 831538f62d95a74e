//! # warehouse-alloc
//!
//! A from-scratch Rust reproduction of *Characterizing a Memory Allocator at
//! Warehouse Scale* (Zhou et al., ASPLOS 2024): a TCMalloc-class hierarchical
//! memory allocator, the paper's four warehouse-scale redesigns, and the full
//! measurement substrate — simulated kernel and hardware, calibrated workload
//! models, a fleet population, and the A/B experimentation framework — needed
//! to regenerate every table and figure of the paper's evaluation.
//!
//! This crate is the umbrella: it re-exports the workspace members.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tcmalloc`] | `wsc-tcmalloc` | the allocator: size classes, per-CPU caches, transfer caches, central free lists, hugepage-aware pageheap |
//! | [`sim_os`] | `wsc-sim-os` | mmap/THP/subrelease, rseq vCPU IDs, cpuset scheduler, simulated clock |
//! | [`sim_hw`] | `wsc-sim-hw` | CPU topology, NUCA latency, dTLB and LLC models, the Figure-4 cost model |
//! | [`workload`] | `wsc-workload` | workload models for every workload the paper names + the productivity driver |
//! | [`fleet`] | `wsc-fleet` | Zipf binary population, paired A/B experiments, rollout estimation |
//! | [`telemetry`] | `wsc-telemetry` | GWP-style sampling, histograms, mergeable summaries, correlation statistics |
//! | [`sanitizer`] | `wsc-sanitizer` | shadow-state checker, cross-tier conservation audits, structured violation reports |
//! | [`parallel`] | `wsc-parallel` | deterministic work-stealing engine: thread-count-invariant parallel experiments |
//! | [`prng`] | `wsc-prng` | deterministic xoshiro256++ PRNG (the workspace's only randomness source) |
//!
//! # Example
//!
//! ```
//! use warehouse_alloc::tcmalloc::{Tcmalloc, TcmallocConfig};
//! use warehouse_alloc::sim_hw::topology::{CpuId, Platform};
//! use warehouse_alloc::sim_os::clock::Clock;
//!
//! let platform = Platform::chiplet("milan-like", 2, 4, 8, 2);
//! let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), platform, Clock::new());
//! let a = tcm.malloc(1024, CpuId(3));
//! tcm.free(a.addr, 1024, CpuId(3));
//! assert_eq!(tcm.live_bytes(), 0);
//! ```
//!
//! To regenerate the paper's evaluation:
//!
//! ```text
//! cargo run --release -p wsc-bench --bin repro -- all
//! ```

#![forbid(unsafe_code)]

pub use wsc_fleet as fleet;
pub use wsc_parallel as parallel;
pub use wsc_prng as prng;
pub use wsc_sanitizer as sanitizer;
pub use wsc_sim_hw as sim_hw;
pub use wsc_sim_os as sim_os;
pub use wsc_tcmalloc as tcmalloc;
pub use wsc_telemetry as telemetry;
pub use wsc_workload as workload;
