//! A TCMalloc-class hierarchical memory allocator with the warehouse-scale
//! redesigns of *Characterizing a Memory Allocator at Warehouse Scale*
//! (ASPLOS '24).
//!
//! The allocator implements the full production architecture (Figure 1):
//!
//! * ~85 [size classes](size_class) up to 256 KiB,
//! * lock-free-style [per-CPU front-end caches](percpu) indexed by dense
//!   virtual CPU IDs, with the §4.1 **heterogeneous dynamic sizing**,
//! * a [transfer cache](transfer) tier with the §4.2 **NUCA-aware
//!   per-LLC-domain sharding**,
//! * per-class [central free lists](central) managing spans, with the §4.3
//!   **span prioritization** (L = 8 occupancy lists),
//! * a [hugepage-aware pageheap](pageheap) (filler / region / cache) with
//!   the §4.4 **lifetime-aware hugepage filler** (capacity threshold C = 16),
//! * production-style [allocation sampling](wsc_telemetry::gwp) (1 / 2 MiB)
//!   and complete [cycle and fragmentation accounting](stats).
//!
//! Memory itself is a *simulated* 64-bit address space provided by
//! [`wsc_sim_os`]; every placement decision, hugepage backing state, and
//! cache-tier latency is therefore observable — which is the point of the
//! reproduction. All policies, parameters, and data structures match the
//! paper (and the open-source TCMalloc where the paper defers to it).
//!
//! # Quick start
//!
//! ```
//! use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
//! use wsc_sim_hw::topology::{CpuId, Platform};
//! use wsc_sim_os::clock::Clock;
//!
//! let platform = Platform::chiplet("milan-like", 2, 4, 8, 2);
//! let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), platform, Clock::new());
//!
//! let alloc = tcm.malloc(1024, CpuId(3));
//! assert!(alloc.actual_bytes >= 1024);
//! tcm.free(alloc.addr, 1024, CpuId(3));
//!
//! let frag = tcm.fragmentation();
//! assert_eq!(frag.live_bytes, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod central;
pub mod config;
pub mod deferred;
pub mod events;
pub mod interleave;
pub mod pageheap;
pub mod pagemap;
pub mod percpu;
pub mod size_class;
pub mod span;
pub mod stats;
pub mod transfer;

pub use alloc::{AllocOutcome, FreeError, FreeOutcomeInfo, Tcmalloc};
pub use config::{FreeArm, TcmallocConfig};
pub use deferred::DeferredFrees;
pub use events::{AllocEvent, EventBus, EventSink, TraceRing};
pub use pageheap::{AllocError, OsLayer};
pub use span::{ArenaStats, SpanId};
pub use stats::{CycleCategory, CycleStats, FragmentationBreakdown, StatsView};
pub use wsc_sanitizer::{ErrorKind, SanitizeLevel, SanitizerReport};
