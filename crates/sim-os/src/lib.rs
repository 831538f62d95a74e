//! Simulated kernel memory subsystem and scheduler.
//!
//! TCMalloc is a userspace allocator, but the paper (§5 "Cooperation with
//! kernel features") stresses that its performance rests on three kernel
//! contracts, all of which this crate models:
//!
//! * **`mmap` and transparent hugepages** ([`vmm::Vmm`], [`pagetable`]) — the
//!   pageheap requests zeroed, hugepage-aligned 2 MiB blocks; the kernel
//!   backs them with hugepages, and *subrelease* breaks a hugepage into base
//!   pages (losing TLB reach, Figure 17),
//! * **restartable sequences / virtual CPU IDs** ([`rseq::VcpuRegistry`]) —
//!   dense per-process vCPU numbering that keeps the per-CPU cache array
//!   small on machines with hundreds of hyperthreads (§4.1),
//! * **the cpuset scheduler** ([`sched::Scheduler`]) — WSC applications are
//!   constrained to a subset of CPUs and their worker-thread count
//!   fluctuates with load (Figure 9a), which is what biases usage toward
//!   low-indexed vCPUs (Figure 9b).
//!
//! A shared [`clock::Clock`] supplies simulated nanoseconds to every layer.
//!
//! # Example
//!
//! ```
//! use wsc_sim_os::vmm::Vmm;
//! use wsc_sim_os::addr::HUGE_PAGE_BYTES;
//!
//! let mut vmm = Vmm::default();
//! let grant = vmm.mmap(HUGE_PAGE_BYTES).expect("no fault plan attached");
//! assert_eq!(grant.addr % HUGE_PAGE_BYTES, 0, "hugepage aligned");
//! assert!(vmm.page_table().is_huge_backed(grant.addr));
//! ```
//!
//! A fourth contract is that the kernel may *refuse* to cooperate: [`faults`]
//! models ENOMEM, THP compaction failure, flaky `madvise`, and latency
//! spikes as a seeded, deterministic [`faults::FaultPlan`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod faults;
pub mod pagetable;
pub mod rseq;
pub mod sched;
pub mod vmm;

pub use clock::Clock;
pub use faults::{FaultInjector, FaultPlan, FaultStats, OsError};
pub use rseq::VcpuRegistry;
pub use sched::Scheduler;
pub use vmm::{MmapGrant, Vmm};
