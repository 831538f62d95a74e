//! The pageheap's OS boundary: the *only* sanctioned path to the simulated
//! kernel ([`Vmm`]).
//!
//! Every `mmap`/`munmap`/`madvise` the pageheap issues flows through
//! [`OsLayer`], which is where the failure model of the fault-injecting
//! kernel meets allocator policy:
//!
//! * **Hard memory limit** — an `mmap` that would push resident bytes past
//!   the configured limit fails with [`AllocError::HardLimit`] *before*
//!   reaching the kernel (TCMalloc's hard-limit semantics: the limit is
//!   enforced by the allocator, not the OS).
//! * **ENOMEM** — a denied `mmap` surfaces as [`AllocError::OsEnomem`]; the
//!   pageheap reacts with synchronous release-and-retry.
//! * **THP denial** — when compaction fails and a mapping comes back
//!   4 KiB-backed, the affected hugepages are tracked in a *denied set* and
//!   the layer enters a degraded state
//!   ([`AllocEvent::Degraded`]); background maintenance retries a
//!   khugepaged-style collapse ([`OsLayer::promote_denied`]) and emits
//!   [`AllocEvent::Recovered`] as coverage is rebuilt.
//!
//! Each boundary crossing is reported on the event bus ([`AllocEvent::OsFault`],
//! [`AllocEvent::BackingDenied`], [`AllocEvent::LimitHit`]), so telemetry,
//! traces, and the sanitizer see the same failure stream the allocator acted
//! on. The `infallible-os` lint (tools) denies direct [`Vmm`] construction
//! or mutation outside this module and the sim-os crate itself.

use crate::events::{AllocEvent, EventBus, OsOp};
use std::collections::BTreeSet;
use std::fmt;
use wsc_sim_os::addr::{align_up, HUGE_PAGE_BYTES};
use wsc_sim_os::pagetable::PageTable;
use wsc_sim_os::vmm::{Vmm, VmmStats};
use wsc_sim_os::{FaultStats, OsError};

/// A structured allocation failure: the pageheap could not satisfy a
/// request. Surfaced through
/// [`Tcmalloc::try_malloc`](crate::Tcmalloc::try_malloc) instead of a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The (simulated) kernel denied the backing `mmap` with ENOMEM and
    /// release-and-retry could not free enough memory.
    OsEnomem,
    /// The configured hard memory limit would be exceeded.
    HardLimit {
        /// Resident bytes at the time of the refused request.
        resident: u64,
        /// The configured hard limit.
        limit: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OsEnomem => write!(f, "mmap failed with ENOMEM after retries"),
            AllocError::HardLimit { resident, limit } => {
                write!(f, "hard memory limit: resident {resident} B of {limit} B")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The sanctioned wrapper around the simulated kernel.
#[derive(Clone, Debug)]
pub struct OsLayer {
    vmm: Vmm,
    hard_limit: Option<u64>,
    /// Hugepage base addresses whose THP backing was denied at `mmap` time
    /// and not yet rebuilt. Ordered so promotion passes are deterministic.
    denied: BTreeSet<u64>,
    degraded: bool,
}

impl OsLayer {
    /// Wraps a kernel, enforcing `hard_limit` (bytes) on resident growth.
    pub fn new(vmm: Vmm, hard_limit: Option<u64>) -> Self {
        Self {
            vmm,
            hard_limit,
            denied: BTreeSet::new(),
            degraded: false,
        }
    }

    /// An infallible kernel with no limit — the pre-failure-model behaviour.
    pub fn infallible() -> Self {
        Self::new(Vmm::new(), None)
    }

    /// Maps `len` bytes (hugepage-rounded), enforcing the hard limit and
    /// reporting kernel faults on the bus.
    ///
    /// # Errors
    ///
    /// [`AllocError::HardLimit`] when the mapping would push residency past
    /// the limit (emits [`AllocEvent::LimitHit`]); [`AllocError::OsEnomem`]
    /// when the kernel denies the call (emits [`AllocEvent::OsFault`]).
    pub fn mmap(&mut self, len: u64, bus: &mut EventBus) -> Result<u64, AllocError> {
        let rounded = align_up(len, HUGE_PAGE_BYTES);
        if let Some(limit) = self.hard_limit {
            let resident = self.vmm.page_table().resident_bytes();
            if resident + rounded > limit {
                bus.emit(AllocEvent::LimitHit {
                    hard: true,
                    resident,
                    limit,
                });
                return Err(AllocError::HardLimit { resident, limit });
            }
        }
        match self.vmm.mmap(len) {
            Ok(grant) => {
                if grant.latency_ns > 0 {
                    bus.emit(AllocEvent::OsFault {
                        op: OsOp::Mmap,
                        failed: false,
                        latency_ns: grant.latency_ns,
                    });
                }
                if !grant.huge_backed {
                    bus.emit(AllocEvent::BackingDenied {
                        base: grant.addr,
                        bytes: rounded,
                    });
                    for hp in 0..rounded / HUGE_PAGE_BYTES {
                        self.denied.insert(grant.addr + hp * HUGE_PAGE_BYTES);
                    }
                    if !self.degraded {
                        self.degraded = true;
                        bus.emit(AllocEvent::Degraded {
                            denied_hugepages: self.denied.len() as u64,
                        });
                    }
                }
                Ok(grant.addr)
            }
            Err(_) => {
                bus.emit(AllocEvent::OsFault {
                    op: OsOp::Mmap,
                    failed: true,
                    latency_ns: 0,
                });
                Err(AllocError::OsEnomem)
            }
        }
    }

    /// Unmaps a hugepage-granular range and forgets any denied-backing
    /// bookkeeping for it.
    // lint:allow(event-completeness) munmap cannot fail in the fault
    // model; the caller emits the SpanDealloc/Release event for the same
    // range, so an OsFault here would be noise.
    pub fn munmap(&mut self, addr: u64, len: u64) {
        for hp in 0..align_up(len, HUGE_PAGE_BYTES) / HUGE_PAGE_BYTES {
            self.denied.remove(&(addr + hp * HUGE_PAGE_BYTES));
        }
        self.vmm.munmap(addr, len);
    }

    /// Subreleases a range, reporting injected failures and latency on the
    /// bus. Residency is unchanged on error — the caller must not mark the
    /// pages released.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's [`OsError`] (flaky `madvise` or a stray
    /// subrelease of an unmapped range).
    pub fn subrelease(&mut self, addr: u64, len: u64, bus: &mut EventBus) -> Result<(), OsError> {
        match self.vmm.subrelease(addr, len) {
            Ok(latency_ns) => {
                // A subreleased hugepage is broken for good — the kernel
                // never rebuilds subrelease-broken backings — so it stops
                // being a *denied* hugepage awaiting re-promotion and
                // becomes ordinary small-backed memory.
                let first = addr - addr % HUGE_PAGE_BYTES;
                let last = align_up(addr + len, HUGE_PAGE_BYTES);
                for hp in (first..last).step_by(HUGE_PAGE_BYTES as usize) {
                    self.denied.remove(&hp);
                }
                if latency_ns > 0 {
                    bus.emit(AllocEvent::OsFault {
                        op: OsOp::Subrelease,
                        failed: false,
                        latency_ns,
                    });
                }
                Ok(())
            }
            Err(err) => {
                bus.emit(AllocEvent::OsFault {
                    op: OsOp::Subrelease,
                    failed: true,
                    latency_ns: 0,
                });
                Err(err)
            }
        }
    }

    /// Faults a subreleased range back in.
    // lint:allow(event-completeness) infallible in the fault model; the
    // filler emits HugepageFill { reused: true } for exactly this range.
    pub fn reoccupy(&mut self, addr: u64, len: u64) {
        self.vmm.reoccupy(addr, len);
    }

    /// Background khugepaged pass: attempt to collapse every denied-backing
    /// hugepage back to huge. Emits [`AllocEvent::Recovered`] when any
    /// backing is rebuilt; leaves vetoed candidates for the next pass.
    /// Returns the number of hugepages re-promoted.
    pub fn promote_denied(&mut self, bus: &mut EventBus) -> u64 {
        let mut repromoted = 0u64;
        let candidates: Vec<u64> = self.denied.iter().copied().collect();
        for base in candidates {
            if self.vmm.collapse_huge(base) {
                self.denied.remove(&base);
                repromoted += 1;
            } else if !self.vmm.page_table().is_mapped(base) {
                // Unmapped since it was denied; nothing left to promote.
                self.denied.remove(&base);
            }
        }
        if repromoted > 0 {
            bus.emit(AllocEvent::Recovered { repromoted });
        }
        if self.degraded && self.denied.is_empty() {
            self.degraded = false;
        }
        repromoted
    }

    /// True while denied-backing hugepages are outstanding.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Denied-backing hugepages still awaiting re-promotion.
    pub fn denied_hugepages(&self) -> u64 {
        self.denied.len() as u64
    }

    /// The configured hard limit, bytes.
    pub fn hard_limit(&self) -> Option<u64> {
        self.hard_limit
    }

    /// The process page table (backing/residency state).
    pub fn page_table(&self) -> &PageTable {
        self.vmm.page_table()
    }

    /// The wrapped kernel (read-only; mutation must go through this layer).
    pub fn vmm(&self) -> &Vmm {
        &self.vmm
    }

    /// Syscall counters.
    pub fn stats(&self) -> VmmStats {
        self.vmm.stats()
    }

    /// Fault-injection counters (zero without a plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.vmm.fault_stats()
    }
}

impl Default for OsLayer {
    fn default() -> Self {
        Self::infallible()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::TcmallocConfig;
    use wsc_sim_hw::cost::CostModel;
    use wsc_sim_os::clock::Clock;
    use wsc_sim_os::faults::{FaultPlan, PPM};

    fn bus() -> EventBus {
        EventBus::new(
            &TcmallocConfig::baseline().with_trace(crate::events::TraceRing::UNBOUNDED),
            CostModel::production(),
            Clock::new(),
        )
    }

    #[test]
    fn hard_limit_refuses_before_the_kernel() {
        let mut os = OsLayer::new(Vmm::new(), Some(2 * HUGE_PAGE_BYTES));
        let mut b = bus();
        os.mmap(HUGE_PAGE_BYTES, &mut b).unwrap();
        os.mmap(HUGE_PAGE_BYTES, &mut b).unwrap();
        let err = os.mmap(HUGE_PAGE_BYTES, &mut b).unwrap_err();
        assert_eq!(
            err,
            AllocError::HardLimit {
                resident: 2 * HUGE_PAGE_BYTES,
                limit: 2 * HUGE_PAGE_BYTES,
            }
        );
        // The refused call never reached the kernel.
        assert_eq!(os.stats().mmap_calls, 2);
        let hits = b
            .stream()
            .iter()
            .filter(|e| matches!(e, AllocEvent::LimitHit { hard: true, .. }))
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn enomem_is_reported_and_structured() {
        let plan = FaultPlan {
            enomem_ppm: PPM,
            ..FaultPlan::off()
        };
        let mut os = OsLayer::new(Vmm::with_faults(plan, Clock::new()), None);
        let mut b = bus();
        assert_eq!(os.mmap(HUGE_PAGE_BYTES, &mut b), Err(AllocError::OsEnomem));
        assert!(b.stream().iter().any(|e| matches!(
            e,
            AllocEvent::OsFault {
                op: OsOp::Mmap,
                failed: true,
                ..
            }
        )));
    }

    #[test]
    fn denied_backing_degrades_then_promotion_recovers() {
        let plan = FaultPlan {
            deny_huge_ppm: PPM,
            ..FaultPlan::off()
        }
        .with_storm(0, 1_000);
        let clock = Clock::new();
        let mut os = OsLayer::new(Vmm::with_faults(plan, clock.clone()), None);
        let mut b = bus();
        let addr = os.mmap(2 * HUGE_PAGE_BYTES, &mut b).unwrap();
        assert!(os.is_degraded());
        assert_eq!(os.denied_hugepages(), 2);
        assert_eq!(os.page_table().hugepage_coverage(), 0.0);
        assert!(b
            .stream()
            .iter()
            .any(|e| matches!(e, AllocEvent::BackingDenied { base, bytes }
                if *base == addr && *bytes == 2 * HUGE_PAGE_BYTES)));
        assert!(b.stream().iter().any(|e| matches!(
            e,
            AllocEvent::Degraded {
                denied_hugepages: 2
            }
        )));

        // Storm over: the khugepaged pass rebuilds both hugepages.
        clock.advance(2_000);
        assert_eq!(os.promote_denied(&mut b), 2);
        assert!(!os.is_degraded());
        assert_eq!(os.denied_hugepages(), 0);
        assert!((os.page_table().hugepage_coverage() - 1.0).abs() < 1e-12);
        assert!(b
            .stream()
            .iter()
            .any(|e| matches!(e, AllocEvent::Recovered { repromoted: 2 })));
        // Idempotent once healthy.
        assert_eq!(os.promote_denied(&mut b), 0);
    }

    #[test]
    fn munmap_forgets_denied_entries() {
        let plan = FaultPlan {
            deny_huge_ppm: PPM,
            ..FaultPlan::off()
        };
        let mut os = OsLayer::new(Vmm::with_faults(plan, Clock::new()), None);
        let mut b = bus();
        let addr = os.mmap(HUGE_PAGE_BYTES, &mut b).unwrap();
        assert_eq!(os.denied_hugepages(), 1);
        os.munmap(addr, HUGE_PAGE_BYTES);
        assert_eq!(os.denied_hugepages(), 0);
        assert_eq!(os.promote_denied(&mut b), 0);
    }

    #[test]
    fn subrelease_failure_keeps_residency() {
        let plan = FaultPlan {
            subrelease_fail_ppm: PPM,
            ..FaultPlan::off()
        };
        let mut os = OsLayer::new(Vmm::with_faults(plan, Clock::new()), None);
        let mut b = bus();
        let addr = os.mmap(HUGE_PAGE_BYTES, &mut b).unwrap();
        let before = os.page_table().resident_bytes();
        assert!(os.subrelease(addr, 8192, &mut b).is_err());
        assert_eq!(os.page_table().resident_bytes(), before);
        assert!(b.stream().iter().any(|e| matches!(
            e,
            AllocEvent::OsFault {
                op: OsOp::Subrelease,
                failed: true,
                ..
            }
        )));
    }
}
