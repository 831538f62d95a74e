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
//!   4 KiB-backed, the page table marks its hugepages denied and the layer
//!   enters a degraded state ([`AllocEvent::Degraded`]); background
//!   maintenance runs the kernel's khugepaged pass
//!   ([`OsLayer::promote_denied`]) and emits [`AllocEvent::Recovered`] as
//!   coverage is rebuilt.
//!
//! Each boundary crossing is reported on the event bus ([`AllocEvent::OsFault`],
//! [`AllocEvent::BackingDenied`], [`AllocEvent::LimitHit`]), so telemetry,
//! traces, and the sanitizer see the same failure stream the allocator acted
//! on. The `infallible-os` lint (tools) denies direct [`Vmm`] construction
//! or mutation outside this module and the sim-os crate itself.

use crate::events::{AllocEvent, EventBus, OsOp};
use std::fmt;
use wsc_sim_os::addr::{align_up, HUGE_PAGE_BYTES};
use wsc_sim_os::pagetable::PageTable;
use wsc_sim_os::vmm::{Vmm, VmmStats};
use wsc_sim_os::{Clock, FaultPlan, FaultStats, OsError};

/// A structured allocation failure: the pageheap could not satisfy a
/// request. Surfaced through
/// [`Tcmalloc::try_malloc_with_site`](crate::Tcmalloc::try_malloc_with_site)
/// instead of a panic.
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

/// The sanctioned wrapper around the simulated kernel. The
/// [`Default`] layer is an infallible kernel with no limit.
#[derive(Clone, Debug, Default)]
pub struct OsLayer {
    vmm: Vmm,
    hard_limit: Option<u64>,
    /// Set by a denied `mmap`, cleared by the first khugepaged pass that
    /// finds no denied hugepage left.
    degraded: bool,
}

impl OsLayer {
    /// This layer over an emptied kernel, enforcing `hard_limit` (bytes)
    /// on resident growth: `faults` attaches a plan judged against `clock`
    /// ([`Vmm::renew`]), none an infallible kernel. The page table's
    /// storage is kept.
    pub fn renew(self, faults: Option<FaultPlan>, clock: Clock, hard_limit: Option<u64>) -> Self {
        Self {
            vmm: self.vmm.renew(faults, clock),
            hard_limit,
            degraded: false,
        }
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
                    if !self.degraded {
                        self.degraded = true;
                        bus.emit(AllocEvent::Degraded {
                            denied_hugepages: self.denied_hugepages(),
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

    /// Unmaps a hugepage-granular range.
    // lint:allow(event-completeness) munmap cannot fail in the fault
    // model; the caller emits the SpanDealloc/Release event for the same
    // range, so an OsFault here would be noise.
    pub fn munmap(&mut self, addr: u64, len: u64) {
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

    /// Background khugepaged pass ([`Vmm::khugepaged`]): attempt to
    /// collapse every denied-backing hugepage back to huge. Emits
    /// [`AllocEvent::Recovered`] when any backing is rebuilt; vetoed
    /// candidates stay denied for the next pass. Returns the number of
    /// hugepages re-promoted.
    pub fn promote_denied(&mut self, bus: &mut EventBus) -> u64 {
        let repromoted = self.vmm.khugepaged();
        if repromoted > 0 {
            bus.emit(AllocEvent::Recovered { repromoted });
        }
        if self.degraded && self.denied_hugepages() == 0 {
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
        self.vmm.page_table().denied_hugepages()
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

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::TcmallocConfig;
    use wsc_sim_os::clock::Clock;
    use wsc_sim_os::faults::{FaultPlan, PPM};

    fn bus() -> EventBus {
        EventBus::default().renew(
            &TcmallocConfig::baseline().with_trace(crate::events::TraceRing::UNBOUNDED),
            Clock::new(),
        )
    }

    #[test]
    fn hard_limit_refuses_before_the_kernel() {
        let mut os = OsLayer::default().renew(None, Clock::new(), Some(2 * HUGE_PAGE_BYTES));
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
        let mut os = OsLayer::default().renew(Some(plan), Clock::new(), None);
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
        let mut os = OsLayer::default().renew(Some(plan), clock.clone(), None);
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
    fn unmapped_or_broken_denied_hugepages_clear_degraded_at_the_next_pass() {
        let plan = FaultPlan {
            deny_huge_ppm: PPM,
            ..FaultPlan::off()
        };
        let mut os = OsLayer::default().renew(Some(plan), Clock::new(), None);
        let mut b = bus();
        let addr = os.mmap(2 * HUGE_PAGE_BYTES, &mut b).unwrap();
        os.munmap(addr, HUGE_PAGE_BYTES);
        os.subrelease(addr + HUGE_PAGE_BYTES, 8192, &mut b).unwrap();
        assert_eq!(os.denied_hugepages(), 0, "a subrelease breaks it for good");
        assert!(os.is_degraded(), "the flag waits for the khugepaged pass");
        assert_eq!(os.promote_denied(&mut b), 0);
        assert!(!os.is_degraded());
    }

    #[test]
    fn subrelease_failure_keeps_residency() {
        let plan = FaultPlan {
            subrelease_fail_ppm: PPM,
            ..FaultPlan::off()
        };
        let mut os = OsLayer::default().renew(Some(plan), Clock::new(), None);
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
