//! The `mmap` interface between the allocator and the simulated kernel.
//!
//! TCMalloc's pageheap requests zero-initialized, hugepage-aligned blocks
//! from the OS — the paper measures this refill at 12 916.7 ns (Figure 4),
//! orders of magnitude above any cache hit, "highlighting the need for
//! caching in a userspace allocator". [`Vmm`] hands out hugepage-aligned
//! virtual ranges, keeps the [`PageTable`] in sync, and counts syscalls so
//! the cost model can charge them.

use crate::addr::HUGE_PAGE_BYTES;
use crate::clock::Clock;
use crate::faults::{FaultInjector, FaultPlan, FaultStats, OsError};
use crate::pagetable::PageTable;

/// Syscall counters for one process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmmStats {
    /// `mmap` calls.
    pub mmap_calls: u64,
    /// `munmap` calls.
    pub munmap_calls: u64,
    /// `madvise(DONTNEED)` (subrelease) calls.
    pub madvise_calls: u64,
    /// Total bytes ever requested via `mmap`.
    pub mmap_bytes: u64,
}

/// A successful `mmap`: the granted range plus how the kernel actually
/// behaved — whether THP backed it with hugepages and any injected latency
/// excursion (charged through the cost model by the caller).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmapGrant {
    /// Hugepage-aligned base address of the mapping.
    pub addr: u64,
    /// True if every 2 MiB of the mapping is hugepage-backed; false means
    /// THP compaction failed and the range came back 4 KiB-backed.
    pub huge_backed: bool,
    /// Injected syscall latency beyond the nominal `mmap` cost, ns.
    pub latency_ns: u64,
}

/// Simulated per-process virtual memory manager.
///
/// Virtual addresses start at a canonical heap base and grow upward;
/// `munmap`ed ranges are not recycled (matching how TCMalloc treats its
/// address space as plentiful on 64-bit). A [`FaultInjector`] can ride
/// along ([`Vmm::with_faults`]) to deny or degrade calls deterministically;
/// without one every call succeeds, exactly as before.
///
/// # Example
///
/// ```
/// use wsc_sim_os::vmm::Vmm;
/// use wsc_sim_os::addr::HUGE_PAGE_BYTES;
///
/// let mut vmm = Vmm::new();
/// let a = vmm.mmap(10).expect("no fault plan attached"); // rounded up to one hugepage
/// let b = vmm.mmap(3 * HUGE_PAGE_BYTES).expect("no fault plan attached");
/// assert_ne!(a.addr, b.addr);
/// assert!(a.huge_backed);
/// assert_eq!(vmm.page_table().mapped_bytes(), 4 * HUGE_PAGE_BYTES);
/// ```
#[derive(Clone, Debug)]
pub struct Vmm {
    next_addr: u64,
    page_table: PageTable,
    stats: VmmStats,
    faults: Option<FaultInjector>,
}

/// Base of the simulated heap (an arbitrary canonical user-space address).
pub const HEAP_BASE: u64 = 0x7f00_0000_0000;

impl Vmm {
    /// Creates an empty address space with an infallible kernel.
    pub fn new() -> Self {
        Self {
            next_addr: HEAP_BASE,
            page_table: PageTable::new(),
            stats: VmmStats::default(),
            faults: None,
        }
    }

    /// Creates an empty address space whose kernel injects faults per
    /// `plan`, judging storm windows against the simulation `clock`.
    pub fn with_faults(plan: FaultPlan, clock: Clock) -> Self {
        let mut vmm = Self::new();
        vmm.faults = Some(FaultInjector::new(plan, clock));
        vmm
    }

    /// This address space emptied, exactly as [`new`](Self::new) (no
    /// `faults`) or [`with_faults`](Self::with_faults) builds one, with the
    /// page table's storage kept.
    pub fn renew(self, faults: Option<FaultPlan>, clock: Clock) -> Self {
        let fresh = faults.map_or_else(Self::new, |plan| Self::with_faults(plan, clock));
        Self {
            page_table: self.page_table.renew(),
            ..fresh
        }
    }

    /// Injection counters, if a fault plan is attached.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(FaultInjector::stats)
            .unwrap_or_default()
    }

    /// Maps `len` bytes (rounded up to whole hugepages), hugepage-aligned
    /// and zero-initialized.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::Enomem`] when the grant would not fit the address
    /// space (it would spread the page table past its 1 TiB window) or the
    /// fault plan denies the call; the address space is unchanged either
    /// way. Without a plan every call that fits succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn mmap(&mut self, len: u64) -> Result<MmapGrant, OsError> {
        assert!(len > 0, "mmap of zero bytes");
        let addr = self.next_addr;
        // The address-space limit comes first: an impossible request is
        // refused whatever the fault plan would have drawn for it.
        let len = match len.checked_next_multiple_of(HUGE_PAGE_BYTES) {
            Some(l) if addr.checked_add(l).is_some() && self.page_table.fits(addr, l) => l,
            _ => {
                // A failed syscall is still a syscall.
                self.stats.mmap_calls += 1;
                return Err(OsError::Enomem);
            }
        };
        let (huge_backed, latency_ns) = match self.faults.as_mut() {
            Some(inj) => {
                let d = inj.on_mmap();
                if d.deny {
                    self.stats.mmap_calls += 1;
                    return Err(OsError::Enomem);
                }
                (d.huge_backed, d.latency_ns)
            }
            None => (true, 0),
        };
        self.next_addr += len;
        // The bump allocator never reuses addresses, so this cannot
        // double-map.
        self.page_table.on_mmap_backed(addr, len, huge_backed);
        self.stats.mmap_calls += 1;
        self.stats.mmap_bytes += len;
        Ok(MmapGrant {
            addr,
            huge_backed,
            latency_ns,
        })
    }

    /// Unmaps a hugepage-granular range previously returned by [`mmap`].
    ///
    /// # Panics
    ///
    /// Panics if any part of the range is not currently mapped or the range
    /// is misaligned.
    ///
    /// [`mmap`]: Self::mmap
    pub fn munmap(&mut self, addr: u64, len: u64) {
        assert!(
            addr.is_multiple_of(HUGE_PAGE_BYTES) && len.is_multiple_of(HUGE_PAGE_BYTES) && len > 0,
            "munmap must be hugepage-granular"
        );
        self.page_table.on_munmap(addr, len);
        self.stats.munmap_calls += 1;
    }

    /// Subreleases (`madvise(DONTNEED)`) a TCMalloc-page-granular range:
    /// memory is returned to the OS but the mapping stays, with any touched
    /// hugepages broken into base pages. On success, returns any injected
    /// latency (ns) for the caller to charge.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::SubreleaseFailed`] when the fault plan fails the
    /// call, or [`OsError::UnmappedRange`] for a stray subrelease of an
    /// unmapped range; residency is unchanged in both cases.
    pub fn subrelease(&mut self, addr: u64, len: u64) -> Result<u64, OsError> {
        let latency_ns = match self.faults.as_mut() {
            Some(inj) => {
                let d = inj.on_subrelease();
                if d.fail {
                    self.stats.madvise_calls += 1;
                    return Err(OsError::SubreleaseFailed);
                }
                d.latency_ns
            }
            None => 0,
        };
        self.page_table.subrelease(addr, len)?;
        self.stats.madvise_calls += 1;
        Ok(latency_ns)
    }

    /// Marks a range as touched again after subrelease (page-fault back in).
    pub fn reoccupy(&mut self, addr: u64, len: u64) {
        self.page_table.reoccupy(addr, len);
    }

    /// One khugepaged pass: every denied hugepage, in ascending address
    /// order, that is fully resident again collapses back to huge unless
    /// the fault plan vetoes it (a vetoed one stays denied for the next
    /// pass). Returns the number of hugepages re-promoted.
    pub fn khugepaged(&mut self) -> u64 {
        if self.page_table.denied_hugepages() == 0 {
            return 0;
        }
        let denied: Vec<u64> = self.page_table.denied_bases().collect();
        let mut repromoted = 0;
        for base in denied {
            if self.page_table.is_fully_resident(base)
                && self.faults.as_mut().is_none_or(FaultInjector::on_collapse)
                && self.page_table.promote(base)
            {
                repromoted += 1;
            }
        }
        repromoted
    }

    /// The process page table (backing/residency state).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Syscall counters.
    pub fn stats(&self) -> VmmStats {
        self.stats
    }
}

impl Default for Vmm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::addr::align_up;
    use crate::faults::PPM;

    /// mmap that must succeed (fault-free or between storms).
    fn mmap_ok(vmm: &mut Vmm, len: u64) -> u64 {
        vmm.mmap(len).expect("mmap granted").addr
    }

    #[test]
    fn mmap_alignment_and_rounding() {
        let mut vmm = Vmm::new();
        let a = mmap_ok(&mut vmm, 1);
        assert_eq!(a % HUGE_PAGE_BYTES, 0);
        assert_eq!(vmm.page_table().mapped_bytes(), HUGE_PAGE_BYTES);
        assert_eq!(vmm.stats().mmap_calls, 1);
        assert_eq!(vmm.stats().mmap_bytes, HUGE_PAGE_BYTES);
    }

    #[test]
    fn mappings_never_overlap() {
        let mut vmm = Vmm::new();
        let mut ranges = Vec::new();
        for len in [1u64, HUGE_PAGE_BYTES, 5 * HUGE_PAGE_BYTES, 100] {
            let a = mmap_ok(&mut vmm, len);
            let l = align_up(len, HUGE_PAGE_BYTES);
            for &(b, bl) in &ranges {
                assert!(a + l <= b || b + bl <= a, "overlap");
            }
            ranges.push((a, l));
        }
    }

    #[test]
    fn munmap_releases() {
        let mut vmm = Vmm::new();
        let a = mmap_ok(&mut vmm, 2 * HUGE_PAGE_BYTES);
        vmm.munmap(a, HUGE_PAGE_BYTES);
        assert_eq!(vmm.page_table().mapped_bytes(), HUGE_PAGE_BYTES);
        assert!(!vmm.page_table().is_mapped(a));
        assert!(vmm.page_table().is_mapped(a + HUGE_PAGE_BYTES));
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn double_munmap_panics() {
        let mut vmm = Vmm::new();
        let a = mmap_ok(&mut vmm, HUGE_PAGE_BYTES);
        vmm.munmap(a, HUGE_PAGE_BYTES);
        vmm.munmap(a, HUGE_PAGE_BYTES);
    }

    #[test]
    fn subrelease_counts_and_breaks() {
        let mut vmm = Vmm::new();
        let a = mmap_ok(&mut vmm, HUGE_PAGE_BYTES);
        vmm.subrelease(a, 8192).expect("mapped range");
        assert_eq!(vmm.stats().madvise_calls, 1);
        assert!(!vmm.page_table().is_huge_backed(a));
    }

    #[test]
    fn stray_subrelease_is_an_error_not_a_panic() {
        // Regression for the old `panic!("subrelease of unmapped hugepage")`:
        // a stray madvise is reported as EINVAL and changes nothing.
        let mut vmm = Vmm::new();
        let a = mmap_ok(&mut vmm, HUGE_PAGE_BYTES);
        let stray = a + 64 * HUGE_PAGE_BYTES;
        let err = vmm.subrelease(stray, 8192).expect_err("unmapped range");
        assert_eq!(err, OsError::UnmappedRange(stray / HUGE_PAGE_BYTES));
        assert_eq!(vmm.stats().madvise_calls, 0, "failed call not counted");
        assert!(vmm.page_table().is_huge_backed(a), "mapped state untouched");
        assert_eq!(vmm.page_table().resident_bytes(), HUGE_PAGE_BYTES);
    }

    #[test]
    fn enomem_denial_leaves_address_space_unchanged() {
        let plan = FaultPlan {
            enomem_ppm: PPM,
            ..FaultPlan::off()
        };
        let mut vmm = Vmm::with_faults(plan, Clock::new());
        assert_eq!(vmm.mmap(HUGE_PAGE_BYTES), Err(OsError::Enomem));
        assert_eq!(vmm.page_table().mapped_bytes(), 0);
        assert_eq!(vmm.stats().mmap_bytes, 0);
        assert_eq!(vmm.stats().mmap_calls, 1, "the failed syscall counts");
        assert_eq!(vmm.fault_stats().enomem_injected, 1);
    }

    #[test]
    fn a_grant_past_the_address_space_limit_is_refused_before_any_mutation() {
        // The page table's window tops out at 1 TiB of spread. A request
        // that would cross it — alone, on top of what is mapped, or so
        // large its rounding overflows — is ENOMEM, and the address space
        // is exactly as it was: the next grant lands where it would have.
        const TIB: u64 = 1 << 40;
        let mut vmm = Vmm::new();
        let first = mmap_ok(&mut vmm, HUGE_PAGE_BYTES);
        let (next_addr, table, stats) = (vmm.next_addr, format!("{:?}", vmm.page_table), vmm.stats);
        for len in [TIB, TIB + 1, 1 << 45, u64::MAX / 2, u64::MAX] {
            assert_eq!(vmm.mmap(len), Err(OsError::Enomem), "len {len:#x}");
        }
        assert_eq!(vmm.next_addr, next_addr);
        assert_eq!(format!("{:?}", vmm.page_table), table);
        assert_eq!(vmm.stats.mmap_bytes, stats.mmap_bytes);
        assert_eq!(
            vmm.stats.mmap_calls,
            stats.mmap_calls + 5,
            "failed calls count"
        );
        assert_eq!(mmap_ok(&mut vmm, HUGE_PAGE_BYTES), first + HUGE_PAGE_BYTES);
        // Just under the limit still fits (the window is whole chunks, so
        // leave one for what is already mapped).
        mmap_ok(&mut vmm, TIB - (128 << 20));
        assert_eq!(vmm.mmap(128 << 20), Err(OsError::Enomem), "now it is full");
    }

    #[test]
    fn denied_backing_then_collapse_recovers_coverage() {
        let plan = FaultPlan {
            deny_huge_ppm: PPM,
            ..FaultPlan::off()
        }
        .with_storm(0, 1_000);
        let clock = Clock::new();
        let mut vmm = Vmm::with_faults(plan, clock.clone());
        let g = vmm.mmap(HUGE_PAGE_BYTES).expect("granted");
        assert!(!g.huge_backed, "THP compaction failed");
        assert!(!vmm.page_table().is_huge_backed(g.addr));
        assert_eq!(vmm.page_table().resident_bytes(), HUGE_PAGE_BYTES);
        assert_eq!(vmm.page_table().hugepage_coverage(), 0.0);

        // During the storm the collapse is vetoed only by collapse_fail_ppm
        // (zero here), so it succeeds; but prove the storm-window version
        // too: after the storm, collapse always succeeds.
        clock.advance(2_000);
        assert_eq!(vmm.khugepaged(), 1, "khugepaged rebuilds the backing");
        assert!(vmm.page_table().is_huge_backed(g.addr));
        assert!((vmm.page_table().hugepage_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(vmm.khugepaged(), 0, "already huge: nothing to do");
    }

    #[test]
    fn subrelease_broken_hugepage_never_collapses() {
        let plan = FaultPlan {
            deny_huge_ppm: PPM,
            ..FaultPlan::off()
        };
        let mut vmm = Vmm::with_faults(plan, Clock::new());
        let a = mmap_ok(&mut vmm, HUGE_PAGE_BYTES);
        vmm.subrelease(a, 8192).expect("mapped");
        vmm.reoccupy(a, 8192);
        assert_eq!(
            vmm.khugepaged(),
            0,
            "kernel does not rebuild subrelease-broken hugepages (§3)"
        );
        assert!(!vmm.page_table().is_huge_backed(a));
    }
}
