//! The hugepage-aware pageheap (§4.4): back-end of the allocator.
//!
//! Requests are dispatched to three components (Figure 15):
//!
//! * [`filler::HugePageFiller`] — anything smaller than a hugepage,
//! * [`region::HugeRegionSet`] — allocations that slightly exceed a
//!   hugepage (e.g. 2.1 MiB) which would otherwise strand large slack,
//! * [`cache::HugeCache`] — hugepage-multiple allocations; the unused tail
//!   of the last hugepage is *donated* to the filler.
//!
//! The pageheap periodically releases memory to the OS "either by releasing
//! hugepages that are completely free, or by breaking partially-filled
//! hugepages into smaller pages and subreleasing them" (§2.1) — the former
//! preserves hugepage coverage, the latter sacrifices it.

pub mod cache;
pub mod filler;
mod origin;
pub mod os;
pub mod region;

use crate::events::{AllocEvent, EventBus};
use cache::HugeCache;
use filler::HugePageFiller;
use origin::{Origin, OriginTable};
pub use os::{AllocError, OsLayer};
use region::HugeRegionSet;
use wsc_sim_hw::cost::AllocPath;
use wsc_sim_os::addr::{HUGE_PAGE_BYTES, TCMALLOC_PAGES_PER_HUGE, TCMALLOC_PAGE_BYTES};
use wsc_sim_os::vmm::Vmm;

const HP_PAGES: u64 = TCMALLOC_PAGES_PER_HUGE; // 256

/// `HugeCache` bound: fully-free hugepages beyond this are unmapped.
const HUGE_CACHE_LIMIT_BYTES: u64 = 16 << 20;

// Release pacing. Memory-pressure regime: the fleet runs hot, so free pages
// are returned to the OS promptly — the continuous gradual release that
// erodes hugepage coverage in the §4.4 baseline.

/// Background release triggers when resident free filler pages exceed this
/// many TCMalloc pages (1 MiB of idle filler pages).
const FREE_PAGES_THRESHOLD: u64 = 128;

/// Maximum pages subreleased per background pass, 32 MiB (gradual release,
/// §3: "TCMalloc prioritizes keeping hugepages intact by releasing memory
/// gradually").
const RELEASE_RATE_PAGES: u64 = 4096;

/// Release passes a hugepage must sit idle before it may be broken
/// (adaptive subrelease, Maas et al. \[49\]).
const SUBRELEASE_GRACE_PASSES: u8 = 1;

/// Pageheap policy knobs (§4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageHeapConfig {
    /// Enable the §4.4 lifetime-aware filler.
    pub lifetime_aware_filler: bool,
    /// The capacity threshold C separating short- from long-lived spans.
    pub capacity_threshold: u32,
}

impl Default for PageHeapConfig {
    fn default() -> Self {
        Self {
            lifetime_aware_filler: false,
            capacity_threshold: 16,
        }
    }
}

/// Component-level usage snapshot (Figure 15).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageHeapStats {
    /// Live bytes placed by the filler.
    pub filler_used_bytes: u64,
    /// Resident free bytes stranded in partially-filled hugepages.
    pub filler_free_bytes: u64,
    /// Live bytes placed in hugepage regions.
    pub region_used_bytes: u64,
    /// Free bytes inside mapped regions.
    pub region_free_bytes: u64,
    /// Live bytes in hugepage-multiple (cache-served) allocations.
    pub large_used_bytes: u64,
    /// Bytes of fully-free hugepages held in the cache.
    pub cache_bytes: u64,
}

impl PageHeapStats {
    /// Total resident free (fragmented) bytes in the pageheap.
    pub fn total_free_bytes(&self) -> u64 {
        self.filler_free_bytes + self.region_free_bytes + self.cache_bytes
    }

    /// Total live bytes the pageheap has placed.
    pub fn total_used_bytes(&self) -> u64 {
        self.filler_used_bytes + self.region_used_bytes + self.large_used_bytes
    }
}

/// The hugepage-aware pageheap.
///
/// # Example
///
/// ```
/// use wsc_tcmalloc::pageheap::{PageHeap, PageHeapConfig};
/// # use wsc_tcmalloc::{config::TcmallocConfig, events::EventBus};
/// # use wsc_sim_hw::cost::CostModel;
/// # use wsc_sim_os::clock::Clock;
/// # let mut bus = EventBus::new(
/// #     &TcmallocConfig::baseline(), CostModel::production(), Clock::new());
///
/// let mut ph = PageHeap::new(PageHeapConfig::default());
/// let (addr, _path) = ph.alloc(4, 512, &mut bus).expect("infallible kernel");
/// ph.dealloc(addr, 4, &mut bus);
/// ```
#[derive(Clone, Debug)]
pub struct PageHeap {
    os: OsLayer,
    filler: HugePageFiller,
    region: HugeRegionSet,
    cache: HugeCache,
    origin: OriginTable,
    large_used_pages: u64,
}

/// Release-and-retry attempts after a refused backing request before the
/// failure is surfaced as an [`AllocError`] (bounded backoff: each retry is
/// preceded by a synchronous emergency release).
const ENOMEM_RETRIES: u32 = 3;

impl PageHeap {
    /// Creates a pageheap on an infallible, unlimited kernel.
    pub fn new(cfg: PageHeapConfig) -> Self {
        Self::with_kernel(cfg, OsLayer::infallible())
    }

    /// Creates a pageheap on the given OS layer (fault plan and/or hard
    /// limit attached).
    pub fn with_kernel(cfg: PageHeapConfig, os: OsLayer) -> Self {
        Self {
            os,
            filler: HugePageFiller::new(cfg.lifetime_aware_filler, cfg.capacity_threshold),
            region: HugeRegionSet::new(),
            cache: HugeCache::new(HUGE_CACHE_LIMIT_BYTES),
            origin: OriginTable::default(),
            large_used_pages: 0,
        }
    }

    /// Allocates `pages` TCMalloc pages for a span whose class capacity is
    /// `span_capacity` (large allocations pass 1). Returns the address and
    /// the deepest path hit ([`AllocPath::Mmap`] when the OS was involved,
    /// [`AllocPath::PageHeap`] otherwise). Emits one placement event
    /// ([`AllocEvent::FillerPlace`], [`AllocEvent::RegionPlace`], or
    /// [`AllocEvent::CachePlace`]) plus any OS-boundary events the chosen
    /// component produces.
    ///
    /// When the OS refuses a backing request (injected ENOMEM or the hard
    /// limit), the pageheap synchronously releases everything it can spare
    /// — the hugepage cache, then the filler's free tails — and retries, up
    /// to `ENOMEM_RETRIES` times (each retry emits one
    /// [`AllocEvent::ReleaseRetry`]).
    ///
    /// # Errors
    ///
    /// The final refusal is returned as the [`AllocError`] of the last
    /// attempt; pageheap state is consistent (nothing placed).
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn alloc(
        &mut self,
        pages: u32,
        span_capacity: u32,
        bus: &mut EventBus,
    ) -> Result<(u64, AllocPath), AllocError> {
        assert!(pages > 0, "zero-page allocation");
        let mut attempt = 0u32;
        loop {
            match self.place(pages, span_capacity, bus) {
                Ok(placed) => return Ok(placed),
                Err(err) => {
                    if attempt >= ENOMEM_RETRIES {
                        return Err(err);
                    }
                    attempt += 1;
                    let released_bytes = self.emergency_release(bus);
                    bus.emit(AllocEvent::ReleaseRetry {
                        attempt,
                        released_bytes,
                    });
                    // Against a hard limit, a retry without reclaimed bytes
                    // cannot succeed; injected ENOMEM is transient, so the
                    // bounded retry stands on its own.
                    if released_bytes == 0 && matches!(err, AllocError::HardLimit { .. }) {
                        return Err(err);
                    }
                }
            }
        }
    }

    /// One placement attempt (no retry).
    fn place(
        &mut self,
        pages: u32,
        span_capacity: u32,
        bus: &mut EventBus,
    ) -> Result<(u64, AllocPath), AllocError> {
        let (addr, mmapped, origin) = if (pages as u64) < HP_PAGES {
            let (addr, mm) =
                self.filler
                    .alloc(pages, span_capacity, &mut self.cache, &mut self.os, bus)?;
            bus.emit(AllocEvent::FillerPlace { addr, pages });
            (addr, mm, Origin::Filler { pages })
        } else if (pages as u64) > HP_PAGES && (pages as u64) < 2 * HP_PAGES {
            let (addr, mm) = self.region.alloc(pages, &mut self.os, bus)?;
            bus.emit(AllocEvent::RegionPlace { addr, pages });
            (addr, mm, Origin::Region { pages })
        } else {
            let hp = (pages as u64).div_ceil(HP_PAGES);
            let (addr, from_os) = self.cache.alloc_run(hp, &mut self.os, bus)?;
            if !from_os {
                self.os.reoccupy(addr, hp * HUGE_PAGE_BYTES);
                bus.emit(AllocEvent::HugepageFill {
                    base: addr,
                    bytes: hp * HUGE_PAGE_BYTES,
                    reused: true,
                });
            }
            let tail = (hp * HP_PAGES - pages as u64) as u32;
            if tail > 0 {
                let last_hp = addr + (hp - 1) * HUGE_PAGE_BYTES;
                self.filler.donate(last_hp, HP_PAGES as u32 - tail);
            }
            self.large_used_pages += pages as u64;
            bus.emit(AllocEvent::CachePlace { addr, pages });
            (addr, from_os, Origin::Large { pages, tail })
        };
        // Invariant, not resource exhaustion: two live spans at one address
        // mean corrupted bookkeeping, so this must stay fatal.
        let fresh = self.origin.insert(addr, origin);
        assert!(fresh, "pageheap double allocation at {addr:#x}");
        let path = if mmapped {
            AllocPath::Mmap
        } else {
            AllocPath::PageHeap
        };
        Ok((addr, path))
    }

    /// Returns `pages` at `addr` (as handed out by [`alloc`](Self::alloc)).
    ///
    /// # Panics
    ///
    /// Panics if the range is not a live pageheap allocation or the length
    /// mismatches.
    pub fn dealloc(&mut self, addr: u64, pages: u32, bus: &mut EventBus) {
        let origin = self
            .origin
            .remove(addr)
            // lint:allow(panic-surface) documented panic: an unknown range
            // is caller heap corruption, and the sanitizer intercepts
            // invalid frees before they descend this far.
            .unwrap_or_else(|| panic!("pageheap dealloc of unknown range {addr:#x}"));
        match origin {
            Origin::Filler { pages: p } => {
                // Invariant asserts: a length mismatch is caller corruption
                // (free with the wrong size), never an OOM-reachable state.
                assert_eq!(p, pages, "filler dealloc length mismatch");
                self.filler
                    .dealloc(addr, pages, &mut self.cache, &mut self.os, bus);
            }
            Origin::Region { pages: p } => {
                assert_eq!(p, pages, "region dealloc length mismatch");
                self.region.dealloc(addr, pages, &mut self.os, bus);
            }
            Origin::Large { pages: p, tail } => {
                assert_eq!(p, pages, "large dealloc length mismatch");
                let hp = (pages as u64).div_ceil(HP_PAGES);
                self.large_used_pages -= pages as u64;
                if tail > 0 {
                    let full = hp - 1;
                    if full > 0 {
                        self.cache.free_run(addr, full, &mut self.os, bus);
                    }
                    self.filler.free_donated_head(
                        addr + full * HUGE_PAGE_BYTES,
                        HP_PAGES as u32 - tail,
                        &mut self.cache,
                        &mut self.os,
                        bus,
                    );
                } else {
                    self.cache.free_run(addr, hp, &mut self.os, bus);
                }
            }
        }
    }

    /// Background release pass (§2.1): fully-free hugepages already went to
    /// the bounded cache; when resident free pages stranded in the filler
    /// exceed the threshold, subrelease up to the configured rate. Also runs
    /// the khugepaged re-promotion pass over denied-backing hugepages, so
    /// coverage recovers once THP pressure clears.
    /// Returns bytes released this pass.
    pub fn background_release(&mut self, bus: &mut EventBus) -> u64 {
        self.os.promote_denied(bus);
        let stats = self.filler.stats();
        let resident_free = stats.free_pages - stats.released_pages;
        if resident_free <= FREE_PAGES_THRESHOLD {
            return 0;
        }
        let excess = resident_free - FREE_PAGES_THRESHOLD;
        let target = excess.min(RELEASE_RATE_PAGES);
        self.filler
            .subrelease(target, SUBRELEASE_GRACE_PASSES, &mut self.os, bus)
            * TCMALLOC_PAGE_BYTES
    }

    /// Soft-limit enforcement (TCMalloc semantics): when resident bytes
    /// exceed `limit`, synchronously release free memory back toward it with
    /// bounded backoff — whole cached hugepages first (coverage-preserving),
    /// then filler subrelease. Emits one [`AllocEvent::LimitHit`] with
    /// `hard: false` plus one [`AllocEvent::ReleaseRetry`] per attempt.
    /// Returns bytes released.
    pub fn enforce_soft_limit(&mut self, limit: u64, bus: &mut EventBus) -> u64 {
        let resident = self.os.page_table().resident_bytes();
        if resident <= limit {
            return 0;
        }
        bus.emit(AllocEvent::LimitHit {
            hard: false,
            resident,
            limit,
        });
        let mut total = 0u64;
        for attempt in 1..=ENOMEM_RETRIES {
            let excess = self.os.page_table().resident_bytes().saturating_sub(limit);
            if excess == 0 {
                break;
            }
            let mut released =
                self.cache
                    .release_upto(excess.div_ceil(HUGE_PAGE_BYTES), &mut self.os, bus)
                    * HUGE_PAGE_BYTES;
            let excess = self.os.page_table().resident_bytes().saturating_sub(limit);
            if excess > 0 {
                released += self.filler.subrelease(
                    excess.div_ceil(TCMALLOC_PAGE_BYTES),
                    0, // soft-limit pressure overrides the subrelease grace
                    &mut self.os,
                    bus,
                ) * TCMALLOC_PAGE_BYTES;
            }
            bus.emit(AllocEvent::ReleaseRetry {
                attempt,
                released_bytes: released,
            });
            total += released;
            if released == 0 {
                break; // nothing left to give back
            }
        }
        total
    }

    /// Emergency synchronous release on a refused backing request: drop the
    /// whole hugepage cache, then subrelease every free filler page
    /// (grace-free — staying alive beats preserving THP backing). Returns
    /// bytes released.
    fn emergency_release(&mut self, bus: &mut EventBus) -> u64 {
        let cached = self.cache.cached_bytes();
        self.cache.release_all(&mut self.os, bus);
        cached + self.filler.subrelease(u64::MAX, 0, &mut self.os, bus) * TCMALLOC_PAGE_BYTES
    }

    /// Component-level snapshot (Figure 15).
    pub fn stats(&self) -> PageHeapStats {
        PageHeapStats {
            filler_used_bytes: self.filler.used_bytes(),
            filler_free_bytes: self.filler.free_resident_bytes(),
            region_used_bytes: self.region.used_bytes(),
            region_free_bytes: self.region.free_bytes(),
            large_used_bytes: self.large_used_pages * TCMALLOC_PAGE_BYTES,
            cache_bytes: self.cache.cached_bytes(),
        }
    }

    /// The filler (telemetry access).
    pub fn filler(&self) -> &HugePageFiller {
        &self.filler
    }

    /// The underlying virtual memory manager (read-only).
    pub fn vmm(&self) -> &Vmm {
        self.os.vmm()
    }

    /// The OS boundary layer (degradation state, fault counters).
    pub fn os(&self) -> &OsLayer {
        &self.os
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

    fn heap() -> (PageHeap, EventBus) {
        (
            PageHeap::new(PageHeapConfig::default()),
            EventBus::new(
                &TcmallocConfig::baseline(),
                CostModel::production(),
                Clock::new(),
            ),
        )
    }

    #[test]
    fn small_goes_to_filler() {
        let (mut ph, mut bus) = heap();
        let (addr, path) = ph.alloc(10, 512, &mut bus).unwrap();
        assert_eq!(path, AllocPath::Mmap, "cold heap touches the OS");
        let (addr2, path2) = ph.alloc(10, 512, &mut bus).unwrap();
        assert_eq!(path2, AllocPath::PageHeap, "warm filler");
        assert_eq!(addr / HUGE_PAGE_BYTES, addr2 / HUGE_PAGE_BYTES);
        let s = ph.stats();
        assert_eq!(s.filler_used_bytes, 20 * TCMALLOC_PAGE_BYTES);
    }

    #[test]
    fn mid_size_goes_to_region() {
        let (mut ph, mut bus) = heap();
        // 2.1 MiB ≈ 269 pages.
        let (_addr, _) = ph.alloc(269, 1, &mut bus).unwrap();
        let s = ph.stats();
        assert_eq!(s.region_used_bytes, 269 * TCMALLOC_PAGE_BYTES);
        assert_eq!(s.filler_used_bytes, 0);
    }

    #[test]
    fn large_with_donation() {
        let (mut ph, mut bus) = heap();
        // 4.5 MiB = 576 pages = 3 hugepages with a 192-page donated tail
        // (the paper's own example: 1.5 MB slack from a 4.5 MB allocation).
        let (addr, _) = ph.alloc(576, 1, &mut bus).unwrap();
        let s = ph.stats();
        assert_eq!(s.large_used_bytes, 576 * TCMALLOC_PAGE_BYTES);
        // Donated tail shows up as filler free space.
        assert_eq!(s.filler_free_bytes, 192 * TCMALLOC_PAGE_BYTES);
        // The filler can place a span on the donated tail.
        let (span_addr, path) = ph.alloc(20, 512, &mut bus).unwrap();
        assert_eq!(path, AllocPath::PageHeap);
        assert_eq!(
            span_addr / HUGE_PAGE_BYTES,
            (addr + 2 * HUGE_PAGE_BYTES) / HUGE_PAGE_BYTES
        );
        // Free the large allocation; the donated hugepage survives.
        ph.dealloc(addr, 576, &mut bus);
        assert_eq!(ph.stats().large_used_bytes, 0);
        ph.dealloc(span_addr, 20, &mut bus);
    }

    #[test]
    fn exact_hugepage_no_donation() {
        let (mut ph, mut bus) = heap();
        let (addr, _) = ph.alloc(256, 1, &mut bus).unwrap();
        assert_eq!(ph.stats().filler_free_bytes, 0, "no tail to donate");
        ph.dealloc(addr, 256, &mut bus);
        // Freed run parks in the cache (within limit) rather than unmapping.
        assert_eq!(ph.stats().cache_bytes, HUGE_PAGE_BYTES);
    }

    #[test]
    fn cache_reuse_after_large_free() {
        let (mut ph, mut bus) = heap();
        let (a, _) = ph.alloc(512, 1, &mut bus).unwrap();
        ph.dealloc(a, 512, &mut bus);
        let (b, path) = ph.alloc(512, 1, &mut bus).unwrap();
        assert_eq!(path, AllocPath::PageHeap, "served from hugepage cache");
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown range")]
    fn unknown_dealloc_panics() {
        let (mut ph, mut bus) = heap();
        ph.dealloc(0x1000, 1, &mut bus);
    }

    #[test]
    fn background_release_respects_grace_rate_and_threshold() {
        let (mut ph, mut bus) = heap();
        // Strand 251 free pages (250 freed, 1 never used) in each of 20
        // hugepages.
        let pairs: Vec<(u64, u64)> = (0..20)
            .map(|_| {
                let (a, _) = ph.alloc(250, 512, &mut bus).unwrap();
                (a, ph.alloc(5, 512, &mut bus).unwrap().0)
            })
            .collect();
        for &(a, _) in &pairs {
            ph.dealloc(a, 250, &mut bus);
        }
        let resident_free = |ph: &PageHeap| {
            let s = ph.filler.stats();
            s.free_pages - s.released_pages
        };
        assert_eq!(resident_free(&ph), 20 * 251);
        assert_eq!(ph.background_release(&mut bus), 0, "grace pass");
        assert_eq!(
            ph.background_release(&mut bus),
            RELEASE_RATE_PAGES * TCMALLOC_PAGE_BYTES,
            "rate-limited"
        );
        for _ in 0..10 {
            ph.background_release(&mut bus);
        }
        assert_eq!(resident_free(&ph), FREE_PAGES_THRESHOLD, "stops at it");
        for (_, b) in pairs {
            ph.dealloc(b, 5, &mut bus);
        }
    }

    #[test]
    fn stats_components_are_disjoint() {
        let (mut ph, mut bus) = heap();
        let (_f, _) = ph.alloc(10, 512, &mut bus).unwrap();
        let (_r, _) = ph.alloc(300, 1, &mut bus).unwrap();
        let (_l, _) = ph.alloc(512, 1, &mut bus).unwrap();
        let s = ph.stats();
        assert!(s.filler_used_bytes > 0);
        assert!(s.region_used_bytes > 0);
        assert!(s.large_used_bytes > 0);
        assert_eq!(s.total_used_bytes(), (10 + 300 + 512) * TCMALLOC_PAGE_BYTES);
    }
}
