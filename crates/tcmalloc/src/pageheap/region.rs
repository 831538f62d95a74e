//! Hugepage regions: allocations that slightly exceed a hugepage (§4.4
//! component 2).
//!
//! An allocation of, say, 2.1 MiB placed on its own pair of hugepages would
//! strand almost a whole hugepage of slack. The hugepage region instead
//! packs such mid-size allocations end-to-end on a contiguous run of
//! hugepages, ignoring hugepage boundaries.

use super::os::{AllocError, OsLayer};
use crate::events::{AllocEvent, EventBus};
use std::collections::BTreeMap;
use wsc_sim_os::addr::{HUGE_PAGE_BYTES, TCMALLOC_PAGES_PER_HUGE, TCMALLOC_PAGE_BYTES};

/// Hugepages per region (4 → 8 MiB of virtual space per region; production
/// uses 1 GiB regions against TiB heaps — scaled like the cache capacities).
pub const REGION_HUGEPAGES: u64 = 4;

/// TCMalloc pages per region.
pub const REGION_PAGES: u32 = (REGION_HUGEPAGES * TCMALLOC_PAGES_PER_HUGE) as u32;

const WORDS: usize = REGION_PAGES as usize / 64;

/// Bytes of address space per region.
const REGION_BYTES: u64 = REGION_HUGEPAGES * HUGE_PAGE_BYTES;

#[derive(Clone, Debug)]
struct Region {
    base: u64,
    bitmap: [u64; WORDS],
    used_pages: u32,
}

impl Region {
    fn new(base: u64) -> Self {
        Self {
            base,
            bitmap: [0; WORDS],
            used_pages: 0,
        }
    }

    fn bit(&self, i: u32) -> bool {
        // lint:allow(panic-surface) i < REGION_PAGES; the bitmap is sized
        // REGION_PAGES/64 at construction.
        self.bitmap[i as usize / 64] >> (i % 64) & 1 == 1
    }

    fn set_range(&mut self, start: u32, n: u32, v: bool) {
        for i in start..start + n {
            let (w, b) = (i as usize / 64, i % 64);
            if v {
                debug_assert!(self.bitmap[w] >> b & 1 == 0);
                self.bitmap[w] |= 1 << b;
            } else {
                debug_assert!(self.bitmap[w] >> b & 1 == 1);
                self.bitmap[w] &= !(1 << b);
            }
        }
        if v {
            self.used_pages += n;
        } else {
            self.used_pages -= n;
        }
    }

    /// First-fit scan for `n` consecutive free pages.
    fn find_fit(&self, n: u32) -> Option<u32> {
        let mut run = 0u32;
        for i in 0..REGION_PAGES {
            if self.bit(i) {
                run = 0;
            } else {
                run += 1;
                if run == n {
                    return Some(i + 1 - n);
                }
            }
        }
        None
    }
}

/// The set of active hugepage regions.
#[derive(Clone, Debug, Default)]
pub struct HugeRegionSet {
    regions: Vec<Region>,
    /// Live allocation base address -> length in pages, for the dealloc
    /// length check.
    live: BTreeMap<u64, u32>,
}

impl HugeRegionSet {
    /// Creates an empty region set.
    pub fn new() -> Self {
        Self::default()
    }

    /// This region set emptied, exactly as [`new`](Self::new) builds one,
    /// with the region table's storage kept.
    pub fn renew(mut self) -> Self {
        self.regions.clear();
        Self {
            regions: self.regions,
            live: BTreeMap::new(),
        }
    }

    /// Allocates `pages` TCMalloc pages, first-fit across regions, mapping a
    /// new region when needed (emitting one [`AllocEvent::HugepageFill`]).
    /// Returns `(addr, mmapped)`.
    ///
    /// # Errors
    ///
    /// Propagates the OS layer's refusal when a new region must be mapped;
    /// the region set is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `pages` exceeds a region.
    pub fn alloc(
        &mut self,
        pages: u32,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) -> Result<(u64, bool), AllocError> {
        assert!(
            (1..=REGION_PAGES).contains(&pages),
            "region allocation of {pages} pages out of range"
        );
        for region in &mut self.regions {
            if let Some(off) = region.find_fit(pages) {
                region.set_range(off, pages, true);
                let addr = region.base + off as u64 * TCMALLOC_PAGE_BYTES;
                self.live.insert(addr, pages);
                return Ok((addr, false));
            }
        }
        let base = os.mmap(REGION_BYTES, bus)?;
        bus.emit(AllocEvent::HugepageFill {
            base,
            bytes: REGION_BYTES,
            reused: false,
        });
        let mut region = Region::new(base);
        region.set_range(0, pages, true);
        self.regions.push(region);
        self.live.insert(base, pages);
        Ok((base, true))
    }

    /// Frees a range previously returned by [`alloc`](Self::alloc). Fully
    /// free regions are unmapped (emitting one
    /// [`AllocEvent::HugepageRelease`]).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live region allocation or `pages` mismatches.
    pub fn dealloc(&mut self, addr: u64, pages: u32, os: &mut OsLayer, bus: &mut EventBus) {
        let len = self
            .live
            .remove(&addr)
            .expect("dealloc of unknown region range");
        assert_eq!(len, pages, "region dealloc length mismatch");
        let idx = self
            .regions
            .iter()
            .position(|r| (r.base..r.base + REGION_BYTES).contains(&addr))
            .expect("a live range lies in a mapped region");
        let region = &mut self.regions[idx];
        let off = ((addr - region.base) / TCMALLOC_PAGE_BYTES) as u32;
        region.set_range(off, len, false);
        if region.used_pages == 0 {
            os.munmap(region.base, REGION_BYTES);
            bus.emit(AllocEvent::HugepageRelease {
                base: region.base,
                bytes: REGION_BYTES,
            });
            self.regions.swap_remove(idx);
        }
    }

    /// Bytes in live allocations.
    pub fn used_bytes(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.used_pages as u64 * TCMALLOC_PAGE_BYTES)
            .sum()
    }

    /// Free (fragmented) bytes inside mapped regions (Figure 15).
    pub fn free_bytes(&self) -> u64 {
        self.regions.len() as u64 * REGION_BYTES - self.used_bytes()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::TcmallocConfig;
    use wsc_sim_os::clock::Clock;

    fn bus() -> EventBus {
        EventBus::new(&TcmallocConfig::baseline(), Clock::new())
    }

    #[test]
    fn packs_end_to_end() {
        let mut rs = HugeRegionSet::new();
        let mut os = OsLayer::infallible();
        let mut bs = bus();
        // 2.1 MiB ≈ 269 pages; three of them fit in one 16-hugepage region.
        let (a, mmapped) = rs.alloc(269, &mut os, &mut bs).unwrap();
        assert!(mmapped);
        let (b, m2) = rs.alloc(269, &mut os, &mut bs).unwrap();
        let (c, m3) = rs.alloc(269, &mut os, &mut bs).unwrap();
        assert!(!m2 && !m3, "same region reused");
        assert_eq!(b, a + 269 * TCMALLOC_PAGE_BYTES, "end-to-end packing");
        assert_eq!(c, b + 269 * TCMALLOC_PAGE_BYTES);
        assert_eq!(rs.regions.len(), 1);
    }

    #[test]
    fn slack_is_smaller_than_dedicated_hugepages() {
        // The design point: a 2.1 MiB allocation on dedicated hugepages
        // wastes ~1.9 MiB; in a shared region the per-allocation share of
        // region slack is far smaller once a few allocations pack together.
        let mut rs = HugeRegionSet::new();
        let mut os = OsLayer::infallible();
        let mut bs = bus();
        for _ in 0..15 {
            rs.alloc(269, &mut os, &mut bs).unwrap();
        }
        let free = rs.free_bytes();
        let per_alloc_slack = free as f64 / 15.0;
        assert!(
            per_alloc_slack < 0.5 * HUGE_PAGE_BYTES as f64,
            "per-allocation slack {per_alloc_slack} too big"
        );
    }

    #[test]
    fn dealloc_reuses_space() {
        let mut rs = HugeRegionSet::new();
        let mut os = OsLayer::infallible();
        let mut bs = bus();
        let (a, _) = rs.alloc(300, &mut os, &mut bs).unwrap();
        let (_b, _) = rs.alloc(300, &mut os, &mut bs).unwrap();
        rs.dealloc(a, 300, &mut os, &mut bs);
        let (c, mmapped) = rs.alloc(300, &mut os, &mut bs).unwrap();
        assert!(!mmapped);
        assert_eq!(c, a, "first-fit reuses the hole");
    }

    #[test]
    fn empty_region_unmaps() {
        let mut rs = HugeRegionSet::new();
        let mut os = OsLayer::infallible();
        let mut bs = bus();
        let (a, _) = rs.alloc(400, &mut os, &mut bs).unwrap();
        let mapped = os.vmm().page_table().mapped_bytes();
        rs.dealloc(a, 400, &mut os, &mut bs);
        assert_eq!(rs.regions.len(), 0);
        assert_eq!(os.vmm().page_table().mapped_bytes(), mapped - REGION_BYTES);
    }

    #[test]
    #[should_panic(expected = "unknown region range")]
    fn unknown_dealloc_panics() {
        let mut rs = HugeRegionSet::new();
        let mut os = OsLayer::infallible();
        let mut bs = bus();
        rs.dealloc(0x1234, 300, &mut os, &mut bs);
    }

    #[test]
    fn a_free_finds_its_region_after_a_swap_remove() {
        let mut rs = HugeRegionSet::new();
        let mut os = OsLayer::infallible();
        let mut bs = bus();
        // Fill two regions.
        let (a, _) = rs.alloc(REGION_PAGES, &mut os, &mut bs).unwrap();
        let (b, _) = rs.alloc(REGION_PAGES, &mut os, &mut bs).unwrap();
        assert_eq!(rs.regions.len(), 2);
        // Drop the first; the second moves to its slot and is still found.
        rs.dealloc(a, REGION_PAGES, &mut os, &mut bs);
        rs.dealloc(b, REGION_PAGES, &mut os, &mut bs);
        assert_eq!(rs.regions.len(), 0);
    }
}
