//! The pagemap: TCMalloc-page index → owning span.
//!
//! `free(ptr)` carries no size information beyond the sized-delete hint, so
//! the allocator must recover the owning span from the address alone — the
//! single most-executed lookup in the middle and back tiers (one per object
//! a slow-tier return hands back). [`Pagemap`] keeps one flat window of
//! per-page slots, aligned to and grown in whole **leaves** of
//! [`PAGES_PER_LEAF`] pages (8 MiB of address space, 4 KiB of slots), so a
//! lookup is subtract, bounds-check, load — rpmalloc/mimalloc-style address
//! arithmetic over one reservation, with
//!
//! * a one-entry **last-span hit cache** in front of the window (span-local
//!   free bursts resolve without touching it),
//! * **batched** `set_range`/`clear_range` that write one contiguous slot
//!   slice per span, and
//! * per-leaf **occupancy** counted from the slots when asked, which the
//!   sanitizer audits against the span inventory.
//!
//! Production TCMalloc resolves the same lookup through a 2–3 level radix
//! tree, which pays O(touched leaves) memory where this window pays
//! O(address spread). The substitution is sound here (DESIGN.md §6): the
//! lookup's simulated *cost* is priced by `wsc_sim_hw::cost`, never by this
//! host structure, and the `Vmm` bump-allocates densely from a canonical
//! heap base, so the window stays as wide as the heap. The leaf is small
//! because the window is filled as it grows: at 256 MiB leaves every
//! machine paid 128 KiB of `0xFF` for its first span, a per-machine tax a
//! fleet survey of cold machines with 4 MiB heaps paid a thousand times
//! over and never read.

use crate::span::SpanId;
use std::cell::Cell;
use wsc_sim_os::addr::tcmalloc_page_index;

/// log2 of the pages covered by one leaf.
pub const LEAF_BITS: u32 = 10;

/// TCMalloc pages covered by one leaf (1 024 pages = 8 MiB): the
/// alignment and growth unit of the window and the granule of the
/// sanitizer's occupancy audit.
pub const PAGES_PER_LEAF: u64 = 1 << LEAF_BITS;

/// Ceiling on the window, in leaves. 2^17 leaves cover 1 TiB of
/// address-space *spread*, far beyond what the bump-allocating `Vmm` ever
/// produces; a wider spread indicates address corruption.
const MAX_WINDOW_LEAVES: u64 = 1 << 17;

/// Sentinel marking an unregistered page.
const EMPTY: u32 = u32::MAX;

/// Occupancy of one leaf, exported for the sanitizer's pagemap audit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafOccupancy {
    /// First page number the leaf covers (aligned to [`PAGES_PER_LEAF`]).
    pub base_page: u64,
    /// Registered pages within the leaf.
    pub pages_used: u64,
}

/// Page-index → span mapping: one flat, leaf-aligned window of per-page
/// slots.
///
/// # Example
///
/// ```
/// use wsc_tcmalloc::pagemap::Pagemap;
/// use wsc_tcmalloc::span::SpanId;
///
/// let mut pm = Pagemap::new();
/// pm.set_range(0x10000, 4, SpanId(7));
/// assert_eq!(pm.span_of(0x10000 + 100), Some(SpanId(7)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Pagemap {
    /// Per-page slots for the covered window; `EMPTY` = unregistered.
    slots: Vec<u32>,
    /// First page of the window, aligned to [`PAGES_PER_LEAF`]; meaningful
    /// once `slots` is non-empty.
    base_page: u64,
    /// Last-span hit cache: `(first_page, last_page, span_id)`. Purely an
    /// accelerator — never changes lookup results.
    hit: Cell<Option<(u64, u64, SpanId)>>,
}

impl Pagemap {
    /// Creates an empty pagemap.
    pub fn new() -> Self {
        Self::default()
    }

    /// This pagemap emptied, exactly as [`new`](Self::new) builds one,
    /// with the window's storage kept.
    pub fn renew(mut self) -> Self {
        self.slots.clear();
        Self {
            slots: self.slots,
            ..Self::new()
        }
    }

    /// Grows the window (in whole leaves, either direction) to cover pages
    /// `[first, last)`.
    fn ensure_window(&mut self, first: u64, last: u64) {
        let lo = first & !(PAGES_PER_LEAF - 1);
        let hi = ((last - 1) | (PAGES_PER_LEAF - 1)) + 1;
        if self.slots.is_empty() {
            self.base_page = lo;
        }
        let new_lo = lo.min(self.base_page);
        let new_hi = hi.max(self.base_page + self.slots.len() as u64);
        let leaves = (new_hi - new_lo) >> LEAF_BITS;
        assert!(leaves <= MAX_WINDOW_LEAVES, "pagemap window blow-up");
        if new_lo < self.base_page {
            // Extend downward: prepend empty leaves, shifting the window.
            let grow = (self.base_page - new_lo) as usize;
            let mut fresh = vec![EMPTY; grow + self.slots.len()];
            // lint:allow(panic-surface) fresh was sized grow + len one
            // line up.
            fresh[grow..].copy_from_slice(&self.slots);
            self.slots = fresh;
            self.base_page = new_lo;
        }
        let want = (new_hi - self.base_page) as usize;
        if want > self.slots.len() {
            self.slots.resize(want, EMPTY);
        }
    }

    /// Registers `num_pages` TCMalloc pages starting at `addr` as belonging
    /// to `span`, writing one contiguous slot slice.
    ///
    /// # Panics
    ///
    /// Panics if any page is already registered (overlapping spans are a
    /// heap-corruption bug), if `span` carries the reserved id, or if
    /// `num_pages` is zero.
    // lint:allow(event-completeness) lookup index, not an owning tier: the
    // pageheap emits the SpanAlloc covering this range.
    pub fn set_range(&mut self, addr: u64, num_pages: u32, span: SpanId) {
        assert_ne!(span.0, EMPTY, "span id {EMPTY:#x} is reserved");
        assert!(num_pages > 0, "empty page range at {addr:#x}");
        let first = tcmalloc_page_index(addr);
        let last = first + num_pages as u64;
        self.ensure_window(first, last);
        let lo = (first - self.base_page) as usize;
        let hi = (last - self.base_page) as usize;
        // lint:allow(panic-surface) ensure_window covers [first, last).
        for (i, slot) in self.slots[lo..hi].iter_mut().enumerate() {
            assert!(
                *slot == EMPTY,
                "page {} already owned by Some(SpanId({}))",
                first + i as u64,
                *slot
            );
            *slot = span.0;
        }
        self.hit.set(Some((first, last - 1, span)));
    }

    /// Unregisters the pages of a span being returned to the pageheap.
    /// Invalidates the hit cache.
    ///
    /// # Panics
    ///
    /// Panics if a page was not registered or `num_pages` is zero.
    // lint:allow(event-completeness) index maintenance; the pageheap emits
    // the SpanDealloc covering this range.
    pub fn clear_range(&mut self, addr: u64, num_pages: u32) {
        assert!(num_pages > 0, "empty page range at {addr:#x}");
        let first = tcmalloc_page_index(addr);
        let last = first + num_pages as u64;
        let end = self.base_page + self.slots.len() as u64;
        assert!(
            !self.slots.is_empty() && first >= self.base_page && last <= end,
            "clearing unregistered page {first}"
        );
        let lo = (first - self.base_page) as usize;
        let hi = (last - self.base_page) as usize;
        // lint:allow(panic-surface) bounds proved by the assert above.
        for (i, slot) in self.slots[lo..hi].iter_mut().enumerate() {
            assert!(
                *slot != EMPTY,
                "clearing unregistered page {}",
                first + i as u64
            );
            *slot = EMPTY;
        }
        self.hit.set(None);
    }

    /// [`set_range`](Self::set_range) plus the
    /// [`PagemapSet`](crate::events::AllocEvent::PagemapSet) boundary event —
    /// the form the allocator tiers use. The raw method stays public for
    /// property tests that exercise the structure in isolation.
    pub fn set_range_traced(
        &mut self,
        addr: u64,
        num_pages: u32,
        span: SpanId,
        bus: &mut crate::events::EventBus,
    ) {
        self.set_range(addr, num_pages, span);
        bus.emit(crate::events::AllocEvent::PagemapSet {
            addr,
            pages: num_pages,
        });
    }

    /// [`clear_range`](Self::clear_range) plus the
    /// [`PagemapClear`](crate::events::AllocEvent::PagemapClear) boundary
    /// event.
    pub fn clear_range_traced(
        &mut self,
        addr: u64,
        num_pages: u32,
        bus: &mut crate::events::EventBus,
    ) {
        self.clear_range(addr, num_pages);
        bus.emit(crate::events::AllocEvent::PagemapClear {
            addr,
            pages: num_pages,
        });
    }

    /// The span owning `addr`, if any: hit cache, then window-relative
    /// arithmetic and a single bounds-checked load.
    #[inline]
    pub fn span_of(&self, addr: u64) -> Option<SpanId> {
        let page = tcmalloc_page_index(addr);
        if let Some((first, last, span)) = self.hit.get() {
            if (first..=last).contains(&page) {
                return Some(span);
            }
        }
        let off = page.wrapping_sub(self.base_page);
        let slot = *self.slots.get(off as usize)?;
        if slot == EMPTY {
            return None;
        }
        let span = SpanId(slot);
        self.hit.set(Some((page, page, span)));
        Some(span)
    }

    /// Number of registered pages, counted over the window.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|&&s| s != EMPTY).count()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|&s| s == EMPTY)
    }

    /// Occupancy of every non-empty leaf in ascending `base_page` order,
    /// counted from the slots — what the sanitizer proves against the span
    /// inventory.
    pub fn leaf_occupancy(&self) -> Vec<LeafOccupancy> {
        (self.base_page..)
            .step_by(PAGES_PER_LEAF as usize)
            .zip(self.slots.chunks(PAGES_PER_LEAF as usize))
            .map(|(base_page, leaf)| LeafOccupancy {
                base_page,
                pages_used: leaf.iter().filter(|&&s| s != EMPTY).count() as u64,
            })
            .filter(|l| l.pages_used > 0)
            .collect()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;

    #[test]
    fn range_lookup() {
        let mut pm = Pagemap::new();
        pm.set_range(0, 2, SpanId(1));
        pm.set_range(2 * TCMALLOC_PAGE_BYTES, 1, SpanId(2));
        assert_eq!(pm.span_of(0), Some(SpanId(1)));
        assert_eq!(pm.span_of(TCMALLOC_PAGE_BYTES + 5), Some(SpanId(1)));
        assert_eq!(pm.span_of(2 * TCMALLOC_PAGE_BYTES), Some(SpanId(2)));
        assert_eq!(pm.span_of(3 * TCMALLOC_PAGE_BYTES), None);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn overlap_detected() {
        let mut pm = Pagemap::new();
        pm.set_range(0, 2, SpanId(1));
        pm.set_range(TCMALLOC_PAGE_BYTES, 1, SpanId(2));
    }

    #[test]
    fn clear_then_reuse() {
        let mut pm = Pagemap::new();
        pm.set_range(0, 4, SpanId(1));
        pm.clear_range(0, 4);
        assert!(pm.is_empty());
        pm.set_range(0, 4, SpanId(9));
        assert_eq!(pm.span_of(0), Some(SpanId(9)));
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn clear_unregistered_detected() {
        let mut pm = Pagemap::new();
        pm.clear_range(0, 1);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn clear_unregistered_in_window_detected() {
        let mut pm = Pagemap::new();
        pm.set_range(0, 1, SpanId(1));
        pm.clear_range(4 * TCMALLOC_PAGE_BYTES, 1);
    }

    #[test]
    fn leaf_boundary_straddling_span() {
        // A span whose page run crosses a leaf boundary must resolve on
        // both sides, count into both leaves, and clear cleanly.
        let start_page = PAGES_PER_LEAF - 3;
        let addr = start_page * TCMALLOC_PAGE_BYTES;
        let mut pm = Pagemap::new();
        pm.set_range(addr, 8, SpanId(5));
        assert_eq!(pm.len(), 8);
        for p in 0..8u64 {
            assert_eq!(
                pm.span_of(addr + p * TCMALLOC_PAGE_BYTES),
                Some(SpanId(5)),
                "page {p} of the straddling span"
            );
        }
        assert_eq!(pm.span_of(addr - TCMALLOC_PAGE_BYTES), None);
        assert_eq!(pm.span_of(addr + 8 * TCMALLOC_PAGE_BYTES), None);
        let occ = pm.leaf_occupancy();
        assert_eq!(occ.len(), 2, "two leaves populated");
        assert_eq!(occ[0].base_page, 0);
        assert_eq!(occ[0].pages_used, 3);
        assert_eq!(occ[1].base_page, PAGES_PER_LEAF);
        assert_eq!(occ[1].pages_used, 5);
        pm.clear_range(addr, 8);
        assert!(pm.is_empty());
        assert!(pm.leaf_occupancy().is_empty());
    }

    #[test]
    fn hit_cache_invalidated_on_clear_range() {
        let mut pm = Pagemap::new();
        pm.set_range(0, 4, SpanId(1));
        // Prime the cache via a lookup, then clear: the cached range must
        // not survive into the next lookup.
        assert_eq!(pm.span_of(TCMALLOC_PAGE_BYTES), Some(SpanId(1)));
        pm.clear_range(0, 4);
        assert_eq!(pm.span_of(TCMALLOC_PAGE_BYTES), None);
        // Remap under a different span: lookups see the new owner, not a
        // stale cache entry.
        pm.set_range(0, 4, SpanId(2));
        assert_eq!(pm.span_of(TCMALLOC_PAGE_BYTES), Some(SpanId(2)));
    }

    #[test]
    fn window_grows_downward() {
        // First touch high, then low: the flat window must extend backwards
        // in whole leaves without disturbing existing slots.
        let high = 40 * PAGES_PER_LEAF * TCMALLOC_PAGE_BYTES;
        let mut pm = Pagemap::new();
        pm.set_range(high, 2, SpanId(1));
        pm.set_range(0, 2, SpanId(2));
        assert_eq!(pm.span_of(high), Some(SpanId(1)));
        assert_eq!(pm.span_of(0), Some(SpanId(2)));
        assert_eq!(pm.len(), 4);
    }

    #[test]
    fn window_grows_downward_across_chunks_keeping_live_entries() {
        // Start high, then walk down four chunks, one span per chunk: each
        // step prepends to the window and must carry every earlier entry
        // along.
        let page_of = |chunk: u64| chunk * PAGES_PER_LEAF + 7;
        let mut pm = Pagemap::new();
        for (i, chunk) in [9u64, 7, 6, 4, 3].into_iter().enumerate() {
            pm.set_range(page_of(chunk) * TCMALLOC_PAGE_BYTES, 3, SpanId(i as u32));
            for (j, earlier) in [9u64, 7, 6, 4, 3][..=i].iter().enumerate() {
                let addr = (page_of(*earlier) + 2) * TCMALLOC_PAGE_BYTES;
                assert_eq!(pm.span_of(addr), Some(SpanId(j as u32)), "chunk {earlier}");
            }
        }
        assert_eq!(pm.base_page, 3 * PAGES_PER_LEAF);
        assert_eq!(pm.slots.len() as u64, 7 * PAGES_PER_LEAF, "chunks 3..=9");
        let occ = pm.leaf_occupancy();
        let bases: Vec<u64> = occ.iter().map(|l| l.base_page / PAGES_PER_LEAF).collect();
        assert_eq!(bases, [3, 4, 6, 7, 9]);
        assert!(occ.iter().all(|l| l.pages_used == 3));
        assert_eq!(pm.span_of(page_of(5) * TCMALLOC_PAGE_BYTES), None, "gap");
    }

    #[test]
    #[should_panic(expected = "pagemap window blow-up")]
    fn spread_ceiling_trips_at_one_tib() {
        // The bound is on address-space spread, not on the leaf count: a
        // smaller leaf must not shrink it (nor let a corrupt address make
        // the window allocate half a gigabyte of slots first).
        let mut pm = Pagemap::new();
        pm.set_range(0, 1, SpanId(1));
        pm.set_range(1 << 40, 1, SpanId(2));
    }

    #[test]
    fn window_ceiling_is_one_tib_of_spread() {
        assert_eq!(
            MAX_WINDOW_LEAVES * PAGES_PER_LEAF * TCMALLOC_PAGE_BYTES,
            1 << 40
        );
    }

    #[test]
    #[should_panic(expected = "empty page range at 0x0")]
    fn empty_set_range_rejected() {
        // Page 0 is where `last - 1` used to underflow.
        Pagemap::new().set_range(0, 0, SpanId(1));
    }

    #[test]
    #[should_panic(expected = "empty page range at 0x4000")]
    fn empty_clear_range_rejected() {
        let mut pm = Pagemap::new();
        pm.set_range(0, 4, SpanId(1));
        pm.clear_range(2 * TCMALLOC_PAGE_BYTES, 0);
    }

    #[test]
    fn heap_base_addresses_resolve() {
        // The Vmm hands out addresses from the canonical heap base; the
        // window must land there without covering everything below it.
        let base = wsc_sim_os::vmm::HEAP_BASE;
        let mut pm = Pagemap::new();
        pm.set_range(base, 256, SpanId(3));
        assert_eq!(pm.span_of(base + 1000), Some(SpanId(3)));
        assert_eq!(pm.len(), 256);
        pm.clear_range(base, 256);
        assert!(pm.is_empty());
    }
}
