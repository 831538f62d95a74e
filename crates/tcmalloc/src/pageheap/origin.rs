//! Page-indexed origin tracker: which pageheap component placed each live
//! range, without a hash map on the dealloc path.
//!
//! Every pageheap deallocation must recover *where* the range came from
//! (filler / region / hugepage cache) from its base address alone. The
//! retired implementation probed a `HashMap<u64, Origin>` per call; this
//! tracker is arena-shaped like the rest of the metadata path: a flat,
//! chunk-aligned window of per-page slots (same windowing discipline as the
//! pagemap, growing in whole 8 MiB chunks both directions over the observed
//! page range) pointing into a dense slab of [`Origin`] records with
//! free-index recycling. Insert and remove are index arithmetic plus one
//! slab access — no hashing, no per-op allocation once the window is warm.
//! The chunk is 4 KiB of slots for the same reason the pagemap's leaf is:
//! a 256 MiB chunk was 128 KiB of fill per machine, paid before the first
//! allocation returned and never read by a machine with a 4 MiB heap.

use wsc_sim_os::addr::tcmalloc_page_index;

/// Sentinel marking a page with no origin record.
const EMPTY: u32 = u32::MAX;

/// log2 of the pages per window-growth chunk (1 024 pages = 8 MiB,
/// matching the pagemap's leaf granularity).
const CHUNK_BITS: u32 = 10;

/// Pages per window-growth chunk.
const CHUNK_PAGES: u64 = 1 << CHUNK_BITS;

/// Ceiling on the window, in chunks (1 TiB of address-space spread; more
/// indicates corruption, not a bigger heap).
const MAX_WINDOW_CHUNKS: u64 = 1 << 17;

/// Which pageheap component placed a range, and its extent.
#[derive(Clone, Copy, Debug)]
pub(super) enum Origin {
    /// Placed by the hugepage filler.
    Filler {
        /// Length in TCMalloc pages.
        pages: u32,
    },
    /// Placed in a hugepage region.
    Region {
        /// Length in TCMalloc pages.
        pages: u32,
    },
    /// Hugepage-multiple allocation served by the cache.
    Large {
        /// Length in TCMalloc pages.
        pages: u32,
        /// Donated tail pages in the final hugepage (0 = none).
        tail: u32,
    },
}

/// The page-indexed origin store.
#[derive(Clone, Debug, Default)]
pub(super) struct OriginTable {
    /// Per-page record indices for the covered window; `EMPTY` = none.
    slots: Vec<u32>,
    /// First page of the window, aligned to [`CHUNK_PAGES`]; meaningful
    /// once `slots` is non-empty.
    base_page: u64,
    /// Dense record slab, indexed by slot values.
    recs: Vec<Origin>,
    /// Recyclable slab indices.
    free_recs: Vec<u32>,
}

impl OriginTable {
    /// Grows the window (whole chunks, either direction) to cover `page`.
    // lint:allow(event-completeness) index maintenance; the pageheap emits
    // the placement events covering these ranges.
    fn ensure(&mut self, page: u64) {
        let lo = page & !(CHUNK_PAGES - 1);
        if self.slots.is_empty() {
            self.base_page = lo;
        }
        let new_lo = lo.min(self.base_page);
        let new_hi = (lo + CHUNK_PAGES).max(self.base_page + self.slots.len() as u64);
        assert!(
            (new_hi - new_lo) >> CHUNK_BITS <= MAX_WINDOW_CHUNKS,
            "origin table window blow-up"
        );
        if new_lo < self.base_page {
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

    /// Records `origin` for the range based at `addr`. Returns `false` if
    /// the base page already carried a record (the caller's
    /// double-allocation invariant), leaving the table unchanged.
    #[must_use]
    // lint:allow(event-completeness) index maintenance; the pageheap emits
    // the placement events covering these ranges.
    pub(super) fn insert(&mut self, addr: u64, origin: Origin) -> bool {
        let page = tcmalloc_page_index(addr);
        self.ensure(page);
        let slot = (page - self.base_page) as usize;
        // ensure() covers the page.
        if self.slots[slot] != EMPTY {
            return false;
        }
        let idx = if let Some(idx) = self.free_recs.pop() {
            self.recs[idx as usize] = origin;
            idx
        } else {
            assert!(
                self.recs.len() < EMPTY as usize,
                "origin record slab overflow"
            );
            self.recs.push(origin);
            self.recs.len() as u32 - 1
        };
        self.slots[slot] = idx;
        true
    }

    /// Takes the record for the range based at `addr`, if one exists. The
    /// slab index is recycled.
    // lint:allow(event-completeness) index maintenance; the pageheap emits
    // the placement events covering these ranges.
    pub(super) fn remove(&mut self, addr: u64) -> Option<Origin> {
        let page = tcmalloc_page_index(addr);
        let off = page.wrapping_sub(self.base_page);
        let slot = self.slots.get_mut(off as usize)?;
        let idx = *slot;
        if idx == EMPTY {
            return None;
        }
        *slot = EMPTY;
        self.free_recs.push(idx);
        Some(self.recs[idx as usize])
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;

    #[test]
    fn insert_remove_round_trip() {
        let mut t = OriginTable::default();
        assert!(t.insert(0x10000, Origin::Filler { pages: 4 }));
        assert!(matches!(
            t.remove(0x10000),
            Some(Origin::Filler { pages: 4 })
        ));
        assert!(t.remove(0x10000).is_none(), "record consumed");
    }

    #[test]
    fn double_insert_rejected() {
        let mut t = OriginTable::default();
        assert!(t.insert(0x10000, Origin::Filler { pages: 4 }));
        assert!(!t.insert(0x10000, Origin::Region { pages: 300 }));
        // The original record survives the rejected insert.
        assert!(matches!(
            t.remove(0x10000),
            Some(Origin::Filler { pages: 4 })
        ));
    }

    #[test]
    fn record_indices_recycle() {
        let mut t = OriginTable::default();
        for round in 0..3u64 {
            for i in 0..10u64 {
                let addr = (round * 10 + i + 1) * 64 * TCMALLOC_PAGE_BYTES;
                assert!(t.insert(
                    addr,
                    Origin::Large {
                        pages: 512,
                        tail: 0
                    }
                ));
            }
            for i in 0..10u64 {
                let addr = (round * 10 + i + 1) * 64 * TCMALLOC_PAGE_BYTES;
                assert!(t.remove(addr).is_some());
            }
        }
        assert_eq!(t.recs.len(), 10, "slab stops growing once warm");
    }

    #[test]
    fn window_grows_both_directions() {
        let mut t = OriginTable::default();
        let high = 40 * CHUNK_PAGES * TCMALLOC_PAGE_BYTES;
        assert!(t.insert(high, Origin::Filler { pages: 1 }));
        assert!(t.insert(0, Origin::Filler { pages: 2 }));
        assert!(matches!(t.remove(high), Some(Origin::Filler { pages: 1 })));
        assert!(matches!(t.remove(0), Some(Origin::Filler { pages: 2 })));
    }

    #[test]
    fn unknown_address_is_none() {
        let mut t = OriginTable::default();
        assert!(t.remove(0xdead_beef_0000).is_none());
        assert!(t.insert(0x10000, Origin::Filler { pages: 1 }));
        assert!(t.remove(0x20000).is_none(), "in-window miss");
        assert!(t.remove(0x7f00_0000_0000).is_none(), "out-of-window miss");
    }
}
