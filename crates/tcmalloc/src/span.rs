//! Spans: the unit of memory the central free list manages.
//!
//! §2.1: "A span is a collection of contiguous fixed-size regions, aligned
//! to an 8 KB TCMalloc page... a span contains multiple objects of the same
//! size class." A span is carved out of hugepages by the pageheap, hands
//! objects to the central free list, and can only return to the pageheap
//! when *every* object on it has been freed — the root cause of central-
//! free-list fragmentation (§4.3).
//!
//! # Arena-backed metadata
//!
//! A span's variable-size metadata — the free-object stack and the
//! double-free bitmap — does not live inside [`Span`]. Both are carved from
//! dense pools owned by the [`SpanRegistry`]'s `SlabArena`, indexed by
//! `SpanId`-addressed regions. This removes two heap allocations (and two
//! frees) from every span's create/release cycle and keeps the per-object
//! hot path (`alloc_objects` / `dealloc_object`) inside two flat arrays
//! instead of chasing per-span `Vec` headers. Regions are recycled with
//! their span id: a recycled id whose region capacity suffices reuses its
//! storage in place, so steady-state churn performs no pool growth at all.
//!
//! # The free stack: explicit entries over an implicit bump range
//!
//! A span's free objects are an *explicit* stack of freed indices (stack
//! top at the high end of the live prefix of the span's region) sitting on
//! top of an *implicit* bump range: indices `carved..capacity` have never
//! been handed out and are free without being written anywhere. A pop takes
//! the explicit top if there is one, else index `carved` (and advances it);
//! a push always lands on the explicit stack. That is exactly the order of
//! the retired `(0..capacity).rev().collect()` `Vec` — a fresh span hands
//! out 0, 1, 2, …, and the last object freed is the first reused — so
//! object address reuse, which the golden figures depend on, is bit-for-bit
//! unchanged, while a fresh span costs a zeroed bitmap instead of up to
//! 1 024 written stack entries (rpmalloc's active-span scheme).
//!
//! The old invariant `free stack length == capacity - allocated` reads
//! `explicit + (capacity - carved) == capacity - allocated`, i.e. the
//! explicit stack holds `carved - allocated` entries, at every step. That
//! is why [`Span`] needs no separate free-count field and the sanitizer can
//! audit the arena against the span inventory (see
//! [`SpanRegistry::arena_stats`]).

use crate::size_class::SizeClassInfo;
use wsc_sim_os::addr::{word_mask, TCMALLOC_PAGE_BYTES};

/// Identifier of a span inside a [`SpanRegistry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a span currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanState {
    /// On a central-free-list list (has free objects, may have live ones).
    InFreeList {
        /// Which priority list (0 = fullest, §4.3).
        list: u8,
        /// Position within that list's vector (for O(1) removal).
        pos: u32,
    },
    /// All objects allocated; not on any list.
    Full,
    /// A large (>256 KiB) allocation served directly by the pageheap.
    Large,
    /// Returned to the pageheap (terminal; id will be recycled).
    Released,
}

/// One span: a run of TCMalloc pages carved into equal-size objects.
///
/// Pure scalar record — the free stack and bitmap live in the registry's
/// `SlabArena`, so object alloc/free goes through
/// [`SpanRegistry::alloc_objects`] / [`SpanRegistry::dealloc_object`].
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Base address (TCMalloc-page aligned).
    pub start: u64,
    /// Length in TCMalloc pages.
    pub pages: u32,
    /// Size class index, or `None` for large allocations.
    pub size_class: Option<u16>,
    /// Object size in bytes (class size, or the rounded large size).
    pub object_size: u64,
    /// Total objects this span can hold (span capacity, §4.4).
    pub capacity: u32,
    /// Currently allocated (live) objects.
    pub allocated: u32,
    /// Bump pointer: objects `carved..capacity` have never been handed out
    /// and are free beneath the explicit free stack, which holds the other
    /// `carved - allocated` free objects.
    pub carved: u32,
    /// Current bookkeeping state.
    pub state: SpanState,
    /// Pending Figure-13 observation: the live-allocation count recorded at
    /// the last deallocation, resolved when the span is next allocated from
    /// (not released) or released.
    pub pending_obs: Option<u32>,
}

impl Span {
    /// Creates a small-object span for a size class.
    pub fn new_small(start: u64, class: u16, info: &SizeClassInfo) -> Self {
        Self {
            start,
            pages: info.pages,
            size_class: Some(class),
            object_size: info.size,
            capacity: info.objects_per_span,
            allocated: 0,
            carved: 0,
            state: SpanState::Full, // caller places it on a list
            pending_obs: None,
        }
    }

    /// Creates a large-allocation span covering `pages` TCMalloc pages.
    pub fn new_large(start: u64, pages: u32) -> Self {
        Self {
            start,
            pages,
            size_class: None,
            object_size: pages as u64 * TCMALLOC_PAGE_BYTES,
            capacity: 1,
            allocated: 1,
            carved: 1,
            state: SpanState::Large,
            pending_obs: None,
        }
    }

    /// Span length in bytes.
    pub fn bytes(&self) -> u64 {
        self.pages as u64 * TCMALLOC_PAGE_BYTES
    }

    /// Free objects currently on the span, explicit stack and bump range
    /// together. Derived from scalars, so reading it never touches the
    /// arena.
    pub fn free_count(&self) -> u32 {
        self.capacity - self.allocated
    }
}

/// A `SpanId`-indexed region descriptor into the [`SlabArena`] pools. The
/// descriptor outlives the span: when an id is recycled, a region whose
/// capacity suffices is reused in place.
#[derive(Clone, Copy, Debug, Default)]
struct SlabSlot {
    /// First entry of this span's free-stack region in `free_pool`.
    free_off: u32,
    /// First word of this span's bitmap region in `bm_pool`.
    bm_off: u32,
    /// Object capacity the region was carved for (reuse threshold).
    region_cap: u32,
}

/// Dense slab storage for span metadata: one pool of free-stack entries and
/// one pool of bitmap words, tiled exactly by the per-id regions described
/// in `slots` (the conservation law [`SpanRegistry::arena_stats`] exports).
#[derive(Clone, Debug, Default)]
struct SlabArena {
    /// Free-object-stack storage for every region, back to back.
    free_pool: Vec<u32>,
    /// Double-free-bitmap storage for every region, back to back.
    bm_pool: Vec<u64>,
    /// Region descriptor per span-id slot.
    slots: Vec<SlabSlot>,
    /// Free-pool entries stranded by regions re-carved at a larger
    /// capacity (the abandoned storage the conservation audit must still
    /// account for).
    retired_entries: u64,
    /// Bitmap-pool words stranded the same way.
    retired_words: u64,
}

impl SlabArena {
    /// Words a region of `cap` objects needs in the bitmap pool.
    fn words_for(cap: u32) -> usize {
        (cap as usize).div_ceil(64)
    }

    /// Ensures slot `idx` owns a region of at least `cap` objects, carving
    /// fresh pool storage only when the recycled region is too small, then
    /// resets the region for a new span: a zeroed bitmap. The free-stack
    /// region is left as it is — a new span's explicit stack is empty
    /// (`carved - allocated == 0`) and every entry is written by a free
    /// before a pop can read it.
    fn reset_region(&mut self, idx: usize, cap: u32) {
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, SlabSlot::default());
        }
        if self.slots[idx].region_cap < cap {
            // An undersized region is abandoned in place, not compacted:
            // record its storage so the pools stay fully accounted.
            self.retired_entries += self.slots[idx].region_cap as u64;
            self.retired_words += Self::words_for(self.slots[idx].region_cap) as u64;
            let free_off = self.free_pool.len();
            let bm_off = self.bm_pool.len();
            assert!(
                free_off + cap as usize <= u32::MAX as usize,
                "slab arena free pool overflow"
            );
            self.free_pool.resize(free_off + cap as usize, 0);
            self.bm_pool.resize(bm_off + Self::words_for(cap), 0);
            self.slots[idx] = SlabSlot {
                free_off: free_off as u32,
                bm_off: bm_off as u32,
                region_cap: cap,
            };
        }
        let slot = self.slots[idx];
        let wlo = slot.bm_off as usize;
        // lint:allow(panic-surface) the carve sized bm_pool to wlo +
        // words_for(region_cap).
        self.bm_pool[wlo..wlo + Self::words_for(slot.region_cap)].fill(0);
    }

    fn bit(&self, slot: SlabSlot, idx: u32) -> bool {
        // lint:allow(panic-surface) idx < region_cap; the region is sized
        // at reset_region time.
        self.bm_pool[slot.bm_off as usize + idx as usize / 64] >> (idx % 64) & 1 == 1
    }

    fn set_bit(&mut self, slot: SlabSlot, idx: u32, v: bool) {
        let w = slot.bm_off as usize + idx as usize / 64;
        if v {
            // Same region bound as bit().
            self.bm_pool[w] |= 1 << (idx % 64);
        } else {
            self.bm_pool[w] &= !(1 << (idx % 64));
        }
    }
}

/// Occupancy of the registry's slab arena, exported for the sanitizer's
/// conservation audit: the pools must be tiled exactly by the carved
/// regions, and live spans must fit the regions their ids own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Span-id slots ever minted (live + recyclable).
    pub slots_total: u64,
    /// Live spans occupying their slots.
    pub slots_live: u64,
    /// Entries in the free-stack pool.
    pub free_pool_entries: u64,
    /// Words in the bitmap pool.
    pub bitmap_pool_words: u64,
    /// Σ region capacity over all slots. Together with `retired_entries`
    /// this must equal `free_pool_entries`.
    pub reserved_entries: u64,
    /// Σ region bitmap words over all slots. Together with `retired_words`
    /// this must equal `bitmap_pool_words`.
    pub reserved_words: u64,
    /// Pool entries stranded by regions re-carved at a larger capacity.
    pub retired_entries: u64,
    /// Pool words stranded the same way.
    pub retired_words: u64,
}

/// Arena of spans with id recycling and slab-pooled metadata.
#[derive(Clone, Debug, Default)]
pub struct SpanRegistry {
    spans: Vec<Option<Span>>,
    free_ids: Vec<SpanId>,
    arena: SlabArena,
}

impl SpanRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// This registry emptied, exactly as [`new`](Self::new) builds one:
    /// no span, no id minted and no arena region carved, with the storage
    /// of the span table and both pools kept.
    pub fn renew(mut self) -> Self {
        self.spans.clear();
        self.free_ids.clear();
        self.arena.free_pool.clear();
        self.arena.bm_pool.clear();
        self.arena.slots.clear();
        Self {
            spans: self.spans,
            free_ids: self.free_ids,
            arena: SlabArena {
                free_pool: self.arena.free_pool,
                bm_pool: self.arena.bm_pool,
                slots: self.arena.slots,
                retired_entries: 0,
                retired_words: 0,
            },
        }
    }

    /// Inserts a span, returning its id. Carves (or reuses) the id's arena
    /// region and initializes its free stack and bitmap from the span's
    /// scalar state (`new_small`: all free; `new_large`: the single object
    /// already allocated).
    pub fn insert(&mut self, span: Span) -> SpanId {
        debug_assert!(
            span.allocated == 0 || (span.size_class.is_none() && span.allocated == span.capacity),
            "inserted spans are freshly carved"
        );
        let id = if let Some(id) = self.free_ids.pop() {
            // lint:allow(panic-surface) ids on the free list were minted
            // by push below, so they index inside the vec.
            self.spans[id.index()] = Some(span);
            id
        } else {
            self.spans.push(Some(span));
            SpanId(self.spans.len() as u32 - 1)
        };
        self.arena.reset_region(id.index(), span.capacity);
        if span.allocated > 0 {
            // Large span: capacity 1, already allocated — mark it.
            // lint:allow(panic-surface) reset_region just sized slots for
            // this id.
            let slot = self.arena.slots[id.index()];
            self.arena.set_bit(slot, 0, true);
        }
        id
    }

    /// Removes a span (it returned to the pageheap), yielding its scalar
    /// record. The arena region stays with the id for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn remove(&mut self, id: SpanId) -> Span {
        // lint:allow(panic-surface) documented panic: a stale id is
        // registry corruption, caught by the expect either way.
        let span = self.spans[id.index()].take().expect("stale span id");
        self.free_ids.push(id);
        span
    }

    /// Borrows a live span.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn get(&self, id: SpanId) -> &Span {
        // lint:allow(panic-surface) documented panic, as in remove().
        self.spans[id.index()].as_ref().expect("stale span id")
    }

    /// Mutably borrows a live span.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn get_mut(&mut self, id: SpanId) -> &mut Span {
        // lint:allow(panic-surface) documented panic, as in remove().
        self.spans[id.index()].as_mut().expect("stale span id")
    }

    /// Pops `n` free objects off span `id`, appending their addresses to
    /// `out`: the explicit stack from its top down (the most recently
    /// freed object first), then the bump range ascending, its bitmap bits
    /// set a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale or the span has fewer than `n` free
    /// objects (caller must check).
    pub fn alloc_objects(&mut self, id: SpanId, n: u32, out: &mut Vec<u64>) {
        // lint:allow(panic-surface) documented panic, as in get().
        let span = self.spans[id.index()].as_mut().expect("stale span id");
        assert!(
            n <= span.capacity - span.allocated,
            "alloc_objects on exhausted span"
        );
        // lint:allow(panic-surface) live ids always own a slot: insert()
        // carves one per id.
        let slot = self.arena.slots[id.index()];
        let explicit = span.carved - span.allocated;
        let from_stack = n.min(explicit);
        let lo = slot.free_off as usize + (explicit - from_stack) as usize;
        for k in (0..from_stack as usize).rev() {
            // lint:allow(panic-surface) lo + k < free_off + explicit, and
            // explicit <= carved <= capacity <= region_cap.
            let idx = self.arena.free_pool[lo + k];
            debug_assert!(!self.arena.bit(slot, idx), "object {idx} already allocated");
            self.arena.set_bit(slot, idx, true);
            out.push(span.start + idx as u64 * span.object_size);
        }
        let (first, end) = (span.carved, span.carved + (n - from_stack));
        if first < end {
            for w in first as usize / 64..=(end as usize - 1) / 64 {
                let mask = word_mask(w, first, end);
                // lint:allow(panic-surface) end <= capacity <= region_cap,
                // so w < words_for(region_cap), the region's bitmap words.
                let word = &mut self.arena.bm_pool[slot.bm_off as usize + w];
                debug_assert_eq!(*word & mask, 0, "bump range already allocated");
                *word |= mask;
            }
            out.extend((first..end).map(|idx| span.start + idx as u64 * span.object_size));
            span.carved = end;
        }
        span.allocated += n;
    }

    /// Returns an object to span `id`, pushing it on the explicit stack.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale, on addresses outside the span, unaligned
    /// addresses, or double free.
    pub fn dealloc_object(&mut self, id: SpanId, addr: u64) {
        // lint:allow(panic-surface) documented panic, as in get().
        let span = self.spans[id.index()].as_mut().expect("stale span id");
        assert!(
            addr >= span.start && addr < span.start + span.bytes(),
            "address {addr:#x} outside span at {:#x}",
            span.start
        );
        let off = addr - span.start;
        assert!(
            off.is_multiple_of(span.object_size),
            "misaligned free at offset {off} (object size {})",
            span.object_size
        );
        let idx = (off / span.object_size) as u32;
        assert!(idx < span.capacity, "object index {idx} out of range");
        // lint:allow(panic-surface) live ids always own a slot: insert()
        // carves one per id.
        let slot = self.arena.slots[id.index()];
        assert!(self.arena.bit(slot, idx), "double free of object {idx}");
        assert!(span.allocated > 0);
        span.allocated -= 1;
        let top = slot.free_off as usize + (span.carved - span.allocated) as usize - 1;
        // carved - allocated <= capacity <= region_cap.
        self.arena.free_pool[top] = idx;
        self.arena.set_bit(slot, idx, false);
    }

    /// Number of live spans.
    pub fn len(&self) -> usize {
        self.spans.len() - self.free_ids.len()
    }

    /// Any live spans?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates live spans.
    pub fn iter(&self) -> impl Iterator<Item = (SpanId, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (SpanId(i as u32), s)))
    }

    /// Arena occupancy for the sanitizer's conservation audit: pool sizes
    /// and the per-slot reservations that must tile them exactly.
    pub fn arena_stats(&self) -> ArenaStats {
        let (mut entries, mut words) = (0u64, 0u64);
        for slot in &self.arena.slots {
            entries += slot.region_cap as u64;
            words += SlabArena::words_for(slot.region_cap) as u64;
        }
        ArenaStats {
            slots_total: self.spans.len() as u64,
            slots_live: self.len() as u64,
            free_pool_entries: self.arena.free_pool.len() as u64,
            bitmap_pool_words: self.arena.bm_pool.len() as u64,
            reserved_entries: entries,
            reserved_words: words,
            retired_entries: self.arena.retired_entries,
            retired_words: self.arena.retired_words,
        }
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::size_class::SizeClassTable;

    fn small_span() -> Span {
        let t = SizeClassTable::production();
        let cl = t.class_for(16).unwrap();
        Span::new_small(0x10000, cl as u16, t.info(cl))
    }

    /// Pops one object: a batch of one.
    fn pop(reg: &mut SpanRegistry, id: SpanId) -> u64 {
        let mut out = Vec::new();
        reg.alloc_objects(id, 1, &mut out);
        out[0]
    }

    /// Registry with one small span, the fixture most tests drive.
    fn registry_with_span() -> (SpanRegistry, SpanId) {
        let mut reg = SpanRegistry::new();
        let id = reg.insert(small_span());
        (reg, id)
    }

    #[test]
    fn carve_and_return_all() {
        let (mut reg, id) = registry_with_span();
        assert_eq!(reg.get(id).capacity, 512);
        let mut addrs = Vec::new();
        for _ in 0..reg.get(id).capacity {
            addrs.push(pop(&mut reg, id));
        }
        assert_eq!(reg.get(id).free_count(), 0);
        assert_eq!(reg.get(id).allocated, 512);
        // Addresses are distinct and within the span.
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 512);
        for a in &addrs {
            reg.dealloc_object(id, *a);
        }
        assert_eq!(reg.get(id).allocated, 0);
        assert_eq!(reg.get(id).free_count(), 512);
    }

    #[test]
    fn lifo_reuse_order_is_vec_identical() {
        // The arena stack must pop objects in ascending-index order from a
        // fresh span, and return the most recently freed object first —
        // the exact semantics of the retired per-span Vec (address reuse
        // determinism the golden figures depend on).
        let (mut reg, id) = registry_with_span();
        let a0 = pop(&mut reg, id);
        let a1 = pop(&mut reg, id);
        let base = reg.get(id).start;
        let osize = reg.get(id).object_size;
        assert_eq!(a0, base, "fresh span hands out object 0 first");
        assert_eq!(a1, base + osize, "then object 1");
        reg.dealloc_object(id, a0);
        assert_eq!(pop(&mut reg, id), a0, "LIFO: last freed, first reused");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let (mut reg, id) = registry_with_span();
        let a = pop(&mut reg, id);
        reg.dealloc_object(id, a);
        reg.dealloc_object(id, a);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_free_detected() {
        let (mut reg, id) = registry_with_span();
        let a = pop(&mut reg, id);
        reg.dealloc_object(id, a + 1);
    }

    #[test]
    #[should_panic(expected = "outside span")]
    fn foreign_free_detected() {
        let (mut reg, id) = registry_with_span();
        reg.dealloc_object(id, 0xdead0000);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhausted_alloc_panics() {
        let t = SizeClassTable::production();
        let cl = t.class_for(256 << 10).unwrap();
        let mut reg = SpanRegistry::new();
        let id = reg.insert(Span::new_small(0, cl as u16, t.info(cl)));
        for _ in 0..=reg.get(id).capacity {
            pop(&mut reg, id);
        }
    }

    #[test]
    fn large_span_is_single_object() {
        let mut reg = SpanRegistry::new();
        let id = reg.insert(Span::new_large(0x8000, 100));
        let s = *reg.get(id);
        assert_eq!(s.capacity, 1);
        assert_eq!(s.allocated, 1);
        assert_eq!(s.size_class, None);
        // The single object frees and double-free-detects through the
        // arena bitmap like any other.
        reg.dealloc_object(id, 0x8000);
        assert_eq!(reg.get(id).allocated, 0);
    }

    #[test]
    fn registry_recycles_ids_and_regions() {
        let mut reg = SpanRegistry::new();
        let a = reg.insert(small_span());
        let b = reg.insert(small_span());
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        let before = reg.arena_stats();
        reg.remove(a);
        assert_eq!(reg.len(), 1);
        let c = reg.insert(small_span());
        assert_eq!(c, a, "id recycled");
        // Same capacity through the same slot: the arena reused the region
        // in place, no pool growth.
        assert_eq!(
            reg.arena_stats().free_pool_entries,
            before.free_pool_entries
        );
        assert_eq!(
            reg.arena_stats().bitmap_pool_words,
            before.bitmap_pool_words
        );
        // A reused region starts clean: full carve works again.
        for _ in 0..reg.get(c).capacity {
            pop(&mut reg, c);
        }
        assert_eq!(reg.get(c).free_count(), 0);
    }

    #[test]
    fn undersized_region_is_recarved() {
        // Recycle a capacity-1 (large) span's id into a 512-object small
        // span: the region must grow, and the conservation law must keep
        // holding.
        let mut reg = SpanRegistry::new();
        let a = reg.insert(Span::new_large(0x8000, 100));
        reg.dealloc_object(a, 0x8000);
        reg.remove(a);
        let b = reg.insert(small_span());
        assert_eq!(b, a, "id recycled");
        for _ in 0..512 {
            pop(&mut reg, b);
        }
        let stats = reg.arena_stats();
        assert_eq!(stats.retired_entries, 1, "capacity-1 region abandoned");
        assert_eq!(
            stats.free_pool_entries,
            stats.reserved_entries + stats.retired_entries
        );
        assert_eq!(
            stats.bitmap_pool_words,
            stats.reserved_words + stats.retired_words
        );
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_id_detected() {
        let mut reg = SpanRegistry::new();
        let a = reg.insert(small_span());
        reg.remove(a);
        let _ = reg.get(a);
    }

    /// The retired eager body, kept as the reference model: a span's free
    /// objects as one `Vec` carved in full at creation, popped and pushed
    /// at its end.
    struct EagerSpan {
        start: u64,
        object_size: u64,
        free: Vec<u32>,
        live: Vec<u64>,
    }

    impl EagerSpan {
        fn new(span: &Span) -> Self {
            Self {
                start: span.start,
                object_size: span.object_size,
                free: (0..span.capacity).rev().collect(),
                live: Vec::new(),
            }
        }

        fn alloc(&mut self) -> u64 {
            let idx = self.free.pop().unwrap();
            let addr = self.start + idx as u64 * self.object_size;
            self.live.push(addr);
            addr
        }

        fn dealloc(&mut self, k: usize) -> u64 {
            let addr = self.live.swap_remove(k);
            self.free
                .push(((addr - self.start) / self.object_size) as u32);
            addr
        }
    }

    /// The arena's accounting as the eager registry kept it: a region per
    /// id, re-carved (the old one retired in place) only when a recycled id
    /// meets a larger capacity.
    #[derive(Default)]
    struct EagerArena {
        region_caps: Vec<u32>,
        stats: ArenaStats,
    }

    impl EagerArena {
        fn insert(&mut self, id: SpanId, cap: u32) {
            if id.index() >= self.region_caps.len() {
                self.region_caps.resize(id.index() + 1, 0);
                self.stats.slots_total = self.region_caps.len() as u64;
            }
            let old = self.region_caps[id.index()];
            let words = |c: u32| u64::from(c.div_ceil(64));
            if old < cap {
                self.region_caps[id.index()] = cap;
                self.stats.retired_entries += u64::from(old);
                self.stats.retired_words += words(old);
                self.stats.free_pool_entries += u64::from(cap);
                self.stats.bitmap_pool_words += words(cap);
                self.stats.reserved_entries += u64::from(cap - old);
                self.stats.reserved_words += words(cap) - words(old);
            }
            self.stats.slots_live += 1;
        }
    }

    #[test]
    fn lazy_carve_matches_the_eager_stack_in_lockstep() {
        use wsc_prng::SmallRng;
        const CAPS: [u32; 5] = [1, 63, 64, 65, 1024];
        let span_of = |rng: &mut SmallRng, serial: u64| {
            let cap = CAPS[rng.gen_range(0usize..CAPS.len())];
            let info = SizeClassInfo {
                size: 8,
                pages: (cap * 8).div_ceil(TCMALLOC_PAGE_BYTES as u32),
                objects_per_span: cap,
                batch: 1,
            };
            Span::new_small(serial << 20, 0, &info)
        };
        let mut rng = SmallRng::seed_from_u64(0x5BA9);
        let mut reg = SpanRegistry::new();
        let mut arena = EagerArena::default();
        let mut model: Vec<Option<EagerSpan>> = Vec::new();
        let mut live_ids: Vec<SpanId> = Vec::new();
        let mut out = Vec::new();
        let (mut batches, mut recycled) = (0u32, [0u32; 3]);
        for op in 0..20_000u64 {
            let pick = rng.gen_range(0u32..100);
            if live_ids.is_empty() || pick < 4 {
                // Insert; with spans to spare, mostly remove one first so
                // the new span lands on a recycled id whose region is larger
                // than, equal to or smaller than it needs. The occasional
                // fresh id keeps young, small regions in the mix.
                let recycle =
                    live_ids.len() >= 6 && (live_ids.len() >= 64 || rng.gen_range(0u32..4) != 0);
                if recycle {
                    let id = live_ids.swap_remove(rng.gen_range(0usize..live_ids.len()));
                    reg.remove(id);
                    model[id.index()] = None;
                    arena.stats.slots_live -= 1;
                }
                let span = span_of(&mut rng, op + 1);
                let id = reg.insert(span);
                if recycle {
                    let old = arena.region_caps[id.index()];
                    recycled[(old.cmp(&span.capacity) as i8 + 1) as usize] += 1;
                }
                arena.insert(id, span.capacity);
                if id.index() >= model.len() {
                    model.resize_with(id.index() + 1, || None);
                }
                assert!(model[id.index()].is_none(), "op {op}: id {id:?} in use");
                model[id.index()] = Some(EagerSpan::new(&span));
                live_ids.push(id);
            } else {
                let id = live_ids[rng.gen_range(0usize..live_ids.len())];
                let m = model[id.index()].as_mut().unwrap();
                let free = m.free.len() as u32;
                if pick < 40 && free > 0 {
                    assert_eq!(pop(&mut reg, id), m.alloc(), "op {op}");
                } else if pick < 60 && free > 0 {
                    let n = rng.gen_range(0u32..free.min(80) + 1);
                    out.clear();
                    reg.alloc_objects(id, n, &mut out);
                    let want: Vec<u64> = (0..n).map(|_| m.alloc()).collect();
                    assert_eq!(out, want, "op {op}: batch of {n}");
                    batches += 1;
                } else if !m.live.is_empty() {
                    let k = rng.gen_range(0usize..m.live.len());
                    reg.dealloc_object(id, m.dealloc(k));
                }
                let s = reg.get(id);
                assert_eq!(s.free_count() as usize, m.free.len(), "op {op}");
                assert_eq!(s.allocated as usize, m.live.len(), "op {op}");
                assert!(s.allocated <= s.carved && s.carved <= s.capacity);
            }
            assert_eq!(reg.arena_stats(), arena.stats, "op {op}");
        }
        assert!(batches > 1_000, "batched pops exercised: {batches}");
        assert!(
            recycled.iter().all(|&n| n > 20),
            "ids recycled into smaller, equal and larger regions: {recycled:?}"
        );
    }

    #[test]
    fn batch_pop_sets_bump_bits_across_words() {
        // A batch that drains the explicit stack and then crosses two
        // bitmap-word boundaries in the bump range: every popped object
        // must be individually freeable afterwards (its bit was set) and
        // the next single pop continues where the batch stopped.
        let (mut reg, id) = registry_with_span();
        let (base, osize) = (reg.get(id).start, reg.get(id).object_size);
        let a: Vec<u64> = (0..3).map(|_| pop(&mut reg, id)).collect();
        reg.dealloc_object(id, a[0]);
        reg.dealloc_object(id, a[2]);
        let mut out = Vec::new();
        reg.alloc_objects(id, 2 + 150, &mut out);
        assert_eq!(&out[..2], &[a[2], a[0]], "explicit stack first, top down");
        let bump: Vec<u64> = (3..153).map(|i| base + i * osize).collect();
        assert_eq!(&out[2..], &bump[..], "then the bump range, ascending");
        assert_eq!(reg.get(id).carved, 153);
        assert_eq!(pop(&mut reg, id), base + 153 * osize);
        for addr in out {
            reg.dealloc_object(id, addr);
        }
        assert_eq!(reg.get(id).allocated, 2);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn batch_pop_beyond_free_count_panics() {
        let (mut reg, id) = registry_with_span();
        let free = reg.get(id).free_count();
        reg.alloc_objects(id, free + 1, &mut Vec::new());
    }

    #[test]
    fn arena_stats_conservation() {
        let mut reg = SpanRegistry::new();
        assert_eq!(reg.arena_stats(), ArenaStats::default());
        let a = reg.insert(small_span());
        let _b = reg.insert(Span::new_large(0x9000_0000, 4));
        let stats = reg.arena_stats();
        assert_eq!(stats.slots_total, 2);
        assert_eq!(stats.slots_live, 2);
        assert_eq!(stats.free_pool_entries, 512 + 1);
        assert_eq!(stats.reserved_entries, 512 + 1);
        assert_eq!(stats.bitmap_pool_words, 8 + 1);
        assert_eq!(stats.reserved_words, 8 + 1);
        reg.remove(a);
        let stats = reg.arena_stats();
        assert_eq!(stats.slots_live, 1, "region stays reserved for reuse");
        assert_eq!(stats.free_pool_entries, stats.reserved_entries);
    }
}
