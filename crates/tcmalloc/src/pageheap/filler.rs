//! The hugepage filler (§4.4): packing spans into hugepages.
//!
//! The filler serves every page-heap request smaller than a hugepage by
//! carving it out of partially-filled 2 MiB hugepages. It manages "83.6% of
//! the total in-use memory and accounts for 94.4% of the page heap
//! fragmentation" (Figure 15), so its packing policy decides both RAM waste
//! and hugepage coverage:
//!
//! * **Baseline** (Hunter et al., OSDI '21): satisfy a request from the
//!   hugepage with the *smallest longest-free-range* that still fits,
//!   breaking ties toward the *most allocations* — densify so that sparse
//!   hugepages drain and can be returned whole.
//! * **Lifetime-aware** (§4.4 redesign): additionally segregate spans by
//!   their statically-known *capacity* (objects per span), a zero-overhead
//!   proxy for span lifetime (Figure 16, Spearman ≈ −0.75): spans with
//!   capacity < C (few, large objects — short-lived) get dedicated
//!   hugepages, away from high-capacity long-lived spans, so their
//!   hugepages become totally free and are released to the OS *intact*.
//!
//! The filler also implements *subrelease* — breaking a partially-free
//! hugepage to return its free tail to the OS — which trades RAM for TLB
//! reach (§2.1, Figure 17).

use super::cache::HugeCache;
use super::os::{AllocError, OsLayer};
use crate::events::{AllocEvent, EventBus};
use wsc_prng::IntMap;
use wsc_sim_os::addr::{word_mask, HUGE_PAGE_BYTES, TCMALLOC_PAGES_PER_HUGE, TCMALLOC_PAGE_BYTES};

/// TCMalloc pages per hugepage (256).
pub const HP_PAGES: u32 = TCMALLOC_PAGES_PER_HUGE as u32;

const WORDS: usize = HP_PAGES as usize / 64;

/// Words of the per-set "list non-empty" index: one bit per
/// `lists[set][lfr]`, `lfr` in `0..=HP_PAGES`.
const INDEX_WORDS: usize = HP_PAGES as usize / 64 + 1;

/// A 256-bit page mask, one bit per TCMalloc page of a hugepage.
type PageMask = [u64; WORDS];

/// Maximal runs of set bits in a page mask, lowest first, as
/// `(start, len)`. A run that crosses a word boundary is yielded once. Each
/// step is one `trailing_zeros` over the rest of the current word, so a scan
/// costs the number of runs, not the number of pages.
struct Runs {
    mask: PageMask,
    w: usize,
    /// Bits of `mask[w]` already consumed (`< 64`).
    pos: u32,
}

impl Runs {
    fn new(mask: PageMask) -> Self {
        Self { mask, w: 0, pos: 0 }
    }
}

impl Iterator for Runs {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        // Skip clear bits to the start of the next run.
        loop {
            let rest = self.mask.get(self.w)? >> self.pos;
            if rest != 0 {
                self.pos += rest.trailing_zeros();
                break;
            }
            self.w += 1;
            self.pos = 0;
        }
        let start = self.w as u32 * 64 + self.pos;
        let mut len = 0;
        // Count set bits, carrying the run into following words while it
        // reaches bit 63. The shift fills the top with zeros, so the count
        // never exceeds the bits left in the word.
        while let Some(word) = self.mask.get(self.w) {
            let ones = (!(word >> self.pos)).trailing_zeros();
            len += ones;
            self.pos += ones;
            if self.pos < 64 {
                break;
            }
            self.w += 1;
            self.pos = 0;
        }
        Some((start, len))
    }
}

#[derive(Clone, Debug)]
struct PageTracker {
    base: u64,
    used_mask: PageMask,
    released_mask: PageMask,
    used: u32,
    /// Live span-allocations on this hugepage.
    allocations: u32,
    donated: bool,
    set: usize,
    /// Consecutive release passes this tracker has been an idle subrelease
    /// candidate (adaptive subrelease, Maas et al. \[49\]: give a draining
    /// hugepage time to become completely free before breaking it).
    idle_passes: u8,
    /// Cached longest free run (in pages); list index.
    lfr: u32,
    /// Position within `lists[set][lfr]`.
    pos: u32,
}

impl PageTracker {
    fn new(base: u64, set: usize) -> Self {
        Self {
            base,
            used_mask: [0; WORDS],
            released_mask: [0; WORDS],
            used: 0,
            allocations: 0,
            donated: false,
            set,
            idle_passes: 0,
            lfr: HP_PAGES,
            pos: 0,
        }
    }

    /// Marks pages `[start, start + n)` used (`v`) or free, a masked
    /// whole-word update per mask word.
    fn set_used(&mut self, start: u32, n: u32, v: bool) {
        for (w, word) in self.used_mask.iter_mut().enumerate() {
            let m = word_mask(w, start, start + n);
            if v {
                debug_assert!(*word & m == 0, "page in {start}+{n} already used");
                *word |= m;
            } else {
                debug_assert!(*word & m == m, "page in {start}+{n} not used");
                *word &= !m;
            }
        }
        if v {
            self.used += n;
        } else {
            self.used -= n;
        }
    }

    /// Clears the released bits of pages `[start, start + n)` and returns
    /// how many were set.
    fn clear_released(&mut self, start: u32, n: u32) -> u32 {
        let mut cleared = 0;
        for (w, word) in self.released_mask.iter_mut().enumerate() {
            let m = word_mask(w, start, start + n);
            cleared += (*word & m).count_ones();
            *word &= !m;
        }
        cleared
    }

    fn set_released(&mut self, start: u32, n: u32) {
        for (w, word) in self.released_mask.iter_mut().enumerate() {
            *word |= word_mask(w, start, start + n);
        }
    }

    /// Runs of free pages, lowest first.
    fn free_runs(&self) -> Runs {
        Runs::new(self.used_mask.map(|w| !w))
    }

    /// Runs of free pages that are still resident (not yet subreleased).
    fn free_resident_runs(&self) -> Runs {
        Runs::new(std::array::from_fn(|w| {
            !(self.used_mask[w] | self.released_mask[w])
        }))
    }

    fn longest_free_range(&self) -> u32 {
        self.free_runs().map(|(_, len)| len).max().unwrap_or(0)
    }

    /// First fit: the lowest offset of a free run of at least `n` pages.
    fn find_fit(&self, n: u32) -> Option<u32> {
        self.free_runs()
            .find(|&(_, len)| len >= n)
            .map(|(start, _)| start)
    }

    fn free_pages(&self) -> u32 {
        HP_PAGES - self.used
    }

    fn released_pages(&self) -> u32 {
        self.released_mask.iter().map(|w| w.count_ones()).sum()
    }
}

/// Counters exposed for Figure 15/16/17 telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FillerStats {
    /// Pages in live span allocations.
    pub used_pages: u64,
    /// Free pages inside partially-filled hugepages (fragmentation).
    pub free_pages: u64,
    /// Of those free pages, how many are subreleased (not resident).
    pub released_pages: u64,
    /// Tracked (partially-filled) hugepages.
    pub hugepages: u64,
    /// Hugepages ever returned whole to the cache.
    pub freed_whole: u64,
    /// Pages ever subreleased (cumulative).
    pub subreleased_total: u64,
}

/// The hugepage filler.
#[derive(Clone, Debug, Default)]
pub struct HugePageFiller {
    trackers: Vec<Option<PageTracker>>,
    free_ids: Vec<usize>,
    /// Iteration goes through `lists`/`trackers`, never this map.
    // lint:allow(hashmap-decl) keyed by hugepage base; never iterated
    by_hugepage: IntMap<u64, usize>,
    /// `lists[set][lfr]` = tracker ids with that longest free range.
    lists: Vec<Vec<Vec<usize>>>,
    /// Bit `lfr` of `nonempty[set]` is set exactly when `lists[set][lfr]`
    /// is non-empty. Only `list_insert`/`list_remove` touch either, so the
    /// placement probe and the subrelease walk read one bit per list
    /// instead of visiting up to 257 `Vec`s.
    nonempty: [[u64; INDEX_WORDS]; 2],
    lifetime_aware: bool,
    capacity_threshold: u32,
    freed_whole: u64,
    subreleased_total: u64,
}

impl HugePageFiller {
    /// This filler emptied: no hugepage tracked, with the storage of its
    /// tracker table, index and every longest-free-range list kept. With
    /// `lifetime_aware`, spans whose capacity is below
    /// `capacity_threshold` (the paper's C = 16) are placed on a dedicated
    /// set of hugepages.
    pub fn renew(mut self, lifetime_aware: bool, capacity_threshold: u32) -> Self {
        self.trackers.clear();
        self.free_ids.clear();
        self.by_hugepage.clear();
        self.lists.resize_with(2, Vec::new);
        for set in &mut self.lists {
            set.iter_mut().for_each(Vec::clear);
            set.resize_with(HP_PAGES as usize + 1, Vec::new);
        }
        Self {
            trackers: self.trackers,
            free_ids: self.free_ids,
            by_hugepage: self.by_hugepage,
            lists: self.lists,
            nonempty: [[0; INDEX_WORDS]; 2],
            lifetime_aware,
            capacity_threshold,
            freed_whole: 0,
            subreleased_total: 0,
        }
    }

    fn set_for(&self, span_capacity: u32) -> usize {
        if self.lifetime_aware && span_capacity < self.capacity_threshold {
            1 // Short-lived set
        } else {
            0
        }
    }

    fn tracker(&self, id: usize) -> &PageTracker {
        self.trackers[id].as_ref().expect("stale tracker id")
    }

    fn tracker_mut(&mut self, id: usize) -> &mut PageTracker {
        self.trackers[id].as_mut().expect("stale tracker id")
    }

    fn list_remove(&mut self, id: usize) {
        let (set, lfr, pos) = {
            let t = self.tracker(id);
            (t.set, t.lfr, t.pos as usize)
        };
        let list = &mut self.lists[set][lfr as usize];
        list.swap_remove(pos);
        if list.is_empty() {
            *self.index_word_mut(set, lfr) &= !(1 << (lfr % 64));
        } else if pos < list.len() {
            let moved = list[pos];
            self.tracker_mut(moved).pos = pos as u32;
        }
    }

    fn list_insert(&mut self, id: usize) {
        let (set, lfr) = {
            let t = self.tracker(id);
            (t.set, t.longest_free_range())
        };
        let pos = self.lists[set][lfr as usize].len() as u32;
        self.lists[set][lfr as usize].push(id);
        *self.index_word_mut(set, lfr) |= 1 << (lfr % 64);
        let t = self.tracker_mut(id);
        t.lfr = lfr;
        t.pos = pos;
    }

    /// The word of `nonempty[set]` holding list `lfr`'s bit.
    fn index_word_mut(&mut self, set: usize, lfr: u32) -> &mut u64 {
        // lint:allow(panic-surface) lfr <= HP_PAGES (a longest free range
        // never exceeds the hugepage), so lfr / 64 < INDEX_WORDS.
        &mut self.nonempty[set][lfr as usize / 64]
    }

    /// The smallest `lfr >= min` whose `lists[set][lfr]` is non-empty.
    fn first_nonempty(&self, set: usize, min: u32) -> Option<u32> {
        let first = min as usize / 64;
        let words = self.nonempty[set].iter().enumerate().skip(first);
        words
            .map(|(w, &word)| {
                // Bits below `min` in its own word do not count.
                let keep = if w == first { !0 << (min % 64) } else { !0 };
                (w, word & keep)
            })
            .find(|&(_, word)| word != 0)
            .map(|(w, word)| w as u32 * 64 + word.trailing_zeros())
    }

    /// The `lfr >= 1` whose `lists[set][lfr]` is non-empty, highest first.
    fn nonempty_desc(&self, set: usize) -> impl Iterator<Item = usize> {
        let words = self.nonempty[set].into_iter().enumerate().rev();
        words
            .flat_map(|(w, mut word)| {
                std::iter::from_fn(move || {
                    let bit = word.checked_ilog2()?;
                    word &= !(1 << bit);
                    Some(w * 64 + bit as usize)
                })
            })
            .filter(|&lfr| lfr > 0)
    }

    fn new_tracker(&mut self, base: u64, set: usize) -> usize {
        let tracker = PageTracker::new(base, set);
        let id = if let Some(id) = self.free_ids.pop() {
            self.trackers[id] = Some(tracker);
            id
        } else {
            self.trackers.push(Some(tracker));
            self.trackers.len() - 1
        };
        self.by_hugepage.insert(base / HUGE_PAGE_BYTES, id);
        id
    }

    /// Allocates `pages` (< 256) for a span of the given capacity.
    /// Returns `(addr, mmapped)` — `mmapped` true when a fresh hugepage came
    /// from the OS.
    ///
    /// # Errors
    ///
    /// Propagates the OS layer's refusal when a fresh hugepage is needed;
    /// filler state is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is 0 or ≥ a hugepage.
    pub fn alloc(
        &mut self,
        pages: u32,
        span_capacity: u32,
        cache: &mut HugeCache,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) -> Result<(u64, bool), AllocError> {
        assert!(
            (1..HP_PAGES).contains(&pages),
            "filler alloc of {pages} pages"
        );
        let set = self.set_for(span_capacity);
        // Baseline policy: smallest longest-free-range that fits, then most
        // allocations within that list.
        let chosen = self.first_nonempty(set, pages).and_then(|lfr| {
            self.lists[set][lfr as usize]
                .iter()
                .copied()
                .max_by_key(|&id| self.tracker(id).allocations)
        });
        let (id, mmapped) = match chosen {
            Some(id) => (id, false),
            None => {
                let (base, from_os) = cache.alloc_run(1, os, bus)?;
                if !from_os {
                    // Reused address range: fault it back in.
                    os.reoccupy(base, HUGE_PAGE_BYTES);
                    bus.emit(AllocEvent::HugepageFill {
                        base,
                        bytes: HUGE_PAGE_BYTES,
                        reused: true,
                    });
                }
                let id = self.new_tracker(base, set);
                self.list_insert(id);
                (id, from_os)
            }
        };
        self.list_remove(id);
        let t = self.tracker_mut(id);
        let off = t.find_fit(pages).expect("chosen tracker must fit");
        t.set_used(off, pages, true);
        t.allocations += 1;
        t.idle_passes = 0;
        let addr = t.base + off as u64 * TCMALLOC_PAGE_BYTES;
        // Fault back any subreleased pages we just allocated over.
        if t.clear_released(off, pages) > 0 {
            os.reoccupy(addr, pages as u64 * TCMALLOC_PAGE_BYTES);
            bus.emit(AllocEvent::HugepageFill {
                base: addr,
                bytes: pages as u64 * TCMALLOC_PAGE_BYTES,
                reused: true,
            });
        }
        self.list_insert(id);
        Ok((addr, mmapped))
    }

    /// Donates the tail of a large allocation's last hugepage to the filler
    /// (§4.4: "slack ... is then donated to the hugepage filler"). The head
    /// `head_pages` are occupied by the large allocation itself.
    // lint:allow(event-completeness) the owning pageheap emits the
    // SpanAlloc for the large allocation this donation is the tail of;
    // a second event here would double-count the hugepage.
    pub fn donate(&mut self, base: u64, head_pages: u32) {
        assert!(base.is_multiple_of(HUGE_PAGE_BYTES) && (1..HP_PAGES).contains(&head_pages));
        let id = self.new_tracker(base, 0);
        let t = self.tracker_mut(id);
        t.donated = true;
        t.set_used(0, head_pages, true);
        t.allocations = 1;
        self.list_insert(id);
    }

    /// Releases the donated head when its large allocation is freed.
    /// The tracker survives if filler allocations still live on the tail.
    pub fn free_donated_head(
        &mut self,
        base: u64,
        head_pages: u32,
        cache: &mut HugeCache,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) {
        let id = *self
            .by_hugepage
            .get(&(base / HUGE_PAGE_BYTES))
            .expect("donated hugepage not tracked");
        self.list_remove(id);
        let t = self.tracker_mut(id);
        assert!(t.donated, "hugepage was not donated");
        t.set_used(0, head_pages, false);
        t.allocations -= 1;
        if t.used == 0 {
            self.retire(id, cache, os, bus);
        } else {
            self.list_insert(id);
        }
    }

    /// Returns span pages to the filler. A fully-drained hugepage is
    /// returned *whole* to the hugepage cache (keeping it intact for THP).
    ///
    /// # Panics
    ///
    /// Panics if the range is not a live filler allocation.
    pub fn dealloc(
        &mut self,
        addr: u64,
        pages: u32,
        cache: &mut HugeCache,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) {
        let hp = addr / HUGE_PAGE_BYTES;
        let id = *self
            .by_hugepage
            .get(&hp)
            // lint:allow(panic-surface) an untracked hugepage here means
            // the pageheap's own bookkeeping is corrupt; abort loudly.
            .unwrap_or_else(|| panic!("dealloc of untracked hugepage {hp:#x}"));
        self.list_remove(id);
        let t = self.tracker_mut(id);
        let off = ((addr % HUGE_PAGE_BYTES) / TCMALLOC_PAGE_BYTES) as u32;
        t.set_used(off, pages, false);
        t.allocations -= 1;
        // Note: a dealloc does NOT reset `idle_passes` — a draining
        // hugepage is the best candidate to eventually release whole.
        if t.used == 0 {
            self.retire(id, cache, os, bus);
        } else {
            self.list_insert(id);
        }
    }

    /// Removes a fully-free tracker. An intact hugepage goes to the cache
    /// for reuse; a *broken* one (subreleased pages, THP backing lost) is
    /// returned to the OS directly — a fresh `mmap` later yields a pristine
    /// hugepage, whereas caching the broken one would strand its holes.
    fn retire(&mut self, id: usize, cache: &mut HugeCache, os: &mut OsLayer, bus: &mut EventBus) {
        let t = self.trackers[id].take().expect("stale tracker id");
        self.free_ids.push(id);
        self.by_hugepage.remove(&(t.base / HUGE_PAGE_BYTES));
        if t.released_pages() > 0 {
            os.munmap(t.base, HUGE_PAGE_BYTES);
            bus.emit(AllocEvent::HugepageRelease {
                base: t.base,
                bytes: HUGE_PAGE_BYTES,
            });
        } else {
            self.freed_whole += 1;
            cache.free_run(t.base, 1, os, bus);
        }
    }

    /// Subreleases up to `target_pages` free pages back to the OS, starting
    /// from the *emptiest* hugepages (highest longest-free-range), skipping
    /// donated hugepages. Breaking a hugepage sacrifices its THP backing,
    /// so a tracker must have been an idle candidate for `grace_passes`
    /// consecutive passes first (adaptive subrelease, Maas et al. \[49\]) — a
    /// is actively draining gets the chance to become completely free and be
    /// released *whole* instead. Returns the number of pages released.
    pub fn subrelease(
        &mut self,
        target_pages: u64,
        grace_passes: u8,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) -> u64 {
        let mut released = 0u64;
        // Short-set hugepages (set 1) get an 8x longer grace: they exist
        // precisely because they drain completely and release *whole*, and
        // breaking one just before it drains destroys that benefit. The
        // price is that holes pinned by a mispredicted long-lived span stay
        // resident longer — negligible against production heaps, visible at
        // simulation scale (see EXPERIMENTS.md).
        'outer: for set in 0..self.lists.len() {
            let required = if set == 0 {
                grace_passes
            } else {
                grace_passes.saturating_mul(8).max(8)
            };
            // Subreleasing moves no tracker between lists (`used_mask` is
            // untouched), so the index snapshot behind `nonempty_desc` and
            // every list position stay valid for the whole pass.
            for lfr in self.nonempty_desc(set) {
                for k in 0..self.lists[set][lfr].len() {
                    if released >= target_pages {
                        break 'outer;
                    }
                    let id = self.lists[set][lfr][k];
                    let t = self.tracker_mut(id);
                    if t.idle_passes < required {
                        t.idle_passes = t.idle_passes.saturating_add(1);
                        continue;
                    }
                    if t.donated {
                        continue;
                    }
                    // Release free, not-yet-released pages up to budget.
                    let mut pages_left = (target_pages - released) as u32;
                    let base = t.base;
                    for (s, n) in t.free_resident_runs() {
                        if pages_left == 0 {
                            break;
                        }
                        let n = n.min(pages_left);
                        pages_left -= n;
                        // Commit the released bits only after the kernel
                        // accepted the madvise — a failed subrelease leaves
                        // the pages resident, and marking them released
                        // anyway would break conservation (resident ==
                        // live + fragmentation).
                        if os
                            .subrelease(
                                base + s as u64 * TCMALLOC_PAGE_BYTES,
                                n as u64 * TCMALLOC_PAGE_BYTES,
                                bus,
                            )
                            .is_err()
                        {
                            // Flaky madvise: skipped this pass, retried on
                            // the next one.
                            continue;
                        }
                        self.tracker_mut(id).set_released(s, n);
                        bus.emit(AllocEvent::HugepageBreak {
                            base: base + s as u64 * TCMALLOC_PAGE_BYTES,
                            bytes: n as u64 * TCMALLOC_PAGE_BYTES,
                        });
                        released += n as u64;
                        self.subreleased_total += n as u64;
                    }
                }
            }
        }
        released
    }

    /// Current counters.
    pub fn stats(&self) -> FillerStats {
        let mut s = FillerStats {
            freed_whole: self.freed_whole,
            subreleased_total: self.subreleased_total,
            ..FillerStats::default()
        };
        for t in self.trackers.iter().flatten() {
            s.used_pages += t.used as u64;
            s.free_pages += t.free_pages() as u64;
            s.released_pages += t.released_pages() as u64;
            s.hugepages += 1;
        }
        s
    }

    /// Bytes in live filler allocations.
    pub fn used_bytes(&self) -> u64 {
        self.stats().used_pages * TCMALLOC_PAGE_BYTES
    }

    /// Resident free bytes inside tracked hugepages (the filler's
    /// fragmentation contribution, Figure 15).
    pub fn free_resident_bytes(&self) -> u64 {
        let s = self.stats();
        (s.free_pages - s.released_pages) * TCMALLOC_PAGE_BYTES
    }

    /// Per-hugepage page accounting for the sanitizer's backing audit:
    /// `(base, used, free, released, used_and_released)` per tracker. `used`
    /// counts the used mask and `free` is derived from the used counter, so
    /// the audit's `used + free = 256` compares the two stores.
    pub fn hugepage_accounting(&self) -> Vec<(u64, u32, u32, u32, u32)> {
        self.trackers
            .iter()
            .flatten()
            .map(|t| {
                let overlap = t
                    .used_mask
                    .iter()
                    .zip(&t.released_mask)
                    .map(|(u, r)| (u & r).count_ones())
                    .sum();
                let used = t.used_mask.iter().map(|w| w.count_ones()).sum();
                (t.base, used, t.free_pages(), t.released_pages(), overlap)
            })
            .collect()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::TcmallocConfig;
    use wsc_sim_os::clock::Clock;

    fn setup() -> (HugePageFiller, HugeCache, OsLayer, EventBus) {
        (
            HugePageFiller::default().renew(false, 16),
            HugeCache::new(0), // no caching: frees go straight to the OS
            OsLayer::default(),
            EventBus::default().renew(&TcmallocConfig::baseline(), Clock::new()),
        )
    }

    #[test]
    fn first_alloc_mmaps_then_packs() {
        let (mut f, mut c, mut os, mut b) = setup();
        let (a, mmapped) = f.alloc(10, 100, &mut c, &mut os, &mut b).unwrap();
        assert!(mmapped);
        let (b2, mmapped2) = f.alloc(10, 100, &mut c, &mut os, &mut b).unwrap();
        assert!(!mmapped2, "same hugepage reused");
        assert_eq!(b2, a + 10 * TCMALLOC_PAGE_BYTES);
        assert_eq!(f.stats().hugepages, 1);
        assert_eq!(f.stats().used_pages, 20);
    }

    #[test]
    fn dense_packing_prefers_fullest() {
        let (mut f, mut c, mut os, mut b) = setup();
        // Build two hugepages: a dense one (251/256 used, lfr 5) and a
        // sparse one (100/256 used, lfr 156).
        let (a1, _) = f.alloc(200, 100, &mut c, &mut os, &mut b).unwrap();
        let (a2, _) = f.alloc(251, 100, &mut c, &mut os, &mut b).unwrap(); // no fit on hp1 -> hp2
        let (_a3, _) = f.alloc(30, 100, &mut c, &mut os, &mut b).unwrap(); // hp1: 230 used
        f.dealloc(a1, 200, &mut c, &mut os, &mut b); // hp1: 30 used, sparse
                                                     // A 4-page request must go to the dense hp2 (smallest fitting lfr).
        let (a4, mm) = f.alloc(4, 100, &mut c, &mut os, &mut b).unwrap();
        assert!(!mm);
        assert_eq!(a4 / HUGE_PAGE_BYTES, a2 / HUGE_PAGE_BYTES);
    }

    #[test]
    fn drained_hugepage_returns_whole() {
        let (mut f, mut c, mut os, mut b) = setup();
        let (a, _) = f.alloc(50, 100, &mut c, &mut os, &mut b).unwrap();
        let (b2, _) = f.alloc(60, 100, &mut c, &mut os, &mut b).unwrap();
        f.dealloc(a, 50, &mut c, &mut os, &mut b);
        assert_eq!(f.stats().hugepages, 1);
        f.dealloc(b2, 60, &mut c, &mut os, &mut b);
        assert_eq!(f.stats().hugepages, 0);
        assert_eq!(f.stats().freed_whole, 1);
        // Cache limit 0 → hugepage munmapped back to the OS intact.
        assert_eq!(os.vmm().page_table().mapped_bytes(), 0);
        assert_eq!(os.stats().madvise_calls, 0, "no subrelease needed");
    }

    #[test]
    fn lifetime_sets_segregate() {
        let mut f = HugePageFiller::default().renew(true, 16);
        let (_, mut c, mut os, mut b) = setup();
        // capacity 512 (small objects, long-lived) vs capacity 1 (huge
        // objects, short-lived) must land on different hugepages.
        let (a, _) = f.alloc(4, 512, &mut c, &mut os, &mut b).unwrap();
        let (b2, _) = f.alloc(4, 1, &mut c, &mut os, &mut b).unwrap();
        assert_ne!(a / HUGE_PAGE_BYTES, b2 / HUGE_PAGE_BYTES);
        assert_eq!((f.set_for(512), f.set_for(1)), (0, 1));
        assert_eq!(f.stats().hugepages, 2);
    }

    #[test]
    fn baseline_mixes_capacities() {
        let (mut f, mut c, mut os, mut b) = setup();
        let (a, _) = f.alloc(4, 512, &mut c, &mut os, &mut b).unwrap();
        let (b2, _) = f.alloc(4, 1, &mut c, &mut os, &mut b).unwrap();
        assert_eq!(a / HUGE_PAGE_BYTES, b2 / HUGE_PAGE_BYTES, "baseline shares");
    }

    #[test]
    fn donation_and_head_free() {
        let (mut f, mut c, mut os, mut b) = setup();
        let base = os.mmap(HUGE_PAGE_BYTES, &mut b).unwrap();
        f.donate(base, 64);
        assert_eq!(f.stats().used_pages, 64);
        // Filler can allocate from the donated tail.
        let (a, mm) = f.alloc(10, 100, &mut c, &mut os, &mut b).unwrap();
        assert!(!mm);
        assert_eq!(a / HUGE_PAGE_BYTES, base / HUGE_PAGE_BYTES);
        // Free the head; tracker survives because of the tail allocation.
        f.free_donated_head(base, 64, &mut c, &mut os, &mut b);
        assert_eq!(f.stats().hugepages, 1);
        f.dealloc(a, 10, &mut c, &mut os, &mut b);
        assert_eq!(f.stats().hugepages, 0);
    }

    #[test]
    fn subrelease_breaks_hugepages_and_frees_ram() {
        let (mut f, mut c, mut os, mut b) = setup();
        let (a, _) = f.alloc(50, 100, &mut c, &mut os, &mut b).unwrap();
        let _keep = f.alloc(6, 100, &mut c, &mut os, &mut b).unwrap();
        f.dealloc(a, 50, &mut c, &mut os, &mut b);
        let resident_before = os.page_table().resident_bytes();
        let released = f.subrelease(1000, 0, &mut os, &mut b);
        assert_eq!(released, 250, "all free pages released");
        assert_eq!(
            os.page_table().resident_bytes(),
            resident_before - 250 * TCMALLOC_PAGE_BYTES
        );
        assert!(!os.page_table().is_huge_backed(a), "hugepage broken");
        // Released pages remain allocatable; realloc faults them back.
        let (b2, mm) = f.alloc(50, 100, &mut c, &mut os, &mut b).unwrap();
        assert!(!mm);
        assert_eq!(b2 / HUGE_PAGE_BYTES, a / HUGE_PAGE_BYTES);
        assert!(os.page_table().resident_bytes() > resident_before - 250 * TCMALLOC_PAGE_BYTES);
        // The remaining free pages are all already released: nothing to do.
        assert_eq!(f.subrelease(1000, 0, &mut os, &mut b), 0);
    }

    #[test]
    fn subrelease_skips_donated() {
        let (mut f, _c, mut os, mut b) = setup();
        let base = os.mmap(HUGE_PAGE_BYTES, &mut b).unwrap();
        f.donate(base, 64);
        assert_eq!(f.subrelease(1000, 0, &mut os, &mut b), 0);
        assert!(os.page_table().is_huge_backed(base));
    }

    #[test]
    #[should_panic(expected = "untracked hugepage")]
    fn foreign_dealloc_panics() {
        let (mut f, mut c, mut os, mut b) = setup();
        f.dealloc(0x123 * HUGE_PAGE_BYTES, 1, &mut c, &mut os, &mut b);
    }

    #[test]
    fn stats_consistency() {
        let (mut f, mut c, mut os, mut b) = setup();
        let (_a, _) = f.alloc(100, 32, &mut c, &mut os, &mut b).unwrap();
        let (_b, _) = f.alloc(30, 32, &mut c, &mut os, &mut b).unwrap();
        let s = f.stats();
        assert_eq!(s.used_pages + s.free_pages, s.hugepages * HP_PAGES as u64);
        assert_eq!(f.used_bytes(), 130 * TCMALLOC_PAGE_BYTES);
        assert_eq!(
            f.free_resident_bytes(),
            (s.hugepages * 256 - 130) * TCMALLOC_PAGE_BYTES
        );
    }
}
