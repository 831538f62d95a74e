//! The central free list (§4.3), with span prioritization.
//!
//! One central free list per size class manages that class's spans and
//! serves batch requests from the transfer cache. A span can only return to
//! the pageheap when *all* its objects are free, so *which span* serves an
//! allocation decides fragmentation: the legacy singleton list hands out
//! objects "from spans with the fewest live allocations that are most likely
//! to be released, just because they happen to lie in the front of the
//! linked list".
//!
//! The redesign keeps `L` lists (L = 8 in production and here): a span with
//! `A` live allocations sits on list `max(0, L-1-⌊log2 A⌋)`, so nearly-full
//! spans (A ≥ 128) share list 0 and nearly-empty spans spread across the
//! high-indexed lists ("spans with 132 or 255 live allocations ... can be
//! mapped in the same list"). Allocations are served from the lowest-indexed
//! non-empty list — densifying full spans and letting empty ones drain.
//!
//! The module also gathers the paper's span telemetry: the Figure 13
//! release-probability-vs-occupancy curve and the Figure 16 per-class span
//! creation/return counts.

use crate::events::{AllocEvent, EventBus};
use crate::pageheap::{AllocError, PageHeap};
use crate::pagemap::Pagemap;
use crate::size_class::SizeClassInfo;
use crate::span::{Span, SpanId, SpanRegistry, SpanState};
use wsc_sim_hw::cost::AllocPath;

/// Observation table for Figure 13: for each occupancy `A`, how many
/// observations resolved as "span released before next allocation".
#[derive(Clone, Debug, Default)]
pub struct SpanReturnObs {
    /// `(released, total)` per live-allocation count (index clamped to the
    /// span capacity). Allocated by the first [`record`](Self::record): a
    /// class that never frees an object back to a span never pays for its
    /// table.
    buckets: Vec<(u64, u64)>,
    /// Span capacity of the class: the last bucket's index.
    capacity: u32,
}

impl SpanReturnObs {
    /// This table emptied for a class of span `capacity`, keeping its
    /// storage for the next first observation.
    fn renew(mut self, capacity: u32) -> Self {
        self.buckets.clear();
        Self {
            buckets: self.buckets,
            capacity,
        }
    }

    fn record(&mut self, live: u32, released: bool) {
        if self.buckets.is_empty() {
            self.buckets.resize(self.capacity as usize + 1, (0, 0));
        }
        // lint:allow(panic-surface) live is clamped to capacity, the last
        // of the capacity + 1 buckets.
        let bucket = &mut self.buckets[live.min(self.capacity) as usize];
        bucket.1 += 1;
        if released {
            bucket.0 += 1;
        }
    }

    /// Iterates `(live_allocations, release_rate, observations)` for
    /// occupancies with data.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &(_, tot))| tot > 0)
            .map(|(a, &(rel, tot))| (a as u32, rel as f64 / tot as f64, tot))
    }
}

/// The central free list for one size class.
#[derive(Clone, Debug, Default)]
pub struct CentralFreeList {
    class: u16,
    info: SizeClassInfo,
    lists: Vec<Vec<SpanId>>,
    /// Free objects across spans on the lists (running counter).
    free_objects: u64,
    /// Spans ever requested from the pageheap (Figure 16 denominator).
    pub spans_created: u64,
    /// Spans ever returned to the pageheap (Figure 16 numerator).
    pub spans_released: u64,
    /// Figure 13 observations.
    pub obs: SpanReturnObs,
}

impl CentralFreeList {
    /// This free list emptied for `class`, with `num_lists` priority lists
    /// (1 = legacy singleton, 8 = span prioritization) and its lists' and
    /// observation table's storage kept.
    ///
    /// # Panics
    ///
    /// Panics if `num_lists` is zero.
    pub fn renew(mut self, class: u16, info: SizeClassInfo, num_lists: usize) -> Self {
        assert!(num_lists > 0, "need at least one span list");
        self.lists.truncate(num_lists);
        self.lists.iter_mut().for_each(Vec::clear);
        self.lists.resize_with(num_lists, Vec::new);
        Self {
            class,
            info,
            lists: self.lists,
            free_objects: 0,
            spans_created: 0,
            spans_released: 0,
            obs: self.obs.renew(info.objects_per_span),
        }
    }

    /// List index for a span with `allocated` live objects:
    /// `max(0, L-1-⌊log2 A⌋)`, with brand-new spans (A = 0) at the top.
    fn list_for(&self, allocated: u32) -> usize {
        let top = self.lists.len() - 1;
        if allocated == 0 {
            return top;
        }
        let log2 = 31 - allocated.leading_zeros() as usize;
        top.saturating_sub(log2)
    }

    fn list_insert(&mut self, spans: &mut SpanRegistry, id: SpanId) {
        let allocated = spans.get(id).allocated;
        let list = self.list_for(allocated);
        let pos = self.lists[list].len() as u32;
        self.lists[list].push(id);
        spans.get_mut(id).state = SpanState::InFreeList {
            list: list as u8,
            pos,
        };
    }

    fn list_remove(&mut self, spans: &mut SpanRegistry, id: SpanId) {
        let SpanState::InFreeList { list, pos } = spans.get(id).state else {
            // lint:allow(panic-surface) free-list/span-state disagreement
            // is allocator-internal corruption, not a recoverable
            // allocation failure; aborting preserves the crime scene.
            panic!("span not on a list");
        };
        let (list, pos) = (list as usize, pos as usize);
        self.lists[list].swap_remove(pos);
        if pos < self.lists[list].len() {
            let moved = self.lists[list][pos];
            let SpanState::InFreeList { list: ml, pos: _ } = spans.get(moved).state else {
                // lint:allow(panic-surface) same internal invariant as
                // above, for the span displaced by swap_remove.
                panic!("moved span not on a list");
            };
            debug_assert_eq!(ml as usize, list);
            spans.get_mut(moved).state = SpanState::InFreeList {
                list: list as u8,
                pos: pos as u32,
            };
        }
    }

    /// Re-slots a span after its occupancy changed.
    fn list_update(&mut self, spans: &mut SpanRegistry, id: SpanId) {
        let (current, allocated, has_free) = {
            let s = spans.get(id);
            let cur = match s.state {
                SpanState::InFreeList { list, .. } => Some(list as usize),
                _ => None,
            };
            (cur, s.allocated, s.free_count() > 0)
        };
        let target = has_free.then(|| self.list_for(allocated));
        match (current, target) {
            (Some(c), Some(t)) if c == t => {}
            (Some(_), Some(_)) => {
                self.list_remove(spans, id);
                self.list_insert(spans, id);
            }
            (Some(_), None) => {
                self.list_remove(spans, id);
                spans.get_mut(id).state = SpanState::Full;
            }
            (None, Some(_)) => self.list_insert(spans, id),
            (None, None) => {}
        }
    }

    /// Resolves a pending Figure-13 observation run on `id`.
    fn resolve_obs(&mut self, spans: &mut SpanRegistry, id: SpanId, released: bool) {
        let span = spans.get_mut(id);
        if let Some(pending) = span.pending_obs.take() {
            let lo = if released { 1 } else { span.allocated.max(1) };
            for a in lo..=pending {
                self.obs.record(a, released);
            }
        }
    }

    /// Extracts up to `n` objects, growing from the pageheap when every span
    /// is exhausted. Appends the objects to `out` and returns the deepest
    /// tier touched. The batch emits one [`AllocEvent::CentralRefill`]; each
    /// fresh span emits [`AllocEvent::SpanAlloc`] plus its pagemap
    /// registration.
    ///
    /// # Errors
    ///
    /// When the pageheap cannot grow (ENOMEM / hard limit) and *no* objects
    /// were gathered, the error is surfaced and `out` is as it was. If some
    /// objects were already extracted before the refusal, the partial batch
    /// stays in `out` — memory in hand beats an error the caller would
    /// retry anyway.
    pub fn alloc_batch(
        &mut self,
        n: usize,
        out: &mut Vec<u64>,
        spans: &mut SpanRegistry,
        pagemap: &mut Pagemap,
        pageheap: &mut PageHeap,
        bus: &mut EventBus,
    ) -> Result<AllocPath, AllocError> {
        let start = out.len();
        let mut deepest = AllocPath::CentralFreeList;
        while out.len() - start < n {
            // Lowest-indexed non-empty list: the fullest spans.
            let id = self.lists.iter().find_map(|l| l.last().copied());
            let id = match id {
                Some(id) => id,
                None => {
                    // Grow: request a fresh span from the pageheap.
                    let (addr, path) =
                        match pageheap.alloc(self.info.pages, self.info.objects_per_span, bus) {
                            Ok(placed) => placed,
                            Err(e) if out.len() == start => return Err(e),
                            Err(_) => break, // serve the partial batch
                        };
                    deepest = match (deepest, path) {
                        (_, AllocPath::Mmap) | (AllocPath::Mmap, _) => AllocPath::Mmap,
                        _ => AllocPath::PageHeap,
                    };
                    let span = Span::new_small(addr, self.class, &self.info);
                    let id = spans.insert(span);
                    bus.emit(AllocEvent::SpanAlloc {
                        id: id.0,
                        start: addr,
                        pages: self.info.pages,
                        class: Some(self.class),
                    });
                    pagemap.set_range_traced(addr, self.info.pages, id, bus);
                    self.spans_created += 1;
                    self.free_objects += self.info.objects_per_span as u64;
                    self.list_insert(spans, id);
                    id
                }
            };
            self.resolve_obs(spans, id, false);
            let take = (n - (out.len() - start)).min(spans.get(id).free_count() as usize);
            spans.alloc_objects(id, take as u32, out);
            self.free_objects -= take as u64;
            self.list_update(spans, id);
        }
        bus.emit(AllocEvent::CentralRefill {
            class: self.class,
            count: (out.len() - start) as u32,
        });
        Ok(deepest)
    }

    /// Returns one object to its span. When the span drains completely it is
    /// released to the pageheap (emitting [`AllocEvent::SpanRetire`], which
    /// also feeds the sanitizer's page mirror); returns `true` in that case.
    pub fn dealloc(
        &mut self,
        addr: u64,
        id: SpanId,
        spans: &mut SpanRegistry,
        pagemap: &mut Pagemap,
        pageheap: &mut PageHeap,
        bus: &mut EventBus,
    ) -> bool {
        debug_assert_eq!(
            spans.get(id).size_class,
            Some(self.class),
            "span class mismatch"
        );
        spans.dealloc_object(id, addr);
        let allocated_after = {
            let span = spans.get_mut(id);
            let a = span.allocated;
            span.pending_obs = Some(span.pending_obs.map_or(a.max(1), |p| p.max(a.max(1))));
            a
        };
        self.free_objects += 1;
        if allocated_after == 0 {
            // Release the span to the pageheap.
            self.resolve_obs(spans, id, true);
            if matches!(spans.get(id).state, SpanState::InFreeList { .. }) {
                self.list_remove(spans, id);
            }
            let span = spans.remove(id);
            bus.emit(AllocEvent::SpanRetire {
                id: id.0,
                start: span.start,
                pages: span.pages,
                class: Some(self.class),
            });
            pagemap.clear_range_traced(span.start, span.pages, bus);
            pageheap.dealloc(span.start, span.pages, bus);
            self.spans_released += 1;
            self.free_objects -= span.capacity as u64;
            true
        } else {
            self.list_update(spans, id);
            false
        }
    }

    /// External fragmentation held by this class: free objects on live spans
    /// plus the per-span carving slack.
    pub fn external_bytes(&self) -> u64 {
        let carve = self.info.pages as u64 * wsc_sim_os::addr::TCMALLOC_PAGE_BYTES
            - self.info.objects_per_span as u64 * self.info.size;
        self.free_objects * self.info.size + self.live_spans() * carve
    }

    /// Live spans of this class (on lists or full).
    pub fn live_spans(&self) -> u64 {
        self.spans_created - self.spans_released
    }

    /// The running free-object counter (the central term of the sanitizer's
    /// object-conservation audit; must equal the spans' summed free counts).
    pub fn free_objects(&self) -> u64 {
        self.free_objects
    }

    /// The class's static metadata.
    pub fn info(&self) -> &SizeClassInfo {
        &self.info
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::TcmallocConfig;
    use crate::pageheap::PageHeapConfig;
    use crate::size_class::SizeClassTable;
    use wsc_sim_os::clock::Clock;

    struct Fixture {
        cfl: CentralFreeList,
        spans: SpanRegistry,
        pagemap: Pagemap,
        pageheap: PageHeap,
        bus: EventBus,
    }

    fn fixture(num_lists: usize) -> Fixture {
        let table = SizeClassTable::production();
        let cl = table.class_for(16).unwrap();
        Fixture {
            cfl: CentralFreeList::default().renew(cl as u16, *table.info(cl), num_lists),
            spans: SpanRegistry::default(),
            pagemap: Pagemap::default(),
            pageheap: PageHeap::default().renew(
                PageHeapConfig::default(),
                None,
                Clock::new(),
                None,
            ),
            bus: EventBus::default().renew(&TcmallocConfig::baseline(), Clock::new()),
        }
    }

    impl Fixture {
        fn alloc(&mut self, n: usize) -> Vec<u64> {
            let mut out = Vec::new();
            self.cfl
                .alloc_batch(
                    n,
                    &mut out,
                    &mut self.spans,
                    &mut self.pagemap,
                    &mut self.pageheap,
                    &mut self.bus,
                )
                .unwrap();
            out
        }

        fn free(&mut self, addr: u64) -> bool {
            let id = self.pagemap.span_of(addr).expect("address not mapped");
            self.cfl.dealloc(
                addr,
                id,
                &mut self.spans,
                &mut self.pagemap,
                &mut self.pageheap,
                &mut self.bus,
            )
        }
    }

    #[test]
    fn batch_alloc_and_free_round_trip() {
        let mut f = fixture(8);
        let objs = f.alloc(100);
        assert_eq!(objs.len(), 100);
        assert_eq!(f.cfl.spans_created, 1, "one 512-object span suffices");
        for &o in &objs[..99] {
            assert!(!f.free(o));
        }
        assert!(f.free(objs[99]), "last free releases the span");
        assert_eq!(f.cfl.spans_released, 1);
        assert_eq!(f.cfl.live_spans(), 0);
        assert_eq!(f.cfl.external_bytes(), 0);
    }

    #[test]
    fn list_index_math_matches_paper() {
        let f = fixture(8);
        // A=1 -> 7; A=2..3 -> 6; A>=128 -> 0; 132 and 255 share a list.
        assert_eq!(f.cfl.list_for(0), 7);
        assert_eq!(f.cfl.list_for(1), 7);
        assert_eq!(f.cfl.list_for(2), 6);
        assert_eq!(f.cfl.list_for(3), 6);
        assert_eq!(f.cfl.list_for(4), 5);
        assert_eq!(f.cfl.list_for(127), 1);
        assert_eq!(f.cfl.list_for(128), 0);
        assert_eq!(f.cfl.list_for(132), f.cfl.list_for(255));
        assert_eq!(f.cfl.list_for(512), 0);
    }

    #[test]
    fn prioritization_picks_fullest_span() {
        let mut f = fixture(8);
        // Create two spans: drain one batch from span 1 so a second span is
        // created, then free most of span 1 so it is nearly empty.
        let a = f.alloc(512); // span 1 fully allocated (Full)
        let b = f.alloc(10); // span 2: 10 live
        for &o in &a[..500] {
            f.free(o); // span 1: 12 live, nearly empty
        }
        // Span 2 (10 live) is on list 4; span 1 (12 live) on list 4 too?
        // 10 -> log2=3 -> list 4; 12 -> log2=3 -> list 4. Free more to push
        // span 1 to a higher list.
        for &o in &a[500..508] {
            f.free(o); // span 1: 4 live -> list 5
        }
        // Next allocation must come from span 2's span (list 4 < list 5):
        // its objects are at lower addresses within span2's page range.
        let next = f.alloc(1)[0];
        let span2 = f.pagemap.span_of(b[0]).unwrap();
        assert_eq!(f.pagemap.span_of(next), Some(span2));
    }

    #[test]
    fn legacy_single_list_mode() {
        let mut f = fixture(1);
        let objs = f.alloc(20);
        assert_eq!(f.cfl.list_for(1), 0);
        assert_eq!(f.cfl.list_for(500), 0);
        for &o in &objs {
            f.free(o);
        }
        assert_eq!(f.cfl.spans_released, 1);
    }

    #[test]
    fn fig13_observations_decrease_with_occupancy() {
        let mut f = fixture(8);
        // Spans observed nearly-empty release often; nearly-full never.
        // Round 1: allocate 2, free both -> observed at A=1, released.
        let objs = f.alloc(2);
        f.free(objs[0]);
        f.free(objs[1]);
        // Round 2: allocate many, free a few, allocate again (resolving the
        // pending observation as "not released").
        let objs = f.alloc(300);
        for &o in &objs[..5] {
            f.free(o);
        }
        let _more = f.alloc(5);
        let rate = |live| f.cfl.obs.iter().find(|o| o.0 == live).unwrap().1;
        let (low, high) = (rate(1), rate(295));
        assert!(low > high, "low occupancy {low} vs high {high}");
        assert_eq!(high, 0.0);
    }

    #[test]
    fn never_recorded_observations_are_empty_not_a_panic() {
        // The Figure-13 table is allocated by its first record; a class
        // that only ever allocated must still answer every query.
        let mut f = fixture(8);
        let _ = f.alloc(300);
        assert!(f.cfl.obs.buckets.is_empty(), "no free yet, no table yet");
        assert_eq!(f.cfl.obs.iter().count(), 0);
    }

    #[test]
    fn span_return_rate_counts() {
        let mut f = fixture(8);
        let objs = f.alloc(512);
        for &o in &objs {
            f.free(o);
        }
        let _second = f.alloc(1);
        assert_eq!(f.cfl.spans_created, 2);
        assert_eq!(f.cfl.spans_released, 1);
    }

    #[test]
    fn external_bytes_tracks_free_objects() {
        let mut f = fixture(8);
        let objs = f.alloc(10);
        // One span of 512 objects: 502 free remain cached.
        assert_eq!(f.cfl.external_bytes(), 502 * 16);
        f.free(objs[0]);
        assert_eq!(f.cfl.external_bytes(), 503 * 16);
    }

    #[test]
    fn exhausting_one_span_grows_another() {
        let mut f = fixture(8);
        let objs = f.alloc(513);
        assert_eq!(objs.len(), 513);
        assert_eq!(f.cfl.spans_created, 2);
        // All addresses distinct.
        let mut sorted = objs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 513);
    }
}
