//! Property tests for the allocator's component data structures.
//!
//! Deterministic seeded-loop properties (hermetic replacement for the
//! original proptest strategies).

use wsc_prng::SmallRng;
use wsc_sim_os::clock::Clock;
use wsc_tcmalloc::config::TcmallocConfig;
use wsc_tcmalloc::events::EventBus;
use wsc_tcmalloc::pageheap::{PageHeap, PageHeapConfig};
use wsc_tcmalloc::size_class::{SizeClassTable, MAX_SMALL_SIZE};
use wsc_tcmalloc::span::{Span, SpanRegistry};

// --- size classes ---

#[test]
fn size_class_roundup_is_sound() {
    let t = SizeClassTable::production();
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0A0 + case);
        // Half the cases sweep small requests densely; half range freely.
        let req = if case % 2 == 0 {
            rng.gen_range(0u64..=64)
        } else {
            rng.gen_range(0u64..=MAX_SMALL_SIZE)
        };
        let cl = t.class_for(req).expect("small request");
        let info = t.info(cl);
        // Sound: class size fits the request.
        assert!(info.size >= req);
        // Tight: the next-smaller class would not fit.
        if cl > 0 {
            assert!(t.info(cl - 1).size < req.max(1));
        }
        // Internal slack is bounded (absolute 8 B for tiny, 30% beyond).
        let slack = info.size - req;
        assert!(slack <= 8 || (slack as f64) < 0.30 * req as f64);
    }
}

#[test]
fn size_class_is_monotone() {
    let t = SizeClassTable::production();
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0A1 + case);
        let a = rng.gen_range(0u64..=MAX_SMALL_SIZE);
        let b = rng.gen_range(0u64..=MAX_SMALL_SIZE);
        let (lo, hi) = (a.min(b), a.max(b));
        let lo_cl = t.class_for(lo).expect("small request");
        let hi_cl = t.class_for(hi).expect("small request");
        assert!(lo_cl <= hi_cl);
    }
}

// --- spans ---

#[test]
fn span_alloc_free_sequences_preserve_counts() {
    let t = SizeClassTable::production();
    let cl = t.class_for(64).expect("64 B is a small size");
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0A2 + case);
        let mut reg = SpanRegistry::new();
        let id = reg.insert(Span::new_small(0x100000, cl as u16, t.info(cl)));
        let capacity = reg.get(id).capacity;
        let mut live: Vec<u64> = Vec::new();
        let ops = rng.gen_range(1usize..600);
        for i in 0..ops {
            if rng.gen::<bool>() && reg.get(id).free_count() > 0 {
                let mut out = Vec::new();
                reg.alloc_objects(id, 1, &mut out);
                let addr = out[0];
                assert!(!live.contains(&addr), "duplicate address");
                live.push(addr);
            } else if !live.is_empty() {
                let addr = live.swap_remove(i % live.len());
                reg.dealloc_object(id, addr);
            }
            let span = reg.get(id);
            assert_eq!(span.allocated as usize, live.len());
            assert_eq!(span.allocated + span.free_count(), capacity);
        }
    }
}

// --- span registry ---

#[test]
fn registry_ids_stay_distinct() {
    let t = SizeClassTable::production();
    let cl = t.class_for(16).expect("16 B is a small size");
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0A3 + case);
        let mut reg = SpanRegistry::new();
        let mut live = Vec::new();
        let churn = rng.gen_range(1usize..200);
        for i in 0..churn {
            if rng.gen::<bool>() || live.is_empty() {
                let id = reg.insert(Span::new_small((i as u64 + 1) << 20, cl as u16, t.info(cl)));
                assert!(!live.contains(&id));
                live.push(id);
            } else {
                let id = live.swap_remove(i % live.len());
                reg.remove(id);
            }
            assert_eq!(reg.len(), live.len());
        }
    }
}

// --- pageheap ---

fn bus() -> EventBus {
    EventBus::new(&TcmallocConfig::baseline(), Clock::new())
}

#[test]
fn pageheap_ranges_never_overlap() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0A4 + case);
        let mut ph = PageHeap::new(PageHeapConfig::default());
        let mut bus = bus();
        let mut live: Vec<(u64, u32)> = Vec::new();
        let reqs = rng.gen_range(1usize..60);
        for i in 0..reqs {
            let pages = rng.gen_range(1u32..600);
            let free_one = rng.gen::<bool>();
            let (addr, _) = ph.alloc(pages, 8, &mut bus).expect("infallible kernel");
            let bytes = pages as u64 * 8192;
            for &(start, p) in &live {
                let len = p as u64 * 8192;
                assert!(
                    addr + bytes <= start || start + len <= addr,
                    "pageheap handed out overlapping ranges"
                );
            }
            live.push((addr, pages));
            if free_one && live.len() > 1 {
                let (a, p) = live.swap_remove(i % live.len());
                ph.dealloc(a, p, &mut bus);
            }
        }
        // Everything deallocates cleanly.
        for (a, p) in live {
            ph.dealloc(a, p, &mut bus);
        }
        assert_eq!(ph.stats().total_used_bytes(), 0);
    }
}

#[test]
fn pageheap_release_is_safe_at_any_point() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0A5 + case);
        let mut ph = PageHeap::new(PageHeapConfig::default());
        let mut bus = bus();
        let count = rng.gen_range(1usize..40);
        let release_at = rng.gen_range(0usize..40);
        let mut live = Vec::new();
        for i in 0..count {
            let p = rng.gen_range(1u32..255);
            let (addr, _) = ph.alloc(p, 8, &mut bus).expect("infallible kernel");
            live.push((addr, p));
            if i == release_at {
                // Free half, then run release passes: the first only starts
                // the hugepages' grace period, the rest break them.
                for (a, pp) in live.split_off(live.len() / 2) {
                    ph.dealloc(a, pp, &mut bus);
                }
                for _ in 0..4 {
                    ph.background_release(&mut bus);
                }
            }
        }
        // Survivors are still intact and freeable.
        for (a, p) in live {
            ph.dealloc(a, p, &mut bus);
        }
        assert_eq!(ph.stats().total_used_bytes(), 0);
    }
}

// --- pagemap (differential: map vs oracle) ---

/// Holds [`Pagemap`] to a `BTreeMap<page, SpanId>` oracle — lookups, the
/// page count and, after every operation, `leaf_occupancy()` against a
/// per-leaf tally the oracle bumps one page at a time — over seeded
/// set/clear/lookup interleavings. The schedule is built to hit the
/// map's sharp edges:
///
/// * **hit-cache staleness** — every clear first primes the one-entry
///   hit cache with a successful lookup inside the doomed span, then
///   asserts the lookup is `None` after the clear and that a remap of
///   the same pages under a fresh id is returned (not the stale cache);
/// * **leaf-boundary addresses** — a quarter of placements are pinned
///   to straddle a `PAGES_PER_LEAF` boundary, every eighth case opens
///   with a span covering two whole leaves and the edges of their
///   neighbours, and every case ends with probes at each boundary
///   ± 1 byte;
/// * **downward window growth** — odd cases map near the top of the
///   roamed extent first, so the map must re-anchor its window below
///   the first mapping;
/// * **the base address** — every case runs at the heap's base and again
///   at address zero, the bottom of the address space.
#[test]
fn pagemap_agrees_with_btreemap_oracle() {
    use std::collections::BTreeMap;
    use wsc_sim_os::addr::{tcmalloc_page_index, TCMALLOC_PAGE_BYTES};
    use wsc_sim_os::vmm::HEAP_BASE;
    use wsc_tcmalloc::pagemap::{Pagemap, PAGES_PER_LEAF};
    use wsc_tcmalloc::span::SpanId;

    /// Page extent the cases roam over: 8 leaves.
    const WINDOW_PAGES: u64 = 8 * PAGES_PER_LEAF;

    /// The reference: one entry per registered page (numbered from the
    /// case's base address), and registered pages per leaf keyed by the
    /// leaf's first absolute page number.
    struct Oracle {
        base: u64,
        pages: BTreeMap<u64, SpanId>,
        leaves: BTreeMap<u64, u64>,
    }
    impl Oracle {
        fn leaf_of(&self, page: u64) -> u64 {
            let abs = tcmalloc_page_index(self.base) + page;
            abs - abs % PAGES_PER_LEAF
        }
        fn set(&mut self, page: u64, len: u32, id: SpanId) {
            for p in page..page + len as u64 {
                assert!(self.pages.insert(p, id).is_none());
                *self.leaves.entry(self.leaf_of(p)).or_insert(0) += 1;
            }
        }
        fn clear(&mut self, page: u64, len: u32) {
            for p in page..page + len as u64 {
                assert!(self.pages.remove(&p).is_some());
                let leaf = self.leaf_of(p);
                let used = self.leaves.get_mut(&leaf).expect("counted leaf");
                *used -= 1;
                if *used == 0 {
                    self.leaves.remove(&leaf);
                }
            }
        }
        fn check(&self, pm: &Pagemap, what: &str) {
            let got: BTreeMap<u64, u64> = pm
                .leaf_occupancy()
                .into_iter()
                .map(|l| (l.base_page, l.pages_used))
                .collect();
            assert_eq!(got, self.leaves, "leaf occupancy after {what}");
            assert_eq!(pm.len(), self.pages.len(), "page count after {what}");
        }
    }

    for (case, base) in (0..64u64).flat_map(|case| [(case, HEAP_BASE), (case, 0)]) {
        let mut rng = SmallRng::seed_from_u64(0x9A6E + case);
        let mut pm = Pagemap::new();
        let mut oracle = Oracle {
            base,
            pages: BTreeMap::new(),
            leaves: BTreeMap::new(),
        };
        let addr_of = |page: u64| base + page * TCMALLOC_PAGE_BYTES;
        let mut live: Vec<(u64, u32, SpanId)> = Vec::new();
        let mut next_id = 0u32;
        let mut map = |pm: &mut Pagemap, oracle: &mut Oracle, page: u64, len: u32| {
            let id = SpanId(next_id);
            next_id += 1;
            pm.set_range(addr_of(page), len, id);
            oracle.set(page, len, id);
            oracle.check(pm, "set");
            id
        };
        // Odd cases anchor the window high first: every later mapping
        // grows it downward.
        if case % 2 == 1 {
            let page = WINDOW_PAGES - 1;
            let id = map(&mut pm, &mut oracle, page, 1);
            live.push((page, 1, id));
        }
        // Every eighth case opens with a run that ends three pages into one
        // leaf, covers the next two whole and starts five pages before the
        // end of a fourth.
        if case % 8 == 3 {
            let (page, len) = (2 * PAGES_PER_LEAF - 5, 2 * PAGES_PER_LEAF as u32 + 8);
            let id = map(&mut pm, &mut oracle, page, len);
            live.push((page, len, id));
        }
        for _ in 0..300 {
            match rng.gen_range(0u32..10) {
                0..=3 => {
                    // Map a fresh span; a quarter of placements straddle a
                    // leaf boundary on purpose.
                    let len = rng.gen_range(1u32..=40);
                    let page = if rng.gen_range(0u32..4) == 0 {
                        let leaf = rng.gen_range(1u64..WINDOW_PAGES / PAGES_PER_LEAF);
                        (leaf * PAGES_PER_LEAF).saturating_sub(len as u64 / 2 + 1)
                    } else {
                        rng.gen_range(0..WINDOW_PAGES - len as u64)
                    };
                    if (page..page + len as u64).any(|p| oracle.pages.contains_key(&p)) {
                        continue; // placement collides with a live span
                    }
                    let id = map(&mut pm, &mut oracle, page, len);
                    live.push((page, len, id));
                }
                4..=5 => {
                    // Clear a live span — after priming the hit cache with
                    // a successful lookup inside it.
                    if live.is_empty() {
                        continue;
                    }
                    let k = rng.gen_range(0..live.len());
                    let (page, len, id) = live.swap_remove(k);
                    let inside = addr_of(page) + rng.gen_range(0..len as u64 * TCMALLOC_PAGE_BYTES);
                    assert_eq!(pm.span_of(inside), Some(id));
                    pm.clear_range(addr_of(page), len);
                    oracle.clear(page, len);
                    oracle.check(&pm, "clear");
                    // The primed hit cache must not resurrect the span.
                    assert_eq!(pm.span_of(inside), None, "stale hit cache");
                    // Remap the same pages under a fresh id: lookups must
                    // see the new owner, not the cached old one.
                    if rng.gen::<bool>() {
                        let id2 = map(&mut pm, &mut oracle, page, len);
                        live.push((page, len, id2));
                        assert_eq!(pm.span_of(inside), Some(id2), "stale remap");
                    }
                }
                _ => {
                    // Random interior-pointer lookup.
                    let a = base + rng.gen_range(0..WINDOW_PAGES * TCMALLOC_PAGE_BYTES);
                    let page = (a - base) / TCMALLOC_PAGE_BYTES;
                    let want = oracle.pages.get(&page).copied();
                    assert_eq!(pm.span_of(a), want, "map vs oracle at {a:#x}");
                }
            }
        }
        // Closing sweep: leaf boundaries ± 1 byte, plus first/last byte of
        // every live span.
        let mut probes: Vec<u64> = Vec::new();
        for leaf in 0..=WINDOW_PAGES / PAGES_PER_LEAF {
            let b = addr_of(leaf * PAGES_PER_LEAF);
            probes.push(b);
            if leaf > 0 {
                probes.push(b - 1);
            }
        }
        for &(page, len, _) in &live {
            probes.push(addr_of(page));
            probes.push(addr_of(page) + len as u64 * TCMALLOC_PAGE_BYTES - 1);
        }
        for a in probes {
            let page = (a - base) / TCMALLOC_PAGE_BYTES;
            let want = oracle.pages.get(&page).copied();
            assert_eq!(pm.span_of(a), want, "map vs oracle at probe {a:#x}");
        }
        // The incremental tally itself, recounted from the page entries.
        let mut recount: BTreeMap<u64, u64> = BTreeMap::new();
        for &p in oracle.pages.keys() {
            *recount.entry(oracle.leaf_of(p)).or_insert(0) += 1;
        }
        assert_eq!(recount, oracle.leaves);
    }
}
