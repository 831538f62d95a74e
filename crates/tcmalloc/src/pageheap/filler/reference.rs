//! The retired bit-at-a-time filler bodies, kept as the reference model the
//! word-parallel filler is tested against: one-bit-per-iteration mask scans
//! and the linear `pages..=HP_PAGES` list probe. They run over the same
//! `PageTracker`/`HugePageFiller` storage (tracker slab, `lists`, `retire`,
//! `new_tracker` are shared, unchanged code) but never read or write the
//! non-empty index. The differential tests that hold the two against each
//! other live here too, so the retired bodies stay private to this module.

// Tests may unwrap: a panic IS the failure report here.
#![allow(clippy::unwrap_used)]

use super::*;
use crate::config::TcmallocConfig;
use wsc_prng::SmallRng;
use wsc_sim_os::clock::Clock;
use wsc_sim_os::faults::{FaultPlan, PPM};
use wsc_sim_os::vmm::Vmm;

impl PageTracker {
    fn used_bit(&self, i: u32) -> bool {
        self.used_mask[i as usize / 64] >> (i % 64) & 1 == 1
    }

    fn released_bit(&self, i: u32) -> bool {
        self.released_mask[i as usize / 64] >> (i % 64) & 1 == 1
    }

    fn set_used_ref(&mut self, start: u32, n: u32, v: bool) {
        for i in start..start + n {
            let (w, b) = (i as usize / 64, i % 64);
            if v {
                assert!(self.used_mask[w] >> b & 1 == 0, "page {i} already used");
                self.used_mask[w] |= 1 << b;
            } else {
                assert!(self.used_mask[w] >> b & 1 == 1, "page {i} not used");
                self.used_mask[w] &= !(1 << b);
            }
        }
        if v {
            self.used += n;
        } else {
            self.used -= n;
        }
    }

    fn longest_free_range_ref(&self) -> u32 {
        let mut best = 0u32;
        let mut run = 0u32;
        for i in 0..HP_PAGES {
            if self.used_bit(i) {
                run = 0;
            } else {
                run += 1;
                best = best.max(run);
            }
        }
        best
    }

    fn find_fit_ref(&self, n: u32) -> Option<u32> {
        let mut run = 0u32;
        for i in 0..HP_PAGES {
            if self.used_bit(i) {
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

impl HugePageFiller {
    fn list_remove_ref(&mut self, id: usize) {
        let (set, lfr, pos) = {
            let t = self.tracker(id);
            (t.set, t.lfr, t.pos as usize)
        };
        let list = &mut self.lists[set][lfr as usize];
        list.swap_remove(pos);
        if pos < list.len() {
            let moved = list[pos];
            self.tracker_mut(moved).pos = pos as u32;
        }
    }

    fn list_insert_ref(&mut self, id: usize) {
        let (set, lfr) = {
            let t = self.tracker(id);
            (t.set, t.longest_free_range_ref())
        };
        let pos = self.lists[set][lfr as usize].len() as u32;
        self.lists[set][lfr as usize].push(id);
        let t = self.tracker_mut(id);
        t.lfr = lfr;
        t.pos = pos;
    }

    fn alloc_ref(
        &mut self,
        pages: u32,
        span_capacity: u32,
        cache: &mut HugeCache,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) -> Result<(u64, bool), AllocError> {
        assert!((1..HP_PAGES).contains(&pages));
        let set = self.set_for(span_capacity);
        let mut chosen: Option<usize> = None;
        for lfr in pages..=HP_PAGES {
            let list = &self.lists[set][lfr as usize];
            if list.is_empty() {
                continue;
            }
            chosen = list
                .iter()
                .copied()
                .max_by_key(|&id| self.tracker(id).allocations);
            break;
        }
        let (id, mmapped) = match chosen {
            Some(id) => (id, false),
            None => {
                let (base, from_os) = cache.alloc_run(1, os, bus)?;
                if !from_os {
                    os.reoccupy(base, HUGE_PAGE_BYTES);
                    bus.emit(AllocEvent::HugepageFill {
                        base,
                        bytes: HUGE_PAGE_BYTES,
                        reused: true,
                    });
                }
                let id = self.new_tracker(base, set);
                self.list_insert_ref(id);
                (id, from_os)
            }
        };
        self.list_remove_ref(id);
        let t = self.tracker_mut(id);
        let off = t.find_fit_ref(pages).expect("chosen tracker must fit");
        t.set_used_ref(off, pages, true);
        t.allocations += 1;
        t.idle_passes = 0;
        let addr = t.base + off as u64 * TCMALLOC_PAGE_BYTES;
        let mut cleared = 0u32;
        for i in off..off + pages {
            if t.released_bit(i) {
                t.released_mask[i as usize / 64] &= !(1 << (i % 64));
                cleared += 1;
            }
        }
        if cleared > 0 {
            os.reoccupy(addr, pages as u64 * TCMALLOC_PAGE_BYTES);
            bus.emit(AllocEvent::HugepageFill {
                base: addr,
                bytes: pages as u64 * TCMALLOC_PAGE_BYTES,
                reused: true,
            });
        }
        self.list_insert_ref(id);
        Ok((addr, mmapped))
    }

    fn donate_ref(&mut self, base: u64, head_pages: u32) {
        let id = self.new_tracker(base, 0);
        let t = self.tracker_mut(id);
        t.donated = true;
        t.set_used_ref(0, head_pages, true);
        t.allocations = 1;
        self.list_insert_ref(id);
    }

    fn free_donated_head_ref(
        &mut self,
        base: u64,
        head_pages: u32,
        cache: &mut HugeCache,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) {
        let id = self.by_hugepage[&(base / HUGE_PAGE_BYTES)];
        self.list_remove_ref(id);
        let t = self.tracker_mut(id);
        assert!(t.donated, "hugepage was not donated");
        t.set_used_ref(0, head_pages, false);
        t.allocations -= 1;
        if t.used == 0 {
            self.retire(id, cache, os, bus);
        } else {
            self.list_insert_ref(id);
        }
    }

    fn dealloc_ref(
        &mut self,
        addr: u64,
        pages: u32,
        cache: &mut HugeCache,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) {
        let id = self.by_hugepage[&(addr / HUGE_PAGE_BYTES)];
        self.list_remove_ref(id);
        let t = self.tracker_mut(id);
        let off = ((addr % HUGE_PAGE_BYTES) / TCMALLOC_PAGE_BYTES) as u32;
        t.set_used_ref(off, pages, false);
        t.allocations -= 1;
        if t.used == 0 {
            self.retire(id, cache, os, bus);
        } else {
            self.list_insert_ref(id);
        }
    }

    fn subrelease_ref(
        &mut self,
        target_pages: u64,
        grace_passes: u8,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) -> u64 {
        let mut released = 0u64;
        'outer: for set in 0..self.lists.len() {
            let required = if set == 0 {
                grace_passes
            } else {
                grace_passes.saturating_mul(8).max(8)
            };
            for lfr in (1..=HP_PAGES as usize).rev() {
                let ids: Vec<usize> = self.lists[set][lfr].clone();
                for id in ids {
                    if released >= target_pages {
                        break 'outer;
                    }
                    {
                        let t = self.tracker_mut(id);
                        if t.idle_passes < required {
                            t.idle_passes = t.idle_passes.saturating_add(1);
                            continue;
                        }
                    }
                    let budget = (target_pages - released) as u32;
                    let (base, to_release) = {
                        let t = self.tracker_mut(id);
                        if t.donated {
                            continue;
                        }
                        let mut pages_left = budget;
                        let mut run: Option<(u32, u32)> = None;
                        let mut to_release: Vec<(u32, u32)> = Vec::new();
                        for i in 0..HP_PAGES {
                            if pages_left == 0 {
                                break;
                            }
                            if !t.used_bit(i) && !t.released_bit(i) {
                                match run {
                                    Some((s, ref mut n)) if s + *n == i => *n += 1,
                                    _ => {
                                        if let Some(r) = run.take() {
                                            to_release.push(r);
                                        }
                                        run = Some((i, 1));
                                    }
                                }
                                pages_left -= 1;
                            } else if let Some(r) = run.take() {
                                to_release.push(r);
                            }
                        }
                        if let Some(r) = run {
                            to_release.push(r);
                        }
                        (t.base, to_release)
                    };
                    for (s, n) in to_release {
                        if os
                            .subrelease(
                                base + s as u64 * TCMALLOC_PAGE_BYTES,
                                n as u64 * TCMALLOC_PAGE_BYTES,
                                bus,
                            )
                            .is_err()
                        {
                            continue;
                        }
                        let t = self.tracker_mut(id);
                        for i in s..s + n {
                            t.released_mask[i as usize / 64] |= 1 << (i % 64);
                        }
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
}

/// A tracker whose free pages are exactly the given `(start, len)` runs.
fn tracker_with_free(runs: &[(u32, u32)]) -> PageTracker {
    let mut t = PageTracker::new(0, 0);
    t.set_used_ref(0, HP_PAGES, true);
    for &(s, n) in runs {
        t.set_used_ref(s, n, false);
    }
    t
}

fn tracker_with_used(mask: PageMask) -> PageTracker {
    let mut t = PageTracker::new(0, 0);
    t.used_mask = mask;
    t.used = mask.iter().map(|w| w.count_ones()).sum();
    t
}

fn assert_scans_match(t: &PageTracker, what: &str) {
    assert_eq!(
        t.longest_free_range(),
        t.longest_free_range_ref(),
        "{what}: lfr of {:x?}",
        t.used_mask
    );
    for n in 1..HP_PAGES {
        assert_eq!(
            t.find_fit(n),
            t.find_fit_ref(n),
            "{what}: find_fit({n}) of {:x?}",
            t.used_mask
        );
    }
}

#[test]
fn word_scans_match_bitwise_on_word_boundary_edges() {
    let edges: &[&[(u32, u32)]] = &[
        &[],          // full mask: no free page
        &[(0, 256)],  // empty mask: one 256-page run
        &[(40, 24)],  // run ending at bit 63
        &[(40, 25)],  // ... at bit 64
        &[(100, 28)], // ... at bit 127
        &[(100, 29)], // ... at bit 128
        &[(150, 42)], // ... at bit 191
        &[(150, 43)], // ... at bit 192
        &[(60, 140)], // spans three words
        &[(0, 1)],    // single page at either end
        &[(255, 1)],
        &[(1, 255)],                    // n = 255 fits exactly
        &[(63, 1), (65, 1), (127, 2)],  // singletons around boundaries
        &[(0, 64), (128, 64)],          // whole words
        &[(10, 5), (64, 64), (130, 5)], // a whole word between runs
        &[(3, 7), (62, 4), (126, 3), (190, 66)],
    ];
    for runs in edges {
        let t = tracker_with_free(runs);
        assert_scans_match(&t, "edge");
        let got: Vec<(u32, u32)> = t.free_runs().collect();
        assert_eq!(got, runs.to_vec(), "free_runs of {runs:?}");
    }
    assert_eq!(tracker_with_free(&[]).longest_free_range(), 0);
    assert_eq!(tracker_with_free(&[(0, 256)]).find_fit(255), Some(0));
    assert_eq!(tracker_with_free(&[(1, 255)]).find_fit(255), Some(1));
    assert_eq!(tracker_with_free(&[(2, 254)]).find_fit(255), None);
}

#[test]
fn word_scans_match_bitwise_on_seeded_masks() {
    let mut rng = SmallRng::seed_from_u64(0xF111);
    for round in 0..600 {
        // Vary density: AND thins the used bits (long free runs), OR
        // thickens them (short ones).
        let mask: PageMask = std::array::from_fn(|_| match round % 4 {
            0 => rng.next_u64(),
            1 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
            2 => rng.next_u64() | rng.next_u64(),
            _ => rng.next_u64() & rng.next_u64() & rng.next_u64() & rng.next_u64(),
        });
        assert_scans_match(&tracker_with_used(mask), "seeded");
    }
}

#[test]
fn masked_word_updates_match_bitwise() {
    let check = |start: u32, n: u32| {
        let (mut word, mut bit) = (PageTracker::new(0, 0), PageTracker::new(0, 0));
        word.set_used(start, n, true);
        bit.set_used_ref(start, n, true);
        assert_eq!(word.used_mask, bit.used_mask, "set {start}+{n}");
        assert_eq!(word.used, bit.used);
        // Released bits on a superset of the range: clearing must touch
        // the range only and count exactly the bits it cleared.
        word.released_mask = [0xAAAA_AAAA_AAAA_AAAA; WORDS];
        let mut expect = word.released_mask;
        let mut cleared = 0;
        for i in start..start + n {
            cleared += (expect[i as usize / 64] >> (i % 64) & 1) as u32;
            expect[i as usize / 64] &= !(1 << (i % 64));
        }
        assert_eq!(word.clear_released(start, n), cleared, "clear {start}+{n}");
        assert_eq!(word.released_mask, expect);
        word.released_mask = [0; WORDS];
        word.set_released(start, n);
        assert_eq!(word.released_mask, bit.used_mask, "release {start}+{n}");
        // Free an inner sub-range again.
        let (s2, n2) = (start + n / 3, n - n / 3 - n / 4);
        if n2 > 0 {
            word.set_used(s2, n2, false);
            bit.set_used_ref(s2, n2, false);
            assert_eq!(word.used_mask, bit.used_mask, "clear {s2}+{n2}");
            assert_eq!(word.used, bit.used);
        }
    };
    // Ranges starting or ending on a word boundary, inside one word,
    // whole words, and the whole hugepage.
    for &(start, n) in &[
        (0, 1),
        (0, 64),
        (0, 65),
        (63, 1),
        (63, 2),
        (64, 1),
        (64, 64),
        (1, 63),
        (1, 127),
        (60, 140),
        (128, 128),
        (192, 64),
        (191, 65),
        (255, 1),
        (0, 256),
        (0, 255),
        (1, 255),
    ] {
        check(start, n);
    }
    let mut rng = SmallRng::seed_from_u64(0x5E7);
    for _ in 0..2_000 {
        let start = rng.gen_range(0..HP_PAGES);
        let n = rng.gen_range(1..=HP_PAGES - start);
        check(start, n);
    }
}

/// One filler with its own OS, cache and recording bus.
struct World {
    f: HugePageFiller,
    c: HugeCache,
    os: OsLayer,
    b: EventBus,
}

impl World {
    /// `flaky_madvise` makes a quarter of the subreleases fail (the same
    /// ones in every world: the fault plan draws from its own seeded
    /// stream), so the skip-and-retry path is held to the reference too.
    fn new(lifetime_aware: bool, flaky_madvise: bool) -> Self {
        let plan = FaultPlan {
            subrelease_fail_ppm: if flaky_madvise { PPM / 4 } else { 0 },
            ..FaultPlan::off()
        };
        Self {
            f: HugePageFiller::new(lifetime_aware, 16),
            // Room for two hugepages: retired ones are reused, the
            // rest go back to the OS.
            c: HugeCache::new(2 * HUGE_PAGE_BYTES),
            os: OsLayer::new(Vmm::with_faults(plan, Clock::new()), None),
            b: EventBus::new(
                &TcmallocConfig::baseline().with_trace(crate::events::TraceRing::UNBOUNDED),
                Clock::new(),
            ),
        }
    }
}

fn assert_index_matches_lists(f: &HugePageFiller) {
    for set in 0..2 {
        for lfr in 0..=HP_PAGES as usize {
            let bit = f.nonempty[set][lfr / 64] >> (lfr % 64) & 1 == 1;
            assert_eq!(bit, !f.lists[set][lfr].is_empty(), "set {set} lfr {lfr}");
        }
    }
}

#[test]
fn filler_matches_linear_probe_reference() {
    for (seed, lifetime_aware, flaky) in [
        (1u64, false, false),
        (2, true, false),
        (3, true, true),
        (4, false, true),
    ] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut new, mut old) = (
            World::new(lifetime_aware, flaky),
            World::new(lifetime_aware, flaky),
        );
        let mut live: Vec<(u64, u32)> = Vec::new();
        let mut heads: Vec<(u64, u32)> = Vec::new();
        let mut seen_events = 0;
        for step in 0..6_000 {
            match rng.gen_range(0..100u32) {
                0..=44 => {
                    // Mostly small spans, sometimes nearly a hugepage.
                    let pages = if rng.gen::<f64>() < 0.85 {
                        rng.gen_range(1..=32u32)
                    } else {
                        rng.gen_range(1..HP_PAGES)
                    };
                    let cap = [1, 8, 100, 512][rng.gen_range(0..4usize)];
                    let a = new
                        .f
                        .alloc(pages, cap, &mut new.c, &mut new.os, &mut new.b)
                        .unwrap();
                    let r = old
                        .f
                        .alloc_ref(pages, cap, &mut old.c, &mut old.os, &mut old.b)
                        .unwrap();
                    assert_eq!(a, r, "seed {seed} step {step}: alloc({pages}, {cap})");
                    live.push((a.0, pages));
                }
                45..=84 if !live.is_empty() => {
                    let (addr, pages) = live.swap_remove(rng.gen_range(0..live.len()));
                    new.f
                        .dealloc(addr, pages, &mut new.c, &mut new.os, &mut new.b);
                    old.f
                        .dealloc_ref(addr, pages, &mut old.c, &mut old.os, &mut old.b);
                }
                85..=89 => {
                    let head = rng.gen_range(1..HP_PAGES);
                    let base = new.os.mmap(HUGE_PAGE_BYTES, &mut new.b).unwrap();
                    assert_eq!(old.os.mmap(HUGE_PAGE_BYTES, &mut old.b).unwrap(), base);
                    new.f.donate(base, head);
                    old.f.donate_ref(base, head);
                    heads.push((base, head));
                }
                90..=93 if !heads.is_empty() => {
                    let (base, head) = heads.swap_remove(rng.gen_range(0..heads.len()));
                    new.f
                        .free_donated_head(base, head, &mut new.c, &mut new.os, &mut new.b);
                    old.f
                        .free_donated_head_ref(base, head, &mut old.c, &mut old.os, &mut old.b);
                }
                94..=99 => {
                    let target = rng.gen_range(1..600u64);
                    let grace = rng.gen_range(0..3u32) as u8;
                    assert_eq!(
                        new.f.subrelease(target, grace, &mut new.os, &mut new.b),
                        old.f.subrelease_ref(target, grace, &mut old.os, &mut old.b),
                        "seed {seed} step {step}: subrelease({target}, {grace})"
                    );
                }
                _ => continue,
            }
            assert_eq!(new.f.stats(), old.f.stats(), "seed {seed} step {step}");
            assert_eq!(
                new.f.hugepage_accounting(),
                old.f.hugepage_accounting(),
                "seed {seed} step {step}"
            );
            let (ev_new, ev_old) = (new.b.stream(), old.b.stream());
            assert_eq!(ev_new.len(), ev_old.len(), "seed {seed} step {step}");
            assert_eq!(
                ev_new[seen_events..],
                ev_old[seen_events..],
                "seed {seed} step {step}"
            );
            seen_events = ev_new.len();
            assert_index_matches_lists(&new.f);
        }
        let s = new.f.stats();
        assert!(
            s.subreleased_total > 0 && s.freed_whole > 0 && new.c.hits > 0,
            "seed {seed}: every path exercised ({s:?}, cache hits {})",
            new.c.hits
        );
    }
}
