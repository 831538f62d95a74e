//! Cross-tier conservation audits.
//!
//! The allocator hands the audit a [`Snapshot`] — a flat, allocator-neutral
//! dump of every tier's counts — and the audit proves the conservation laws
//! that make the simulation's figures trustworthy:
//!
//! 1. **Object conservation, per class.** Every object a span has handed
//!    out is either live in the application (shadow), cached per-CPU,
//!    cached in the transfer tier, or parked on a deferred cross-thread
//!    free list awaiting its owner:
//!    `Σ span.allocated = shadow_live + percpu + transfer + deferred`.
//!    And every slot a span carves exists exactly once:
//!    `Σ span.capacity = Σ span.allocated + central_free`.
//! 2. **Span placement.** A span with `A` live allocations must sit on
//!    occupancy list `max(0, L-1-⌊log2 A⌋)` (§4.3); a `Full` span has no
//!    free objects; a `Large` span is a single allocated object.
//! 3. **Pagemap extent.** The pagemap holds exactly one entry per page of
//!    every live span.
//! 4. **Byte conservation.** `resident = live + fragmentation` — the
//!    identity behind Figures 5b/6b.
//! 5. **Hugepage backing.** For every filler-tracked hugepage,
//!    `used + free = 256`, released pages are a subset of the free ones,
//!    and no page is simultaneously used and released.
//! 6. **Metadata arena occupancy.** The span registry's slab pools must be
//!    tiled exactly by the carved regions (`pool = reserved + retired`, for
//!    both the free-stack entry pool and the bitmap word pool), every live
//!    span must occupy exactly one arena slot, and the reserved regions
//!    must be large enough to hold every live span's free stack.

use crate::report::{ErrorKind, SanitizerReport, Tier};
use crate::shadow::ShadowState;

/// Where a snapshotted span currently lives (mirror of the allocator's
/// span state, minus bookkeeping positions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanPlacement {
    /// On occupancy list `list` of its class's central free list.
    Freelist {
        /// The list index (0 = fullest).
        list: u8,
    },
    /// Fully allocated; on no list.
    Full,
    /// A large allocation served directly by the pageheap.
    Large,
}

/// One live span's occupancy, as reported by the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span id.
    pub id: u32,
    /// Base address.
    pub start: u64,
    /// Extent in TCMalloc pages.
    pub pages: u32,
    /// Size class (`None` = large).
    pub size_class: Option<u16>,
    /// Object slots carved from the span.
    pub capacity: u32,
    /// Slots currently handed out (to app or caches).
    pub allocated: u32,
    /// Slots on the span's own free stack.
    pub free_count: u32,
    /// Current placement.
    pub placement: SpanPlacement,
}

/// Per-size-class cached-object counts across the cache tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassTierSnapshot {
    /// The class index.
    pub class: u16,
    /// Object size in bytes.
    pub object_size: u64,
    /// Objects cached across all per-CPU slabs.
    pub percpu_objects: u64,
    /// Objects cached across the transfer tier (central + domain shards).
    pub transfer_objects: u64,
    /// Objects freed remotely and still parked on deferred lists
    /// (in-flight cross-thread frees; zero under owner-only).
    pub deferred_objects: u64,
    /// The central free list's running free-object counter.
    pub central_free_objects: u64,
}

/// One filler-tracked hugepage's page accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HugepageSnapshot {
    /// Hugepage base address.
    pub base: u64,
    /// Pages in live span allocations.
    pub used_pages: u32,
    /// Pages free within the hugepage.
    pub free_pages: u32,
    /// Of the free pages, how many are subreleased to the OS.
    pub released_pages: u32,
    /// Pages marked both used and released (always a bug).
    pub used_and_released: u32,
}

/// Occupancy of one pagemap leaf, as reported by the allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagemapLeafSnapshot {
    /// First page number the leaf covers (aligned to the leaf size).
    pub base_page: u64,
    /// Pages registered within the leaf.
    pub pages_used: u64,
}

/// Occupancy of the allocator's span-metadata slab arena (free-stack and
/// double-free-bitmap pools tiled by per-span-id regions), as reported by
/// the allocator. The all-zero default describes an empty arena, which is
/// consistent with an empty span inventory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaSnapshot {
    /// Span-id slots ever minted (live + recyclable).
    pub slots_total: u64,
    /// Slots currently occupied by live spans.
    pub slots_live: u64,
    /// Entries in the free-stack pool.
    pub free_pool_entries: u64,
    /// Words in the double-free-bitmap pool.
    pub bitmap_pool_words: u64,
    /// Σ region capacity over all slots (live and recyclable).
    pub reserved_entries: u64,
    /// Σ region bitmap words over all slots.
    pub reserved_words: u64,
    /// Pool entries stranded by regions re-carved at a larger capacity.
    pub retired_entries: u64,
    /// Pool words stranded the same way.
    pub retired_words: u64,
}

/// A flat dump of every tier's state at one instant.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Per-class cache-tier counts, one entry per size class.
    pub classes: Vec<ClassTierSnapshot>,
    /// Every live span.
    pub spans: Vec<SpanSnapshot>,
    /// Number of occupancy lists (L; 1 = legacy, 8 = §4.3).
    pub occupancy_lists: usize,
    /// Pages registered in the pagemap.
    pub pagemap_pages: u64,
    /// Pages covered by one pagemap leaf (0 disables the per-leaf audit,
    /// for callers that report no leaves).
    pub pages_per_leaf: u64,
    /// Per-leaf occupancy of the pagemap (occupied slots), ascending by
    /// `base_page`, omitting empty leaves.
    pub pagemap_leaves: Vec<PagemapLeafSnapshot>,
    /// TCMalloc pages per hugepage (256).
    pub pages_per_hugepage: u32,
    /// Every filler-tracked hugepage.
    pub hugepages: Vec<HugepageSnapshot>,
    /// Resident bytes per the simulated page table.
    pub resident_bytes: u64,
    /// Application-requested live bytes.
    pub live_bytes: u64,
    /// Total fragmentation (internal + per-CPU + transfer + central +
    /// pageheap).
    pub fragmentation_bytes: u64,
    /// Span-metadata arena occupancy.
    pub arena: ArenaSnapshot,
}

/// The occupancy list a span with `allocated` live objects belongs on —
/// the §4.3 formula, replicated independently of the allocator.
pub fn expected_list(allocated: u32, num_lists: usize) -> usize {
    let top = num_lists - 1;
    if allocated == 0 {
        return top;
    }
    let log2 = 31 - allocated.leading_zeros() as usize;
    top.saturating_sub(log2)
}

/// Runs every conservation check against `snap`, using `shadow` for the
/// application-side object counts. Returns all violations found; an empty
/// vector is the proof of conservation.
pub fn audit(snap: &Snapshot, shadow: &ShadowState) -> Vec<SanitizerReport> {
    let mut out = Vec::new();
    audit_classes(snap, shadow, &mut out);
    audit_spans(snap, &mut out);
    audit_pagemap(snap, &mut out);
    audit_bytes(snap, &mut out);
    audit_hugepages(snap, &mut out);
    audit_arena(snap, &mut out);
    audit_shadow_coverage(snap, shadow, &mut out);
    out
}

/// The metadata-arena conservation audit: the slab pools must be exactly
/// tiled by carved regions, the live-slot count must match the span
/// inventory, and the reserved regions must be big enough to hold every
/// live span's free stack.
fn audit_arena(snap: &Snapshot, out: &mut Vec<SanitizerReport>) {
    let a = &snap.arena;
    let mut bad = Vec::new();
    if a.free_pool_entries != a.reserved_entries + a.retired_entries {
        bad.push(format!(
            "free pool holds {} entries, regions account for reserved {} + retired {}",
            a.free_pool_entries, a.reserved_entries, a.retired_entries
        ));
    }
    if a.bitmap_pool_words != a.reserved_words + a.retired_words {
        bad.push(format!(
            "bitmap pool holds {} words, regions account for reserved {} + retired {}",
            a.bitmap_pool_words, a.reserved_words, a.retired_words
        ));
    }
    if a.slots_live > a.slots_total {
        bad.push(format!(
            "{} live slots exceed {} minted",
            a.slots_live, a.slots_total
        ));
    }
    let live_spans = snap.spans.len() as u64;
    if a.slots_live != live_spans {
        bad.push(format!(
            "arena reports {} live slots, span inventory holds {live_spans}",
            a.slots_live
        ));
    }
    let needed: u64 = snap.spans.iter().map(|s| s.capacity as u64).sum();
    if a.reserved_entries < needed {
        bad.push(format!(
            "reserved regions hold {} entries, live spans need {needed}",
            a.reserved_entries
        ));
    }
    for detail in bad {
        out.push(SanitizerReport {
            kind: ErrorKind::ArenaConservationViolation,
            tier: Tier::Central,
            addr: None,
            size_class: None,
            span: None,
            detail,
        });
    }
}

fn audit_classes(snap: &Snapshot, shadow: &ShadowState, out: &mut Vec<SanitizerReport>) {
    for c in &snap.classes {
        let (mut allocated, mut capacity, mut free) = (0u64, 0u64, 0u64);
        for s in snap.spans.iter().filter(|s| s.size_class == Some(c.class)) {
            allocated += s.allocated as u64;
            capacity += s.capacity as u64;
            free += s.free_count as u64;
        }
        let live = shadow.live_count_by_class(Some(c.class));
        let cached = c.percpu_objects + c.transfer_objects + c.deferred_objects;
        if allocated != live + cached {
            out.push(SanitizerReport {
                kind: ErrorKind::ObjectConservationViolation,
                tier: Tier::Central,
                addr: None,
                size_class: Some(c.class),
                span: None,
                detail: format!(
                    "spans report {allocated} allocated but shadow live {live} + percpu {} + transfer {} + deferred {} = {}",
                    c.percpu_objects,
                    c.transfer_objects,
                    c.deferred_objects,
                    live + cached
                ),
            });
        }
        if capacity != allocated + free {
            out.push(SanitizerReport {
                kind: ErrorKind::ObjectConservationViolation,
                tier: Tier::Central,
                addr: None,
                size_class: Some(c.class),
                span: None,
                detail: format!(
                    "span capacity {capacity} != allocated {allocated} + span-free {free}"
                ),
            });
        }
        if free != c.central_free_objects {
            out.push(SanitizerReport {
                kind: ErrorKind::ObjectConservationViolation,
                tier: Tier::Central,
                addr: None,
                size_class: Some(c.class),
                span: None,
                detail: format!(
                    "central counter says {} free objects, spans hold {free}",
                    c.central_free_objects
                ),
            });
        }
    }
    // Large allocations: one live shadow object per Large span.
    let large_spans = snap.spans.iter().filter(|s| s.size_class.is_none()).count() as u64;
    let large_live = shadow.live_count_by_class(None);
    if large_spans != large_live {
        out.push(SanitizerReport {
            kind: ErrorKind::ObjectConservationViolation,
            tier: Tier::PageHeap,
            addr: None,
            size_class: None,
            span: None,
            detail: format!("{large_spans} large spans but {large_live} live large objects"),
        });
    }
}

fn audit_spans(snap: &Snapshot, out: &mut Vec<SanitizerReport>) {
    for s in &snap.spans {
        if s.size_class.is_some() && s.allocated + s.free_count != s.capacity {
            out.push(span_violation(
                s,
                format!(
                    "allocated {} + free {} != capacity {}",
                    s.allocated, s.free_count, s.capacity
                ),
            ));
        }
        match s.placement {
            SpanPlacement::Freelist { list } => {
                if s.free_count == 0 {
                    out.push(span_violation(
                        s,
                        "on a free list with no free objects".into(),
                    ));
                }
                let expect = expected_list(s.allocated, snap.occupancy_lists);
                if list as usize != expect {
                    out.push(span_violation(
                        s,
                        format!(
                            "on list {list} but {} live allocations belong on list {expect} of {}",
                            s.allocated, snap.occupancy_lists
                        ),
                    ));
                }
            }
            SpanPlacement::Full => {
                if s.free_count != 0 {
                    out.push(span_violation(
                        s,
                        format!("marked Full with {} free objects", s.free_count),
                    ));
                }
            }
            SpanPlacement::Large => {
                if s.size_class.is_some() || s.capacity != 1 || s.allocated != 1 {
                    out.push(span_violation(s, "malformed large span".into()));
                }
            }
        }
    }
}

fn span_violation(s: &SpanSnapshot, detail: String) -> SanitizerReport {
    SanitizerReport {
        kind: ErrorKind::SpanOccupancyViolation,
        tier: Tier::Central,
        addr: Some(s.start),
        size_class: s.size_class,
        span: Some(s.id),
        detail,
    }
}

fn audit_pagemap(snap: &Snapshot, out: &mut Vec<SanitizerReport>) {
    let span_pages: u64 = snap.spans.iter().map(|s| s.pages as u64).sum();
    if span_pages != snap.pagemap_pages {
        out.push(SanitizerReport {
            kind: ErrorKind::PagemapViolation,
            tier: Tier::PageMap,
            addr: None,
            size_class: None,
            span: None,
            detail: format!(
                "pagemap registers {} pages, live spans cover {span_pages}",
                snap.pagemap_pages
            ),
        });
    }
    audit_pagemap_leaves(snap, out);
}

/// The pagemap-leaf occupancy audit: every leaf's occupied slots must equal
/// the number of live-span pages falling inside that leaf's page run, and
/// must sum to the pagemap total. Walks the reported leaves
/// against an independently recomputed per-leaf tally of the span
/// inventory. Skipped when `pages_per_leaf` is 0 (no leaves reported).
fn audit_pagemap_leaves(snap: &Snapshot, out: &mut Vec<SanitizerReport>) {
    use std::collections::BTreeMap;
    use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;
    let per_leaf = snap.pages_per_leaf;
    if per_leaf == 0 {
        return;
    }
    let leaf_sum: u64 = snap.pagemap_leaves.iter().map(|l| l.pages_used).sum();
    if leaf_sum != snap.pagemap_pages {
        out.push(SanitizerReport {
            kind: ErrorKind::PagemapViolation,
            tier: Tier::PageMap,
            addr: None,
            size_class: None,
            span: None,
            detail: format!(
                "leaf occupancy sums to {leaf_sum}, pagemap registers {} pages",
                snap.pagemap_pages
            ),
        });
    }
    // Recompute the per-leaf tally from the span inventory (BTreeMap keeps
    // the walk deterministic), chunking each span at leaf boundaries.
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &snap.spans {
        let first = s.start / TCMALLOC_PAGE_BYTES;
        let last = first + s.pages as u64;
        let mut page = first;
        while page < last {
            let leaf_base = (page / per_leaf) * per_leaf;
            let chunk_end = (leaf_base + per_leaf).min(last);
            *expected.entry(leaf_base).or_insert(0) += chunk_end - page;
            page = chunk_end;
        }
    }
    let reported: BTreeMap<u64, u64> = snap
        .pagemap_leaves
        .iter()
        .map(|l| (l.base_page, l.pages_used))
        .collect();
    for (&base, &want) in &expected {
        let got = reported.get(&base).copied().unwrap_or(0);
        if got != want {
            out.push(SanitizerReport {
                kind: ErrorKind::PagemapViolation,
                tier: Tier::PageMap,
                addr: Some(base * TCMALLOC_PAGE_BYTES),
                size_class: None,
                span: None,
                detail: format!(
                    "leaf at page {base} reports {got} pages used, span inventory covers {want}"
                ),
            });
        }
    }
    for (&base, &got) in &reported {
        if !expected.contains_key(&base) && got != 0 {
            out.push(SanitizerReport {
                kind: ErrorKind::PagemapViolation,
                tier: Tier::PageMap,
                addr: Some(base * TCMALLOC_PAGE_BYTES),
                size_class: None,
                span: None,
                detail: format!("leaf at page {base} reports {got} pages used, no span covers it"),
            });
        }
    }
}

fn audit_bytes(snap: &Snapshot, out: &mut Vec<SanitizerReport>) {
    let accounted = snap.live_bytes + snap.fragmentation_bytes;
    if snap.resident_bytes != accounted {
        out.push(SanitizerReport {
            kind: ErrorKind::ByteConservationViolation,
            tier: Tier::PageHeap,
            addr: None,
            size_class: None,
            span: None,
            detail: format!(
                "resident {} != live {} + fragmentation {} = {accounted}",
                snap.resident_bytes, snap.live_bytes, snap.fragmentation_bytes
            ),
        });
    }
}

fn audit_hugepages(snap: &Snapshot, out: &mut Vec<SanitizerReport>) {
    for hp in &snap.hugepages {
        let total = hp.used_pages + hp.free_pages;
        let mut bad = Vec::new();
        if total != snap.pages_per_hugepage {
            bad.push(format!(
                "used {} + free {} != {}",
                hp.used_pages, hp.free_pages, snap.pages_per_hugepage
            ));
        }
        if hp.released_pages > hp.free_pages {
            bad.push(format!(
                "released {} exceeds free {}",
                hp.released_pages, hp.free_pages
            ));
        }
        if hp.used_and_released != 0 {
            bad.push(format!(
                "{} pages both used and released",
                hp.used_and_released
            ));
        }
        for detail in bad {
            out.push(SanitizerReport {
                kind: ErrorKind::HugepageBackingViolation,
                tier: Tier::PageHeap,
                addr: Some(hp.base),
                size_class: None,
                span: None,
                detail,
            });
        }
    }
}

/// Every live shadow object must lie inside some live span of its class.
fn audit_shadow_coverage(snap: &Snapshot, shadow: &ShadowState, out: &mut Vec<SanitizerReport>) {
    use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;
    let mut extents: Vec<(u64, u64, Option<u16>)> = snap
        .spans
        .iter()
        .map(|s| {
            (
                s.start,
                s.start + s.pages as u64 * TCMALLOC_PAGE_BYTES,
                s.size_class,
            )
        })
        .collect();
    extents.sort_unstable();
    for (addr, obj) in shadow.live_objects() {
        let covered = match extents.partition_point(|&(start, _, _)| start <= addr) {
            0 => None,
            i => Some(extents[i - 1]),
        };
        match covered {
            Some((_, end, class)) if addr < end => {
                if class != obj.size_class {
                    out.push(SanitizerReport {
                        kind: ErrorKind::ObjectConservationViolation,
                        tier: Tier::Central,
                        addr: Some(addr),
                        size_class: obj.size_class,
                        span: Some(obj.span),
                        detail: format!(
                            "live object of class {:?} sits in a span of class {class:?}",
                            obj.size_class
                        ),
                    });
                }
            }
            _ => out.push(SanitizerReport {
                kind: ErrorKind::ObjectConservationViolation,
                tier: Tier::PageMap,
                addr: Some(addr),
                size_class: obj.size_class,
                span: Some(obj.span),
                detail: "live object not covered by any live span".into(),
            }),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;

    /// A minimal consistent world: one class-3 span, one object live in the
    /// shadow, one per-CPU cached object, the rest free on the span.
    fn consistent() -> (Snapshot, ShadowState) {
        let mut shadow = ShadowState::new();
        shadow.map_span(0, 0x10000, 2, Some(3));
        shadow.record_alloc(0x10000, 64);
        let snap = Snapshot {
            classes: vec![ClassTierSnapshot {
                class: 3,
                object_size: 64,
                percpu_objects: 1,
                transfer_objects: 0,
                deferred_objects: 0,
                central_free_objects: 254,
            }],
            spans: vec![SpanSnapshot {
                id: 0,
                start: 0x10000,
                pages: 2,
                size_class: Some(3),
                capacity: 256,
                allocated: 2,
                free_count: 254,
                placement: SpanPlacement::Freelist {
                    list: expected_list(2, 8) as u8,
                },
            }],
            occupancy_lists: 8,
            pagemap_pages: 2,
            pages_per_leaf: 32768,
            pagemap_leaves: vec![PagemapLeafSnapshot {
                base_page: 0,
                pages_used: 2,
            }],
            pages_per_hugepage: 256,
            hugepages: vec![HugepageSnapshot {
                base: 0,
                used_pages: 2,
                free_pages: 254,
                released_pages: 10,
                used_and_released: 0,
            }],
            resident_bytes: 1000,
            live_bytes: 600,
            fragmentation_bytes: 400,
            // One live span of capacity 256: one slot, a 256-entry region,
            // ⌈256/64⌉ = 4 bitmap words, nothing retired.
            arena: ArenaSnapshot {
                slots_total: 1,
                slots_live: 1,
                free_pool_entries: 256,
                bitmap_pool_words: 4,
                reserved_entries: 256,
                reserved_words: 4,
                retired_entries: 0,
                retired_words: 0,
            },
        };
        (snap, shadow)
    }

    #[test]
    fn consistent_world_passes() {
        let (snap, shadow) = consistent();
        assert_eq!(audit(&snap, &shadow), Vec::new());
    }

    #[test]
    fn expected_list_matches_paper() {
        assert_eq!(expected_list(0, 8), 7);
        assert_eq!(expected_list(1, 8), 7);
        assert_eq!(expected_list(2, 8), 6);
        assert_eq!(expected_list(4, 8), 5);
        assert_eq!(expected_list(128, 8), 0);
        assert_eq!(expected_list(512, 8), 0);
        assert_eq!(expected_list(1, 1), 0);
        assert_eq!(expected_list(500, 1), 0);
    }

    #[test]
    fn lost_cached_object_flagged() {
        let (mut snap, shadow) = consistent();
        snap.classes[0].percpu_objects = 0; // object vanished from the cache
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::ObjectConservationViolation));
    }

    #[test]
    fn span_leak_flagged() {
        let (mut snap, shadow) = consistent();
        snap.spans.clear(); // span vanished while objects are live
        snap.pagemap_pages = 0;
        snap.pagemap_leaves.clear();
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::ObjectConservationViolation
                && r.detail.contains("not covered")));
    }

    #[test]
    fn central_counter_drift_flagged() {
        let (mut snap, shadow) = consistent();
        snap.classes[0].central_free_objects = 99;
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::ObjectConservationViolation
                && r.detail.contains("central counter")));
    }

    #[test]
    fn wrong_occupancy_list_flagged() {
        let (mut snap, shadow) = consistent();
        snap.spans[0].placement = SpanPlacement::Freelist { list: 0 };
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::SpanOccupancyViolation));
    }

    #[test]
    fn full_span_with_free_objects_flagged() {
        let (mut snap, shadow) = consistent();
        snap.spans[0].placement = SpanPlacement::Full;
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::SpanOccupancyViolation && r.detail.contains("Full")));
    }

    #[test]
    fn pagemap_drift_flagged() {
        let (mut snap, shadow) = consistent();
        snap.pagemap_pages = 7;
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::PagemapViolation));
    }

    #[test]
    fn leaf_occupancy_drift_flagged() {
        // Totals still balance, but one leaf's counter disagrees with the
        // span inventory: only the per-leaf audit can catch this.
        let (mut snap, shadow) = consistent();
        snap.pagemap_leaves[0].pages_used = 1;
        snap.pagemap_leaves.push(PagemapLeafSnapshot {
            base_page: 32768,
            pages_used: 1,
        });
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::PagemapViolation && r.detail.contains("leaf at page 0")));
        assert!(reports.iter().any(
            |r| r.kind == ErrorKind::PagemapViolation && r.detail.contains("no span covers it")
        ));
    }

    #[test]
    fn leaf_sum_drift_flagged() {
        let (mut snap, shadow) = consistent();
        snap.pagemap_leaves[0].pages_used = 5;
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::PagemapViolation
                && r.detail.contains("leaf occupancy sums")));
    }

    #[test]
    fn zero_pages_per_leaf_skips_leaf_audit() {
        let (mut snap, shadow) = consistent();
        snap.pages_per_leaf = 0;
        snap.pagemap_leaves.clear();
        assert_eq!(audit(&snap, &shadow), Vec::new());
    }

    #[test]
    fn arena_pool_tiling_drift_flagged() {
        let (mut snap, shadow) = consistent();
        snap.arena.free_pool_entries += 7; // storage nothing accounts for
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::ArenaConservationViolation
                && r.detail.contains("free pool")));
    }

    #[test]
    fn arena_live_slot_drift_flagged() {
        let (mut snap, shadow) = consistent();
        snap.arena.slots_live = 2; // phantom live slot
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::ArenaConservationViolation
                && r.detail.contains("live slots exceed")));
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::ArenaConservationViolation
                && r.detail.contains("span inventory")));
    }

    #[test]
    fn arena_undersized_reservation_flagged() {
        let (mut snap, shadow) = consistent();
        // Regions shrink below what the live span's free stack needs, with
        // the pools shrunk to match so only the reservation check fires.
        snap.arena.reserved_entries = 100;
        snap.arena.free_pool_entries = 100;
        let reports = audit(&snap, &shadow);
        let arena: Vec<_> = reports
            .iter()
            .filter(|r| r.kind == ErrorKind::ArenaConservationViolation)
            .collect();
        assert_eq!(arena.len(), 1);
        assert!(arena[0].detail.contains("live spans need 256"));
    }

    #[test]
    fn retired_storage_balances_the_pools() {
        // A re-carved region leaves retired storage behind; the audit must
        // accept pools larger than the reservations by exactly that much.
        let (mut snap, shadow) = consistent();
        snap.arena.free_pool_entries += 64;
        snap.arena.retired_entries = 64;
        snap.arena.bitmap_pool_words += 1;
        snap.arena.retired_words = 1;
        assert_eq!(audit(&snap, &shadow), Vec::new());
    }

    #[test]
    fn byte_conservation_flagged() {
        let (mut snap, shadow) = consistent();
        snap.resident_bytes += 4096;
        let reports = audit(&snap, &shadow);
        assert!(reports
            .iter()
            .any(|r| r.kind == ErrorKind::ByteConservationViolation));
    }

    #[test]
    fn hugepage_accounting_flagged() {
        let (mut snap, shadow) = consistent();
        snap.hugepages[0].used_and_released = 3;
        snap.hugepages[0].free_pages = 200; // used + free != 256 now too
        let reports = audit(&snap, &shadow);
        let hp: Vec<_> = reports
            .iter()
            .filter(|r| r.kind == ErrorKind::HugepageBackingViolation)
            .collect();
        assert!(hp.len() >= 2, "both the sum and the overlap are flagged");
    }

    #[test]
    fn class_mismatch_between_object_and_span_flagged() {
        let (mut snap, mut shadow) = consistent();
        // A second span the shadow saw announced as class 3, which the
        // allocator reports as class 7; plant a live object inside it.
        shadow.map_span(1, 0x40000, 1, Some(3));
        shadow.record_alloc(0x40000, 64);
        snap.spans.push(SpanSnapshot {
            id: 1,
            start: 0x40000,
            pages: 1,
            size_class: Some(7),
            capacity: 8,
            allocated: 0,
            free_count: 8,
            placement: SpanPlacement::Freelist {
                list: expected_list(0, 8) as u8,
            },
        });
        snap.pagemap_pages += 1;
        snap.pagemap_leaves[0].pages_used += 1;
        // Keep class-7 books balanced so only the cross-class check fires...
        snap.classes.push(ClassTierSnapshot {
            class: 7,
            object_size: 1024,
            percpu_objects: 0,
            transfer_objects: 0,
            deferred_objects: 0,
            central_free_objects: 8,
        });
        // ...but class 3 now has 2 live shadow objects vs 2 allocated slots
        // (1 live + 1 cached expected): bump the span's books to match.
        snap.spans[0].allocated = 3;
        snap.spans[0].free_count = 253;
        snap.classes[0].central_free_objects = 253;
        snap.spans[0].placement = SpanPlacement::Freelist {
            list: expected_list(3, 8) as u8,
        };
        let reports = audit(&snap, &shadow);
        assert!(reports.iter().any(|r| r.detail.contains("span of class")));
        let _ = TCMALLOC_PAGE_BYTES;
    }
}
