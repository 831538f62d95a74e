//! Cross-tier conservation audits.
//!
//! The allocator hands the audit a [`Snapshot`] — a flat, allocator-neutral
//! dump of every tier's counts — and the audit proves the conservation laws
//! that make the simulation's figures trustworthy. Every comparison sets two
//! independently kept quantities against each other; none restates how a
//! snapshot field is computed.
//!
//! 1. **Object conservation, per class.** Every object a span has handed
//!    out is either live in the application (shadow), cached per-CPU, or
//!    cached in the transfer tier:
//!    `Σ span.allocated = shadow_live + percpu + transfer`.
//!    The central free list's running counter equals the free objects on
//!    its spans, and every large span holds one live large object.
//! 2. **Span inventory.** The shadow, which learns spans only from the
//!    event stream, mirrors exactly the allocator's live spans, as
//!    `(start, pages, class)` sets. Since the shadow records an object only
//!    on an announced span of the object's class, and reports every object
//!    a forgotten span drops, this also places every live object in a live
//!    span of its class.
//! 3. **Span placement.** A span with `A` live allocations must sit on
//!    occupancy list `max(0, L-1-⌊log2 A⌋)` (§4.3); a `Full` span has no
//!    free objects; a `Large` span is a single allocated object.
//! 4. **Pagemap extent.** The pagemap holds exactly one entry per page of
//!    every live span, in total and leaf by leaf.
//! 5. **Byte conservation.** `resident = live + fragmentation` — the
//!    identity behind Figures 5b/6b.
//! 6. **Hugepage backing.** For every filler-tracked hugepage, the used
//!    mask agrees with the used counter (`mask + (256 − counter) = 256`),
//!    released pages are a subset of the free ones, and no page is
//!    simultaneously used and released.
//! 7. **Metadata arena occupancy.** The span registry's slab pools must be
//!    tiled exactly by the carved regions (`pool = reserved + retired`, for
//!    both the free-stack entry pool and the bitmap word pool), every live
//!    span must occupy exactly one arena slot, and the reserved regions
//!    must be large enough to hold every live span's free stack.

use crate::report::{ErrorKind, SanitizerReport, Tier};
use crate::shadow::ShadowState;
use std::collections::BTreeSet;

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
    /// The central free list's running free-object counter.
    pub central_free_objects: u64,
}

/// One filler-tracked hugepage's page accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HugepageSnapshot {
    /// Hugepage base address.
    pub base: u64,
    /// Pages set in the hugepage's used mask.
    pub used_pages: u32,
    /// Pages free by the hugepage's used counter (256 − counter).
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
    audit_shadow_spans(snap, shadow, &mut out);
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
        let (mut allocated, mut free) = (0u64, 0u64);
        for s in snap.spans.iter().filter(|s| s.size_class == Some(c.class)) {
            allocated += s.allocated as u64;
            free += s.free_count as u64;
        }
        let live = shadow.live_count_by_class(Some(c.class));
        let cached = c.percpu_objects + c.transfer_objects;
        if allocated != live + cached {
            out.push(SanitizerReport {
                kind: ErrorKind::ObjectConservationViolation,
                tier: Tier::Central,
                addr: None,
                size_class: Some(c.class),
                span: None,
                detail: format!(
                    "spans report {allocated} allocated but shadow live {live} + percpu {} + transfer {} = {}",
                    c.percpu_objects,
                    c.transfer_objects,
                    live + cached
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
/// the number of live-span pages falling inside that leaf's page run. Walks
/// the reported leaves against an independently recomputed per-leaf tally
/// of the span inventory. Skipped when `pages_per_leaf` is 0 (no leaves
/// reported).
fn audit_pagemap_leaves(snap: &Snapshot, out: &mut Vec<SanitizerReport>) {
    use std::collections::BTreeMap;
    use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;
    let per_leaf = snap.pages_per_leaf;
    if per_leaf == 0 {
        return;
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
                "used mask {} + free {} != {}: the used counter disagrees with the mask",
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

/// The shadow's spans — announced by `SpanAlloc`, dropped by `SpanRetire` —
/// must be exactly the allocator's live spans. A tier that releases a span
/// without announcing it leaves it here in the shadow alone.
fn audit_shadow_spans(snap: &Snapshot, shadow: &ShadowState, out: &mut Vec<SanitizerReport>) {
    let allocator: BTreeSet<(u64, u32, Option<u16>)> = snap
        .spans
        .iter()
        .map(|s| (s.start, s.pages, s.size_class))
        .collect();
    let mirrored: BTreeSet<(u64, u32, Option<u16>)> = shadow.spans().collect();
    for (only, lacking, set, other) in [
        ("allocator", "shadow", &allocator, &mirrored),
        ("shadow", "allocator", &mirrored, &allocator),
    ] {
        for &(start, pages, class) in set.difference(other) {
            out.push(SanitizerReport {
                kind: ErrorKind::ObjectConservationViolation,
                tier: Tier::Shadow,
                addr: Some(start),
                size_class: class,
                span: None,
                detail: format!(
                    "span at {start:#x} (+{pages} pages, class {class:?}) is live in the {only} but not in the {lacking}"
                ),
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;

    /// The one consistent world every corruption starts from: one class-3
    /// span, one object live in the shadow, one per-CPU cached object, the
    /// rest free on the span.
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

    type Corruption = fn(&mut Snapshot, &mut ShadowState);

    /// One fault at a time on [`consistent`]: a name, the corruption, the
    /// kind the audit must report and a substring of that report's detail.
    const CORRUPTIONS: &[(&str, Corruption, ErrorKind, &str)] = &[
        (
            "lost cached object",
            |s, _| s.classes[0].percpu_objects = 0,
            ErrorKind::ObjectConservationViolation,
            "spans report 2 allocated",
        ),
        (
            "central counter drift",
            |s, _| s.classes[0].central_free_objects = 99,
            ErrorKind::ObjectConservationViolation,
            "central counter says 99",
        ),
        (
            "large object on no large span",
            |_, sh| {
                sh.map_span(1, 0x40000, 1, None);
                sh.record_alloc(0x40000, TCMALLOC_PAGE_BYTES);
            },
            ErrorKind::ObjectConservationViolation,
            "0 large spans but 1 live large objects",
        ),
        (
            "span dropped while an object is live",
            |s, _| s.spans.clear(),
            ErrorKind::ObjectConservationViolation,
            "span at 0x10000 (+2 pages, class Some(3)) is live in the shadow but not in the allocator",
        ),
        (
            "span class changed",
            |s, _| s.spans[0].size_class = Some(7),
            ErrorKind::ObjectConservationViolation,
            "class Some(7)) is live in the allocator but not in the shadow",
        ),
        (
            "span on the wrong occupancy list",
            |s, _| s.spans[0].placement = SpanPlacement::Freelist { list: 0 },
            ErrorKind::SpanOccupancyViolation,
            "on list 0 but 2 live allocations belong on list 6",
        ),
        (
            "Full span with free objects",
            |s, _| s.spans[0].placement = SpanPlacement::Full,
            ErrorKind::SpanOccupancyViolation,
            "marked Full with 254 free objects",
        ),
        (
            "listed span with no free objects",
            |s, _| s.spans[0].free_count = 0,
            ErrorKind::SpanOccupancyViolation,
            "on a free list with no free objects",
        ),
        (
            "small span marked large",
            |s, _| s.spans[0].placement = SpanPlacement::Large,
            ErrorKind::SpanOccupancyViolation,
            "malformed large span",
        ),
        (
            "pagemap page-count drift",
            |s, _| s.pagemap_pages = 7,
            ErrorKind::PagemapViolation,
            "pagemap registers 7 pages",
        ),
        (
            "pagemap leaf occupancy drift",
            |s, _| s.pagemap_leaves[0].pages_used = 1,
            ErrorKind::PagemapViolation,
            "leaf at page 0 reports 1 pages used, span inventory covers 2",
        ),
        (
            "pagemap leaf no span covers",
            |s, _| {
                s.pagemap_leaves.push(PagemapLeafSnapshot {
                    base_page: 32768,
                    pages_used: 1,
                });
            },
            ErrorKind::PagemapViolation,
            "leaf at page 32768 reports 1 pages used, no span covers it",
        ),
        (
            "resident bytes drift",
            |s, _| s.resident_bytes += 4096,
            ErrorKind::ByteConservationViolation,
            "resident 5096 != live 600 + fragmentation 400",
        ),
        (
            "hugepage used counter disagrees with its mask",
            |s, _| s.hugepages[0].free_pages -= 1,
            ErrorKind::HugepageBackingViolation,
            "used mask 2 + free 253 != 256",
        ),
        (
            "hugepage releases more than its free pages",
            |s, _| s.hugepages[0].released_pages = 255,
            ErrorKind::HugepageBackingViolation,
            "released 255 exceeds free 254",
        ),
        (
            "hugepage page both used and released",
            |s, _| s.hugepages[0].used_and_released = 3,
            ErrorKind::HugepageBackingViolation,
            "3 pages both used and released",
        ),
        (
            "arena free pool drift",
            |s, _| s.arena.free_pool_entries += 7,
            ErrorKind::ArenaConservationViolation,
            "free pool holds 263 entries",
        ),
        (
            "arena bitmap pool drift",
            |s, _| s.arena.bitmap_pool_words += 1,
            ErrorKind::ArenaConservationViolation,
            "bitmap pool holds 5 words",
        ),
        (
            "more live arena slots than minted",
            |s, _| s.arena.slots_live = 2,
            ErrorKind::ArenaConservationViolation,
            "2 live slots exceed 1 minted",
        ),
        (
            "arena slots disagree with the span inventory",
            |s, _| s.arena.slots_live = 0,
            ErrorKind::ArenaConservationViolation,
            "arena reports 0 live slots, span inventory holds 1",
        ),
        (
            "arena reservation too small for the live spans",
            |s, _| {
                s.arena.reserved_entries = 100;
                s.arena.free_pool_entries = 100;
            },
            ErrorKind::ArenaConservationViolation,
            "reserved regions hold 100 entries, live spans need 256",
        ),
    ];

    #[test]
    fn consistent_variants_audit_clean() {
        let (snap, shadow) = consistent();
        assert_eq!(audit(&snap, &shadow), Vec::new());
        // No leaves reported: the per-leaf audit is skipped.
        let (mut snap, shadow) = consistent();
        snap.pages_per_leaf = 0;
        snap.pagemap_leaves.clear();
        assert_eq!(audit(&snap, &shadow), Vec::new());
        // A re-carved region leaves retired storage behind: pools larger
        // than the reservations by exactly that much balance.
        let (mut snap, shadow) = consistent();
        snap.arena.free_pool_entries += 64;
        snap.arena.retired_entries = 64;
        snap.arena.bitmap_pool_words += 1;
        snap.arena.retired_words = 1;
        assert_eq!(audit(&snap, &shadow), Vec::new());
    }

    #[test]
    fn each_corruption_fires_its_kind() {
        for &(name, corrupt, kind, detail) in CORRUPTIONS {
            let (mut snap, mut shadow) = consistent();
            corrupt(&mut snap, &mut shadow);
            let reports = audit(&snap, &shadow);
            assert!(
                reports
                    .iter()
                    .any(|r| r.kind == kind && r.detail.contains(detail)),
                "{name}: no {kind:?} with {detail:?} in {reports:#?}"
            );
        }
    }

    #[test]
    fn every_error_kind_fires() {
        // The application-side kinds, from shadow operations on the same
        // world; the structural kinds, from the table.
        let (_, mut shadow) = consistent();
        shadow.record_alloc(0x10020, 64); // overlaps the live object
        let _ = shadow.check_free(0x10008, Some(3)); // interior pointer
        let _ = shadow.check_free(0x10080, Some(3)); // never handed out
        let _ = shadow.check_free(0x10000, Some(9)); // wrong class
        let _ = shadow.check_free(0xdead_0000, None); // no span
        let _ = shadow.check_free(0x10000, Some(3));
        let _ = shadow.check_free(0x10000, Some(3)); // double free
        let fired: BTreeSet<ErrorKind> = shadow
            .take_reports()
            .iter()
            .map(|r| r.kind)
            .chain(CORRUPTIONS.iter().map(|&(_, _, kind, _)| kind))
            .collect();
        assert_eq!(fired, ErrorKind::ALL.into_iter().collect());
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
}
