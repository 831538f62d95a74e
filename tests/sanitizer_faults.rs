//! Fault-injection suite for the allocator sanitizer: every [`ErrorKind`]
//! must fire at least once, each from the smallest fault that produces it.
//!
//! The application-visible shadow violations (double free, wrong-size-class
//! free, misaligned free, invalid free, unmapped free) are injected through
//! the public `Tcmalloc` API with `sanitize = Full` — the invalid operation
//! is rejected, reported, and the allocator stays consistent. The
//! structural kinds (overlap, conservation, occupancy, pagemap, hugepage)
//! are injected by corrupting shadow state or audit snapshots directly,
//! since a correct allocator cannot be driven into them from outside.

use std::collections::BTreeSet;

/// One snapshot-corruption injection: a label, the corruption, and the
/// [`ErrorKind`] the audit must report for it.
type CorruptionCase = (&'static str, Box<dyn Fn(&mut Snapshot)>, ErrorKind);
use warehouse_alloc::sanitizer::{
    audit, expected_list, ArenaSnapshot, ClassTierSnapshot, ErrorKind, HugepageSnapshot,
    PagemapLeafSnapshot, SanitizeLevel, ShadowState, Snapshot, SpanPlacement, SpanSnapshot,
};
use warehouse_alloc::sim_hw::topology::{CpuId, Platform};
use warehouse_alloc::sim_os::clock::Clock;
use warehouse_alloc::tcmalloc::{Tcmalloc, TcmallocConfig};

fn sanitized_alloc() -> Tcmalloc {
    Tcmalloc::new(
        TcmallocConfig::baseline().with_sanitize(SanitizeLevel::Full),
        Platform::chiplet("t", 1, 2, 4, 2),
        Clock::new(),
    )
}

/// The rounded object size for a request, via the public size-class table.
fn object_size(tcm: &Tcmalloc, request: u64) -> u64 {
    let cl = tcm.table().class_for(request).expect("small request");
    tcm.table().info(cl).size
}

/// Kinds reported by `tcm` for one injected fault, with the queue drained.
fn kinds_of(tcm: &mut Tcmalloc) -> Vec<ErrorKind> {
    tcm.take_sanitizer_reports()
        .into_iter()
        .map(|r| r.kind)
        .collect()
}

#[test]
fn double_free_is_rejected_and_reported() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    tcm.free(a.addr, 64, CpuId(0));
    assert!(kinds_of(&mut tcm).is_empty(), "valid ops are silent");
    let out = tcm.free(a.addr, 64, CpuId(0));
    assert_eq!(out.ns, 0.0, "rejected free is charged nothing");
    assert_eq!(kinds_of(&mut tcm), vec![ErrorKind::DoubleFree]);
    // The rejected free must not corrupt accounting: a clean audit proves it.
    assert_eq!(tcm.live_objects(), 0);
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn double_free_of_large_allocation_is_rejected_not_panicking() {
    // Without the sanitizer this is the `double_free_large_panics` case;
    // with it, the second free is rejected with a report instead.
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(1 << 20, CpuId(0));
    tcm.free(a.addr, 1 << 20, CpuId(0));
    tcm.free(a.addr, 1 << 20, CpuId(0));
    assert_eq!(kinds_of(&mut tcm), vec![ErrorKind::DoubleFree]);
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn wrong_size_class_free_is_rejected_and_object_stays_live() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    // 3000 B maps to a different size class than 64 B.
    tcm.free(a.addr, 3000, CpuId(0));
    assert_eq!(kinds_of(&mut tcm), vec![ErrorKind::WrongSizeClassFree]);
    assert_eq!(tcm.live_objects(), 1, "object survives the bad free");
    // The correct free still works afterwards.
    tcm.free(a.addr, 64, CpuId(0));
    assert!(kinds_of(&mut tcm).is_empty());
    assert_eq!(tcm.live_objects(), 0);
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn misaligned_free_inside_live_object_is_rejected() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    tcm.free(a.addr + 8, 64, CpuId(0));
    assert_eq!(kinds_of(&mut tcm), vec![ErrorKind::MisalignedFree]);
    tcm.free(a.addr, 64, CpuId(0));
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn invalid_free_of_never_allocated_slot_is_rejected() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    // The refill batch carved more 64-B-class objects from the same span
    // than the app ever received; the neighboring slot is mapped but was
    // never returned by malloc.
    let neighbor = a.addr + object_size(&tcm, 64);
    tcm.free(neighbor, 64, CpuId(0));
    assert_eq!(kinds_of(&mut tcm), vec![ErrorKind::InvalidFree]);
    tcm.free(a.addr, 64, CpuId(0));
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn free_of_unmapped_address_is_rejected() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    tcm.free(0x7777_0000_0000, 64, CpuId(0));
    assert_eq!(kinds_of(&mut tcm), vec![ErrorKind::UseOfUnmappedAddress]);
    tcm.free(a.addr, 64, CpuId(0));
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn injected_os_faults_are_never_sanitizer_reports() {
    // A kernel fault is a refusal, not an allocator bug: under a storm that
    // denies mmaps, strips THP backing, and breaks subrelease all at once,
    // the shadow checker and the conservation audits must stay silent —
    // only *invalid application operations* may ever produce reports.
    use warehouse_alloc::sim_os::faults::{FaultPlan, PPM};
    // The ENOMEM rate must beat the pageheap's release-and-retry loop
    // (4 mmap draws per request) often enough to surface real refusals.
    let plan = FaultPlan {
        enomem_ppm: PPM * 3 / 4,
        deny_huge_ppm: PPM / 2,
        subrelease_fail_ppm: PPM / 2,
        latency_spike_ppm: PPM / 4,
        latency_spike_ns: 50_000,
        ..FaultPlan::off()
    }
    .with_seed(0xBAD05)
    .with_storm(0, u64::MAX);
    let clock = Clock::new();
    let mut tcm = Tcmalloc::new(
        TcmallocConfig::baseline()
            .with_sanitize(SanitizeLevel::Full)
            .with_os_faults(plan)
            .with_soft_limit(4 << 20),
        Platform::chiplet("t", 1, 2, 4, 2),
        clock.clone(),
    );
    let mut live = Vec::new();
    let mut refused = 0u64;
    for round in 0..200u64 {
        let size = if round % 3 == 0 {
            2 << 20
        } else {
            64 + round * 16
        };
        match tcm.try_malloc(size, CpuId(0)) {
            Ok(a) => live.push((a.addr, size)),
            Err(_) => refused += 1,
        }
        if live.len() > 12 {
            let (addr, size) = live.remove(0);
            tcm.free(addr, size, CpuId(0));
        }
        clock.advance(10_000_000);
        tcm.maintain();
    }
    let stats = tcm.fault_stats();
    assert!(
        stats.enomem_injected + stats.huge_denied + stats.subrelease_failed > 0,
        "the storm actually bit: {stats:?}"
    );
    assert!(refused > 0, "some allocations were refused outright");
    assert!(
        tcm.take_sanitizer_reports().is_empty(),
        "injected kernel faults masqueraded as allocator bugs"
    );
    for (addr, size) in live {
        tcm.free(addr, size, CpuId(0));
    }
    assert_eq!(tcm.live_objects(), 0);
    assert_eq!(tcm.audit_now(), 0, "conservation holds after the storm");
    assert!(tcm.take_sanitizer_reports().is_empty());
}

#[test]
fn overlapping_allocation_is_reported_by_the_shadow() {
    let mut shadow = ShadowState::new();
    shadow.map_span(0, 0x10000, 2, Some(3));
    shadow.record_alloc(0x10000, 64);
    // Second object overlapping the first by 32 bytes.
    shadow.record_alloc(0x10020, 64);
    let kinds: Vec<_> = shadow.take_reports().iter().map(|r| r.kind).collect();
    assert_eq!(kinds, vec![ErrorKind::OverlappingAllocation]);
}

#[test]
fn span_leak_with_live_objects_is_reported() {
    let mut shadow = ShadowState::new();
    shadow.map_span(0, 0x10000, 2, Some(3));
    shadow.record_alloc(0x10000, 64);
    // The span vanishes (returned to the pageheap) while the object lives.
    shadow.forget_span(0x10000);
    let reports = shadow.take_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].kind, ErrorKind::ObjectConservationViolation);
    assert!(reports[0].detail.contains("released with live object"));
}

/// A minimal consistent world for snapshot-corruption injections: one
/// class-3 span with one live object, one cached object, rest span-free.
fn consistent_world() -> (Snapshot, ShadowState) {
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
            released_pages: 0,
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
fn audit_kind_injections_each_fire_their_kind() {
    // Sanity: the uncorrupted world audits clean.
    let (snap, shadow) = consistent_world();
    assert_eq!(audit(&snap, &shadow), Vec::new());

    // Corruption -> expected kind, one fault at a time.
    let cases: Vec<CorruptionCase> = vec![
        (
            "lost cached object",
            Box::new(|s: &mut Snapshot| s.classes[0].percpu_objects = 0),
            ErrorKind::ObjectConservationViolation,
        ),
        (
            "resident bytes drift",
            Box::new(|s: &mut Snapshot| s.resident_bytes += 4096),
            ErrorKind::ByteConservationViolation,
        ),
        (
            "span on wrong occupancy list",
            Box::new(|s: &mut Snapshot| {
                s.spans[0].placement = SpanPlacement::Freelist { list: 0 };
            }),
            ErrorKind::SpanOccupancyViolation,
        ),
        (
            "pagemap page-count drift",
            Box::new(|s: &mut Snapshot| s.pagemap_pages = 7),
            ErrorKind::PagemapViolation,
        ),
        (
            "hugepage used/released overlap",
            Box::new(|s: &mut Snapshot| s.hugepages[0].used_and_released = 3),
            ErrorKind::HugepageBackingViolation,
        ),
        (
            "pagemap leaf occupancy drift",
            Box::new(|s: &mut Snapshot| {
                // Totals still balance (2 pages) but the per-leaf split is
                // wrong: only the leaf-occupancy audit can see it.
                s.pagemap_leaves[0].pages_used = 1;
                s.pagemap_leaves.push(PagemapLeafSnapshot {
                    base_page: 32768,
                    pages_used: 1,
                });
            }),
            ErrorKind::PagemapViolation,
        ),
        (
            "metadata arena pool drift",
            Box::new(|s: &mut Snapshot| s.arena.free_pool_entries += 7),
            ErrorKind::ArenaConservationViolation,
        ),
    ];
    for (name, corrupt, expected) in cases {
        let (mut snap, shadow) = consistent_world();
        corrupt(&mut snap);
        let kinds: BTreeSet<_> = audit(&snap, &shadow).iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&expected), "{name}: got {kinds:?}");
    }
}

#[test]
fn every_error_kind_fires_at_least_once() {
    let mut fired: BTreeSet<ErrorKind> = BTreeSet::new();

    // Shadow kinds through the public allocator API.
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    let neighbor = a.addr + object_size(&tcm, 64);
    tcm.free(a.addr + 8, 64, CpuId(0)); // misaligned
    tcm.free(neighbor, 64, CpuId(0)); // invalid (never allocated)
    tcm.free(a.addr, 3000, CpuId(0)); // wrong size class
    tcm.free(0x7777_0000_0000, 64, CpuId(0)); // unmapped
    tcm.free(a.addr, 64, CpuId(0)); // valid
    tcm.free(a.addr, 64, CpuId(0)); // double free
    fired.extend(tcm.take_sanitizer_reports().iter().map(|r| r.kind));

    // Structural kinds through direct shadow/audit injection.
    let mut shadow = ShadowState::new();
    shadow.map_span(0, 0x10000, 2, Some(3));
    shadow.record_alloc(0x10000, 64);
    shadow.record_alloc(0x10020, 64); // overlap
    fired.extend(shadow.take_reports().iter().map(|r| r.kind));

    for corrupt in [
        (|s: &mut Snapshot| s.classes[0].percpu_objects = 9) as fn(&mut Snapshot),
        |s| s.resident_bytes += 1,
        |s| s.spans[0].placement = SpanPlacement::Full,
        |s| s.pagemap_pages = 0,
        |s| s.hugepages[0].released_pages = 255,
        |s| s.arena.slots_live = 0,
    ] {
        let (mut snap, shadow) = consistent_world();
        corrupt(&mut snap);
        fired.extend(audit(&snap, &shadow).iter().map(|r| r.kind));
    }

    for kind in ErrorKind::ALL {
        assert!(fired.contains(&kind), "{kind:?} never fired");
    }
}
