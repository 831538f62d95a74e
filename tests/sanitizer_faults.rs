//! Fault-injection suite for the allocator sanitizer through the public
//! `Tcmalloc` API with `sanitize = Full`: each invalid application free
//! (double free, wrong-size-class free, misaligned free, invalid free,
//! unmapped free) is rejected, reported with its exact [`ErrorKind`], and
//! leaves the allocator consistent; an injected kernel fault is never a
//! report. The structural kinds, which a correct allocator cannot be
//! driven into from outside, are fired by the corruption table in the
//! sanitizer crate's `audit` module, which also checks that every kind
//! fires.

use warehouse_alloc::sanitizer::{ErrorKind, SanitizeLevel};
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

/// Kinds reported by `tcm` so far, in detection order.
fn kinds_of(tcm: &Tcmalloc) -> Vec<ErrorKind> {
    tcm.sanitizer_reports().iter().map(|r| r.kind).collect()
}

#[test]
fn double_free_is_rejected_and_reported() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    tcm.free(a.addr, 64, CpuId(0));
    assert!(kinds_of(&tcm).is_empty(), "valid ops are silent");
    let out = tcm.free(a.addr, 64, CpuId(0));
    assert_eq!(out.ns, 0.0, "rejected free is charged nothing");
    assert_eq!(kinds_of(&tcm), vec![ErrorKind::DoubleFree]);
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
    assert_eq!(kinds_of(&tcm), vec![ErrorKind::DoubleFree]);
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn wrong_size_class_free_is_rejected_and_object_stays_live() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    // 3000 B maps to a different size class than 64 B.
    tcm.free(a.addr, 3000, CpuId(0));
    assert_eq!(kinds_of(&tcm), vec![ErrorKind::WrongSizeClassFree]);
    assert_eq!(tcm.live_objects(), 1, "object survives the bad free");
    // The correct free still works afterwards.
    tcm.free(a.addr, 64, CpuId(0));
    assert_eq!(
        kinds_of(&tcm),
        vec![ErrorKind::WrongSizeClassFree],
        "nothing new"
    );
    assert_eq!(tcm.live_objects(), 0);
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn misaligned_free_inside_live_object_is_rejected() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    tcm.free(a.addr + 8, 64, CpuId(0));
    assert_eq!(kinds_of(&tcm), vec![ErrorKind::MisalignedFree]);
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
    assert_eq!(kinds_of(&tcm), vec![ErrorKind::InvalidFree]);
    tcm.free(a.addr, 64, CpuId(0));
    assert_eq!(tcm.audit_now(), 0);
}

#[test]
fn free_of_unmapped_address_is_rejected() {
    let mut tcm = sanitized_alloc();
    let a = tcm.malloc(64, CpuId(0));
    tcm.free(0x7777_0000_0000, 64, CpuId(0));
    assert_eq!(kinds_of(&tcm), vec![ErrorKind::UseOfUnmappedAddress]);
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
        match tcm.try_malloc_with_site(size, CpuId(0), 0) {
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
        tcm.sanitizer_reports().is_empty(),
        "injected kernel faults masqueraded as allocator bugs"
    );
    for (addr, size) in live {
        tcm.free(addr, size, CpuId(0));
    }
    assert_eq!(tcm.live_objects(), 0);
    assert_eq!(tcm.audit_now(), 0, "conservation holds after the storm");
    assert!(tcm.sanitizer_reports().is_empty());
}
