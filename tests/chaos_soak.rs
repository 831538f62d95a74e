//! Chaos soak: the Figure-7 fleet mix driven through seeded fault storms
//! with the sanitizer at `Full`.
//!
//! Each named storm from [`FaultPlan::NAMED`] batters a full driver run —
//! injected ENOMEM, denied THP backing, flaky `madvise`, latency spikes —
//! while the shadow checker and the cross-tier conservation audits ride
//! along. The contract under fault injection:
//!
//! 1. **Zero sanitizer reports** — injected *kernel* faults must never look
//!    like *allocator* bugs. Conservation holds at every audit.
//! 2. **No live-object loss** — every object the application obtained is
//!    freed cleanly at teardown; a refused allocation is a refusal, never a
//!    half-placed object.
//! 3. **Full recovery post-storm** — once the storm window closes,
//!    allocations succeed again, the khugepaged re-promotion pass clears
//!    the degraded state, and hugepage coverage returns to healthy levels.

use warehouse_alloc::sim_hw::topology::{CpuId, Platform};
use warehouse_alloc::sim_os::clock::{Clock, NS_PER_SEC};
use warehouse_alloc::sim_os::faults::{FaultPlan, PPM};
use warehouse_alloc::tcmalloc::{AllocEvent, SanitizeLevel, Tcmalloc, TcmallocConfig, TraceRing};
use warehouse_alloc::workload::driver::{run, DriverConfig};
use warehouse_alloc::workload::profiles;

/// The whole event stream of an allocator built with an unbounded ring.
fn stream(tcm: &Tcmalloc) -> Vec<AllocEvent> {
    let ring = tcm.trace().expect("trace ring configured");
    assert_eq!(ring.dropped(), 0, "the ring dropped events");
    ring.entries().map(|&(_, ev)| ev).collect()
}

fn platform() -> Platform {
    Platform::chiplet("t", 1, 2, 4, 2)
}

/// A storm window that starts immediately and outlasts any quick driver
/// run, so the whole soak happens under fault pressure and the recovery
/// phase can advance simulated time past the end deterministically.
const STORM_END_NS: u64 = 3_600 * NS_PER_SEC;

#[test]
fn every_named_storm_soaks_clean_under_full_sanitize() {
    let p = platform();
    for name in FaultPlan::NAMED {
        let plan = FaultPlan::named(name, 0xC0FFEE)
            .expect("catalogued storm")
            .with_storm(0, STORM_END_NS);
        // The tight soft limit keeps the background passes releasing and
        // the allocation path re-mapping, so every storm sees a steady
        // stream of kernel calls to bite on.
        let cfg = TcmallocConfig::optimized()
            .with_sanitize(SanitizeLevel::Full)
            .with_os_faults(plan)
            .with_soft_limit(8 << 20);
        let dcfg = DriverConfig {
            drain_at_end: true,
            ..DriverConfig::new(2_500, 7, &p)
        };
        let (report, mut tcm) = run(&profiles::fleet_mix(), &p, cfg, &dcfg);

        // (1) Injected OS faults never produce sanitizer reports.
        assert!(
            tcm.sanitizer_reports().is_empty(),
            "{name}: sanitizer reports under fault injection: {:?}",
            tcm.sanitizer_reports()
        );
        assert!(tcm.audits_run() > 0, "{name}: audits rode the soak");
        assert_eq!(tcm.audit_now(), 0, "{name}: post-storm audit clean");

        // (2) No live-object loss: the drained teardown freed everything
        // the application ever successfully obtained.
        assert_eq!(tcm.live_objects(), 0, "{name}: live objects after drain");
        assert_eq!(tcm.live_bytes(), 0, "{name}: live bytes after drain");

        assert!(
            report.requests > 0 && report.throughput > 0.0,
            "{name}: the workload made progress under the storm"
        );

        // Aftershock: the steady-state mix reuses memory too well to
        // guarantee kernel-call traffic at quick scale, so with the storm
        // still raging, drive the syscall surface directly — fresh large
        // mappings (mmap) and small-span churn that strands free pages in
        // the filler (madvise via the subrelease pass) — until the
        // injector has demonstrably fired.
        let clock = tcm.clock().clone();
        let cpu = CpuId(0);
        let small_bytes = 100 * 8192; // a 100-page span: filler-placed
        let mut large = Vec::new();
        let mut small = Vec::new();
        for _ in 0..300 {
            let s = tcm.fault_stats();
            if s.enomem_injected + s.huge_denied + s.subrelease_failed + s.latency_spikes > 0 {
                break;
            }
            // Nothing freed yet, so every 4 MiB allocation is a fresh mmap.
            if let Ok(a) = tcm.try_malloc(4 << 20, cpu) {
                large.push(a.addr);
            }
            for _ in 0..4 {
                if let Ok(a) = tcm.try_malloc(small_bytes, cpu) {
                    small.push(a.addr);
                }
            }
            if small.len() >= 8 {
                let keep = small.split_off(small.len() - 2);
                for addr in small.drain(..) {
                    tcm.free(addr, small_bytes, cpu);
                }
                small = keep;
            }
            clock.advance(NS_PER_SEC / 10);
            tcm.maintain();
        }
        let stats = tcm.fault_stats();
        let injected = stats.enomem_injected
            + stats.huge_denied
            + stats.subrelease_failed
            + stats.latency_spikes;
        assert!(injected > 0, "{name}: storm injected no faults");
        for addr in large {
            tcm.free(addr, 4 << 20, cpu);
        }
        for addr in small {
            tcm.free(addr, small_bytes, cpu);
        }
        assert_eq!(tcm.live_objects(), 0, "{name}: aftershock drained");

        // (3) Recovery: close the storm window, run maintenance, and the
        // allocator serves cleanly again.
        while clock.now_ns() < STORM_END_NS + NS_PER_SEC {
            clock.advance(NS_PER_SEC);
            tcm.maintain();
        }
        assert!(!tcm.os_degraded(), "{name}: degraded state cleared");
        let a = tcm
            .try_malloc(1 << 20, CpuId(0))
            .unwrap_or_else(|e| panic!("{name}: post-storm allocation failed: {e}"));
        tcm.free(a.addr, 1 << 20, CpuId(0));
        assert_eq!(tcm.audit_now(), 0, "{name}: audit clean after recovery");
    }
}

#[test]
fn deferred_frees_ride_out_fault_storms() {
    // Cross-thread frees in flight while the kernel misbehaves: remote
    // frees queue and drain through ENOMEM injection, THP denial, and
    // latency spikes without losing an object; invalid frees come back as
    // structured errors (never panics) even with lists parked; and once
    // the storm window closes the allocator emits `Recovered` and audits
    // clean.
    use warehouse_alloc::tcmalloc::{FreeArm, FreeError};
    let p = platform();
    let producer = CpuId(0);
    let consumer = CpuId(8); // other LLC domain: every free is remote
    for storm in ["thp-outage", "enomem-storm", "latency-spikes"] {
        let clock = Clock::new();
        let plan = FaultPlan::named(storm, 0xBAD5EED)
            .expect("catalogued storm")
            .with_storm(0, NS_PER_SEC);
        let cfg = TcmallocConfig::optimized()
            .with_free_arm(FreeArm::AtomicList)
            .with_sanitize(SanitizeLevel::Full)
            .with_trace(TraceRing::UNBOUNDED)
            .with_os_faults(plan);
        let mut tcm = Tcmalloc::new(cfg, p.clone(), clock.clone());

        // Pipeline churn under the storm. Allocation refusals are
        // structured errors; successful objects are freed from the
        // wrong CPU so the deferred arm carries them.
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut max_in_flight = 0u64;
        for i in 0..1_500u64 {
            let size = 16 + (i % 97) * 41;
            if let Ok(a) = tcm.try_malloc(size, producer) {
                live.push((a.addr, size));
            }
            if i % 16 == 0 {
                // Large-path traffic keeps the injector fed (fresh
                // mmaps) and, under thp-outage, trips Degraded.
                if let Ok(a) = tcm.try_malloc(4 << 20, producer) {
                    tcm.try_free(a.addr, 4 << 20, consumer)
                        .expect("valid large free");
                }
            }
            if live.len() > 24 {
                let (addr, size) = live.swap_remove((i * 7) as usize % live.len());
                tcm.try_free(addr, size, consumer).expect("valid free");
            }
            max_in_flight = max_in_flight.max(tcm.deferred().in_flight());
            if i % 256 == 0 {
                clock.advance(NS_PER_SEC / 20);
                tcm.maintain();
            }
        }
        assert!(
            max_in_flight > 0,
            "{storm}: no deferred frees were ever in flight"
        );

        // A wild free with remote frees parked: rejected and reported
        // by the sanitizer, allocator state untouched — no panic.
        let before = tcm.sanitizer_reports().len();
        tcm.try_free(0xDEAD_0000, 64, consumer)
            .expect("sanitizer rejects wild frees as reports, not errors");
        assert_eq!(
            tcm.sanitizer_reports().len(),
            before + 1,
            "{storm}: wild free reported"
        );
        let degraded_seen = tcm.os_degraded();

        // Teardown: every object the application got is freed, then
        // the settling drain adopts everything parked.
        for (addr, size) in live.drain(..) {
            tcm.try_free(addr, size, consumer).expect("teardown free");
        }
        tcm.drain_deferred();
        assert_eq!(
            tcm.deferred().in_flight(),
            0,
            "{storm}: drain left remote frees parked"
        );
        assert_eq!(tcm.live_objects(), 0, "{storm}: object lost");

        // Storm closes: service recovers, conservation audit clean.
        while clock.now_ns() < 2 * NS_PER_SEC {
            clock.advance(NS_PER_SEC / 4);
            tcm.maintain();
        }
        assert!(!tcm.os_degraded(), "{storm}: still degraded");
        if degraded_seen {
            assert!(
                stream(&tcm)
                    .iter()
                    .any(|e| matches!(e, AllocEvent::Recovered { .. })),
                "{storm}: degradation never recovered"
            );
        }
        assert_eq!(tcm.audit_now(), 0, "{storm}: audit dirty");
        let reports = tcm.take_sanitizer_reports();
        assert_eq!(
            reports.len(),
            1,
            "{storm}: only the deliberate wild free may be reported: {reports:?}"
        );

        // With the sanitizer off, the same wild free is a structured
        // error — the fallible API never panics, deferred arm or not.
        let cfg_off = TcmallocConfig::optimized().with_free_arm(FreeArm::AtomicList);
        let mut bare = Tcmalloc::new(cfg_off, p.clone(), Clock::new());
        let a = bare.malloc(64, producer);
        bare.free(a.addr, 64, consumer); // park one remote free
        assert_eq!(
            bare.try_free(0xBAD_F00D << 20, 8 << 20, consumer),
            Err(FreeError::InvalidFree {
                addr: 0xBAD_F00D << 20
            }),
            "{storm}: wild large free must be a structured error"
        );
    }
}

#[test]
fn thp_outage_craters_coverage_then_repromotion_recovers_it() {
    // Total THP denial (no collapse failures) makes the coverage arc exact:
    // 0 during the storm, 1.0 after the khugepaged pass.
    let clock = Clock::new();
    let plan = FaultPlan {
        deny_huge_ppm: PPM,
        ..FaultPlan::off()
    }
    .with_seed(9)
    .with_storm(0, NS_PER_SEC);
    let cfg = TcmallocConfig::baseline()
        .with_sanitize(SanitizeLevel::Full)
        .with_os_faults(plan);
    let mut tcm = Tcmalloc::new(cfg, platform(), clock.clone());

    // Allocate through the storm: every mapping comes back 4 KiB-backed.
    let live: Vec<_> = (0..4).map(|_| tcm.malloc(4 << 20, CpuId(0))).collect();
    assert!(tcm.os_degraded(), "backing denied during the storm");
    assert_eq!(
        tcm.hugepage_coverage(),
        0.0,
        "nothing hugepage-backed mid-outage"
    );
    // One denial decision per mmap call (each 4 MiB allocation is one
    // mmap), not per backing hugepage.
    assert_eq!(tcm.fault_stats().huge_denied, 4);

    // Storm ends; background maintenance re-promotes the denied hugepages.
    clock.advance(2 * NS_PER_SEC);
    tcm.maintain();
    assert!(!tcm.os_degraded(), "khugepaged pass cleared the denial set");
    assert_eq!(tcm.hugepage_coverage(), 1.0, "coverage fully recovered");

    // No object was lost along the way.
    for a in live {
        tcm.free(a.addr, 4 << 20, CpuId(0));
    }
    assert_eq!(tcm.live_objects(), 0);
    assert_eq!(tcm.audit_now(), 0);
    assert!(tcm.sanitizer_reports().is_empty());
}

#[test]
fn hard_limit_refuses_then_frees_restore_service() {
    // A 8 MiB hard limit: the second 6 MiB allocation must be refused with
    // a structured error (after the pageheap's emergency release found
    // nothing to give back), and freeing the first restores service.
    let clock = Clock::new();
    let cfg = TcmallocConfig::baseline()
        .with_sanitize(SanitizeLevel::Full)
        .with_hard_limit(8 << 20);
    let mut tcm = Tcmalloc::new(cfg, platform(), clock);
    let a = tcm.try_malloc(6 << 20, CpuId(0)).expect("fits under limit");
    let denied = tcm.try_malloc(6 << 20, CpuId(0));
    assert!(denied.is_err(), "second 6 MiB exceeds the 8 MiB hard limit");
    assert_eq!(tcm.live_objects(), 1, "refusal placed nothing");
    tcm.free(a.addr, 6 << 20, CpuId(0));
    let b = tcm
        .try_malloc(6 << 20, CpuId(0))
        .expect("frees restored headroom");
    tcm.free(b.addr, 6 << 20, CpuId(0));
    assert_eq!(tcm.audit_now(), 0);
    assert!(tcm.sanitizer_reports().is_empty());
}

#[test]
fn faults_off_run_is_byte_identical_to_a_plan_free_run() {
    // `FaultPlan::off()` draws no randomness on zero-rate faults, so a
    // fault-injector with the all-zero plan must reproduce the plan-free
    // build's event stream byte for byte — the golden figures depend on it.
    let p = platform();
    let dcfg = DriverConfig::new(1_500, 13, &p);
    let base = TcmallocConfig::optimized().with_trace(TraceRing::UNBOUNDED);
    let (_, tcm_plain) = run(&profiles::fleet_mix(), &p, base, &dcfg);
    let (_, tcm_zeroed) = run(
        &profiles::fleet_mix(),
        &p,
        base.with_os_faults(FaultPlan::off().with_seed(77)),
        &dcfg,
    );
    let plain: Vec<String> = stream(&tcm_plain)
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    let zeroed: Vec<String> = stream(&tcm_zeroed)
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    assert_eq!(plain, zeroed, "zero-rate injector perturbed the stream");
}
