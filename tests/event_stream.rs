//! Event-stream integration suite for the unified allocator event bus:
//!
//! 1. **Taxonomy coverage** — a directed workload must emit every one of
//!    the [`AllocEvent::KINDS`] variants at least once, so no boundary
//!    event can silently rot.
//! 2. **Thread-count determinism** — the event log of a run is
//!    byte-identical whether the batch runs on 1, 2, or 8 engine threads
//!    (events carry only simulated time, never wall time).
//! 3. **Conservation** — replaying just the OS-boundary events into a
//!    fresh kernel [`PageTable`] reconstructs the allocator's resident
//!    set exactly, and replaying `MallocDone` / `FreeDone` reconstructs
//!    live bytes and live objects exactly. The stream is therefore a
//!    complete record of the heap, not a best-effort log.
//!
//! That observers neither steer nor pay — the same op stream with and
//! without each kind of observer returns the same addresses, tiers and
//! nanoseconds and books the same ledger after every operation — is
//! checked over every config cell in `tests/config_lattice.rs`.

use std::collections::BTreeSet;
use wsc_parallel::Engine;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::Clock;
use wsc_sim_os::faults::{FaultPlan, PPM};
use wsc_sim_os::pagetable::PageTable;
use wsc_tcmalloc::events::EvictReason;
use wsc_tcmalloc::{AllocEvent, SanitizeLevel, Tcmalloc, TcmallocConfig, TraceRing};
use wsc_workload::driver::{run, run_batch, DriverConfig, RunJob};
use wsc_workload::profiles;

/// FNV-1a (64-bit) over the `Debug` rendering of every event, as
/// `(event_count, hash)`: a compact fingerprint for comparing whole event
/// streams across runs.
fn fingerprint(events: &[AllocEvent]) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        for b in format!("{e:?}").bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (events.len(), hash)
}

fn platform() -> Platform {
    // Two LLC domains: CpuId(0) and CpuId(8) live in different domains, so
    // the NUCA transfer shards and the plunder pass are exercised.
    Platform::chiplet("t", 1, 2, 4, 2)
}

#[test]
fn directed_workload_emits_every_event_kind() {
    let p = platform();
    let clock = Clock::new();
    let cfg = TcmallocConfig::optimized()
        .with_sanitize(SanitizeLevel::Full)
        .with_trace(TraceRing::UNBOUNDED);
    let mut tcm = Tcmalloc::new(cfg, p, clock.clone());
    let (cpu_a, cpu_b) = (CpuId(0), CpuId(8)); // different LLC domains

    // Populate both vCPU caches; cpu_b then stays quiet so the §4.1
    // rebalance has a donor while cpu_a's misses make it a grower.
    let warm = tcm.malloc(64, cpu_b);
    tcm.free(warm.addr, 64, cpu_b);

    // Capacity bait for the slab resizer: hold objects of a mid-size class
    // so its granted capacity sits unused (objects are out, slots remain).
    let held: Vec<_> = (0..64).map(|_| tcm.malloc(4096, cpu_a)).collect();

    // Broad churn across the size-class spectrum on cpu_a: per-CPU
    // hits/misses/overflows, transfer stash/fetch, central refills and
    // span carving, and enough bytes to trip the 2 MiB sampler.
    let mut live = Vec::new();
    for i in 0..4_000u64 {
        let size = 8 + (i % 97) * 523; // 8 B .. ~50 KiB, every class band
        let a = tcm.malloc(size, cpu_a);
        live.push((a.addr, size));
        if i % 3 != 0 {
            let (addr, sz) = live.swap_remove(((i * 7) % live.len() as u64) as usize);
            tcm.free(addr, sz, cpu_a);
        }
        if i % 512 == 0 {
            clock.advance(1 << 20);
            tcm.maintain();
        }
    }

    // Large allocations, one per pageheap component: 1 MiB (filler),
    // 3 MiB (region), 4 MiB (hugepage cache).
    let f = tcm.malloc(1 << 20, cpu_a);
    let r = tcm.malloc(3 << 20, cpu_a);
    let c = tcm.malloc(4 << 20, cpu_a);
    tcm.free(c.addr, 4 << 20, cpu_a);
    tcm.free(r.addr, 3 << 20, cpu_a);
    tcm.free(f.addr, 1 << 20, cpu_a);
    // A repeat large allocation re-occupies the cached run (reused fill).
    let c2 = tcm.malloc(4 << 20, cpu_a);
    tcm.free(c2.addr, 4 << 20, cpu_a);

    // Drain the bulk of the small objects (keeping `held` alive so some
    // hugepages stay partially used — the subrelease target), then let the
    // background passes run: resizer rebalance, plunder, decay, release.
    for (addr, sz) in live.drain(..) {
        tcm.free(addr, sz, cpu_a);
    }
    for i in 0..32u64 {
        clock.advance(wsc_sim_os::clock::NS_PER_SEC / 10);
        tcm.maintain();
        // Keep cpu_a missing between rebalance intervals (the decay pass
        // keeps emptying its cache) while cpu_b stays quiet, so the §4.1
        // rebalance has both a grower and a donor.
        for k in 0..8u64 {
            let size = 64 + (i * 8 + k) % 512;
            let a = tcm.malloc(size, cpu_a);
            tcm.free(a.addr, size, cpu_a);
        }
    }
    // Fresh demand after subrelease: the filler re-occupies broken pages.
    let back = tcm.malloc(1 << 20, cpu_a);
    tcm.free(back.addr, 1 << 20, cpu_a);
    for a in &held {
        tcm.free(a.addr, 4096, cpu_a);
    }

    // The failure-model kinds (OsFault, BackingDenied, LimitHit,
    // ReleaseRetry, Degraded, Recovered) can only come from a fault-injected
    // run: a storm denies THP backing (with a latency spike) while a tiny
    // soft limit forces release retries, then the storm ends and the
    // khugepaged pass re-promotes.
    let fclock = Clock::new();
    let plan = FaultPlan {
        deny_huge_ppm: PPM,
        latency_spike_ppm: PPM,
        latency_spike_ns: 50_000,
        ..FaultPlan::off()
    }
    .with_storm(0, 1_000);
    let fcfg = TcmallocConfig::baseline()
        .with_trace(TraceRing::UNBOUNDED)
        .with_os_faults(plan)
        .with_soft_limit(1 << 20);
    let mut ftcm = Tcmalloc::new(fcfg, platform(), fclock.clone());
    let big = ftcm.malloc(4 << 20, CpuId(0)); // storm: backing denied, spike
    assert!(ftcm.os_degraded(), "storm denied THP backing");
    fclock.advance(wsc_sim_os::clock::NS_PER_SEC);
    ftcm.maintain(); // post-storm: re-promotion + soft-limit enforcement
    assert!(!ftcm.os_degraded(), "khugepaged pass re-promoted");
    ftcm.free(big.addr, 4 << 20, CpuId(0));
    let fault_seen: BTreeSet<&str> = ftcm
        .trace()
        .expect("trace ring")
        .stream()
        .iter()
        .map(AllocEvent::kind)
        .collect();
    for kind in [
        "OsFault",
        "BackingDenied",
        "LimitHit",
        "ReleaseRetry",
        "Degraded",
        "Recovered",
    ] {
        assert!(
            fault_seen.contains(kind),
            "fault run never emitted {kind}: saw {fault_seen:?}"
        );
    }

    let events = tcm.trace().expect("trace ring").stream();
    let seen: BTreeSet<&str> = events.iter().map(AllocEvent::kind).collect();
    let missing: Vec<&str> = AllocEvent::KINDS
        .iter()
        .copied()
        .filter(|k| !seen.contains(k) && !fault_seen.contains(k))
        .collect();
    assert!(
        missing.is_empty(),
        "event kinds never emitted: {missing:?} (saw {} events)",
        events.len()
    );
    // Both eviction flavours, not just the variant.
    for reason in [EvictReason::Plunder, EvictReason::Decay] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, AllocEvent::TransferEvict { reason: r, .. } if *r == reason)),
            "no TransferEvict with reason {reason:?}"
        );
    }
    // Both fill flavours: fresh mmap and re-occupation.
    for reused in [false, true] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, AllocEvent::HugepageFill { reused: ru, .. } if *ru == reused)),
            "no HugepageFill with reused={reused}"
        );
    }
    // The shadow checker rode the same stream and stayed clean.
    assert!(tcm.audits_run() > 0, "audits ran");
    assert!(
        tcm.sanitizer_reports().is_empty(),
        "sanitizer reports: {:?}",
        tcm.sanitizer_reports()
    );
}

#[test]
fn event_log_is_identical_across_thread_counts() {
    let p = platform();
    let cfg = TcmallocConfig::optimized().with_trace(TraceRing::UNBOUNDED);
    let jobs = || -> Vec<RunJob> {
        (0..3)
            .map(|i| RunJob {
                spec: profiles::fleet_mix(),
                platform: p.clone(),
                tcm_cfg: cfg,
                dcfg: DriverConfig::new(2_000, 11 + i, &p),
            })
            .collect()
    };
    let logs: Vec<Vec<(usize, u64)>> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            run_batch(&Engine::new(threads), jobs(), |_, tcm| {
                fingerprint(&tcm.trace().expect("trace ring").stream())
            })
            .expect("no job panics")
        })
        .collect();
    assert!(
        logs[0].iter().all(|&(len, _)| len > 0),
        "every job recorded events: {:?}",
        logs[0]
    );
    assert_eq!(logs[0], logs[1], "threads=1 vs threads=2");
    assert_eq!(logs[0], logs[2], "threads=1 vs threads=8");
}

#[test]
fn replaying_the_stream_reconstructs_the_heap() {
    let p = platform();
    let dcfg = DriverConfig::new(3_000, 5, &p);
    let cfg = TcmallocConfig::optimized().with_trace(TraceRing::UNBOUNDED);
    let (_, tcm) = run(&profiles::fleet_mix(), &p, cfg, &dcfg);

    let mut pt = PageTable::new();
    let mut live_bytes: i128 = 0;
    let mut live_objects: i64 = 0;
    for e in tcm.trace().expect("trace ring").stream() {
        match e {
            AllocEvent::HugepageFill {
                base,
                bytes,
                reused: false,
            } => pt.on_mmap(base, bytes),
            AllocEvent::HugepageFill {
                base,
                bytes,
                reused: true,
            } => pt.reoccupy(base, bytes),
            AllocEvent::HugepageBreak { base, bytes } => pt
                .subrelease(base, bytes)
                .expect("replayed stream only breaks mapped hugepages"),
            AllocEvent::HugepageRelease { base, bytes } => pt.on_munmap(base, bytes),
            AllocEvent::MallocDone { size, .. } => {
                live_bytes += i128::from(size);
                live_objects += 1;
            }
            AllocEvent::FreeDone { size, .. } => {
                live_bytes -= i128::from(size);
                live_objects -= 1;
            }
            _ => {}
        }
    }
    assert_eq!(
        pt.resident_bytes(),
        tcm.resident_bytes(),
        "OS-event replay reconstructs the resident set"
    );
    assert_eq!(
        u64::try_from(live_bytes).expect("net live bytes are non-negative"),
        tcm.live_bytes(),
        "MallocDone/FreeDone replay reconstructs live bytes"
    );
    assert_eq!(
        u64::try_from(live_objects).expect("net live objects are non-negative"),
        tcm.live_objects(),
        "MallocDone/FreeDone replay reconstructs the object count"
    );
    assert!(tcm.live_bytes() > 0, "run left live objects to account for");
}
