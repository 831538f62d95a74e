//! Cross-thread free integration suite: the contention-real ownership
//! model under deterministic interleaving schedules.
//!
//! Five properties, per the paper's A/B methodology:
//!
//! 1. **No remote free left behind** — after a schedule's settling drain,
//!    every queued remote free has been adopted by its owner
//!    (`in_flight == 0`, `queued == drained`), and one plunder interval
//!    drains them at any transfer sharding.
//! 2. **Conservation under fire** — the sanitizer's `Full` shadow checks
//!    and cross-tier audits stay at zero findings with deferred frees in
//!    flight, and the deferred arm ends with the owner-only live set.
//! 3. **The arms are distinguishable and bounded** — owner-only books no
//!    contention, the atomic list books some, and it keeps >= 0.85x of
//!    owner-only churn throughput in simulated time.
//! 4. **Interleaving determinism** — replaying the schedules through the
//!    experiment [`Engine`] yields byte-identical event logs at 1, 2, and
//!    8 engine threads (the schedule is data; the engine only changes who
//!    executes it).
//! 5. **Observability** — remote traffic shows in the ledger and the
//!    event stream, with event/counter parity.
//!
//! The same agreement, op by op and over every config cell, is checked in
//! `tests/config_lattice.rs`.

use wsc_parallel::{Engine, Task};
use wsc_sim_hw::topology::Platform;
use wsc_tcmalloc::interleave::{replay, ReplayOutcome, Schedule};
use wsc_tcmalloc::{FreeArm, SanitizeLevel, TcmallocConfig};

fn platform() -> Platform {
    // Two LLC domains: producers and consumers sit on opposite sides so
    // remote frees also cross the NUCA shard boundary.
    Platform::chiplet("t", 1, 2, 4, 2)
}

/// Producer→consumer and thread-churn schedules used by every test here.
fn scenarios(seed: u64) -> Vec<(String, Schedule)> {
    vec![
        (
            "producer-consumer".into(),
            Schedule::producer_consumer(seed, &[0, 1, 2], &[8, 9, 10], 1_200),
        ),
        (
            "thread-churn".into(),
            Schedule::thread_churn(seed ^ 0x5EED, 16, 1_200),
        ),
    ]
}

#[test]
fn every_remote_free_is_eventually_drained() {
    for (name, sched) in scenarios(0xC0FFEE) {
        let cfg = TcmallocConfig::optimized().with_free_arm(FreeArm::AtomicList);
        let out = replay(cfg, platform(), &sched);
        assert!(out.queued > 0, "{name}: schedule never went remote");
        assert_eq!(
            out.in_flight, 0,
            "{name}: remote frees left parked after the drain"
        );
        assert_eq!(
            out.queued, out.drained,
            "{name}: queue/drain counters disagree"
        );
    }
}

#[test]
fn sanitizer_full_stays_clean_with_deferred_frees() {
    for (name, sched) in scenarios(0x5A11) {
        let cfg = TcmallocConfig::optimized()
            .with_free_arm(FreeArm::AtomicList)
            .with_sanitize(SanitizeLevel::Full);
        let out = replay(cfg, platform(), &sched);
        assert_eq!(
            out.sanitizer_findings, 0,
            "{name}: sanitizer found violations"
        );
    }
}

#[test]
fn deferred_arms_agree_with_the_owner_only_heap() {
    // The free arm changes *when* objects flow back to the middle tiers,
    // never *which* objects are live: the final live set and its byte
    // accounting must match the owner-only oracle exactly.
    for (name, sched) in scenarios(0x0AC1E) {
        let oracle = replay(TcmallocConfig::optimized(), platform(), &sched);
        let cfg = TcmallocConfig::optimized().with_free_arm(FreeArm::AtomicList);
        let out = replay(cfg, platform(), &sched);
        assert_eq!(
            (out.live_objects, out.live_bytes, &out.live_sizes),
            (oracle.live_objects, oracle.live_bytes, &oracle.live_sizes),
            "{name}: live set diverged from the owner-only heap"
        );
    }
}

#[test]
fn one_plunder_interval_drains_remote_frees_at_any_sharding() {
    // Objects freed remotely into a class that never refills again reach
    // only the plunder cadence's drain. An unsharded transfer tier has no
    // shards to plunder, but its deferred lists must drain all the same.
    use wsc_sim_hw::topology::CpuId;
    use wsc_sim_os::clock::{Clock, NS_PER_SEC};
    use wsc_tcmalloc::Tcmalloc;
    for (name, cfg) in [
        ("baseline", TcmallocConfig::baseline()),
        ("numa", TcmallocConfig::baseline().with_numa_transfer()),
        ("optimized", TcmallocConfig::optimized()),
    ] {
        let clock = Clock::new();
        let cfg = cfg.with_free_arm(FreeArm::AtomicList);
        let mut tcm = Tcmalloc::new(cfg, platform(), clock.clone());
        let objs: Vec<_> = (0..200).map(|_| tcm.malloc(64, CpuId(0))).collect();
        for a in &objs {
            tcm.free(a.addr, 64, CpuId(8)); // the other LLC domain
        }
        assert_eq!(tcm.deferred().in_flight(), 200, "{name}: frees went remote");
        clock.advance(NS_PER_SEC / 20); // one plunder interval
        tcm.maintain();
        assert_eq!(
            tcm.deferred().in_flight(),
            0,
            "{name}: remote frees stranded past a plunder interval"
        );
    }
}

#[test]
fn deferred_arms_charge_distinct_contention_within_the_overhead_bound() {
    // Identical schedules, so every delta is mechanism, in simulated time:
    // one CAS per atomic-list push plus an adoption lock per drained list.
    for (name, sched) in scenarios(0xC0B7E47) {
        let [owner, atomic] = [FreeArm::OwnerOnly, FreeArm::AtomicList].map(|arm| {
            let cfg = TcmallocConfig::optimized().with_free_arm(arm);
            replay(cfg, platform(), &sched)
        });
        assert_eq!(owner.contention_ns, 0.0, "{name}: owner-only charged");
        assert!(atomic.contention_ns > 0.0, "{name}: atomic-list free");
        // The deferred bookkeeping is O(1) amortized per remote free: the
        // atomic-list arm keeps >= 0.85x of owner-only churn throughput, and
        // cannot beat an arm that charges no synchronisation at all.
        if name == "thread-churn" {
            let retained = owner.total_ns / atomic.total_ns;
            assert!(
                (0.85..=1.0).contains(&retained),
                "atomic-list retains {retained:.3}x of owner-only churn throughput"
            );
        }
    }
}

#[test]
fn event_logs_are_identical_across_engine_thread_counts() {
    // One task per (scenario × arm): four replays, each fingerprinting its
    // complete event stream. The merged result vector must be
    // byte-identical at 1, 2, and 8 engine threads.
    let jobs: Vec<(String, (Schedule, FreeArm))> = scenarios(0xD17E)
        .into_iter()
        .flat_map(|(name, sched)| {
            [FreeArm::OwnerOnly, FreeArm::AtomicList]
                .into_iter()
                .map(move |arm| (format!("{name}/{}", arm.name()), (sched.clone(), arm)))
        })
        .collect();
    let tasks = Task::seeded(0xD17E, jobs);
    let run = |threads: usize| -> Vec<ReplayOutcome> {
        Engine::new(threads)
            .run(&tasks, |task, _| {
                let (sched, arm) = &task.payload;
                replay(
                    TcmallocConfig::optimized().with_free_arm(*arm),
                    platform(),
                    sched,
                )
            })
            .expect("no replay panics")
    };
    let serial = run(1);
    assert!(
        serial.iter().all(|o| o.fingerprint.0 > 0),
        "every replay recorded events"
    );
    assert_eq!(serial, run(2), "threads=1 vs threads=2");
    assert_eq!(serial, run(8), "threads=1 vs threads=8");
}

#[test]
fn remote_traffic_is_visible_to_stats_and_events() {
    // Cross-thread traffic must be observable, not just correct: the
    // contention cycle category fills in and both remote event kinds
    // appear in the recorded stream.
    use wsc_sim_os::clock::Clock;
    use wsc_tcmalloc::{AllocEvent, CycleCategory, Tcmalloc};
    let sched = Schedule::producer_consumer(0x0B5, &[0, 1], &[8, 9], 800);
    let cfg = TcmallocConfig::optimized()
        .with_free_arm(FreeArm::AtomicList)
        .with_event_recorder();
    let mut tcm = Tcmalloc::new(cfg, platform(), Clock::new());
    let mut live: Vec<(u64, u64)> = Vec::new();
    for op in &sched.ops {
        use wsc_tcmalloc::interleave::SchedOp;
        match *op {
            SchedOp::Malloc { cpu, size } => {
                let a = tcm.malloc(size, wsc_sim_hw::topology::CpuId(cpu % 16));
                live.push((a.addr, size));
            }
            SchedOp::Free { slot, cpu } => {
                if live.is_empty() {
                    continue;
                }
                let (addr, size) = live.swap_remove(slot as usize % live.len());
                tcm.free(addr, size, wsc_sim_hw::topology::CpuId(cpu % 16));
            }
            SchedOp::Tick { ns } => {
                tcm.clock().advance(ns);
                tcm.maintain();
            }
            SchedOp::Drain => tcm.drain_deferred(),
        }
    }
    let queued = tcm
        .recorded_events()
        .iter()
        .filter(|e| matches!(e, AllocEvent::RemoteFreeQueued { .. }))
        .count() as u64;
    let drained: u64 = tcm
        .recorded_events()
        .iter()
        .filter_map(|e| match e {
            AllocEvent::RemoteFreeDrained { count, .. } => Some(u64::from(*count)),
            _ => None,
        })
        .sum();
    assert_eq!(
        queued,
        tcm.deferred().queued_total(),
        "event/counter parity"
    );
    assert_eq!(
        drained,
        tcm.deferred().drained_total(),
        "event/counter parity"
    );
    assert!(
        tcm.cycles().ns(CycleCategory::Contention) > 0.0,
        "contention cycles attributed"
    );
}
