//! Cross-thread free integration suite: the contention-real ownership
//! model under deterministic interleaving schedules.
//!
//! Four properties, per the paper's A/B methodology:
//!
//! 1. **No remote free left behind** — after a schedule's settling drain,
//!    every queued remote free has been adopted by its owner
//!    (`in_flight == 0`, `queued == drained`), under both deferred arms.
//! 2. **Conservation under fire** — the sanitizer's `Full` shadow checks
//!    and cross-tier audits stay at zero findings with deferred frees in
//!    flight mid-run and after the drain.
//! 3. **Arms are distinguishable and bounded** — owner-only books no
//!    contention, message passing books more than the atomic list, and the
//!    atomic-list arm keeps >= 0.85x of owner-only churn throughput in
//!    simulated time.
//! 4. **Interleaving determinism** — replaying the schedules through the
//!    experiment [`Engine`] yields byte-identical event logs at 1, 2, and
//!    8 engine threads (the schedule is data; the engine only changes who
//!    executes it).

use wsc_parallel::{Engine, Task};
use wsc_sim_hw::topology::Platform;
use wsc_tcmalloc::interleave::{replay, ReplayOutcome, Schedule};
use wsc_tcmalloc::{FreeArm, SanitizeLevel, TcmallocConfig};

fn platform() -> Platform {
    // Two LLC domains: producers and consumers sit on opposite sides so
    // remote frees also cross the NUCA shard boundary.
    Platform::chiplet("t", 1, 2, 4, 2)
}

fn deferred_arms() -> [FreeArm; 2] {
    [FreeArm::AtomicList, FreeArm::MessagePassing]
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
        for arm in deferred_arms() {
            let cfg = TcmallocConfig::optimized().with_free_arm(arm);
            let out = replay(cfg, platform(), &sched);
            assert!(
                out.queued > 0,
                "{name}/{}: schedule never went remote",
                arm.name()
            );
            assert_eq!(
                out.in_flight,
                0,
                "{name}/{}: remote frees left parked after the drain",
                arm.name()
            );
            assert_eq!(
                out.queued,
                out.drained,
                "{name}/{}: queue/drain counters disagree",
                arm.name()
            );
        }
    }
}

#[test]
fn sanitizer_full_stays_clean_with_deferred_frees() {
    for (name, sched) in scenarios(0x5A11) {
        for arm in deferred_arms() {
            let cfg = TcmallocConfig::optimized()
                .with_free_arm(arm)
                .with_sanitize(SanitizeLevel::Full);
            let out = replay(cfg, platform(), &sched);
            assert_eq!(
                out.sanitizer_findings,
                0,
                "{name}/{}: sanitizer found violations",
                arm.name()
            );
        }
    }
}

#[test]
fn deferred_arms_agree_with_the_owner_only_heap() {
    // The free arm changes *when* objects flow back to the middle tiers,
    // never *which* objects are live: the final live set and its byte
    // accounting must match the owner-only oracle exactly.
    for (name, sched) in scenarios(0x0AC1E) {
        let oracle = replay(TcmallocConfig::optimized(), platform(), &sched);
        for arm in deferred_arms() {
            let cfg = TcmallocConfig::optimized().with_free_arm(arm);
            let out = replay(cfg, platform(), &sched);
            assert_eq!(
                out.live_objects,
                oracle.live_objects,
                "{name}/{}: live object count diverged",
                arm.name()
            );
            assert_eq!(
                out.live_bytes,
                oracle.live_bytes,
                "{name}/{}: live byte count diverged",
                arm.name()
            );
            assert_eq!(
                out.live_sizes,
                oracle.live_sizes,
                "{name}/{}: live size multiset diverged",
                arm.name()
            );
        }
    }
}

#[test]
fn deferred_arms_charge_distinct_contention_within_the_overhead_bound() {
    // Identical schedules, so every delta is mechanism, in simulated time:
    // one CAS per atomic-list push vs batch posts and adoption locks for
    // message passing.
    for (name, sched) in scenarios(0xC0B7E47) {
        let [owner, atomic, message] = [
            FreeArm::OwnerOnly,
            FreeArm::AtomicList,
            FreeArm::MessagePassing,
        ]
        .map(|arm| {
            let cfg = TcmallocConfig::optimized().with_free_arm(arm);
            replay(cfg, platform(), &sched)
        });
        assert_eq!(owner.contention_ns, 0.0, "{name}: owner-only charged");
        assert!(atomic.contention_ns > 0.0, "{name}: atomic-list free");
        // Different, and in the direction the cost model stands behind: a
        // batch post is dearer than a CAS, so message passing pays more.
        assert!(
            atomic.contention_ns < message.contention_ns,
            "{name}: atomic-list {} ns vs message-passing {} ns",
            atomic.contention_ns,
            message.contention_ns
        );
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
    // One task per (scenario × arm), including owner-only: nine replays,
    // each fingerprinting its complete event stream. The merged result
    // vector must be byte-identical at 1, 2, and 8 engine threads.
    let jobs: Vec<(String, (Schedule, FreeArm))> = scenarios(0xD17E)
        .into_iter()
        .flat_map(|(name, sched)| {
            [
                FreeArm::OwnerOnly,
                FreeArm::AtomicList,
                FreeArm::MessagePassing,
            ]
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
