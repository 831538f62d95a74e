//! Cross-thread free integration suite: the two free arms replayed on
//! deterministic interleaving schedules.
//!
//! Two properties, per the paper's A/B methodology:
//!
//! 1. **The arms are distinguishable and bounded** — owner-only books no
//!    contention, the atomic list books some, and it keeps >= 0.85x of
//!    owner-only churn throughput in simulated time.
//! 2. **Interleaving determinism** — replaying the schedules through the
//!    experiment [`Engine`] yields byte-identical event logs at 1, 2, and
//!    8 engine threads (the schedule is data; the engine only changes who
//!    executes it).
//!
//! That remote frees drain, that the deferred arm ends with the owner-only
//! live set under a clean `Full` sanitizer, and that remote-free events
//! agree with the deferred counters are checked op by op on the same
//! schedules, at both shipped configs, in `tests/config_lattice.rs`.

use wsc_parallel::{Engine, Task};
use wsc_prng::derive_seed;
use wsc_sim_hw::topology::Platform;
use wsc_tcmalloc::interleave::{replay, ReplayOutcome, Schedule};
use wsc_tcmalloc::{FreeArm, TcmallocConfig};

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
    let tasks: Vec<_> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, (label, payload))| Task {
            seed: derive_seed(0xD17E, i as u64),
            label,
            payload,
        })
        .collect();
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
