//! Thread-count-invariance suite for the parallel experiment engine: the
//! same experiment at `threads = 1, 2, 8` must produce byte-identical
//! merged reports. The comparison serializes each result with `{:?}` and
//! compares the strings, so any float that shifts by one ULP fails.

use warehouse_alloc::fleet::experiment::{paired_ab, try_run_fleet_ab, FleetExperimentConfig};
use warehouse_alloc::parallel::Engine;
use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::sim_os::faults::FaultPlan;
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::workload::profiles;
use wsc_prng::SmallRng;

fn quick_cfg(seed: u64) -> FleetExperimentConfig {
    FleetExperimentConfig {
        machines: 3,
        binaries_per_machine: 2,
        requests_per_binary: 1_000,
        seed,
        population: 40,
    }
}

#[test]
fn fleet_ab_identical_at_threads_1_2_8() {
    // The quick spec at 2 and 8 workers, then small seeded specs, each with
    // the arms in a random order, at a random 2..=8 workers.
    let mut runs = vec![(
        quick_cfg(11),
        [TcmallocConfig::baseline(), TcmallocConfig::optimized()],
        vec![2, 8],
    )];
    for case in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(0xA117 + case);
        let cfg = FleetExperimentConfig {
            machines: rng.gen_range(1usize..4),
            binaries_per_machine: rng.gen_range(1usize..3),
            requests_per_binary: rng.gen_range(200u64..900),
            seed: rng.gen::<u64>(),
            population: rng.gen_range(10usize..50),
        };
        let threads = rng.gen_range(2usize..9);
        let mut arms = [TcmallocConfig::baseline(), TcmallocConfig::optimized()];
        if rng.gen::<f64>() >= 0.5 {
            arms.reverse();
        }
        runs.push((cfg, arms, vec![threads]));
    }
    for (cfg, [control, experiment], threads) in runs {
        let report = |threads: usize| {
            let r = try_run_fleet_ab(&Engine::new(threads), control, experiment, &cfg)
                .expect("no cell panics");
            format!("{r:?}")
        };
        let serial = report(1);
        for t in threads {
            assert_eq!(serial, report(t), "{cfg:?}: threads=1 vs threads={t}");
        }
    }
}

#[test]
fn workload_ab_identical_at_threads_1_2_8() {
    let platform = Platform::chiplet("t", 1, 2, 4, 2);
    let spec = profiles::monarch();
    let reports: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let c = paired_ab(
                &Engine::new(threads),
                &[&spec],
                &platform,
                TcmallocConfig::baseline(),
                TcmallocConfig::optimized(),
                1_500,
                &[9],
            )
            .expect("no arm panics");
            format!("{c:?}")
        })
        .collect();
    assert_eq!(reports[0], reports[1], "threads=1 vs threads=2");
    assert_eq!(reports[0], reports[2], "threads=1 vs threads=8");
}

#[test]
fn fault_storm_identical_at_threads_1_2_8() {
    // Fault injection is part of the determinism contract: the same seeded
    // storm must perturb every cell identically regardless of how the
    // engine schedules them. Both arms run under an ENOMEM storm wide
    // enough to cover the whole quick run, so denied mmaps, release-retry
    // loops, and refused allocations all land in the compared reports.
    let cfg = quick_cfg(31);
    let storm = FaultPlan::named("enomem-storm", 0xFA57)
        .expect("catalogued storm")
        .with_storm(0, u64::MAX);
    let reports: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let r = try_run_fleet_ab(
                &Engine::new(threads),
                TcmallocConfig::baseline().with_os_faults(storm),
                TcmallocConfig::optimized().with_os_faults(storm),
                &cfg,
            )
            .expect("faults are refusals, not panics");
            format!("{r:?}")
        })
        .collect();
    assert_eq!(reports[0], reports[1], "threads=1 vs threads=2");
    assert_eq!(reports[0], reports[2], "threads=1 vs threads=8");
}

#[test]
fn merged_telemetry_identical_across_thread_counts() {
    // The resident-memory telemetry folds into fixed buckets in canonical
    // leaf order; the folded bytes must not depend on which worker
    // finished first.
    let cfg = quick_cfg(23);
    let serial = try_run_fleet_ab(
        &Engine::new(1),
        TcmallocConfig::baseline(),
        TcmallocConfig::baseline(),
        &cfg,
    )
    .expect("no cell panics");
    let threaded = try_run_fleet_ab(
        &Engine::new(4),
        TcmallocConfig::baseline(),
        TcmallocConfig::baseline(),
        &cfg,
    )
    .expect("no cell panics");
    assert!(
        serial.summary.resident.samples() > 0,
        "cells produced telemetry"
    );
    assert_eq!(
        serial.summary.encode(),
        threaded.summary.encode(),
        "folded summary byte-identical across thread counts"
    );
}
