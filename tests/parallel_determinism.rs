//! Thread-count-invariance suite for the parallel experiment engine: the
//! same experiment at `threads = 1, 2, 8` must produce byte-identical
//! merged reports. The comparison serializes each result with `{:?}` and
//! compares the strings, so any float that shifts by one ULP fails.

use warehouse_alloc::fleet::experiment::{arm, try_run_fleet_arm, FleetExperimentConfig};
use warehouse_alloc::parallel::Engine;
use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::sim_os::faults::FaultPlan;
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::workload::profiles;
use wsc_prng::SmallRng;

fn quick_cfg(seed: u64) -> FleetExperimentConfig {
    FleetExperimentConfig {
        machines: 3,
        requests_per_binary: 1_000,
        seed,
        population: 40,
    }
}

#[test]
fn fleet_ab_identical_at_threads_1_2_8() {
    // The quick spec's two arms at 2 and 8 workers, then small seeded
    // specs, each one arm (baseline or optimized at random), at a random
    // 2..=8 workers.
    let both = vec![TcmallocConfig::baseline(), TcmallocConfig::optimized()];
    let mut runs = vec![(quick_cfg(11), both, vec![2, 8])];
    for case in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(0xA117 + case);
        let cfg = FleetExperimentConfig {
            machines: rng.gen_range(1usize..4),
            requests_per_binary: rng.gen_range(200u64..900),
            seed: rng.gen::<u64>(),
            population: rng.gen_range(10usize..50),
        };
        let threads = rng.gen_range(2usize..9);
        let tcm_cfg = if rng.gen::<f64>() >= 0.5 {
            TcmallocConfig::optimized()
        } else {
            TcmallocConfig::baseline()
        };
        runs.push((cfg, vec![tcm_cfg], vec![threads]));
    }
    for (cfg, arms, threads) in runs {
        let report = |threads: usize| {
            let engine = Engine::new(threads);
            let summaries: Vec<_> = arms
                .iter()
                .map(|&tcm_cfg| try_run_fleet_arm(&engine, tcm_cfg, &cfg).expect("no cell panics"))
                .collect();
            format!("{summaries:?}")
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
            let engine = Engine::new(threads);
            let arms = [TcmallocConfig::baseline(), TcmallocConfig::optimized()].map(|tcm_cfg| {
                arm(&engine, &[&spec], &platform, tcm_cfg, 1_500, &[9]).expect("no arm panics")
            });
            format!("{arms:?}")
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
            let engine = Engine::new(threads);
            let arms = [TcmallocConfig::baseline(), TcmallocConfig::optimized()].map(|tcm_cfg| {
                try_run_fleet_arm(&engine, tcm_cfg.with_os_faults(storm), &cfg)
                    .expect("faults are refusals, not panics")
            });
            format!("{arms:?}")
        })
        .collect();
    assert_eq!(reports[0], reports[1], "threads=1 vs threads=2");
    assert_eq!(reports[0], reports[2], "threads=1 vs threads=8");
}
