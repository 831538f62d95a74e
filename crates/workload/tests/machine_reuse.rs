//! A `Machine` renews its allocator, kernel, LLC, dTLB and driver tables
//! before every run, keeping only host storage. The oracle: whatever run A
//! left behind, run B on that machine must report exactly what B reports
//! on a fresh machine. Every ordered pair of the runs below is checked —
//! the `RunReport` and the allocator's ledger, fragmentation, per-vCPU
//! misses and GWP profile compared as `Debug` text.

use wsc_sim_hw::topology::Platform;
use wsc_sim_os::faults::FaultPlan;
use wsc_tcmalloc::TcmallocConfig;
use wsc_workload::driver::{DriverConfig, Machine, RunReport};
use wsc_workload::profiles;
use wsc_workload::spec::WorkloadSpec;

const REQUESTS: u64 = 2_000;

struct Case {
    label: &'static str,
    spec: WorkloadSpec,
    platform: Platform,
    tcm_cfg: TcmallocConfig,
    dcfg: DriverConfig,
}

fn cases() -> Vec<Case> {
    let chiplet = Platform::chiplet("chiplet-64c", 2, 4, 8, 2);
    let mono = Platform::monolithic("mono-28c", 2, 28, 2);
    // 256 KiB per domain: the LLC evicts, so its order and stamps matter.
    let small = Platform::new("small-llc", 1, 1, 2, 4, 2, 256 << 10);
    let case = |label, spec, platform: &Platform, tcm_cfg, seed| Case {
        label,
        spec,
        platform: platform.clone(),
        tcm_cfg,
        dcfg: DriverConfig::new(REQUESTS, seed, platform),
    };
    let drained = |mut c: Case| {
        c.dcfg.drain_at_end = true;
        c
    };
    let optimized = TcmallocConfig::optimized();
    let baseline = TcmallocConfig::baseline();
    vec![
        case(
            "fleet_mix baseline",
            profiles::fleet_mix(),
            &chiplet,
            baseline,
            1,
        ),
        case(
            "fleet_mix optimized",
            profiles::fleet_mix(),
            &mono,
            optimized,
            2,
        ),
        case("redis optimized", profiles::redis(), &chiplet, optimized, 3),
        case(
            "fleet_binary(3) baseline",
            profiles::fleet_binary(3),
            &mono,
            baseline,
            4,
        ),
        case(
            "fleet_mix on 256 KiB",
            profiles::fleet_mix(),
            &small,
            optimized,
            5,
        ),
        case(
            "fleet_mix under an 8 MiB hard limit",
            profiles::fleet_mix(),
            &chiplet,
            optimized.with_hard_limit(8 << 20),
            6,
        ),
        case(
            "fleet_binary(5) in a THP outage",
            profiles::fleet_binary(5),
            &chiplet,
            optimized.with_os_faults(FaultPlan::named("thp-outage", 7).expect("named plan")),
            7,
        ),
        drained(case("redis drained", profiles::redis(), &mono, baseline, 8)),
        drained(case(
            "fleet_binary(1) drained on 256 KiB",
            profiles::fleet_binary(1),
            &small,
            baseline,
            9,
        )),
    ]
}

/// What a run is judged by: its report and the allocator it leaves.
fn observed(machine: &mut Machine, case: &Case) -> (String, RunReport) {
    let report = machine.run(&case.spec, &case.platform, case.tcm_cfg, &case.dcfg);
    let tcm = machine.allocator();
    let text = format!(
        "{:?}",
        (
            &report,
            tcm.cycles(),
            tcm.fragmentation(),
            tcm.percpu_miss_counts(),
            tcm.profile()
        )
    );
    (text, report)
}

#[test]
fn a_renewed_machine_reports_what_a_fresh_one_does() {
    let cases = cases();
    let fresh: Vec<(String, RunReport)> = cases
        .iter()
        .map(|case| observed(&mut Machine::new(), case))
        .collect();
    // The cases cover what they claim to.
    let limited = &fresh[5].1;
    assert!(limited.failed_allocs > 0, "the hard limit refuses");
    assert!(fresh.iter().all(|(_, r)| r.requests == REQUESTS));

    for (a, first) in cases.iter().enumerate() {
        for (b, second) in cases.iter().enumerate() {
            let mut machine = Machine::new();
            let (after_first, _) = observed(&mut machine, first);
            assert_eq!(after_first, fresh[a].0, "{}: a fresh machine", first.label);
            let (renewed, _) = observed(&mut machine, second);
            assert!(
                renewed == fresh[b].0,
                "{} after {}: the renewed machine's report differs from a fresh one's",
                second.label,
                first.label
            );
        }
    }
}

#[test]
fn a_machine_runs_many_workloads_in_turn() {
    // One machine through every case twice over, as an engine worker folds
    // cells: each run reports what it reports on a fresh machine.
    let cases = cases();
    let mut machine = Machine::new();
    for case in cases.iter().chain(&cases).rev() {
        let (renewed, _) = observed(&mut machine, case);
        let (fresh, _) = observed(&mut Machine::new(), case);
        assert!(renewed == fresh, "{}: renewed != fresh", case.label);
    }
}
