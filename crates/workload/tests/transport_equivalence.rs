//! `driver::run` streams the allocator half's records to the simulated
//! LLC and dTLB over one of two transports: a helper thread when called
//! directly on a multi-core host, the calling thread when run inside an
//! `Engine`. The result must not depend on which: every case below runs
//! both ways and compares the `RunReport` and the allocator's cycle ledger
//! as `Debug` text. On a one-CPU host both runs take the same-thread
//! transport and the comparison is trivially equal.

use wsc_parallel::{Engine, Task};
use wsc_sim_hw::topology::Platform;
use wsc_tcmalloc::TcmallocConfig;
use wsc_workload::driver::{self, DriverConfig};
use wsc_workload::profiles;
use wsc_workload::spec::WorkloadSpec;

struct Case {
    label: String,
    spec: WorkloadSpec,
    platform: Platform,
    tcm_cfg: TcmallocConfig,
    dcfg: DriverConfig,
}

const REQUESTS: u64 = 3_000;

fn cases() -> Vec<Case> {
    let p = Platform::chiplet("t", 1, 2, 4, 2);
    let shipped = [
        ("baseline", TcmallocConfig::baseline()),
        ("optimized", TcmallocConfig::optimized()),
    ];
    let specs = [
        profiles::fleet_mix(),
        profiles::fleet_binary(3),
        profiles::redis(),
    ];
    let mut out = Vec::new();
    for spec in &specs {
        for (name, tcm_cfg) in shipped {
            for seed in [1, 7, 42] {
                out.push(Case {
                    label: format!("{} {name} seed {seed}", spec.name),
                    spec: spec.clone(),
                    platform: p.clone(),
                    tcm_cfg,
                    dcfg: DriverConfig::new(REQUESTS, seed, &p),
                });
            }
        }
    }
    out.push(Case {
        label: "fleet_mix under an 8 MiB hard limit".to_string(),
        spec: profiles::fleet_mix(),
        platform: p.clone(),
        tcm_cfg: TcmallocConfig::optimized().with_hard_limit(8 << 20),
        dcfg: DriverConfig::new(REQUESTS, 5, &p),
    });
    out.push(Case {
        label: "fleet_mix drained at the end".to_string(),
        spec: profiles::fleet_mix(),
        platform: p.clone(),
        tcm_cfg: TcmallocConfig::baseline(),
        dcfg: DriverConfig {
            drain_at_end: true,
            ..DriverConfig::new(REQUESTS, 9, &p)
        },
    });
    // An object's back-to-back touches travel as one record of at most 255:
    // 300 need two, and 0 need none.
    for touches in [300, 0] {
        let mut spec = profiles::fleet_mix();
        spec.accesses_per_object = touches;
        out.push(Case {
            label: format!("fleet_mix touching each object {touches} times"),
            spec,
            platform: p.clone(),
            tcm_cfg: TcmallocConfig::optimized(),
            dcfg: DriverConfig::new(REQUESTS, 3, &p),
        });
    }
    // A 256 KiB LLC evicts, so the replay order of touches shows.
    let small = Platform::new("small-llc", 1, 1, 2, 4, 2, 256 << 10);
    out.push(Case {
        label: "fleet_mix on a 256 KiB LLC".to_string(),
        spec: profiles::fleet_mix(),
        platform: small.clone(),
        tcm_cfg: TcmallocConfig::optimized(),
        dcfg: DriverConfig::new(REQUESTS, 7, &small),
    });
    out
}

/// The run's report, the allocator's ledger and its refused allocations.
fn run(case: &Case) -> (String, u64) {
    let (report, tcm) = driver::run(&case.spec, &case.platform, case.tcm_cfg, &case.dcfg);
    (
        format!("{:?}", (&report, tcm.cycles())),
        report.failed_allocs,
    )
}

#[test]
fn helper_thread_and_engine_runs_report_the_same_bytes() {
    let cases = cases();
    let direct: Vec<(String, u64)> = cases.iter().map(run).collect();
    let tasks: Vec<Task<&Case>> = cases
        .iter()
        .map(|case| Task {
            seed: case.dcfg.seed,
            label: case.label.clone(),
            payload: case,
        })
        .collect();
    let in_engine = Engine::new(2)
        .run(&tasks, |task, _| run(task.payload))
        .expect("no case panics");
    for ((case, d), e) in cases.iter().zip(&direct).zip(&in_engine) {
        assert!(d == e, "{}: the two transports disagree", case.label);
    }
    let refused = cases
        .iter()
        .zip(&direct)
        .find(|(case, _)| case.label.contains("hard limit"))
        .map(|(_, (_, failed))| *failed);
    assert!(refused > Some(0), "the hard-limit case refuses allocations");
}
