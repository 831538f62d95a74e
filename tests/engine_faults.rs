//! Fault-injection suite for the parallel experiment engine: a panicking
//! task must abort the run with a structured error naming the task index,
//! label, and seed — never a hang, never a leaked worker thread — and the
//! engine must stay usable afterwards.

use warehouse_alloc::parallel::{Engine, Task};
use warehouse_alloc::prng::derive_seed;
use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::workload::driver::{run_batch, DriverConfig, RunJob};
use warehouse_alloc::workload::profiles;

fn counting_tasks(n: usize) -> Vec<Task<usize>> {
    (0..n)
        .map(|i| Task {
            seed: derive_seed(99, i as u64),
            label: format!("unit {i}"),
            payload: i,
        })
        .collect()
}

/// Current thread count of this process, from /proc/self/status.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn panicking_task_aborts_with_structured_error() {
    let tasks = counting_tasks(16);
    let err = Engine::new(4)
        .run(&tasks, |task, index| {
            assert!(index != 11, "injected fault in {}", task.label);
            index
        })
        .expect_err("task 11 panics");
    assert_eq!(err.index, 11);
    assert_eq!(err.seed, tasks[11].seed, "error carries the task's seed");
    assert_eq!(err.label, "unit 11");
    assert!(
        err.message.contains("injected fault in unit 11"),
        "panic payload preserved: {}",
        err.message
    );
    let display = err.to_string();
    assert!(
        display.contains("task 11") && display.contains(&format!("{:#018x}", err.seed)),
        "display names index and seed: {display}"
    );
}

#[test]
fn serial_engine_reports_first_failure() {
    // With one worker the failing task is exactly the first failing index,
    // matching a plain for-loop — the reference for debugging.
    let tasks = counting_tasks(8);
    let err = Engine::serial()
        .run(&tasks, |_, index| {
            assert!(index < 3, "boom");
            index
        })
        .expect_err("task 3 panics");
    assert_eq!(err.index, 3);
}

#[test]
fn engine_is_reusable_after_abort_and_leaks_no_threads() {
    let engine = Engine::new(8);
    #[cfg(target_os = "linux")]
    let before = {
        // Warm up once so the measurement ignores any lazily-created
        // runtime threads, then count.
        let tasks = counting_tasks(4);
        engine.run(&tasks, |_, i| i).expect("clean run");
        thread_count()
    };
    for round in 0..3 {
        let tasks = counting_tasks(32);
        let err = engine
            .run(&tasks, |_, index| {
                assert!(index != 7, "round {round}");
                index
            })
            .expect_err("injected panic");
        assert_eq!(err.index, 7, "deterministic failing index each round");
    }
    // Scoped threads join before `run` returns, so this engine's workers
    // are gone already. The process-wide count can still be transiently
    // inflated by *other* tests' engines running concurrently in this
    // binary, so allow a short settle window; a genuine leak never drains.
    #[cfg(target_os = "linux")]
    {
        let mut now = thread_count();
        for _ in 0..100 {
            if now <= before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            now = thread_count();
        }
        assert!(
            now <= before,
            "worker threads joined after aborted runs ({now} > baseline {before})"
        );
    }
    // And the engine still completes clean work afterwards.
    let tasks = counting_tasks(32);
    let out = engine.run(&tasks, |_, i| i * 2).expect("clean run");
    assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
}

#[test]
fn run_batch_fault_names_the_failing_job_seed() {
    let platform = Platform::chiplet("t", 1, 2, 4, 2);
    let good = |seed: u64| RunJob {
        spec: profiles::fleet_mix(),
        platform: platform.clone(),
        tcm_cfg: TcmallocConfig::baseline(),
        dcfg: DriverConfig::new(400, seed, &platform),
    };
    // Job 1 violates the driver's non-empty-cpuset contract and panics
    // inside the simulation; the abort must name that job's seed.
    let mut bad = good(0xbad5eed);
    bad.dcfg.cpuset.clear();
    let jobs = vec![good(1), bad, good(2)];
    let err = run_batch(&Engine::new(2), jobs, |r, _| r.throughput).expect_err("job 1 panics");
    assert_eq!(err.index, 1);
    assert_eq!(err.seed, 0xbad5eed, "error carries the job's driver seed");
    assert!(
        err.message.contains("cpuset must be non-empty"),
        "driver assertion surfaced: {}",
        err.message
    );
}
