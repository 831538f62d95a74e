//! Fault-injection suite for the parallel experiment engine: a panicking
//! task must abort the run with a structured error naming the task index,
//! label, and seed — never a hang, never a leaked worker thread — and the
//! engine must stay usable afterwards. The same holds for the two halves
//! of one `driver::run` joined by `pipeline`: a panic on either side
//! reaches the caller with its own message and the helper thread is
//! joined.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use warehouse_alloc::parallel::{pipeline, Emit, Engine, Producer, Task};
use warehouse_alloc::prng::derive_seed;
use warehouse_alloc::sim_hw::topology::{CpuId, Platform};
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::workload::driver::{self, run_batch, DriverConfig, RunJob};
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

/// Scoped threads join before `run` or `pipeline` returns, so a test's own
/// threads are gone already. The process-wide count can still be
/// transiently inflated by *other* tests' threads running concurrently in
/// this binary, so allow a short settle window; a genuine leak never
/// drains.
#[cfg(target_os = "linux")]
fn assert_threads_joined(before: usize) {
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
        "threads joined after aborted runs ({now} > baseline {before})"
    );
}

/// The message a caught panic carries.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
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
    #[cfg(target_os = "linux")]
    assert_threads_joined(before);
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

#[test]
fn a_panic_in_either_half_of_a_driver_run_reaches_the_caller() {
    let platform = Platform::chiplet("t", 1, 2, 4, 2);
    // The allocator half, on the helper thread of a multi-core host, picks
    // a CPU the platform does not have on its first request.
    let mut off_platform = DriverConfig::new(400, 0xa110c, &platform);
    off_platform.cpuset = vec![CpuId(999)];
    // The hardware half, on the calling thread, refuses an LLC of no bytes.
    let no_llc = Platform::new("no-llc", 1, 1, 2, 4, 2, 0);
    let cases = [
        (platform, off_platform, "CpuId(999) out of range"),
        (
            no_llc.clone(),
            DriverConfig::new(400, 0x11c, &no_llc),
            "LLC capacity must be positive",
        ),
    ];
    #[cfg(target_os = "linux")]
    let before = thread_count();
    for (platform, dcfg, want) in cases {
        let job = RunJob {
            spec: profiles::fleet_mix(),
            platform,
            tcm_cfg: TcmallocConfig::optimized(),
            dcfg,
        };
        let direct = catch_unwind(AssertUnwindSafe(|| {
            driver::run(&job.spec, &job.platform, job.tcm_cfg, &job.dcfg)
        }))
        .expect_err("the run panics");
        let message = panic_message(direct);
        assert!(message.contains(want), "direct run: {message}");
        let seed = job.dcfg.seed;
        let err =
            run_batch(&Engine::new(2), vec![job], |r, _| r.throughput).expect_err("the job panics");
        assert_eq!(err.seed, seed);
        assert!(err.message.contains(want), "run_batch: {}", err.message);
    }
    #[cfg(target_os = "linux")]
    assert_threads_joined(before);
}

/// Emits `0..n`, panicking with `producer gave up at {x}` on reaching
/// `fail_at`.
struct Emits {
    n: u64,
    fail_at: u64,
}

impl Producer<u64> for Emits {
    type Output = ();

    fn produce<E: Emit<u64>>(self, out: &mut E) {
        for x in 0..self.n {
            assert!(x < self.fail_at, "producer gave up at {x}");
            out.emit(x);
        }
    }
}

#[test]
fn a_panic_mid_stream_stops_the_other_half() {
    #[cfg(target_os = "linux")]
    let before = thread_count();
    // The consumer gives up while the producer has far more to emit: the
    // producer must be released from the full channel and joined.
    let endless = Emits {
        n: u64::MAX,
        fail_at: u64::MAX,
    };
    let consumer = catch_unwind(|| {
        pipeline(endless, |x| assert!(x < 5_000, "consumer gave up at {x}"));
    })
    .expect_err("the consumer panics");
    assert_eq!(panic_message(consumer), "consumer gave up at 5000");
    // The producer gives up part-way through a batch: the consumer sees the
    // stream end and the producer's own panic resumes.
    let mut seen = 0u64;
    let failing = Emits {
        n: 10_000,
        fail_at: 7_000,
    };
    let producer = catch_unwind(AssertUnwindSafe(|| pipeline(failing, |_| seen += 1)))
        .expect_err("the producer panics");
    assert_eq!(panic_message(producer), "producer gave up at 7000");
    assert!(seen <= 7_000, "no record after the panic: {seen}");
    #[cfg(target_os = "linux")]
    assert_threads_joined(before);
}
