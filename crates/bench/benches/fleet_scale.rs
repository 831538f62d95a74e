//! Fleet-scale streaming survey benchmark: serial vs threaded vs
//! process-sharded folds of the 10⁵-machine survey, with the byte-identity
//! determinism gate, machines/sec throughput and peak RSS. Emits
//! `BENCH_fleet.json`.
//!
//! Defaults to the `fleet` tier (10⁵ machines) when `REPRO_SCALE` is
//! unset; CI runs it at `REPRO_SCALE=quick`. `WSC_THREADS` picks the
//! threaded pass's worker count (default 4); `WSC_SHARDS` the process
//! count (default 2).
//!
//! Gates, asserted every run:
//! * serial, threaded, and sharded folds are byte-identical;
//! * on a multi-core machine with `threads > 1`, threaded speedup > 1.

use std::time::Instant;
use wsc_bench::experiments as ex;
use wsc_bench::harness::JsonReport;
use wsc_bench::parallel::Engine;
use wsc_bench::Scale;
use wsc_fleet::experiment::{try_run_fleet_survey, CellSummary, FleetSurveyConfig};
use wsc_tcmalloc::TcmallocConfig;

/// Cargo runs benches with cwd = the package dir; anchor the report to the
/// workspace root so CI finds it at a fixed path.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

/// Peak resident set size (VmHWM) of this process, in KiB. `None` when
/// /proc is unavailable (non-Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

fn env_count(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(default)
        .max(1)
}

/// One in-process survey pass under `engine`, timed.
fn timed_survey(
    engine: &Engine,
    cfg: &FleetSurveyConfig,
    control: TcmallocConfig,
    experiment: TcmallocConfig,
) -> (f64, CellSummary) {
    let t = Instant::now();
    let r = try_run_fleet_survey(engine, control, experiment, cfg)
        .unwrap_or_else(|e| panic!("bench fleet survey aborted: {e}"));
    (t.elapsed().as_nanos() as f64, r.summary)
}

fn main() {
    // Shard children fold their span and exit before any benchmarking.
    if ex::shard_child_main() {
        return;
    }
    let scale = if std::env::var("REPRO_SCALE").is_ok() {
        Scale::from_env()
    } else {
        Scale::fleet()
    };
    let threads = env_count("WSC_THREADS", 4);
    let shards = env_count("WSC_SHARDS", 2);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cfg = scale.survey_config(ex::SURVEY_SEED);
    println!(
        "== fleet survey: {} machines × {} requests, serial vs {threads} threads vs {shards} shards ==",
        cfg.machines, cfg.requests_per_machine
    );
    println!("(scale {}, {cores} cores available)", scale.name);

    let control = TcmallocConfig::baseline();
    let experiment = TcmallocConfig::optimized();

    let (serial_ns, serial) = timed_survey(&Engine::new(1), &cfg, control, experiment);
    let serial_bytes = serial.encode();

    let threaded_scale = scale.clone().with_threads(threads);
    let (threaded_ns, threaded) = timed_survey(&threaded_scale.engine, &cfg, control, experiment);
    assert_eq!(
        serial_bytes,
        threaded.encode(),
        "threaded fold differs from serial — engine bug"
    );

    let t = Instant::now();
    let sharded = ex::fleet_summary(&threaded_scale, shards);
    let sharded_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(
        serial_bytes,
        sharded.encode(),
        "sharded fold differs from serial — shard protocol bug"
    );
    let identical = true; // both equalities asserted above

    let machines_per_sec = cfg.machines as f64 / (serial_ns / 1e9);
    let speedup_threads = serial_ns / threaded_ns.max(1.0);
    let speedup_shards = serial_ns / sharded_ns.max(1.0);
    let rss_kb = peak_rss_kb().unwrap_or(0);
    let fleet = serial.fleet();

    println!("serial      {serial_ns:>14.0} ns  ({machines_per_sec:.0} machines/s)");
    println!("threads={threads}   {threaded_ns:>14.0} ns  ({speedup_threads:.2}x)");
    println!("shards={shards}    {sharded_ns:>14.0} ns  ({speedup_shards:.2}x)");
    println!(
        "peak RSS    {rss_kb} kB  | folded bytes {}",
        serial_bytes.len()
    );
    println!("merged summaries byte-identical: {identical}");

    // Speedup is only a contract where parallel hardware exists; on a
    // single core the threaded pass measures pure overhead.
    let gate_enforced = threads > 1 && cores > 1;
    if gate_enforced {
        assert!(
            speedup_threads > 1.0,
            "no threaded speedup ({speedup_threads:.2}x) on {cores} cores with {threads} threads"
        );
        println!("speedup gate: enforced ({speedup_threads:.2}x > 1)");
    } else {
        println!("speedup gate: reported only (threads {threads}, cores {cores})");
    }

    let mut report = JsonReport::new();
    report
        .text("bench", "fleet_scale/survey")
        .text("scale", scale.name)
        .int("machines", cfg.machines as u64)
        .int("requests_per_machine", cfg.requests_per_machine)
        .int("population", cfg.population as u64)
        .int("threads", threads as u64)
        .int("shards", shards as u64)
        .int("cores_available", cores as u64)
        .num("serial_ns", serial_ns)
        .num("threaded_ns", threaded_ns)
        .num("sharded_ns", sharded_ns)
        .num("machines_per_sec", machines_per_sec)
        .num("speedup_threads", speedup_threads)
        .num("speedup_shards", speedup_shards)
        .flag("speedup_gate_enforced", gate_enforced)
        .int("peak_rss_kb", rss_kb)
        .int("summary_bytes", serial_bytes.len() as u64)
        .num("fleet_throughput_pct", fleet.throughput_pct())
        .num("fleet_memory_pct", fleet.memory_pct())
        .flag("identical", identical);
    report
        .write(OUT_PATH)
        .unwrap_or_else(|e| panic!("writing {OUT_PATH}: {e}"));
    println!("wrote {OUT_PATH}");
}
