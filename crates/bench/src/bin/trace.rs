//! `trace` — record, inspect, and replay allocation traces.
//!
//! ```text
//! # Record 50k events of the disk workload to a file:
//! cargo run --release -p wsc-bench --bin trace -- record disk 50000 disk.trace
//!
//! # Inspect a trace:
//! cargo run --release -p wsc-bench --bin trace -- info disk.trace
//!
//! # Replay it under both configurations and compare:
//! cargo run --release -p wsc-bench --bin trace -- replay disk.trace
//! # (`info` and `replay` exit 2 with one line on stderr for a file that
//! # cannot be read, parsed or — `replay` — passed by `Trace::check` and
//! # replayed without the allocator refusing an allocation.)
//!
//! # Export the allocator's cross-tier event stream as Chrome trace JSON
//! # (open in chrome://tracing or https://ui.perfetto.dev):
//! cargo run --release -p wsc-bench --bin trace -- --events out.json
//! cargo run --release -p wsc-bench --bin trace -- events disk 10000 out.json
//! ```
//!
//! `replay` runs the two configurations as engine tasks (`--threads N` or
//! `WSC_THREADS`); results print in config order whatever the thread count.

use wsc_bench::cli::{positive, take_flag, usage_error};
use wsc_bench::experiments::chiplet;
use wsc_bench::parallel::{Engine, Task};
use wsc_sim_os::clock::Clock;
use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
use wsc_workload::driver::{run, DriverConfig};
use wsc_workload::profiles;
use wsc_workload::trace::{Trace, TraceEvent};

/// Events kept by the bounded trace ring for the `events` export (the tail
/// of the run; older events are dropped deterministically).
const TRACE_RING_CAPACITY: u32 = 1 << 16;

fn usage() -> ! {
    eprintln!("usage: trace [--threads N] record <workload> <events> <file>");
    eprintln!("       trace [--threads N] info <file>");
    eprintln!("       trace [--threads N] replay <file>");
    eprintln!("       trace events <workload> <requests> <out.json>");
    eprintln!("       trace --events <out.json>   (fleet mix, quick scale)");
    let names: Vec<&str> = profiles::NAMED.iter().map(|&(name, _)| name).collect();
    usage_error(format!("workloads: {}", names.join(" ")))
}

/// Drives `requests` of `spec` with the bounded trace ring attached and
/// writes the ring as Chrome trace-event JSON (Perfetto-loadable).
fn export_events(spec: &wsc_workload::WorkloadSpec, requests: u64, out: &str) {
    let platform = chiplet();
    let dcfg = DriverConfig::new(requests, 42, &platform);
    let cfg = TcmallocConfig::optimized().with_trace(TRACE_RING_CAPACITY);
    let (_, tcm) = run(spec, &platform, cfg, &dcfg);
    let ring = tcm.trace().expect("trace ring configured");
    std::fs::write(out, ring.chrome_trace_json()).expect("write trace JSON");
    println!(
        "wrote {} events ({} dropped from the bounded ring) to {out}",
        ring.len(),
        ring.dropped()
    );
    println!("open in chrome://tracing or https://ui.perfetto.dev");
}

fn workload(name: &str) -> wsc_workload::WorkloadSpec {
    profiles::by_name(name).unwrap_or_else(|| usage_error(format!("unknown workload: {name}")))
}

/// Reads and parses a trace file; an unreadable or unparsable one is one
/// line on stderr and exit status 2.
fn load(path: &str) -> Trace {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Trace::from_text(&text).map_err(|e| e.to_string()))
        .unwrap_or_else(|e| fail(path, &e))
}

fn fail(path: &str, why: &str) -> ! {
    usage_error(format!("trace: {path}: {why}"))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let engine =
        take_flag(&mut args, "threads", positive).map_or_else(Engine::from_env, Engine::new);
    // `--events <file>` shorthand: fleet mix at quick scale.
    if args.len() == 2 && args[0] == "--events" {
        export_events(&profiles::fleet_mix(), 6_000, &args[1]);
        return;
    }
    match args.first().map(String::as_str) {
        Some("events") if args.len() == 4 => {
            let spec = workload(&args[1]);
            let requests: u64 = args[2].parse().unwrap_or_else(|_| usage());
            export_events(&spec, requests, &args[3]);
        }
        Some("record") if args.len() == 4 => {
            let spec = workload(&args[1]);
            let events: u64 = args[2].parse().unwrap_or_else(|_| usage());
            let trace = Trace::record(&spec, events, 42);
            std::fs::write(&args[3], trace.to_text()).expect("write trace file");
            println!("wrote {} events to {}", trace.events.len(), args[3]);
        }
        Some("info") if args.len() == 2 => {
            let trace = load(&args[1]);
            let (mut allocs, mut frees, mut bytes, mut span_ns) = (0u64, 0u64, 0u64, 0u64);
            for ev in &trace.events {
                match *ev {
                    TraceEvent::Alloc { size, .. } => {
                        allocs += 1;
                        bytes += size;
                    }
                    TraceEvent::Free { .. } => frees += 1,
                    TraceEvent::Advance { ns } => span_ns += ns,
                }
            }
            println!("trace '{}'", trace.name);
            println!("  events:        {}", trace.events.len());
            println!("  allocations:   {allocs}");
            println!("  frees:         {frees}");
            println!("  bytes alloc'd: {bytes}");
            println!("  time span:     {:.3} s", span_ns as f64 / 1e9);
        }
        Some("replay") if args.len() == 2 => {
            let trace = load(&args[1]);
            let platform = chiplet();
            // `Trace::replay` panics on a trace bug; a file is outside
            // input, so it is checked first and refused in one line.
            if let Err(e) = trace.check(&platform) {
                fail(&args[1], &e.to_string());
            }
            // Both replays are engine tasks: independent allocator
            // instances, results merged back in config order.
            let tasks: Vec<Task<(&str, TcmallocConfig)>> = [
                ("baseline", TcmallocConfig::baseline()),
                ("optimized", TcmallocConfig::optimized()),
            ]
            .into_iter()
            .map(|(name, cfg)| Task {
                seed: 42,
                label: format!("replay {name}"),
                payload: (name, cfg),
            })
            .collect();
            let rows = engine
                .run(&tasks, |task, _| {
                    let (name, cfg) = task.payload;
                    let clock = Clock::new();
                    let mut tcm = Tcmalloc::new(cfg, platform.clone(), clock.clone());
                    trace
                        .try_replay(&mut tcm, &clock)
                        .map(|stats| (name, stats))
                })
                .unwrap_or_else(|e| panic!("trace replay aborted: {e}"))
                .into_iter()
                // An allocation the allocator refuses (a size no address
                // space holds) is the file's fault too: one line, nothing
                // printed before it.
                .collect::<Result<Vec<_>, _>>()
                .unwrap_or_else(|e| fail(&args[1], &e.to_string()));
            println!(
                "{:<12} {:>10} {:>14} {:>16}",
                "config", "allocs", "malloc ms", "peak resident"
            );
            for (name, stats) in rows {
                println!(
                    "{name:<12} {:>10} {:>11.2} ms {:>12.1} MiB",
                    stats.allocs,
                    stats.malloc_ns / 1e6,
                    stats.peak_resident_bytes as f64 / (1 << 20) as f64
                );
            }
        }
        _ => usage(),
    }
}
