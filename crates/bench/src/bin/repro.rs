//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p wsc-bench --bin repro -- all
//! cargo run --release -p wsc-bench --bin repro -- fig10 table2
//! REPRO_SCALE=full cargo run --release -p wsc-bench --bin repro -- all
//! cargo run --release -p wsc-bench --bin repro -- --threads 8 all
//! cargo run --release -p wsc-bench --bin repro -- --shards 4 fleet
//! cargo run --release -p wsc-bench --bin repro -- --shards 4 --supervise retries=5,deadline-ms=600000 fleet
//! ```
//!
//! `--threads N` (or `WSC_THREADS=N`) shards experiment cells across N
//! worker threads. Output is bit-identical at any thread count: only the
//! wall clock changes.
//!
//! `--shards P` runs the `fleet` streaming survey across P child
//! *processes*, each re-executing this binary over one leaf-aligned span
//! of the fleet (`WSC_SHARD=<shard>/<shards>`) and piping its folded
//! constant-size summary back in a CRC-checksummed frame. A supervisor
//! retries failed shards with exponential backoff, kills hung ones when a
//! deadline is set, and splits persistently failing spans in half; its
//! policy is one string, `--supervise
//! retries=<0..=64>,backoff-ms=<n>,deadline-ms=<n>,split=<0|1>` (any subset
//! of the keys; a typo exits 2). Output is byte-identical to `--shards 1` —
//! including under injected crashes (`WSC_SHARD_FAULT`), as long as every
//! span recovers; otherwise the survey degrades gracefully and the printed
//! coverage line reports the exact surveyed fraction.

use wsc_bench::experiments as ex;
use wsc_bench::Scale;
use wsc_parallel::supervisor::SupervisorConfig;

/// Every requestable id, in registry order, joined by `sep`.
fn known_ids(sep: &str) -> String {
    let ids: Vec<&str> = ex::REGISTRY.iter().map(|e| e.id).collect();
    ids.join(sep)
}

fn usage_error(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Strips every `--<name> V` / `--<name>=V` from `args`, returning the last
/// value as `parse` reads it. Exits with usage on a missing or malformed
/// value — a typo silently falling back to the default would be misleading.
fn take_flag<T>(
    args: &mut Vec<String>,
    name: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Option<T> {
    let long = format!("--{name}");
    let eq = format!("--{name}=");
    let mut parsed = None;
    while let Some(i) = args.iter().position(|a| *a == long || a.starts_with(&eq)) {
        let flag = args.remove(i);
        let value = match flag.strip_prefix(&eq) {
            Some(v) => v.to_string(),
            None if i < args.len() => args.remove(i),
            None => usage_error(format!("{long} expects a value")),
        };
        parsed = Some(parse(&value).unwrap_or_else(|e| usage_error(format!("{long}: {e}"))));
    }
    parsed
}

fn positive(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("expected a positive integer, got {value:?}")),
    }
}

fn main() {
    // Shard children fold their survey span and emit a framed payload;
    // nothing else in this binary runs in that role.
    if ex::shard_child_main() {
        return;
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let threads = take_flag(&mut args, "threads", positive);
    let shards = take_flag(&mut args, "shards", positive).unwrap_or(1);
    let policy = take_flag(&mut args, "supervise", SupervisorConfig::parse).unwrap_or_default();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        let d = SupervisorConfig::default();
        eprintln!(
            "usage: repro [--threads N] [--shards P] [--supervise POLICY] [all | {} ...]",
            known_ids(" | ")
        );
        eprintln!("scale: set REPRO_SCALE=quick|default|full|fleet (default: default)");
        eprintln!("threads: --threads N or WSC_THREADS=N (results are thread-count-invariant)");
        eprintln!("shards: --shards P runs the fleet survey across P processes (byte-identical)");
        eprintln!(
            "supervision: --supervise retries=<0..=64>,backoff-ms=<n>,deadline-ms=<n>,split=<0|1>"
        );
        eprintln!(
            "  sets the shard fault-tolerance policy (any subset of the keys; default \
             retries={},backoff-ms={},deadline-ms={},split={}; deadline-ms=0 is no deadline);",
            d.retries,
            d.backoff.as_millis(),
            d.deadline.map_or(0, |t| t.as_millis()),
            u8::from(d.split)
        );
        eprintln!("  WSC_SHARD_FAULT=<kind>@<shard|*>[:<attempts>] injects chaos (crash|hang|corrupt|partial|exit)");
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    // Every id is checked before anything is printed or run.
    let wanted: Vec<&ex::Experiment> = if args.iter().any(|a| a == "all") {
        ex::REGISTRY.iter().filter(|e| e.in_all).collect()
    } else {
        args.iter()
            .map(|id| {
                ex::REGISTRY.iter().find(|e| e.id == id).unwrap_or_else(|| {
                    usage_error(format!(
                        "unknown experiment id: {id} (known: {})",
                        known_ids(", ")
                    ))
                })
            })
            .collect()
    };
    let mut scale = Scale::from_env();
    if let Some(n) = threads {
        scale = scale.with_threads(n);
    }
    println!(
        "# Reproduction run — scale '{}' ({} requests/run, {} seeds, {} fleet machines/arm, {} threads)\n",
        scale.name,
        scale.requests,
        scale.seeds.len(),
        scale.fleet_machines,
        scale.engine.threads()
    );

    let mut run = ex::Run::new(scale, shards, policy);
    for experiment in wanted {
        (experiment.run)(&mut run);
    }
}
