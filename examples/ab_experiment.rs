//! Run a paired A/B experiment the way the paper's §2.2 framework does:
//! the same workload, machine, and seeds under two allocator configurations,
//! reporting the metric deltas of Tables 1/2 and Figures 10/14.
//!
//! ```text
//! cargo run --release --example ab_experiment [design]
//! ```
//!
//! `design` is one of: hetero, nuca, spanprio, lifetime, all (default: all).

use warehouse_alloc::fleet::experiment::paired_ab;
use warehouse_alloc::parallel::Engine;
use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::workload::{profiles, WorkloadSpec};

fn main() {
    let design = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let base = TcmallocConfig::baseline();
    let (name, experiment) = match design.as_str() {
        "hetero" => (
            "heterogeneous per-CPU caches (§4.1)",
            base.with_heterogeneous_percpu(),
        ),
        "nuca" => (
            "NUCA-aware transfer caches (§4.2)",
            base.with_nuca_transfer(),
        ),
        "spanprio" => (
            "span prioritization (§4.3)",
            base.with_span_prioritization(),
        ),
        "lifetime" => (
            "lifetime-aware hugepage filler (§4.4)",
            base.with_lifetime_filler(),
        ),
        "all" => ("all four designs (§4.5)", TcmallocConfig::optimized()),
        other => {
            eprintln!("unknown design: {other} (hetero|nuca|spanprio|lifetime|all)");
            std::process::exit(2);
        }
    };
    println!("A/B experiment: baseline vs {name}\n");

    let platform = Platform::chiplet("chiplet-64c", 2, 4, 8, 2);
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "workload", "thr %", "mem %", "CPI %", "dTLB miss", "coverage"
    );
    let mut specs = profiles::production_workloads();
    specs.extend(profiles::benchmark_workloads());
    let runs: Vec<&WorkloadSpec> = specs.iter().collect();
    let engine = Engine::from_env();
    let rows = paired_ab(&engine, &runs, &platform, base, experiment, 25_000, &[42])
        .expect("no run panics");
    for (spec, c) in specs.iter().zip(rows) {
        println!(
            "{:<18} {:>+8.2} {:>+8.2} {:>+8.2} {:>4.3}->{:<4.3} {:>4.3}->{:<4.3}",
            spec.name,
            c.throughput_pct(),
            c.memory_pct(),
            c.cpi_pct(),
            c.control.dtlb_miss_rate,
            c.experiment.dtlb_miss_rate,
            c.control.hugepage_coverage,
            c.experiment.hugepage_coverage,
        );
    }
    println!("\npositive thr = experiment faster; negative mem = experiment leaner.");
}
