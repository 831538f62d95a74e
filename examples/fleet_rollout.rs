//! Simulate the paper's §4.5 longitudinal rollout: run a fleet-wide A/B of
//! each of the four designs, then compose their relative improvements the
//! way the paper estimates the aggregate impact.
//!
//! ```text
//! cargo run --release --example fleet_rollout
//! ```

use warehouse_alloc::fleet::experiment::{try_run_fleet_arm, Comparison, FleetExperimentConfig};
use warehouse_alloc::fleet::rollout;
use warehouse_alloc::parallel::Engine;
use warehouse_alloc::tcmalloc::TcmallocConfig;

fn main() {
    let base = TcmallocConfig::baseline();
    let designs = [
        (
            "heterogeneous per-CPU caches",
            base.with_heterogeneous_percpu(),
        ),
        ("NUCA-aware transfer caches", base.with_nuca_transfer()),
        ("span prioritization", base.with_span_prioritization()),
        (
            "lifetime-aware hugepage filler",
            base.with_lifetime_filler(),
        ),
    ];
    let cfg = FleetExperimentConfig {
        machines: 6,
        requests_per_binary: 10_000,
        seed: 7,
        population: 500,
    };

    println!("fleet A/B per design ({} machines/arm):\n", cfg.machines);
    let engine = Engine::from_env();
    let run = |tcm_cfg| try_run_fleet_arm(&engine, tcm_cfg, &cfg).expect("no cell panics");
    // Every design is compared against the one baseline arm.
    let control = run(base).weighted_means();
    let mut singles = Vec::new();
    for (name, exp) in designs {
        let fleet = Comparison {
            control,
            experiment: run(exp).weighted_means(),
        };
        println!(
            "{:<32} thr {:+.2}%  mem {:+.2}%  CPI {:+.2}%",
            name,
            fleet.throughput_pct(),
            fleet.memory_pct(),
            fleet.cpi_pct()
        );
        singles.push(fleet);
    }

    let est = rollout::combine(&singles);
    println!(
        "\ncomposed rollout estimate: throughput {:+.2}%, memory {:+.2}%",
        est.throughput_pct, est.memory_pct
    );
    println!("paper (§4.5, two-year rollout): +1.4% throughput, -3.4% RAM");
}
