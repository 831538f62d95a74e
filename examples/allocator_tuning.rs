//! Ablate the design constants the paper calls out: the number of central-
//! free-list priority lists L ("our experiments show that L = 8 lists are
//! sufficient", §4.3) and the lifetime capacity threshold C ("our
//! experiments reveal C = 16 as an acceptable threshold", §4.4).
//!
//! ```text
//! cargo run --release --example allocator_tuning
//! ```

use warehouse_alloc::fleet::experiment::{arm, Comparison, MetricSet};
use warehouse_alloc::parallel::Engine;
use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::workload::{profiles, WorkloadSpec};

fn main() {
    let platform = Platform::chiplet("chiplet-64c", 2, 4, 8, 2);
    let base = TcmallocConfig::baseline();
    let engine = Engine::from_env();
    let run = |spec: &WorkloadSpec, cfg: TcmallocConfig| -> MetricSet {
        arm(&engine, &[spec], &platform, cfg, 25_000, &[42]).expect("no run panics")[0]
    };
    // Each sweep compares its experiment arms with one baseline arm.
    let ab = |spec: &WorkloadSpec, control: MetricSet, exp: TcmallocConfig| Comparison {
        control,
        experiment: run(spec, exp),
    };

    // --- L: central-free-list priority lists (§4.3) ---
    println!("-- span prioritization: sweeping L (monarch) --");
    println!("{:<6} {:>10} {:>12}", "L", "memory %", "frag %");
    let monarch = profiles::monarch();
    let control = run(&monarch, base);
    for lists in [1usize, 2, 4, 8, 16] {
        let mut exp = base;
        exp.cfl_lists = lists;
        let c = ab(&monarch, control, exp);
        println!(
            "{:<6} {:>+10.2} {:>+12.2}",
            lists,
            c.memory_pct(),
            c.frag_pct()
        );
    }
    println!("(paper: L = 8 is sufficient to differentiate spans)\n");

    // --- C: lifetime capacity threshold (§4.4) ---
    println!("-- lifetime-aware filler: sweeping C (disk) --");
    println!(
        "{:<6} {:>10} {:>12} {:>12}",
        "C", "thr %", "dTLB miss", "coverage"
    );
    let disk = profiles::disk();
    let control = run(&disk, base);
    for threshold in [2u32, 8, 16, 64, 256] {
        let mut exp = base.with_lifetime_filler();
        exp.pageheap.capacity_threshold = threshold;
        let c = ab(&disk, control, exp);
        println!(
            "{:<6} {:>+10.2} {:>5.3}->{:<5.3} {:>5.3}->{:<5.3}",
            threshold,
            c.throughput_pct(),
            c.control.dtlb_miss_rate,
            c.experiment.dtlb_miss_rate,
            c.control.hugepage_coverage,
            c.experiment.hugepage_coverage,
        );
    }
    println!("(paper: C = 16 is an acceptable threshold)\n");

    // --- per-CPU cache budget (§4.1) ---
    println!("-- per-CPU cache budget sweep (fleet mix) --");
    println!("{:<12} {:>10} {:>10}", "budget", "thr %", "memory %");
    let fleet_mix = profiles::fleet_mix();
    let control = run(&fleet_mix, base);
    for shift in [0i32, -1, -2] {
        let mut exp = base;
        exp.percpu_max_bytes = if shift >= 0 {
            base.percpu_max_bytes << shift
        } else {
            base.percpu_max_bytes >> -shift
        };
        exp.dynamic_percpu = true;
        let c = ab(&fleet_mix, control, exp);
        println!(
            "{:<12} {:>+10.2} {:>+10.2}",
            format!("{} KiB", exp.percpu_max_bytes >> 10),
            c.throughput_pct(),
            c.memory_pct()
        );
    }
    println!("(paper: halving 3 MB to 1.5 MB with dynamic sizing: no perf impact)");
}
