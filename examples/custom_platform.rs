//! Build custom hardware platforms and see how topology changes what the
//! allocator should do — the §4.2 story: chiplet platforms have non-uniform
//! cache access, so the NUCA-aware transfer cache only pays off there.
//!
//! ```text
//! cargo run --release --example custom_platform
//! ```

use warehouse_alloc::fleet::experiment::{arm, Comparison};
use warehouse_alloc::parallel::Engine;
use warehouse_alloc::sim_hw::latency::{measure, LatencyModel};
use warehouse_alloc::sim_hw::topology::{fleet_generations, Platform};
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::workload::profiles;

fn main() {
    // 1. Five platform generations: hyperthreads per server grew 4x (§4.1).
    println!("-- fleet platform generations --");
    for p in fleet_generations() {
        println!(
            "{:<18} {:>4} hyperthreads, {:>2} LLC domains, NUCA: {}",
            p.name(),
            p.num_cpus(),
            p.num_domains(),
            p.is_nuca()
        );
    }

    // 2. MLC-style latency sweep (Figure 11) on two custom platforms.
    println!("\n-- core-to-core transfer latency (Figure 11) --");
    let model = LatencyModel::production();
    for p in [
        Platform::monolithic("monolithic-28c", 2, 28, 2),
        Platform::chiplet("chiplet-64c", 2, 4, 8, 2),
    ] {
        let m = measure(&p, &model);
        match m.inter_domain_ns {
            Some(inter) => println!(
                "{:<18} intra {:.0} ns, inter {:.0} ns ({:.2}x)",
                p.name(),
                m.intra_domain_ns,
                inter,
                inter / m.intra_domain_ns
            ),
            None => println!(
                "{:<18} intra {:.0} ns (single cache domain per socket)",
                p.name(),
                m.intra_domain_ns
            ),
        }
    }

    // 3. The same NUCA-aware transfer cache change, A/B-tested on both
    //    platforms: it should help on the chiplet part and do nothing on the
    //    monolithic one.
    println!("\n-- NUCA transfer cache A/B per platform (disk workload) --");
    let base = TcmallocConfig::baseline();
    let exp = base.with_nuca_transfer();
    let (engine, disk) = (Engine::from_env(), profiles::disk());
    for p in [
        Platform::monolithic("monolithic-28c", 2, 28, 2),
        Platform::chiplet("chiplet-64c", 2, 4, 8, 2),
    ] {
        let run = |cfg| arm(&engine, &[&disk], &p, cfg, 20_000, &[42]).expect("no run panics")[0];
        let c = Comparison {
            control: run(base),
            experiment: run(exp),
        };
        println!(
            "{:<18} throughput {:+.2}%  LLC MPKI {:.3} -> {:.3}",
            p.name(),
            c.throughput_pct(),
            c.control.llc_mpki,
            c.experiment.llc_mpki
        );
    }
    println!("\n(the paper rolls the change out fleet-wide; machines without");
    println!(" multiple LLC domains simply see no effect)");
}
