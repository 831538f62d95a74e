//! Characterize a production workload the way the paper's §3 does: run it
//! against the baseline allocator and read out the GWP-style telemetry —
//! size and lifetime distributions, malloc cycle share, fragmentation, and
//! span statistics.
//!
//! ```text
//! cargo run --release --example workload_characterization [workload]
//! ```
//!
//! `workload` is any name in `profiles::NAMED`: fleet, spanner, monarch,
//! bigtable, f1-query, disk, redis, data-pipeline, image-processing,
//! tensorflow, spec (default: fleet).

use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::workload::driver::{self, DriverConfig};
use warehouse_alloc::workload::profiles;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "fleet".into());
    let Some(spec) = profiles::by_name(&which) else {
        eprintln!("unknown workload: {which}");
        std::process::exit(2);
    };

    let platform = Platform::chiplet("chiplet-64c", 2, 4, 8, 2);
    let dcfg = DriverConfig::new(30_000, 42, &platform);
    println!("running {} for {} requests...", spec.name, dcfg.requests);
    let (report, tcm) = driver::run(&spec, &platform, TcmallocConfig::baseline(), &dcfg);

    println!("\n-- application productivity --");
    println!(
        "throughput:       {:>10.0} requests / CPU-second",
        report.throughput
    );
    println!("CPI:              {:>10.2}", report.cpi);
    println!("LLC MPKI:         {:>10.2}", report.llc_mpki);
    println!("dTLB walk cycles: {:>10.2}%", report.dtlb_walk_pct);
    println!(
        "malloc cycles:    {:>10.2}% (paper fleet-wide: 4.3%)",
        report.malloc_frac * 100.0
    );

    println!("\n-- memory --");
    println!(
        "avg resident:     {:>10.1} MiB",
        report.avg_resident_bytes / (1 << 20) as f64
    );
    println!(
        "peak resident:    {:>10.1} MiB",
        report.peak_resident_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "hugepage coverage:{:>10.1}%",
        report.avg_hugepage_coverage * 100.0
    );
    let f = report.fragmentation;
    println!(
        "fragmentation:    {:>10.1}% of live bytes",
        f.ratio() * 100.0
    );

    println!("\n-- sampled allocation profile (Figures 7/8) --");
    let p = tcm.profile();
    println!(
        "objects < 1 KiB:  {:>10.1}% of allocations",
        p.size_by_count.fraction_below(1 << 10) * 100.0
    );
    println!(
        "bytes   > 8 KiB:  {:>10.1}% of allocated memory",
        p.size_by_bytes.fraction_at_or_above(8 << 10) * 100.0
    );

    println!("\n-- span statistics (Figures 13/16) --");
    let mut created = 0u64;
    let mut released = 0u64;
    for cl in 0..tcm.table().num_classes() {
        created += tcm.central(cl).spans_created;
        released += tcm.central(cl).spans_released;
    }
    println!("spans created:    {created:>10}");
    println!(
        "spans released:   {released:>10} ({:.1}%)",
        released as f64 / created.max(1) as f64 * 100.0
    );

    println!("\n-- worker threads (Figure 9a) --");
    println!(
        "min {:.0} / mean {:.1} / max {:.0}",
        report.threads_ts.min().unwrap_or(0.0),
        report.threads_ts.mean().unwrap_or(0.0),
        report.threads_ts.max().unwrap_or(0.0)
    );
}
