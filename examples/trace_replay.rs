//! Record a workload's driver run as an allocation trace, save it, and
//! replay the *identical* operation stream under two allocator
//! configurations — the cleanest possible A/B comparison.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::sim_os::clock::Clock;
use warehouse_alloc::tcmalloc::{Tcmalloc, TcmallocConfig};
use warehouse_alloc::workload::profiles;
use warehouse_alloc::workload::trace::Trace;

fn main() {
    // 1. Record a trace from the disk workload (heavy I/O-buffer churn).
    let trace = Trace::record(&profiles::disk(), 30_000, 42);
    println!(
        "recorded trace '{}': {} events",
        trace.name,
        trace.events.len()
    );

    // 2. Round-trip through the portable text format.
    let text = trace.to_text();
    println!("serialized: {} bytes of text", text.len());
    let parsed = Trace::from_text(&text).expect("round trip");
    assert_eq!(parsed, trace, "the text format must read back every event");
    let trace = parsed;

    // 3. Replay under baseline and optimized configurations.
    let platform = Platform::chiplet("chiplet-64c", 2, 4, 8, 2);
    println!(
        "\n{:<12} {:>10} {:>14} {:>14}",
        "config", "allocs", "malloc ms", "peak resident"
    );
    for (name, cfg) in [
        ("baseline", TcmallocConfig::baseline()),
        ("optimized", TcmallocConfig::optimized()),
    ] {
        let clock = Clock::new();
        let mut tcm = Tcmalloc::new(cfg, platform.clone(), clock.clone());
        let stats = trace.replay(&mut tcm, &clock);
        println!(
            "{name:<12} {:>10} {:>11.2} ms {:>11.1} MiB",
            stats.allocs,
            stats.malloc_ns / 1e6,
            stats.peak_resident_bytes as f64 / (1 << 20) as f64
        );
        assert_eq!(tcm.live_bytes(), 0, "replay must tear down cleanly");
    }
    println!("\nidentical op streams: any difference is the allocator's doing.");
}
