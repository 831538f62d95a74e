//! Locks the observable outputs of the attribution pipeline — cycle stats,
//! the GWP allocation profile, and sanitizer counters — on the Fig. 7 fleet
//! mix, so the event-bus refactor provably changes *where* attribution is
//! computed without changing *what* it reports.
//!
//! The expected values were captured from the pre-refactor implementation
//! (direct `CycleStats::charge` / `AllocationProfile::record_*` /
//! `Sanitizer::record_alloc` calls inside the tiers). Nanosecond totals are
//! compared at 1e-6 relative tolerance: the event-bus stats view stores
//! integer picoseconds, which rounds away the float-summation dust of the
//! old accumulation (e.g. `375422.399999…` → `375422.4` exactly). Counts
//! are compared exactly.

use wsc_sim_hw::topology::Platform;
use wsc_tcmalloc::{CycleCategory, SanitizeLevel, TcmallocConfig};
use wsc_workload::driver::{run, DriverConfig};
use wsc_workload::profiles;

/// Pre-refactor per-category (ns, ops) on the Fig. 7 mix, in
/// [`CycleCategory::ALL`] order.
const EXPECTED_CYCLES: [(&str, f64, u64); 7] = [
    ("CPUCache", 375_422.4, 121_104),
    ("TransferCache", 105_277.2, 4_228),
    ("CentralFreeList", 123_565.2, 1_518),
    ("PageHeap", 182_069.9, 676),
    ("Sampled", 27_500.0, 5),
    ("Prefetch", 152_000.0, 80_000),
    ("Other", 63_763.0, 127_526),
];

fn close(actual: f64, expected: f64, what: &str) {
    let tol = 1e-6 * expected.abs().max(1.0);
    assert!(
        (actual - expected).abs() <= tol,
        "{what}: {actual} != {expected} (tol {tol})"
    );
}

/// The pinned table under `sanitize`. The sanitizer is an observer of the
/// event bus, so `Full` pins the path where every record is built and `Off`
/// the one where nobody listens and none is; only the audit count differs.
fn pinned_attribution(sanitize: SanitizeLevel, audits: u64) {
    let p = Platform::chiplet("test", 1, 2, 4, 2);
    let dcfg = DriverConfig::new(4_000, 1, &p);
    let cfg = TcmallocConfig::optimized().with_sanitize(sanitize);
    let (r, tcm) = run(&profiles::fleet_mix(), &p, cfg, &dcfg);

    close(r.throughput, 156_786.446_665, "throughput");
    close(r.malloc_frac, 0.040_356_741, "malloc_frac");

    for (c, (name, ns, ops)) in CycleCategory::ALL.iter().zip(EXPECTED_CYCLES) {
        assert_eq!(c.name(), name, "category order");
        close(tcm.cycles().ns(*c), ns, name);
        assert_eq!(tcm.cycles().ops(*c), ops, "{name} ops");
    }
    close(tcm.cycles().total_ns(), 1_029_597.7, "total_ns");

    close(
        tcm.profile().size_by_count.count(),
        5_786.718_334,
        "profile count",
    );
    close(
        tcm.profile().size_by_bytes.count(),
        10_485_760.0,
        "profile bytes",
    );
    close(
        tcm.profile().size_by_count.fraction_below(1 << 10),
        0.921_404_167,
        "profile below1k",
    );

    assert_eq!(tcm.audits_run(), audits, "audits");
    assert_eq!(tcm.sanitizer_reports().len(), 0, "reports");
    assert_eq!(tcm.live_bytes(), 4_637_639, "live bytes");
    assert_eq!(tcm.live_objects(), 32_474, "live objects");
    assert_eq!(tcm.resident_bytes(), 14_680_064, "resident bytes");
}

#[test]
fn attribution_identical_to_pre_refactor_baseline() {
    pinned_attribution(SanitizeLevel::Full, 124);
}

#[test]
fn attribution_identical_with_nobody_observing() {
    pinned_attribution(SanitizeLevel::Off, 0);
}
