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

use std::sync::{Arc, Mutex};
use wsc_sim_hw::cost::{AllocPath, CostModel};
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::Clock;
use wsc_tcmalloc::events::EventSink;
use wsc_tcmalloc::{
    AllocEvent, CycleCategory, CycleStats, SanitizeLevel, Tcmalloc, TcmallocConfig,
};
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

/// A calibration that is not tenths of a ns, installed through
/// `with_cost_model`: what the allocator returns and books equals the
/// per-call float sum and per-component `round()` the table replaced.
#[test]
fn odd_calibration_prices_like_the_per_call_sums() {
    let cost = CostModel {
        percpu_hit_ns: 3.123_45,
        mmap_ns: 12_916.666_666_7,
        prefetch_ns: 1.899_95,
        other_ns: 0.333_333_3,
        ..CostModel::production()
    };
    let p = Platform::chiplet("test", 1, 2, 4, 2);
    let mut t = Tcmalloc::new(TcmallocConfig::baseline(), p, Clock::new()).with_cost_model(cost);
    let mut per_call = CycleStats::new();
    let cold = t.malloc(64, CpuId(0));
    assert_eq!(cold.path, AllocPath::Mmap);
    assert_eq!(
        cold.ns.to_bits(),
        (cost.mmap_ns + cost.prefetch_ns + cost.other_ns).to_bits()
    );
    per_call.charge(CycleCategory::PageHeap, cost.mmap_ns);
    per_call.charge(CycleCategory::Prefetch, cost.prefetch_ns);
    per_call.charge(CycleCategory::Other, cost.other_ns);
    let warm = t.malloc(64, CpuId(0));
    assert_eq!(warm.path, AllocPath::PerCpu);
    assert_eq!(
        warm.ns.to_bits(),
        (cost.percpu_hit_ns + cost.prefetch_ns + cost.other_ns).to_bits()
    );
    per_call.charge(CycleCategory::CpuCache, cost.percpu_hit_ns);
    per_call.charge(CycleCategory::Prefetch, cost.prefetch_ns);
    per_call.charge(CycleCategory::Other, cost.other_ns);
    let freed = t.free(warm.addr, 64, CpuId(0));
    assert_eq!(
        freed.ns.to_bits(),
        (cost.percpu_hit_ns + cost.other_ns).to_bits()
    );
    per_call.charge(CycleCategory::CpuCache, cost.percpu_hit_ns);
    per_call.charge(CycleCategory::Other, cost.other_ns);
    assert_eq!(t.cycles(), &per_call);
}

/// A sink that shares what it saw with the test.
struct Shared(Arc<Mutex<Vec<AllocEvent>>>);

impl EventSink for Shared {
    fn on_event(&mut self, _ts_ns: u64, ev: &AllocEvent) {
        self.0.lock().expect("sink lock").push(*ev);
    }
}

/// Recalibrating replaces the prices and nothing else: a sink attached
/// before `with_cost_model` keeps seeing the stream, and an object allocated
/// before it is still known to the sanitizer when it is freed.
#[test]
fn with_cost_model_keeps_sinks_and_sanitizer_state() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let p = Platform::chiplet("test", 1, 2, 4, 2);
    let cfg = TcmallocConfig::baseline().with_sanitize(SanitizeLevel::Full);
    let mut t = Tcmalloc::new(cfg, p, Clock::new());
    t.attach_sink(Box::new(Shared(Arc::clone(&seen))));
    let before = t.malloc(64, CpuId(0));
    let cost = CostModel {
        percpu_hit_ns: 6.2,
        ..CostModel::production()
    };
    let mut t = t.with_cost_model(cost);
    let after = t.malloc(64, CpuId(0));
    assert_eq!(*t.cost_model(), cost);
    let done = |seen: &Mutex<Vec<AllocEvent>>| {
        let events = seen.lock().expect("sink lock");
        events
            .iter()
            .filter(|e| matches!(e, AllocEvent::MallocDone { .. }))
            .count()
    };
    assert_eq!(done(&seen), 2, "the sink saw both allocations");
    t.free(before.addr, 64, CpuId(0));
    t.free(after.addr, 64, CpuId(0));
    assert!(
        t.sanitizer_reports().is_empty(),
        "{:?}",
        t.sanitizer_reports()
    );
}
