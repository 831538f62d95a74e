//! Cross-crate integration tests: the full stack (workload driver →
//! allocator → simulated OS/hardware) must run, be deterministic, keep its
//! byte accounting exact, and — most importantly — each of the paper's four
//! redesigns must move its headline metric in the direction the paper
//! reports, on the workload class the paper says it helps.

use warehouse_alloc::fleet::experiment::{
    paired_ab, try_run_fleet_ab, Comparison, FleetExperimentConfig,
};
use warehouse_alloc::parallel::Engine;
use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::tcmalloc::{SanitizeLevel, TcmallocConfig};
use warehouse_alloc::workload::driver::{self, DriverConfig};
use warehouse_alloc::workload::{profiles, WorkloadSpec};

fn platform() -> Platform {
    Platform::chiplet("chiplet-64c", 2, 4, 8, 2)
}

/// One workload's paired A/B on the chiplet platform, seed 42.
fn workload_ab(
    spec: &WorkloadSpec,
    control: TcmallocConfig,
    experiment: TcmallocConfig,
    requests: u64,
) -> Comparison {
    let engine = Engine::from_env();
    paired_ab(
        &engine,
        &[spec],
        &platform(),
        control,
        experiment,
        requests,
        &[42],
    )
    .expect("no run panics")[0]
}

const REQUESTS: u64 = 12_000;

#[test]
fn full_stack_runs_and_accounts_exactly() {
    let p = platform();
    let dcfg = DriverConfig::new(REQUESTS, 42, &p);
    // The sanitizer at Full shadow-checks every operation and audits
    // cross-tier conservation periodically; the run must stay report-free.
    let cfg = TcmallocConfig::baseline().with_sanitize(SanitizeLevel::Full);
    let (r, mut tcm) = driver::run(&profiles::fleet_mix(), &p, cfg, &dcfg);
    assert!(r.throughput > 0.0);
    assert!(r.cpi > 0.4 && r.cpi < 10.0);
    // Byte-accounting identity: resident == live + all fragmentation.
    let f = tcm.fragmentation();
    assert_eq!(
        f.resident_bytes,
        f.live_bytes + f.total_bytes(),
        "accounting identity"
    );
    assert!(tcm.audits_run() > 0, "periodic audits ran during the drive");
    assert_eq!(tcm.audit_now(), 0, "end-of-run audit is clean");
    let reports = tcm.sanitizer_reports();
    assert!(reports.is_empty(), "sanitizer reports: {reports:?}");
}

#[test]
fn runs_are_deterministic_per_seed() {
    let p = platform();
    let dcfg = DriverConfig::new(6_000, 7, &p);
    let run = || driver::run(&profiles::monarch(), &p, TcmallocConfig::optimized(), &dcfg);
    let (a, _) = run();
    let (b, _) = run();
    assert_eq!(a.busy_cpu_seconds, b.busy_cpu_seconds);
    assert_eq!(a.llc, b.llc);
    assert_eq!(a.tlb, b.tlb);
    assert_eq!(a.fragmentation, b.fragmentation);
}

#[test]
fn teardown_leaves_clean_heap_under_every_config() {
    let p = platform();
    for cfg in [
        TcmallocConfig::baseline(),
        TcmallocConfig::optimized(),
        TcmallocConfig::baseline().with_nuca_transfer(),
        TcmallocConfig::baseline().with_lifetime_filler(),
    ] {
        let dcfg = DriverConfig {
            drain_at_end: true,
            ..DriverConfig::new(5_000, 3, &p)
        };
        // Sanitize every configuration: a full teardown with the shadow
        // checker on proves no double/invalid frees anywhere in the drive.
        let cfg = cfg.with_sanitize(SanitizeLevel::Full);
        let (_, mut tcm) = driver::run(&profiles::tensorflow(), &p, cfg, &dcfg);
        assert_eq!(tcm.live_bytes(), 0);
        assert_eq!(tcm.live_objects(), 0);
        assert_eq!(tcm.fragmentation().internal_bytes, 0);
        assert_eq!(tcm.audit_now(), 0);
        assert!(tcm.sanitizer_reports().is_empty());
    }
}

#[test]
fn heterogeneous_caches_reduce_memory() {
    // Figure 10: the §4.1 redesign reduces RAM on multi-threaded workloads.
    let base = TcmallocConfig::baseline();
    let exp = base.with_heterogeneous_percpu();
    let c = workload_ab(&profiles::monarch(), base, exp, REQUESTS);
    assert!(
        c.memory_pct() < -0.2,
        "expected memory reduction, got {:+.2}%",
        c.memory_pct()
    );
}

#[test]
fn nuca_transfer_cache_reduces_llc_misses_on_chiplets() {
    // Table 1: cache-domain-local object reuse lowers LLC MPKI.
    let base = TcmallocConfig::baseline();
    let exp = base.with_nuca_transfer();
    let c = workload_ab(&profiles::disk(), base, exp, REQUESTS * 2);
    // Remote-domain transfers become local hits: stall time drops even when
    // the raw miss count wobbles, so the robust signal is CPI/throughput.
    assert!(c.cpi_pct() < 0.0, "CPI {:+.2}%", c.cpi_pct());
    assert!(c.throughput_pct() > 0.0, "thr {:+.2}%", c.throughput_pct());
}

#[test]
fn lifetime_filler_improves_tlb_behaviour() {
    // Table 2 / Figure 17: fewer dTLB misses and higher throughput on the
    // buffer-churning workloads (disk is the paper's biggest winner).
    let base = TcmallocConfig::baseline();
    let exp = base.with_lifetime_filler();
    let c = workload_ab(&profiles::disk(), base, exp, REQUESTS * 2);
    assert!(
        c.experiment.dtlb_miss_rate < c.control.dtlb_miss_rate,
        "dTLB miss {:.4} -> {:.4}",
        c.control.dtlb_miss_rate,
        c.experiment.dtlb_miss_rate
    );
    assert!(c.throughput_pct() > 0.0, "thr {:+.2}%", c.throughput_pct());
}

#[test]
fn span_prioritization_never_hurts_memory() {
    // Figure 14: span prioritization densifies spans; memory must not grow.
    let base = TcmallocConfig::baseline();
    let exp = base.with_span_prioritization();
    for spec in [profiles::monarch(), profiles::fleet_mix()] {
        let c = workload_ab(&spec, base, exp, REQUESTS);
        assert!(
            c.memory_pct() < 0.5,
            "{}: memory {:+.2}%",
            spec.name,
            c.memory_pct()
        );
    }
}

#[test]
fn redis_is_unaffected_by_multithread_optimizations() {
    // §4.1/§4.2: Redis is single-threaded — one per-CPU cache, one domain.
    let base = TcmallocConfig::baseline();
    let exp = base.with_heterogeneous_percpu().with_nuca_transfer();
    let c = workload_ab(&profiles::redis(), base, exp, REQUESTS);
    assert!(
        c.throughput_pct().abs() < 1.0,
        "redis should be ~unchanged, got {:+.2}%",
        c.throughput_pct()
    );
}

#[test]
fn spec_has_negligible_malloc_share() {
    // Figure 5a: SPEC benchmarks are unsuitable for allocator studies.
    let p = platform();
    let dcfg = DriverConfig::new(REQUESTS, 5, &p);
    let (spec_r, _) = driver::run(
        &profiles::spec_cpu(0),
        &p,
        TcmallocConfig::baseline(),
        &dcfg,
    );
    let (fleet_r, _) = driver::run(
        &profiles::fleet_mix(),
        &p,
        TcmallocConfig::baseline(),
        &dcfg,
    );
    assert!(spec_r.malloc_frac < 0.01);
    assert!(fleet_r.malloc_frac > 0.02);
}

#[test]
fn fleet_ab_framework_is_paired() {
    // Identical configurations in both arms must produce exactly zero delta.
    let cfg = FleetExperimentConfig {
        machines: 2,
        binaries_per_machine: 1,
        requests_per_binary: 2_000,
        seed: 9,
        population: 50,
    };
    let r = try_run_fleet_ab(
        &Engine::from_env(),
        TcmallocConfig::baseline(),
        TcmallocConfig::baseline(),
        &cfg,
    )
    .expect("no cell panics");
    assert!(r.fleet.throughput_pct().abs() < 1e-9);
    assert!(r.fleet.memory_pct().abs() < 1e-9);
    assert_eq!(r.summary.cells, 2, "one cell per machine × binary slot");
    assert_eq!(r.summary.control, r.summary.experiment);
}

#[test]
fn optimized_config_beats_baseline_on_tlb_workloads() {
    // §4.5 directional check on the workload class the combined change
    // helps most.
    let c = workload_ab(
        &profiles::disk(),
        TcmallocConfig::baseline(),
        TcmallocConfig::optimized(),
        REQUESTS * 2,
    );
    assert!(c.throughput_pct() > 0.0, "thr {:+.2}%", c.throughput_pct());
}
