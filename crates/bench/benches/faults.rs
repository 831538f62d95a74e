//! Fault-injection bench: the Fig. 7 fleet-mix churn loop (plus a
//! multi-hugepage span churn that keeps the mmap/subrelease paths busy)
//! under seeded kernel fault storms swept across five rates — 0 (healthy)
//! up to 50% per syscall — plus a dedicated recovery measurement after a
//! total THP outage and a shard-supervisor degradation sweep.
//!
//! Reported per rate: allocator throughput, end-of-run hugepage coverage,
//! refused allocations, and injected-fault counts — both as per-rate
//! scalars (backwards-compatible keys) and as aligned curve arrays so the
//! degradation *shape* (refusal rate, churn throughput, hugepage coverage
//! vs storm rate) is machine-readable from one report. The recovery phase
//! measures how much *simulated* time (and how many background maintenance
//! passes) the khugepaged-style re-promotion needs to clear the degraded
//! state once the storm window closes, recording the coverage-vs-time
//! curve along the way. The shard sweep drives the real supervised
//! multi-process fleet fold (this bench binary re-executes itself as the
//! shard child) under injected crashes and sweeps retry budgets, gating
//! two contracts: recovery is byte-identical to the serial fold, and an
//! exhausted budget reports *exactly* the surviving leaf spans. Emits
//! `BENCH_faults.json`.
//!
//! The healthy run doubles as a regression guard for the determinism
//! contract: an all-zero fault plan must inject nothing and refuse nothing.

use std::hint::black_box;
use std::time::Instant;
use wsc_bench::experiments as ex;
use wsc_bench::harness::JsonReport;
use wsc_bench::Scale;
use wsc_parallel::supervisor::{self, SupervisorConfig};
use wsc_prng::SmallRng;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::{Clock, NS_PER_SEC};
use wsc_sim_os::faults::{FaultPlan, PPM};
use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
use wsc_workload::profiles;

/// Cargo runs benches with cwd = the package dir; anchor the report to the
/// workspace root so CI finds it at a fixed path.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");

/// Per-syscall fault rates under test, parts per million. Syscalls are
/// rare relative to allocator ops (the caches exist to absorb churn), and
/// a refusal needs `ENOMEM_RETRIES + 1` consecutive injected failures —
/// so the storm rates must be aggressive for the matrix to be
/// non-trivial: the earlier 100/10 000 ppm rates injected *zero* faults
/// over a quick run, and every cell silently measured the healthy path.
/// Below 250 000 ppm the compound refusal odds per fresh mmap round to
/// zero (0.125⁴ ≈ 2·10⁻⁴ at the second point) — those cells measure
/// injected-fault latency and coverage loss, not refusal, so `main` only
/// asserts a nonzero refusal count from 250 000 ppm up (0.25⁴ ≈ 0.39% per
/// fresh mmap, which the held-span pressure below turns into a
/// deterministic nonzero count at every scale); the top rate fails every
/// other syscall (refusal odds 1/16). Every nonzero cell must provably
/// *inject*.
const RATES_PPM: [u32; 5] = [0, 125_000, 250_000, 375_000, 500_000];

/// Rates from here up must also provably *refuse* (see [`RATES_PPM`]).
const REFUSAL_FLOOR_PPM: u32 = 250_000;

/// Simulated interval between background maintenance passes during the
/// post-storm recovery measurement.
const MAINT_INTERVAL_NS: u64 = 10_000_000; // 10 ms

/// Machines in the shard-supervision sweep's tiny survey: big enough for
/// two shards × many leaves, small enough that a full supervised fold
/// (children included) stays well under a second in release builds.
const SHARD_MACHINES: usize = 120;

/// One storm-churn run at a uniform per-syscall fault rate.
struct ChurnOut {
    mops: f64,
    coverage: f64,
    refused: u64,
    injected: u64,
    stats: wsc_sim_os::FaultStats,
}

fn churn(ops: u64, rate_ppm: u32) -> ChurnOut {
    let spec = profiles::fleet_mix();
    let mut rng = SmallRng::seed_from_u64(0xFA);
    let clock = Clock::new();
    let platform = Platform::chiplet("bench", 1, 2, 4, 2);
    let plan = FaultPlan {
        enomem_ppm: rate_ppm,
        deny_huge_ppm: rate_ppm,
        subrelease_fail_ppm: rate_ppm,
        latency_spike_ppm: rate_ppm,
        latency_spike_ns: 100_000,
        ..FaultPlan::off()
    }
    .with_seed(0xFA11)
    .with_storm(0, u64::MAX);
    // The defaults' 50 ms release interval never elapses inside a
    // 500 ns/op churn loop, and the small-object live set fits in the
    // warmup mmaps — with both quiet, the run makes almost no syscalls and
    // per-syscall ppm rates have nothing to roll against. Compress the
    // release interval so background subrelease fires throughout the run;
    // the large-span churn below keeps the mmap side busy.
    let mut cfg = TcmallocConfig::optimized().with_os_faults(plan);
    cfg.release_interval_ns = 200_000; // 200 µs simulated
    let mut tcm = Tcmalloc::new(cfg, platform, clock.clone());
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut large: Vec<(u64, u64)> = Vec::new();
    let mut held: Vec<(u64, u64)> = Vec::new();
    let mut refused = 0u64;
    let t = Instant::now();
    for i in 0..ops {
        clock.advance(500);
        let cpu = CpuId((i % 16) as u32);
        if i % 16 == 0 {
            // Multi-hugepage spans miss every cache tier, so each round
            // trip is pageheap traffic. Half are held for the whole run:
            // the growing footprint cannot be satisfied from recycled
            // spans, so each held span is a fresh `mmap` the fault plan
            // gets to roll against; the other half churn through a short
            // FIFO to keep the free/subrelease side busy. One span per 16
            // ops (not 32) keeps enough fresh mmaps in even a quick run
            // that the mid-rate refusal odds produce a nonzero count.
            if large.len() >= 8 {
                let (addr, size) = large.remove(0);
                tcm.free(addr, size, cpu);
            }
            let size = (2 + i % 3) * (2 << 20);
            match tcm.try_malloc(black_box(size), cpu) {
                Ok(a) if (i / 16) % 2 == 0 => held.push((a.addr, size)),
                Ok(a) => large.push((a.addr, size)),
                Err(_) => refused += 1,
            }
        } else if live.len() > 2_000 || (!live.is_empty() && rng.gen::<f64>() < 0.45) {
            let k = rng.gen_range(0..live.len());
            let (addr, size) = live.swap_remove(k);
            tcm.free(addr, size, cpu);
        } else {
            let (size, _) = spec.sample_size(clock.now_ns(), &mut rng);
            match tcm.try_malloc(black_box(size), cpu) {
                Ok(a) => live.push((a.addr, size)),
                // A refusal degrades the request, never the run.
                Err(_) => refused += 1,
            }
        }
        tcm.maintain();
    }
    let ns = t.elapsed().as_nanos() as f64;
    let coverage = tcm.hugepage_coverage();
    let stats = tcm.fault_stats();
    let injected =
        stats.enomem_injected + stats.huge_denied + stats.subrelease_failed + stats.latency_spikes;
    for (addr, size) in live.into_iter().chain(large).chain(held) {
        tcm.free(addr, size, CpuId(0));
    }
    ChurnOut {
        mops: ops as f64 * 1e3 / ns.max(1.0),
        coverage,
        refused,
        injected,
        stats,
    }
}

/// Recovery after a total THP outage: every mapping during the storm comes
/// back 4 KiB-backed; once the window closes, background maintenance
/// re-promotes. Returns (simulated ns past storm end until the degraded
/// state clears, maintenance passes that took, and the coverage-vs-time
/// curve as `(ms past storm end, hugepage coverage)` samples — one per
/// maintenance pass, ending at full coverage).
fn thp_recovery() -> (u64, u64, Vec<(f64, f64)>) {
    let storm_end = NS_PER_SEC;
    let clock = Clock::new();
    let plan = FaultPlan {
        deny_huge_ppm: PPM,
        ..FaultPlan::off()
    }
    .with_seed(7)
    .with_storm(0, storm_end);
    let mut tcm = Tcmalloc::new(
        TcmallocConfig::baseline().with_os_faults(plan),
        Platform::chiplet("bench", 1, 2, 4, 2),
        clock.clone(),
    );
    let live: Vec<u64> = (0..8).map(|_| tcm.malloc(4 << 20, CpuId(0)).addr).collect();
    assert!(tcm.os_degraded(), "total outage must degrade the OS layer");
    assert_eq!(tcm.hugepage_coverage(), 0.0, "no THP backing mid-outage");
    clock.advance(storm_end - clock.now_ns());
    let mut passes = 0u64;
    let mut curve = vec![(0.0, tcm.hugepage_coverage())];
    while tcm.os_degraded() {
        assert!(passes < 10_000, "re-promotion never converged");
        clock.advance(MAINT_INTERVAL_NS);
        tcm.maintain();
        passes += 1;
        curve.push((
            (clock.now_ns() - storm_end) as f64 / 1e6,
            tcm.hugepage_coverage(),
        ));
    }
    let recovery = clock.now_ns() - storm_end;
    assert_eq!(tcm.hugepage_coverage(), 1.0, "coverage fully rebuilt");
    for addr in live {
        tcm.free(addr, 4 << 20, CpuId(0));
    }
    (recovery, passes, curve)
}

/// Builds the extra child environment injecting one shard fault plan.
fn fault_env(plan: &str) -> Vec<(String, String)> {
    vec![(supervisor::FAULT_ENV.to_string(), plan.to_string())]
}

/// Shard-supervisor degradation sweep results: the two ISSUE 10 gate
/// flags, the retry-budget degradation curve, and run counters.
struct ShardOut {
    crash_identical: bool,
    exhausted_exact: bool,
    budgets: Vec<u64>,
    coverage_curve: Vec<f64>,
    recovery_ms_curve: Vec<f64>,
    spawned: u64,
    retries: u64,
}

/// Drives the real multi-process fleet fold (this bench binary re-executes
/// itself as the shard child via [`ex::shard_child_main`]) under injected
/// crashes, sweeping retry budgets against a two-strike fault.
fn shard_supervision() -> ShardOut {
    // Tiny survey, pinned thread count: the parent forwards the effective
    // sizing to every child via `WSC_SURVEY_*`, so the fold tree is
    // identical in-process and across shards regardless of ambient env.
    let mut scale = Scale::quick().with_threads(2);
    scale.survey_machines = SHARD_MACHINES;
    scale.survey_requests = 8;
    scale.survey_population = 64;
    // Zero backoff keeps the sweep fast; no deadline or split, so the
    // retry budget alone decides each cell's fate.
    let base = SupervisorConfig::STRICT;

    let (serial, _) = ex::fleet_summary_supervised(&scale, 1, &base, &[]);
    let serial_bytes = serial.encode();
    assert!(
        serial.coverage.complete(),
        "serial baseline must cover the full survey"
    );

    // Contract 1: a crashed shard recovered within budget folds to the
    // byte-identical summary.
    let recovered_cfg = SupervisorConfig { retries: 1, ..base };
    let (recovered, stats) =
        ex::fleet_summary_supervised(&scale, 2, &recovered_cfg, &fault_env("crash@1"));
    let crash_identical = recovered.encode() == serial_bytes;
    assert!(
        crash_identical,
        "recovered supervised fold must be byte-identical to serial"
    );
    let stats = stats.expect("sharded path returns supervisor stats");
    assert!(stats.retries >= 1, "the injected crash must force a retry");

    // Contract 2: an exhausted budget degrades to *exactly* the surviving
    // leaf spans — computed independently from the fold tree here.
    let span = wsc_parallel::process_shard_span(SHARD_MACHINES, 1, 2);
    let survived = (SHARD_MACHINES - (span.hi - span.lo)) as u64;
    let (degraded, _) =
        ex::fleet_summary_supervised(&scale, 2, &recovered_cfg, &fault_env("crash@1:forever"));
    let exhausted_exact = degraded.coverage.planned() == SHARD_MACHINES as u64
        && degraded.coverage.folded() == survived
        && degraded.cells == survived;
    assert!(
        exhausted_exact,
        "degraded fold must report exactly the surviving spans: \
         planned {} folded {} cells {} (want {survived}/{SHARD_MACHINES})",
        degraded.coverage.planned(),
        degraded.coverage.folded(),
        degraded.cells
    );

    // Degradation curve: the same two-strike fault against a growing retry
    // budget. Budgets 0 and 1 cannot outlast two strikes (half the fleet
    // is lost); budget 2 recovers in full — the budget, not luck, decides.
    let mut budgets = Vec::new();
    let mut coverage_curve = Vec::new();
    let mut recovery_ms_curve = Vec::new();
    for retries in 0u32..=2 {
        let cfg = SupervisorConfig { retries, ..base };
        let t = Instant::now();
        let (summary, _) = ex::fleet_summary_supervised(&scale, 2, &cfg, &fault_env("crash@1:2"));
        recovery_ms_curve.push(t.elapsed().as_secs_f64() * 1e3);
        budgets.push(u64::from(retries));
        coverage_curve.push(summary.coverage.fraction());
        let expect_full = retries >= 2;
        assert_eq!(
            summary.coverage.complete(),
            expect_full,
            "retries={retries} against a two-strike fault"
        );
        if expect_full {
            assert_eq!(
                summary.encode(),
                serial_bytes,
                "full recovery must be byte-identical to serial"
            );
        }
    }

    ShardOut {
        crash_identical,
        exhausted_exact,
        budgets,
        coverage_curve,
        recovery_ms_curve,
        spawned: stats.spawned,
        retries: stats.retries,
    }
}

fn main() {
    // Supervised fleet folds below re-execute this binary as shard
    // children; that role short-circuits everything else.
    if ex::shard_child_main() {
        return;
    }
    let scale = Scale::from_env();
    // Floor the op count: syscall volume scales with churn, and the storm
    // assertions below need enough syscalls for ppm rates to be meaningful
    // even at quick scale.
    let ops = scale.requests.max(20_000);
    println!("== fault-injection: fleet-mix churn under storms, {ops} ops ==");

    let mut report = JsonReport::new();
    report
        .text("bench", "faults/storm-churn")
        .text("scale", scale.name)
        .int("ops", ops);
    let mut mops_curve = Vec::new();
    let mut coverage_curve = Vec::new();
    let mut refused_curve = Vec::new();
    let mut injected_curve = Vec::new();
    for rate in RATES_PPM {
        let out = churn(ops, rate);
        println!(
            "rate {rate:>6} ppm  {:>7.2} Mops/s  coverage {:.3}  refused {}  injected {} \
             (enomem {} thp {} madvise {} latency {})",
            out.mops,
            out.coverage,
            out.refused,
            out.injected,
            out.stats.enomem_injected,
            out.stats.huge_denied,
            out.stats.subrelease_failed,
            out.stats.latency_spikes
        );
        if rate == 0 {
            // The zero plan is the golden-figure contract: nothing fires.
            assert_eq!(out.injected, 0, "zero-rate plan injected faults");
            assert_eq!(out.refused, 0, "zero-rate plan refused allocations");
        } else {
            // Every storm cell must exercise the degraded paths, not
            // silently re-measure the healthy run (the bug this matrix
            // shipped with).
            assert!(out.injected > 0, "no faults injected at {rate} ppm");
        }
        if rate >= REFUSAL_FLOOR_PPM {
            // From the refusal floor up the compound odds are macroscopic:
            // a zero count here means the cell is measuring the healthy
            // allocation path with extra latency, not graceful degradation
            // (the mid-rate bug this matrix shipped with). Below the floor
            // zero refusals are *expected* — see [`RATES_PPM`] — so the
            // curve records them without gating.
            assert!(
                out.refused > 0,
                "{rate} ppm storm never refused an allocation"
            );
        }
        assert!(
            (0.0..=1.0).contains(&out.coverage),
            "coverage out of range at {rate} ppm"
        );
        report
            .num(&format!("churn_mops_{rate}ppm"), out.mops)
            .num(&format!("hugepage_coverage_{rate}ppm"), out.coverage)
            .int(&format!("refused_allocs_{rate}ppm"), out.refused)
            .int(&format!("faults_injected_{rate}ppm"), out.injected);
        mops_curve.push(out.mops);
        coverage_curve.push(out.coverage);
        refused_curve.push(out.refused);
        injected_curve.push(out.injected);
    }
    // The same matrix as aligned arrays: index i of every curve belongs to
    // `storm_rates_ppm[i]`, so a plot of refusal rate / churn / coverage
    // vs storm rate needs no key parsing.
    report
        .int_list("storm_rates_ppm", &RATES_PPM.map(u64::from))
        .num_list("churn_mops_curve", &mops_curve)
        .num_list("hugepage_coverage_curve", &coverage_curve)
        .int_list("refused_allocs_curve", &refused_curve)
        .int_list("faults_injected_curve", &injected_curve);

    let (recovery_ns, passes, recovery_curve) = thp_recovery();
    println!(
        "thp-outage recovery: {:.1} ms simulated, {passes} maintenance pass(es)",
        recovery_ns as f64 / 1e6
    );
    // Coverage-vs-time-since-storm curve. Downsample long tails to a
    // bounded point count, always keeping the first and last samples so
    // the endpoints (0.0 coverage at t=0, 1.0 at recovery) survive.
    let stride = recovery_curve.len().div_ceil(64).max(1);
    let sampled: Vec<(f64, f64)> = recovery_curve
        .iter()
        .enumerate()
        .filter(|(i, _)| i % stride == 0 || *i + 1 == recovery_curve.len())
        .map(|(_, &p)| p)
        .collect();
    let t_ms: Vec<f64> = sampled.iter().map(|p| p.0).collect();
    let cov: Vec<f64> = sampled.iter().map(|p| p.1).collect();
    report
        .num("thp_recovery_sim_ms", recovery_ns as f64 / 1e6)
        .int("thp_recovery_maintain_passes", passes)
        .num_list("thp_recovery_curve_t_ms", &t_ms)
        .num_list("thp_recovery_curve_coverage", &cov);

    println!("== shard-supervisor degradation sweep: {SHARD_MACHINES}-machine survey ==");
    let shard = shard_supervision();
    for (i, retries) in shard.budgets.iter().enumerate() {
        println!(
            "retries {retries}  coverage {:>6.2}%  wall {:>7.1} ms",
            shard.coverage_curve[i] * 100.0,
            shard.recovery_ms_curve[i]
        );
    }
    report
        .flag("shard_crash_identical", shard.crash_identical)
        .flag("shard_exhausted_coverage_exact", shard.exhausted_exact)
        .int_list("shard_retry_budgets", &shard.budgets)
        .num_list("shard_coverage_curve", &shard.coverage_curve)
        .num_list("shard_recovery_ms_curve", &shard.recovery_ms_curve)
        .int("shard_children_spawned", shard.spawned)
        .int("shard_retries_scheduled", shard.retries)
        .flag("zero_rate_plan_inert", true);
    report
        .write(OUT_PATH)
        .unwrap_or_else(|e| panic!("writing {OUT_PATH}: {e}"));
    println!("wrote {OUT_PATH}");
}
