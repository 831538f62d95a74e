//! One reproduction function per table/figure of the paper's evaluation.
//!
//! Each function prints a `paper vs measured` table and returns the key
//! measured values so tests can assert the *shape* criteria from DESIGN.md:
//! who wins, by roughly what factor, in the same ordering across workloads.

use wsc_fleet::experiment::{try_run_fleet_ab, CellSummary, Comparison, MetricSet};
use wsc_fleet::population::Population;
use wsc_fleet::report::{pct, Table};
use wsc_fleet::rollout;
use wsc_parallel::supervisor::{self, ShardChild, SupervisorConfig};
use wsc_sim_hw::cost::{AllocPath, CostModel};
use wsc_sim_hw::latency::{measure, LatencyModel};
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::{Clock, NS_PER_SEC};
use wsc_tcmalloc::interleave::{replay, ReplayOutcome, Schedule};
use wsc_tcmalloc::stats::CycleCategory;
use wsc_tcmalloc::{FreeArm, Tcmalloc, TcmallocConfig};
use wsc_workload::driver::{self, DriverConfig, RunJob};
use wsc_workload::{profiles, WorkloadSpec};

use crate::scale::Scale;

/// The chiplet (NUCA) platform every single-workload experiment runs on.
pub fn chiplet() -> Platform {
    Platform::chiplet("chiplet-64c", 2, 4, 8, 2)
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Paired A/B comparisons, one per workload of `specs`, each the average
/// over the scale's seeds. Every run — `workloads × seeds × {control,
/// experiment}` — is one engine batch, so a whole table shards across
/// threads, then folds back per workload in `specs` order; arms of a pair
/// share the seed so the pairing isolates the allocator.
fn paired_ab(
    specs: &[&WorkloadSpec],
    platform: &Platform,
    control: TcmallocConfig,
    experiment: TcmallocConfig,
    scale: &Scale,
) -> Vec<Comparison> {
    let mut jobs = Vec::with_capacity(specs.len() * scale.seeds.len() * 2);
    for &spec in specs {
        for &seed in &scale.seeds {
            let dcfg = DriverConfig::new(scale.requests, seed, platform);
            for tcm_cfg in [control, experiment] {
                jobs.push(RunJob {
                    spec: spec.clone(),
                    platform: platform.clone(),
                    tcm_cfg,
                    dcfg: dcfg.clone(),
                });
            }
        }
    }
    let metrics = driver::run_batch(&scale.engine, jobs, |r, _| MetricSet::from_report(r))
        .unwrap_or_else(|e| panic!("paired A/B aborted: {e}"));
    let n = scale.seeds.len() as f64;
    let mut pairs = metrics.chunks(2);
    specs
        .iter()
        .map(|_| {
            let mut acc = Comparison::default();
            for _ in &scale.seeds {
                let pair = pairs.next().expect("batch covers every (workload, seed)");
                add_metrics(&mut acc.control, &pair[0], 1.0 / n);
                add_metrics(&mut acc.experiment, &pair[1], 1.0 / n);
            }
            acc
        })
        .collect()
}

fn add_metrics(into: &mut MetricSet, from: &MetricSet, w: f64) {
    into.throughput += from.throughput * w;
    into.memory_bytes += from.memory_bytes * w;
    into.cpi += from.cpi * w;
    into.llc_mpki += from.llc_mpki * w;
    into.dtlb_walk_pct += from.dtlb_walk_pct * w;
    into.dtlb_miss_rate += from.dtlb_miss_rate * w;
    into.hugepage_coverage += from.hugepage_coverage * w;
    into.malloc_frac += from.malloc_frac * w;
    into.frag_ratio += from.frag_ratio * w;
}

/// Seed of the single-configuration characterization runs (Figures 5, 6
/// and 15).
const BASELINE_SEED: u64 = 42;

/// Runs `specs` at baseline config as one engine batch; `extract` pulls the
/// per-run values inside the worker so only they cross threads. Results are
/// in `specs` order regardless of thread count.
fn baseline_batch<R: Send>(
    specs: &[WorkloadSpec],
    scale: &Scale,
    extract: impl Fn(&driver::RunReport, &Tcmalloc) -> R + Sync,
) -> Vec<R> {
    let platform = chiplet();
    let jobs = specs
        .iter()
        .map(|spec| RunJob {
            spec: spec.clone(),
            platform: platform.clone(),
            tcm_cfg: TcmallocConfig::baseline(),
            dcfg: DriverConfig::new(scale.requests, BASELINE_SEED, &platform),
        })
        .collect();
    driver::run_batch(&scale.engine, jobs, extract)
        .unwrap_or_else(|e| panic!("baseline batch aborted: {e}"))
}

/// [`baseline_batch`] of the fleet mix alone.
fn baseline_fleet_mix<R: Send>(
    scale: &Scale,
    extract: impl Fn(&driver::RunReport, &Tcmalloc) -> R + Sync,
) -> R {
    baseline_batch(&[profiles::fleet_mix()], scale, extract)
        .pop()
        .expect("one spec, one result")
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// Figure 3: CDF of malloc cycles / allocated memory over the top-N
/// binaries. Returns `(cycle_coverage_50, memory_coverage_50)`.
pub fn fig3(_scale: &Scale) -> (f64, f64) {
    println!("== Figure 3: fleet coverage by top-N binaries ==");
    let pop = Population::new(2000, 3);
    let mut t = Table::new(vec!["top-N", "malloc-cycle %", "allocated-mem %"]);
    for n in [1usize, 5, 10, 20, 30, 40, 50] {
        t.row(vec![
            n.to_string(),
            f2(pop.cycle_coverage(n) * 100.0),
            f2(pop.memory_coverage(n) * 100.0),
        ]);
    }
    println!("{}", t.render());
    let (c50, m50) = (pop.cycle_coverage(50), pop.memory_coverage(50));
    println!("paper: top 50 binaries cover ~50% of cycles and ~65% of memory");
    println!("measured: {:.1}% and {:.1}%\n", c50 * 100.0, m50 * 100.0);
    (c50, m50)
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// Figure 4: allocation latency per cache tier. Returns measured mean ns by
/// path in hierarchy order (missing tiers are `None`).
pub fn fig4(scale: &Scale) -> Vec<Option<f64>> {
    println!("== Figure 4: allocation latency by tier ==");
    let platform = chiplet();
    let clock = Clock::new();
    let mut tcm = Tcmalloc::new(TcmallocConfig::baseline(), platform.clone(), clock.clone());
    let spec = profiles::fleet_mix();
    let mut rng = wsc_prng::SmallRng::seed_from_u64(7);
    let mut sums = [(0.0f64, 0u64); 5];
    let mut live: Vec<(u64, u64)> = Vec::new();
    let n = scale.requests * 20;
    for i in 0..n {
        clock.advance(200);
        let (size, site) = spec.sample_size(clock.now_ns(), &mut rng);
        let cpu = CpuId((i % 16) as u32);
        let out = tcm.malloc_with_site(size, cpu, site as u64);
        let idx = AllocPath::ALL
            .iter()
            .position(|&p| p == out.path)
            .expect("known path");
        // Subtract the per-op extras so the tier latency itself is reported.
        let cost = *tcm.cost_model();
        let extras = cost.prefetch_ns + cost.other_ns;
        sums[idx].0 += out.ns.min(cost.alloc_path_ns(out.path) + extras) - extras;
        sums[idx].1 += 1;
        live.push((out.addr, size));
        if live.len() > 3000 || rng.gen::<f64>() < 0.3 {
            let k = rng.gen_range(0..live.len());
            let (addr, sz) = live.swap_remove(k);
            tcm.free(addr, sz, cpu);
        }
        tcm.maintain();
    }
    let paper = [3.1, f64::NAN, f64::NAN, 137.0, 12_916.7];
    let model = CostModel::production();
    let mut t = Table::new(vec!["tier", "paper ns", "model ns", "measured ns", "hits"]);
    let mut out = Vec::new();
    for (i, &path) in AllocPath::ALL.iter().enumerate() {
        let (sum, cnt) = sums[i];
        let mean = (cnt > 0).then(|| sum / cnt as f64);
        t.row(vec![
            path.name().to_string(),
            if paper[i].is_nan() {
                "(unlabeled)".into()
            } else {
                f2(paper[i])
            },
            f2(model.alloc_path_ns(path)),
            mean.map_or_else(|| "-".into(), f2),
            cnt.to_string(),
        ]);
        out.push(mean);
    }
    println!("{}", t.render());
    println!("paper: per-CPU 3.1 ns ... pageheap >137 ns, mmap 12916.7 ns\n");
    out
}

// ---------------------------------------------------------------------------
// Figures 5a / 5b
// ---------------------------------------------------------------------------

/// The workload set used in Figures 5/6: fleet + top-5 apps + SPEC.
fn fig5_workloads() -> Vec<WorkloadSpec> {
    let mut v = vec![profiles::fleet_mix()];
    v.extend(profiles::production_workloads());
    v.push(profiles::spec_cpu(0));
    v.push(profiles::spec_cpu(1));
    v
}

/// Figure 5a: % of cycles spent in malloc. Returns `(name, pct)` rows.
pub fn fig5a(scale: &Scale) -> Vec<(String, f64)> {
    println!("== Figure 5a: malloc cycles (% of total) ==");
    let paper = [
        ("fleet", 4.3),
        ("spanner", 6.0),
        ("monarch", 10.1),
        ("bigtable", 7.0),
        ("f1-query", 5.5),
        ("disk", 3.6),
        ("spec-mcf", 0.1),
        ("spec-omnetpp", 0.1),
    ];
    let mut t = Table::new(vec!["workload", "paper %", "measured %"]);
    let mut rows = Vec::new();
    let specs = fig5_workloads();
    let fracs = baseline_batch(&specs, scale, |r, _| r.malloc_frac);
    for (i, (spec, frac)) in specs.iter().zip(&fracs).enumerate() {
        let measured = frac * 100.0;
        t.row(vec![
            spec.name.clone(),
            format!("~{}", paper[i].1),
            f2(measured),
        ]);
        rows.push((spec.name.clone(), measured));
    }
    println!("{}", t.render());
    println!("paper: fleet 4.3%; top-5 apps 3.6-10.1%; SPEC near zero\n");
    rows
}

/// Figure 5b: fragmentation ratio (% of live heap), internal + external.
/// Returns `(name, total_pct, internal_pct)` rows.
pub fn fig5b(scale: &Scale) -> Vec<(String, f64, f64)> {
    println!("== Figure 5b: memory fragmentation ratio ==");
    let mut t = Table::new(vec![
        "workload",
        "paper %",
        "measured %",
        "external %",
        "internal %",
    ]);
    let paper = ["22.2", "25", "11.2", "30", "20", "42.5", "-", "-"];
    let mut rows = Vec::new();
    let specs = fig5_workloads();
    let frags = baseline_batch(&specs, scale, |r, _| r.fragmentation);
    for (i, (spec, f)) in specs.iter().zip(&frags).enumerate() {
        let total = f.ratio() * 100.0;
        let internal = if f.live_bytes > 0 {
            f.internal_bytes as f64 / f.live_bytes as f64 * 100.0
        } else {
            0.0
        };
        t.row(vec![
            spec.name.clone(),
            paper[i].to_string(),
            f2(total),
            f2(total - internal),
            f2(internal),
        ]);
        rows.push((spec.name.clone(), total, internal));
    }
    println!("{}", t.render());
    println!("paper: fleet 22.2% (18.8 external + 3.4 internal); apps 11.2-42.5%\n");
    rows
}

// ---------------------------------------------------------------------------
// Figures 6a / 6b
// ---------------------------------------------------------------------------

/// Figure 6a: breakdown of malloc cycles by allocator component.
/// Returns `(category, share)` pairs.
pub fn fig6a(scale: &Scale) -> Vec<(&'static str, f64)> {
    println!("== Figure 6a: malloc cycle breakdown ==");
    let breakdown = baseline_fleet_mix(scale, |_, tcm| tcm.cycles().breakdown());
    let paper = [
        (CycleCategory::CpuCache, 53.0),
        (CycleCategory::TransferCache, 3.0),
        (CycleCategory::CentralFreeList, 12.0),
        (CycleCategory::PageHeap, 3.0),
        (CycleCategory::Sampled, 4.0),
        (CycleCategory::Prefetch, 16.0),
        (CycleCategory::Other, 9.0),
    ];
    let mut t = Table::new(vec!["component", "paper %", "measured %"]);
    let mut rows = Vec::new();
    for (cat, paper_pct) in paper {
        let measured = breakdown
            .iter()
            .find(|(c, _)| *c == cat)
            .map_or(0.0, |(_, f)| f * 100.0);
        t.row(vec![cat.name().to_string(), f2(paper_pct), f2(measured)]);
        rows.push((cat.name(), measured));
    }
    println!("{}", t.render());
    println!("paper: CPUCache 53, Transfer 3, CFL 12, PageHeap 3, Sampled 4, Prefetch 16\n");
    rows
}

/// Figure 6b: fragmentation breakdown by source for fleet + top-5 apps.
/// Returns per-workload `[cpu, transfer, cfl, pageheap, internal]` shares.
pub fn fig6b(scale: &Scale) -> Vec<(String, [f64; 5])> {
    println!("== Figure 6b: fragmentation breakdown (% of total frag) ==");
    let mut specs = vec![profiles::fleet_mix()];
    specs.extend(profiles::production_workloads());
    let paper = [
        "fleet: CFL 29 / PageHeap 51 / Internal 15",
        "spanner: CFL 17 / PageHeap 64",
        "monarch: CFL 57 / PageHeap 12",
        "bigtable: CFL 58",
        "f1-query: CFL 36 / PageHeap 50",
        "disk: CFL 47 / PageHeap 39",
    ];
    let mut t = Table::new(vec![
        "workload", "CPUCache", "Transfer", "CFL", "PageHeap", "Internal",
    ]);
    let mut rows = Vec::new();
    let all_shares = baseline_batch(&specs, scale, |r, _| r.fragmentation.shares());
    for (spec, shares) in specs.iter().zip(&all_shares) {
        let shares = shares.map(|s| s * 100.0);
        t.row(vec![
            spec.name.clone(),
            f2(shares[0]),
            f2(shares[1]),
            f2(shares[2]),
            f2(shares[3]),
            f2(shares[4]),
        ]);
        rows.push((spec.name.clone(), shares));
    }
    println!("{}", t.render());
    println!("paper rows: {}\n", paper.join("; "));
    rows
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Figure 7: CDF of allocated objects and memory by size. Returns
/// `(count_below_1k, mem_below_1k, mem_above_8k, mem_above_256k)`.
pub fn fig7(scale: &Scale) -> (f64, f64, f64, f64) {
    println!("== Figure 7: distribution of allocated objects ==");
    // The >256 KiB tail is one allocation in ~200k: run long and merge
    // several seeds so the sampled tail is populated.
    let platform = chiplet();
    let jobs: Vec<RunJob> = scale
        .seeds
        .iter()
        .map(|&seed| RunJob {
            spec: profiles::fleet_mix(),
            platform: platform.clone(),
            tcm_cfg: TcmallocConfig::baseline(),
            dcfg: DriverConfig::new(scale.requests * 4, seed, &platform),
        })
        .collect();
    let profiles_by_seed = driver::run_batch(&scale.engine, jobs, |_, tcm| tcm.profile().clone())
        .unwrap_or_else(|e| panic!("figure 7 batch aborted: {e}"));
    let mut profile = wsc_telemetry::gwp::AllocationProfile::new();
    for p in &profiles_by_seed {
        profile.merge(p);
    }
    let tcm_profile = profile;
    let p = &tcm_profile;
    let count_1k = p.size_by_count.fraction_below(1 << 10);
    let mem_1k = p.size_by_bytes.fraction_below(1 << 10);
    let mem_8k = p.size_by_bytes.fraction_at_or_above(8 << 10);
    let mem_256k = p.size_by_bytes.fraction_at_or_above(256 << 10);
    let mut t = Table::new(vec!["statistic", "paper", "measured"]);
    t.row(vec![
        "objects < 1 KiB".into(),
        "98%".into(),
        f2(count_1k * 100.0) + "%",
    ]);
    t.row(vec![
        "memory < 1 KiB".into(),
        "28%".into(),
        f2(mem_1k * 100.0) + "%",
    ]);
    t.row(vec![
        "memory > 8 KiB".into(),
        "50%".into(),
        f2(mem_8k * 100.0) + "%",
    ]);
    t.row(vec![
        "memory > 256 KiB".into(),
        "22%".into(),
        f2(mem_256k * 100.0) + "%",
    ]);
    println!("{}", t.render());
    println!("(from the allocator's own 2 MiB-period sampled profile)\n");
    (count_1k, mem_1k, mem_8k, mem_256k)
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// Figure 8: object lifetime distribution by size, fleet vs SPEC. Returns
/// `(fleet_small_under_1ms, spec_under_1ms, fleet_diversity, spec_diversity)`
/// where diversity is the IQR ratio (p75/p25) of small-object lifetimes.
pub fn fig8(scale: &Scale) -> (f64, f64, f64, f64) {
    println!("== Figure 8: object lifetime x size (fleet vs SPEC) ==");
    // Densify sampling (64 KiB period instead of 2 MiB) so even the
    // allocation-light SPEC programs produce a usable lifetime profile.
    // Both runs are one engine batch; the histogram aggregation happens
    // inside each worker so only two (f64, f64) pairs cross threads.
    let platform = chiplet();
    let cfg = TcmallocConfig {
        sample_period_bytes: 64 << 10,
        ..TcmallocConfig::baseline()
    };
    let jobs: Vec<RunJob> = [profiles::fleet_mix(), profiles::spec_cpu(1)]
        .into_iter()
        .map(|spec| RunJob {
            spec,
            platform: platform.clone(),
            tcm_cfg: cfg,
            dcfg: DriverConfig {
                drain_at_end: true,
                ..DriverConfig::new(scale.requests * 2, 42, &platform)
            },
        })
        .collect();
    let stats = driver::run_batch(&scale.engine, jobs, |_, tcm| {
        let p = tcm.profile();
        // Aggregate small sizes (exp 3..=9, i.e. 8 B..1 KiB).
        let mut small = wsc_telemetry::LogHistogram::new();
        for e in 3..=9 {
            small.merge(p.lifetime_for_size_exp(e));
        }
        let under_1ms = small.fraction_below(1_000_000);
        // "Diversity" = lifetime mass in the *middle* decades (1 ms..1 s):
        // the fleet spreads across them; SPEC is bimodal (instant or
        // program-long) and has almost none.
        let middle = small.fraction_below(NS_PER_SEC) - small.fraction_below(1_000_000);
        (under_1ms, middle)
    })
    .unwrap_or_else(|e| panic!("figure 8 batch aborted: {e}"));
    let (fleet_short, fleet_mid) = stats[0];
    let (spec_short, spec_mid) = stats[1];
    let mut t = Table::new(vec!["metric", "fleet", "spec-cpu"]);
    t.row(vec![
        "small objects < 1 ms".into(),
        f2(fleet_short * 100.0) + "%",
        f2(spec_short * 100.0) + "%",
    ]);
    t.row(vec![
        "lifetime mass in 1 ms .. 1 s".into(),
        f2(fleet_mid * 100.0) + "%",
        f2(spec_mid * 100.0) + "%",
    ]);
    println!("{}", t.render());
    println!("paper: fleet lifetimes are diverse (46% of small objects < 1 ms,");
    println!("       mass spread across decades); SPEC is bimodal (near-0 or program-long)\n");
    (fleet_short, spec_short, fleet_mid, spec_mid)
}

// ---------------------------------------------------------------------------
// Figures 9a / 9b
// ---------------------------------------------------------------------------

/// Figure 9a: worker-thread fluctuation of a middle-tier service. Returns
/// `(min, mean, max)` thread counts.
pub fn fig9a(scale: &Scale) -> (f64, f64, f64) {
    println!("== Figure 9a: worker-thread count over time ==");
    // The paper's trace spans 48 h; the simulation compresses the diurnal
    // cycle so this run covers ~3 cycles.
    let mut spec = profiles::middle_tier_service();
    spec.threads.period_ns = NS_PER_SEC / 8;
    let platform = chiplet();
    let dcfg = DriverConfig {
        load_interval_ns: NS_PER_SEC / 200,
        ..DriverConfig::new(scale.requests * 2, 42, &platform)
    };
    let (r, _) = driver::run(&spec, &platform, TcmallocConfig::baseline(), &dcfg);
    let samples = r.threads_ts.resample(24);
    let line: Vec<String> = samples.iter().map(|&(_, v)| format!("{v:.0}")).collect();
    println!("thread count (24 samples): {}", line.join(" "));
    let (min, mean, max) = (
        r.threads_ts.min().unwrap_or(0.0),
        r.threads_ts.mean().unwrap_or(0.0),
        r.threads_ts.max().unwrap_or(0.0),
    );
    println!(
        "min {min:.0} / mean {mean:.1} / max {max:.0}  (paper: constant fluctuation from diurnal load and spikes)\n"
    );
    (min, mean, max)
}

/// Figure 9b: per-vCPU cache miss-ratio skew. Returns the miss ratio per
/// vCPU index (fraction of all misses).
pub fn fig9b(scale: &Scale) -> Vec<f64> {
    println!("== Figure 9b: per-vCPU cache miss ratio ==");
    let mut spec = profiles::middle_tier_service();
    // Compress the load cycle so the run covers several cycles.
    spec.threads.period_ns = NS_PER_SEC;
    spec.threads.base = 6.0;
    spec.threads.amplitude = 0.8;
    spec.threads.max = 16;
    let platform = chiplet();
    let dcfg = DriverConfig {
        load_interval_ns: NS_PER_SEC / 100,
        ..DriverConfig::new(scale.requests * 2, 42, &platform)
    };
    let (r, _) = driver::run(&spec, &platform, TcmallocConfig::baseline(), &dcfg);
    let total: u64 = r.percpu_misses.iter().sum();
    let ratios: Vec<f64> = r
        .percpu_misses
        .iter()
        .map(|&m| m as f64 / total.max(1) as f64)
        .collect();
    let mut t = Table::new(vec!["vCPU", "miss ratio"]);
    for (i, ratio) in ratios.iter().enumerate() {
        t.row(vec![i.to_string(), f3(*ratio)]);
    }
    println!("{}", t.render());
    println!("paper: vCPU 0 suffers the most misses; high-index vCPUs are idle\n");
    ratios
}

// ---------------------------------------------------------------------------
// Figure 10 (heterogeneous per-CPU caches)
// ---------------------------------------------------------------------------

/// Workloads in the Figure 10/14 and Table 1/2 rows (paper order), minus the
/// fleet row which runs through the fleet A/B framework.
fn eval_workloads() -> Vec<WorkloadSpec> {
    let mut v = profiles::production_workloads();
    v.extend(profiles::benchmark_workloads());
    v
}

/// Generic per-design evaluation: fleet A/B plus per-workload rows.
/// Returns `(fleet_comparison, rows)` with one `Comparison` per workload;
/// a workload named in `skip` is not run and gets a default row.
fn design_ab(
    control: TcmallocConfig,
    experiment: TcmallocConfig,
    scale: &Scale,
    skip: &[&str],
) -> (Comparison, Vec<(String, Comparison)>) {
    let fleet = try_run_fleet_ab(&scale.engine, control, experiment, &scale.fleet_config(11))
        .unwrap_or_else(|e| panic!("design A/B fleet arm aborted: {e}"))
        .fleet;
    let specs = eval_workloads();
    let skipped = |spec: &WorkloadSpec| skip.contains(&spec.name.as_str());
    let run: Vec<&WorkloadSpec> = specs.iter().filter(|s| !skipped(s)).collect();
    let mut measured = paired_ab(&run, &chiplet(), control, experiment, scale).into_iter();
    let rows = specs
        .iter()
        .map(|spec| {
            let c = if skipped(spec) {
                Comparison::default()
            } else {
                measured.next().expect("one comparison per workload run")
            };
            (spec.name.clone(), c)
        })
        .collect();
    (fleet, rows)
}

/// Figure 10: memory reduction from heterogeneous per-CPU caches.
/// Returns `(fleet_mem_pct, rows)` (negative = reduction).
pub fn fig10(scale: &Scale) -> (f64, Vec<(String, f64)>) {
    println!("== Figure 10: memory reduction, heterogeneous per-CPU caches ==");
    let base = TcmallocConfig::baseline();
    let exp = base.with_heterogeneous_percpu();
    let (fleet, rows) = design_ab(base, exp, scale, &["redis"]);
    let paper = [
        ("fleet", -1.94),
        ("spanner", -1.2),
        ("monarch", -2.45),
        ("bigtable", -1.5),
        ("f1-query", -0.58),
        ("disk", -1.0),
        ("redis", f64::NAN),
        ("data-pipeline", -2.66),
        ("image-processing", -2.27),
        ("tensorflow", -2.08),
    ];
    let mut t = Table::new(vec!["workload", "paper mem %", "measured mem %"]);
    t.row(vec![
        "fleet".into(),
        pct(paper[0].1),
        pct(fleet.memory_pct()),
    ]);
    let mut out = vec![("fleet".to_string(), fleet.memory_pct())];
    for (i, (name, c)) in rows.iter().enumerate() {
        let measured = if name == "redis" {
            "n/a (single-threaded)".to_string()
        } else {
            pct(c.memory_pct())
        };
        let paper_cell = if paper[i + 1].1.is_nan() {
            "omitted".to_string()
        } else {
            pct(paper[i + 1].1)
        };
        t.row(vec![name.clone(), paper_cell, measured]);
        out.push((name.clone(), c.memory_pct()));
    }
    println!("{}", t.render());
    println!("paper: fleet -1.94%; apps -0.58..-2.45%; benchmarks -2.08..-2.66%; Redis omitted\n");
    (fleet.memory_pct(), out)
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

/// Figure 11: intra vs inter cache-domain transfer latency. Returns the
/// measured ratio.
pub fn fig11(_scale: &Scale) -> f64 {
    println!("== Figure 11: cache-to-cache transfer latency (MLC-style) ==");
    let platform = chiplet();
    let m = measure(&platform, &LatencyModel::production());
    let inter = m.inter_domain_ns.expect("chiplet platform");
    let ratio = inter / m.intra_domain_ns;
    let mut t = Table::new(vec!["stratum", "paper", "measured ns"]);
    t.row(vec![
        "intra-cache-domain".into(),
        "~40 ns".into(),
        f2(m.intra_domain_ns),
    ]);
    t.row(vec![
        "inter-cache-domain".into(),
        "2.07x intra".into(),
        f2(inter),
    ]);
    println!("{}", t.render());
    println!("measured ratio: {ratio:.2}x (paper: 2.07x)\n");
    ratio
}

// ---------------------------------------------------------------------------
// Figure 13
// ---------------------------------------------------------------------------

/// Figure 13: span return rate vs live allocations for high-capacity
/// classes. Returns `(live_allocations, return_rate)` points.
pub fn fig13(scale: &Scale) -> Vec<(u32, f64)> {
    println!("== Figure 13: span return rate vs live allocations ==");
    // The paper plots the 16-byte class at fleet scale. At simulation scale
    // the span-level churn concentrates in the mid-capacity classes, so we
    // aggregate every class with capacity >= 4 and normalize occupancy to a
    // 512-object span like the paper's 16-byte class.
    let platform = chiplet();
    let mut buckets: Vec<(f64, u64)> = vec![(0.0, 0); 513];
    for spec in [
        profiles::monarch(),
        profiles::fleet_mix(),
        profiles::bigtable(),
    ] {
        let dcfg = DriverConfig::new(scale.requests * 2, 42, &platform);
        let (_, tcm) = driver::run(&spec, &platform, TcmallocConfig::baseline(), &dcfg);
        for cl in 0..tcm.table().num_classes() {
            let info = *tcm.table().info(cl);
            if info.objects_per_span < 4 {
                continue;
            }
            for (live, rate, count) in tcm.central(cl).obs.iter() {
                let norm = (live as u64 * 512 / info.objects_per_span as u64).min(512) as usize;
                buckets[norm].0 += rate * count as f64;
                buckets[norm].1 += count;
            }
        }
    }
    let mut t = Table::new(vec!["live allocations", "return rate %", "observations"]);
    let mut points = Vec::new();
    for edges in [0u32, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512].windows(2) {
        let (lo, hi) = (edges[0], edges[1]);
        let (mut rel, mut tot) = (0.0f64, 0u64);
        for a in lo.max(1)..=hi {
            rel += buckets[a as usize].0;
            tot += buckets[a as usize].1;
        }
        if tot == 0 {
            continue;
        }
        let rate = rel / tot as f64;
        t.row(vec![
            format!("{}..{}", lo.max(1), hi),
            f2(rate * 100.0),
            tot.to_string(),
        ]);
        points.push((hi, rate));
    }
    println!("{}", t.render());
    println!("paper: release probability falls monotonically with live allocations\n");
    points
}

// ---------------------------------------------------------------------------
// Table 1 (NUCA-aware transfer caches)
// ---------------------------------------------------------------------------

/// Prints a Table-1/Table-2 style table. Returns the fleet comparison and
/// per-workload comparisons.
fn print_design_table(
    title: &str,
    paper_note: &str,
    fleet: &Comparison,
    rows: &[(String, Comparison)],
    skip: &[&str],
    tlb: bool,
) {
    println!("== {title} ==");
    let mut t = Table::new(if tlb {
        vec![
            "workload", "thr %", "mem %", "CPI %", "walk% b", "walk% a", "miss b", "miss a",
        ]
    } else {
        vec![
            "workload", "thr %", "mem %", "CPI %", "MPKI b", "MPKI a", "", "",
        ]
    });
    let mut push = |name: &str, c: &Comparison| {
        if skip.contains(&name) {
            t.row(vec![
                name.into(),
                "/".into(),
                "/".into(),
                "/".into(),
                "/".into(),
                "/".into(),
            ]);
            return;
        }
        let (b, a) = if tlb {
            (c.control.dtlb_walk_pct, c.experiment.dtlb_walk_pct)
        } else {
            (c.control.llc_mpki, c.experiment.llc_mpki)
        };
        let (mb, ma) = (c.control.dtlb_miss_rate, c.experiment.dtlb_miss_rate);
        let mut row = vec![
            name.to_string(),
            pct(c.throughput_pct()),
            pct(c.memory_pct()),
            pct(c.cpi_pct()),
            f3(b),
            f3(a),
        ];
        if tlb {
            row.push(f3(mb));
            row.push(f3(ma));
        }
        t.row(row);
    };
    push("fleet", fleet);
    for (name, c) in rows {
        push(name, c);
    }
    println!("{}", t.render());
    println!("{paper_note}\n");
}

/// Table 1: NUCA-aware transfer caches. Returns `(fleet, rows)`.
pub fn table1(scale: &Scale) -> (Comparison, Vec<(String, Comparison)>) {
    let base = TcmallocConfig::baseline();
    let exp = base.with_nuca_transfer();
    let (fleet, rows) = design_ab(base, exp, scale, &["redis"]);
    print_design_table(
        "Table 1: NUCA-aware transfer caches",
        "paper: fleet thr +0.32%, mem +0.10%, CPI -0.57%, LLC MPKI 2.52->2.41;\n\
         apps thr +0.28..+1.72%; benchmarks +1.37..+3.80%; Redis skipped (single-threaded)",
        &fleet,
        &rows,
        &["redis"],
        false,
    );
    (fleet, rows)
}

// ---------------------------------------------------------------------------
// Figure 14 (span prioritization)
// ---------------------------------------------------------------------------

/// Figure 14: memory reduction from span prioritization.
/// Returns `(fleet_mem_pct, fleet_frag_pct, rows)`.
pub fn fig14(scale: &Scale) -> (f64, f64, Vec<(String, f64)>) {
    println!("== Figure 14: memory reduction, span prioritization ==");
    let base = TcmallocConfig::baseline();
    let exp = base.with_span_prioritization();
    let (fleet, rows) = design_ab(base, exp, scale, &[]);
    let mut t = Table::new(vec!["workload", "paper mem %", "measured mem %", "frag %"]);
    let paper = [
        ("fleet", -1.41),
        ("spanner", -0.8),
        ("monarch", -2.76),
        ("bigtable", -1.3),
        ("f1-query", -0.34),
        ("disk", -2.54),
        ("redis", -0.61),
        ("data-pipeline", -1.36),
        ("image-processing", -0.9),
        ("tensorflow", -1.0),
    ];
    t.row(vec![
        "fleet".into(),
        pct(paper[0].1),
        pct(fleet.memory_pct()),
        pct(fleet.frag_pct()),
    ]);
    let mut out = vec![("fleet".to_string(), fleet.memory_pct())];
    for (i, (name, c)) in rows.iter().enumerate() {
        t.row(vec![
            name.clone(),
            pct(paper[i + 1].1),
            pct(c.memory_pct()),
            pct(c.frag_pct()),
        ]);
        out.push((name.clone(), c.memory_pct()));
    }
    println!("{}", t.render());
    println!("paper: fleet -1.41%; monarch -2.76%; others -0.34..-2.54%\n");
    (fleet.memory_pct(), fleet.frag_pct(), out)
}

// ---------------------------------------------------------------------------
// Figure 15
// ---------------------------------------------------------------------------

/// Figure 15: pageheap in-use and fragmentation by component. Returns
/// `(filler_use_share, filler_frag_share)`.
pub fn fig15(scale: &Scale) -> (f64, f64) {
    println!("== Figure 15: pageheap component shares ==");
    let s = baseline_fleet_mix(scale, |_, tcm| tcm.pageheap().stats());
    let used = s.total_used_bytes().max(1) as f64;
    let free = s.total_free_bytes().max(1) as f64;
    let mut t = Table::new(vec!["component", "in-use %", "fragmentation %"]);
    t.row(vec![
        "HugeFiller".into(),
        f2(s.filler_used_bytes as f64 / used * 100.0),
        f2(s.filler_free_bytes as f64 / free * 100.0),
    ]);
    t.row(vec![
        "HugeRegion".into(),
        f2(s.region_used_bytes as f64 / used * 100.0),
        f2(s.region_free_bytes as f64 / free * 100.0),
    ]);
    t.row(vec![
        "HugeCache (+large)".into(),
        f2(s.large_used_bytes as f64 / used * 100.0),
        f2(s.cache_bytes as f64 / free * 100.0),
    ]);
    println!("{}", t.render());
    println!("paper: HugeFiller 83.6% of in-use memory, 94.4% of pageheap fragmentation\n");
    (
        s.filler_used_bytes as f64 / used,
        s.filler_free_bytes as f64 / free,
    )
}

// ---------------------------------------------------------------------------
// Figure 16
// ---------------------------------------------------------------------------

/// Figure 16: span return rate vs span capacity; returns the Spearman rank
/// correlation (paper: -0.75).
pub fn fig16(scale: &Scale) -> f64 {
    println!("== Figure 16: span return rate vs span capacity ==");
    // Aggregate span telemetry across the production workloads.
    let platform = chiplet();
    let mut per_class: Vec<(f64, u64, u64)> = Vec::new(); // (capacity, created, released)
    for spec in profiles::production_workloads() {
        let dcfg = DriverConfig::new(scale.requests, 42, &platform);
        let (_, tcm) = driver::run(&spec, &platform, TcmallocConfig::baseline(), &dcfg);
        for cl in 0..tcm.table().num_classes() {
            let c = tcm.central(cl);
            if c.spans_created == 0 {
                continue;
            }
            let cap = tcm.table().info(cl).objects_per_span as f64;
            match per_class.iter_mut().find(|(x, _, _)| *x == cap) {
                Some(e) => {
                    e.1 += c.spans_created;
                    e.2 += c.spans_released;
                }
                None => per_class.push((cap, c.spans_created, c.spans_released)),
            }
        }
    }
    per_class.retain(|&(_, created, _)| created >= 10);
    per_class.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let xs: Vec<f64> = per_class.iter().map(|&(c, _, _)| c).collect();
    let ys: Vec<f64> = per_class
        .iter()
        .map(|&(_, cr, rel)| rel as f64 / cr as f64)
        .collect();
    let rho = wsc_telemetry::stats::spearman(&xs, &ys).unwrap_or(0.0);
    let mut t = Table::new(vec!["span capacity", "return rate %", "spans"]);
    for (i, &(cap, created, _)) in per_class.iter().enumerate() {
        t.row(vec![
            format!("{cap:.0}"),
            f2(ys[i] * 100.0),
            created.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Spearman rho: {rho:.2} (paper: -0.75; strong negative correlation)\n");
    rho
}

// ---------------------------------------------------------------------------
// Table 2 + Figure 17 (lifetime-aware hugepage filler)
// ---------------------------------------------------------------------------

/// Table 2: lifetime-aware hugepage filler. Returns `(fleet, rows)`.
pub fn table2(scale: &Scale) -> (Comparison, Vec<(String, Comparison)>) {
    let base = TcmallocConfig::baseline();
    let exp = base.with_lifetime_filler();
    let (fleet, rows) = design_ab(base, exp, scale, &[]);
    print_design_table(
        "Table 2: lifetime-aware hugepage filler",
        "paper: fleet thr +1.02%, mem -0.82%, CPI -6.75%, dTLB walk 9.16->6.22%;\n\
         apps thr +0.38..+6.29% (disk best, monarch next); benchmarks +1.05..+3.91% (incl. Redis)",
        &fleet,
        &rows,
        &[],
        true,
    );
    (fleet, rows)
}

/// Figure 17: hugepage coverage and normalized dTLB miss rate from the
/// Table 2 experiment. Returns `(cov_before, cov_after, norm_miss_after)`.
pub fn fig17(fleet: &Comparison, rows: &[(String, Comparison)]) -> (f64, f64, f64) {
    println!("== Figure 17: hugepage coverage & dTLB misses ==");
    // Coverage averaged over fleet + workloads (the paper reports the
    // application-average).
    let mut cov_b = fleet.control.hugepage_coverage;
    let mut cov_a = fleet.experiment.hugepage_coverage;
    let mut miss_b = fleet.control.dtlb_miss_rate;
    let mut miss_a = fleet.experiment.dtlb_miss_rate;
    for (_, c) in rows {
        cov_b += c.control.hugepage_coverage;
        cov_a += c.experiment.hugepage_coverage;
        miss_b += c.control.dtlb_miss_rate;
        miss_a += c.experiment.dtlb_miss_rate;
    }
    let n = (rows.len() + 1) as f64;
    let (cov_b, cov_a) = (cov_b / n, cov_a / n);
    let norm_miss = if miss_b > 0.0 { miss_a / miss_b } else { 1.0 };
    let mut t = Table::new(vec!["metric", "paper", "measured"]);
    t.row(vec![
        "hugepage coverage baseline".into(),
        "54.4%".into(),
        f2(cov_b * 100.0) + "%",
    ]);
    t.row(vec![
        "hugepage coverage lifetime-aware".into(),
        "56.2%".into(),
        f2(cov_a * 100.0) + "%",
    ]);
    t.row(vec![
        "normalized dTLB miss rate".into(),
        "1.00 -> 0.839".into(),
        format!("1.00 -> {norm_miss:.3}"),
    ]);
    println!("{}", t.render());
    println!("paper: coverage 54.4 -> 56.2%; dTLB misses -8.1%\n");
    (cov_b, cov_a, norm_miss)
}

// ---------------------------------------------------------------------------
// §4.5 combined
// ---------------------------------------------------------------------------

/// §4.5: all four designs combined, plus the multiplicative rollout
/// composition of the individual fleet deltas.
/// Returns `(fleet_combined, rollout_estimate)`.
pub fn combined(scale: &Scale, singles: &[Comparison]) -> (Comparison, rollout::RolloutEstimate) {
    println!("== Section 4.5: all four designs combined ==");
    let base = TcmallocConfig::baseline();
    let exp = TcmallocConfig::optimized();
    let (fleet, rows) = design_ab(base, exp, scale, &[]);
    print_design_table(
        "combined A/B (baseline vs fully optimized)",
        "paper (end-to-end estimate): fleet +1.4% throughput, -3.4% RAM;\n\
         top-5 apps +0.7..+8.1% throughput, -1.0..-6.3% memory",
        &fleet,
        &rows,
        &[],
        true,
    );
    let est = rollout::combine(singles.iter());
    println!(
        "rollout composition of the four independent fleet deltas: thr {:+.2}%, mem {:+.2}% (paper: +1.4%, -3.4%)\n",
        est.throughput_pct, est.memory_pct
    );
    (fleet, est)
}

/// Robustness under injected kernel failure: the Fig. 7 fleet mix driven
/// through every named fault storm (whole-run window), compared against a
/// healthy reference run with the same seed. `WSC_FAULT_STORM=<name>`
/// restricts the sweep to one catalogued storm.
///
/// Returns `(storm, throughput relative to healthy %, hugepage coverage,
/// refused allocations)` per storm.
pub fn faults(scale: &Scale) -> Vec<(String, f64, f64, u64)> {
    use wsc_sim_os::faults::FaultPlan;
    println!("== Fault storms: fleet mix under injected kernel failure ==");
    let platform = chiplet();
    let filter = std::env::var("WSC_FAULT_STORM").ok();
    let names: Vec<&str> = FaultPlan::NAMED
        .iter()
        .copied()
        .filter(|n| filter.as_deref().is_none_or(|f| f == *n))
        .collect();
    assert!(
        !names.is_empty(),
        "WSC_FAULT_STORM={filter:?} names no catalogued storm (known: {})",
        FaultPlan::NAMED.join(", ")
    );
    let seed = scale.seeds[0];
    let cfg_for = |name: Option<&str>| {
        let base = TcmallocConfig::baseline();
        match name {
            None => base,
            Some(n) => base.with_os_faults(
                FaultPlan::named(n, seed)
                    .expect("catalogued storm")
                    .with_storm(0, u64::MAX),
            ),
        }
    };
    let jobs: Vec<RunJob> = std::iter::once(None)
        .chain(names.iter().map(|&n| Some(n)))
        .map(|name| RunJob {
            spec: profiles::fleet_mix(),
            platform: platform.clone(),
            tcm_cfg: cfg_for(name),
            dcfg: DriverConfig::new(scale.requests, seed, &platform),
        })
        .collect();
    let rows = driver::run_batch(&scale.engine, jobs, |r, tcm| {
        let s = tcm.fault_stats();
        (
            r.throughput,
            tcm.hugepage_coverage(),
            r.failed_allocs,
            s.enomem_injected + s.huge_denied + s.subrelease_failed + s.latency_spikes,
        )
    })
    .unwrap_or_else(|e| panic!("fault-storm batch aborted: {e}"));
    let healthy = rows[0].0;
    let mut t = Table::new(vec![
        "storm",
        "throughput vs healthy",
        "hugepage coverage",
        "refused allocs",
        "faults injected",
    ]);
    let mut out = Vec::new();
    for (name, &(thr, cov, refused, injected)) in std::iter::once("healthy")
        .chain(names.iter().copied())
        .zip(&rows)
    {
        let rel = thr / healthy * 100.0;
        t.row(vec![
            name.into(),
            f2(rel) + "%",
            f3(cov),
            refused.to_string(),
            injected.to_string(),
        ]);
        out.push((name.to_string(), rel, cov, refused));
    }
    println!("{}", t.render());
    println!("every storm run completes and stays serviceable: refusals degrade the request, never the run\n");
    out
}

/// Cross-thread frees: one producer→consumer pipeline and one thread-churn
/// schedule, each replayed under both [`FreeArm`]s. The schedule is data,
/// so the arms see identical operations and every delta in the table is
/// mechanism — one CAS per atomic-list push plus an adoption lock per
/// drained list — in simulated time.
///
/// Returns `(scenario/arm, outcome)` per replay, owner-only first.
pub fn contention(scale: &Scale) -> Vec<(String, ReplayOutcome)> {
    let ops = scale.requests as usize;
    println!("== Cross-thread frees: both free arms on identical schedules, {ops} ops ==");
    let scenarios = [
        (
            "pipeline",
            Schedule::producer_consumer(0xC0B7E47, &[0, 1, 2], &[8, 9, 10], ops),
        ),
        ("churn", Schedule::thread_churn(0xC1A5B, 16, ops)),
    ];
    let mut t = Table::new(vec![
        "scenario",
        "free arm",
        "remote queued",
        "drained",
        "contention sim-ns",
        "total sim-ns",
        "sim time vs owner-only",
    ]);
    let mut out = Vec::new();
    for (name, sched) in &scenarios {
        let runs = [FreeArm::OwnerOnly, FreeArm::AtomicList].map(|arm| {
            // Two LLC domains, producers and consumers on opposite sides.
            let platform = Platform::chiplet("contention", 1, 2, 4, 2);
            let cfg = TcmallocConfig::optimized().with_free_arm(arm);
            (arm, replay(cfg, platform, sched))
        });
        let owner_total = runs[0].1.total_ns;
        for (arm, r) in runs {
            t.row(vec![
                (*name).into(),
                arm.name().into(),
                r.queued.to_string(),
                r.drained.to_string(),
                format!("{:.0}", r.contention_ns),
                format!("{:.0}", r.total_ns),
                f3(r.total_ns / owner_total) + "x",
            ]);
            out.push((format!("{name}/{}", arm.name()), r));
        }
    }
    println!("{}", t.render());
    out
}

// ---------------------------------------------------------------------------
// Ablations (§4.3 "L = 8 lists are sufficient", §4.4 "C = 16", §5 NUMA)
// ---------------------------------------------------------------------------

/// Metric ablations over the paper's design constants. Returns
/// `(label, throughput_pct, memory_pct)` rows.
pub fn ablations(scale: &Scale) -> Vec<(String, f64, f64)> {
    println!("== Ablations: design constants ==");
    let platform = chiplet();
    let base = TcmallocConfig::baseline();
    let mut rows = Vec::new();
    let mut run = |label: String, spec: &WorkloadSpec, exp: TcmallocConfig| {
        let c = &paired_ab(&[spec], &platform, base, exp, scale)[0];
        rows.push((label, c.throughput_pct(), c.memory_pct()));
    };

    // L: central-free-list lists (monarch has the heaviest span churn).
    for lists in [1usize, 2, 4, 8, 16] {
        let mut exp = base;
        exp.cfl_lists = lists;
        run(format!("cfl-lists L={lists}"), &profiles::monarch(), exp);
    }
    // C: lifetime capacity threshold (disk is the paper's biggest winner).
    for c_thr in [2u32, 8, 16, 64, 256] {
        let mut exp = base.with_lifetime_filler();
        exp.pageheap.capacity_threshold = c_thr;
        run(format!("lifetime C={c_thr}"), &profiles::disk(), exp);
    }
    // Transfer sharding: per-LLC-domain (§4.2) vs per-NUMA-node (§5).
    run(
        "sharding=domain".into(),
        &profiles::disk(),
        base.with_nuca_transfer(),
    );
    run(
        "sharding=node".into(),
        &profiles::disk(),
        base.with_numa_transfer(),
    );

    let mut t = Table::new(vec!["ablation", "thr %", "mem %"]);
    for (label, thr, mem) in &rows {
        t.row(vec![label.clone(), pct(*thr), pct(*mem)]);
    }
    println!("{}", t.render());
    println!(
        "paper: L = 8 suffices (§4.3); C = 16 is acceptable (§4.4);\n\
              NUMA-node sharding is the §5 extension\n"
    );
    rows
}

// ---------------------------------------------------------------------------
// Fleet survey (the streaming 10⁵-machine engine)
// ---------------------------------------------------------------------------

/// Master seed of the streaming fleet survey (shared by the parent and
/// every shard child, so spans fold the same fleet).
pub const SURVEY_SEED: u64 = 0xF1EE7;

/// If this process is a shard child (`WSC_SHARD` set by a parent), folds
/// this shard's leaf-aligned survey span, emits the framed summary payload
/// on stdout, and returns `true` — the caller must then exit without doing
/// anything else. Binaries that fan out shard processes call this first
/// thing in `main`.
///
/// The child rebuilds its configuration from the environment
/// (`REPRO_SCALE`, `WSC_THREADS`, and the `WSC_SURVEY_*` sizing pins),
/// which the parent sets explicitly when spawning, so parent and children
/// always agree on the fold tree. [`ShardChild`]'s fault hooks bracket the
/// fold so `WSC_SHARD_FAULT` chaos plans strike at the real protocol
/// points; an injected nonzero exit terminates the process here.
pub fn shard_child_main() -> bool {
    let Some(child) = ShardChild::from_env() else {
        return false;
    };
    child.preflight();
    let scale = Scale::from_env();
    let cfg = scale.survey_config(SURVEY_SEED);
    let role = child.role;
    let span = wsc_parallel::process_shard_span(cfg.machines, role.shard, role.shards);
    let summary = wsc_fleet::experiment::try_run_fleet_survey_span(
        &scale.engine,
        TcmallocConfig::baseline(),
        TcmallocConfig::optimized(),
        &cfg,
        span,
    )
    .unwrap_or_else(|e| panic!("survey shard {role} aborted: {e}"));
    let code = child.emit(&summary.encode());
    if code != 0 {
        std::process::exit(code);
    }
    true
}

/// Computes the fleet-survey summary at `scale`, either in-process
/// (`shards <= 1`) or by fanning out `shards` supervised child processes
/// that each fold one leaf-aligned span and stream their checksummed
/// summary back over a pipe. Byte-identical either way — including under
/// injected shard crashes, as long as every span recovers under the
/// default supervision policy ([`SupervisorConfig::default`]).
pub fn fleet_summary(scale: &Scale, shards: usize) -> CellSummary {
    fleet_summary_supervised(scale, shards, &SupervisorConfig::default())
}

/// [`fleet_summary`] with an explicit supervision policy. Children inherit
/// this process's environment, so a `WSC_SHARD_FAULT` chaos plan set on the
/// parent reaches them.
///
/// Lost spans degrade gracefully: the merged summary covers the surviving
/// spans exactly and [`CellSummary::note_uncovered`] records the lost
/// machines, so `coverage` reports the true surveyed fraction.
fn fleet_summary_supervised(scale: &Scale, shards: usize, sup: &SupervisorConfig) -> CellSummary {
    let cfg = scale.survey_config(SURVEY_SEED);
    if shards <= 1 {
        return wsc_fleet::experiment::try_run_fleet_survey(
            &scale.engine,
            TcmallocConfig::baseline(),
            TcmallocConfig::optimized(),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("fleet survey aborted: {e}"))
        .summary;
    }
    let exe = std::env::current_exe().expect("own executable path");
    // Pin every knob the child derives its fold tree from: scale name,
    // thread budget, and the survey sizing (which may itself have come
    // from env overrides in this process — children must see the same
    // effective values, not re-derive their own).
    let env = [
        ("REPRO_SCALE".to_string(), scale.name.to_string()),
        (
            "WSC_THREADS".to_string(),
            scale.engine.threads().to_string(),
        ),
        (
            crate::scale::SURVEY_MACHINES_ENV.to_string(),
            cfg.machines.to_string(),
        ),
        (
            crate::scale::SURVEY_REQUESTS_ENV.to_string(),
            cfg.requests_per_machine.to_string(),
        ),
        (
            crate::scale::SURVEY_POPULATION_ENV.to_string(),
            cfg.population.to_string(),
        ),
    ];
    let fold = supervisor::run_supervised(
        &exe,
        &["fleet".to_string()],
        &env,
        shards,
        cfg.machines,
        sup,
    );
    let mut acc = CellSummary::new();
    for b in &fold.blocks {
        let part = CellSummary::decode(&b.payload)
            .unwrap_or_else(|e| panic!("shard {} payload malformed: {e}", b.role));
        acc.merge(&part);
    }
    for f in &fold.failures {
        eprintln!(
            "fleet survey: machines [{}, {}) lost after {} attempts: {}",
            f.span.lo, f.span.hi, f.attempts, f.error
        );
        acc.note_uncovered((f.span.hi - f.span.lo) as u64);
    }
    acc
}

/// The streaming fleet survey: 50%-wave rollout of the optimized allocator
/// across the surveyed fleet, folded online into a constant-size summary.
/// Prints a per-metric table (not-yet-enrolled control vs enrolled
/// experiment machines) and returns the fleet comparison plus the summary.
///
/// Everything printed derives from the folded summary alone, so stdout is
/// byte-identical whether the fold ran serially, threaded, or sharded
/// across processes under `policy` (`repro --supervise`).
pub fn fleet(scale: &Scale, shards: usize, policy: &SupervisorConfig) -> (Comparison, CellSummary) {
    let cfg = scale.survey_config(SURVEY_SEED);
    println!(
        "== Fleet survey: {} machines, {} binaries, rollout 50% wave ==",
        cfg.machines, cfg.population
    );
    let summary = fleet_summary_supervised(scale, shards, policy);
    let fleet = summary.fleet();
    let mut t = Table::new(vec!["metric", "control", "experiment", "delta %"]);
    t.row(vec![
        "throughput (req/cpu-s)".into(),
        f2(fleet.control.throughput),
        f2(fleet.experiment.throughput),
        pct(fleet.throughput_pct()),
    ]);
    t.row(vec![
        "resident bytes".into(),
        f2(fleet.control.memory_bytes),
        f2(fleet.experiment.memory_bytes),
        pct(fleet.memory_pct()),
    ]);
    t.row(vec![
        "cpi".into(),
        f3(fleet.control.cpi),
        f3(fleet.experiment.cpi),
        pct(fleet.cpi_pct()),
    ]);
    t.row(vec![
        "fragmentation ratio".into(),
        f3(fleet.control.frag_ratio),
        f3(fleet.experiment.frag_ratio),
        pct(fleet.frag_pct()),
    ]);
    println!("{}", t.render());
    println!(
        "machines {} (control {}, experiment {}) | resident samples {}",
        summary.cells,
        summary.control.metrics[0].count(),
        summary.experiment.metrics[0].count(),
        summary.resident.samples()
    );
    println!(
        "coverage {:.2}% ({}/{} machines)\n",
        summary.coverage.fraction() * 100.0,
        summary.coverage.folded(),
        summary.coverage.planned()
    );
    (fleet, summary)
}

// ---------------------------------------------------------------------------
// The registry `repro` dispatches from
// ---------------------------------------------------------------------------

/// What one `repro` invocation carries from experiment to experiment.
#[derive(Debug)]
pub struct Run {
    /// Scale tier and engine of every experiment in the run.
    pub scale: Scale,
    /// Process shards for the `fleet` survey (`--shards`).
    pub shards: usize,
    /// Shard supervision policy (`--supervise`).
    pub policy: SupervisorConfig,
    /// The single-design fleet deltas gathered so far (Figures 10 and 14,
    /// Tables 1 and 2), which `combined` composes per §4.5.
    singles: Vec<Comparison>,
    /// Table 2's result, which Figure 17 plots.
    table2: Option<(Comparison, Vec<(String, Comparison)>)>,
}

impl Run {
    /// A run that has gathered nothing yet.
    pub fn new(scale: Scale, shards: usize, policy: SupervisorConfig) -> Self {
        Self {
            scale,
            shards,
            policy,
            singles: Vec::new(),
            table2: None,
        }
    }

    /// Table 2's result, computed at most once per run.
    fn table2(&mut self) -> &(Comparison, Vec<(String, Comparison)>) {
        let scale = &self.scale;
        self.table2.get_or_insert_with(|| table2(scale))
    }
}

/// One experiment `repro` can be asked for.
#[derive(Debug)]
pub struct Experiment {
    /// The id on the command line.
    pub id: &'static str,
    /// Whether `repro all` includes it.
    pub in_all: bool,
    /// Prints the experiment's table, leaving in the [`Run`] what later
    /// experiments build on.
    pub run: fn(&mut Run),
}

/// A throughput- and CPI-neutral comparison carrying only a memory delta:
/// what Figures 10 and 14, which report memory alone, hand the rollout
/// composition.
fn memory_only(memory_pct: f64) -> Comparison {
    let arm = |memory_bytes| MetricSet {
        memory_bytes,
        throughput: 100.0,
        cpi: 1.0,
        ..MetricSet::default()
    };
    Comparison {
        control: arm(100.0),
        experiment: arm(100.0 + memory_pct),
    }
}

/// An experiment `repro all` includes.
const fn in_all(id: &'static str, run: fn(&mut Run)) -> Experiment {
    Experiment {
        id,
        in_all: true,
        run,
    }
}

/// Every experiment, in the order `repro all` runs them. `fleet` is
/// requestable by name but not part of `all`: at warehouse scale it would
/// dominate the whole reproduction run.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "fleet",
        in_all: false,
        run: |r| _ = fleet(&r.scale, r.shards, &r.policy),
    },
    in_all("fig3", |r| _ = fig3(&r.scale)),
    in_all("fig4", |r| _ = fig4(&r.scale)),
    in_all("fig5a", |r| _ = fig5a(&r.scale)),
    in_all("fig5b", |r| _ = fig5b(&r.scale)),
    in_all("fig6a", |r| _ = fig6a(&r.scale)),
    in_all("fig6b", |r| _ = fig6b(&r.scale)),
    in_all("fig7", |r| _ = fig7(&r.scale)),
    in_all("fig8", |r| _ = fig8(&r.scale)),
    in_all("fig9a", |r| _ = fig9a(&r.scale)),
    in_all("fig9b", |r| _ = fig9b(&r.scale)),
    in_all("fig10", |r| {
        let (fleet_mem, _) = fig10(&r.scale);
        r.singles.push(memory_only(fleet_mem));
    }),
    in_all("fig11", |r| _ = fig11(&r.scale)),
    in_all("fig13", |r| _ = fig13(&r.scale)),
    in_all("table1", |r| {
        let (fleet, _) = table1(&r.scale);
        r.singles.push(fleet);
    }),
    in_all("fig14", |r| {
        let (fleet_mem, _, _) = fig14(&r.scale);
        r.singles.push(memory_only(fleet_mem));
    }),
    in_all("fig15", |r| _ = fig15(&r.scale)),
    in_all("fig16", |r| _ = fig16(&r.scale)),
    // Asking for Table 2 prints it, even if Figure 17 already computed it.
    in_all("table2", |r| {
        let result = table2(&r.scale);
        r.singles.push(result.0);
        r.table2 = Some(result);
    }),
    in_all("fig17", |r| {
        let (fleet, rows) = r.table2();
        fig17(fleet, rows);
    }),
    in_all("combined", |r| _ = combined(&r.scale, &r.singles)),
    in_all("ablations", |r| _ = ablations(&r.scale)),
    in_all("faults", |r| _ = faults(&r.scale)),
    in_all("contention", |r| _ = contention(&r.scale)),
];

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn fig3_matches_paper_shape() {
        let (c50, m50) = fig3(&Scale::quick());
        assert!((c50 - 0.50).abs() < 0.08);
        assert!((m50 - 0.65).abs() < 0.08);
    }

    #[test]
    fn fig11_matches_paper_ratio() {
        let ratio = fig11(&Scale::quick());
        assert!((ratio - 2.07).abs() < 1e-9);
    }

    /// The docs and the registry name the same experiments: every
    /// `` `repro <id>` `` a document shows is one `repro` accepts, and every
    /// id it accepts is shown somewhere.
    #[test]
    fn docs_and_registry_name_the_same_ids() {
        let docs = [
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
            ("README.md", include_str!("../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ];
        let known = |id: &str| id == "all" || REGISTRY.iter().any(|e| e.id == id);
        let mut named = std::collections::BTreeSet::new();
        for (file, text) in docs {
            for span in text.split("`repro ").skip(1) {
                let command = span.split('`').next().unwrap();
                let mut words = command.split_whitespace();
                while let Some(word) = words.next() {
                    if word.starts_with("--") {
                        // Every flag takes a value, inline or as the next word.
                        if !word.contains('=') {
                            words.next();
                        }
                    } else {
                        assert!(
                            known(word),
                            "{file}: `repro {command}` names unknown {word:?}"
                        );
                        named.insert(word);
                    }
                }
            }
        }
        for e in REGISTRY {
            assert!(named.contains(e.id), "no document shows `repro {}`", e.id);
        }
    }
}
