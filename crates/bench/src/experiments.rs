//! One reproduction function per table/figure of the paper's evaluation;
//! the five §4 A/B experiments are rows of one table, [`DESIGNS`], run by
//! one method, [`Run::design`], against baseline arms the [`Run`] shares.
//!
//! Each function prints a `paper vs measured` table and returns the key
//! measured values so tests can assert the *shape* criteria from DESIGN.md:
//! who wins, by roughly what factor, in the same ordering across workloads.

use wsc_fleet::experiment::{arm, try_run_fleet_arm, CellSummary, Comparison, MetricSet};
use wsc_fleet::population::Population;
use wsc_fleet::report::{pct, Table};
use wsc_fleet::rollout;
use wsc_parallel::supervisor::{self, ShardChild, SupervisorConfig};
use wsc_sim_hw::cost::{AllocPath, CostModel};
use wsc_sim_hw::latency::{measure, LatencyModel};
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::{Clock, NS_PER_SEC};
use wsc_tcmalloc::pageheap::PageHeapStats;
use wsc_tcmalloc::stats::CycleCategory;
use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
use wsc_workload::driver::{self, DriverConfig, RunJob};
use wsc_workload::{profiles, WorkloadSpec};

use crate::scale::Scale;
use std::collections::BTreeMap;

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

/// Seed of the single-configuration characterization runs (Figures 5, 6,
/// 15 and 16).
const BASELINE_SEED: u64 = 42;

/// One run of the characterization batch: what Figures 5, 6, 15 and 16
/// read of the run and of the allocator it leaves.
#[derive(Clone, Debug)]
struct Characterized {
    report: driver::RunReport,
    /// Fraction of allocator time per category (Figure 6a).
    cycles: Vec<(CycleCategory, f64)>,
    /// Pageheap component usage (Figure 15).
    pageheap: PageHeapStats,
    /// `(span capacity, spans created, spans released)` of each size
    /// class, in class order (Figure 16).
    classes: Vec<(u32, u64, u64)>,
}

/// Runs [`fig5_workloads`] at baseline config and [`BASELINE_SEED`] as one
/// engine batch; only what [`Characterized`] keeps crosses threads. Results
/// are in `fig5_workloads` order regardless of thread count.
fn characterize(scale: &Scale) -> Vec<Characterized> {
    let platform = chiplet();
    let jobs = fig5_workloads()
        .into_iter()
        .map(|spec| RunJob {
            spec,
            platform: platform.clone(),
            tcm_cfg: TcmallocConfig::baseline(),
            dcfg: DriverConfig::new(scale.requests, BASELINE_SEED, &platform),
        })
        .collect();
    driver::run_batch(&scale.engine, jobs, |r, tcm| Characterized {
        report: r.clone(),
        cycles: tcm.cycles().breakdown(),
        pageheap: tcm.pageheap().stats(),
        classes: (0..tcm.table().num_classes())
            .map(|cl| (tcm.table().info(cl).objects_per_span, tcm.central(cl)))
            .map(|(cap, c)| (cap, c.spans_created, c.spans_released))
            .collect(),
    })
    .unwrap_or_else(|e| panic!("characterization batch aborted: {e}"))
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

/// The characterization batch's workloads (Figures 5/6): the fleet mix,
/// the top-5 production apps, then two SPEC programs.
fn fig5_workloads() -> Vec<WorkloadSpec> {
    let mut v = vec![profiles::fleet_mix()];
    v.extend(profiles::production_workloads());
    v.push(profiles::spec_cpu(0));
    v.push(profiles::spec_cpu(1));
    v
}

/// Figure 5a: % of cycles spent in malloc. Returns `(name, pct)` rows.
pub fn fig5a(r: &mut Run) -> Vec<(String, f64)> {
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
    for (i, c) in r.characterization().iter().enumerate() {
        let name = &c.report.workload;
        let measured = c.report.malloc_frac * 100.0;
        t.row(vec![name.clone(), format!("~{}", paper[i].1), f2(measured)]);
        rows.push((name.clone(), measured));
    }
    println!("{}", t.render());
    println!("paper: fleet 4.3%; top-5 apps 3.6-10.1%; SPEC near zero\n");
    rows
}

/// Figure 5b: fragmentation ratio (% of live heap), internal + external.
/// Returns `(name, total_pct, internal_pct)` rows.
pub fn fig5b(r: &mut Run) -> Vec<(String, f64, f64)> {
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
    for (i, c) in r.characterization().iter().enumerate() {
        let (name, f) = (&c.report.workload, &c.report.fragmentation);
        let total = f.ratio() * 100.0;
        let internal = if f.live_bytes > 0 {
            f.internal_bytes as f64 / f.live_bytes as f64 * 100.0
        } else {
            0.0
        };
        t.row(vec![
            name.clone(),
            paper[i].to_string(),
            f2(total),
            f2(total - internal),
            f2(internal),
        ]);
        rows.push((name.clone(), total, internal));
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
pub fn fig6a(r: &mut Run) -> Vec<(&'static str, f64)> {
    println!("== Figure 6a: malloc cycle breakdown ==");
    let breakdown = &r.characterization()[0].cycles;
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
pub fn fig6b(r: &mut Run) -> Vec<(String, [f64; 5])> {
    println!("== Figure 6b: fragmentation breakdown (% of total frag) ==");
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
    // The fleet mix and the production apps: the batch minus SPEC.
    let apps = profiles::production_workloads().len();
    for c in &r.characterization()[..=apps] {
        let name = &c.report.workload;
        let shares = c.report.fragmentation.shares().map(|s| s * 100.0);
        t.row(vec![
            name.clone(),
            f2(shares[0]),
            f2(shares[1]),
            f2(shares[2]),
            f2(shares[3]),
            f2(shares[4]),
        ]);
        rows.push((name.clone(), shares));
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
    let mut profile = wsc_telemetry::gwp::AllocationProfile::default();
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
    for (statistic, paper, measured) in [
        ("objects < 1 KiB", "98%", count_1k),
        ("memory < 1 KiB", "28%", mem_1k),
        ("memory > 8 KiB", "50%", mem_8k),
        ("memory > 256 KiB", "22%", mem_256k),
    ] {
        t.row(vec![
            statistic.into(),
            paper.into(),
            f2(measured * 100.0) + "%",
        ]);
    }
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
        let mut small = wsc_telemetry::LogHistogram::default();
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
// The §4 redesigns: Figures 10 and 14, Tables 1 and 2, §4.5
// ---------------------------------------------------------------------------

/// Workloads in the Figure 10/14 and Table 1/2 rows (paper order), minus the
/// fleet row which runs through the fleet A/B framework.
fn eval_workloads() -> Vec<WorkloadSpec> {
    let mut v = profiles::production_workloads();
    v.extend(profiles::benchmark_workloads());
    v
}

/// `tcm_cfg`'s arm over `specs` on the [`chiplet`], at the scale's requests
/// and seeds: one metric set per workload, each the mean over the seeds.
fn chiplet_arm(scale: &Scale, specs: &[&WorkloadSpec], tcm_cfg: TcmallocConfig) -> Vec<MetricSet> {
    arm(
        &scale.engine,
        specs,
        &chiplet(),
        tcm_cfg,
        scale.requests,
        &scale.seeds,
    )
    .unwrap_or_else(|e| panic!("A/B arm aborted: {e}"))
}

/// `tcm_cfg`'s fleet arm at the scale: the cycle-weighted means over the
/// fleet that master seed 11 samples, the same fleet for every arm.
fn fleet_arm(scale: &Scale, tcm_cfg: TcmallocConfig) -> MetricSet {
    try_run_fleet_arm(&scale.engine, tcm_cfg, &scale.fleet_config(11))
        .unwrap_or_else(|e| panic!("fleet A/B arm aborted: {e}"))
        .weighted_means()
}

/// One §4 redesign evaluated as a paired A/B: the baseline allocator
/// against the baseline with the design applied, over the fleet and the
/// nine workloads of the paper's per-workload rows.
#[derive(Debug)]
pub struct Design {
    /// The `repro` id.
    pub id: &'static str,
    /// The title of the printed table.
    pub title: &'static str,
    /// The experiment arm, built from the baseline control.
    pub arm: fn(TcmallocConfig) -> TcmallocConfig,
    /// Workloads the design is not run on.
    pub skip: &'static [&'static str],
    /// What the paper reports, as `(row, throughput %, memory %)`; `None`
    /// where it reports no value, and a row left out reports neither.
    pub paper: &'static [(&'static str, Option<f64>, Option<f64>)],
}

impl Design {
    /// The paper's `(throughput %, memory %)` for `row`.
    fn paper(&self, row: &str) -> (Option<f64>, Option<f64>) {
        self.paper
            .iter()
            .find(|p| p.0 == row)
            .map_or((None, None), |p| (p.1, p.2))
    }

    /// What this design's fleet delta contributes to the §4.5 rollout
    /// composition. A design whose paper figure reports memory alone
    /// (Figures 10 and 14) contributes a throughput- and CPI-neutral
    /// comparison carrying only its memory delta.
    fn rollout_delta(&self, fleet: &Comparison) -> Comparison {
        if self.paper("fleet").0.is_some() {
            return *fleet;
        }
        let arm = |memory_bytes| MetricSet {
            memory_bytes,
            throughput: 100.0,
            cpi: 1.0,
            ..MetricSet::default()
        };
        Comparison {
            control: arm(100.0),
            experiment: arm(100.0 + fleet.memory_pct()),
        }
    }
}

/// A design's result: the fleet comparison, then one per workload.
pub type DesignAb = (Comparison, Vec<(String, Comparison)>);

/// Position of Table 2 in [`DESIGNS`], whose result Figure 17 plots.
const TABLE2: usize = 3;
/// Position of §4.5 in [`DESIGNS`]; the rows before it are the single
/// designs it composes.
const COMBINED: usize = 4;

/// The paper's §4 redesigns, in the order `repro all` runs them.
pub const DESIGNS: [Design; 5] = [
    Design {
        id: "fig10",
        title: "Figure 10: memory reduction, heterogeneous per-CPU caches",
        arm: TcmallocConfig::with_heterogeneous_percpu,
        // Single-threaded: one per-CPU cache, nothing to rebalance.
        skip: &["redis"],
        paper: &[
            ("fleet", None, Some(-1.94)),
            ("spanner", None, Some(-1.2)),
            ("monarch", None, Some(-2.45)),
            ("bigtable", None, Some(-1.5)),
            ("f1-query", None, Some(-0.58)),
            ("disk", None, Some(-1.0)),
            ("data-pipeline", None, Some(-2.66)),
            ("image-processing", None, Some(-2.27)),
            ("tensorflow", None, Some(-2.08)),
        ],
    },
    Design {
        id: "table1",
        title: "Table 1: NUCA-aware transfer caches",
        arm: TcmallocConfig::with_nuca_transfer,
        // Single-threaded: one cache domain.
        skip: &["redis"],
        paper: &[("fleet", Some(0.32), Some(0.10))],
    },
    Design {
        id: "fig14",
        title: "Figure 14: memory reduction, span prioritization",
        arm: TcmallocConfig::with_span_prioritization,
        skip: &[],
        paper: &[
            ("fleet", None, Some(-1.41)),
            ("spanner", None, Some(-0.8)),
            ("monarch", None, Some(-2.76)),
            ("bigtable", None, Some(-1.3)),
            ("f1-query", None, Some(-0.34)),
            ("disk", None, Some(-2.54)),
            ("redis", None, Some(-0.61)),
            ("data-pipeline", None, Some(-1.36)),
            ("image-processing", None, Some(-0.9)),
            ("tensorflow", None, Some(-1.0)),
        ],
    },
    Design {
        id: "table2",
        title: "Table 2: lifetime-aware hugepage filler",
        arm: TcmallocConfig::with_lifetime_filler,
        skip: &[],
        paper: &[("fleet", Some(1.02), Some(-0.82))],
    },
    Design {
        id: "combined",
        title: "Section 4.5: all four designs combined",
        arm: |_| TcmallocConfig::optimized(),
        skip: &[],
        // The paper's end-to-end estimate.
        paper: &[("fleet", Some(1.4), Some(-3.4))],
    },
];

/// Prints one §4 design's table: the paper's throughput and memory deltas,
/// then the measured deltas and the LLC and dTLB counters before → after.
fn print_design(d: &Design, (fleet, rows): &DesignAb) {
    println!("== {} ==", d.title);
    let headers = [
        "workload",
        "paper thr %",
        "paper mem %",
        "thr %",
        "mem %",
        "CPI %",
        "frag %",
        "LLC MPKI",
        "dTLB walk %",
    ];
    let mut t = Table::new(headers.to_vec());
    let paper_cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), pct);
    let before_after = |b: f64, a: f64| format!("{} -> {}", f3(b), f3(a));
    let all = std::iter::once(("fleet", fleet)).chain(rows.iter().map(|(n, c)| (n.as_str(), c)));
    for (name, c) in all {
        let (thr, mem) = d.paper(name);
        let mut row = vec![name.to_string(), paper_cell(thr), paper_cell(mem)];
        if d.skip.contains(&name) {
            row.resize(headers.len(), "/".to_string());
        } else {
            row.extend([
                pct(c.throughput_pct()),
                pct(c.memory_pct()),
                pct(c.cpi_pct()),
                pct(c.frag_pct()),
                before_after(c.control.llc_mpki, c.experiment.llc_mpki),
                before_after(c.control.dtlb_walk_pct, c.experiment.dtlb_walk_pct),
            ]);
        }
        t.row(row);
    }
    println!("{}", t.render());
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
// Figure 15
// ---------------------------------------------------------------------------

/// Figure 15: pageheap in-use and fragmentation by component. Returns
/// `(filler_use_share, filler_frag_share)`.
pub fn fig15(r: &mut Run) -> (f64, f64) {
    println!("== Figure 15: pageheap component shares ==");
    let s = r.characterization()[0].pageheap;
    let used = s.total_used_bytes().max(1) as f64;
    let free = s.total_free_bytes().max(1) as f64;
    let mut t = Table::new(vec!["component", "in-use %", "fragmentation %"]);
    for (component, in_use, fragmented) in [
        ("HugeFiller", s.filler_used_bytes, s.filler_free_bytes),
        ("HugeRegion", s.region_used_bytes, s.region_free_bytes),
        ("HugeCache (+large)", s.large_used_bytes, s.cache_bytes),
    ] {
        t.row(vec![
            component.into(),
            f2(in_use as f64 / used * 100.0),
            f2(fragmented as f64 / free * 100.0),
        ]);
    }
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
pub fn fig16(r: &mut Run) -> f64 {
    println!("== Figure 16: span return rate vs span capacity ==");
    // Aggregate span telemetry across the production workloads.
    let apps = profiles::production_workloads().len();
    // Span capacity → (spans created, spans released), in capacity order.
    let mut by_capacity: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for c in &r.characterization()[1..=apps] {
        for &(cap, created, released) in &c.classes {
            let e = by_capacity.entry(cap).or_default();
            e.0 += created;
            e.1 += released;
        }
    }
    by_capacity.retain(|_, &mut (created, _)| created >= 10);
    let xs: Vec<f64> = by_capacity.keys().map(|&cap| f64::from(cap)).collect();
    let ys: Vec<f64> = by_capacity
        .values()
        .map(|&(created, released)| released as f64 / created as f64)
        .collect();
    let rho = wsc_telemetry::stats::spearman(&xs, &ys).unwrap_or(0.0);
    let mut t = Table::new(vec!["span capacity", "return rate %", "spans"]);
    for ((cap, &(created, _)), y) in by_capacity.iter().zip(&ys) {
        t.row(vec![cap.to_string(), f2(y * 100.0), created.to_string()]);
    }
    println!("{}", t.render());
    println!("Spearman rho: {rho:.2} (paper: -0.75; strong negative correlation)\n");
    rho
}

// ---------------------------------------------------------------------------
// Figure 17 (lifetime-aware hugepage filler)
// ---------------------------------------------------------------------------

/// Figure 17: hugepage coverage and normalized dTLB miss rate from the
/// Table 2 experiment. Returns `(cov_before, cov_after, norm_miss_after)`.
pub fn fig17(r: &mut Run) -> (f64, f64, f64) {
    // Table 2 is printed by the call that simulates it.
    if r.designs[TABLE2].is_none() {
        r.design(TABLE2);
    }
    let (fleet, rows) = r.design_ab(TABLE2);
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

/// §4.5: all four designs combined ([`Run::design`]), then the multiplicative
/// rollout composition of the single designs' fleet deltas this run
/// gathered. Returns the rollout estimate.
fn combined(r: &mut Run) -> rollout::RolloutEstimate {
    r.design(COMBINED);
    let singles = DESIGNS.iter().zip(&r.designs).take(COMBINED);
    let deltas: Vec<Comparison> = singles
        .filter_map(|(d, ab)| ab.as_ref().map(|(fleet, _)| d.rollout_delta(fleet)))
        .collect();
    let est = rollout::combine(&deltas);
    let (thr, mem) = DESIGNS[COMBINED].paper("fleet");
    let paper = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:+}%"));
    println!(
        "rollout composition of the four independent fleet deltas: thr {:+.2}%, mem {:+.2}% (paper: {}, {})\n",
        est.throughput_pct,
        est.memory_pct,
        paper(thr),
        paper(mem)
    );
    est
}

/// Robustness under injected kernel failure: the Fig. 7 fleet mix driven
/// through every named fault storm (whole-run window), compared against a
/// healthy reference run with the same seed.
///
/// Returns `(storm, throughput relative to healthy %, hugepage coverage,
/// refused allocations)` per storm.
pub fn faults(scale: &Scale) -> Vec<(String, f64, f64, u64)> {
    use wsc_sim_os::faults::FaultPlan;
    println!("== Fault storms: fleet mix under injected kernel failure ==");
    let platform = chiplet();
    let names = FaultPlan::NAMED;
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

// ---------------------------------------------------------------------------
// Ablations (§4.3 "L = 8 lists are sufficient", §4.4 "C = 16", §5 NUMA)
// ---------------------------------------------------------------------------

/// Metric ablations over the paper's design constants. Returns
/// `(label, throughput_pct, memory_pct)` rows.
pub fn ablations(r: &mut Run) -> Vec<(String, f64, f64)> {
    println!("== Ablations: design constants ==");
    let base = TcmallocConfig::baseline();
    let specs = eval_workloads();
    let controls = r.control_rows().to_vec();
    let scale = &r.scale;
    let mut rows = Vec::new();
    // Each ablation is one experiment arm against its workload's control row.
    let mut run = |label: String, name: &str, exp: TcmallocConfig| {
        let i = specs
            .iter()
            .position(|s| s.name == name)
            .expect("an evaluation workload");
        let c = Comparison {
            control: controls[i],
            experiment: chiplet_arm(scale, &[&specs[i]], exp)[0],
        };
        rows.push((label, c.throughput_pct(), c.memory_pct()));
    };

    // L: central-free-list lists (monarch has the heaviest span churn).
    for lists in [1usize, 2, 4, 8, 16] {
        let mut exp = base;
        exp.cfl_lists = lists;
        run(format!("cfl-lists L={lists}"), "monarch", exp);
    }
    // C: lifetime capacity threshold (disk is the paper's biggest winner).
    for c_thr in [2u32, 8, 16, 64, 256] {
        let mut exp = base.with_lifetime_filler();
        exp.pageheap.capacity_threshold = c_thr;
        run(format!("lifetime C={c_thr}"), "disk", exp);
    }
    // Transfer sharding: per-LLC-domain (§4.2) vs per-NUMA-node (§5).
    run("sharding=domain".into(), "disk", base.with_nuca_transfer());
    run("sharding=node".into(), "disk", base.with_numa_transfer());

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
    let (c, e) = (&fleet.control, &fleet.experiment);
    for (metric, control, experiment, delta) in [
        (
            "throughput (req/cpu-s)",
            f2(c.throughput),
            f2(e.throughput),
            fleet.throughput_pct(),
        ),
        (
            "resident bytes",
            f2(c.memory_bytes),
            f2(e.memory_bytes),
            fleet.memory_pct(),
        ),
        ("cpi", f3(c.cpi), f3(e.cpi), fleet.cpi_pct()),
        (
            "fragmentation ratio",
            f3(c.frag_ratio),
            f3(e.frag_ratio),
            fleet.frag_pct(),
        ),
    ] {
        t.row(vec![metric.into(), control, experiment, pct(delta)]);
    }
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

/// What one `repro` invocation carries from experiment to experiment:
/// every run several experiments read is simulated at most once, when the
/// first of them asks for it.
#[derive(Debug)]
pub struct Run {
    /// Scale tier and engine of every experiment in the run.
    pub scale: Scale,
    /// Process shards for the `fleet` survey (`--shards`).
    pub shards: usize,
    /// Shard supervision policy (`--supervise`).
    pub policy: SupervisorConfig,
    /// The characterization batch ([`characterize`]), which Figures 5a,
    /// 5b, 6a, 6b, 15 and 16 read.
    characterized: Option<Vec<Characterized>>,
    /// The baseline arm over [`eval_workloads`] × `scale.seeds`: every
    /// design's per-workload control, and the ablations'.
    control_rows: Option<Vec<MetricSet>>,
    /// The baseline fleet arm's weighted means: every design's fleet
    /// control.
    control_fleet: Option<MetricSet>,
    /// Each [`DESIGNS`] entry's result once run: §4.5 composes the single
    /// designs' fleet deltas, and Figure 17 plots Table 2's.
    designs: [Option<DesignAb>; DESIGNS.len()],
}

impl Run {
    /// A run that has gathered nothing yet.
    pub fn new(scale: Scale, shards: usize, policy: SupervisorConfig) -> Self {
        Self {
            scale,
            shards,
            policy,
            characterized: None,
            control_rows: None,
            control_fleet: None,
            designs: Default::default(),
        }
    }

    fn characterization(&mut self) -> &[Characterized] {
        let scale = &self.scale;
        self.characterized
            .get_or_insert_with(|| characterize(scale))
    }

    fn control_rows(&mut self) -> &[MetricSet] {
        let (scale, specs) = (&self.scale, eval_workloads());
        let all: Vec<&WorkloadSpec> = specs.iter().collect();
        self.control_rows
            .get_or_insert_with(|| chiplet_arm(scale, &all, TcmallocConfig::baseline()))
    }

    /// [`DESIGNS`]`[i]`'s result, simulated at most once per run: only its
    /// experiment arms run here, each paired with the run's control arm. A
    /// skipped workload is not run and gets a default comparison.
    fn design_ab(&mut self, i: usize) -> &DesignAb {
        if self.designs[i].is_none() {
            let (d, scale) = (&DESIGNS[i], &self.scale);
            let control = *self
                .control_fleet
                .get_or_insert_with(|| fleet_arm(scale, TcmallocConfig::baseline()));
            let experiment = (d.arm)(TcmallocConfig::baseline());
            let fleet = Comparison {
                control,
                experiment: fleet_arm(scale, experiment),
            };
            let specs = eval_workloads();
            let skipped = |spec: &WorkloadSpec| d.skip.contains(&spec.name.as_str());
            let run: Vec<&WorkloadSpec> = specs.iter().filter(|s| !skipped(s)).collect();
            let mut measured = chiplet_arm(scale, &run, experiment).into_iter();
            let rows = specs
                .iter()
                .zip(self.control_rows())
                .map(|(spec, &control)| {
                    let c = if skipped(spec) {
                        Comparison::default()
                    } else {
                        Comparison {
                            control,
                            experiment: measured.next().expect("one metric set per run"),
                        }
                    };
                    (spec.name.clone(), c)
                });
            self.designs[i] = Some((fleet, rows.collect()));
        }
        self.designs[i].as_ref().expect("simulated above")
    }

    /// Prints [`DESIGNS`]`[i]`'s table and returns its result.
    pub fn design(&mut self, i: usize) -> &DesignAb {
        let ab = self.design_ab(i);
        print_design(&DESIGNS[i], ab);
        ab
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
    in_all("fig5a", |r| _ = fig5a(r)),
    in_all("fig5b", |r| _ = fig5b(r)),
    in_all("fig6a", |r| _ = fig6a(r)),
    in_all("fig6b", |r| _ = fig6b(r)),
    in_all("fig7", |r| _ = fig7(&r.scale)),
    in_all("fig8", |r| _ = fig8(&r.scale)),
    in_all("fig9a", |r| _ = fig9a(&r.scale)),
    in_all("fig9b", |r| _ = fig9b(&r.scale)),
    in_all(DESIGNS[0].id, |r| _ = r.design(0)),
    in_all("fig11", |r| _ = fig11(&r.scale)),
    in_all("fig13", |r| _ = fig13(&r.scale)),
    in_all(DESIGNS[1].id, |r| _ = r.design(1)),
    in_all(DESIGNS[2].id, |r| _ = r.design(2)),
    in_all("fig15", |r| _ = fig15(r)),
    in_all("fig16", |r| _ = fig16(r)),
    // Asking for Table 2 prints it, even if Figure 17 already computed it.
    in_all(DESIGNS[TABLE2].id, |r| _ = r.design(TABLE2)),
    in_all("fig17", |r| _ = fig17(r)),
    in_all(DESIGNS[COMBINED].id, |r| _ = combined(r)),
    in_all("ablations", |r| _ = ablations(r)),
    in_all("faults", |r| _ = faults(&r.scale)),
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

    /// What one reader of a shared value returns, as `{:?}`.
    type Reader = fn(&mut Run) -> String;

    /// Every reader of a value a [`Run`] shares, in registry order.
    const SHARED_READERS: &[(&str, Reader)] = &[
        ("fig5a", |r| format!("{:?}", fig5a(r))),
        ("fig5b", |r| format!("{:?}", fig5b(r))),
        ("fig6a", |r| format!("{:?}", fig6a(r))),
        ("fig6b", |r| format!("{:?}", fig6b(r))),
        ("fig10", |r| format!("{:?}", r.design(0))),
        ("table1", |r| format!("{:?}", r.design(1))),
        ("fig14", |r| format!("{:?}", r.design(2))),
        ("fig15", |r| format!("{:?}", fig15(r))),
        ("fig16", |r| format!("{:?}", fig16(r))),
        ("table2", |r| format!("{:?}", r.design(TABLE2))),
        ("fig17", |r| format!("{:?}", fig17(r))),
        ("combined", |r| format!("{:?}", r.design(COMBINED))),
        ("ablations", |r| format!("{:?}", ablations(r))),
    ];

    /// What a shared value holds does not depend on which reader asked for
    /// it first: every reader returns the same in registry order, in
    /// reverse order (`combined` last, after the designs it composes), and
    /// alone in a fresh run. Two seeds, so the seed mean is exercised.
    #[test]
    fn shared_runs_read_the_same_in_any_order() {
        let scale = Scale {
            name: "tiny",
            requests: 40,
            seeds: vec![41, 42],
            fleet_machines: 1,
            fleet_requests: 40,
            survey_machines: 1,
            survey_requests: 1,
            survey_population: 1,
            engine: wsc_parallel::Engine::new(2),
        };
        let run = || Run::new(scale.clone(), 1, SupervisorConfig::default());
        let read = |r: &mut Run, order: &[usize]| -> Vec<(usize, String)> {
            let mut out: Vec<_> = order.iter().map(|&i| (i, SHARED_READERS[i].1(r))).collect();
            out.sort_by_key(|&(i, _)| i);
            out
        };
        let forward: Vec<usize> = (0..SHARED_READERS.len()).collect();
        let combined = SHARED_READERS
            .iter()
            .position(|&(id, _)| id == "combined")
            .unwrap();
        let mut reverse: Vec<usize> = forward
            .iter()
            .rev()
            .copied()
            .filter(|&i| i != combined)
            .collect();
        reverse.push(combined);
        let mut shared = run();
        let in_order = read(&mut shared, &forward);
        let reversed = read(&mut run(), &reverse);
        let alone: Vec<_> = forward
            .iter()
            .flat_map(|&i| read(&mut run(), &[i]))
            .collect();
        for ((i, a), ((_, b), (_, c))) in in_order.iter().zip(reversed.iter().zip(&alone)) {
            let id = SHARED_READERS[*i].0;
            assert_eq!(a, b, "{id}: registry order vs reverse order");
            assert_eq!(a, c, "{id}: registry order vs a fresh run");
        }
        // The control rows the readers shared are the baseline arm over
        // every seed.
        let specs = eval_workloads();
        let own = arm(
            &scale.engine,
            &specs.iter().collect::<Vec<_>>(),
            &chiplet(),
            TcmallocConfig::baseline(),
            scale.requests,
            &scale.seeds,
        )
        .unwrap();
        assert_eq!(shared.control_rows(), own);
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

    /// Every signed decimal in `text`: `+0.32`, `-1.94`, `−1.94`.
    fn signed_numbers(text: &str) -> Vec<f64> {
        let chars: Vec<char> = text.chars().collect();
        let mut out = Vec::new();
        for (i, &c) in chars.iter().enumerate() {
            let sign = match c {
                '+' => 1.0,
                '-' | '−' => -1.0,
                _ => continue,
            };
            let mut end = i + 1;
            while end < chars.len()
                && (chars[end].is_ascii_digit()
                    || (chars[end] == '.' && chars.get(end + 1).is_some_and(char::is_ascii_digit)))
            {
                end += 1;
            }
            let digits: String = chars[i + 1..end].iter().collect();
            if let Ok(v) = digits.parse::<f64>() {
                out.push(sign * v);
            }
        }
        out
    }

    /// The docs quote the paper as [`DESIGNS`] does: for each design,
    /// EXPERIMENTS.md's section (the one whose heading names its `repro`
    /// id) and DESIGN.md §3's row quote the fleet values the entry
    /// declares, signed.
    #[test]
    fn docs_quote_the_paper_as_designs_does() {
        let experiments = include_str!("../../../EXPERIMENTS.md");
        let design_md = include_str!("../../../DESIGN.md");
        let index = design_md
            .split("\n## 3.")
            .nth(1)
            .and_then(|s| s.split("\n## 4.").next())
            .unwrap();
        assert_eq!(signed_numbers("(paper −1.49%, +0.1)"), [-1.49, 0.1]);
        for d in &DESIGNS {
            let tag = format!("`repro {}`", d.id);
            let section = experiments
                .split("\n#")
                .find(|s| s.lines().next().unwrap().contains(&tag))
                .unwrap_or_else(|| panic!("EXPERIMENTS.md: no heading names {tag}"));
            let row = index
                .lines()
                .find(|l| l.starts_with('|') && l.contains(&tag))
                .unwrap_or_else(|| panic!("DESIGN.md §3: no row names {tag}"));
            let (thr, mem) = d.paper("fleet");
            for v in [thr, mem].into_iter().flatten() {
                for (file, text) in [("EXPERIMENTS.md", section), ("DESIGN.md §3", row)] {
                    assert!(
                        signed_numbers(text).contains(&v),
                        "{file}: {tag} does not quote the paper's fleet {v:+}%"
                    );
                }
            }
        }
    }
}
