//! The fleet A/B experimentation framework (§2.2).
//!
//! "For each design, the framework randomly selects 1% of the machines in
//! the fleet as an experiment group and a separate 1% as a control group.
//! We apply the change to all the binaries running in the experiment group
//! and compare their performance with the control group."
//!
//! At laptop scale the groups are tens of machines rather than thousands.
//! To keep the comparison statistically meaningful at that size, arms are
//! *paired*. An arm ([`try_run_fleet_arm`] for the fleet, [`arm`] for the
//! per-workload rows) runs one allocator configuration over cells fixed by
//! the seed alone, so two arms of the same experiment see the same
//! platforms, binaries, cpusets, and seeds, and the measured delta isolates
//! the allocator change. (Production pairs statistically by sheer volume.)
//! An A/B is a [`Comparison`] of two arms, so a control arm shared by
//! several experiments is simulated once.
//!
//! # Streaming aggregation
//!
//! The experiment engine never materializes per-machine results. A fleet
//! arm folds each cell's run report into a constant-size [`ArmSummary`]
//! (integer [`MetricSummary`] accumulators per metric); the survey folds
//! into a [`CellSummary`], both arms' accumulators plus a fixed-bucket
//! resident-bytes series. Summaries merge exactly — associatively *and*
//! commutatively — so any thread or process partition of the fleet
//! produces bit-identical bytes. Memory is O(metrics × buckets),
//! independent of machine count: 10⁵ machines cost the same resident
//! footprint as 10².

use crate::population::{CycleSampler, Population};
use crate::rollout::RolloutSchedule;
use wsc_parallel::{Engine, FoldSpan, TaskError};
use wsc_prng::{derive_seed, SmallRng};

use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_tcmalloc::TcmallocConfig;
use wsc_telemetry::summary::{quantize_weight, BucketSeries, Coverage, MetricSummary};
use wsc_workload::driver::{self, DriverConfig, Machine, RunJob, RunReport};
use wsc_workload::WorkloadSpec;

/// Number of scalar metrics in a [`MetricSet`] (the summary array width).
pub const METRIC_COUNT: usize = 9;

/// The metrics an experiment compares, one value per arm.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MetricSet {
    /// Requests per busy CPU-second (application productivity).
    pub throughput: f64,
    /// Mean resident heap bytes.
    pub memory_bytes: f64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// LLC load misses per kilo-instruction.
    pub llc_mpki: f64,
    /// dTLB walk cycles, % of total.
    pub dtlb_walk_pct: f64,
    /// dTLB miss rate (misses / accesses).
    pub dtlb_miss_rate: f64,
    /// Hugepage coverage of the heap.
    pub hugepage_coverage: f64,
    /// Fraction of cycles inside the allocator.
    pub malloc_frac: f64,
    /// Fragmentation ratio (fragmented / live bytes).
    pub frag_ratio: f64,
}

impl MetricSet {
    /// Extracts the metric set from a run report.
    pub fn from_report(r: &RunReport) -> Self {
        Self {
            throughput: r.throughput,
            memory_bytes: r.avg_resident_bytes,
            cpi: r.cpi,
            llc_mpki: r.llc_mpki,
            dtlb_walk_pct: r.dtlb_walk_pct,
            dtlb_miss_rate: r.tlb.miss_rate(),
            hugepage_coverage: r.avg_hugepage_coverage,
            malloc_frac: r.malloc_frac,
            frag_ratio: r.fragmentation.ratio(),
        }
    }

    /// The metrics as a fixed array, in declaration order (the layout the
    /// per-arm summary accumulators index by).
    pub fn to_array(&self) -> [f64; METRIC_COUNT] {
        [
            self.throughput,
            self.memory_bytes,
            self.cpi,
            self.llc_mpki,
            self.dtlb_walk_pct,
            self.dtlb_miss_rate,
            self.hugepage_coverage,
            self.malloc_frac,
            self.frag_ratio,
        ]
    }

    /// Rebuilds a metric set from [`to_array`](Self::to_array) order.
    pub fn from_array(a: [f64; METRIC_COUNT]) -> Self {
        Self {
            throughput: a[0],
            memory_bytes: a[1],
            cpi: a[2],
            llc_mpki: a[3],
            dtlb_walk_pct: a[4],
            dtlb_miss_rate: a[5],
            hugepage_coverage: a[6],
            malloc_frac: a[7],
            frag_ratio: a[8],
        }
    }
}

/// One arm's streaming accumulators: a [`MetricSummary`] per metric.
#[derive(Clone, Debug, PartialEq)]
pub struct ArmSummary {
    /// Accumulators, indexed by [`MetricSet::to_array`] position.
    pub metrics: [MetricSummary; METRIC_COUNT],
}

impl ArmSummary {
    /// An empty arm.
    pub fn new() -> Self {
        Self {
            metrics: std::array::from_fn(|_| MetricSummary::new()),
        }
    }

    /// Folds one cell's metric set in with fixed-point weight `weight_q`.
    pub fn record(&mut self, set: &MetricSet, weight_q: u64) {
        for (acc, v) in self.metrics.iter_mut().zip(set.to_array()) {
            acc.record(v, weight_q);
        }
    }

    /// Exact merge (bit-identical for any fold order).
    pub fn merge(&mut self, other: &ArmSummary) {
        for (acc, o) in self.metrics.iter_mut().zip(&other.metrics) {
            acc.merge(o);
        }
    }

    /// The cycle-weighted fleet means as a [`MetricSet`].
    pub fn weighted_means(&self) -> MetricSet {
        MetricSet::from_array(std::array::from_fn(|i| {
            self.metrics[i].weighted_mean().unwrap_or(0.0)
        }))
    }
}

impl Default for ArmSummary {
    fn default() -> Self {
        Self::new()
    }
}

/// The constant-size folded state of a fleet survey: both arms'
/// metric accumulators plus a fixed-bucket resident-bytes series.
///
/// This is the unit the streaming engine folds per cell, merges across
/// threads in canonical leaf order, and streams between shard processes —
/// its byte encoding ([`encode`](Self::encode)) is the determinism
/// contract's observable.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSummary {
    /// Cells folded in so far.
    pub cells: u64,
    /// Control-arm accumulators.
    pub control: ArmSummary,
    /// Experiment-arm accumulators.
    pub experiment: ArmSummary,
    /// Every folded machine's resident-bytes samples, bucketed on
    /// normalized run time (the longitudinal fleet memory trace, at fixed
    /// size).
    pub resident: BucketSeries,
    /// Exact planned-vs-folded accounting. On the healthy path it always
    /// reads 100%; a fault-tolerant fold that lost a span after exhausting
    /// retries records the lost cells via
    /// [`note_uncovered`](Self::note_uncovered), so a degraded aggregate
    /// states its population honestly.
    pub coverage: Coverage,
}

impl CellSummary {
    /// An empty summary (the fold identity).
    pub fn new() -> Self {
        Self {
            cells: 0,
            control: ArmSummary::new(),
            experiment: ArmSummary::new(),
            resident: BucketSeries::new(),
            coverage: Coverage::new(),
        }
    }

    /// Folds one single-arm cell (the survey path, where rollout waves —
    /// not pairing — decide which arm a machine runs).
    pub fn fold_arm(&mut self, experiment_arm: bool, report: &RunReport, weight_q: u64) {
        self.cells += 1;
        self.coverage.fold_one();
        let set = MetricSet::from_report(report);
        if experiment_arm {
            self.experiment.record(&set, weight_q);
        } else {
            self.control.record(&set, weight_q);
        }
        self.resident.record(&report.resident_ts);
    }

    /// Records `n` cells that were planned but never folded (a shard span
    /// lost after its retries were exhausted). Touches only the coverage
    /// ledger: metric accumulators stay exact over the folded population.
    pub fn note_uncovered(&mut self, n: u64) {
        self.coverage.note_uncovered(n);
    }

    /// Exact merge: associative and commutative, so any thread or shard
    /// partition folds to identical bytes.
    pub fn merge(&mut self, other: &CellSummary) {
        self.cells += other.cells;
        self.control.merge(&other.control);
        self.experiment.merge(&other.experiment);
        self.resident.merge(&other.resident);
        self.coverage.merge(&other.coverage);
    }

    /// The cycle-weighted fleet comparison.
    pub fn fleet(&self) -> Comparison {
        Comparison {
            control: self.control.weighted_means(),
            experiment: self.experiment.weighted_means(),
        }
    }

    /// Serializes to the canonical little-endian byte layout (the shard
    /// wire format and the determinism observable).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.cells.to_le_bytes());
        self.coverage.encode_into(&mut out);
        for arm in [&self.control, &self.experiment] {
            for m in &arm.metrics {
                m.encode_into(&mut out);
            }
        }
        self.resident.encode_into(&mut out);
        out
    }

    /// Decodes [`encode`](Self::encode) output.
    ///
    /// # Errors
    ///
    /// Returns a description when the bytes are truncated, malformed, or
    /// carry trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut cur = bytes;
        if cur.len() < 8 {
            return Err("cell summary truncated before cell count".to_string());
        }
        let (head, rest) = cur.split_at(8);
        let cells = u64::from_le_bytes(head.try_into().expect("split_at(8)"));
        cur = rest;
        let coverage = Coverage::decode_from(&mut cur)?;
        let mut arm = || -> Result<ArmSummary, String> {
            let mut out = ArmSummary::new();
            for m in &mut out.metrics {
                *m = MetricSummary::decode_from(&mut cur)?;
            }
            Ok(out)
        };
        let control = arm()?;
        let experiment = arm()?;
        let resident = BucketSeries::decode_from(&mut cur)?;
        if !cur.is_empty() {
            return Err(format!("{} trailing bytes after cell summary", cur.len()));
        }
        Ok(Self {
            cells,
            control,
            experiment,
            resident,
            coverage,
        })
    }
}

impl Default for CellSummary {
    fn default() -> Self {
        Self::new()
    }
}

/// Control vs experiment values with percentage deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Comparison {
    /// Control-arm metrics.
    pub control: MetricSet,
    /// Experiment-arm metrics.
    pub experiment: MetricSet,
}

impl Comparison {
    /// Throughput change, % (positive = experiment faster).
    pub fn throughput_pct(&self) -> f64 {
        pct(self.control.throughput, self.experiment.throughput)
    }

    /// Memory (RAM) change, % (negative = experiment uses less).
    pub fn memory_pct(&self) -> f64 {
        pct(self.control.memory_bytes, self.experiment.memory_bytes)
    }

    /// CPI change, % (negative = experiment stalls less).
    pub fn cpi_pct(&self) -> f64 {
        pct(self.control.cpi, self.experiment.cpi)
    }

    /// Fragmentation-ratio change, %.
    pub fn frag_pct(&self) -> f64 {
        pct(self.control.frag_ratio, self.experiment.frag_ratio)
    }
}

fn pct(control: f64, experiment: f64) -> f64 {
    wsc_telemetry::stats::percent_change(control, experiment)
}

/// Co-located binaries per machine of a fleet experiment.
const BINARIES_PER_MACHINE: usize = 2;

/// Fleet-experiment parameters. Machines are drawn from
/// [`default_platform_mix`], each running two co-located binaries.
#[derive(Clone, Debug)]
pub struct FleetExperimentConfig {
    /// Machines per arm (the paper's "1% of the fleet" scaled down).
    pub machines: usize,
    /// Requests simulated per binary.
    pub requests_per_binary: u64,
    /// Master seed.
    pub seed: u64,
    /// Binary population size.
    pub population: usize,
}

impl FleetExperimentConfig {
    /// A quick configuration for tests and CI.
    pub fn quick(seed: u64) -> Self {
        Self {
            machines: 4,
            requests_per_binary: 10_000,
            seed,
            population: 200,
        }
    }
}

/// The fleet's platform mix: a majority of chiplet (NUCA) machines plus
/// older monolithic parts ("a significant portion of our fleet is composed
/// of platforms with chiplet architectures", §4.2).
pub fn default_platform_mix() -> Vec<(f64, Platform)> {
    vec![
        (0.6, Platform::chiplet("chiplet-64c", 2, 4, 8, 2)),
        (0.4, Platform::monolithic("mono-28c", 2, 28, 2)),
    ]
}

fn sample_platform(mix: &[(f64, Platform)], rng: &mut SmallRng) -> Platform {
    let total: f64 = mix.iter().map(|&(w, _)| w).sum();
    let mut pick = rng.gen::<f64>() * total;
    for (w, p) in mix {
        pick -= w;
        if pick <= 0.0 {
            return p.clone();
        }
    }
    mix.last().expect("non-empty platform mix").1.clone()
}

/// Partitions a machine's CPUs among co-located binaries (contiguous
/// cpusets, as the control plane would assign).
fn cpusets(platform: &Platform, k: usize) -> Vec<Vec<CpuId>> {
    let per = (platform.num_cpus() / k).clamp(2, 16);
    (0..k)
        .map(|i| {
            let start = (i * per) % platform.num_cpus();
            (start..start + per)
                .map(|c| CpuId((c % platform.num_cpus()) as u32))
                .collect()
        })
        .collect()
}

/// One fleet cell: a (machine, binary) slot with its platform, cpuset,
/// workload, and fixed-point cycle weight, fixed before the cell runs.
struct Cell {
    weight_q: u64,
    platform: Platform,
    cpuset: Vec<CpuId>,
    spec: WorkloadSpec,
}

/// Runs one arm of a fleet A/B on `engine`: `tcm_cfg` on every cell of the
/// fleet `cfg` samples, streamed through the engine's worker threads.
///
/// Determinism contract: every cell (machine × binary slot) is sampled
/// serially up front — platform, cpuset, workload, and cycle weight —
/// from one RNG stream, and each cell simulates under a
/// [`wsc_prng::derive_seed`]-derived child seed, so the sampled fleet and
/// every per-cell run are functions of `cfg.seed` alone. Two arms of the
/// same `cfg` therefore see the same cells and seeds, and a [`Comparison`]
/// of their [`ArmSummary::weighted_means`] is paired. Cells fold into
/// exact-integer accumulators merged in canonical leaf order, so the
/// returned [`ArmSummary`] is bit-identical for any thread count. The fold
/// is the flat cycle-weighted mean: Σ_m w_m·(Σ_b w·v / w_m) / Σ w = Σ w·v
/// / Σ w, so weighting machines first changes nothing.
///
/// # Errors
///
/// Returns the [`TaskError`] naming the lowest-index failing cell (label
/// and seed included) if any cell's simulation panics.
pub fn try_run_fleet_arm(
    engine: &Engine,
    tcm_cfg: TcmallocConfig,
    cfg: &FleetExperimentConfig,
) -> Result<ArmSummary, TaskError> {
    let pop = Population::new(cfg.population, cfg.seed);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xab);
    let mix = default_platform_mix();
    // Phase 1 (serial): sample the fleet.
    let mut cells = Vec::with_capacity(cfg.machines * BINARIES_PER_MACHINE);
    for m in 0..cfg.machines {
        let platform = sample_platform(&mix, &mut rng);
        let sets = cpusets(&platform, BINARIES_PER_MACHINE);
        for (b, cpuset) in sets.into_iter().enumerate() {
            let bin = &pop.binaries()[pop.sample_by_cycles(&mut rng)];
            let spec = bin.spec();
            let label = format!("machine {m} binary {b} ({})", spec.name);
            let cell = Cell {
                weight_q: quantize_weight(bin.cycle_weight),
                platform: platform.clone(),
                cpuset,
                spec,
            };
            cells.push((label, cell));
        }
    }
    // Phase 2 (streamed): each cell runs on a fresh allocator + sim-os
    // instance — the worker's one machine, renewed — and folds into the
    // worker's local summary; leaf summaries merge in canonical order.
    engine.fold_seeded(
        cfg.seed,
        FoldSpan::all(cells.len()),
        Machine::new,
        ArmSummary::new,
        |machine, acc, i, seed| {
            let c = &cells[i].1;
            let dcfg = DriverConfig::new(cfg.requests_per_binary, seed, &c.platform)
                .with_cpuset(c.cpuset.clone());
            let r = machine.run(&c.spec, &c.platform, tcm_cfg, &dcfg);
            acc.record(&MetricSet::from_report(&r), c.weight_q);
        },
        |acc, other| acc.merge(&other),
        |i| cells[i].0.clone(),
    )
}

/// Fleet-survey parameters: the 10⁵-machine single-arm-per-machine scan.
///
/// Unlike a paired A/B, whose arms each run every cell, a survey runs *one*
/// simulation per machine; the staged rollout wave
/// ([`RolloutSchedule::staged`]) decides which arm each machine is enrolled
/// in, the way production actually deploys changes.
#[derive(Clone, Debug)]
pub struct FleetSurveyConfig {
    /// Machines to survey.
    pub machines: usize,
    /// Requests simulated on each machine.
    pub requests_per_machine: u64,
    /// Master seed.
    pub seed: u64,
    /// Weighted platform mix (heterogeneous fleet, §4.2).
    pub platform_mix: Vec<(f64, Platform)>,
    /// Binary population size.
    pub population: usize,
    /// Diurnal load period (machines get timezone-spread phase offsets).
    pub diurnal_period_ns: u64,
    /// Rollout wave that has landed (index into the staged schedule;
    /// 2 = the 50% wave, giving balanced arms).
    pub rollout_stage: usize,
}

/// Result of a fleet survey.
#[derive(Clone, Debug)]
pub struct FleetSurveyResult {
    /// Cycle-weighted comparison of enrolled vs not-yet-enrolled machines.
    pub fleet: Comparison,
    /// The streamed constant-size fold state.
    pub summary: CellSummary,
}

/// Generates survey machine `m`'s cell from its own derived RNG — no
/// serial sampling pass, no materialized cell list. This is what makes the
/// survey's memory constant in machine count: shard `s` of `P` can
/// generate exactly its own machines.
fn survey_cell(
    cfg: &FleetSurveyConfig,
    pop: &Population,
    sampler: &CycleSampler,
    m: usize,
) -> Cell {
    let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.seed ^ 0xf1ee7, m as u64));
    let platform = sample_platform(&cfg.platform_mix, &mut rng);
    let bin = &pop.binaries()[sampler.sample(&mut rng)];
    let mut spec = bin.spec();
    // Diurnal load: one shared period, per-machine phase (timezone spread),
    // and enough amplitude that the curve is visible in short runs.
    spec.threads.period_ns = cfg.diurnal_period_ns;
    spec.threads.phase_ns = rng.gen_range(0..cfg.diurnal_period_ns.max(1));
    spec.threads.amplitude = spec.threads.amplitude.max(0.35);
    let cpuset = cpusets(&platform, 1)
        .into_iter()
        .next()
        .expect("one cpuset requested");
    Cell {
        weight_q: quantize_weight(bin.cycle_weight),
        platform,
        cpuset,
        spec,
    }
}

/// Runs the full fleet survey on `engine`. Equivalent to
/// [`try_run_fleet_survey_span`] over the whole machine range.
///
/// # Errors
///
/// Returns the [`TaskError`] naming the lowest-index failing machine if
/// any machine's simulation panics.
pub fn try_run_fleet_survey(
    engine: &Engine,
    control: TcmallocConfig,
    experiment: TcmallocConfig,
    cfg: &FleetSurveyConfig,
) -> Result<FleetSurveyResult, TaskError> {
    let summary = try_run_fleet_survey_span(
        engine,
        control,
        experiment,
        cfg,
        FoldSpan::all(cfg.machines),
    )?;
    Ok(FleetSurveyResult {
        fleet: summary.fleet(),
        summary,
    })
}

/// Runs the survey over `span` (a leaf-aligned machine sub-range) — the
/// shard-process entry point. Merging the returned summaries in shard
/// order reproduces the single-process fold byte-for-byte.
///
/// # Panics
///
/// Panics if `span.total` disagrees with `cfg.machines` (the fold tree is
/// a function of the total, so a mismatched span would silently misalign
/// shard boundaries).
///
/// # Errors
///
/// Returns the [`TaskError`] naming the lowest-index failing machine if
/// any machine's simulation panics.
pub fn try_run_fleet_survey_span(
    engine: &Engine,
    control: TcmallocConfig,
    experiment: TcmallocConfig,
    cfg: &FleetSurveyConfig,
    span: FoldSpan,
) -> Result<CellSummary, TaskError> {
    assert_eq!(
        span.total, cfg.machines,
        "survey span must cover the configured fleet"
    );
    let pop = Population::new(cfg.population, cfg.seed);
    let sampler = pop.cycle_sampler();
    let schedule = RolloutSchedule::staged(cfg.seed ^ 0x5706e);
    // Each worker runs its machines on one `Machine`, renewed per machine.
    engine.fold_seeded(
        cfg.seed,
        span,
        Machine::new,
        CellSummary::new,
        |machine, acc, m, seed| {
            let cell = survey_cell(cfg, &pop, &sampler, m);
            let dcfg = DriverConfig::new(cfg.requests_per_machine, seed, &cell.platform)
                .with_cpuset(cell.cpuset.clone());
            let enrolled = schedule.enrolled(cfg.rollout_stage, m as u64);
            let arm = if enrolled { experiment } else { control };
            let r = machine.run(&cell.spec, &cell.platform, arm, &dcfg);
            acc.fold_arm(enrolled, &r, cell.weight_q);
        },
        |acc, other| acc.merge(&other),
        |m| format!("survey machine {m}"),
    )
}

/// One arm of the per-workload A/Bs (the rows of Figures 10/14 and Tables
/// 1/2): `tcm_cfg` on a dedicated `platform`, one [`MetricSet`] per
/// workload in `specs` order, each the mean over `seeds`. Every run —
/// `specs × seeds` — is one engine batch, so a whole table shards across
/// threads. Two arms over the same specs and seeds are paired: their runs
/// share every seed, so a [`Comparison`] of them isolates the allocator
/// change.
///
/// # Panics
///
/// Panics if `seeds` is empty.
///
/// # Errors
///
/// Returns the [`TaskError`] naming the lowest-index failing run if any
/// run panics.
pub fn arm(
    engine: &Engine,
    specs: &[&WorkloadSpec],
    platform: &Platform,
    tcm_cfg: TcmallocConfig,
    requests: u64,
    seeds: &[u64],
) -> Result<Vec<MetricSet>, TaskError> {
    assert!(!seeds.is_empty(), "an arm needs at least one seed");
    let jobs = specs.iter().flat_map(|&spec| {
        seeds.iter().map(move |&seed| RunJob {
            spec: spec.clone(),
            platform: platform.clone(),
            tcm_cfg,
            dcfg: DriverConfig::new(requests, seed, platform),
        })
    });
    let metrics = driver::run_batch(engine, jobs.collect(), |r, _| MetricSet::from_report(r))?;
    let w = 1.0 / seeds.len() as f64;
    Ok(metrics
        .chunks(seeds.len())
        .map(|runs| {
            // Seed order, from zero: the same sum at any thread count.
            let mean = |i: usize| runs.iter().fold(0.0, |acc, r| acc + r.to_array()[i] * w);
            MetricSet::from_array(std::array::from_fn(mean))
        })
        .collect())
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn arm_is_deterministic_and_averages_seeds() {
        let p = Platform::chiplet("t", 1, 2, 4, 2);
        let spec = wsc_workload::profiles::redis();
        let run = |seeds: &[u64]| {
            arm(
                &Engine::new(2),
                &[&spec, &spec],
                &p,
                TcmallocConfig::optimized(),
                1_000,
                seeds,
            )
            .unwrap()
        };
        let both = run(&[5, 6]);
        assert_eq!(both.len(), 2, "one metric set per workload");
        assert_eq!(both[0], both[1], "same workload, same seeds, same result");
        assert_eq!(both, run(&[5, 6]));
        let (a, b) = (run(&[5])[0], run(&[6])[0]);
        let mean = (a.throughput + b.throughput) / 2.0;
        assert!((both[0].throughput - mean).abs() < 1e-9 * mean);
    }

    #[test]
    fn cell_summary_codec_roundtrips() {
        let cfg = FleetSurveyConfig {
            machines: 6,
            requests_per_machine: 200,
            seed: 11,
            platform_mix: default_platform_mix(),
            population: 25,
            diurnal_period_ns: 500_000,
            rollout_stage: 2,
        };
        let r = try_run_fleet_survey(
            &Engine::serial(),
            TcmallocConfig::baseline(),
            TcmallocConfig::optimized(),
            &cfg,
        )
        .unwrap();
        let bytes = r.summary.encode();
        let back = CellSummary::decode(&bytes).unwrap();
        assert_eq!(back, r.summary);
        assert_eq!(back.encode(), bytes);
        assert!(CellSummary::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(CellSummary::decode(&extra).is_err(), "trailing bytes");
    }

    #[test]
    fn survey_spans_compose_to_the_full_fold() {
        let cfg = FleetSurveyConfig {
            machines: 40,
            requests_per_machine: 24,
            seed: 13,
            platform_mix: default_platform_mix(),
            population: 30,
            diurnal_period_ns: 500_000,
            rollout_stage: 2,
        };
        let engine = Engine::new(2);
        let control = TcmallocConfig::baseline();
        let experiment = TcmallocConfig::optimized();
        let whole = try_run_fleet_survey(&engine, control, experiment, &cfg).unwrap();
        for shards in [2usize, 3] {
            let mut merged = CellSummary::new();
            for s in 0..shards {
                let span = wsc_parallel::process_shard_span(cfg.machines, s, shards);
                let part =
                    try_run_fleet_survey_span(&engine, control, experiment, &cfg, span).unwrap();
                merged.merge(&part);
            }
            assert_eq!(
                merged.encode(),
                whole.summary.encode(),
                "{shards}-shard survey must be byte-identical to the whole fold"
            );
        }
        assert_eq!(whole.summary.cells, 40);
        // The 50% wave puts a meaningful share of machines in each arm.
        let ctrl = whole.summary.control.metrics[0].count();
        let exp = whole.summary.experiment.metrics[0].count();
        assert_eq!(ctrl + exp, 40);
        assert!(ctrl >= 8 && exp >= 8, "arms balanced-ish: {ctrl}/{exp}");
        assert!(whole.summary.coverage.complete());
        assert_eq!(whole.summary.coverage.planned(), 40);
    }

    #[test]
    fn degraded_merge_reports_exact_coverage() {
        let cfg = FleetSurveyConfig {
            machines: 30,
            requests_per_machine: 16,
            seed: 5,
            platform_mix: default_platform_mix(),
            population: 20,
            diurnal_period_ns: 500_000,
            rollout_stage: 2,
        };
        let engine = Engine::serial();
        let control = TcmallocConfig::baseline();
        let experiment = TcmallocConfig::optimized();
        // Shard 1 of 3 is "lost": fold the other spans, note the gap.
        let mut degraded = CellSummary::new();
        for s in [0usize, 2] {
            let span = wsc_parallel::process_shard_span(cfg.machines, s, 3);
            let part = try_run_fleet_survey_span(&engine, control, experiment, &cfg, span).unwrap();
            degraded.merge(&part);
        }
        let lost = wsc_parallel::process_shard_span(cfg.machines, 1, 3);
        degraded.note_uncovered((lost.hi - lost.lo) as u64);
        assert!(!degraded.coverage.complete());
        assert_eq!(degraded.coverage.planned(), 30);
        assert_eq!(degraded.coverage.folded(), 30 - (lost.hi - lost.lo) as u64);
        assert_eq!(degraded.cells, degraded.coverage.folded());
        // The ledger survives the wire format.
        let back = CellSummary::decode(&degraded.encode()).unwrap();
        assert_eq!(back.coverage, degraded.coverage);
    }

    #[test]
    fn comparison_percentages() {
        let c = Comparison {
            control: MetricSet {
                throughput: 100.0,
                memory_bytes: 1000.0,
                cpi: 2.0,
                ..MetricSet::default()
            },
            experiment: MetricSet {
                throughput: 101.4,
                memory_bytes: 966.0,
                cpi: 1.9,
                ..MetricSet::default()
            },
        };
        assert!((c.throughput_pct() - 1.4).abs() < 1e-9);
        assert!((c.memory_pct() + 3.4).abs() < 1e-9);
        assert!(c.cpi_pct() < 0.0);
    }

    #[test]
    fn platform_mix_sampling() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mix = default_platform_mix();
        let mut nuca = 0;
        for _ in 0..1000 {
            if sample_platform(&mix, &mut rng).is_nuca() {
                nuca += 1;
            }
        }
        assert!((500..700).contains(&nuca), "nuca share {nuca}");
    }

    #[test]
    fn cpusets_are_disjoint_when_room() {
        let p = Platform::chiplet("t", 2, 4, 8, 2); // 128 CPUs
        let sets = cpusets(&p, 3);
        assert_eq!(sets.len(), 3);
        let mut all: Vec<u32> = sets.iter().flatten().map(|c| c.0).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no CPU shared between binaries");
    }
}
