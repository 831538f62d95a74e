//! The four workloads. Each runs once per process (`child` mode): set-up,
//! then one timed region of fixed, seeded work, then output checks.
//!
//! Untraced, the timed region calls the crates' real public functions.
//! Traced, it runs the mirrors in [`crate::shadow`], which make the same calls
//! with a span around each; both produce a digest of the simulated outputs,
//! and the two should agree.

use crate::json::Value;
use crate::layers::{traced_part, SetupExtras, SurveyExtras, Traced};
use crate::result::ChildResult;
use crate::shadow::{self, Counts};
use crate::spans::{Kind, Tracer};
use std::fmt::Debug;
use std::time::Instant;
use wsc_bench::experiments::{fleet_summary, SURVEY_SEED};
use wsc_bench::scale::Scale;
use wsc_fleet::experiment::{
    default_platform_mix, try_run_fleet_survey, try_run_fleet_survey_span, CellSummary,
    FleetSurveyConfig,
};
use wsc_parallel::proc::{decode_payload, encode_payload};
use wsc_parallel::{process_shard_span, Engine};
use wsc_prng::SmallRng;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::Clock;
use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
use wsc_workload::driver::{self, DriverConfig};
use wsc_workload::profiles;
use wsc_workload::trace::Trace;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AllocFastpath,
    ReplayChurn,
    DriverSteady,
    Survey,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AllocFastpath,
        Workload::ReplayChurn,
        Workload::DriverSteady,
        Workload::Survey,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AllocFastpath => "alloc_fastpath",
            Workload::ReplayChurn => "replay_churn",
            Workload::DriverSteady => "driver_steady",
            Workload::Survey => "survey",
        }
    }

    /// Why the workload exists (repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::AllocFastpath => "same-vCPU malloc-free pairs of sizes up to 256 B: the tcmalloc per-CPU hit path does all the work, so fast-path pricing and bookkeeping show here and nowhere else",
            Workload::ReplayChurn => "fleet-mix trace replayed with independent alloc and free vCPUs: slower tiers, maintain and the per-event resident-bytes query carry the time; a fast-path gain that taxes the slow path shows here",
            Workload::DriverSteady => "one long-lived machine under driver::run: ~108 object touches per request make sim-hw and the sim-os page table the bulk, construction cost is nil",
            Workload::Survey => "a thousand cold 32-request machines folded on min(nproc,2) threads: per-machine construction, fleet, telemetry and the parallel engine carry the time",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one repetition does. The full sizes give a timed region of
/// about half a second on a quiet 2-vCPU 2.1 GHz sandbox: the host's noise has
/// sub-second structure, so a run holds some thirty short repetitions, one of
/// which the host is likely to leave alone.
pub struct Sizes {
    /// Entries in the seeded size stream the fast-path loop cycles over.
    pub fastpath_stream: usize,
    /// Timed passes over the stream (one malloc-free pair per entry).
    pub fastpath_passes: u64,
    /// Allocations in the recorded trace.
    pub replay_allocs: u64,
    /// Timed replays (after one warm-up replay on the same allocator).
    pub replay_passes: u64,
    pub driver_requests: u64,
    /// Requests of the throw-away run that warms the host's caches.
    pub driver_warmup_requests: u64,
    pub survey_machines: usize,
    pub survey_population: usize,
    pub survey_warmup_machines: usize,
    /// Processes of the sharded survey in the traced run; 0 skips it (the
    /// test harness binary cannot act as a shard child).
    pub shard_processes: usize,
}

pub const FULL: Sizes = Sizes {
    fastpath_stream: 200_000,
    fastpath_passes: 22,
    replay_allocs: 250_000,
    replay_passes: 4,
    driver_requests: 15_000,
    driver_warmup_requests: 2_000,
    survey_machines: 1_000,
    survey_population: 2_000,
    survey_warmup_machines: 200,
    shard_processes: 2,
};

#[cfg(test)]
pub const TINY: Sizes = Sizes {
    fastpath_stream: 2_000,
    fastpath_passes: 3,
    replay_allocs: 3_000,
    replay_passes: 2,
    driver_requests: 400,
    driver_warmup_requests: 50,
    survey_machines: 60,
    survey_population: 40,
    survey_warmup_machines: 4,
    shard_processes: 0,
};

const FASTPATH_VCPUS: usize = 8;
/// Largest size in the fast-path stream. The classes up to here fit in one
/// vCPU's byte budget together; with larger ones in the mix the classes steal
/// capacity from each other and a tenth of the calls fall to the transfer
/// cache, which then carries two fifths of the time.
const FASTPATH_MAX_SIZE: u64 = 256;
const FASTPATH_WARMUP_PASSES: u64 = 2;
const SURVEY_REQUESTS: u64 = 32;
/// Spans whose imbalance `parallel.span_imbalance` reports.
const IMBALANCE_SPANS: usize = 4;
/// Repetitions of the codec and frame calls, so their means are steady.
const CODEC_REPS: usize = 20;

/// Threads the survey folds on: one generator process, at most two threads.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

fn chiplet() -> Platform {
    default_platform_mix().remove(0).1
}

/// FNV-1a over the deterministic simulated outputs of a workload.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// `Debug` prints every field and floats in shortest round-trip form, so
    /// equal text means bit-equal values.
    fn debug(&mut self, v: &impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// One pass through a workload's timed region, on fresh simulator state.
struct Region {
    /// When the timed region began (set-up ends here).
    started: Instant,
    timed_s: f64,
    requests: u64,
    failed: u64,
    digest: Digest,
    problems: Vec<String>,
    counts: Counts,
}

/// Runs one repetition of `workload` in this process. `start` is when the
/// process began, so `setup_s` covers everything before the first timed call.
///
/// Untraced, the region runs once, through the crates' real functions.
/// Traced, it runs twice on fresh state: first untraced, as the reference the
/// tracing overhead and the mirror's digest are compared with, then through
/// the mirrors with spans on. A traced run also returns its sampled spans as
/// a Chrome trace.
pub fn run_child(
    workload: Workload,
    seed: u64,
    traced: bool,
    sizes: &Sizes,
    start: Instant,
) -> (ChildResult, Option<Value>) {
    let mut extras = SetupExtras::default();
    let mut survey_extras = None;
    let mut tracer = Tracer::new();
    let (reference, shadow) = match workload {
        Workload::AllocFastpath => {
            let region = alloc_fastpath(seed, sizes, &mut extras);
            twice(traced, &mut tracer, region)
        }
        Workload::ReplayChurn => {
            let region = replay_churn(seed, sizes, &mut extras);
            twice(traced, &mut tracer, region)
        }
        Workload::DriverSteady => {
            let region = driver_steady(seed, sizes);
            twice(traced, &mut tracer, region)
        }
        Workload::Survey => survey(seed, traced, sizes, &mut tracer, &mut survey_extras),
    };
    let setup_s = (reference.started - start).as_secs_f64();
    let mut problems = reference.problems;
    let peak_rss_mb = peak_rss_mb();
    let Some(shadow) = shadow else {
        let result = ChildResult {
            setup_s,
            timed_s: reference.timed_s,
            requests: reference.requests,
            failed: reference.failed,
            peak_rss_mb,
            sim_digest: reference.digest.0,
            problems,
            traced: None,
        };
        return (result, None);
    };
    problems.extend(shadow.problems);
    let material = Traced {
        tracer,
        counts: shadow.counts,
        reference_s: reference.timed_s,
        traced_s: shadow.timed_s,
        faithful: shadow.digest.0 == reference.digest.0,
        sim_digest: shadow.digest.0,
        setup: extras,
        survey: survey_extras,
    };
    let result = ChildResult {
        setup_s,
        timed_s: shadow.timed_s,
        requests: shadow.requests,
        failed: shadow.failed,
        peak_rss_mb,
        sim_digest: shadow.digest.0,
        problems,
        traced: Some(traced_part(&material)),
    };
    (result, Some(material.tracer.chrome_trace(workload.name())))
}

/// The reference pass, and the traced pass when asked for.
fn twice(
    traced: bool,
    tracer: &mut Tracer,
    mut region: impl FnMut(Option<&mut Tracer>) -> Region,
) -> (Region, Option<Region>) {
    let reference = region(None);
    let shadow = traced.then(|| region(Some(tracer)));
    (reference, shadow)
}

/// `passes` passes over `stream`: one same-vCPU malloc-free pair per entry.
fn fastpath_passes<const TRACED: bool>(
    tcm: &mut Tcmalloc,
    stream: &[u64],
    passes: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) {
    let mut pair = 0u64;
    for _ in 0..passes {
        for (i, &size) in stream.iter().enumerate() {
            let cpu = CpuId((i % FASTPATH_VCPUS) as u32);
            if TRACED {
                tr.set_request(pair);
                tr.begin(Kind::Malloc);
            }
            let a = tcm.malloc(size, cpu);
            let malloc_host_ns = if TRACED { tr.switch(Kind::Free) } else { 0 };
            let f = tcm.free(a.addr, size, cpu);
            let free_host_ns = if TRACED { tr.end() } else { 0 };
            counts.op(a.path, a.ns, malloc_host_ns);
            counts.op(f.path, f.ns, free_host_ns);
            pair += 1;
        }
    }
    counts.requests += pair;
}

fn alloc_fastpath<'a>(
    seed: u64,
    sizes: &'a Sizes,
    extras: &'a mut SetupExtras,
) -> impl FnMut(Option<&mut Tracer>) -> Region + 'a {
    let spec = profiles::fleet_mix();
    let mut rng = SmallRng::seed_from_u64(seed);
    let sampling = Instant::now();
    let mut stream = Vec::with_capacity(sizes.fastpath_stream);
    let mut draws = 0u64;
    while stream.len() < sizes.fastpath_stream {
        // Spread the draws over the spec's one-second phase period, so the
        // size mix drifts as it does in a run.
        let (size, _) = spec.sample_size(draws * 5_000, &mut rng);
        draws += 1;
        if size <= FASTPATH_MAX_SIZE {
            stream.push(size);
        }
    }
    extras.samples = Some((sampling.elapsed().as_nanos() as f64 / draws as f64, draws));

    move |tracer| {
        let constructing = Instant::now();
        let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), chiplet(), Clock::new());
        extras.tcm_new_us = Some(constructing.elapsed().as_secs_f64() * 1e6);
        let mut idle = Tracer::new();
        fastpath_passes::<false>(
            &mut tcm,
            &stream,
            FASTPATH_WARMUP_PASSES,
            &mut idle,
            &mut Counts::default(),
        );
        let mut counts = Counts::default();

        let started = Instant::now();
        match tracer {
            Some(tr) => {
                tr.begin(Kind::Region);
                fastpath_passes::<true>(&mut tcm, &stream, sizes.fastpath_passes, tr, &mut counts);
                tr.end();
            }
            None => fastpath_passes::<false>(
                &mut tcm,
                &stream,
                sizes.fastpath_passes,
                &mut idle,
                &mut counts,
            ),
        }
        let timed_s = started.elapsed().as_secs_f64();

        let mut problems = Vec::new();
        if tcm.live_objects() != 0 {
            problems.push(format!(
                "{} objects live after the last pair",
                tcm.live_objects()
            ));
        }
        let calls: u64 = counts.tier_calls.iter().sum();
        if counts.tier_calls[0] * 100 < calls * 99 {
            problems.push(format!(
                "only {} of {calls} calls ended in the per-CPU tier: not a fast-path workload",
                counts.tier_calls[0]
            ));
        }
        let mut digest = Digest::new();
        digest.debug(&(
            counts.tier_calls,
            counts.sim_alloc_ns,
            tcm.resident_bytes(),
            tcm.cycles(),
        ));
        counts.machine_done(&tcm, tcm.resident_bytes(), tcm.hugepage_coverage());
        Region {
            started,
            timed_s,
            requests: counts.requests,
            failed: 0,
            digest,
            problems,
            counts,
        }
    }
}

fn replay_churn<'a>(
    seed: u64,
    sizes: &'a Sizes,
    extras: &'a mut SetupExtras,
) -> impl FnMut(Option<&mut Tracer>) -> Region + 'a {
    let recording = Instant::now();
    let trace = Trace::record(&profiles::fleet_mix(), sizes.replay_allocs, seed);
    extras.trace_record_s = recording.elapsed().as_secs_f64();

    move |mut tracer| {
        let clock = Clock::new();
        let constructing = Instant::now();
        let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), chiplet(), clock.clone());
        extras.tcm_new_us = Some(constructing.elapsed().as_secs_f64() * 1e6);
        // Repeated replays on one allocator drift as its caches grow; the
        // first replay is the steepest part and stays out of the timed region.
        trace.replay(&mut tcm, &clock);
        let mut counts = Counts::default();
        let mut digest = Digest::new();
        let mut problems = Vec::new();

        let started = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.begin(Kind::Region);
        }
        for pass in 0..sizes.replay_passes {
            let stats = match tracer.as_deref_mut() {
                Some(tr) => shadow::replay(
                    tr,
                    &mut counts,
                    pass * sizes.replay_allocs,
                    &trace,
                    &mut tcm,
                    &clock,
                ),
                None => trace.replay(&mut tcm, &clock),
            };
            if stats.allocs != stats.frees
                || stats.allocs != sizes.replay_allocs
                || tcm.live_objects() != 0
            {
                problems.push(format!(
                    "replay {pass}: {} allocs, {} frees, {} objects still live",
                    stats.allocs,
                    stats.frees,
                    tcm.live_objects()
                ));
            }
            digest.debug(&stats);
        }
        if let Some(tr) = tracer {
            tr.end();
        }
        let timed_s = started.elapsed().as_secs_f64();

        digest.debug(&(tcm.resident_bytes(), clock.now_ns(), tcm.cycles()));
        counts.machine_done(&tcm, tcm.resident_bytes(), tcm.hugepage_coverage());
        Region {
            started,
            timed_s,
            requests: sizes.replay_allocs * sizes.replay_passes,
            failed: 0,
            digest,
            problems,
            counts,
        }
    }
}

fn driver_steady(seed: u64, sizes: &Sizes) -> impl FnMut(Option<&mut Tracer>) -> Region + '_ {
    let spec = profiles::fleet_mix();
    let platform = chiplet();
    let cfg = TcmallocConfig::optimized();
    let dcfg = DriverConfig::new(sizes.driver_requests, seed, &platform);
    // A short throw-away run faults the binary in and warms the host's
    // caches; the machine under test still starts cold, as a user's does.
    let warmup = DriverConfig::new(sizes.driver_warmup_requests, seed ^ 1, &platform);
    drop(driver::run(&spec, &platform, cfg, &warmup));

    move |tracer| {
        let mut counts = Counts::default();
        let started = Instant::now();
        let (report, tcm) = match tracer {
            Some(tr) => {
                tr.begin(Kind::Region);
                let out = shadow::run(tr, &mut counts, 0, &spec, &platform, cfg, &dcfg);
                tr.end();
                out
            }
            None => driver::run(&spec, &platform, cfg, &dcfg),
        };
        let timed_s = started.elapsed().as_secs_f64();

        let mut problems = Vec::new();
        if report.requests != sizes.driver_requests {
            problems.push(format!(
                "{} of {} requests completed",
                report.requests, sizes.driver_requests
            ));
        }
        if report.failed_allocs != 0 {
            problems.push(format!("{} allocations refused", report.failed_allocs));
        }
        let mut digest = Digest::new();
        digest.debug(&(&report, tcm.cycles()));
        Region {
            started,
            timed_s,
            requests: report.requests,
            failed: report.failed_allocs,
            digest,
            problems,
            counts,
        }
    }
}

/// Output checks every survey summary must pass; returns uncovered machines.
fn check_summary(summary: &CellSummary, machines: usize, problems: &mut Vec<String>) -> u64 {
    let cov = &summary.coverage;
    if !cov.complete() || cov.planned() != machines as u64 {
        problems.push(format!(
            "coverage {}/{} of {machines} machines",
            cov.folded(),
            cov.planned()
        ));
    }
    if CellSummary::decode(&summary.encode()).as_ref() != Ok(summary) {
        problems.push("decode(encode(summary)) != summary".to_string());
    }
    (machines as u64).saturating_sub(cov.folded())
}

/// The survey's reference pass runs on min(nproc, 2) threads when it is the
/// measurement, and on one thread when it is the reference of the traced
/// pass, which mirrors the fold on one thread.
fn survey(
    seed: u64,
    traced: bool,
    sizes: &Sizes,
    tracer: &mut Tracer,
    extras: &mut Option<SurveyExtras>,
) -> (Region, Option<Region>) {
    let cfg = FleetSurveyConfig {
        machines: sizes.survey_machines,
        requests_per_machine: SURVEY_REQUESTS,
        seed,
        platform_mix: default_platform_mix(),
        population: sizes.survey_population,
        diurnal_period_ns: 1_000_000,
        rollout_stage: 2,
    };
    let (control, experiment) = (TcmallocConfig::baseline(), TcmallocConfig::optimized());
    let engine = Engine::new(threads());
    let warmup = FleetSurveyConfig {
        machines: sizes.survey_warmup_machines,
        ..cfg.clone()
    };
    try_run_fleet_survey(&engine, control, experiment, &warmup).expect("warm-up survey");
    let requests = sizes.survey_machines as u64 * SURVEY_REQUESTS;

    // A pass through the real survey on `engine`.
    let real = |engine: &Engine| -> (Region, Vec<u8>) {
        let mut problems = Vec::new();
        let mut digest = Digest::new();
        let started = Instant::now();
        let result = try_run_fleet_survey(engine, control, experiment, &cfg);
        let timed_s = started.elapsed().as_secs_f64();
        let (failed, bytes) = match result {
            Ok(r) => {
                let bytes = r.summary.encode();
                digest.bytes(&bytes);
                let uncovered = check_summary(&r.summary, cfg.machines, &mut problems);
                (uncovered * SURVEY_REQUESTS, bytes)
            }
            Err(e) => {
                problems.push(format!("survey aborted: {e}"));
                (requests, Vec::new())
            }
        };
        let region = Region {
            started,
            timed_s,
            requests,
            failed,
            digest,
            problems,
            counts: Counts::default(),
        };
        (region, bytes)
    };
    if !traced {
        return (real(&engine).0, None);
    }

    let (reference, reference_bytes) = real(&Engine::serial());
    let mut counts = Counts::default();
    let mut problems = Vec::new();
    let started = Instant::now();
    tracer.begin(Kind::Region);
    let shadow_summary = shadow::survey(tracer, &mut counts, control, experiment, &cfg);
    tracer.end();
    let timed_s = started.elapsed().as_secs_f64();
    let shadow_bytes = shadow_summary.encode();
    let mut digest = Digest::new();
    digest.bytes(&shadow_bytes);
    let failed = check_summary(&shadow_summary, cfg.machines, &mut problems) * SURVEY_REQUESTS
        + counts.failed_allocs;
    let mut identical = shadow_bytes == reference_bytes;

    // The same survey on T threads.
    let cpu_before = process_cpu_s();
    let (threaded, threaded_bytes) = real(&engine);
    let threaded_cpu_s = process_cpu_s() - cpu_before;
    identical &= threaded_bytes == reference_bytes;
    problems.extend(threaded.problems);

    // The four leaf-aligned spans a 4-process run would fold, in-process.
    let fold_spans = |cfg: &FleetSurveyConfig, shards: usize| -> (CellSummary, Vec<f64>) {
        let mut merged = CellSummary::new();
        let mut walls = Vec::new();
        for shard in 0..shards {
            let t = Instant::now();
            let span = process_shard_span(cfg.machines, shard, shards);
            let part = try_run_fleet_survey_span(&engine, control, experiment, cfg, span)
                .expect("survey span");
            walls.push(t.elapsed().as_secs_f64());
            merged.merge(&part);
        }
        (merged, walls)
    };
    let slowest = |walls: &[f64]| walls.iter().copied().fold(0.0, f64::max);
    let (merged, walls) = fold_spans(&cfg, IMBALANCE_SPANS);
    identical &= merged.encode() == reference_bytes;
    let span_imbalance = slowest(&walls) * walls.len() as f64 / walls.iter().sum::<f64>();

    // The process-sharded path folds the fixed SURVEY_SEED fleet, so it is
    // compared with the same fleet's spans folded in this process.
    let mut shards_overhead_s = 0.0;
    if sizes.shard_processes > 0 {
        let scale = Scale {
            survey_machines: cfg.machines,
            survey_requests: cfg.requests_per_machine,
            survey_population: cfg.population,
            engine: engine.clone(),
            ..Scale::quick()
        };
        let t = Instant::now();
        let sharded = fleet_summary(&scale, sizes.shard_processes);
        let sharded_s = t.elapsed().as_secs_f64();
        let fixed = scale.survey_config(SURVEY_SEED);
        let (merged, walls) = fold_spans(&fixed, sizes.shard_processes);
        identical &= sharded.encode() == merged.encode();
        check_summary(&sharded, fixed.machines, &mut problems);
        shards_overhead_s = sharded_s - slowest(&walls);
    }
    if !identical {
        problems.push(
            "1-thread, T-thread, shadow, merged-span and sharded summaries are not byte-identical"
                .to_string(),
        );
    }

    for _ in 0..CODEC_REPS {
        tracer.begin(Kind::Codec);
        let back = CellSummary::decode(&std::hint::black_box(&shadow_summary).encode());
        tracer.end();
        std::hint::black_box(back).expect("summary decodes");
        tracer.begin(Kind::Frame);
        let back = decode_payload(&encode_payload(std::hint::black_box(&shadow_bytes)));
        tracer.end();
        std::hint::black_box(back).expect("payload decodes");
    }

    *extras = Some(SurveyExtras {
        coverage: shadow_summary.coverage.fraction(),
        summary_bytes: shadow_bytes.len(),
        thread_speedup: reference.timed_s / threaded.timed_s,
        cpu_per_wall: threaded_cpu_s / threaded.timed_s,
        span_imbalance,
        shards_overhead_s,
        identical,
    });
    let shadow = Region {
        started,
        timed_s,
        requests,
        failed,
        digest,
        problems,
        counts,
    };
    (reference, Some(shadow))
}

/// Peak resident set of this process, MB (`VmHWM`; 0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used (user + system), from `/proc/self/stat`
/// at the usual 100 ticks per second; 0 where `/proc` is absent.
fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // utime and stime are the 14th and 15th fields; the 2nd, the
            // command name, is parenthesised and may hold spaces.
            let mut fields = s.rsplit_once(')')?.1.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}
