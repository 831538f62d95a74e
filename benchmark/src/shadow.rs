//! Mirrors of `workload::driver::run`, `Trace::replay` and the survey's
//! per-machine fold, with a span around every call into a layer.
//!
//! The traced run needs spans around calls that happen *inside* those three
//! functions, and this change may not edit the crates, so the loops are
//! repeated here statement for statement. A mirror can go stale: every traced
//! run therefore checks that the mirror's simulated output equals the real
//! function's on the same seed (`workload.shadow_faithful`), and the crate's
//! tests compare them field for field.
//!
//! Between two back-to-back calls chained with `Tracer::switch`, the few
//! instructions of loop bookkeeping are charged to the earlier span.

use crate::spans::{Kind, Tracer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use wsc_fleet::experiment::{CellSummary, FleetSurveyConfig};
use wsc_fleet::population::{CycleSampler, Population};
use wsc_fleet::rollout::RolloutSchedule;
use wsc_parallel::{fold_leaf_bounds, fold_leaf_count};
use wsc_prng::{derive_seed, SmallRng};
use wsc_sim_hw::cache::{LlcAccess, LlcModel, LlcStats};
use wsc_sim_hw::cost::AllocPath;
use wsc_sim_hw::tlb::{TlbGeometry, TlbOutcome, TlbSim, TlbStats};
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::Clock;
use wsc_sim_os::sched::Scheduler;
use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
use wsc_telemetry::summary::quantize_weight;
use wsc_telemetry::timeseries::TimeSeries;
use wsc_workload::driver::{DriverConfig, RunReport};
use wsc_workload::trace::{ReplayStats, Trace, TraceEvent};
use wsc_workload::WorkloadSpec;

// Private constants of `workload::driver`, repeated.
const INSTR_PER_ALLOC_PAIR: u64 = 80;
const WORKING_SET_MAX_OBJECTS: usize = 60_000;
const WORKING_SET_MAX_BYTES: u64 = 192 << 20;

/// Requests at the start of a machine's life that count as cold: the length
/// of one survey machine's whole run.
pub const COLD_REQUESTS: u64 = 32;

/// Allocator tiers host time is bucketed by (`Mmap` counts as pageheap).
pub const TIERS: [&str; 4] = ["percpu", "transfer", "central", "pageheap"];

fn tier(path: AllocPath) -> usize {
    match path {
        AllocPath::PerCpu => 0,
        AllocPath::TransferCache => 1,
        AllocPath::CentralFreeList => 2,
        AllocPath::PageHeap | AllocPath::Mmap => 3,
    }
}

/// Exact counts and per-tier host time gathered beside the spans.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// malloc/free calls by deepest tier reached.
    pub tier_calls: [u64; 4],
    /// Uncorrected host ns of those calls.
    pub tier_host_ns: [u64; 4],
    /// Simulated allocator ns charged by malloc/free (`outcome.ns`).
    pub sim_alloc_ns: f64,
    pub requests: u64,
    pub failed_allocs: u64,
    /// Uncorrected host ns of the first [`COLD_REQUESTS`] requests per machine.
    pub cold_req_ns: u64,
    pub cold_reqs: u64,
    pub warm_req_ns: u64,
    pub warm_reqs: u64,
    pub llc: LlcStats,
    pub tlb: TlbStats,
    pub mmap_calls: u64,
    pub madvise_calls: u64,
    pub peak_resident_bytes: u64,
    /// Sum over machines of mean hugepage coverage (divide by `machines`).
    pub hugepage_coverage_sum: f64,
    pub machines: u64,
}

impl Counts {
    /// Records one malloc/free outcome and its span's duration.
    pub fn op(&mut self, path: AllocPath, sim_ns: f64, host_ns: u64) {
        let t = tier(path);
        self.tier_calls[t] += 1;
        self.tier_host_ns[t] += host_ns;
        self.sim_alloc_ns += sim_ns;
    }

    /// Records the allocator's kernel-call counts and one finished machine.
    pub fn machine_done(&mut self, tcm: &Tcmalloc, peak_resident: u64, coverage: f64) {
        let os = tcm.pageheap().os().stats();
        self.mmap_calls += os.mmap_calls;
        self.madvise_calls += os.madvise_calls;
        self.peak_resident_bytes = self.peak_resident_bytes.max(peak_resident);
        self.hugepage_coverage_sum += coverage;
        self.machines += 1;
    }

    fn add_hw(&mut self, llc: LlcStats, tlb: TlbStats) {
        self.llc.accesses += llc.accesses;
        self.llc.hits += llc.hits;
        self.llc.remote_misses += llc.remote_misses;
        self.llc.memory_misses += llc.memory_misses;
        self.tlb.accesses += tlb.accesses;
        self.tlb.l1_hits += tlb.l1_hits;
        self.tlb.l2_hits += tlb.l2_hits;
        self.tlb.walks += tlb.walks;
    }
}

struct LiveObject {
    addr: u64,
    size: u64,
    home_cpu: CpuId,
}

/// Mirror of `workload::driver::run`. `first_request` numbers this machine's
/// requests within the whole traced run.
pub fn run(
    tr: &mut Tracer,
    counts: &mut Counts,
    first_request: u64,
    spec: &WorkloadSpec,
    platform: &Platform,
    tcm_cfg: TcmallocConfig,
    cfg: &DriverConfig,
) -> (RunReport, Tcmalloc) {
    assert!(!cfg.cpuset.is_empty(), "cpuset must be non-empty");
    let clock = Clock::new();
    tr.begin(Kind::TcmNew);
    let mut tcm = Tcmalloc::new(tcm_cfg, platform.clone(), clock.clone());
    tr.end();
    let mut sched = Scheduler::new(cfg.cpuset.clone());
    tr.begin(Kind::HwNew);
    let mut llc = LlcModel::new(platform.num_domains(), platform.llc_bytes_per_domain());
    let mut tlb = TlbSim::new(TlbGeometry::server());
    tr.end();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let cost = *tcm.cost_model();

    let mut frees: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut objects: Vec<Option<LiveObject>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut working_set: VecDeque<usize> = VecDeque::new();
    let mut working_set_bytes: u64 = 0;
    let mut ws_cursor = 0usize;

    let mut busy_ns = 0.0f64;
    let mut malloc_ns = 0.0f64;
    let mut failed_allocs = 0u64;
    let mut walk_ns = 0.0f64;
    let mut instructions = 0u64;
    let mut next_load_ns = 0u64;
    let mut next_record_ns = 0u64;
    let mut threads_ts = TimeSeries::new("threads");
    let mut resident_ts = TimeSeries::new("resident");
    let mut resident_sum = 0.0f64;
    let mut coverage_sum = 0.0f64;
    let mut record_count = 0u64;
    let mut peak_resident = 0u64;

    let store = |objects: &mut Vec<Option<LiveObject>>,
                 free_slots: &mut Vec<usize>,
                 obj: LiveObject|
     -> usize {
        if let Some(idx) = free_slots.pop() {
            objects[idx] = Some(obj);
            idx
        } else {
            objects.push(Some(obj));
            objects.len() - 1
        }
    };

    let mut touch = |tr: &mut Tracer,
                     tcm: &Tcmalloc,
                     llc: &mut LlcModel,
                     tlb: &mut TlbSim,
                     cpu: CpuId,
                     addr: u64,
                     size: u64|
     -> f64 {
        let domain = platform.domain_of(cpu);
        let mut ns = 0.0;
        tr.begin(Kind::Llc);
        match llc.access(domain, addr, size.min(256 << 10)) {
            LlcAccess::Hit => ns += cost.llc_hit_ns,
            LlcAccess::MissRemote => ns += cost.remote_llc_ns,
            LlcAccess::MissMemory => ns += cost.mem_ns,
        }
        let pt = tcm.pageheap().vmm().page_table();
        let pages = (size / (8 << 10)).clamp(1, 4);
        for p in 0..pages {
            let a = addr + p * (8 << 10);
            tr.switch(Kind::PageSizeOf);
            let page_size = pt.page_size_of(a);
            tr.switch(Kind::Tlb);
            match tlb.access(a, page_size) {
                TlbOutcome::L1Hit => {}
                TlbOutcome::L2Hit => ns += cost.l2_tlb_hit_ns,
                TlbOutcome::Walk => {
                    ns += cost.tlb_walk_ns;
                    walk_ns += cost.tlb_walk_ns;
                }
            }
        }
        tr.end();
        ns
    };

    for req in 0..cfg.requests {
        tr.set_request(first_request + req);
        tr.begin(Kind::Request);
        let now = clock.now_ns();
        if now >= next_load_ns {
            next_load_ns = now + cfg.load_interval_ns;
            tr.begin(Kind::Sample);
            let t = spec.threads.at(now, &mut rng).min(cfg.cpuset.len() * 4);
            tr.end();
            sched.set_active_threads(t);
            threads_ts.push(now, t as f64);
        }
        let active = sched.active_threads();
        let thread = rng.gen_range(0..active);
        let cpu = sched.cpu_for_thread(thread);

        let mut service_ns = 0.0f64;

        while let Some(&Reverse((deadline, idx))) = frees.peek() {
            if deadline > now {
                break;
            }
            frees.pop();
            let obj = objects[idx].take().expect("object already freed");
            free_slots.push(idx);
            let free_cpu = if rng.gen::<f64>() < cfg.remote_free_frac {
                cpu
            } else {
                obj.home_cpu
            };
            service_ns += touch(tr, &tcm, &mut llc, &mut tlb, free_cpu, obj.addr, obj.size);
            tr.begin(Kind::Free);
            let f = tcm.free(obj.addr, obj.size, free_cpu);
            counts.op(f.path, f.ns, tr.end());
            service_ns += f.ns;
            malloc_ns += f.ns;
            instructions += INSTR_PER_ALLOC_PAIR / 2;
        }

        let n_allocs = {
            let base = spec.allocs_per_request.floor() as u64;
            let frac = spec.allocs_per_request - base as f64;
            base + u64::from(rng.gen::<f64>() < frac)
        };
        for _ in 0..n_allocs {
            tr.begin(Kind::Sample);
            let (size, site) = spec.sample_size(now, &mut rng);
            tr.switch(Kind::Malloc);
            let a = tcm.try_malloc_with_site(size, cpu, site as u64);
            let host_ns = tr.end();
            let a = match a {
                Ok(a) => a,
                Err(_) => {
                    failed_allocs += 1;
                    continue;
                }
            };
            counts.op(a.path, a.ns, host_ns);
            service_ns += a.ns;
            malloc_ns += a.ns;
            instructions += INSTR_PER_ALLOC_PAIR / 2;
            for _ in 0..spec.accesses_per_object {
                service_ns += touch(tr, &tcm, &mut llc, &mut tlb, cpu, a.addr, size);
            }
            let idx = store(
                &mut objects,
                &mut free_slots,
                LiveObject {
                    addr: a.addr,
                    size,
                    home_cpu: cpu,
                },
            );
            tr.begin(Kind::Sample);
            let lifetime = spec.sample_lifetime(size, site, &mut rng);
            tr.end();
            match lifetime {
                Some(lt) => frees.push(Reverse((now + lt, idx))),
                None => {
                    working_set.push_back(idx);
                    working_set_bytes += size;
                    while working_set.len() > WORKING_SET_MAX_OBJECTS
                        || working_set_bytes > WORKING_SET_MAX_BYTES
                    {
                        let evict = working_set.pop_front().expect("non-empty");
                        if let Some(obj) = objects[evict].take() {
                            free_slots.push(evict);
                            working_set_bytes -= obj.size;
                            tr.begin(Kind::Free);
                            let f = tcm.free(obj.addr, obj.size, cpu);
                            counts.op(f.path, f.ns, tr.end());
                            service_ns += f.ns;
                            malloc_ns += f.ns;
                        }
                    }
                }
            }
        }

        if !working_set.is_empty() {
            for _ in 0..spec.working_set_touches {
                ws_cursor =
                    (ws_cursor + 1 + rng.gen_range(0..working_set.len())) % working_set.len();
                if let Some(obj) = objects[working_set[ws_cursor]].as_ref() {
                    let (addr, size) = (obj.addr, obj.size);
                    service_ns += touch(tr, &tcm, &mut llc, &mut tlb, cpu, addr, size);
                }
            }
        }

        let base_ns = cost.cycles_to_ns(spec.instr_per_request as f64 / 2.0);
        service_ns += base_ns;
        instructions += spec.instr_per_request;
        busy_ns += service_ns;

        let interarrival = 1e9 / (spec.request_rate_hz * active as f64);
        clock.advance(interarrival.max(1.0) as u64);
        tr.begin(Kind::Maintain);
        tcm.maintain();
        tr.end();

        if now >= next_record_ns {
            next_record_ns = now + cfg.record_interval_ns;
            tr.begin(Kind::TcmQuery);
            let resident = tcm.resident_bytes();
            let coverage = tcm.hugepage_coverage();
            tr.end();
            resident_ts.push(now, resident as f64);
            resident_sum += resident as f64;
            coverage_sum += coverage;
            record_count += 1;
            peak_resident = peak_resident.max(resident);
        }
        let host_ns = tr.end();
        if req < COLD_REQUESTS {
            counts.cold_req_ns += host_ns;
            counts.cold_reqs += 1;
        } else {
            counts.warm_req_ns += host_ns;
            counts.warm_reqs += 1;
        }
    }

    if cfg.drain_at_end {
        let cpu = cfg.cpuset[0];
        for obj in objects.iter_mut().filter_map(Option::take) {
            tr.begin(Kind::Free);
            let f = tcm.free(obj.addr, obj.size, cpu);
            counts.op(f.path, f.ns, tr.end());
        }
    }

    let busy_cpu_seconds = busy_ns / 1e9;
    let sim_seconds = clock.now_ns() as f64 / 1e9;
    let cycles = cost.ns_to_cycles(busy_ns);
    let llc_stats = llc.stats();
    let tlb_stats = tlb.stats();
    tr.begin(Kind::TcmQuery);
    let fragmentation = tcm.fragmentation();
    let percpu_misses = tcm.percpu_miss_counts();
    tr.end();
    let report = RunReport {
        workload: spec.name.clone(),
        requests: cfg.requests,
        sim_seconds,
        busy_cpu_seconds,
        throughput: cfg.requests as f64 / busy_cpu_seconds.max(1e-12),
        cpi: cycles / (instructions as f64).max(1.0),
        instructions: instructions as f64,
        llc: llc_stats,
        llc_mpki: llc_stats.misses() as f64 * 1000.0 / (instructions as f64).max(1.0),
        tlb: tlb_stats,
        dtlb_walk_pct: walk_ns / busy_ns.max(1e-12) * 100.0,
        malloc_frac: malloc_ns / busy_ns.max(1e-12),
        avg_resident_bytes: resident_sum / record_count.max(1) as f64,
        peak_resident_bytes: peak_resident,
        avg_hugepage_coverage: coverage_sum / record_count.max(1) as f64,
        fragmentation,
        threads_ts,
        resident_ts,
        percpu_misses,
        failed_allocs,
    };
    counts.requests += cfg.requests;
    counts.failed_allocs += failed_allocs;
    counts.add_hw(llc_stats, tlb_stats);
    counts.machine_done(
        &tcm,
        report.peak_resident_bytes,
        report.avg_hugepage_coverage,
    );
    (report, tcm)
}

/// Mirror of `Trace::replay`. A request is one trace step: an `Advance`, the
/// frees that came due, and one allocation. `first_request` numbers this
/// replay's steps within the whole traced run.
pub fn replay(
    tr: &mut Tracer,
    counts: &mut Counts,
    first_request: u64,
    trace: &Trace,
    tcm: &mut Tcmalloc,
    clock: &Clock,
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    let mut live: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut step = first_request;
    let mut in_request = false;
    for ev in &trace.events {
        match *ev {
            TraceEvent::Alloc {
                id,
                size,
                site,
                cpu,
            } => {
                tr.begin(Kind::Malloc);
                let out = tcm.malloc_with_site(size, CpuId(cpu), site as u64);
                counts.op(out.path, out.ns, tr.end());
                let prev = live.insert(id, (out.addr, size));
                assert!(prev.is_none(), "trace reuses live id {id}");
                stats.allocs += 1;
                stats.malloc_ns += out.ns;
            }
            TraceEvent::Free { id, cpu } => {
                let (addr, size) = live
                    .remove(&id)
                    .unwrap_or_else(|| panic!("trace frees unknown id {id}"));
                tr.begin(Kind::Free);
                let out = tcm.free(addr, size, CpuId(cpu));
                counts.op(out.path, out.ns, tr.end());
                stats.frees += 1;
                stats.malloc_ns += out.ns;
            }
            TraceEvent::Advance { ns } => {
                if in_request {
                    tr.end();
                }
                tr.set_request(step);
                step += 1;
                tr.begin(Kind::Request);
                in_request = true;
                clock.advance(ns);
                tr.begin(Kind::Maintain);
                tcm.maintain();
                tr.end();
            }
        }
        tr.begin(Kind::TcmQuery);
        let resident = tcm.resident_bytes();
        tr.end();
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
    }
    if in_request {
        tr.end();
    }
    counts.requests += step - first_request;
    stats
}

// Private helpers of `fleet::experiment`, repeated.

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

fn one_cpuset(platform: &Platform) -> Vec<CpuId> {
    let per = platform.num_cpus().clamp(2, 16);
    (0..per)
        .map(|c| CpuId((c % platform.num_cpus()) as u32))
        .collect()
}

struct SurveyCell {
    weight_q: u64,
    platform: Platform,
    cpuset: Vec<CpuId>,
    spec: WorkloadSpec,
}

fn survey_cell(
    cfg: &FleetSurveyConfig,
    pop: &Population,
    sampler: &CycleSampler,
    m: usize,
) -> SurveyCell {
    let mut rng = SmallRng::seed_from_u64(derive_seed(cfg.seed ^ 0xf1ee7, m as u64));
    let platform = sample_platform(&cfg.platform_mix, &mut rng);
    let bin = &pop.binaries()[sampler.sample(&mut rng)];
    let mut spec = bin.spec();
    spec.threads.period_ns = cfg.diurnal_period_ns;
    spec.threads.phase_ns = rng.gen_range(0..cfg.diurnal_period_ns.max(1));
    spec.threads.amplitude = spec.threads.amplitude.max(0.35);
    let cpuset = one_cpuset(&platform);
    SurveyCell {
        weight_q: quantize_weight(bin.cycle_weight),
        platform,
        cpuset,
        spec,
    }
}

/// Mirror of `fleet::experiment::try_run_fleet_survey` on one thread: the
/// same machines, seeds, leaf partition and leaf-order merge as
/// `Engine::fold_seeded`, with the shadow driver as the per-machine run.
pub fn survey(
    tr: &mut Tracer,
    counts: &mut Counts,
    control: TcmallocConfig,
    experiment: TcmallocConfig,
    cfg: &FleetSurveyConfig,
) -> CellSummary {
    tr.begin(Kind::Population);
    let pop = Population::new(cfg.population, cfg.seed);
    let sampler = pop.cycle_sampler();
    let schedule = RolloutSchedule::staged(cfg.seed ^ 0x5706e);
    tr.end();
    let mut root: Option<CellSummary> = None;
    for leaf in 0..fold_leaf_count(cfg.machines) {
        let (lo, hi) = fold_leaf_bounds(cfg.machines, leaf);
        let mut acc = CellSummary::new();
        for m in lo..hi {
            tr.set_request(m as u64 * cfg.requests_per_machine);
            tr.begin(Kind::Machine);
            let seed = derive_seed(cfg.seed, m as u64);
            tr.begin(Kind::Spec);
            let cell = survey_cell(cfg, &pop, &sampler, m);
            tr.end();
            let dcfg = DriverConfig::new(cfg.requests_per_machine, seed, &cell.platform)
                .with_cpuset(cell.cpuset.clone());
            let enrolled = schedule.enrolled(cfg.rollout_stage, m as u64);
            let arm = if enrolled { experiment } else { control };
            let (r, tcm) = run(
                tr,
                counts,
                m as u64 * cfg.requests_per_machine,
                &cell.spec,
                &cell.platform,
                arm,
                &dcfg,
            );
            tr.begin(Kind::TcmDrop);
            drop(tcm);
            tr.switch(Kind::Fold);
            acc.fold_arm(enrolled, &r, cell.weight_q);
            tr.end();
            tr.end();
        }
        tr.begin(Kind::Merge);
        match root.as_mut() {
            None => root = Some(acc),
            Some(root) => root.merge(&acc),
        }
        tr.end();
    }
    root.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_fleet::experiment::{default_platform_mix, try_run_fleet_survey};
    use wsc_parallel::Engine;
    use wsc_workload::{driver, profiles};

    const SEEDS: [u64; 3] = [42, 1042, 7];

    #[test]
    fn shadow_driver_equals_driver_run_field_for_field() {
        let platform = default_platform_mix().remove(0).1;
        let spec = profiles::fleet_mix();
        for seed in SEEDS {
            let dcfg = DriverConfig::new(3_000, seed, &platform);
            let (real, real_tcm) =
                driver::run(&spec, &platform, TcmallocConfig::optimized(), &dcfg);
            let mut counts = Counts::default();
            let (shadow, shadow_tcm) = run(
                &mut Tracer::new(),
                &mut counts,
                0,
                &spec,
                &platform,
                TcmallocConfig::optimized(),
                &dcfg,
            );
            // Debug prints every field, and floats in shortest round-trip
            // form, so equal text is bit-equal reports.
            assert_eq!(format!("{shadow:?}"), format!("{real:?}"), "seed {seed}");
            assert_eq!(shadow_tcm.live_bytes(), real_tcm.live_bytes());
            assert_eq!(
                format!("{:?}", shadow_tcm.cycles()),
                format!("{:?}", real_tcm.cycles())
            );
            assert_eq!(counts.requests, 3_000);
            assert_eq!(counts.llc, real.llc);
            assert_eq!(counts.cold_reqs + counts.warm_reqs, 3_000);
        }
    }

    #[test]
    fn shadow_replay_equals_trace_replay_field_for_field() {
        let platform = default_platform_mix().remove(0).1;
        for seed in SEEDS {
            let trace = Trace::record(&profiles::fleet_mix(), 4_000, seed);
            let fresh = || {
                let clock = Clock::new();
                let tcm =
                    Tcmalloc::new(TcmallocConfig::optimized(), platform.clone(), clock.clone());
                (tcm, clock)
            };
            let (mut real_tcm, real_clock) = fresh();
            let (mut shadow_tcm, shadow_clock) = fresh();
            let mut counts = Counts::default();
            // Two passes: the second replays onto a warmed allocator, as the
            // workload does.
            for pass in 0..2 {
                let real = trace.replay(&mut real_tcm, &real_clock);
                let shadow = replay(
                    &mut Tracer::new(),
                    &mut counts,
                    0,
                    &trace,
                    &mut shadow_tcm,
                    &shadow_clock,
                );
                assert_eq!(shadow, real, "seed {seed} pass {pass}");
            }
            assert_eq!(shadow_tcm.live_objects(), 0);
            assert_eq!(shadow_clock.now_ns(), real_clock.now_ns());
            assert_eq!(
                format!("{:?}", shadow_tcm.cycles()),
                format!("{:?}", real_tcm.cycles())
            );
            assert_eq!(counts.requests, 8_000);
            assert_eq!(counts.tier_calls.iter().sum::<u64>(), 16_000);
        }
    }

    #[test]
    fn shadow_survey_equals_the_engine_fold_byte_for_byte() {
        for seed in SEEDS {
            let cfg = FleetSurveyConfig {
                machines: 300,
                requests_per_machine: 16,
                seed,
                platform_mix: default_platform_mix(),
                population: 50,
                diurnal_period_ns: 1_000_000,
                rollout_stage: 2,
            };
            let (control, experiment) = (TcmallocConfig::baseline(), TcmallocConfig::optimized());
            let real = try_run_fleet_survey(&Engine::new(2), control, experiment, &cfg).unwrap();
            let mut counts = Counts::default();
            let shadow = survey(&mut Tracer::new(), &mut counts, control, experiment, &cfg);
            assert_eq!(shadow.encode(), real.summary.encode(), "seed {seed}");
            assert_eq!(counts.machines, 300);
        }
    }
}
