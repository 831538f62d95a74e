//! The request-level workload driver.
//!
//! This is the "application" of the reproduction: it replays a workload
//! model against one allocator instance on one simulated machine and
//! produces exactly the metrics the paper's experiments report —
//! **application productivity** (requests per CPU-second), CPI, LLC load
//! misses (Table 1), dTLB walk cycles (Table 2), RAM usage, hugepage
//! coverage (Figure 17), malloc cycle share (Figure 5a), and the per-vCPU
//! miss telemetry of Figure 9b.
//!
//! The driver realizes the paper's core causal chains end-to-end:
//! objects freed in an LLC domain are warm there, so reallocating them in
//! the same domain (NUCA transfer caches) avoids remote-LLC transfers; and
//! the page-table state the pageheap produces (hugepages intact vs
//! subreleased) feeds the dTLB simulator on every access.

use crate::generator::{self, Free, LiveObject, Slot, Stage, Tables};
use crate::spec::WorkloadSpec;
use wsc_parallel::{pipeline, Emit, Engine, Producer, Task, TaskError};
use wsc_sim_hw::cache::{LlcAccess, LlcModel, LlcStats};
use wsc_sim_hw::cost::CostModel;
use wsc_sim_hw::tlb::{PageSize, TlbGeometry, TlbOutcome, TlbSim, TlbStats};
use wsc_sim_hw::topology::{CpuId, DomainId, Platform};
use wsc_sim_os::clock::{Clock, NS_PER_SEC};
use wsc_tcmalloc::stats::FragmentationBreakdown;
use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
use wsc_telemetry::timeseries::TimeSeries;

/// Instructions charged per malloc/free pair beyond per-request work
/// (≈40 for the fast path each way, §3).
const INSTR_PER_ALLOC_PAIR: u64 = 80;

/// Driver parameters.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Requests to simulate.
    pub requests: u64,
    /// RNG seed (everything is deterministic given it).
    pub seed: u64,
    /// CPUs this process is constrained to (the control-plane cpuset).
    pub cpuset: Vec<CpuId>,
    /// How often the load level (thread count) is re-evaluated.
    pub load_interval_ns: u64,
    /// How often memory/threads time series are recorded.
    pub record_interval_ns: u64,
    /// Free every live object at the end (process teardown).
    pub drain_at_end: bool,
    /// Probability a free executes on the thread handling the *current*
    /// request rather than near the allocating CPU — the cross-CPU object
    /// flow that the transfer cache exists to serve (§4.2).
    pub remote_free_frac: f64,
}

impl DriverConfig {
    /// A sensible default: `requests` on 16 CPUs spread round-robin across
    /// the platform's LLC domains (large WSC applications "may span across
    /// multiple cache domains", §4.2).
    pub fn new(requests: u64, seed: u64, platform: &Platform) -> Self {
        let n = platform.num_cpus().min(16);
        // Span a handful of LLC domains, as the control plane would for an
        // application of this size (§4.2), without scattering over every
        // chiplet of a large machine.
        let domains = platform.num_domains().min(4);
        let per_domain = platform.cpus_per_domain();
        let cpuset = (0..n)
            .map(|i| {
                let d = i % domains;
                let k = i / domains;
                CpuId(((d * per_domain + k) % platform.num_cpus()) as u32)
            })
            .collect();
        Self {
            requests,
            seed,
            cpuset,
            load_interval_ns: NS_PER_SEC / 4,
            record_interval_ns: NS_PER_SEC / 4,
            drain_at_end: false,
            remote_free_frac: 0.5,
        }
    }

    /// Uses the given cpuset instead of the default.
    pub fn with_cpuset(mut self, cpuset: Vec<CpuId>) -> Self {
        self.cpuset = cpuset;
        self
    }
}

/// Everything one run measures.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Requests completed.
    pub requests: u64,
    /// Simulated wall-clock seconds.
    pub sim_seconds: f64,
    /// CPU-seconds of work performed (across threads).
    pub busy_cpu_seconds: f64,
    /// The productivity metric: requests per busy CPU-second.
    pub throughput: f64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// Estimated retired instructions.
    pub instructions: f64,
    /// LLC counters.
    pub llc: LlcStats,
    /// LLC load misses per kilo-instruction (Table 1).
    pub llc_mpki: f64,
    /// dTLB counters.
    pub tlb: TlbStats,
    /// Fraction of cycles spent in page walks, % (Table 2).
    pub dtlb_walk_pct: f64,
    /// Fraction of busy time inside the allocator (Figure 5a).
    pub malloc_frac: f64,
    /// Mean resident heap bytes over the run (the RAM metric).
    pub avg_resident_bytes: f64,
    /// Peak resident heap bytes.
    pub peak_resident_bytes: u64,
    /// Mean hugepage coverage over the run (Figure 17a).
    pub avg_hugepage_coverage: f64,
    /// Final fragmentation breakdown (Figures 5b/6b).
    pub fragmentation: FragmentationBreakdown,
    /// Worker-thread time series (Figure 9a).
    pub threads_ts: TimeSeries,
    /// Resident-bytes time series.
    pub resident_ts: TimeSeries,
    /// Per-vCPU miss counts (Figure 9b).
    pub percpu_misses: Vec<u64>,
    /// Allocations the kernel refused (injected ENOMEM / hard limit that
    /// survived the pageheap's release-and-retry). Always zero without a
    /// fault plan or memory limit.
    pub failed_allocs: u64,
}

/// Bytes per page the dTLB is charged for: a touch translates up to
/// [`MAX_TOUCH_PAGES`] of them.
const TOUCH_PAGE_BYTES: u64 = 8 << 10;
const MAX_TOUCH_PAGES: u64 = 4;

/// One step of a request as the simulated hardware sees it, in program
/// order. The allocator half emits them; the hardware half replays them.
#[derive(Clone, Copy, Debug)]
enum Record {
    /// An object touched `times` times back to back from a CPU in
    /// `domain`. Bit `p` of `huge` is set if page `p` of the object was
    /// backed by a 2 MiB page at the touches.
    Touch {
        domain: DomainId,
        huge: u8,
        times: u8,
        addr: u64,
        size: u64,
    },
    /// Allocator time spent serving the request (one malloc or free).
    Alloc(f64),
    /// The request's application compute time; the request ends.
    End(f64),
}

const _: () = assert!(std::mem::size_of::<Record>() == 24);

/// The simulated LLC and dTLB. Nothing the allocator half decides reads
/// them: the time they add is only summed into `busy_ns`, so they replay
/// the allocator half's [`Record`]s wherever [`pipeline`] runs them.
#[derive(Debug, Default)]
struct Hardware {
    llc: LlcModel,
    tlb: TlbSim,
    /// The current request's time so far.
    service_ns: f64,
    busy_ns: f64,
    walk_ns: f64,
}

impl Hardware {
    /// This hardware emptied for `platform`, with the storage of the LLC
    /// index and the dTLB kept.
    fn renew(self, platform: &Platform) -> Self {
        Self {
            llc: self
                .llc
                .renew(platform.num_domains(), platform.llc_bytes_per_domain()),
            tlb: self.tlb.renew(TlbGeometry::server()),
            ..Self::default()
        }
    }

    fn replay(&mut self, record: Record) {
        match record {
            Record::Touch {
                domain,
                huge,
                times,
                addr,
                size,
            } => {
                let ns = self.touch(domain, huge, addr, size);
                self.service_ns += ns;
                // The first touch left the block resident in `domain`, so
                // every repeat is an LLC hit; each still translates its
                // pages and adds its own time.
                if times > 1 {
                    self.llc.repeat_hits(domain, addr, u32::from(times - 1));
                    for _ in 1..times {
                        let ns = self.translate(COST.llc_hit_ns, huge, addr, size);
                        self.service_ns += ns;
                    }
                }
            }
            Record::Alloc(ns) => self.service_ns += ns,
            Record::End(base_ns) => {
                self.service_ns += base_ns;
                self.busy_ns += self.service_ns;
                self.service_ns = 0.0;
            }
        }
    }

    /// LLC + dTLB stall ns of one touch.
    fn touch(&mut self, domain: DomainId, huge: u8, addr: u64, size: u64) -> f64 {
        // One LLC access per object granule (clamped — large objects are
        // touched at a sampled set of pages).
        let ns = match self.llc.access(domain, addr, size.min(256 << 10)) {
            LlcAccess::Hit => COST.llc_hit_ns,
            LlcAccess::MissRemote => COST.remote_llc_ns,
            LlcAccess::MissMemory => COST.mem_ns,
        };
        self.translate(ns, huge, addr, size)
    }

    /// `ns` plus the dTLB stall ns of translating a touch's pages.
    fn translate(&mut self, mut ns: f64, huge: u8, addr: u64, size: u64) -> f64 {
        for p in 0..touch_pages(size) {
            let page = if (huge >> p) & 1 == 1 {
                PageSize::Huge2M
            } else {
                PageSize::Base4K
            };
            match self.tlb.access(addr + p * TOUCH_PAGE_BYTES, page) {
                TlbOutcome::L1Hit => {}
                TlbOutcome::L2Hit => ns += COST.l2_tlb_hit_ns,
                TlbOutcome::Walk => {
                    ns += COST.tlb_walk_ns;
                    self.walk_ns += COST.tlb_walk_ns;
                }
            }
        }
        ns
    }
}

fn touch_pages(size: u64) -> u64 {
    (size / TOUCH_PAGE_BYTES).clamp(1, MAX_TOUCH_PAGES)
}

/// The calibration every `Tcmalloc` is priced with
/// ([`Tcmalloc::cost_model`]); the hardware half prices touches with it.
const COST: CostModel = CostModel::production();

/// What the allocator half measures.
#[derive(Default)]
struct AllocatorTotals {
    malloc_ns: f64,
    failed_allocs: u64,
    instructions: u64,
    resident_ts: TimeSeries,
    resident_sum: f64,
    coverage_sum: f64,
    record_count: u64,
    peak_resident: u64,
}

/// One simulated machine: an allocator with its kernel, the LLC and dTLB,
/// and the driver's object tables. [`run`](Self::run) renews all of it to
/// exactly the state a fresh machine holds, keeping the host storage the
/// last run grew, so a machine that runs many workloads one after another
/// (an engine worker folding fleet cells) asks the host allocator for
/// almost nothing after its first run. Every report is the one a fresh
/// machine gives: [`run`](run()) is a fresh machine run once.
///
/// # Example
///
/// ```
/// use wsc_sim_hw::topology::Platform;
/// use wsc_tcmalloc::TcmallocConfig;
/// use wsc_workload::driver::{self, DriverConfig, Machine};
/// use wsc_workload::profiles;
///
/// let platform = Platform::chiplet("test", 1, 2, 4, 2);
/// let spec = profiles::fleet_mix();
/// let dcfg = DriverConfig::new(32, 7, &platform);
/// let mut machine = Machine::new();
/// machine.run(&profiles::redis(), &platform, TcmallocConfig::optimized(), &dcfg);
/// let again = machine.run(&spec, &platform, TcmallocConfig::baseline(), &dcfg);
/// let (fresh, _) = driver::run(&spec, &platform, TcmallocConfig::baseline(), &dcfg);
/// assert_eq!(format!("{again:?}"), format!("{fresh:?}"));
/// ```
#[derive(Debug, Default)]
pub struct Machine {
    /// The last run's allocator; `None` before the first run.
    tcm: Option<Tcmalloc>,
    /// The last run's LLC and dTLB.
    hw: Hardware,
    tables: Tables,
}

impl Machine {
    /// A machine that has run nothing and holds no storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `spec` against this machine renewed as a fresh allocator
    /// configured with `tcm_cfg` on `platform`, and returns the metrics.
    /// The allocator stays with the machine ([`allocator`](Self::allocator))
    /// until the next run renews it.
    ///
    /// The allocator half (requests, the allocator, the page table) and the
    /// hardware half (the LLC and dTLB models) are joined by a one-way
    /// [`pipeline`]: on a spare core when there is one and the caller is not
    /// an engine task, else on the calling thread. The report is the same
    /// either way, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cpuset` is empty.
    pub fn run(
        &mut self,
        spec: &WorkloadSpec,
        platform: &Platform,
        tcm_cfg: TcmallocConfig,
        cfg: &DriverConfig,
    ) -> RunReport {
        assert!(!cfg.cpuset.is_empty(), "cpuset must be non-empty");
        let mut hw = std::mem::take(&mut self.hw).renew(platform);
        let tables = std::mem::take(&mut self.tables).renew();
        let allocator = AllocatorHalf {
            spec,
            platform,
            tcm_cfg,
            cfg,
            tcm: self.tcm.take().unwrap_or_default(),
            tables,
        };
        let (totals, tcm, tables, threads_ts) = pipeline(allocator, |record| hw.replay(record));

        let busy_ns = hw.busy_ns;
        let instructions = totals.instructions;
        let busy_cpu_seconds = busy_ns / 1e9;
        let sim_seconds = tcm.clock().now_ns() as f64 / 1e9;
        let cycles = COST.ns_to_cycles(busy_ns);
        let llc_stats = hw.llc.stats();
        let tlb_stats = hw.tlb.stats();
        let samples = totals.record_count.max(1) as f64;
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
            dtlb_walk_pct: hw.walk_ns / busy_ns.max(1e-12) * 100.0,
            malloc_frac: totals.malloc_ns / busy_ns.max(1e-12),
            avg_resident_bytes: totals.resident_sum / samples,
            peak_resident_bytes: totals.peak_resident,
            avg_hugepage_coverage: totals.coverage_sum / samples,
            fragmentation: tcm.fragmentation(),
            threads_ts,
            resident_ts: totals.resident_ts,
            percpu_misses: tcm.percpu_miss_counts(),
            failed_allocs: totals.failed_allocs,
        };
        self.tcm = Some(tcm);
        self.hw = hw;
        self.tables = tables;
        report
    }

    /// The allocator of the last run (for telemetry that lives inside it,
    /// e.g. span statistics and sampled profiles).
    ///
    /// # Panics
    ///
    /// Panics if the machine has not run.
    pub fn allocator(&self) -> &Tcmalloc {
        self.tcm.as_ref().expect("the machine has run")
    }

    /// The allocator of the last run, by value.
    ///
    /// # Panics
    ///
    /// Panics if the machine has not run.
    pub fn into_allocator(self) -> Tcmalloc {
        self.tcm.expect("the machine has run")
    }
}

/// Runs `spec` against a fresh allocator configured with `tcm_cfg` on
/// `platform`: a fresh [`Machine`] run once. Returns the metrics and the
/// allocator (for telemetry that lives inside it, e.g. span statistics and
/// sampled profiles).
///
/// The allocator half runs on a helper thread when a core is spare and the
/// caller is not an engine task ([`Machine::run`]); the report is the same
/// either way, bit for bit.
pub fn run(
    spec: &WorkloadSpec,
    platform: &Platform,
    tcm_cfg: TcmallocConfig,
    cfg: &DriverConfig,
) -> (RunReport, Tcmalloc) {
    let mut machine = Machine::new();
    let report = machine.run(spec, platform, tcm_cfg, cfg);
    (report, machine.into_allocator())
}

/// The allocator half of [`Machine::run`]: the workload
/// ([`generator::generate`]), the allocator and its page table.
struct AllocatorHalf<'a> {
    spec: &'a WorkloadSpec,
    platform: &'a Platform,
    tcm_cfg: TcmallocConfig,
    cfg: &'a DriverConfig,
    /// The machine's allocator, to renew.
    tcm: Tcmalloc,
    tables: Tables,
}

impl Producer<Record> for AllocatorHalf<'_> {
    type Output = (AllocatorTotals, Tcmalloc, Tables, TimeSeries);

    fn produce<E: Emit<Record>>(self, out: &mut E) -> Self::Output {
        let clock = Clock::new();
        let tcm = self
            .tcm
            .renew(self.tcm_cfg, self.platform.clone(), clock.clone());
        let mut stage = AllocatorStage {
            spec: self.spec,
            platform: self.platform,
            record_interval_ns: self.cfg.record_interval_ns,
            tcm,
            out,
            cpu: CpuId(0),
            domain: DomainId(0),
            next_record_ns: 0,
            totals: AllocatorTotals {
                resident_ts: TimeSeries::new("resident"),
                ..AllocatorTotals::default()
            },
        };
        let (tables, threads_ts) =
            generator::generate(self.spec, self.cfg, &clock, self.tables, &mut stage);
        (stage.totals, stage.tcm, tables, threads_ts)
    }
}

/// The driver's [`Stage`]: calls the allocator for every operation the
/// workload issues and emits what the hardware half replays. Each object
/// touch becomes a [`Record::Touch`] carrying the page sizes the kernel
/// backs it with at that moment.
struct AllocatorStage<'a, E> {
    spec: &'a WorkloadSpec,
    platform: &'a Platform,
    record_interval_ns: u64,
    tcm: Tcmalloc,
    out: &'a mut E,
    /// The current request's CPU and its LLC domain.
    cpu: CpuId,
    domain: DomainId,
    next_record_ns: u64,
    totals: AllocatorTotals,
}

impl<E: Emit<Record>> AllocatorStage<'_, E> {
    /// Touches an object `times` times back to back from a CPU in
    /// `domain`: the dTLB translates up to 4 pages of it at the page size
    /// the kernel currently backs them with, which no touch changes.
    fn touch_from(&mut self, domain: DomainId, addr: u64, size: u64, times: u32) {
        let pt = self.tcm.pageheap().vmm().page_table();
        let huge = (0..touch_pages(size)).fold(0u8, |bits, p| {
            let page = pt.page_size_of(addr + p * TOUCH_PAGE_BYTES);
            bits | u8::from(page == PageSize::Huge2M) << p
        });
        let mut left = times;
        while left > 0 {
            let n = u8::try_from(left).unwrap_or(u8::MAX);
            left -= u32::from(n);
            self.out.emit(Record::Touch {
                domain,
                huge,
                times: n,
                addr,
                size,
            });
        }
    }
}

impl<E: Emit<Record>> Stage for AllocatorStage<'_, E> {
    #[inline]
    fn request(&mut self, cpu: CpuId) {
        // Every touch of the request comes from `cpu` (a due free may come
        // from the object's home CPU instead): resolve the domain once.
        self.cpu = cpu;
        self.domain = self.platform.domain_of(cpu);
    }

    #[inline]
    fn alloc(&mut self, _slot: Slot, size: u64, site: usize, cpu: CpuId) -> Option<u64> {
        // Fault-aware: a refused allocation is counted, not fatal.
        let Ok(a) = self.tcm.try_malloc_with_site(size, cpu, site as u64) else {
            self.totals.failed_allocs += 1;
            return None;
        };
        self.out.emit(Record::Alloc(a.ns));
        self.totals.malloc_ns += a.ns;
        self.totals.instructions += INSTR_PER_ALLOC_PAIR / 2;
        self.touch_from(self.domain, a.addr, size, self.spec.accesses_per_object);
        Some(a.addr)
    }

    #[inline]
    fn free(&mut self, _slot: Slot, obj: &LiveObject, cpu: CpuId, why: Free) {
        let (addr, size) = (obj.addr(), obj.size);
        // A due object's consumer touches it, then frees it — so the data is
        // warm in the freeing CPU's domain.
        if why == Free::Due {
            let domain = if cpu == self.cpu {
                self.domain
            } else {
                self.platform.domain_of(cpu)
            };
            self.touch_from(domain, addr, size, 1);
            self.totals.instructions += INSTR_PER_ALLOC_PAIR / 2;
        }
        let f = self.tcm.free(addr, size, cpu);
        // Process exit is not request work: nothing is charged.
        if why != Free::Teardown {
            self.out.emit(Record::Alloc(f.ns));
            self.totals.malloc_ns += f.ns;
        }
    }

    #[inline]
    fn touch(&mut self, obj: &LiveObject) {
        self.touch_from(self.domain, obj.addr(), obj.size, 1);
    }

    #[inline]
    fn end(&mut self, now: u64, _step: u64) {
        // Application compute (base IPC of 2 on the simulated core).
        self.out.emit(Record::End(
            COST.cycles_to_ns(self.spec.instr_per_request as f64 / 2.0),
        ));
        self.totals.instructions += self.spec.instr_per_request;
        self.tcm.maintain();

        if now >= self.next_record_ns {
            self.next_record_ns = now + self.record_interval_ns;
            let t = &mut self.totals;
            let resident = self.tcm.resident_bytes();
            t.resident_ts.push(now, resident as f64);
            t.resident_sum += resident as f64;
            t.coverage_sum += self.tcm.hugepage_coverage();
            t.record_count += 1;
            t.peak_resident = t.peak_resident.max(resident);
        }
    }
}

/// One unit of work for [`run_batch`]: a complete, self-contained run
/// specification (workload, machine, allocator config, driver knobs).
#[derive(Clone, Debug)]
pub struct RunJob {
    /// Workload to replay.
    pub spec: WorkloadSpec,
    /// Machine to replay it on.
    pub platform: Platform,
    /// Allocator configuration under test.
    pub tcm_cfg: TcmallocConfig,
    /// Driver knobs (including the run's seed).
    pub dcfg: DriverConfig,
}

/// Runs a batch of independent jobs on `engine`, returning `extract`'s
/// value per job **in submission order** regardless of thread count.
///
/// Each worker holds one [`Machine`] for the whole batch and runs its jobs
/// on it, so a job sees a fresh `Tcmalloc` + sim-os instance built in
/// storage the worker's earlier jobs grew; only the extracted value
/// crosses threads, so `R` is the sole `Send` requirement. The task seed
/// is the job's own `dcfg.seed` (batching never reseeds a run).
///
/// # Errors
///
/// Returns the [`TaskError`] naming the lowest-index failing job (its
/// label is `"{workload} seed {seed:#x}"`) if any job panics.
pub fn run_batch<R: Send>(
    engine: &Engine,
    jobs: Vec<RunJob>,
    extract: impl Fn(&RunReport, &Tcmalloc) -> R + Sync,
) -> Result<Vec<R>, TaskError> {
    let tasks: Vec<Task<RunJob>> = jobs
        .into_iter()
        .map(|job| Task {
            seed: job.dcfg.seed,
            label: format!("{} seed {:#x}", job.spec.name, job.dcfg.seed),
            payload: job,
        })
        .collect();
    engine.run_with(&tasks, Machine::new, |machine, task, _| {
        let j = &task.payload;
        let report = machine.run(&j.spec, &j.platform, j.tcm_cfg, &j.dcfg);
        extract(&report, machine.allocator())
    })
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::profiles;
    use wsc_prng::SmallRng;

    fn platform() -> Platform {
        Platform::chiplet("test", 1, 2, 4, 2)
    }

    fn quick(spec: &WorkloadSpec, cfg: TcmallocConfig, seed: u64) -> (RunReport, Tcmalloc) {
        let p = platform();
        let dcfg = DriverConfig::new(4_000, seed, &p);
        run(spec, &p, cfg, &dcfg)
    }

    #[test]
    fn fleet_run_produces_sane_metrics() {
        let (r, tcm) = quick(&profiles::fleet_mix(), TcmallocConfig::baseline(), 1);
        assert_eq!(r.requests, 4_000);
        assert!(r.throughput > 0.0);
        assert!(r.cpi > 0.4 && r.cpi < 10.0, "cpi {}", r.cpi);
        assert!(
            r.malloc_frac > 0.005 && r.malloc_frac < 0.30,
            "malloc {}",
            r.malloc_frac
        );
        assert!(r.avg_resident_bytes > 0.0);
        assert!(r.llc.accesses > 0 && r.tlb.accesses > 0);
        assert!(tcm.live_bytes() > 0, "working set persists");
        assert!(r.fragmentation.ratio() > 0.0);
    }

    #[test]
    fn run_batch_is_thread_count_invariant() {
        let p = platform();
        let jobs: Vec<RunJob> = (0..4)
            .map(|i| RunJob {
                spec: profiles::fleet_mix(),
                platform: p.clone(),
                tcm_cfg: TcmallocConfig::baseline(),
                dcfg: DriverConfig::new(1_000, 10 + i, &p),
            })
            .collect();
        let serial = run_batch(&Engine::new(1), jobs.clone(), |r, _| {
            (r.throughput, r.avg_resident_bytes)
        })
        .unwrap();
        let threaded = run_batch(&Engine::new(3), jobs, |r, _| {
            (r.throughput, r.avg_resident_bytes)
        })
        .unwrap();
        assert_eq!(serial, threaded, "submission-order results, bit-identical");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = quick(&profiles::fleet_mix(), TcmallocConfig::baseline(), 7);
        let (b, _) = quick(&profiles::fleet_mix(), TcmallocConfig::baseline(), 7);
        assert_eq!(a.busy_cpu_seconds, b.busy_cpu_seconds);
        assert_eq!(a.llc, b.llc);
        assert_eq!(a.tlb, b.tlb);
        assert_eq!(a.fragmentation, b.fragmentation);
    }

    #[test]
    fn reproduces_reports_captured_before_the_two_step_size_draw() {
        // `deterministic_given_seed` compares a run with itself. These
        // values were captured from the commit before the per-request
        // weight hoist and the word-parallel filler; both are simulator-only
        // speed-ups, so every simulated statistic must stay bit-equal.
        let (r, _) = quick(&profiles::fleet_binary(3), TcmallocConfig::optimized(), 7);
        assert_eq!(r.busy_cpu_seconds.to_bits(), 0x3fa1_117c_bf99_3294);
        assert_eq!(
            r.llc,
            LlcStats {
                accesses: 394_402,
                hits: 332_733,
                remote_misses: 28_101,
                memory_misses: 33_568,
            }
        );
        assert_eq!(
            r.tlb,
            TlbStats {
                accesses: 394_626,
                l1_hits: 394_619,
                l2_hits: 0,
                walks: 7,
            }
        );
        assert_eq!(
            r.fragmentation,
            FragmentationBreakdown {
                live_bytes: 4_417_297,
                internal_bytes: 324_407,
                percpu_bytes: 2_558_920,
                transfer_bytes: 3_779_088,
                central_bytes: 765_920,
                pageheap_bytes: 2_834_432,
                resident_bytes: 14_680_064,
            }
        );

        let (r, _) = quick(&profiles::fleet_mix(), TcmallocConfig::baseline(), 7);
        assert_eq!(r.busy_cpu_seconds.to_bits(), 0x3f99_f514_a92a_3c53);
        assert_eq!((r.llc.accesses, r.llc.hits), (399_362, 337_694));
        assert_eq!((r.tlb.accesses, r.tlb.walks), (399_685, 7));
        assert_eq!(r.fragmentation.live_bytes, 5_205_257);
        assert_eq!(r.fragmentation.pageheap_bytes, 1_982_464);
    }

    #[test]
    fn eviction_order_is_pinned_on_a_small_llc() {
        // Neither case above (nor any benchmark workload) ever fills a
        // 32 MiB domain. At 256 KiB per domain tens of thousands of blocks
        // are evicted (69 745 memory misses against 34 365 at 32 MiB), so a
        // wrong victim moves these counts. Captured from the commit before
        // the stamp-ordered LLC and the calendar queue.
        let p = Platform::new("small-llc", 1, 1, 2, 4, 2, 256 << 10);
        let dcfg = DriverConfig::new(4_000, 7, &p);
        let (r, _) = run(
            &profiles::fleet_mix(),
            &p,
            TcmallocConfig::optimized(),
            &dcfg,
        );
        assert_eq!(r.busy_cpu_seconds.to_bits(), 0x3f9c_4bdd_4fdc_1e47);
        assert_eq!(
            r.llc,
            LlcStats {
                accesses: 399_362,
                hits: 315_048,
                remote_misses: 14_569,
                memory_misses: 69_745,
            }
        );
        assert_eq!(
            r.tlb,
            TlbStats {
                accesses: 399_685,
                l1_hits: 399_678,
                l2_hits: 0,
                walks: 7,
            }
        );
        assert_eq!(
            r.fragmentation,
            FragmentationBreakdown {
                live_bytes: 5_205_257,
                internal_bytes: 348_775,
                percpu_bytes: 2_556_992,
                transfer_bytes: 4_358_976,
                central_bytes: 809_232,
                pageheap_bytes: 1_400_832,
                resident_bytes: 14_680_064,
            }
        );
    }

    #[test]
    fn repeat_counts_reproduce_reports_captured_one_touch_per_record() {
        // Captured from the commit before a `Touch` record carried a repeat
        // count. 300 touches per object travel as two records (255 + 45),
        // and 0 as none; on the 256 KiB platform the stamp a run of repeats
        // leaves decides later victims.
        let p = platform();
        let small = Platform::new("small-llc", 1, 1, 2, 4, 2, 256 << 10);
        let cases = [
            (&p, 300, 0x3fb6_e77e_d157_a621, [6_001_173, 6_714, 10_508]),
            (&p, 0, 0x3f74_8d9a_e49b_9631, [6_886, 4_427, 7_082]),
            (
                &small,
                300,
                0x3fb6_fa76_43cd_35fd,
                [5_998_161, 4_948, 15_286],
            ),
        ];
        for (platform, touches, busy, [hits, remote, memory]) in cases {
            let mut spec = profiles::fleet_mix();
            spec.accesses_per_object = touches;
            let dcfg = DriverConfig::new(1_000, 7, platform);
            let (r, _) = run(&spec, platform, TcmallocConfig::optimized(), &dcfg);
            let at = format!("{} with {touches} touches", platform.name());
            assert_eq!(r.busy_cpu_seconds.to_bits(), busy, "{at}");
            assert_eq!(
                r.llc,
                LlcStats {
                    accesses: hits + remote + memory,
                    hits,
                    remote_misses: remote,
                    memory_misses: memory,
                },
                "{at}"
            );
            let tlb = if touches == 0 { 18_400 } else { 6_023_500 };
            assert_eq!(
                r.tlb,
                TlbStats {
                    accesses: tlb,
                    l1_hits: tlb - 5,
                    l2_hits: 0,
                    walks: 5,
                },
                "{at}"
            );
        }
    }

    #[test]
    fn a_one_request_run_is_pinned() {
        // One request's `busy_cpu_seconds` is its `service_ns` to the bit:
        // no later request's sum can absorb a difference inside it. Sixty
        // objects touched 255 times each, so nearly every touch is a
        // repeat (the other eight are working-set re-accesses). One request
        // touches from one LLC domain, so it has no remote miss;
        // `repeats_add_one_at_a_time` has them. Captured from the driver as
        // it stood when this pin was added.
        let p = platform();
        let mut spec = profiles::fleet_mix();
        spec.accesses_per_object = 255;
        spec.allocs_per_request = 60.0;
        let (r, _) = run(
            &spec,
            &p,
            TcmallocConfig::optimized(),
            &DriverConfig::new(1, 7, &p),
        );
        assert_eq!(r.busy_cpu_seconds.to_bits(), 0x3f30_7426_cf69_e387);
        assert_eq!(
            r.llc,
            LlcStats {
                accesses: 15_308,
                hits: 15_248,
                remote_misses: 0,
                memory_misses: 60,
            }
        );
        assert_eq!((r.tlb.accesses, r.tlb.l2_hits, r.tlb.walks), (15_308, 0, 2));
    }

    #[test]
    fn repeats_add_one_at_a_time() {
        // A record's repeats are priced and added one by one, as the one
        // touch per record they replace was. A repeat costs exactly
        // `llc_hit_ns`, and in every `driver::run` probed (1–3 requests, 300
        // seeds each, 255 touches an object) one product `ns * (times - 1)`
        // rounded as the additions do, so no run pin tells the two apart.
        // Allocator times of arbitrary bits do: seeded records, with remote
        // misses and L2 dTLB hits among them, replay once as they are and
        // once split into one-touch records, and each request's running sum
        // must agree bit for bit.
        let p = platform();
        let mut rng = SmallRng::seed_from_u64(41);
        let mut records = Vec::new();
        for i in 0..4_000u32 {
            let cpu = CpuId(rng.gen_range(0..p.num_cpus() as u32));
            records.push(Record::Alloc(rng.gen::<f64>() * 40.0));
            records.push(Record::Touch {
                domain: p.domain_of(cpu),
                huge: rng.gen_range(0u8..16),
                times: rng.gen_range(1u8..=u8::MAX),
                addr: rng.gen_range(0u64..512) << 12,
                size: rng.gen_range(1u64..64 << 10),
            });
            if i % 8 == 7 {
                records.push(Record::End(rng.gen::<f64>() * 1_000.0));
            }
        }
        // A request's sum is compared after every record: `busy_ns`, the
        // sum of hundreds of requests, would absorb a last-bit difference.
        let mut packed = Hardware::default().renew(&p);
        let mut split = Hardware::default().renew(&p);
        for (i, &record) in records.iter().enumerate() {
            packed.replay(record);
            match record {
                Record::Touch {
                    domain,
                    huge,
                    times,
                    addr,
                    size,
                } => {
                    for _ in 0..times {
                        split.replay(Record::Touch {
                            domain,
                            huge,
                            times: 1,
                            addr,
                            size,
                        });
                    }
                }
                _ => split.replay(record),
            }
            let (a, b) = (packed.service_ns, split.service_ns);
            assert_eq!(a.to_bits(), b.to_bits(), "record {i}: {a} against {b}");
        }
        assert_eq!(packed.busy_ns.to_bits(), split.busy_ns.to_bits());
        assert_eq!(packed.walk_ns.to_bits(), split.walk_ns.to_bits());
        assert_eq!(packed.llc.stats(), split.llc.stats());
        assert_eq!(packed.tlb.stats(), split.tlb.stats());
        let (llc, tlb) = (packed.llc.stats(), packed.tlb.stats());
        assert!(llc.remote_misses > 0 && tlb.l2_hits > 0, "{llc:?} {tlb:?}");
    }

    #[test]
    fn a_touchs_repeats_are_added_in_order() {
        // One record of 255 touches to a resident block whose page the
        // L1 dTLB holds: every touch costs exactly `llc_hit_ns`. Added one
        // by one after an allocator time of 1000/3 ns, the sum rounds
        // differently from the same repeats added as one product, and the
        // replay must give the sequential sum, bit for bit.
        let p = platform();
        let mut hw = Hardware::default().renew(&p);
        let (domain, addr, size) = (DomainId(0), 0x4000, 64);
        let touch = |times| Record::Touch {
            domain,
            huge: 0,
            times,
            addr,
            size,
        };
        hw.replay(touch(1));
        hw.replay(Record::End(0.0));
        let (before, times) = (1000.0 / 3.0, u8::MAX);
        hw.replay(Record::Alloc(before));
        hw.replay(touch(times));
        let sequential = (0..times).fold(before, |sum, _| sum + COST.llc_hit_ns);
        let product = before + COST.llc_hit_ns + COST.llc_hit_ns * f64::from(times - 1);
        assert_ne!(
            sequential.to_bits(),
            product.to_bits(),
            "the inputs tell the orders apart"
        );
        assert_eq!(
            hw.service_ns.to_bits(),
            sequential.to_bits(),
            "{} against {sequential}",
            hw.service_ns
        );
        assert_eq!(hw.llc.stats().hits, u64::from(times));
        assert_eq!(hw.tlb.stats().l1_hits, u64::from(times));
    }

    #[test]
    fn seeds_differ() {
        let (a, _) = quick(&profiles::fleet_mix(), TcmallocConfig::baseline(), 1);
        let (b, _) = quick(&profiles::fleet_mix(), TcmallocConfig::baseline(), 2);
        assert_ne!(a.busy_cpu_seconds, b.busy_cpu_seconds);
    }

    #[test]
    fn spec_has_near_zero_malloc_share() {
        let (spec_r, _) = quick(&profiles::spec_cpu(0), TcmallocConfig::baseline(), 3);
        let (fleet_r, _) = quick(&profiles::fleet_mix(), TcmallocConfig::baseline(), 3);
        assert!(
            spec_r.malloc_frac < fleet_r.malloc_frac / 3.0,
            "spec {} vs fleet {}",
            spec_r.malloc_frac,
            fleet_r.malloc_frac
        );
    }

    #[test]
    fn drain_empties_heap() {
        let p = platform();
        let dcfg = DriverConfig {
            drain_at_end: true,
            ..DriverConfig::new(2_000, 5, &p)
        };
        let (_r, tcm) = run(
            &profiles::fleet_mix(),
            &p,
            TcmallocConfig::baseline(),
            &dcfg,
        );
        assert_eq!(tcm.live_bytes(), 0);
        assert_eq!(tcm.live_objects(), 0);
    }

    /// A middle-tier-like spec with time compressed so a short test run
    /// spans several load cycles.
    fn bursty_spec() -> WorkloadSpec {
        let mut spec = profiles::middle_tier_service();
        spec.threads.base = 5.0;
        spec.threads.amplitude = 0.9;
        spec.threads.period_ns = 20_000_000; // 20 ms diurnal cycle
        spec.threads.spike_prob = 0.10;
        spec.threads.spike_mult = 3.0;
        spec.threads.max = 16;
        spec
    }

    #[test]
    fn thread_series_fluctuates() {
        let p = platform();
        let dcfg = DriverConfig {
            load_interval_ns: 1_000_000,
            ..DriverConfig::new(6_000, 11, &p)
        };
        let (r, _) = run(&bursty_spec(), &p, TcmallocConfig::baseline(), &dcfg);
        assert!(r.threads_ts.len() > 2);
        let (lo, hi) = (r.threads_ts.min(), r.threads_ts.max());
        assert!(hi.expect("non-empty") > lo.expect("non-empty"));
    }

    #[test]
    fn vcpu_miss_skew_exists() {
        // Fig 9b: with fluctuating threads, low vCPUs miss more than high.
        let p = platform();
        let dcfg = DriverConfig {
            load_interval_ns: 1_000_000,
            ..DriverConfig::new(10_000, 13, &p)
        };
        let (r, _) = run(&bursty_spec(), &p, TcmallocConfig::baseline(), &dcfg);
        let m = &r.percpu_misses;
        assert!(m.len() > 4, "several vCPUs populated");
        let lo: u64 = m[..2].iter().sum();
        let hi: u64 = m[m.len() - 2..].iter().sum();
        assert!(lo > hi, "low vCPUs {lo} vs high {hi}");
    }
}
