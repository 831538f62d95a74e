//! One reference model, over the whole config lattice.
//!
//! Every cell of the lattice runs one seeded op stream through four copies
//! of the allocator in lockstep, and after every operation the copies must
//! agree with each other and with an independent reference model:
//!
//! * **Cells** — §4.1 dynamic per-CPU sizing {off, on} × transfer sharding
//!   {central, domain, node} × `cfl_lists` {1, 8} × lifetime-aware filler
//!   {off, on} × {no faults, the `thp-outage` storm for the first two
//!   simulated seconds, a hard limit that refuses}: 72 cells, one `#[test]`
//!   per fault column.
//! * **Copies** — unobserved (until a late sink attaches half-way), one
//!   keeping the whole stream in a [`TraceRing::UNBOUNDED`] ring,
//!   `Sanitize::Full` with an extra `audit_now` every 64 operations, and one
//!   watched only by the reference sink.
//! * **Reference model** — a [`ShadowState`] fed through `attach_sink` from
//!   the event stream alone, through the entry points the sanitizer's bus
//!   feed uses: `SpanAlloc` maps a span, `SpanRetire` forgets it,
//!   `MallocDone` records an object on the span it lies in, `FreeDone`
//!   checks the free against the class its size maps to. It never reads
//!   allocator metadata and keeps no span map of its own.
//! * **Op mix** — zero-size, small, mid and large mallocs on random CPUs;
//!   frees mostly from a CPU in another LLC domain or node than the one
//!   that allocated, so objects cross between transfer-cache shards; ticks
//!   of up to 255 ms,
//!   so they cross the plunder, release, decay and resize intervals. One
//!   seed per cell, and forty-eight more on each of the two cells equal to
//!   the shipped `baseline()` and `optimized()` configs.
//! * **Schedules** — [`producer_consumer`] and [`thread_churn`] at four
//!   seeds each, on the two shipped cells: frees from the CPU the schedule
//!   names, ticks in nanoseconds.
//!
//! After every op: every copy returned the same `try_*` result (address or
//! error, path and `ns` bits) and books the same ledger; the shadow's live
//! set equals this harness's own `addr → size` model, which every copy's
//! `live_objects` / `live_bytes` agree with; nothing reported. Every 64th
//! op the `Full` copy audits clean. At the end of a run: the `Full` copy
//! audits clean, teardown leaves `resident == total` in the fragmentation
//! identity, the ledger is the reported nanoseconds, the ring dropped
//! nothing and its stream replays to the same ledger and profile, and the
//! late sink saw what the ring saw.
//!
//! Held fixed, with the reason:
//! * `percpu_max_bytes` moves with `dynamic_percpu`, as
//!   `with_heterogeneous_percpu` sets it — no caller sets one without the
//!   other.
//! * `capacity_threshold` stays at 16: it moves placement inside the
//!   lifetime-aware filler, not the paths the filler takes.
//! * `sample_period_bytes` is 64 KiB instead of 2 MiB, so sampling fires
//!   within a cell's few hundred operations.
//! * `soft_limit` stays unset: it adds release passes, not paths, and
//!   `tests/chaos_soak.rs` drives it under every named storm.
//! * `sanitize` and `trace_capacity` are the copies, and `hard_limit` /
//!   `os_faults` the fault column, rather than cells.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use wsc_prng::SmallRng;
use wsc_sanitizer::ShadowState;
use wsc_sim_hw::cost::ns_to_ps;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::{Clock, NS_PER_SEC};
use wsc_sim_os::faults::FaultPlan;
use wsc_tcmalloc::events::EventSink;
use wsc_tcmalloc::size_class::SizeClassTable;
use wsc_tcmalloc::stats::StatsView;
use wsc_tcmalloc::transfer::TransferSharding;
use wsc_tcmalloc::{AllocEvent, SanitizeLevel, Tcmalloc, TcmallocConfig, TraceRing};

/// Operations per run, before the teardown frees what is still live.
const OPS: usize = 1000;
/// The `Full` copy's extra audit cadence, in operations.
const AUDIT_EVERY: usize = 64;
/// The hard-limit column's limit: below what the op mix keeps live.
const HARD_LIMIT: u64 = 12 << 20;
/// Logical CPUs: 1 socket × 2 NUMA nodes × 2 LLC domains × 2 cores × 2 SMT,
/// so CPU `c ^ 4` sits in another domain and `c ^ 8` on another node.
const CPUS: u32 = 16;

fn platform() -> Platform {
    Platform::new("lattice", 1, 2, 2, 2, 2, 32 << 20)
}

// The lockstep copies, by index.
const QUIET: usize = 0;
const RING: usize = 1;
const FULL: usize = 2;
const SHADOW: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Faults {
    None,
    Storm,
    HardLimit,
}

/// One cell of the lattice.
#[derive(Clone, Copy, Debug)]
struct Cell {
    dynamic_percpu: bool,
    sharding: TransferSharding,
    cfl_lists: usize,
    lifetime_filler: bool,
    faults: Faults,
}

impl Cell {
    fn config(self) -> TcmallocConfig {
        let mut cfg = TcmallocConfig::baseline();
        if self.dynamic_percpu {
            cfg = cfg.with_heterogeneous_percpu();
        }
        if self.lifetime_filler {
            cfg = cfg.with_lifetime_filler();
        }
        cfg.transfer = self.sharding;
        cfg.cfl_lists = self.cfl_lists;
        cfg.sample_period_bytes = 64 << 10;
        match self.faults {
            Faults::None => cfg,
            Faults::Storm => cfg.with_os_faults(
                FaultPlan::named("thp-outage", 0x57_0E)
                    .expect("catalogued storm")
                    .with_storm(0, 2 * NS_PER_SEC),
            ),
            Faults::HardLimit => cfg.with_hard_limit(HARD_LIMIT),
        }
    }
}

/// The cells equal to `TcmallocConfig::baseline()` and `optimized()`, up to
/// the sample period.
fn shipped_cells() -> [Cell; 2] {
    let cells = [false, true].map(|on| Cell {
        dynamic_percpu: on,
        sharding: if on {
            TransferSharding::Domain
        } else {
            TransferSharding::Central
        },
        cfl_lists: if on { 8 } else { 1 },
        lifetime_filler: on,
        faults: Faults::None,
    });
    for (cell, mut shipped) in cells
        .into_iter()
        .zip([TcmallocConfig::baseline(), TcmallocConfig::optimized()])
    {
        shipped.sample_period_bytes = 64 << 10;
        assert_eq!(cell.config(), shipped, "{cell:?}");
    }
    cells
}

/// The 24 cells of one fault column.
fn cells(faults: Faults) -> Vec<Cell> {
    let mut out = Vec::new();
    for dynamic_percpu in [false, true] {
        for sharding in [
            TransferSharding::Central,
            TransferSharding::Domain,
            TransferSharding::Node,
        ] {
            for cfl_lists in [1, 8] {
                for lifetime_filler in [false, true] {
                    out.push(Cell {
                        dynamic_percpu,
                        sharding,
                        cfl_lists,
                        lifetime_filler,
                        faults,
                    });
                }
            }
        }
    }
    out
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Malloc {
        size: u64,
        cpu: u32,
    },
    /// Free the `k % live`-th live object from the CPU `site` picks.
    Free {
        k: u32,
        site: Site,
    },
    Tick {
        ns: u64,
    },
}

/// The CPU that frees an object.
#[derive(Clone, Copy, Debug)]
enum Site {
    /// Relative to the allocating CPU: 0 and 1 another LLC domain, 2
    /// another node, 3 the allocating CPU itself.
    Near(u32),
    /// The CPU a schedule names.
    Cpu(u32),
}

/// 4 malloc (zero-size, small, mid and large sizes), 3 free, 1 tick.
fn sample_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..8) {
        0..=3 => {
            let size = match rng.gen_range(0u32..12) {
                0 => 0,
                1..=8 => rng.gen_range(1u64..4096),
                9..=10 => rng.gen_range(4096u64..(256 << 10)),
                _ => rng.gen_range(256u64 << 10..(4 << 20)),
            };
            Op::Malloc {
                size,
                cpu: rng.gen_range(0..CPUS),
            }
        }
        4..=6 => Op::Free {
            k: rng.gen::<u32>(),
            site: Site::Near(rng.gen_range(0u32..4)),
        },
        _ => Op::Tick {
            ns: rng.gen_range(0u64..256) * 1_000_000,
        },
    }
}

/// `OPS` operations of the op mix, drawn from `seed`.
fn sampled_ops(seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..OPS).map(|_| sample_op(&mut rng)).collect()
}

/// A producer→consumer pipeline: `producers` allocate, `consumers` free
/// the `slot % live`-th live object, with a rolling backlog of up to ~48
/// live objects, and a settling 100 ms tick at the end. Sizes stay in the
/// small classes, so the traffic circulates per-CPU → transfer → central.
fn producer_consumer(seed: u64, producers: &[u32], consumers: &[u32], ops: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(ops + 1);
    let mut backlog = 0u64; // objects allocated but not yet freed
    for _ in 0..ops {
        let want_alloc = backlog < 8 || (backlog < 48 && rng.gen_range(0u32..10) < 5);
        if want_alloc {
            let cpu = producers[rng.gen_range(0..producers.len())];
            out.push(Op::Malloc {
                cpu: cpu % CPUS,
                size: rng.gen_range(16u64..2048),
            });
            backlog += 1;
        } else {
            let cpu = consumers[rng.gen_range(0..consumers.len())];
            out.push(Op::Free {
                k: rng.gen::<u32>(),
                site: Site::Cpu(cpu % CPUS),
            });
            backlog -= 1;
        }
        if rng.gen_range(0u32..32) == 0 {
            out.push(Op::Tick {
                ns: rng.gen_range(1_000_000u64..20_000_000),
            });
        }
    }
    out.push(Op::Tick { ns: 100_000_000 });
    out
}

/// Thread churn: every CPU in `0..cpus` allocates (small to 512 KiB) and
/// frees at random, with occasional ticks and a settling 100 ms tick at
/// the end.
fn thread_churn(seed: u64, cpus: u32, ops: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(ops + 1);
    let mut backlog = 0u64;
    for _ in 0..ops {
        match rng.gen_range(0u32..10) {
            0..=4 => {
                let size = match rng.gen_range(0u32..8) {
                    0..=5 => rng.gen_range(16u64..4096),
                    6 => rng.gen_range(4096u64..(64 << 10)),
                    _ => rng.gen_range(64u64 << 10..(512 << 10)),
                };
                out.push(Op::Malloc {
                    cpu: rng.gen_range(0..cpus) % CPUS,
                    size,
                });
                backlog += 1;
            }
            5..=8 if backlog > 0 => {
                out.push(Op::Free {
                    k: rng.gen::<u32>(),
                    site: Site::Cpu(rng.gen_range(0..cpus) % CPUS),
                });
                backlog -= 1;
            }
            5..=8 => {} // nothing live to free; skip
            // Three in four tick; the fourth adds no operation.
            _ => {
                if rng.gen_range(0u32..4) != 0 {
                    out.push(Op::Tick {
                        ns: rng.gen_range(1_000_000u64..50_000_000),
                    });
                }
            }
        }
    }
    out.push(Op::Tick { ns: 100_000_000 });
    out
}

/// The freeing CPU of an object allocated on `alloc_cpu`.
fn free_cpu(alloc_cpu: u32, site: Site) -> CpuId {
    CpuId(match site {
        Site::Near(0 | 1) => alloc_cpu ^ 4,
        Site::Near(2) => alloc_cpu ^ 8,
        Site::Near(_) => alloc_cpu,
        Site::Cpu(cpu) => cpu,
    })
}

/// The reference model's state: a shadow heap built from events only.
#[derive(Default)]
struct Reference {
    shadow: ShadowState,
    /// Spans retired but not yet forgotten. A free's own span can retire
    /// before its `FreeDone`, so a retirement is applied only once that
    /// free has been checked, or before the next span or object is
    /// recorded.
    retired: Vec<u64>,
}

impl Reference {
    fn settle(&mut self) {
        for start in std::mem::take(&mut self.retired) {
            self.shadow.forget_span(start);
        }
    }
}

struct ReferenceSink(Arc<Mutex<Reference>>);

impl EventSink for ReferenceSink {
    fn on_event(&mut self, _ts_ns: u64, ev: &AllocEvent) {
        let mut r = self.0.lock().expect("reference lock");
        match *ev {
            AllocEvent::SpanAlloc {
                id,
                start,
                pages,
                class,
            } => {
                r.settle();
                r.shadow.map_span(id, start, pages, class);
            }
            AllocEvent::SpanRetire { start, .. } => r.retired.push(start),
            AllocEvent::MallocDone { addr, actual, .. } => {
                r.settle();
                r.shadow.record_alloc(addr, actual);
            }
            AllocEvent::FreeDone { addr, size, .. } => {
                let class = SizeClassTable::shared().class_for(size);
                let _ = r.shadow.check_free(addr, class.map(|c| c as u16));
                r.settle();
            }
            _ => {}
        }
    }
}

/// A sink that shares what it saw with the test.
struct Shared(Arc<Mutex<Vec<AllocEvent>>>);

impl EventSink for Shared {
    fn on_event(&mut self, _ts_ns: u64, ev: &AllocEvent) {
        self.0.lock().expect("sink lock").push(*ev);
    }
}

/// What the harness knows about one live object.
#[derive(Clone, Copy)]
struct Live {
    size: u64,
    actual: u64,
    cpu: u32,
}

/// One cell's four copies plus the harness's own model.
struct Lockstep {
    copies: Vec<(Tcmalloc, Clock)>,
    reference: Arc<Mutex<Reference>>,
    /// `addr → object`: the model the shadow's live set must equal.
    model: BTreeMap<u64, Live>,
    /// Live addresses in allocation order, for picking the k-th.
    order: Vec<u64>,
    /// What the operations returned, in the ledger's integer picoseconds.
    reported_ps: u64,
    refusals: u64,
}

impl Lockstep {
    fn new(cfg: TcmallocConfig) -> Self {
        let cfgs = [
            cfg,
            cfg.with_trace(TraceRing::UNBOUNDED),
            cfg.with_sanitize(SanitizeLevel::Full),
            cfg,
        ];
        let mut copies: Vec<(Tcmalloc, Clock)> = cfgs
            .iter()
            .map(|&cfg| {
                let clock = Clock::new();
                (Tcmalloc::new(cfg, platform(), clock.clone()), clock)
            })
            .collect();
        let reference = Arc::new(Mutex::new(Reference::default()));
        copies[SHADOW]
            .0
            .attach_sink(Box::new(ReferenceSink(reference.clone())));
        Self {
            copies,
            reference,
            model: BTreeMap::new(),
            order: Vec::new(),
            reported_ps: 0,
            refusals: 0,
        }
    }

    fn malloc(&mut self, size: u64, cpu: u32, ctx: &str) {
        let results: Vec<_> = self
            .copies
            .iter_mut()
            .map(|(t, _)| {
                t.try_malloc_with_site(size, CpuId(cpu), 0)
                    .map(|a| (a.addr, a.actual_bytes, a.path, a.ns.to_bits()))
            })
            .collect();
        for (k, r) in results.iter().enumerate() {
            assert_eq!(*r, results[0], "{ctx}: copy {k} diverged on malloc({size})");
        }
        match results[0] {
            Ok((addr, actual, _, ns)) => {
                assert!(actual >= size, "{ctx}: {actual} B reserved for {size} B");
                let fresh = self.model.insert(addr, Live { size, actual, cpu });
                assert!(fresh.is_none(), "{ctx}: {addr:#x} handed out twice");
                self.order.push(addr);
                self.reported_ps += ns_to_ps(f64::from_bits(ns));
            }
            Err(_) => self.refusals += 1,
        }
    }

    fn free(&mut self, k: usize, site: Site, ctx: &str) {
        let addr = self.order.swap_remove(k);
        let live = self
            .model
            .remove(&addr)
            .expect("ordered addresses are live");
        let cpu = free_cpu(live.cpu, site);
        let results: Vec<_> = self
            .copies
            .iter_mut()
            .map(|(t, _)| {
                t.try_free(addr, live.size, cpu)
                    .map(|f| (f.path, f.ns.to_bits()))
            })
            .collect();
        for (k, r) in results.iter().enumerate() {
            assert_eq!(
                *r, results[0],
                "{ctx}: copy {k} diverged on free({addr:#x})"
            );
        }
        let (_, ns) = results[0].expect("a free of a live object succeeds");
        self.reported_ps += ns_to_ps(f64::from_bits(ns));
    }

    fn tick(&mut self, ns: u64) {
        for (t, clock) in &mut self.copies {
            clock.advance(ns);
            t.maintain();
        }
    }

    /// Everything the ring copy saw.
    fn stream(&self) -> Vec<AllocEvent> {
        self.copies[RING].0.trace().expect("trace ring").stream()
    }

    /// The per-op checks.
    fn check(&self, ctx: &str) {
        let ledger = self.copies[QUIET].0.cycles();
        let live_bytes: u64 = self.model.values().map(|l| l.size).sum();
        for (k, (t, _)) in self.copies.iter().enumerate() {
            assert_eq!(t.cycles(), ledger, "{ctx}: copy {k} booked another ledger");
            assert_eq!(
                (t.live_objects(), t.live_bytes()),
                (self.model.len() as u64, live_bytes),
                "{ctx}: copy {k} disagrees with the model's live set"
            );
            assert!(
                t.sanitizer_reports().is_empty(),
                "{ctx}: copy {k} sanitizer: {:?}",
                t.sanitizer_reports()
            );
        }
        let mut r = self.reference.lock().expect("reference lock");
        r.settle();
        assert!(
            r.shadow.reports().is_empty(),
            "{ctx}: reference model: {:?}",
            r.shadow.reports()
        );
        assert!(
            r.shadow
                .live_objects()
                .map(|(addr, o)| (addr, o.size))
                .eq(self.model.iter().map(|(&addr, l)| (addr, l.actual))),
            "{ctx}: the shadow holds {} live objects, the model {}",
            r.shadow.live_objects().count(),
            self.model.len()
        );
    }
}

/// Runs `ops` on one cell; adds the event kinds it saw to `seen`.
fn run_cell(cell: Cell, ops: &[Op], seen: &mut BTreeSet<&'static str>) {
    let label = format!("{cell:?}");
    let mut ls = Lockstep::new(cell.config());
    let late = Arc::new(Mutex::new(Vec::new()));
    let mut seen_at_attach = 0;
    for (i, &op) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            ls.copies[QUIET]
                .0
                .attach_sink(Box::new(Shared(late.clone())));
            seen_at_attach = ls.stream().len();
        }
        let ctx = format!("{label} op {i}");
        match op {
            Op::Malloc { size, cpu } => ls.malloc(size, cpu, &ctx),
            Op::Free { .. } if ls.order.is_empty() => {}
            Op::Free { k, site } => ls.free(k as usize % ls.order.len(), site, &ctx),
            Op::Tick { ns } => ls.tick(ns),
        }
        ls.check(&ctx);
        if i % AUDIT_EVERY == AUDIT_EVERY - 1 {
            let t = &mut ls.copies[FULL].0;
            assert_eq!(t.audit_now(), 0, "{ctx}: audit {:?}", t.sanitizer_reports());
        }
    }
    match cell.faults {
        Faults::None => assert_eq!(ls.refusals, 0, "{label}: refused without faults"),
        Faults::Storm => {
            let s = ls.copies[QUIET].0.fault_stats();
            assert!(s.huge_denied > 0, "{label}: the storm injected nothing");
        }
        Faults::HardLimit => assert!(ls.refusals > 0, "{label}: the hard limit never refused"),
    }
    assert_eq!(ls.copies[FULL].0.audit_now(), 0, "{label}: audit");

    // Teardown, through the same lockstep checks, from another domain.
    while !ls.order.is_empty() {
        let ctx = format!("{label} teardown of {}", ls.order.len());
        ls.free(ls.order.len() - 1, Site::Near(0), &ctx);
        ls.check(&ctx);
    }
    for (k, (t, _)) in ls.copies.iter().enumerate() {
        let f = t.fragmentation();
        assert_eq!(
            (f.live_bytes, f.internal_bytes),
            (0, 0),
            "{label}: copy {k}"
        );
        assert_eq!(
            f.resident_bytes,
            f.total_bytes(),
            "{label}: copy {k}: resident != live + fragmentation after teardown"
        );
    }
    assert_eq!(
        ls.copies[FULL].0.audit_now(),
        0,
        "{label}: audit after teardown"
    );
    ls.check(&format!("{label} after teardown"));

    let stream = ls.stream();
    let quiet = &ls.copies[QUIET].0;
    let kinds: BTreeSet<&'static str> = stream.iter().map(AllocEvent::kind).collect();
    seen.extend(kinds);

    // Nothing is booked that no operation reported: the ledger is the
    // returned nanoseconds, to the picosecond.
    assert_eq!(
        quiet.cycles().total_ns(),
        ls.reported_ps as f64 / 1000.0,
        "{label}: booked ns vs the operations' reported ns"
    );
    // Replaying the ring's stream alone rebuilds ledger and profile.
    let mut replayed = StatsView::default();
    for ev in &stream {
        replayed.on_event(0, ev);
    }
    assert_eq!(
        replayed.cycles(),
        quiet.cycles(),
        "{label}: replayed ledger"
    );
    assert_eq!(
        format!("{:?}", replayed.profile()),
        format!("{:?}", quiet.profile()),
        "{label}: replayed profile"
    );
    assert!(
        quiet.profile().size_by_count.count() > 0.0,
        "{label}: never sampled"
    );
    // The late sink saw exactly what the ring saw from the first
    // operation after the attach onwards.
    assert_eq!(
        late.lock().expect("sink lock").as_slice(),
        &stream[seen_at_attach..],
        "{label}: late sink"
    );
}

/// Runs one fault column: every cell.
fn run_column(faults: Faults, seed: u64) {
    let mut seen = BTreeSet::new();
    for (n, cell) in cells(faults).into_iter().enumerate() {
        run_cell(cell, &sampled_ops(seed + n as u64), &mut seen);
    }
    assert_not_vacuous(&seen, &format!("{faults:?}"));
}

/// The fast path, sampling and every background pass ran somewhere in a
/// test's runs.
fn assert_not_vacuous(seen: &BTreeSet<&'static str>, what: &str) {
    for kind in [
        "PerCpuHit",
        "PerCpuMiss",
        "PerCpuOverflow",
        "SamplerPick",
        "SampledFree",
        "ResizerGrow",
        "TransferEvict",
        "CachePlace",
        "HugepageBreak",
        "SpanRetire",
    ] {
        assert!(seen.contains(kind), "{what}: no run saw {kind}");
    }
}

#[test]
fn fault_free_cells_agree_with_the_reference_model() {
    run_column(Faults::None, 0x1A77_0000);
}

#[test]
fn storm_cells_agree_with_the_reference_model() {
    run_column(Faults::Storm, 0x1A77_1000);
}

#[test]
fn hard_limit_cells_agree_with_the_reference_model() {
    run_column(Faults::HardLimit, 0x1A77_2000);
}

#[test]
fn shipped_configs_agree_with_the_reference_model_at_forty_eight_seeds() {
    let mut seen = BTreeSet::new();
    for cell in shipped_cells() {
        for seed in 0..48 {
            run_cell(cell, &sampled_ops(0x1A77_3000 + seed), &mut seen);
        }
    }
    assert_not_vacuous(&seen, "shipped configs");
}

#[test]
fn interleaving_schedules_agree_with_the_reference_model() {
    let mut seen = BTreeSet::new();
    for seed in 0..4 {
        for ops in [
            producer_consumer(0x1A77_4000 + seed, &[0, 1, 2], &[4, 8, 12], OPS),
            thread_churn(0x1A77_5000 + seed, CPUS, OPS),
        ] {
            for cell in shipped_cells() {
                run_cell(cell, &ops, &mut seen);
            }
        }
    }
}
