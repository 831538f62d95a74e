//! The allocator façade: `malloc` / `free` across the full cache hierarchy.
//!
//! [`Tcmalloc`] wires the tiers of Figure 1 together: per-CPU caches →
//! transfer cache → central free lists → hugepage-aware pageheap → simulated
//! OS. Every operation reports which tier satisfied it and the nanoseconds
//! it cost (Figure 4 calibration), so the workload driver can attribute both
//! allocator time (Figure 6a) and the downstream locality effects.

use crate::central::CentralFreeList;
use crate::config::{TcmallocConfig, CAPACITY_SCALE};
use crate::events::{AllocEvent, EventBus, EventSink, TraceRing};
use crate::pageheap::{AllocError, OsLayer, PageHeap};
use crate::pagemap::Pagemap;
use crate::percpu::{FreeOutcome, PerCpuCaches};
use crate::size_class::SizeClassTable;
use crate::span::{Span, SpanRegistry, SpanState};
use crate::stats::{CycleStats, FragmentationBreakdown};
use crate::transfer::{TransferCaches, TransferSharding};
use wsc_prng::IntMap;
use wsc_sanitizer::{
    ClassTierSnapshot, HugepageSnapshot, PagemapLeafSnapshot, SanitizerReport, Snapshot,
    SpanPlacement, SpanSnapshot,
};
use wsc_sim_hw::cost::{AllocPath, CostModel};
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;
use wsc_sim_os::clock::{Clock, NS_PER_SEC};
use wsc_sim_os::rseq::{VcpuId, VcpuRegistry};
use wsc_telemetry::gwp::{AllocationProfile, Sample, Sampler};

/// Result of a [`Tcmalloc::malloc`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AllocOutcome {
    /// Address of the allocated object.
    pub addr: u64,
    /// Bytes actually reserved (size class, or page-rounded for large).
    pub actual_bytes: u64,
    /// Deepest tier the request hit.
    pub path: AllocPath,
    /// Allocator nanoseconds consumed (including prefetch/sampling).
    pub ns: f64,
}

/// Result of a [`Tcmalloc::free`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreeOutcomeInfo {
    /// Deepest tier the operation touched.
    pub path: AllocPath,
    /// Allocator nanoseconds consumed.
    pub ns: f64,
}

/// A structurally invalid free detected by [`Tcmalloc::try_free`]: the
/// address is not a live allocation of the given size. (Real TCMalloc
/// aborts here; [`Tcmalloc::free`] keeps that behaviour by panicking.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreeError {
    /// `addr` does not name a live large allocation's base address.
    InvalidFree {
        /// The offending address.
        addr: u64,
    },
}

impl std::fmt::Display for FreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidFree { addr } => {
                write!(f, "invalid free of {addr:#x}: not a live allocation")
            }
        }
    }
}

impl std::error::Error for FreeError {}

/// The abort of the infallible [`Tcmalloc::malloc`] when memory is
/// unobtainable, as real TCMalloc performs it; out of line so the inlined
/// hit half carries no formatting.
#[cold]
#[inline(never)]
fn malloc_failed(size: u64, e: AllocError) -> ! {
    panic!("malloc of {size} bytes failed: {e}")
}

/// The abort of the infallible [`Tcmalloc::free`] on an invalid free.
#[cold]
#[inline(never)]
fn invalid_free(e: FreeError) -> ! {
    // lint:allow(panic-surface) invalid free = heap corruption from the
    // caller's side; real TCMalloc aborts, and so does the infallible façade.
    panic!("{e}")
}

// The cadence of [`Tcmalloc::maintain`]. Intervals are time-compressed ~10×
// relative to production (the simulation also compresses its diurnal load
// cycles from hours to tens of seconds), so a multi-second simulated run
// sees the number of maintenance passes a production process sees over
// minutes. No experiment varies these, so they are constants, not
// configuration.

/// §4.1 per-CPU cache resize interval (production: 5 s).
const RESIZE_INTERVAL_NS: u64 = NS_PER_SEC / 5;
/// Caches grown per resize interval (the paper's "top five").
const RESIZE_TOP_N: usize = 5;
/// Bytes moved per donor/grower pair per resize interval (production:
/// 256 KiB).
const RESIZE_STEP_BYTES: u64 = (256 << 10) / CAPACITY_SCALE;
/// Donors never shrink below this (production: 256 KiB).
const RESIZE_FLOOR_BYTES: u64 = (256 << 10) / CAPACITY_SCALE;
/// Anti-stranding plunder interval for the §4.2 NUCA domain caches.
const PLUNDER_INTERVAL_NS: u64 = NS_PER_SEC / 20;
/// Background OS-release interval.
const RELEASE_INTERVAL_NS: u64 = NS_PER_SEC / 20;
/// Idle-cache decay interval: per-CPU and transfer-tier reclaim
/// (production: ~1 s).
const DECAY_INTERVAL_NS: u64 = NS_PER_SEC / 10;
/// The one calibration every operation is priced with (Figure 4); not
/// configuration.
const COST: CostModel = CostModel::production();

/// The warehouse-scale memory allocator.
///
/// # Example
///
/// ```
/// use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
/// use wsc_sim_hw::topology::{CpuId, Platform};
/// use wsc_sim_os::clock::Clock;
///
/// let platform = Platform::chiplet("test", 1, 2, 4, 2);
/// let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), platform, Clock::new());
/// let a = tcm.malloc(100, CpuId(0));
/// assert!(a.actual_bytes >= 100);
/// tcm.free(a.addr, 100, CpuId(0));
/// ```
#[derive(Debug)]
pub struct Tcmalloc {
    cfg: TcmallocConfig,
    table: &'static SizeClassTable,
    platform: Platform,
    clock: Clock,
    vcpus: VcpuRegistry,
    percpu: PerCpuCaches,
    transfer: TransferCaches,
    central: Vec<CentralFreeList>,
    spans: SpanRegistry,
    pagemap: Pagemap,
    pageheap: PageHeap,
    sampler: Sampler,
    bus: EventBus,
    /// The one buffer a batch rides through the slow tiers in: empty
    /// between operations, taken by a per-CPU miss or handed to the per-CPU
    /// cache for an overflow, and put back with its storage kept.
    batch: Vec<u64>,
    // lint:allow(hashmap-decl) keyed by sampled address; never iterated
    live_samples: IntMap<u64, (u64, u64, f64)>,
    live_requested_bytes: u64,
    live_objects: u64,
    internal_frag_bytes: u64,
    next_resize_ns: u64,
    next_plunder_ns: u64,
    next_release_ns: u64,
    next_decay_ns: u64,
}

impl Tcmalloc {
    /// Creates an allocator for one process on the given platform. The
    /// config's fault plan and hard limit (if any) are attached to the
    /// simulated kernel here; with both absent the OS layer is infallible
    /// and the allocator behaves byte-identically to the pre-fault builds.
    ///
    /// This is an allocator that holds nothing, [renewed](Self::renew)
    /// once: every allocator is built by `renew`.
    pub fn new(cfg: TcmallocConfig, platform: Platform, clock: Clock) -> Self {
        let table = SizeClassTable::shared();
        Self {
            percpu: PerCpuCaches::new(table, cfg.percpu_max_bytes),
            transfer: TransferCaches::new(table, cfg.transfer),
            central: Vec::new(),
            spans: SpanRegistry::new(),
            pagemap: Pagemap::new(),
            pageheap: PageHeap::with_kernel(cfg.pageheap, OsLayer::infallible()),
            sampler: Sampler::new(cfg.sample_period_bytes),
            bus: EventBus::new(&cfg, clock.clone()),
            batch: Vec::new(),
            live_samples: IntMap::default(),
            live_requested_bytes: 0,
            live_objects: 0,
            internal_frag_bytes: 0,
            next_resize_ns: 0,
            next_plunder_ns: 0,
            next_release_ns: 0,
            next_decay_ns: 0,
            table,
            platform,
            clock,
            vcpus: VcpuRegistry::new(),
            cfg,
        }
        .renewed()
    }

    /// This allocator emptied and rebuilt for a new process — `cfg` on
    /// `platform`, timed by `clock` — keeping the host storage of every
    /// tier: the state [`new`](Self::new) builds, field for field, since
    /// `new` is a renewal too. Nothing of the previous process survives:
    /// no object, span, page, vCPU number, sample, ledger entry, trace
    /// ring or attached sink.
    pub fn renew(self, cfg: TcmallocConfig, platform: Platform, clock: Clock) -> Self {
        Self {
            cfg,
            platform,
            clock,
            ..self
        }
        .renewed()
    }

    /// Renews every tier for `self.cfg`, `self.platform` and `self.clock`.
    fn renewed(self) -> Self {
        let Self {
            cfg,
            table,
            platform,
            clock,
            vcpus,
            percpu,
            transfer,
            central,
            spans,
            pagemap,
            pageheap,
            sampler: _,
            bus,
            mut batch,
            mut live_samples,
            ..
        } = self;
        let central = if central.len() == table.num_classes() {
            central
                .into_iter()
                .enumerate()
                .map(|(cl, list)| list.renew(cl as u16, *table.info(cl), cfg.cfl_lists))
                .collect()
        } else {
            (0..table.num_classes())
                .map(|cl| CentralFreeList::new(cl as u16, *table.info(cl), cfg.cfl_lists))
                .collect()
        };
        batch.clear();
        live_samples.clear();
        let now = clock.now_ns();
        Self {
            vcpus: vcpus.renew(),
            percpu: percpu.renew(table, cfg.percpu_max_bytes),
            transfer: transfer.renew(table, cfg.transfer),
            central,
            spans: spans.renew(),
            pagemap: pagemap.renew(),
            pageheap: pageheap.renew(cfg.pageheap, cfg.os_faults, clock.clone(), cfg.hard_limit),
            sampler: Sampler::new(cfg.sample_period_bytes),
            bus: bus.renew(&cfg, clock.clone()),
            batch,
            live_samples,
            live_requested_bytes: 0,
            live_objects: 0,
            internal_frag_bytes: 0,
            next_resize_ns: now + RESIZE_INTERVAL_NS,
            next_plunder_ns: now + PLUNDER_INTERVAL_NS,
            next_release_ns: now + RELEASE_INTERVAL_NS,
            next_decay_ns: now + DECAY_INTERVAL_NS,
            table,
            platform,
            clock,
            cfg,
        }
    }

    /// Allocates `size` bytes on behalf of a thread running on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics when the simulated kernel refuses the backing memory (hard
    /// limit or an exhausted fault storm) — like real `malloc` returning
    /// null to a caller that never checks. Fault-aware callers use
    /// [`try_malloc_with_site`](Self::try_malloc_with_site).
    #[inline]
    pub fn malloc(&mut self, size: u64, cpu: CpuId) -> AllocOutcome {
        self.malloc_with_site(size, cpu, 0)
    }

    /// Like [`malloc`](Self::malloc), tagging sampled allocations with an
    /// allocation-site id (stands in for the recorded call stack).
    ///
    /// # Panics
    ///
    /// Panics on OS refusal; see [`malloc`](Self::malloc).
    #[inline]
    pub fn malloc_with_site(&mut self, size: u64, cpu: CpuId, site: u64) -> AllocOutcome {
        match self.try_malloc_with_site(size, cpu, site) {
            Ok(outcome) => outcome,
            Err(e) => malloc_failed(size, e),
        }
    }

    /// Fallible [`malloc_with_site`](Self::malloc_with_site): surfaces OS
    /// refusal as a structured [`AllocError`] instead of panicking.
    ///
    /// This is the hit half, inlined into the caller: the class and vCPU
    /// lookup, the per-CPU pop, the sampler countdown, the live counters and
    /// the ledger. A per-CPU miss, a large request, a sampling pick and a
    /// sanitizer audit go to out-of-line functions.
    ///
    /// # Errors
    ///
    /// [`AllocError::OsEnomem`] when injected ENOMEM persisted through the
    /// pageheap's release-and-retry; [`AllocError::HardLimit`] when the
    /// configured hard limit blocks growth. On error no object is placed:
    /// `live_bytes`, `live_objects`, internal fragmentation and
    /// [`cycles`](Self::cycles) are unchanged and `resident_bytes` has not
    /// grown (release-and-retry may have handed spare pages back). The
    /// attempt itself is still on the record — its boundary events
    /// (`PerCpuMiss`, `LimitHit`, `ReleaseRetry`, …) are emitted and a
    /// small request's per-CPU miss is counted, so the §4.1 resizer sees
    /// the pressure.
    #[inline]
    pub fn try_malloc_with_site(
        &mut self,
        size: u64,
        cpu: CpuId,
        site: u64,
    ) -> Result<AllocOutcome, AllocError> {
        let Some(cl) = self.table.class_for(size) else {
            return self.malloc_large(size, site);
        };
        let vcpu = self.vcpus.vcpu_of(cpu);
        let Some(addr) = self.percpu.alloc(vcpu, cl, &mut self.bus) else {
            return self.malloc_refill(cl, vcpu, cpu, size, site);
        };
        let actual = self.table.info(cl).size;
        Ok(self.place(addr, size, actual, AllocPath::PerCpu, site))
    }

    /// Books an allocation that found its object: the sampler countdown,
    /// the live counters and the ledger. A sampling pick and a due
    /// sanitizer audit go out of line.
    #[inline]
    fn place(
        &mut self,
        addr: u64,
        size: u64,
        actual: u64,
        path: AllocPath,
        site: u64,
    ) -> AllocOutcome {
        // The next-object prefetch is issued on every small allocation.
        let prefetched = size <= crate::size_class::MAX_SMALL_SIZE;
        let ns = if self.sampler.should_sample(size.max(1)) {
            self.place_sampled(addr, size, actual, path, prefetched, site)
        } else {
            self.bus
                .malloc_done(path, addr, size, actual, prefetched, None)
        };
        self.live_requested_bytes += size;
        self.live_objects += 1;
        self.internal_frag_bytes += actual - size;
        if self.cfg.sanitize.is_on() {
            self.audit_if_due();
        }
        AllocOutcome {
            addr,
            actual_bytes: actual,
            path,
            ns,
        }
    }

    /// The sampled completion: records the GWP pick and prices the
    /// allocation with its sampling cost.
    #[inline(never)]
    fn place_sampled(
        &mut self,
        addr: u64,
        size: u64,
        actual: u64,
        path: AllocPath,
        prefetched: bool,
        site: u64,
    ) -> f64 {
        let weight = self.sampler.sample_weight(size.max(1));
        let now = self.clock.now_ns();
        self.live_samples.insert(addr, (size, now, weight));
        let pick = Sample {
            size,
            site,
            alloc_time_ns: now,
            weight,
        };
        self.bus
            .malloc_done(path, addr, size, actual, prefetched, Some(pick))
    }

    /// Runs the sanitizer's cross-tier audit when its cadence says so.
    #[inline(never)]
    fn audit_if_due(&mut self) {
        if self.bus.sanitizer_mut().audit_due() {
            self.audit_now();
        }
    }

    /// The transfer-cache shard for a CPU under the active sharding mode.
    fn shard_of(&self, cpu: CpuId) -> usize {
        match self.cfg.transfer {
            TransferSharding::Central => 0,
            TransferSharding::Domain => self.platform.domain_of(cpu).index(),
            TransferSharding::Node => self.platform.node_of(cpu).index(),
        }
    }

    /// The per-CPU miss of class `cl` on `vcpu`: fetches a batch from the
    /// middle tiers, keeps one object for the caller and refills the
    /// per-CPU cache with the rest.
    #[inline(never)]
    fn malloc_refill(
        &mut self,
        cl: usize,
        vcpu: VcpuId,
        cpu: CpuId,
        size: u64,
        site: u64,
    ) -> Result<AllocOutcome, AllocError> {
        let info = self.table.info(cl);
        let shard = self.shard_of(cpu);
        let batch = info.batch as usize;
        let mut objs = std::mem::take(&mut self.batch);
        self.transfer
            .fetch(shard, cl, batch, &mut objs, &mut self.bus);
        let mut path = AllocPath::TransferCache;
        if objs.len() < batch {
            match self.central[cl].alloc_batch(
                batch - objs.len(),
                &mut objs,
                &mut self.spans,
                &mut self.pagemap,
                &mut self.pageheap,
                &mut self.bus,
            ) {
                Ok(deep) => path = deep,
                // The pageheap could not grow. Degrade gracefully: any
                // objects the transfer cache already surrendered still
                // serve the request; only a truly empty hierarchy errors.
                Err(e) if objs.is_empty() => {
                    self.batch = objs;
                    return Err(e);
                }
                Err(_) => {}
            }
        }
        let addr = objs.pop().expect("refill batch is never empty");
        let kept = self.percpu.refill(vcpu, cl, &objs, &mut self.bus);
        // lint:allow(panic-surface) refill returns at most objs.len().
        self.return_objects(shard, cl, &objs[kept..], true);
        objs.clear();
        self.batch = objs;
        Ok(self.place(addr, size, info.size, path, site))
    }

    /// A request past the largest size class: whole pages from the
    /// pageheap, registered as a large span.
    #[inline(never)]
    fn malloc_large(&mut self, size: u64, site: u64) -> Result<AllocOutcome, AllocError> {
        // A span counts its pages in 32 bits: a request past that is one
        // no kernel could back, refused with nothing touched.
        let pages = u32::try_from(size.div_ceil(TCMALLOC_PAGE_BYTES).max(1))
            .map_err(|_| AllocError::OsEnomem)?;
        let (addr, path) = self.pageheap.alloc(pages, 1, &mut self.bus)?;
        let span = Span::new_large(addr, pages);
        let id = self.spans.insert(span);
        self.bus.emit(AllocEvent::SpanAlloc {
            id: id.0,
            start: addr,
            pages,
            class: None,
        });
        self.pagemap
            .set_range_traced(addr, pages, id, &mut self.bus);
        let actual = pages as u64 * TCMALLOC_PAGE_BYTES;
        Ok(self.place(addr, size, actual, path, site))
    }

    /// Frees `addr`, which was allocated with the given requested `size`
    /// (sized delete) by a thread running on `cpu`.
    ///
    /// # Panics
    ///
    /// With the sanitizer off, panics on double frees, foreign addresses, or
    /// a size that maps to a different class than the allocation's. With the
    /// sanitizer on, those invalid frees are rejected instead: the operation
    /// becomes a no-op and a [`SanitizerReport`] is queued (retrieve it with
    /// [`sanitizer_reports`](Self::sanitizer_reports)).
    #[inline]
    pub fn free(&mut self, addr: u64, size: u64, cpu: CpuId) -> FreeOutcomeInfo {
        match self.try_free(addr, size, cpu) {
            Ok(info) => info,
            Err(e) => invalid_free(e),
        }
    }

    /// Fallible [`free`](Self::free): structurally invalid large frees
    /// (unknown address, interior pointer, double free) come back as
    /// [`FreeError::InvalidFree`] with the allocator state untouched.
    ///
    /// This is the hit half, inlined into the caller: the class and vCPU
    /// lookup, the per-CPU push, the ledger and the live counters. The
    /// sanitizer, an overflow and a large free go to out-of-line functions.
    ///
    /// # Errors
    ///
    /// [`FreeError::InvalidFree`] as above. Small-object corruption is still
    /// caught by the per-tier invariant checks (panics) or, with the
    /// sanitizer on, rejected with a queued report.
    #[inline]
    pub fn try_free(
        &mut self,
        addr: u64,
        size: u64,
        cpu: CpuId,
    ) -> Result<FreeOutcomeInfo, FreeError> {
        let class = self.table.class_for(size);
        if self.cfg.sanitize.is_on()
            && self
                .bus
                .sanitizer_mut()
                .check_free(addr, class.map(|cl| cl as u16))
                .is_some()
        {
            // Invalid free: rejected, reported, and charged nothing.
            return Ok(FreeOutcomeInfo {
                path: AllocPath::PerCpu,
                ns: 0.0,
            });
        }
        let Some(cl) = class else {
            return self.free_large(addr, size);
        };
        self.retire_sample(addr);
        debug_assert_eq!(
            self.pagemap
                .span_of(addr)
                .map(|id| self.spans.get(id).size_class),
            Some(Some(cl as u16)),
            "free size does not match the allocation's class"
        );
        let vcpu = self.vcpus.vcpu_of(cpu);
        if self
            .percpu
            .free(vcpu, cl, addr, &mut self.batch, &mut self.bus)
            == FreeOutcome::Overflow
        {
            return Ok(self.free_overflow(addr, size, cpu, cl));
        }
        Ok(self.unplace(addr, size, self.table.info(cl).size, AllocPath::PerCpu))
    }

    /// Books a completed free: the ledger and the live counters. A due
    /// sanitizer audit goes out of line.
    #[inline]
    fn unplace(&mut self, addr: u64, size: u64, actual: u64, path: AllocPath) -> FreeOutcomeInfo {
        let ns = self.bus.free_done(path, addr, size);
        self.live_requested_bytes -= size;
        self.live_objects -= 1;
        self.internal_frag_bytes -= actual - size;
        if self.cfg.sanitize.is_on() {
            self.audit_if_due();
        }
        FreeOutcomeInfo { path, ns }
    }

    /// A free that overflowed the per-CPU cache: sends the batch it shed
    /// down the hierarchy.
    #[inline(never)]
    fn free_overflow(&mut self, addr: u64, size: u64, cpu: CpuId, cl: usize) -> FreeOutcomeInfo {
        let mut shed = std::mem::take(&mut self.batch);
        let path = self.return_objects(self.shard_of(cpu), cl, &shed, false);
        shed.clear();
        self.batch = shed;
        self.unplace(addr, size, self.table.info(cl).size, path)
    }

    /// Frees a large allocation back to the pageheap.
    #[inline(never)]
    fn free_large(&mut self, addr: u64, size: u64) -> Result<FreeOutcomeInfo, FreeError> {
        // Validate before any mutation so an invalid large free is a clean
        // no-op at the Err return. (With the sanitizer on the shadow check
        // already rejected and reported it.)
        let Some(id) = self.pagemap.span_of(addr) else {
            return Err(FreeError::InvalidFree { addr });
        };
        let span = self.spans.get(id);
        if span.state != SpanState::Large || span.start != addr {
            return Err(FreeError::InvalidFree { addr });
        }
        let pages = span.pages;
        self.retire_sample(addr);
        let span = self.spans.remove(id);
        debug_assert!(span.size_class.is_none());
        // SpanRetire feeds the sanitizer's page mirror via the bus.
        self.bus.emit(AllocEvent::SpanRetire {
            id: id.0,
            start: addr,
            pages,
            class: None,
        });
        self.pagemap.clear_range_traced(addr, pages, &mut self.bus);
        self.pageheap.dealloc(addr, pages, &mut self.bus);
        let actual = pages as u64 * TCMALLOC_PAGE_BYTES;
        Ok(self.unplace(addr, size, actual, AllocPath::PageHeap))
    }

    /// Closes the GWP sample taken at `addr`, if there is one. The
    /// emptiness check keeps the common case (nothing sampled live) off the
    /// hash probe entirely.
    #[inline]
    fn retire_sample(&mut self, addr: u64) {
        if !self.live_samples.is_empty() {
            self.close_sample(addr);
        }
    }

    /// Reports the lifetime of the GWP sample taken at `addr`, if any.
    #[inline(never)]
    fn close_sample(&mut self, addr: u64) {
        if let Some((sz, t, weight)) = self.live_samples.remove(&addr) {
            let lifetime = self.clock.now_ns().saturating_sub(t);
            self.bus.emit(AllocEvent::SampledFree {
                size: sz,
                lifetime_ns: lifetime,
                weight,
            });
        }
    }

    /// Pushes surplus objects down the hierarchy: the transfer cache takes
    /// a prefix, the central free list the rest. Returns the deepest tier
    /// touched.
    fn return_objects(
        &mut self,
        shard: usize,
        cl: usize,
        objs: &[u64],
        central_only: bool,
    ) -> AllocPath {
        if objs.is_empty() {
            return AllocPath::TransferCache;
        }
        let kept = if central_only {
            self.transfer.stash_central(cl, objs, &mut self.bus)
        } else {
            self.transfer.stash(shard, cl, objs, &mut self.bus)
        };
        // lint:allow(panic-surface) a stash absorbs at most objs.len().
        let rest = &objs[kept..];
        if rest.is_empty() {
            AllocPath::TransferCache
        } else if self.return_to_central(cl, rest) {
            AllocPath::PageHeap
        } else {
            AllocPath::CentralFreeList
        }
    }

    /// Hands `objs` back to their spans on the central free list, one
    /// `dealloc` per object in slice order: the order of the list updates
    /// decides list positions, and list positions decide which span serves
    /// next. Returns whether a span drained completely and went back to the
    /// pageheap.
    fn return_to_central(&mut self, cl: usize, objs: &[u64]) -> bool {
        self.bus.emit(AllocEvent::CentralReturn {
            class: cl as u16,
            count: objs.len() as u32,
        });
        let mut released = false;
        for &addr in objs {
            let id = self
                .pagemap
                .span_of(addr)
                .expect("cached object lost its span");
            // A full drain emits SpanRetire inside, feeding the sanitizer.
            released |= self.central[cl].dealloc(
                addr,
                id,
                &mut self.spans,
                &mut self.pagemap,
                &mut self.pageheap,
                &mut self.bus,
            );
        }
        released
    }

    /// Runs due background maintenance: the §4.1 cache resizer, the §4.2
    /// transfer-cache plunder, idle-cache decay, and the pageheap's gradual
    /// OS release. The workload driver calls this as simulated time
    /// advances.
    pub fn maintain(&mut self) {
        let now = self.clock.now_ns();
        if self.cfg.dynamic_percpu && now >= self.next_resize_ns {
            self.next_resize_ns = now.saturating_add(RESIZE_INTERVAL_NS);
            let evicted = self.percpu.rebalance(
                RESIZE_TOP_N,
                RESIZE_STEP_BYTES,
                RESIZE_FLOOR_BYTES,
                &mut self.bus,
            );
            for (cl, objs) in evicted {
                self.return_objects(0, cl, &objs, true);
            }
        }
        if now >= self.next_plunder_ns {
            self.next_plunder_ns = now.saturating_add(PLUNDER_INTERVAL_NS);
            let overflow = self.transfer.plunder(&mut self.bus);
            for (cl, objs) in overflow {
                self.return_objects(0, cl, &objs, true);
            }
        }
        if now >= self.next_decay_ns {
            self.next_decay_ns = now.saturating_add(DECAY_INTERVAL_NS);
            // Idle-cache reclaim: per-CPU caches shed to the transfer tier,
            // the transfer tier sheds to the central free lists.
            let evicted = self.percpu.decay();
            for (cl, objs) in evicted {
                self.return_objects(0, cl, &objs, true);
            }
            let evicted = self.transfer.decay(&mut self.bus);
            for (cl, objs) in evicted {
                self.return_to_central(cl, &objs);
            }
        }
        if now >= self.next_release_ns {
            self.next_release_ns = now.saturating_add(RELEASE_INTERVAL_NS);
            self.pageheap.background_release(&mut self.bus);
            if let Some(limit) = self.cfg.soft_limit {
                // Soft limit: synchronously push resident bytes back toward
                // the limit (bounded release-and-retry inside).
                self.pageheap.enforce_soft_limit(limit, &mut self.bus);
            }
        }
    }

    /// Builds a cross-tier state dump for the sanitizer's conservation
    /// audit: per-class cached-object counts, every live span with its
    /// occupancy-list placement, pagemap extent, filler hugepage bitmaps,
    /// and the byte-accounting terms.
    fn build_snapshot(&self) -> Snapshot {
        let percpu = self.percpu.cached_objects_by_class();
        let transfer = self.transfer.cached_objects_by_class();
        let classes = (0..self.table.num_classes())
            .map(|cl| ClassTierSnapshot {
                class: cl as u16,
                object_size: self.table.info(cl).size,
                percpu_objects: percpu[cl],
                transfer_objects: transfer[cl],
                central_free_objects: self.central[cl].free_objects(),
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(id, s)| SpanSnapshot {
                id: id.0,
                start: s.start,
                pages: s.pages,
                size_class: s.size_class,
                capacity: s.capacity,
                allocated: s.allocated,
                free_count: s.free_count(),
                placement: match s.state {
                    SpanState::InFreeList { list, .. } => SpanPlacement::Freelist { list },
                    SpanState::Full | SpanState::Released => SpanPlacement::Full,
                    SpanState::Large => SpanPlacement::Large,
                },
            })
            .collect();
        let hugepages = self
            .pageheap
            .filler()
            .hugepage_accounting()
            .into_iter()
            .map(|(base, used, free, released, both)| HugepageSnapshot {
                base,
                used_pages: used,
                free_pages: free,
                released_pages: released,
                used_and_released: both,
            })
            .collect();
        let frag = self.fragmentation();
        Snapshot {
            classes,
            spans,
            occupancy_lists: self.cfg.cfl_lists,
            pagemap_pages: self.pagemap.len() as u64,
            pages_per_leaf: crate::pagemap::PAGES_PER_LEAF,
            pagemap_leaves: self
                .pagemap
                .leaf_occupancy()
                .into_iter()
                .map(|l| PagemapLeafSnapshot {
                    base_page: l.base_page,
                    pages_used: l.pages_used,
                })
                .collect(),
            pages_per_hugepage: wsc_sim_os::addr::TCMALLOC_PAGES_PER_HUGE as u32,
            hugepages,
            resident_bytes: frag.resident_bytes,
            live_bytes: frag.live_bytes,
            fragmentation_bytes: frag.total_bytes(),
            arena: {
                let a = self.spans.arena_stats();
                wsc_sanitizer::ArenaSnapshot {
                    slots_total: a.slots_total,
                    slots_live: a.slots_live,
                    free_pool_entries: a.free_pool_entries,
                    bitmap_pool_words: a.bitmap_pool_words,
                    reserved_entries: a.reserved_entries,
                    reserved_words: a.reserved_words,
                    retired_entries: a.retired_entries,
                    retired_words: a.retired_words,
                }
            },
        }
    }

    /// Runs a cross-tier conservation audit immediately, regardless of the
    /// audit cadence. Returns the number of new violations found (also
    /// queued as [`SanitizerReport`]s).
    // lint:allow(event-completeness) the audit *consumes* the event-derived
    // snapshot; emitting from here would feed the auditor its own output.
    pub fn audit_now(&mut self) -> usize {
        let snap = self.build_snapshot();
        self.bus.sanitizer_mut().run_audit(&snap)
    }

    /// Sanitizer reports accumulated so far (shadow violations + audit
    /// findings), in detection order.
    // lint:allow(test-only-pub) chaos_soak, config_lattice, end_to_end,
    // event_stream and sanitizer_faults read it: which invalid frees and
    // audit breaks the sanitizer caught is exposed by no other API.
    pub fn sanitizer_reports(&self) -> &[SanitizerReport] {
        self.bus.sanitizer().reports()
    }

    /// Number of cross-tier audits run (the `Full` cadence + explicit calls).
    // lint:allow(test-only-pub) chaos_soak, end_to_end, event_stream and
    // event_bus_regression read it: no other API counts the audits.
    pub fn audits_run(&self) -> u64 {
        self.bus.sanitizer().audits_run()
    }

    /// Fragmentation snapshot (Figures 5b and 6b).
    pub fn fragmentation(&self) -> FragmentationBreakdown {
        // Each cache tier is asked only for its per-class object counts.
        let bytes = |objects: Vec<u64>| -> u64 {
            objects
                .iter()
                .enumerate()
                .map(|(cl, &n)| n * self.table.info(cl).size)
                .sum()
        };
        FragmentationBreakdown {
            live_bytes: self.live_requested_bytes,
            internal_bytes: self.internal_frag_bytes,
            percpu_bytes: bytes(self.percpu.cached_objects_by_class()),
            transfer_bytes: bytes(self.transfer.cached_objects_by_class()),
            central_bytes: self.central.iter().map(|c| c.external_bytes()).sum(),
            pageheap_bytes: self.pageheap.stats().total_free_bytes(),
            resident_bytes: self.pageheap.vmm().page_table().resident_bytes(),
        }
    }

    /// Application-requested live bytes.
    pub fn live_bytes(&self) -> u64 {
        self.live_requested_bytes
    }

    /// Live object count.
    pub fn live_objects(&self) -> u64 {
        self.live_objects
    }

    /// Resident heap bytes (the RAM metric of the fleet experiments).
    pub fn resident_bytes(&self) -> u64 {
        self.pageheap.vmm().page_table().resident_bytes()
    }

    /// Hugepage coverage of the heap (Figure 17a).
    pub fn hugepage_coverage(&self) -> f64 {
        self.pageheap.vmm().page_table().hugepage_coverage()
    }

    /// Injected-fault counters from the simulated kernel (all zero without
    /// a fault plan).
    pub fn fault_stats(&self) -> wsc_sim_os::FaultStats {
        self.pageheap.os().fault_stats()
    }

    /// True while hugepage backing has been denied for part of the heap and
    /// the khugepaged re-promotion pass has not yet recovered it.
    // lint:allow(test-only-pub) chaos_soak and event_stream read it: the
    // stream carries the Degraded/Recovered transitions, but no other API
    // exposes the current state.
    pub fn os_degraded(&self) -> bool {
        self.pageheap.os().is_degraded()
    }

    /// Allocator cycle accounting (Figure 6a), priced when read from the
    /// completions the bus counted in the call that priced each operation:
    /// exact the moment an operation returns, with nothing pending.
    pub fn cycles(&self) -> CycleStats {
        self.bus.cycles()
    }

    /// The sampled allocation profile (Figures 7 and 8) — derived from
    /// `SamplerPick` / `SampledFree` events.
    pub fn profile(&self) -> &AllocationProfile {
        self.bus.profile()
    }

    /// The bounded trace ring, when `trace_capacity > 0`.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.bus.trace()
    }

    /// Attaches an additional [`EventSink`]; it observes every subsequent
    /// event after the built-in consumers.
    // lint:allow(event-completeness) bus plumbing: registers an observer,
    // touches no tier state to attribute.
    // lint:allow(test-only-pub) config_lattice's reference model reads it:
    // the bus's only subscription point for a caller-owned sink.
    pub fn attach_sink(&mut self, sink: Box<dyn EventSink>) {
        self.bus.attach(sink);
    }

    /// Per-vCPU miss counts (Figure 9b).
    pub fn percpu_miss_counts(&self) -> Vec<u64> {
        self.percpu.miss_counts()
    }

    /// The central free list for a class (span telemetry, Figures 13/16).
    pub fn central(&self, class: usize) -> &CentralFreeList {
        &self.central[class]
    }

    /// The size-class table.
    pub fn table(&self) -> &SizeClassTable {
        self.table
    }

    /// The pageheap (Figure 15 telemetry).
    pub fn pageheap(&self) -> &PageHeap {
        &self.pageheap
    }

    /// The active configuration.
    pub fn config(&self) -> &TcmallocConfig {
        &self.cfg
    }

    /// The cost model every operation is priced with: the Figure 4
    /// calibration.
    pub fn cost_model(&self) -> &CostModel {
        &COST
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stats::CycleCategory;

    fn alloc(cfg: TcmallocConfig) -> Tcmalloc {
        Tcmalloc::new(cfg, Platform::chiplet("t", 1, 2, 4, 2), Clock::new())
    }

    #[test]
    fn allocators_share_the_table_and_nothing_else() {
        // The table is the only thing two allocators in one process have in
        // common; a second instance starts from the same blank state.
        let first_addrs = |t: &mut Tcmalloc| {
            [8u64, 100, 5_000, 100_000, 300 << 10, 3 << 20]
                .map(|size| t.malloc(size, CpuId(0)).addr)
        };
        let (mut a, mut b) = (
            alloc(TcmallocConfig::optimized()),
            alloc(TcmallocConfig::optimized()),
        );
        assert!(std::ptr::eq(a.table(), b.table()));
        assert!(std::ptr::eq(a.table(), SizeClassTable::shared()));
        assert_eq!(first_addrs(&mut a), first_addrs(&mut b));
    }

    #[test]
    fn malloc_free_round_trip() {
        let mut t = alloc(TcmallocConfig::baseline());
        let a = t.malloc(100, CpuId(0));
        assert!(a.actual_bytes >= 100);
        assert!(a.ns > 0.0);
        assert_eq!(t.live_bytes(), 100);
        t.free(a.addr, 100, CpuId(0));
        assert_eq!(t.live_bytes(), 0);
        assert_eq!(t.live_objects(), 0);
    }

    #[test]
    fn first_alloc_cold_then_warm() {
        let mut t = alloc(TcmallocConfig::baseline());
        let a = t.malloc(64, CpuId(0));
        assert_eq!(a.path, AllocPath::Mmap, "cold start reaches the OS");
        let b = t.malloc(64, CpuId(0));
        assert_eq!(b.path, AllocPath::PerCpu, "refilled batch serves the rest");
        assert!(b.ns < a.ns);
    }

    #[test]
    fn free_then_alloc_reuses_object() {
        let mut t = alloc(TcmallocConfig::baseline());
        let a = t.malloc(64, CpuId(0));
        let _b = t.malloc(64, CpuId(0));
        t.free(a.addr, 64, CpuId(0));
        let c = t.malloc(64, CpuId(0));
        assert_eq!(c.addr, a.addr, "LIFO reuse through the per-CPU cache");
        assert_eq!(c.path, AllocPath::PerCpu);
    }

    #[test]
    fn large_allocation_bypasses_caches() {
        let mut t = alloc(TcmallocConfig::baseline());
        let a = t.malloc(1 << 20, CpuId(0));
        assert!(matches!(a.path, AllocPath::Mmap | AllocPath::PageHeap));
        assert_eq!(a.actual_bytes, 1 << 20);
        t.free(a.addr, 1 << 20, CpuId(0));
        assert_eq!(t.live_bytes(), 0);
        // A second large allocation of the same size reuses the cached run.
        let b = t.malloc(1 << 20, CpuId(0));
        assert_eq!(b.path, AllocPath::PageHeap);
        t.free(b.addr, 1 << 20, CpuId(0));
    }

    #[test]
    #[should_panic]
    fn double_free_large_panics() {
        let mut t = alloc(TcmallocConfig::baseline());
        let a = t.malloc(1 << 20, CpuId(0));
        t.free(a.addr, 1 << 20, CpuId(0));
        t.free(a.addr, 1 << 20, CpuId(0));
    }

    /// The `try_malloc_with_site` error contract, for a refused small (size-class)
    /// and a refused large (page-level) request: nothing is placed and
    /// nothing is charged, but the attempt is on the record.
    #[test]
    fn refused_allocation_places_nothing_but_stays_on_the_record() {
        fn accounting(t: &Tcmalloc) -> (u64, u64, u64, CycleStats) {
            let internal = t.fragmentation().internal_bytes;
            (t.live_bytes(), t.live_objects(), internal, t.cycles())
        }
        for size in [200_000u64, 1 << 20] {
            let small = size <= crate::size_class::MAX_SMALL_SIZE;
            let cfg = TcmallocConfig::optimized()
                .with_trace(TraceRing::UNBOUNDED)
                .with_hard_limit(2 << 20);
            let mut t = alloc(cfg);
            let (before, resident, events, misses) = loop {
                let before = accounting(&t);
                let resident = t.resident_bytes();
                let events = t.bus.stream().len();
                let misses: u64 = t.percpu_miss_counts().iter().sum();
                match t.try_malloc_with_site(size, CpuId(0), 0) {
                    Ok(_) => assert!(t.live_objects() < 64, "{size} B never refused"),
                    Err(e) => {
                        assert!(matches!(e, AllocError::HardLimit { .. }), "{e}");
                        break (before, resident, events, misses);
                    }
                }
            };
            assert!(
                before.1 > 0,
                "some {size}-byte requests fit under the limit"
            );
            assert_eq!(accounting(&t), before, "refused {size} B moved accounting");
            assert!(
                t.resident_bytes() <= resident,
                "refused {size} B grew the heap"
            );
            let attempt: Vec<_> = t.bus.stream()[events..]
                .iter()
                .map(AllocEvent::kind)
                .collect();
            assert!(attempt.contains(&"LimitHit"), "{size}: {attempt:?}");
            assert!(attempt.contains(&"ReleaseRetry"), "{size}: {attempt:?}");
            assert!(!attempt.contains(&"MallocDone"), "{size}: {attempt:?}");
            assert_eq!(
                attempt.contains(&"PerCpuMiss"),
                small,
                "{size}: {attempt:?}"
            );
            let counted = t.percpu_miss_counts().iter().sum::<u64>() - misses;
            assert_eq!(
                counted,
                u64::from(small),
                "{size}: the resizer sees the miss"
            );
        }
    }

    /// A request no address space can hold is an error, not a panic in the
    /// simulated kernel: past 2³² pages it is refused before anything is
    /// touched; below that the kernel's address-space limit says ENOMEM
    /// and the heap maps nothing for it.
    #[test]
    fn oversize_request_is_an_error_with_the_allocator_untouched() {
        let mut t = alloc(TcmallocConfig::optimized().with_trace(TraceRing::UNBOUNDED));
        let keep = t.malloc(3 << 20, CpuId(0));
        let events = t.bus.stream().len();
        let before = (t.live_bytes(), t.resident_bytes(), t.cycles());
        for size in [u64::MAX / 2, u64::MAX, 1 << 45] {
            assert_eq!(
                t.try_malloc_with_site(size, CpuId(1), 0),
                Err(AllocError::OsEnomem)
            );
        }
        assert_eq!((t.live_bytes(), t.resident_bytes(), t.cycles()), before);
        assert_eq!(t.bus.stream().len(), events, "nothing was attempted");
        // 2 TiB counts its pages in 32 bits, so it reaches the kernel — which
        // has nowhere to put it.
        assert_eq!(
            t.try_malloc_with_site(1 << 41, CpuId(1), 0),
            Err(AllocError::OsEnomem)
        );
        assert_eq!((t.live_bytes(), t.resident_bytes()), (before.0, before.1));
        t.free(keep.addr, 3 << 20, CpuId(0));
        assert_eq!(t.live_bytes(), 0);
    }

    #[test]
    fn accounting_identity_holds() {
        let mut t = alloc(TcmallocConfig::baseline());
        let mut live = Vec::new();
        for i in 0..2000u64 {
            let size = 16 + (i % 50) * 24;
            let a = t.malloc(size, CpuId((i % 8) as u32));
            live.push((a.addr, size));
            if i % 3 == 0 {
                let (addr, sz) = live.swap_remove((i as usize * 7) % live.len());
                t.free(addr, sz, CpuId((i % 8) as u32));
            }
        }
        let f = t.fragmentation();
        let accounted = f.live_bytes + f.total_bytes();
        // Resident = live + fragmentation, up to hugepages parked in the
        // bounded HugeCache whose residency is page-table-tracked.
        assert_eq!(f.resident_bytes, accounted, "byte accounting identity");
        for (addr, sz) in live {
            t.free(addr, sz, CpuId(0));
        }
        assert_eq!(t.live_bytes(), 0);
        let f = t.fragmentation();
        assert_eq!(f.internal_bytes, 0);
    }

    #[test]
    fn cycle_categories_populated() {
        let mut t = alloc(TcmallocConfig::baseline());
        for i in 0..1000u64 {
            let a = t.malloc(64, CpuId(0));
            if i % 2 == 0 {
                t.free(a.addr, 64, CpuId(0));
            }
        }
        let c = t.cycles();
        assert!(c.ns(CycleCategory::CpuCache) > 0.0);
        assert!(c.ns(CycleCategory::Prefetch) > 0.0);
        assert!(c.ns(CycleCategory::PageHeap) > 0.0);
        // Fast path dominates op counts.
        assert!(c.ops(CycleCategory::CpuCache) > c.ops(CycleCategory::PageHeap));
    }

    #[test]
    fn sampling_records_sizes_and_lifetimes() {
        let cfg = TcmallocConfig {
            sample_period_bytes: 1024,
            ..TcmallocConfig::baseline()
        };
        let mut t = alloc(cfg);
        let clock = t.clock().clone();
        let mut addrs = Vec::new();
        for _ in 0..100 {
            addrs.push(t.malloc(256, CpuId(0)).addr);
        }
        clock.advance(5_000);
        for a in addrs {
            t.free(a, 256, CpuId(0));
        }
        assert!(t.profile().size_by_count.count() > 0.0);
        let lifetimes = t.profile().lifetime_for_size_exp(8);
        assert!(lifetimes.count() > 0.0);
        assert_eq!(lifetimes.fraction_below(4096), 0.0, "5 µs bucket");
        assert_eq!(lifetimes.fraction_below(5120), 1.0, "5 µs bucket");
    }

    #[test]
    fn nuca_activates_domains_lazily() {
        let mut t = alloc(TcmallocConfig::baseline().with_nuca_transfer());
        // CPUs 0 and 8 are in different domains on this chiplet platform.
        let a = t.malloc(64, CpuId(0));
        t.free(a.addr, 64, CpuId(0));
        assert!(t.transfer.active_domains() <= 1);
    }

    #[test]
    fn maintain_runs_resizer() {
        let mut t = alloc(TcmallocConfig::baseline().with_heterogeneous_percpu());
        let clock = t.clock().clone();
        // Make vCPU 0 hot and vCPU 1 idle.
        for _ in 0..1000 {
            let a = t.malloc(64, CpuId(0));
            t.free(a.addr, 64, CpuId(0));
        }
        let _ = t.malloc(64, CpuId(1));
        clock.advance(6 * wsc_sim_os::clock::NS_PER_SEC);
        t.maintain();
        // Budget may or may not move depending on miss pattern, but maintain
        // must not corrupt anything; allocate again to verify.
        let a = t.malloc(64, CpuId(0));
        t.free(a.addr, 64, CpuId(0));
    }

    #[test]
    fn pagemap_leaf_audit_agrees_through_a_churn_under_full_sanitize() {
        // 4 000 operations of small objects and of large ones sized to
        // straddle the pagemap's 8 MiB leaves: the sanitizer recomputes
        // every leaf's occupancy from the span inventory at its own
        // `pages_per_leaf` and must find `leaf_occupancy()` saying the same.
        use wsc_sanitizer::SanitizeLevel;
        let mut t = alloc(TcmallocConfig::optimized().with_sanitize(SanitizeLevel::Full));
        let mut rng = wsc_prng::SmallRng::seed_from_u64(0x1EAF);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut leaves_seen = 0usize;
        for op in 0..4_000u32 {
            if live.len() < 8 || rng.gen_range(0u32..5) < 3 {
                let size = match rng.gen_range(0u32..10) {
                    0 => rng.gen_range(5u64 << 20..20 << 20),
                    1 | 2 => rng.gen_range(300u64 << 10..2 << 20),
                    _ => rng.gen_range(1u64..4096),
                };
                let cpu = CpuId(rng.gen_range(0u32..8));
                live.push((t.malloc(size, cpu).addr, size));
            } else {
                let (addr, size) = live.swap_remove(rng.gen_range(0usize..live.len()));
                t.free(addr, size, CpuId(rng.gen_range(0u32..8)));
            }
            if op % 500 == 499 {
                assert_eq!(t.audit_now(), 0, "op {op}: {:?}", t.sanitizer_reports());
                leaves_seen = leaves_seen.max(t.pagemap.leaf_occupancy().len());
            }
        }
        assert!(
            leaves_seen >= 3,
            "the heap spread over {leaves_seen} leaves"
        );
        assert!(t.sanitizer_reports().is_empty());
    }

    #[test]
    fn zero_size_malloc_is_valid() {
        let mut t = alloc(TcmallocConfig::baseline());
        let a = t.malloc(0, CpuId(0));
        assert!(a.actual_bytes >= 1);
        t.free(a.addr, 0, CpuId(0));
        assert_eq!(t.live_bytes(), 0);
    }
}
