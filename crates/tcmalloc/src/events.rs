//! The unified allocator event bus — the attribution spine.
//!
//! The paper's core contribution is *attribution*: knowing where malloc's
//! cycles and bytes go across the per-CPU front end, the transfer cache,
//! the central free lists, and the hugepage-aware pageheap (§3, Figure 2).
//! Before this module, that attribution was smeared across the codebase:
//! `CycleStats::charge` calls, `AllocationProfile` updates, the sanitizer's
//! shadow feed, and the GWP sampler each hooked the tiers ad-hoc.
//!
//! Now every cross-tier boundary reports exactly once to the [`EventBus`],
//! and every consumer is a sink over that one stream:
//!
//! * [`StatsView`] holds [`CycleStats`]
//!   (Figure 6a) and the GWP [`AllocationProfile`] — the bus prices an
//!   operation once, and the same call counts it in the ledger and, only if
//!   someone is listening, builds the record, so cycle attribution is
//!   consistent by construction,
//! * the sanitizer's shadow state learns spans from `SpanAlloc` /
//!   `SpanRetire` and objects from `MallocDone` — from the stream alone,
//!   never from the allocator's pagemap,
//! * a deterministic [`TraceRing`] keeps the tail of the stream and exports
//!   it as Chrome trace-event JSON (`wsc-bench` `trace --events out.json`,
//!   viewable in `chrome://tracing` or Perfetto); sized
//!   [`TraceRing::UNBOUNDED`] it keeps the whole stream for the
//!   determinism and conservation tests, and
//! * further [`EventSink`]s [`attach`](EventBus::attach)ed to the bus see
//!   every event after the built-in consumers.
//!
//! Each event kind is declared once, in the `event_catalog!` table below:
//! its docs, fields and trace lane. The enum, [`AllocEvent::KINDS`],
//! [`AllocEvent::LANES`], `kind()`, `tier()` and `args_json()` are generated
//! from that table, so they cannot disagree.
//!
//! Determinism: timestamps come from the *simulated* [`Clock`], the fan-out
//! order is fixed (stats → sanitizer → trace → extra sinks), and
//! nothing consults the wall clock or ambient randomness — so the event log
//! of a run is byte-identical across `--threads N` and the golden figures
//! stay bit-identical.
//!
//! The OS-boundary events (`HugepageFill` / `HugepageBreak` /
//! `HugepageRelease`) mirror every `mmap` / `reoccupy` / `subrelease` /
//! `munmap` the pageheap issues, in call order — replaying them into a fresh
//! [`wsc_sim_os::pagetable::PageTable`] reconstructs the kernel's resident
//! set exactly (the conservation test in `tests/event_stream.rs`).

use crate::config::TcmallocConfig;
use crate::stats::{CycleStats, StatsView};
use std::collections::VecDeque;
use wsc_sanitizer::Sanitizer;
use wsc_sim_hw::cost::AllocPath;
use wsc_sim_os::clock::Clock;
use wsc_telemetry::gwp::{AllocationProfile, Sample};

/// Why objects left a transfer-cache shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictReason {
    /// Anti-stranding plunder of an over-full NUCA domain shard (§4.2).
    Plunder,
    /// Idle-cache decay reclaim.
    Decay,
}

impl EvictReason {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            EvictReason::Plunder => "plunder",
            EvictReason::Decay => "decay",
        }
    }
}

/// Which OS call a fault or latency excursion hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsOp {
    /// `mmap` of fresh hugepages.
    Mmap,
    /// `madvise(DONTNEED)` subrelease.
    Subrelease,
}

impl OsOp {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            OsOp::Mmap => "mmap",
            OsOp::Subrelease => "subrelease",
        }
    }
}

/// A field type's form in a Chrome trace-event `args` object.
trait ArgJson {
    fn write_json(&self, out: &mut String);
}

macro_rules! arg_json_display {
    ($($t:ty),*) => {$(
        impl ArgJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
arg_json_display!(usize, u16, u32, u64, bool, f64);

macro_rules! arg_json_name {
    ($($t:ty),*) => {$(
        impl ArgJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.name());
                out.push('"');
            }
        }
    )*};
}
arg_json_name!(EvictReason, OsOp, AllocPath);

impl ArgJson for Option<u16> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Appends `"name":value` to an `args` object opened with `{`.
fn json_field(out: &mut String, name: &str, value: &impl ArgJson) {
    if out.len() > 1 {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    value.write_json(out);
}

/// Declares the event catalog once: the trace lanes, then every variant
/// with its docs, `#[lane(..)]` and fields. Generates the enum, `KINDS`,
/// `LANES`, `kind()`, `tier()` and `args_json()` from that one table.
macro_rules! event_catalog {
    (
        lanes { $($lane:ident),* $(,)? }
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[doc = $doc:literal])*
                #[lane($in_lane:ident)] $variant:ident {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[doc = $doc])* $variant { $($(#[$fmeta])* $field: $ty),* },)*
        }

        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum Lane { $($lane),* }

        enum Kind { $($variant),* }

        impl $name {
            /// Discriminant names, in declaration order — the event taxonomy.
            pub const KINDS: &'static [&'static str] = &[$(stringify!($variant)),*];

            /// The trace lanes, in Chrome-trace thread order (`tid` is the
            /// position plus one).
            pub const LANES: &'static [&'static str] = &[$(stringify!($lane)),*];

            /// The lane of each entry of [`Self::KINDS`].
            const KIND_LANES: &'static [Lane] = &[$(Lane::$in_lane),*];

            fn kind_index(&self) -> usize {
                match self {
                    $(Self::$variant { .. } => Kind::$variant as usize,)*
                }
            }

            /// This event's discriminant name (an entry of [`Self::KINDS`]).
            pub fn kind(&self) -> &'static str {
                Self::KINDS[self.kind_index()]
            }

            /// This event's position in [`Self::LANES`].
            fn lane(&self) -> usize {
                Self::KIND_LANES[self.kind_index()] as usize
            }

            /// The tier (trace lane) an event belongs to.
            pub fn tier(&self) -> &'static str {
                Self::LANES[self.lane()]
            }

            /// The event payload as a Chrome trace-event `args` JSON object:
            /// every field, in declaration order.
            pub fn args_json(&self) -> String {
                let mut out = String::from("{");
                match self {
                    $(Self::$variant { $($field),* } => {
                        $(json_field(&mut out, stringify!($field), $field);)*
                    })*
                }
                out.push('}');
                out
            }
        }
    };
}

event_catalog! {
    lanes { percpu, transfer, central, pageheap, os, pagemap, op }

    /// One cross-tier boundary crossing. Every tier emits through the
    /// [`EventBus`] exactly once at each boundary; consumers subscribe as
    /// [`EventSink`]s instead of instrumenting the tiers themselves.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum AllocEvent {
        // --- Per-CPU front end (§4.1) ---
        /// Fast-path hit in a per-CPU cache.
        #[lane(percpu)] PerCpuHit {
            /// Dense virtual CPU id.
            vcpu: usize,
            /// Size class.
            class: u16,
        },
        /// Fast-path miss: the request falls through to the transfer tier.
        #[lane(percpu)] PerCpuMiss {
            /// Dense virtual CPU id.
            vcpu: usize,
            /// Size class.
            class: u16,
        },
        /// A free overflowed the per-CPU cache; a batch is shed to the middle
        /// tiers.
        #[lane(percpu)] PerCpuOverflow {
            /// Dense virtual CPU id.
            vcpu: usize,
            /// Size class.
            class: u16,
            /// Objects shed (the overflow batch).
            shed: u32,
        },
        /// The per-slab resizer stole unused capacity from another size class
        /// of the same vCPU cache to let `class` grow (§4.1: "we prioritize
        /// shrinking capacity for larger size classes").
        #[lane(percpu)] ResizerSteal {
            /// Dense virtual CPU id.
            vcpu: usize,
            /// The class whose unused capacity was taken.
            victim_class: u16,
            /// The class that grows.
            class: u16,
            /// Capacity bytes moved.
            bytes: u64,
        },
        /// Periodic rebalance grew a heavy cache's budget.
        #[lane(percpu)] ResizerGrow {
            /// Dense virtual CPU id.
            vcpu: usize,
            /// Budget bytes added.
            bytes: u64,
        },
        /// Periodic rebalance shrank a donor cache's budget.
        #[lane(percpu)] ResizerShrink {
            /// Dense virtual CPU id.
            vcpu: usize,
            /// Budget bytes removed.
            bytes: u64,
        },

        // --- Transfer cache (§4.2) ---
        /// Objects fetched from a transfer-cache shard.
        #[lane(transfer)] TransferHit {
            /// NUCA shard index (0 for the singleton central shard).
            shard: usize,
            /// Size class.
            class: u16,
            /// Objects moved.
            count: u32,
        },
        /// Objects inserted into a transfer-cache shard.
        #[lane(transfer)] TransferInsert {
            /// NUCA shard index.
            shard: usize,
            /// Size class.
            class: u16,
            /// Objects moved.
            count: u32,
        },
        /// Objects evicted from a shard (plunder or decay).
        #[lane(transfer)] TransferEvict {
            /// NUCA shard index.
            shard: usize,
            /// Size class.
            class: u16,
            /// Objects evicted.
            count: u32,
            /// Why they left.
            reason: EvictReason,
        },

        // --- Central free lists (§4.3) ---
        /// The central free list refilled the tiers above with a batch.
        #[lane(central)] CentralRefill {
            /// Size class.
            class: u16,
            /// Objects handed up.
            count: u32,
        },
        /// A batch of objects returned to the central free list.
        #[lane(central)] CentralReturn {
            /// Size class.
            class: u16,
            /// Objects handed down.
            count: u32,
        },
        /// A span was carved from the pageheap (maps it in the sanitizer's
        /// page mirror).
        #[lane(central)] SpanAlloc {
            /// Span id.
            id: u32,
            /// Base address.
            start: u64,
            /// Length in TCMalloc pages.
            pages: u32,
            /// Size class, or `None` for a large span.
            class: Option<u16>,
        },
        /// A fully-idle span returned to the pageheap (unmaps it from the
        /// sanitizer's page mirror).
        #[lane(central)] SpanRetire {
            /// Span id.
            id: u32,
            /// Base address.
            start: u64,
            /// Length in TCMalloc pages.
            pages: u32,
            /// Size class, or `None` for a large span.
            class: Option<u16>,
        },

        // --- Hugepage-aware pageheap (§4.4) ---
        /// The filler placed a small run on a (partially used) hugepage.
        #[lane(pageheap)] FillerPlace {
            /// Run base address.
            addr: u64,
            /// Run length in TCMalloc pages.
            pages: u32,
        },
        /// The region allocator placed a medium run (> 1, < 2 hugepages).
        #[lane(pageheap)] RegionPlace {
            /// Run base address.
            addr: u64,
            /// Run length in TCMalloc pages.
            pages: u32,
        },
        /// The hugepage cache placed a large run (whole hugepages).
        #[lane(pageheap)] CachePlace {
            /// Run base address.
            addr: u64,
            /// Run length in TCMalloc pages.
            pages: u32,
        },

        // --- OS boundary (simulated kernel) ---
        /// Hugepages became resident: a fresh `mmap` (`reused: false`) or a
        /// `reoccupy` of previously subreleased pages (`reused: true`).
        #[lane(os)] HugepageFill {
            /// Base address.
            base: u64,
            /// Extent in bytes.
            bytes: u64,
            /// Whether this re-occupies an already-mapped extent.
            reused: bool,
        },
        /// Pages subreleased to the OS, breaking the backing hugepage.
        #[lane(os)] HugepageBreak {
            /// Base address of the subreleased run.
            base: u64,
            /// Extent in bytes.
            bytes: u64,
        },
        /// Hugepages unmapped back to the OS.
        #[lane(os)] HugepageRelease {
            /// Base address.
            base: u64,
            /// Extent in bytes.
            bytes: u64,
        },

        // --- OS faults & graceful degradation (§2, §5) ---
        /// The simulated kernel misbehaved: the call failed (ENOMEM / EAGAIN /
        /// EINVAL) or took an injected latency excursion.
        #[lane(os)] OsFault {
            /// Which operation was hit.
            op: OsOp,
            /// Whether the call failed outright (false = latency spike only).
            failed: bool,
            /// Injected latency beyond the nominal syscall cost, ns.
            latency_ns: u64,
        },
        /// `mmap` succeeded but THP compaction failed: the mapping came back
        /// 4 KiB-backed, lowering hugepage coverage until a collapse
        /// re-promotes it.
        #[lane(os)] BackingDenied {
            /// Base address of the denied mapping.
            base: u64,
            /// Extent in bytes.
            bytes: u64,
        },
        /// A configured memory limit was reached at the OS boundary.
        #[lane(os)] LimitHit {
            /// True for the hard limit (allocation fails), false for the soft
            /// limit (synchronous release + retry).
            hard: bool,
            /// Resident bytes at the moment of the hit.
            resident: u64,
            /// The limit, bytes.
            limit: u64,
        },
        /// Synchronous release-and-retry after ENOMEM or a limit hit.
        #[lane(os)] ReleaseRetry {
            /// Retry attempt number (0-based).
            attempt: u32,
            /// Bytes released back to the OS before retrying.
            released_bytes: u64,
        },
        /// The pageheap entered degraded mode: at least one injected OS fault
        /// or denied backing since the last healthy state.
        #[lane(os)] Degraded {
            /// 4 KiB-backed hugepages currently awaiting re-promotion.
            denied_hugepages: u64,
        },
        /// The pageheap recovered: every denied hugepage re-promoted and no
        /// faults observed since the last maintenance pass.
        #[lane(os)] Recovered {
            /// Hugepages re-promoted over the whole degraded episode.
            repromoted: u64,
        },

        // --- Pagemap ---
        /// A span's pages were entered into the pagemap.
        #[lane(pagemap)] PagemapSet {
            /// First-page address.
            addr: u64,
            /// Pages covered.
            pages: u32,
        },
        /// A span's pages were cleared from the pagemap.
        #[lane(pagemap)] PagemapClear {
            /// First-page address.
            addr: u64,
            /// Pages covered.
            pages: u32,
        },

        // --- Sampler / operation completion ---
        /// The GWP sampler picked this allocation (1 per ~2 MiB allocated).
        #[lane(op)] SamplerPick {
            /// Object address.
            addr: u64,
            /// Requested bytes.
            size: u64,
            /// Allocation-site hash.
            site: u64,
            /// Simulated time of the pick.
            now_ns: u64,
            /// Inverse sampling probability (objects represented).
            weight: f64,
        },
        /// A sampled object was freed; its lifetime is now known.
        #[lane(op)] SampledFree {
            /// Requested bytes at allocation.
            size: u64,
            /// Observed lifetime.
            lifetime_ns: u64,
            /// Sampling weight.
            weight: f64,
        },
        /// An allocation completed: the satisfying tier for cycle charging,
        /// the object for the sanitizer's shadow, and the byte sizes for
        /// conservation.
        #[lane(op)] MallocDone {
            /// Tier that satisfied the request.
            path: AllocPath,
            /// Object address.
            addr: u64,
            /// Requested bytes.
            size: u64,
            /// Bytes actually reserved (size-class rounding).
            actual: u64,
            /// Whether the next-object prefetch was issued.
            prefetched: bool,
            /// Whether this allocation was sampled.
            sampled: bool,
        },
        /// A free completed.
        #[lane(op)] FreeDone {
            /// Tier that absorbed the free.
            path: AllocPath,
            /// Object address.
            addr: u64,
            /// Requested bytes at allocation.
            size: u64,
        },
    }
}

/// A consumer of the event stream. Sinks receive every event in emission
/// order with the simulated-clock timestamp; `Send` so an allocator (and
/// its bus) can move between engine worker threads.
pub trait EventSink: Send {
    /// Observes one event.
    fn on_event(&mut self, ts_ns: u64, ev: &AllocEvent);
}

/// A bounded, deterministic ring over the tail of the event stream, with
/// Chrome trace-event JSON export. Oldest entries drop first; the drop
/// count is kept so truncation is never silent.
#[derive(Clone, Debug)]
pub struct TraceRing {
    capacity: usize,
    entries: VecDeque<(u64, AllocEvent)>,
    dropped: u64,
}

impl TraceRing {
    /// A capacity no run reaches: the ring keeps the whole stream. Callers
    /// that need every event (the determinism and conservation tests) size
    /// the ring with it and read it through [`stream`](Self::stream).
    pub const UNBOUNDED: u32 = u32::MAX;

    /// A ring keeping the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: VecDeque::with_capacity(capacity.clamp(1, 1 << 16)),
            dropped: 0,
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Events dropped from the front because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The whole event stream, oldest first. Panics if the ring dropped
    /// any event, so a tail is never mistaken for the stream.
    pub fn stream(&self) -> Vec<AllocEvent> {
        assert_eq!(self.dropped, 0, "the ring dropped events");
        self.entries.iter().map(|&(_, ev)| ev).collect()
    }

    /// Exports the ring as Chrome trace-event JSON (the "JSON Array
    /// Format" with a `traceEvents` wrapper): one instant event per
    /// allocator event, `ts` in microseconds of simulated time, one trace
    /// "thread" lane per tier. Loads in `chrome://tracing` and Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let lanes = AllocEvent::LANES;
        let mut out = String::with_capacity(128 * (self.entries.len() + lanes.len()) + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for (i, name) in lanes.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{name}\"}}}}",
                i + 1
            ));
        }
        for (ts, ev) in &self.entries {
            out.push(',');
            let us = *ts as f64 / 1000.0;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{us},\"cat\":\"{}\",\"args\":{}}}",
                ev.kind(),
                ev.lane() + 1,
                ev.tier(),
                ev.args_json()
            ));
        }
        out.push_str(&format!(
            "],\"otherData\":{{\"dropped\":{},\"captured\":{}}}}}",
            self.dropped,
            self.entries.len()
        ));
        out
    }
}

impl EventSink for TraceRing {
    fn on_event(&mut self, ts_ns: u64, ev: &AllocEvent) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((ts_ns, *ev));
    }
}

/// The bus: owns the built-in consumers (stats view, sanitizer shadow feed,
/// optional trace ring) plus any attached [`EventSink`]s, and
/// fans every event out to them in a fixed, deterministic order.
///
/// The bus also *prices* operations: [`malloc_done`](Self::malloc_done) and
/// [`free_done`](Self::free_done) look the completion up in the stats
/// view's price table (the Figure 4 calibration), count it and return its nanoseconds in one call — a
/// tier cannot pay for what it does not report, and
/// [`cycles`](Self::cycles), priced from the counts when read, is exact the
/// moment an operation returns.
///
/// The *record* of an operation is only materialised while the bus is
/// `observed` (someone other than the ledger is listening: trace ring,
/// attached sink, or the sanitizer). Observers see the full
/// per-op stream; with nobody listening nothing is built.
#[derive(Default)]
pub struct EventBus {
    clock: Clock,
    stats: StatsView,
    sanitizer: Sanitizer,
    trace: Option<TraceRing>,
    extra: Vec<Box<dyn EventSink>>,
    /// Derived, never set by a caller: fixed by the config in
    /// [`renew`](Self::renew), flipped for good by [`attach`](Self::attach).
    observed: bool,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("trace", &self.trace.as_ref().map(TraceRing::len))
            .field("extra_sinks", &self.extra.len())
            .field("observed", &self.observed)
            .finish_non_exhaustive()
    }
}

impl EventBus {
    /// This bus emptied for the next allocator: the ledger and profile
    /// zeroed with their storage kept, attached sinks detached, and a new
    /// sanitizer and trace ring as `cfg` asks (`trace_capacity`,
    /// `sanitize`).
    pub fn renew(mut self, cfg: &TcmallocConfig, clock: Clock) -> Self {
        self.extra.clear();
        let trace = (cfg.trace_capacity > 0).then(|| TraceRing::new(cfg.trace_capacity as usize));
        Self {
            clock,
            stats: self.stats.renew(),
            sanitizer: Sanitizer::new(cfg.sanitize),
            observed: trace.is_some() || cfg.sanitize.is_on(),
            trace,
            extra: self.extra,
        }
    }

    /// Reports one event: the stats view books it, and every observer sees
    /// it in the fixed fan-out order.
    pub fn emit(&mut self, ev: AllocEvent) {
        self.stats.apply(&ev);
        if self.observed {
            self.fan_out(&ev);
        }
    }

    /// Reports one per-CPU fast-path hit ([`AllocEvent::PerCpuHit`]). The
    /// ledger books nothing for a hit, so unobserved this is a no-op.
    #[inline]
    pub fn percpu_hit(&mut self, vcpu: usize, class: u16) {
        if self.observed {
            self.fan_out(&AllocEvent::PerCpuHit { vcpu, class });
        }
    }

    /// Hands one event to the observers (sanitizer → trace → attached
    /// sinks), stamped with the simulated clock. The stats view is
    /// not an observer: its caller has already booked the event.
    fn fan_out(&mut self, ev: &AllocEvent) {
        let ts = self.clock.now_ns();
        match *ev {
            AllocEvent::SpanAlloc {
                id,
                start,
                pages,
                class,
            } => self.sanitizer.map_span(id, start, pages, class),
            AllocEvent::SpanRetire { start, .. } => self.sanitizer.forget_span(start),
            AllocEvent::MallocDone { addr, actual, .. } => {
                self.sanitizer.record_alloc(addr, actual);
            }
            _ => {}
        }
        if let Some(t) = &mut self.trace {
            t.on_event(ts, ev);
        }
        for s in &mut self.extra {
            s.on_event(ts, ev);
        }
    }

    /// Completes an allocation: counts it and returns the operation's
    /// cost-model nanoseconds (path + prefetch + other + sampling, in that
    /// order). `pick` is the GWP sample when the sampler chose this
    /// allocation. Observers see [`AllocEvent::SamplerPick`] (if sampled)
    /// then [`AllocEvent::MallocDone`].
    // Scalars, not a pre-built event: the record is only built if observed.
    #[inline]
    pub fn malloc_done(
        &mut self,
        path: AllocPath,
        addr: u64,
        size: u64,
        actual: u64,
        prefetched: bool,
        pick: Option<Sample>,
    ) -> f64 {
        let sampled = pick.is_some();
        let ns = self.stats.complete(path, prefetched, sampled);
        if let Some(s) = pick {
            self.emit(AllocEvent::SamplerPick {
                addr,
                size: s.size,
                site: s.site,
                now_ns: s.alloc_time_ns,
                weight: s.weight,
            });
        }
        if self.observed {
            self.fan_out(&AllocEvent::MallocDone {
                path,
                addr,
                size,
                actual,
                prefetched,
                sampled,
            });
        }
        ns
    }

    /// Completes a free: counts it (priced path + other), returns its
    /// cost-model nanoseconds, and shows observers [`AllocEvent::FreeDone`].
    #[inline]
    pub fn free_done(&mut self, path: AllocPath, addr: u64, size: u64) -> f64 {
        let ns = self.stats.complete(path, false, false);
        if self.observed {
            self.fan_out(&AllocEvent::FreeDone { path, addr, size });
        }
        ns
    }

    /// Cycle attribution (Figure 6a view), exact at every instant.
    pub fn cycles(&self) -> CycleStats {
        self.stats.cycles()
    }

    /// Derived GWP allocation profile.
    pub fn profile(&self) -> &AllocationProfile {
        self.stats.profile()
    }

    /// The sanitizer (shadow state + audit bookkeeping).
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// Mutable sanitizer access (free checks, audits, report draining).
    pub fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        &mut self.sanitizer
    }

    /// The trace ring, when `trace_capacity > 0`.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.trace.as_ref()
    }

    /// Everything a [`TraceRing::UNBOUNDED`] ring kept: the whole stream.
    #[cfg(test)]
    pub(crate) fn stream(&self) -> Vec<AllocEvent> {
        self.trace.as_ref().expect("trace ring configured").stream()
    }

    /// Attaches an additional sink; it observes every subsequent event
    /// after the built-in consumers.
    pub fn attach(&mut self, sink: Box<dyn EventSink>) {
        self.extra.push(sink);
        self.observed = true;
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stats::CycleCategory;
    use wsc_sanitizer::{ErrorKind, SanitizeLevel};
    use wsc_sim_hw::cost::CostModel;

    fn bus(cfg: TcmallocConfig) -> EventBus {
        EventBus::default().renew(&cfg, Clock::new())
    }

    fn hit() -> AllocEvent {
        AllocEvent::PerCpuHit { vcpu: 0, class: 3 }
    }

    /// A per-CPU completion at a fixed address.
    fn malloc(b: &mut EventBus, prefetched: bool, pick: Option<Sample>) -> f64 {
        b.malloc_done(AllocPath::PerCpu, 0x1000, 24, 24, prefetched, pick)
    }

    fn pick() -> Sample {
        Sample {
            size: 24,
            site: 7,
            alloc_time_ns: 0,
            weight: 1.0,
        }
    }

    #[test]
    fn malloc_done_prices_and_books_in_one_call() {
        let c = CostModel::production();
        let mut b = bus(TcmallocConfig::optimized());
        let ns = malloc(&mut b, true, None);
        assert_eq!(ns, c.percpu_hit_ns + c.prefetch_ns + c.other_ns);
        let charged = b.cycles().total_ns();
        assert!((charged - ns).abs() < 1e-9, "{charged} vs {ns}");
        let ns2 = b.free_done(AllocPath::PerCpu, 0x1000, 24);
        assert_eq!(ns2, c.percpu_hit_ns + c.other_ns);
        assert_eq!(b.cycles().ops(CycleCategory::CpuCache), 2);
        assert_eq!(b.cycles().ops(CycleCategory::Prefetch), 1);
        assert_eq!(b.cycles().ops(CycleCategory::Other), 2);
        assert_eq!(b.cycles().ops(CycleCategory::Sampled), 0);
    }

    #[test]
    fn ring_captures_in_emission_order() {
        let cfg = TcmallocConfig::optimized().with_trace(TraceRing::UNBOUNDED);
        let mut b = bus(cfg);
        b.percpu_hit(0, 3);
        malloc(&mut b, false, Some(pick()));
        b.free_done(AllocPath::PerCpu, 0x1000, 24);
        let events = b.stream();
        let kinds: Vec<_> = events.iter().map(AllocEvent::kind).collect();
        assert_eq!(
            kinds,
            ["PerCpuHit", "SamplerPick", "MallocDone", "FreeDone"]
        );
        assert_eq!(events[0], hit());
        assert_eq!(b.profile().size_by_count.count(), 1.0);
    }

    /// The ledger and profile a bus ends with do not depend on who else is
    /// listening, each completion is booked exactly once either way, and an
    /// observer's captured stream replays to the same view.
    #[test]
    fn observed_and_unobserved_buses_book_identically() {
        let observed = [
            TcmallocConfig::optimized().with_trace(TraceRing::UNBOUNDED),
            TcmallocConfig::optimized().with_trace(8),
            TcmallocConfig::optimized().with_sanitize(SanitizeLevel::Full),
        ];
        let mut quiet = bus(TcmallocConfig::optimized());
        let mut buses: Vec<EventBus> = observed.into_iter().map(bus).collect();
        assert!(!quiet.observed);
        assert!(buses.iter().all(|b| b.observed));
        let mut late = bus(TcmallocConfig::optimized());
        late.attach(Box::new(TraceRing::new(8)));
        assert!(late.observed, "attach flips it for good");
        buses.push(late);
        for i in 0..137u64 {
            for b in std::iter::once(&mut quiet).chain(&mut buses) {
                b.percpu_hit((i % 4) as usize, (i % 7) as u16);
                malloc(b, i % 3 != 0, (i % 50 == 0).then(pick));
                if i % 2 == 0 {
                    b.free_done(AllocPath::ALL[(i % 5) as usize], 0x1000 + i, 24);
                }
                b.emit(AllocEvent::OsFault {
                    op: OsOp::Subrelease,
                    failed: false,
                    latency_ns: 10,
                });
            }
            for b in &buses {
                assert_eq!(quiet.cycles(), b.cycles(), "op {i}");
            }
        }
        assert_eq!(quiet.cycles().ops(CycleCategory::Sampled), 3);
        let mut replayed = StatsView::default();
        for ev in &buses[0].stream() {
            replayed.on_event(0, ev);
        }
        assert_eq!(replayed.cycles(), quiet.cycles());
        assert_eq!(
            replayed.profile().size_by_count.count(),
            quiet.profile().size_by_count.count()
        );
    }

    fn malloc_done_at(addr: u64) -> AllocEvent {
        AllocEvent::MallocDone {
            path: AllocPath::PerCpu,
            addr,
            size: 16,
            actual: 16,
            prefetched: false,
            sampled: false,
        }
    }

    #[test]
    fn sanitizer_is_fed_from_malloc_done_and_span_retire() {
        let cfg = TcmallocConfig::optimized().with_sanitize(SanitizeLevel::Full);
        let mut b = bus(cfg);
        let span = AllocEvent::SpanAlloc {
            id: 0,
            start: 0x10000,
            pages: 1,
            class: Some(1),
        };
        b.emit(span);
        let spans: Vec<_> = b.sanitizer().shadow().spans().collect();
        assert_eq!(spans, [(0x10000, 1, Some(1))]);
        b.emit(malloc_done_at(0x10000));
        assert_eq!(b.sanitizer().shadow().live_objects().count(), 1);
        assert_eq!(b.sanitizer().shadow().live_count_by_class(Some(1)), 1);
        b.emit(AllocEvent::SpanRetire {
            id: 0,
            start: 0x10000,
            pages: 1,
            class: Some(1),
        });
        // The span vanished with a live object on it: the shadow reports a
        // leak, and the object is forgotten.
        assert_eq!(b.sanitizer().shadow().live_objects().count(), 0);
        assert_eq!(b.sanitizer().shadow().spans().count(), 0);
        let kinds: Vec<_> = b.sanitizer().reports().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [ErrorKind::ObjectConservationViolation]);
    }

    /// The shadow places objects on the spans the stream announced, not on
    /// whatever the allocator's pagemap says: an object on no announced
    /// span is reported, not silently skipped.
    #[test]
    fn an_object_on_no_announced_span_is_reported() {
        let mut b = bus(TcmallocConfig::optimized().with_sanitize(SanitizeLevel::Full));
        b.emit(malloc_done_at(0x10000));
        let kinds: Vec<_> = b.sanitizer().reports().iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [ErrorKind::UseOfUnmappedAddress]);
        assert_eq!(b.sanitizer().shadow().live_objects().count(), 0);
    }

    #[test]
    fn trace_ring_bounds_and_counts_drops() {
        let mut r = TraceRing::new(2);
        for i in 0..5u64 {
            r.on_event(i, &hit());
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        let ts: Vec<u64> = r.entries.iter().map(|(t, _)| *t).collect();
        assert_eq!(ts, [3, 4], "oldest dropped first");
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let mut r = TraceRing::new(16);
        r.on_event(1500, &hit());
        r.on_event(
            2500,
            &AllocEvent::HugepageFill {
                base: 0x7f00_0000_0000,
                bytes: 2 << 20,
                reused: false,
            },
        );
        let json = r.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"PerCpuHit\""));
        assert!(json.contains("\"ts\":1.5"), "{json}");
        assert!(json.contains("\"reused\":false"));
        assert!(json.contains("\"dropped\":0"));
        assert!(json.ends_with('}'));
        // Brace/bracket balance — cheap structural validity check.
        let (mut depth, mut sq) = (0i64, 0i64);
        let mut in_str = false;
        for c in json.chars() {
            match c {
                '"' => in_str = !in_str,
                '{' if !in_str => depth += 1,
                '}' if !in_str => depth -= 1,
                '[' if !in_str => sq += 1,
                ']' if !in_str => sq -= 1,
                _ => {}
            }
        }
        assert_eq!((depth, sq), (0, 0));
    }

    /// DESIGN.md §4's taxonomy table lists, per lane, the kinds the catalog
    /// puts in that lane, in declaration order, and counts them.
    #[test]
    fn design_taxonomy_table_matches_the_catalog() {
        let design = include_str!("../../../DESIGN.md");
        let intro = design
            .split("**Event taxonomy** (`AllocEvent`, ")
            .nth(1)
            .expect("DESIGN.md has the taxonomy heading");
        let count = intro.split(" kinds").next().unwrap();
        assert_eq!(count, AllocEvent::KINDS.len().to_string());
        let rows: Vec<(String, Vec<String>)> = intro
            .lines()
            .skip_while(|l| !l.starts_with("|---"))
            .skip(1)
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').collect();
                let words = |cell: &str| -> Vec<String> {
                    cell.split_whitespace()
                        .map(|w| w.trim_matches('`').to_string())
                        .collect()
                };
                (words(cells[1]).concat(), words(cells[2]))
            })
            .collect();
        let generated: Vec<(String, Vec<String>)> = AllocEvent::LANES
            .iter()
            .enumerate()
            .map(|(lane, name)| {
                let kinds = AllocEvent::KINDS
                    .iter()
                    .zip(AllocEvent::KIND_LANES)
                    .filter(|(_, l)| **l as usize == lane)
                    .map(|(kind, _)| kind.to_string());
                (name.to_string(), kinds.collect())
            })
            .collect();
        assert_eq!(rows, generated);
    }

    /// The generated `args_json` writes every field type as the trace
    /// format always has: enums by name, `None` as `null`, floats in
    /// shortest form.
    #[test]
    fn args_json_writes_each_field_type() {
        let cases = [
            (
                AllocEvent::TransferEvict {
                    shard: 2,
                    class: 5,
                    count: 8,
                    reason: EvictReason::Decay,
                },
                r#"{"shard":2,"class":5,"count":8,"reason":"decay"}"#,
            ),
            (
                AllocEvent::OsFault {
                    op: OsOp::Subrelease,
                    failed: false,
                    latency_ns: 900,
                },
                r#"{"op":"subrelease","failed":false,"latency_ns":900}"#,
            ),
            (
                AllocEvent::SpanAlloc {
                    id: 1,
                    start: 4096,
                    pages: 2,
                    class: None,
                },
                r#"{"id":1,"start":4096,"pages":2,"class":null}"#,
            ),
            (
                AllocEvent::SampledFree {
                    size: 24,
                    lifetime_ns: 5,
                    weight: 2.5,
                },
                r#"{"size":24,"lifetime_ns":5,"weight":2.5}"#,
            ),
            (
                AllocEvent::FreeDone {
                    path: AllocPath::PerCpu,
                    addr: 64,
                    size: 8,
                },
                r#"{"path":"CPUCache","addr":64,"size":8}"#,
            ),
        ];
        for (ev, json) in cases {
            assert_eq!(ev.args_json(), json, "{ev:?}");
        }
        assert_eq!(
            AllocEvent::SpanRetire {
                id: 1,
                start: 4096,
                pages: 2,
                class: Some(7),
            }
            .tier(),
            "central"
        );
    }

    /// The ring and the recorder hold events by value: the widest variant
    /// sets what every entry costs.
    #[test]
    fn an_event_fits_in_48_bytes() {
        assert!(std::mem::size_of::<AllocEvent>() <= 48);
    }
}
