//! Allocation-trace recording and replay.
//!
//! The paper's characterization is built on traces of production allocation
//! behaviour. This module makes our synthetic equivalents first-class
//! artifacts: a [`Trace`] is a deterministic, portable event sequence that
//! can be recorded from any [`WorkloadSpec`], saved to a plain-text file,
//! diffed, and replayed against any allocator configuration — so two
//! configurations can be compared on *exactly* the same operation stream,
//! or a trace from one machine can be re-examined on another.
//!
//! The on-disk format is a line-oriented text format (one event per line) so
//! traces are greppable and versionable without extra dependencies.
//!
//! # A trace is the driver's workload
//!
//! [`Trace::record`] runs the workload generator of
//! [`driver::run`](crate::driver::run) on CPUs `0..16`, with
//! [`DriverConfig::new`]'s defaults otherwise: each allocation and free the
//! driver would make becomes an `Alloc` or `Free`, and each request ends in
//! an `Advance` of its interarrival time, where the driver advances the
//! clock and runs maintenance. Replay makes that run's allocator calls, in
//! order and at the same simulated times, then the teardown frees.
//!
//! # Ids are slots
//!
//! An allocation's id is the generator's slot for it: the slot the most
//! recent free released, and a new one only when none is free, so a
//! recorded trace's ids stay below its peak live count. Replay does not
//! hash an id to find its object: it indexes a slot table (`LiveTable`), one
//! store per `Alloc` and one take per `Free`. The table is reserved once for
//! the trace's largest `Alloc` id, and never for more slots than the trace
//! has events, so a parsed `a 18446744073709551615 …` costs one entry, not a
//! table the size of the id. Ids at or beyond that bound (a hand-written or
//! hand-built trace; no recorded one has any) go to a small map beside the
//! table and replay, and fail, exactly as the dense ones do.
//!
//! # A recorded allocation is three words
//!
//! [`Trace::events`] is an [`Events`] list, one stream of `u32` words: an
//! `Advance` or a `Free` is one word and an `Alloc` two, so an allocation
//! and its free cost the trace 12 bytes, and each request's `Advance` 4
//! more: at most 16 bytes an allocation for a spec that allocates at least
//! once a request, more for one that does not. The rare event with a field too wide for its words is kept whole
//! beside them. Iterating the list decodes each event into a
//! [`TraceEvent`].

use crate::driver::DriverConfig;
use crate::generator::{self, Free, LiveObject, Slot, Stage, Tables};
use crate::spec::WorkloadSpec;
use std::fmt::{self, Write as _};
use std::str::FromStr;
use wsc_prng::IntMap;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::Clock;
use wsc_tcmalloc::{AllocError, Tcmalloc};

mod events;
pub use events::{Decoded, Events, Iter};

/// One event in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Allocate `size` bytes as allocation `id` on `cpu`.
    Alloc {
        /// Dense allocation id, referenced by the matching `Free`.
        id: u64,
        /// Requested size in bytes.
        size: u64,
        /// Allocation-site id.
        site: u32,
        /// Logical CPU performing the allocation.
        cpu: u32,
    },
    /// Free allocation `id` on `cpu`.
    Free {
        /// The allocation to free.
        id: u64,
        /// Logical CPU performing the free.
        cpu: u32,
    },
    /// Advance simulated time by `ns` (drives background maintenance).
    Advance {
        /// Nanoseconds to advance.
        ns: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Alloc {
                id,
                size,
                site,
                cpu,
            } => {
                write!(f, "a {id} {size} {site} {cpu}")
            }
            TraceEvent::Free { id, cpu } => write!(f, "f {id} {cpu}"),
            TraceEvent::Advance { ns } => write!(f, "t {ns}"),
        }
    }
}

/// Error parsing a trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseTraceError {}

impl FromStr for TraceEvent {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut it = s.split_whitespace();
        let kind = it.next().ok_or("empty line")?;
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("missing field {name}"))?
                .parse::<u64>()
                .map_err(|e| format!("bad {name}: {e}"))
        };
        // Site and CPU ids are 32-bit: out of range is an error, never a
        // silent wrap to some other CPU.
        let narrow = |name: &str, v: u64| -> Result<u32, String> {
            u32::try_from(v).map_err(|e| format!("bad {name}: {e}"))
        };
        let ev = match kind {
            "a" => TraceEvent::Alloc {
                id: num("id")?,
                size: num("size")?,
                site: narrow("site", num("site")?)?,
                cpu: narrow("cpu", num("cpu")?)?,
            },
            "f" => TraceEvent::Free {
                id: num("id")?,
                cpu: narrow("cpu", num("cpu")?)?,
            },
            "t" => TraceEvent::Advance { ns: num("ns")? },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        if it.next().is_some() {
            return Err("trailing fields".into());
        }
        Ok(ev)
    }
}

/// A recorded allocation trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Workload name the trace was recorded from.
    pub name: String,
    /// Events in order.
    pub events: Events,
}

/// Outcome of replaying a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayStats {
    /// Allocations performed.
    pub allocs: u64,
    /// Frees performed.
    pub frees: u64,
    /// Total allocator nanoseconds consumed.
    pub malloc_ns: f64,
    /// Peak resident bytes observed.
    pub peak_resident_bytes: u64,
}

/// A malformed trace, found by [`Trace::check`] before any allocator ran it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceCheckError {
    event: usize,
    reason: String,
}

impl fmt::Display for TraceCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace check failed at event {}: {}",
            self.event, self.reason
        )
    }
}

impl std::error::Error for TraceCheckError {}

/// A trace [`Trace::try_record`] cannot find memory for: refused before any
/// event is drawn if its reservation fails, or when the list cannot grow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordError {
    allocations: u64,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot reserve a trace of {} allocations",
            self.allocations
        )
    }
}

impl std::error::Error for RecordError {}

/// An allocation the allocator refused during [`Trace::try_replay`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayError {
    event: usize,
    size: u64,
    error: AllocError,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay failed at event {}: malloc of {} bytes: {}",
            self.event, self.size, self.error
        )
    }
}

impl std::error::Error for ReplayError {}

/// The `(address, size)` of every live allocation of one pass over a trace,
/// by trace id (module docs: "Ids are slots").
struct LiveTable {
    /// Slot `id` for every id up to the largest seen below `bound`. The
    /// simulated heap never hands out the null address, so it marks a free
    /// slot. Reserved for `bound` slots up front and lengthened as ids
    /// appear, so it never reallocates and the host pages in only the part
    /// the trace's ids reach.
    dense: Vec<(u64, u64)>,
    /// The trace's largest `Alloc` id plus one, at most its event count:
    /// ids from here on live in `spill`.
    bound: usize,
    // lint:allow(hashmap-decl) keyed by trace object id; never iterated
    spill: IntMap<u64, (u64, u64)>,
}

impl LiveTable {
    const NULL: u64 = 0;
    const FREE: (u64, u64) = (Self::NULL, 0);

    fn for_events(events: &Events) -> Self {
        Self::with_bound(events.id_bound().min(events.len()))
    }

    fn with_bound(bound: usize) -> Self {
        LiveTable {
            dense: Vec::with_capacity(bound),
            bound,
            spill: IntMap::default(),
        }
    }

    /// Records `id` as live at `addr`; `false` if it already was.
    fn insert(&mut self, id: u64, addr: u64, size: u64) -> bool {
        assert_ne!(addr, Self::NULL, "allocation {id} at the null address");
        let Some(index) = usize::try_from(id).ok().filter(|&i| i < self.bound) else {
            return self.spill.insert(id, (addr, size)).is_none();
        };
        if index >= self.dense.len() {
            self.dense.resize(index + 1, Self::FREE);
        }
        let slot = &mut self.dense[index];
        let was_free = slot.0 == Self::NULL;
        if was_free {
            *slot = (addr, size);
        }
        was_free
    }

    /// Removes `id`, returning its `(address, size)` if it was live.
    fn take(&mut self, id: u64) -> Option<(u64, u64)> {
        // An id the table has no slot for is either beyond the bound or was
        // never allocated; `spill` holds the former and has none of the
        // latter.
        let Some(slot) = usize::try_from(id).ok().and_then(|i| self.dense.get_mut(i)) else {
            return self.spill.remove(&id);
        };
        let was = std::mem::replace(slot, Self::FREE);
        (was.0 != Self::NULL).then_some(was)
    }
}

/// The recorder's [`Stage`]: each operation becomes an event; allocations
/// past the target are refused, so the request that reaches it is the last.
/// An event the list finds no memory for ends the recording.
struct Recorder {
    events: Events,
    /// Allocations still to record.
    left: u64,
    /// An event found no room: the events are incomplete.
    full: bool,
}

impl Stage for Recorder {
    fn more(&self) -> bool {
        self.left > 0 && !self.full
    }

    fn alloc(&mut self, slot: Slot, size: u64, site: usize, cpu: CpuId) -> Option<u64> {
        self.left = self.left.checked_sub(1)?;
        self.full |= !self.events.try_push(TraceEvent::Alloc {
            id: u64::from(slot),
            size,
            site: site as u32,
            cpu: cpu.0,
        });
        // A recorded object has no address; its id plus one is never zero.
        Some(u64::from(slot) + 1)
    }

    fn free(&mut self, slot: Slot, _obj: &LiveObject, cpu: CpuId, _why: Free) {
        self.full |= !self.events.try_push(TraceEvent::Free {
            id: u64::from(slot),
            cpu: cpu.0,
        });
    }

    fn end(&mut self, _now: u64, step: u64) {
        self.full |= !self.events.try_push(TraceEvent::Advance { ns: step });
    }
}

impl Trace {
    /// Records `allocations` allocations of the driver's workload with seed
    /// `seed` (module docs: "A trace is the driver's workload"), then a
    /// `Free` of every object still live, by id, on CPU 0. The event list is
    /// reserved for three words an allocation and one a request at the
    /// spec's mean rate, exactly what a whole number of allocations a
    /// request records; a list that outgrows it grows.
    ///
    /// # Panics
    ///
    /// Panics if the event list cannot be reserved or grown;
    /// [`try_record`](Self::try_record) returns that instead. Panics, too,
    /// if `allocations` is not zero and the spec makes no allocations.
    pub fn record(spec: &WorkloadSpec, allocations: u64, seed: u64) -> Trace {
        Self::try_record(spec, allocations, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`record`](Self::record) for a count from outside the program.
    ///
    /// # Errors
    ///
    /// Returns a [`RecordError`] if the event list for `allocations`
    /// allocations cannot be reserved, or runs out of memory as it grows.
    ///
    /// # Panics
    ///
    /// Panics if `allocations` is not zero and the spec makes no
    /// allocations, as [`record`](Self::record) does.
    pub fn try_record(
        spec: &WorkloadSpec,
        allocations: u64,
        seed: u64,
    ) -> Result<Trace, RecordError> {
        assert!(
            allocations == 0 || spec.allocs_per_request > 0.0,
            "{} makes no allocations to record",
            spec.name
        );
        let refused = RecordError { allocations };
        // Three words an allocation and one a request. The cast saturates,
        // so a request count no `u64` holds stays unreservable.
        let requests = (allocations as f64 / spec.allocs_per_request).ceil() as u64;
        let words = allocations
            .checked_mul(3)
            .and_then(|w| w.checked_add(requests));
        let events = words.and_then(Events::with_words).ok_or(refused)?;
        // The driver's defaults on a 16-CPU, one-domain machine: CPUs 0..16.
        let platform = Platform::monolithic("trace", 1, 16, 1);
        let cfg = DriverConfig {
            drain_at_end: true,
            ..DriverConfig::new(u64::MAX, seed, &platform)
        };
        let mut recorder = Recorder {
            events,
            left: allocations,
            full: false,
        };
        generator::generate(spec, &cfg, &Clock::new(), Tables::default(), &mut recorder);
        if recorder.full {
            return Err(refused);
        }
        Ok(Trace {
            name: spec.name.clone(),
            events: recorder.events,
        })
    }

    /// Replays the trace against an allocator.
    ///
    /// # Panics
    ///
    /// Panics on malformed traces (free of unknown/duplicate id) — those are
    /// trace bugs, not allocator bugs. [`check`](Self::check) finds them
    /// without an allocator. Panics, too, on an allocation the allocator
    /// refuses; [`try_replay`](Self::try_replay) returns that instead.
    pub fn replay(&self, tcm: &mut Tcmalloc, clock: &Clock) -> ReplayStats {
        self.try_replay(tcm, clock)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`replay`](Self::replay) for a trace from outside the program: an
    /// allocation the allocator refuses (a size no address space holds, a
    /// hard limit) stops the replay and is returned.
    ///
    /// # Errors
    ///
    /// Returns a [`ReplayError`] naming the refused event.
    ///
    /// # Panics
    ///
    /// Panics on trace bugs, as [`replay`](Self::replay) does.
    pub fn try_replay(
        &self,
        tcm: &mut Tcmalloc,
        clock: &Clock,
    ) -> Result<ReplayStats, ReplayError> {
        let mut stats = ReplayStats::default();
        let mut live = LiveTable::for_events(&self.events);
        for (event, ev) in self.events.iter().enumerate() {
            match *ev {
                TraceEvent::Alloc {
                    id,
                    size,
                    site,
                    cpu,
                } => {
                    let out = tcm
                        .try_malloc_with_site(size, CpuId(cpu), site as u64)
                        .map_err(|error| ReplayError { event, size, error })?;
                    assert!(live.insert(id, out.addr, size), "trace reuses live id {id}");
                    stats.allocs += 1;
                    stats.malloc_ns += out.ns;
                }
                TraceEvent::Free { id, cpu } => {
                    let (addr, size) = live
                        .take(id)
                        .unwrap_or_else(|| panic!("trace frees unknown id {id}"));
                    let out = tcm.free(addr, size, CpuId(cpu));
                    stats.frees += 1;
                    stats.malloc_ns += out.ns;
                }
                TraceEvent::Advance { ns } => {
                    clock.advance(ns);
                    tcm.maintain();
                }
            }
            stats.peak_resident_bytes = stats.peak_resident_bytes.max(tcm.resident_bytes());
        }
        Ok(stats)
    }

    /// Checks, without an allocator, that [`replay`](Self::replay) on
    /// `platform` will not meet a trace bug: every `Free` names a live id,
    /// no `Alloc` reuses one, every CPU is one the platform has, and the
    /// `Advance`s keep a clock that starts at 0 within `u64` nanoseconds.
    /// Allocations never freed are not an error.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceCheckError`] naming the first offending event by its
    /// index in [`events`](Self::events).
    pub fn check(&self, platform: &Platform) -> Result<(), TraceCheckError> {
        // Any non-null address marks a slot live.
        const LIVE: u64 = 1;
        let mut live = LiveTable::for_events(&self.events);
        let mut now = 0u64;
        for (event, ev) in self.events.iter().enumerate() {
            let fail = |reason: String| Err(TraceCheckError { event, reason });
            let cpu = match *ev {
                TraceEvent::Alloc { id, cpu, .. } => {
                    if !live.insert(id, LIVE, 0) {
                        return fail(format!("reuses live id {id}"));
                    }
                    cpu
                }
                TraceEvent::Free { id, cpu } => {
                    if live.take(id).is_none() {
                        return fail(format!("frees unknown id {id}"));
                    }
                    cpu
                }
                TraceEvent::Advance { ns } => {
                    let Some(later) = now.checked_add(ns) else {
                        return fail(format!(
                            "advancing {ns} ns from {now} ns overflows the clock"
                        ));
                    };
                    now = later;
                    continue;
                }
            };
            if cpu as usize >= platform.num_cpus() {
                return fail(format!(
                    "cpu {cpu} out of range: platform {} has {}",
                    platform.name(),
                    platform.num_cpus()
                ));
            }
        }
        Ok(())
    }

    /// Serializes to the line-oriented text format.
    pub fn to_text(&self) -> String {
        // A recorded event's line is about 10 bytes.
        let mut out = String::with_capacity(32 + self.name.len() + 12 * self.events.len());
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "# wsc-trace v1 {}", self.name);
        for ev in &self.events {
            let _ = writeln!(out, "{}", *ev);
        }
        out
    }

    /// Parses the line-oriented text format.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] naming the offending line.
    pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
        let mut name = String::from("unnamed");
        let mut events = Events::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('#') {
                if let Some(n) = header.trim().strip_prefix("wsc-trace v1") {
                    name = n.trim().to_string();
                }
                continue;
            }
            events.push(
                line.parse::<TraceEvent>()
                    .map_err(|reason| ParseTraceError {
                        line: i + 1,
                        reason,
                    })?,
            );
        }
        Ok(Trace { name, events })
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::profiles;
    use wsc_sim_hw::topology::Platform;
    use wsc_tcmalloc::TcmallocConfig;

    #[test]
    fn record_is_deterministic() {
        let spec = profiles::fleet_mix();
        let a = Trace::record(&spec, 500, 7);
        let b = Trace::record(&spec, 500, 7);
        assert_eq!(a, b);
        assert_ne!(a, Trace::record(&spec, 500, 8));
    }

    #[test]
    fn record_is_pinned() {
        // The generator's draws, the slot each allocation takes and the
        // recorder's events, in order. Captured when the recorder first ran
        // the driver's generator: 1 000 requests of 20 allocations, each
        // object freed once.
        let trace = Trace::record(&profiles::fleet_mix(), 20_000, 42);
        assert_eq!(trace.events.len(), 41_000);
        let fnv = trace
            .to_text()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(fnv, 0x30d8_2d33_a59c_4f95);
    }

    #[test]
    fn every_alloc_is_freed_exactly_once() {
        // Ids are slots: an `Alloc` never takes a live one, and every
        // allocation is freed once.
        let trace = Trace::record(&profiles::monarch(), 800, 3);
        let mut live = std::collections::HashSet::new();
        let (mut allocs, mut frees) = (0, 0);
        for ev in &trace.events {
            match *ev {
                TraceEvent::Alloc { id, .. } => {
                    assert!(live.insert(id), "allocation reuses live id {id}");
                    allocs += 1;
                }
                TraceEvent::Free { id, .. } => {
                    assert!(live.remove(&id), "free of id {id}, which is not live");
                    frees += 1;
                }
                TraceEvent::Advance { .. } => {}
            }
        }
        assert!(live.is_empty(), "leaked ids {live:?}");
        assert_eq!((allocs, frees), (800, 800));
    }

    #[test]
    fn text_round_trip() {
        let trace = Trace::record(&profiles::redis(), 300, 5);
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).expect("round trip");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.name, "redis");
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = Trace::from_text("a 0 64 0 0\nbogus line\n").expect_err("bogus line");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));

        // One past u32::MAX in a 32-bit field is an error, not cpu 0.
        for (text, line, reason) in [
            ("a 0 64 0 4294967296\n", 1, "bad cpu: "),
            ("a 0 64 4294967296 0\n", 1, "bad site: "),
            ("a 0 64 0 0\nf 0 4294967296\n", 2, "bad cpu: "),
            ("a 0 64 0 18446744073709551616\n", 1, "bad cpu: "),
        ] {
            let err = Trace::from_text(text).expect_err(text);
            assert_eq!(err.line, line, "{text:?}");
            assert!(err.reason.starts_with(reason), "{text:?}: {}", err.reason);
        }
        // The largest ids still parse, exactly.
        let max = Trace::from_text("a 0 64 4294967295 4294967295\nf 0 4294967295\n").unwrap();
        assert_eq!(
            *max.events.iter().next().unwrap(),
            TraceEvent::Alloc {
                id: 0,
                size: 64,
                site: u32::MAX,
                cpu: u32::MAX
            }
        );
    }

    #[test]
    fn replay_survives_the_largest_cpu_id() {
        // A parsed `cpu 4294967295` must cost one registry entry, not a
        // table indexed by CPU id. (Baseline config: the NUCA-aware
        // transfer cache rejects CPUs the platform does not have.)
        let trace = Trace::from_text("a 0 64 0 4294967295\nt 1000\nf 0 4294967295\n").unwrap();
        let clock = Clock::new();
        let mut tcm = Tcmalloc::new(
            TcmallocConfig::baseline(),
            Platform::chiplet("t", 1, 2, 4, 2),
            clock.clone(),
        );
        let stats = trace.replay(&mut tcm, &clock);
        assert_eq!((stats.allocs, stats.frees), (1, 1));
        assert_eq!(tcm.live_bytes(), 0);
    }

    #[test]
    fn replay_leaves_clean_heap() {
        let trace = Trace::record(&profiles::fleet_mix(), 1_000, 11);
        let clock = Clock::new();
        let mut tcm = Tcmalloc::new(
            TcmallocConfig::optimized(),
            Platform::chiplet("t", 1, 2, 4, 2),
            clock.clone(),
        );
        let stats = trace.replay(&mut tcm, &clock);
        assert_eq!(stats.allocs, stats.frees);
        assert_eq!(tcm.live_bytes(), 0);
        assert!(stats.peak_resident_bytes > 0);
    }

    #[test]
    fn same_trace_compares_configs_fairly() {
        // The point of traces: identical op streams under two configs.
        let trace = Trace::record(&profiles::disk(), 1_500, 13);
        let run = |cfg| {
            let clock = Clock::new();
            let mut tcm = Tcmalloc::new(cfg, Platform::chiplet("t", 1, 2, 4, 2), clock.clone());
            trace.replay(&mut tcm, &clock)
        };
        let a = run(TcmallocConfig::baseline());
        let b = run(TcmallocConfig::baseline());
        assert_eq!(a, b, "same trace + same config = same stats");
        let c = run(TcmallocConfig::optimized());
        assert_eq!(a.allocs, c.allocs);
    }

    /// The map-keyed replay the slot table replaced, kept as the reference
    /// model: same calls into the allocator, same panics, ids hashed.
    fn replay_reference(trace: &Trace, tcm: &mut Tcmalloc, clock: &Clock) -> ReplayStats {
        let mut stats = ReplayStats::default();
        // lint:allow(hashmap-decl) the retired body as it was; never iterated
        let mut live: IntMap<u64, (u64, u64)> = IntMap::default();
        for ev in &trace.events {
            match *ev {
                TraceEvent::Alloc {
                    id,
                    size,
                    site,
                    cpu,
                } => {
                    let out = tcm.malloc_with_site(size, CpuId(cpu), site as u64);
                    let prev = live.insert(id, (out.addr, size));
                    assert!(prev.is_none(), "trace reuses live id {id}");
                    stats.allocs += 1;
                    stats.malloc_ns += out.ns;
                }
                TraceEvent::Free { id, cpu } => {
                    let (addr, size) = live
                        .remove(&id)
                        .unwrap_or_else(|| panic!("trace frees unknown id {id}"));
                    let out = tcm.free(addr, size, CpuId(cpu));
                    stats.frees += 1;
                    stats.malloc_ns += out.ns;
                }
                TraceEvent::Advance { ns } => {
                    clock.advance(ns);
                    tcm.maintain();
                }
            }
            stats.peak_resident_bytes = stats.peak_resident_bytes.max(tcm.resident_bytes());
        }
        stats
    }

    /// Replays `trace` through the slot table and through the reference on
    /// fresh allocators under both configurations; everything observable
    /// must be equal, `malloc_ns` to the bit.
    fn assert_replays_like_the_reference(trace: &Trace) {
        type Replay = fn(&Trace, &mut Tcmalloc, &Clock) -> ReplayStats;
        for cfg in [TcmallocConfig::baseline(), TcmallocConfig::optimized()] {
            let run = |replay: Replay| {
                let clock = Clock::new();
                let mut tcm = Tcmalloc::new(cfg, Platform::chiplet("t", 1, 2, 4, 2), clock.clone());
                let stats = replay(trace, &mut tcm, &clock);
                (stats, stats.malloc_ns.to_bits(), tcm)
            };
            let (stats, ns_bits, tcm) = run(Trace::replay);
            let (ref_stats, ref_ns_bits, ref_tcm) = run(replay_reference);
            let what = &trace.name;
            assert_eq!(stats, ref_stats, "{what}");
            assert_eq!(ns_bits, ref_ns_bits, "{what}");
            assert_eq!(tcm.cycles(), ref_tcm.cycles(), "{what}");
            assert_eq!(tcm.resident_bytes(), ref_tcm.resident_bytes(), "{what}");
            assert_eq!(tcm.fragmentation(), ref_tcm.fragmentation(), "{what}");
            assert_eq!(tcm.live_objects(), ref_tcm.live_objects(), "{what}");
        }
    }

    #[test]
    fn recorded_traces_replay_like_the_reference() {
        for spec in [
            profiles::fleet_mix(),
            profiles::monarch(),
            profiles::spanner(),
            profiles::redis(),
        ] {
            for seed in [7, 1042] {
                assert_replays_like_the_reference(&Trace::record(&spec, 4_000, seed));
            }
        }
    }

    /// What `record` never writes: ids in descending order, an id freed and
    /// then reused, ids on both sides of the dense bound (`len - 1` is the
    /// last slot, `len`, 2³⁰ and `u64::MAX` spill) interleaved with dense
    /// ones, and events too wide for a record (those ids, a 4 GiB size, a
    /// site of 2¹⁶) among packed ones.
    fn hand_built_trace() -> Trace {
        const LEN: u64 = 24;
        let a = |id| TraceEvent::Alloc {
            id,
            size: 48 + id % 7 * 100,
            site: 3,
            cpu: (id % 16) as u32,
        };
        let f = |id| TraceEvent::Free {
            id,
            cpu: (id % 5) as u32,
        };
        let events = vec![
            a(5),
            a(4),
            a(3),
            a(u64::MAX),
            a(LEN),
            a(LEN - 1),
            TraceEvent::Advance { ns: 1_000 },
            f(4),
            a(4),
            f(u64::MAX),
            a(u64::MAX),
            a(1 << 30),
            TraceEvent::Alloc {
                id: 2,
                size: 1 << 32,
                site: 1 << 16,
                cpu: 7,
            },
            f(LEN),
            a(0),
            TraceEvent::Advance { ns: 5 << 32 },
            f(5),
            f(2),
            f(3),
            f(4),
            f(1 << 30),
            f(LEN - 1),
            f(u64::MAX),
            f(0),
        ];
        assert_eq!(events.len() as u64, LEN);
        Trace {
            name: "hand-built".into(),
            events: events.into_iter().collect(),
        }
    }

    #[test]
    fn sparse_and_reused_ids_replay_like_the_reference() {
        let trace = hand_built_trace();
        assert_replays_like_the_reference(&trace);
        assert_eq!(trace.check(&Platform::chiplet("t", 1, 2, 4, 2)), Ok(()));
    }

    #[test]
    fn the_table_is_bounded_by_the_largest_id_and_by_the_trace() {
        // A recorded trace's table is as long as its largest `Alloc` id; a
        // hand-written one's never longer than the trace, so (like
        // `replay_survives_the_largest_cpu_id`) the largest id costs one
        // entry.
        let bound =
            |text: &str| LiveTable::for_events(&Trace::from_text(text).unwrap().events).bound;
        assert_eq!(bound("a 2 64 0 0\nt 5\nt 5\nt 5\nf 2 0\n"), 3);
        assert_eq!(bound("a 1073741823 64 0 0\nt 5\n"), 2);
        assert_eq!(bound("a 18446744073709551615 64 0 0\nt 5\n"), 0);
        assert_eq!(bound("f 9 0\nt 5\n"), 0, "only allocations count");

        // Ids at the bound never lengthen the table.
        let mut live = LiveTable::with_bound(3);
        for id in [u64::MAX, 3, 1] {
            assert!(live.insert(id, 0x1000 + id % 7, 8));
        }
        assert_eq!((live.dense.len(), live.spill.len()), (2, 2));
        assert!(live.dense.capacity() >= 3 && live.dense.capacity() < 1 << 10);
        assert_eq!(live.take(u64::MAX), Some((0x1000 + u64::MAX % 7, 8)));
        assert_eq!(live.take(u64::MAX), None);
        assert_eq!(live.take(1), Some((0x1001, 8)));
        assert_eq!(live.take(1), None);
        assert_eq!(live.take(0), None, "slot exists, never allocated");
        assert_eq!(live.take(2), None, "below the bound, beyond the table");
    }

    fn replay_text(text: &str) {
        let trace = Trace::from_text(text).unwrap();
        let clock = Clock::new();
        let mut tcm = Tcmalloc::new(
            TcmallocConfig::baseline(),
            Platform::chiplet("t", 1, 2, 4, 2),
            clock.clone(),
        );
        trace.replay(&mut tcm, &clock);
    }

    #[test]
    #[should_panic(expected = "trace reuses live id 1")]
    fn replay_panics_on_a_live_id_reused_below_the_bound() {
        replay_text("a 1 64 0 0\na 1 64 0 0\n");
    }

    #[test]
    #[should_panic(expected = "trace reuses live id 18446744073709551615")]
    fn replay_panics_on_a_live_id_reused_beyond_the_bound() {
        replay_text("a 18446744073709551615 64 0 0\na 18446744073709551615 64 0 0\n");
    }

    #[test]
    #[should_panic(expected = "trace frees unknown id 1")]
    fn replay_panics_on_an_unknown_id_below_the_bound() {
        replay_text("a 0 64 0 0\nf 1 0\n");
    }

    #[test]
    #[should_panic(expected = "trace frees unknown id 2")]
    fn replay_panics_on_an_unknown_id_beyond_the_bound() {
        replay_text("a 0 64 0 0\nf 2 0\n");
    }

    #[test]
    fn check_names_the_first_bad_event() {
        let platform = Platform::chiplet("t", 1, 2, 4, 2);
        for (text, event, reason) in [
            ("a 0 64 0 1\nf 5 1\n", 1, "frees unknown id 5"),
            ("a 1 64 0 1\nf 0 1\n", 1, "frees unknown id 0"),
            ("a 0 64 0 1\nt 5\nf 0 1\nf 0 1\n", 3, "frees unknown id 0"),
            ("a 0 64 0 1\nf 9 1\n", 1, "frees unknown id 9"),
            ("a 0 64 0 1\nt 5\na 0 64 0 1\n", 2, "reuses live id 0"),
            ("t 5\na 7 64 0 1\na 7 64 0 1\n", 2, "reuses live id 7"),
            ("a 0 64 0 16\n", 0, "cpu 16 out of range: platform t has 16"),
            ("a 0 64 0 4000000000\n", 0, "cpu 4000000000 out of range"),
            ("a 0 64 0 15\nf 0 16\n", 1, "cpu 16 out of range"),
            (
                "t 18446744073709551615\nt 0\nt 1\n",
                2,
                "advancing 1 ns from 18446744073709551615 ns overflows the clock",
            ),
        ] {
            let err = Trace::from_text(text)
                .unwrap()
                .check(&platform)
                .expect_err(text);
            assert_eq!(err.event, event, "{text:?}");
            assert!(err.reason.starts_with(reason), "{text:?}: {}", err.reason);
            assert!(err
                .to_string()
                .contains(&format!("event {event}: {reason}")));
        }
        // Well-formed: recorded traces, and a leak, which is not a trace bug.
        assert_eq!(
            Trace::record(&profiles::fleet_mix(), 2_000, 9).check(&platform),
            Ok(())
        );
        let leak = Trace::from_text("a 0 64 0 15\n").unwrap();
        assert_eq!(leak.check(&platform), Ok(()));
    }
}
