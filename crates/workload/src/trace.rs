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

use crate::due::DueQueue;
use crate::spec::WorkloadSpec;
use std::fmt;
use std::str::FromStr;
use wsc_prng::{IntMap, SmallRng};
use wsc_sim_hw::topology::CpuId;
use wsc_sim_os::clock::Clock;
use wsc_tcmalloc::Tcmalloc;

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
    pub events: Vec<TraceEvent>,
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

impl Trace {
    /// Records a trace of `events_target` allocation events from a workload
    /// model. Lifetimes become explicit `Free` events interleaved at the
    /// right simulated times; program-long objects are freed at the end.
    pub fn record(spec: &WorkloadSpec, events_target: u64, seed: u64) -> Trace {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut pending: DueQueue<u64> = DueQueue::default();
        let mut forever: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let interarrival =
            (1e9 / spec.request_rate_hz.max(1.0) / spec.allocs_per_request.max(0.1)) as u64;
        for id in 0..events_target {
            now += interarrival.max(1);
            events.push(TraceEvent::Advance {
                ns: interarrival.max(1),
            });
            // Emit due frees first.
            while let Some((_, fid)) = pending.pop_due(now) {
                events.push(TraceEvent::Free {
                    id: fid,
                    cpu: rng.gen_range(0u32..16),
                });
            }
            let (size, site) = spec.sample_size(now, &mut rng);
            let cpu = rng.gen_range(0u32..16);
            events.push(TraceEvent::Alloc {
                id,
                size,
                site: site as u32,
                cpu,
            });
            match spec.sample_lifetime(size, site, &mut rng) {
                Some(lt) => pending.push(now + lt, id),
                None => forever.push(id),
            }
        }
        // Teardown: everything still live is freed in allocation order.
        let mut rest = forever;
        while let Some((_, id)) = pending.pop_due(u64::MAX) {
            rest.push(id);
        }
        rest.sort_unstable();
        for id in rest {
            events.push(TraceEvent::Free {
                id,
                cpu: rng.gen_range(0u32..16),
            });
        }
        Trace {
            name: spec.name.clone(),
            events,
        }
    }

    /// Replays the trace against an allocator.
    ///
    /// # Panics
    ///
    /// Panics on malformed traces (free of unknown/duplicate id) — those are
    /// trace bugs, not allocator bugs.
    pub fn replay(&self, tcm: &mut Tcmalloc, clock: &Clock) -> ReplayStats {
        let mut stats = ReplayStats::default();
        // lint:allow(hashmap-decl) keyed by trace object id; never iterated
        let mut live: IntMap<u64, (u64, u64)> = IntMap::default();
        for ev in &self.events {
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

    /// Serializes to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = format!("# wsc-trace v1 {}\n", self.name);
        for ev in &self.events {
            out.push_str(&ev.to_string());
            out.push('\n');
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
        let mut events = Vec::new();
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
        // Holds the due-queue's `(deadline, id)` pop order at this call
        // site: captured from the commit that still popped a `BinaryHeap`.
        let trace = Trace::record(&profiles::fleet_mix(), 20_000, 42);
        assert_eq!(trace.events.len(), 60_000);
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for ev in &trace.events[..10_000] {
            for b in ev.to_string().bytes().chain([b'\n']) {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(fnv, 0x711d_5a5a_2007_a8d7);
    }

    #[test]
    fn every_alloc_is_freed_exactly_once() {
        let trace = Trace::record(&profiles::monarch(), 800, 3);
        let mut allocs = std::collections::HashSet::new();
        let mut frees = std::collections::HashSet::new();
        for ev in &trace.events {
            match *ev {
                TraceEvent::Alloc { id, .. } => assert!(allocs.insert(id)),
                TraceEvent::Free { id, .. } => {
                    assert!(allocs.contains(&id), "free before alloc");
                    assert!(frees.insert(id), "double free in trace");
                }
                TraceEvent::Advance { .. } => {}
            }
        }
        assert_eq!(allocs, frees, "leaked ids");
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
            max.events[0],
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
}
