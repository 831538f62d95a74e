//! Seeded interleaving schedules for cross-thread free testing.
//!
//! The simulation is single-threaded by construction (one `Tcmalloc` per
//! run, a simulated [`Clock`]), so "concurrency" here means *interleaving*:
//! which simulated CPU issues each operation, and in what order. This
//! module turns a seed into an explicit [`Schedule`] — a fully materialized
//! operation list — and [`replay`]s it against an allocator, producing a
//! [`ReplayOutcome`] that fingerprints the complete event stream.
//!
//! Because the schedule is data, not timing, every replay of the same
//! `(seed, config, platform)` triple is byte-identical — across processes,
//! thread counts of the experiment `wsc_parallel::Engine`, and free-arm
//! A/B comparisons. That is the property the cross-thread tests lean on:
//! replay twice and compare fingerprints, or replay the same schedule under
//! different [`FreeArm`](crate::config::FreeArm)s and compare final heaps.
//!
//! Two canonical schedule shapes mirror the workloads the paper's fleet
//! profiles surface:
//!
//! * [`Schedule::producer_consumer`] — a set of producer CPUs allocate,
//!   a disjoint set of consumer CPUs free: every free is remote once an
//!   ownership arm is active (the classic pipeline pattern).
//! * [`Schedule::thread_churn`] — every CPU allocates and frees at random:
//!   ownership migrates as spans refill, and a fraction of frees land on
//!   non-owner CPUs (the thread-migration pattern).

use crate::alloc::Tcmalloc;
use crate::config::TcmallocConfig;
use crate::events::TraceRing;
use crate::stats::CycleCategory;
use wsc_prng::SmallRng;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::Clock;

/// One step of an interleaving schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedOp {
    /// Allocate `size` bytes from simulated CPU `cpu`.
    Malloc {
        /// Issuing CPU (taken modulo the platform's CPU count at replay).
        cpu: u32,
        /// Request size in bytes.
        size: u64,
    },
    /// Free the `slot % live`-th live object from simulated CPU `cpu`.
    Free {
        /// Index into the live-object list (modulo its length).
        slot: u32,
        /// Issuing CPU — remote if it differs from the span owner.
        cpu: u32,
    },
    /// Advance the simulated clock by `ns` and run background maintenance
    /// (which includes the plunder-point deferred drain).
    Tick {
        /// Nanoseconds of simulated time to advance.
        ns: u64,
    },
    /// Explicit full-barrier drain of every deferred remote free.
    Drain,
}

/// A materialized interleaving: the seed it was derived from plus the
/// explicit operation list. Equality of schedules implies equality of
/// replays (given the same config and platform).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// The seed the schedule was derived from (for labelling/repro).
    pub seed: u64,
    /// The operations, in program order.
    pub ops: Vec<SchedOp>,
}

impl Schedule {
    /// Producer→consumer pipeline: `producers` allocate, `consumers` free.
    ///
    /// Under a deferred arm every free is a cross-thread free (consumers
    /// never own spans — they never take the central-refill path that
    /// claims ownership). Sizes stay in the small-class range so traffic
    /// exercises the per-CPU → deferred → central circuit. The schedule
    /// ends with a settling [`SchedOp::Tick`] and [`SchedOp::Drain`] so
    /// "no remote free left behind" is assertable.
    pub fn producer_consumer(seed: u64, producers: &[u32], consumers: &[u32], ops: usize) -> Self {
        assert!(!producers.is_empty() && !consumers.is_empty());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(ops + 2);
        let mut backlog = 0u64; // objects allocated but not yet freed
        for _ in 0..ops {
            // Keep a rolling backlog: mostly allocate until ~32 objects are
            // live, then mostly free — a steady producer/consumer pipeline.
            let want_alloc = backlog < 8 || (backlog < 48 && rng.gen_range(0u32..10) < 5);
            if want_alloc {
                let p = producers[rng.gen_range(0..producers.len())];
                out.push(SchedOp::Malloc {
                    cpu: p,
                    size: rng.gen_range(16u64..2048),
                });
                backlog += 1;
            } else {
                let c = consumers[rng.gen_range(0..consumers.len())];
                out.push(SchedOp::Free {
                    slot: rng.gen::<u32>(),
                    cpu: c,
                });
                backlog -= 1;
            }
            if rng.gen_range(0u32..32) == 0 {
                out.push(SchedOp::Tick {
                    ns: rng.gen_range(1_000_000u64..20_000_000),
                });
            }
        }
        out.push(SchedOp::Tick { ns: 100_000_000 });
        out.push(SchedOp::Drain);
        Self { seed, ops: out }
    }

    /// Thread churn: every CPU in `0..cpus` both allocates and frees at
    /// random, so span ownership migrates with each central refill and a
    /// fraction of frees are remote. Periodic ticks run the plunder drain;
    /// occasional explicit drains model owner CPUs catching up.
    pub fn thread_churn(seed: u64, cpus: u32, ops: usize) -> Self {
        assert!(cpus > 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(ops + 2);
        let mut backlog = 0u64;
        for _ in 0..ops {
            match rng.gen_range(0u32..10) {
                0..=4 => {
                    let size = match rng.gen_range(0u32..8) {
                        0..=5 => rng.gen_range(16u64..4096),
                        6 => rng.gen_range(4096u64..(64 << 10)),
                        _ => rng.gen_range(64u64 << 10..(512 << 10)),
                    };
                    out.push(SchedOp::Malloc {
                        cpu: rng.gen_range(0..cpus),
                        size,
                    });
                    backlog += 1;
                }
                5..=8 if backlog > 0 => {
                    out.push(SchedOp::Free {
                        slot: rng.gen::<u32>(),
                        cpu: rng.gen_range(0..cpus),
                    });
                    backlog -= 1;
                }
                5..=8 => {} // nothing live to free; skip
                _ => {
                    if rng.gen_range(0u32..4) == 0 {
                        out.push(SchedOp::Drain);
                    } else {
                        out.push(SchedOp::Tick {
                            ns: rng.gen_range(1_000_000u64..50_000_000),
                        });
                    }
                }
            }
        }
        out.push(SchedOp::Tick { ns: 100_000_000 });
        out.push(SchedOp::Drain);
        Self { seed, ops: out }
    }
}

/// Everything a replay observed, reduced to comparable values.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOutcome {
    /// FNV-1a fingerprint of the complete event stream as
    /// `(event_count, hash)`. Byte-identical replays agree exactly.
    pub fingerprint: (usize, u64),
    /// Live objects at end of schedule, per the allocator's accounting.
    pub live_objects: u64,
    /// Live bytes at end of schedule, per the allocator's accounting.
    pub live_bytes: u64,
    /// Sorted multiset of the requested sizes still live (the oracle view
    /// a free-arm A/B must agree on).
    pub live_sizes: Vec<u64>,
    /// Resident bytes at end of schedule.
    pub resident_bytes: u64,
    /// Remote frees queued through the deferred module.
    pub queued: u64,
    /// Remote frees drained back to their owners.
    pub drained: u64,
    /// Remote frees still parked (0 after the schedules' final drain).
    pub in_flight: u64,
    /// Simulated nanoseconds the ledger booked as cross-thread
    /// synchronisation ([`CycleCategory::Contention`]).
    pub contention_ns: f64,
    /// Simulated nanoseconds the ledger booked in total.
    pub total_ns: f64,
    /// Sanitizer reports accumulated plus a final explicit audit's
    /// findings (0 on a clean run; always 0 when the sanitizer is off).
    pub sanitizer_findings: usize,
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Replays `schedule` against a fresh allocator built from `cfg` on
/// `platform`, with an unbounded trace ring forced on (the fingerprint
/// covers the complete stream). Returns the observed [`ReplayOutcome`].
///
/// Replay is deterministic: the same `(cfg, platform, schedule)` triple
/// produces the same outcome, fingerprint included, on every call.
pub fn replay(cfg: TcmallocConfig, platform: Platform, schedule: &Schedule) -> ReplayOutcome {
    let sanitized = cfg.sanitize.is_on();
    let cpus = platform.num_cpus() as u32;
    let clock = Clock::new();
    let mut tcm = Tcmalloc::new(
        cfg.with_trace(TraceRing::UNBOUNDED),
        platform,
        clock.clone(),
    );
    let mut live: Vec<(u64, u64)> = Vec::new();
    for op in &schedule.ops {
        match *op {
            SchedOp::Malloc { cpu, size } => {
                let out = tcm.malloc(size, CpuId(cpu % cpus));
                live.push((out.addr, size));
            }
            SchedOp::Free { slot, cpu } => {
                if live.is_empty() {
                    continue;
                }
                let idx = slot as usize % live.len();
                let (addr, size) = live.swap_remove(idx);
                tcm.free(addr, size, CpuId(cpu % cpus));
            }
            SchedOp::Tick { ns } => {
                clock.advance(ns);
                tcm.maintain();
            }
            SchedOp::Drain => tcm.drain_deferred(),
        }
    }
    let mut live_sizes: Vec<u64> = live.iter().map(|&(_, s)| s).collect();
    live_sizes.sort_unstable();
    let sanitizer_findings = if sanitized {
        tcm.audit_now();
        tcm.take_sanitizer_reports().len()
    } else {
        0
    };
    let ring = tcm.trace().expect("trace ring configured");
    assert_eq!(ring.dropped(), 0, "the fingerprint covers the whole stream");
    let mut hash = FNV_OFFSET;
    let mut count = 0usize;
    for (_, e) in ring.entries() {
        for b in format!("{e:?}").bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        count += 1;
    }
    ReplayOutcome {
        fingerprint: (count, hash),
        live_objects: tcm.live_objects(),
        live_bytes: tcm.live_bytes(),
        live_sizes,
        resident_bytes: tcm.resident_bytes(),
        queued: tcm.deferred().queued_total(),
        drained: tcm.deferred().drained_total(),
        in_flight: tcm.deferred().in_flight(),
        contention_ns: tcm.cycles().ns(CycleCategory::Contention),
        total_ns: tcm.cycles().total_ns(),
        sanitizer_findings,
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::FreeArm;

    fn platform() -> Platform {
        Platform::chiplet("t", 2, 2, 4, 2)
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let a = Schedule::producer_consumer(7, &[0, 1], &[2, 3], 200);
        let b = Schedule::producer_consumer(7, &[0, 1], &[2, 3], 200);
        assert_eq!(a, b);
        assert_ne!(a, Schedule::producer_consumer(8, &[0, 1], &[2, 3], 200));
        let c = Schedule::thread_churn(7, 8, 200);
        assert_eq!(c, Schedule::thread_churn(7, 8, 200));
    }

    #[test]
    fn schedules_end_settled() {
        let s = Schedule::producer_consumer(3, &[0], &[1], 50);
        assert_eq!(s.ops.last(), Some(&SchedOp::Drain));
        let s = Schedule::thread_churn(3, 4, 50);
        assert_eq!(s.ops.last(), Some(&SchedOp::Drain));
    }

    #[test]
    fn replay_is_bit_identical() {
        let sched = Schedule::thread_churn(0x1E_AF, 8, 300);
        for arm in [FreeArm::OwnerOnly, FreeArm::AtomicList] {
            let cfg = TcmallocConfig::optimized().with_free_arm(arm);
            let a = replay(cfg, platform(), &sched);
            let b = replay(cfg, platform(), &sched);
            assert_eq!(a, b, "replay diverged under {arm:?}");
        }
    }

    #[test]
    fn producer_consumer_routes_remote_frees() {
        let sched = Schedule::producer_consumer(0xFEED, &[0, 1], &[4, 5], 400);
        let cfg = TcmallocConfig::optimized().with_free_arm(FreeArm::AtomicList);
        let out = replay(cfg, platform(), &sched);
        assert!(out.queued > 0, "pipeline frees must go remote");
        assert_eq!(out.in_flight, 0, "final drain must adopt everything");
        assert_eq!(out.queued, out.drained);
    }

    #[test]
    fn owner_only_never_defers() {
        let sched = Schedule::producer_consumer(0xFEED, &[0, 1], &[4, 5], 400);
        let out = replay(TcmallocConfig::optimized(), platform(), &sched);
        assert_eq!(out.queued, 0);
        assert_eq!(out.drained, 0);
    }
}
