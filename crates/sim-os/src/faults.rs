//! Deterministic OS fault injection: the kernel that *doesn't* cooperate.
//!
//! The paper's warehouse-scale behaviour (§2, §5) only emerges when the
//! kernel misbehaves: `mmap` returns `ENOMEM` on machines running at their
//! memory limit, THP compaction fails and a mapping comes back backed by
//! base pages (collapsing the hugepage-coverage telemetry of Figure 17a),
//! `madvise(DONTNEED)` stalls or fails under reclaim pressure, and any
//! syscall can take a latency excursion. [`FaultPlan`] describes such a
//! regime as pure data — integer per-million rates plus an optional storm
//! window in simulated nanoseconds — and [`FaultInjector`] draws every
//! decision from a dedicated seeded [`SmallRng`], so a plan is bit-identical
//! across `--threads N` and across reruns.
//!
//! Rates are integers (parts per million) rather than `f64` so plans stay
//! `Copy + Eq` (they ride inside `TcmallocConfig`) and so the same plan can
//! never dither across platforms.

use crate::clock::Clock;
use wsc_prng::SmallRng;

/// One million: the denominator of every [`FaultPlan`] rate.
pub const PPM: u32 = 1_000_000;

/// Structured errors from the simulated kernel. These replace panics on
/// every OS-reachable failure path: callers degrade gracefully instead of
/// crashing the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsError {
    /// `mmap` denied: the machine is out of memory.
    Enomem,
    /// `madvise(DONTNEED)` failed (EAGAIN under compaction/reclaim).
    SubreleaseFailed,
    /// An operation named a hugepage the kernel has no mapping for (EINVAL).
    /// Carries the offending hugepage index.
    UnmappedRange(u64),
}

impl OsError {
    /// Short stable name for telemetry and event payloads.
    pub fn name(self) -> &'static str {
        match self {
            OsError::Enomem => "ENOMEM",
            OsError::SubreleaseFailed => "EAGAIN",
            OsError::UnmappedRange(_) => "EINVAL",
        }
    }
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::Enomem => write!(f, "mmap denied: out of memory (ENOMEM)"),
            OsError::SubreleaseFailed => write!(f, "madvise(DONTNEED) failed (EAGAIN)"),
            OsError::UnmappedRange(hp) => write!(f, "operation on unmapped hugepage {hp} (EINVAL)"),
        }
    }
}

/// A declarative, deterministic fault regime. All rates are in parts per
/// million of the corresponding syscalls; `storm` restricts injection to a
/// half-open simulated-time window (`None` = always active).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG stream.
    pub seed: u64,
    /// Rate at which `mmap` fails outright with [`OsError::Enomem`].
    pub enomem_ppm: u32,
    /// Rate at which `mmap` succeeds but THP compaction fails: the mapping
    /// comes back 4 KiB-backed instead of hugepage-backed.
    pub deny_huge_ppm: u32,
    /// Rate at which subrelease fails with [`OsError::SubreleaseFailed`].
    pub subrelease_fail_ppm: u32,
    /// Rate at which an otherwise-successful syscall takes a latency spike.
    pub latency_spike_ppm: u32,
    /// Size of an injected latency spike, nanoseconds.
    pub latency_spike_ns: u64,
    /// Half-open `[start_ns, end_ns)` window of simulated time during which
    /// faults are injected. `None` = the whole run.
    pub storm: Option<(u64, u64)>,
    /// Rate at which a khugepaged-style collapse attempt on a 4 KiB-backed
    /// region fails (re-promotion pressure; drawn once per attempt).
    pub collapse_fail_ppm: u32,
}

impl FaultPlan {
    /// A plan that injects nothing. A [`FaultInjector`] driven by it draws
    /// no randomness at all, so behaviour is byte-identical to having no
    /// injector attached.
    pub const fn off() -> Self {
        Self {
            seed: 0,
            enomem_ppm: 0,
            deny_huge_ppm: 0,
            subrelease_fail_ppm: 0,
            latency_spike_ppm: 0,
            latency_spike_ns: 0,
            storm: None,
            collapse_fail_ppm: 0,
        }
    }

    /// Restricts injection to the simulated-time window `[start_ns, end_ns)`.
    pub fn with_storm(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.storm = Some((start_ns, end_ns));
        self
    }

    /// Sets the injector seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The named storm catalog used by `repro` and the docs: each is a
    /// recognizable production incident.
    pub const NAMED: [&'static str; 4] = [
        "enomem-storm",
        "thp-outage",
        "subrelease-flaky",
        "latency-spikes",
    ];

    /// Looks up a named fault regime. Rates are chosen so quick-scale runs
    /// visibly degrade yet survive:
    ///
    /// * `enomem-storm` — 1% of `mmap`s fail with ENOMEM,
    /// * `thp-outage` — 50% of mappings come back 4 KiB-backed and half of
    ///   collapse attempts fail (hugepage coverage craters, then recovers),
    /// * `subrelease-flaky` — 20% of `madvise(DONTNEED)` calls fail,
    /// * `latency-spikes` — 1% of syscalls take a 100 µs excursion.
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        let base = Self::off().with_seed(seed);
        match name {
            "enomem-storm" => Some(Self {
                enomem_ppm: 10_000,
                ..base
            }),
            "thp-outage" => Some(Self {
                deny_huge_ppm: 500_000,
                collapse_fail_ppm: 500_000,
                ..base
            }),
            "subrelease-flaky" => Some(Self {
                subrelease_fail_ppm: 200_000,
                ..base
            }),
            "latency-spikes" => Some(Self {
                latency_spike_ppm: 10_000,
                latency_spike_ns: 100_000,
                ..base
            }),
            _ => None,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::off()
    }
}

/// Counters of injected faults, for telemetry and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `mmap`s denied with ENOMEM.
    pub enomem_injected: u64,
    /// `mmap`s granted without hugepage backing.
    pub huge_denied: u64,
    /// Subreleases failed.
    pub subrelease_failed: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// khugepaged collapse attempts failed.
    pub collapse_failed: u64,
}

/// The outcome of consulting the injector at an `mmap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmapDecision {
    /// Deny the call with [`OsError::Enomem`].
    pub deny: bool,
    /// Back the mapping with hugepages (false = THP compaction failed).
    pub huge_backed: bool,
    /// Extra injected latency, ns.
    pub latency_ns: u64,
}

/// The outcome of consulting the injector at a subrelease.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubreleaseDecision {
    /// Fail the call with [`OsError::SubreleaseFailed`].
    pub fail: bool,
    /// Extra injected latency, ns.
    pub latency_ns: u64,
}

/// Draws fault decisions for one simulated process from a private seeded
/// RNG stream. Decisions depend only on the plan, the seed, and the *order*
/// of OS calls — which the deterministic simulation fixes — so a faulted
/// run is exactly reproducible at any engine thread count.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
    clock: Clock,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `plan`, judging storm windows against
    /// `clock` (the simulation clock, so windows are deterministic too).
    pub fn new(plan: FaultPlan, clock: Clock) -> Self {
        Self {
            plan,
            rng: SmallRng::seed_from_u64(plan.seed),
            clock,
            stats: FaultStats::default(),
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Is the plan active right now (inside the storm window, if any)?
    pub fn active(&self) -> bool {
        match self.plan.storm {
            None => true,
            Some((start, end)) => {
                let now = self.clock.now_ns();
                now >= start && now < end
            }
        }
    }

    /// One Bernoulli draw at `ppm` parts per million. Zero-rate draws
    /// consume no randomness, so an all-zero plan is behaviour-identical
    /// to no plan at all.
    fn draw(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.gen_range(0..PPM) < ppm
    }

    /// Consults the plan at an `mmap` call.
    pub fn on_mmap(&mut self) -> MmapDecision {
        if !self.active() {
            return MmapDecision {
                deny: false,
                huge_backed: true,
                latency_ns: 0,
            };
        }
        if self.draw(self.plan.enomem_ppm) {
            self.stats.enomem_injected += 1;
            return MmapDecision {
                deny: true,
                huge_backed: false,
                latency_ns: 0,
            };
        }
        let huge_backed = if self.draw(self.plan.deny_huge_ppm) {
            self.stats.huge_denied += 1;
            false
        } else {
            true
        };
        MmapDecision {
            deny: false,
            huge_backed,
            latency_ns: self.spike(),
        }
    }

    /// Consults the plan at a subrelease call.
    pub fn on_subrelease(&mut self) -> SubreleaseDecision {
        if !self.active() {
            return SubreleaseDecision {
                fail: false,
                latency_ns: 0,
            };
        }
        if self.draw(self.plan.subrelease_fail_ppm) {
            self.stats.subrelease_failed += 1;
            return SubreleaseDecision {
                fail: true,
                latency_ns: 0,
            };
        }
        SubreleaseDecision {
            fail: false,
            latency_ns: self.spike(),
        }
    }

    /// Consults the plan at a khugepaged-style collapse attempt on a fully
    /// resident 4 KiB-backed region. Returns true if the collapse succeeds.
    pub fn on_collapse(&mut self) -> bool {
        if self.active() && self.draw(self.plan.collapse_fail_ppm) {
            self.stats.collapse_failed += 1;
            false
        } else {
            true
        }
    }

    fn spike(&mut self) -> u64 {
        if self.draw(self.plan.latency_spike_ppm) {
            self.stats.latency_spikes += 1;
            self.plan.latency_spike_ns
        } else {
            0
        }
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn always_enomem() -> FaultPlan {
        FaultPlan {
            enomem_ppm: PPM,
            ..FaultPlan::off()
        }
    }

    #[test]
    fn off_plan_never_fires_and_draws_nothing() {
        let clock = Clock::new();
        let mut a = FaultInjector::new(FaultPlan::off(), clock.clone());
        let mut probe = FaultInjector::new(
            FaultPlan {
                seed: 0,
                enomem_ppm: PPM,
                ..FaultPlan::off()
            },
            clock,
        );
        for _ in 0..100 {
            let d = a.on_mmap();
            assert!(!d.deny && d.huge_backed && d.latency_ns == 0);
            assert!(!a.on_subrelease().fail);
            assert!(a.on_collapse());
        }
        assert_eq!(a.stats(), FaultStats::default());
        // Same seed: the probe (rate = 1) fires on its very first draw,
        // proving the off plan consumed no randomness above.
        assert!(probe.on_mmap().deny);
    }

    #[test]
    fn full_rate_always_fires() {
        let mut inj = FaultInjector::new(always_enomem(), Clock::new());
        for _ in 0..50 {
            assert!(inj.on_mmap().deny);
        }
        assert_eq!(inj.stats().enomem_injected, 50);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan {
            seed: 42,
            enomem_ppm: 300_000,
            deny_huge_ppm: 300_000,
            subrelease_fail_ppm: 300_000,
            latency_spike_ppm: 300_000,
            latency_spike_ns: 1_000,
            ..FaultPlan::off()
        };
        let mut a = FaultInjector::new(plan, Clock::new());
        let mut b = FaultInjector::new(plan, Clock::new());
        for i in 0..500 {
            match i % 3 {
                0 => assert_eq!(a.on_mmap(), b.on_mmap()),
                1 => assert_eq!(a.on_subrelease(), b.on_subrelease()),
                _ => assert_eq!(a.on_collapse(), b.on_collapse()),
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn storm_window_gates_injection() {
        let clock = Clock::new();
        let plan = always_enomem().with_storm(1_000, 2_000);
        let mut inj = FaultInjector::new(plan, clock.clone());
        assert!(!inj.on_mmap().deny, "before the storm");
        clock.advance(1_000);
        assert!(inj.on_mmap().deny, "inside the storm");
        clock.advance(1_000);
        assert!(!inj.on_mmap().deny, "after the storm (half-open window)");
        assert_eq!(inj.stats().enomem_injected, 1);
    }

    #[test]
    fn deny_huge_grants_base_pages() {
        let plan = FaultPlan {
            deny_huge_ppm: PPM,
            ..FaultPlan::off()
        };
        let mut inj = FaultInjector::new(plan, Clock::new());
        let d = inj.on_mmap();
        assert!(!d.deny, "the call itself succeeds");
        assert!(!d.huge_backed, "but THP compaction failed");
        assert_eq!(inj.stats().huge_denied, 1);
    }

    #[test]
    fn named_storms_resolve_and_unknown_does_not() {
        for name in FaultPlan::NAMED {
            let plan = FaultPlan::named(name, 7).unwrap();
            let rates = [
                plan.enomem_ppm,
                plan.deny_huge_ppm,
                plan.subrelease_fail_ppm,
                plan.latency_spike_ppm,
                plan.collapse_fail_ppm,
            ];
            assert!(rates.iter().any(|&r| r > 0), "{name} must inject something");
            assert_eq!(plan.seed, 7);
        }
        assert_eq!(FaultPlan::named("fine-weather", 7), None);
    }

    #[test]
    fn error_names_are_stable() {
        assert_eq!(OsError::Enomem.name(), "ENOMEM");
        assert_eq!(OsError::SubreleaseFailed.name(), "EAGAIN");
        assert_eq!(OsError::UnmappedRange(3).name(), "EINVAL");
        assert!(OsError::UnmappedRange(3).to_string().contains("3"));
    }
}
