//! Longitudinal rollout estimation (§4.5).
//!
//! The four designs "have been gradually rolled out to our fleet over a
//! two-year period", so the paper estimates their aggregate impact by
//! combining each design's relative improvement. [`combine`] implements
//! that composition: relative deltas compose multiplicatively.
//!
//! [`RolloutSchedule`] models the *mechanics* of that gradual rollout: a
//! staged wave plan (canary → 1% → 10% → 50% → 100%) where each machine's
//! enrollment wave is a deterministic hash of its identity, so wave
//! membership is monotone — a machine enrolled at 10% stays enrolled at
//! 50% and 100%.

use crate::experiment::Comparison;
use wsc_prng::derive_seed;

/// The aggregate effect of a sequence of independently-measured changes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RolloutEstimate {
    /// Combined throughput change, %.
    pub throughput_pct: f64,
    /// Combined memory change, %.
    pub memory_pct: f64,
    /// Combined CPI change, %.
    pub cpi_pct: f64,
}

/// Composes per-design A/B deltas into a single rollout estimate, the way
/// §4.5 aggregates the four redesigns (1.4% throughput, −3.5% memory).
pub fn combine<'a, I: IntoIterator<Item = &'a Comparison>>(deltas: I) -> RolloutEstimate {
    let mut throughput = 1.0;
    let mut memory = 1.0;
    let mut cpi = 1.0;
    for d in deltas {
        throughput *= 1.0 + d.throughput_pct() / 100.0;
        memory *= 1.0 + d.memory_pct() / 100.0;
        cpi *= 1.0 + d.cpi_pct() / 100.0;
    }
    RolloutEstimate {
        throughput_pct: (throughput - 1.0) * 100.0,
        memory_pct: (memory - 1.0) * 100.0,
        cpi_pct: (cpi - 1.0) * 100.0,
    }
}

/// One wave of a staged rollout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RolloutStage {
    /// Human label ("canary", "10%", ...).
    pub name: &'static str,
    /// Fraction of the fleet enrolled once this wave lands, in `[0, 1]`.
    pub fraction: f64,
}

/// A staged rollout plan: monotone fleet fractions, deterministic
/// per-machine enrollment.
///
/// Enrollment draws a unit-interval value from a hash of
/// `(schedule seed, machine id)`; a machine is enrolled in wave `w` iff
/// its draw falls below `stages[w].fraction`. Because the draw is fixed
/// per machine and fractions are non-decreasing, enrollment never churns:
/// later waves strictly grow the enrolled set.
#[derive(Clone, Debug)]
pub struct RolloutSchedule {
    /// The wave plan, fractions non-decreasing.
    stages: Vec<RolloutStage>,
    /// Seed namespacing the per-machine enrollment hash.
    seed: u64,
}

impl RolloutSchedule {
    /// The paper's gradual-rollout shape: canary 1% → 10% → 50% → 100%.
    pub fn staged(seed: u64) -> Self {
        Self {
            stages: vec![
                RolloutStage {
                    name: "canary",
                    fraction: 0.01,
                },
                RolloutStage {
                    name: "10%",
                    fraction: 0.10,
                },
                RolloutStage {
                    name: "50%",
                    fraction: 0.50,
                },
                RolloutStage {
                    name: "100%",
                    fraction: 1.0,
                },
            ],
            seed,
        }
    }

    /// The machine's fixed unit-interval enrollment draw.
    fn draw(&self, machine: u64) -> f64 {
        // 53 mantissa bits of the derived seed → uniform in [0, 1).
        (derive_seed(self.seed, machine) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Is `machine` enrolled once wave `stage` has landed?
    pub fn enrolled(&self, stage: usize, machine: u64) -> bool {
        let fraction = self.stages.get(stage).map_or(1.0, |s| s.fraction);
        self.draw(machine) < fraction
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::experiment::MetricSet;

    /// The first wave that enrolls `machine`.
    fn wave_of(sched: &RolloutSchedule, machine: u64) -> Option<usize> {
        (0..sched.stages.len()).find(|&w| sched.enrolled(w, machine))
    }

    fn delta(throughput: f64, memory: f64) -> Comparison {
        Comparison {
            control: MetricSet {
                throughput: 100.0,
                memory_bytes: 100.0,
                cpi: 1.0,
                ..MetricSet::default()
            },
            experiment: MetricSet {
                throughput: 100.0 * (1.0 + throughput / 100.0),
                memory_bytes: 100.0 * (1.0 + memory / 100.0),
                cpi: 1.0,
                ..MetricSet::default()
            },
        }
    }

    #[test]
    fn empty_composition_is_identity() {
        let e = combine([]);
        assert_eq!(e.throughput_pct, 0.0);
        assert_eq!(e.memory_pct, 0.0);
    }

    #[test]
    fn composes_multiplicatively() {
        let d1 = delta(1.0, -2.0);
        let d2 = delta(0.5, -1.5);
        let e = combine([&d1, &d2]);
        assert!((e.throughput_pct - 1.505).abs() < 1e-9);
        assert!((e.memory_pct - (0.98f64 * 0.985 - 1.0) * 100.0).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_composition() {
        // Four small wins in the paper's ballpark compose to ≈ the §4.5
        // aggregate (1.4% throughput / −3.4% RAM).
        let deltas = [
            delta(0.0, -1.94),  // heterogeneous per-CPU caches (Fig. 10)
            delta(0.32, 0.10),  // NUCA transfer cache (Table 1)
            delta(0.0, -1.41),  // span prioritization (Fig. 14)
            delta(1.02, -0.82), // lifetime-aware filler (Table 2)
        ];
        let e = combine(deltas.iter());
        assert!((e.throughput_pct - 1.34).abs() < 0.05, "{e:?}");
        assert!((e.memory_pct + 4.03).abs() < 0.1, "{e:?}");
    }

    #[test]
    fn staged_waves_enroll_monotone_fractions() {
        let sched = RolloutSchedule::staged(7);
        let machines = 20_000u64;
        let mut prev = 0usize;
        for (w, stage) in sched.stages.iter().enumerate() {
            let enrolled = (0..machines).filter(|&m| sched.enrolled(w, m)).count();
            assert!(enrolled >= prev, "wave {w} shrank the enrolled set");
            let frac = enrolled as f64 / machines as f64;
            assert!(
                (frac - stage.fraction).abs() < 0.01,
                "wave {w} ({}) enrolled {frac}, want {}",
                stage.name,
                stage.fraction
            );
            prev = enrolled;
        }
        assert_eq!(prev, machines as usize, "final wave covers the fleet");
    }

    #[test]
    fn enrollment_never_churns() {
        let sched = RolloutSchedule::staged(11);
        for m in 0..5_000u64 {
            let first = wave_of(&sched, m).unwrap();
            for w in 0..sched.stages.len() {
                assert_eq!(sched.enrolled(w, m), w >= first, "machine {m} wave {w}");
            }
        }
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let a = RolloutSchedule::staged(3);
        let b = RolloutSchedule::staged(3);
        let c = RolloutSchedule::staged(4);
        let waves_a: Vec<_> = (0..100).map(|m| wave_of(&a, m)).collect();
        let waves_b: Vec<_> = (0..100).map(|m| wave_of(&b, m)).collect();
        let waves_c: Vec<_> = (0..100).map(|m| wave_of(&c, m)).collect();
        assert_eq!(waves_a, waves_b);
        assert_ne!(waves_a, waves_c, "different seeds give different canaries");
    }
}
