//! Workload models: size distributions, size-conditional lifetimes, thread
//! dynamics, and request structure.
//!
//! The paper's evaluation depends on its workloads through four published
//! characteristics, each of which a [`WorkloadSpec`] parameterizes:
//!
//! * the allocated-object **size distribution** (Figure 7: <1 KiB objects
//!   are 98% of allocations but 28% of bytes; >8 KiB objects are 50% of
//!   bytes; >256 KiB large allocations are 22%),
//! * the **lifetime distribution conditional on size** (Figure 8: 46% of
//!   small objects live under 1 ms, large objects live long, and lifetimes
//!   are diverse *within* every size),
//! * **worker-thread dynamics** (Figure 9a: diurnal load plus spikes),
//! * **request structure** (allocations per request, compute per request,
//!   access density — §5 notes smaller objects have higher access density).

use wsc_prng::SmallRng;

/// A log-uniform range `[lo, hi]`, held as the two logarithms a draw
/// needs: they are constants of the distribution, computed where it is
/// built and not once per draw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogRange {
    ln_lo: f64,
    /// `ln hi − ln lo`.
    ln_span: f64,
}

impl LogRange {
    /// The range `[lo, hi]`; a bound of zero counts as one.
    pub fn new(lo: u64, hi: u64) -> Self {
        let (l, h) = ((lo.max(1) as f64).ln(), (hi.max(1) as f64).ln());
        Self {
            ln_lo: l,
            ln_span: h - l,
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> u64 {
        (self.ln_lo + rng.gen::<f64>() * self.ln_span).exp() as u64
    }
}

/// A size distribution component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeDist {
    /// Always the same size.
    Fixed(u64),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Smallest size.
        lo: u64,
        /// Largest size.
        hi: u64,
    },
    /// Log-uniform: covers decades evenly, matching the heavy-tailed shape
    /// of Figure 7. Built by [`SizeDist::log_uniform`].
    LogUniform(LogRange),
}

impl SizeDist {
    /// Log-uniform in `[lo, hi]`.
    pub fn log_uniform(lo: u64, hi: u64) -> Self {
        SizeDist::LogUniform(LogRange::new(lo, hi))
    }

    /// Draws a size.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match *self {
            SizeDist::Fixed(s) => s,
            SizeDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            SizeDist::LogUniform(range) => range.sample(rng),
        }
    }
}

/// A lifetime distribution component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LifeDist {
    /// Exponential with the given mean (bursty short-lived objects).
    Exp {
        /// Mean lifetime, ns.
        mean_ns: f64,
    },
    /// Log-uniform, ns. Built by [`LifeDist::log_uniform`].
    LogUniform(LogRange),
    /// Lives until process teardown (program-long).
    Forever,
}

impl LifeDist {
    /// Log-uniform in `[lo_ns, hi_ns]` ns.
    pub fn log_uniform(lo_ns: u64, hi_ns: u64) -> Self {
        LifeDist::LogUniform(LogRange::new(lo_ns, hi_ns))
    }

    /// Draws a lifetime in ns; `None` means program-long.
    pub fn sample(&self, rng: &mut SmallRng) -> Option<u64> {
        match *self {
            LifeDist::Exp { mean_ns } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                Some((-u.ln() * mean_ns) as u64)
            }
            LifeDist::LogUniform(range) => Some(range.sample(rng)),
            LifeDist::Forever => None,
        }
    }
}

/// A weighted mixture of lifetime components.
#[derive(Clone, Debug)]
pub struct LifetimeMix {
    components: Vec<(f64, LifeDist)>,
    total: f64,
}

impl LifetimeMix {
    /// Builds a mixture from `(weight, component)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty or total weight is not positive.
    pub fn new(components: Vec<(f64, LifeDist)>) -> Self {
        let total: f64 = components.iter().map(|&(w, _)| w).sum();
        assert!(
            !components.is_empty() && total > 0.0,
            "bad lifetime mixture"
        );
        Self { components, total }
    }

    /// Draws a lifetime; `None` means program-long.
    pub fn sample(&self, rng: &mut SmallRng) -> Option<u64> {
        let mut pick = rng.gen::<f64>() * self.total;
        for &(w, dist) in &self.components {
            pick -= w;
            if pick <= 0.0 {
                return dist.sample(rng);
            }
        }
        self.components.last().expect("non-empty").1.sample(rng)
    }
}

/// Size-bucketed lifetime model: mirrors the Figure 8 structure where the
/// lifetime mixture shifts with object size.
#[derive(Clone, Debug)]
pub struct LifetimeModel {
    /// `(max_size_exclusive, mixture)` in ascending size order; the last
    /// bucket catches everything.
    buckets: Vec<(u64, LifetimeMix)>,
}

impl LifetimeModel {
    /// Builds the model from ascending `(size_bound, mixture)` buckets.
    ///
    /// # Panics
    ///
    /// Panics if empty or bounds are not ascending.
    pub fn new(buckets: Vec<(u64, LifetimeMix)>) -> Self {
        assert!(!buckets.is_empty(), "need at least one bucket");
        assert!(
            buckets.windows(2).all(|w| w[0].0 < w[1].0),
            "bucket bounds must ascend"
        );
        Self { buckets }
    }

    /// Draws a lifetime for an object of `size` bytes.
    pub fn sample(&self, size: u64, rng: &mut SmallRng) -> Option<u64> {
        let mix = self
            .buckets
            .iter()
            .find(|&&(bound, _)| size < bound)
            .map_or(&self.buckets.last().expect("non-empty").1, |(_, m)| m);
        mix.sample(rng)
    }
}

/// Worker-thread dynamics (Figure 9a): diurnal sinusoid plus load spikes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThreadModel {
    /// Mean worker threads.
    pub base: f64,
    /// Diurnal amplitude as a fraction of `base` (0 = constant).
    pub amplitude: f64,
    /// Diurnal period, ns.
    pub period_ns: u64,
    /// Diurnal phase offset, ns. A fleet spans timezones: two machines
    /// running the same binary sit at different points of the load curve,
    /// so the fleet survey gives each machine its own offset.
    pub phase_ns: u64,
    /// Per-evaluation probability of a load spike.
    pub spike_prob: f64,
    /// Spike multiplier on the current level.
    pub spike_mult: f64,
    /// Hard cap (the cpuset size bounds it again downstream).
    pub max: usize,
}

impl ThreadModel {
    /// A constant single thread (Redis is single-threaded, §4.1/§4.2).
    pub fn single() -> Self {
        Self {
            base: 1.0,
            amplitude: 0.0,
            period_ns: 1,
            phase_ns: 0,
            spike_prob: 0.0,
            spike_mult: 1.0,
            max: 1,
        }
    }

    /// Thread count at simulated time `t_ns`.
    pub fn at(&self, t_ns: u64, rng: &mut SmallRng) -> usize {
        let shifted = t_ns.wrapping_add(self.phase_ns);
        let phase = (shifted % self.period_ns.max(1)) as f64 / self.period_ns.max(1) as f64
            * std::f64::consts::TAU;
        let mut level = self.base * (1.0 + self.amplitude * phase.sin());
        if rng.gen::<f64>() < self.spike_prob {
            level *= self.spike_mult;
        }
        (level.round() as usize).clamp(1, self.max.max(1))
    }
}

/// One component of a workload's allocation mixture: an allocation *site
/// family* with its own size distribution and (optionally) its own lifetime
/// mixture.
///
/// Lifetimes correlate strongly with allocation sites in real servers (the
/// premise of the profile-guided lifetime work the paper cites in §4.3/§5):
/// an RPC-scratch site is near-always short-lived while a cache-insert site
/// is near-always long-lived, even at the same object size. Components with
/// an explicit lifetime override model that correlation; others fall back to
/// the workload's size-conditional model.
#[derive(Clone, Debug)]
pub struct SizeComponent {
    /// Relative weight (share of allocations at time-average).
    pub weight: f64,
    /// Object-size distribution.
    pub dist: SizeDist,
    /// Site-specific lifetime mixture, if this site has one.
    pub lifetime: Option<LifetimeMix>,
}

impl SizeComponent {
    /// A component using the workload-level lifetime model.
    pub fn new(weight: f64, dist: SizeDist) -> Self {
        Self {
            weight,
            dist,
            lifetime: None,
        }
    }

    /// A component with a site-specific lifetime mixture.
    pub fn with_lifetime(weight: f64, dist: SizeDist, lifetime: LifetimeMix) -> Self {
        Self {
            weight,
            dist,
            lifetime: Some(lifetime),
        }
    }
}

/// A complete workload model.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Workload name (matches the paper's figures).
    pub name: String,
    /// Weighted allocation-site components.
    pub size_mix: Vec<SizeComponent>,
    /// Size-conditional lifetime model.
    pub lifetime: LifetimeModel,
    /// Worker-thread dynamics.
    pub threads: ThreadModel,
    /// Mean allocations per request.
    pub allocs_per_request: f64,
    /// Instructions of application work per request (excluding stalls).
    pub instr_per_request: u64,
    /// Times each freshly-allocated object is accessed.
    pub accesses_per_object: u32,
    /// Random re-accesses into the long-lived working set per request.
    pub working_set_touches: u32,
    /// Per-thread request arrival rate, Hz.
    pub request_rate_hz: f64,
    /// Period of the workload's *phase* drift: the size mixture's component
    /// weights oscillate over this period (query mixes, compactions, batch
    /// jobs), which is what makes per-class live counts swing and spans
    /// drain — the churn behind Figures 13 and 16. Zero disables drift.
    pub phase_period_ns: u64,
    /// Amplitude of the phase drift in `[0, 1)`.
    pub phase_strength: f64,
}

/// The size mixture's phase-adjusted component weights at one instant, and
/// their total: everything about a size draw that depends on `t_ns` and not
/// on the RNG. A caller drawing many sizes at one `t_ns` (the driver draws a
/// whole request's allocations at one `now`) prepares once with
/// [`WorkloadSpec::prepare_sizes`] and reuses the buffer across instants, so
/// a draw costs no `sin()`. Mixtures of up to `INLINE_COMPONENTS`
/// components are held inline — no heap allocation at all; wider ones spill
/// to a `Vec` that is reused from one instant to the next.
#[derive(Clone, Debug, Default)]
pub struct SizeWeights {
    inline: [f64; INLINE_COMPONENTS],
    spill: Vec<f64>,
    /// Components prepared; selects `inline` or `spill`.
    len: usize,
    total: f64,
}

/// Widest mixture a [`SizeWeights`] holds without touching the heap.
const INLINE_COMPONENTS: usize = 16;

impl SizeWeights {
    /// One writable slot per component of an `n`-component mixture.
    fn slots(&mut self, n: usize) -> &mut [f64] {
        self.len = n;
        match self.inline.get_mut(..n) {
            Some(slots) => slots,
            None => {
                self.spill.resize(n, 0.0);
                &mut self.spill
            }
        }
    }

    fn weights(&self) -> &[f64] {
        self.inline.get(..self.len).unwrap_or(&self.spill)
    }
}

impl WorkloadSpec {
    /// Evaluates the size mixture at `t_ns` into `out`, for any number of
    /// [`sample_size_prepared`](Self::sample_size_prepared) draws at that
    /// instant: each component's phase-adjusted weight (the components wax
    /// and wane out of phase with one another) and their total, summed in
    /// component order.
    pub fn prepare_sizes(&self, t_ns: u64, out: &mut SizeWeights) {
        // `None` when drift is off: every phase multiplier is exactly 1.
        let frac = (self.phase_period_ns != 0 && self.phase_strength != 0.0)
            .then(|| (t_ns % self.phase_period_ns) as f64 / self.phase_period_ns as f64);
        let n = self.size_mix.len() as f64;
        let weights = out.slots(self.size_mix.len());
        for (i, (w, c)) in weights.iter_mut().zip(&self.size_mix).enumerate() {
            let phase = frac.map_or(1.0, |frac| {
                let offset = i as f64 / n;
                1.0 + self.phase_strength * ((frac + offset) * std::f64::consts::TAU).sin()
            });
            *w = c.weight * phase;
        }
        out.total = weights.iter().sum();
    }

    /// Draws an object size and its component index from weights prepared
    /// by [`prepare_sizes`](Self::prepare_sizes) on this spec: the same
    /// result, and the same RNG state afterwards, as
    /// [`sample_size`](Self::sample_size) at the prepared `t_ns`. Picks a
    /// component by walking the weights down from one uniform draw scaled
    /// by their total, then draws a size from it: the two RNG draws and the
    /// sequential subtraction are the draw sequence every recorded trace
    /// and golden figure depends on.
    pub fn sample_size_prepared(&self, prepared: &SizeWeights, rng: &mut SmallRng) -> (u64, usize) {
        debug_assert_eq!(
            prepared.len,
            self.size_mix.len(),
            "weights were not prepared on this spec"
        );
        let mut pick = rng.gen::<f64>() * prepared.total;
        for (i, (w, c)) in prepared.weights().iter().zip(&self.size_mix).enumerate() {
            pick -= w;
            if pick <= 0.0 {
                return (c.dist.sample(rng).max(1), i);
            }
        }
        let last = self.size_mix.len() - 1;
        (self.size_mix[last].dist.sample(rng).max(1), last)
    }

    /// Draws an object size at time `t_ns` and the index of the component
    /// (allocation site) it came from.
    pub fn sample_size(&self, t_ns: u64, rng: &mut SmallRng) -> (u64, usize) {
        let mut weights = SizeWeights::default();
        self.prepare_sizes(t_ns, &mut weights);
        self.sample_size_prepared(&weights, rng)
    }

    /// Draws a lifetime for an object of `size` allocated at site
    /// `component`: the site-specific mixture when the component has one,
    /// else the size-conditional model.
    pub fn sample_lifetime(&self, size: u64, component: usize, rng: &mut SmallRng) -> Option<u64> {
        if let Some(mix) = self
            .size_mix
            .get(component)
            .and_then(|c| c.lifetime.as_ref())
        {
            mix.sample(rng)
        } else {
            self.lifetime.sample(size, rng)
        }
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn size_dists_stay_in_range() {
        let mut r = rng();
        for _ in 0..1000 {
            let u = SizeDist::Uniform { lo: 10, hi: 20 }.sample(&mut r);
            assert!((10..=20).contains(&u));
            let l = SizeDist::log_uniform(8, 1 << 20).sample(&mut r);
            assert!((7..=1 << 20).contains(&l), "log-uniform {l}");
            assert_eq!(SizeDist::Fixed(99).sample(&mut r), 99);
        }
    }

    #[test]
    fn log_uniform_covers_decades() {
        let mut r = rng();
        let dist = SizeDist::log_uniform(8, 8 << 20);
        let mut small = 0;
        let mut large = 0;
        for _ in 0..10_000 {
            let s = dist.sample(&mut r);
            if s < 1024 {
                small += 1;
            }
            if s > 1 << 20 {
                large += 1;
            }
        }
        // Log-uniform: each decade gets similar mass.
        assert!(small > 2000 && large > 500, "small {small} large {large}");
    }

    #[test]
    fn log_range_draws_what_the_per_draw_logarithms_drew() {
        // The retired draw took both logarithms on every sample.
        let retired = |lo: u64, hi: u64, rng: &mut SmallRng| {
            let (l, h) = ((lo.max(1) as f64).ln(), (hi.max(1) as f64).ln());
            (l + rng.gen::<f64>() * (h - l)).exp() as u64
        };
        for (lo, hi) in [
            (8, 64),
            (16, 8 << 20),
            (0, 1),
            (0, 0),
            (1_000_000, 1_000_000_000),
            (1, u64::MAX),
            (4096, 4096),
        ] {
            let (mut a, mut b, mut c) = (rng(), rng(), rng());
            let (size, life) = (SizeDist::log_uniform(lo, hi), LifeDist::log_uniform(lo, hi));
            for _ in 0..10_000 {
                let want = retired(lo, hi, &mut a);
                assert_eq!(size.sample(&mut b), want, "[{lo}, {hi}]");
                assert_eq!(life.sample(&mut c), Some(want), "[{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn exp_lifetime_mean() {
        let mut r = rng();
        let d = LifeDist::Exp { mean_ns: 1000.0 };
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| d.sample(&mut r).expect("Exp always samples"))
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean {mean}");
    }

    #[test]
    fn forever_is_none() {
        let mut r = rng();
        assert_eq!(LifeDist::Forever.sample(&mut r), None);
    }

    #[test]
    fn lifetime_model_buckets_by_size() {
        let model = LifetimeModel::new(vec![
            (
                1024,
                LifetimeMix::new(vec![(1.0, LifeDist::Exp { mean_ns: 100.0 })]),
            ),
            (u64::MAX, LifetimeMix::new(vec![(1.0, LifeDist::Forever)])),
        ]);
        let mut r = rng();
        assert!(model.sample(64, &mut r).is_some());
        assert_eq!(model.sample(1 << 20, &mut r), None);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn lifetime_model_rejects_unsorted() {
        let mix = LifetimeMix::new(vec![(1.0, LifeDist::Forever)]);
        let _ = LifetimeModel::new(vec![(100, mix.clone()), (100, mix)]);
    }

    #[test]
    fn thread_model_fluctuates_and_clamps() {
        let m = ThreadModel {
            base: 20.0,
            amplitude: 0.5,
            period_ns: 1_000_000,
            phase_ns: 0,
            spike_prob: 0.0,
            spike_mult: 1.0,
            max: 64,
        };
        let mut r = rng();
        let peak = m.at(250_000, &mut r); // sin peak
        let trough = m.at(750_000, &mut r); // sin trough
        assert!(peak > trough, "peak {peak} vs trough {trough}");
        assert!(peak <= 64 && trough >= 1);
        assert_eq!(ThreadModel::single().at(12345, &mut r), 1);
    }

    #[test]
    fn phase_offset_shifts_the_diurnal_curve() {
        let m = ThreadModel {
            base: 20.0,
            amplitude: 0.5,
            period_ns: 1_000_000,
            phase_ns: 0,
            spike_prob: 0.0,
            spike_mult: 1.0,
            max: 64,
        };
        let shifted = ThreadModel {
            phase_ns: 250_000,
            ..m
        };
        let mut r = rng();
        // A machine a quarter-period "east" sees the peak a quarter-period
        // earlier in its own clock.
        assert_eq!(shifted.at(0, &mut r), m.at(250_000, &mut r));
        assert_eq!(shifted.at(500_000, &mut r), m.at(750_000, &mut r));
        assert!(shifted.at(0, &mut r) > shifted.at(500_000, &mut r));
    }

    #[test]
    fn spike_multiplies() {
        let m = ThreadModel {
            base: 10.0,
            amplitude: 0.0,
            period_ns: 1,
            phase_ns: 0,
            spike_prob: 1.0,
            spike_mult: 3.0,
            max: 100,
        };
        let mut r = rng();
        assert_eq!(m.at(0, &mut r), 30);
    }

    #[test]
    fn spec_sampling_is_deterministic_per_seed() {
        let spec = crate::profiles::fleet_mix();
        let draw = |seed| {
            let mut r = SmallRng::seed_from_u64(seed);
            (0..50)
                .map(|_| spec.sample_size(0, &mut r).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn phases_shift_the_mixture() {
        let mut spec = crate::profiles::fleet_mix();
        spec.phase_period_ns = 1_000_000;
        spec.phase_strength = 0.9;
        // The tiny-object component (index 0) peaks at a different time than
        // mid components, so the share of small objects varies with t.
        let share_small = |t: u64| {
            let mut r = SmallRng::seed_from_u64(5);
            let n = 20_000;
            (0..n)
                .filter(|_| spec.sample_size(t, &mut r).0 < 64)
                .count() as f64
                / n as f64
        };
        let a = share_small(250_000);
        let b = share_small(750_000);
        assert!((a - b).abs() > 0.01, "phase drift invisible: {a} vs {b}");
    }

    /// The retired draw: every component's phase weight evaluated twice per
    /// allocation, once for the total and once for the walk.
    fn sample_size_ref(spec: &WorkloadSpec, t_ns: u64, rng: &mut SmallRng) -> (u64, usize) {
        let phase_weight = |i: usize| {
            if spec.phase_period_ns == 0 || spec.phase_strength == 0.0 {
                return 1.0;
            }
            let frac = (t_ns % spec.phase_period_ns) as f64 / spec.phase_period_ns as f64;
            let offset = i as f64 / spec.size_mix.len() as f64;
            1.0 + spec.phase_strength * ((frac + offset) * std::f64::consts::TAU).sin()
        };
        let total: f64 = spec
            .size_mix
            .iter()
            .enumerate()
            .map(|(i, c)| c.weight * phase_weight(i))
            .sum();
        let mut pick = rng.gen::<f64>() * total;
        for (i, c) in spec.size_mix.iter().enumerate() {
            pick -= c.weight * phase_weight(i);
            if pick <= 0.0 {
                return (c.dist.sample(rng).max(1), i);
            }
        }
        let last = spec.size_mix.len() - 1;
        (spec.size_mix[last].dist.sample(rng).max(1), last)
    }

    #[test]
    fn prepared_draw_matches_the_retired_draw_on_every_profile() {
        use crate::profiles::*;
        let mut specs = production_workloads();
        specs.extend(benchmark_workloads());
        specs.extend([fleet_mix(), middle_tier_service(), spec_cpu(0), spec_cpu(3)]);
        specs.extend((0..4).map(fleet_binary));
        // Drift disabled either way, and a mixture too wide for the stack
        // buffer of `sample_size`.
        let mut no_period = fleet_binary(9);
        no_period.phase_period_ns = 0;
        let mut no_strength = fleet_binary(10);
        no_strength.phase_strength = 0.0;
        let mut wide = fleet_binary(11);
        while wide.size_mix.len() <= INLINE_COMPONENTS {
            wide.size_mix.extend(fleet_mix().size_mix);
        }
        specs.extend([no_period, no_strength, wide]);

        for (k, spec) in specs.iter().enumerate() {
            let seed = 0xD1CE + k as u64;
            let mut times = SmallRng::seed_from_u64(seed ^ 0x7177);
            let (mut r_ref, mut r_one, mut r_prep) = (
                SmallRng::seed_from_u64(seed),
                SmallRng::seed_from_u64(seed),
                SmallRng::seed_from_u64(seed),
            );
            let mut prepared = SizeWeights::default();
            let period = spec.phase_period_ns;
            let mut t_ns = 0;
            for draw in 0..10_000u64 {
                // A new instant every 24 draws, as a request would; period
                // boundaries and their neighbours come up first.
                if draw % 24 == 0 {
                    t_ns = match draw / 24 {
                        0 => 0,
                        1 => period,
                        2 => period.saturating_sub(1),
                        3 => 2 * period + 1,
                        4 => u64::MAX,
                        _ => times.gen_range(0..4 * period.max(1_000_000_000)),
                    };
                    spec.prepare_sizes(t_ns, &mut prepared);
                }
                let want = sample_size_ref(spec, t_ns, &mut r_ref);
                assert_eq!(
                    spec.sample_size(t_ns, &mut r_one),
                    want,
                    "{} t {t_ns}",
                    spec.name
                );
                assert_eq!(
                    spec.sample_size_prepared(&prepared, &mut r_prep),
                    want,
                    "{} t {t_ns}",
                    spec.name
                );
                let state = r_ref.clone().next_u64();
                assert_eq!(r_one.clone().next_u64(), state, "{} rng state", spec.name);
                assert_eq!(r_prep.clone().next_u64(), state, "{} rng state", spec.name);
            }
        }
    }
}
