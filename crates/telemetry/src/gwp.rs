//! Google-Wide-Profiling-style allocation sampling.
//!
//! Production TCMalloc samples one allocation per 2 MiB of allocated bytes
//! and records the call stack, object size, and (on free) lifetime. The paper
//! derives Figures 7 and 8 from exactly this sample stream. [`Sampler`]
//! implements the byte-threshold discipline; [`AllocationProfile`] aggregates
//! samples into the size and lifetime distributions the figures need.

use crate::histogram::{LogHistogram, MAX_EXP};

/// Deterministic byte-threshold sampler.
///
/// Accumulates allocated bytes and fires once per `period` bytes. A fired
/// sample statistically represents `period / size` allocations of that size,
/// which [`Sampler::sample_weight`] reports so that aggregated profiles are
/// unbiased.
///
/// Production uses an exponentially-distributed threshold to avoid phase
/// locking; the deterministic accumulator is equivalent in aggregate for the
/// distribution studies here and keeps replays bit-reproducible.
///
/// The [`Default`] sampler has period 0 and must not be asked: it is what
/// an allocator that has not been renewed holds.
///
/// # Example
///
/// ```
/// use wsc_telemetry::gwp::Sampler;
///
/// let mut s = Sampler::new(1024);
/// assert!(!s.should_sample(512));
/// assert!(s.should_sample(512)); // crossed 1024 bytes
/// ```
#[derive(Clone, Debug, Default)]
pub struct Sampler {
    period: u64,
    accumulated: u64,
}

impl Sampler {
    /// Creates a sampler firing once per `period_bytes` allocated.
    ///
    /// # Panics
    ///
    /// Panics if `period_bytes` is zero.
    pub fn new(period_bytes: u64) -> Self {
        assert!(period_bytes > 0, "sampling period must be positive");
        Self {
            period: period_bytes,
            accumulated: 0,
        }
    }

    /// Accounts an allocation of `size` bytes; returns `true` when this
    /// allocation should be sampled.
    #[inline]
    pub fn should_sample(&mut self, size: u64) -> bool {
        self.accumulated += size;
        if self.accumulated >= self.period {
            self.accumulated %= self.period;
            true
        } else {
            false
        }
    }

    /// Statistical weight of one sample of the given size: the number of
    /// same-sized allocations it represents.
    ///
    /// Allocations at least as large as the period are always sampled
    /// (`should_sample` fires on every period crossing), so their weight is
    /// exactly 1 — this keeps the byte-weighted profile unbiased for the
    /// huge-allocation tail of Figure 7.
    pub fn sample_weight(&self, size: u64) -> f64 {
        (self.period as f64 / size.max(1) as f64).max(1.0)
    }
}

/// One sampled allocation, completed by its observed lifetime on free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Requested object size in bytes.
    pub size: u64,
    /// Allocation site identifier (stands in for the recorded call stack).
    pub site: u64,
    /// Allocation timestamp, ns.
    pub alloc_time_ns: u64,
    /// Statistical weight (allocations represented by this sample).
    pub weight: f64,
}

/// Aggregated allocation profile: the distributions behind Figures 7 and 8.
#[derive(Clone, Debug)]
pub struct AllocationProfile {
    /// Object-size distribution weighted by allocation count (Fig. 7 "Object
    /// Count" curve).
    pub size_by_count: LogHistogram,
    /// Object-size distribution weighted by bytes (Fig. 7 "Memory" curve).
    pub size_by_bytes: LogHistogram,
    /// Lifetime distribution per log2(size) bin, weighted by sampled
    /// allocation count (Fig. 8). Index = floor(log2(size)).
    lifetime_by_size_exp: Vec<LogHistogram>,
}

impl AllocationProfile {
    /// This profile emptied, with every histogram's storage kept.
    pub fn renew(self) -> Self {
        Self {
            size_by_count: self.size_by_count.renew(),
            size_by_bytes: self.size_by_bytes.renew(),
            lifetime_by_size_exp: self
                .lifetime_by_size_exp
                .into_iter()
                .map(LogHistogram::renew)
                .collect(),
        }
    }

    fn size_exp(size: u64) -> usize {
        if size <= 1 {
            0
        } else {
            ((63 - size.leading_zeros()) as usize).min(MAX_EXP - 1)
        }
    }

    /// Records a sampled allocation (size only; call
    /// [`record_lifetime`](Self::record_lifetime) when it is freed).
    pub fn record_alloc(&mut self, sample: &Sample) {
        self.size_by_count.record(sample.size, sample.weight);
        self.size_by_bytes
            .record(sample.size, sample.weight * sample.size as f64);
    }

    /// Records the observed lifetime of a sampled allocation.
    pub fn record_lifetime(&mut self, size: u64, lifetime_ns: u64, weight: f64) {
        self.lifetime_by_size_exp[Self::size_exp(size)].record(lifetime_ns, weight);
    }

    /// Lifetime histogram for objects with `floor(log2(size)) == exp`.
    pub fn lifetime_for_size_exp(&self, exp: usize) -> &LogHistogram {
        &self.lifetime_by_size_exp[exp.min(MAX_EXP - 1)]
    }

    /// Merges another profile (e.g. from another machine) into this one.
    pub fn merge(&mut self, other: &AllocationProfile) {
        self.size_by_count.merge(&other.size_by_count);
        self.size_by_bytes.merge(&other.size_by_bytes);
        for (a, b) in self
            .lifetime_by_size_exp
            .iter_mut()
            .zip(&other.lifetime_by_size_exp)
        {
            a.merge(b);
        }
    }
}

impl Default for AllocationProfile {
    /// The empty profile: every histogram empty, one per size bin.
    fn default() -> Self {
        Self {
            size_by_count: LogHistogram::default(),
            size_by_bytes: LogHistogram::default(),
            lifetime_by_size_exp: (0..MAX_EXP).map(|_| LogHistogram::default()).collect(),
        }
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn sampler_fires_once_per_period() {
        let mut s = Sampler::new(1000);
        let mut fired = 0;
        for _ in 0..100 {
            if s.should_sample(100) {
                fired += 1;
            }
        }
        assert_eq!(fired, 10);
    }

    #[test]
    fn sampler_large_alloc_always_fires() {
        let mut s = Sampler::new(1000);
        assert!(s.should_sample(10_000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sampler_rejects_zero_period() {
        let _ = Sampler::new(0);
    }

    #[test]
    fn sample_weight_inverse_to_size() {
        let s = Sampler::new(2 << 20);
        assert!(s.sample_weight(8) > s.sample_weight(1 << 20));
        assert!((s.sample_weight(2 << 20) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_weighting_matches_fig7_shape() {
        // 100 sampled small allocations each stand for a full period of
        // bytes (2 MiB); 100 huge allocations are sampled with weight 1 and
        // carry their own bytes. Small dominate by count, huge by bytes.
        let mut p = AllocationProfile::default();
        let s = Sampler::new(2 << 20);
        for site in 0..100u64 {
            p.record_alloc(&Sample {
                size: 64,
                site,
                alloc_time_ns: 0,
                weight: s.sample_weight(64),
            });
            p.record_alloc(&Sample {
                size: 64 << 20,
                site,
                alloc_time_ns: 0,
                weight: s.sample_weight(64 << 20),
            });
        }
        assert!((s.sample_weight(64 << 20) - 1.0).abs() < 1e-12);
        assert!(p.size_by_count.fraction_below(1024) > 0.99);
        let by_bytes = p.size_by_bytes.fraction_below(1024);
        // 100 x 2 MiB vs 100 x 64 MiB: small objects carry ~3% of bytes.
        assert!(
            (by_bytes - 2.0 / 66.0).abs() < 0.01,
            "byte split {by_bytes}"
        );
    }

    #[test]
    fn lifetime_bins_by_size() {
        let mut p = AllocationProfile::default();
        p.record_lifetime(64, 1_000, 1.0); // small, short-lived
        p.record_lifetime(1 << 30, 86_400_000_000_000, 1.0); // huge, 1 day
        let small = p.lifetime_for_size_exp(6);
        let big = p.lifetime_for_size_exp(30);
        assert_eq!(small.count(), 1.0);
        assert_eq!(big.count(), 1.0);
        assert!(big.min() > small.min());
    }

    #[test]
    fn profile_merge() {
        let mut a = AllocationProfile::default();
        let mut b = AllocationProfile::default();
        a.record_lifetime(64, 10, 1.0);
        b.record_lifetime(64, 10, 2.0);
        a.merge(&b);
        assert_eq!(a.lifetime_for_size_exp(6).count(), 3.0);
    }
}
