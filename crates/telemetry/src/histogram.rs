//! Log2-bucketed weighted histograms.
//!
//! The allocator telemetry deals with values spanning ten orders of magnitude
//! (8-byte objects up to terabyte heaps, microsecond lifetimes up to weeks),
//! so linear bucketing is useless. [`LogHistogram`] uses one bucket per
//! power of two, subdivided into a fixed number of linear sub-buckets, which
//! matches how production TCMalloc telemetry bins sizes and lifetimes.

/// Number of linear sub-buckets per power-of-two bucket.
///
/// Four sub-buckets bounds the relative bucketing error at 1/8 (12.5%), which
/// is plenty for distribution *shape* studies like the paper's Figures 7/8.
pub const SUB_BUCKETS: usize = 4;

/// Maximum supported exponent. Values at or above `2^MAX_EXP` saturate into
/// the last bucket. 2^50 ≈ 1 PiB / ~13 days in nanoseconds, beyond anything
/// the study records.
pub const MAX_EXP: usize = 50;

const NUM_SLOTS: usize = MAX_EXP * SUB_BUCKETS;

/// A weighted histogram with logarithmic buckets.
///
/// Weights are `f64` so a single histogram can hold either raw counts
/// (`weight = 1.0`) or byte-weighted tallies (`weight = size as f64`), which
/// is exactly the distinction between the two curves of the paper's Figure 7
/// ("Object Count" vs "Memory").
///
/// # Example
///
/// ```
/// use wsc_telemetry::histogram::LogHistogram;
///
/// let mut h = LogHistogram::default();
/// h.record(100, 1.0);
/// h.record(200, 1.0);
/// assert_eq!(h.count(), 2.0);
/// assert_eq!(h.fraction_below(150), 0.5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    /// Weight per slot. Allocated by the first [`record`](Self::record) or
    /// non-empty [`merge`](Self::merge): an allocator builds 52 of these for
    /// its GWP profile and a short-lived one rarely samples, so every reader
    /// treats a missing slot as zero.
    slots: Vec<f64>,
    total_weight: f64,
    /// Sum of `value * weight`, for exact means.
    weighted_sum: f64,
    min: Option<u64>,
    max: Option<u64>,
}

impl LogHistogram {
    fn slot_of(value: u64) -> usize {
        if value <= 1 {
            return 0;
        }
        let exp = 63 - value.leading_zeros() as usize; // floor(log2(value)) >= 1
        if exp >= MAX_EXP {
            return NUM_SLOTS - 1;
        }
        // Linear position of `value` within [2^exp, 2^(exp+1)).
        let base = 1u64 << exp;
        let frac = ((value - base) as u128 * SUB_BUCKETS as u128 / base as u128) as usize;
        exp * SUB_BUCKETS + frac.min(SUB_BUCKETS - 1)
    }

    /// Lower bound of the given slot.
    fn slot_lower(slot: usize) -> u64 {
        let exp = slot / SUB_BUCKETS;
        let sub = slot % SUB_BUCKETS;
        let base = 1u64 << exp;
        base + (base / SUB_BUCKETS as u64) * sub as u64
    }

    /// Records `value` with the given non-negative `weight`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `weight` is negative or non-finite.
    pub fn record(&mut self, value: u64, weight: f64) {
        debug_assert!(weight.is_finite() && weight >= 0.0, "bad weight {weight}");
        if weight == 0.0 {
            return;
        }
        self.allocate_slots();
        self.slots[Self::slot_of(value)] += weight;
        self.total_weight += weight;
        self.weighted_sum += value as f64 * weight;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    fn allocate_slots(&mut self) {
        if self.slots.is_empty() {
            self.slots.resize(NUM_SLOTS, 0.0);
        }
    }

    /// This histogram emptied, with its slot storage kept for the next
    /// first weight.
    pub fn renew(mut self) -> Self {
        self.slots.clear();
        Self {
            slots: self.slots,
            ..Self::default()
        }
    }

    /// Total recorded weight.
    pub fn count(&self) -> f64 {
        self.total_weight
    }

    /// Weighted mean of recorded values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total_weight > 0.0).then(|| self.weighted_sum / self.total_weight)
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Fraction of total weight recorded at values `< threshold`
    /// (bucket-granular). Returns 0 for an empty histogram.
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        let cut = Self::slot_of(threshold).min(self.slots.len());
        let below: f64 = self.slots[..cut].iter().sum();
        below / self.total_weight
    }

    /// Fraction of total weight recorded at values `>= threshold`
    /// (bucket-granular).
    pub fn fraction_at_or_above(&self, threshold: u64) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        1.0 - self.fraction_below(threshold)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if !other.slots.is_empty() {
            self.allocate_slots();
        }
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a += *b;
        }
        self.total_weight += other.total_weight;
        self.weighted_sum += other.weighted_sum;
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |s| s.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |s| s.max(m)));
        }
    }

    /// Iterates over non-empty buckets as `(bucket_lower_bound, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0.0)
            .map(|(i, w)| (Self::slot_lower(i), *w))
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::default();
        assert_eq!(h.count(), 0.0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.fraction_below(100), 0.0);
    }

    #[test]
    fn slot_lower_round_trips() {
        for v in [1u64, 2, 3, 7, 8, 100, 1024, 1 << 20, (1 << 30) + 12345] {
            let slot = LogHistogram::slot_of(v);
            let lower = LogHistogram::slot_lower(slot);
            assert!(lower <= v, "lower {lower} > value {v}");
            // Bucket relative width is 1/SUB_BUCKETS of the octave.
            assert!(v < lower * 2, "value {v} too far above lower {lower}");
        }
    }

    #[test]
    fn byte_weighting_shifts_distribution() {
        // Mirrors paper Fig. 7: many small objects, few huge ones.
        let mut count = LogHistogram::default();
        let mut bytes = LogHistogram::default();
        for _ in 0..1000 {
            count.record(64, 1.0);
            bytes.record(64, 64.0);
        }
        count.record(1 << 20, 1.0);
        bytes.record(1 << 20, (1u64 << 20) as f64);
        // By count the small objects dominate; by bytes the 1 MiB one does.
        assert!(count.fraction_below(1024) > 0.99);
        assert!(bytes.fraction_below(1024) < 0.1);
    }

    #[test]
    fn saturation_at_max_exp() {
        let mut h = LogHistogram::default();
        h.record(u64::MAX, 1.0);
        assert_eq!(h.count(), 1.0);
        assert_eq!(h.fraction_at_or_above(1 << 49), 1.0, "last bucket");
    }

    #[test]
    fn merge_adds_weight() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        a.record(10, 2.0);
        b.record(1000, 3.0);
        a.merge(&b);
        assert_eq!(a.count(), 5.0);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1000));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::default();
        h.record(10, 1.0);
        h.record(30, 3.0);
        let mean = h.mean().unwrap();
        assert!((mean - 25.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn iter_covers_all_weight() {
        let mut h = LogHistogram::default();
        for v in [5u64, 50, 500, 5000] {
            h.record(v, 1.5);
        }
        let total: f64 = h.iter().map(|(_, w)| w).sum();
        assert!((total - h.count()).abs() < 1e-9);
    }

    #[test]
    fn fraction_below_min_is_zero() {
        // Boundary contract for Figures 7/8: nothing lies below the
        // smallest recorded value, bucket-granular or not.
        let mut h = LogHistogram::default();
        for v in [96u64, 500, 7000, 1 << 18] {
            h.record(v, 2.0);
        }
        let min = h.min().unwrap();
        assert_eq!(h.fraction_below(min), 0.0);
        assert_eq!(h.fraction_at_or_above(min), 1.0);
    }

    #[test]
    fn below_and_at_or_above_are_complementary_at_bucket_edges() {
        let mut h = LogHistogram::default();
        for v in 1..=4096u64 {
            h.record(v, 1.0);
        }
        // Exact powers of two and sub-bucket edges: the two fractions must
        // sum to 1 and each value must sit on the at-or-above side of its
        // own bucket edge.
        for edge in [1u64, 2, 8, 64, 80, 96, 1024, 4096] {
            let below = h.fraction_below(edge);
            let above = h.fraction_at_or_above(edge);
            assert!(
                ((below + above) - 1.0).abs() < 1e-12,
                "edge {edge}: {below} + {above} != 1"
            );
            // Bucket granularity: everything in edge's own bucket counts as
            // at-or-above, so `below` never exceeds the exact fraction of
            // values < edge.
            let exact = (edge - 1) as f64 / 4096.0;
            assert!(
                below <= exact + 1e-12,
                "edge {edge}: bucket-granular below {below} > exact {exact}"
            );
        }
    }

    #[test]
    fn slots_are_allocated_by_the_first_weight_in() {
        let mut h = LogHistogram::default();
        assert!(h.slots.is_empty());
        h.record(42, 0.0);
        h.merge(&LogHistogram::default());
        assert!(h.slots.is_empty(), "no weight, no slots");
        assert_eq!(h.fraction_below(u64::MAX), 0.0);
        assert_eq!(h.iter().count(), 0);
        let mut other = LogHistogram::default();
        other.record(100, 2.0);
        h.merge(&other);
        assert_eq!(h.slots.len(), NUM_SLOTS);
        assert!(h.iter().eq(other.iter()));
        assert_eq!(h.fraction_below(u64::MAX), 1.0);
    }

    #[test]
    fn zero_weight_ignored() {
        let mut h = LogHistogram::default();
        h.record(42, 0.0);
        assert_eq!(h.count(), 0.0);
        assert_eq!(h.min(), None);
    }
}
