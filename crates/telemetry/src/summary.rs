//! Constant-size, exactly-mergeable metric summaries for streaming fleet
//! aggregation.
//!
//! The fleet engine folds 10⁵+ per-cell measurements online instead of
//! collecting them, so the accumulator it folds into must be (a) constant
//! size and (b) *exactly* associative and commutative under merge — any
//! partition of the cells across worker threads or shard processes must
//! reduce to the same bytes. Floating-point addition is neither, so every
//! accumulating field here is an integer:
//!
//! * values are quantized once, at record time, to signed fixed-point with
//!   [`Q_FRAC_BITS`] fraction bits (resolution 2⁻³² ≈ 2.3e-10),
//! * sums and weighted sums accumulate in `i128` (no overflow for any
//!   realistic fleet: |value| < 2⁴⁷, weight ≤ 1, 10⁸ cells still fit),
//! * min/max and log₂-histogram slots are order-independent by
//!   construction.
//!
//! Integer arithmetic is associative and commutative, so
//! `merge(a, merge(b, c)) == merge(merge(a, b), c)` holds *bit-for-bit*,
//! which is what lets `--threads N` and `--shards P` reproduce the serial
//! bytes (see `wsc_parallel`'s fold contract).
//!
//! [`BucketSeries`] applies the same idea to the longitudinal
//! resident-bytes trace: each cell's samples land in a fixed number of
//! normalized-time buckets, accumulating integer sums and counts, so the
//! fleet memory curve is O(1) per arm instead of O(samples × cells).

use crate::timeseries::TimeSeries;

/// Fixed-point fraction bits used by [`quantize`] (resolution 2⁻³²).
pub const Q_FRAC_BITS: u32 = 32;

/// Log₂-histogram slots: bit lengths 0..=95 of the quantized magnitude,
/// covering values up to 2⁶³ with fraction resolution intact.
pub const SUMMARY_HIST_SLOTS: usize = 96;

/// Normalized-time buckets in a [`BucketSeries`].
pub const SERIES_BUCKETS: usize = 64;

/// Quantizes a metric value to signed fixed-point (round-half-away), the
/// one lossy step in the pipeline. Everything after this is exact integer
/// arithmetic. Non-finite values clamp to the representable range (NaN
/// records as 0 — the driver never produces one, but a poisoned cell must
/// not poison the fold).
pub fn quantize(value: f64) -> i64 {
    let scaled = value * (1u64 << Q_FRAC_BITS) as f64;
    if scaled.is_nan() {
        0
    } else if scaled >= i64::MAX as f64 {
        i64::MAX
    } else if scaled <= i64::MIN as f64 {
        i64::MIN
    } else {
        scaled.round() as i64
    }
}

/// Inverse of [`quantize`] (to the nearest representable f64).
pub fn dequantize(q: i128) -> f64 {
    q as f64 / (1u64 << Q_FRAC_BITS) as f64
}

/// Streaming summary of one metric across fleet cells: count, sum, min,
/// max, a log₂ histogram, and cycle-weighted sums for the fleet aggregate.
/// Constant size; merge is exact (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSummary {
    count: u64,
    /// Σ qᵢ (unweighted, fixed-point).
    sum_q: i128,
    /// Σ wᵢ·qᵢ where wᵢ is the cell's quantized weight.
    wsum_q: i128,
    /// Σ wᵢ (quantized weights).
    weight_q: u128,
    min_q: i64,
    max_q: i64,
    /// Count per bit-length of the quantized magnitude.
    hist: [u64; SUMMARY_HIST_SLOTS],
}

impl Default for MetricSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricSummary {
    /// An empty summary (the fold identity: `merge(new(), x) == x`).
    pub fn new() -> Self {
        Self {
            count: 0,
            sum_q: 0,
            wsum_q: 0,
            weight_q: 0,
            min_q: i64::MAX,
            max_q: i64::MIN,
            hist: [0; SUMMARY_HIST_SLOTS],
        }
    }

    /// Records one cell's value with its quantized cycle weight (see
    /// [`quantize_weight`]).
    pub fn record(&mut self, value: f64, weight_q: u64) {
        let q = quantize(value);
        self.count += 1;
        self.sum_q += i128::from(q);
        self.wsum_q += i128::from(q) * i128::from(weight_q);
        self.weight_q += u128::from(weight_q);
        self.min_q = self.min_q.min(q);
        self.max_q = self.max_q.max(q);
        self.hist[Self::slot_of(q)] += 1;
    }

    /// The histogram slot (bit length of the magnitude, saturated).
    fn slot_of(q: i64) -> usize {
        let mag = q.unsigned_abs().max(1);
        ((64 - mag.leading_zeros()) as usize - 1).min(SUMMARY_HIST_SLOTS - 1)
    }

    /// Folds `other` in. Exactly associative and commutative.
    pub fn merge(&mut self, other: &MetricSummary) {
        self.count += other.count;
        self.sum_q += other.sum_q;
        self.wsum_q += other.wsum_q;
        self.weight_q += other.weight_q;
        self.min_q = self.min_q.min(other.min_q);
        self.max_q = self.max_q.max(other.max_q);
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }

    /// Cells recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Unweighted mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| dequantize(self.sum_q) / self.count as f64)
    }

    /// Cycle-weighted mean (the fleet aggregate), or `None` if no weight.
    pub fn weighted_mean(&self) -> Option<f64> {
        if self.weight_q == 0 {
            return None;
        }
        // wsum_q carries 2·Q_FRAC_BITS fraction bits (weight × value),
        // weight_q carries Q_FRAC_BITS, so the quotient is back at
        // Q_FRAC_BITS — divide in integer space, dequantize once.
        Some(dequantize(self.wsum_q / self.weight_q as i128))
    }

    /// Minimum recorded value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then(|| dequantize(i128::from(self.min_q)))
    }

    /// Maximum recorded value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then(|| dequantize(i128::from(self.max_q)))
    }

    /// Serializes to the little-endian wire layout (process-shard payload).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.count.to_le_bytes());
        buf.extend_from_slice(&self.sum_q.to_le_bytes());
        buf.extend_from_slice(&self.wsum_q.to_le_bytes());
        buf.extend_from_slice(&self.weight_q.to_le_bytes());
        buf.extend_from_slice(&self.min_q.to_le_bytes());
        buf.extend_from_slice(&self.max_q.to_le_bytes());
        for slot in &self.hist {
            buf.extend_from_slice(&slot.to_le_bytes());
        }
    }

    /// Deserializes from [`encode_into`](Self::encode_into) bytes,
    /// consuming them from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a description when `buf` is shorter than the wire layout.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, String> {
        let mut s = Self::new();
        s.count = take_u64(buf)?;
        s.sum_q = take_i128(buf)?;
        s.wsum_q = take_i128(buf)?;
        s.weight_q = take_u128(buf)?;
        s.min_q = take_i64(buf)?;
        s.max_q = take_i64(buf)?;
        for slot in &mut s.hist {
            *slot = take_u64(buf)?;
        }
        Ok(s)
    }
}

/// Quantizes a cell weight (a normalized fraction in `[0, 1]`) for
/// [`MetricSummary::record`]. Done once at sampling time so every
/// accumulation downstream is integer.
pub fn quantize_weight(w: f64) -> u64 {
    let scaled = w.clamp(0.0, 1.0) * (1u64 << Q_FRAC_BITS) as f64;
    scaled.round() as u64
}

/// Fixed-bucket longitudinal series: each recorded [`TimeSeries`] is folded
/// into [`SERIES_BUCKETS`] normalized-time buckets (integer value sums +
/// sample counts), so merging cells keeps the fleet memory curve at
/// constant size. Values are rounded to integers at record time (resident
/// *bytes* — already integral).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketSeries {
    counts: [u64; SERIES_BUCKETS],
    sums: [u128; SERIES_BUCKETS],
}

impl Default for BucketSeries {
    fn default() -> Self {
        Self::new()
    }
}

impl BucketSeries {
    /// An empty series (the fold identity).
    pub fn new() -> Self {
        Self {
            counts: [0; SERIES_BUCKETS],
            sums: [0; SERIES_BUCKETS],
        }
    }

    /// Folds one cell's samples in, normalizing sample times to the cell's
    /// own span so cells of different durations align bucket-for-bucket.
    pub fn record(&mut self, ts: &TimeSeries) {
        if ts.is_empty() {
            return;
        }
        let (t0, _) = ts.iter().next().expect("non-empty");
        let span = ts.iter().last().expect("non-empty").0.saturating_sub(t0);
        for (t, v) in ts.iter() {
            let b = if span == 0 {
                0
            } else {
                // Equal-width buckets over [t0, t_end]; the final sample
                // lands in the last bucket (closed on the right).
                (((t - t0) as u128 * SERIES_BUCKETS as u128 / (span as u128 + 1)) as usize)
                    .min(SERIES_BUCKETS - 1)
            };
            self.counts[b] += 1;
            self.sums[b] += v.max(0.0).round() as u128;
        }
    }

    /// Folds `other` in. Exactly associative and commutative.
    pub fn merge(&mut self, other: &BucketSeries) {
        for b in 0..SERIES_BUCKETS {
            self.counts[b] += other.counts[b];
            self.sums[b] += other.sums[b];
        }
    }

    /// Total samples folded in.
    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean over all samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.samples();
        (n > 0).then(|| self.sums.iter().sum::<u128>() as f64 / n as f64)
    }

    /// Serializes to the little-endian wire layout.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        for c in &self.counts {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        for s in &self.sums {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }

    /// Deserializes, consuming from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a description when `buf` is shorter than the wire layout.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, String> {
        let mut s = Self::new();
        for c in &mut s.counts {
            *c = take_u64(buf)?;
        }
        for v in &mut s.sums {
            *v = take_u128(buf)?;
        }
        Ok(s)
    }
}

/// Exact coverage accounting for a (possibly degraded) fold: how many
/// units were *planned* versus how many were actually *folded* into the
/// accumulator. A fault-tolerant fold that loses a span after exhausting
/// retries merges the surviving blocks and records the lost units here, so
/// a downstream report can state "97.3% of machines surveyed" instead of
/// silently presenting a partial aggregate as the whole population.
///
/// Merges like every other summary: integer adds, exactly associative and
/// commutative, so coverage reduces to identical bytes under any
/// partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    planned: u64,
    folded: u64,
}

impl Coverage {
    /// Empty coverage (nothing planned, nothing folded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one unit planned and folded (the healthy path).
    pub fn fold_one(&mut self) {
        self.planned += 1;
        self.folded += 1;
    }

    /// Records `n` units that were planned but lost (a span whose retries
    /// were exhausted).
    pub fn note_uncovered(&mut self, n: u64) {
        self.planned += n;
    }

    /// Folds `other` in. Exactly associative and commutative.
    pub fn merge(&mut self, other: &Coverage) {
        self.planned += other.planned;
        self.folded += other.folded;
    }

    /// Units planned (folded + lost).
    pub fn planned(&self) -> u64 {
        self.planned
    }

    /// Units actually folded into the accumulator.
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Fraction of planned units folded, in `[0, 1]`. An empty fold is
    /// complete by convention (nothing was lost).
    pub fn fraction(&self) -> f64 {
        if self.planned == 0 {
            1.0
        } else {
            self.folded as f64 / self.planned as f64
        }
    }

    /// Did every planned unit fold?
    pub fn complete(&self) -> bool {
        self.folded == self.planned
    }

    /// Serializes to the little-endian wire layout.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.planned.to_le_bytes());
        buf.extend_from_slice(&self.folded.to_le_bytes());
    }

    /// Deserializes, consuming from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a description when `buf` is shorter than the wire layout or
    /// claims more folded than planned units (a corrupt or hand-rolled
    /// payload — the healthy encoder can never produce it).
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, String> {
        let planned = take_u64(buf)?;
        let folded = take_u64(buf)?;
        if folded > planned {
            return Err(format!(
                "coverage claims {folded} folded of {planned} planned"
            ));
        }
        Ok(Self { planned, folded })
    }
}

fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], String> {
    if buf.len() < N {
        return Err(format!(
            "summary payload truncated: need {N} bytes, have {}",
            buf.len()
        ));
    }
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[..N]);
    *buf = &buf[N..];
    Ok(out)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, String> {
    take::<8>(buf).map(u64::from_le_bytes)
}

fn take_i64(buf: &mut &[u8]) -> Result<i64, String> {
    take::<8>(buf).map(i64::from_le_bytes)
}

fn take_u128(buf: &mut &[u8]) -> Result<u128, String> {
    take::<16>(buf).map(u128::from_le_bytes)
}

fn take_i128(buf: &mut &[u8]) -> Result<i128, String> {
    take::<16>(buf).map(i128::from_le_bytes)
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_exactly_associative_and_commutative() {
        let mut rng = wsc_prng::SmallRng::seed_from_u64(11);
        let parts: Vec<MetricSummary> = (0..6)
            .map(|_| {
                let mut s = MetricSummary::new();
                for _ in 0..40 {
                    s.record(
                        rng.gen_range(-1.0e6..1.0e6),
                        quantize_weight(rng.gen::<f64>()),
                    );
                }
                s
            })
            .collect();
        // Left fold.
        let mut left = MetricSummary::new();
        for p in &parts {
            left.merge(p);
        }
        // Right-leaning tree, reversed order.
        let mut right = MetricSummary::new();
        for p in parts.iter().rev() {
            let mut pair = p.clone();
            pair.merge(&right);
            right = pair;
        }
        assert_eq!(left, right, "merge must be order-independent bit-for-bit");
    }

    #[test]
    fn mean_min_max_roundtrip() {
        let mut s = MetricSummary::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            s.record(v, quantize_weight(0.25));
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean().unwrap() - 4.0).abs() < 1e-9);
        assert!((s.min().unwrap() - 1.0).abs() < 1e-9);
        assert!((s.max().unwrap() - 10.0).abs() < 1e-9);
        // Equal weights: weighted mean == unweighted mean.
        assert!((s.weighted_mean().unwrap() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_mean_prefers_heavy_cells() {
        let mut s = MetricSummary::new();
        s.record(100.0, quantize_weight(0.9));
        s.record(0.0, quantize_weight(0.1));
        assert!((s.weighted_mean().unwrap() - 90.0).abs() < 1e-6);
    }

    #[test]
    fn quantization_resolution_holds_small_rates() {
        // dTLB miss rates are ~1e-4; the fixed point must hold ≥6
        // significant digits there.
        let mut s = MetricSummary::new();
        s.record(1.234567e-4, quantize_weight(1.0));
        assert!((s.mean().unwrap() - 1.234567e-4).abs() < 1e-9);
    }

    #[test]
    fn codec_roundtrip() {
        let mut s = MetricSummary::new();
        let mut rng = wsc_prng::SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            s.record(
                rng.gen_range(-1.0e9..1.0e9),
                quantize_weight(rng.gen::<f64>()),
            );
        }
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        let mut rest = buf.as_slice();
        let back = MetricSummary::decode_from(&mut rest).unwrap();
        assert_eq!(s, back);
        assert!(rest.is_empty(), "decode consumes exactly the layout");
        // Truncation is an error, not a panic.
        let mut short = &buf[..buf.len() - 1];
        assert!(MetricSummary::decode_from(&mut short).is_err());
    }

    #[test]
    fn bucket_series_normalizes_time() {
        let mut fast = TimeSeries::new("fast");
        let mut slow = TimeSeries::new("slow");
        for i in 0..SERIES_BUCKETS as u64 {
            fast.push(i * 10, 100.0);
            slow.push(i * 1_000, 300.0);
        }
        let mut s = BucketSeries::new();
        s.record(&fast);
        s.record(&slow);
        assert_eq!(s.samples(), 2 * SERIES_BUCKETS as u64);
        // Both series span their own range, so every bucket holds one
        // sample from each and the mean is flat.
        for b in 0..SERIES_BUCKETS {
            assert_eq!((s.counts[b], s.sums[b]), (2, 400), "bucket {b}");
        }
    }

    #[test]
    fn bucket_series_merge_matches_sequential_record() {
        let mut a = TimeSeries::new("a");
        let mut b = TimeSeries::new("b");
        for i in 0..100u64 {
            a.push(i * 7, (i * 3) as f64);
            b.push(i * 13, (i * 5) as f64);
        }
        let mut both = BucketSeries::new();
        both.record(&a);
        both.record(&b);
        let mut left = BucketSeries::new();
        left.record(&a);
        let mut right = BucketSeries::new();
        right.record(&b);
        left.merge(&right);
        assert_eq!(both, left);
        let mut buf = Vec::new();
        left.encode_into(&mut buf);
        let mut rest = buf.as_slice();
        assert_eq!(BucketSeries::decode_from(&mut rest).unwrap(), left);
    }

    #[test]
    fn empty_summary_is_merge_identity() {
        let mut s = MetricSummary::new();
        s.record(5.0, quantize_weight(0.5));
        let mut merged = MetricSummary::new();
        merged.merge(&s);
        assert_eq!(merged, s);
        assert_eq!(MetricSummary::new().mean(), None);
        assert_eq!(MetricSummary::new().weighted_mean(), None);
        assert_eq!(BucketSeries::new().mean(), None);
    }

    #[test]
    fn coverage_accounts_exactly() {
        let mut c = Coverage::new();
        assert!(c.complete());
        assert_eq!(c.fraction(), 1.0, "empty fold is complete by convention");
        for _ in 0..97 {
            c.fold_one();
        }
        c.note_uncovered(3);
        assert_eq!(c.planned(), 100);
        assert_eq!(c.folded(), 97);
        assert!(!c.complete());
        assert_eq!(c.fraction(), 0.97);
    }

    #[test]
    fn coverage_merge_is_partition_invariant() {
        let mut whole = Coverage::new();
        for _ in 0..10 {
            whole.fold_one();
        }
        whole.note_uncovered(5);
        let mut left = Coverage::new();
        for _ in 0..4 {
            left.fold_one();
        }
        let mut right = Coverage::new();
        for _ in 0..6 {
            right.fold_one();
        }
        right.note_uncovered(5);
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn coverage_codec_roundtrips_and_rejects_impossible_claims() {
        let mut c = Coverage::new();
        c.fold_one();
        c.fold_one();
        c.note_uncovered(1);
        let mut buf = Vec::new();
        c.encode_into(&mut buf);
        assert_eq!(buf.len(), 16);
        let mut rest = buf.as_slice();
        assert_eq!(Coverage::decode_from(&mut rest).unwrap(), c);
        assert!(rest.is_empty());
        // folded > planned can only come from corruption.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&2u64.to_le_bytes());
        assert!(Coverage::decode_from(&mut bad.as_slice()).is_err());
        assert!(Coverage::decode_from(&mut &buf[..7]).is_err(), "truncation");
    }
}
