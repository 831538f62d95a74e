//! Time-indexed sample series.
//!
//! Used for the paper's Figure 9a (worker-thread count over 48 hours) and for
//! longitudinal memory-usage traces during A/B experiments.

/// A series of `(time_ns, value)` samples with non-decreasing timestamps.
///
/// # Example
///
/// ```
/// use wsc_telemetry::timeseries::TimeSeries;
///
/// let mut ts = TimeSeries::new("threads");
/// ts.push(0, 10.0);
/// ts.push(1_000_000_000, 14.0);
/// assert_eq!(ts.len(), 2);
/// assert!((ts.mean().unwrap() - 12.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    name: String,
    times: Vec<u64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time_ns` is smaller than the previous sample's timestamp.
    pub fn push(&mut self, time_ns: u64, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(time_ns >= last, "timestamps must be non-decreasing");
        }
        self.times.push(time_ns);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Is the series empty?
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Mean of the sampled values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        crate::stats::mean(&self.values)
    }

    /// Minimum sampled value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum sampled value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Iterates `(time_ns, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Downsamples the series into `buckets` equal time windows, averaging
    /// values inside each window. Empty windows carry the previous value
    /// forward (or 0 before the first sample). Returns an empty vector when
    /// the series is empty or `buckets == 0`.
    pub fn resample(&self, buckets: usize) -> Vec<(u64, f64)> {
        if self.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let start = self.times[0];
        let end = *self.times.last().expect("non-empty");
        let span = (end - start).max(1);
        let width = (span as f64 / buckets as f64).max(1.0);
        let mut out = Vec::with_capacity(buckets);
        let mut last = self.values[0];
        for b in 0..buckets {
            let lo = start + (b as f64 * width) as u64;
            let i0 = self.times.partition_point(|&t| t < lo);
            // The final bucket is closed on the right: with an open bound
            // the samples at exactly `end` would fall past every bucket
            // and be dropped from the resample.
            let i1 = if b + 1 == buckets {
                self.times.len()
            } else {
                let hi = start + ((b + 1) as f64 * width) as u64;
                self.times.partition_point(|&t| t < hi)
            };
            if i1 > i0 {
                let m: f64 = self.values[i0..i1].iter().sum::<f64>() / (i1 - i0) as f64;
                last = m;
            }
            out.push((lo, last));
        }
        out
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut ts = TimeSeries::new("x");
        ts.push(10, 1.0);
        ts.push(20, 2.0);
        ts.push(20, 3.0); // equal timestamps allowed
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.iter().next(), Some((10, 1.0)));
        assert_eq!(ts.iter().last(), Some((20, 3.0)));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut ts = TimeSeries::new("x");
        ts.push(10, 1.0);
        ts.push(5, 2.0);
    }

    #[test]
    fn stats() {
        let mut ts = TimeSeries::new("x");
        for (t, v) in [(0u64, 1.0), (1, 5.0), (2, 3.0)] {
            ts.push(t, v);
        }
        assert_eq!(ts.min(), Some(1.0));
        assert_eq!(ts.max(), Some(5.0));
        assert!((ts.mean().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn resample_preserves_levels() {
        let mut ts = TimeSeries::new("x");
        for t in 0..100u64 {
            ts.push(t, if t < 50 { 10.0 } else { 20.0 });
        }
        let rs = ts.resample(10);
        assert_eq!(rs.len(), 10);
        assert!((rs[0].1 - 10.0).abs() < 1e-9);
        assert!((rs[9].1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn resample_empty() {
        let ts = TimeSeries::new("x");
        assert!(ts.resample(10).is_empty());
        assert_eq!(ts.min(), None);
        assert_eq!(ts.mean(), None);
        assert_eq!(ts.max(), None);
    }

    #[test]
    fn resample_zero_buckets() {
        let mut ts = TimeSeries::new("x");
        ts.push(0, 1.0);
        assert!(ts.resample(0).is_empty());
    }

    #[test]
    fn resample_single_sample() {
        let mut ts = TimeSeries::new("x");
        ts.push(1_000, 7.5);
        let rs = ts.resample(4);
        assert_eq!(rs.len(), 4);
        // The lone sample lands in the first bucket and carries forward.
        for &(_, v) in &rs {
            assert!((v - 7.5).abs() < 1e-12);
        }
        assert_eq!(ts.min(), Some(7.5));
        assert_eq!(ts.max(), Some(7.5));
        assert!((ts.mean().unwrap() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn resample_includes_final_sample() {
        // Regression: the last bucket's right bound used to be open, so a
        // level change at exactly t == end was silently dropped.
        let mut ts = TimeSeries::new("x");
        for t in 0..10u64 {
            ts.push(t, 1.0);
        }
        ts.push(10, 100.0);
        let rs = ts.resample(5);
        assert_eq!(rs.len(), 5);
        let last = rs.last().unwrap().1;
        assert!(last > 1.0, "final sample included in last bucket: {last}");
    }

    #[test]
    fn resample_bucket_count_exceeds_samples() {
        let mut ts = TimeSeries::new("x");
        ts.push(0, 1.0);
        ts.push(100, 3.0);
        let rs = ts.resample(10);
        assert_eq!(rs.len(), 10);
        assert!((rs[0].1 - 1.0).abs() < 1e-12);
        assert!((rs[9].1 - 3.0).abs() < 1e-12);
        // Empty middle windows carry the previous level forward.
        assert!((rs[5].1 - 1.0).abs() < 1e-12);
    }
}
