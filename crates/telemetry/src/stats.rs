//! Summary statistics and correlation coefficients.
//!
//! The paper's Figure 16 reports a Spearman rank correlation of −0.75 between
//! span capacity and span return rate; [`spearman`] reproduces that
//! computation (tie-aware, using average ranks).

/// Arithmetic mean of a slice, or `None` if empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Weighted mean, or `None` if total weight is not positive.
pub fn weighted_mean(pairs: &[(f64, f64)]) -> Option<f64> {
    let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
    (total > 0.0).then(|| pairs.iter().map(|&(x, w)| x * w).sum::<f64>() / total)
}

/// Pearson linear correlation coefficient.
///
/// Returns `None` when the inputs have different lengths, fewer than two
/// points, or zero variance in either variable.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Average ranks (1-based) with ties receiving the mean of their rank range.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("non-finite value"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Ranks i+1 ..= j+1 share the average rank.
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for k in i..=j {
            out[idx[k]] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation coefficient (tie-aware).
///
/// Returns `None` under the same conditions as [`pearson`].
///
/// # Example
///
/// ```
/// use wsc_telemetry::stats::spearman;
///
/// // A perfectly monotone decreasing relation has rho = -1.
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [100.0, 50.0, 20.0, 1.0];
/// assert!((spearman(&x, &y).unwrap() + 1.0).abs() < 1e-9);
/// ```
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

/// Relative change `(new - old) / old` in percent.
///
/// Returns 0 when `old` is 0, which is the right convention for reporting
/// experiment deltas over possibly-empty baselines.
pub fn percent_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_a_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), None);
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(spearman(&[1.0], &[1.0]), None);
        assert_eq!(weighted_mean(&[]), None);
    }

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_zero_variance_is_none() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        // Monotone but nonlinear: Spearman sees 1, Pearson < 1.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-9);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[5.0, 1.0, 5.0]);
        assert_eq!(r, vec![2.5, 1.0, 2.5]);
    }

    #[test]
    fn percent_change_conventions() {
        assert!((percent_change(100.0, 101.4) - 1.4).abs() < 1e-9);
        assert!((percent_change(100.0, 96.6) + 3.4).abs() < 1e-9);
        assert_eq!(percent_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn weighted_mean_basic() {
        let w = weighted_mean(&[(1.0, 1.0), (3.0, 3.0)]).unwrap();
        assert!((w - 2.5).abs() < 1e-9);
    }
}
