//! Property tests for the telemetry primitives.
//!
//! Deterministic seeded-loop properties (hermetic replacement for the
//! original proptest strategies).

use wsc_prng::SmallRng;
use wsc_telemetry::histogram::LogHistogram;
use wsc_telemetry::stats::{pearson, spearman};
use wsc_telemetry::summary::{quantize_weight, MetricSummary};

fn vec_u64(
    rng: &mut SmallRng,
    range: std::ops::Range<u64>,
    len: std::ops::Range<usize>,
) -> Vec<u64> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen_range(range.clone())).collect()
}

#[test]
fn histogram_fractions_partition() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x7E11 + case);
        let values = vec_u64(&mut rng, 1..(1 << 30), 1..200);
        let cut = rng.gen_range(1u64..(1 << 30));
        let mut h = LogHistogram::default();
        for v in &values {
            h.record(*v, 2.0);
        }
        let below = h.fraction_below(cut);
        let above = h.fraction_at_or_above(cut);
        assert!((below + above - 1.0).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&below));
    }
}

#[test]
fn histogram_merge_is_additive() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x7E12 + case);
        let a = vec_u64(&mut rng, 1..(1 << 20), 1..100);
        let b = vec_u64(&mut rng, 1..(1 << 20), 1..100);
        let mut ha = LogHistogram::default();
        let mut hb = LogHistogram::default();
        let mut hall = LogHistogram::default();
        for v in &a {
            ha.record(*v, 1.0);
            hall.record(*v, 1.0);
        }
        for v in &b {
            hb.record(*v, 1.0);
            hall.record(*v, 1.0);
        }
        ha.merge(&hb);
        assert!((ha.count() - hall.count()).abs() < 1e-9);
        assert!(ha.iter().eq(hall.iter()));
    }
}

#[test]
fn metric_summary_merge_is_partition_invariant() {
    // Any partition of the records across summaries must fold to the same
    // bytes — the property the streaming fleet engine's thread/shard
    // determinism contract rests on.
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x7E18 + case);
        let records: Vec<(f64, u64)> = (0..rng.gen_range(1usize..200))
            .map(|_| {
                (
                    rng.gen_range(-1.0e8..1.0e8),
                    quantize_weight(rng.gen::<f64>()),
                )
            })
            .collect();
        let mut whole = MetricSummary::new();
        for &(v, w) in &records {
            whole.record(v, w);
        }
        let cut = rng.gen_range(0..=records.len());
        let mut left = MetricSummary::new();
        let mut right = MetricSummary::new();
        for &(v, w) in &records[..cut] {
            left.record(v, w);
        }
        for &(v, w) in &records[cut..] {
            right.record(v, w);
        }
        // Merge in *reverse* order: commutativity must hold exactly.
        right.merge(&left);
        assert_eq!(whole, right, "case {case} cut {cut}");
    }
}

#[test]
fn correlations_are_bounded() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x7E15 + case);
        let n = rng.gen_range(3usize..100);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0f64..100.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0f64..100.0)).collect();
        if let Some(r) = pearson(&xs, &ys) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
        if let Some(r) = spearman(&xs, &ys) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}

#[test]
fn spearman_detects_any_monotone_map() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x7E16 + case);
        let n = rng.gen_range(3usize..50);
        let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0f64..1000.0)).collect();
        // Deduplicate to get a strictly monotone relation.
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite floats"));
        xs.dedup();
        if xs.len() < 3 {
            continue;
        }
        let ys: Vec<f64> = xs.iter().map(|x| x.powi(3) + 2.0 * x).collect();
        let r = spearman(&xs, &ys).expect("enough points");
        assert!((r - 1.0).abs() < 1e-9);
    }
}
