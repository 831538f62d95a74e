//! Seeded fuzz of the survey's wire format, `CellSummary::{encode,
//! decode}` — what a shard process streams back to its supervisor.
//!
//! The inputs are the bytes of a real 64-machine survey's summary, mutated
//! — flipped bytes, truncation at every field boundary and at random
//! points, appended bytes, a coverage that claims more folded than planned
//! machines — and random bytes of random length. They hold the decoder to
//! three properties:
//!
//! 1. `CellSummary::decode` returns `Ok` or `Err`, never a panic;
//! 2. every `Ok` re-encodes to exactly the input bytes;
//! 3. the summaries of a survey's leaf-aligned shard spans, encoded,
//!    decoded and merged in shard order, equal the whole fold's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use warehouse_alloc::fleet::experiment::{
    default_platform_mix, try_run_fleet_survey, try_run_fleet_survey_span, CellSummary,
    FleetSurveyConfig, METRIC_COUNT,
};
use warehouse_alloc::parallel::{process_shard_span, Engine};
use warehouse_alloc::prng::SmallRng;
use warehouse_alloc::tcmalloc::TcmallocConfig;
use warehouse_alloc::telemetry::summary::{BucketSeries, MetricSummary, SERIES_BUCKETS};

/// Mutated summaries, and random inputs, each seeded by its index.
const MUTATIONS: u64 = 2_000;
const RANDOM: u64 = 500;

fn survey_config() -> FleetSurveyConfig {
    FleetSurveyConfig {
        machines: 64,
        requests_per_machine: 16,
        seed: 42,
        platform_mix: default_platform_mix(),
        population: 32,
        diurnal_period_ns: 1_000_000,
        rollout_stage: 2,
    }
}

fn arms() -> (TcmallocConfig, TcmallocConfig) {
    (TcmallocConfig::baseline(), TcmallocConfig::optimized())
}

/// The width of every field of the wire layout, in order. Derived from the
/// encoders of the parts and checked against a whole encoding.
fn field_widths() -> Vec<usize> {
    let mut metric = Vec::new();
    MetricSummary::new().encode_into(&mut metric);
    // count, Σq, Σwq, Σw, min, max, then the histogram's u64 slots.
    let head = [8, 16, 16, 16, 8, 8];
    let slots = (metric.len() - head.iter().sum::<usize>()) / 8;
    let mut widths = vec![8, 8, 8]; // cells, coverage planned and folded
    for _ in 0..2 * METRIC_COUNT {
        widths.extend(head);
        widths.extend(std::iter::repeat_n(8, slots));
    }
    widths.extend(std::iter::repeat_n(8, SERIES_BUCKETS));
    widths.extend(std::iter::repeat_n(16, SERIES_BUCKETS));
    let mut series = Vec::new();
    BucketSeries::new().encode_into(&mut series);
    assert_eq!(series.len(), SERIES_BUCKETS * 24, "bucket series layout");
    widths
}

/// Decodes `bytes` and holds properties 1 and 2; returns whether it
/// decoded.
fn check(bytes: &[u8], what: &str) -> bool {
    let decoded = catch_unwind(AssertUnwindSafe(|| CellSummary::decode(bytes)))
        .unwrap_or_else(|_| panic!("{what}: decode panicked on {} bytes", bytes.len()));
    match decoded {
        Ok(summary) => {
            assert!(
                summary.encode() == bytes,
                "{what}: a decoded summary re-encodes to other bytes"
            );
            true
        }
        Err(_) => false,
    }
}

fn mutate(rng: &mut SmallRng, valid: &[u8], boundaries: &[usize]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for _ in 0..rng.gen_range(1u32..4) {
        match rng.gen_range(0u32..5) {
            0 => {
                // Flip bytes.
                for _ in 0..rng.gen_range(1u32..9) {
                    if !bytes.is_empty() {
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] = rng.gen::<u64>() as u8;
                    }
                }
            }
            1 => {
                // Truncate at a field boundary.
                let cut = boundaries[rng.gen_range(0..boundaries.len())];
                bytes.truncate(cut);
            }
            2 => {
                // Truncate anywhere.
                let cut = rng.gen_range(0..bytes.len() + 1);
                bytes.truncate(cut);
            }
            3 => {
                // Append bytes.
                for _ in 0..rng.gen_range(1u32..33) {
                    bytes.push(rng.gen::<u64>() as u8);
                }
            }
            _ => {
                // A coverage that folded more machines than it planned.
                if bytes.len() >= 24 {
                    let planned = rng.gen_range(0..u64::MAX);
                    let folded = rng.gen_range(planned..=u64::MAX).max(planned + 1);
                    bytes[8..16].copy_from_slice(&planned.to_le_bytes());
                    bytes[16..24].copy_from_slice(&folded.to_le_bytes());
                }
            }
        }
    }
    bytes
}

#[test]
fn the_summary_decoder_is_total_and_exact() {
    let cfg = survey_config();
    let (control, experiment) = arms();
    let whole = try_run_fleet_survey(&Engine::serial(), control, experiment, &cfg)
        .expect("the survey runs")
        .summary;
    let valid = whole.encode();
    let widths = field_widths();
    assert_eq!(
        widths.iter().sum::<usize>(),
        valid.len(),
        "the field widths tile the encoding"
    );
    assert!(check(&valid, "the survey's own bytes"));

    // Every field boundary, and one byte either side.
    let mut boundaries = vec![0];
    for w in &widths {
        boundaries.push(boundaries[boundaries.len() - 1] + w);
    }
    for &at in &boundaries {
        for cut in [at.saturating_sub(1), at, at + 1] {
            let cut = cut.min(valid.len());
            let ok = check(&valid[..cut], &format!("truncated to {cut}"));
            assert_eq!(ok, cut == valid.len(), "truncation to {cut} bytes");
        }
    }

    let mut decoded = 0;
    for case in 0..MUTATIONS {
        let mut rng = SmallRng::seed_from_u64(case);
        let bytes = mutate(&mut rng, &valid, &boundaries);
        decoded += u32::from(check(&bytes, &format!("mutation {case}")));
    }
    for case in 0..RANDOM {
        let mut rng = SmallRng::seed_from_u64(!case);
        // Around the valid length as often as far from it.
        let len = if case % 2 == 0 {
            valid.len()
        } else {
            rng.gen_range(0..2 * valid.len())
        };
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
        decoded += u32::from(check(&bytes, &format!("random input {case}")));
    }
    // Flips inside a field decode: the format has no checksum of its own
    // (the shard frame carries one), so the decoder must stay exact on them.
    assert!(decoded > 0, "some mutated inputs decode");
}

#[test]
fn decoded_shard_summaries_merge_to_the_whole_fold() {
    let cfg = survey_config();
    let (control, experiment) = arms();
    let engine = Engine::new(2);
    let whole = try_run_fleet_survey(&engine, control, experiment, &cfg)
        .expect("the survey runs")
        .summary;
    for shards in [2, 3, 4] {
        let mut merged = CellSummary::new();
        for shard in 0..shards {
            let span = process_shard_span(cfg.machines, shard, shards);
            let part = try_run_fleet_survey_span(&engine, control, experiment, &cfg, span)
                .expect("the span runs");
            let wire = CellSummary::decode(&part.encode()).expect("a span's bytes decode");
            merged.merge(&wire);
        }
        assert!(
            merged.encode() == whole.encode(),
            "{shards} decoded shard spans merge to other bytes than the whole fold"
        );
    }
}
