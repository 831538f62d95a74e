//! Streaming-fold determinism suite for the fleet survey: the same survey
//! at any thread count, and any leaf-aligned shard-span partition, must
//! fold to byte-identical `CellSummary` encodings.

use warehouse_alloc::fleet::experiment::{
    default_platform_mix, try_run_fleet_survey, try_run_fleet_survey_span, CellSummary,
    FleetSurveyConfig,
};
use warehouse_alloc::parallel::{process_shard_span, Engine, FoldSpan};
use warehouse_alloc::tcmalloc::TcmallocConfig;

fn survey_cfg(seed: u64) -> FleetSurveyConfig {
    FleetSurveyConfig {
        machines: 60,
        requests_per_machine: 24,
        seed,
        platform_mix: default_platform_mix(),
        population: 40,
        diurnal_period_ns: 500_000,
        rollout_stage: 2,
    }
}

#[test]
fn survey_identical_at_threads_1_2_8() {
    let cfg = survey_cfg(17);
    let control = TcmallocConfig::baseline();
    let experiment = TcmallocConfig::optimized();
    let serial = try_run_fleet_survey(&Engine::new(1), control, experiment, &cfg)
        .expect("no machine panics");
    let serial_bytes = serial.summary.encode();
    assert_eq!(serial.summary.cells, 60);
    for threads in [2usize, 8] {
        let threaded = try_run_fleet_survey(&Engine::new(threads), control, experiment, &cfg)
            .expect("no machine panics");
        assert_eq!(
            serial_bytes,
            threaded.summary.encode(),
            "threads={threads} vs serial"
        );
    }
}

#[test]
fn survey_shard_spans_compose_byte_identically() {
    // Merging leaf-aligned span folds in shard order must reproduce the
    // whole fold exactly — the property the process-shard protocol ships
    // over a pipe.
    let cfg = survey_cfg(19);
    let control = TcmallocConfig::baseline();
    let experiment = TcmallocConfig::optimized();
    let engine = Engine::new(2);
    let whole = try_run_fleet_survey_span(
        &engine,
        control,
        experiment,
        &cfg,
        FoldSpan::all(cfg.machines),
    )
    .expect("no machine panics");
    for shards in [1usize, 2, 4] {
        let mut merged = CellSummary::new();
        for s in 0..shards {
            let span = process_shard_span(cfg.machines, s, shards);
            let part = try_run_fleet_survey_span(&engine, control, experiment, &cfg, span)
                .expect("no machine panics");
            merged.merge(&part);
        }
        assert_eq!(
            whole.encode(),
            merged.encode(),
            "shards={shards} vs whole fold"
        );
    }
}
