//! Property tests on the allocator's core invariants, driven by arbitrary
//! operation sequences.
//!
//! Deterministic seeded-loop properties (hermetic replacement for the
//! original proptest strategies): each case derives its operation sequence
//! from a [`wsc_prng::SmallRng`] stream seeded with the case index. The
//! same op mix over every config cell, checked op by op against an
//! event-fed shadow heap, is `tests/config_lattice.rs`.

use std::collections::HashMap;
use warehouse_alloc::sim_hw::topology::{CpuId, Platform};
use warehouse_alloc::sim_os::clock::Clock;
use warehouse_alloc::tcmalloc::{SanitizeLevel, Tcmalloc, TcmallocConfig};
use wsc_prng::SmallRng;

#[derive(Clone, Debug)]
enum Op {
    /// Allocate `size` bytes from `cpu`.
    Malloc { size: u64, cpu: u8 },
    /// Free the k-th oldest live object from `cpu`.
    Free { k: u8, cpu: u8 },
    /// Advance time and run background maintenance.
    Tick { ms: u8 },
}

/// Mirrors the original proptest strategy weights: 4 malloc (with a size mix
/// spanning zero-size, small, mid, and large), 3 free, 1 tick.
fn sample_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..8) {
        0..=3 => {
            let size = match rng.gen_range(0u32..12) {
                0 => 0, // zero-size allocations are legal
                1..=8 => rng.gen_range(1u64..4096),
                9..=10 => rng.gen_range(4096u64..(256 << 10)),
                _ => rng.gen_range(256u64 << 10..(4 << 20)), // large path
            };
            Op::Malloc {
                size,
                cpu: rng.gen::<u8>(),
            }
        }
        4..=6 => Op::Free {
            k: rng.gen::<u8>(),
            cpu: rng.gen::<u8>(),
        },
        _ => Op::Tick {
            ms: rng.gen::<u8>(),
        },
    }
}

/// Runs `ops` against a fresh allocator; with `audit_every`, a sanitized
/// run also audits every that many operations.
fn run_ops(cfg: TcmallocConfig, ops: &[Op], audit_every: Option<usize>) {
    let sanitized = cfg.sanitize.is_on();
    let platform = Platform::chiplet("t", 1, 2, 4, 2);
    let clock = Clock::new();
    let mut tcm = Tcmalloc::new(cfg, platform, clock.clone());
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut expected_live_bytes = 0u64;
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Malloc { size, cpu } => {
                let out = tcm.malloc(size, CpuId(cpu as u32 % 16));
                // No two live objects may overlap in address space: the
                // returned object's base must be unused.
                assert!(
                    seen.insert(out.addr, size).is_none(),
                    "address {:#x} handed out twice",
                    out.addr
                );
                assert!(out.actual_bytes >= size);
                live.push((out.addr, size));
                expected_live_bytes += size;
            }
            Op::Free { k, cpu } => {
                if live.is_empty() {
                    continue;
                }
                let idx = k as usize % live.len();
                let (addr, size) = live.swap_remove(idx);
                seen.remove(&addr);
                tcm.free(addr, size, CpuId(cpu as u32 % 16));
                expected_live_bytes -= size;
            }
            Op::Tick { ms } => {
                clock.advance(ms as u64 * 1_000_000);
                tcm.maintain();
            }
        }
        assert_eq!(tcm.live_bytes(), expected_live_bytes, "live-byte tracking");
        assert_eq!(tcm.live_objects(), live.len() as u64);
        if sanitized && audit_every.is_some_and(|n| i % n == n - 1) {
            assert_eq!(tcm.audit_now(), 0, "op {i}: {:?}", tcm.sanitizer_reports());
        }
    }
    // Full teardown always succeeds and zeroes the accounting.
    for (addr, size) in live {
        tcm.free(addr, size, CpuId(0));
    }
    assert_eq!(tcm.live_bytes(), 0);
    assert_eq!(tcm.live_objects(), 0);
    let f = tcm.fragmentation();
    assert_eq!(f.internal_bytes, 0);
    // Identity: with nothing live, everything resident is cached somewhere.
    assert_eq!(f.resident_bytes, f.total_bytes());
    if sanitized {
        // A clean run must produce zero shadow reports, and a final
        // cross-tier audit must find every conservation invariant intact.
        assert_eq!(tcm.audit_now(), 0, "end-of-run audit found violations");
        let reports = tcm.take_sanitizer_reports();
        assert!(reports.is_empty(), "sanitizer reports: {reports:?}");
    }
}

fn ops_for_case(seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1usize..300);
    (0..n).map(|_| sample_op(&mut rng)).collect()
}

#[test]
fn allocator_invariants_hold_baseline() {
    for case in 0..48u64 {
        run_ops(
            TcmallocConfig::baseline(),
            &ops_for_case(0xA110 + case),
            None,
        );
    }
}

#[test]
fn allocator_invariants_hold_optimized() {
    for case in 0..48u64 {
        run_ops(
            TcmallocConfig::optimized(),
            &ops_for_case(0xA111 + case),
            None,
        );
    }
}

#[test]
fn allocator_invariants_hold_under_full_sanitizer() {
    // The tentpole property: with the shadow checker and conservation
    // audits fully on, arbitrary valid operation sequences never trigger a
    // single report — on either configuration.
    for case in 0..24u64 {
        run_ops(
            TcmallocConfig::baseline().with_sanitize(SanitizeLevel::Full),
            &ops_for_case(0xA112 + case),
            None,
        );
        run_ops(
            TcmallocConfig::optimized().with_sanitize(SanitizeLevel::Full),
            &ops_for_case(0xA113 + case),
            None,
        );
    }
}

#[test]
fn allocator_invariants_hold_under_64_op_audits() {
    for case in 0..12u64 {
        run_ops(
            TcmallocConfig::optimized().with_sanitize(SanitizeLevel::Full),
            &ops_for_case(0xA114 + case),
            Some(64),
        );
    }
}

#[test]
fn alloc_free_round_trip_any_size() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xA115 + case);
        let size = rng.gen_range(0u64..(8 << 20));
        let platform = Platform::chiplet("t", 1, 2, 4, 2);
        let mut tcm = Tcmalloc::new(TcmallocConfig::baseline(), platform, Clock::new());
        let a = tcm.malloc(size, CpuId(0));
        assert!(a.actual_bytes >= size);
        tcm.free(a.addr, size, CpuId(0));
        assert_eq!(tcm.live_bytes(), 0);
    }
}

#[test]
fn addresses_of_concurrent_objects_never_overlap() {
    for case in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(0xA116 + case);
        let n = rng.gen_range(2usize..100);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..(512 << 10))).collect();
        let platform = Platform::chiplet("t", 1, 2, 4, 2);
        let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), platform, Clock::new());
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let a = tcm.malloc(size, CpuId((i % 8) as u32));
            for &(start, len) in &ranges {
                assert!(
                    a.addr + a.actual_bytes <= start || start + len <= a.addr,
                    "overlap: [{:#x},+{}) vs [{:#x},+{})",
                    a.addr,
                    a.actual_bytes,
                    start,
                    len
                );
            }
            ranges.push((a.addr, a.actual_bytes));
        }
    }
}

#[test]
fn pagemap_matches_btreemap_oracle() {
    // Property: under arbitrary seeded set/clear/lookup sequences over page
    // numbers near zero, the pagemap agrees with a BTreeMap oracle on every
    // page — including ranges straddling leaf boundaries and lookups after
    // the hit cache has been primed and invalidated.
    use std::collections::BTreeMap;
    use warehouse_alloc::sim_os::addr::TCMALLOC_PAGE_BYTES;
    use warehouse_alloc::tcmalloc::pagemap::{Pagemap, PAGES_PER_LEAF};
    use warehouse_alloc::tcmalloc::span::SpanId;

    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0xA118 + case);
        let mut pm = Pagemap::new();
        let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
        let mut live: Vec<(u64, u32, u32)> = Vec::new(); // (first_page, len, id)
        let mut next_id = 0u32;
        // Bias the page space around a leaf boundary so straddles happen.
        let space = 3 * PAGES_PER_LEAF;
        for _ in 0..rng.gen_range(100usize..400) {
            match rng.gen_range(0u32..10) {
                // set_range over a free run
                0..=4 => {
                    let first = rng.gen_range(0..space);
                    let len = rng.gen_range(1u32..64);
                    if (first..first + len as u64).any(|p| oracle.contains_key(&p)) {
                        continue; // overlap would (correctly) panic
                    }
                    let id = next_id;
                    next_id += 1;
                    pm.set_range(first * TCMALLOC_PAGE_BYTES, len, SpanId(id));
                    for p in first..first + len as u64 {
                        oracle.insert(p, id);
                    }
                    live.push((first, len, id));
                }
                // clear_range of a live span
                5..=6 => {
                    if live.is_empty() {
                        continue;
                    }
                    let k = rng.gen_range(0..live.len());
                    let (first, len, _) = live.swap_remove(k);
                    pm.clear_range(first * TCMALLOC_PAGE_BYTES, len);
                    for p in first..first + len as u64 {
                        assert!(oracle.remove(&p).is_some());
                    }
                }
                // random-page lookup (arbitrary offset within the page)
                _ => {
                    let page = rng.gen_range(0..space);
                    let addr = page * TCMALLOC_PAGE_BYTES + rng.gen_range(0..TCMALLOC_PAGE_BYTES);
                    assert_eq!(
                        pm.span_of(addr),
                        oracle.get(&page).map(|&id| SpanId(id)),
                        "case {case}: lookup at page {page} diverged"
                    );
                }
            }
            assert_eq!(pm.len(), oracle.len(), "case {case}: page counts diverge");
        }
        // Full sweep: every page in the space must classify identically.
        for page in 0..space {
            assert_eq!(
                pm.span_of(page * TCMALLOC_PAGE_BYTES),
                oracle.get(&page).map(|&id| SpanId(id)),
                "case {case}: final sweep diverged at page {page}"
            );
        }
        // Leaf occupancy must equal the oracle's per-leaf tally.
        let mut want: BTreeMap<u64, u64> = BTreeMap::new();
        for &p in oracle.keys() {
            *want
                .entry((p / PAGES_PER_LEAF) * PAGES_PER_LEAF)
                .or_insert(0) += 1;
        }
        let got: BTreeMap<u64, u64> = pm
            .leaf_occupancy()
            .into_iter()
            .map(|l| (l.base_page, l.pages_used))
            .collect();
        assert_eq!(got, want, "case {case}: leaf occupancy diverged");
    }
}

#[test]
fn random_interleavings_replay_bit_identical_and_match_the_oracle() {
    // Property: for arbitrary seeded ownership/free-site schedules,
    // (a) replaying the same schedule twice under the deferred free arm is
    // bit-identical (fingerprint of the complete event stream included),
    // (b) the deferred arm's final heap agrees with the owner-only oracle
    // on the live set and its accounting, (c) the settling drain leaves
    // nothing in flight, and (d) the full sanitizer stays silent.
    use warehouse_alloc::tcmalloc::interleave::{replay, Schedule};
    use warehouse_alloc::tcmalloc::FreeArm;
    for case in 0..10u64 {
        let mut rng = SmallRng::seed_from_u64(0xA119 + case);
        let cpus = rng.gen_range(2u32..16);
        let ops = rng.gen_range(100usize..600);
        let sched = if rng.gen::<f64>() < 0.5 {
            let split = rng.gen_range(1..cpus);
            let producers: Vec<u32> = (0..split).collect();
            let consumers: Vec<u32> = (split..cpus).collect();
            Schedule::producer_consumer(rng.gen::<u64>(), &producers, &consumers, ops)
        } else {
            Schedule::thread_churn(rng.gen::<u64>(), cpus, ops)
        };
        let platform = Platform::chiplet("t", 1, 2, 4, 2);
        let oracle = replay(
            TcmallocConfig::optimized().with_sanitize(SanitizeLevel::Full),
            platform.clone(),
            &sched,
        );
        assert_eq!(oracle.sanitizer_findings, 0, "case {case}: oracle dirty");
        let cfg = TcmallocConfig::optimized()
            .with_free_arm(FreeArm::AtomicList)
            .with_sanitize(SanitizeLevel::Full);
        let a = replay(cfg, platform.clone(), &sched);
        let b = replay(cfg, platform, &sched);
        assert_eq!(a, b, "case {case}: replay diverged");
        assert_eq!(
            (a.live_objects, a.live_bytes, &a.live_sizes),
            (oracle.live_objects, oracle.live_bytes, &oracle.live_sizes),
            "case {case}: live set diverged from the owner-only oracle"
        );
        assert_eq!(a.in_flight, 0, "case {case}: undrained");
        assert_eq!(a.sanitizer_findings, 0, "case {case}: sanitizer findings");
    }
}

#[test]
fn random_experiment_specs_are_thread_count_invariant() {
    // Property: for arbitrary (small) fleet experiment specs, the merged
    // A/B report is byte-identical at 1 worker and at a random 2..=8
    // workers — the parallel engine's canonical-order merge never leaks
    // scheduling into results.
    use warehouse_alloc::fleet::experiment::{try_run_fleet_ab, FleetExperimentConfig};
    use warehouse_alloc::parallel::Engine;
    for case in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(0xA117 + case);
        let cfg = FleetExperimentConfig {
            machines: rng.gen_range(1usize..4),
            binaries_per_machine: rng.gen_range(1usize..3),
            requests_per_binary: rng.gen_range(200u64..900),
            seed: rng.gen::<u64>(),
            population: rng.gen_range(10usize..50),
        };
        let threads = rng.gen_range(2usize..9);
        let (control, experiment) = if rng.gen::<f64>() < 0.5 {
            (TcmallocConfig::baseline(), TcmallocConfig::optimized())
        } else {
            (TcmallocConfig::optimized(), TcmallocConfig::baseline())
        };
        let serial =
            try_run_fleet_ab(&Engine::new(1), control, experiment, &cfg).expect("no panics");
        let threaded =
            try_run_fleet_ab(&Engine::new(threads), control, experiment, &cfg).expect("no panics");
        assert_eq!(
            format!("{serial:?}"),
            format!("{threaded:?}"),
            "case {case}: spec {cfg:?} diverged at {threads} threads"
        );
    }
}
