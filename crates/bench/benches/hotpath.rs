//! Hot-path microbenchmarks: the most-executed lookups in every alloc/free
//! — pointer → span classification under all three pagemap arms (radix
//! tree, address-masking, retired per-page hash map), span-metadata walks
//! over the arena'd dense pools vs the retired per-span boxed layout, and
//! size → class selection — plus end-to-end malloc/free fast-path
//! throughput (observed by a trace ring under either pagemap arm, and with
//! nobody listening) and mixed churn. Emits `BENCH_hotpath.json`.
//!
//! The pagemap section maps 1M TCMalloc pages (8 GiB of address space)
//! into all three structures, asserts that they classify **every** pointer
//! in the lookup stream (plus every segment-boundary probe) identically,
//! then times the identical seeded stream against each arm in interleaved
//! best-of rounds so slow machine drift cannot bias one arm. Size streams
//! for the allocation sections are **precomputed** — the seed bench
//! sampled the Fig. 7 mix inside the timed loop, hiding ~40% of the fast
//! path behind RNG cost, which is the misreporting this layout fixes.
//!
//! Gates — all machine-independent relative quantities from the same run:
//! - three-way pointer agreement (hard assert, every pointer + boundaries)
//! - `classify_speedup` (radix vs per-page hash)            >= 3.0
//! - `masking_vs_radix_speedup` (pure classification)       >= 1.05
//! - `combined_fastpath_speedup` >= 1.5: the combined metadata walk
//!   (masking `span_of` + arena dense-pool reads) vs the committed
//!   per-page baseline walk (hash `span_of` + retired boxed per-span
//!   layout)
//! - cycle ledgers byte-identical across all end-to-end arms — radix vs
//!   masking pagemap, observed vs unobserved bus (hard assert)
//!
//! The combined-vs-radix-arm walk ratio is also reported (`ungated`): on
//! uniform random streams both arms are cache-miss bound and land within
//! ~±15% of each other; the masking arm's win is on the classification
//! step itself, gated above.
//!
//! `REPRO_SCALE` sizes the op counts as everywhere else.

use std::hint::black_box;
use std::time::Instant;
use wsc_bench::harness::JsonReport;
use wsc_bench::Scale;
use wsc_prng::SmallRng;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;
use wsc_sim_os::clock::Clock;
use wsc_sim_os::vmm::HEAP_BASE;
use wsc_tcmalloc::pagemap::{HashPageMap, MaskingPageMap, PageMap, PAGES_PER_SEGMENT};
use wsc_tcmalloc::span::{Span, SpanRegistry, SpanState};
use wsc_tcmalloc::{PagemapArm, SpanId, Tcmalloc, TcmallocConfig};
use wsc_workload::profiles;

/// Cargo runs benches with cwd = the package dir; anchor the report to the
/// workspace root so CI finds it at a fixed path.
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");

/// Mapped extent for the classification benchmark: 1M pages, the scale the
/// acceptance thresholds are defined at. Fixed regardless of `REPRO_SCALE`.
const MAPPED_PAGES: u64 = 1 << 20;

/// Interleaved timing rounds; each arm keeps its best round.
const ROUNDS: usize = 5;

/// The retired pre-arena span record: scalars plus per-span heap-allocated
/// free stack and double-free bitmap, stored inline in the registry vector.
/// The arena refactor replaced the two per-span heap buffers with dense
/// pools; this reconstruction is the committed baseline the walk race
/// measures against.
struct RetiredSpan {
    object_size: u64,
    free: Vec<u32>,
    /// Carried for layout fidelity (the retired record paid for the Vec
    /// header inline even when the bitmap went untouched on the hot path).
    #[allow(dead_code)]
    bitmap: Vec<u64>,
}

/// Every pagemap arm plus both span-metadata layouts, built over the same
/// seeded span layout (contiguous 1–8 page spans covering exactly
/// [`MAPPED_PAGES`] pages from `HEAP_BASE`).
struct Maps {
    radix: PageMap,
    mask: MaskingPageMap,
    hash: HashPageMap,
    registry: SpanRegistry,
    retired: Vec<Option<RetiredSpan>>,
    spans: u64,
}

fn build_maps(seed: u64) -> Maps {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut radix = PageMap::new();
    let mut mask = MaskingPageMap::new();
    let mut hash = HashPageMap::new();
    let mut registry = SpanRegistry::new();
    let mut retired: Vec<Option<RetiredSpan>> = Vec::new();
    let mut page = 0u64;
    let mut spans = 0u64;
    while page < MAPPED_PAGES {
        let len = rng.gen_range(1u64..=8).min(MAPPED_PAGES - page) as u32;
        let addr = HEAP_BASE + page * TCMALLOC_PAGE_BYTES;
        let id = registry.insert(Span {
            start: addr,
            pages: len,
            size_class: Some((spans % 60) as u16),
            object_size: TCMALLOC_PAGE_BYTES,
            capacity: len,
            allocated: 0,
            state: SpanState::Full,
            owner: None,
            pending_obs: None,
        });
        assert_eq!(id, SpanId(spans as u32), "registry ids must be dense");
        retired.push(Some(RetiredSpan {
            object_size: TCMALLOC_PAGE_BYTES,
            free: (0..len).rev().collect(),
            bitmap: vec![0u64; len.div_ceil(64) as usize],
        }));
        radix.set_range(addr, len, id);
        mask.set_range(addr, len, id);
        hash.set_range(addr, len, id);
        page += len as u64;
        spans += 1;
    }
    assert_eq!(radix.len() as u64, MAPPED_PAGES);
    assert_eq!(mask.len() as u64, MAPPED_PAGES);
    assert_eq!(hash.len() as u64, MAPPED_PAGES);
    Maps {
        radix,
        mask,
        hash,
        registry,
        retired,
        spans,
    }
}

/// A seeded pointer stream over the mapped extent (interior pointers, not
/// just span bases — free() sees arbitrary object addresses).
fn lookup_stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| HEAP_BASE + rng.gen_range(0..MAPPED_PAGES * TCMALLOC_PAGE_BYTES))
        .collect()
}

/// Sums classified span ids over the stream — the checksum keeps the
/// lookups observable so no loop can be optimized away.
fn classify_sum_radix(map: &PageMap, addrs: &[u64]) -> u64 {
    let mut sum = 0u64;
    for &a in addrs {
        if let Some(id) = map.span_of(black_box(a)) {
            sum = sum.wrapping_add(id.0 as u64);
        }
    }
    sum
}

fn classify_sum_masking(map: &MaskingPageMap, addrs: &[u64]) -> u64 {
    let mut sum = 0u64;
    for &a in addrs {
        if let Some(id) = map.span_of(black_box(a)) {
            sum = sum.wrapping_add(id.0 as u64);
        }
    }
    sum
}

fn classify_sum_hash(map: &HashPageMap, addrs: &[u64]) -> u64 {
    let mut sum = 0u64;
    for &a in addrs {
        if let Some(id) = map.span_of(black_box(a)) {
            sum = sum.wrapping_add(id.0 as u64);
        }
    }
    sum
}

/// The committed baseline metadata walk: per-page hash classification, then
/// the retired boxed per-span record (inline scalars + heap free stack).
fn walk_sum_retired(map: &HashPageMap, retired: &[Option<RetiredSpan>], addrs: &[u64]) -> u64 {
    let mut sum = 0u64;
    for &a in addrs {
        if let Some(id) = map.span_of(black_box(a)) {
            if let Some(f) = &retired[id.index()] {
                sum = sum
                    .wrapping_add(f.object_size)
                    .wrapping_add(*f.free.last().unwrap_or(&0) as u64);
            }
        }
    }
    sum
}

/// Same walk against the radix arm (reported ungated for context).
fn walk_sum_radix_retired(map: &PageMap, retired: &[Option<RetiredSpan>], addrs: &[u64]) -> u64 {
    let mut sum = 0u64;
    for &a in addrs {
        if let Some(id) = map.span_of(black_box(a)) {
            if let Some(f) = &retired[id.index()] {
                sum = sum
                    .wrapping_add(f.object_size)
                    .wrapping_add(*f.free.last().unwrap_or(&0) as u64);
            }
        }
    }
    sum
}

/// The combined fast-path walk this PR installs: address-masking
/// classification, then the arena'd registry — dense span vector plus the
/// dense free-stack pool ([`SpanRegistry::peek_free`]), no per-span heap
/// chase.
fn walk_sum_combined(map: &MaskingPageMap, registry: &SpanRegistry, addrs: &[u64]) -> u64 {
    let mut sum = 0u64;
    for &a in addrs {
        if let Some(id) = map.span_of(black_box(a)) {
            sum = sum
                .wrapping_add(registry.get(id).object_size)
                .wrapping_add(registry.peek_free(id).unwrap_or(0) as u64);
        }
    }
    sum
}

/// Size-classification throughput for both implementations over the same
/// precomputed size stream: the dense O(1) table vs the retired binary
/// search. Agreement is asserted over the whole stream before timing.
fn size_class_mops(ops: u64) -> (f64, f64) {
    let table = wsc_tcmalloc::size_class::SizeClassTable::production();
    let spec = profiles::fleet_mix();
    let mut rng = SmallRng::seed_from_u64(0x51);
    let sizes: Vec<u64> = (0..ops).map(|_| spec.sample_size(0, &mut rng).0).collect();
    for &s in &sizes {
        assert_eq!(
            table.class_for(s),
            table.class_for_search(s),
            "lut/search divergence at size {s}"
        );
    }
    let mut best_lut = f64::MAX;
    let mut best_search = f64::MAX;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let mut sum = 0usize;
        for &s in &sizes {
            if let Some(cl) = table.class_for(black_box(s)) {
                sum = sum.wrapping_add(cl);
            }
        }
        best_lut = best_lut.min(t.elapsed().as_nanos() as f64);
        black_box(sum);
        let t = Instant::now();
        let mut sum = 0usize;
        for &s in &sizes {
            if let Some(cl) = table.class_for_search(black_box(s)) {
                sum = sum.wrapping_add(cl);
            }
        }
        best_search = best_search.min(t.elapsed().as_nanos() as f64);
        black_box(sum);
    }
    (
        ops as f64 * 1e3 / best_lut.max(1.0),
        ops as f64 * 1e3 / best_search.max(1.0),
    )
}

/// One end-to-end arm: a warmed allocator driven over the shared
/// precomputed size stream.
struct Arm {
    name: &'static str,
    tcm: Tcmalloc,
    best_ns_per_pair: f64,
}

fn make_arm(name: &'static str, cfg: TcmallocConfig, sizes: &[u64]) -> Arm {
    let clock = Clock::new();
    let platform = Platform::chiplet("bench", 1, 2, 4, 2);
    let mut tcm = Tcmalloc::new(cfg, platform, clock);
    // Warm the caches so the timed rounds measure the fast path, not
    // cold-start pageheap traffic.
    for (i, &size) in sizes.iter().take(1_000).enumerate() {
        let cpu = CpuId((i as u32) % 8);
        let a = tcm.malloc(size, cpu);
        tcm.free(a.addr, size, cpu);
    }
    Arm {
        name,
        tcm,
        best_ns_per_pair: f64::MAX,
    }
}

fn run_pairs(tcm: &mut Tcmalloc, sizes: &[u64]) -> f64 {
    let t = Instant::now();
    for (i, &size) in sizes.iter().enumerate() {
        let cpu = CpuId((i as u32) % 8);
        let a = tcm.malloc(black_box(size), cpu);
        tcm.free(a.addr, size, cpu);
    }
    t.elapsed().as_nanos() as f64 / sizes.len() as f64
}

/// Mixed churn: a live set with seeded alloc/free interleaving, the shape
/// the simulator's inner loop actually runs. Decisions and sizes are
/// precomputed — only the allocator runs inside the timing window.
fn churn_mops(ops: u64) -> f64 {
    let spec = profiles::fleet_mix();
    let mut rng = SmallRng::seed_from_u64(0xC4);
    let decisions: Vec<(f64, u64, u64)> = (0..ops)
        .map(|_| {
            let choice = rng.gen::<f64>();
            let victim = rng.gen::<u64>();
            let size = spec.sample_size(0, &mut rng).0;
            (choice, victim, size)
        })
        .collect();
    let clock = Clock::new();
    let platform = Platform::chiplet("bench", 1, 2, 4, 2);
    let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), platform, clock.clone());
    let mut live: Vec<(u64, u64)> = Vec::new();
    let t = Instant::now();
    for (i, &(choice, victim, size)) in decisions.iter().enumerate() {
        clock.advance(500);
        let cpu = CpuId((i as u32) % 16);
        if live.len() > 2_000 || (!live.is_empty() && choice < 0.45) {
            let k = (victim % live.len() as u64) as usize;
            let (addr, size) = live.swap_remove(k);
            tcm.free(addr, size, cpu);
        } else {
            let a = tcm.malloc(black_box(size), cpu);
            live.push((a.addr, size));
        }
        tcm.maintain();
    }
    let ns = t.elapsed().as_nanos() as f64;
    for (addr, size) in live {
        tcm.free(addr, size, CpuId(0));
    }
    ops as f64 * 1e3 / ns.max(1.0)
}

fn main() {
    let scale = Scale::from_env();
    let lookups = match scale.name {
        "quick" => 1_000_000usize,
        "full" => 8_000_000,
        _ => 4_000_000,
    };
    let pairs = match scale.name {
        "quick" => 300_000usize,
        "full" => 2_000_000,
        _ => 1_000_000,
    };
    let alloc_ops = scale.requests;
    println!("== hot-path lookups: radix vs masking vs per-page hash ==");
    println!(
        "(scale {}, {MAPPED_PAGES} mapped pages, {lookups} lookups, best of {ROUNDS})",
        scale.name
    );

    let maps = build_maps(0xF1EE7);
    let addrs = lookup_stream(0x10C, lookups);

    // Same-run agreement: all three arms must classify every pointer in
    // the stream identically before timing starts, including every
    // segment-boundary probe (the addresses where the masking arm's
    // `ptr & SEGMENT_MASK` arithmetic changes slot).
    for &a in &addrs {
        let r = maps.radix.span_of(a);
        assert_eq!(r, maps.mask.span_of(a), "radix/masking disagree at {a:#x}");
        assert_eq!(r, maps.hash.span_of(a), "radix/hash disagree at {a:#x}");
    }
    let seg_bytes = PAGES_PER_SEGMENT * TCMALLOC_PAGE_BYTES;
    let segments = MAPPED_PAGES * TCMALLOC_PAGE_BYTES / seg_bytes;
    for s in 0..=segments {
        for probe in [
            (s > 0).then(|| HEAP_BASE + s * seg_bytes - 1),
            (s < segments).then_some(HEAP_BASE + s * seg_bytes),
        ]
        .into_iter()
        .flatten()
        {
            let r = maps.radix.span_of(probe);
            assert_eq!(
                r,
                maps.mask.span_of(probe),
                "radix/masking disagree at segment boundary {probe:#x}"
            );
            assert_eq!(
                r,
                maps.hash.span_of(probe),
                "radix/hash disagree at segment boundary {probe:#x}"
            );
        }
    }
    let agreement = true;

    // Interleaved best-of classification race. Each round times all three
    // arms back to back so machine drift hits every arm equally.
    let mut best = [f64::MAX; 3];
    let mut sums = [0u64; 3];
    for _ in 0..ROUNDS {
        let t = Instant::now();
        sums[0] = classify_sum_radix(&maps.radix, &addrs);
        best[0] = best[0].min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        sums[1] = classify_sum_masking(&maps.mask, &addrs);
        best[1] = best[1].min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        sums[2] = classify_sum_hash(&maps.hash, &addrs);
        best[2] = best[2].min(t.elapsed().as_nanos() as f64);
    }
    assert_eq!(sums[0], sums[1], "radix/masking checksums diverge");
    assert_eq!(sums[0], sums[2], "radix/hash checksums diverge");
    let radix_mops = addrs.len() as f64 * 1e3 / best[0].max(1.0);
    let masking_mops = addrs.len() as f64 * 1e3 / best[1].max(1.0);
    let hash_mops = addrs.len() as f64 * 1e3 / best[2].max(1.0);
    let classify_speedup = radix_mops / hash_mops.max(f64::MIN_POSITIVE);
    let masking_vs_radix = masking_mops / radix_mops.max(f64::MIN_POSITIVE);
    println!("free-classification  radix  {radix_mops:>8.1} Mops/s");
    println!(
        "free-classification  masking{masking_mops:>8.1} Mops/s  ({masking_vs_radix:.2}x vs radix)"
    );
    println!(
        "free-classification  hash   {hash_mops:>8.1} Mops/s  (radix = {classify_speedup:.2}x)"
    );
    assert!(
        classify_speedup >= 3.0,
        "radix pagemap must be >= 3x the per-page hash map, got {classify_speedup:.2}x"
    );
    assert!(
        masking_vs_radix >= 1.05,
        "masking arm must beat the radix walk on classification, got {masking_vs_radix:.2}x"
    );

    // Metadata walk race: classification plus the span-record reads every
    // free performs. The combined fast path (masking + arena pools) is
    // gated >= 1.5x against the committed per-page baseline walk; the
    // radix-arm walk is reported ungated (both arms are miss-bound on a
    // uniform stream and land within ~±15%).
    let mut wbest = [f64::MAX; 3];
    let mut wsums = [0u64; 3];
    for _ in 0..ROUNDS {
        let t = Instant::now();
        wsums[0] = walk_sum_retired(&maps.hash, &maps.retired, &addrs);
        wbest[0] = wbest[0].min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        wsums[1] = walk_sum_combined(&maps.mask, &maps.registry, &addrs);
        wbest[1] = wbest[1].min(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        wsums[2] = walk_sum_radix_retired(&maps.radix, &maps.retired, &addrs);
        wbest[2] = wbest[2].min(t.elapsed().as_nanos() as f64);
    }
    assert_eq!(
        wsums[0], wsums[1],
        "retired and arena walks must read identical metadata"
    );
    assert_eq!(wsums[0], wsums[2]);
    let hash_walk_mops = addrs.len() as f64 * 1e3 / wbest[0].max(1.0);
    let combined_walk_mops = addrs.len() as f64 * 1e3 / wbest[1].max(1.0);
    let radix_walk_mops = addrs.len() as f64 * 1e3 / wbest[2].max(1.0);
    let combined_fastpath_speedup = combined_walk_mops / hash_walk_mops.max(f64::MIN_POSITIVE);
    let combined_vs_radix_walk = combined_walk_mops / radix_walk_mops.max(f64::MIN_POSITIVE);
    println!(
        "metadata walk        baseline{hash_walk_mops:>7.1} Mops/s  (per-page hash + boxed spans)"
    );
    println!("metadata walk        radix  {radix_walk_mops:>8.1} Mops/s  (radix + boxed spans)");
    println!(
        "metadata walk        combined{combined_walk_mops:>7.1} Mops/s  ({combined_fastpath_speedup:.2}x vs baseline, {combined_vs_radix_walk:.2}x vs radix)"
    );
    assert!(
        combined_fastpath_speedup >= 1.5,
        "combined fast path (masking + arena) must clear 1.5x over the committed per-page baseline, got {combined_fastpath_speedup:.2}x"
    );

    let (lut_mops, search_mops) = size_class_mops(alloc_ops.max(100_000));
    let lut_speedup = lut_mops / search_mops.max(f64::MIN_POSITIVE);
    println!("size-class lookup    lut    {lut_mops:>8.1} Mops/s");
    println!("size-class lookup    search {search_mops:>8.1} Mops/s  ({lut_speedup:.2}x)");

    // End-to-end fast path over the same precomputed size stream in
    // interleaved rounds: under fleet observability (trace ring attached,
    // the always-on profiling configuration the paper assumes) on either
    // pagemap arm, and with nobody listening to the bus.
    let spec = profiles::fleet_mix();
    let mut srng = SmallRng::seed_from_u64(0x407);
    let sizes: Vec<u64> = (0..pairs)
        .map(|_| spec.sample_size(0, &mut srng).0)
        .collect();
    let mut arms = [
        make_arm(
            "radix/traced",
            TcmallocConfig::optimized()
                .with_trace(4096)
                .with_pagemap_arm(PagemapArm::Radix),
            &sizes,
        ),
        make_arm(
            "masking/traced",
            TcmallocConfig::optimized()
                .with_trace(4096)
                .with_pagemap_arm(PagemapArm::Masking),
            &sizes,
        ),
        make_arm("masking/unobserved", TcmallocConfig::optimized(), &sizes),
    ];
    for _ in 0..ROUNDS {
        for arm in &mut arms {
            let ns = run_pairs(&mut arm.tcm, &sizes);
            arm.best_ns_per_pair = arm.best_ns_per_pair.min(ns);
        }
    }
    for arm in &arms {
        println!(
            "fast path            {:<19}{:>6.1} ns/pair  ({:.2} Mops/s)",
            arm.name,
            arm.best_ns_per_pair,
            2.0 * 1e3 / arm.best_ns_per_pair
        );
    }

    // Neither the pagemap arm nor who listens to the bus may show in the
    // simulated ledger: same ops, byte-identical cycle accounting.
    let cycles0 = arms[0].tcm.cycles().clone();
    assert_eq!(
        &cycles0,
        arms[1].tcm.cycles(),
        "the pagemap arm changed the cycle ledger"
    );
    assert_eq!(
        &cycles0,
        arms[2].tcm.cycles(),
        "an unobserved bus booked a different cycle ledger"
    );
    let cycles_identical = true;
    println!("cycle ledgers identical across all arms");

    let fast_mops = 2.0 * 1e3 / arms[0].best_ns_per_pair;
    let masking_fast_mops = 2.0 * 1e3 / arms[1].best_ns_per_pair;
    let unobserved_fast_mops = 2.0 * 1e3 / arms[2].best_ns_per_pair;
    let churn = churn_mops(alloc_ops);
    println!("mixed churn          {churn:>8.2} Mops/s");

    let mut report = JsonReport::new();
    report
        .text("bench", "hotpath/lookups")
        .text("scale", scale.name)
        .int("mapped_pages", MAPPED_PAGES)
        .int("spans", maps.spans)
        .int("lookups", addrs.len() as u64)
        .int("rounds", ROUNDS as u64)
        .num("radix_classify_mops", radix_mops)
        .num("masking_classify_mops", masking_mops)
        .num("hash_classify_mops", hash_mops)
        .num("classify_speedup", classify_speedup)
        .num("masking_vs_radix_speedup", masking_vs_radix)
        .flag("agreement", agreement)
        .num("hash_walk_mops", hash_walk_mops)
        .num("radix_walk_mops", radix_walk_mops)
        .num("combined_walk_mops", combined_walk_mops)
        .num("combined_fastpath_speedup", combined_fastpath_speedup)
        .num("combined_vs_radix_walk", combined_vs_radix_walk)
        .num("lut_classify_mops", lut_mops)
        .num("search_classify_mops", search_mops)
        .num("lut_speedup", lut_speedup)
        .num("malloc_fast_path_mops", fast_mops)
        .num("masking_fast_path_mops", masking_fast_mops)
        .num("unobserved_fast_path_mops", unobserved_fast_mops)
        .flag("cycles_identical", cycles_identical)
        .num("mixed_churn_mops", churn);
    report
        .write(OUT_PATH)
        .unwrap_or_else(|e| panic!("writing {OUT_PATH}: {e}"));
    println!("wrote {OUT_PATH}");
}
