//! Property tests for the hardware models.
//!
//! Deterministic seeded-loop properties (hermetic replacement for the
//! original proptest strategies): each case derives its inputs from a
//! [`wsc_prng::SmallRng`] stream seeded with the case index, so every run
//! explores the same input set and failures reproduce exactly.

use wsc_prng::SmallRng;
use wsc_sim_hw::cache::LlcModel;
use wsc_sim_hw::latency::LatencyModel;
use wsc_sim_hw::tlb::{PageSize, TlbGeometry, TlbSim};
use wsc_sim_hw::topology::{CpuId, DomainId, Platform};

#[test]
fn every_cpu_maps_into_valid_topology() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0x11A0 + case);
        let sockets = rng.gen_range(1u32..3);
        let domains = rng.gen_range(1u32..5);
        let cores = rng.gen_range(1u32..9);
        let smt = rng.gen_range(1u32..3);
        let p = Platform::chiplet("t", sockets, domains, cores, smt);
        for cpu in p.cpus() {
            let d = p.domain_of(cpu);
            assert!(d.index() < p.num_domains());
            assert!(p.socket_of(cpu).index() < sockets as usize);
        }
        assert_eq!(p.num_cpus(), (sockets * domains * cores * smt) as usize);
    }
}

#[test]
fn latency_is_symmetric_and_positive() {
    let p = Platform::chiplet("t", 2, 4, 4, 2);
    let m = LatencyModel::production();
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0x11A1 + case);
        let a = CpuId(rng.gen_range(0u32..64) % p.num_cpus() as u32);
        let b = CpuId(rng.gen_range(0u32..64) % p.num_cpus() as u32);
        let ab = m.core_to_core_ns(&p, a, b);
        assert!(ab > 0.0);
        assert_eq!(ab, m.core_to_core_ns(&p, b, a));
    }
}

#[test]
fn tlb_stats_always_consistent() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0x11A2 + case);
        let mut tlb = TlbSim::new(TlbGeometry::server());
        let n = rng.gen_range(1usize..400);
        for _ in 0..n {
            let addr = rng.gen_range(0u64..1 << 24);
            let size = if rng.gen::<bool>() {
                PageSize::Huge2M
            } else {
                PageSize::Base4K
            };
            tlb.access(addr << 12, size);
        }
        let s = tlb.stats();
        assert_eq!(s.l1_hits + s.l2_hits + s.walks, s.accesses);
        assert!(s.walk_rate() >= 0.0 && s.walk_rate() <= 1.0);
        assert!(s.miss_rate() >= s.walk_rate());
    }
}

#[test]
fn repeated_access_to_same_page_never_walks_twice() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0x11A3 + case);
        let addr = rng.gen_range(0u64..1 << 40);
        let mut tlb = TlbSim::new(TlbGeometry::server());
        tlb.access(addr, PageSize::Base4K);
        for _ in 0..10 {
            tlb.access(addr, PageSize::Base4K);
        }
        assert_eq!(tlb.stats().walks, 1);
    }
}

#[test]
fn llc_hits_plus_misses_equal_accesses() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0x11A4 + case);
        let mut llc = LlcModel::new(4, 64 << 10);
        let n = rng.gen_range(1usize..500);
        for _ in 0..n {
            let dom = rng.gen_range(0u32..4);
            let block = rng.gen_range(0u64..64);
            let bytes = rng.gen_range(1u64..4096);
            llc.access(DomainId(dom), block, bytes);
        }
        let s = llc.stats();
        assert_eq!(s.hits + s.misses(), s.accesses);
        assert!(s.miss_rate() <= 1.0);
    }
}

#[test]
fn llc_second_access_from_same_domain_hits() {
    for case in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(0x11A5 + case);
        let block = rng.gen_range(0u64..1000);
        let bytes = rng.gen_range(1u64..1024);
        let mut llc = LlcModel::new(2, 1 << 20);
        llc.access(DomainId(0), block, bytes);
        let out = llc.access(DomainId(0), block, bytes);
        assert_eq!(out, wsc_sim_hw::cache::LlcAccess::Hit);
    }
}
