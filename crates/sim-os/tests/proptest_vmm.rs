//! Property tests for the simulated kernel memory subsystem.
//!
//! Deterministic seeded-loop properties (hermetic replacement for the
//! original proptest strategies): inputs come from a [`wsc_prng::SmallRng`]
//! stream seeded per case, so runs are identical everywhere.

use wsc_prng::SmallRng;
use wsc_sim_os::addr::{HUGE_PAGE_BYTES, TCMALLOC_PAGE_BYTES};
use wsc_sim_os::vmm::Vmm;

#[test]
fn mappings_never_overlap_and_stay_aligned() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x0520 + case);
        let mut vmm = Vmm::default();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let n = rng.gen_range(1usize..40);
        for _ in 0..n {
            let len = rng.gen_range(1u64..(64 << 20));
            let addr = vmm.mmap(len).expect("no fault plan").addr;
            assert_eq!(addr % HUGE_PAGE_BYTES, 0);
            let rounded = len.div_ceil(HUGE_PAGE_BYTES) * HUGE_PAGE_BYTES;
            for &(a, l) in &ranges {
                assert!(addr + rounded <= a || a + l <= addr);
            }
            ranges.push((addr, rounded));
        }
        let total: u64 = ranges.iter().map(|&(_, l)| l).sum();
        assert_eq!(vmm.page_table().mapped_bytes(), total);
    }
}

#[test]
fn residency_accounting_matches_subreleases() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x0521 + case);
        let hp_count = rng.gen_range(1u64..8);
        let mut vmm = Vmm::default();
        let base = vmm
            .mmap(hp_count * HUGE_PAGE_BYTES)
            .expect("no fault plan")
            .addr;
        let pages_total = hp_count * HUGE_PAGE_BYTES / TCMALLOC_PAGE_BYTES;
        // Track released TCMalloc pages exactly.
        let mut released = vec![false; pages_total as usize];
        let cuts = rng.gen_range(0usize..12);
        for _ in 0..cuts {
            let start = rng.gen_range(0u64..2048) % pages_total;
            let len = rng.gen_range(1u64..64).min(pages_total - start);
            if len == 0 {
                continue;
            }
            vmm.subrelease(
                base + start * TCMALLOC_PAGE_BYTES,
                len * TCMALLOC_PAGE_BYTES,
            )
            .expect("mapped range");
            for p in start..start + len {
                released[p as usize] = true;
            }
        }
        let released_pages = released.iter().filter(|&&r| r).count() as u64;
        assert_eq!(
            vmm.page_table().resident_bytes(),
            (pages_total - released_pages) * TCMALLOC_PAGE_BYTES
        );
        // Coverage: only untouched hugepages remain huge-backed.
        for hp in 0..hp_count {
            let touched = released[(hp * 256) as usize..((hp + 1) * 256) as usize]
                .iter()
                .any(|&r| r);
            assert_eq!(
                vmm.page_table().is_huge_backed(base + hp * HUGE_PAGE_BYTES),
                !touched
            );
        }
    }
}

#[test]
fn reoccupy_restores_residency_exactly() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x0522 + case);
        let start = rng.gen_range(0u64..200);
        let len = rng.gen_range(1u64..56);
        let mut vmm = Vmm::default();
        let base = vmm.mmap(HUGE_PAGE_BYTES).expect("no fault plan").addr;
        vmm.subrelease(base, HUGE_PAGE_BYTES).expect("mapped range");
        assert_eq!(vmm.page_table().resident_bytes(), 0);
        vmm.reoccupy(
            base + start * TCMALLOC_PAGE_BYTES,
            len * TCMALLOC_PAGE_BYTES,
        );
        assert_eq!(vmm.page_table().resident_bytes(), len * TCMALLOC_PAGE_BYTES);
        // Still broken: reoccupation does not rebuild the hugepage.
        assert!(!vmm.page_table().is_huge_backed(base));
    }
}
