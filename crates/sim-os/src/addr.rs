//! Address-space constants and alignment helpers.
//!
//! Two page granularities matter to the allocator (§2.1, footnote 1):
//!
//! * the 8 KiB **TCMalloc page** (two native 4 KiB x86 pages) — the unit
//!   spans are made of,
//! * the 2 MiB **hugepage** — the unit the pageheap manages and the kernel's
//!   THP machinery covers with a single TLB entry.

/// TCMalloc page size: 8 KiB (two native x86 pages).
pub const TCMALLOC_PAGE_BYTES: u64 = 8 << 10;

/// Hugepage size: 2 MiB.
pub const HUGE_PAGE_BYTES: u64 = 2 << 20;

/// TCMalloc pages per hugepage (256).
pub const TCMALLOC_PAGES_PER_HUGE: u64 = HUGE_PAGE_BYTES / TCMALLOC_PAGE_BYTES;

/// Rounds `v` up to a multiple of `align`.
///
/// # Panics
///
/// Panics if `align` is not a power of two.
pub fn align_up(v: u64, align: u64) -> u64 {
    assert!(align.is_power_of_two(), "alignment must be a power of two");
    (v + align - 1) & !(align - 1)
}

/// Index of the TCMalloc page containing `addr`.
pub fn tcmalloc_page_index(addr: u64) -> u64 {
    addr / TCMALLOC_PAGE_BYTES
}

/// The bits of 64-bit word `w` of a multi-word bit mask that fall inside the
/// bit range `[lo, hi)` — what lets a range update touch each word once
/// instead of each bit (the pageheap's and the page table's 256-bit
/// per-hugepage page masks).
#[inline]
pub fn word_mask(w: usize, lo: u32, hi: u32) -> u64 {
    let word_lo = w as u32 * 64;
    let (a, b) = (lo.max(word_lo), hi.min(word_lo + 64));
    if a >= b {
        return 0;
    }
    (u64::MAX >> (64 - (b - a))) << (a - word_lo)
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(TCMALLOC_PAGES_PER_HUGE, 256);
    }

    #[test]
    fn align_up_basic() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 8), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = align_up(5, 3);
    }

    #[test]
    fn page_indices() {
        assert_eq!(tcmalloc_page_index(TCMALLOC_PAGE_BYTES * 3 + 5), 3);
    }

    #[test]
    fn word_masks_tile_the_hugepage() {
        for (lo, hi) in [
            (0, 256),
            (0, 1),
            (63, 65),
            (64, 128),
            (100, 101),
            (255, 256),
        ] {
            let words = (TCMALLOC_PAGES_PER_HUGE / 64) as usize;
            let bits: u32 = (0..words).map(|w| word_mask(w, lo, hi).count_ones()).sum();
            assert_eq!(bits, hi - lo, "{lo}..{hi}");
            let w = (lo / 64) as usize;
            assert_ne!(word_mask(w, lo, hi) & (1 << (lo % 64)), 0, "{lo}..{hi}");
        }
        assert_eq!(word_mask(1, 0, 64), 0);
    }
}
