//! Page-table backing state: which regions are hugepage-backed.
//!
//! The kernel's transparent-hugepage (THP) machinery backs an aligned,
//! fully-mapped 2 MiB region with a single hugepage. TCMalloc's pageheap can
//! *subrelease* a partially-free hugepage (`madvise(DONTNEED)` on a
//! sub-range), which forces the kernel to split it into base pages — freeing
//! memory but permanently degrading TLB reach for the survivors (§3, §4.4).
//! [`PageTable`] tracks that state and computes the **hugepage coverage**
//! metric of Figure 17a: the fraction of resident heap bytes backed by
//! hugepages.

use crate::addr::{word_mask, HUGE_PAGE_BYTES, TCMALLOC_PAGES_PER_HUGE, TCMALLOC_PAGE_BYTES};
use crate::faults::OsError;
use wsc_sim_hw::tlb::PageSize;

/// Words of the per-hugepage released-page bitmask (256 TCMalloc pages).
const MASK_WORDS: usize = (TCMALLOC_PAGES_PER_HUGE as usize) / 64;

/// Hugepages per window-growth chunk (128 MiB of address space, 2.5 KiB of
/// records): small, so a cold machine that maps a few hugepages pays for a
/// few records, not for a pagemap-sized leaf.
const CHUNK_HUGEPAGES: u64 = 64;

/// Ceiling on the window, in hugepages (1 TiB of address-space spread, the
/// pagemap's ceiling; more indicates corruption, not a bigger heap).
const MAX_WINDOW_HUGEPAGES: u64 = 1 << 19;

/// How one hugepage-sized slot of the window is backed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Backing {
    /// Not mapped (also every slot the window covers but `mmap` never hit).
    #[default]
    Unmapped,
    /// Backed by a single 2 MiB hugepage. No page of it is released:
    /// subrelease is the only way to release, and it breaks the hugepage.
    Huge,
    /// Split into base pages by a subrelease. Never rebuilt — the kernel
    /// does not transparently collapse those, which is the §3 degradation
    /// story. A subrelease breaks a `Denied` slot too.
    Broken,
    /// THP compaction failed at `mmap` time: 4 KiB-backed since birth and
    /// eligible for khugepaged-style collapse once fully resident, unless a
    /// subrelease breaks it first.
    Denied,
}

/// State of one hugepage-sized slot. An unmapped slot is all-zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct HugeRec {
    backing: Backing,
    /// Bitmask of *released* (non-resident) TCMalloc pages.
    released: [u64; MASK_WORDS],
}

impl HugeRec {
    fn is_fully_resident(&self) -> bool {
        self.released == [0; MASK_WORDS]
    }

    fn released_pages(&self) -> u64 {
        self.released
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }
}

/// Splits the non-empty TCMalloc-page range `first..last` by hugepage:
/// yields each touched hugepage index with the range `lo..hi` of its own
/// pages (`0..=256`) that lie inside.
fn split_by_hugepage(first: u64, last: u64) -> impl Iterator<Item = (u64, u32, u32)> {
    let per = TCMALLOC_PAGES_PER_HUGE;
    (first / per..=(last - 1) / per).map(move |hp| {
        (
            hp,
            (first.max(hp * per) - hp * per) as u32,
            (last.min((hp + 1) * per) - hp * per) as u32,
        )
    })
}

/// Tracks the backing (huge vs base pages, residency) of every mapped
/// hugepage-sized region in a process.
///
/// Address → state is index arithmetic: one `HugeRec` per hugepage in a
/// flat window over the observed hugepage range, empty until the first
/// `mmap` and grown in whole `CHUNK_HUGEPAGES` chunks in either direction
/// (the windowing discipline of the allocator's pagemap). Every aggregate
/// the allocator and the drivers poll per event is a running counter that
/// each mutator keeps exact, so the queries are O(1):
///
/// * `mapped` — slots whose backing is not `Unmapped`
///   (`on_mmap_backed` +1, `on_munmap` −1 per hugepage);
/// * `released_pages` — set bits over all `released` masks (`subrelease`
///   adds the bits it newly sets, `reoccupy` subtracts the bits it clears,
///   `on_munmap` subtracts the slot's popcount);
/// * `huge` — slots backed `Huge`; each is fully resident, so huge-backed
///   resident pages are `huge × 256` (`on_mmap_backed(.., true)` and
///   `promote` +1; the first `subrelease` of a slot and `on_munmap` −1);
/// * `denied` — slots backed `Denied` (`on_mmap_backed(.., false)` +1;
///   `promote`, the first `subrelease` of a slot and `on_munmap` −1).
///
/// # Example
///
/// ```
/// use wsc_sim_os::pagetable::PageTable;
/// use wsc_sim_os::addr::HUGE_PAGE_BYTES;
///
/// let mut pt = PageTable::default();
/// pt.on_mmap(0, HUGE_PAGE_BYTES);
/// assert!(pt.is_huge_backed(0));
/// assert!((pt.hugepage_coverage() - 1.0).abs() < 1e-12);
/// pt.subrelease(0, 8 * 1024).expect("range is mapped"); // break the hugepage
/// assert!(!pt.is_huge_backed(0));
/// assert!(pt.hugepage_coverage() < 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    /// One record per hugepage of the window.
    recs: Vec<HugeRec>,
    /// Hugepage index of `recs[0]`, aligned to [`CHUNK_HUGEPAGES`];
    /// meaningful once `recs` is non-empty.
    base_hp: u64,
    mapped: u64,
    released_pages: u64,
    huge: u64,
    denied: u64,
}

impl PageTable {
    /// This page table emptied, with its window's storage kept for the
    /// next address space. [`default`](Self::default) is the empty table:
    /// it allocates nothing until the first `mmap`.
    pub fn renew(mut self) -> Self {
        self.recs.clear();
        Self {
            recs: self.recs,
            ..Self::default()
        }
    }

    /// The hugepage index range of a hugepage-granular byte range.
    fn hugepage_span(addr: u64, len: u64) -> std::ops::Range<u64> {
        assert!(
            addr.is_multiple_of(HUGE_PAGE_BYTES) && len.is_multiple_of(HUGE_PAGE_BYTES),
            "mmap/munmap must be hugepage-granular: addr={addr:#x} len={len:#x}"
        );
        (addr / HUGE_PAGE_BYTES)..((addr + len) / HUGE_PAGE_BYTES)
    }

    /// The window's bounds (hugepage indices, whole chunks) once grown in
    /// either direction to cover the non-empty hugepage range `span`, or
    /// `None` if that is past the [`MAX_WINDOW_HUGEPAGES`] ceiling.
    fn grown(&self, span: &std::ops::Range<u64>) -> Option<(u64, u64)> {
        let lo = span.start - span.start % CHUNK_HUGEPAGES;
        let hi = span.end.checked_next_multiple_of(CHUNK_HUGEPAGES)?;
        let (new_lo, new_hi) = if self.recs.is_empty() {
            (lo, hi)
        } else {
            (
                lo.min(self.base_hp),
                hi.max(self.base_hp + self.recs.len() as u64),
            )
        };
        (new_hi - new_lo <= MAX_WINDOW_HUGEPAGES).then_some((new_lo, new_hi))
    }

    /// Can the hugepage-granular range `[addr, addr + len)` be mapped
    /// without spreading the window past its ceiling? The kernel's
    /// address-space limit: [`Vmm::mmap`](crate::vmm::Vmm::mmap) refuses a
    /// grant that cannot.
    pub(crate) fn fits(&self, addr: u64, len: u64) -> bool {
        let span = Self::hugepage_span(addr, len);
        span.is_empty() || self.grown(&span).is_some()
    }

    /// Grows the window to cover the non-empty hugepage range `span`.
    fn ensure(&mut self, span: &std::ops::Range<u64>) {
        let (new_lo, new_hi) = self.grown(span).expect("page table window blow-up");
        if self.recs.is_empty() {
            self.base_hp = new_lo;
        }
        if new_lo < self.base_hp {
            let grow = (self.base_hp - new_lo) as usize;
            let mut fresh = vec![HugeRec::default(); grow + self.recs.len()];
            fresh[grow..].copy_from_slice(&self.recs);
            self.recs = fresh;
            self.base_hp = new_lo;
        }
        let want = (new_hi - self.base_hp) as usize;
        if want > self.recs.len() {
            self.recs.resize(want, HugeRec::default());
        }
    }

    /// The record of hugepage `hp` if the window covers it (mapped or not).
    #[inline]
    fn rec(&self, hp: u64) -> Option<&HugeRec> {
        let off = usize::try_from(hp.wrapping_sub(self.base_hp)).ok()?;
        self.recs.get(off)
    }

    fn rec_mut(&mut self, hp: u64) -> Option<&mut HugeRec> {
        let off = usize::try_from(hp.wrapping_sub(self.base_hp)).ok()?;
        self.recs.get_mut(off)
    }

    /// Backing of the hugepage containing `addr`: one indexed load,
    /// `Unmapped` outside the window.
    #[inline]
    fn backing_of(&self, addr: u64) -> Backing {
        self.rec(addr / HUGE_PAGE_BYTES)
            .map_or(Backing::Unmapped, |r| r.backing)
    }

    /// Registers a new hugepage-aligned mapping; THP backs every 2 MiB of it
    /// with a hugepage.
    ///
    /// # Panics
    ///
    /// Panics on misaligned arguments or double-mapping.
    pub fn on_mmap(&mut self, addr: u64, len: u64) {
        self.on_mmap_backed(addr, len, true);
    }

    /// Registers a new hugepage-aligned mapping with explicit backing:
    /// `huge = false` models THP compaction failure, where the kernel grants
    /// the mapping but backs it with base pages (fully resident, zero
    /// hugepage coverage) until a later collapse [`promote`]s it.
    ///
    /// # Panics
    ///
    /// Panics on misaligned arguments, double-mapping, or a mapping more
    /// than 1 TiB of address space away from the others.
    ///
    /// [`promote`]: Self::promote
    pub fn on_mmap_backed(&mut self, addr: u64, len: u64, huge: bool) {
        let span = Self::hugepage_span(addr, len);
        if span.is_empty() {
            return;
        }
        self.ensure(&span);
        let backing = if huge { Backing::Huge } else { Backing::Denied };
        for hp in span {
            let rec = &mut self.recs[(hp - self.base_hp) as usize];
            assert!(
                rec.backing == Backing::Unmapped,
                "double mmap of hugepage {hp}"
            );
            rec.backing = backing;
            self.mapped += 1;
            if huge {
                self.huge += 1;
            } else {
                self.denied += 1;
            }
        }
    }

    /// Removes a mapping entirely.
    ///
    /// # Panics
    ///
    /// Panics on misaligned arguments or unmapping an absent region.
    pub fn on_munmap(&mut self, addr: u64, len: u64) {
        for hp in Self::hugepage_span(addr, len) {
            let rec = self
                .rec_mut(hp)
                .map(std::mem::take)
                .filter(|r| r.backing != Backing::Unmapped)
                .unwrap_or_else(|| panic!("munmap of unmapped hugepage {hp}"));
            self.mapped -= 1;
            self.released_pages -= rec.released_pages();
            match rec.backing {
                Backing::Huge => self.huge -= 1,
                Backing::Denied => self.denied -= 1,
                Backing::Broken | Backing::Unmapped => {}
            }
        }
    }

    /// `madvise(DONTNEED)` on a TCMalloc-page-granular sub-range: every
    /// touched hugepage is split into base pages and the range becomes
    /// non-resident.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::UnmappedRange`] (naming the first offending
    /// hugepage) if any part of the range is not mapped; nothing is applied
    /// in that case, so a stray subrelease is reportable, not fatal.
    ///
    /// # Panics
    ///
    /// Panics on misaligned arguments (an allocator bug, not an OS outcome).
    pub fn subrelease(&mut self, addr: u64, len: u64) -> Result<(), OsError> {
        assert!(
            addr.is_multiple_of(TCMALLOC_PAGE_BYTES) && len.is_multiple_of(TCMALLOC_PAGE_BYTES),
            "subrelease must be TCMalloc-page-granular"
        );
        let first = addr / TCMALLOC_PAGE_BYTES;
        let last = (addr + len) / TCMALLOC_PAGE_BYTES;
        if first == last {
            return Ok(());
        }
        // Validate the whole range before touching anything: EINVAL leaves
        // the page table exactly as it was.
        for (hp, ..) in split_by_hugepage(first, last) {
            if self.rec(hp).is_none_or(|r| r.backing == Backing::Unmapped) {
                return Err(OsError::UnmappedRange(hp));
            }
        }
        for (hp, lo, hi) in split_by_hugepage(first, last) {
            let rec = &mut self.recs[(hp - self.base_hp) as usize];
            match rec.backing {
                Backing::Huge => self.huge -= 1,
                Backing::Denied => self.denied -= 1,
                Backing::Broken | Backing::Unmapped => {}
            }
            rec.backing = Backing::Broken;
            for (w, word) in rec.released.iter_mut().enumerate() {
                let mask = word_mask(w, lo, hi);
                self.released_pages += u64::from((mask & !*word).count_ones());
                *word |= mask;
            }
        }
        Ok(())
    }

    /// The application touches a previously-subreleased range again: the
    /// kernel faults base pages back in. The hugepage stays broken — the
    /// kernel does not transparently rebuild it, which is exactly the
    /// "subrelease leads to performance degradation" effect of §3.
    /// Unmapped parts of the range are ignored.
    pub fn reoccupy(&mut self, addr: u64, len: u64) {
        let first = addr / TCMALLOC_PAGE_BYTES;
        let last = (addr + len).div_ceil(TCMALLOC_PAGE_BYTES);
        if first >= last {
            return;
        }
        for (hp, lo, hi) in split_by_hugepage(first, last) {
            // An unmapped slot has no released bit, so it needs no test.
            let Some(rec) = self.rec_mut(hp) else {
                continue;
            };
            let mut cleared = 0;
            for (w, word) in rec.released.iter_mut().enumerate() {
                let mask = word_mask(w, lo, hi);
                cleared += u64::from((*word & mask).count_ones());
                *word &= !mask;
            }
            self.released_pages -= cleared;
        }
    }

    /// khugepaged-style collapse: rebuilds hugepage backing for the region
    /// containing `addr`, but only if the region was *denied* hugepage
    /// backing at `mmap` time and is currently fully resident. Returns
    /// whether the promotion happened. Subrelease-broken hugepages never
    /// promote (the kernel does not rebuild those, §3).
    pub fn promote(&mut self, addr: u64) -> bool {
        match self.rec_mut(addr / HUGE_PAGE_BYTES) {
            Some(r) if r.backing == Backing::Denied && r.is_fully_resident() => {
                r.backing = Backing::Huge;
                self.denied -= 1;
                self.huge += 1;
                true
            }
            _ => false,
        }
    }

    /// Base addresses of the hugepages denied hugepage backing at `mmap`
    /// time (and neither collapsed back nor broken since), ascending: the
    /// khugepaged pass's candidates.
    pub(crate) fn denied_bases(&self) -> impl Iterator<Item = u64> + '_ {
        (self.base_hp..)
            .zip(&self.recs)
            .filter(|(_, r)| r.backing == Backing::Denied)
            .map(|(hp, _)| hp * HUGE_PAGE_BYTES)
    }

    /// Is every TCMalloc page of the hugepage containing `addr` resident?
    pub fn is_fully_resident(&self, addr: u64) -> bool {
        self.rec(addr / HUGE_PAGE_BYTES)
            .is_some_and(|r| r.backing != Backing::Unmapped && r.is_fully_resident())
    }

    /// Number of mapped hugepage regions currently denied hugepage backing.
    pub fn denied_hugepages(&self) -> u64 {
        self.denied
    }

    /// Is the hugepage containing `addr` still backed by a real hugepage?
    #[inline]
    pub fn is_huge_backed(&self, addr: u64) -> bool {
        self.backing_of(addr) == Backing::Huge
    }

    /// Is `addr` mapped at all?
    #[cfg(test)]
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.backing_of(addr) != Backing::Unmapped
    }

    /// Translation page size for `addr`, for feeding the TLB simulator.
    /// Unmapped or broken regions translate at base-page granularity.
    #[inline]
    pub fn page_size_of(&self, addr: u64) -> PageSize {
        if self.is_huge_backed(addr) {
            PageSize::Huge2M
        } else {
            PageSize::Base4K
        }
    }

    /// Total mapped bytes.
    // lint:allow(test-only-pub) the pageheap's region, cache and filler
    // tests and proptest_vmm read it: that munmap returned a mapping shows
    // in no other count (resident bytes net out subrelease).
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped * HUGE_PAGE_BYTES
    }

    /// Resident bytes (mapped minus subreleased).
    #[inline]
    pub fn resident_bytes(&self) -> u64 {
        self.mapped * HUGE_PAGE_BYTES - self.released_pages * TCMALLOC_PAGE_BYTES
    }

    /// Resident bytes backed by hugepages.
    pub fn huge_backed_bytes(&self) -> u64 {
        self.huge * HUGE_PAGE_BYTES
    }

    /// Hugepage coverage: fraction of resident bytes backed by hugepages
    /// (Figure 17a). 0 when nothing is resident.
    pub fn hugepage_coverage(&self) -> f64 {
        let resident = self.resident_bytes();
        if resident == 0 {
            0.0
        } else {
            self.huge_backed_bytes() as f64 / resident as f64
        }
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const HP: u64 = HUGE_PAGE_BYTES;
    const TP: u64 = TCMALLOC_PAGE_BYTES;

    #[test]
    fn mmap_is_huge_backed() {
        let mut pt = PageTable::default();
        pt.on_mmap(HP * 4, HP * 2);
        assert!(pt.is_huge_backed(HP * 4));
        assert!(pt.is_huge_backed(HP * 5 + 12345));
        assert!(!pt.is_mapped(HP * 6));
        assert_eq!(pt.mapped_bytes(), 2 * HP);
        assert_eq!(pt.resident_bytes(), 2 * HP);
        assert!((pt.hugepage_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "double mmap")]
    fn double_mmap_panics() {
        let mut pt = PageTable::default();
        pt.on_mmap(0, HP);
        pt.on_mmap(0, HP);
    }

    #[test]
    #[should_panic(expected = "hugepage-granular")]
    fn misaligned_mmap_panics() {
        let mut pt = PageTable::default();
        pt.on_mmap(4096, HP);
    }

    #[test]
    fn subrelease_breaks_hugepage_and_coverage_drops() {
        let mut pt = PageTable::default();
        pt.on_mmap(0, 2 * HP);
        pt.subrelease(0, 4 * TP).unwrap();
        assert!(!pt.is_huge_backed(0));
        assert!(pt.is_huge_backed(HP), "second hugepage untouched");
        assert_eq!(pt.resident_bytes(), 2 * HP - 4 * TP);
        let cov = pt.hugepage_coverage();
        // One of ~two hugepages' worth of resident bytes is huge-backed.
        assert!(cov > 0.4 && cov < 0.6, "coverage {cov}");
    }

    #[test]
    fn reoccupy_restores_residency_not_hugeness() {
        let mut pt = PageTable::default();
        pt.on_mmap(0, HP);
        pt.subrelease(0, HP).unwrap();
        assert_eq!(pt.resident_bytes(), 0);
        pt.reoccupy(0, HP);
        assert_eq!(pt.resident_bytes(), HP);
        assert!(!pt.is_huge_backed(0), "THP does not rebuild");
        assert_eq!(pt.hugepage_coverage(), 0.0);
    }

    #[test]
    fn subrelease_breaks_a_denied_hugepage_for_good() {
        let mut pt = PageTable::default();
        pt.on_mmap_backed(0, HP, false);
        pt.subrelease(0, TP).unwrap();
        pt.reoccupy(0, TP);
        assert_eq!(pt.denied_hugepages(), 0);
        assert_eq!(pt.denied_bases().count(), 0);
        assert!(
            !pt.promote(0),
            "kernel does not rebuild subrelease-broken hugepages (§3)"
        );
    }

    #[test]
    fn munmap_removes() {
        let mut pt = PageTable::default();
        pt.on_mmap(0, HP);
        pt.on_munmap(0, HP);
        assert!(!pt.is_mapped(0));
        assert_eq!(pt.mapped_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn munmap_absent_panics() {
        let mut pt = PageTable::default();
        pt.on_munmap(0, HP);
    }

    #[test]
    fn page_size_for_tlb() {
        let mut pt = PageTable::default();
        pt.on_mmap(0, HP);
        assert_eq!(pt.page_size_of(100), PageSize::Huge2M);
        pt.subrelease(0, TP).unwrap();
        assert_eq!(pt.page_size_of(100), PageSize::Base4K);
        assert_eq!(pt.page_size_of(HP * 99), PageSize::Base4K);
    }

    #[test]
    fn empty_table_allocates_nothing() {
        let pt = PageTable::default();
        assert_eq!(pt.recs.capacity(), 0);
        assert!(!pt.is_mapped(crate::vmm::HEAP_BASE));
        assert_eq!(pt.resident_bytes(), 0);
        assert_eq!(pt.hugepage_coverage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window blow-up")]
    fn far_apart_mappings_are_refused_before_allocating() {
        let mut pt = PageTable::default();
        pt.on_mmap(0, HP);
        pt.on_mmap(crate::vmm::HEAP_BASE, HP);
    }

    /// The retired `BTreeMap` page table, kept only as the model the flat
    /// one is compared against: every aggregate is a full scan.
    mod reference {
        use super::super::{
            OsError, HUGE_PAGE_BYTES, TCMALLOC_PAGES_PER_HUGE, TCMALLOC_PAGE_BYTES,
        };
        use std::collections::BTreeMap;

        #[derive(Clone, Debug)]
        struct HugeState {
            huge: bool,
            denied: bool,
            released: [u64; 4],
        }

        impl HugeState {
            fn released_pages(&self) -> u32 {
                self.released.iter().map(|w| w.count_ones()).sum()
            }

            fn resident_bytes(&self) -> u64 {
                HUGE_PAGE_BYTES - self.released_pages() as u64 * TCMALLOC_PAGE_BYTES
            }
        }

        #[derive(Clone, Debug, Default)]
        pub struct RefPageTable {
            regions: BTreeMap<u64, HugeState>,
        }

        impl RefPageTable {
            pub fn on_mmap_backed(&mut self, addr: u64, len: u64, huge: bool) {
                for hp in (addr / HUGE_PAGE_BYTES)..((addr + len) / HUGE_PAGE_BYTES) {
                    let state = HugeState {
                        huge,
                        denied: !huge,
                        released: [0; 4],
                    };
                    assert!(self.regions.insert(hp, state).is_none());
                }
            }

            pub fn on_munmap(&mut self, addr: u64, len: u64) {
                for hp in (addr / HUGE_PAGE_BYTES)..((addr + len) / HUGE_PAGE_BYTES) {
                    assert!(self.regions.remove(&hp).is_some());
                }
            }

            pub fn subrelease(&mut self, addr: u64, len: u64) -> Result<(), OsError> {
                let first = addr / TCMALLOC_PAGE_BYTES;
                let last = (addr + len) / TCMALLOC_PAGE_BYTES;
                for page in first..last {
                    let hp = page / TCMALLOC_PAGES_PER_HUGE;
                    if !self.regions.contains_key(&hp) {
                        return Err(OsError::UnmappedRange(hp));
                    }
                }
                for page in first..last {
                    let hp = page / TCMALLOC_PAGES_PER_HUGE;
                    let state = self.regions.get_mut(&hp).expect("validated above");
                    state.huge = false;
                    state.denied = false;
                    let bit = (page % TCMALLOC_PAGES_PER_HUGE) as usize;
                    state.released[bit / 64] |= 1 << (bit % 64);
                }
                Ok(())
            }

            pub fn reoccupy(&mut self, addr: u64, len: u64) {
                let first = addr / TCMALLOC_PAGE_BYTES;
                let last = (addr + len).div_ceil(TCMALLOC_PAGE_BYTES);
                for page in first..last {
                    let hp = page / TCMALLOC_PAGES_PER_HUGE;
                    if let Some(state) = self.regions.get_mut(&hp) {
                        let bit = (page % TCMALLOC_PAGES_PER_HUGE) as usize;
                        state.released[bit / 64] &= !(1 << (bit % 64));
                    }
                }
            }

            pub fn promote(&mut self, addr: u64) -> bool {
                match self.regions.get_mut(&(addr / HUGE_PAGE_BYTES)) {
                    Some(s) if s.denied && s.released_pages() == 0 => {
                        s.huge = true;
                        s.denied = false;
                        true
                    }
                    _ => false,
                }
            }

            fn get(&self, addr: u64) -> Option<&HugeState> {
                self.regions.get(&(addr / HUGE_PAGE_BYTES))
            }

            pub fn is_fully_resident(&self, addr: u64) -> bool {
                self.get(addr).is_some_and(|s| s.released_pages() == 0)
            }

            pub fn is_huge_backed(&self, addr: u64) -> bool {
                self.get(addr).is_some_and(|s| s.huge)
            }

            pub fn is_mapped(&self, addr: u64) -> bool {
                self.get(addr).is_some()
            }

            pub fn denied_hugepages(&self) -> u64 {
                self.regions.values().filter(|s| s.denied).count() as u64
            }

            pub fn denied_bases(&self) -> Vec<u64> {
                let denied = self.regions.iter().filter(|(_, s)| s.denied);
                denied.map(|(hp, _)| hp * HUGE_PAGE_BYTES).collect()
            }

            pub fn mapped_bytes(&self) -> u64 {
                self.regions.len() as u64 * HUGE_PAGE_BYTES
            }

            pub fn resident_bytes(&self) -> u64 {
                self.regions.values().map(HugeState::resident_bytes).sum()
            }

            pub fn huge_backed_bytes(&self) -> u64 {
                self.regions
                    .values()
                    .filter(|s| s.huge)
                    .map(HugeState::resident_bytes)
                    .sum()
            }

            pub fn hugepage_coverage(&self) -> f64 {
                let resident = self.resident_bytes();
                if resident == 0 {
                    0.0
                } else {
                    self.huge_backed_bytes() as f64 / resident as f64
                }
            }
        }
    }

    /// Every O(1) counter against a full scan of the table's own records
    /// and against the reference model; every point query at `probes`.
    fn assert_agrees(pt: &PageTable, model: &reference::RefPageTable, probes: &[u64], ctx: &str) {
        let mapped = pt.recs.iter().filter(|r| r.backing != Backing::Unmapped);
        assert_eq!(pt.mapped, mapped.clone().count() as u64, "{ctx}");
        assert_eq!(
            pt.released_pages,
            mapped.clone().map(HugeRec::released_pages).sum::<u64>(),
            "{ctx}"
        );
        let huge = mapped.clone().filter(|r| r.backing == Backing::Huge);
        assert_eq!(pt.huge, huge.clone().count() as u64, "{ctx}");
        assert!(huge.clone().all(HugeRec::is_fully_resident), "{ctx}");
        assert_eq!(
            pt.denied,
            mapped.filter(|r| r.backing == Backing::Denied).count() as u64,
            "{ctx}"
        );
        let unmapped = pt.recs.iter().filter(|r| r.backing == Backing::Unmapped);
        assert!(unmapped.clone().all(HugeRec::is_fully_resident), "{ctx}");

        assert_eq!(pt.mapped_bytes(), model.mapped_bytes(), "{ctx}");
        assert_eq!(pt.resident_bytes(), model.resident_bytes(), "{ctx}");
        assert_eq!(pt.huge_backed_bytes(), model.huge_backed_bytes(), "{ctx}");
        assert_eq!(pt.denied_hugepages(), model.denied_hugepages(), "{ctx}");
        let denied: Vec<u64> = pt.denied_bases().collect();
        assert_eq!(denied, model.denied_bases(), "{ctx}");
        assert_eq!(
            pt.hugepage_coverage().to_bits(),
            model.hugepage_coverage().to_bits(),
            "{ctx}"
        );
        for &a in probes {
            assert_eq!(pt.is_mapped(a), model.is_mapped(a), "{ctx} @{a:#x}");
            assert_eq!(
                pt.is_huge_backed(a),
                model.is_huge_backed(a),
                "{ctx} @{a:#x}"
            );
            assert_eq!(
                pt.is_fully_resident(a),
                model.is_fully_resident(a),
                "{ctx} @{a:#x}"
            );
            let want = if model.is_huge_backed(a) {
                PageSize::Huge2M
            } else {
                PageSize::Base4K
            };
            assert_eq!(pt.page_size_of(a), want, "{ctx} @{a:#x}");
        }
    }

    #[test]
    fn flat_table_matches_btreemap_reference() {
        use wsc_prng::SmallRng;
        // Hugepage universe per case: 200 slots (three growth chunks) at an
        // origin that is chunk-aligned, odd, or the canonical heap base.
        const SLOTS: u64 = 200;
        let origins = [0, 4_999, crate::vmm::HEAP_BASE / HP, 1 << 30];
        for case in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0x9a6e_7ab1 + case);
            let origin = origins[(case % 4) as usize];
            let mut pt = PageTable::default();
            let mut model = reference::RefPageTable::default();
            let probes: Vec<u64> = (0..SLOTS + 2)
                .map(|i| (origin + i) * HP + (i * 4099) % HP)
                .chain([(origin + 100_000) * HP])
                .collect();
            for step in 0..400 {
                let hp = origin + rng.gen_range(0..SLOTS);
                let n = rng.gen_range(1u64..=4).min(origin + SLOTS - hp);
                let run = |m: &reference::RefPageTable, want: bool| {
                    (hp..hp + n).all(|h| m.is_mapped(h * HP) == want)
                };
                let op = rng.gen_range(0u32..16);
                match op {
                    // Early steps map high slots first often enough that the
                    // window has to grow downward.
                    0..=3 if run(&model, false) => {
                        let huge = op != 3;
                        pt.on_mmap_backed(hp * HP, n * HP, huge);
                        model.on_mmap_backed(hp * HP, n * HP, huge);
                    }
                    4 if run(&model, true) => {
                        pt.on_munmap(hp * HP, n * HP);
                        model.on_munmap(hp * HP, n * HP);
                    }
                    5..=8 => {
                        // Up to ~2.3 hugepages, any page offset: straddles,
                        // re-releases, and ranges with an unmapped part.
                        let addr = hp * HP + rng.gen_range(0..TCMALLOC_PAGES_PER_HUGE) * TP;
                        let len = rng.gen_range(0u64..600) * TP;
                        let before = pt.clone();
                        let got = pt.subrelease(addr, len);
                        assert_eq!(got, model.subrelease(addr, len), "case {case} step {step}");
                        if got.is_err() {
                            assert_eq!(pt.recs, before.recs, "EINVAL applies nothing");
                        }
                    }
                    9 => {
                        let stray = (origin + 100_000 + rng.gen_range(0..8u64)) * HP;
                        let einval = Err(OsError::UnmappedRange(stray / HP));
                        assert_eq!(pt.subrelease(stray, TP), einval);
                        assert_eq!(model.subrelease(stray, TP), einval);
                    }
                    10..=13 => {
                        // Byte-granular, and free to run into unmapped slots
                        // or off the end of the window.
                        let addr = hp * HP + rng.gen_range(0..HP);
                        let len = rng.gen_range(0u64..3 * HP);
                        pt.reoccupy(addr, len);
                        model.reoccupy(addr, len);
                    }
                    _ => {
                        let addr = hp * HP + rng.gen_range(0..HP);
                        assert_eq!(pt.promote(addr), model.promote(addr));
                    }
                }
                assert_agrees(
                    &pt,
                    &model,
                    &probes,
                    &format!("case {case} step {step} op {op}"),
                );
            }
            assert!(pt.recs.len() as u64 <= SLOTS + 2 * CHUNK_HUGEPAGES);
        }
    }

    #[test]
    fn window_grows_downward_keeping_state() {
        let mut pt = PageTable::default();
        let high = crate::vmm::HEAP_BASE + 300 * HP;
        pt.on_mmap(high, HP);
        pt.subrelease(high, 3 * TP).unwrap();
        let base_before = pt.base_hp;
        pt.on_mmap_backed(crate::vmm::HEAP_BASE, HP, false);
        assert!(pt.base_hp < base_before, "window grew downward");
        assert!(!pt.is_huge_backed(high));
        let denied: Vec<u64> = pt.denied_bases().collect();
        assert_eq!(denied, [crate::vmm::HEAP_BASE]);
        assert_eq!(pt.resident_bytes(), 2 * HP - 3 * TP);
        assert_eq!(pt.denied_hugepages(), 1);
    }
}
