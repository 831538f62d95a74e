//! Two-level data-TLB simulation.
//!
//! Table 2 of the paper reports "dTLB load walk (%)" — the fraction of cycles
//! spent walking the page table without hitting the second-level TLB — and
//! Figure 17b reports an 8.1% reduction in dTLB misses from the
//! lifetime-aware hugepage filler. The mechanism is hugepage coverage: a
//! 2 MiB page occupies one TLB entry where 512 base pages would occupy many.
//! [`TlbSim`] models a typical server dTLB (split L1 with dedicated 2 MiB
//! entries, unified L2) with set-associative LRU replacement, so hugepage
//! coverage produced by the allocator translates directly into walk counts.

/// Page sizes the TLB distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KiB native page.
    Base4K,
    /// 2 MiB huge page.
    Huge2M,
}

impl PageSize {
    /// log2 of the page size in bytes.
    pub fn shift(self) -> u32 {
        match self {
            PageSize::Base4K => 12,
            PageSize::Huge2M => 21,
        }
    }

    /// Page size in bytes.
    pub fn bytes(self) -> u64 {
        1 << self.shift()
    }
}

/// Where a TLB access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbOutcome {
    /// First-level hit (free).
    L1Hit,
    /// Second-level hit (small cost, not a "walk").
    L2Hit,
    /// Full page-table walk.
    Walk,
}

/// A set-associative LRU translation buffer.
#[derive(Clone, Debug, Default)]
struct SetAssocTlb {
    /// `ways` consecutive `(tag, last_used_tick)` per set, one allocation
    /// for the whole level. Tick 0 is an empty way: live ticks start at 1.
    slots: Vec<(u64, u64)>,
    sets: u64,
    ways: usize,
    tick: u64,
}

impl SetAssocTlb {
    /// This level emptied and reshaped, keeping its slot storage. `field`
    /// names the [`TlbGeometry`] entry count it is shaped from.
    fn renew(mut self, field: &str, entries: usize, ways: usize) -> Self {
        assert!(ways > 0, "TlbGeometry::ways must be positive");
        assert!(entries > 0, "TlbGeometry::{field} must be positive");
        assert!(
            entries.is_multiple_of(ways),
            "entries must divide into ways"
        );
        self.slots.clear();
        self.slots.resize(entries, (0, 0));
        Self {
            slots: self.slots,
            sets: (entries / ways) as u64,
            ways,
            tick: 0,
        }
    }

    /// The set `key` maps to: `key % sets`, as a mask when `sets` is a power
    /// of two (both L1 levels of [`TlbGeometry::server`]) so the lookup
    /// pays no division.
    fn set_of(&self, key: u64) -> u64 {
        if self.sets.is_power_of_two() {
            key & (self.sets - 1)
        } else {
            key % self.sets
        }
    }

    /// The ways `key` may occupy.
    fn set_mut(&mut self, key: u64) -> &mut [(u64, u64)] {
        // In bounds: `set_of(key) < sets` and `slots.len() == sets * ways`.
        let start = self.set_of(key) as usize * self.ways;
        &mut self.slots[start..start + self.ways]
    }

    /// Looks up `key`, refreshing LRU state on hit.
    fn lookup(&mut self, key: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        for (tag, used) in self.set_mut(key) {
            if *used != 0 && *tag == key {
                *used = tick;
                return true;
            }
        }
        false
    }

    /// Inserts `key` into the first empty way, else over the LRU way: the
    /// first way of least tick is both.
    fn insert(&mut self, key: u64) {
        self.tick += 1;
        let tick = self.tick;
        let victim = self
            .set_mut(key)
            .iter_mut()
            .min_by_key(|(_, used)| *used)
            .expect("ways is positive");
        *victim = (key, tick);
    }
}

/// Access counters for a [`TlbSim`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total accesses.
    pub accesses: u64,
    /// First-level hits.
    pub l1_hits: u64,
    /// Second-level hits.
    pub l2_hits: u64,
    /// Page-table walks.
    pub walks: u64,
}

impl TlbStats {
    /// Walk fraction (walks / accesses), 0 when no accesses.
    pub fn walk_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.walks as f64 / self.accesses as f64
        }
    }

    /// dTLB miss rate: fraction of accesses missing the first level.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.accesses - self.l1_hits) as f64 / self.accesses as f64
        }
    }
}

/// Geometry of a [`TlbSim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbGeometry {
    /// L1 dTLB entries for 4 KiB pages.
    pub l1_base_entries: usize,
    /// L1 dTLB entries for 2 MiB pages.
    pub l1_huge_entries: usize,
    /// Unified second-level TLB entries.
    pub l2_entries: usize,
    /// Associativity used for every level.
    pub ways: usize,
}

impl TlbGeometry {
    /// A typical x86 server dTLB (Skylake-class): 64 base + 32 huge L1
    /// entries, 1536-entry unified STLB.
    pub fn server() -> Self {
        Self {
            l1_base_entries: 64,
            l1_huge_entries: 32,
            l2_entries: 1536,
            ways: 4,
        }
    }
}

/// The dTLB simulator: split L1 (per page size), unified L2.
///
/// # Example
///
/// ```
/// use wsc_sim_hw::tlb::{PageSize, TlbGeometry, TlbOutcome, TlbSim};
///
/// let mut tlb = TlbSim::new(TlbGeometry::server());
/// let first = tlb.access(0x1000, PageSize::Base4K);
/// let second = tlb.access(0x1000, PageSize::Base4K);
/// assert_eq!(first, TlbOutcome::Walk);
/// assert_eq!(second, TlbOutcome::L1Hit);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TlbSim {
    l1_base: SetAssocTlb,
    l1_huge: SetAssocTlb,
    l2: SetAssocTlb,
    stats: TlbStats,
}

impl TlbSim {
    /// Creates a TLB with the given geometry.
    ///
    /// # Panics
    ///
    /// As [`renew`](Self::renew).
    pub fn new(geom: TlbGeometry) -> Self {
        Self::default().renew(geom)
    }

    /// This TLB emptied and reshaped to `geom`, keeping the storage of its
    /// levels: every way is empty and every counter zero.
    ///
    /// # Panics
    ///
    /// Panics if `ways` or an entry count is zero, or an entry count is not
    /// a multiple of `ways`.
    pub fn renew(self, geom: TlbGeometry) -> Self {
        Self {
            l1_base: self
                .l1_base
                .renew("l1_base_entries", geom.l1_base_entries, geom.ways),
            l1_huge: self
                .l1_huge
                .renew("l1_huge_entries", geom.l1_huge_entries, geom.ways),
            l2: self.l2.renew("l2_entries", geom.l2_entries, geom.ways),
            stats: TlbStats::default(),
        }
    }

    fn key(vaddr: u64, size: PageSize) -> u64 {
        // Keep base/huge translations distinct in the unified L2.
        let vpn = vaddr >> size.shift();
        (vpn << 1) | matches!(size, PageSize::Huge2M) as u64
    }

    /// Performs one data access to `vaddr`, translated at the given page
    /// size, and returns where the translation was found.
    pub fn access(&mut self, vaddr: u64, size: PageSize) -> TlbOutcome {
        self.stats.accesses += 1;
        let key = Self::key(vaddr, size);
        let l1 = match size {
            PageSize::Base4K => &mut self.l1_base,
            PageSize::Huge2M => &mut self.l1_huge,
        };
        if l1.lookup(key) {
            self.stats.l1_hits += 1;
            return TlbOutcome::L1Hit;
        }
        if self.l2.lookup(key) {
            self.stats.l2_hits += 1;
            l1.insert(key);
            return TlbOutcome::L2Hit;
        }
        self.stats.walks += 1;
        self.l2.insert(key);
        l1.insert(key);
        TlbOutcome::Walk
    }

    /// Counters so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sim() -> TlbSim {
        TlbSim::new(TlbGeometry::server())
    }

    #[test]
    fn cold_access_walks_then_hits() {
        let mut t = sim();
        assert_eq!(t.access(0x4000, PageSize::Base4K), TlbOutcome::Walk);
        assert_eq!(t.access(0x4000, PageSize::Base4K), TlbOutcome::L1Hit);
        assert_eq!(t.access(0x4FFF, PageSize::Base4K), TlbOutcome::L1Hit);
        assert_eq!(t.stats().walks, 1);
        assert_eq!(t.stats().accesses, 3);
    }

    #[test]
    fn hugepage_covers_512_base_pages() {
        // Touch 2 MiB of memory with base pages vs one hugepage.
        let mut base = sim();
        let mut huge = sim();
        for _ in 0..2 {
            for off in (0..(2u64 << 20)).step_by(4096) {
                base.access(off, PageSize::Base4K);
                huge.access(off, PageSize::Huge2M);
            }
        }
        assert_eq!(huge.stats().walks, 1);
        assert_eq!(base.stats().walks, 512);
        assert!(base.stats().miss_rate() > huge.stats().miss_rate());
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut t = sim();
        // Touch 128 distinct base pages: overflows the 64-entry L1 but fits
        // in the 1536-entry L2.
        for p in 0..128u64 {
            t.access(p << 12, PageSize::Base4K);
        }
        let walks_cold = t.stats().walks;
        assert_eq!(walks_cold, 128);
        for p in 0..128u64 {
            t.access(p << 12, PageSize::Base4K);
        }
        let s = t.stats();
        assert_eq!(s.walks, 128, "second pass must not walk");
        assert!(s.l2_hits > 0, "some second-pass accesses come from L2");
    }

    #[test]
    fn base_and_huge_translations_are_distinct() {
        let mut t = sim();
        t.access(0, PageSize::Base4K);
        // Same address as hugepage is a different translation.
        assert_eq!(t.access(0, PageSize::Huge2M), TlbOutcome::Walk);
    }

    #[test]
    fn stats_rates() {
        let s = TlbStats {
            accesses: 100,
            l1_hits: 90,
            l2_hits: 7,
            walks: 3,
        };
        assert!((s.walk_rate() - 0.03).abs() < 1e-12);
        assert!((s.miss_rate() - 0.10).abs() < 1e-12);
        assert_eq!(TlbStats::default().walk_rate(), 0.0);
    }

    #[test]
    fn set_choice_equals_the_modulo_on_every_server_level() {
        use wsc_prng::SmallRng;
        let t = sim();
        let levels = [&t.l1_base, &t.l1_huge, &t.l2];
        assert_eq!(levels.map(|l| l.sets), [16, 8, 384]);
        let mut rng = SmallRng::seed_from_u64(0x5e7_0f0f);
        for _ in 0..10_000 {
            let key: u64 = rng.gen();
            for level in levels {
                assert_eq!(level.set_of(key), key % level.sets, "key {key:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "TlbGeometry::ways must be positive")]
    fn zero_ways_is_refused() {
        let _ = TlbSim::new(TlbGeometry {
            ways: 0,
            ..TlbGeometry::server()
        });
    }

    #[test]
    #[should_panic(expected = "TlbGeometry::l1_huge_entries must be positive")]
    fn zero_entries_is_refused() {
        let _ = TlbSim::new(TlbGeometry {
            l1_huge_entries: 0,
            ..TlbGeometry::server()
        });
    }

    /// The retired level — one `Vec` of `Option` ways per set — and the
    /// simulator over it, kept only as the reference the flat array is
    /// compared against.
    mod reference {
        use super::super::{PageSize, TlbGeometry, TlbOutcome, TlbSim, TlbStats};

        struct SetAssoc {
            /// `sets[set][way] = Some((tag, last_used_tick))`.
            sets: Vec<Vec<Option<(u64, u64)>>>,
            tick: u64,
        }

        impl SetAssoc {
            fn new(entries: usize, ways: usize) -> Self {
                Self {
                    sets: vec![vec![None; ways]; entries / ways],
                    tick: 0,
                }
            }

            fn set_of(&self, key: u64) -> usize {
                (key % self.sets.len() as u64) as usize
            }

            fn lookup(&mut self, key: u64) -> bool {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_of(key);
                for (tag, used) in self.sets[set].iter_mut().flatten() {
                    if *tag == key {
                        *used = tick;
                        return true;
                    }
                }
                false
            }

            fn insert(&mut self, key: u64) {
                self.tick += 1;
                let tick = self.tick;
                let set = self.set_of(key);
                let ways = &mut self.sets[set];
                if let Some(slot) = ways.iter_mut().find(|s| s.is_none()) {
                    *slot = Some((key, tick));
                    return;
                }
                let victim = ways
                    .iter_mut()
                    .min_by_key(|s| s.map_or(0, |(_, used)| used))
                    .expect("ways is non-empty");
                *victim = Some((key, tick));
            }
        }

        pub struct RefTlb {
            l1_base: SetAssoc,
            l1_huge: SetAssoc,
            l2: SetAssoc,
            pub stats: TlbStats,
        }

        impl RefTlb {
            pub fn new(geom: TlbGeometry) -> Self {
                Self {
                    l1_base: SetAssoc::new(geom.l1_base_entries, geom.ways),
                    l1_huge: SetAssoc::new(geom.l1_huge_entries, geom.ways),
                    l2: SetAssoc::new(geom.l2_entries, geom.ways),
                    stats: TlbStats::default(),
                }
            }

            fn l1(&mut self, size: PageSize) -> &mut SetAssoc {
                match size {
                    PageSize::Base4K => &mut self.l1_base,
                    PageSize::Huge2M => &mut self.l1_huge,
                }
            }

            pub fn access(&mut self, vaddr: u64, size: PageSize) -> TlbOutcome {
                self.stats.accesses += 1;
                let key = TlbSim::key(vaddr, size);
                if self.l1(size).lookup(key) {
                    self.stats.l1_hits += 1;
                    return TlbOutcome::L1Hit;
                }
                if self.l2.lookup(key) {
                    self.stats.l2_hits += 1;
                    self.l1(size).insert(key);
                    return TlbOutcome::L2Hit;
                }
                self.stats.walks += 1;
                self.l2.insert(key);
                self.l1(size).insert(key);
                TlbOutcome::Walk
            }
        }
    }

    #[test]
    fn flat_levels_match_the_per_set_vecs() {
        use wsc_prng::SmallRng;
        // The server geometry (16-, 8- and the non-power-of-two 384-set
        // levels) and a tiny one whose sets overflow at once.
        let tiny = TlbGeometry {
            l1_base_entries: 4,
            l1_huge_entries: 2,
            l2_entries: 6,
            ways: 2,
        };
        for (case, geom) in [TlbGeometry::server(), tiny].into_iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(0x71b_f1a7 + case as u64);
            let mut flat = TlbSim::new(geom);
            let mut model = reference::RefTlb::new(geom);
            // Enough pages to overflow every level; page 0 of either size
            // (key 0 and key 1) is in play, as is the empty tag's value.
            let pages = 4 * geom.l2_entries as u64;
            for step in 0..200_000 {
                let size = if rng.gen::<f64>() < 0.3 {
                    PageSize::Huge2M
                } else {
                    PageSize::Base4K
                };
                // Skewed: a hot eighth of the pages takes half the accesses.
                let page = if rng.gen::<f64>() < 0.5 {
                    rng.gen_range(0..pages / 8)
                } else {
                    rng.gen_range(0..pages)
                };
                let vaddr = (page << size.shift()) + rng.gen_range(0..size.bytes());
                assert_eq!(
                    flat.access(vaddr, size),
                    model.access(vaddr, size),
                    "case {case} step {step}"
                );
                assert_eq!(flat.stats(), model.stats, "case {case} step {step}");
            }
            let s = flat.stats();
            assert!(s.l1_hits > 0 && s.l2_hits > 0 && s.walks > 0, "{s:?}");
        }
    }
}
