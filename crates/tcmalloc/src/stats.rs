//! Allocator-internal accounting: malloc cycles by component (Figure 6a)
//! and the fragmentation breakdown (Figures 5b and 6b).
//!
//! [`StatsView`] owns the ledger and the price table behind it. The
//! [`EventBus`](crate::events::EventBus) prices each completion through it
//! in the same call that reports the operation — one counter increment —
//! and the view turns its counts into [`CycleStats`] when read. The view is
//! also an [`EventSink`]: fed a *recorded* stream it rebuilds the same
//! ledger and profile, so cycle attribution cannot drift from what the
//! allocator reported per operation.

use crate::events::{AllocEvent, EventSink};
use wsc_sim_hw::cost::{ns_to_ps, AllocPath, CostModel, OpPrice, PriceTable};
use wsc_telemetry::gwp::{AllocationProfile, Sample};

/// Where allocator time goes — the categories of Figure 6a. Declaration
/// order is the paper's display order, and a category's discriminant is its
/// index into [`ALL`](Self::ALL) and the [`CycleStats`] arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CycleCategory {
    /// Per-CPU cache fast path.
    CpuCache,
    /// Transfer cache.
    TransferCache,
    /// Central free list.
    CentralFreeList,
    /// Pageheap (including OS refills).
    PageHeap,
    /// Sampled-allocation stack recording.
    Sampled,
    /// Next-object prefetching.
    Prefetch,
    /// Unclassified bookkeeping.
    Other,
}

impl CycleCategory {
    /// All categories in the paper's display order.
    pub const ALL: [CycleCategory; 7] = [
        CycleCategory::CpuCache,
        CycleCategory::TransferCache,
        CycleCategory::CentralFreeList,
        CycleCategory::PageHeap,
        CycleCategory::Sampled,
        CycleCategory::Prefetch,
        CycleCategory::Other,
    ];

    /// Number of categories.
    pub const COUNT: usize = Self::ALL.len();

    /// Display name matching the paper's figure legend.
    pub fn name(self) -> &'static str {
        match self {
            CycleCategory::CpuCache => "CPUCache",
            CycleCategory::TransferCache => "TransferCache",
            CycleCategory::CentralFreeList => "CentralFreeList",
            CycleCategory::PageHeap => "PageHeap",
            CycleCategory::Sampled => "Sampled",
            CycleCategory::Prefetch => "Prefetch",
            CycleCategory::Other => "Other",
        }
    }

    /// Position in [`ALL`](Self::ALL): the discriminant.
    const fn index(self) -> usize {
        self as usize
    }
}

// `ALL` holds each category at its own discriminant and ends with the last
// one declared: a reordered, repeated or missing entry fails to compile.
const _: () = {
    let mut i = 0;
    while i < CycleCategory::COUNT {
        assert!(CycleCategory::ALL[i].index() == i);
        i += 1;
    }
    assert!(CycleCategory::Other.index() + 1 == CycleCategory::COUNT);
};

impl From<AllocPath> for CycleCategory {
    fn from(path: AllocPath) -> Self {
        match path {
            AllocPath::PerCpu => CycleCategory::CpuCache,
            AllocPath::TransferCache => CycleCategory::TransferCache,
            AllocPath::CentralFreeList => CycleCategory::CentralFreeList,
            AllocPath::PageHeap | AllocPath::Mmap => CycleCategory::PageHeap,
        }
    }
}

/// Time and operation counts per category.
///
/// Accumulation is **order-independent**: time is stored as integer
/// picoseconds and converted to nanoseconds only at the query boundary, so
/// merging per-cell stats from a parallel run yields bit-identical totals
/// whatever the merge order (f64 summation would not).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleStats {
    ps: [u64; CycleCategory::COUNT],
    ops: [u64; CycleCategory::COUNT],
}

impl CycleStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `ns` to a category (stored with picosecond resolution).
    pub fn charge(&mut self, cat: CycleCategory, ns: f64) {
        // lint:allow(panic-surface) cat.index() enumerates CycleCategory,
        // and both arrays are sized CycleCategory::COUNT.
        self.ps[cat.index()] += ns_to_ps(ns);
        // lint:allow(panic-surface) same enum-sized bound as the line above.
        self.ops[cat.index()] += 1;
    }

    /// Books `n` completed mallocs or frees of one kind from their
    /// pre-rounded price: exactly the [`charge`](Self::charge) calls for
    /// path, prefetch (if issued), other and sampling (if sampled), `n`
    /// times over. Integer products equal the repeated adds they replace,
    /// wrapped or not.
    fn charge_ops(
        &mut self,
        path: AllocPath,
        prefetched: bool,
        sampled: bool,
        price: &OpPrice,
        n: u64,
    ) {
        const PREFETCH: usize = CycleCategory::Prefetch.index();
        const OTHER: usize = CycleCategory::Other.index();
        const SAMPLED: usize = CycleCategory::Sampled.index();
        let tier = CycleCategory::from(path).index();
        self.ps[tier] += price.path_ps * n;
        self.ops[tier] += n;
        self.ps[PREFETCH] += price.prefetch_ps * n;
        self.ops[PREFETCH] += u64::from(prefetched) * n;
        self.ps[OTHER] += price.other_ps * n;
        self.ops[OTHER] += n;
        self.ps[SAMPLED] += price.sampled_ps * n;
        self.ops[SAMPLED] += u64::from(sampled) * n;
    }

    /// Nanoseconds attributed to a category.
    pub fn ns(&self, cat: CycleCategory) -> f64 {
        self.ps[cat.index()] as f64 / 1000.0
    }

    /// Operations attributed to a category.
    pub fn ops(&self, cat: CycleCategory) -> u64 {
        self.ops[cat.index()]
    }

    /// Total allocator nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.ps.iter().sum::<u64>() as f64 / 1000.0
    }

    /// Fraction of allocator time per category (Figure 6a). Zero when idle.
    pub fn breakdown(&self) -> Vec<(CycleCategory, f64)> {
        let total = self.total_ns();
        CycleCategory::ALL
            .iter()
            .map(|&c| {
                let f = if total > 0.0 { self.ns(c) / total } else { 0.0 };
                (c, f)
            })
            .collect()
    }

    /// Merges another stats block. Integer addition — commutative and
    /// associative, so parallel cells can merge in any order.
    pub fn merge(&mut self, other: &CycleStats) {
        for i in 0..self.ps.len() {
            self.ps[i] += other.ps[i];
            self.ops[i] += other.ops[i];
        }
    }
}

/// The attribution view: the Figure 6a cycle ledger and the GWP allocation
/// profile, plus the [`PriceTable`] of the one Figure 4 calibration both
/// are booked against.
///
/// An operation is priced once, by `complete`: the table entry gives the
/// `ns` the allocator returns, and the view counts the completion under its
/// path × prefetched × sampled. [`cycles`](Self::cycles) multiplies the
/// counts by the same table's integer picoseconds, so what the allocator
/// returned and what the ledger says are identical by construction. The
/// live bus calls `complete` directly; as an [`EventSink`] the view calls it
/// for every `MallocDone` / `FreeDone` of a recorded stream, which is how
/// replaying the stream alone reconstructs the ledger.
#[derive(Clone, Debug)]
pub struct StatsView {
    prices: PriceTable,
    /// Completions per path × prefetched × sampled: the layout of
    /// [`PriceTable`].
    counts: [[[u64; 2]; 2]; AllocPath::ALL.len()],
    /// Direct charges: injected OS latency.
    booked: CycleStats,
    profile: AllocationProfile,
}

impl Default for StatsView {
    /// A zeroed view pricing against the Figure 4 calibration,
    /// [`CostModel::production`].
    fn default() -> Self {
        Self {
            prices: PriceTable::new(&CostModel::production()),
            counts: Default::default(),
            booked: CycleStats::new(),
            profile: AllocationProfile::default(),
        }
    }
}

impl StatsView {
    /// This view zeroed, exactly as [`default`](Self::default) builds one,
    /// with the profile's storage kept.
    pub(crate) fn renew(self) -> Self {
        Self {
            prices: self.prices,
            counts: Default::default(),
            booked: CycleStats::new(),
            profile: self.profile.renew(),
        }
    }

    /// The derived cycle attribution: what is booked plus every counted
    /// completion times its price.
    pub fn cycles(&self) -> CycleStats {
        let mut cycles = self.booked.clone();
        for (path, by_prefetch) in AllocPath::ALL.into_iter().zip(&self.counts) {
            for (prefetched, by_sampled) in [false, true].into_iter().zip(by_prefetch) {
                for (sampled, &n) in [false, true].into_iter().zip(by_sampled) {
                    let price = self.prices.op(path, prefetched, sampled);
                    cycles.charge_ops(path, prefetched, sampled, price, n);
                }
            }
        }
        cycles
    }

    /// The derived allocation profile.
    pub fn profile(&self) -> &AllocationProfile {
        &self.profile
    }

    /// Counts one completion and returns its nanoseconds.
    #[inline]
    pub(crate) fn complete(&mut self, path: AllocPath, prefetched: bool, sampled: bool) -> f64 {
        // lint:allow(panic-surface) path, prefetched and sampled index a
        // table sized AllocPath::ALL.len() × 2 × 2.
        self.counts[path as usize][usize::from(prefetched)][usize::from(sampled)] += 1;
        self.prices.op(path, prefetched, sampled).ns
    }

    /// Books one event: what [`EventSink::on_event`] does, for callers with
    /// no timestamp to hand (the view never reads it).
    pub(crate) fn apply(&mut self, ev: &AllocEvent) {
        match *ev {
            AllocEvent::MallocDone {
                path,
                prefetched,
                sampled,
                ..
            } => {
                self.complete(path, prefetched, sampled);
            }
            AllocEvent::FreeDone { path, .. } => {
                self.complete(path, false, false);
            }
            AllocEvent::OsFault { latency_ns, .. } if latency_ns > 0 => {
                // Injected kernel latency (THP compaction stall, flaky
                // madvise) is allocator time spent waiting on the OS —
                // charge it where the paper books mmap cost.
                self.booked
                    .charge(CycleCategory::PageHeap, latency_ns as f64);
            }
            AllocEvent::SamplerPick {
                size,
                site,
                now_ns,
                weight,
                ..
            } => self.profile.record_alloc(&Sample {
                size,
                site,
                alloc_time_ns: now_ns,
                weight,
            }),
            AllocEvent::SampledFree {
                size,
                lifetime_ns,
                weight,
            } => self.profile.record_lifetime(size, lifetime_ns, weight),
            _ => {}
        }
    }
}

impl EventSink for StatsView {
    fn on_event(&mut self, _ts_ns: u64, ev: &AllocEvent) {
        self.apply(ev);
    }
}

/// Fragmentation snapshot — the decomposition behind Figures 5b and 6b.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FragmentationBreakdown {
    /// Application-requested live bytes.
    pub live_bytes: u64,
    /// Internal fragmentation: slack between request and size class.
    pub internal_bytes: u64,
    /// External: objects cached in per-CPU caches.
    pub percpu_bytes: u64,
    /// External: objects cached in transfer caches.
    pub transfer_bytes: u64,
    /// External: free objects + carving slack on central-free-list spans.
    pub central_bytes: u64,
    /// External: resident free pages held by the pageheap.
    pub pageheap_bytes: u64,
    /// Resident heap bytes per the (simulated) kernel.
    pub resident_bytes: u64,
}

impl FragmentationBreakdown {
    /// Total external fragmentation.
    pub fn external_bytes(&self) -> u64 {
        self.percpu_bytes + self.transfer_bytes + self.central_bytes + self.pageheap_bytes
    }

    /// Total fragmentation (internal + external).
    pub fn total_bytes(&self) -> u64 {
        self.external_bytes() + self.internal_bytes
    }

    /// Fragmentation ratio: fragmented / live (Figure 5b). Zero when empty.
    pub fn ratio(&self) -> f64 {
        if self.live_bytes == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.live_bytes as f64
        }
    }

    /// Shares of total fragmentation per source, in the Figure 6b order:
    /// `[CPUCache, TransferCache, CentralFreeList, PageHeap, Internal]`.
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total_bytes().max(1) as f64;
        [
            self.percpu_bytes as f64 / total,
            self.transfer_bytes as f64 / total,
            self.central_bytes as f64 / total,
            self.pageheap_bytes as f64 / total,
            self.internal_bytes as f64 / total,
        ]
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use wsc_prng::SmallRng;

    #[test]
    fn charge_and_breakdown() {
        let mut s = CycleStats::new();
        s.charge(CycleCategory::CpuCache, 53.0);
        s.charge(CycleCategory::Prefetch, 16.0);
        s.charge(CycleCategory::CentralFreeList, 31.0);
        assert!((s.total_ns() - 100.0).abs() < 1e-9);
        let b = s.breakdown();
        let cpu = b
            .iter()
            .find(|(c, _)| *c == CycleCategory::CpuCache)
            .unwrap()
            .1;
        assert!((cpu - 0.53).abs() < 1e-9);
        assert_eq!(s.ops(CycleCategory::CpuCache), 1);
    }

    #[test]
    fn alloc_path_maps_to_category() {
        assert_eq!(
            CycleCategory::from(AllocPath::Mmap),
            CycleCategory::PageHeap
        );
        assert_eq!(
            CycleCategory::from(AllocPath::PerCpu),
            CycleCategory::CpuCache
        );
    }

    #[test]
    fn merge_sums() {
        let mut a = CycleStats::new();
        let mut b = CycleStats::new();
        a.charge(CycleCategory::Other, 1.0);
        b.charge(CycleCategory::Other, 2.0);
        a.merge(&b);
        assert!((a.ns(CycleCategory::Other) - 3.0).abs() < 1e-9);
        assert_eq!(a.ops(CycleCategory::Other), 2);
    }

    /// Satellite: merge across cells is order-independent — integer
    /// picoseconds cannot drift the way float summation order can.
    #[test]
    fn merge_order_property() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for _ in 0..200 {
            let cells: Vec<CycleStats> = (0..8)
                .map(|_| {
                    let mut s = CycleStats::new();
                    for _ in 0..rng.gen_range(1..20u32) {
                        let cat = CycleCategory::ALL
                            [rng.gen_range(0..CycleCategory::COUNT as u64) as usize];
                        // Tenths of ns, like the cost model's calibration.
                        let ns = rng.gen_range(1..130_000u64) as f64 / 10.0;
                        s.charge(cat, ns);
                    }
                    s
                })
                .collect();
            let mut forward = CycleStats::new();
            for c in &cells {
                forward.merge(c);
            }
            let mut backward = CycleStats::new();
            for c in cells.iter().rev() {
                backward.merge(c);
            }
            // Pairwise tree merge, a third order.
            let mut tree: Vec<CycleStats> = cells.clone();
            while tree.len() > 1 {
                let mut next = Vec::new();
                for pair in tree.chunks(2) {
                    let mut m = pair[0].clone();
                    if let Some(b) = pair.get(1) {
                        m.merge(b);
                    }
                    next.push(m);
                }
                tree = next;
            }
            assert_eq!(forward, backward, "merge order must not matter");
            assert_eq!(forward, tree[0], "tree merge identical too");
            assert_eq!(forward.total_ns(), backward.total_ns());
        }
    }

    #[test]
    fn picosecond_storage_is_exact_for_cost_model_values() {
        // All calibrated constants are tenths of ns; ps storage is exact.
        let mut s = CycleStats::new();
        s.charge(CycleCategory::CpuCache, 3.1);
        s.charge(CycleCategory::CpuCache, 3.1);
        assert_eq!(s.ns(CycleCategory::CpuCache), 6.2);
        s.charge(CycleCategory::PageHeap, 12_916.7);
        assert_eq!(s.ns(CycleCategory::PageHeap), 12_916.7);
    }

    #[test]
    fn fragmentation_ratio_and_shares() {
        let f = FragmentationBreakdown {
            live_bytes: 1000,
            internal_bytes: 34,
            percpu_bytes: 30,
            transfer_bytes: 10,
            central_bytes: 64,
            pageheap_bytes: 84,
            resident_bytes: 1222,
        };
        assert_eq!(f.external_bytes(), 188);
        assert!((f.ratio() - 0.222).abs() < 1e-9);
        let shares = f.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(shares[3] > shares[2], "pageheap dominates CFL here");
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let s = CycleStats::new();
        assert_eq!(s.total_ns(), 0.0);
        assert!(s.breakdown().iter().all(|(_, f)| *f == 0.0));
        assert_eq!(FragmentationBreakdown::default().ratio(), 0.0);
    }
}
