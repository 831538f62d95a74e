//! The cycle/nanosecond cost model (the paper's Figure 4).
//!
//! Figure 4 measures the mean allocation latency of hitting each tier of the
//! TCMalloc cache hierarchy: 3.1 ns for the per-CPU fast path (~40 x86
//! instructions under a restartable sequence), 137 ns for the pageheap, and
//! 12 916.7 ns for refilling the pageheap with an `mmap` system call.
//! [`CostModel`] holds those constants plus the memory-system costs (LLC and
//! TLB) that convert allocator *placement* decisions into application stall
//! cycles — the paper's central argument being that the latter dwarf the
//! former.

use crate::latency::INTER_DOMAIN_NS;

/// Which allocator tier ultimately satisfied an allocation request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocPath {
    /// Per-CPU front-end cache fast path.
    PerCpu,
    /// Middle-tier transfer cache.
    TransferCache,
    /// Middle-tier central free list (span manipulation).
    CentralFreeList,
    /// Back-end hugepage-aware pageheap.
    PageHeap,
    /// Pageheap refill from the OS (`mmap` of a zeroed hugepage).
    Mmap,
}

impl AllocPath {
    /// All paths, front-end first.
    pub const ALL: [AllocPath; 5] = [
        AllocPath::PerCpu,
        AllocPath::TransferCache,
        AllocPath::CentralFreeList,
        AllocPath::PageHeap,
        AllocPath::Mmap,
    ];

    /// Human-readable tier name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AllocPath::PerCpu => "CPUCache",
            AllocPath::TransferCache => "TransferCache",
            AllocPath::CentralFreeList => "CentralFreeList",
            AllocPath::PageHeap => "PageHeap",
            AllocPath::Mmap => "mmap",
        }
    }
}

/// Calibrated latency and cost constants for one platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Core clock, GHz (cycles per nanosecond).
    pub freq_ghz: f64,

    // --- Allocation-path latencies (Figure 4), nanoseconds ---
    /// Per-CPU cache hit (restartable-sequence fast path).
    pub percpu_hit_ns: f64,
    /// Transfer cache hit (one mutex + array move).
    pub transfer_cache_ns: f64,
    /// Central free list hit (mutex + linked-list span carving).
    pub central_freelist_ns: f64,
    /// Pageheap hit (hugepage tracker manipulation).
    pub pageheap_ns: f64,
    /// `mmap` of a zeroed 2 MiB hugepage from the OS.
    pub mmap_ns: f64,

    // --- Per-operation overheads ---
    /// Next-object prefetch issued on every allocation (16% of fleet malloc
    /// cycles per Figure 6a, but key to data-cache locality).
    pub prefetch_ns: f64,
    /// Extra cost of a *sampled* allocation (stack unwind + recording).
    pub sampled_alloc_ns: f64,
    /// Unclassified bookkeeping per operation (the "Other" slice).
    pub other_ns: f64,

    // --- Memory-system costs, nanoseconds ---
    /// LLC hit.
    pub llc_hit_ns: f64,
    /// LLC miss served from local memory.
    pub mem_ns: f64,
    /// Extra cost when the block must transfer from another LLC domain
    /// (on top of nothing — this is the full remote-transfer latency,
    /// [`INTER_DOMAIN_NS`] in production).
    pub remote_llc_ns: f64,
    /// Second-level TLB hit (L1 TLB miss).
    pub l2_tlb_hit_ns: f64,
    /// Full page-table walk.
    pub tlb_walk_ns: f64,
}

impl CostModel {
    /// The production-platform calibration used throughout the reproduction.
    ///
    /// Figure 4 anchors: per-CPU 3.1 ns, pageheap 137 ns, mmap 12 916.7 ns.
    /// The transfer cache and central free list sit between the front-end and
    /// the pageheap (both mutex-protected; the central free list additionally
    /// walks span lists), calibrated at 24.9 ns and 81.4 ns.
    pub const fn production() -> Self {
        Self {
            freq_ghz: 2.0,
            percpu_hit_ns: 3.1,
            transfer_cache_ns: 24.9,
            central_freelist_ns: 81.4,
            pageheap_ns: 137.0,
            mmap_ns: 12_916.7,
            prefetch_ns: 1.9,
            sampled_alloc_ns: 5_500.0,
            other_ns: 0.5,
            llc_hit_ns: 14.0,
            mem_ns: 100.0,
            remote_llc_ns: INTER_DOMAIN_NS,
            l2_tlb_hit_ns: 7.0,
            tlb_walk_ns: 30.0,
        }
    }

    /// Latency of an allocation satisfied at `path`, ns.
    pub fn alloc_path_ns(&self, path: AllocPath) -> f64 {
        match path {
            AllocPath::PerCpu => self.percpu_hit_ns,
            AllocPath::TransferCache => self.transfer_cache_ns,
            AllocPath::CentralFreeList => self.central_freelist_ns,
            AllocPath::PageHeap => self.pageheap_ns,
            AllocPath::Mmap => self.mmap_ns,
        }
    }

    /// Converts nanoseconds to core cycles.
    pub fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.freq_ghz
    }

    /// Converts core cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.freq_ghz
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::production()
    }
}

/// Nanoseconds as the integer picoseconds a cycle ledger books — the one
/// place the rounding is defined.
pub fn ns_to_ps(ns: f64) -> u64 {
    (ns * 1000.0).round() as u64
}

/// The price of one completed malloc or free: the nanoseconds the allocator
/// reports and the integer picoseconds each component books.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpPrice {
    /// Total nanoseconds, summed path + prefetch + other + sampled in that
    /// order (float addition is order-sensitive; callers compare bits).
    pub ns: f64,
    /// The satisfying tier's latency, ps.
    pub path_ps: u64,
    /// Next-object prefetch, ps; zero when none was issued.
    pub prefetch_ps: u64,
    /// Unclassified bookkeeping, ps.
    pub other_ps: u64,
    /// Sampled-allocation recording, ps; zero when unsampled.
    pub sampled_ps: u64,
}

/// Every [`OpPrice`] a [`CostModel`] can produce, per [`AllocPath`] ×
/// prefetched × sampled, computed once so a completion is a table read and
/// integer adds instead of float sums and a `round()` per component.
#[derive(Clone, Debug, PartialEq)]
pub struct PriceTable {
    ops: [[[OpPrice; 2]; 2]; AllocPath::ALL.len()],
}

impl PriceTable {
    /// Prices every combination against `cost`.
    pub fn new(cost: &CostModel) -> Self {
        let mut ops = [[[OpPrice::default(); 2]; 2]; AllocPath::ALL.len()];
        let prefetch_ps = ns_to_ps(cost.prefetch_ns);
        let other_ps = ns_to_ps(cost.other_ns);
        let sampled_ps = ns_to_ps(cost.sampled_alloc_ns);
        for path in AllocPath::ALL {
            let path_ns = cost.alloc_path_ns(path);
            let path_ps = ns_to_ps(path_ns);
            for prefetched in [false, true] {
                for sampled in [false, true] {
                    let mut p = OpPrice {
                        ns: path_ns,
                        path_ps,
                        other_ps,
                        ..OpPrice::default()
                    };
                    if prefetched {
                        p.ns += cost.prefetch_ns;
                        p.prefetch_ps = prefetch_ps;
                    }
                    p.ns += cost.other_ns;
                    if sampled {
                        p.ns += cost.sampled_alloc_ns;
                        p.sampled_ps = sampled_ps;
                    }
                    ops[path as usize][usize::from(prefetched)][usize::from(sampled)] = p;
                }
            }
        }
        Self { ops }
    }

    /// The price of an allocation satisfied at `path`. A free is the
    /// unprefetched, unsampled entry: path + other.
    #[inline]
    pub fn op(&self, path: AllocPath, prefetched: bool, sampled: bool) -> &OpPrice {
        &self.ops[path as usize][usize::from(prefetched)][usize::from(sampled)]
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn figure4_anchors() {
        let c = CostModel::production();
        assert!((c.alloc_path_ns(AllocPath::PerCpu) - 3.1).abs() < 1e-9);
        assert!((c.alloc_path_ns(AllocPath::PageHeap) - 137.0).abs() < 1e-9);
        assert!((c.alloc_path_ns(AllocPath::Mmap) - 12_916.7).abs() < 1e-9);
    }

    #[test]
    fn tiers_strictly_slower_down_the_hierarchy() {
        let c = CostModel::production();
        let lat: Vec<f64> = AllocPath::ALL.iter().map(|&p| c.alloc_path_ns(p)).collect();
        assert!(lat.windows(2).all(|w| w[0] < w[1]), "{lat:?}");
    }

    #[test]
    fn mmap_orders_of_magnitude_slower() {
        // The paper highlights that an OS refill is orders of magnitude more
        // expensive than any cache hit — the reason userspace caching exists.
        let c = CostModel::production();
        assert!(c.mmap_ns / c.percpu_hit_ns > 1000.0);
    }

    #[test]
    fn cycle_conversions_round_trip() {
        let c = CostModel::production();
        let ns = 123.4;
        assert!((c.cycles_to_ns(c.ns_to_cycles(ns)) - ns).abs() < 1e-9);
        assert!((c.ns_to_cycles(1.0) - 2.0).abs() < 1e-9);
    }

    /// The per-call arithmetic the table replaces: the float sum in the
    /// allocator's component order and one `round()` per charged component.
    fn per_call(c: &CostModel, path: AllocPath, prefetched: bool, sampled: bool) -> OpPrice {
        let ps = |ns: f64| (ns * 1000.0).round() as u64;
        let mut ns = c.alloc_path_ns(path);
        if prefetched {
            ns += c.prefetch_ns;
        }
        ns += c.other_ns;
        if sampled {
            ns += c.sampled_alloc_ns;
        }
        OpPrice {
            ns,
            path_ps: ps(c.alloc_path_ns(path)),
            prefetch_ps: if prefetched { ps(c.prefetch_ns) } else { 0 },
            other_ps: ps(c.other_ns),
            sampled_ps: if sampled { ps(c.sampled_alloc_ns) } else { 0 },
        }
    }

    #[test]
    fn price_table_equals_the_per_call_sums_it_replaces() {
        // Production constants are tenths of a ns; the second calibration is
        // deliberately not, so rounding and summation order both matter.
        let odd = CostModel {
            percpu_hit_ns: 3.123_45,
            transfer_cache_ns: 24.987_654_3,
            central_freelist_ns: 81.400_49,
            pageheap_ns: 137.000_5,
            mmap_ns: 12_916.666_666_7,
            prefetch_ns: 1.899_95,
            sampled_alloc_ns: 5_499.999_5,
            other_ns: 0.333_333_3,
            ..CostModel::production()
        };
        for cost in [CostModel::production(), odd] {
            let table = PriceTable::new(&cost);
            for (i, path) in AllocPath::ALL.into_iter().enumerate() {
                assert_eq!(path as usize, i, "ALL is in discriminant order");
                for prefetched in [false, true] {
                    for sampled in [false, true] {
                        let want = per_call(&cost, path, prefetched, sampled);
                        let got = table.op(path, prefetched, sampled);
                        assert_eq!(got.ns.to_bits(), want.ns.to_bits(), "{path:?}");
                        assert_eq!(*got, want, "{path:?} {prefetched} {sampled}");
                    }
                }
                // A free prices as path + other.
                let free = table.op(path, false, false).ns;
                assert_eq!(
                    free.to_bits(),
                    (cost.alloc_path_ns(path) + cost.other_ns).to_bits()
                );
            }
        }
    }

    #[test]
    fn path_names_match_paper() {
        assert_eq!(AllocPath::PerCpu.name(), "CPUCache");
        assert_eq!(AllocPath::Mmap.name(), "mmap");
    }
}
