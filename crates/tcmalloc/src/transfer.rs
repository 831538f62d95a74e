//! The middle-tier transfer cache (§4.2), legacy and NUCA-aware.
//!
//! The transfer cache holds flat arrays of free-object pointers per size
//! class, letting memory "flow rapidly between CPUs" — an object freed on
//! CPU 0 can be handed to CPU 1 without touching spans. On chiplet platforms
//! that very property hurts: the new owner sits in a different LLC domain
//! and must pull the object's cache lines across the fabric at 2.07× the
//! local latency (Figure 11).
//!
//! The NUCA-aware redesign (Figure 12) shards the cache per LLC domain, with
//! the legacy central cache retained as a backing tier, and periodically
//! *plunders* idle domain caches back into the central one to prevent
//! stranding. Domain caches are activated lazily, "only as many ... as the
//! application is scheduled on".

use crate::events::{AllocEvent, EventBus, EvictReason};
use crate::size_class::SizeClassTable;

#[derive(Clone, Debug)]
struct ClassArray {
    objs: Vec<u64>,
    max_objs: usize,
    /// Minimum occupancy since the last reclaim pass: objects below the
    /// low-water mark were provably unused for a whole interval.
    low_water: usize,
}

impl ClassArray {
    /// Absorbs as long a prefix of `objs` as there is room for and returns
    /// its length.
    fn insert(&mut self, objs: &[u64]) -> usize {
        let room = self.max_objs.saturating_sub(self.objs.len());
        let take = room.min(objs.len());
        // lint:allow(panic-surface) take <= objs.len().
        self.objs.extend_from_slice(&objs[..take]);
        take
    }

    /// Moves up to `n` objects off the hot end onto `out`, in array order.
    fn remove(&mut self, n: usize, out: &mut Vec<u64>) {
        let keep = self.objs.len() - n.min(self.objs.len());
        out.extend(self.objs.drain(keep..));
        self.low_water = self.low_water.min(keep);
    }

    /// Takes the unused residue (the low-water mark) from the cold end and
    /// resets the mark.
    fn reclaim(&mut self) -> Vec<u64> {
        let shed = self.low_water.min(self.objs.len());
        let out: Vec<u64> = self.objs.drain(..shed).collect();
        self.low_water = self.objs.len();
        out
    }
}

/// Builds one tier's arrays: capacity is `batches_capacity` batches per
/// class, additionally byte-capped at `byte_cap` per class so large size
/// classes do not strand megabytes (production transfer caches are
/// byte-limited the same way).
fn new_tier(table_sizes: &[(u64, u32)], batches_capacity: u32, byte_cap: u64) -> Vec<ClassArray> {
    table_sizes
        .iter()
        .map(|&(size, batch)| {
            let by_batches = (batch as u64) * batches_capacity as u64;
            let by_bytes = (byte_cap / size).max(1);
            ClassArray {
                objs: Vec::new(),
                max_objs: by_batches.min(by_bytes) as usize,
                low_water: 0,
            }
        })
        .collect()
}

/// How the transfer-cache tier is sharded across the machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransferSharding {
    /// One central cache (the legacy design).
    #[default]
    Central,
    /// One cache per LLC domain, backed by the central cache — the §4.2
    /// NUCA-aware design.
    Domain,
    /// One cache per NUMA node (the §5 "NUMA architecture and beyond"
    /// extension): coarser than per-domain, but keeps allocations
    /// node-local on multi-socket parts without per-CCX sharding.
    Node,
}

impl TransferSharding {
    /// Is a sharded (non-central) tier active?
    pub fn is_sharded(self) -> bool {
        self != TransferSharding::Central
    }
}

/// Central (legacy) cache capacity, in batches per size class.
pub const CENTRAL_BATCHES: u32 = 4;

/// Per-shard capacity, in batches per size class (Domain/Node modes).
pub const DOMAIN_BATCHES: u32 = 1;

/// The transfer-cache tier: a legacy central cache, optionally fronted by
/// per-LLC-domain (or per-NUMA-node) shard caches.
///
/// # Example
///
/// ```
/// use wsc_tcmalloc::size_class::SizeClassTable;
/// use wsc_tcmalloc::transfer::{TransferCaches, TransferSharding};
///
/// let table = SizeClassTable::production();
/// let mut tc = TransferCaches::new(&table, TransferSharding::Domain);
/// # use wsc_tcmalloc::{EventBus, TcmallocConfig};
/// # use wsc_sim_hw::cost::CostModel;
/// # use wsc_sim_os::clock::Clock;
/// # let mut bus = EventBus::new(&TcmallocConfig::baseline(), CostModel::production(), Clock::new());
/// assert_eq!(tc.stash(0, 3, &[0x1000, 0x2000], &mut bus), 2, "both absorbed");
/// // The same shard gets its own objects back (cache-domain locality).
/// let mut batch = Vec::new();
/// tc.fetch(0, 3, 2, &mut batch, &mut bus);
/// assert_eq!(batch, [0x1000, 0x2000]);
/// ```
#[derive(Clone, Debug)]
pub struct TransferCaches {
    central: Vec<ClassArray>,
    domains: Vec<Option<Vec<ClassArray>>>,
    sizes_batches: Vec<(u64, u32)>,
    sharding: TransferSharding,
}

impl TransferCaches {
    /// Creates the tier for a size-class table.
    pub fn new(table: &SizeClassTable, sharding: TransferSharding) -> Self {
        let sizes_batches: Vec<(u64, u32)> = table.iter().map(|c| (c.size, c.batch)).collect();
        Self {
            central: new_tier(&sizes_batches, CENTRAL_BATCHES, 256 << 10),
            domains: Vec::new(),
            sizes_batches,
            sharding,
        }
    }

    fn shard_tier(&mut self, shard: usize) -> &mut Vec<ClassArray> {
        if shard >= self.domains.len() {
            self.domains.resize_with(shard + 1, || None);
        }
        let sizes = &self.sizes_batches;
        self.domains[shard].get_or_insert_with(|| new_tier(sizes, DOMAIN_BATCHES, 4 << 10))
    }

    /// Takes up to `n` objects for `class`, preferring the caller's shard
    /// (LLC domain or NUMA node) in sharded modes, and appends them to
    /// `out`. May take fewer than `n` (caller goes to the central free list
    /// for the remainder). Taking any emits one [`AllocEvent::TransferHit`].
    pub fn fetch(
        &mut self,
        shard: usize,
        class: usize,
        n: usize,
        out: &mut Vec<u64>,
        bus: &mut EventBus,
    ) {
        let start = out.len();
        if self.sharding.is_sharded() {
            self.shard_tier(shard)[class].remove(n, out);
        }
        let got = out.len() - start;
        if got < n {
            self.central[class].remove(n - got, out);
        }
        let got = out.len() - start;
        if got > 0 {
            bus.emit(AllocEvent::TransferHit {
                shard,
                class: class as u16,
                count: got as u32,
            });
        }
    }

    /// Deposits freed objects for `class`: the shard's array takes a prefix
    /// of `objs`, the central array a prefix of what is left. Returns how
    /// many objects were absorbed; the caller pushes `objs[absorbed..]` down
    /// to the central free list. Any absorbed objects emit one
    /// [`AllocEvent::TransferInsert`] tagged with the depositing shard.
    pub fn stash(&mut self, shard: usize, class: usize, objs: &[u64], bus: &mut EventBus) -> usize {
        let mut kept = if self.sharding.is_sharded() {
            self.shard_tier(shard)[class].insert(objs)
        } else {
            0
        };
        // lint:allow(panic-surface) insert() returns at most objs.len().
        kept += self.central[class].insert(&objs[kept..]);
        if kept > 0 {
            bus.emit(AllocEvent::TransferInsert {
                shard,
                class: class as u16,
                count: kept as u32,
            });
        }
        kept
    }

    /// Deposits objects directly into the central (legacy) cache, bypassing
    /// any domain tier — used for background evictions that have no owning
    /// CPU (the insert event is tagged shard 0). Returns the length of the
    /// absorbed prefix, as [`stash`](Self::stash) does.
    pub fn stash_central(&mut self, class: usize, objs: &[u64], bus: &mut EventBus) -> usize {
        let kept = self.central[class].insert(objs);
        if kept > 0 {
            bus.emit(AllocEvent::TransferInsert {
                shard: 0,
                class: class as u16,
                count: kept as u32,
            });
        }
        kept
    }

    /// Periodic anti-stranding pass (§4.2: "we periodically release unused
    /// free objects in these transfer caches"): each domain cache returns
    /// its low-water residue — objects provably unused for a whole interval
    /// — to the central cache. Returns objects that did not fit centrally
    /// (to be returned to the central free list), grouped by class. Each
    /// plundered (shard, class) emits one [`AllocEvent::TransferEvict`].
    pub fn plunder(&mut self, bus: &mut EventBus) -> Vec<(usize, Vec<u64>)> {
        let mut overflow = Vec::new();
        if !self.sharding.is_sharded() {
            return overflow;
        }
        for (shard, tier) in self.domains.iter_mut().enumerate() {
            let Some(tier) = tier else { continue };
            for (cl, arr) in tier.iter_mut().enumerate() {
                let mut moved = arr.reclaim();
                if moved.is_empty() {
                    continue;
                }
                bus.emit(AllocEvent::TransferEvict {
                    shard,
                    class: cl as u16,
                    count: moved.len() as u32,
                    reason: EvictReason::Plunder,
                });
                let kept = self.central[cl].insert(&moved);
                if kept < moved.len() {
                    moved.drain(..kept);
                    overflow.push((cl, moved));
                }
            }
        }
        overflow
    }

    /// Low-water reclaim for the central arrays: objects unused for a whole
    /// interval return to the central free list. Returns the evicted objects
    /// grouped by class; each evicted class emits one
    /// [`AllocEvent::TransferEvict`] (tagged shard 0 — the central arrays).
    pub fn decay(&mut self, bus: &mut EventBus) -> Vec<(usize, Vec<u64>)> {
        let mut out: Vec<(usize, Vec<u64>)> = Vec::new();
        for (cl, arr) in self.central.iter_mut().enumerate() {
            let objs = arr.reclaim();
            if !objs.is_empty() {
                bus.emit(AllocEvent::TransferEvict {
                    shard: 0,
                    class: cl as u16,
                    count: objs.len() as u32,
                    reason: EvictReason::Decay,
                });
                out.push((cl, objs));
            }
        }
        out
    }

    /// Bytes cached across the whole tier (external fragmentation of the
    /// transfer cache, Figure 6b).
    pub fn cached_bytes(&self) -> u64 {
        let central: u64 = self
            .central
            .iter()
            .zip(&self.sizes_batches)
            .map(|(a, &(size, _))| a.objs.len() as u64 * size)
            .sum();
        let domain: u64 = self
            .domains
            .iter()
            .flatten()
            .map(|tier| {
                tier.iter()
                    .zip(&self.sizes_batches)
                    .map(|(a, &(size, _))| a.objs.len() as u64 * size)
                    .sum::<u64>()
            })
            .sum();
        central + domain
    }

    /// Number of domain caches activated so far.
    pub fn active_domains(&self) -> usize {
        self.domains.iter().flatten().count()
    }

    /// Objects cached per size class across the central arrays and every
    /// domain shard (the transfer term of the sanitizer's
    /// object-conservation audit).
    pub fn cached_objects_by_class(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.central.iter().map(|a| a.objs.len() as u64).collect();
        for tier in self.domains.iter().flatten() {
            for (cl, arr) in tier.iter().enumerate() {
                counts[cl] += arr.objs.len() as u64;
            }
        }
        counts
    }

    /// Drains every cached object, grouped by class.
    // lint:allow(event-completeness) teardown drain: evicted objects are
    // handed back to the caller, whose reinsertion paths emit.
    pub fn flush_all(&mut self) -> Vec<(usize, Vec<u64>)> {
        let mut out: Vec<(usize, Vec<u64>)> = Vec::new();
        for (cl, arr) in self.central.iter_mut().enumerate() {
            if !arr.objs.is_empty() {
                out.push((cl, std::mem::take(&mut arr.objs)));
            }
        }
        for tier in self.domains.iter_mut().flatten() {
            for (cl, arr) in tier.iter_mut().enumerate() {
                if !arr.objs.is_empty() {
                    out.push((cl, std::mem::take(&mut arr.objs)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::TcmallocConfig;
    use wsc_sim_hw::cost::CostModel;
    use wsc_sim_os::clock::Clock;

    fn table() -> SizeClassTable {
        SizeClassTable::production()
    }

    fn bus() -> EventBus {
        EventBus::new(
            &TcmallocConfig::baseline(),
            CostModel::production(),
            Clock::new(),
        )
    }

    fn legacy() -> TransferCaches {
        TransferCaches::new(&table(), TransferSharding::Central)
    }

    /// `fetch` into a fresh buffer.
    fn fetch(tc: &mut TransferCaches, shard: usize, class: usize, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        tc.fetch(shard, class, n, &mut out, &mut bus());
        out
    }

    fn nuca() -> TransferCaches {
        TransferCaches::new(&table(), TransferSharding::Domain)
    }

    #[test]
    fn legacy_round_trip() {
        let mut tc = legacy();
        let mut b = bus();
        assert_eq!(tc.stash(0, 1, &[1, 2, 3], &mut b), 3);
        let got = fetch(&mut tc, 1, 1, 3);
        assert_eq!(got.len(), 3, "legacy cache is shared across domains");
        assert!(fetch(&mut tc, 0, 1, 1).is_empty());
    }

    #[test]
    fn nuca_prefers_local_domain() {
        let mut tc = nuca();
        let mut b = bus();
        tc.stash(0, 1, &[10], &mut b);
        tc.stash(1, 1, &[20], &mut b);
        // Domain 0 gets its own object first.
        assert_eq!(fetch(&mut tc, 0, 1, 1), vec![10]);
        assert_eq!(fetch(&mut tc, 1, 1, 1), vec![20]);
    }

    #[test]
    fn nuca_falls_back_to_central() {
        let mut tc = nuca();
        let mut b = bus();
        // Overfill domain 0 so the excess lands centrally.
        let batch = table().info(1).batch as usize;
        let cap = batch * DOMAIN_BATCHES as usize;
        let objs: Vec<u64> = (0..(cap + 5) as u64).collect();
        let kept = tc.stash(0, 1, &objs, &mut b);
        assert_eq!(kept, objs.len(), "central absorbs the domain overflow");
        // Domain 1 has nothing local but can still pull from central.
        let got = fetch(&mut tc, 1, 1, 3);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn overflow_to_caller_when_everything_full() {
        let mut tc = legacy();
        let mut b = bus();
        let batch = table().info(1).batch as usize;
        let central_cap = batch * CENTRAL_BATCHES as usize;
        let objs: Vec<u64> = (0..(central_cap + 7) as u64).collect();
        let kept = tc.stash(0, 1, &objs, &mut b);
        assert_eq!(objs.len() - kept, 7, "beyond capacity goes to the caller");
    }

    #[test]
    fn fetch_may_return_fewer() {
        let mut tc = legacy();
        let mut b = bus();
        tc.stash(0, 2, &[1, 2], &mut b);
        assert_eq!(fetch(&mut tc, 0, 2, 10).len(), 2);
    }

    #[test]
    fn plunder_moves_half_of_idle_classes() {
        let mut tc = nuca();
        let mut b = bus();
        tc.stash(0, 1, &[0, 1, 2, 3, 4, 5, 6, 7], &mut b);
        // First pass only clears the "touched" mark (the class was active).
        assert!(tc.plunder(&mut b).is_empty());
        // Second pass finds the class idle and moves half centrally.
        assert!(tc.plunder(&mut b).is_empty());
        let got = fetch(&mut tc, 3, 1, 4);
        assert_eq!(got.len(), 4, "idle half is reachable from other domains");
    }

    #[test]
    fn plunder_is_noop_for_legacy() {
        let mut tc = legacy();
        let mut b = bus();
        tc.stash(0, 1, &[1, 2, 3, 4], &mut b);
        assert!(tc.plunder(&mut b).is_empty());
        assert_eq!(fetch(&mut tc, 0, 1, 4).len(), 4);
    }

    #[test]
    fn lazy_domain_activation() {
        let mut tc = nuca();
        let mut b = bus();
        assert_eq!(tc.active_domains(), 0);
        tc.stash(5, 0, &[1], &mut b);
        assert_eq!(tc.active_domains(), 1, "only the used domain activates");
    }

    #[test]
    fn cached_bytes_accounting() {
        let mut tc = nuca();
        let mut b = bus();
        let size = table().info(4).size;
        tc.stash(0, 4, &[1, 2, 3], &mut b);
        assert_eq!(tc.cached_bytes(), 3 * size);
        let _ = fetch(&mut tc, 0, 4, 2);
        assert_eq!(tc.cached_bytes(), size);
    }

    #[test]
    fn decay_reclaims_low_water_residue() {
        let mut tc = legacy();
        let mut b = bus();
        tc.stash(0, 2, &[0, 1, 2, 3, 4, 5, 6, 7], &mut b);
        // First pass: the low-water mark was 0 (array was empty at the
        // start of the interval), so nothing is reclaimable yet.
        assert!(tc.decay(&mut b).is_empty());
        // Touch 3 objects during the interval: low water = 5.
        let _ = fetch(&mut tc, 0, 2, 3);
        tc.stash(0, 2, &[90, 91, 92], &mut b);
        let evicted = tc.decay(&mut b);
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, 2);
        assert_eq!(evicted[0].1.len(), 5, "unused residue returned");
        // Fully-idle interval: everything left is residue.
        let evicted = tc.decay(&mut b);
        assert_eq!(evicted[0].1.len(), 3);
        assert_eq!(tc.cached_bytes(), 0);
    }

    #[test]
    fn evict_events_carry_shard_and_reason() {
        let mut tc = nuca();
        let mut b = EventBus::new(
            &TcmallocConfig::baseline().with_trace(crate::events::TraceRing::UNBOUNDED),
            CostModel::production(),
            Clock::new(),
        );
        tc.stash(2, 1, &[0, 1, 2, 3, 4, 5, 6, 7], &mut b);
        let _ = tc.plunder(&mut b); // clears the touched mark
        let _ = tc.plunder(&mut b); // moves the idle residue
        let evicts: Vec<_> = b
            .stream()
            .iter()
            .filter(|e| matches!(e, AllocEvent::TransferEvict { .. }))
            .copied()
            .collect();
        assert!(
            evicts.iter().any(|e| matches!(
                e,
                AllocEvent::TransferEvict {
                    shard: 2,
                    class: 1,
                    reason: EvictReason::Plunder,
                    ..
                }
            )),
            "plunder evict tagged with the source shard: {evicts:?}"
        );
    }

    #[test]
    fn flush_drains_everything() {
        let mut tc = nuca();
        let mut b = bus();
        tc.stash(0, 1, &[1, 2], &mut b);
        tc.stash(2, 3, &[4], &mut b);
        let drained: usize = tc.flush_all().iter().map(|(_, v)| v.len()).sum();
        assert_eq!(drained, 3);
        assert_eq!(tc.cached_bytes(), 0);
    }
}
