//! Last-level-cache occupancy model with cross-domain transfer tracking.
//!
//! Table 1 of the paper attributes the NUCA-aware transfer cache's throughput
//! win to a lower LLC load miss rate: when the allocator hands a core an
//! object that was last touched in *another* LLC domain, the first accesses
//! must fetch the data across the on-die fabric. [`LlcModel`] keeps one
//! byte-capacity LRU per cache domain and classifies every access as a local
//! hit, a remote-domain transfer, or a memory miss — which is all the driver
//! needs to charge realistic stall cycles and report MPKI.

use crate::topology::DomainId;
use wsc_prng::IntMap;

/// Outcome of an LLC access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcAccess {
    /// The block was resident in the accessing domain's LLC.
    Hit,
    /// The block was resident in a *different* domain's LLC and had to be
    /// transferred (the NUCA penalty of Figure 11).
    MissRemote,
    /// The block came from memory.
    MissMemory,
}

/// LLC access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Total accesses.
    pub accesses: u64,
    /// Local hits.
    pub hits: u64,
    /// Cross-domain transfers.
    pub remote_misses: u64,
    /// Memory misses.
    pub memory_misses: u64,
}

impl LlcStats {
    /// Total misses (remote + memory).
    pub fn misses(&self) -> u64 {
        self.remote_misses + self.memory_misses
    }

    /// Miss fraction, 0 when no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// Where a resident block lives: its one owning domain and its node in
/// that domain's LRU list.
#[derive(Clone, Copy, Debug)]
struct Resident {
    domain: u32,
    node: u32,
}

/// One domain's intrusive byte-capacity LRU list. Membership lives in the
/// model-wide index ([`LlcModel`]).
#[derive(Clone, Debug)]
struct LruBytes {
    capacity: u64,
    used: u64,
    nodes: Vec<Node>,
    head: u32, // most recent; NIL when empty
    tail: u32, // least recent
    free: Vec<u32>,
}

/// 24 bytes: the links are slab indices, not pointers, so a touch (which
/// reads the node and both neighbours) walks a slab three quarters the size.
#[derive(Clone, Copy, Debug)]
struct Node {
    key: u64,
    bytes: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

impl LruBytes {
    fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: 0,
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Refreshes the recency of resident node `i`.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Inserts non-resident `key` at the front and returns its node; evicts
    /// LRU entries (dropping them from `index`) until it fits. Oversized
    /// blocks are clamped to capacity (streaming a block larger than the
    /// LLC just flushes it).
    // lint:allow(hashmap-decl) the model's index, borrowed to drop victims;
    // never iterated
    fn insert(&mut self, key: u64, bytes: u64, index: &mut IntMap<u64, Resident>) -> u32 {
        let bytes = bytes.min(self.capacity).max(1);
        while self.used + bytes > self.capacity && self.tail != NIL {
            let victim = self.tail;
            index.remove(&self.nodes[victim as usize].key);
            self.remove(victim);
        }
        let node = Node {
            key,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let i = if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("LLC node slab exceeds u32");
            self.nodes.push(node);
            i
        };
        self.used += bytes;
        self.push_front(i);
        i
    }

    /// Drops resident node `i` (the caller owns the index entry).
    fn remove(&mut self, i: u32) {
        self.used -= self.nodes[i as usize].bytes;
        self.unlink(i);
        self.free.push(i);
    }
}

/// Per-domain LLC model for one machine.
///
/// Blocks are identified by an opaque `u64` key (the workload driver uses the
/// object's base address rounded to a cache-friendly granule).
///
/// # Example
///
/// ```
/// use wsc_sim_hw::cache::{LlcAccess, LlcModel};
/// use wsc_sim_hw::topology::DomainId;
///
/// let mut llc = LlcModel::new(2, 1 << 20);
/// assert_eq!(llc.access(DomainId(0), 42, 64), LlcAccess::MissMemory);
/// assert_eq!(llc.access(DomainId(0), 42, 64), LlcAccess::Hit);
/// // Domain 1 touching the same block pays a cross-domain transfer.
/// assert_eq!(llc.access(DomainId(1), 42, 64), LlcAccess::MissRemote);
/// ```
#[derive(Clone, Debug)]
pub struct LlcModel {
    domains: Vec<LruBytes>,
    /// `block → (domain, node)` for every resident block. A block is
    /// resident in at most one domain — `access` moves it to the accessing
    /// domain and `evict` removes it — so one probe classifies an access as
    /// hit, remote or memory miss.
    // lint:allow(hashmap-decl) keyed lookup only; never iterated — LRU order
    // lives in the per-domain intrusive lists
    index: IntMap<u64, Resident>,
    stats: LlcStats,
}

impl LlcModel {
    /// Creates a model with `num_domains` LLC domains of `bytes_per_domain`
    /// capacity each.
    ///
    /// # Panics
    ///
    /// Panics if `num_domains` is zero or capacity is zero.
    pub fn new(num_domains: usize, bytes_per_domain: u64) -> Self {
        assert!(num_domains > 0, "need at least one domain");
        assert!(bytes_per_domain > 0, "LLC capacity must be positive");
        Self {
            domains: (0..num_domains)
                .map(|_| LruBytes::new(bytes_per_domain))
                .collect(),
            index: IntMap::default(),
            stats: LlcStats::default(),
        }
    }

    /// Performs one access from `domain` to `block` of `bytes` and
    /// classifies it.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    pub fn access(&mut self, domain: DomainId, block: u64, bytes: u64) -> LlcAccess {
        let d = domain.index();
        assert!(d < self.domains.len(), "domain {domain} out of range");
        self.stats.accesses += 1;
        let outcome = match self.index.get(&block).copied() {
            Some(at) if at.domain == domain.0 => {
                self.domains[d].touch(at.node);
                self.stats.hits += 1;
                return LlcAccess::Hit;
            }
            Some(at) => {
                // Transfer: the line leaves its owner for the accessing
                // domain.
                self.domains[at.domain as usize].remove(at.node);
                self.stats.remote_misses += 1;
                LlcAccess::MissRemote
            }
            None => {
                self.stats.memory_misses += 1;
                LlcAccess::MissMemory
            }
        };
        let node = self.domains[d].insert(block, bytes, &mut self.index);
        self.index.insert(
            block,
            Resident {
                domain: domain.0,
                node,
            },
        );
        outcome
    }

    /// Evicts a block everywhere (the backing memory was unmapped).
    pub fn evict(&mut self, block: u64) {
        if let Some(at) = self.index.remove(&block) {
            self.domains[at.domain as usize].remove(at.node);
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }

    /// Resets counters (cache contents stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = LlcStats::default();
    }

    /// Number of modeled domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut llc = LlcModel::new(1, 1024);
        assert_eq!(llc.access(DomainId(0), 1, 100), LlcAccess::MissMemory);
        assert_eq!(llc.access(DomainId(0), 1, 100), LlcAccess::Hit);
        assert_eq!(llc.stats().hits, 1);
        assert_eq!(llc.stats().memory_misses, 1);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut llc = LlcModel::new(1, 300);
        llc.access(DomainId(0), 1, 100);
        llc.access(DomainId(0), 2, 100);
        llc.access(DomainId(0), 3, 100);
        llc.access(DomainId(0), 1, 100); // refresh 1
        llc.access(DomainId(0), 4, 100); // evicts 2 (LRU)
        assert_eq!(llc.access(DomainId(0), 1, 100), LlcAccess::Hit);
        assert_eq!(llc.access(DomainId(0), 2, 100), LlcAccess::MissMemory);
    }

    #[test]
    fn cross_domain_transfer() {
        let mut llc = LlcModel::new(2, 1024);
        llc.access(DomainId(0), 7, 64);
        assert_eq!(llc.access(DomainId(1), 7, 64), LlcAccess::MissRemote);
        // Line moved: now local to domain 1, gone from domain 0.
        assert_eq!(llc.access(DomainId(1), 7, 64), LlcAccess::Hit);
        assert_eq!(llc.access(DomainId(0), 7, 64), LlcAccess::MissRemote);
    }

    #[test]
    fn evict_removes_everywhere() {
        let mut llc = LlcModel::new(2, 1024);
        llc.access(DomainId(0), 9, 64);
        llc.evict(9);
        assert_eq!(llc.access(DomainId(0), 9, 64), LlcAccess::MissMemory);
    }

    #[test]
    fn oversized_block_clamped() {
        let mut llc = LlcModel::new(1, 100);
        assert_eq!(llc.access(DomainId(0), 1, 1000), LlcAccess::MissMemory);
        assert_eq!(llc.access(DomainId(0), 1, 1000), LlcAccess::Hit);
    }

    #[test]
    fn stats_miss_rate() {
        let mut llc = LlcModel::new(1, 1024);
        llc.access(DomainId(0), 1, 10);
        llc.access(DomainId(0), 1, 10);
        llc.access(DomainId(0), 2, 10);
        let s = llc.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_domain_panics() {
        let mut llc = LlcModel::new(1, 1024);
        llc.access(DomainId(5), 1, 10);
    }

    #[test]
    fn many_blocks_consistency() {
        // Stress the intrusive list: interleave inserts/touches/removes.
        let mut llc = LlcModel::new(2, 4096);
        for i in 0..1000u64 {
            llc.access(DomainId((i % 2) as u32), i % 97, 64);
            if i % 13 == 0 {
                llc.evict(i % 97);
            }
        }
        let s = llc.stats();
        assert_eq!(s.accesses, 1000);
        assert_eq!(s.hits + s.misses(), 1000);
    }

    /// The retired model — one private `key → node` map per domain, every
    /// miss probing every other domain — kept only as the reference the
    /// single-index model is compared against.
    mod reference {
        use super::super::{DomainId, LlcAccess, LlcStats};
        use std::collections::{BTreeMap, VecDeque};

        #[derive(Debug)]
        struct Lru {
            capacity: u64,
            used: u64,
            bytes: BTreeMap<u64, u64>,
            order: VecDeque<u64>, // front = most recent
        }

        impl Lru {
            fn touch(&mut self, key: u64) -> bool {
                if !self.bytes.contains_key(&key) {
                    return false;
                }
                self.order.retain(|&k| k != key);
                self.order.push_front(key);
                true
            }

            fn insert(&mut self, key: u64, bytes: u64) {
                if self.touch(key) {
                    return;
                }
                let bytes = bytes.min(self.capacity).max(1);
                while self.used + bytes > self.capacity {
                    let Some(victim) = self.order.pop_back() else {
                        break;
                    };
                    self.used -= self.bytes.remove(&victim).expect("listed");
                }
                self.bytes.insert(key, bytes);
                self.order.push_front(key);
                self.used += bytes;
            }

            fn remove(&mut self, key: u64) {
                if let Some(b) = self.bytes.remove(&key) {
                    self.used -= b;
                    self.order.retain(|&k| k != key);
                }
            }
        }

        #[derive(Debug)]
        pub struct RefLlc {
            domains: Vec<Lru>,
            pub stats: LlcStats,
        }

        impl RefLlc {
            pub fn new(num_domains: usize, capacity: u64) -> Self {
                Self {
                    domains: (0..num_domains)
                        .map(|_| Lru {
                            capacity,
                            used: 0,
                            bytes: BTreeMap::new(),
                            order: VecDeque::new(),
                        })
                        .collect(),
                    stats: LlcStats::default(),
                }
            }

            pub fn access(&mut self, domain: DomainId, block: u64, bytes: u64) -> LlcAccess {
                let d = domain.index();
                self.stats.accesses += 1;
                if self.domains[d].touch(block) {
                    self.stats.hits += 1;
                    return LlcAccess::Hit;
                }
                let remote = self
                    .domains
                    .iter()
                    .enumerate()
                    .any(|(i, dom)| i != d && dom.bytes.contains_key(&block));
                for (i, dom) in self.domains.iter_mut().enumerate() {
                    if i != d {
                        dom.remove(block);
                    }
                }
                self.domains[d].insert(block, bytes);
                if remote {
                    self.stats.remote_misses += 1;
                    LlcAccess::MissRemote
                } else {
                    self.stats.memory_misses += 1;
                    LlcAccess::MissMemory
                }
            }

            pub fn evict(&mut self, block: u64) {
                for dom in &mut self.domains {
                    dom.remove(block);
                }
            }

            /// Domains holding `block`.
            pub fn holders(&self, block: u64) -> usize {
                self.domains
                    .iter()
                    .filter(|d| d.bytes.contains_key(&block))
                    .count()
            }

            pub fn used(&self, d: usize) -> u64 {
                self.domains[d].used
            }
        }
    }

    #[test]
    fn single_index_matches_per_domain_maps() {
        use wsc_prng::SmallRng;
        for case in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(0x11c0_de00 + case);
            let domains = rng.gen_range(1usize..=6);
            let capacity = rng.gen_range(256u64..8192);
            // Few enough blocks to hit and ping-pong, enough bytes to evict.
            let blocks = rng.gen_range(8u64..200);
            let mut llc = LlcModel::new(domains, capacity);
            let mut model = reference::RefLlc::new(domains, capacity);
            for step in 0..3000 {
                // Aligned, address-like keys: what the driver feeds in.
                let block = 0x7f00_0000_0000 + rng.gen_range(0..blocks) * 64;
                if rng.gen_bool(0.05) {
                    llc.evict(block);
                    model.evict(block);
                } else {
                    let d = DomainId(rng.gen_range(0..domains) as u32);
                    let bytes = rng.gen_range(1u64..2 * capacity / 3);
                    assert_eq!(
                        llc.access(d, block, bytes),
                        model.access(d, block, bytes),
                        "case {case} step {step}"
                    );
                }
                assert_eq!(llc.stats(), model.stats, "case {case} step {step}");
                assert!(model.holders(block) <= 1, "at most one owning domain");
                assert_eq!(
                    llc.index.contains_key(&block),
                    model.holders(block) == 1,
                    "case {case} step {step}"
                );
            }
            // The index holds exactly the listed nodes of every domain.
            let listed: usize = llc
                .domains
                .iter()
                .map(|d| d.nodes.len() - d.free.len())
                .sum();
            assert_eq!(llc.index.len(), listed);
            for (d, dom) in llc.domains.iter().enumerate() {
                assert_eq!(dom.used, model.used(d), "case {case} domain {d}");
            }
        }
    }
}
