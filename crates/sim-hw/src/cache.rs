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
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
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

/// A resident block: its one owning domain, the bytes it occupies there and
/// the model-wide tick of its last touch. This entry is the only thing a
/// hit writes.
#[derive(Clone, Copy, Debug)]
struct Resident {
    stamp: u32,
    /// `bytes | domain << BYTES_BITS`.
    word: u32,
}

/// A resident block's byte count takes the low 27 bits of
/// [`Resident::word`]; its domain takes the 5 above.
const BYTES_BITS: u32 = 27;
const MAX_DOMAINS: usize = 1 << (32 - BYTES_BITS);

const _: () = assert!(std::mem::size_of::<(u64, Resident)>() == 16);

impl Resident {
    fn new(stamp: u32, bytes: u32, domain: u32) -> Self {
        Self {
            stamp,
            word: bytes | domain << BYTES_BITS,
        }
    }

    fn bytes(self) -> u32 {
        self.word & ((1 << BYTES_BITS) - 1)
    }

    fn domain(self) -> u32 {
        self.word >> BYTES_BITS
    }
}

/// One domain's occupancy and, once it has had to evict, its LRU order.
/// Membership lives in the model-wide index ([`LlcModel`]).
#[derive(Clone, Debug, Default)]
struct Domain {
    used: u64,
    /// Resident blocks.
    blocks: usize,
    /// `None` until the domain first runs out of room.
    order: Option<Order>,
}

impl Domain {
    /// A block of `bytes` left other than by capacity eviction.
    fn release(&mut self, bytes: u32) {
        self.used -= u64::from(bytes);
        self.blocks -= 1;
        self.trim();
    }

    /// Drops an order that has outgrown the resident blocks; the next
    /// eviction rebuilds it.
    fn trim(&mut self) {
        let most = 2 * self.blocks + ORDER_SLACK;
        if self.order.as_ref().is_some_and(|o| o.len() > most) {
            self.order = None;
        }
    }
}

/// A domain's LRU order, by witnesses: every resident block has an entry
/// `(stamp, block)` here whose stamp is at or before the block's current
/// one, so the least stamp recorded bounds every block's recency from below.
/// Hits write nothing here; an entry is checked against the index when it
/// comes up.
#[derive(Clone, Debug)]
struct Order {
    /// Ascending: the resident blocks when the order was built, then every
    /// block inserted since (an insert carries the newest stamp).
    queue: VecDeque<(u64, u64)>,
    /// Blocks that came up with a newer stamp than recorded — touched since
    /// — and were not yet the oldest, re-filed under the newer stamp.
    touched: BinaryHeap<Reverse<(u64, u64)>>,
}

/// An order may hold this many entries beyond twice the domain's resident
/// blocks (entries of blocks that left linger until they come up) before it
/// is dropped ([`Domain::trim`]).
const ORDER_SLACK: usize = 64;

impl Order {
    /// Every block resident in domain `d`, oldest first.
    // lint:allow(hashmap-decl) the model's index, borrowed to enumerate one
    // domain's blocks
    fn build(index: &IntMap<u64, Resident>, d: usize) -> Self {
        // lint:allow(hashmap-iter) map order cannot leak: entries are
        // filtered by domain and sorted by their unique stamp before any is
        // used (`victims_do_not_depend_on_insertion_order` holds it)
        let mut all: Vec<(u64, u64)> = index
            .iter()
            .filter(|(_, at)| at.domain() as usize == d)
            .map(|(&block, at)| (u64::from(at.stamp), block))
            .collect();
        all.sort_unstable();
        Self {
            queue: all.into(),
            touched: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.queue.len() + self.touched.len()
    }

    /// What the entry `(stamp, block)` of domain `d`'s order finds in the
    /// index. Stamps are unique, so an equal stamp is the same residence,
    /// untouched since: at the head of the order, that is the LRU block.
    // lint:allow(hashmap-decl) the model's index, borrowed for one probe
    fn look_up(index: &IntMap<u64, Resident>, d: usize, stamp: u64, block: u64) -> Found {
        match index.get(&block) {
            Some(at) if at.domain() as usize != d => Found::Gone,
            Some(at) if u64::from(at.stamp) == stamp => Found::Lru,
            Some(at) => Found::Touched(u64::from(at.stamp)),
            None => Found::Gone,
        }
    }
}

/// What became of the block an [`Order`] entry names.
enum Found {
    /// Resident and untouched since the entry was filed.
    Lru,
    /// Resident, touched since: its stamp now.
    Touched(u64),
    /// Evicted or transferred away.
    Gone,
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
    /// Bytes per domain, below `2^BYTES_BITS` as is every resident block's
    /// byte count.
    capacity: u32,
    domains: Vec<Domain>,
    /// Every resident block. A block is resident in at most one domain —
    /// `access` moves it to the accessing domain — so
    /// one probe classifies an access as hit, remote or memory miss, and a
    /// hit refreshes recency by writing `stamp` into the probed entry. LRU
    /// *order* exists only in a domain that has had to evict ([`Order`]).
    // lint:allow(hashmap-decl) keyed lookup; iterated only to build a
    // domain's order, which sorts by the unique stamp before use
    index: IntMap<u64, Resident>,
    /// The last stamp handed out: a stamp is unique and later touches
    /// carry larger ones. Restamped ([`LlcModel::restamp`]) rather than let
    /// pass `u32::MAX`.
    tick: u32,
    stats: LlcStats,
}

impl LlcModel {
    /// Creates a model with `num_domains` LLC domains of `bytes_per_domain`
    /// capacity each.
    ///
    /// # Panics
    ///
    /// Panics if `num_domains` is zero or above 32, or capacity is zero or
    /// 128 MiB or more (a resident block keeps its byte count in 27 bits
    /// and its domain in 5).
    pub fn new(num_domains: usize, bytes_per_domain: u64) -> Self {
        let empty = Self {
            capacity: 0,
            domains: Vec::new(),
            // 1 024 buckets of 16 bytes and a control byte, ≈ 17 KiB: a
            // cold 32-request machine leaves ≈ 650 blocks resident, which an
            // index grown from empty reaches through eight rehashes.
            index: IntMap::with_capacity_and_hasher(896, Default::default()),
            tick: 0,
            stats: LlcStats::default(),
        };
        empty.renew(num_domains, bytes_per_domain)
    }

    /// This model emptied and reshaped to `num_domains` domains of
    /// `bytes_per_domain` each, keeping the storage of its domain table and
    /// index. [`new`](Self::new) is an empty model renewed once, so a
    /// renewed model is a new one: no block is resident, and no stamp,
    /// order or counter of the previous machine survives.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn renew(mut self, num_domains: usize, bytes_per_domain: u64) -> Self {
        assert!(num_domains > 0, "need at least one domain");
        assert!(
            num_domains <= MAX_DOMAINS,
            "{num_domains} LLC domains exceed the 32 a resident block can name"
        );
        assert!(bytes_per_domain > 0, "LLC capacity must be positive");
        let capacity = u32::try_from(bytes_per_domain)
            .unwrap_or_else(|_| panic!("bytes_per_domain {bytes_per_domain} exceeds u32::MAX"));
        assert!(
            capacity < 1 << BYTES_BITS,
            "bytes_per_domain {bytes_per_domain} is not below 128 MiB"
        );
        self.domains.clear();
        self.domains.resize_with(num_domains, Domain::default);
        self.index.clear();
        Self {
            capacity,
            domains: self.domains,
            index: self.index,
            tick: 0,
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
        let stamp = self.advance(1);
        let outcome = match self.index.get_mut(&block) {
            Some(at) if at.domain() == domain.0 => {
                at.stamp = stamp;
                self.stats.hits += 1;
                return LlcAccess::Hit;
            }
            Some(at) => {
                // Transfer: the line leaves its owner for the accessing
                // domain. Its entry is rewritten below, after room is made:
                // until then it names the old domain and cannot be chosen
                // as a victim here.
                self.domains[at.domain() as usize].release(at.bytes());
                self.stats.remote_misses += 1;
                LlcAccess::MissRemote
            }
            None => {
                self.stats.memory_misses += 1;
                LlcAccess::MissMemory
            }
        };
        // Oversized blocks are clamped to capacity (streaming a block larger
        // than the LLC just flushes it).
        let bytes = u32::try_from(bytes)
            .unwrap_or(u32::MAX)
            .min(self.capacity)
            .max(1);
        while self.domains[d].used + u64::from(bytes) > u64::from(self.capacity) {
            self.evict_lru(d);
        }
        let dom = &mut self.domains[d];
        dom.used += u64::from(bytes);
        dom.blocks += 1;
        if let Some(order) = &mut dom.order {
            order.queue.push_back((u64::from(stamp), block));
        }
        dom.trim();
        self.index
            .insert(block, Resident::new(stamp, bytes, domain.0));
        outcome
    }

    /// Books `n` more accesses from `domain` to `block`, which is resident
    /// there: each is a hit, so this does what `n` [`access`](Self::access)
    /// calls would — `n` more accesses and hits, and `block` the most
    /// recently touched.
    ///
    /// # Panics
    ///
    /// Panics if `n > 0` and `block` is not resident in `domain`.
    pub fn repeat_hits(&mut self, domain: DomainId, block: u64, n: u32) {
        if n == 0 {
            return;
        }
        let stamp = self.advance(n);
        let at = self
            .index
            .get_mut(&block)
            .filter(|at| at.domain() == domain.0)
            .unwrap_or_else(|| panic!("block {block:#x} is not resident in domain {domain}"));
        at.stamp = stamp;
        self.stats.accesses += u64::from(n);
        self.stats.hits += u64::from(n);
    }

    /// Moves `tick` on by `n` and returns it, restamping first if it would
    /// pass `u32::MAX`.
    fn advance(&mut self, n: u32) -> u32 {
        if self.tick.checked_add(n).is_none() {
            self.restamp();
        }
        self.tick = self
            .tick
            .checked_add(n)
            .expect("fewer than 2^32 resident blocks and repeats");
        self.tick
    }

    /// Renumbers the resident blocks `1..=n` in stamp order and sets `tick`
    /// to `n`. Every domain's order is dropped: its recorded stamps are the
    /// old ones, and [`evict_lru`](Self::evict_lru) rebuilds it from the
    /// index, so recency — and every later victim — is unchanged.
    fn restamp(&mut self) {
        // lint:allow(hashmap-iter) map order cannot leak: the entries are
        // sorted by their unique stamp before any is renumbered
        let mut all: Vec<&mut Resident> = self.index.values_mut().collect();
        all.sort_unstable_by_key(|at| at.stamp);
        for (at, stamp) in all.iter_mut().zip(1..) {
            at.stamp = stamp;
        }
        self.tick = u32::try_from(all.len()).expect("fewer than 2^32 resident blocks");
        for dom in &mut self.domains {
            dom.order = None;
        }
    }

    /// Drops the least recently touched block of domain `d`, which holds at
    /// least one (it is over capacity): the first entry of its order, oldest
    /// first, that is still exact. Entries met on the way are dropped if the
    /// block left and re-filed under its current stamp if it was touched.
    fn evict_lru(&mut self, d: usize) {
        let dom = &mut self.domains[d];
        let order = dom
            .order
            .get_or_insert_with(|| Order::build(&self.index, d));
        let lru = loop {
            let queued = order.queue.front().map_or(u64::MAX, |e| e.0);
            let touched = order.touched.peek().map_or(u64::MAX, |e| e.0 .0);
            if touched < queued {
                let mut top = order.touched.peek_mut().expect("peeked above");
                let Reverse((stamp, block)) = *top;
                match Order::look_up(&self.index, d, stamp, block) {
                    Found::Lru => {
                        PeekMut::pop(top);
                        break block;
                    }
                    // Sifts down when `top` drops.
                    Found::Touched(now) => *top = Reverse((now, block)),
                    Found::Gone => {
                        PeekMut::pop(top);
                    }
                }
            } else {
                let (stamp, block) = order
                    .queue
                    .pop_front()
                    .unwrap_or_else(|| panic!("domain {d} is over capacity but holds no block"));
                match Order::look_up(&self.index, d, stamp, block) {
                    Found::Lru => break block,
                    Found::Touched(now) => order.touched.push(Reverse((now, block))),
                    Found::Gone => {}
                }
            }
        };
        let at = self.index.remove(&lru).expect("found above");
        dom.used -= u64::from(at.bytes());
        dom.blocks -= 1;
    }

    /// Counters so far.
    pub fn stats(&self) -> LlcStats {
        self.stats
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
        // Interleave inserts, touches, transfers and evictions.
        let mut llc = LlcModel::new(2, 4096);
        for i in 0..1000u64 {
            llc.access(DomainId((i % 2) as u32), i % 97, 64);
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

            /// Every resident `(block, domain, bytes)`, ascending.
            pub fn resident(&self) -> Vec<(u64, usize, u64)> {
                let mut all: Vec<_> = self
                    .domains
                    .iter()
                    .enumerate()
                    .flat_map(|(d, dom)| dom.bytes.iter().map(move |(&k, &b)| (k, d, b)))
                    .collect();
                all.sort_unstable();
                all
            }
        }
    }

    impl LlcModel {
        /// The domain `block` is resident in and the bytes it holds there.
        fn residence(&self, block: u64) -> Option<(usize, u64)> {
            let at = self.index.get(&block)?;
            Some((at.domain() as usize, u64::from(at.bytes())))
        }
    }

    /// The stamp-ordered model and the reference, driven in lockstep: every
    /// step must classify alike and leave the same blocks, with the same
    /// bytes, in the same domains.
    struct Lockstep {
        llc: LlcModel,
        model: reference::RefLlc,
        label: String,
        step: usize,
    }

    impl Lockstep {
        fn new(label: impl Into<String>, domains: usize, capacity: u64) -> Self {
            Self {
                llc: LlcModel::new(domains, capacity),
                model: reference::RefLlc::new(domains, capacity),
                label: label.into(),
                step: 0,
            }
        }

        fn access(&mut self, d: usize, block: u64, bytes: u64) -> LlcAccess {
            let d_id = DomainId(d as u32);
            let got = self.llc.access(d_id, block, bytes);
            let want = self.model.access(d_id, block, bytes);
            assert_eq!(got, want, "{} step {}", self.label, self.step);
            self.check(block);
            got
        }

        /// `n` more accesses from `d` to the `block` the last step left
        /// resident there: one `repeat_hits` call, `n` reference accesses.
        fn repeat(&mut self, d: usize, block: u64, n: u32) {
            let d_id = DomainId(d as u32);
            self.llc.repeat_hits(d_id, block, n);
            for _ in 0..n {
                let got = self.model.access(d_id, block, 1);
                assert_eq!(got, LlcAccess::Hit, "{} step {}", self.label, self.step);
            }
            self.check(block);
        }

        fn check(&mut self, block: u64) {
            let at = format!("{} step {}", self.label, self.step);
            assert_eq!(self.llc.stats(), self.model.stats, "{at}");
            assert!(self.model.holders(block) <= 1, "at most one owner: {at}");
            let resident = self.model.resident();
            for (d, dom) in self.llc.domains.iter().enumerate() {
                assert_eq!(dom.used, self.model.used(d), "{at} domain {d}");
                let blocks = resident.iter().filter(|&&(_, at, _)| at == d).count();
                assert_eq!(dom.blocks, blocks, "{at} domain {d}");
                let order = dom.order.as_ref().map_or(0, Order::len);
                assert!(
                    order <= 2 * blocks + ORDER_SLACK,
                    "order of {order} entries for {blocks} blocks: {at}"
                );
            }
            assert_eq!(self.llc.index.len(), resident.len(), "{at}");
            for &(block, d, bytes) in &resident {
                assert_eq!(self.llc.residence(block), Some((d, bytes)), "{at}");
            }
            self.step += 1;
        }
    }

    /// Aligned, address-like keys: what the driver feeds in.
    fn addr(i: u64) -> u64 {
        0x7f00_0000_0000 + i * 64
    }

    #[test]
    fn stamp_order_matches_per_domain_maps() {
        use wsc_prng::SmallRng;
        for case in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(0x11c0_de00 + case);
            let domains = rng.gen_range(1usize..=6);
            let capacity = rng.gen_range(256u64..8192);
            // Few enough blocks to hit and ping-pong, enough bytes that
            // eviction is the common case.
            let blocks = rng.gen_range(8u64..200);
            let mut both = Lockstep::new(format!("mixed {case}"), domains, capacity);
            for _ in 0..3000 {
                let block = addr(rng.gen_range(0..blocks));
                let d = rng.gen_range(0..domains);
                both.access(d, block, rng.gen_range(1u64..2 * capacity / 3));
            }
        }
    }

    #[test]
    fn every_access_missing_streams_through_the_queue() {
        use wsc_prng::SmallRng;
        for domains in 1..=6usize {
            let mut rng = SmallRng::seed_from_u64(0xa11_0155 + domains as u64);
            let mut both = Lockstep::new(format!("all-miss {domains}"), domains, 1024);
            // ≈ 25 blocks fit a domain and no block is ever seen twice: each
            // insert is appended to the order, each eviction takes its head.
            for fresh in 0..2500u64 {
                let d = rng.gen_range(0..domains);
                let got = both.access(d, addr(fresh), rng.gen_range(16u64..64));
                assert_eq!(got, LlcAccess::MissMemory);
            }
        }
    }

    #[test]
    fn hot_set_goes_stale_in_the_queue_before_it_is_reached() {
        use wsc_prng::SmallRng;
        for case in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0x0040_75e7 + case);
            let domains = 1 + case as usize % 3;
            let mut both = Lockstep::new(format!("hit-heavy {case}"), domains, 4096);
            // 20 hot blocks of 64 B per domain stay resident and are touched
            // nine times in ten; a cold stream forces the evictions, so most
            // of a queue built under pressure is stale when it is walked.
            let mut fresh = 1_000u64;
            for _ in 0..4000 {
                let d = rng.gen_range(0..domains);
                if rng.gen::<f64>() < 0.9 {
                    let hot = d as u64 * 20 + rng.gen_range(0..20u64);
                    both.access(d, addr(hot), 64);
                } else {
                    fresh += 1;
                    both.access(d, addr(fresh), rng.gen_range(64u64..512));
                }
            }
            assert!(both.llc.stats().hits > 3000, "hot set stayed resident");
        }
    }

    #[test]
    fn queued_victims_that_left_are_skipped() {
        // A block the queue still lists leaves for another domain.
        let mut both = Lockstep::new("transfer queued", 2, 300);
        for b in 1..=3 {
            both.access(0, b, 100);
        }
        both.access(0, 4, 100); // queue [1, 2, 3]; drops 1
        assert_eq!(both.access(1, 2, 100), LlcAccess::MissRemote); // still listed
        both.access(0, 5, 100); // fits: 3, 4, 5
        both.access(0, 6, 100); // skips 2, drops 3
        assert_eq!(both.access(0, 4, 100), LlcAccess::Hit);
        assert_eq!(both.access(0, 3, 100), LlcAccess::MissMemory);

        // A block that leaves for another domain and comes back: listed with
        // the right domain and the wrong stamp.
        let mut both = Lockstep::new("leave and return", 2, 300);
        for b in 1..=3 {
            both.access(0, b, 100);
        }
        both.access(0, 4, 100); // queue [1, 2, 3]; drops 1
        assert_eq!(both.access(1, 2, 100), LlcAccess::MissRemote);
        assert_eq!(both.access(0, 2, 100), LlcAccess::MissRemote); // 3, 4, 2
        both.access(0, 5, 100); // skips the old 2, drops 3
        assert_eq!(both.access(0, 2, 100), LlcAccess::Hit);
        assert_eq!(both.access(0, 3, 100), LlcAccess::MissMemory);
    }

    #[test]
    fn an_order_nothing_consumes_is_dropped_and_rebuilt() {
        let mut both = Lockstep::new("idle order", 2, 1000);
        for b in 0..11 {
            both.access(0, addr(b), 100); // the eleventh evicts: domain 0 has an order
        }
        assert!(both.llc.domains[0].order.is_some());
        // Blocks now come and go without capacity pressure — each is
        // pulled into domain 1 after its insert — so nothing takes entries
        // off the order (`Lockstep::check` holds its bound at every step).
        let mut dropped = false;
        for b in 100..400 {
            both.access(1, addr(b - 1), 10);
            both.access(0, addr(b), 100);
            dropped |= both.llc.domains[0].order.is_none();
        }
        assert!(dropped, "the order outgrew twice the resident blocks");
        // Pressure again: rebuilt from the index, same victims as ever.
        for b in 400..440 {
            both.access(0, addr(b), 100);
        }
        assert!(both.llc.domains[0].order.is_some());
    }

    #[test]
    fn bytes_follow_the_residence() {
        let mut both = Lockstep::new("bytes", 2, 300);
        // Oversized: clamped to capacity, flushes the domain.
        both.access(0, 1, 100);
        both.access(0, 2, 100);
        both.access(0, 3, 1000);
        assert_eq!(both.llc.domains[0].used, 300);
        assert_eq!(both.access(0, 1, 100), LlcAccess::MissMemory); // drops 3
        assert_eq!(both.llc.domains[0].used, 100);
        // A transfer carries its own byte count, and a hit keeps the
        // resident one.
        assert_eq!(both.access(1, 1, 30), LlcAccess::MissRemote);
        assert_eq!(both.access(1, 1, 200), LlcAccess::Hit);
        assert_eq!(
            (both.llc.domains[0].used, both.llc.domains[1].used),
            (0, 30)
        );
    }

    #[test]
    fn victims_do_not_depend_on_insertion_order() {
        use wsc_prng::SmallRng;
        let (domains, blocks) = (3usize, 120u64);
        let mut up = LlcModel::new(domains, 4096);
        let mut down = LlcModel::new(domains, 4096);
        // Same blocks, opposite insertion orders, and a table that grew and
        // shrank first on one side: the two hash maps iterate differently.
        // One block of the whole capacity flushes the junk, and the first
        // block placed in domain 0 below evicts it in turn.
        for junk in 0..500 {
            down.access(DomainId(0), addr(10_000 + junk), 8);
        }
        down.access(DomainId(0), addr(20_000), 4096);
        for i in 0..blocks {
            up.access(DomainId((i % 3) as u32), addr(i), 64);
            let j = blocks - 1 - i;
            down.access(DomainId((j % 3) as u32), addr(j), 64);
        }
        // One recency order for both.
        let mut rng = SmallRng::seed_from_u64(0xbde7);
        let mut order: Vec<u64> = (0..blocks).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &i in &order {
            let d = DomainId((i % 3) as u32);
            assert_eq!(up.access(d, addr(i), 64), LlcAccess::Hit);
            assert_eq!(down.access(d, addr(i), 64), LlcAccess::Hit);
        }
        // Pressure: every step evicts, and both must evict alike.
        for fresh in 0..300u64 {
            let d = DomainId(rng.gen_range(0..domains) as u32);
            let bytes = rng.gen_range(64u64..1024);
            up.access(d, addr(1_000 + fresh), bytes);
            down.access(d, addr(1_000 + fresh), bytes);
            assert_eq!(up.index.len(), down.index.len(), "step {fresh}");
            for i in (0..blocks).chain(1_000..=1_000 + fresh) {
                let block = addr(i);
                assert_eq!(up.residence(block), down.residence(block), "step {fresh}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bytes_per_domain 4294967296 exceeds u32::MAX")]
    fn capacity_beyond_32_bits_is_refused() {
        let _ = LlcModel::new(1, 1 << 32);
    }

    #[test]
    fn repeat_hits_book_what_as_many_accesses_would() {
        use wsc_prng::SmallRng;
        for case in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0x4e9e_a700 + case);
            let domains = rng.gen_range(1usize..=4);
            let mut both = Lockstep::new(format!("repeats {case}"), domains, 2048);
            // Under eviction pressure, so the stamp a repeat leaves decides
            // later victims. Half the repeats are of the block just
            // accessed, half of an older one resident in the same domain.
            for _ in 0..2000 {
                let d = rng.gen_range(0..domains);
                let mut block = addr(rng.gen_range(0..150u64));
                both.access(d, block, rng.gen_range(16u64..300));
                if rng.gen::<bool>() {
                    let here: Vec<u64> = both
                        .model
                        .resident()
                        .into_iter()
                        .filter(|&(_, at, _)| at == d)
                        .map(|(b, _, _)| b)
                        .collect();
                    block = here[rng.gen_range(0..here.len())];
                }
                let n = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => 1,
                    2 => rng.gen_range(2..12u32),
                    _ => rng.gen_range(200..300u32),
                };
                both.repeat(d, block, n);
            }
            assert!(both.llc.stats().memory_misses > 500, "{}", both.label);
        }
    }

    #[test]
    fn restamping_below_u32_max_keeps_every_victim() {
        use wsc_prng::SmallRng;
        for case in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0x5a3e_0000 + case);
            let domains = 1 + case as usize % 3;
            let mut both = Lockstep::new(format!("restamp {case}"), domains, 2048);
            // Fill every domain until it evicts, then move the tick to just
            // below the top: the restamp meets built orders.
            for fresh in 0..200 {
                both.access(fresh as usize % domains, addr(10_000 + fresh), 64);
            }
            assert!(both.llc.domains.iter().all(|d| d.order.is_some()));
            both.llc.tick = u32::MAX - 700;
            let mut restamps = 0;
            for _ in 0..1500 {
                let before = both.llc.tick;
                let d = rng.gen_range(0..domains);
                let block = addr(rng.gen_range(0..120u64));
                both.access(d, block, rng.gen_range(16u64..400));
                // Odd cases cross the top inside a run of repeats.
                if case % 2 == 1 && rng.gen_range(0..8u32) == 0 {
                    both.repeat(d, block, rng.gen_range(1..300u32));
                }
                restamps += usize::from(both.llc.tick < before);
            }
            assert_eq!(restamps, 1, "{}", both.label);
        }
    }

    #[test]
    fn the_widest_block_in_the_last_domain_keeps_its_bytes() {
        let widest = (128 << 20) - 1;
        let mut llc = LlcModel::new(32, widest);
        let last = DomainId(31);
        assert_eq!(llc.access(last, 1, u64::MAX), LlcAccess::MissMemory);
        assert_eq!(llc.access(last, 1, 64), LlcAccess::Hit);
        assert_eq!(llc.residence(1), Some((31, widest)));
        assert_eq!(llc.access(DomainId(30), 1, 64), LlcAccess::MissRemote);
        assert_eq!(llc.residence(1), Some((30, 64)));
    }

    #[test]
    #[should_panic(expected = "bytes_per_domain 134217728 is not below 128 MiB")]
    fn capacity_of_128_mib_is_refused() {
        let _ = LlcModel::new(1, 128 << 20);
    }

    #[test]
    #[should_panic(expected = "33 LLC domains exceed the 32 a resident block can name")]
    fn more_than_32_domains_are_refused() {
        let _ = LlcModel::new(33, 1 << 20);
    }
}
