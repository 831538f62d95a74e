//! Property tests for the cache tiers: the per-CPU front end, the transfer
//! tier, and the central free list, driven through their public APIs with
//! arbitrary operation sequences.
//!
//! Deterministic seeded-loop properties (hermetic replacement for the
//! original proptest strategies).

use wsc_prng::SmallRng;
use wsc_sim_os::clock::Clock;
use wsc_sim_os::rseq::VcpuId;
use wsc_tcmalloc::central::CentralFreeList;
use wsc_tcmalloc::config::TcmallocConfig;
use wsc_tcmalloc::events::EventBus;
use wsc_tcmalloc::pageheap::{PageHeap, PageHeapConfig};
use wsc_tcmalloc::pagemap::Pagemap;
use wsc_tcmalloc::percpu::{FreeOutcome, PerCpuCaches};
use wsc_tcmalloc::size_class::SizeClassTable;
use wsc_tcmalloc::span::SpanRegistry;
use wsc_tcmalloc::transfer::{TransferCaches, TransferSharding, CENTRAL_BATCHES, DOMAIN_BATCHES};

fn bus() -> EventBus {
    EventBus::new(&TcmallocConfig::baseline(), Clock::new())
}

// --- central free list: random batch traffic, both L=1 and L=8 ---

#[test]
fn central_free_list_conserves_objects() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x7C40 + case);
        let lists = if case % 2 == 0 { 1 } else { 8 };
        let table = SizeClassTable::production();
        let cl = table.class_for(48).expect("48 B is a small size");
        let mut cfl = CentralFreeList::new(cl as u16, *table.info(cl), lists);
        let mut spans = SpanRegistry::new();
        let mut pagemap = Pagemap::default();
        let mut pageheap = PageHeap::new(PageHeapConfig::default());
        let mut bus = bus();
        let mut live: Vec<u64> = Vec::new();
        let ops = rng.gen_range(1usize..120);
        for i in 0..ops {
            let n = rng.gen_range(1usize..40);
            let alloc = rng.gen::<bool>();
            if alloc || live.is_empty() {
                let mut objs = Vec::new();
                cfl.alloc_batch(
                    n,
                    &mut objs,
                    &mut spans,
                    &mut pagemap,
                    &mut pageheap,
                    &mut bus,
                )
                .expect("infallible kernel");
                assert_eq!(objs.len(), n, "batch always filled (grows)");
                for o in &objs {
                    assert!(!live.contains(o), "duplicate object");
                }
                live.extend(objs);
            } else {
                let k = (i * 31) % live.len();
                let addr = live.swap_remove(k);
                let id = pagemap.span_of(addr).expect("live object has a span");
                cfl.dealloc(addr, id, &mut spans, &mut pagemap, &mut pageheap, &mut bus);
            }
            // Conservation: live objects = sum of allocated over spans.
            let allocated: u64 = spans.iter().map(|(_, s)| s.allocated as u64).sum();
            assert_eq!(allocated as usize, live.len());
        }
        // Drain: every span must return to the pageheap.
        for addr in live {
            let id = pagemap.span_of(addr).expect("live object has a span");
            cfl.dealloc(addr, id, &mut spans, &mut pagemap, &mut pageheap, &mut bus);
        }
        assert_eq!(cfl.live_spans(), 0);
        assert_eq!(cfl.external_bytes(), 0);
        assert!(pagemap.is_empty());
        assert_eq!(pageheap.stats().total_used_bytes(), 0);
    }
}

// --- per-CPU caches: budget holds under arbitrary traffic ---

#[test]
fn percpu_budget_is_never_exceeded() {
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x7C41 + case);
        let budget = rng.gen_range(1024u64..(1 << 20));
        let table = SizeClassTable::production();
        let mut caches = PerCpuCaches::new(&table, budget);
        let mut bus = bus();
        let mut counter = 0u64;
        let mut shed = Vec::new();
        let ops = rng.gen_range(1usize..300);
        for _ in 0..ops {
            let vcpu = VcpuId(rng.gen_range(0u32..4));
            let cl = rng.gen_range(0usize..30) % table.num_classes();
            if rng.gen::<bool>() {
                if caches.alloc(vcpu, cl, &mut bus).is_none() {
                    counter += 1;
                    let objs: Vec<u64> = (0..8).map(|i| (counter * 100 + i) << 8).collect();
                    let _ = caches.refill(vcpu, cl, &objs, &mut bus);
                }
            } else {
                counter += 1;
                match caches.free(vcpu, cl, counter << 8, &mut shed, &mut bus) {
                    FreeOutcome::Cached => assert!(shed.is_empty()),
                    FreeOutcome::Overflow => {
                        assert_eq!(shed.last(), Some(&(counter << 8)));
                        shed.clear();
                    }
                }
            }
        }
        // The byte budget binds: cached bytes per vCPU stay under budget
        // plus one batch of slack for the largest class in flight.
        let slack = 256 << 10;
        let cached: u64 = caches
            .cached_objects_by_class()
            .iter()
            .enumerate()
            .map(|(cl, &n)| n * table.info(cl).size)
            .sum();
        assert!(
            cached <= (budget + slack) * 4,
            "cached {cached} vs budget {budget}"
        );
    }
}

// --- transfer tier: objects in == objects out, across sharding modes ---

#[test]
fn transfer_tier_conserves_objects() {
    const SHARDINGS: [TransferSharding; 3] = [
        TransferSharding::Central,
        TransferSharding::Domain,
        TransferSharding::Node,
    ];
    for case in 0..63u64 {
        let mut rng = SmallRng::seed_from_u64(0x7C42 + case);
        let sharding = SHARDINGS[(case % 3) as usize];
        let table = SizeClassTable::production();
        let mut tc = TransferCaches::new(&table, sharding);
        let mut bus = bus();
        let cl = table.class_for(128).expect("128 B is a small size");
        let mut in_tier = 0usize;
        let mut counter = 0u64;
        let ops = rng.gen_range(1usize..200);
        for _ in 0..ops {
            let shard = rng.gen_range(0usize..4);
            let n = rng.gen_range(1usize..20);
            if rng.gen::<bool>() {
                let objs: Vec<u64> = (0..n as u64)
                    .map(|i| {
                        counter += 1;
                        (counter + i) << 7
                    })
                    .collect();
                in_tier += tc.stash(shard, cl, &objs, &mut bus);
            } else {
                let mut got = Vec::new();
                tc.fetch(shard, cl, n, &mut got, &mut bus);
                assert!(got.len() <= n);
                in_tier -= got.len();
            }
            assert_eq!(tc.cached_objects_by_class()[cl], in_tier as u64);
        }
        // Flush accounts for everything still cached.
        let flushed: usize = tc.flush_all().iter().map(|(_, v)| v.len()).sum();
        assert_eq!(flushed, in_tier);
        assert!(tc.cached_objects_by_class().iter().all(|&n| n == 0));
    }
}

// --- batch order: the slice API moves the objects the Vec API moved ---

/// The retired `Vec`-passing bodies of the transfer arrays and the per-CPU
/// class stack (`split_off` the tail, `extend` with the head), kept as the
/// reference model for the order a batch keeps through every hop.
mod vec_model {
    pub struct Array {
        pub objs: Vec<u64>,
        pub max_objs: usize,
    }

    impl Array {
        pub fn insert(&mut self, mut objs: Vec<u64>) -> Vec<u64> {
            let room = self.max_objs.saturating_sub(self.objs.len());
            let take = room.min(objs.len());
            let rest = objs.split_off(take);
            self.objs.extend(objs);
            rest
        }

        pub fn remove(&mut self, n: usize) -> Vec<u64> {
            let take = n.min(self.objs.len());
            self.objs.split_off(self.objs.len() - take)
        }
    }

    /// One class of the transfer tier: an optional shard array in front of
    /// the central one.
    pub struct Transfer {
        pub shard: Option<Array>,
        pub central: Array,
    }

    impl Transfer {
        pub fn fetch(&mut self, n: usize) -> Vec<u64> {
            let mut out = self.shard.as_mut().map_or_else(Vec::new, |s| s.remove(n));
            if out.len() < n {
                let need = n - out.len();
                out.extend(self.central.remove(need));
            }
            out
        }

        pub fn stash(&mut self, objs: Vec<u64>) -> Vec<u64> {
            let rest = match self.shard.as_mut() {
                Some(s) => s.insert(objs),
                None => objs,
            };
            self.central.insert(rest)
        }
    }

    /// One class stack of one vCPU. `grants` says whether the byte budget
    /// lets the stack grow (by one batch, up to the class cap) when asked.
    pub struct Stack {
        pub objs: Vec<u64>,
        pub capacity: usize,
        pub batch: usize,
        pub class_cap: usize,
        pub grants: bool,
    }

    impl Stack {
        fn try_grow(&mut self) -> bool {
            let ok = self.grants && self.capacity + self.batch <= self.class_cap;
            if ok {
                self.capacity += self.batch;
            }
            ok
        }

        pub fn refill(&mut self, mut objs: Vec<u64>) -> Vec<u64> {
            self.try_grow();
            let room = self.capacity.saturating_sub(self.objs.len());
            let take = room.min(objs.len());
            let rest = objs.split_off(take);
            self.objs.extend(objs);
            rest
        }

        /// `None` when cached, the shed batch on overflow.
        pub fn free(&mut self, addr: u64) -> Option<Vec<u64>> {
            if self.objs.len() < self.capacity || self.try_grow() {
                self.objs.push(addr);
                return None;
            }
            let shed = (self.batch - 1).min(self.objs.len());
            let mut out = self.objs.split_off(self.objs.len() - shed);
            out.push(addr);
            Some(out)
        }
    }
}

#[test]
fn batches_keep_the_vec_api_order_through_every_hop() {
    const V: VcpuId = VcpuId(0);
    const SHARD: usize = 1;
    let table = SizeClassTable::production();
    let cl = table.class_for(128).expect("128 B is a small size");
    let (size, batch) = (table.info(cl).size, table.info(cl).batch as usize);
    for (case, sharding) in [TransferSharding::Central, TransferSharding::Domain]
        .into_iter()
        .enumerate()
    {
        // A zero budget never grants capacity: the zero-room cache, where
        // a refill keeps nothing and the whole batch moves on.
        for budget in [1u64 << 20, 0] {
            let mut rng = SmallRng::seed_from_u64(0x7C43 + case as u64);
            let mut tc = TransferCaches::new(&table, sharding);
            let mut caches = PerCpuCaches::new(&table, budget);
            let mut bus = bus();
            // The capacities `transfer::new_tier` and `PerCpuCaches::new`
            // derive for this class.
            let array = |batches: u32, byte_cap: u64| vec_model::Array {
                objs: Vec::new(),
                max_objs: (batch as u64 * batches as u64).min((byte_cap / size).max(1)) as usize,
            };
            let mut m_tc = vec_model::Transfer {
                shard: sharding
                    .is_sharded()
                    .then(|| array(DOMAIN_BATCHES, 4 << 10)),
                central: array(CENTRAL_BATCHES, 256 << 10),
            };
            let mut m_cache = vec_model::Stack {
                objs: Vec::new(),
                capacity: 0,
                batch,
                class_cap: ((256u64 << 10) / 8 / size).clamp(2, 256) as usize,
                grants: budget > 0,
            };
            let mut next = 0u64;
            let mut fresh = |n: usize| -> Vec<u64> {
                (0..n)
                    .map(|_| {
                        next += 1;
                        next << 7
                    })
                    .collect()
            };
            let mut buf: Vec<u64> = Vec::new();
            let (mut partial, mut full, mut shed_batches) = (0u32, 0u32, 0u32);
            for step in 0..600u32 {
                let at = format!("{sharding:?} budget {budget} step {step}");
                // Fill first (deposits and frees: full batches, overflow
                // sheds), then drain (misses and hits: partial batches).
                let op = if step < 200 {
                    [0, 1, 3, 3][rng.gen_range(0usize..4)]
                } else {
                    [1, 1, 1, 4][rng.gen_range(0usize..4)]
                };
                match op {
                    0 => {
                        // A deposit from outside: stash or stash_central.
                        let objs = fresh(rng.gen_range(1usize..2 * batch));
                        let (kept, rest) = if rng.gen::<bool>() {
                            let kept = tc.stash(SHARD, cl, &objs, &mut bus);
                            (kept, m_tc.stash(objs.clone()))
                        } else {
                            let kept = tc.stash_central(cl, &objs, &mut bus);
                            (kept, m_tc.central.insert(objs.clone()))
                        };
                        assert_eq!(&objs[kept..], &rest[..], "{at}: spill");
                    }
                    1 => {
                        // The miss flow: fetch → serve one → refill →
                        // return the leftover centrally.
                        buf.clear();
                        tc.fetch(SHARD, cl, batch, &mut buf, &mut bus);
                        let mut want = m_tc.fetch(batch);
                        assert_eq!(buf, want, "{at}: fetch");
                        if buf.is_empty() {
                            continue;
                        }
                        if buf.len() < batch {
                            partial += 1;
                        } else {
                            full += 1;
                        }
                        assert_eq!(buf.pop(), want.pop());
                        let kept = caches.refill(V, cl, &buf, &mut bus);
                        let rest = m_cache.refill(want);
                        assert_eq!(&buf[kept..], &rest[..], "{at}: refill leftover");
                        let kept = kept + tc.stash_central(cl, &buf[kept..], &mut bus);
                        let rest = m_tc.central.insert(rest);
                        assert_eq!(&buf[kept..], &rest[..], "{at}: stash spill");
                    }
                    3 => {
                        // Frees, until one overflows and sheds a batch.
                        for addr in fresh(rng.gen_range(1usize..2 * batch)) {
                            buf.clear();
                            let outcome = caches.free(V, cl, addr, &mut buf, &mut bus);
                            match m_cache.free(addr) {
                                None => assert_eq!(outcome, FreeOutcome::Cached, "{at}"),
                                Some(want) => {
                                    assert_eq!(outcome, FreeOutcome::Overflow, "{at}");
                                    assert_eq!(buf, want, "{at}: shed batch");
                                    shed_batches += 1;
                                    let kept = tc.stash(SHARD, cl, &buf, &mut bus);
                                    let rest = m_tc.stash(want);
                                    assert_eq!(&buf[kept..], &rest[..], "{at}: shed spill");
                                }
                            }
                        }
                    }
                    _ => {
                        // Hits drain the stack from its top.
                        for _ in 0..rng.gen_range(0usize..batch) {
                            let Some(want) = m_cache.objs.pop() else {
                                break;
                            };
                            assert_eq!(caches.alloc(V, cl, &mut bus), Some(want), "{at}");
                        }
                    }
                }
            }
            assert!(partial > 0 && full > 0, "partial {partial}, full {full}");
            assert!(shed_batches > 0, "an overflow shed a batch");
            if budget == 0 {
                assert!(m_cache.objs.is_empty(), "a zero-room cache keeps nothing");
            }
            // What is left in each tier, in array order.
            let cached = caches.flush_all();
            assert_eq!(
                cached.first().map_or(&[][..], |(_, objs)| &objs[..]),
                &m_cache.objs[..]
            );
            let mut left = tc.flush_all().into_iter().map(|(_, objs)| objs);
            if !m_tc.central.objs.is_empty() {
                assert_eq!(left.next(), Some(m_tc.central.objs));
            }
            if let Some(shard) = m_tc.shard.filter(|s| !s.objs.is_empty()) {
                assert_eq!(left.next(), Some(shard.objs));
            }
            assert_eq!(left.next(), None);
        }
    }
}
