//! The hugepage cache: fully-free hugepage runs (§4.4 component 3).
//!
//! Large allocations (≥ a hugepage) are served from cached runs of free
//! hugepages; fully-freed filler hugepages also land here. The cache is
//! bounded — beyond its limit, runs are `munmap`ed back to the OS, which is
//! how "releasing hugepages that are completely free" (§2.1) keeps them
//! intact (no TLB-hostile subrelease).

use super::os::{AllocError, OsLayer};
use crate::events::{AllocEvent, EventBus};
use std::collections::BTreeMap;
use wsc_sim_os::addr::HUGE_PAGE_BYTES;

/// A cache of free hugepage runs with coalescing and a byte limit.
#[derive(Clone, Debug, Default)]
pub struct HugeCache {
    /// `base address -> run length in hugepages`, coalesced.
    runs: BTreeMap<u64, u64>,
    cached_hp: u64,
    limit_hp: u64,
    /// Runs ever served without an mmap (cache hits).
    pub hits: u64,
    /// Runs that required a fresh mmap.
    pub fills: u64,
}

impl HugeCache {
    /// Creates a cache bounded at `limit_bytes` (rounded down to hugepages).
    pub fn new(limit_bytes: u64) -> Self {
        Self {
            runs: BTreeMap::new(),
            cached_hp: 0,
            limit_hp: limit_bytes / HUGE_PAGE_BYTES,
            hits: 0,
            fills: 0,
        }
    }

    /// Allocates a run of `n` hugepages. Returns `(base_addr, from_os)`
    /// where `from_os` is true when the run had to be mmap'd (emitting one
    /// [`AllocEvent::HugepageFill`]).
    ///
    /// # Errors
    ///
    /// Propagates the OS layer's refusal (ENOMEM or the hard limit) when a
    /// fresh mapping is needed; the cache is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn alloc_run(
        &mut self,
        n: u64,
        os: &mut OsLayer,
        bus: &mut EventBus,
    ) -> Result<(u64, bool), AllocError> {
        assert!(n > 0, "empty run requested");
        // Best fit: smallest run that satisfies the request.
        let best = self
            .runs
            .iter()
            .filter(|&(_, &len)| len >= n)
            .min_by_key(|&(_, &len)| len)
            .map(|(&addr, &len)| (addr, len));
        if let Some((addr, len)) = best {
            self.runs.remove(&addr);
            if len > n {
                self.runs.insert(addr + n * HUGE_PAGE_BYTES, len - n);
            }
            self.cached_hp -= n;
            self.hits += 1;
            Ok((addr, false))
        } else {
            let base = os.mmap(n * HUGE_PAGE_BYTES, bus)?;
            self.fills += 1;
            bus.emit(AllocEvent::HugepageFill {
                base,
                bytes: n * HUGE_PAGE_BYTES,
                reused: false,
            });
            Ok((base, true))
        }
    }

    /// Returns a run of `n` hugepages to the cache, coalescing with
    /// neighbours, then trims the cache to its limit by unmapping.
    pub fn free_run(&mut self, addr: u64, n: u64, os: &mut OsLayer, bus: &mut EventBus) {
        assert!(n > 0 && addr.is_multiple_of(HUGE_PAGE_BYTES), "bad run");
        self.cached_hp += n;
        let mut addr = addr;
        let mut n = n;
        // Coalesce with predecessor.
        if let Some((&paddr, &plen)) = self.runs.range(..addr).next_back() {
            if paddr + plen * HUGE_PAGE_BYTES == addr {
                self.runs.remove(&paddr);
                addr = paddr;
                n += plen;
            }
        }
        // Coalesce with successor.
        let end = addr + n * HUGE_PAGE_BYTES;
        if let Some(&slen) = self.runs.get(&end) {
            self.runs.remove(&end);
            n += slen;
        }
        self.runs.insert(addr, n);
        self.trim_to(self.limit_hp, os, bus);
    }

    /// Unmaps runs until at most `limit_hp` hugepages remain cached
    /// (largest-run first — whole hugepages go back to the OS intact, each
    /// unmap emitting one [`AllocEvent::HugepageRelease`]). Returns the
    /// number of hugepages released.
    fn trim_to(&mut self, limit_hp: u64, os: &mut OsLayer, bus: &mut EventBus) -> u64 {
        let mut dropped = 0u64;
        while self.cached_hp > limit_hp {
            let (&addr, &len) = self
                .runs
                .iter()
                .max_by_key(|&(_, &len)| len)
                .expect("cached_hp > 0 implies runs exist");
            let excess = self.cached_hp - limit_hp;
            let drop = excess.min(len);
            // Unmap the tail of the largest run.
            let keep = len - drop;
            os.munmap(addr + keep * HUGE_PAGE_BYTES, drop * HUGE_PAGE_BYTES);
            bus.emit(AllocEvent::HugepageRelease {
                base: addr + keep * HUGE_PAGE_BYTES,
                bytes: drop * HUGE_PAGE_BYTES,
            });
            self.runs.remove(&addr);
            if keep > 0 {
                self.runs.insert(addr, keep);
            }
            self.cached_hp -= drop;
            dropped += drop;
        }
        dropped
    }

    /// Releases up to `n` cached hugepages back to the OS (memory-pressure
    /// response; hugepages stay intact). Returns hugepages released.
    pub fn release_upto(&mut self, n: u64, os: &mut OsLayer, bus: &mut EventBus) -> u64 {
        let target = self.cached_hp.saturating_sub(n);
        self.trim_to(target, os, bus)
    }

    /// Releases every cached run to the OS immediately (aggressive release).
    pub fn release_all(&mut self, os: &mut OsLayer, bus: &mut EventBus) {
        for (addr, len) in std::mem::take(&mut self.runs) {
            os.munmap(addr, len * HUGE_PAGE_BYTES);
            bus.emit(AllocEvent::HugepageRelease {
                base: addr,
                bytes: len * HUGE_PAGE_BYTES,
            });
        }
        self.cached_hp = 0;
    }

    /// Bytes of hugepages held by the cache (pageheap external fragmentation
    /// attributable to `HugeCache`, Figure 15).
    pub fn cached_bytes(&self) -> u64 {
        self.cached_hp * HUGE_PAGE_BYTES
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::config::TcmallocConfig;
    use wsc_sim_os::clock::Clock;

    fn setup(limit_hp: u64) -> (HugeCache, OsLayer, EventBus) {
        (
            HugeCache::new(limit_hp * HUGE_PAGE_BYTES),
            OsLayer::default(),
            EventBus::default().renew(&TcmallocConfig::baseline(), Clock::new()),
        )
    }

    #[test]
    fn alloc_mmaps_when_empty() {
        let (mut c, mut os, mut b) = setup(8);
        let (addr, from_os) = c.alloc_run(2, &mut os, &mut b).unwrap();
        assert!(from_os);
        assert_eq!(addr % HUGE_PAGE_BYTES, 0);
        assert_eq!(c.fills, 1);
    }

    #[test]
    fn free_then_alloc_hits_cache() {
        let (mut c, mut os, mut b) = setup(8);
        let (addr, _) = c.alloc_run(4, &mut os, &mut b).unwrap();
        c.free_run(addr, 4, &mut os, &mut b);
        assert_eq!(c.cached_bytes(), 4 * HUGE_PAGE_BYTES);
        let (addr2, from_os) = c.alloc_run(2, &mut os, &mut b).unwrap();
        assert!(!from_os, "served from cache");
        assert_eq!(addr2, addr, "best-fit split from the front");
        assert_eq!(c.cached_bytes(), 2 * HUGE_PAGE_BYTES);
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let (mut c, mut os, mut b) = setup(16);
        let (addr, _) = c.alloc_run(6, &mut os, &mut b).unwrap();
        // Free middle, then sides; all must merge into one run of 6.
        c.free_run(addr + 2 * HUGE_PAGE_BYTES, 2, &mut os, &mut b);
        c.free_run(addr, 2, &mut os, &mut b);
        c.free_run(addr + 4 * HUGE_PAGE_BYTES, 2, &mut os, &mut b);
        assert_eq!(c.runs.len(), 1);
        assert_eq!(c.runs[&addr], 6);
        // A 6-run alloc succeeds from cache.
        let (a, from_os) = c.alloc_run(6, &mut os, &mut b).unwrap();
        assert!(!from_os);
        assert_eq!(a, addr);
    }

    #[test]
    fn trim_unmaps_beyond_limit() {
        let (mut c, mut os, mut b) = setup(2);
        let (addr, _) = c.alloc_run(5, &mut os, &mut b).unwrap();
        let mapped_before = os.vmm().page_table().mapped_bytes();
        c.free_run(addr, 5, &mut os, &mut b);
        assert_eq!(c.cached_bytes(), 2 * HUGE_PAGE_BYTES, "trimmed to limit");
        assert_eq!(
            os.vmm().page_table().mapped_bytes(),
            mapped_before - 3 * HUGE_PAGE_BYTES,
            "3 hugepages unmapped"
        );
    }

    #[test]
    fn release_all_empties_cache() {
        let (mut c, mut os, mut b) = setup(8);
        let (addr, _) = c.alloc_run(3, &mut os, &mut b).unwrap();
        c.free_run(addr, 3, &mut os, &mut b);
        c.release_all(&mut os, &mut b);
        assert_eq!(c.cached_bytes(), 0);
        assert_eq!(os.vmm().page_table().mapped_bytes(), 0);
    }

    #[test]
    fn best_fit_prefers_smallest() {
        let (mut c, mut os, mut b) = setup(64);
        let (a1, _) = c.alloc_run(8, &mut os, &mut b).unwrap();
        let (_spacer, _) = c.alloc_run(1, &mut os, &mut b).unwrap(); // keeps runs non-adjacent
        let (a2, _) = c.alloc_run(2, &mut os, &mut b).unwrap();
        c.free_run(a1, 8, &mut os, &mut b);
        c.free_run(a2, 2, &mut os, &mut b);
        // Request 2: must take the 2-run, not split the 8-run.
        let (got, from_os) = c.alloc_run(2, &mut os, &mut b).unwrap();
        assert!(!from_os);
        assert_eq!(got, a2);
    }
}
