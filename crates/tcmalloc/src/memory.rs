//! A real-memory backend: store actual bytes behind the simulated heap.
//!
//! The allocator proper manages a *simulated* 64-bit address space so every
//! placement decision is observable. [`MemoryPool`] closes the loop for
//! downstream users who want a working allocator, not only a simulator: it
//! pairs a [`Tcmalloc`] instance with a backing store that materializes each
//! mapped hugepage as real memory, so the addresses `malloc` returns can be
//! read and written like a heap.
//!
//! # Example
//!
//! ```
//! use wsc_tcmalloc::memory::MemoryPool;
//! use wsc_tcmalloc::TcmallocConfig;
//! use wsc_sim_hw::topology::{CpuId, Platform};
//!
//! let platform = Platform::chiplet("m", 1, 2, 4, 2);
//! let mut pool = MemoryPool::new(TcmallocConfig::optimized(), platform);
//! let obj = pool.alloc(11, CpuId(0));
//! pool.write(obj, b"hello world");
//! assert_eq!(pool.read(obj, 11), b"hello world");
//! pool.free(obj, CpuId(0));
//! ```

use crate::alloc::Tcmalloc;
use crate::config::TcmallocConfig;
use wsc_prng::IntMap;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::addr::HUGE_PAGE_BYTES;
use wsc_sim_os::clock::Clock;

/// A handle to a live allocation in a [`MemoryPool`].
///
/// Carries the address and requested size so frees and accesses are checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PoolPtr {
    addr: u64,
    size: u64,
}

impl PoolPtr {
    /// The simulated address (stable for the allocation's lifetime).
    pub fn addr(self) -> u64 {
        self.addr
    }

    /// The requested allocation size in bytes.
    pub fn size(self) -> u64 {
        self.size
    }
}

/// A [`Tcmalloc`] with real backing memory, materialized hugepage-by-
/// hugepage on first touch (like the kernel faulting pages in).
#[derive(Debug)]
pub struct MemoryPool {
    tcm: Tcmalloc,
    clock: Clock,
    /// hugepage index -> backing storage.
    // lint:allow(hashmap-decl) keyed by hugepage index; never iterated
    frames: IntMap<u64, Box<[u8]>>,
    // lint:allow(hashmap-decl) keyed by object address; never iterated
    live: IntMap<u64, u64>,
}

impl MemoryPool {
    /// Creates a pool over a fresh allocator.
    pub fn new(cfg: TcmallocConfig, platform: Platform) -> Self {
        let clock = Clock::new();
        Self {
            tcm: Tcmalloc::new(cfg, platform, clock.clone()),
            clock,
            frames: IntMap::default(),
            live: IntMap::default(),
        }
    }

    /// Allocates `size` bytes on behalf of a thread on `cpu`.
    pub fn alloc(&mut self, size: u64, cpu: CpuId) -> PoolPtr {
        let out = self.tcm.malloc(size, cpu);
        self.live.insert(out.addr, size);
        PoolPtr {
            addr: out.addr,
            size,
        }
    }

    /// Frees an allocation.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not live (double free / forged handle).
    pub fn free(&mut self, ptr: PoolPtr, cpu: CpuId) {
        let recorded = self
            .live
            .remove(&ptr.addr)
            .expect("free of pointer that is not live");
        assert_eq!(recorded, ptr.size, "freed with a different size");
        self.tcm.free(ptr.addr, ptr.size, cpu);
    }

    fn check_access(&self, ptr: PoolPtr, len: usize) {
        let recorded = self
            .live
            .get(&ptr.addr)
            .expect("access to pointer that is not live");
        assert!(
            len as u64 <= *recorded,
            "access of {len} bytes exceeds allocation of {recorded}"
        );
    }

    fn frame(&mut self, hp: u64) -> &mut [u8] {
        self.frames
            .entry(hp)
            .or_insert_with(|| vec![0u8; HUGE_PAGE_BYTES as usize].into_boxed_slice())
    }

    /// Writes `data` at the start of the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not live or `data` exceeds the allocation.
    pub fn write(&mut self, ptr: PoolPtr, data: &[u8]) {
        self.check_access(ptr, data.len());
        let mut addr = ptr.addr;
        let mut rest = data;
        while !rest.is_empty() {
            let hp = addr / HUGE_PAGE_BYTES;
            let off = (addr % HUGE_PAGE_BYTES) as usize;
            let room = HUGE_PAGE_BYTES as usize - off;
            let take = room.min(rest.len());
            self.frame(hp)[off..off + take].copy_from_slice(&rest[..take]);
            rest = &rest[take..];
            addr += take as u64;
        }
    }

    /// Reads `len` bytes from the start of the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is not live or `len` exceeds the allocation.
    pub fn read(&mut self, ptr: PoolPtr, len: usize) -> Vec<u8> {
        self.check_access(ptr, len);
        let mut out = Vec::with_capacity(len);
        let mut addr = ptr.addr;
        while out.len() < len {
            let hp = addr / HUGE_PAGE_BYTES;
            let off = (addr % HUGE_PAGE_BYTES) as usize;
            let room = HUGE_PAGE_BYTES as usize - off;
            let take = room.min(len - out.len());
            out.extend_from_slice(&self.frame(hp)[off..off + take]);
            addr += take as u64;
        }
        out
    }

    /// Advances the pool's clock and runs allocator maintenance.
    pub fn tick(&mut self, delta_ns: u64) {
        self.clock.advance(delta_ns);
        self.tcm.maintain();
    }

    /// The underlying allocator (telemetry access).
    pub fn allocator(&self) -> &Tcmalloc {
        &self.tcm
    }

    /// Live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Real bytes materialized for backing storage.
    pub fn backing_bytes(&self) -> u64 {
        self.frames.len() as u64 * HUGE_PAGE_BYTES
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn pool() -> MemoryPool {
        MemoryPool::new(
            TcmallocConfig::baseline(),
            Platform::chiplet("t", 1, 2, 4, 2),
        )
    }

    #[test]
    fn data_round_trips() {
        let mut p = pool();
        let a = p.alloc(64, CpuId(0));
        p.write(a, &[7u8; 64]);
        assert_eq!(p.read(a, 64), vec![7u8; 64]);
        p.free(a, CpuId(0));
    }

    #[test]
    fn neighbouring_objects_do_not_clobber() {
        let mut p = pool();
        let ptrs: Vec<PoolPtr> = (0..100)
            .map(|i| {
                let ptr = p.alloc(32, CpuId(i % 8));
                p.write(ptr, &[i as u8; 32]);
                ptr
            })
            .collect();
        for (i, ptr) in ptrs.iter().enumerate() {
            assert_eq!(p.read(*ptr, 32), vec![i as u8; 32], "object {i} corrupted");
        }
    }

    #[test]
    fn data_survives_crossing_hugepage_boundaries() {
        let mut p = pool();
        // A 5 MiB allocation spans 3 hugepages.
        let big = p.alloc(5 << 20, CpuId(0));
        let pattern: Vec<u8> = (0..(5usize << 20)).map(|i| (i % 251) as u8).collect();
        p.write(big, &pattern);
        assert_eq!(p.read(big, 5 << 20), pattern);
        p.free(big, CpuId(0));
    }

    #[test]
    fn reuse_after_free_is_fresh_allocation() {
        let mut p = pool();
        let a = p.alloc(128, CpuId(0));
        p.write(a, &[0xAA; 128]);
        p.free(a, CpuId(0));
        let b = p.alloc(128, CpuId(0));
        // LIFO reuse gives the same address; the handle system still works.
        p.write(b, &[0xBB; 16]);
        assert_eq!(p.read(b, 16), vec![0xBB; 16]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_free_is_caught() {
        let mut p = pool();
        let a = p.alloc(8, CpuId(0));
        p.free(a, CpuId(0));
        p.free(a, CpuId(0));
    }

    #[test]
    #[should_panic(expected = "exceeds allocation")]
    fn overread_is_caught() {
        let mut p = pool();
        let a = p.alloc(8, CpuId(0));
        let _ = p.read(a, 9);
    }

    #[test]
    fn backing_is_lazy() {
        let mut p = pool();
        let a = p.alloc(1 << 20, CpuId(0));
        // Nothing touched yet: no frames materialized.
        assert_eq!(p.backing_bytes(), 0);
        p.write(a, &[1]);
        assert!(p.backing_bytes() >= HUGE_PAGE_BYTES);
    }

    #[test]
    fn tick_runs_maintenance() {
        let mut p = pool();
        let a = p.alloc(64, CpuId(0));
        p.free(a, CpuId(0));
        p.tick(10 * wsc_sim_os::clock::NS_PER_SEC);
        assert_eq!(p.allocator().live_bytes(), 0);
    }
}
