//! The per-CPU front-end cache (§4.1).
//!
//! Each virtual CPU owns an array of per-size-class object stacks bounded by
//! a per-CPU byte budget (3 MB by default in production; 1.5 MB once the
//! heterogeneous design landed). Alloc/free on the fast path touch only this
//! slab — production does it in ~40 instructions under a restartable
//! sequence, at 3.1 ns (Figure 4).
//!
//! A *miss* is an allocation finding the stack empty (underflow) or a free
//! finding it full (overflow); both spill to the transfer cache. Miss counts
//! per vCPU are the telemetry of Figure 9b and the input to the
//! heterogeneous resizer: every 5 seconds the top-5 missing caches grow by
//! stealing byte budget from the quietest caches ("we prioritize shrinking
//! capacity for larger size classes, since the majority of allocations in
//! our workloads are smaller objects").

use crate::events::{AllocEvent, EventBus};
use crate::size_class::SizeClassTable;
use wsc_sim_os::rseq::VcpuId;

/// Result of a front-end free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreeOutcome {
    /// The object was absorbed by the per-CPU cache.
    Cached,
    /// Overflow miss: the cache was full; the batch it shed onto the
    /// caller's buffer (including the freed object) must go to the transfer
    /// cache.
    Overflow,
}

#[derive(Clone, Debug, Default)]
struct ClassSlab {
    objs: Vec<u64>,
    /// Object-count capacity currently granted to this class.
    capacity: u32,
    /// Was this class touched since the last decay pass?
    touched: bool,
}

/// One vCPU's slab.
#[derive(Clone, Debug)]
struct CpuSlab {
    classes: Vec<ClassSlab>,
    /// The donor mask: bit `cl` is set exactly when `classes[cl].capacity >
    /// classes[cl].objs.len()`, i.e. the classes with unused capacity that
    /// [`PerCpuCaches::try_grow`] may steal from. Every site that changes a
    /// capacity or a stack length keeps it.
    donors: u128,
    max_bytes: u64,
    /// Σ capacity × object size over classes.
    capacity_bytes: u64,
    /// Σ cached objects × object size.
    cached_bytes: u64,
    misses_total: u64,
    misses_interval: u64,
}

/// The donor-mask bit of `class`.
fn donor_bit(class: usize) -> u128 {
    1 << class
}

impl CpuSlab {
    fn new(num_classes: usize, max_bytes: u64) -> Self {
        assert!(
            num_classes <= u128::BITS as usize,
            "the donor mask holds at most 128 size classes, not {num_classes}"
        );
        Self {
            classes: vec![ClassSlab::default(); num_classes],
            donors: 0,
            max_bytes,
            capacity_bytes: 0,
            cached_bytes: 0,
            misses_total: 0,
            misses_interval: 0,
        }
    }

    /// Recomputes `class`'s donor bit after its capacity or length moved.
    fn sync_donor(&mut self, class: usize) {
        let cslab = &self.classes[class];
        if cslab.capacity as usize > cslab.objs.len() {
            self.donors |= donor_bit(class);
        } else {
            self.donors &= !donor_bit(class);
        }
    }
}

/// The array of per-CPU caches for one process.
#[derive(Clone, Debug)]
pub struct PerCpuCaches {
    slabs: Vec<Option<CpuSlab>>,
    sizes: Vec<u64>,
    batches: Vec<u32>,
    /// Per-class object-count cap (production limits per-class slabs).
    class_caps: Vec<u32>,
    default_max_bytes: u64,
}

impl PerCpuCaches {
    /// Creates the cache array. Slabs are populated lazily per vCPU — the
    /// point of virtual CPU IDs (§4.1).
    pub fn new(table: &SizeClassTable, default_max_bytes: u64) -> Self {
        Self {
            slabs: Vec::new(),
            sizes: table.iter().map(|c| c.size).collect(),
            batches: table.iter().map(|c| c.batch).collect(),
            class_caps: table
                .iter()
                .map(|c| {
                    // Clamp in the u64 domain *before* narrowing: `cap as
                    // u32` on the raw quotient would truncate a large value
                    // first and clamp the mangled number.
                    let cap = (256u64 << 10) / crate::config::CAPACITY_SCALE / c.size;
                    let cap = cap.clamp(2, 2048 / crate::config::CAPACITY_SCALE);
                    u32::try_from(cap).expect("class cap clamped within u32")
                })
                .collect(),
            default_max_bytes,
        }
    }

    fn slab_mut(&mut self, vcpu: VcpuId) -> &mut CpuSlab {
        Self::slab_in(
            &mut self.slabs,
            vcpu,
            self.sizes.len(),
            self.default_max_bytes,
        )
    }

    /// [`slab_mut`](Self::slab_mut) over the slab array alone, so a caller
    /// can keep borrowing the per-class tables next to the slab. An existing
    /// slab is a bounds check and a discriminant test; a vCPU's first use
    /// goes through [`populate`](Self::populate).
    #[inline]
    fn slab_in(
        slabs: &mut Vec<Option<CpuSlab>>,
        vcpu: VcpuId,
        num_classes: usize,
        max_bytes: u64,
    ) -> &mut CpuSlab {
        let idx = vcpu.index();
        let Some(Some(_)) = slabs.get(idx) else {
            return Self::populate(slabs, idx, num_classes, max_bytes);
        };
        slabs[idx].as_mut().expect("slab checked present above")
    }

    /// Builds vCPU `idx`'s slab on its first use — the lazy population of
    /// §4.1, off the hit path.
    #[cold]
    #[inline(never)]
    fn populate(
        slabs: &mut Vec<Option<CpuSlab>>,
        idx: usize,
        num_classes: usize,
        max_bytes: u64,
    ) -> &mut CpuSlab {
        if idx >= slabs.len() {
            slabs.resize_with(idx + 1, || None);
        }
        slabs[idx].get_or_insert_with(|| CpuSlab::new(num_classes, max_bytes))
    }

    /// Fast-path allocation: pops a cached object, or records an underflow
    /// miss and returns `None` (caller refills from the transfer cache).
    /// Emits the per-CPU hit/miss boundary event.
    pub fn alloc(&mut self, vcpu: VcpuId, class: usize, bus: &mut EventBus) -> Option<u64> {
        let size = self.sizes[class];
        let slab = self.slab_mut(vcpu);
        let cslab = &mut slab.classes[class];
        cslab.touched = true;
        match cslab.objs.pop() {
            Some(addr) => {
                slab.cached_bytes -= size;
                // A stack never holds more than its capacity, so a pop
                // leaves room.
                slab.donors |= donor_bit(class);
                bus.percpu_hit(vcpu.index(), class as u16);
                Some(addr)
            }
            None => {
                slab.misses_total += 1;
                slab.misses_interval += 1;
                bus.emit(AllocEvent::PerCpuMiss {
                    vcpu: vcpu.index(),
                    class: class as u16,
                });
                None
            }
        }
    }

    /// Grows `class`'s capacity by one batch if the byte budget allows,
    /// stealing *unused* capacity from the largest other class if needed
    /// (each steal emits [`AllocEvent::ResizerSteal`]). Returns whether the
    /// grant succeeded.
    ///
    /// The victims are the set bits of the donor mask, highest class first:
    /// the same classes in the same order as a descending scan of every
    /// class that skips the ones without unused capacity.
    fn try_grow(&mut self, vcpu: VcpuId, class: usize, bus: &mut EventBus) -> bool {
        let size = self.sizes[class];
        let batch = self.batches[class] as u64;
        let need = batch * size;
        let cap = self.class_caps[class];
        let sizes = &self.sizes;
        let slab = Self::slab_in(&mut self.slabs, vcpu, sizes.len(), self.default_max_bytes);
        if slab.classes[class].capacity + batch as u32 > cap {
            return false;
        }
        if slab.capacity_bytes + need > slab.max_bytes {
            // Steal unused capacity, preferring the largest size classes
            // (most bytes reclaimed per slot, and small classes dominate
            // traffic).
            let mut reclaimed = 0u64;
            let mut victims = slab.donors & !donor_bit(class);
            while victims != 0 && reclaimed < need {
                let cl = (u128::BITS - 1 - victims.leading_zeros()) as usize;
                victims &= !donor_bit(cl);
                let cslab = &mut slab.classes[cl];
                let unused = cslab.capacity.saturating_sub(cslab.objs.len() as u32);
                debug_assert!(unused > 0, "donor bit set on full class {cl}");
                let take_bytes = (unused as u64 * sizes[cl]).min(need - reclaimed);
                // Stay in u64 until the `unused` bound proves the value
                // fits: a bare `as u32` would silently wrap for huge byte
                // budgets.
                let take_slots = take_bytes.div_ceil(sizes[cl]).min(unused as u64);
                let take_slots = u32::try_from(take_slots).expect("slots bounded by unused: u32");
                cslab.capacity -= take_slots;
                slab.sync_donor(cl);
                let freed = take_slots as u64 * sizes[cl];
                slab.capacity_bytes -= freed;
                reclaimed += freed;
                bus.emit(AllocEvent::ResizerSteal {
                    vcpu: vcpu.index(),
                    victim_class: cl as u16,
                    class: class as u16,
                    bytes: freed,
                });
            }
        }
        let granted = slab.capacity_bytes + need <= slab.max_bytes;
        if granted {
            let cslab = &mut slab.classes[class];
            cslab.capacity += batch as u32;
            // Reserve the stack's storage for the whole grant now, so the
            // pushes that fill it never reallocate on their way up to it.
            cslab
                .objs
                .reserve((cslab.capacity as usize).saturating_sub(cslab.objs.len()));
            slab.capacity_bytes += need;
            // A batch is at least two objects: the grant leaves room for
            // the one a `free_overflow` pushes next.
            slab.donors |= donor_bit(class);
        }
        granted
    }

    /// Refills `class` with a batch fetched from the middle tier after an
    /// underflow: takes as long a prefix of `objs` as the granted capacity
    /// has room for and returns its length. The caller sends
    /// `objs[taken..]` back to the transfer cache.
    pub fn refill(
        &mut self,
        vcpu: VcpuId,
        class: usize,
        objs: &[u64],
        bus: &mut EventBus,
    ) -> usize {
        self.try_grow(vcpu, class, bus);
        let size = self.sizes[class];
        let slab = self.slab_mut(vcpu);
        let cslab = &mut slab.classes[class];
        cslab.touched = true;
        let room = (cslab.capacity as usize).saturating_sub(cslab.objs.len());
        let take = room.min(objs.len());
        slab.cached_bytes += take as u64 * size;
        // lint:allow(panic-surface) take <= objs.len().
        cslab.objs.extend_from_slice(&objs[..take]);
        if take == room {
            slab.donors &= !donor_bit(class);
        }
        take
    }

    /// Fast-path free. On overflow the cache sheds one batch of this class
    /// (including the freed object) onto `out` for the transfer cache,
    /// emitting the overflow boundary event; a cached free never touches
    /// `out`.
    pub fn free(
        &mut self,
        vcpu: VcpuId,
        class: usize,
        addr: u64,
        out: &mut Vec<u64>,
        bus: &mut EventBus,
    ) -> FreeOutcome {
        let size = self.sizes[class];
        let slab = self.slab_mut(vcpu);
        let cslab = &mut slab.classes[class];
        cslab.touched = true;
        if (cslab.objs.len() as u32) < cslab.capacity {
            cslab.objs.push(addr);
            slab.cached_bytes += size;
            if cslab.objs.len() as u32 == cslab.capacity {
                slab.donors &= !donor_bit(class);
            }
            return FreeOutcome::Cached;
        }
        slab.misses_total += 1;
        slab.misses_interval += 1;
        self.free_overflow(vcpu, class, addr, out, bus)
    }

    /// The overflow half of [`free`](Self::free), kept out of line: the hit
    /// half is the tightest loop in the simulator, and this body inlined
    /// into it costs `alloc_fastpath` ≈ 2 %.
    #[cold]
    fn free_overflow(
        &mut self,
        vcpu: VcpuId,
        class: usize,
        addr: u64,
        out: &mut Vec<u64>,
        bus: &mut EventBus,
    ) -> FreeOutcome {
        let size = self.sizes[class];
        let batch = self.batches[class] as usize;
        // Try to grow; if granted, absorb the object after all (the grant
        // set the donor bit and left room beyond this object).
        if self.try_grow(vcpu, class, bus) {
            let slab = self.slab_mut(vcpu);
            slab.classes[class].objs.push(addr);
            slab.cached_bytes += size;
            return FreeOutcome::Cached;
        }
        let slab = self.slab_mut(vcpu);
        let cslab = &mut slab.classes[class];
        let shed = (batch - 1).min(cslab.objs.len());
        let at = cslab.objs.len() - shed;
        out.extend(cslab.objs.drain(at..));
        slab.cached_bytes -= shed as u64 * size;
        slab.sync_donor(class);
        out.push(addr);
        bus.emit(AllocEvent::PerCpuOverflow {
            vcpu: vcpu.index(),
            class: class as u16,
            shed: shed as u32 + 1,
        });
        FreeOutcome::Overflow
    }

    /// Sets a vCPU's byte budget, evicting from the largest size classes
    /// first when shrinking. Returns evicted objects grouped by class.
    // lint:allow(event-completeness) the resizer that drives this emits
    // ResizerSteal/ResizerShrink with the outcome; emitting here too would
    // double-count the eviction.
    pub fn set_max_bytes(&mut self, vcpu: VcpuId, bytes: u64) -> Vec<(usize, Vec<u64>)> {
        let sizes = &self.sizes;
        let slab = Self::slab_in(&mut self.slabs, vcpu, sizes.len(), self.default_max_bytes);
        slab.max_bytes = bytes;
        let mut evicted = Vec::new();
        // Shrink larger size classes first (§4.1).
        for cl in (0..sizes.len()).rev() {
            if slab.capacity_bytes <= bytes {
                break;
            }
            let cslab = &mut slab.classes[cl];
            if cslab.capacity == 0 {
                continue;
            }
            let excess_bytes = slab.capacity_bytes - bytes;
            // u64-domain math, bounded by the class's own capacity before
            // narrowing — an unchecked `as u32` wraps for multi-GiB excess.
            let drop_slots = excess_bytes.div_ceil(sizes[cl]).min(cslab.capacity as u64);
            let drop_slots = u32::try_from(drop_slots).expect("slots bounded by capacity: u32");
            cslab.capacity -= drop_slots;
            slab.capacity_bytes -= drop_slots as u64 * sizes[cl];
            if cslab.objs.len() as u32 > cslab.capacity {
                let shed = cslab.objs.len() - cslab.capacity as usize;
                let at = cslab.objs.len() - shed;
                let objs = cslab.objs.split_off(at);
                slab.cached_bytes -= shed as u64 * sizes[cl];
                evicted.push((cl, objs));
            }
            slab.sync_donor(cl);
        }
        evicted
    }

    /// The heterogeneous resize step (§4.1): the `top_n` caches with the
    /// most misses this interval each try to grow by `step` bytes, stealing
    /// budget round-robin from the quietest caches (never below `floor`).
    /// Interval miss counters reset afterwards (each budget move emits a
    /// grow/shrink event pair). Returns evictions to forward to the
    /// transfer cache.
    pub fn rebalance(
        &mut self,
        top_n: usize,
        step: u64,
        floor: u64,
        bus: &mut EventBus,
    ) -> Vec<(usize, Vec<u64>)> {
        let mut populated: Vec<usize> = (0..self.slabs.len())
            .filter(|&i| self.slabs[i].is_some())
            .collect();
        populated.sort_by_key(|&i| {
            std::cmp::Reverse(self.slabs[i].as_ref().expect("populated").misses_interval)
        });
        let growers: Vec<usize> = populated
            .iter()
            .copied()
            .take(top_n)
            .filter(|&i| self.slabs[i].as_ref().expect("populated").misses_interval > 0)
            .collect();
        let mut donors: Vec<usize> = populated
            .iter()
            .copied()
            .filter(|i| !growers.contains(i))
            .collect();
        donors.reverse(); // quietest first
        let mut evicted = Vec::new();
        let mut donor_rr = 0usize;
        for &g in &growers {
            // Find a donor with at least `step` above the floor, round-robin.
            let mut found = None;
            for k in 0..donors.len() {
                let d = donors[(donor_rr + k) % donors.len()];
                let dmax = self.slabs[d].as_ref().expect("populated").max_bytes;
                if dmax >= floor + step {
                    found = Some((d, dmax));
                    donor_rr = (donor_rr + k + 1) % donors.len().max(1);
                    break;
                }
            }
            let Some((d, dmax)) = found else { continue };
            evicted.extend(self.set_max_bytes(VcpuId(d as u32), dmax - step));
            bus.emit(AllocEvent::ResizerShrink {
                vcpu: d,
                bytes: step,
            });
            let gmax = self.slabs[g].as_ref().expect("populated").max_bytes;
            self.slabs[g].as_mut().expect("populated").max_bytes = gmax + step;
            bus.emit(AllocEvent::ResizerGrow {
                vcpu: g,
                bytes: step,
            });
        }
        for slab in self.slabs.iter_mut().flatten() {
            slab.misses_interval = 0;
        }
        evicted
    }

    /// Lifetime miss count for one vCPU (Figure 9b).
    pub fn misses_total(&self, vcpu: VcpuId) -> u64 {
        self.slabs
            .get(vcpu.index())
            .and_then(|s| s.as_ref())
            .map_or(0, |s| s.misses_total)
    }

    /// Lifetime miss counts indexed by vCPU (0 for unpopulated slots) — the
    /// Figure 9b distribution.
    pub fn miss_counts(&self) -> Vec<u64> {
        self.slabs
            .iter()
            .map(|s| s.as_ref().map_or(0, |s| s.misses_total))
            .collect()
    }

    /// Current byte budget for one vCPU.
    pub fn max_bytes(&self, vcpu: VcpuId) -> u64 {
        self.slabs
            .get(vcpu.index())
            .and_then(|s| s.as_ref())
            .map_or(self.default_max_bytes, |s| s.max_bytes)
    }

    /// Bytes currently cached across all vCPUs (front-end external
    /// fragmentation).
    pub fn cached_bytes_total(&self) -> u64 {
        self.slabs.iter().flatten().map(|s| s.cached_bytes).sum()
    }

    /// Objects cached per size class across every vCPU slab (the per-CPU
    /// term of the sanitizer's object-conservation audit).
    pub fn cached_objects_by_class(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.sizes.len()];
        for slab in self.slabs.iter().flatten() {
            for (cl, cslab) in slab.classes.iter().enumerate() {
                counts[cl] += cslab.objs.len() as u64;
            }
        }
        counts
    }

    /// Background idle-cache decay: classes not touched since the previous
    /// pass return half their cached objects (and the matching capacity)
    /// toward the middle tier, modelling production TCMalloc's reclaim of
    /// idle per-CPU caches. Returns evictions grouped by class.
    pub fn decay(&mut self) -> Vec<(usize, Vec<u64>)> {
        let mut out: Vec<(usize, Vec<u64>)> = Vec::new();
        for slab in self.slabs.iter_mut().flatten() {
            for (cl, cslab) in slab.classes.iter_mut().enumerate() {
                if cslab.touched {
                    cslab.touched = false;
                    continue;
                }
                if cslab.objs.is_empty() {
                    // Idle and empty: release granted capacity too.
                    slab.capacity_bytes -= cslab.capacity as u64 * self.sizes[cl];
                    cslab.capacity = 0;
                    slab.donors &= !donor_bit(cl);
                    continue;
                }
                // Reclaim the *cold end* of the stack: the oldest objects
                // are the residue pinning otherwise-dead spans. Stack and
                // capacity drop by the same count (shed <= len <= capacity),
                // so the unused capacity and the donor bit stay as they are.
                let shed = cslab.objs.len().div_ceil(2);
                let objs: Vec<u64> = cslab.objs.drain(..shed).collect();
                slab.cached_bytes -= shed as u64 * self.sizes[cl];
                let cap_drop = (shed as u32).min(cslab.capacity);
                cslab.capacity -= cap_drop;
                slab.capacity_bytes -= cap_drop as u64 * self.sizes[cl];
                out.push((cl, objs));
            }
        }
        out
    }

    /// Flushes every cached object, grouped by class (used at teardown and
    /// by tests to drain the tier).
    // lint:allow(event-completeness) teardown drain: evicted objects are
    // handed back to the caller, whose reinsertion paths emit.
    pub fn flush_all(&mut self) -> Vec<(usize, Vec<u64>)> {
        let mut out = Vec::new();
        for slab in self.slabs.iter_mut().flatten() {
            for (cl, cslab) in slab.classes.iter_mut().enumerate() {
                if !cslab.objs.is_empty() {
                    slab.cached_bytes -= cslab.objs.len() as u64 * self.sizes[cl];
                    out.push((cl, std::mem::take(&mut cslab.objs)));
                    if cslab.capacity > 0 {
                        slab.donors |= donor_bit(cl);
                    }
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

    fn caches(max_bytes: u64) -> PerCpuCaches {
        PerCpuCaches::new(&SizeClassTable::production(), max_bytes)
    }

    fn bus() -> EventBus {
        EventBus::new(
            &TcmallocConfig::baseline(),
            CostModel::production(),
            Clock::new(),
        )
    }

    const V0: VcpuId = VcpuId(0);
    const V1: VcpuId = VcpuId(1);

    #[test]
    fn cold_alloc_misses_then_hits_after_refill() {
        let mut c = caches(3 << 20);
        let mut b = bus();
        assert_eq!(c.alloc(V0, 3, &mut b), None);
        assert_eq!(c.misses_total(V0), 1);
        assert_eq!(c.refill(V0, 3, &[0x1000, 0x2000, 0x3000], &mut b), 3);
        assert_eq!(c.alloc(V0, 3, &mut b), Some(0x3000), "LIFO order");
        assert_eq!(c.alloc(V0, 3, &mut b), Some(0x2000));
    }

    #[test]
    fn free_caches_until_capacity() {
        let mut c = caches(3 << 20);
        let mut b = bus();
        // Establish capacity via a refill.
        c.refill(V0, 0, &[8], &mut b);
        let batch = c.batches[0] as usize;
        let mut overflowed = false;
        let mut shed = Vec::new();
        for i in 0..10 * batch as u64 {
            match c.free(V0, 0, 0x100000 + i * 8, &mut shed, &mut b) {
                FreeOutcome::Cached => assert!(shed.is_empty()),
                FreeOutcome::Overflow => {
                    assert_eq!(shed.len(), batch);
                    overflowed = true;
                    break;
                }
            }
        }
        // With a 3 MiB budget the cache keeps growing for a while; either
        // it absorbed everything or it eventually shed a batch.
        let _ = overflowed;
        assert!(c.cached_bytes_total() > 0);
    }

    #[test]
    fn tiny_budget_overflows() {
        let mut c = caches(64); // 64-byte budget: almost nothing fits
        let mut b = bus();
        c.refill(V0, 0, &[8], &mut b);
        let mut saw_overflow = false;
        let mut shed = Vec::new();
        for i in 1..100u64 {
            if c.free(V0, 0, i * 8, &mut shed, &mut b) == FreeOutcome::Overflow {
                assert_eq!(shed.last(), Some(&(i * 8)), "the freed object rides last");
                saw_overflow = true;
                break;
            }
        }
        assert!(saw_overflow);
        assert!(c.misses_total(V0) > 0);
    }

    #[test]
    fn budget_is_enforced() {
        let mut c = caches(4096);
        let mut b = bus();
        // Pump many classes; capacity bytes must never exceed the budget.
        for cl in 0..20 {
            let _ = c.alloc(V0, cl, &mut b);
            let addrs: Vec<u64> = (0..64u64).map(|i| 0x40000000 + i * 4096).collect();
            let _ = c.refill(V0, cl, &addrs, &mut b);
        }
        let slab = c.slabs[0].as_ref().unwrap();
        assert!(
            slab.capacity_bytes <= 4096,
            "capacity {} > budget",
            slab.capacity_bytes
        );
    }

    #[test]
    fn shrink_evicts_larger_classes_first() {
        let mut c = caches(1 << 20);
        let mut b = bus();
        // Fill a small class and a large class.
        let small: Vec<u64> = (0..32u64).map(|i| i * 8).collect();
        c.refill(V0, 0, &small, &mut b);
        let big_cl = c.sizes.len() - 5;
        let big_sz = c.sizes[big_cl];
        c.refill(V0, big_cl, &[0x7000_0000, 0x7000_0000 + big_sz], &mut b);
        let evicted = c.set_max_bytes(V0, 512);
        assert!(!evicted.is_empty());
        // The first eviction must come from the larger class.
        assert_eq!(evicted[0].0, big_cl);
    }

    #[test]
    fn rebalance_moves_budget_to_hot_cache() {
        let mut c = caches(1 << 20);
        let mut b = bus();
        // V0 is hot (many misses); V1 is idle but populated.
        for _ in 0..100 {
            let _ = c.alloc(V0, 0, &mut b);
        }
        let _ = c.alloc(V1, 0, &mut b);
        c.slabs[1].as_mut().unwrap().misses_interval = 0; // force idle
        let before0 = c.max_bytes(V0);
        let before1 = c.max_bytes(V1);
        c.rebalance(5, 256 << 10, 128 << 10, &mut b);
        assert!(c.max_bytes(V0) > before0, "hot cache grew");
        assert!(c.max_bytes(V1) < before1, "idle cache shrank");
        // Budget conserved.
        assert_eq!(c.max_bytes(V0) + c.max_bytes(V1), before0 + before1);
    }

    #[test]
    fn rebalance_respects_floor() {
        let mut c = caches(200 << 10);
        let mut b = bus();
        for _ in 0..10 {
            let _ = c.alloc(V0, 0, &mut b);
        }
        let _ = c.alloc(V1, 0, &mut b);
        c.slabs[1].as_mut().unwrap().misses_interval = 0;
        // Donor has 200 KiB; floor 128 KiB; step 256 KiB cannot be met.
        c.rebalance(5, 256 << 10, 128 << 10, &mut b);
        assert_eq!(c.max_bytes(V1), 200 << 10, "donor untouched below floor");
    }

    #[test]
    fn interval_misses_reset_after_rebalance() {
        let mut c = caches(1 << 20);
        let mut b = bus();
        let _ = c.alloc(V0, 0, &mut b);
        assert_eq!(c.slabs[0].as_ref().unwrap().misses_interval, 1);
        c.rebalance(5, 64 << 10, 8 << 10, &mut b);
        assert_eq!(c.slabs[0].as_ref().unwrap().misses_interval, 0);
        assert_eq!(c.misses_total(V0), 1, "lifetime counter survives");
    }

    #[test]
    fn flush_returns_everything() {
        let mut c = caches(1 << 20);
        let mut b = bus();
        c.refill(V0, 2, &[0x100, 0x200], &mut b);
        c.refill(V1, 4, &[0x300], &mut b);
        let flushed = c.flush_all();
        let total: usize = flushed.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(c.cached_bytes_total(), 0);
    }

    #[test]
    fn huge_byte_budget_does_not_wrap_slot_math() {
        // Regression for the lossy casts: a per-CPU budget large enough
        // that byte→slot conversions overflow u32 if computed narrowly
        // (e.g. 64 GiB / 8 B = 2^33 slots). All slot counts must stay
        // bounded by per-class caps, capacity bytes by the budget, and a
        // later shrink must not wrap when the excess is multi-GiB.
        let huge = 64u64 << 30;
        let mut c = caches(huge);
        let mut b = bus();
        for cl in [0usize, 3, 10] {
            let _ = c.alloc(V0, cl, &mut b);
            let addrs: Vec<u64> = (0..128u64).map(|i| 0x5000_0000 + i * (1 << 20)).collect();
            let _ = c.refill(V0, cl, &addrs, &mut b);
        }
        {
            let slab = c.slabs[0].as_ref().unwrap();
            assert!(slab.capacity_bytes <= huge);
            for (cl, cslab) in slab.classes.iter().enumerate() {
                assert!(
                    cslab.capacity <= c.class_caps[cl],
                    "class {cl} capacity {} above cap {}",
                    cslab.capacity,
                    c.class_caps[cl]
                );
            }
        }
        // Shrinking from a 64 GiB budget to 1 KiB exercises the
        // excess_bytes.div_ceil path with a quotient far above u32::MAX.
        let _ = c.set_max_bytes(V0, 1024);
        let slab = c.slabs[0].as_ref().unwrap();
        assert!(
            slab.capacity_bytes <= 1024 || slab.classes.iter().all(|s| s.capacity == 0),
            "shrink left capacity {} over budget",
            slab.capacity_bytes
        );
    }

    #[test]
    fn lazy_population() {
        let mut c = caches(1 << 20);
        let mut b = bus();
        assert_eq!(c.slabs.iter().flatten().count(), 0);
        let _ = c.alloc(VcpuId(7), 0, &mut b);
        assert!(c.slabs[7].is_some(), "vCPU 7 populated");
        assert_eq!(c.slabs.iter().flatten().count(), 1, "and only vCPU 7");
    }

    /// The retired tier, whose `try_grow` scans every class from the largest
    /// down for unused capacity, kept only as the model the donor mask is
    /// held to. Same operations, same events, no mask.
    mod reference {
        use super::super::{FreeOutcome, PerCpuCaches};
        use crate::events::{AllocEvent, EventBus};

        #[derive(Clone, Default)]
        pub struct Class {
            pub objs: Vec<u64>,
            pub capacity: u32,
            touched: bool,
        }

        pub struct Slab {
            pub classes: Vec<Class>,
            pub max_bytes: u64,
            pub capacity_bytes: u64,
            pub cached_bytes: u64,
            pub misses_total: u64,
            misses_interval: u64,
        }

        pub struct RefCaches {
            pub slabs: Vec<Option<Slab>>,
            sizes: Vec<u64>,
            batches: Vec<u32>,
            caps: Vec<u32>,
            default_max: u64,
        }

        type Evicted = Vec<(usize, Vec<u64>)>;

        impl RefCaches {
            /// A model with `real`'s class table and default budget.
            pub fn like(real: &PerCpuCaches) -> Self {
                Self {
                    slabs: Vec::new(),
                    sizes: real.sizes.clone(),
                    batches: real.batches.clone(),
                    caps: real.class_caps.clone(),
                    default_max: real.default_max_bytes,
                }
            }

            fn slab(&mut self, v: usize) -> &mut Slab {
                if v >= self.slabs.len() {
                    self.slabs.resize_with(v + 1, || None);
                }
                let (n, max_bytes) = (self.sizes.len(), self.default_max);
                self.slabs[v].get_or_insert_with(|| Slab {
                    classes: vec![Class::default(); n],
                    max_bytes,
                    capacity_bytes: 0,
                    cached_bytes: 0,
                    misses_total: 0,
                    misses_interval: 0,
                })
            }

            pub fn alloc(&mut self, v: usize, cl: usize, bus: &mut EventBus) -> Option<u64> {
                let size = self.sizes[cl];
                let slab = self.slab(v);
                slab.classes[cl].touched = true;
                let got = slab.classes[cl].objs.pop();
                if got.is_some() {
                    slab.cached_bytes -= size;
                    bus.percpu_hit(v, cl as u16);
                } else {
                    slab.misses_total += 1;
                    slab.misses_interval += 1;
                    bus.emit(AllocEvent::PerCpuMiss {
                        vcpu: v,
                        class: cl as u16,
                    });
                }
                got
            }

            fn try_grow(&mut self, v: usize, class: usize, bus: &mut EventBus) -> bool {
                let need = u64::from(self.batches[class]) * self.sizes[class];
                let batch = self.batches[class];
                let cap = self.caps[class];
                let sizes = self.sizes.clone();
                let slab = self.slab(v);
                if slab.classes[class].capacity + batch > cap {
                    return false;
                }
                if slab.capacity_bytes + need > slab.max_bytes {
                    let mut reclaimed = 0u64;
                    for cl in (0..sizes.len()).rev() {
                        if reclaimed >= need {
                            break;
                        }
                        if cl == class {
                            continue;
                        }
                        let c = &mut slab.classes[cl];
                        let unused = c.capacity.saturating_sub(c.objs.len() as u32);
                        if unused == 0 {
                            continue;
                        }
                        let take_bytes = (u64::from(unused) * sizes[cl]).min(need - reclaimed);
                        let take = take_bytes.div_ceil(sizes[cl]).min(u64::from(unused));
                        c.capacity -= take as u32;
                        slab.capacity_bytes -= take * sizes[cl];
                        reclaimed += take * sizes[cl];
                        bus.emit(AllocEvent::ResizerSteal {
                            vcpu: v,
                            victim_class: cl as u16,
                            class: class as u16,
                            bytes: take * sizes[cl],
                        });
                    }
                }
                let granted = slab.capacity_bytes + need <= slab.max_bytes;
                if granted {
                    slab.classes[class].capacity += batch;
                    slab.capacity_bytes += need;
                }
                granted
            }

            pub fn refill(
                &mut self,
                v: usize,
                cl: usize,
                objs: &[u64],
                bus: &mut EventBus,
            ) -> usize {
                self.try_grow(v, cl, bus);
                let size = self.sizes[cl];
                let slab = self.slab(v);
                let c = &mut slab.classes[cl];
                c.touched = true;
                let take = (c.capacity as usize)
                    .saturating_sub(c.objs.len())
                    .min(objs.len());
                c.objs.extend_from_slice(&objs[..take]);
                slab.cached_bytes += take as u64 * size;
                take
            }

            pub fn free(
                &mut self,
                v: usize,
                cl: usize,
                addr: u64,
                out: &mut Vec<u64>,
                bus: &mut EventBus,
            ) -> FreeOutcome {
                let (size, batch) = (self.sizes[cl], self.batches[cl] as usize);
                let slab = self.slab(v);
                let c = &mut slab.classes[cl];
                c.touched = true;
                if (c.objs.len() as u32) < c.capacity {
                    c.objs.push(addr);
                    slab.cached_bytes += size;
                    return FreeOutcome::Cached;
                }
                slab.misses_total += 1;
                slab.misses_interval += 1;
                if self.try_grow(v, cl, bus) {
                    let slab = self.slab(v);
                    slab.classes[cl].objs.push(addr);
                    slab.cached_bytes += size;
                    return FreeOutcome::Cached;
                }
                let slab = self.slab(v);
                let c = &mut slab.classes[cl];
                let shed = (batch - 1).min(c.objs.len());
                let at = c.objs.len() - shed;
                out.extend(c.objs.drain(at..));
                slab.cached_bytes -= shed as u64 * size;
                out.push(addr);
                bus.emit(AllocEvent::PerCpuOverflow {
                    vcpu: v,
                    class: cl as u16,
                    shed: shed as u32 + 1,
                });
                FreeOutcome::Overflow
            }

            pub fn set_max_bytes(&mut self, v: usize, bytes: u64) -> Evicted {
                let sizes = self.sizes.clone();
                let slab = self.slab(v);
                slab.max_bytes = bytes;
                let mut evicted = Vec::new();
                for cl in (0..sizes.len()).rev() {
                    if slab.capacity_bytes <= bytes {
                        break;
                    }
                    let c = &mut slab.classes[cl];
                    if c.capacity == 0 {
                        continue;
                    }
                    let drop = (slab.capacity_bytes - bytes)
                        .div_ceil(sizes[cl])
                        .min(u64::from(c.capacity));
                    c.capacity -= drop as u32;
                    slab.capacity_bytes -= drop * sizes[cl];
                    if c.objs.len() > c.capacity as usize {
                        let objs = c.objs.split_off(c.capacity as usize);
                        slab.cached_bytes -= objs.len() as u64 * sizes[cl];
                        evicted.push((cl, objs));
                    }
                }
                evicted
            }

            pub fn rebalance(
                &mut self,
                top_n: usize,
                step: u64,
                floor: u64,
                bus: &mut EventBus,
            ) -> Evicted {
                let misses = |s: &Option<Slab>| s.as_ref().map(|s| s.misses_interval);
                let mut populated: Vec<usize> = (0..self.slabs.len())
                    .filter(|&i| self.slabs[i].is_some())
                    .collect();
                populated.sort_by_key(|&i| std::cmp::Reverse(misses(&self.slabs[i])));
                let growers: Vec<usize> = populated
                    .iter()
                    .copied()
                    .take(top_n)
                    .filter(|&i| misses(&self.slabs[i]) > Some(0))
                    .collect();
                let mut donors: Vec<usize> = populated
                    .into_iter()
                    .filter(|i| !growers.contains(i))
                    .collect();
                donors.reverse();
                let mut evicted = Vec::new();
                let mut rr = 0usize;
                for &g in &growers {
                    let found = (0..donors.len()).find_map(|k| {
                        let d = donors[(rr + k) % donors.len()];
                        let dmax = self.slabs[d].as_ref().unwrap().max_bytes;
                        (dmax >= floor + step).then_some((k, d, dmax))
                    });
                    let Some((k, d, dmax)) = found else { continue };
                    rr = (rr + k + 1) % donors.len();
                    evicted.extend(self.set_max_bytes(d, dmax - step));
                    bus.emit(AllocEvent::ResizerShrink {
                        vcpu: d,
                        bytes: step,
                    });
                    self.slab(g).max_bytes += step;
                    bus.emit(AllocEvent::ResizerGrow {
                        vcpu: g,
                        bytes: step,
                    });
                }
                for slab in self.slabs.iter_mut().flatten() {
                    slab.misses_interval = 0;
                }
                evicted
            }

            pub fn decay(&mut self) -> Evicted {
                let mut out = Vec::new();
                for slab in self.slabs.iter_mut().flatten() {
                    for (cl, c) in slab.classes.iter_mut().enumerate() {
                        let size = self.sizes[cl];
                        if std::mem::take(&mut c.touched) {
                            continue;
                        }
                        if c.objs.is_empty() {
                            slab.capacity_bytes -= u64::from(c.capacity) * size;
                            c.capacity = 0;
                            continue;
                        }
                        let shed = c.objs.len().div_ceil(2);
                        let objs: Vec<u64> = c.objs.drain(..shed).collect();
                        slab.cached_bytes -= shed as u64 * size;
                        let cap_drop = (shed as u32).min(c.capacity);
                        c.capacity -= cap_drop;
                        slab.capacity_bytes -= u64::from(cap_drop) * size;
                        out.push((cl, objs));
                    }
                }
                out
            }

            pub fn flush_all(&mut self) -> Evicted {
                let mut out = Vec::new();
                for slab in self.slabs.iter_mut().flatten() {
                    for (cl, c) in slab.classes.iter_mut().enumerate() {
                        if !c.objs.is_empty() {
                            slab.cached_bytes -= c.objs.len() as u64 * self.sizes[cl];
                            out.push((cl, std::mem::take(&mut c.objs)));
                        }
                    }
                }
                out
            }
        }
    }

    /// Asserts `real` and `model` hold the same slabs, and that every donor
    /// mask equals the one recomputed from the classes.
    fn assert_lockstep(real: &PerCpuCaches, model: &reference::RefCaches, what: &str) {
        assert_eq!(real.slabs.len(), model.slabs.len(), "{what}: slab count");
        for (v, (r, m)) in real.slabs.iter().zip(&model.slabs).enumerate() {
            let (Some(r), Some(m)) = (r, m) else {
                assert_eq!(r.is_some(), m.is_some(), "{what}: vCPU {v} populated");
                continue;
            };
            let mut donors = 0u128;
            for (cl, (rc, mc)) in r.classes.iter().zip(&m.classes).enumerate() {
                assert_eq!(
                    rc.capacity, mc.capacity,
                    "{what}: vCPU {v} class {cl} capacity"
                );
                assert_eq!(rc.objs, mc.objs, "{what}: vCPU {v} class {cl} stack");
                if rc.capacity as usize > rc.objs.len() {
                    donors |= donor_bit(cl);
                }
            }
            assert_eq!(r.donors, donors, "{what}: vCPU {v} donor mask");
            assert_eq!(
                (
                    r.capacity_bytes,
                    r.cached_bytes,
                    r.max_bytes,
                    r.misses_total
                ),
                (
                    m.capacity_bytes,
                    m.cached_bytes,
                    m.max_bytes,
                    m.misses_total
                ),
                "{what}: vCPU {v} byte counters"
            );
        }
    }

    #[test]
    fn donor_mask_matches_the_full_scan_in_lockstep() {
        use wsc_prng::SmallRng;
        let recording = || {
            EventBus::new(
                &TcmallocConfig::baseline().with_trace(crate::events::TraceRing::UNBOUNDED),
                CostModel::production(),
                Clock::new(),
            )
        };
        let default_budget = TcmallocConfig::optimized().percpu_max_bytes;
        for (case, budget) in [4u64 << 10, 64 << 10, default_budget]
            .into_iter()
            .enumerate()
        {
            let mut real = caches(budget);
            let mut model = reference::RefCaches::like(&real);
            let (mut real_bus, mut model_bus) = (recording(), recording());
            let mut rng = SmallRng::seed_from_u64(0xd0_0a75 + case as u64);
            let classes = real.sizes.len();
            let mut next_addr = 0x1000_0000u64;
            let mut fresh = |n: usize| -> Vec<u64> {
                (0..n)
                    .map(|_| {
                        next_addr += 8;
                        next_addr
                    })
                    .collect()
            };
            // Objects the caches handed out, to free back later.
            let mut live: Vec<(usize, u64)> = Vec::new();
            let mut steals = 0usize;
            let mut seen = 0usize;
            for step in 0..20_000 {
                let v = rng.gen_range(0..4usize);
                let vcpu = VcpuId(v as u32);
                // Half the traffic on a few small classes, the rest spread
                // over all of them so large classes hold capacity to steal.
                let cl = if rng.gen_bool(0.5) {
                    rng.gen_range(0..8usize)
                } else {
                    rng.gen_range(0..classes)
                };
                let batch = real.batches[cl] as usize;
                let what = format!("case {case} step {step}");
                match rng.gen_range(0..1000u32) {
                    0..=349 => {
                        let got = real.alloc(vcpu, cl, &mut real_bus);
                        assert_eq!(got, model.alloc(v, cl, &mut model_bus), "{what}: alloc");
                        if let Some(addr) = got {
                            live.push((cl, addr));
                        }
                    }
                    350..=449 => {
                        let objs = fresh(rng.gen_range(0..=2 * batch));
                        let taken = real.refill(vcpu, cl, &objs, &mut real_bus);
                        assert_eq!(
                            taken,
                            model.refill(v, cl, &objs, &mut model_bus),
                            "{what}: refill"
                        );
                    }
                    450..=929 => {
                        let (cl, addr) = if live.is_empty() {
                            (cl, fresh(1)[0])
                        } else {
                            live.swap_remove(rng.gen_range(0..live.len()))
                        };
                        let (mut real_out, mut model_out) = (Vec::new(), Vec::new());
                        let outcome = real.free(vcpu, cl, addr, &mut real_out, &mut real_bus);
                        let want = model.free(v, cl, addr, &mut model_out, &mut model_bus);
                        assert_eq!((outcome, real_out), (want, model_out), "{what}: free");
                    }
                    930..=959 => {
                        let bytes = rng.gen_range(budget / 8..=2 * budget);
                        assert_eq!(
                            real.set_max_bytes(vcpu, bytes),
                            model.set_max_bytes(v, bytes),
                            "{what}: set_max_bytes"
                        );
                    }
                    960..=979 => assert_eq!(real.decay(), model.decay(), "{what}: decay"),
                    980..=984 => {
                        assert_eq!(real.flush_all(), model.flush_all(), "{what}: flush_all");
                    }
                    _ => {
                        let (grow, floor) = (budget / 8, budget / 4);
                        assert_eq!(
                            real.rebalance(2, grow, floor, &mut real_bus),
                            model.rebalance(2, grow, floor, &mut model_bus),
                            "{what}: rebalance"
                        );
                    }
                }
                assert_lockstep(&real, &model, &what);
                let (r, m) = (real_bus.stream(), model_bus.stream());
                assert_eq!(r[seen..], m[seen..], "{what}: events");
                steals += r[seen..]
                    .iter()
                    .filter(|e| matches!(e, AllocEvent::ResizerSteal { .. }))
                    .count();
                seen = r.len();
            }
            assert!(steals >= 100, "case {case}: only {steals} steals exercised");
        }
    }
}
