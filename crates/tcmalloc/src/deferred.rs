//! Deferred cross-thread frees: the atomic-list remote-free arm.
//!
//! When a thread frees an object whose span is owned by another vCPU, the
//! free cannot go into the local per-CPU cache without un-sharding the
//! front end. Under [`FreeArm::AtomicList`](crate::config::FreeArm) the
//! object is pushed onto the owning *span's* deferred list with one
//! contended CAS, as rpmalloc does; the owner adopts whole lists at drain
//! points by detaching them atomically.
//!
//! The simulator is deterministic, so the "atomics" here are charged via
//! the cost model (`atomic_cas_ns` / `contended_lock_ns`) rather than
//! raced: the lists are a `BTreeMap` (deterministic iteration order) behind
//! a mutex, and counters are atomics only so the `&self` snapshot paths can
//! read them. Drain points are deterministic — central refill and the
//! plunder cadence — so the whole event stream stays byte-identical for a
//! given schedule.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The deferred-free state for one allocator instance: the per-span lists
/// plus the in-flight accounting the conservation audit reads.
#[derive(Debug)]
pub struct DeferredFrees {
    /// Objects parked per `(class, span id)`.
    span_lists: Mutex<BTreeMap<(u16, u32), Vec<u64>>>,
    /// Remote frees ever queued.
    queued_total: AtomicU64,
    /// Remote frees ever drained back into the tiers.
    drained_total: AtomicU64,
    /// Objects currently parked (queued, not yet drained), per class.
    in_flight_by_class: Vec<AtomicU64>,
}

impl DeferredFrees {
    /// Empty deferred state for `classes` size classes.
    pub fn new(classes: usize) -> Self {
        Self {
            span_lists: Mutex::new(BTreeMap::new()),
            queued_total: AtomicU64::new(0),
            drained_total: AtomicU64::new(0),
            in_flight_by_class: (0..classes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Parks a remote free on the deferred list of span `span` — the one
    /// contended CAS the caller charges.
    pub fn queue_remote(&self, class: u16, span: u32, addr: u64) {
        // lint:allow(atomic-ordering) Relaxed: monotone counters guarding
        // no data; readers only need eventual totals.
        self.queued_total.fetch_add(1, Ordering::Relaxed);
        // lint:allow(atomic-ordering) Relaxed: same counter-only contract.
        self.in_flight_by_class[class as usize].fetch_add(1, Ordering::Relaxed);
        self.span_lists
            .lock()
            .expect("span_lists mutex poisoned")
            .entry((class, span))
            .or_default()
            .push(addr);
    }

    /// Detaches every list parked for one size class. The central-refill
    /// drain point.
    pub fn drain_class(&self, class: u16) -> Vec<u64> {
        let mut out = Vec::new();
        let mut lists = self.span_lists.lock().expect("span_lists mutex poisoned");
        let keys: Vec<(u16, u32)> = lists
            .range((class, 0)..=(class, u32::MAX))
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            if let Some(objs) = lists.remove(&k) {
                out.extend(objs);
            }
        }
        if !out.is_empty() {
            self.note_drained(class, out.len());
        }
        out
    }

    /// Detaches every deferred list, grouped by class in class order — the
    /// full-barrier drain of the plunder cadence.
    pub fn drain_all(&self) -> Vec<(u16, Vec<u64>)> {
        let mut by_class: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
        for ((class, _span), objs) in
            std::mem::take(&mut *self.span_lists.lock().expect("span_lists mutex poisoned"))
        {
            by_class.entry(class).or_default().extend(objs);
        }
        for (class, objs) in &by_class {
            self.note_drained(*class, objs.len());
        }
        by_class.into_iter().collect()
    }

    /// Objects currently parked, per class (the conservation audit's
    /// `deferred` term).
    pub fn in_flight_by_class(&self) -> Vec<u64> {
        self.in_flight_by_class
            .iter()
            // lint:allow(atomic-ordering) Relaxed: counter snapshot; the
            // simulator is single-threaded per allocator instance.
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Remote frees ever queued.
    pub fn queued_total(&self) -> u64 {
        // lint:allow(atomic-ordering) Relaxed: monotone counter read.
        self.queued_total.load(Ordering::Relaxed)
    }

    /// Remote frees ever drained.
    pub fn drained_total(&self) -> u64 {
        // lint:allow(atomic-ordering) Relaxed: monotone counter read.
        self.drained_total.load(Ordering::Relaxed)
    }

    fn note_drained(&self, class: u16, count: usize) {
        let n = count as u64;
        // lint:allow(atomic-ordering) Relaxed: counter-only, as in queue.
        self.drained_total.fetch_add(n, Ordering::Relaxed);
        // lint:allow(atomic-ordering) Relaxed: same contract; queue always
        // precedes drain in program order, so this never underflows.
        self.in_flight_by_class[class as usize].fetch_sub(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn lists_park_per_span_and_drain_per_class() {
        let d = DeferredFrees::new(4);
        d.queue_remote(2, 7, 0x100);
        d.queue_remote(2, 7, 0x110);
        d.queue_remote(2, 9, 0x200);
        d.queue_remote(3, 7, 0x300);
        assert_eq!(d.in_flight_by_class(), vec![0, 0, 3, 1]);
        let mut drained = d.drain_class(2);
        drained.sort_unstable();
        assert_eq!(drained, vec![0x100, 0x110, 0x200]);
        assert_eq!(
            d.in_flight_by_class(),
            vec![0, 0, 0, 1],
            "class 3 still parked"
        );
        assert_eq!(d.drain_class(2), Vec::<u64>::new(), "idempotent");
        assert_eq!(d.queued_total(), 4);
        assert_eq!(d.drained_total(), 3);
    }

    #[test]
    fn drain_all_groups_by_class_in_order() {
        let d = DeferredFrees::new(3);
        d.queue_remote(2, 2, 0x20);
        d.queue_remote(0, 1, 0x10);
        d.queue_remote(2, 1, 0x30);
        assert_eq!(
            d.drain_all(),
            vec![(0u16, vec![0x10u64]), (2, vec![0x30, 0x20])],
            "classes in order, spans in order within a class"
        );
        assert_eq!(d.in_flight_by_class(), vec![0, 0, 0]);
        assert_eq!(d.drained_total(), 3);
        assert!(d.drain_all().is_empty());
    }
}
