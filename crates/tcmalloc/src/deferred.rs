//! Deferred cross-thread frees: the two "remote free" mechanisms.
//!
//! When a thread frees an object whose span is owned by another vCPU, the
//! free cannot go into the local per-CPU cache without un-sharding the
//! front end. Real allocators solve this two ways, and this module models
//! both behind [`FreeArm`]:
//!
//! * **Atomic list** (rpmalloc): each remote free pushes the object onto
//!   the owning *span's* deferred list with one contended CAS; the owner
//!   adopts whole lists at drain points by detaching them atomically.
//! * **Message passing** (snmalloc): remote frees accumulate in a
//!   sender-side batch and are posted to the owner's inbox once the batch
//!   fills ([`MSG_BATCH`] objects), amortizing one handoff per batch; the
//!   owner drains its inbox on its next per-CPU cache miss.
//!
//! The simulator is deterministic, so the "atomics" here are charged via
//! the cost model (`atomic_cas_ns` / `msg_batch_ns` / `contended_lock_ns`)
//! rather than raced: all containers are `BTreeMap`s (deterministic
//! iteration order) behind mutexes, and counters are atomics only so the
//! `&self` snapshot paths can read them. Drain points are deterministic —
//! per-CPU miss, central refill, transfer plunder — so the whole event
//! stream stays byte-identical for a given schedule.

// lint:lock-order(span_lists, outbox, inboxes) — canonical acquisition
// order for this file's three mutexes: the per-span deferred lists first,
// then the sender-side outbox, then the owner inboxes (the flush path
// moves batches outbox -> inbox, and nothing may hold an inbox while
// acquiring either earlier lock).

use crate::config::FreeArm;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sender-side batch size of the message-passing arm: remote frees buffer
/// locally and one handoff posts [`MSG_BATCH`] objects to the owner
/// (snmalloc posts whole batches for the same amortization).
pub const MSG_BATCH: usize = 8;

/// How [`DeferredFrees::queue_remote`] parked the object — tells the
/// caller which synchronization cost to charge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueuedVia {
    /// One contended CAS onto the owning span's deferred list.
    Cas,
    /// Buffered in the sender's local outbox; no synchronization yet.
    Buffered,
    /// The push filled a batch that was handed to the owner's inbox.
    Batched,
}

/// The deferred-free state for one allocator instance: both arms'
/// containers plus the in-flight accounting the conservation audit reads.
#[derive(Debug)]
pub struct DeferredFrees {
    arm: FreeArm,
    /// Atomic-list arm: objects parked per `(class, span id)`.
    span_lists: Mutex<BTreeMap<(u16, u32), Vec<u64>>>,
    /// Message-passing arm: sender-side partial batches, keyed
    /// `(sender vcpu, owner vcpu, class)`.
    outbox: Mutex<BTreeMap<(u32, u32, u16), Vec<u64>>>,
    /// Message-passing arm: full batches awaiting the owner, keyed
    /// `(owner vcpu, class)`.
    inboxes: Mutex<BTreeMap<(u32, u16), Vec<u64>>>,
    /// Remote frees ever queued.
    queued_total: AtomicU64,
    /// Remote frees ever drained back into the tiers.
    drained_total: AtomicU64,
    /// Objects currently parked (queued, not yet drained), per class.
    in_flight_by_class: Vec<AtomicU64>,
}

impl DeferredFrees {
    /// Empty deferred state for `classes` size classes under `arm`.
    pub fn new(arm: FreeArm, classes: usize) -> Self {
        Self {
            arm,
            span_lists: Mutex::new(BTreeMap::new()),
            outbox: Mutex::new(BTreeMap::new()),
            inboxes: Mutex::new(BTreeMap::new()),
            queued_total: AtomicU64::new(0),
            drained_total: AtomicU64::new(0),
            in_flight_by_class: (0..classes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The active free arm.
    pub fn arm(&self) -> FreeArm {
        self.arm
    }

    /// Parks a remote free issued by `sender` against a span owned by
    /// `owner`. Returns how the object was parked so the caller can charge
    /// the matching synchronization cost.
    pub fn queue_remote(
        &self,
        sender: u32,
        owner: u32,
        class: u16,
        span: u32,
        addr: u64,
    ) -> QueuedVia {
        // lint:allow(atomic-ordering) Relaxed: monotone counters guarding
        // no data; readers only need eventual totals.
        self.queued_total.fetch_add(1, Ordering::Relaxed);
        // lint:allow(atomic-ordering) Relaxed: same counter-only contract.
        self.in_flight_by_class[class as usize].fetch_add(1, Ordering::Relaxed);
        match self.arm {
            // Owner-only never routes here (the allocator short-circuits
            // remote detection), so the atomic-list path doubles as the
            // defensive default.
            FreeArm::OwnerOnly | FreeArm::AtomicList => {
                self.span_lists
                    .lock()
                    .expect("span_lists mutex poisoned")
                    .entry((class, span))
                    .or_default()
                    .push(addr);
                QueuedVia::Cas
            }
            FreeArm::MessagePassing => {
                let mut outbox = self.outbox.lock().expect("outbox mutex poisoned");
                let buf = outbox.entry((sender, owner, class)).or_default();
                buf.push(addr);
                if buf.len() >= MSG_BATCH {
                    let batch = std::mem::take(buf);
                    drop(outbox);
                    self.inboxes
                        .lock()
                        .expect("inboxes mutex poisoned")
                        .entry((owner, class))
                        .or_default()
                        .extend(batch);
                    QueuedVia::Batched
                } else {
                    QueuedVia::Buffered
                }
            }
        }
    }

    /// Drains every batch posted to `owner`'s inbox (message-passing arm;
    /// empty under the others). The per-CPU-miss drain point.
    pub fn drain_inbox(&self, owner: u32) -> Vec<(u16, Vec<u64>)> {
        if self.arm != FreeArm::MessagePassing {
            return Vec::new();
        }
        let mut inboxes = self.inboxes.lock().expect("inboxes mutex poisoned");
        let keys: Vec<(u32, u16)> = inboxes
            .range((owner, 0)..=(owner, u16::MAX))
            .map(|(k, _)| *k)
            .collect();
        let mut out = Vec::new();
        for k in keys {
            if let Some(objs) = inboxes.remove(&k) {
                self.note_drained(k.1, objs.len());
                out.push((k.1, objs));
            }
        }
        out
    }

    /// Drains everything parked for one size class — span lists under the
    /// atomic arm, posted inboxes under message passing. The central-refill
    /// drain point.
    pub fn drain_class(&self, class: u16) -> Vec<u64> {
        let mut out = Vec::new();
        match self.arm {
            FreeArm::OwnerOnly => {}
            FreeArm::AtomicList => {
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
            }
            FreeArm::MessagePassing => {
                let mut inboxes = self.inboxes.lock().expect("inboxes mutex poisoned");
                let keys: Vec<(u32, u16)> =
                    inboxes.keys().filter(|k| k.1 == class).copied().collect();
                for k in keys {
                    if let Some(objs) = inboxes.remove(&k) {
                        out.extend(objs);
                    }
                }
            }
        }
        if !out.is_empty() {
            self.note_drained(class, out.len());
        }
        out
    }

    /// Posts every partial sender-side batch to its owner's inbox,
    /// returning the number of (partial) batches handed over. A no-op
    /// outside the message-passing arm.
    pub fn flush_outbox(&self) -> usize {
        if self.arm != FreeArm::MessagePassing {
            return 0;
        }
        let pending = std::mem::take(&mut *self.outbox.lock().expect("outbox mutex poisoned"));
        if pending.is_empty() {
            return 0;
        }
        let mut inboxes = self.inboxes.lock().expect("inboxes mutex poisoned");
        let mut batches = 0;
        for ((_sender, owner, class), objs) in pending {
            if objs.is_empty() {
                continue;
            }
            batches += 1;
            inboxes.entry((owner, class)).or_default().extend(objs);
        }
        batches
    }

    /// Detaches every deferred list and posted inbox, grouped by class —
    /// the full-barrier drain of the transfer-plunder pass. Partial
    /// outboxes are NOT flushed here; callers that want a complete drain
    /// call [`flush_outbox`](Self::flush_outbox) first (and charge its
    /// batch handoffs).
    pub fn drain_all(&self) -> Vec<(u16, Vec<u64>)> {
        let mut by_class: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
        for ((class, _span), objs) in
            std::mem::take(&mut *self.span_lists.lock().expect("span_lists mutex poisoned"))
        {
            by_class.entry(class).or_default().extend(objs);
        }
        for ((_owner, class), objs) in
            std::mem::take(&mut *self.inboxes.lock().expect("inboxes mutex poisoned"))
        {
            by_class.entry(class).or_default().extend(objs);
        }
        for (class, objs) in &by_class {
            self.note_drained(*class, objs.len());
        }
        by_class.into_iter().collect()
    }

    /// Objects currently parked across all classes.
    pub fn in_flight(&self) -> u64 {
        self.in_flight_by_class
            .iter()
            // lint:allow(atomic-ordering) Relaxed: counter snapshot; the
            // simulator is single-threaded per allocator instance.
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Objects currently parked, per class (the conservation audit's
    /// `deferred` term).
    pub fn in_flight_by_class(&self) -> Vec<u64> {
        self.in_flight_by_class
            .iter()
            // lint:allow(atomic-ordering) Relaxed: same snapshot contract.
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
    fn atomic_list_parks_per_span_and_drains_per_class() {
        let d = DeferredFrees::new(FreeArm::AtomicList, 4);
        assert_eq!(d.queue_remote(1, 0, 2, 7, 0x100), QueuedVia::Cas);
        assert_eq!(d.queue_remote(1, 0, 2, 7, 0x110), QueuedVia::Cas);
        assert_eq!(d.queue_remote(2, 0, 2, 9, 0x200), QueuedVia::Cas);
        assert_eq!(d.queue_remote(1, 0, 3, 7, 0x300), QueuedVia::Cas);
        assert_eq!(d.in_flight(), 4);
        assert_eq!(d.in_flight_by_class(), vec![0, 0, 3, 1]);
        let mut drained = d.drain_class(2);
        drained.sort_unstable();
        assert_eq!(drained, vec![0x100, 0x110, 0x200]);
        assert_eq!(d.in_flight(), 1, "class 3 still parked");
        assert_eq!(d.drain_class(2), Vec::<u64>::new(), "idempotent");
        assert_eq!(d.queued_total(), 4);
        assert_eq!(d.drained_total(), 3);
    }

    #[test]
    fn message_passing_batches_before_posting() {
        let d = DeferredFrees::new(FreeArm::MessagePassing, 2);
        for i in 0..(MSG_BATCH as u64 - 1) {
            assert_eq!(
                d.queue_remote(1, 0, 1, 5, 0x1000 + i * 16),
                QueuedVia::Buffered
            );
        }
        // Nothing posted yet: the owner's inbox drain sees nothing.
        assert!(d.drain_inbox(0).is_empty());
        assert_eq!(d.in_flight(), MSG_BATCH as u64 - 1);
        // The batch-completing push hands the whole batch over.
        assert_eq!(d.queue_remote(1, 0, 1, 5, 0x2000), QueuedVia::Batched);
        let drained = d.drain_inbox(0);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, 1);
        assert_eq!(drained[0].1.len(), MSG_BATCH);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn flush_outbox_posts_partial_batches() {
        let d = DeferredFrees::new(FreeArm::MessagePassing, 2);
        d.queue_remote(1, 0, 0, 1, 0x10);
        d.queue_remote(2, 0, 0, 2, 0x20);
        d.queue_remote(1, 3, 1, 4, 0x30);
        assert!(d.drain_inbox(0).is_empty(), "partials are sender-local");
        assert_eq!(d.flush_outbox(), 3, "three (sender, owner, class) keys");
        assert_eq!(d.flush_outbox(), 0, "second flush finds nothing");
        let to_zero = d.drain_inbox(0);
        assert_eq!(to_zero.iter().map(|(_, o)| o.len()).sum::<usize>(), 2);
        let to_three = d.drain_inbox(3);
        assert_eq!(to_three, vec![(1u16, vec![0x30u64])]);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn drain_all_covers_both_arms_containers() {
        let d = DeferredFrees::new(FreeArm::AtomicList, 3);
        d.queue_remote(1, 0, 0, 1, 0x10);
        d.queue_remote(1, 0, 2, 2, 0x20);
        let all = d.drain_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, 0, "classes come out in order");
        assert_eq!(all[1].0, 2);
        assert_eq!(d.in_flight(), 0);

        let m = DeferredFrees::new(FreeArm::MessagePassing, 3);
        m.queue_remote(1, 0, 0, 1, 0x10);
        m.flush_outbox();
        assert_eq!(m.drain_all(), vec![(0u16, vec![0x10u64])]);
        assert_eq!(m.drained_total(), 1);
    }

    #[test]
    fn owner_only_drains_are_empty() {
        let d = DeferredFrees::new(FreeArm::OwnerOnly, 2);
        assert!(d.drain_inbox(0).is_empty());
        assert!(d.drain_class(0).is_empty());
        assert!(d.drain_all().is_empty());
        assert_eq!(d.flush_outbox(), 0);
        assert_eq!(d.in_flight(), 0);
    }
}
