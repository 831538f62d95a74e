//! Pending frees, popped in `(deadline, slot)` order.
//!
//! The workload generator (behind both the request driver and the trace
//! recorder) schedules every object's free at `now + lifetime` and, as
//! simulated time advances, pops everything that has come due. Deadlines
//! are never behind the clock and the clock never runs backwards, so the
//! queue is monotone: a calendar of fixed-width buckets covers the near
//! horizon, only the bucket the clock has reached is ever sorted, and a
//! binary heap holds what lies beyond the ring. A push links one slab
//! entry into its bucket; a pop takes the back of the sorted current
//! bucket.

use crate::generator::Slot;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A bucket spans `2^15` ns ≈ 33 µs of simulated time: a request or two of
/// the profiles' arrival rates, so a bucket sorts a few dozen entries.
const BUCKET_SHIFT: u32 = 15;

/// Buckets in the ring: a horizon of `RING << BUCKET_SHIFT` ≈ 134 ms, which
/// most lifetimes that end within a run fall inside.
const RING: u64 = 4096;

/// Slab link meaning "no entry"; links are 1-based slab positions.
const NIL: u32 = 0;

/// A ring-bucket link.
#[derive(Clone, Copy, Debug)]
struct Entry {
    deadline: u64,
    item: Slot,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// A priority queue of `(deadline, slot)` that pops in ascending
/// `(deadline, slot)` order whatever the pushes — and does so in constant
/// time per item when deadlines are pushed at or ahead of a clock that the
/// `now` of successive [`pop_due`](Self::pop_due) calls follows.
///
/// Memory follows the number of pending items: one slab entry each, plus a
/// ring of bucket heads allocated on the first push that needs it.
#[derive(Clone, Debug, Default)]
pub(crate) struct DueQueue {
    /// Number (`deadline >> BUCKET_SHIFT`) of the current bucket. Everything
    /// due in it or before it is in `current`; bucket `b` of the ring holds
    /// `cur < b < cur + RING`; `far` holds the rest.
    cur: u64,
    /// The current bucket, descending: the back is the next to pop.
    current: Vec<(u64, Slot)>,
    /// `heads[b % RING]`: the first slab entry of ring bucket `b`.
    heads: Vec<u32>,
    slab: Vec<Entry>,
    /// First free slab entry, chained through `next`; `NIL` (the default)
    /// if none.
    free: u32,
    /// Entries linked into ring buckets.
    ring_len: usize,
    far: BinaryHeap<Reverse<(u64, Slot)>>,
}

impl DueQueue {
    /// This queue emptied, keeping the storage of its current bucket, ring,
    /// slab and far heap: it pops exactly as a [`default`](Self::default)
    /// queue does. The ring's heads are reset in place rather than dropped.
    pub(crate) fn renew(mut self) -> Self {
        self.current.clear();
        self.heads.fill(NIL);
        self.slab.clear();
        self.far.clear();
        Self {
            current: self.current,
            heads: self.heads,
            slab: self.slab,
            far: self.far,
            ..Self::default()
        }
    }

    /// Schedules `item` for `deadline`.
    pub(crate) fn push(&mut self, deadline: u64, item: Slot) {
        let bucket = deadline >> BUCKET_SHIFT;
        if bucket <= self.cur {
            // The bucket being drained (a lifetime shorter than a bucket):
            // keep it sorted.
            let at = self.current.partition_point(|&e| e > (deadline, item));
            self.current.insert(at, (deadline, item));
        } else if bucket - self.cur < RING {
            self.link(bucket, deadline, item);
        } else {
            self.far.push(Reverse((deadline, item)));
        }
    }

    /// Pops the least `(deadline, item)` if its deadline is at or before
    /// `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, Slot)> {
        loop {
            if let Some(&(deadline, _)) = self.current.last() {
                return if deadline <= now {
                    self.current.pop()
                } else {
                    None
                };
            }
            // Everything still pending lies in a later bucket.
            let target = now >> BUCKET_SHIFT;
            if self.cur >= target {
                return None;
            }
            self.advance(target);
        }
    }

    /// Moves the (drained) current bucket one step towards `target` — or,
    /// with nothing in the ring to step over, straight to the first bucket
    /// that holds anything — and loads it.
    fn advance(&mut self, target: u64) {
        self.cur = if self.ring_len > 0 {
            self.cur + 1
        } else {
            self.far
                .peek()
                .map_or(target, |&Reverse((d, _))| target.min(d >> BUCKET_SHIFT))
        };
        // The ring's far edge moved: pull in what it now covers. Nothing in
        // `far` is before `cur` (it was beyond the ring when pushed).
        while let Some(&Reverse((deadline, item))) = self.far.peek() {
            let bucket = deadline >> BUCKET_SHIFT;
            if bucket - self.cur >= RING {
                break;
            }
            self.far.pop();
            if bucket == self.cur {
                self.current.push((deadline, item));
            } else {
                self.link(bucket, deadline, item);
            }
        }
        if let Some(head) = self.heads.get_mut((self.cur % RING) as usize) {
            let mut at = std::mem::replace(head, NIL);
            while at != NIL {
                let entry = &mut self.slab[at as usize - 1];
                self.current.push((entry.deadline, entry.item));
                let next = std::mem::replace(&mut entry.next, self.free);
                self.free = at;
                self.ring_len -= 1;
                at = next;
            }
        }
        self.current.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Links `(deadline, item)` into ring bucket `bucket`, which lies in
    /// `(cur, cur + RING)`.
    fn link(&mut self, bucket: u64, deadline: u64, item: Slot) {
        if self.heads.is_empty() {
            self.heads = vec![NIL; RING as usize];
        }
        // In bounds: `heads.len() == RING`.
        let head = &mut self.heads[(bucket % RING) as usize];
        let entry = Entry {
            deadline,
            item,
            next: *head,
        };
        *head = if self.free != NIL {
            let at = self.free;
            // In bounds: free links are positions of entries pushed earlier.
            let slot = &mut self.slab[at as usize - 1];
            self.free = slot.next;
            *slot = entry;
            at
        } else {
            self.slab.push(entry);
            u32::try_from(self.slab.len()).expect("fewer than 2^32 pending frees")
        };
        self.ring_len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_prng::SmallRng;

    /// The retired queue, kept as the oracle.
    type Oracle = BinaryHeap<Reverse<(u64, Slot)>>;

    impl DueQueue {
        fn len(&self) -> usize {
            self.current.len() + self.ring_len + self.far.len()
        }
    }

    const WIDTH: u64 = 1 << BUCKET_SHIFT;
    const HORIZON: u64 = RING << BUCKET_SHIFT;

    /// Both queues in lockstep.
    #[derive(Default)]
    struct Both {
        due: DueQueue,
        heap: Oracle,
        popped: usize,
    }

    impl Both {
        fn push(&mut self, deadline: u64, slot: Slot) {
            self.due.push(deadline, slot);
            self.heap.push(Reverse((deadline, slot)));
            assert_eq!(self.due.len(), self.heap.len());
        }

        /// Pops everything due at `now` from both; returns the slots.
        fn drain(&mut self, now: u64) -> Vec<Slot> {
            let mut slots = Vec::new();
            loop {
                let want = match self.heap.peek() {
                    Some(&Reverse((d, slot))) if d <= now => {
                        self.heap.pop();
                        Some((d, slot))
                    }
                    _ => None,
                };
                assert_eq!(self.due.pop_due(now), want, "pop {} at {now}", self.popped);
                assert_eq!(self.due.len(), self.heap.len());
                match want {
                    Some((_, slot)) => slots.push(slot),
                    None => return slots,
                }
                self.popped += 1;
            }
        }
    }

    /// A lifetime from the shapes the driver produces: zero, shorter than a
    /// bucket, exactly on bucket boundaries, around the ring's horizon, and
    /// far beyond it.
    fn lifetime(rng: &mut SmallRng, now: u64) -> u64 {
        match rng.gen_range(0..10u32) {
            0 => 0,
            1 => rng.gen_range(0..WIDTH),
            2 => rng.gen_range(0..4u64) * WIDTH,
            // Onto a bucket boundary, or one short of it.
            3 => (now / WIDTH + rng.gen_range(1..40u64)) * WIDTH - now - rng.gen_range(0..2u64),
            4 => HORIZON - rng.gen_range(0..3u64) * WIDTH,
            5 => HORIZON + rng.gen_range(0..2 * HORIZON),
            6 => u64::MAX / 2 - now,
            _ => (rng.gen::<f64>() * 22.0).exp2() as u64,
        }
    }

    #[test]
    fn pops_in_heap_order_under_driver_shaped_traffic() {
        for case in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(0xd0e_0000 + case);
            let mut both = Both::default();
            // The driver's slot allocator: freed slots are reused, so a
            // later push can carry a smaller slot than one already popped
            // at the same deadline.
            let mut free_slots: Vec<Slot> = Vec::new();
            let mut next_slot: Slot = 0;
            let mut now = 0u64;
            for _ in 0..4_000 {
                free_slots.extend(both.drain(now));
                for _ in 0..rng.gen_range(0..12u32) {
                    let slot = free_slots.pop().unwrap_or_else(|| {
                        next_slot += 1;
                        next_slot - 1
                    });
                    let lt = lifetime(&mut rng, now);
                    both.push(now + lt, slot);
                }
                now += match rng.gen_range(0..100u32) {
                    0 => rng.gen_range(0..3 * HORIZON),       // across the whole ring
                    1..=5 => rng.gen_range(0..5_000 * WIDTH), // thousands of empty buckets
                    6..=20 => 0,
                    _ => rng.gen_range(1..3 * WIDTH),
                };
            }
            // Drain to empty (the far-future deadlines included), then reuse.
            both.drain(u64::MAX);
            assert_eq!(both.due.len(), 0);
            for k in 0..200 {
                both.push(now + lifetime(&mut rng, now), k);
            }
            both.drain(now + HORIZON);
            both.drain(u64::MAX);
            assert!(both.popped > 10_000, "case {case}: {}", both.popped);
        }
    }

    #[test]
    fn equal_deadlines_pop_by_slot_even_when_pushed_descending() {
        let mut both = Both::default();
        // Into a ring bucket, into the far heap, and into the bucket being
        // drained: slots arrive descending, pops must ascend.
        for deadline in [5 * WIDTH + 7, 3 * HORIZON, 0] {
            for slot in (0..50).rev() {
                both.push(deadline, slot);
            }
        }
        assert_eq!(both.drain(0), (0..50).collect::<Vec<_>>());
        // A freed slot comes back at the deadline it was just popped at.
        both.push(0, 3);
        both.push(0, 1);
        assert_eq!(both.drain(0), [1, 3]);
        assert_eq!(both.drain(5 * WIDTH + 6), []);
        assert_eq!(both.drain(5 * WIDTH + 7), (0..50).collect::<Vec<_>>());
        assert_eq!(both.drain(u64::MAX), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bucket_boundaries_and_the_horizon() {
        let mut both = Both::default();
        let edges = [
            WIDTH - 1,
            WIDTH,
            WIDTH + 1,
            HORIZON - 1,
            HORIZON,
            HORIZON + WIDTH - 1,
            HORIZON + WIDTH,
            u64::MAX / 2,
        ];
        for (slot, &deadline) in (0..).zip(&edges) {
            both.push(deadline, slot);
        }
        for &now in &edges {
            both.drain(now - 1);
            assert_eq!(both.drain(now).len(), 1, "exactly the item due at {now}");
        }
        assert_eq!(both.due.len(), 0);
    }

    #[test]
    fn a_clock_that_steps_back_pops_nothing_early() {
        // Not something the driver does, but the order must not depend on it.
        let mut both = Both::default();
        both.push(10 * WIDTH, 0);
        both.drain(20 * WIDTH);
        both.push(3 * WIDTH, 1); // behind the current bucket
        both.push(25 * WIDTH, 2);
        assert_eq!(both.drain(2 * WIDTH), []);
        assert_eq!(both.drain(4 * WIDTH), [1]);
        assert_eq!(both.drain(30 * WIDTH), [2]);
    }

    #[test]
    fn footprint_follows_the_pending_items() {
        let mut due = DueQueue::default();
        assert_eq!(
            due.heads.capacity() + due.slab.capacity(),
            0,
            "nothing before a push"
        );
        // A steady population of 100 items over a long run: the slab stops
        // growing once it has held the peak.
        let mut now = 0u64;
        for k in 0..50_000 {
            due.push(now + u64::from(k % 100) * WIDTH / 2, k);
            now += WIDTH / 2;
            while due.pop_due(now).is_some() {}
        }
        assert!(due.len() <= 100);
        assert!(due.slab.len() <= 128, "slab {} entries", due.slab.len());
    }
}
