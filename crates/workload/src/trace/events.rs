//! A trace's events, packed into one stream of `u32` words.
//!
//! Word 0 of every event holds a 2-bit tag and 30 payload bits:
//! - an `Advance` of fewer than 2³⁰ ns is one word, the nanoseconds;
//! - a `Free` on a CPU below 16 of an id below 2²⁶ is one word,
//!   `cpu << 26 | id`;
//! - an `Alloc` is that word and a second, `site << 28 | size`, for a site
//!   below 16 and a size below 2²⁸ (256 MiB).
//!
//! An event with a field those bits cannot hold (only a hand-written trace
//! has one) is one overflow-tagged word and is kept whole in an overflow
//! list. Overflow events are read back in the order they were pushed, so
//! the word needs no index and every event reads back exactly, however many
//! overflow. A recorded allocation is three words, 12 bytes: its `Alloc`
//! and its `Free`; each request's `Advance` is one more. Every event is one
//! or two whole words, so decoding one needs no length chain.

use super::TraceEvent;
use std::fmt;
use std::ops::Deref;

/// Bits of word 0 below the tag.
const TAG_SHIFT: u32 = 30;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;
/// A `Free` or `Alloc` head is `cpu << ID_BITS | id`.
const ID_BITS: u32 = 26;
const ID_MASK: u32 = (1 << ID_BITS) - 1;
const CPU_LIMIT: u32 = 1 << (TAG_SHIFT - ID_BITS);
/// An `Alloc`'s second word is `site << SIZE_BITS | size`.
const SIZE_BITS: u32 = 28;
const SIZE_MASK: u32 = (1 << SIZE_BITS) - 1;
const SITE_LIMIT: u32 = 1 << (32 - SIZE_BITS);

const ADVANCE: u32 = 0;
const ALLOC: u32 = 1;
const FREE: u32 = 2;
/// The next event of [`Events::overflow`].
const OVERFLOW: u32 = 3;

/// `id_bound` counts `Alloc` ids below this.
const ID_BOUND_LIMIT: u32 = 1 << 30;

/// The events of a [`Trace`](super::Trace), in order: one or two `u32`
/// words each.
///
/// Iterating `&Events` yields each event decoded as a [`Decoded`], which
/// dereferences to its [`TraceEvent`]: `for ev in &trace.events { match *ev
/// { … } }`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Events {
    words: Vec<u32>,
    /// The events no word can hold, in order.
    overflow: Vec<TraceEvent>,
    /// Number of events.
    len: usize,
    /// One past the largest `Alloc` id below 2³⁰; 0 if there is none.
    id_bound: u32,
}

impl Events {
    /// An empty list with room for `words` words; `None` if they cannot
    /// be reserved.
    pub(crate) fn with_words(words: u64) -> Option<Self> {
        let mut events = Events::default();
        let words = usize::try_from(words).ok()?;
        events.words.try_reserve_exact(words).ok()?;
        Some(events)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Are there no events?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the largest `Alloc` id below 2³⁰ (0 if there is none): the
    /// slots a replay's id table needs for a recorded trace.
    pub(crate) fn id_bound(&self) -> usize {
        self.id_bound as usize
    }

    /// Appends `ev`.
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        // `cpu << ID_BITS | id`, if both fit.
        let head = |id: u64, cpu: u32| {
            u32::try_from(id)
                .ok()
                .filter(|&id| id <= ID_MASK && cpu < CPU_LIMIT)
                .map(|id| cpu << ID_BITS | id)
        };
        let packed = match ev {
            TraceEvent::Advance { ns } => u32::try_from(ns)
                .ok()
                .filter(|&ns| ns <= PAYLOAD_MASK)
                .map(|ns| (ADVANCE << TAG_SHIFT | ns, None)),
            TraceEvent::Free { id, cpu } => head(id, cpu).map(|h| (FREE << TAG_SHIFT | h, None)),
            TraceEvent::Alloc {
                id,
                size,
                site,
                cpu,
            } => {
                if let Some(id) = u32::try_from(id).ok().filter(|&id| id < ID_BOUND_LIMIT) {
                    self.id_bound = self.id_bound.max(id + 1);
                }
                let second = u32::try_from(size)
                    .ok()
                    .filter(|&size| size <= SIZE_MASK && site < SITE_LIMIT)
                    .map(|size| site << SIZE_BITS | size);
                head(id, cpu)
                    .zip(second)
                    .map(|(h, second)| (ALLOC << TAG_SHIFT | h, Some(second)))
            }
        };
        match packed {
            Some((head, second)) => {
                self.words.push(head);
                self.words.extend(second);
            }
            None => {
                self.words.push(OVERFLOW << TAG_SHIFT);
                self.overflow.push(ev);
            }
        }
        self.len += 1;
    }

    /// Appends `ev` if room for it can be reserved; `false`, and nothing
    /// appended, if not.
    pub(crate) fn try_push(&mut self, ev: TraceEvent) -> bool {
        let words = if matches!(ev, TraceEvent::Alloc { .. }) {
            2
        } else {
            1
        };
        let room = self.words.try_reserve(words).is_ok() && self.overflow.try_reserve(1).is_ok();
        if room {
            self.push(ev);
        }
        room
    }

    /// The events in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            overflow: self.overflow.iter(),
        }
    }
}

impl fmt::Debug for Events {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|ev| *ev)).finish()
    }
}

impl FromIterator<TraceEvent> for Events {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut events = Events::default();
        for ev in iter {
            events.push(ev);
        }
        events
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = Decoded;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// One event as [`Iter`] yields it, decoded from its words.
/// Dereferences to the [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decoded(TraceEvent);

impl Deref for Decoded {
    type Target = TraceEvent;

    fn deref(&self) -> &TraceEvent {
        &self.0
    }
}

/// Iterator over [`Events`], decoding each event's words.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    words: &'a [u32],
    overflow: std::slice::Iter<'a, TraceEvent>,
}

impl Iterator for Iter<'_> {
    type Item = Decoded;

    #[inline]
    fn next(&mut self) -> Option<Decoded> {
        let (&head, rest) = self.words.split_first()?;
        self.words = rest;
        let payload = head & PAYLOAD_MASK;
        let id = u64::from(payload & ID_MASK);
        let cpu = payload >> ID_BITS;
        Some(Decoded(match head >> TAG_SHIFT {
            ADVANCE => TraceEvent::Advance {
                ns: u64::from(payload),
            },
            FREE => TraceEvent::Free { id, cpu },
            ALLOC => {
                // `push` writes an `Alloc`'s two words together.
                let (&second, rest) = self.words.split_first()?;
                self.words = rest;
                TraceEvent::Alloc {
                    id,
                    size: u64::from(second & SIZE_MASK),
                    site: second >> SIZE_BITS,
                    cpu,
                }
            }
            _ => *self.overflow.next()?,
        }))
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::profiles;
    use crate::trace::Trace;

    const ID: u64 = 1 << ID_BITS;
    const SIZE: u64 = 1 << SIZE_BITS;
    const CPU: u32 = CPU_LIMIT;
    const SITE: u32 = SITE_LIMIT;
    const NS: u64 = 1 << TAG_SHIFT;

    fn alloc(id: u64, size: u64, site: u32, cpu: u32) -> TraceEvent {
        TraceEvent::Alloc {
            id,
            size,
            site,
            cpu,
        }
    }

    /// Every field on both sides of what the words hold, each event with
    /// whether it overflows.
    fn edge_events() -> Vec<(TraceEvent, bool)> {
        let mut events = Vec::new();
        for (id, wide) in [
            (0, false),
            (ID - 1, false),
            (ID, true),
            (NS - 1, true),
            (NS, true),
            (u64::MAX, true),
        ] {
            events.push((alloc(id, 64, 1, 2), wide));
            events.push((TraceEvent::Free { id, cpu: 3 }, wide));
        }
        for (size, wide) in [
            (0, false),
            (SIZE - 1, false),
            (SIZE, true),
            (1 << 32, true),
            (u64::MAX, true),
        ] {
            events.push((alloc(7, size, 1, 2), wide));
        }
        for (cpu, wide) in [(CPU - 1, false), (CPU, true), (u32::MAX, true)] {
            events.push((alloc(9, 64, 0, cpu), wide));
            events.push((TraceEvent::Free { id: 9, cpu }, wide));
        }
        for (site, wide) in [(SITE - 1, false), (SITE, true), (u32::MAX, true)] {
            events.push((alloc(8, 64, site, 0), wide));
        }
        // The widest packed events: every field at its largest.
        events.push((alloc(ID - 1, SIZE - 1, SITE - 1, CPU - 1), false));
        events.push((
            TraceEvent::Free {
                id: ID - 1,
                cpu: CPU - 1,
            },
            false,
        ));
        for (ns, wide) in [
            (0, false),
            (1, false),
            (NS - 1, false),
            (NS, true),
            (u64::from(u32::MAX), true),
            (u64::MAX, true),
        ] {
            events.push((TraceEvent::Advance { ns }, wide));
        }
        events
    }

    #[test]
    fn every_field_edge_round_trips_through_push_and_text() {
        let edges = edge_events();
        let want: Vec<TraceEvent> = edges.iter().map(|&(ev, _)| ev).collect();
        let events: Events = want.iter().copied().collect();
        let got: Vec<TraceEvent> = events.iter().map(|ev| *ev).collect();
        assert_eq!(got, want);
        assert_eq!(events.len(), want.len());

        // Exactly the events beyond the words' fields overflow, in order,
        // one word each; a packed `Alloc` is two words, the rest one.
        let spilled: Vec<TraceEvent> = edges
            .iter()
            .filter(|&&(_, wide)| wide)
            .map(|&(ev, _)| ev)
            .collect();
        assert_eq!(events.overflow, spilled);
        assert_eq!(spilled.len(), 20);
        let packed_allocs = edges
            .iter()
            .filter(|&&(ev, wide)| !wide && matches!(ev, TraceEvent::Alloc { .. }))
            .count();
        assert_eq!(events.words.len(), want.len() + packed_allocs);
        assert_eq!(events.id_bound(), 1 << 30, "the largest id below 2³⁰");

        let trace = Trace {
            name: "edges".into(),
            events,
        };
        let parsed = Trace::from_text(&trace.to_text()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn overflow_events_read_back_in_order_however_many_there_are() {
        // More overflow events than any 30-bit field would count would take
        // gigabytes; the order is what the word relies on, so interleave
        // many wide events of every kind with packed ones.
        let want: Vec<TraceEvent> = (0..3_000u64)
            .map(|i| match i % 6 {
                0 => alloc(ID + i, 64, 1, 2),
                1 => alloc(i, SIZE + i, 1, 2),
                2 => TraceEvent::Free { id: i, cpu: CPU },
                3 => TraceEvent::Advance { ns: NS + i },
                4 => alloc(i, 64, 1, 2),
                _ => TraceEvent::Free { id: i, cpu: 1 },
            })
            .collect();
        let events: Events = want.iter().copied().collect();
        assert_eq!(events.overflow.len(), 2_000);
        let got: Vec<TraceEvent> = events.iter().map(|ev| *ev).collect();
        assert_eq!(got, want);
    }

    /// The `Advance`s of `events`: one per recorded request.
    fn advances(events: &Events) -> usize {
        events
            .iter()
            .filter(|ev| matches!(**ev, TraceEvent::Advance { .. }))
            .count()
    }

    #[test]
    fn a_recorded_allocation_is_at_most_four_words_and_ids_stay_below_its_peak() {
        // 250 000 allocations of the fleet mix, as `replay_churn` records:
        // 12 500 requests of 20, each allocation freed once, all packed, in
        // 3.05 words an allocation, exactly the words reserved; at most
        // 81 029 objects live at once, so no id reaches 81 029.
        let trace = Trace::record(&profiles::fleet_mix(), 250_000, 42);
        let events = &trace.events;
        assert_eq!(advances(events), 12_500, "one advance a request");
        assert_eq!(events.len(), 2 * 250_000 + 12_500);
        assert_eq!(events.words.len(), 3 * 250_000 + 12_500);
        assert_eq!(events.words.capacity(), events.words.len());
        assert!(events.overflow.is_empty());
        assert_eq!(events.id_bound(), 81_029);
    }

    #[test]
    fn record_stays_within_its_reservation() {
        // The fleet mix makes 20 allocations a request, so `n` of them are
        // `n / 20` requests, rounded up, each with one `Advance`: the words
        // reserved, exactly.
        for (target, seed) in [(0u64, 1u64), (1, 2), (800, 3), (5_000, 42)] {
            let trace = Trace::record(&profiles::fleet_mix(), target, seed);
            let (events, at) = (&trace.events, format!("{target} allocations"));
            let requests = target.div_ceil(20) as usize;
            let n = target as usize;
            assert_eq!(advances(events), requests, "{at}");
            assert_eq!(events.len(), 2 * n + requests, "{at}");
            assert_eq!(events.words.len(), 3 * n + requests, "{at}");
            assert_eq!(events.words.capacity(), 3 * n + requests, "{at}");
            assert!(events.overflow.is_empty(), "{at}");
        }
    }

    #[test]
    fn an_impossible_reservation_is_refused_not_attempted() {
        assert!(Events::with_words(u64::MAX).is_none());
        assert!(Events::with_words(u64::MAX / 4 + 1).is_none());
        // Three words an allocation overflow `u64`; 5.5 (0.4 allocations a
        // request) fit it, but not the address space.
        let huge = Trace::try_record(&profiles::fleet_mix(), u64::MAX / 3 + 1, 1);
        assert!(huge.is_err());
        assert!(Trace::try_record(&profiles::spec_cpu(0), u64::MAX / 8, 1).is_err());
    }

    #[test]
    fn a_spec_that_allocates_less_than_once_a_request_outgrows_its_reservation() {
        // `spec-mcf` allocates 0.4 times a request, so its list is reserved
        // for 5.5 words an allocation and grows when the draws run long.
        let spec = profiles::spec_cpu(0);
        let trace = Trace::record(&spec, 1_000, 1);
        let requests = advances(&trace.events);
        assert!(requests > 1_000, "{requests} requests");
        assert_eq!(trace.events.words.len(), 3 * 1_000 + requests);
        assert_eq!(Trace::try_record(&spec, 1_000, 1), Ok(trace));
    }
}
