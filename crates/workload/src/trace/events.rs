//! A trace's events, packed into 12-byte records.
//!
//! Word 0 of a record holds a 2-bit tag and a 30-bit id; words 1 and 2 hold
//! an `Alloc`'s size and `site | cpu << 16`, a `Free`'s CPU, or an
//! `Advance`'s nanoseconds. An event with a field those bits cannot hold (an
//! id of 2³⁰ or more, a size of 4 GiB or more, a site or CPU of 2¹⁶ or more
//! — only a hand-written trace has one) is kept whole in an overflow list,
//! and its record holds its index there, so every event reads back exactly
//! as it was pushed.

use super::TraceEvent;
use std::fmt;
use std::ops::Deref;

/// One event: `[tag << ID_BITS | id, word 1, word 2]`.
type Record = [u32; 3];

const _: () = assert!(std::mem::size_of::<Record>() == 12);

/// Bits of word 0 below the tag.
const ID_BITS: u32 = 30;
const ID_MASK: u32 = (1 << ID_BITS) - 1;
/// Site and CPU share an `Alloc`'s word 2, 16 bits each.
const HALF_BITS: u32 = 16;
const HALF_MASK: u32 = (1 << HALF_BITS) - 1;

const ADVANCE: u32 = 0;
const ALLOC: u32 = 1;
const FREE: u32 = 2;
/// Words 1 and 2 index [`Events::overflow`].
const OVERFLOW: u32 = 3;

/// A `u64` as words 1 and 2, low half first.
fn split(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

fn join(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// The events of a [`Trace`](super::Trace), in order, 12 bytes each.
///
/// Iterating `&Events` yields each event decoded as a [`Decoded`], which
/// dereferences to its [`TraceEvent`]: `for ev in &trace.events { match *ev
/// { … } }`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Events {
    records: Vec<Record>,
    /// The events no record can hold, in order.
    overflow: Vec<TraceEvent>,
    /// One past the largest `Alloc` id below 2³⁰; 0 if there is none.
    id_bound: u32,
}

impl Events {
    /// An empty list with room for `events` records.
    pub(crate) fn with_capacity(events: usize) -> Self {
        Events {
            records: Vec::with_capacity(events),
            ..Events::default()
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Are there no events?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// One past the largest `Alloc` id below 2³⁰ (0 if there is none): the
    /// slots a replay's id table needs for a recorded trace.
    pub(crate) fn id_bound(&self) -> usize {
        self.id_bound as usize
    }

    /// Appends `ev`.
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        let packed = match ev {
            TraceEvent::Advance { ns } => {
                let [lo, hi] = split(ns);
                Some([ADVANCE << ID_BITS, lo, hi])
            }
            TraceEvent::Alloc {
                id,
                size,
                site,
                cpu,
            } => {
                let id = u32::try_from(id).ok().filter(|&id| id <= ID_MASK);
                if let Some(id) = id {
                    self.id_bound = self.id_bound.max(id + 1);
                }
                match (id, u32::try_from(size)) {
                    (Some(id), Ok(size)) if site <= HALF_MASK && cpu <= HALF_MASK => {
                        Some([ALLOC << ID_BITS | id, size, site | cpu << HALF_BITS])
                    }
                    _ => None,
                }
            }
            TraceEvent::Free { id, cpu } => u32::try_from(id)
                .ok()
                .filter(|&id| id <= ID_MASK)
                .map(|id| [FREE << ID_BITS | id, cpu, 0]),
        };
        let record = packed.unwrap_or_else(|| {
            let [lo, hi] = split(self.overflow.len() as u64);
            self.overflow.push(ev);
            [OVERFLOW << ID_BITS, lo, hi]
        });
        self.records.push(record);
    }

    /// The events in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            records: self.records.iter(),
            overflow: &self.overflow,
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

/// One event as [`Iter`] yields it, decoded from its record.
/// Dereferences to the [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decoded(TraceEvent);

impl Deref for Decoded {
    type Target = TraceEvent;

    fn deref(&self) -> &TraceEvent {
        &self.0
    }
}

/// Iterator over [`Events`], decoding each record.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    records: std::slice::Iter<'a, Record>,
    overflow: &'a [TraceEvent],
}

impl Iterator for Iter<'_> {
    type Item = Decoded;

    #[inline]
    fn next(&mut self) -> Option<Decoded> {
        let &[head, w1, w2] = self.records.next()?;
        let id = u64::from(head & ID_MASK);
        Some(Decoded(match head >> ID_BITS {
            ADVANCE => TraceEvent::Advance { ns: join(w1, w2) },
            ALLOC => TraceEvent::Alloc {
                id,
                size: u64::from(w1),
                site: w2 & HALF_MASK,
                cpu: w2 >> HALF_BITS,
            },
            FREE => TraceEvent::Free { id, cpu: w1 },
            _ => self.overflow[join(w1, w2) as usize],
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

    /// Every field on both sides of what a record holds.
    fn edge_events() -> Vec<TraceEvent> {
        const ID: u64 = 1 << ID_BITS;
        const SIZE: u64 = 1 << 32;
        const HALF: u32 = 1 << HALF_BITS;
        let alloc = |id, size, site, cpu| TraceEvent::Alloc {
            id,
            size,
            site,
            cpu,
        };
        let mut events = Vec::new();
        for id in [0, ID - 1, ID, u64::MAX] {
            events.push(alloc(id, 64, 1, 2));
            events.push(TraceEvent::Free { id, cpu: 3 });
        }
        for size in [0, SIZE - 1, SIZE, u64::MAX] {
            events.push(alloc(7, size, 1, 2));
        }
        for half in [HALF - 1, HALF, u32::MAX] {
            events.push(alloc(8, 64, half, 0));
            events.push(alloc(9, 64, 0, half));
            events.push(TraceEvent::Free { id: 9, cpu: half });
        }
        for ns in [0, 1, u64::from(u32::MAX), 1 << 32, u64::MAX] {
            events.push(TraceEvent::Advance { ns });
        }
        events
    }

    /// Is `ev` one a record holds without the overflow list?
    fn packs(ev: TraceEvent) -> bool {
        let id_fits = |id: u64| id < 1 << ID_BITS;
        let half_fits = |v: u32| v < 1 << HALF_BITS;
        match ev {
            TraceEvent::Alloc {
                id,
                size,
                site,
                cpu,
            } => id_fits(id) && size < 1 << 32 && half_fits(site) && half_fits(cpu),
            TraceEvent::Free { id, .. } => id_fits(id),
            TraceEvent::Advance { .. } => true,
        }
    }

    #[test]
    fn every_field_edge_round_trips_through_push_and_text() {
        let want = edge_events();
        let events: Events = want.iter().copied().collect();
        let got: Vec<TraceEvent> = events.iter().map(|ev| *ev).collect();
        assert_eq!(got, want);

        // Exactly the events beyond a record's fields overflow, in order.
        let spilled: Vec<TraceEvent> = want.iter().copied().filter(|&ev| !packs(ev)).collect();
        assert_eq!(events.overflow, spilled);
        assert_eq!(spilled.len(), 10);
        assert_eq!(events.id_bound(), 1 << ID_BITS, "the largest 30-bit id");

        let trace = Trace {
            name: "edges".into(),
            events,
        };
        let parsed = Trace::from_text(&trace.to_text()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn a_recorded_trace_is_twelve_bytes_an_event_and_ids_below_its_peak() {
        // 250 000 allocations of the fleet mix, as `replay_churn` records:
        // three records each, all packed, and at most 57 858 objects live
        // at once, so no id reaches 57 858.
        let trace = Trace::record(&profiles::fleet_mix(), 250_000, 42);
        let events = &trace.events;
        assert_eq!(events.len(), 750_000);
        assert_eq!(events.records.capacity(), 750_000);
        assert_eq!(
            events.records.capacity() * size_of::<Record>(),
            750_000 * 12
        );
        assert!(events.overflow.is_empty());
        assert_eq!(events.id_bound(), 57_858);
    }

    #[test]
    fn record_reserves_exactly_its_events() {
        for (target, seed) in [(0u64, 1u64), (1, 2), (800, 3), (5_000, 42)] {
            let trace = Trace::record(&profiles::fleet_mix(), target, seed);
            let want = 3 * target as usize;
            assert_eq!(trace.events.len(), want, "{target} allocations");
            assert_eq!(
                trace.events.records.capacity(),
                want,
                "{target} allocations"
            );
            assert!(trace.events.overflow.is_empty());
        }
    }
}
