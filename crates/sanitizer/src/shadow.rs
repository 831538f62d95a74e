//! The shadow heap: an independent mirror of the simulated address space.
//!
//! The shadow tracks two granularities, exactly as the issue of trusting
//! allocator metadata demands:
//!
//! * **8 KiB pages** — which span (id, class, extent) covers each TCMalloc
//!   page, learned only from the spans the event stream announces
//!   ([`ShadowState::map_span`] on `SpanAlloc`, [`ShadowState::forget_span`]
//!   on `SpanRetire`) and never read out of the allocator's pagemap, so
//!   pagemap corruption is observable.
//! * **Objects** — every address handed to the application, with its size
//!   and the class and id of the announced span it landed on, plus a
//!   tombstone for every address the application has returned.
//!
//! The moment-of-operation checks classify a bad free precisely: a
//! tombstoned address is a [`ErrorKind::DoubleFree`]; an interior pointer
//! into a live object is a [`ErrorKind::MisalignedFree`]; an aligned but
//! never-handed-out slot inside a mapped span is an
//! [`ErrorKind::InvalidFree`]; an address no span covers is a
//! [`ErrorKind::UseOfUnmappedAddress`]; a sized free with the wrong class
//! is a [`ErrorKind::WrongSizeClassFree`]. Allocations are checked for
//! overlap against every live object and for lying inside one announced
//! span; an object on no announced span is a
//! [`ErrorKind::UseOfUnmappedAddress`] and is not recorded.
//!
//! Tombstones persist after their span is released: the application freeing
//! an address it no longer owns is a double free regardless of what the
//! allocator has since done with the range. A tombstone is cleared only
//! when the allocator legitimately re-hands out that exact address.

use crate::report::{ErrorKind, SanitizerReport, Tier};
use std::collections::BTreeMap;
use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;

/// Shadow record of one live (or tombstoned) object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectShadow {
    /// Reserved bytes (class size, or the page-rounded large size).
    pub size: u64,
    /// Size class, `None` for large allocations.
    pub size_class: Option<u16>,
    /// Owning span id at allocation time.
    pub span: u32,
}

/// Shadow record of one mapped span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SpanShadow {
    span: u32,
    pages: u32,
    size_class: Option<u16>,
}

/// Outcome of a shadow free check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FreeCheck {
    /// The free is valid; the object was moved to the tombstone set.
    Ok(ObjectShadow),
    /// The free is invalid; a report was recorded and the caller must not
    /// mutate allocator state for it.
    Rejected(ErrorKind),
}

/// The shadow heap.
#[derive(Clone, Debug, Default)]
pub struct ShadowState {
    /// Span start address → extent. Spans never overlap, so ordering by
    /// start gives O(log n) point containment.
    spans: BTreeMap<u64, SpanShadow>,
    /// Live objects by address.
    live: BTreeMap<u64, ObjectShadow>,
    /// Tombstones: addresses the application freed and was not re-given.
    freed: BTreeMap<u64, ObjectShadow>,
    reports: Vec<SanitizerReport>,
}

impl ShadowState {
    /// Creates an empty shadow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live shadow objects of one class (`None` = large allocations).
    pub fn live_count_by_class(&self, class: Option<u16>) -> u64 {
        self.live.values().filter(|o| o.size_class == class).count() as u64
    }

    /// Iterates live objects in address order.
    pub fn live_objects(&self) -> impl Iterator<Item = (u64, &ObjectShadow)> {
        self.live.iter().map(|(a, o)| (*a, o))
    }

    /// Reports recorded so far.
    pub fn reports(&self) -> &[SanitizerReport] {
        &self.reports
    }

    /// Drains the recorded reports.
    pub fn take_reports(&mut self) -> Vec<SanitizerReport> {
        std::mem::take(&mut self.reports)
    }

    fn report(
        &mut self,
        kind: ErrorKind,
        addr: u64,
        class: Option<u16>,
        span: Option<u32>,
        detail: String,
    ) {
        self.reports.push(SanitizerReport {
            kind,
            tier: Tier::Shadow,
            addr: Some(addr),
            size_class: class,
            span,
            detail,
        });
    }

    /// The shadow span covering `addr`, if any.
    fn span_at(&self, addr: u64) -> Option<(u64, SpanShadow)> {
        let (&start, s) = self.spans.range(..=addr).next_back()?;
        (addr < start + s.pages as u64 * TCMALLOC_PAGE_BYTES).then_some((start, *s))
    }

    /// Maps a span the allocator announced (`SpanAlloc`). Any span the
    /// new extent overlaps must be gone: it is forgotten first, which
    /// reports objects still live on it.
    pub fn map_span(&mut self, span: u32, start: u64, pages: u32, class: Option<u16>) {
        let end = start + pages as u64 * TCMALLOC_PAGE_BYTES;
        let covering = self.span_at(start).map(|(s, _)| s);
        let inside: Vec<u64> = self.spans.range(start..end).map(|(&s, _)| s).collect();
        for s in covering.into_iter().chain(inside) {
            self.forget_span(s);
        }
        self.spans.insert(
            start,
            SpanShadow {
                span,
                pages,
                size_class: class,
            },
        );
    }

    /// Forgets a span (it was released to the pageheap). Live objects
    /// still inside it are leaked spans — reported.
    pub fn forget_span(&mut self, start: u64) {
        let Some(s) = self.spans.remove(&start) else {
            return;
        };
        let end = start + s.pages as u64 * TCMALLOC_PAGE_BYTES;
        let leaked: Vec<(u64, ObjectShadow)> =
            self.live.range(start..end).map(|(&a, o)| (a, *o)).collect();
        for (a, o) in leaked {
            self.live.remove(&a);
            self.report(
                ErrorKind::ObjectConservationViolation,
                a,
                o.size_class,
                Some(s.span),
                format!("span at {start:#x} released with live object at {a:#x}"),
            );
        }
    }

    /// Records an allocation the allocator just performed, checking it
    /// against the shadow. Class and span id come from the announced span
    /// the object lies in.
    pub fn record_alloc(&mut self, addr: u64, size: u64) {
        let Some((start, s)) = self.span_at(addr) else {
            self.report(
                ErrorKind::UseOfUnmappedAddress,
                addr,
                None,
                None,
                format!("allocation of {size} bytes on no announced span"),
            );
            return;
        };
        let (class, span) = (s.size_class, s.span);
        if addr + size > start + s.pages as u64 * TCMALLOC_PAGE_BYTES {
            self.report(
                ErrorKind::UseOfUnmappedAddress,
                addr,
                class,
                Some(span),
                format!("allocation of {size} bytes extends past its span at {start:#x}"),
            );
        }
        // Overlap: the nearest live object at or below addr must end before
        // addr, and the next one must start at or after addr + size.
        if let Some((&prev_addr, prev)) = self.live.range(..=addr).next_back() {
            if prev_addr + prev.size > addr {
                self.report(
                    ErrorKind::OverlappingAllocation,
                    addr,
                    class,
                    Some(span),
                    format!(
                        "new object [{addr:#x}, +{size}) overlaps live object at {prev_addr:#x} (+{})",
                        prev.size
                    ),
                );
            }
        }
        if let Some((&next_addr, _)) = self.live.range(addr + 1..).next() {
            if next_addr < addr + size {
                self.report(
                    ErrorKind::OverlappingAllocation,
                    addr,
                    class,
                    Some(span),
                    format!(
                        "new object [{addr:#x}, +{size}) overlaps live object at {next_addr:#x}"
                    ),
                );
            }
        }
        self.freed.remove(&addr);
        self.live.insert(
            addr,
            ObjectShadow {
                size,
                size_class: class,
                span,
            },
        );
    }

    /// Checks a free against the shadow. On `Ok` the object has been moved
    /// to the tombstone set; on `Rejected` a report was recorded and the
    /// allocator must skip the operation.
    pub fn check_free(&mut self, addr: u64, expected_class: Option<u16>) -> FreeCheck {
        if let Some(obj) = self.live.get(&addr).copied() {
            if obj.size_class != expected_class {
                self.report(
                    ErrorKind::WrongSizeClassFree,
                    addr,
                    obj.size_class,
                    Some(obj.span),
                    format!(
                        "freed with class {expected_class:?} but allocated as {:?}",
                        obj.size_class
                    ),
                );
                return FreeCheck::Rejected(ErrorKind::WrongSizeClassFree);
            }
            self.live.remove(&addr);
            self.freed.insert(addr, obj);
            return FreeCheck::Ok(obj);
        }
        if let Some(obj) = self.freed.get(&addr).copied() {
            self.report(
                ErrorKind::DoubleFree,
                addr,
                obj.size_class,
                Some(obj.span),
                "address already freed and not re-allocated since".into(),
            );
            return FreeCheck::Rejected(ErrorKind::DoubleFree);
        }
        // Interior pointer into a live object?
        if let Some((&base, obj)) = self.live.range(..=addr).next_back() {
            if addr < base + obj.size {
                self.report(
                    ErrorKind::MisalignedFree,
                    addr,
                    obj.size_class,
                    Some(obj.span),
                    format!(
                        "interior pointer into live object at {base:#x} (+{})",
                        obj.size
                    ),
                );
                return FreeCheck::Rejected(ErrorKind::MisalignedFree);
            }
        }
        match self.span_at(addr) {
            Some((start, s)) => {
                self.report(
                    ErrorKind::InvalidFree,
                    addr,
                    s.size_class,
                    Some(s.span),
                    format!("address inside span at {start:#x} was never allocated"),
                );
                FreeCheck::Rejected(ErrorKind::InvalidFree)
            }
            None => {
                self.report(
                    ErrorKind::UseOfUnmappedAddress,
                    addr,
                    None,
                    None,
                    "free of an address no span covers".into(),
                );
                FreeCheck::Rejected(ErrorKind::UseOfUnmappedAddress)
            }
        }
    }

    /// Every announced span as `(start, pages, class)`, in address order —
    /// the audit compares this set with the allocator's live spans.
    pub fn spans(&self) -> impl Iterator<Item = (u64, u32, Option<u16>)> + '_ {
        self.spans
            .iter()
            .map(|(&start, s)| (start, s.pages, s.size_class))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const PG: u64 = TCMALLOC_PAGE_BYTES;

    fn shadow_with_span() -> ShadowState {
        let mut sh = ShadowState::new();
        // Span 1: two pages at 0x10000, class 3, 64-byte objects.
        sh.map_span(1, 0x10000, 2, Some(3));
        sh.record_alloc(0x10000, 64);
        sh
    }

    #[test]
    fn valid_free_roundtrip() {
        let mut sh = shadow_with_span();
        assert!(matches!(sh.check_free(0x10000, Some(3)), FreeCheck::Ok(_)));
        assert!(sh.reports().is_empty());
        assert_eq!(sh.live.len(), 0);
    }

    #[test]
    fn double_free_detected() {
        let mut sh = shadow_with_span();
        let _ = sh.check_free(0x10000, Some(3));
        let r = sh.check_free(0x10000, Some(3));
        assert_eq!(r, FreeCheck::Rejected(ErrorKind::DoubleFree));
        assert_eq!(sh.reports()[0].kind, ErrorKind::DoubleFree);
        assert_eq!(sh.reports()[0].addr, Some(0x10000));
    }

    #[test]
    fn realloc_clears_tombstone() {
        let mut sh = shadow_with_span();
        let _ = sh.check_free(0x10000, Some(3));
        sh.record_alloc(0x10000, 64);
        assert!(matches!(sh.check_free(0x10000, Some(3)), FreeCheck::Ok(_)));
        assert!(sh.reports().is_empty());
    }

    #[test]
    fn misaligned_free_detected() {
        let mut sh = shadow_with_span();
        let r = sh.check_free(0x10000 + 8, Some(3));
        assert_eq!(r, FreeCheck::Rejected(ErrorKind::MisalignedFree));
    }

    #[test]
    fn invalid_free_detected() {
        let mut sh = shadow_with_span();
        // Aligned slot inside the span, never handed out.
        let r = sh.check_free(0x10000 + 64, Some(3));
        assert_eq!(r, FreeCheck::Rejected(ErrorKind::InvalidFree));
    }

    #[test]
    fn unmapped_free_detected() {
        let mut sh = shadow_with_span();
        let r = sh.check_free(0xdead_0000, None);
        assert_eq!(r, FreeCheck::Rejected(ErrorKind::UseOfUnmappedAddress));
    }

    #[test]
    fn wrong_class_free_detected() {
        let mut sh = shadow_with_span();
        let r = sh.check_free(0x10000, Some(9));
        assert_eq!(r, FreeCheck::Rejected(ErrorKind::WrongSizeClassFree));
        // The object stays live: the free was rejected.
        assert_eq!(sh.live.len(), 1);
    }

    #[test]
    fn overlapping_allocation_detected() {
        let mut sh = shadow_with_span();
        sh.record_alloc(0x10000 + 32, 64);
        assert_eq!(sh.reports()[0].kind, ErrorKind::OverlappingAllocation);
    }

    #[test]
    fn overlap_with_following_object_detected() {
        let mut sh = shadow_with_span();
        sh.record_alloc(0x10000 - 32 + PG, 64);
        sh.take_reports();
        // New object whose tail crosses into the existing one.
        sh.record_alloc(0x10000 - 64 + PG, 128);
        assert!(sh
            .reports()
            .iter()
            .any(|r| r.kind == ErrorKind::OverlappingAllocation));
    }

    #[test]
    fn alloc_outside_spans_detected() {
        let mut sh = ShadowState::new();
        sh.map_span(1, 0x10000, 1, Some(3));
        // Past the one announced page: no span, so nothing is recorded.
        sh.record_alloc(0x10000 + PG, 64);
        assert_eq!(sh.reports()[0].kind, ErrorKind::UseOfUnmappedAddress);
        assert_eq!(sh.live.len(), 0);
        // Starts inside the span, ends past it.
        sh.record_alloc(0x10000 + PG - 32, 64);
        assert_eq!(sh.reports()[1].kind, ErrorKind::UseOfUnmappedAddress);
        assert_eq!(sh.reports()[1].span, Some(1));
    }

    #[test]
    fn map_span_forgets_the_spans_it_covers() {
        let mut sh = shadow_with_span();
        sh.map_span(2, 0x10000 + 3 * PG, 1, Some(4));
        // A four-page span over both: the live object on span 1 is a leak.
        sh.map_span(3, 0x10000 + PG, 4, Some(5));
        assert_eq!(sh.spans().collect::<Vec<_>>(), [(0x10000 + PG, 4, Some(5))]);
        assert_eq!(sh.reports().len(), 1);
        assert_eq!(sh.reports()[0].kind, ErrorKind::ObjectConservationViolation);
        assert_eq!(sh.reports()[0].span, Some(1));
    }

    #[test]
    fn span_release_with_live_object_is_a_leak() {
        let mut sh = shadow_with_span();
        sh.forget_span(0x10000);
        assert_eq!(sh.reports()[0].kind, ErrorKind::ObjectConservationViolation);
        assert_eq!(sh.live.len(), 0);
    }

    #[test]
    fn span_reuse_at_same_start_refreshes() {
        let mut sh = shadow_with_span();
        let _ = sh.check_free(0x10000, Some(3));
        // Same extent reused for a different class/span id.
        sh.map_span(9, 0x10000, 2, Some(5));
        sh.record_alloc(0x10000, 128);
        assert!(sh.reports().is_empty());
        assert!(matches!(sh.check_free(0x10000, Some(5)), FreeCheck::Ok(_)));
    }

    #[test]
    fn class_counts() {
        let mut sh = shadow_with_span();
        sh.record_alloc(0x10000 + 64, 64);
        sh.map_span(2, 0x40000, 3, None);
        sh.record_alloc(0x40000, 3 * PG);
        assert_eq!(sh.live_count_by_class(Some(3)), 2);
        assert_eq!(sh.live_count_by_class(None), 1);
    }
}
