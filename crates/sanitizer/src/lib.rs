//! Allocator sanitizer: shadow-state checking and cross-tier audits.
//!
//! This reproduction's whole premise is that the allocator manages a
//! *simulated* address space, so every placement decision is observable.
//! This crate is what actually observes them:
//!
//! * [`ShadowState`] mirrors the simulated 64-bit address space at 8 KiB
//!   page and object granularity, independently of the allocator's own
//!   metadata, and flags double frees, invalid/misaligned frees,
//!   wrong-size-class frees, overlapping allocations, and uses of unmapped
//!   addresses *at the moment they happen*.
//! * [`audit`] walks a [`Snapshot`] of every tier — per-CPU caches,
//!   transfer cache, central free lists, pageheap, pagemap — and proves
//!   object-count and byte conservation per size class, span occupancy-list
//!   placement (§4.3's L = 8), and hugepage backing-state consistency. It
//!   compares the shadow with the snapshot and never corrects either: the
//!   shadow's spans must be exactly the allocator's live spans.
//! * [`Sanitizer`] ties both together behind a [`SanitizeLevel`], so the
//!   allocator runs checks on every operation and an audit every
//!   [`AUDIT_PERIOD_OPS`] operations (`Full`), or not at all (`Off`). A
//!   caller that wants a denser audit cadence calls the allocator's
//!   `audit_now` itself.
//!
//! Every violation is a structured [`SanitizerReport`]; nothing panics, so
//! fault-injection tests can assert exact [`ErrorKind`]s through the public
//! allocator API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod report;
mod shadow;

pub use audit::{
    audit, expected_list, ArenaSnapshot, ClassTierSnapshot, HugepageSnapshot, PagemapLeafSnapshot,
    Snapshot, SpanPlacement, SpanSnapshot,
};
pub use report::{ErrorKind, SanitizerReport, Tier};
pub use shadow::{FreeCheck, ObjectShadow, ShadowState};

/// Operations between two cross-tier audits at [`SanitizeLevel::Full`].
pub const AUDIT_PERIOD_OPS: u64 = 1024;

/// How much checking the allocator performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SanitizeLevel {
    /// No shadow state, no checks, no overhead.
    #[default]
    Off,
    /// Shadow checks on every operation; the cross-tier audit every
    /// [`AUDIT_PERIOD_OPS`] operations. The posture for tests.
    Full,
}

impl SanitizeLevel {
    /// Is any checking active?
    pub fn is_on(self) -> bool {
        self != SanitizeLevel::Off
    }
}

/// The per-allocator sanitizer instance: shadow state, report log, and the
/// audit cadence counter.
#[derive(Clone, Debug, Default)]
pub struct Sanitizer {
    level: SanitizeLevel,
    shadow: ShadowState,
    reports: Vec<SanitizerReport>,
    ops_since_audit: u64,
    audits_run: u64,
}

impl Sanitizer {
    /// Creates a sanitizer at the given level.
    pub fn new(level: SanitizeLevel) -> Self {
        Self {
            level,
            ..Self::default()
        }
    }

    /// The shadow heap (for audits and tests).
    pub fn shadow(&self) -> &ShadowState {
        &self.shadow
    }

    /// Audits performed so far.
    pub fn audits_run(&self) -> u64 {
        self.audits_run
    }

    /// All reports recorded so far — shadow violations and audit findings,
    /// in detection order.
    pub fn reports(&self) -> &[SanitizerReport] {
        &self.reports
    }

    /// Maps a span the allocator announced in the shadow's page mirror
    /// (no-op when off).
    pub fn map_span(&mut self, span: u32, start: u64, pages: u32, class: Option<u16>) {
        if !self.level.is_on() {
            return;
        }
        self.shadow.map_span(span, start, pages, class);
        self.drain_shadow();
    }

    /// Records an allocation in the shadow (no-op when off).
    pub fn record_alloc(&mut self, addr: u64, size: u64) {
        if !self.level.is_on() {
            return;
        }
        self.shadow.record_alloc(addr, size);
        self.drain_shadow();
    }

    /// Checks a free against the shadow. Returns `None` when the sanitizer
    /// is off (no opinion) or the free is valid; otherwise the violation
    /// kind — the caller must skip the operation.
    pub fn check_free(&mut self, addr: u64, expected_class: Option<u16>) -> Option<ErrorKind> {
        if !self.level.is_on() {
            return None;
        }
        let result = match self.shadow.check_free(addr, expected_class) {
            FreeCheck::Ok(_) => None,
            FreeCheck::Rejected(kind) => Some(kind),
        };
        self.drain_shadow();
        result
    }

    /// Tells the sanitizer a span returned to the pageheap, so the page
    /// mirror stays fresh and leaked objects surface immediately.
    pub fn forget_span(&mut self, span_start: u64) {
        if !self.level.is_on() {
            return;
        }
        self.shadow.forget_span(span_start);
        self.drain_shadow();
    }

    /// Should the caller run a cross-tier audit now? Counts one operation.
    pub fn audit_due(&mut self) -> bool {
        if !self.level.is_on() {
            return false;
        }
        self.ops_since_audit += 1;
        if self.ops_since_audit >= AUDIT_PERIOD_OPS {
            self.ops_since_audit = 0;
            true
        } else {
            false
        }
    }

    /// Runs the cross-tier audit against `snap`. The shadow is compared
    /// with the snapshot, never corrected by it: a span the allocator
    /// dropped without announcing it is a finding. Appends findings to the
    /// report log and returns how many there were.
    pub fn run_audit(&mut self, snap: &Snapshot) -> usize {
        let findings = audit::audit(snap, &self.shadow);
        let n = findings.len();
        self.reports.extend(findings);
        self.audits_run += 1;
        n
    }

    fn drain_shadow(&mut self) {
        self.reports.extend(self.shadow.take_reports());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn off_level_is_free() {
        let mut s = Sanitizer::new(SanitizeLevel::Off);
        s.map_span(0, 0x1000, 1, Some(1));
        s.record_alloc(0x1000, 64);
        assert_eq!(s.check_free(0xdead, None), None);
        assert!(!s.audit_due());
        assert!(s.reports().is_empty());
        assert_eq!(s.shadow().live_objects().count(), 0);
    }

    #[test]
    fn full_level_checks_and_audits() {
        let mut s = Sanitizer::new(SanitizeLevel::Full);
        s.map_span(0, 0x10000, 1, Some(1));
        s.record_alloc(0x10000, 64);
        assert_eq!(s.check_free(0x10000, Some(1)), None);
        assert_eq!(s.check_free(0x10000, Some(1)), Some(ErrorKind::DoubleFree));
        assert_eq!(s.reports().len(), 1);
    }

    #[test]
    fn full_cadence() {
        let mut s = Sanitizer::new(SanitizeLevel::Full);
        let due: Vec<u64> = (1..=3 * AUDIT_PERIOD_OPS)
            .filter(|_| s.audit_due())
            .collect();
        assert_eq!(
            due,
            [AUDIT_PERIOD_OPS, 2 * AUDIT_PERIOD_OPS, 3 * AUDIT_PERIOD_OPS]
        );
    }

    #[test]
    fn run_audit_accumulates_reports() {
        let mut s = Sanitizer::new(SanitizeLevel::Full);
        let snap = Snapshot {
            resident_bytes: 100, // violates resident = live + frag = 0
            ..Snapshot::default()
        };
        assert_eq!(s.run_audit(&snap), 1);
        assert_eq!(s.audits_run(), 1);
        assert_eq!(s.reports()[0].kind, ErrorKind::ByteConservationViolation);
    }

    #[test]
    fn audit_reports_an_unannounced_span_release() {
        let mut s = Sanitizer::new(SanitizeLevel::Full);
        s.map_span(0, 0x10000, 1, Some(1));
        s.record_alloc(0x10000, 64);
        assert_eq!(s.check_free(0x10000, Some(1)), None);
        // The span drained and left the allocator's inventory, but no
        // retirement was announced: the audit reports it and repairs nothing.
        let snap = Snapshot::default();
        assert_eq!(s.run_audit(&snap), 1);
        assert_eq!(s.run_audit(&snap), 1);
        s.forget_span(0x10000);
        assert_eq!(s.run_audit(&snap), 0);
    }

    #[test]
    fn level_helpers() {
        assert!(!SanitizeLevel::Off.is_on());
        assert!(SanitizeLevel::Full.is_on());
    }
}
