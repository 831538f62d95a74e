//! The shared simulated clock.
//!
//! Every layer — the allocator's background maintenance (the 5-second cache
//! resizer of §4.1), lifetime telemetry (Figure 8), and the workload driver —
//! reads the same monotonic nanosecond clock. Only the driver advances it.

use std::sync::atomic::{AtomicU64, Ordering};
// lint:allow(concurrency-readiness) Arc is shared ownership of the single
// clock word, not synchronization: the driver is the only writer, and every
// reader tolerates any interleaving of whole-word updates.
use std::sync::Arc;

/// A cheaply-cloneable handle to a monotonic simulated clock (nanoseconds).
///
/// # Example
///
/// ```
/// use wsc_sim_os::clock::Clock;
///
/// let clock = Clock::new();
/// let view = clock.clone();
/// clock.advance(1_500);
/// assert_eq!(view.now_ns(), 1_500);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Clock {
    // lint:allow(concurrency-readiness) see the import note: shared
    // ownership of one atomic word, no locking.
    ns: Arc<AtomicU64>,
}

/// Nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

impl Clock {
    /// Creates a clock at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time, ns.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        // lint:allow(atomic-ordering) Relaxed: the clock word carries no
        // other data; readers only need some whole-word value.
        self.ns.load(Ordering::Relaxed)
    }

    /// Advances the clock by `delta_ns` and returns the new time.
    ///
    /// # Panics
    ///
    /// Panics if the new time is past `u64::MAX` ns (about 584 years), in
    /// every build: the clock never wraps to a time in the past.
    #[inline]
    pub fn advance(&self, delta_ns: u64) -> u64 {
        // lint:allow(atomic-ordering) Relaxed: fetch_add is atomic per
        // word; time ordering comes from the single-writer driver.
        let before = self.ns.fetch_add(delta_ns, Ordering::Relaxed);
        before.checked_add(delta_ns).unwrap_or_else(|| {
            panic!("simulated clock overflow: advancing {delta_ns} ns from {before} ns passes u64::MAX ns")
        })
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = Clock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.now_ns(), 10);
    }

    #[test]
    #[should_panic(
        expected = "simulated clock overflow: advancing 10 ns from 18446744073709551612 ns"
    )]
    fn advancing_past_the_end_of_time_panics() {
        let c = Clock::new();
        assert_eq!(c.advance(u64::MAX - 3), u64::MAX - 3);
        c.advance(10);
    }

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(5);
        assert_eq!(b.now_ns(), 5);
    }
}
