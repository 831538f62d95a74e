//! Cpuset scheduler for one co-located process.
//!
//! The control plane constrains each WSC application to a subset of the
//! machine's CPUs, and the application varies its worker-thread count with
//! load (Figure 9a: constant fluctuation from load spikes and diurnal
//! cycles). The kernel packs runnable threads onto the lowest-indexed CPUs
//! of the cpuset first — which, combined with dense vCPU IDs, concentrates
//! allocator traffic on low-numbered vCPUs and leaves higher-numbered
//! per-CPU caches cold but still sized (the Figure 9b skew that motivates
//! heterogeneous per-CPU caches).

use wsc_sim_hw::topology::CpuId;

/// Thread-to-CPU placement for one process over a fixed cpuset.
///
/// Thread *slots* are dense indices `0..active_threads`; slot `i` runs on
/// `cpuset[i % cpuset.len()]`, so the first `cpuset.len()` threads get
/// dedicated CPUs and further threads share.
///
/// # Example
///
/// ```
/// use wsc_sim_os::sched::Scheduler;
/// use wsc_sim_hw::topology::CpuId;
///
/// let mut s = Scheduler::new(vec![CpuId(4), CpuId(5), CpuId(6)]);
/// s.set_active_threads(2);
/// assert_eq!(s.cpu_for_thread(0), CpuId(4));
/// ```
#[derive(Clone, Debug)]
pub struct Scheduler {
    cpuset: Vec<CpuId>,
    active_threads: usize,
}

impl Scheduler {
    /// Creates a scheduler over a cpuset.
    ///
    /// # Panics
    ///
    /// Panics if the cpuset is empty.
    pub fn new(cpuset: Vec<CpuId>) -> Self {
        assert!(!cpuset.is_empty(), "cpuset must be non-empty");
        Self {
            cpuset,
            active_threads: 1,
        }
    }

    /// Updates the number of runnable worker threads (load change).
    /// Clamped to at least 1.
    pub fn set_active_threads(&mut self, n: usize) {
        self.active_threads = n.max(1);
    }

    /// Current runnable worker threads.
    pub fn active_threads(&self) -> usize {
        self.active_threads
    }

    /// The CPU a given thread slot runs on.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= active_threads`.
    pub fn cpu_for_thread(&self, slot: usize) -> CpuId {
        assert!(
            slot < self.active_threads,
            "thread slot {slot} >= active threads {}",
            self.active_threads
        );
        self.cpuset[slot % self.cpuset.len()]
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cpus(n: u32) -> Vec<CpuId> {
        (0..n).map(CpuId).collect()
    }

    #[test]
    fn packs_low_cpus_first() {
        let mut s = Scheduler::new(cpus(8));
        s.set_active_threads(3);
        let active: Vec<_> = (0..3).map(|t| s.cpu_for_thread(t)).collect();
        assert_eq!(active, vec![CpuId(0), CpuId(1), CpuId(2)]);
    }

    #[test]
    fn oversubscription_wraps() {
        let mut s = Scheduler::new(cpus(2));
        s.set_active_threads(5);
        assert_eq!(s.cpu_for_thread(0), CpuId(0));
        assert_eq!(s.cpu_for_thread(1), CpuId(1));
        assert_eq!(s.cpu_for_thread(2), CpuId(0));
    }

    #[test]
    #[should_panic(expected = "thread slot")]
    fn out_of_range_slot_panics() {
        let s = Scheduler::new(cpus(2));
        let _ = s.cpu_for_thread(1); // default is 1 active thread
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_cpuset_panics() {
        let _ = Scheduler::new(vec![]);
    }

    #[test]
    fn load_fluctuation_changes_active_set() {
        let mut s = Scheduler::new(cpus(16));
        s.set_active_threads(16);
        assert_eq!(s.active_threads(), 16);
        s.set_active_threads(2);
        assert_eq!(s.active_threads(), 2);
        s.set_active_threads(0); // clamped
        assert_eq!(s.active_threads(), 1);
    }
}
