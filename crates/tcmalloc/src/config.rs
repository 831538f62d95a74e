//! Allocator configuration: the baseline and the four §4 redesigns.
//!
//! Every optimization the paper evaluates is an independent toggle so the
//! fleet A/B framework can measure each one (Figures 10/14, Tables 1/2) and
//! their combination (§4.5).

use crate::pageheap::PageHeapConfig;
use crate::transfer::TransferSharding;
use wsc_sanitizer::SanitizeLevel;
use wsc_sim_os::FaultPlan;

/// Capacity scale factor between production and the simulation.
///
/// A production process runs on ~100 hyperthreads with a multi-GiB heap; the
/// simulation runs ~16 vCPUs with a 50–500 MiB heap. To preserve the ratio
/// of cache capacity to heap churn — which is what determines how much
/// object traffic reaches the central free lists and the pageheap — every
/// byte-capacity knob is divided by this factor. The paper's production
/// values are documented next to each field, and next to each constant the
/// tiers keep for values no experiment varies (the maintenance cadence and
/// resize step in [`alloc`](crate::alloc), the tier capacities in
/// [`transfer`](crate::transfer) and [`pageheap`](crate::pageheap)).
pub const CAPACITY_SCALE: u64 = 8;

/// Complete allocator configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcmallocConfig {
    /// Per-CPU cache byte budget (3 MB baseline; 1.5 MB with the
    /// heterogeneous design, §4.1).
    pub percpu_max_bytes: u64,
    /// Enable usage-based dynamic per-CPU cache sizing (§4.1).
    pub dynamic_percpu: bool,
    /// Transfer-cache sharding: central, per LLC domain (NUCA, §4.2) or
    /// per NUMA node (§5).
    pub transfer: TransferSharding,
    /// Central-free-list span lists: 1 = legacy, 8 = span prioritization
    /// (§4.3).
    pub cfl_lists: usize,
    /// Pageheap policy, including the lifetime-aware filler (§4.4).
    pub pageheap: PageHeapConfig,
    /// Allocation sampling period (2 MiB in production).
    pub sample_period_bytes: u64,
    /// Sanitizer level: shadow-state checking on every operation and
    /// cross-tier conservation audits (Off for experiments, Full for tests).
    pub sanitize: SanitizeLevel,
    /// Keep the last N events in a [`TraceRing`](crate::events::TraceRing)
    /// for Chrome-trace export, or all of them at
    /// [`TraceRing::UNBOUNDED`](crate::events::TraceRing::UNBOUNDED).
    /// 0 = off.
    pub trace_capacity: u32,
    /// Soft memory limit: when resident bytes exceed it, background
    /// maintenance synchronously releases free pages back toward the limit
    /// (TCMalloc's soft-limit semantics). `None` = unlimited.
    pub soft_limit: Option<u64>,
    /// Hard memory limit: an mmap that would push resident bytes past it
    /// fails with [`AllocError::HardLimit`](crate::AllocError::HardLimit)
    /// instead of growing the heap. `None` = unlimited.
    pub hard_limit: Option<u64>,
    /// Deterministic OS fault plan (ENOMEM, THP denial, flaky madvise,
    /// latency spikes). `None` = the kernel never fails, which reproduces
    /// every golden figure byte-identically.
    pub os_faults: Option<FaultPlan>,
}

impl TcmallocConfig {
    /// The pre-redesign production baseline: static 3 MB per-CPU caches, a
    /// singleton transfer cache, a single span list, and the
    /// most-allocated-first filler of Hunter et al. (OSDI '21).
    pub fn baseline() -> Self {
        Self {
            percpu_max_bytes: (3 << 20) / CAPACITY_SCALE, // production: 3 MB
            dynamic_percpu: false,
            transfer: TransferSharding::Central,
            cfl_lists: 1,
            pageheap: PageHeapConfig::default(),
            sample_period_bytes: 2 << 20,
            sanitize: SanitizeLevel::Off,
            trace_capacity: 0,
            soft_limit: None,
            hard_limit: None,
            os_faults: None,
        }
    }

    /// All four §4 redesigns enabled (the §4.5 configuration).
    pub fn optimized() -> Self {
        Self::baseline()
            .with_heterogeneous_percpu()
            .with_nuca_transfer()
            .with_span_prioritization()
            .with_lifetime_filler()
    }

    /// Enables §4.1: dynamic per-CPU cache sizing, with the default budget
    /// halved from 3 MB to 1.5 MB as in the paper's evaluation.
    pub fn with_heterogeneous_percpu(mut self) -> Self {
        self.dynamic_percpu = true;
        // Production halves 3 MB to 1.5 MB; scaled equivalently here.
        self.percpu_max_bytes = (3 << 19) / CAPACITY_SCALE;
        self
    }

    /// Enables §4.2: NUCA-aware per-LLC-domain transfer caches.
    pub fn with_nuca_transfer(mut self) -> Self {
        self.transfer = TransferSharding::Domain;
        self
    }

    /// Enables the §5 NUMA extension: transfer caches sharded per NUMA node
    /// instead of per LLC domain.
    pub fn with_numa_transfer(mut self) -> Self {
        self.transfer = TransferSharding::Node;
        self
    }

    /// Enables §4.3: span prioritization with L = 8 lists.
    pub fn with_span_prioritization(mut self) -> Self {
        self.cfl_lists = 8;
        self
    }

    /// Enables §4.4: the lifetime-aware hugepage filler with C = 16.
    pub fn with_lifetime_filler(mut self) -> Self {
        self.pageheap.lifetime_aware_filler = true;
        self.pageheap.capacity_threshold = 16;
        self
    }

    /// Sets the sanitizer level (shadow checks + conservation audits).
    // lint:allow(test-only-pub) a deployment setting (DESIGN.md §6) no
    // experiment varies; config_lattice, chaos_soak and end_to_end launch
    // allocators with it, and no other builder sets it.
    pub fn with_sanitize(mut self, level: SanitizeLevel) -> Self {
        self.sanitize = level;
        self
    }

    /// Keeps the last `capacity` events in the trace ring for Chrome-trace
    /// export (`wsc-bench` `trace --events`).
    pub fn with_trace(mut self, capacity: u32) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Sets the soft memory limit (synchronous release-and-retry in
    /// background maintenance when resident bytes exceed it).
    // lint:allow(test-only-pub) a deployment setting (DESIGN.md §6) no
    // experiment varies; chaos_soak, event_stream and sanitizer_faults
    // launch allocators with it, and no other builder sets it.
    pub fn with_soft_limit(mut self, bytes: u64) -> Self {
        self.soft_limit = Some(bytes);
        self
    }

    /// Sets the hard memory limit (mmap past it fails with a structured
    /// allocation error instead of growing the heap).
    // lint:allow(test-only-pub) a deployment setting (DESIGN.md §6) no
    // experiment varies; chaos_soak and config_lattice launch allocators
    // with it, and no other builder sets it.
    pub fn with_hard_limit(mut self, bytes: u64) -> Self {
        self.hard_limit = Some(bytes);
        self
    }

    /// Attaches a deterministic OS fault plan to the simulated kernel.
    pub fn with_os_faults(mut self, plan: FaultPlan) -> Self {
        self.os_faults = Some(plan);
        self
    }
}

impl Default for TcmallocConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_everything_off() {
        let c = TcmallocConfig::baseline();
        assert!(!c.dynamic_percpu);
        assert!(!c.transfer.is_sharded());
        assert_eq!(c.cfl_lists, 1);
        assert!(!c.pageheap.lifetime_aware_filler);
        assert_eq!(c.percpu_max_bytes, (3 << 20) / CAPACITY_SCALE);
        assert_eq!(c.sample_period_bytes, 2 << 20);
        // Sink default: no trace ring.
        assert_eq!(c.trace_capacity, 0);
        // Failure-model defaults: no limits, no faults — golden figures
        // depend on the kernel never failing unless explicitly asked to.
        assert_eq!(c.soft_limit, None);
        assert_eq!(c.hard_limit, None);
        assert_eq!(c.os_faults, None);
    }

    #[test]
    fn limit_and_fault_builders() {
        let c = TcmallocConfig::baseline()
            .with_soft_limit(64 << 20)
            .with_hard_limit(128 << 20)
            .with_os_faults(FaultPlan::off().with_seed(7));
        assert_eq!(c.soft_limit, Some(64 << 20));
        assert_eq!(c.hard_limit, Some(128 << 20));
        assert_eq!(c.os_faults, Some(FaultPlan::off().with_seed(7)));
    }

    #[test]
    fn optimized_has_everything_on() {
        let c = TcmallocConfig::optimized();
        assert!(c.dynamic_percpu);
        assert_eq!(c.transfer, TransferSharding::Domain);
        assert_eq!(c.cfl_lists, 8);
        assert!(c.pageheap.lifetime_aware_filler);
        assert_eq!(c.pageheap.capacity_threshold, 16);
        assert_eq!(
            c.percpu_max_bytes,
            (3 << 19) / CAPACITY_SCALE,
            "halved from the baseline"
        );
    }

    /// The `pub` fields of `pub struct <name>` in `src`, as (name, type).
    fn pub_fields<'a>(src: &'a str, name: &str) -> Vec<(&'a str, &'a str)> {
        let body = src
            .split(&format!("pub struct {name} {{\n"))
            .nth(1)
            .unwrap_or_else(|| panic!("{name} is declared"));
        body.lines()
            .take_while(|l| *l != "}")
            .filter_map(|l| l.trim().strip_prefix("pub ")?.split_once(": "))
            .map(|(field, ty)| (field, ty.trim_end_matches(',')))
            .collect()
    }

    /// DESIGN.md §6 names every settable value — each `pub` field of
    /// `TcmallocConfig`, less the `pageheap` field that holds
    /// `PageHeapConfig`, and each of `PageHeapConfig`'s — and its bolded
    /// count is theirs.
    #[test]
    fn design_lists_every_settable_value() {
        let mut values: Vec<&str> = pub_fields(include_str!("config.rs"), "TcmallocConfig")
            .into_iter()
            .filter(|&(_, ty)| ty != "PageHeapConfig")
            .chain(pub_fields(
                include_str!("pageheap/mod.rs"),
                "PageHeapConfig",
            ))
            .map(|(field, _)| field)
            .collect();
        assert!(values.contains(&"os_faults") && values.contains(&"capacity_threshold"));
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("### What is configuration, and what is a constant")
            .nth(1)
            .expect("DESIGN.md §6 has the configuration heading");
        let (count, list) = section
            .split_once(" values are configuration**")
            .and_then(|(head, rest)| {
                Some((head.rsplit("**").next()?, rest.split("\n\n**").next()?))
            })
            .expect("§6 bolds the count of settable values");
        const WORDS: &str = "Zero One Two Three Four Five Six Seven Eight Nine Ten Eleven \
            Twelve Thirteen Fourteen Fifteen Sixteen Seventeen Eighteen Nineteen Twenty";
        assert_eq!(
            WORDS.split_whitespace().nth(values.len()),
            Some(count),
            "the bolded count"
        );
        values.retain(|field| !list.contains(&format!("`{field}`")));
        assert!(values.is_empty(), "§6 does not list {values:?}");
    }

    #[test]
    fn toggles_are_independent() {
        let c = TcmallocConfig::baseline().with_span_prioritization();
        assert_eq!(c.cfl_lists, 8);
        assert!(!c.dynamic_percpu && !c.transfer.is_sharded());
        assert!(!c.pageheap.lifetime_aware_filler);
    }
}
