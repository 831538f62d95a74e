//! The one workload generator. [`generate`] runs a [`WorkloadSpec`]
//! request by request — thread counts, each request's CPU, due frees, the
//! allocations' sizes, sites and lifetimes, the bounded working set — owns
//! the slot table and the pending frees, and hands every operation to a
//! [`Stage`]: the driver's allocator half, or the trace recorder. So a
//! recorded trace is exactly the workload `driver::run` runs.

use crate::driver::DriverConfig;
use crate::due::DueQueue;
use crate::spec::{SizeWeights, WorkloadSpec};
use std::collections::VecDeque;
use std::num::NonZeroU64;
use wsc_prng::SmallRng;
use wsc_sim_hw::topology::CpuId;
use wsc_sim_os::clock::Clock;
use wsc_sim_os::sched::Scheduler;
use wsc_telemetry::timeseries::TimeSeries;

/// Cap on program-long objects retained per process, so "Forever" lifetimes
/// model a bounded in-memory working set (cache eviction), not a leak.
const WORKING_SET_MAX_OBJECTS: usize = 60_000;
const WORKING_SET_MAX_BYTES: u64 = 192 << 20;

/// An index into the live-object table.
pub(crate) type Slot = u32;

/// A live object in 16 bytes: its address with its home CPU in the top
/// 16 bits, and its size.
#[derive(Debug)]
pub(crate) struct LiveObject {
    /// `addr | home_cpu << ADDR_BITS`. Never zero: the heap starts at
    /// `HEAP_BASE`, so `Option<LiveObject>` needs no tag.
    word: NonZeroU64,
    pub(crate) size: u64,
}

/// Simulated addresses lie below `2^ADDR_BITS`; the bits above hold the
/// home CPU.
const ADDR_BITS: u32 = 48;

const _: () = assert!(std::mem::size_of::<Option<LiveObject>>() == 16);

impl LiveObject {
    fn new(addr: u64, size: u64, home_cpu: CpuId) -> Self {
        assert!(
            addr < 1 << ADDR_BITS,
            "object address {addr:#x} is not below 2^48"
        );
        assert!(home_cpu.0 < 1 << 16, "home {home_cpu} does not fit 16 bits");
        let addr = NonZeroU64::new(addr).expect("the heap starts above zero");
        Self {
            word: addr | u64::from(home_cpu.0) << ADDR_BITS,
            size,
        }
    }

    pub(crate) fn addr(&self) -> u64 {
        self.word.get() & ((1 << ADDR_BITS) - 1)
    }

    fn home_cpu(&self) -> CpuId {
        CpuId((self.word.get() >> ADDR_BITS) as u32)
    }
}

/// The generator's per-object tables: live objects by slot, the free
/// slots, the working set of program-long objects and the pending frees.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    objects: Vec<Option<LiveObject>>,
    free_slots: Vec<Slot>,
    working_set: VecDeque<Slot>,
    frees: DueQueue,
}

impl Tables {
    /// These tables emptied, as [`default`](Self::default) builds them,
    /// with their storage kept.
    pub(crate) fn renew(mut self) -> Self {
        self.objects.clear();
        self.free_slots.clear();
        self.working_set.clear();
        Self {
            frees: self.frees.renew(),
            ..self
        }
    }

    /// The slot the next stored object takes: the one the most recent free
    /// released, or a new one when none is free.
    fn next_slot(&self) -> Slot {
        self.free_slots.last().copied().unwrap_or_else(|| {
            Slot::try_from(self.objects.len()).expect("fewer than 2^32 object slots")
        })
    }

    /// Stores `obj` in [`next_slot`](Self::next_slot).
    fn store(&mut self, obj: LiveObject) {
        match self.free_slots.pop() {
            Some(slot) => self.objects[slot as usize] = Some(obj),
            None => self.objects.push(Some(obj)),
        }
    }

    /// Takes the object out of `slot`, freeing the slot.
    fn release(&mut self, slot: Slot) -> Option<LiveObject> {
        let obj = self.objects[slot as usize].take()?;
        self.free_slots.push(slot);
        Some(obj)
    }
}

/// Why [`generate`] frees an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Free {
    /// Its lifetime ended: the freeing thread touches it, then frees it.
    Due,
    /// The working set outgrew its cap and dropped its oldest object.
    Evicted,
    /// The process exits ([`DriverConfig::drain_at_end`]).
    Teardown,
}

/// What carries out the operations [`generate`] issues, in program order.
pub(crate) trait Stage {
    /// Whether to run another request; asked before each one.
    fn more(&self) -> bool {
        true
    }

    /// A request starts on `cpu`, which makes its allocations and touches.
    fn request(&mut self, _cpu: CpuId) {}

    /// Allocates an object for `slot` on `cpu`: its address, or `None` if
    /// refused. A refused object draws no lifetime and is never freed.
    fn alloc(&mut self, slot: Slot, size: u64, site: usize, cpu: CpuId) -> Option<u64>;

    /// Frees the object that was in `slot`, on `cpu`.
    fn free(&mut self, slot: Slot, obj: &LiveObject, cpu: CpuId, why: Free);

    /// The request's thread re-reads a working-set object.
    fn touch(&mut self, _obj: &LiveObject) {}

    /// The request that started at `now` ends; the clock has advanced
    /// `step` ns to the next arrival.
    fn end(&mut self, now: u64, step: u64);
}

/// Runs `spec` on `cfg.cpuset` for `cfg.requests` requests, or until
/// `stage` wants no more, advancing `clock` by each interarrival time, then
/// frees every live object if `cfg.drain_at_end`. Every draw comes from one
/// RNG seeded with `cfg.seed`, so the operations depend on the spec, the
/// config and the stage's refusals alone. Returns the tables and the active
/// thread count at each load evaluation.
///
/// Inlined into each caller with the stage's methods, so the stage is a
/// local there and its counters stay out of memory: called out of line, the
/// survey ran 5–15 % slower than with the loop written inside the driver.
#[inline]
pub(crate) fn generate<S: Stage>(
    spec: &WorkloadSpec,
    cfg: &DriverConfig,
    clock: &Clock,
    mut tables: Tables,
    stage: &mut S,
) -> (Tables, TimeSeries) {
    let mut sched = Scheduler::new(cfg.cpuset.clone());
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut working_set_bytes: u64 = 0;
    let mut ws_cursor = 0usize;
    // The size mixture evaluated at the current request's `now`.
    let mut size_weights = SizeWeights::default();
    let mut next_load_ns = 0u64;
    let mut threads_ts = TimeSeries::new("threads");

    for _ in 0..cfg.requests {
        if !stage.more() {
            break;
        }
        let now = clock.now_ns();
        // Load / thread-count evaluation.
        if now >= next_load_ns {
            next_load_ns = now + cfg.load_interval_ns;
            let t = spec.threads.at(now, &mut rng).min(cfg.cpuset.len() * 4);
            sched.set_active_threads(t);
            threads_ts.push(now, t as f64);
        }
        let active = sched.active_threads();
        let cpu = sched.cpu_for_thread(rng.gen_range(0..active));
        stage.request(cpu);

        // Due frees run on this request's thread (the consumer touches the
        // object, then frees it).
        while let Some((_, slot)) = tables.frees.pop_due(now) {
            let obj = tables.release(slot).expect("object already freed");
            // Most frees happen near the allocating CPU (the owning
            // component); the rest on whichever thread consumes the object.
            let free_cpu = if rng.gen::<f64>() < cfg.remote_free_frac {
                cpu
            } else {
                obj.home_cpu()
            };
            stage.free(slot, &obj, free_cpu, Free::Due);
        }

        // Allocations for this request.
        let n_allocs = {
            let base = spec.allocs_per_request.floor() as u64;
            let frac = spec.allocs_per_request - base as f64;
            base + u64::from(rng.gen::<f64>() < frac)
        };
        // Every allocation of a request is drawn at the same `now`, so the
        // mixture's phase weights are evaluated once per request.
        if n_allocs > 0 {
            spec.prepare_sizes(now, &mut size_weights);
        }
        for _ in 0..n_allocs {
            let (size, site) = spec.sample_size_prepared(&size_weights, &mut rng);
            let slot = tables.next_slot();
            // A refused allocation drops the request's object (the workload
            // degrades) instead of aborting the run.
            let Some(addr) = stage.alloc(slot, size, site, cpu) else {
                continue;
            };
            tables.store(LiveObject::new(addr, size, cpu));
            match spec.sample_lifetime(size, site, &mut rng) {
                Some(lt) => tables.frees.push(now + lt, slot),
                None => {
                    tables.working_set.push_back(slot);
                    working_set_bytes += size;
                    // Bounded working set: evict oldest beyond the cap.
                    while tables.working_set.len() > WORKING_SET_MAX_OBJECTS
                        || working_set_bytes > WORKING_SET_MAX_BYTES
                    {
                        let evict = tables.working_set.pop_front().expect("non-empty");
                        if let Some(obj) = tables.release(evict) {
                            working_set_bytes -= obj.size;
                            stage.free(evict, &obj, cpu, Free::Evicted);
                        }
                    }
                }
            }
        }

        // Working-set re-accesses (long-lived data locality).
        let ws = &tables.working_set;
        if !ws.is_empty() {
            for _ in 0..spec.working_set_touches {
                ws_cursor = (ws_cursor + 1 + rng.gen_range(0..ws.len())) % ws.len();
                if let Some(obj) = tables.objects[ws[ws_cursor] as usize].as_ref() {
                    stage.touch(obj);
                }
            }
        }

        // Open-loop arrival: wall time advances with the offered load.
        let interarrival = 1e9 / (spec.request_rate_hz * active as f64);
        let step = interarrival.max(1.0) as u64;
        clock.advance(step);
        stage.end(now, step);
    }

    if cfg.drain_at_end {
        let cpu = cfg.cpuset[0];
        for (slot, obj) in tables.objects.iter_mut().enumerate() {
            if let Some(obj) = obj.take() {
                stage.free(slot as Slot, &obj, cpu, Free::Teardown);
            }
        }
    }
    (tables, threads_ts)
}
