//! Host-allocation budgets: what the *simulator* asks of the host's
//! allocator, counted rather than timed.
//!
//! A cold machine of a fleet survey lives for 32 requests, so building one
//! from nothing costs mostly what it allocates — which is why an engine
//! worker renews one `Machine` for every machine it folds instead. These
//! tests pin both: the slow tiers move a batch through one reused buffer
//! (zero host allocations once warm), building, running and dropping a
//! machine from nothing stays inside a counted budget, a machine renewed in
//! a worker's storage allocates only its report, and a warm
//! `Trace::replay` asks the host for its id table and nothing else.
//! The counter is a `#[global_allocator]` wrapper over [`System`], which is
//! why this file is its own test binary.

// The counting allocator must implement `GlobalAlloc`, an unsafe trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsc_parallel::{Engine, FoldSpan};
use wsc_sim_hw::cost::AllocPath;
use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::Clock;
use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};
use wsc_workload::driver::{self, DriverConfig, Machine};
use wsc_workload::profiles;
use wsc_workload::trace::{Trace, TraceEvent};

/// An allocation at least this large is "large": a cold machine that makes
/// one is paying for address space it will never touch.
const LARGE_BYTES: usize = 64 << 10;

thread_local! {
    /// `(allocations, large allocations)` made by this thread. Const
    /// initialised and without a destructor, so touching it from inside
    /// the allocator never allocates. Per thread, so tests running in
    /// parallel do not see each other.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        // `try_with`: a thread tearing down may allocate after its
        // thread-locals are gone.
        let _ = COUNTS.try_with(|c| {
            let (n, large) = c.get();
            c.set((n + 1, large + u64::from(size >= LARGE_BYTES)));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `alloc` contract, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller's `realloc` contract, forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract, forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, large allocations)` this thread made while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (n0, l0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, l1) = COUNTS.with(Cell::get);
    (out, n1 - n0, l1 - l0)
}

/// The fleet survey's chiplet platform. Also builds the process-wide
/// size-class table, which the first allocator of a process pays for and
/// no machine after it does.
fn fleet_platform() -> Platform {
    let _ = wsc_tcmalloc::size_class::SizeClassTable::shared();
    Platform::chiplet("chiplet-64c", 2, 4, 8, 2)
}

#[test]
fn warm_slow_tiers_move_batches_without_host_allocations() {
    const CPU: CpuId = CpuId(0);
    const SIZE: u64 = 64;
    const OBJECTS: usize = 3_000;
    let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), fleet_platform(), Clock::new());
    let mut live: Vec<u64> = Vec::with_capacity(OBJECTS);
    // One cycle: allocate a few spans' worth through every tier, then free
    // it all in allocation order so the per-CPU cache overflows into the
    // transfer cache and the transfer cache into the spans.
    let mut cycle = |tcm: &mut Tcmalloc, measured: bool| {
        // Seen, per slow-tier path: [miss → transfer hit → refill, central
        // refill from an existing span, overflow → stash → central return].
        let mut seen = [0u32; 3];
        for _ in 0..OBJECTS {
            let (a, allocs, _) = counted(|| tcm.malloc(SIZE, CPU));
            live.push(a.addr);
            let which = match a.path {
                AllocPath::TransferCache => 0,
                AllocPath::CentralFreeList => 1,
                _ => continue,
            };
            seen[which] += 1;
            assert!(
                !measured || allocs == 0,
                "warm malloc via {:?} made {allocs} host allocation(s)",
                a.path
            );
        }
        for addr in live.drain(..) {
            let (f, allocs, _) = counted(|| tcm.free(addr, SIZE, CPU));
            if f.path == AllocPath::CentralFreeList {
                seen[2] += 1;
                assert!(
                    !measured || allocs == 0,
                    "warm free via {:?} made {allocs} host allocation(s)",
                    f.path
                );
            }
        }
        seen
    };
    cycle(&mut tcm, false);
    let seen = cycle(&mut tcm, true);
    assert!(
        seen.iter().all(|&n| n > 0),
        "every slow-tier path exercised while measuring: {seen:?}"
    );
}

#[test]
fn an_allocator_is_built_and_dropped_within_budget() {
    let platform = fleet_platform();
    let ((), allocs, large) = counted(|| {
        drop(Tcmalloc::new(
            TcmallocConfig::optimized(),
            platform,
            Clock::new(),
        ));
    });
    // Measured: 96 (97 with the deferred-free lists' per-class counters).
    // The GWP profile's 52 histograms allocate their slots on the first
    // sample, which an idle allocator never takes (149 before).
    assert!(allocs <= 99, "Tcmalloc::new + drop: {allocs} allocations");
    assert_eq!(large, 0, "an idle allocator holds nothing large");
}

#[test]
fn a_cold_machine_runs_within_budget() {
    let platform = fleet_platform();
    let spec = profiles::fleet_mix();
    let cfg = DriverConfig::new(32, 42, &platform);
    // The survey runs each machine inside an engine fold, where both halves
    // of `driver::run` stay on the worker's thread; the counter is per
    // thread, so outside an engine it would miss the helper thread's half.
    let (requests, allocs, large) = counted(|| {
        Engine::serial()
            .fold_seeded(
                42,
                FoldSpan::all(1),
                || (),
                || 0,
                |(), n, _, _| {
                    let (run, _tcm) =
                        driver::run(&spec, &platform, TcmallocConfig::optimized(), &cfg);
                    *n += run.requests;
                },
                |a, b| *a += b,
                |_| "cold machine".to_string(),
            )
            .expect("the machine runs")
    });
    assert_eq!(requests, 32);
    // Measured: 758 inside the fold (760 with the deferred-free lists,
    // 765 for the bare one-thread run before the halves split, 817 with
    // eager GWP histograms).
    assert!(
        allocs <= 798,
        "32-request driver::run in an engine fold: {allocs} allocations"
    );
    assert_eq!(large, 0, "allocations of 64 KiB or more");
}

#[test]
fn a_renewed_machine_allocates_only_its_report() {
    let platform = fleet_platform();
    let spec = profiles::fleet_mix();
    let cfg = DriverConfig::new(32, 42, &platform);
    // The same machine twice on one engine worker, as the survey folds
    // machines: the first grows the worker's storage, the second is renewed
    // into it and needs no more.
    let counts = Engine::serial()
        .fold_seeded(
            42,
            FoldSpan::all(2),
            Machine::new,
            Vec::new,
            |machine, counts: &mut Vec<(u64, u64)>, _, _| {
                let (run, allocs, large) =
                    counted(|| machine.run(&spec, &platform, TcmallocConfig::optimized(), &cfg));
                assert_eq!(run.requests, 32);
                counts.push((allocs, large));
            },
            |a, mut b| a.append(&mut b),
            |m| format!("machine {m}"),
        )
        .expect("the machines run");
    // Measured: 15 against 756 for the first — the report's strings,
    // series and per-vCPU vector, the run's clock, cpuset and platform
    // name, two fragmentation counts, and the two spare tables a renewal
    // fills once.
    let (allocs, large) = counts[1];
    assert!(
        allocs <= 50,
        "a renewed 32-request machine: {allocs} allocations"
    );
    assert_eq!(large, 0, "allocations of 64 KiB or more");
}

#[test]
fn a_warm_replay_allocates_only_its_table() {
    const ALLOCS: usize = 3_000;
    let trace = Trace::record(&profiles::fleet_mix(), ALLOCS as u64, 42);
    let warmed = || {
        let clock = Clock::new();
        let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), fleet_platform(), clock.clone());
        trace.replay(&mut tcm, &clock);
        (tcm, clock)
    };
    // What the allocator itself asks of the host on a second pass: the
    // calls `Trace::replay` makes, ids resolved through a vector built
    // before counting starts.
    let (mut tcm, clock) = warmed();
    let mut live = vec![(0u64, 0u64); ALLOCS];
    let ((), allocator_only, _) = counted(|| {
        for ev in &trace.events {
            match *ev {
                TraceEvent::Alloc {
                    id,
                    size,
                    site,
                    cpu,
                } => {
                    let out = tcm.malloc_with_site(size, CpuId(cpu), u64::from(site));
                    live[id as usize] = (out.addr, size);
                }
                TraceEvent::Free { id, cpu } => {
                    let (addr, size) = live[id as usize];
                    tcm.free(addr, size, CpuId(cpu));
                }
                TraceEvent::Advance { ns } => {
                    clock.advance(ns);
                    tcm.maintain();
                }
            }
        }
    });
    assert_eq!(tcm.live_objects(), 0);

    let (mut tcm, clock) = warmed();
    let (stats, replay, _) = counted(|| trace.replay(&mut tcm, &clock));
    assert_eq!((stats.allocs, stats.frees), (ALLOCS as u64, ALLOCS as u64));
    // Measured: 134 against 133 — the id table, reserved once for the
    // trace's largest id. The map it replaced started empty on every
    // replay and grew by rehashing: 143 against 133.
    let own = replay - allocator_only;
    assert!(own <= 1, "the replay loop made {own} host allocations");
}
