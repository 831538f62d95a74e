//! Adversarial and edge-case workloads against the full allocator: patterns
//! chosen to stress specific policies rather than look like production.

use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::{Clock, NS_PER_SEC};
use wsc_tcmalloc::size_class::{SizeClassTable, MAX_SMALL_SIZE};
use wsc_tcmalloc::{Tcmalloc, TcmallocConfig};

fn alloc(cfg: TcmallocConfig) -> (Tcmalloc, Clock) {
    let clock = Clock::new();
    (
        Tcmalloc::new(cfg, Platform::chiplet("t", 1, 2, 4, 2), clock.clone()),
        clock,
    )
}

#[test]
fn class_boundary_sizes_round_trip() {
    // Every size-class boundary, one below, exactly at, one above.
    let (mut tcm, _) = alloc(TcmallocConfig::baseline());
    let table = SizeClassTable::production();
    let mut live = Vec::new();
    for info in table.iter() {
        for size in [info.size - 1, info.size, info.size + 1] {
            if size == 0 || size > MAX_SMALL_SIZE {
                continue;
            }
            let a = tcm.malloc(size, CpuId(0));
            assert!(a.actual_bytes >= size);
            live.push((a.addr, size));
        }
    }
    for (addr, size) in live {
        tcm.free(addr, size, CpuId(0));
    }
    assert_eq!(tcm.live_bytes(), 0);
}

#[test]
fn large_boundary_is_exact() {
    // MAX_SMALL_SIZE goes through the caches; one byte more bypasses them.
    let (mut tcm, _) = alloc(TcmallocConfig::baseline());
    let small = tcm.malloc(MAX_SMALL_SIZE, CpuId(0));
    let large = tcm.malloc(MAX_SMALL_SIZE + 1, CpuId(0));
    assert_eq!(small.actual_bytes, MAX_SMALL_SIZE);
    assert!(large.actual_bytes > MAX_SMALL_SIZE);
    tcm.free(small.addr, MAX_SMALL_SIZE, CpuId(0));
    tcm.free(large.addr, MAX_SMALL_SIZE + 1, CpuId(0));
    assert_eq!(tcm.live_bytes(), 0);
}

#[test]
fn lifo_stack_pattern() {
    // Deep alloc, then free in strict reverse order (stack discipline).
    let (mut tcm, _) = alloc(TcmallocConfig::optimized());
    let mut stack = Vec::new();
    for i in 0..20_000u64 {
        let size = 16 + (i % 37) * 8;
        stack.push((tcm.malloc(size, CpuId((i % 8) as u32)).addr, size));
    }
    while let Some((addr, size)) = stack.pop() {
        tcm.free(addr, size, CpuId(0));
    }
    assert_eq!(tcm.live_bytes(), 0);
}

#[test]
fn fifo_queue_pattern() {
    // Producer/consumer: free in allocation order from a different CPU —
    // maximal cross-CPU flow through the transfer tier.
    let (mut tcm, clock) = alloc(TcmallocConfig::baseline().with_nuca_transfer());
    let mut queue = std::collections::VecDeque::new();
    for i in 0..30_000u64 {
        let size = 64 + (i % 13) * 32;
        queue.push_back((tcm.malloc(size, CpuId(0)).addr, size));
        if queue.len() > 500 {
            let (addr, sz) = queue.pop_front().expect("non-empty");
            tcm.free(addr, sz, CpuId(15)); // other domain
        }
        if i % 512 == 0 {
            clock.advance(NS_PER_SEC / 50);
            tcm.maintain();
        }
    }
    for (addr, sz) in queue {
        tcm.free(addr, sz, CpuId(15));
    }
    assert_eq!(tcm.live_bytes(), 0);
    let f = tcm.fragmentation();
    assert_eq!(f.resident_bytes, f.total_bytes());
}

#[test]
fn sawtooth_heap_growth_releases_memory() {
    // Grow to ~64 MiB, free everything, repeat; background release must
    // return memory between peaks instead of ratcheting.
    let (mut tcm, clock) = alloc(TcmallocConfig::baseline());
    let mut peak_resident_after_drain = 0;
    for round in 0..4 {
        let mut live = Vec::new();
        for i in 0..8_000u64 {
            let size = 4096 + (i % 1024);
            live.push((tcm.malloc(size, CpuId((i % 4) as u32)).addr, size));
        }
        for (addr, size) in live {
            tcm.free(addr, size, CpuId(0));
        }
        // Let the background release catch up.
        for _ in 0..40 {
            clock.advance(NS_PER_SEC / 20);
            tcm.maintain();
        }
        if round > 0 {
            peak_resident_after_drain = peak_resident_after_drain.max(tcm.resident_bytes());
        }
    }
    assert!(
        peak_resident_after_drain < 24 << 20,
        "memory ratcheted: {peak_resident_after_drain} bytes still resident"
    );
}

#[test]
fn thundering_herd_on_one_class() {
    // All 16 vCPUs hammer one size class concurrently (interleaved).
    let (mut tcm, _) = alloc(TcmallocConfig::optimized());
    let mut per_cpu: Vec<Vec<u64>> = vec![Vec::new(); 16];
    for i in 0..60_000u64 {
        let cpu = (i % 16) as u32;
        per_cpu[cpu as usize].push(tcm.malloc(128, CpuId(cpu)).addr);
        if per_cpu[cpu as usize].len() > 100 {
            let addr = per_cpu[cpu as usize].remove(0);
            tcm.free(addr, 128, CpuId(cpu));
        }
    }
    for (cpu, addrs) in per_cpu.into_iter().enumerate() {
        for addr in addrs {
            tcm.free(addr, 128, CpuId(cpu as u32));
        }
    }
    assert_eq!(tcm.live_bytes(), 0);
}

#[test]
fn giant_allocations() {
    // Multi-hundred-MiB allocations exercise the hugepage cache's run
    // handling and donation.
    let (mut tcm, _) = alloc(TcmallocConfig::baseline());
    let sizes = [256 << 20, 100 << 20, (512 << 20) + 12345];
    let mut live = Vec::new();
    for &size in &sizes {
        let a = tcm.malloc(size, CpuId(0));
        assert!(a.actual_bytes >= size);
        live.push((a.addr, size));
    }
    // Interleave a small allocation to land on donated slack.
    let small = tcm.malloc(100, CpuId(0));
    for (addr, size) in live {
        tcm.free(addr, size, CpuId(0));
    }
    tcm.free(small.addr, 100, CpuId(0));
    assert_eq!(tcm.live_bytes(), 0);
}

#[test]
fn long_idle_period_then_burst() {
    // Hours of simulated idleness (maintenance only), then a burst: the
    // decayed caches must rebuild without corruption.
    let (mut tcm, clock) = alloc(TcmallocConfig::optimized());
    let warm = tcm.malloc(64, CpuId(0));
    tcm.free(warm.addr, 64, CpuId(0));
    for _ in 0..100 {
        clock.advance(36 * NS_PER_SEC);
        tcm.maintain();
    }
    let mut live = Vec::new();
    for i in 0..10_000u64 {
        live.push(tcm.malloc(64, CpuId((i % 8) as u32)).addr);
    }
    for addr in live {
        tcm.free(addr, 64, CpuId(0));
    }
    assert_eq!(tcm.live_bytes(), 0);
}
