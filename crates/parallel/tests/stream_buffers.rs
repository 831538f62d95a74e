//! Where a [`pipeline`]'s batch buffers come from. On the helper-thread
//! transport the caller allocates every buffer the stream can have in
//! flight before the helper starts, so the helper's producer asks the host
//! for none: a buffer it allocated would come from the helper's own malloc
//! arena, whose pages stay resident after the stream ends. The counter is a
//! `#[global_allocator]` wrapper over [`System`], which is why this file is
//! its own test binary. On a one-CPU host the stream runs on the calling
//! thread and buffers nothing, so the count is trivially zero.

// The counting allocator must implement `GlobalAlloc`, an unsafe trait.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsc_parallel::{pipeline, Emit, Producer};

/// A batch of 1 024 `u64` records is 8 KiB; nothing else the producer
/// below does allocates that much.
const BATCH_BYTES: usize = 1024 * std::mem::size_of::<u64>();

thread_local! {
    /// Allocations of at least [`BATCH_BYTES`] made by this thread. Const
    /// initialised and without a destructor, so touching it from inside
    /// the allocator never allocates.
    static BATCH_SIZED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(size: usize) {
        if size >= BATCH_BYTES {
            // `try_with`: a thread tearing down may allocate after its
            // thread-locals are gone.
            let _ = BATCH_SIZED.try_with(|c| c.set(c.get() + 1));
        }
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

/// Emits `0..n` and returns the batch-sized allocations its own thread
/// made while emitting.
struct Count(u64);

impl Producer<u64> for Count {
    type Output = u64;

    fn produce<E: Emit<u64>>(self, out: &mut E) -> u64 {
        let before = BATCH_SIZED.get();
        (0..self.0).for_each(|x| out.emit(x));
        BATCH_SIZED.get() - before
    }
}

#[test]
fn the_producer_allocates_no_batch_buffer() {
    const RECORDS: u64 = 200 * 1024 + 3;
    // A fast consumer keeps the channel empty; a slow one keeps it full,
    // so the producer blocks on every send.
    for spin in [0u32, 200] {
        let mut sum = 0u64;
        let helper_allocs = pipeline(Count(RECORDS), |x| {
            for _ in 0..spin {
                std::hint::spin_loop();
            }
            sum += x;
        });
        assert_eq!(sum, RECORDS * (RECORDS - 1) / 2, "spin {spin}");
        assert_eq!(
            helper_allocs, 0,
            "spin {spin}: the producer allocated batches"
        );
    }
}
