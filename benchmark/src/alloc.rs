//! Counting global allocator, installed only by the traced binary.
//!
//! Forwards every request to the system allocator. While counting is
//! switched on by [`measure`], each allocation and reallocation adds one
//! call and its requested size in bytes to per-thread totals; [`measure`]
//! reports the calling thread's. Per-thread counters keep counting cheap:
//! shared atomic counters made the two-worker `seed_sweep` 75% slower.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// The traced binary's global allocator.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Constant-initialised without destructors, so touching them never
    // allocates and is safe from inside the allocator.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn record(size: usize) {
    if COUNTING.load(Relaxed) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that no
// allocation decision reads.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the calling thread while one measured call ran.
#[derive(Debug, Clone, Copy)]
pub struct AllocStats {
    /// Allocation plus reallocation calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocStats {
    /// Requested bytes in MiB.
    pub fn mib(&self) -> f64 {
        self.bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Whether the running binary installed [`Counting`] as its global
/// allocator.
pub fn installed() -> bool {
    measure(|| std::hint::black_box(Vec::<u8>::with_capacity(1))).1.calls > 0
}

/// Runs `f` with counting on and returns its result and the allocations
/// `f` made on the calling thread; threads `f` spawns are not counted.
/// Calls must not nest.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    let (calls0, bytes0) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    let calls = CALLS.with(Cell::get) - calls0;
    (out, AllocStats { calls, bytes: BYTES.with(Cell::get) - bytes0 })
}
