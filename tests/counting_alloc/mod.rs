//! A counting `#[global_allocator]` for the allocation acceptance tests: it
//! wraps the system allocator and counts every `alloc`/`alloc_zeroed`/
//! `realloc` made while a measurement is open, and the size of the largest
//! block freed. A test file that includes
//! this module should hold exactly one test, so it runs alone in its own
//! process and no concurrent test can disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static LARGEST_FREE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn note() {
    // Relaxed: a flag and a statistic, publishing no other data.
    if COUNTING.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LARGEST_FREE.fetch_max(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations made while it ran.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, COUNT.load(Ordering::Relaxed) - before)
}

/// Run `f`, returning its result and the size in bytes of the largest block
/// freed while it ran: dropping a `Vec` inside `f` frees its whole capacity.
#[allow(dead_code)] // only the files that pin a footprint call it
pub fn largest_free<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST_FREE.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, LARGEST_FREE.load(Ordering::Relaxed))
}
