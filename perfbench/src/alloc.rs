//! Counting global allocator: the system allocator with an allocation count
//! and a byte count, taken only while [`measure`] runs. Installed in this
//! binary only. Outside `measure` an allocation pays one relaxed load of a
//! flag nobody writes; counting every allocation of every worker thread
//! instead made the two counters a contended cache line that cost the cold
//! workloads more CPU than the work itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with an allocation count and a byte count.
pub struct Counting;

fn note(size: usize) {
    // Relaxed throughout: the flag and counters are statistics and publish
    // no other data.
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` and return its result with the number of allocations and the
/// bytes requested while it ran — by every thread, so the figures are exact
/// only while no other thread is running (the layer walk is single-threaded).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let count = COUNT.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        COUNT.load(Ordering::Relaxed) - count,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}
