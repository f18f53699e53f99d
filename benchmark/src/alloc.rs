//! Allocation tallies for the traced binary.
//!
//! `benchmark-traced` installs [`CountingAlloc`] as its global allocator;
//! the timed `benchmark` binary does not, so its allocations cost what they
//! cost users and every tally below reads zero there. (`obs` has its own
//! counting allocator behind the `alloc-count` feature, but a feature is
//! per package build and would put the counter into the timed binary too.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

// Relaxed: each counter is a statistic that publishes no other data, and
// the benchmark reads them from the one thread that does the allocating.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper over the system allocator.
pub struct CountingAlloc;

fn on_alloc(size: u64) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    BYTES_ALLOCATED.fetch_add(size, Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
}

fn on_dealloc(size: u64) {
    LIVE_BYTES.fetch_sub(size, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged, so `System`'s guarantees
// carry over; the counter updates touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout` — the caller's `GlobalAlloc::dealloc` contract.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` was allocated by `System` through this wrapper.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Whether [`CountingAlloc`] is this process's global allocator.
pub fn counting() -> bool {
    let before = ALLOCATIONS.load(Relaxed);
    drop(std::hint::black_box(Box::new(0u64)));
    ALLOCATIONS.load(Relaxed) != before
}

/// Allocator activity inside one window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocation calls (a realloc counts as one).
    pub allocations: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Highest live heap above the level at the window's start.
    pub peak_growth: u64,
}

/// An open window; see [`Window::close`].
pub struct Window {
    allocations: u64,
    bytes: u64,
    live: u64,
}

impl Window {
    /// Open a window and restart peak tracking at the current live level.
    pub fn open() -> Window {
        let live = LIVE_BYTES.load(Relaxed);
        PEAK_LIVE_BYTES.store(live, Relaxed);
        Window {
            allocations: ALLOCATIONS.load(Relaxed),
            bytes: BYTES_ALLOCATED.load(Relaxed),
            live,
        }
    }

    pub fn close(self) -> AllocDelta {
        AllocDelta {
            allocations: ALLOCATIONS.load(Relaxed) - self.allocations,
            bytes: BYTES_ALLOCATED.load(Relaxed) - self.bytes,
            peak_growth: PEAK_LIVE_BYTES.load(Relaxed).saturating_sub(self.live),
        }
    }
}
