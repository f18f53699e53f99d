//! Allocation telemetry behind the `alloc-count` feature.
//!
//! ROADMAP open item 1 (arena/SoA job and event storage) is an *allocation*
//! optimization, and the perf gate cannot hold a line it cannot see: wall
//! time is too noisy to resolve allocator churn and the work counters only
//! count algorithmic scans. This module adds the missing axis — a counting
//! [`core::alloc::GlobalAlloc`] wrapper around `std::alloc::System` that
//! tallies allocation/deallocation calls, bytes, and the peak live-byte
//! high-water mark, exposed per run.
//!
//! Three deliberate properties:
//!
//! * **Feature-gated, off by default.** The wrapper costs a few relaxed
//!   atomic ops per heap call; production and tier-1 test builds keep the
//!   plain system allocator. Every public function here still exists
//!   without the feature and returns zeros, so callers never `cfg`.
//! * **Reporting-only.** Counts feed `RunReport`/`PerfBaseline` and never
//!   influence scheduling; determinism of the simulation is untouched.
//! * **Deterministic per build.** Allocation counts are a pure function of
//!   the replay (no hash randomization, no wall-clock), so `perf compare`
//!   gates them *exactly* — but they are only comparable across identical
//!   toolchains, which is why they live beside (not inside) the work
//!   counters. Counts are process-global: window deltas taken by
//!   [`mark`]/[`since`] are only meaningful while one replay runs at a
//!   time (the bench harness and CLI are sequential; see DESIGN.md §14).
//!
//! [`AllocCounters`] mirrors [`crate::work::WorkCounters`]: canonical
//! `fields()` order shared by serializer/parser/compare, associative and
//! commutative `merge` (sums, peak as max) so a fleet runner can fold
//! per-shard counters.

use crate::json;

/// The number of individual counters in [`AllocCounters::fields`].
pub const FIELD_COUNT: usize = 5;

/// Per-window allocation tallies (see module docs).
///
/// Plain `Copy` data, mirroring [`crate::work::WorkCounters`]: merging is
/// fieldwise sums except the peak, which folds as a max — associative and
/// commutative with a fresh instance as identity on the counter values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounters {
    enabled: bool,
    /// Heap allocation calls (including the alloc half of each realloc).
    pub allocations: u64,
    /// Heap deallocation calls (including the free half of each realloc).
    pub deallocations: u64,
    /// Bytes requested across all allocation calls.
    pub bytes_allocated: u64,
    /// Bytes returned across all deallocation calls.
    pub bytes_freed: u64,
    /// High-water mark of live bytes above the window's starting level.
    pub peak_live_bytes: u64,
}

impl AllocCounters {
    /// Counting off — the zero-cost default.
    pub fn disabled() -> Self {
        AllocCounters::default()
    }

    /// Counting on (an empty window; real data comes from [`since`]).
    pub fn enabled() -> Self {
        AllocCounters {
            enabled: true,
            ..AllocCounters::default()
        }
    }

    /// Did this window come from a build with the counting allocator?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// All counters as `(name, value)` pairs in canonical (JSON) order.
    ///
    /// The single source of truth for serialization, parsing and the
    /// perf-compare diff, exactly like `WorkCounters::fields`.
    pub fn fields(&self) -> [(&'static str, u64); FIELD_COUNT] {
        [
            ("allocations", self.allocations),
            ("deallocations", self.deallocations),
            ("bytes_allocated", self.bytes_allocated),
            ("bytes_freed", self.bytes_freed),
            ("peak_live_bytes", self.peak_live_bytes),
        ]
    }

    /// Set a counter by its canonical name; false if the name is unknown.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "allocations" => &mut self.allocations,
            "deallocations" => &mut self.deallocations,
            "bytes_allocated" => &mut self.bytes_allocated,
            "bytes_freed" => &mut self.bytes_freed,
            "peak_live_bytes" => &mut self.peak_live_bytes,
            _ => return false,
        };
        *slot = value;
        true
    }

    /// Combine two windows: sums everywhere, max for the peak.
    ///
    /// Associative and commutative; merging with a fresh instance is the
    /// identity on counter values. Enablement is sticky (`or`).
    pub fn merge(&self, other: &AllocCounters) -> AllocCounters {
        AllocCounters {
            enabled: self.enabled || other.enabled,
            allocations: self.allocations + other.allocations,
            deallocations: self.deallocations + other.deallocations,
            bytes_allocated: self.bytes_allocated + other.bytes_allocated,
            bytes_freed: self.bytes_freed + other.bytes_freed,
            peak_live_bytes: self.peak_live_bytes.max(other.peak_live_bytes),
        }
    }

    /// Append `{"allocations":N,…}` to `out` in canonical field order.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        for (name, value) in self.fields() {
            first = json::push_u64_field(out, first, name, value);
        }
        out.push('}');
    }

    /// The counters as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Is the counting allocator compiled into this build?
pub const fn counting_enabled() -> bool {
    cfg!(feature = "alloc-count")
}

/// A snapshot of the cumulative process tallies, opening a measurement
/// window. Pass it to [`since`] to close the window.
#[derive(Clone, Copy, Debug, Default)]
// The fields are only read by `since` when alloc-count is compiled in.
#[cfg_attr(not(feature = "alloc-count"), allow(dead_code))]
pub struct AllocMark {
    allocations: u64,
    deallocations: u64,
    bytes_allocated: u64,
    bytes_freed: u64,
    live_at_mark: u64,
}

#[cfg(feature = "alloc-count")]
mod counting {
    //! The counting wrapper itself. Relaxed atomics: tallies need no
    //! ordering guarantees, only eventual sums — and the simulator is
    //! single-threaded wherever windows are interpreted.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    pub static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    pub static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
    pub static BYTES_FREED: AtomicU64 = AtomicU64::new(0);
    pub static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    pub static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    fn on_alloc(size: u64) {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES_ALLOCATED.fetch_add(size, Relaxed);
        let live = LIVE_BYTES.fetch_add(size, Relaxed) + size;
        PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
    }

    fn on_dealloc(size: u64) {
        DEALLOCATIONS.fetch_add(1, Relaxed);
        BYTES_FREED.fetch_add(size, Relaxed);
        LIVE_BYTES.fetch_sub(size, Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            on_dealloc(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                // A realloc is one free plus one allocation — counted as
                // such so allocations - deallocations tracks live blocks.
                on_dealloc(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Open a measurement window: snapshot the cumulative tallies and reset
/// the peak tracker to the current live level, so the window's peak is the
/// high-water mark *within* the window. Zeros without `alloc-count`.
pub fn mark() -> AllocMark {
    #[cfg(feature = "alloc-count")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        let live = counting::LIVE_BYTES.load(Relaxed);
        counting::PEAK_LIVE_BYTES.store(live, Relaxed);
        AllocMark {
            allocations: counting::ALLOCATIONS.load(Relaxed),
            deallocations: counting::DEALLOCATIONS.load(Relaxed),
            bytes_allocated: counting::BYTES_ALLOCATED.load(Relaxed),
            bytes_freed: counting::BYTES_FREED.load(Relaxed),
            live_at_mark: live,
        }
    }
    #[cfg(not(feature = "alloc-count"))]
    AllocMark::default()
}

/// Close a window opened by [`mark`]: the allocator activity since, with
/// `peak_live_bytes` as the maximum live growth over the window. Returns
/// a disabled all-zero instance without `alloc-count`.
pub fn since(m: &AllocMark) -> AllocCounters {
    #[cfg(feature = "alloc-count")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        AllocCounters {
            enabled: true,
            allocations: counting::ALLOCATIONS
                .load(Relaxed)
                .wrapping_sub(m.allocations),
            deallocations: counting::DEALLOCATIONS
                .load(Relaxed)
                .wrapping_sub(m.deallocations),
            bytes_allocated: counting::BYTES_ALLOCATED
                .load(Relaxed)
                .wrapping_sub(m.bytes_allocated),
            bytes_freed: counting::BYTES_FREED
                .load(Relaxed)
                .wrapping_sub(m.bytes_freed),
            peak_live_bytes: counting::PEAK_LIVE_BYTES
                .load(Relaxed)
                .saturating_sub(m.live_at_mark),
        }
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        let _ = m;
        AllocCounters::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> AllocCounters {
        // Same LCG pattern as the WorkCounters merge-algebra tests.
        let mut c = AllocCounters::enabled();
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for (name, _) in AllocCounters::default().fields() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            assert!(c.set_field(name, x >> 33));
        }
        c
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (sample(1), sample(2), sample(3));
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    }

    #[test]
    fn merge_identity_is_the_fresh_instance() {
        let a = sample(9);
        assert_eq!(a.merge(&AllocCounters::enabled()), a);
        let via_disabled = a.merge(&AllocCounters::disabled());
        assert_eq!(via_disabled.fields(), a.fields());
    }

    #[test]
    fn json_is_canonical_and_complete() {
        let mut c = AllocCounters::enabled();
        assert!(c.set_field("allocations", 3));
        assert!(c.set_field("bytes_allocated", 256));
        assert!(c.set_field("peak_live_bytes", 128));
        assert_eq!(
            c.to_json(),
            "{\"allocations\":3,\"deallocations\":0,\"bytes_allocated\":256,\
             \"bytes_freed\":0,\"peak_live_bytes\":128}"
        );
        assert_eq!(c.fields().len(), FIELD_COUNT);
        assert!(!c.set_field("no_such_counter", 1));
    }

    #[test]
    fn window_without_feature_is_disabled_zeroes() {
        // Without alloc-count the window API is inert; with it, allocating
        // inside a window must register (tolerant >=: other test threads
        // share the process-global tallies).
        let m = mark();
        let v: Vec<u64> = (0..4096).collect();
        let w = since(&m);
        assert_eq!(w.is_enabled(), counting_enabled());
        if counting_enabled() {
            assert!(w.allocations >= 1, "{w:?}");
            assert!(w.bytes_allocated >= 4096 * 8, "{w:?}");
            assert!(w.peak_live_bytes >= 4096 * 8, "{w:?}");
        } else {
            assert_eq!(w, AllocCounters::disabled());
        }
        drop(v);
    }
}
