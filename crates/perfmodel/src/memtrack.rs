//! Peak-memory measurement via a counting global allocator.
//!
//! The paper reports peak compilation memory (Figures 8 and 15, Table 7b).
//! To *measure* rather than model it, binaries that want these numbers
//! install [`CountingAlloc`] as their global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rteaal_perfmodel::memtrack::CountingAlloc =
//!     rteaal_perfmodel::memtrack::CountingAlloc;
//! ```
//!
//! and wrap each compile phase in [`measure`], which returns the phase's
//! result together with the peak live-byte delta during the phase. When
//! the allocator is not installed the deltas are zero, and the harness
//! prints "n/a" instead of a misleading zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator that tracks live and peak bytes.
pub struct CountingAlloc;

// SAFETY: delegates all allocation to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded as-is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded as-is.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; forwarded as-is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size();
            if new_size >= old {
                let live = LIVE.fetch_add(new_size - old, Ordering::Relaxed) + (new_size - old);
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(old - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Runs `f` and returns `(result, peak_delta_bytes)`: the high-water mark
/// of live bytes during `f`, relative to the live bytes at entry.
///
/// Not reentrant: concurrent `measure` calls see each other's
/// allocations (the paper's compile-phase measurements are sequential).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let r = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (r, peak.saturating_sub(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Both tests use the process-wide counters, and the test harness
    /// runs tests on parallel threads: each holds this while it does.
    static COUNTERS: Mutex<()> = Mutex::new(());

    // The test binary does not install the allocator, so the counters
    // must stay quiet and `measure` must degrade gracefully.
    #[test]
    fn inactive_allocator_reports_zero() {
        let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        let (value, peak) = measure(|| vec![0u8; 1 << 20].len());
        assert_eq!(value, 1 << 20);
        assert_eq!(peak, 0);
        assert_eq!(LIVE.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn bookkeeping_math() {
        let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        // Exercise the counters directly (as the allocator hooks would).
        LIVE.store(100, Ordering::Relaxed);
        PEAK.store(100, Ordering::Relaxed);
        let live = LIVE.fetch_add(50, Ordering::Relaxed) + 50;
        PEAK.fetch_max(live, Ordering::Relaxed);
        assert_eq!(PEAK.load(Ordering::Relaxed), 150);
        LIVE.fetch_sub(150, Ordering::Relaxed);
        assert_eq!(LIVE.load(Ordering::Relaxed), 0);
        PEAK.store(0, Ordering::Relaxed);
    }
}
