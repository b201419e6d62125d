//! Counting global allocator: per-scope allocation counts, bytes, and
//! peak live bytes, behind a single relaxed-load gate.
//!
//! [`CountingAlloc`] wraps [`System`] and is registered as the workspace
//! `#[global_allocator]` by this crate (every binary that links
//! `gpumech-perf` — the CLI, the bench harnesses, the fault suite — gets
//! it). While no [`AllocScope`] is open the allocator's only overhead is
//! one relaxed atomic load and a predicted branch per `alloc`/`dealloc`
//! (`alloc` also checks the `Once` of the one-time set-up below),
//! the same budget as a disabled obs probe; the counting RMWs happen only
//! while a scope is measuring.
//!
//! On Linux/glibc the first allocation also pins malloc's heap-retention
//! policy (`retain_heap`): a prediction builds tens of MiB of trace in a
//! few large blocks and frees them together, and with glibc's defaults that
//! hands the heap back to the kernel after every prediction, so the next
//! one page-faults all of it in again (a seventh of a cold prediction's
//! time on `cold_divergent`, and the part that varies most from run to run
//! on a virtualised host).
//!
//! # Caveats (see DESIGN.md "Performance telemetry")
//!
//! * Counters are **process-global**: allocations from *other* threads
//!   running concurrently with a scope are attributed to it. The perf
//!   suite runs its stages sequentially on one thread, where the numbers
//!   are exact and deterministic.
//! * Nested scopes share the peak-tracking register: the peak is only
//!   reset when the outermost scope begins, so inner scopes report an
//!   upper bound.
//! * Frees of memory allocated *before* a scope began reduce net-live
//!   below the scope baseline; deltas saturate at zero rather than wrap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Number of open [`AllocScope`]s; counting is active while nonzero.
static DEPTH: AtomicU64 = AtomicU64::new(0);
/// Total `alloc`/grow calls observed while counting.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Total bytes requested while counting.
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Total bytes freed while counting.
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `ALLOC_BYTES - FREED_BYTES` (net live bytes).
static PEAK_NET: AtomicU64 = AtomicU64::new(0);

/// `true` while at least one [`AllocScope`] is measuring — the one
/// relaxed load every disabled-path allocation reduces to.
#[inline]
#[must_use]
pub fn counting_enabled() -> bool {
    DEPTH.load(Ordering::Relaxed) != 0
}

#[inline]
fn net_live() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed).saturating_sub(FREED_BYTES.load(Ordering::Relaxed))
}

#[inline]
fn on_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    PEAK_NET.fetch_max(net_live(), Ordering::Relaxed);
}

#[inline]
fn on_free(size: usize) {
    FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

/// Runs [`retain_heap`] on the first allocation.
static HEAP_POLICY: Once = Once::new();

/// Free heap glibc keeps at the top of an arena before it gives any back.
/// Just under the 64 MiB heaps glibc builds a thread's arena from: at
/// 64 MiB or more a worker thread's arena would never shrink again (a
/// `gpumech serve` pass peaks at 450 MiB instead of 340).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const TRIM_THRESHOLD_BYTES: i32 = 56 << 20;
/// Blocks up to this size come from the heap rather than from their own
/// `mmap`; 32 MiB is the largest value glibc accepts.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const MMAP_THRESHOLD_BYTES: i32 = 32 << 20;

/// Tells glibc malloc to keep freed heap for reuse instead of returning it
/// to the kernel after each prediction. Fixing either threshold turns off
/// glibc's adaptive one, so both are set. A no-op on other C libraries.
fn retain_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's documented, thread-safe tuning call;
        // it takes plain integers and allocates nothing through this
        // allocator. A refused value leaves the default in place.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES);
            mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES);
        }
    }
}

/// [`System`] allocator wrapper that counts while a scope is open.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: defers every allocation to `System` unchanged; the counters are
// plain relaxed atomics and never influence the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_POLICY.call_once(retain_heap);
        if counting_enabled() {
            on_alloc(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting_enabled() {
            on_free(layout.size());
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_enabled() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Totals observed over one [`AllocScope`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocation calls (including realloc grows).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Peak net live bytes above the scope's baseline.
    pub peak_live_bytes: u64,
}

/// RAII measurement window over the counting allocator.
///
/// `begin` snapshots the counters (and, for the outermost scope, resets
/// the peak register to the current net-live level); [`AllocScope::delta`]
/// reads the deltas. Dropping the scope — **including on unwind** — ends
/// the window, so a panicking stage can never leave counting enabled.
#[derive(Debug)]
pub struct AllocScope {
    calls0: u64,
    bytes0: u64,
    net0: u64,
}

impl AllocScope {
    /// Opens a measurement window.
    #[must_use]
    pub fn begin() -> Self {
        let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
        let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
        let net0 = net_live();
        if DEPTH.fetch_add(1, Ordering::Relaxed) == 0 {
            PEAK_NET.store(net0, Ordering::Relaxed);
        }
        Self { calls0, bytes0, net0 }
    }

    /// Counter deltas since `begin`. Valid both mid-scope and from the
    /// value captured just before drop.
    #[must_use]
    pub fn delta(&self) -> AllocDelta {
        AllocDelta {
            allocs: ALLOC_CALLS.load(Ordering::Relaxed).saturating_sub(self.calls0),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed).saturating_sub(self.bytes0),
            peak_live_bytes: PEAK_NET.load(Ordering::Relaxed).saturating_sub(self.net0),
        }
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        DEPTH.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// The counters are process-global; serialize the tests that open
    /// scopes so their deltas don't bleed into each other.
    static SCOPE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn scope_counts_allocations_and_peak() {
        let _l = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!counting_enabled());
        let scope = AllocScope::begin();
        assert!(counting_enabled());
        let v: Vec<u8> = vec![0u8; 4096];
        drop(v);
        let w: Vec<u8> = vec![0u8; 1024];
        let d = scope.delta();
        drop(w);
        drop(scope);
        assert!(!counting_enabled());
        assert!(d.allocs >= 2, "two vecs → at least two allocs, got {}", d.allocs);
        assert!(d.bytes >= 5120, "bytes={} should cover both vecs", d.bytes);
        assert!(d.peak_live_bytes >= 4096, "peak={} should see the big vec", d.peak_live_bytes);
        assert!(d.peak_live_bytes < 1 << 30, "peak={} implausibly large", d.peak_live_bytes);
    }

    #[test]
    fn scope_closes_on_unwind() {
        let _l = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!counting_enabled());
        let result = std::panic::catch_unwind(|| {
            let _scope = AllocScope::begin();
            let _v: Vec<u8> = vec![0u8; 64];
            panic!("deliberate");
        });
        assert!(result.is_err());
        assert!(!counting_enabled(), "unwind must close the scope");
    }

    #[test]
    fn first_allocation_sets_the_heap_policy() {
        drop(std::hint::black_box(Box::new(0u8)));
        assert!(HEAP_POLICY.is_completed());
    }

    #[test]
    fn disabled_path_is_inert() {
        let _l = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!counting_enabled());
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let v: Vec<u8> = vec![0u8; 2048];
        drop(v);
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(before, after, "no scope open → no counting");
    }
}
