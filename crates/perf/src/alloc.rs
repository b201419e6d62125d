//! Counting global allocator: per-scope allocation counts, bytes, and
//! peak live bytes, behind a single relaxed-load gate.
//!
//! [`CountingAlloc`] wraps [`System`] and is registered as the workspace
//! `#[global_allocator]` by this crate (every binary that links
//! `gpumech-perf` — the CLI, the benchmark, the fault suite — gets
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
//! * Counters are **per thread**: a scope sees exactly the allocations of
//!   the thread that opened it, whatever other threads do meanwhile, and
//!   nothing of the threads it spawns (the workers of a multi-worker batch
//!   engine, a server's handlers). The counters are `const`-initialised
//!   `thread_local!` [`Cell`]s without destructors, so reading them from
//!   inside the allocator neither allocates nor re-enters it. An
//!   [`AllocScope`] must be read on the thread that opened it.
//! * The gate is process-wide: while any thread has a scope open, every
//!   thread counts (into its own cells).
//! * Nested scopes share the thread's peak-tracking register: the peak is
//!   only reset when the thread's outermost scope begins, so inner scopes
//!   report an upper bound.
//! * Frees of memory allocated *before* a scope began, or by another
//!   thread, reduce net-live below the scope baseline; the peak saturates
//!   at zero rather than wrap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Number of open [`AllocScope`]s over all threads; counting is active
/// while nonzero.
static DEPTH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Open [`AllocScope`]s of this thread.
    static THREAD_DEPTH: Cell<u64> = const { Cell::new(0) };
    /// `alloc`/grow calls this thread made while counting.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread requested while counting.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread freed while counting.
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
    /// High-water mark of [`net_live`].
    static PEAK_NET: Cell<i64> = const { Cell::new(0) };
}

/// `true` while at least one [`AllocScope`] is measuring — the one
/// relaxed load every disabled-path allocation reduces to.
#[inline]
#[must_use]
pub fn counting_enabled() -> bool {
    DEPTH.load(Ordering::Relaxed) != 0
}

/// Bytes this thread allocated minus bytes it freed while counting:
/// negative once it has freed memory from before the gate opened, or
/// another thread's.
#[inline]
fn net_live() -> i64 {
    ALLOC_BYTES.get().wrapping_sub(FREED_BYTES.get()) as i64
}

#[inline]
fn on_alloc(size: usize) {
    ALLOC_CALLS.set(ALLOC_CALLS.get() + 1);
    ALLOC_BYTES.set(ALLOC_BYTES.get() + size as u64);
    PEAK_NET.set(PEAK_NET.get().max(net_live()));
}

#[inline]
fn on_free(size: usize) {
    FREED_BYTES.set(FREED_BYTES.get() + size as u64);
}

/// Runs [`retain_heap`] on the first allocation.
static HEAP_POLICY: Once = Once::new();

/// Free heap glibc keeps at the top of an arena before it gives any back.
/// Just under the 64 MiB heaps glibc builds a thread's arena from: at
/// 64 MiB or more a worker thread's arena would never shrink again (a
/// `gpumech serve` pass peaks at 450 MiB instead of 340). Up to this much
/// per arena is still kept after its threads exit; a drained
/// `gpumech_serve::Server` hands it back with `malloc_trim` before `run`
/// returns, so fresh servers do not stack retained arenas.
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
// one relaxed atomic and `const`-initialised thread-local cells without
// destructors (reading them allocates nothing and registers nothing), and
// never influence the returned pointers.
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

/// RAII measurement window over the counting allocator, for the thread
/// that opens it.
///
/// `begin` snapshots the thread's counters (and, for the thread's
/// outermost scope, resets the peak register to the current net-live
/// level); [`AllocScope::delta`] reads the deltas. Dropping the scope —
/// **including on unwind** — ends the window, so a panicking stage can
/// never leave counting enabled.
#[derive(Debug)]
pub struct AllocScope {
    calls0: u64,
    bytes0: u64,
    net0: i64,
    /// The snapshots are of one thread's counters: not `Send`.
    _this_thread: PhantomData<*const ()>,
}

impl AllocScope {
    /// Opens a measurement window.
    #[must_use]
    pub fn begin() -> Self {
        let calls0 = ALLOC_CALLS.get();
        let bytes0 = ALLOC_BYTES.get();
        let net0 = net_live();
        if THREAD_DEPTH.replace(THREAD_DEPTH.get() + 1) == 0 {
            PEAK_NET.set(net0);
        }
        DEPTH.fetch_add(1, Ordering::Relaxed);
        Self { calls0, bytes0, net0, _this_thread: PhantomData }
    }

    /// Counter deltas since `begin`. Valid both mid-scope and from the
    /// value captured just before drop.
    #[must_use]
    pub fn delta(&self) -> AllocDelta {
        AllocDelta {
            allocs: ALLOC_CALLS.get().saturating_sub(self.calls0),
            bytes: ALLOC_BYTES.get().saturating_sub(self.bytes0),
            peak_live_bytes: u64::try_from(PEAK_NET.get().saturating_sub(self.net0)).unwrap_or(0),
        }
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        DEPTH.fetch_sub(1, Ordering::Relaxed);
        THREAD_DEPTH.set(THREAD_DEPTH.get().saturating_sub(1));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// The gate is process-wide; serialize the tests that assert it is
    /// closed against the ones that open scopes.
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
    fn scope_counts_only_its_own_thread() {
        use std::sync::atomic::AtomicBool;
        let _l = SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let (go, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let noise = AtomicU64::new(0);
        let d = std::thread::scope(|s| {
            s.spawn(|| {
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                while !stop.load(Ordering::Acquire) {
                    drop(std::hint::black_box(vec![0u8; 256]));
                    noise.fetch_add(1, Ordering::Release);
                }
            });
            // Spawning allocates on this thread: the scope opens after it.
            let scope = AllocScope::begin();
            go.store(true, Ordering::Release);
            // The other thread is allocating, under the open gate, before
            // and while this one makes its two allocations.
            while noise.load(Ordering::Acquire) < 1_000 {
                std::hint::spin_loop();
            }
            let v: Vec<u8> = Vec::with_capacity(4096);
            let b = Box::new(0u64);
            let d = scope.delta();
            let during = noise.load(Ordering::Acquire);
            while noise.load(Ordering::Acquire) < during + 1_000 {
                std::hint::spin_loop();
            }
            assert_eq!(scope.delta(), d, "the other thread's allocations leaked in");
            stop.store(true, Ordering::Release);
            drop((v, b, scope));
            d
        });
        assert_eq!(d, AllocDelta { allocs: 2, bytes: 4104, peak_live_bytes: 4104 });
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
        let before = ALLOC_CALLS.get();
        let v: Vec<u8> = vec![0u8; 2048];
        drop(v);
        let after = ALLOC_CALLS.get();
        assert_eq!(before, after, "no scope open → no counting");
    }
}
