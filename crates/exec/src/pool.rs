//! The worker pool: deterministic work distribution with panic-isolated
//! workers, scoped threads when more than one is asked for.
//!
//! The pool is intentionally minimal — no channels, no futures, no
//! external crates. Work items are claimed off a shared atomic index and
//! each result is published into the slot of the item that produced it,
//! which gives the two properties the rest of the crate is built on:
//!
//! * **Determinism** — for pure tasks, the returned vector is identical
//!   for any worker count and any thread interleaving, because slot `i`
//!   only ever holds the result of item `i`.
//! * **Graceful degradation** — a panicking task poisons nothing but its
//!   own slot: the payload is caught in the worker, rendered into
//!   [`ExecError::WorkerPanic`], and the worker moves on to the next item.
//!
//! Fault injection (used by the `gpumech-fault` suite) can force a task
//! panic or — the nastier case — a panic *while holding the result-queue
//! lock*, which poisons the mutex. All lock acquisitions recover from
//! poisoning via [`PoisonError::into_inner`], so the only casualty is the
//! slot that was being written, which surfaces as
//! [`ExecError::ResultLost`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::ExecError;

/// Which fault the pool should inject (test/fault-suite hook).
///
/// The first two are *pool-level* faults triggered by the injection
/// checks inside [`run_indexed`]. The remaining
/// kinds are *batch-level* faults interpreted by
/// [`BatchEngine::run_with`](crate::batch::BatchEngine::run_with) inside
/// the job task itself — the pool never matches them, so they pass
/// through `run_indexed` unnoticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the start of the victim item's task.
    TaskPanic,
    /// Panic after acquiring the result-queue lock for the victim item,
    /// poisoning the mutex with the result unpublished.
    PanicHoldingQueueLock,
    /// Batch-level: the victim job never terminates on its own — it spins
    /// polling its [`CancelToken`](gpumech_obs::CancelToken) until a
    /// timeout or deadline fires. Models a hung analysis.
    SlowJob,
    /// Batch-level: the victim job panics on its *first* attempt only, so
    /// a retry policy with at least one retry recovers it. Models a
    /// transient fault.
    TransientPanic,
}

/// A deliberate fault to inject into one work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjection {
    /// Index of the victim item.
    pub item: usize,
    /// The fault to trigger.
    pub kind: FaultKind,
}

/// Pool configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolOptions {
    /// Workers to run. `0` means one worker, which runs on the caller's
    /// thread; the pool also never runs more workers than there are items.
    pub workers: usize,
    /// Optional deliberate fault (fault-suite hook). `None` in production.
    pub inject: Option<FaultInjection>,
}

impl PoolOptions {
    /// Options for `workers` threads with no fault injection.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self { workers, inject: None }
    }
}

/// Deliberately panics when `inject` targets item `i` with `kind`.
///
/// The only sanctioned panic site in this crate: it exists so the fault
/// suite can prove the pool (and the batch retry loop, which calls it for
/// [`FaultKind::TransientPanic`]) contains arbitrary task panics, and it
/// is disabled (`inject: None`) on every production path.
#[allow(clippy::panic)]
pub(crate) fn maybe_inject(inject: Option<FaultInjection>, i: usize, kind: FaultKind) {
    if let Some(f) = inject {
        if f.item == i && f.kind == kind {
            panic!("injected fault {kind:?} on item {i}");
        }
    }
}

/// Renders a caught panic payload for the error message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `task` over every item, returning one outcome per item, in item
/// order.
///
/// Items are claimed by atomic index (a deterministic work queue: no
/// per-worker sharding, no stealing) and results are published into the
/// claiming item's slot, so for pure tasks the output is bit-identical
/// for any worker count. A panicking task yields
/// [`ExecError::WorkerPanic`] for its item only; the batch always
/// completes.
///
/// One worker runs the claim loop on the caller's thread, so its tasks'
/// spans nest under `exec.pool.run`; more workers each run the same loop
/// on a scoped thread of their own.
pub fn run_indexed<T, R, F>(opts: &PoolOptions, items: &[T], task: F) -> Vec<Result<R, ExecError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, ExecError> + Sync,
{
    let workers = opts.workers.max(1).min(items.len().max(1));
    let _span = gpumech_obs::span!("exec.pool.run", workers = workers, items = items.len());
    let next = AtomicUsize::new(0);
    let panics = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<R, ExecError>>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(items.len()).collect());

    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            maybe_inject(opts.inject, i, FaultKind::TaskPanic);
            task(i, item)
        }))
        .unwrap_or_else(|payload| {
            panics.fetch_add(1, Ordering::Relaxed);
            Err(ExecError::WorkerPanic { item: i, message: panic_message(&*payload) })
        });
        // Publication is separately contained: an (injected) panic while
        // holding the lock poisons the mutex and drops this item's
        // outcome, but must not take down the worker.
        let published = catch_unwind(AssertUnwindSafe(|| {
            let mut slots = results.lock().unwrap_or_else(PoisonError::into_inner);
            maybe_inject(opts.inject, i, FaultKind::PanicHoldingQueueLock);
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(outcome);
            }
        }));
        if published.is_err() {
            panics.fetch_add(1, Ordering::Relaxed);
        }
    };
    if workers == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }

    gpumech_obs::counter!("exec.pool.tasks", items.len() as u64);
    gpumech_obs::counter!("exec.pool.panics", panics.load(Ordering::Relaxed) as u64);
    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or(Err(ExecError::ResultLost { item: i })))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_item_order_for_any_worker_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 128] {
            let got: Vec<usize> = run_indexed(&PoolOptions::new(workers), &items, |_, &x| {
                Ok(x * x)
            })
            .into_iter()
            .map(Result::unwrap)
            .collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn zero_workers_still_runs_everything() {
        let items = [1u64, 2, 3];
        let got = run_indexed(&PoolOptions::new(0), &items, |_, &x| Ok(x + 1));
        assert_eq!(got.into_iter().map(Result::unwrap).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u8; 0] = [];
        let got = run_indexed(&PoolOptions::new(4), &items, |_, _| Ok(0u8));
        assert!(got.is_empty());
    }

    #[test]
    fn one_worker_runs_on_the_caller_and_still_contains_both_fault_kinds() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..5).collect();
        for kind in [FaultKind::TaskPanic, FaultKind::PanicHoldingQueueLock] {
            let opts = PoolOptions { workers: 1, inject: Some(FaultInjection { item: 2, kind }) };
            let got = run_indexed(&opts, &items, |_, _| Ok(std::thread::current().id()));
            for (i, r) in got.iter().enumerate() {
                match (i, kind, r) {
                    (2, FaultKind::TaskPanic, Err(ExecError::WorkerPanic { item: 2, .. }))
                    | (2, FaultKind::PanicHoldingQueueLock, Err(ExecError::ResultLost { item: 2 })) => {}
                    (2, ..) => panic!("{kind:?}: wrong degradation {r:?}"),
                    _ => assert_eq!(*r.as_ref().unwrap(), caller, "{kind:?} item {i}"),
                }
            }
        }
    }

    #[test]
    fn task_errors_stay_typed_and_isolated() {
        let items: Vec<usize> = (0..10).collect();
        let got = run_indexed(&PoolOptions::new(3), &items, |i, &x| {
            if i == 4 {
                Err(ExecError::Model(gpumech_core::ModelError::EmptyKernel))
            } else {
                Ok(x)
            }
        });
        for (i, r) in got.iter().enumerate() {
            if i == 4 {
                assert!(matches!(r, Err(ExecError::Model(_))));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }
}
