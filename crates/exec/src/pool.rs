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
//! Only the task runs under `catch_unwind`: publishing its outcome is a
//! lock and a slot store, which cannot panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::ExecError;

/// Renders a caught panic payload for an error message.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
///
/// `workers` of `0` means one; the pool never runs more workers than
/// there are items.
pub fn run_indexed<T, R, F>(workers: usize, items: &[T], task: F) -> Vec<Result<R, ExecError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, ExecError> + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    let _span = gpumech_obs::span!("exec.pool.run", workers = workers, items = items.len());
    let next = AtomicUsize::new(0);
    let panics = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<R, ExecError>>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(items.len()).collect());

    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let outcome = catch_unwind(AssertUnwindSafe(|| task(i, item))).unwrap_or_else(|payload| {
            panics.fetch_add(1, Ordering::Relaxed);
            Err(ExecError::WorkerPanic { item: i, message: panic_message(&*payload) })
        });
        if let Some(slot) = results.lock().unwrap_or_else(PoisonError::into_inner).get_mut(i) {
            *slot = Some(outcome);
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
    // Every index below `items.len()` is claimed once and its slot filled.
    results.into_inner().unwrap_or_else(PoisonError::into_inner).into_iter().flatten().collect()
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
            let got: Vec<usize> = run_indexed(workers, &items, |_, &x| Ok(x * x))
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn zero_workers_still_runs_everything() {
        let items = [1u64, 2, 3];
        let got = run_indexed(0, &items, |_, &x| Ok(x + 1));
        assert_eq!(got.into_iter().map(Result::unwrap).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u8; 0] = [];
        let got = run_indexed(4, &items, |_, _| Ok(0u8));
        assert!(got.is_empty());
    }

    #[test]
    fn one_worker_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let got = run_indexed(1, &[0u8; 5], |_, _| Ok(std::thread::current().id()));
        assert!(got.into_iter().all(|r| r.unwrap() == caller));
    }

    #[test]
    fn task_errors_stay_typed_and_isolated() {
        let items: Vec<usize> = (0..10).collect();
        let got = run_indexed(3, &items, |i, &x| {
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
