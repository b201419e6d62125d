//! Cooperative cancellation and deadlines for long-running pipeline work.
//!
//! The pipeline has no preemption: a trace replay, cache simulation, or
//! k-means refinement runs until it finishes. [`CancelToken`] is the
//! cooperative alternative — hot loops call [`CancelToken::check`] at
//! bounded intervals and bail out with a typed [`Interrupt`] when the
//! token was cancelled or its deadline passed. Tokens nest: a per-job
//! timeout token created with [`CancelToken::child_with_timeout_ms`]
//! observes its parent's cancellation and whole-run deadline as well as
//! its own budget.
//!
//! Deadlines are evaluated against the crate's [`Clock`] abstraction, so
//! tests drive them deterministically with a [`FakeClock`] instead of
//! sleeping.
//!
//! [`FakeClock`]: crate::FakeClock

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::clock::{Clock, RealClock};

/// Sentinel for "no deadline".
const NO_DEADLINE: u64 = u64::MAX;

/// Why a cooperative [`CancelToken::check`] refused to continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// The token (or an ancestor) was explicitly cancelled.
    Cancelled,
    /// The token's (or an ancestor's) deadline passed.
    DeadlineExceeded,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

struct Inner {
    cancelled: AtomicBool,
    /// Absolute deadline on `clock`'s timeline; [`NO_DEADLINE`] = none.
    deadline_ns: u64,
    clock: Arc<dyn Clock>,
    /// Parent token; checked before this token's own deadline so nested
    /// budgets observe ancestor cancellation.
    parent: Option<CancelToken>,
}

/// A cheaply clonable cancellation handle shared between the code that
/// requests an abort (or sets a deadline) and the loops that honor it.
///
/// Clones observe the same state: cancelling any clone cancels them all.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .field("deadline_ns", &self.deadline_ns())
            .field("has_parent", &self.inner.parent.is_some())
            .finish()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::never()
    }
}

impl CancelToken {
    fn from_parts(deadline_ns: u64, clock: Arc<dyn Clock>, parent: Option<CancelToken>) -> Self {
        CancelToken {
            inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline_ns, clock, parent }),
        }
    }

    /// A token with no deadline that only fires if [`cancel`]led.
    ///
    /// [`cancel`]: CancelToken::cancel
    #[must_use]
    pub fn never() -> Self {
        CancelToken::from_parts(NO_DEADLINE, Arc::new(RealClock), None)
    }

    /// A token with an absolute deadline on an injected clock — the
    /// deterministic test path (pass a [`FakeClock`](crate::FakeClock)).
    /// `deadline_ns` of `u64::MAX` means no deadline.
    #[must_use]
    pub fn with_clock(clock: Arc<dyn Clock>, deadline_ns: u64) -> Self {
        CancelToken::from_parts(deadline_ns, clock, None)
    }

    /// A child token whose budget is `ms` milliseconds from now, clamped
    /// to never outlive `self`: the child also reports [`Interrupt`]s for
    /// the parent's cancellation or deadline.
    #[must_use]
    pub fn child_with_timeout_ms(&self, ms: u64) -> Self {
        let deadline = self.inner.clock.now_ns().saturating_add(ms.saturating_mul(1_000_000));
        CancelToken::from_parts(deadline, Arc::clone(&self.inner.clock), Some(self.clone()))
    }

    /// Flags the token (and all clones) as cancelled. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called on this
    /// token, any clone, or any ancestor.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || self.inner.parent.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// This token's own absolute deadline in clock nanoseconds, if any
    /// (ancestors' deadlines are not folded in).
    #[must_use]
    pub fn deadline_ns(&self) -> Option<u64> {
        (self.inner.deadline_ns != NO_DEADLINE).then_some(self.inner.deadline_ns)
    }

    /// The cooperative check hot loops call: `Ok(())` to continue, or the
    /// [`Interrupt`] explaining why to stop. Explicit cancellation wins
    /// over deadlines; ancestors are consulted before this token's own
    /// deadline so a whole-run interrupt is reported as such even when a
    /// per-job budget also expired.
    ///
    /// # Errors
    ///
    /// [`Interrupt::Cancelled`] once any clone or ancestor was cancelled;
    /// [`Interrupt::DeadlineExceeded`] once a deadline passed.
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(Interrupt::Cancelled);
        }
        if let Some(parent) = &self.inner.parent {
            parent.check()?;
        }
        if self.inner.deadline_ns != NO_DEADLINE && self.inner.clock.now_ns() >= self.inner.deadline_ns
        {
            return Err(Interrupt::DeadlineExceeded);
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    #[test]
    fn never_token_only_fires_on_cancel() {
        let t = CancelToken::never();
        assert!(t.check().is_ok());
        assert!(!t.is_cancelled());
        assert!(t.deadline_ns().is_none());
        t.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn clones_share_cancellation() {
        let t = CancelToken::never();
        let c = t.clone();
        c.cancel();
        assert_eq!(t.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn deadline_fires_exactly_when_the_fake_clock_reaches_it() {
        // FakeClock ticks step_ns per now_ns() call, starting at 0.
        let clock = Arc::new(FakeClock::new(100));
        let t = CancelToken::with_clock(clock, 250);
        assert!(t.check().is_ok()); // now = 0
        assert!(t.check().is_ok()); // now = 100
        assert!(t.check().is_ok()); // now = 200
        assert_eq!(t.check(), Err(Interrupt::DeadlineExceeded)); // now = 300
    }

    #[test]
    fn cancellation_wins_over_an_expired_deadline() {
        let clock = Arc::new(FakeClock::new(1_000));
        let t = CancelToken::with_clock(clock, 1);
        t.cancel();
        assert_eq!(t.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn child_observes_parent_cancellation_and_deadline() {
        let clock: Arc<dyn Clock> = Arc::new(FakeClock::new(0));
        let parent = CancelToken::with_clock(Arc::clone(&clock), NO_DEADLINE);
        let child = parent.child_with_timeout_ms(5);
        assert!(child.check().is_ok());
        parent.cancel();
        assert!(child.is_cancelled());
        assert_eq!(child.check(), Err(Interrupt::Cancelled));

        // Parent deadline is reported before the child's own budget.
        let clock: Arc<dyn Clock> = Arc::new(FakeClock::new(10));
        let parent = CancelToken::with_clock(Arc::clone(&clock), 5);
        let child = parent.child_with_timeout_ms(1_000);
        while child.check().is_ok() {}
        assert_eq!(child.check(), Err(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn child_budget_fires_independently_of_an_unbounded_parent() {
        let clock: Arc<dyn Clock> = Arc::new(FakeClock::new(400_000));
        let parent = CancelToken::with_clock(clock, NO_DEADLINE);
        // Child budget: 1 ms = 1_000_000 ns from "now" (first tick).
        let child = parent.child_with_timeout_ms(1);
        let mut checks = 0usize;
        while child.check().is_ok() {
            checks += 1;
            assert!(checks < 100, "child deadline never fired");
        }
        assert_eq!(child.check(), Err(Interrupt::DeadlineExceeded));
        assert!(parent.check().is_ok() || parent.check().is_ok());
    }

    #[test]
    fn display_and_debug_are_stable() {
        assert_eq!(Interrupt::Cancelled.to_string(), "cancelled");
        assert_eq!(Interrupt::DeadlineExceeded.to_string(), "deadline exceeded");
        let t = CancelToken::never();
        let dbg = format!("{t:?}");
        assert!(dbg.contains("CancelToken"));
    }
}
