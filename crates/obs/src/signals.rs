//! SIGTERM/SIGINT plumbing without the `libc` crate, for `gpumech
//! serve`'s signal watcher: an async-signal-safe handler that stores into
//! a process-global flag the watcher polls, and the matching senders the
//! test harnesses use. No-ops off Unix.

use std::sync::atomic::{AtomicBool, Ordering};

static FIRED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // An atomic store is async-signal-safe; everything else happens on
    // the polling loop when it next calls `fired`.
    FIRED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Installs the SIGINT/SIGTERM handler.
pub fn install() {
    // SAFETY: `on_signal` only performs an atomic store, and both
    // SIGINT (2) and SIGTERM (15) are catchable signals.
    #[cfg(unix)]
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

/// `true` once SIGINT or SIGTERM arrived after [`install`].
#[must_use]
pub fn fired() -> bool {
    FIRED.load(Ordering::SeqCst)
}

/// Sends `sig` to `pid`; `false` off Unix or if it could not be delivered.
fn send(pid: u32, sig: i32) -> bool {
    #[cfg(unix)]
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: plain syscall wrapper; no memory is touched.
        return unsafe { kill(pid, sig) == 0 };
    }
    let _ = (pid, sig);
    false
}

/// Sends SIGTERM to `pid` — the graceful-drain request. Returns `false`
/// on non-Unix platforms or if the signal could not be delivered.
#[must_use]
pub fn send_sigterm(pid: u32) -> bool {
    send(pid, 15)
}

/// Sends SIGKILL to `pid`. Chaos helper: the load harness murders a
/// server mid-load to prove the crash-safe cache survives and a restart
/// comes back ready. Returns `false` on non-Unix platforms or failure.
#[must_use]
pub fn send_sigkill(pid: u32) -> bool {
    send(pid, 9)
}
