//! The `gpumech` binary: a thin dispatcher over [`gpumech_cli::run`].
//!
//! Exit taxonomy (documented in the README): 0 = success, 1 = usage or
//! pipeline error, 2 = `lint` found Error-severity findings. 3, 4 and 5
//! are retired (they were the removed trace validator's, perf gate's and
//! shard merge's) and not reused. CI gates on the distinction: a
//! defective *kernel* (2) is actionable differently from a broken
//! *invocation* (1).

use std::process::ExitCode;

fn main() -> ExitCode {
    match gpumech_cli::run(std::env::args().skip(1)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            // A failed check still prints its full report (to stdout, like
            // a successful run) — the findings, the comparison table —
            // before the one-line error.
            let code = match e.report() {
                Some((report, code)) => {
                    print!("{report}");
                    code
                }
                None => 1,
            };
            eprintln!("error: {e}");
            ExitCode::from(code)
        }
    }
}
