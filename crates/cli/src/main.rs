//! The `gpumech` binary: a thin dispatcher over [`gpumech_cli::run`].
//!
//! Exit taxonomy (documented in the README): 0 = success, 1 = usage or
//! pipeline error, 2 = `lint` found Error-severity findings, 3 =
//! `obs-validate` found schema violations, 5 = `merge` found merge
//! findings — corrupt shard files, coverage gaps, duplicate conflicts, or
//! an `--expect` byte mismatch. 4 is retired (it was the removed perf
//! gate's) and not reused, so scripts keyed on 5 keep working. CI gates on the
//! distinction: a defective *kernel* (2), a malformed *trace* (3) and an
//! *unsafe merge* (5) are each actionable differently from a broken
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
            // a successful run) — the findings, the problem list, the
            // comparison table — before the one-line error.
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
