//! Subcommand dispatch and what every command family shares: the error
//! type, the flag tables, and the flag-to-vocabulary helpers. Every
//! command returns the text it would print, so tests assert on output
//! without process spawning; the families live one per submodule.

mod check;
mod kernel;
mod serve;
mod sweep;

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex, PoisonError};

use gpumech_core::{parse_selection, SelectionMethod, UnknownWord, Weighting};
use gpumech_isa::SimConfig;
use gpumech_obs::{Recorder, Snapshot};
use gpumech_trace::{workloads, LaunchConfig, Workload};

use crate::args::{ArgError, Args};
use crate::USAGE;

/// Error surfaced to the user by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing or validation failed.
    Args(ArgError),
    /// The named workload does not exist.
    UnknownKernel(String),
    /// The named subcommand does not exist.
    UnknownCommand(String),
    /// A flag accepted only specific values.
    BadChoice {
        /// The flag name.
        flag: &'static str,
        /// The offending value.
        value: String,
        /// The accepted values.
        expected: &'static str,
    },
    /// The machine configuration assembled from `--warps`/`--mshrs`/`--bw`/
    /// `--sfu` flags failed validation.
    Config(String),
    /// The underlying library failed.
    Model(String),
    /// Writing an output file failed.
    Io(std::io::Error),
    /// `lint` found error-severity diagnostics. The report still carries
    /// the full rendered output so `main` can print it before exiting
    /// nonzero.
    LintFailed {
        /// Rendered lint report (same text a clean run would print).
        report: String,
        /// Number of error-severity findings.
        errors: usize,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}\n\n{USAGE}"),
            CliError::UnknownKernel(k) => {
                write!(f, "unknown kernel {k:?}; run `gpumech list` for the catalogue")
            }
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}\n\n{USAGE}"),
            CliError::BadChoice { flag, value, expected } => {
                write!(f, "--{flag} must be one of {expected}, got {value:?}")
            }
            CliError::Config(e) => {
                write!(f, "invalid machine configuration: {e} (run `gpumech config` for defaults)")
            }
            CliError::Model(e) => write!(f, "modeling failed: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::LintFailed { errors, .. } => {
                write!(f, "lint found {errors} error-severity finding(s)")
            }
        }
    }
}

impl CliError {
    /// For the failure that is a *check's verdict* rather than a broken
    /// invocation: the report to print before the error line, and the
    /// exit code that tells it apart (2 lint; 3, 4 and 5 are retired).
    #[must_use]
    pub fn report(&self) -> Option<(&str, u8)> {
        match self {
            CliError::LintFailed { report, .. } => Some((report, 2)),
            _ => None,
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// The grid-size override and the four Table I overrides
/// ([`machine_config`]) every machine-building command accepts.
const MACHINE_FLAGS: &[&str] = &["blocks", "warps", "mshrs", "bw", "sfu"];

/// Serializes installation of the process-global recorder. The recorder
/// slot is shared by every thread, so concurrent commands (the test
/// harness runs them in parallel) must take turns.
static OBS_SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` under a freshly installed recorder and returns what it
/// recorded beside its result.
fn recorded<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let _turn = OBS_SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = Arc::new(Recorder::new());
    let out = {
        let _installed = gpumech_obs::install(Arc::clone(&rec));
        f()
    };
    (out, rec.snapshot())
}

/// Parses `rest` against `flags` plus `--obs-out` and runs `cmd`: under a
/// freshly installed recorder, writing the JSONL export afterwards, when
/// `--obs-out` was given; otherwise directly, with observability disabled
/// (one atomic load per probe).
fn observed(
    rest: Vec<String>,
    flags: &[&[&str]],
    switches: &[&str],
    cmd: fn(&Args) -> Result<String, CliError>,
) -> Result<String, CliError> {
    let allowed = [&flags.concat()[..], &["obs-out"]].concat();
    let args = Args::parse_with_switches(rest, &allowed, switches)?;
    let Some(path) = args.flag("obs-out") else {
        return cmd(&args);
    };
    let (result, snap) = recorded(|| cmd(&args));
    let mut out = result?;
    std::fs::write(path, gpumech_obs::to_jsonl(&snap))?;
    out.push_str(&format!("observability trace written to {path}\n"));
    Ok(out)
}

fn machine_config(args: &Args) -> Result<SimConfig, CliError> {
    SimConfig::table1_with(
        args.flag_opt("warps")?,
        args.flag_opt("mshrs")?,
        args.flag_opt("bw")?,
        args.flag_opt("sfu")?,
    )
    .map_err(|e| CliError::Config(e.to_string()))
}

/// `w` at `--blocks` when given; a grid [`LaunchConfig::try_new`] refuses
/// is a usage error.
fn at_blocks(args: &Args, mut w: Workload) -> Result<Workload, CliError> {
    if let Some(b) = args.flag_opt::<usize>("blocks")? {
        w.launch = LaunchConfig::try_new(w.launch.threads_per_block, b).map_err(|_| {
            ArgError::BadValue { flag: "blocks".to_string(), value: b.to_string() }
        })?;
    }
    Ok(w)
}

/// The catalogue workload `name`, at `--blocks` when given.
fn workload(args: &Args, name: &str) -> Result<Workload, CliError> {
    let w = workloads::by_name(name).ok_or_else(|| CliError::UnknownKernel(name.to_string()))?;
    at_blocks(args, w)
}

fn lookup(args: &Args) -> Result<Workload, CliError> {
    workload(args, args.required(0, "kernel")?)
}

/// Every positional argument, in order.
fn positionals(args: &Args) -> Vec<&str> {
    (0..).map_while(|i| args.positional(i)).collect()
}

/// The error for `--flag` given a word outside its vocabulary.
fn bad_choice(flag: &'static str) -> impl Fn(UnknownWord) -> CliError {
    move |e| CliError::BadChoice { flag, value: e.value, expected: e.expected }
}

/// `--flag` (or `default`) parsed through its type's request vocabulary:
/// `--policy rr|gto`, `--model naive|markov|mt|mt_mshr|full`.
fn choice<T: FromStr<Err = UnknownWord>>(
    args: &Args,
    flag: &'static str,
    default: &str,
) -> Result<T, CliError> {
    args.flag(flag).unwrap_or(default).parse().map_err(bad_choice(flag))
}

/// `--selection max|min|clustering|weighted` as the request's
/// (method, weighting) pair.
fn selection(args: &Args) -> Result<(SelectionMethod, Weighting), CliError> {
    parse_selection(args.flag("selection").unwrap_or("clustering")).map_err(bad_choice("selection"))
}

/// Dispatches one invocation; returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing bad arguments, unknown kernels or
/// commands, or failures in the underlying library.
pub fn run<I>(argv: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = String>,
{
    let mut it = argv.into_iter();
    let command = it.next().unwrap_or_else(|| "help".to_string());
    let rest: Vec<String> = it.collect();
    match command.as_str() {
        "list" => {
            Args::parse(rest, &[])?;
            Ok(kernel::list())
        }
        "config" => kernel::config(&Args::parse(rest, MACHINE_FLAGS)?),
        "trace" => kernel::trace(&Args::parse(rest, &["blocks", "json"])?),
        "predict" => {
            observed(rest, &[MACHINE_FLAGS, &["policy", "model", "selection"]], &[], kernel::predict)
        }
        "simulate" => observed(rest, &[MACHINE_FLAGS, &["policy"]], &[], kernel::simulate),
        "compare" => observed(rest, &[MACHINE_FLAGS, &["policy"]], &[], kernel::compare),
        "stacks" => observed(rest, &[&["blocks", "policy"]], &[], kernel::stacks),
        "intervals" => observed(rest, &[MACHINE_FLAGS, &["limit"]], &[], kernel::intervals),
        // `profile` and `batch` always record (their output includes the
        // recorder's spans and counters), so they install their own
        // recorder rather than going through `observed`.
        "profile" => kernel::profile(&Args::parse(
            rest,
            &[MACHINE_FLAGS, &["obs-out", "chrome-out", "folded-out"]].concat(),
        )?),
        "batch" => sweep::batch(&Args::parse_with_switches(
            rest,
            &[MACHINE_FLAGS, &["policy", "model", "selection", "workers", "sweep",
              "timeout-ms", "deadline-ms", "json", "obs-out"]]
                .concat(),
            &["oracle"],
        )?),
        "serve" => observed(
            rest,
            &[&["addr", "port", "workers", "queue-cap", "request-timeout-ms", "read-timeout-ms",
                "drain-ms", "max-body-bytes", "max-header-bytes", "warm"]],
            &["debug-hooks"],
            serve::serve,
        ),
        "lint" => check::lint(&Args::parse(rest, &["format", "min-severity", "from-json"])?),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn run_ok(argv: &[&str]) -> String {
        run(argv.iter().map(ToString::to_string)).expect("command succeeds")
    }

    pub(crate) fn run_err(argv: &[&str]) -> CliError {
        run(argv.iter().map(ToString::to_string)).expect_err("command fails")
    }

    /// A unique temp path for tests that write files.
    pub(crate) fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gpumech-cli-{}-{tag}", std::process::id()))
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
        assert!(run_ok(&[]).contains("USAGE"), "no args defaults to help");
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(matches!(run_err(&["predict"]), CliError::Args(_)));
        assert!(matches!(run_err(&["predict", "nope"]), CliError::UnknownKernel(_)));
        assert!(matches!(run_err(&["frobnicate"]), CliError::UnknownCommand(_)));
        assert!(matches!(
            run_err(&["predict", "sdk_vectoradd", "--blocks", "4", "--policy", "fifo"]),
            CliError::BadChoice { flag: "policy", .. }
        ));
        assert!(matches!(
            run_err(&["predict", "sdk_vectoradd", "--bogus", "1"]),
            CliError::Args(ArgError::UnknownFlag(_))
        ));
    }

    #[test]
    fn out_of_range_machine_flags_are_rejected_with_one_line_messages() {
        // Every subcommand that accepts machine flags must reject
        // out-of-range values with a typed Config error whose message is a
        // single actionable line (main prints it and exits nonzero).
        for argv in [
            &["predict", "sdk_vectoradd", "--warps", "100000"][..],
            &["predict", "sdk_vectoradd", "--mshrs", "0"],
            &["predict", "sdk_vectoradd", "--bw", "0.5"],
            &["simulate", "sdk_vectoradd", "--warps", "0"],
            &["compare", "sdk_vectoradd", "--bw", "-3"],
            &["config", "--sfu", "64"],
            &["profile", "sdk_vectoradd", "--mshrs", "9999999"],
            &["intervals", "sdk_vectoradd", "--warps", "100000"],
        ] {
            let e = run_err(argv);
            assert!(matches!(e, CliError::Config(_)), "{argv:?} gave {e:?}");
            let msg = e.to_string();
            assert_eq!(msg.lines().count(), 1, "multi-line message for {argv:?}: {msg}");
            assert!(msg.contains("gpumech config"), "message not actionable: {msg}");
        }
    }

    #[test]
    fn bad_flag_values_are_rejected_per_subcommand() {
        assert!(matches!(
            run_err(&["predict", "sdk_vectoradd", "--model", "quantum"]),
            CliError::BadChoice { flag: "model", .. }
        ));
        assert!(matches!(
            run_err(&["predict", "sdk_vectoradd", "--selection", "random"]),
            CliError::BadChoice { flag: "selection", .. }
        ));
        assert!(matches!(
            run_err(&["simulate", "sdk_vectoradd", "--policy", "lifo"]),
            CliError::BadChoice { flag: "policy", .. }
        ));
        for cmd in ["trace", "predict", "simulate", "compare", "stacks", "profile", "intervals"] {
            assert!(
                matches!(run_err(&[cmd, "no_such_kernel"]), CliError::UnknownKernel(_)),
                "{cmd} should reject unknown kernels"
            );
            assert!(matches!(run_err(&[cmd]), CliError::Args(_)), "{cmd} requires a kernel");
        }
    }
}
