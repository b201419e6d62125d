//! Library backing the `gpumech` command-line tool.
//!
//! Each subcommand is a function from parsed [`args::Args`] to a
//! rendered string, so the whole CLI is unit-testable without spawning
//! processes. The `gpumech` binary (`src/main.rs`) is a thin dispatcher.
//!
//! [`USAGE`] lists the subcommands and their flags; `commands` has one
//! module per command family, and `plan` and `report` are the sweep
//! enumeration and the `--json` file that `batch` runs and writes.

pub mod args;
pub mod commands;
mod plan;
mod report;

pub use args::{ArgError, Args};
pub use commands::{run, CliError};

/// Usage text shown by `gpumech help` and on argument errors.
pub const USAGE: &str = "\
gpumech — GPU performance modeling via interval analysis (MICRO 2014)

USAGE:
    gpumech <command> [args] [--flag value ...]

COMMANDS:
    list                         list the 40 bundled workloads
    config                       print the Table I machine configuration
    trace <kernel>               trace a workload and print statistics
    predict <kernel>             predict CPI with the full GPUMech model
    simulate <kernel>            run the cycle-level oracle
    compare <kernel>             all five models vs the oracle
    stacks <kernel>              CPI stacks across warp counts
    profile <kernel>             interval-profile, warp-population, and per-stage
                                 pipeline statistics (always records observability)
    intervals <kernel>           dump the representative warp's intervals (--limit N)
    batch [kernels...|all]       predict many kernels (and swept configurations)
                                 in parallel with profile caching (default: all 40)
    serve                        run the HTTP prediction service (POST /predict,
                                 /healthz, /readyz, /metrics) until SIGTERM/ctrl-c
    lint [kernel|all]            statically analyze and verify kernel IR:
                                 structure, dataflow, divergence, barriers
                                 (default: all 40)
    help                         this text

COMMON FLAGS:
    --blocks N        grid size override (default: each workload's grid)
    --policy rr|gto   warp scheduling policy (default rr)
    --warps N         resident warps per core (default 32)
    --mshrs N         MSHR entries per core (default 32)
    --bw GBPS         DRAM bandwidth in GB/s (default 192)
    --sfu N           SFU lanes per core (default 32)

PREDICT FLAGS:
    --model M         naive|markov|mt|mt_mshr|full (default full)
    --selection S     max|min|clustering|weighted (default clustering)

TRACE FLAGS:
    --json PATH       write the full trace as JSON

BATCH FLAGS:
    --workers N       worker threads for the batch pool (default 4)
    --sweep AXIS=A,B  sweep one machine axis (warps|mshrs|bw|sfu) across the
                      listed values; each kernel is predicted at every point
    --json PATH       write the batch results as machine-readable JSON
    --timeout-ms N    per-job time budget; a job over budget fails alone
                      with a typed Deadline error
    --deadline-ms N   whole-run time budget; jobs past the deadline fail
                      fast instead of running
    --oracle          also run the cycle-level oracle per job, on the
                      same --workers as the model: each row
                      gains its oracle CPI and the model's error against
                      it, a summary line the mean error, and the --json
                      rows their oracle_cpi

EXIT CODES (ci.sh gates on the distinction):
    0  success
    1  usage or pipeline error
    2  lint found error-severity findings
    3, 4 and 5 are retired and not reused

SERVE FLAGS:
    --addr A          bind address (default 127.0.0.1)
    --port N          bind port; 0 picks a free port, printed on stdout
                      (default 0)
    --workers N       request worker threads (default 4)
    --queue-cap N     admission queue depth; a full queue sheds new work
                      with 429 + Retry-After (default 32)
    --request-timeout-ms N
                      default and ceiling for per-request deadlines; an
                      expired deadline is a typed 504 (default 30000)
    --read-timeout-ms N
                      socket read patience; slow-loris clients get 408
                      (default 2000)
    --drain-ms N      graceful-drain budget after SIGTERM/ctrl-c before
                      in-flight work is cancelled (default 5000)
    --max-body-bytes N / --max-header-bytes N
                      request size budgets; oversize maps to 413
                      (defaults 65536 / 8192)
    --warm LIST       comma-separated kernels (or \"all\") analyzed before
                      /readyz reports ready

OBSERVABILITY FLAGS:
    --obs-out PATH    write a JSON-lines recorder trace (predict, simulate,
                      compare, stacks, profile, intervals, batch,
                      serve)
    --chrome-out PATH write a Chrome trace_event JSON (profile only); load
                      it in chrome://tracing or Perfetto
    --folded-out PATH write flamegraph-collapsed self-time stacks (profile
                      only); feed to flamegraph.pl, inferno, or speedscope

LINT FLAGS:
    --format F        text|json (default text)
    --min-severity S  info|warning|error (default info); exit is nonzero
                      whenever any error-severity finding exists,
                      regardless of this display filter
    --from-json PATH  lint kernels deserialized from a JSON file (one
                      kernel object or an array) instead of the catalogue
";
