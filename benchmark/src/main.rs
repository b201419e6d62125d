//! The repo benchmark: five workloads measured from outside the product
//! crates. See `benchmark/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark [--seed N] [--seconds S] [--quick]              a full set: table + results.json
//! benchmark --agree                                         two full sets, then compare them
//! benchmark --agree A.json B.json                           compare two result files
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

mod plan;
mod run;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use run::{RunArgs, RunRecord, OUT_DIR};
use spec::Spec;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    /// `Some(files)` when `--agree` was given: no files or two.
    agree: Option<Vec<PathBuf>>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                cli.seed = Some(
                    value(&mut it, arg)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], not {s}"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value(&mut it, arg)?)),
            "--agree" => {
                let mut files = Vec::new();
                while let Some(f) = it.next_if(|a| !a.starts_with("--")) {
                    files.push(PathBuf::from(f));
                }
                if !(files.is_empty() || files.len() == 2) {
                    return Err(
                        "--agree takes no files (run two sets) or two result files".to_owned()
                    );
                }
                cli.agree = Some(files);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    let spec = Spec::load()?;
    let seed = cli.seed.unwrap_or(1);
    let seconds = cli.seconds.unwrap_or(spec.run_seconds);
    let out_dir = cli.out.clone().unwrap_or_else(|| PathBuf::from(OUT_DIR));

    if let Some(files) = &cli.agree {
        let (a, b) = match files.as_slice() {
            [a, b] => (a.clone(), b.clone()),
            _ => {
                let a = suite::run_set(&spec, seed, seconds, cli.quick, &out_dir.join("set_a"))?;
                let b = suite::run_set(&spec, seed, seconds, cli.quick, &out_dir.join("set_b"))?;
                (a, b)
            }
        };
        suite::agree_files(&spec, &a, &b)?;
        return Ok(true);
    }

    let Some(workload) = cli.workload else {
        let path = suite::run_set(&spec, seed, seconds, cli.quick, &out_dir)?;
        println!("results written to {}", path.display());
        return Ok(true);
    };

    let args = RunArgs {
        workload,
        seed,
        seconds,
        traced: cli.trace.unwrap_or(false),
        quick: cli.quick,
        out_dir,
    };
    let record = run::run(&args, &spec)?;
    let specs = if args.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for m in specs {
        let v = record.metrics.get(&m.name).copied().unwrap_or(0.0);
        println!("# {:<34} {v:>16.4} {}", m.name, m.unit);
    }
    println!(
        "# sim_digest {:016x}  attempted {}  failed {}  passes {}{}",
        record.sim_digest,
        record.attempted,
        record.failed,
        record.passes,
        if args.quick {
            "  (quick: not comparable)"
        } else {
            ""
        },
    );
    let path = RunRecord::record_path(&args.out_dir, &args.workload, args.traced);
    let detail = record.to_value(suite::provenance(seed));
    std::fs::write(&path, run::to_json(&detail) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", record.result_line(&spec));
    Ok(record.correct())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is out; the exit code says an op failed its check.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let c = cli(&[
            "--workload",
            "cold_regular",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("cold_regular"));
        assert_eq!(
            (c.seed, c.seconds, c.trace),
            (Some(7), Some(15.0), Some(true))
        );
        assert!(c.agree.is_none() && !c.quick);
    }

    #[test]
    fn agree_takes_no_files_or_two() {
        assert_eq!(cli(&["--agree"]).unwrap().agree, Some(vec![]));
        assert_eq!(cli(&["--agree", "--quick"]).unwrap().agree, Some(vec![]));
        assert_eq!(
            cli(&["--agree", "a.json", "b.json"])
                .unwrap()
                .agree
                .unwrap()
                .len(),
            2
        );
        assert!(cli(&["--agree", "a.json"]).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }
}
