//! Golden for the `gpumech` binary's text surface: one invocation per
//! subcommand at `--blocks 4` plus the usage-error paths, each compared —
//! stdout, stderr and exit code — with `tests/golden/cli.txt`.
//!
//! Every case runs in one scratch directory with relative file names, so
//! no path in the output depends on the host; wall-clock fields are
//! masked (`<t>`), and outputs that end in timing tables keep only their
//! deterministic part. Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p gpumech-cli --test golden_cli
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Which part of a case's stdout is deterministic.
#[derive(Clone, Copy)]
enum Keep {
    /// Everything (durations masked).
    All,
    /// Lines before the first one starting with this marker.
    Until(&'static str),
}

const SWEEP: [&str; 8] =
    ["sdk_vectoradd", "bfs_kernel1", "--blocks", "4", "--workers", "1", "--sweep", "bw=96,192"];

/// The cases, in execution order.
fn cases() -> Vec<(&'static str, Vec<&'static str>, Keep)> {
    let sweep = |extra: &[&'static str]| [&["batch"], &SWEEP[..], extra].concat();
    vec![
        ("help", vec!["help"], Keep::All),
        ("no-args", vec![], Keep::Until("USAGE:")),
        ("list", vec!["list"], Keep::All),
        ("config", vec!["config", "--mshrs", "64", "--bw", "96"], Keep::All),
        ("trace", vec!["trace", "sdk_vectoradd", "--blocks", "4"], Keep::All),
        ("predict", vec!["predict", "sdk_vectoradd", "--blocks", "4"], Keep::All),
        (
            "predict-options",
            vec![
                "predict", "lud_diagonal", "--blocks", "4", "--warps", "16", "--policy", "gto",
                "--model", "mt_mshr", "--selection", "weighted",
            ],
            Keep::All,
        ),
        ("simulate", vec!["simulate", "sdk_vectoradd", "--blocks", "4"], Keep::All),
        ("compare", vec!["compare", "sdk_vectoradd", "--blocks", "4"], Keep::All),
        ("stacks", vec!["stacks", "sdk_vectoradd", "--blocks", "4", "--policy", "gto"], Keep::All),
        (
            "profile",
            vec!["profile", "sdk_vectoradd", "--blocks", "4", "--sfu", "8"],
            Keep::Until("== recorder =="),
        ),
        ("intervals", vec!["intervals", "srad_kernel1", "--blocks", "4", "--limit", "5"], Keep::All),
        ("batch", sweep(&["--oracle", "--json", "ref.json"]), Keep::All),
        (
            "batch-bad-point",
            vec!["batch", "sdk_vectoradd", "--blocks", "4", "--workers", "1", "--sweep", "warps=0,8"],
            Keep::All,
        ),
        (
            "batch-deadline-zero",
            vec![
                "batch", "sdk_vectoradd", "bfs_kernel1", "--blocks", "4", "--workers", "1",
                "--deadline-ms", "0",
            ],
            Keep::All,
        ),
        ("lint", vec!["lint", "bfs_kernel1", "--min-severity", "info"], Keep::All),
        ("lint-json", vec!["lint", "sdk_vectoradd", "--format", "json"], Keep::All),
        // Usage-error paths.
        ("bad-policy", vec!["predict", "sdk_vectoradd", "--policy", "fifo"], Keep::All),
        ("bad-model", vec!["predict", "sdk_vectoradd", "--model", "quantum"], Keep::All),
        ("bad-selection", vec!["batch", "sdk_vectoradd", "--selection", "random"], Keep::All),
        ("bad-sweep", vec!["batch", "sdk_vectoradd", "--sweep", "volts=1,2"], Keep::All),
        ("bad-sweep-value", vec!["batch", "sdk_vectoradd", "--sweep", "warps=abc"], Keep::All),
        ("bad-flag-value", vec!["predict", "sdk_vectoradd", "--warps", "lots"], Keep::Until("USAGE:")),
        ("unknown-flag", vec!["predict", "sdk_vectoradd", "--bogus", "1"], Keep::Until("USAGE:")),
        (
            "removed-breaker-flag",
            vec!["batch", "sdk_vectoradd", "--breaker-threshold", "2"],
            Keep::Until("USAGE:"),
        ),
        (
            "removed-cache-dir-flag",
            vec!["batch", "sdk_vectoradd", "--cache-dir", "d"],
            Keep::Until("USAGE:"),
        ),
        ("removed-journal-flag", vec!["batch", "sdk_vectoradd", "--journal", "x"], Keep::Until("USAGE:")),
        ("removed-resume-flag", vec!["batch", "sdk_vectoradd", "--resume"], Keep::Until("USAGE:")),
        ("removed-shard-flag", vec!["batch", "sdk_vectoradd", "--shard", "0/2"], Keep::Until("USAGE:")),
        ("removed-merge-command", vec!["merge", "ref.json"], Keep::Until("USAGE:")),
        ("removed-obs-validate-command", vec!["obs-validate", "x.jsonl"], Keep::Until("USAGE:")),
        ("unknown-command", vec!["frobnicate"], Keep::Until("USAGE:")),
        ("missing-kernel", vec!["predict"], Keep::Until("USAGE:")),
        ("unknown-kernel", vec!["predict", "no_such_kernel"], Keep::All),
        ("unknown-kernel-batch", vec!["batch", "sdk_vectoradd", "no_such_kernel"], Keep::All),
        ("invalid-config", vec!["predict", "sdk_vectoradd", "--mshrs", "0"], Keep::All),
        ("invalid-config-sim", vec!["simulate", "sdk_vectoradd", "--bw", "0.5"], Keep::All),
        ("lint-bad-format", vec!["lint", "--format", "xml"], Keep::All),
        ("serve-bad-warm", vec!["serve", "--warm", "no_such_kernel"], Keep::All),
    ]
}

/// Replaces wall-clock tokens — `1.23ms`, `456.7µs`, `12 ms` — with `<t>`.
fn mask_durations(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < line.len() {
        let fresh = i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || b"._".contains(&bytes[i - 1]));
        if fresh && bytes[i].is_ascii_digit() {
            let end = i + line[i..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(line.len() - i);
            let rest = &line[end..];
            let rest = rest.strip_prefix(' ').unwrap_or(rest);
            let unit = ["ns", "µs", "us", "ms", "s"].into_iter().find(|u| {
                rest.strip_prefix(u).is_some_and(|after| !after.starts_with(char::is_alphanumeric))
            });
            if let Some(unit) = unit {
                out.push_str("<t>");
                i = line.len() - rest.len() + unit.len();
            } else {
                out.push_str(&line[i..end]);
                i = end;
            }
            continue;
        }
        let c = line[i..].chars().next().unwrap();
        out.push(c);
        i += c.len_utf8();
    }
    out
}

fn keep(text: &str, keep: Keep) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match keep {
            Keep::All => out.push_str(&mask_durations(line)),
            Keep::Until(marker) if line.starts_with(marker) => break,
            Keep::Until(_) => out.push_str(&mask_durations(line)),
        }
        out.push('\n');
    }
    out
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpumech-golden-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_subcommand_and_usage_error_matches_the_golden() {
    let dir = scratch_dir();
    let mut actual = String::new();
    for (name, argv, kept) in cases() {
        let out = Command::new(env!("CARGO_BIN_EXE_gpumech"))
            .args(&argv)
            .current_dir(&dir)
            .output()
            .expect("binary spawns");
        let _ = writeln!(actual, "==== {name}: gpumech {} ====", argv.join(" "));
        let _ = writeln!(actual, "exit: {}", out.status.code().map_or(-1, |c| c));
        let _ = writeln!(actual, "--- stdout ---");
        actual.push_str(&keep(&String::from_utf8_lossy(&out.stdout), kept));
        let _ = writeln!(actual, "--- stderr ---");
        actual.push_str(&keep(&String::from_utf8_lossy(&out.stderr), kept));
    }
    // The sweep file's content region: the rows a rerun reproduces
    // byte for byte (everything before `jobs_checksum` is run-dependent
    // or provenance).
    let sweep_file = std::fs::read_to_string(dir.join("ref.json")).unwrap();
    let _ = writeln!(actual, "==== ref.json from jobs_checksum on ====");
    actual.push_str(&sweep_file[sweep_file.find("  \"jobs_checksum\"").unwrap()..]);
    std::fs::remove_dir_all(&dir).unwrap();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden ({e}); run with UPDATE_GOLDEN=1"));
    if let Some((n, (got, want))) =
        actual.lines().zip(expected.lines()).enumerate().find(|(_, (a, e))| a != e)
    {
        panic!("golden mismatch at line {}:\n  got:  {got}\n  want: {want}", n + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden length differs");
}

#[test]
fn duration_mask_touches_only_wall_clock_tokens() {
    assert_eq!(mask_durations("simulated in 1.23ms"), "simulated in <t>");
    assert_eq!(mask_durations("# 4 ok, 0 failed; 2 cached analysis(es); 456.78µs wall"),
               "# 4 ok, 0 failed; 2 cached analysis(es); <t> wall");
    assert_eq!(mask_durations("# completed in 812 ms"), "# completed in <t>");
    assert_eq!(mask_durations("# batch: 4 job(s) (2 kernel(s) x 2 config(s))"),
               "# batch: 4 job(s) (2 kernel(s) x 2 config(s))");
    assert_eq!(mask_durations("sdk_vectoradd @ bw=96   2.065"), "sdk_vectoradd @ bw=96   2.065");
    assert_eq!(mask_durations("3 span(s), 1 samples, 5 s"), "3 span(s), 1 samples, <t>");
}
