#!/usr/bin/env bash
# The one command of the repo benchmark: a release build of the benchmark
# package, then the binary with the arguments given.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]              full set
#   benchmark/run.sh --agree [A.json B.json]                         two sets agree?
#
# Run from the repository root. Build output goes to stderr; results go to
# stdout and target/benchmark/.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/benchmark" "$@"
