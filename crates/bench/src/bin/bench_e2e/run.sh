#!/usr/bin/env bash
# The command of BENCHMARK.json. Run from the root of a checkout:
#
#   bash crates/bench/src/bin/bench_e2e/run.sh --workload rmat_inproc --seed 11 --seconds 10 --trace 0
#
# Builds the program under test (the `euler-worker` and `euler-serve`
# binaries the workloads spawn) and this benchmark from source into one
# target directory, then runs the benchmark with the arguments given. After
# the first run both builds are no-ops. Build output goes to stderr: the
# last line of stdout is the benchmark's result object.
set -euo pipefail

bench_dir="$(dirname "${BASH_SOURCE[0]}")"
target_dir="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target_dir"

if [[ ! -f Cargo.toml || ! -d crates/core ]]; then
    echo "run.sh: run from the root of a checkout of the repository (no Cargo.toml / crates/core here)" >&2
    exit 2
fi

cargo build --release --offline --quiet --bin euler-worker --bin euler-serve >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$target_dir/release/bench_e2e" "$@"
