#!/usr/bin/env bash
# The one command of the benchmark: builds the benchmark package against
# the crates of this checkout, then hands every argument to it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#   benchmark/run.sh [--workload NAME] [--seed N] [--runs K] [--vary-seed]
#                    [--trace] [--smoke] [--bless] [--label L]
#       every workload in its own process, stored as benchmark/out/results-L.json
#   benchmark/run.sh compare A.json B.json
#
# README.md beside this file says what is measured and why.
set -euo pipefail

here=$(dirname "$0")
# The driver names the build directory; by hand it is benchmark/target.
target=${CARGO_TARGET_DIR:-$here/target}

# Cargo reports on standard error, so standard output stays the program's.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target"

exec "$target/release/gsim-benchmark" --bench-dir "$here" "$@"
