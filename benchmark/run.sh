#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh run --trace          every workload, per-layer metrics
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one workload, one JSON result line
#                                         last (how BENCHMARK.json's command
#                                         is run)
#
# Builds the benchmark's own package offline (nothing outside this directory
# is written, except cargo's target directory when CARGO_TARGET_DIR says so)
# and then runs it.  Fails, printing no result, where the repository's crates
# are not beside this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export LINKBENCH_HOME="$here"

# a relative CARGO_TARGET_DIR is relative to where the caller stands
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# build output goes to stderr: stdout belongs to the results
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

if [ "$#" -eq 0 ]; then
    set -- run --seed 42 --threads 1
fi
exec "$target/release/linkbench" "$@"
