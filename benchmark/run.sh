#!/usr/bin/env bash
# Build the benchmark (a package of its own; the root manifest, lock file
# and tier-1 verify are untouched) and hand the arguments through.
#
#   benchmark/run.sh [--seed N] [--quick] [--aa]         the whole suite
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                         one pass of one workload
#                                                         (the command of BENCHMARK.json)
#   benchmark/run.sh --probe LAYER|all                    layer probes only
#   benchmark/run.sh --list                               workloads, probes, metrics
#
# Builds into $CARGO_TARGET_DIR when set, else into the repo's target/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/versa-benchmark"
case " $* " in
*" --workload "* | *" --probe "* | *" --list "* | *" --suite "*) exec "$bin" "$@" ;;
*) exec "$bin" --suite "$@" ;;
esac
