#!/usr/bin/env bash
# Builds the benchmark offline and runs the whole suite: all three
# workloads untraced, then traced, each result validated against
# ../BENCHMARK.json. Exits non-zero on `correct: false`, a failed
# operation, or a name/unit that does not match the contract.
#
#   benchmark/run.sh [--seed N] [--quick] [--aa]
#
#   --quick  smoke run: ~1 s per run, few segments, marked quick=true;
#            its numbers are not a baseline
#   --aa     the suite twice on the same seed: per-metric difference
#            against its bound, exact counts must be identical;
#            the comparison is kept in benchmark/out/aa.json
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- suite "$@"
