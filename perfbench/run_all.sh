#!/usr/bin/env bash
# Runs every workload once and prints each run's metrics by name and unit.
#
#   bash perfbench/run_all.sh [seed] [seconds] [trace]
#
# Defaults: seed 42, 25 seconds, trace 0. Run from the repository root.
set -euo pipefail
seed=${1:-42}
seconds=${2:-25}
trace=${3:-0}
for workload in offline_table1 stream_noisy32 rpc_noisy2; do
    cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" |
        grep -v '^{'
done
