#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments, e.g.
#   bash benchmark/run.sh --workload design --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/nocbench"
# The process runs on one CPU: the nocd workloads' client and daemon
# threads take turns (closed loop), and waking a thread on the other
# vCPU costs a variable hypervisor round trip that made their
# throughput spread twice as wide.
cpu="$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//; s/[-,].*//')" || cpu=""
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
