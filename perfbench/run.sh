#!/usr/bin/env bash
# Entry point of the symcrit benchmark.  It stamps the wall clock before the
# Python interpreter starts, so that setup_s includes interpreter start, and
# then replaces itself with the benchmark process (no child is left behind).
#
#   bash perfbench/run.sh --workload desk --seed 0 --seconds 20 --trace 0
export PERFBENCH_T0="$EPOCHREALTIME"
exec python3 "${BASH_SOURCE[0]%/*}/run.py" "$@"
