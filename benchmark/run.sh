#!/usr/bin/env bash
# The one command: `benchmark/run.sh [--seed N] [--quick]` runs the whole
# ledger; with `--workload NAME --seed N --seconds S --trace 0|1` it is one
# run of one workload. run.py (beside this file) does the work.
exec python3 "$(dirname "$0")/run.py" "$@"
