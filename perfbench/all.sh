#!/usr/bin/env bash
# Runs every workload, untraced then traced, from the root of a
# checkout, and prints each run's checks and metrics by name and unit:
#
#   bash perfbench/all.sh [seed] [seconds]
#
# Exits non-zero if any run fails or reports a wrong answer.
set -euo pipefail
seed=${1:-1}
seconds=${2:-25}
status=0
for w in cold-industrial cold-fifo served-whatif conformance; do
	for trace in 0 1; do
		echo "== $w seed=$seed seconds=$seconds trace=$trace"
		out=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace") || status=1
		echo "$out"
		case $(tail -n 1 <<<"$out") in
		'{"correct":true,'*) ;;
		*) status=1 ;;
		esac
	done
done
exit $status
