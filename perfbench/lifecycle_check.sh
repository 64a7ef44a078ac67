#!/usr/bin/env bash
# Proves that no process the benchmark starts outlives a run: after a
# normal run, a run whose output check is forced to fail, and a run
# interrupted with SIGTERM, a /proc scan must find no perfbench or
# physchedd process and no leftover run directory.
#
#   bash perfbench/lifecycle_check.sh [workload]   # default service-warm
#
# Run from the repository root.
set -uo pipefail

workload=${1:-service-warm}
bin=$(pwd)/.bench_build/bin
fail=0

# leftovers prints every live process running one of the built binaries.
leftovers() {
	for p in /proc/[0-9]*; do
		exe=$(readlink "$p/exe" 2>/dev/null) || continue
		case "$exe" in
		"$bin/physchedd" | "$bin/perfbench") echo "${p#/proc/} $exe" ;;
		esac
	done
}

check() { # name, exit code, wanted exit code, stdout file
	local name=$1 code=$2 want=$3 out=$4
	local left
	left=$(leftovers)
	if [[ $code != "$want" ]]; then
		echo "FAIL $name: exit $code, want $want"
		fail=1
	fi
	if [[ -n $left ]]; then
		echo "FAIL $name: processes left behind:"
		echo "$left"
		fail=1
	fi
	if [[ -n $(ls -A .bench_build/runs 2>/dev/null) ]]; then
		echo "FAIL $name: run directory left behind: $(ls .bench_build/runs)"
		fail=1
	fi
	if [[ $want == 130 ]] && grep -q '^{' "$out"; then
		echo "FAIL $name: an interrupted run printed a result"
		fail=1
	fi
	echo "$name: exit $code, no process left"
}

mkdir -p .bench_build
out=$(mktemp -p .bench_build lifecycle.XXXXXX)
trap 'rm -f "$out"' EXIT

bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 2 >"$out" 2>&1
check normal $? 0 "$out"

bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 2 --break-check >"$out" 2>&1
check failed-check $? 1 "$out"

# run.sh execs the benchmark, so $! is the benchmark itself.
bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 30 >"$out" 2>&1 &
pid=$!
sleep 4
kill -TERM "$pid"
wait "$pid"
check sigterm $? 130 "$out"

exit $fail
