#!/usr/bin/env bash
# Builds cmd/mpserved from the tree under test and the benchmark program,
# then runs the program with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload echo_direct --seed 1 --seconds 10 --trace 0
#
# Run from the root of the tree.  Everything built or written goes under
# .bench_build/ there, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/mpserved || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the root of the mpserved source tree" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the go command writes (build cache, temporaries, its
# config and telemetry directory) inside the tree; nothing is downloaded.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -o "$out/mpserved" ./cmd/mpserved
go -C benchmark build -o "$out/benchmark" .

args=()
while [[ $# -gt 0 ]]; do
	case "$1" in
	--workload | --seed | --seconds | --trace)
		args+=("-${1#--}" "$2")
		shift 2
		;;
	*)
		echo "run.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
done
exec "$out/benchmark" -server "$out/mpserved" -out "$out" -src "$root" "${args[@]}"
