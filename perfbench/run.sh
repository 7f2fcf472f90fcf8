#!/usr/bin/env bash
# Builds the benchmark and the oasis-serve binary it drives, then runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and generated indexes stay in
# .bench_build/ under the current directory.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off
go build -C perfbench -o "$out/bin/perfbench" .
go build -C perfbench -o "$out/bin/oasis-serve" repro/cmd/oasis-serve
exec "$out/bin/perfbench" -bin-dir "$out/bin" -work-dir "$out" "$@"
