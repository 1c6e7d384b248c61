#!/usr/bin/env bash
# Builds the benchmark program and the programs under test (krrserve,
# krrmrc) from the checkout's sources, then runs the benchmark with the
# arguments given. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and scratch file stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/krrserve" || ! -d "$root/cmd/krrmrc" ]]; then
	echo "perfbench: $root holds no krr sources (go.mod, cmd/krrserve, cmd/krrmrc)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

cd "$here"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/krrserve" krr/cmd/krrserve
go build -o "$out/bin/krrmrc" krr/cmd/krrmrc
cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
