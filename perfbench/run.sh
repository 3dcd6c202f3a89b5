#!/usr/bin/env bash
# Builds the benchmark and the euasim binary it checks against, then runs
# one workload:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there (Go's build cache included).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
# The go command's caches and its telemetry counters (under the user
# config directory) are kept in the build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/euasim" github.com/euastar/euastar/cmd/euasim
) >&2
cd "$root"
exec "$build/bin/perfbench" --root "$root" "$@"
