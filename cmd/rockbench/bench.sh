#!/usr/bin/env bash
# Builds rockbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/rockbench/bench.sh --workload run-stall --seed 1 --seconds 25 --trace 0
#   bash cmd/rockbench/bench.sh -seed 1 -o r.json        # every workload
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under .bench_build/ in the working directory. Without the rocksim
# sources beside cmd/rockbench the build fails and no result is printed.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/cmd/rockbench" && go build -trimpath -buildvcs=false -o "$build/rockbench" .)
exec "$build/rockbench" "$@"
