#!/usr/bin/env bash
# Builds the pipeline benchmark from the sources of this checkout and runs
# it with the given arguments (see main.go for the flags). Run it from the
# repository root:
#
#	bash perfbench/run.sh --workload zipf-dataplane --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write — Go build cache, binary, durable
# state, span dumps — stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" --dir "$out/run" "$@"
