#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload kv-point --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the traced run's spans stay under
# .bench_build/ in the checkout. Build output goes to standard error, so
# standard output carries only the benchmark's result lines.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	if ! PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
		# Not a git checkout: identify the build by its Go sources.
		PERFBENCH_COMMIT="src-$(find "$root" -path "$out" -prune -o -name '*.go' -print | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
	fi
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
