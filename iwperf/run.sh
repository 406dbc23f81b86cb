#!/usr/bin/env bash
# Builds the iwperf benchmark from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash iwperf/run.sh --workload census_http --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/iwperf/go.mod" ]; then
	echo "iwperf: no iwscan sources here; run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/work"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOMODCACHE=$build/gomod GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$root/iwperf" && go build -o "$build/iwperf" .)
exec "$build/iwperf" -workdir "$build/work" "$@"
