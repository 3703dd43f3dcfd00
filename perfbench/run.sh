#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload figures|campaign|serve --seed N --seconds S --trace 0|1
#
# Every build artefact, cache and scratch file stays under .bench_build/ in
# the checkout.  Outside a full checkout (no specrun module one level up)
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
       GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
       GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
