#!/usr/bin/env bash
# Builds sketchtreed and the servebench program from the source tree this
# script sits in, then runs the program with the given arguments:
#
#   bash servebench/run.sh --workload mixed-dblp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and
# result file lands under .bench_build/ in that directory, so nothing is
# written outside it. Build output goes to stderr; the program's last
# stdout line is the JSON result.
set -euo pipefail

root=$(pwd)

# The program is built from the source tree around this script; without
# it there is nothing to measure.
if [ ! -f go.mod ] || [ ! -d cmd/sketchtreed ]; then
	echo "run.sh: no go.mod or cmd/sketchtreed in $root; run it from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

# Any other go command may start a detached telemetry process that
# outlives this script; "go telemetry off" is the one that does not, and
# it stops the rest from starting one.
go telemetry off >&2

go build -o "$out/sketchtreed" ./cmd/sketchtreed >&2
(cd servebench && go build -o "$out/servebench" .) >&2

exec "$out/servebench" -root "$root" -daemon "$out/sketchtreed" "$@"
