#!/bin/sh
# Builds salsabench from the checkout it is run in and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   sh cmd/salsabench/run.sh --workload cold-unique --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays in .bench_build/ of the
# checkout: the Go build cache, the go command's telemetry setting
# (kept under the user config directory), temporary files (the journal
# of the jobs-durable workload included) and the span files of a traced
# run. The build never touches the network.
#
# Telemetry is turned off before the build: in its default local mode the
# go command forks a detached sidecar that outlives it. `go telemetry off`
# is the one go command that starts no sidecar.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache"
XDG_CONFIG_HOME="$out/config"
TMPDIR="$out/tmp"
GOTOOLCHAIN=local
GOPROXY=off
export GOCACHE XDG_CONFIG_HOME TMPDIR GOTOOLCHAIN GOPROXY
go telemetry off >&2
go build -o "$out/salsabench" ./cmd/salsabench
exec "$out/salsabench" -out "$out/spans" "$@"
