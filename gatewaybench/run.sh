#!/usr/bin/env bash
# Builds the gateway serving benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash gatewaybench/run.sh --workload chat --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's own state files stay under
# .bench_build in the current directory.
set -euo pipefail
# The benchmark builds against the program in the current directory and
# nowhere else: without the genie module here, it fails rather than let
# the go command pick up a go.mod or go.work from a parent directory.
if ! grep -qx 'module genie' go.mod 2>/dev/null || [ ! -d internal/serve ]; then
	echo "gatewaybench: run from the root of the genie repository (no genie go.mod or internal/serve here)" >&2
	exit 1
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# Telemetry off: otherwise the go command starts a detached sidecar
# process that can outlive this script.
printf 'off' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/gomod" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/gatewaybench" ./gatewaybench
exec "$out/gatewaybench" "$@"
