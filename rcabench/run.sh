#!/usr/bin/env bash
# Builds the benchmark harness and cmd/rcad from source and runs one
# workload. Run it from the repository root:
#
#   bash rcabench/run.sh --workload catalog --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, traces and temporary rcad stores
# all live under .bench_build in the repository root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/rcabench/go.mod" ]]; then
  echo "rcabench: run from the repository root (go.mod and rcabench/go.mod must exist)" >&2
  exit 2
fi
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # the standard install location
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/rcabench" && go build -o "$out/rcabench" .)
go build -o "$out/rcad" ./cmd/rcad
exec "$out/rcabench" -root "$root" -rcad "$out/rcad" -work "$out" "$@"
