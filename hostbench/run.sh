#!/usr/bin/env bash
# Builds the host-cost benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments. Run from the repository
# root, for example:
#
#   bash hostbench/run.sh --workload postmark --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
