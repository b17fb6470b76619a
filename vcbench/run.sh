#!/usr/bin/env bash
# Builds vcbench from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash vcbench/run.sh --workload stat-sweep --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and traces stay under .bench_build
# (or $CARGO_TARGET_DIR) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/home"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd vcbench && go build -o "$out/vcbench" .)
exec "$out/vcbench" --out "$out/traces" "$@"
