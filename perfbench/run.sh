#!/usr/bin/env bash
# Builds the daemon and the experiment suite of the checkout in the current
# directory, and the benchmark program beside them, then runs the benchmark:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/fourshadesd" || ! -d "$root/cmd/advicebench" ]]; then
	echo "perfbench: run from the root of a fourshades checkout (no go.mod, cmd/fourshadesd or cmd/advicebench here)" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$GOTMPDIR"

go build -o "$out/bin/" ./cmd/fourshadesd ./cmd/advicebench
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
