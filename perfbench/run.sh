#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload websql-ppb --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# span dumps stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" describe --always --dirty)
else
	# Not a git checkout: identify the code by a hash of its Go sources.
	commit="src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print0 |
		LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-16)"
fi
exec "$out/perfbench" -commit "$commit" -out "$out" "$@"
