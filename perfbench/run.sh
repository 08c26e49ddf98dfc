#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fullmpi-wildcard --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, traces and profiles.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# The binary is rebuilt before every run, so it is always built from
# this checkout; it records the checkout's commit in its fingerprint.
commit=none
if [ -d .git ]; then
	commit=$(git rev-parse HEAD)
	if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
		commit="$commit-dirty"
	fi
fi

(
	cd perfbench
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
		XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
		GOFLAGS= GOWORK=off \
		GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
		go build -trimpath \
		-ldflags "-X main.buildCommit=$commit" \
		-o "$out/perfbench" .
) >&2

exec "$out/perfbench" "$@"
