#!/usr/bin/env bash
# Builds the BlindFL benchmark from source and runs it with the given
# arguments (see blindbench/README.md). Run from the repository root:
#
#   bash blindbench/run.sh --workload train-dense --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, Go config) stays under
# .bench_build/ in the current directory, and the Go toolchain is kept
# offline, so the run reads and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build/blindbench"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export XDG_CONFIG_HOME="${out}/config"
export GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp"
mkdir -p "${GOTMPDIR}"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "${root}/blindbench" && go build -o "${out}/blindbench" .)
exec "${out}/blindbench" "$@"
