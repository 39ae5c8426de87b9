#!/usr/bin/env bash
# Builds the layer benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash layerbench/run.sh --workload build-cold --seed 1 --seconds 10 --trace 0
#
# Everything the toolchain and the benchmark write (Go build cache, the
# binary, span files, temp files) stays under .bench_build/ in the current
# directory. Without the parent module next to this directory the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/home" "${out}/tmp"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export TMPDIR="${out}/tmp"
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "${here}" && go build -o "${out}/layerbench" .)
exec "${out}/layerbench" "$@"
