#!/bin/sh
# Builds the benchmark from source and runs it, keeping everything it
# writes (build cache, binary, session directories) inside the checkout.
set -e
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp"
# The go command also keeps a module cache under GOPATH and telemetry
# counters under the user's configuration directory: point those inside too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/helix-benchmark" .)
exec "$build/helix-benchmark" "$@"
