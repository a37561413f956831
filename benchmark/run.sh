#!/bin/sh
# Builds the benchmark inside the checkout and runs it. Everything the
# build writes (Go build cache included) goes under .bench_build, so
# nothing outside the checkout is read or written.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
