#!/bin/sh
# Entry point of the benchmark (BENCHMARK.json's "command"), run from the
# root of a checkout: `sh bench/run.sh [flags]`. bench/ is a module of
# its own (bench/go.mod, which replaces `she` by the tree above it), so
# this builds it there and runs the binary from the root. Everything the
# toolchain and the benchmark write (build cache, binaries, WAL
# directories, span files) stays under .bench_build in the checkout, and
# nothing is read from the invoking user's Go settings.
set -e
if [ ! -f go.mod ] || [ ! -f cmd/shed/main.go ]; then
	echo "bench/run.sh: no go.mod and cmd/shed here: run from the root of a checkout that has the program" >&2
	exit 1
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"
# With a fresh HOME the go command would otherwise start its telemetry
# child, a detached process that outlives the command that started it.
echo off >"$build/home/.config/go/telemetry/mode"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOWORK=off TMPDIR="$build/tmp"
go build -C bench -o "$build/bench" .
exec "$build/bench" -out "$build/out" "$@"
