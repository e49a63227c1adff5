#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; this is
# BENCHMARK.json's command. Everything the Go toolchain writes — build cache,
# module path, temporary files, its own config — is kept under .bench_build in
# the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
# Telemetry off: in its default "local" mode the go command starts a detached
# child (the weekly report pass) that can outlive it, and a run must leave no
# process behind. The mode file is the only switch the toolchain reads.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
