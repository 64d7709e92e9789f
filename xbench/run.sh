#!/usr/bin/env bash
# Builds the benchmark and the xqd server from the sources of the checkout
# it is started in, then runs one workload:
#
#   bash xbench/run.sh --workload table2-rel --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes lands in .bench_build/ under the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
cd "$root/xbench"
go build -o "$out/xbench" .
go build -o "$out/xqd" repro/cmd/xqd
cd "$root"
# The table2 workloads collect garbage between cells so that no cell pays
# for the last one's garbage. With the runtime's default (MADV_DONTNEED),
# the heap freed by each collection goes back to the kernel and the next
# cell faults it in again: 740k page faults in a 15 s run of table2-rel,
# a tenth of its CPU time spent in the kernel, at a cost that moves with
# the host's memory pressure. MADV_FREE leaves those pages mapped until
# the kernel needs them (38k faults in the same run). xqd is started
# without this setting.
export GODEBUG=madvdontneed=0
exec "$out/xbench" -work "$out" -xqd "$out/xqd" "$@"
