#!/bin/sh
# CI pipeline: build, vet, gofmt, race-enabled tests, the benchmark module's
# vet and short tests, every Makefile gate, benchmark smoke. Run locally
# with `make ci` or `./scripts/ci.sh`.
#
# The gates are defined once, in the Makefile, and each selects its tests
# with a -run pattern; TestGateTestsExist (gates_test.go) fails when a
# pattern stops matching tests in a package it lists, or when a gate is
# missing from the make line below.
set -eux

go build ./...
go vet ./...
gofmt -l . | tee /tmp/gofmt.out
test ! -s /tmp/gofmt.out

go test -race ./...

# benchmark/ is its own module, so the root ./... above skips it. Vet and
# short-test it here, so removing a symbol it calls fails CI instead of the
# next benchmark run. -short skips TestSmoke, which runs the host-sensitive
# schedd-mixed workload.
(cd benchmark && go vet ./... && go test -short ./...)

# The named gates re-run their slices with -count=1, and turn on the
# env-gated ones the plain run above skips: chaos-gate forks real schedd
# processes (SCHEDD_CHAOS=1; a failing fault seed is logged for replay
# with CHAOS_SEED) and open-gate streams 1M jobs (OPEN_GATE=1).
make determinism policy-gate serve-gate cluster-gate chaos-gate fork-gate open-gate

make bench-smoke

# Perf gate (make perf-gate): the declarative workload cases under
# perf/cases/ measured with warmup + trials, checked against per-class
# goals and the newest BENCH_*.json baseline, appended to BENCH_<today>.json.
# Heavyweight (minutes of repeated benchmark trials on a loaded CI host),
# so it fires only when PERF_GATE=1; the ledger validator always runs so a
# hand-edit that corrupts BENCH_*.json fails every CI run, cheap or not.
go run ./cmd/perfgate -validate
if [ "${PERF_GATE:-0}" = "1" ]; then
	make perf-gate
fi
