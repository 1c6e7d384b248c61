#!/bin/sh
# check.sh — the repo's CI gate: formatting, vet, build, race-enabled
# tests, and a benchmark smoke pass (compile + a 100-iteration Table
# 5.3 sweep so the bench harness itself can't rot). Run from the repo
# root:
#
#   ./scripts/check.sh          # full gate
#   ./scripts/check.sh fast     # skip full -race (quick local iteration)
#
# The model-registry conformance suite (internal/model) always runs
# under -race, even in fast mode: it exercises the sharded fan-out
# pipeline, whose bugs are data races by construction. So do the fleet
# registry and the daemon, whose tenant listings read model counters
# while ingest runs. Both modes also run the golden-digest test that
# pins every registry model's curves bit for bit and its counts
# exactly.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== difftest-fast (differential harness, deterministic trials)"
go test -count=1 -run 'TestDifferential|TestCorpus|TestMetamorphic' ./internal/difftest/

echo "== cheform-fast (analytic tier: solver, fitter, declared envelopes)"
go test -count=1 ./internal/cheform/
go test -count=1 -run 'TestDifferentialAnalytic|TestAnalyticCurveInvariants' ./internal/difftest/

if [ "${1:-}" = "fast" ]; then
	echo "== go test (no race)"
	go test ./...
	echo "== model conformance + snapshots (-race)"
	go test -race -run 'TestConformance|TestSharded|TestSnapshot|TestQuiesce' ./internal/model/ ./internal/shardpipe/
	echo "== redislike + dlru (-race: duel counters, controller retarget)"
	go test -race ./internal/redislike/... ./internal/dlru/...
	echo "== fleet + krrserve (-race: tenant listings read model counters during ingest)"
	go test -race ./internal/fleet/ ./cmd/krrserve/
else
	echo "== go test -race"
	go test -race ./...
fi

echo "== golden curve digests (every registry model's curves and counts stay bit-identical)"
go test -count=1 -run TestGoldenCurveDigests ./internal/model/

echo "== duel-smoke (set-dueling tournament tracks the best static rival)"
go test -count=1 -run TestDuelSmoke ./internal/redislike/

echo "== krrserve smoke (build daemon, ingest over HTTP, scrape, SIGTERM)"
go test -count=1 -run TestServeSmoke ./cmd/krrserve/

echo "== fleet smoke (3 tenants, shared budget, /allocate plan checks)"
go test -count=1 -run TestFleetSmoke ./cmd/krrserve/

echo "== ingest smoke (krrload -> krrserve wire plane over loopback, zero drops)"
go test -count=1 -run TestIngestSmoke ./cmd/krrserve/

echo "== wire hot-path alloc guard (decode must stay allocation-free)"
go test -count=1 -run TestDecodeHotPathAllocFree ./internal/wire/

echo "== bench smoke (Table 5.3, 100x)"
go test -run=NONE -bench=Table5_3 -benchtime=100x .

echo "== KRR hot-path A/B guard (interleaved ratios vs aet)"
KRR_BENCH_GUARD=1 go test -count=1 -run TestKRRHotPathABGuard .

echo "check.sh: OK"
