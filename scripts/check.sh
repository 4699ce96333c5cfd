#!/bin/sh
# Pre-merge gate: build, vet, repo-specific lint, tests (with race
# detector and with assertions enabled), and short fuzz smokes.
# Run from the repository root: ./scripts/check.sh
set -eu

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/lint ./..."
go run ./cmd/lint ./...

echo "==> hotalloc escape gate (//repro:noalloc kernels and simulator fast paths)"
go run ./cmd/lint -run hotalloc ./internal/kernels ./internal/cachesim

# The experiment smoke sweeps every registered technique through Table IV
# and the multi-device identity matrix; under -race on a small host that
# legitimately exceeds go test's default 600s per-package timeout, so give
# the hang detector explicit headroom. (The heaviest golden, the multidev
# registry sweep, skips itself under -race — see golden_test.go — and is
# gated by the non-race TestGolden step below.)
echo "==> go test -race ./..."
go test -race -timeout 2700s ./...

echo "==> go test -tags check ./internal/..."
go test -tags check -timeout 1800s ./internal/...

echo "==> worker-count determinism matrix under -race (parallel reordering tier)"
go test -race -run 'TestWorkerCountDeterminismMatrix' -count=1 ./internal/reorder

echo "==> registry coverage gate: every registered technique has Table IV rows"
go test -run 'TestTableIVCoversRegistry' -count=1 ./internal/experiments

echo "==> golden-file regression (serial and parallel must match the goldens)"
go test -run 'TestGolden' -count=1 ./internal/experiments

echo "==> RABBIT, RCM and RCM++ output pins: matrix, permutation, label and parent digests on every Small corpus matrix; RABBIT per-vertex and RCM++ per-component allocation regressions"
go test -run 'TestRabbitDigests|TestRabbitAllocsIndependentOfSize|TestRCMDigests|TestRCMPPScratchIndependentOfComponents' -count=1 ./internal/core ./internal/reorder

echo "==> simulator differential: fast vs reference, full corpus x all kernels"
go test -run 'TestDifferential|TestRunnerImplReference' -count=1 ./internal/experiments

echo "==> multi-device differential: K=1 bit-identical to the flat L2 path; owned (device, line) streams and home maps pinned by digest; cachesim's community split equals the Runner's (TestCLICachesimCommunitySplit)"
go test -run 'TestMultiDevFlatIdentity|TestOwnedDigests|TestCLICachesimCommunitySplit' -count=1 . ./internal/experiments ./internal/trace

echo "==> SpGEMM differential gate: all execution modes vs the dense int64 oracle; nnz(C) overflow and per-row allocation regressions"
go test -run 'TestSpGEMMDifferentialOracle|TestSpGEMMRelabelingInvariance|TestSpGEMMStrategiesBitIdentical|TestSpGEMMOutputOverflow|TestSpGEMMAllocsIndependentOfRows' -count=1 ./internal/kernels

echo "==> parallel suite smoke: cmd/experiments -workers=4"
go run ./cmd/experiments -corpus small -matrices soc-tight-2,er-deg16 -workers 4 -run fig2,obs,table3 >/dev/null

echo "==> cachesim multi-device CLI smoke (-devices 4, community split)"
tmpmtx=$(mktemp -d)
go run ./cmd/mtxgen -out "$tmpmtx" -matrices er-deg16 >/dev/null
go run ./cmd/cachesim -in "$tmpmtx/er-deg16.mtx" -devices 4 -partition community -techniques RANDOM,RABBIT >/dev/null
rm -rf "$tmpmtx"

echo "==> lint: internal/serve + internal/sparse (contract surface must be suppression-free)"
go run ./cmd/lint ./internal/serve ./internal/sparse

echo "==> reorderd service smoke (in-process HTTP round trip, sync + async job API)"
go run ./cmd/reorderd -smoke

echo "==> binary CSR wire-format gate (golden bytes, round trips, truncation corpus)"
go test -race -run 'TestBinaryCSR' -count=1 ./internal/sparse

echo "==> async job + ring gates under -race (lifecycle, long-poll, store hit, /reorder and /jobs joining one job, held, failed and timed-out jobs, 3-peer forwarding of both endpoints)"
go test -race -run 'TestJob|TestRing|TestThreePeerForwardingDeterminism|TestReorderBinaryUpload|TestReorderJoinsRunningJob|TestHeldJobOutlivesWaiters|TestTimedOutReorderLeavesNoEntry|TestHeldFailedJob' -count=1 ./internal/serve

echo "==> loadgen smoke: 1-peer and 3-peer in-process rings (asserts store hits + cross-peer forwards)"
go run ./cmd/loadgen -peers 1,3 -requests 32 -clients 4 -matrices 6 -nodes 128 -check >/dev/null

echo "==> fuzz smoke: FuzzValidCSR / FuzzValidPermutation (internal/check)"
go test -run=NONE -fuzz=FuzzValidCSR -fuzztime=5s ./internal/check
go test -run=NONE -fuzz=FuzzValidPermutation -fuzztime=5s ./internal/check

echo "==> fuzz smoke: FuzzRabbitRoundTrip (internal/core)"
go test -run=NONE -fuzz=FuzzRabbitRoundTrip -fuzztime=5s ./internal/core

echo "==> fuzz smoke: FuzzReorderHandler (internal/serve)"
go test -run=NONE -fuzz=FuzzReorderHandler -fuzztime=5s ./internal/serve

echo "==> fuzz smoke: FuzzBinaryCSRRoundTrip (internal/sparse wire format)"
go test -run=NONE -fuzz=FuzzBinaryCSRRoundTrip -fuzztime=5s ./internal/sparse

echo "==> fuzz smoke: FuzzBobaValidPermutation / FuzzRCMPPValidPermutation (internal/reorder)"
go test -run=NONE -fuzz=FuzzBobaValidPermutation -fuzztime=5s ./internal/reorder
go test -run=NONE -fuzz=FuzzRCMPPValidPermutation -fuzztime=5s ./internal/reorder

echo "==> fuzz smoke: FuzzSpGEMMValidCSR (internal/kernels)"
go test -run=NONE -fuzz=FuzzSpGEMMValidCSR -fuzztime=5s ./internal/kernels

echo "==> fuzz smoke: FuzzLRUFastVsReference (internal/cachesim differential)"
go test -run=NONE -fuzz=FuzzLRUFastVsReference -fuzztime=5s ./internal/cachesim

echo "==> fuzz smoke: FuzzPartition (internal/partition label + permutation invariants)"
go test -run=NONE -fuzz=FuzzPartition -fuzztime=5s ./internal/partition

echo "==> fuzz smoke: FuzzFeatures (internal/advisor)"
go test -run=NONE -fuzz=FuzzFeatures -fuzztime=5s ./internal/advisor

echo "==> advisor eval smoke (committed model on the test subset)"
go run ./cmd/advisor eval -corpus small -matrices soc-tight-2,cfd-2d-5pt,pld-arc-like,er-deg16,mawi-like,wiki-talk-like >/dev/null

echo "All checks passed."
