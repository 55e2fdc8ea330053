#!/bin/sh
# CI entry point: vet, build, test, race-check the concurrent packages and
# smoke the benchmarks. Mirrors `make ci` for environments without make.
set -eux

go vet ./...
go build ./...
# A hung test fails fast instead of after the 10-minute default.
go test -timeout 3m ./...
go test -race ./internal/ishare/ ./internal/testbed/ ./internal/contention/ \
    ./internal/trace/ ./internal/chaos/ ./internal/availability/ ./internal/check/ \
    ./internal/forecast/ ./internal/loadgen/ ./internal/markov/
# Differential correctness harness: 200 randomized seeds through the naive
# reference model vs the optimized detector/controller/testbed paths.
go run ./cmd/fgcs-bench -check -check-seeds 200
# Short fuzz smokes over the committed corpus plus a few seconds of new input.
go test -run '^$' -fuzz 'FuzzDetectorObserve' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz 'FuzzCodecRoundTrip' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz 'FuzzIndexQueries' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz 'FuzzColBlockRoundTrip' -fuzztime 5s ./internal/check/
go test -run '^$' -fuzz 'FuzzProtocolDecode' -fuzztime 5s ./internal/ishare/
go test -run '^$' -fuzz 'FuzzWALReplay' -fuzztime 5s ./internal/ishare/
# Deterministic-seed chaos smoke: scripted partition + refusal burst over a
# live registry and nodes, asserting exactly-once completion.
go test -race -run 'TestChaosSmoke' -count 1 ./internal/chaos/
# Crash-recovery soak: 50 fixed-seed schedules of shard/broker kills at
# virtual times under -race — no acked registration lost, monotonic
# ShardMap, exactly-once submission, gossip reconvergence after heal.
go test -race -run 'TestCrashSoak' -count 1 ./internal/chaos/
# Control-plane smoke: 10k synthetic nodes over 2 shards with a chaos
# partition of shard 0 and a crash-restart phase (shard killed and
# WAL-recovered under load), gated on the smoke SLOs including
# recovery < 2 s and crash-window discovery p99 <= 2x healthy.
go run ./cmd/fgcs-loadtest -smoke
# Forecast-driven scheduling smoke: fixed-seed replay evaluation gated on
# proactive checkpoint/migrate wasting >= 10% less guest CPU than the
# reactive baseline at equal-or-better throughput, plus the
# online-vs-offline forecast differential (bit-equal to 1e-9).
go run ./cmd/fgcs-loadtest -forecast
go test -run 'TestRunSmoke' -count 1 ./internal/check/
# Generative-model smoke: fit -> generate -> refit round trip on three
# fixed seeds (rates and interval ECDFs recovered within the E24
# tolerances) plus scenario legality and the stream differential.
go test -count 1 -run 'TestFitGenerateRefitRoundTrip|TestScenarioTracesAreLegal|TestScenarioStreamDifferential' ./internal/markov/
go test -run '^$' -bench 'BenchmarkRunMachineWeek|BenchmarkTickSixProcesses|BenchmarkDetectorObserve' \
    -benchtime 10x ./internal/testbed/ ./internal/simos/ ./internal/availability/
# Fleet-pipeline smoke: sharded runner + streaming analyzer, binary codec,
# and the accelerated predictor evaluation, one iteration each.
go test -run '^$' -bench 'BenchmarkRunShardedFleet|BenchmarkWriteBinary|BenchmarkReadBinary|BenchmarkStreamAnalyzer|BenchmarkEvaluateHistoryWindow' \
    -benchtime 1x ./internal/testbed/ ./internal/trace/ ./internal/predict/
# Parallel-analyzer smoke under the race detector: worker-pool block
# scanner, merge associativity, sharded v2 encoder round-trip.
go test -race -count 1 -run 'TestAnalyzeBlockFiles|TestMergeFrom|TestBlockIndexMatchesIndex' ./internal/trace/
go test -race -count 1 -run 'TestEncoderSinkV2RoundTrip' ./internal/testbed/
# Regression-gated core benchmarks: v2 codec, block scan, point queries,
# serial/parallel analyze, predictor evaluation, sharded control plane —
# against their recorded expectations plus the v2-size, parallel-speedup,
# point-query, shard-scaling and discovery-p99 gates.
go run ./cmd/fgcs-bench -only 'trace/|analyze/|predict/|ishare/|forecast/|markov/' -out ''
# Metrics-endpoint smoke: start ishared with an ephemeral metrics port,
# scrape /healthz and /metrics, assert the expected families.
sh "$(dirname "$0")/metrics_smoke.sh"
# Repository-benchmark smoke: perfbench is its own Go module, so the root
# `go test ./...` never builds it. Seeded-defect self-test, then every
# workload for one second in both modes against BENCHMARK.json's metrics.
(cd perfbench && go test ./...)
python3 perfbench/run.py --smoke
