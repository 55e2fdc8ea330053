GO ?= go

.PHONY: all vet build test race check fuzz-smoke chaos-smoke chaos-crash-soak loadtest-smoke forecast-smoke markov-smoke bench-smoke bench-parallel metrics-smoke bench bench-gates perfbench-smoke ci

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The timeout makes a hung test fail fast instead of after the 10-minute
# default.
test:
	$(GO) test -timeout 3m ./...

# Race-check the packages with concurrent hot paths: the iShare network
# layer, the parallel testbed runner, the contention harness (whose
# calibration cache is shared across worker goroutines), the streaming
# trace codec, the chaos fault injector, and the availability detector and
# differential harness (which exercise the parallel runner under -race).
race:
	$(GO) test -race ./internal/ishare/ ./internal/testbed/ ./internal/contention/ ./internal/trace/ ./internal/chaos/ ./internal/availability/ ./internal/check/ ./internal/forecast/ ./internal/loadgen/ ./internal/markov/

# Differential correctness harness: 200 randomized seeds replayed through
# the naive reference model and the optimized detector/controller/testbed
# paths, which must agree exactly (see internal/check).
check:
	$(GO) run ./cmd/fgcs-bench -check -check-seeds 200

# Short native-fuzz smokes over the committed corpus plus a few seconds of
# newly generated input; longer sessions just raise -fuzztime.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDetectorObserve' -fuzztime 5s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzCodecRoundTrip' -fuzztime 5s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzIndexQueries' -fuzztime 5s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzColBlockRoundTrip' -fuzztime 5s ./internal/check/
	$(GO) test -run '^$$' -fuzz 'FuzzProtocolDecode' -fuzztime 5s ./internal/ishare/
	$(GO) test -run '^$$' -fuzz 'FuzzWALReplay' -fuzztime 5s ./internal/ishare/

# Deterministic-seed chaos smoke: scripted partition + refusal burst over a
# live registry and nodes, asserting exactly-once completion.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSmoke' -count 1 ./internal/chaos/

# Crash-recovery soak: 50 fixed-seed randomized schedules of shard and
# broker kills at virtual times (with fsync latency and clock skew on some
# seeds), asserting under -race that no acked registration is lost, the
# ShardMap version stays monotonic, exactly-once submission holds through
# shard death, and gossip reconverges after heal.
chaos-crash-soak:
	$(GO) test -race -run 'TestCrashSoak' -count 1 ./internal/chaos/

# Control-plane smoke: a 10k-node synthetic fleet over 2 registry shards,
# batched registration, churned heartbeats, ranked fan-out discovery, the
# same discovery with shard 0 chaos-partitioned, then a crash-restart
# phase (shard killed and WAL-recovered under load) — gated on the smoke
# SLOs including recovery < 2 s and crash-window discovery p99 <= 2x
# healthy (exits nonzero on violation).
loadtest-smoke:
	$(GO) run ./cmd/fgcs-loadtest -smoke

# Forecast-driven scheduling smoke: the fixed-seed replay evaluation
# (proactive checkpoint/migrate must waste >= 10% less guest CPU than the
# reactive baseline at equal-or-better throughput; exits nonzero on a
# gate miss) plus the online-vs-offline forecast differential, which
# pins the incremental forecaster bit-equal (1e-9) to the batch-trained
# predictors on every seed.
forecast-smoke:
	$(GO) run ./cmd/fgcs-loadtest -forecast
	$(GO) test -run 'TestRunSmoke' -count 1 ./internal/check/

# Generative-model smoke: the fit -> generate -> refit round trip on its
# three fixed seeds (transition rates and interval ECDFs must be recovered
# within the E24 tolerances) plus the scenario legality and stream
# differential on two fixed seeds.
markov-smoke:
	$(GO) test -count 1 -run 'TestFitGenerateRefitRoundTrip|TestScenarioTracesAreLegal|TestScenarioStreamDifferential' ./internal/markov/

# A short benchmark pass that exercises the performance-critical paths
# without producing stable numbers; full runs go through cmd/fgcs-bench.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRunMachineWeek|BenchmarkTickSixProcesses|BenchmarkDetectorObserve' -benchtime 10x ./internal/testbed/ ./internal/simos/ ./internal/availability/
	$(GO) test -run '^$$' -bench 'BenchmarkRunShardedFleet|BenchmarkWriteBinary|BenchmarkReadBinary|BenchmarkStreamAnalyzer|BenchmarkEvaluateHistoryWindow' -benchtime 1x ./internal/testbed/ ./internal/trace/ ./internal/predict/

# Parallel-analyzer smoke under the race detector: the worker-pool block
# scanner, its merge associativity, and the sharded v2 encoder round-trip,
# all on small fixed-seed corpora.
bench-parallel:
	$(GO) test -race -count 1 -run 'TestAnalyzeBlockFiles|TestMergeFrom|TestBlockIndexMatchesIndex' ./internal/trace/
	$(GO) test -race -count 1 -run 'TestEncoderSinkV2RoundTrip' ./internal/testbed/

# Regression-gated subset of the core benchmarks: the v2 codec, the block
# scanner, point queries, the serial/parallel analyze engines, predictor
# evaluation and the sharded control plane, checked against their recorded
# expectations (and the v2-size, speedup, point-query, shard-scaling and
# discovery-p99 gates) without rewriting BENCH_core.json.
bench-gates:
	$(GO) run ./cmd/fgcs-bench -only 'trace/|analyze/|predict/|ishare/|forecast/|markov/' -out ''

# Metrics-endpoint smoke: start ishared with an ephemeral metrics port,
# scrape /healthz and /metrics, assert the expected families are served.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# Repository-benchmark smoke. perfbench is a Go module of its own, so the
# root `go test ./...` never builds it: run its seeded-defect self-test,
# then every workload for one second in both modes, each required to be
# correct and to emit exactly BENCHMARK.json's metrics with their units.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
	python3 perfbench/run.py --smoke

# Full core benchmarks, written to BENCH_core.json. Includes the
# observability gates: instrumented-run overhead and byte-identical output.
bench:
	$(GO) run ./cmd/fgcs-bench -out BENCH_core.json

ci: vet build test race check fuzz-smoke chaos-smoke chaos-crash-soak loadtest-smoke forecast-smoke markov-smoke bench-smoke bench-parallel bench-gates metrics-smoke perfbench-smoke
