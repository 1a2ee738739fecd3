# Tier-1 is what the roadmap requires green: build + tests.
# `make ci` is the tier-1+ gate: formatting, vet, build, the full test
# suite under the race detector with shuffled test order (exercising the
# parallel experiment scheduler and the jasd worker pool), the workload
# pack calibration gate (quick-scale scalars + report vs testdata
# goldens for all three packs), a one-shot benchmark smoke of the
# Figure 2 pipeline and the db/jvm substrate, the jasd service smoke
# (real daemon on a random port, golden-report diff, graceful drain),
# the sweep smoke (12-cell grid through the real daemon costing
# exactly one request-level simulation), and the loadgen smoke (ramp
# spec vs its recorded trace: distinct jobs, byte-identical reports).

GO ?= go

.PHONY: all build test ci fmt vet race equiv calibrate bench-smoke bench-json report service-smoke sweep-smoke loadgen-smoke store-smoke shard-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -shuffle=on ./...

# The batched pipeline must be bit-equivalent to the per-instruction
# reference, the decoupled stage pipeline bit-equivalent to the fused
# loop at every stage-buffer size, and the core-sharded schedule
# bit-equivalent at every shard count, queue depth, and GOMAXPROCS; run
# those guards on their own so a failure names them directly, then once
# more under the race detector so the concurrent schedules (stage rings
# and the shard merge) are exercised for data races too.
equiv:
	$(GO) test -run 'TestDetailStreamEquivalence' ./internal/sim/
	$(GO) test -run 'TestPipeline' ./internal/power4/
	$(GO) test -run 'TestSharded' ./internal/power4/
	$(GO) test -run 'TestEngineSharded' ./internal/sim/
	$(GO) test -race -run 'TestPipelineEquivalence|TestShardedEquivalence|TestEnginePipelined|TestEngineSharded' ./internal/power4/ ./internal/sim/

# The workload-pack calibration gate: every registered scenario pack
# (jas2004, dataanalytics, virtweb) re-derives its quick-scale headline
# scalars and full markdown report and must match the pinned goldens
# under testdata/ byte for byte. jas2004's report golden is
# testdata/golden_report_quick.md itself, so this doubles as the
# zero-behaviour-change guard for the workload refactor. Regenerate
# deliberately with `go run ./cmd/calibrate -update -workload all`.
calibrate:
	$(GO) run ./cmd/calibrate -check -workload all

# The floor checks (JAS_BENCH_FLOOR=1) fail if the pipelined or the
# sharded-auto detail stream is slower than the fused loop: neither
# schedule may ever be a pessimization on the CI host. The db and jvm
# substrate microbenchmarks (WAL commit, scan after delete, heap collect)
# run once each so they keep compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig2|BenchmarkDetailStream|BenchmarkBuildReport' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkWALCommit|BenchmarkScanAfterDelete|BenchmarkHeapCollect' -benchmem -benchtime 1x ./internal/db/ ./internal/jvm/
	JAS_BENCH_FLOOR=1 $(GO) test -run 'TestPipelinedFloor|TestShardedFloor' -count 1 .

# Measured numbers for the README perf table: the stream benchmarks get
# 5 runs of 6 iterations (min-of-5 rides out shared-host noise), the
# full-report benchmark is too slow for that and gets 3 single-shot runs,
# and the jasd server path (submit + dedup + cached-report serve, client
# parallelism 1/4/8) gets 3 runs of 300 round trips. BENCH_OUT names the
# artifact; BENCH_BASELINE (a previous artifact) adds per-benchmark
# min-vs-min speedup deltas to it.
BENCH_OUT ?= BENCH_PR10.json
BENCH_BASELINE ?= BENCH_PR8.json
bench-json:
	{ $(GO) test -run '^$$' -bench 'BenchmarkDetailStream' -benchmem -benchtime 6x -count 5 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkLoadgenWindow' -benchmem -benchtime 1000x -count 5 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkBuildReport' -benchmem -benchtime 1x -count 3 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSweepGrid' -benchtime 1x -count 3 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkServeRuns' -benchtime 300x -count 3 ./internal/service/ ; } \
	| $(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -out $(BENCH_OUT)
	@cat $(BENCH_OUT)

# End-to-end smoke of the serving layer: real jasd on a random port,
# jasctl submit, golden-report diff, /metrics sanity, SIGTERM drain.
service-smoke:
	sh scripts/service_smoke.sh

# End-to-end smoke of the sweep orchestration: a 12-cell page-size x
# detail-frac grid through a real daemon must execute exactly one
# request-level simulation (split-key reuse), verified from /metrics.
sweep-smoke:
	sh scripts/sweep_smoke.sh

# End-to-end smoke of the load generator: jasrun records a ramp arrival
# trace standalone, jasd serves steady + ramp-spec + trace-replay jobs
# (three distinct job IDs), and the replay's markdown report must be
# byte-identical to the generating run's.
loadgen-smoke:
	sh scripts/loadgen_smoke.sh

# End-to-end smoke of the persistent artifact store: jasd with -store-dir
# survives kill -9 and serves the resubmitted run byte-identically with
# zero re-simulation; two replicas sharing one store cost one simulation
# total; a -route router fronts both replicas.
store-smoke:
	sh scripts/store_smoke.sh

# End-to-end smoke of the core-sharded detail schedule: the quick-scale
# report generated by jasrun -sharded and served by a real jasd -sharded
# must both be byte-identical to the pinned golden, and /metrics must
# surface the shard gauge and merge-stall counters.
shard-smoke:
	sh scripts/shard_smoke.sh

ci: fmt vet build race equiv calibrate bench-smoke service-smoke sweep-smoke loadgen-smoke store-smoke shard-smoke

# Regenerate the paper-vs-measured table (EXPERIMENTS.md format).
report:
	$(GO) run ./cmd/jasrun -markdown
