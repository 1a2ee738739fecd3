# Tier-1 is what the roadmap requires green: build + tests.
# `make ci` is the tier-1+ gate: formatting, vet, build, the full test
# suite under the race detector with shuffled test order (exercising the
# parallel experiment scheduler and the jasd worker pool), short fuzzes
# of the router's request keying and the trace reader, vet and tests of the nested jasbench
# module, the workload pack calibration gate (quick-scale scalars +
# report vs testdata goldens for all three packs), a one-shot
# benchmark smoke of the Figure 2 pipeline and the db/jvm substrate,
# the jasd service smoke (real daemon on a random port, golden-report
# diff, graceful drain), the sweep smoke (12-cell grid through the real
# daemon costing exactly one request-level simulation), and the loadgen
# smoke (ramp spec vs its recorded trace: distinct jobs, byte-identical
# reports).

GO ?= go

.PHONY: all build test ci fmt vet race fuzz jasbench-check equiv calibrate bench-smoke report service-smoke sweep-smoke loadgen-smoke store-smoke shard-smoke

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

# Short fuzzes of untrusted input. The -route router's request keying:
# routeKey and pathID never panic, and a submission body within the
# replicas' bound is left on the request byte for byte for the proxy leg.
# The trace v1 reader: ReadTrace never panics, and an accepted trace
# writes back byte-stably.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRouteKey -fuzztime 5s ./cmd/jasd/
	$(GO) test -run '^$$' -fuzz FuzzReadTrace -fuzztime 5s ./internal/loadgen/

# jasbench/ is its own Go module, so the root `go build ./...` cannot see
# it: vet and test it here, so a core or power4 API it imports cannot be
# removed or renamed without CI noticing.
jasbench-check:
	cd jasbench && $(GO) vet ./... && $(GO) test ./...

# The batched fused loop must be bit-equivalent to the per-instruction
# reference (fast paths off), the coherence directory, the reservation
# ledger and the caches must match their naive differential models, the
# branch-free cycle spills must match the guarded ones bit for bit, and
# the core-sharded schedule
# must be bit-equivalent at every shard count, batch size, queue depth,
# and GOMAXPROCS; run those guards on their own so a failure names them
# directly, then once more under the race detector so the shard workers
# and merge are exercised for data races too. The trace emitter is held to
# its oracles the same way: the table-driven mix sampler must draw the
# reference sampler's class sequence exactly, and the emitted stream must
# hash to its pinned SHA-256. The JVM heap must match its naive reference
# heap after every operation of a random stream (also under the race
# detector), and the heap-size sweep's Figures 2-4 must hash to their
# pinned SHA-256.
equiv:
	$(GO) test -run 'TestMixSamplerMatchesOracle|TestMixSamplerReset|TestEmitStreamFingerprint' ./internal/isa/ ./internal/server/
	$(GO) test -run 'TestHeapMatchesReference|TestHeapSweepFingerprint' ./internal/jvm/
	$(GO) test -run 'TestDetailStreamEquivalence|TestDirTableMatchesMap|TestReservationLedgerMatchesMap|TestSpillMatchesGuarded|TestCacheInsertMatchesNaive' ./internal/sim/ ./internal/power4/
	$(GO) test -run 'TestSharded' ./internal/power4/
	$(GO) test -run 'TestEngineSharded' ./internal/sim/
	$(GO) test -race -run 'TestShardedEquivalence|TestEngineSharded|TestDetailStreamEquivalence' ./internal/power4/ ./internal/sim/
	$(GO) test -race -run 'TestHeapMatchesReference' ./internal/jvm/

# The workload-pack calibration gate: every registered scenario pack
# (jas2004, dataanalytics, virtweb) re-derives its quick-scale headline
# scalars and full markdown report and must match the pinned goldens
# under testdata/ byte for byte. jas2004's report golden is
# testdata/golden_report_quick.md itself, so this doubles as the
# zero-behaviour-change guard for the workload refactor. Regenerate
# deliberately with `go run ./cmd/calibrate -update -workload all`.
calibrate:
	$(GO) run ./cmd/calibrate -check -workload all

# The floor check (JAS_BENCH_FLOOR=1) fails if the sharded-auto detail
# stream is slower than the fused loop: the concurrent schedule may never
# be a pessimization on the CI host. The db and jvm substrate
# microbenchmarks (WAL commit, scan after delete, heap collect, the
# heap-size sweep's collector traffic) and the trace-emission ones (one
# request's stream in ns/instr, one mix sampler draw) run once each so
# they keep compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig2|BenchmarkDetailStream|BenchmarkBuildReport' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkWALCommit|BenchmarkScanAfterDelete|BenchmarkHeapCollect|BenchmarkHeapSweepChurn' -benchmem -benchtime 1x ./internal/db/ ./internal/jvm/
	$(GO) test -run '^$$' -bench 'BenchmarkTraceEmit|BenchmarkMixSamplerNext' -benchtime 1x ./internal/server/ ./internal/isa/
	JAS_BENCH_FLOOR=1 $(GO) test -run 'TestShardedFloor' -count 1 .

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
# report generated by jasrun and served by a real jasd must both be
# byte-identical to the pinned golden, and /metrics must surface the shard
# gauge and merge-stall counters.
shard-smoke:
	sh scripts/shard_smoke.sh

ci: fmt vet build race fuzz jasbench-check equiv calibrate bench-smoke service-smoke sweep-smoke loadgen-smoke store-smoke shard-smoke

# Regenerate the paper-vs-measured table (EXPERIMENTS.md format).
report:
	$(GO) run ./cmd/jasrun -markdown
