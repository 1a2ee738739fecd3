// The bench-smoke floor check: the concurrent detail schedule must never
// be a pessimization on the CI host. The shard group auto-selects its
// schedule per host (one worker per simulated core with CPUs to overlap
// them, collapsed onto the fused loop without), so the production
// configuration is required to keep pace with the fused loop everywhere —
// a regression here means the mode selection or a stage got slower than
// the loop it replaced.
package jasworkload

import (
	"os"
	"testing"
	"time"

	"jasworkload/internal/isa"
	"jasworkload/internal/power4"
)

// TestShardedFloor fails if the auto-configured shard group runs the
// interleaved multi-core stream slower than the fused loop on the running
// host. Both legs consume the identical round-robin feed,
// so the comparison isolates the schedule, not the feed shape. Gated
// behind JAS_BENCH_FLOOR (set by `make bench-smoke`) because it is a
// timing assertion: the two legs alternate within each round so host
// noise lands on both, minima are compared so one contended sample cannot
// fail the build, and a small tolerance absorbs timer jitter.
func TestShardedFloor(t *testing.T) {
	if os.Getenv("JAS_BENCH_FLOOR") == "" {
		t.Skip("timing floor; run via `make bench-smoke` (JAS_BENCH_FLOOR=1)")
	}
	trace := benchDetailTrace(t)
	const chunk = 4096

	feed := func(sinks []isa.BatchSink) {
		for off, c := 0, 0; off < len(trace); off, c = off+chunk, c+1 {
			end := off + chunk
			if end > len(trace) {
				end = len(trace)
			}
			sinks[c%len(sinks)].ConsumeBatch(trace[off:end])
		}
	}
	fused := func() time.Duration {
		sut := benchStreamCore(t)
		sinks := make([]isa.BatchSink, len(sut.Cores))
		for i := range sinks {
			sinks[i] = sut.Cores[i]
		}
		start := time.Now()
		feed(sinks)
		return time.Since(start)
	}
	sharded := func() time.Duration {
		sut := benchStreamCore(t)
		g, err := power4.NewShardGroup(sut.Cores, sut.Hier, power4.ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		sinks := make([]isa.BatchSink, len(sut.Cores))
		for i := range sinks {
			sinks[i] = g.Sink(i)
		}
		start := time.Now()
		feed(sinks)
		g.Drain()
		return time.Since(start)
	}

	const rounds = 5
	fusedMin, shardMin := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		if d := fused(); d < fusedMin {
			fusedMin = d
		}
		if d := sharded(); d < shardMin {
			shardMin = d
		}
	}
	t.Logf("fused min %v, sharded-auto min %v over %d paired rounds (%d instr)",
		fusedMin, shardMin, rounds, len(trace))

	// 3% tolerance: below measured paired-run jitter on an idle host,
	// far below any real mode-selection or stage regression.
	if limit := fusedMin + fusedMin*3/100; shardMin > limit {
		t.Errorf("sharded detail stream is a pessimization: min %v vs fused min %v (floor %v)",
			shardMin, fusedMin, limit)
	}
}
