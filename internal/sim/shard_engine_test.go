package sim

import (
	"reflect"
	"runtime"
	"testing"

	"jasworkload/internal/power4"
)

// TestEngineShardedDeterminism: the engine's windows and HPM counters
// must be byte-identical at every GOMAXPROCS — the host's parallelism
// may change the shard count and every queue-timing interleaving, but
// never a result. At GOMAXPROCS=1 the shard group collapses to direct
// dispatch into the fused loop, so the reference leg is the fused
// schedule and the others run the concurrent merge. This exercises the
// window drain barrier: the per-window CPI read feeds the capacity
// model, so a counter that lagged the barrier by even one batch would
// change scheduling and cascade into different windows.
func TestEngineShardedDeterminism(t *testing.T) {
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if n := power4.AutoShards(4); n != 0 {
			t.Fatalf("AutoShards(4) at GOMAXPROCS=1 = %d, want 0 (fused)", n)
		}
	}()
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		if n := power4.AutoShards(4); n <= 0 {
			t.Fatalf("AutoShards(4) at GOMAXPROCS=2 = %d, want > 0 (sharded)", n)
		}
	}()
	run := func(procs int) ([]WindowStats, []power4.Counters) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sut := smallSUT(t, 8)
		ecfg := DefaultEngineConfig()
		ecfg.DurationMS = 10_000
		ecfg.RampMS = 2_000
		ecfg.DetailFrac = 0.02
		e, err := NewEngine(ecfg, sut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		perCore := make([]power4.Counters, len(sut.Cores))
		for i, c := range sut.Cores {
			perCore[i] = c.Counters()
		}
		return e.Windows(), perCore
	}

	refWin, refCtr := run(1) // GOMAXPROCS=1: auto mode collapses to fused
	// The run must actually have exercised detail mode.
	var total power4.Counters
	for i := range refCtr {
		total.AddAll(&refCtr[i])
	}
	if total.Get(power4.EvInstCompleted) == 0 {
		t.Fatal("detail run completed no instructions; the equivalence is hollow")
	}
	for _, procs := range []int{2, 3, 8} {
		win, ctr := run(procs)
		if !reflect.DeepEqual(refWin, win) {
			t.Fatalf("GOMAXPROCS=%d: windows diverged from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(refCtr, ctr) {
			t.Fatalf("GOMAXPROCS=%d: counters diverged from GOMAXPROCS=1", procs)
		}
	}
}

// TestEngineShardTeardown: an engine abandoned after RunContext must
// leave no shard group attached — Step called on a finished engine or a
// fresh engine must keep working against the fused path.
func TestEngineShardTeardown(t *testing.T) {
	sut := smallSUT(t, 8)
	e := shortEngine(t, sut, 3_000, 1_000, 0.02)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.shard != nil {
		t.Fatal("shard group survived RunContext")
	}
}
