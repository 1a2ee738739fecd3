package sim

import (
	"testing"

	"jasworkload/internal/isa"
	"jasworkload/internal/power4"
	"jasworkload/internal/server"
)

// recordDetailTrace drives the real emitter through a mix of request
// classes plus GC and idle work, capturing the exact instruction stream
// the detail path would feed a core.
func recordDetailTrace(t *testing.T) []isa.Instr {
	t.Helper()
	sut, err := BuildSUT(DefaultSUTConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	rec := &isa.Recorder{}
	types := []server.RequestType{
		server.ReqBrowse, server.ReqPurchase, server.ReqManage,
		server.ReqCreateVehicle, server.ReqBrowse, server.ReqPurchase,
	}
	now := 0.0
	for round := 0; round < 8; round++ {
		for _, rt := range types {
			if _, err := sut.Server.Execute(now, rt, rec, 0.05); err != nil {
				t.Fatal(err)
			}
			now += 33
		}
		sut.Server.EmitGC(rec, 4000)
		sut.Server.EmitIdle(rec, 2000)
	}
	if len(rec.Trace) < 100_000 {
		t.Fatalf("recorded only %d instructions; trace too small to be meaningful", len(rec.Trace))
	}
	return rec.Trace
}

// TestDetailStreamEquivalence is the end-to-end batching guarantee at
// the sim layer: the same emitter-produced trace streamed through (a)
// the pre-change reference path (per-instruction Consume, fast paths
// off), (b) the production batched path (ConsumeBatch, fast paths on)
// and (c) the staged shard-group path must leave identical HPM counters
// in the core.
func TestDetailStreamEquivalence(t *testing.T) {
	trace := recordDetailTrace(t)

	run := func(batched, fast bool) power4.Counters {
		sut, err := BuildSUT(DefaultSUTConfig(30))
		if err != nil {
			t.Fatal(err)
		}
		core := sut.Cores[0]
		core.SetFastPaths(fast)
		sut.Hier.SetFastPaths(fast)
		if batched {
			isa.Replay(trace, core, isa.DefaultBatchCap)
		} else {
			for i := range trace {
				core.Consume(&trace[i])
			}
		}
		return core.Counters()
	}

	// The staged path: the same trace fed through a one-worker shard
	// group (forced, so it runs the branch/memory/accounting stages and
	// the coherence merge even on a 1-CPU host), at several batch sizes
	// and queue depths (batch-boundary and depth invariance is part of
	// the guarantee).
	runSharded := func(batchCap, depth int) power4.Counters {
		sut, err := BuildSUT(DefaultSUTConfig(30))
		if err != nil {
			t.Fatal(err)
		}
		g, err := power4.NewShardGroup(sut.Cores, sut.Hier, power4.ShardConfig{Shards: 1, BatchCap: batchCap, Depth: depth})
		if err != nil {
			t.Fatal(err)
		}
		isa.Replay(trace, g.Sink(0), isa.DefaultBatchCap)
		g.Close()
		return sut.Cores[0].Counters()
	}

	want := run(false, false) // the pre-change model
	got := run(true, true)    // the fused production path
	for _, ev := range power4.AllEvents() {
		if got.Get(ev) != want.Get(ev) {
			t.Errorf("%v: batched+fast = %d, reference = %d", ev, got.Get(ev), want.Get(ev))
		}
	}
	for _, pc := range []struct{ cap, depth int }{
		{1, 1}, {7, 2}, {256, 4}, {4096, 4},
	} {
		gotS := runSharded(pc.cap, pc.depth)
		for _, ev := range power4.AllEvents() {
			if gotS.Get(ev) != want.Get(ev) {
				t.Errorf("sharded cap=%d depth=%d: %v = %d, reference = %d",
					pc.cap, pc.depth, ev, gotS.Get(ev), want.Get(ev))
			}
		}
	}

	// Sanity: the real emitter trace must exercise the model broadly, or
	// the equality above is hollow.
	for _, ev := range []power4.Event{
		power4.EvLoads, power4.EvStores, power4.EvBrCond, power4.EvBrIndirect,
		power4.EvLarx, power4.EvStcx, power4.EvSyncCount, power4.EvKernelInst,
		power4.EvL1DLoadMiss, power4.EvL1IMiss, power4.EvDERATMiss,
	} {
		if want.Get(ev) == 0 {
			t.Errorf("emitter trace never produced %v", ev)
		}
	}
}
