package power4

import (
	"runtime"
	"testing"

	"jasworkload/internal/isa"
	"jasworkload/internal/mem"
)

// freshSystem builds n cores over one shared hierarchy.
func freshSystem(t *testing.T, n int) ([]*Core, *Hierarchy, *mem.Layout) {
	t.Helper()
	layout, err := mem.NewLayout(mem.DefaultLayoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(DefaultTopologyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]*Core, n)
	for i := range cores {
		cores[i], err = NewCore(DefaultCoreConfig(i), h, layout.Space)
		if err != nil {
			t.Fatal(err)
		}
	}
	return cores, h, layout
}

// interleave chops each core's trace into chunks and returns the global
// feed order: core 0 chunk 0, core 1 chunk 0, ..., core 0 chunk 1, ...
// This is the shape the engine produces — per-core runs interleaved at
// request granularity over the shared hierarchy.
func interleave(traces [][]isa.Instr, chunk int) (order []int, chunks [][]isa.Instr) {
	pos := make([]int, len(traces))
	for {
		progressed := false
		for c := range traces {
			if pos[c] >= len(traces[c]) {
				continue
			}
			end := pos[c] + chunk
			if end > len(traces[c]) {
				end = len(traces[c])
			}
			order = append(order, c)
			chunks = append(chunks, traces[c][pos[c]:end])
			pos[c] = end
			progressed = true
		}
		if !progressed {
			return order, chunks
		}
	}
}

// TestShardedEquivalence is the tentpole guarantee for the core-sharded
// schedule: a multi-core stream over a shared hierarchy produces
// bit-identical HPM counters whether it runs through the fused loop or
// per-core shard goroutines with the deterministic coherence merge — at
// every tested shard count and queue depth, including mid-stream drain
// barriers. Shard counts above the core count exercise the clamp; shard
// count 1 exercises the degenerate all-cores-on-one-worker schedule
// where the merge never reorders anything.
func TestShardedEquivalence(t *testing.T) {
	const nCores = 4
	layout, err := mem.NewLayout(mem.DefaultLayoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	traces := make([][]isa.Instr, nCores)
	for c := range traces {
		traces[c] = synthTrace(layout, 60_000, int64(c+1))
	}
	order, chunks := interleave(traces, 777)

	// Fused reference: same global feed order.
	refCores, _, _ := freshSystem(t, nCores)
	for i, c := range order {
		refCores[c].ConsumeBatch(chunks[i])
	}
	want := make([]Counters, nCores)
	for i, c := range refCores {
		want[i] = c.Counters()
	}

	for _, shards := range []int{1, 2, 3, 8} {
		for _, depth := range []int{1, 7, 4096} {
			cores, hier, _ := freshSystem(t, nCores)
			g, err := NewShardGroup(cores, hier, ShardConfig{Shards: shards, Depth: depth})
			if err != nil {
				t.Fatal(err)
			}
			if g.Mode() != "sharded" {
				t.Fatalf("shards=%d depth=%d: mode %q, want sharded", shards, depth, g.Mode())
			}
			for i, c := range order {
				g.Sink(c).ConsumeBatch(chunks[i])
				// Periodic drain barriers (the engine drains once per
				// window): they must be invisible to the final counts.
				if i%97 == 0 {
					g.Drain()
				}
			}
			g.Close()
			for ci, c := range cores {
				got := c.Counters()
				for _, ev := range AllEvents() {
					if got.Get(ev) != want[ci].Get(ev) {
						t.Errorf("shards=%d depth=%d core %d: %v = %d, fused %d",
							shards, depth, ci, ev, got.Get(ev), want[ci].Get(ev))
					}
				}
				if c.UnmappedAccesses() != refCores[ci].UnmappedAccesses() {
					t.Errorf("shards=%d depth=%d core %d: unmapped = %d, fused %d",
						shards, depth, ci, c.UnmappedAccesses(), refCores[ci].UnmappedAccesses())
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestShardedDrainBarrier: counters published at a Drain barrier must
// equal the fused loop's counters at the same stream position — the
// engine reads per-window CPI at exactly these points, and the CPI
// feedback loop makes any divergence compound into different scheduling.
func TestShardedDrainBarrier(t *testing.T) {
	cores, hier, layout := freshSystem(t, 2)
	refCores, _, _ := freshSystem(t, 2)
	traces := [][]isa.Instr{
		synthTrace(layout, 30_000, 11),
		synthTrace(layout, 30_000, 12),
	}
	order, chunks := interleave(traces, 500)

	g, err := NewShardGroup(cores, hier, ShardConfig{Shards: 2, BatchCap: 64, Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i, c := range order {
		g.Sink(c).ConsumeBatch(chunks[i])
		refCores[c].ConsumeBatch(chunks[i])
		if i%23 != 0 {
			continue
		}
		g.Drain()
		for ci := range cores {
			got, ref := cores[ci].Counters(), refCores[ci].Counters()
			for _, ev := range AllEvents() {
				if got.Get(ev) != ref.Get(ev) {
					t.Fatalf("barrier after chunk %d, core %d: %v = %d, fused %d",
						i, ci, ev, got.Get(ev), ref.Get(ev))
				}
			}
		}
	}
}

// TestShardedConsume covers the per-instruction Sink path and the sink's
// core affinity.
func TestShardedConsume(t *testing.T) {
	cores, hier, layout := freshSystem(t, 2)
	refCores, _, _ := freshSystem(t, 2)
	trace := synthTrace(layout, 5_000, 99)

	g, err := NewShardGroup(cores, hier, ShardConfig{Shards: 2, BatchCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if id := g.Sink(c).(interface{ CoreID() int }).CoreID(); id != c {
			t.Fatalf("Sink(%d).CoreID() = %d", c, id)
		}
	}
	for i := range trace {
		c := i % 2
		g.Sink(c).Consume(&trace[i])
		refCores[c].Consume(&trace[i])
	}
	g.Close()
	for ci := range cores {
		got, ref := cores[ci].Counters(), refCores[ci].Counters()
		for _, ev := range AllEvents() {
			if got.Get(ev) != ref.Get(ev) {
				t.Fatalf("core %d: %v = %d, fused %d", ci, ev, got.Get(ev), ref.Get(ev))
			}
		}
	}
}

// TestShardedAutoCollapse: with GOMAXPROCS=1 the auto mode must select
// the direct (fused) schedule — sharding is never a pessimization on a
// host with nothing to overlap — and the direct group must still consume
// correctly through its sinks.
func TestShardedAutoCollapse(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	if n := AutoShards(4); n != 0 {
		t.Fatalf("AutoShards(4) at GOMAXPROCS=1 = %d, want 0", n)
	}
	cores, hier, layout := freshSystem(t, 2)
	g, err := NewShardGroup(cores, hier, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Mode() != "direct" || g.Shards() != 0 {
		t.Fatalf("mode %q shards %d, want direct/0", g.Mode(), g.Shards())
	}
	trace := synthTrace(layout, 1_000, 7)
	g.Sink(0).ConsumeBatch(trace)
	g.Drain()
	if cores[0].Counters().Get(EvInstCompleted) != uint64(len(trace)) {
		t.Fatal("direct-mode sink did not reach the core")
	}
}

// TestShardedAutoShards pins the auto-mode sizing rule on multi-CPU
// hosts: one worker per simulated core, capped at GOMAXPROCS.
func TestShardedAutoShards(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	if n := AutoShards(4); n != 3 {
		t.Fatalf("AutoShards(4) at GOMAXPROCS=3 = %d, want 3", n)
	}
	if n := AutoShards(2); n != 2 {
		t.Fatalf("AutoShards(2) at GOMAXPROCS=3 = %d, want 2", n)
	}
}

// TestShardedCloseIdempotent: Close twice must not panic or deadlock,
// and counters must remain published.
func TestShardedCloseIdempotent(t *testing.T) {
	cores, hier, layout := freshSystem(t, 2)
	g, err := NewShardGroup(cores, hier, ShardConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := synthTrace(layout, 2_000, 5)
	g.Sink(1).ConsumeBatch(trace)
	g.Close()
	g.Close()
	if cores[1].Counters().Get(EvInstCompleted) != uint64(len(trace)) {
		t.Fatal("counters not published after Close")
	}
}

// TestShardedMergeStalls: the per-group stall counters are sized to the
// shard count and the process-wide export mirrors their growth. A depth-1
// queue with work on both shards makes at least one merge stall
// overwhelmingly likely, but zero is legal — the assertion is on
// consistency, not on a scheduling race.
func TestShardedMergeStalls(t *testing.T) {
	cores, hier, layout := freshSystem(t, 2)
	before := ShardMergeStalls()
	g, err := NewShardGroup(cores, hier, ShardConfig{Shards: 2, BatchCap: 16, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	traces := [][]isa.Instr{
		synthTrace(layout, 20_000, 21),
		synthTrace(layout, 20_000, 22),
	}
	order, chunks := interleave(traces, 100)
	for i, c := range order {
		g.Sink(c).ConsumeBatch(chunks[i])
	}
	g.Close()
	stalls := g.MergeStalls()
	if len(stalls) != 2 {
		t.Fatalf("MergeStalls len = %d, want 2", len(stalls))
	}
	after := ShardMergeStalls()
	if len(after) != shardStatSlots {
		t.Fatalf("ShardMergeStalls len = %d, want %d", len(after), shardStatSlots)
	}
	for w := 0; w < 2; w++ {
		if after[w]-before[w] < stalls[w] {
			t.Fatalf("global stall slot %d grew by %d, group recorded %d",
				w, after[w]-before[w], stalls[w])
		}
	}
}
